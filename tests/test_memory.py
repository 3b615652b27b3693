from __future__ import annotations

import json
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcagent.backend import ChatResponse, PromptTemplate
from gcagent.errors import (
    BackendFailure,
    DegenerateOutputWarning,
    EmptySummary,
    EmptyTranscript,
    InvalidLinkWarning,
    InvariantViolation,
    MemoryFileError,
    SchemaViolation,
    UnreadableFile,
)
from gcagent.memory import (
    LINK_RELATIONS,
    NARRATIVE_ROLES,
    CausalLink,
    Episode,
    EpisodeDraft,
    EpisodicMemory,
    MemoryParams,
    MemoryStore,
    ReflectionNote,
    _episode_text,
    _write_atomic,
    abstract_schema,
    abstraction_batch_size,
    build_memory,
    link_narrative,
    load_memory,
    memory_text,
    _target_episode,
    reflect,
    save_memory,
    segment_events,
)
from gcagent.prompts import (
    extract_block,
    format_speech_line,
    parse_transcript_block,
    parse_units_block,
    wrap_block,
)
from gcagent.reference import REFERS_BACK_LIMIT, ReferenceBackend, ScriptedBackend
from gcagent.text import capitalized_entities, truncate_tokens
from gcagent.transcript import load_transcript, transcript_digest

from conftest import FIXTURES, make_transcript, random_transcript


class TestSegmentEvents:
    def test_single_line_single_unit(self, reference):
        t = make_transcript([(0.0, 1.0, "only line")])
        assert segment_events(t, reference) == [(1, 1)]

    def test_gap_threshold_boundary(self, reference):
        t = make_transcript([(0.0, 2.0, "a a"), (10.0, 12.0, "b b"), (13.0, 15.0, "c c")])
        assert segment_events(t, reference) == [(1, 1), (2, 3)]

    def test_max_lines_split(self, reference):
        rows = [(i * 2.0, i * 2.0 + 2.0, f"line {i}") for i in range(45)]
        t = make_transcript(rows)
        assert segment_events(t, reference) == [(1, 20), (21, 40), (41, 45)]

    def test_empty_transcript(self, reference):
        with pytest.raises(EmptyTranscript):
            segment_events(make_transcript([]), reference)

    def test_degenerate_output_repaired_with_warning(self):
        t = make_transcript([(i * 1.0, i * 1.0 + 0.5, f"l{i}") for i in range(6)])
        backend = ScriptedBackend(['{"units": [[2, 3], [9, 11]]}'])
        with pytest.warns(DegenerateOutputWarning):
            units = segment_events(t, backend)
        flat = [i for a, b in units for i in range(a, b + 1)]
        assert flat == list(range(1, 7))

    def test_unreadable_output_becomes_single_unit(self):
        t = make_transcript([(0.0, 1.0, "a"), (1.0, 2.0, "b")])
        backend = ScriptedBackend(["sorry, here are your events:"])
        with pytest.warns(DegenerateOutputWarning):
            assert segment_events(t, backend) == [(1, 2)]

    def test_answer_nested_too_deep_becomes_single_unit(self):
        # json.loads raises RecursionError, not ValueError, on deep nesting
        t = make_transcript([(0.0, 1.0, "a"), (1.0, 2.0, "b")])
        backend = ScriptedBackend(["[" * 100_000])
        with pytest.warns(DegenerateOutputWarning):
            assert segment_events(t, backend) == [(1, 2)]

    def test_overlapping_units_clipped(self):
        t = make_transcript([(i * 1.0, i * 1.0 + 0.5, f"l{i}") for i in range(5)])
        backend = ScriptedBackend(['{"units": [[1, 3], [2, 5]]}'])
        with pytest.warns(DegenerateOutputWarning):
            assert segment_events(t, backend) == [(1, 3), (4, 5)]


class TestAbstractSchema:
    def test_summary_prefix_and_entities(self, reference):
        t = make_transcript([(0.0, 1.0, "Alice greets Bob warmly")])
        ((summary, entities),) = abstract_schema(t, [(1, 1)], reference)
        assert summary == "Event 1: Alice greets Bob warmly"
        assert entities == ("Alice", "Bob")

    def test_budget_truncates_to_exact_token_count(self, reference):
        words = " ".join(f"tok{i}" for i in range(100))
        t = make_transcript([(0.0, 1.0, words)])
        params = MemoryParams(summary_budget=30)
        ((summary, _),) = abstract_schema(t, [(1, 1)], reference, params)
        prefix, _, body = summary.partition(": ")
        assert prefix == "Event 1"
        assert len(body.split()) == 30

    def test_no_capitalized_tokens_no_entities(self, reference):
        t = make_transcript([(0.0, 1.0, "the sky darkens and then rain arrives")])
        ((_, entities),) = abstract_schema(t, [(1, 1)], reference)
        assert entities == ()

    def test_ordinal_carried_into_summary(self, reference):
        t = make_transcript([(0.0, 1.0, "alpha"), (20.0, 21.0, "beta")])
        ((summary, _),) = abstract_schema(t, [(2, 2)], reference, first_ordinal=2)
        assert summary == "Event 2: beta"

    def test_blank_summary_is_an_error(self):
        t = make_transcript([(0.0, 1.0, "x")])
        backend = ScriptedBackend(['{"units": [{"summary": "   ", "entities": []}]}'])
        with pytest.raises(EmptySummary):
            abstract_schema(t, [(1, 1)], backend)

    def test_entities_deduplicated_in_first_occurrence_order(self):
        t = make_transcript([(0.0, 1.0, "x")])
        backend = ScriptedBackend(['{"units": [{"summary": "s", "entities": ["B", "A", "B"]}]}'])
        _, entities = abstract_schema(t, [(1, 1)], backend)[0]
        assert entities == ("B", "A")

    def test_unwritable_and_non_string_entities_are_dropped(self):
        t = make_transcript([(0.0, 1.0, "x")])
        response = '{"units": [{"summary": "s", "entities": ["B", 7, "C \\udc80", "", "A"]}]}'
        _, entities = abstract_schema(t, [(1, 1)], ScriptedBackend([response]))[0]
        assert entities == ("B", "A")


# pieces of transcript text a live model's abstraction must carry through:
# non-ASCII, the episode-line separator, quotes, JSON escapes, row-like text
TEXT_PIECES = st.sampled_from(
    ["Alice", "bob", "|", '"', "'", "\\", "{x}", "é", "Ünïcode", "東京", "😀", "İ",
     "however", "[3] 0.00-1.00:", "<units>", "1: 1-2", "\t", "\u2028"]
)
UNIT_TEXT = st.lists(
    st.one_of(
        TEXT_PIECES,
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")),
    ),
    min_size=1,
    max_size=6,
).map(lambda parts: "Word " + " ".join(parts))


def _per_unit_rule(unit_lines, ordinal: int, budget: int) -> dict:
    """The reference abstraction rule as it ran with one request per unit:
    the unit's own `<transcript>` block, its texts joined by spaces."""
    inner = "\n".join(format_speech_line(line) for line in unit_lines)
    unit_text = " ".join(row[3] for row in parse_transcript_block(inner))
    summary = f"Event {ordinal}: {truncate_tokens(unit_text, budget)}".strip()
    return {"summary": summary, "entities": capitalized_entities(unit_text)}


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(UNIT_TEXT, min_size=1, max_size=40),
    max_lines=st.integers(1, 3),
    # batch sizes 18, 16, 7, 3 and 1 (one unit per request)
    budget=st.sampled_from([1, 5, 40, 130, 600]),
)
def test_batched_abstraction_matches_the_per_unit_rule(texts, max_lines, budget):
    t = make_transcript([(float(i), i + 0.5, text) for i, text in enumerate(texts)])
    params = MemoryParams(gap_threshold_s=100.0, max_lines=max_lines, summary_budget=budget)
    backend = RecordingBackend()
    memory = build_memory(t, backend, params)
    expected = [
        _per_unit_rule(t.lines[ep.line_range[0] - 1 : ep.line_range[1]], ep.id + 1, budget)
        for ep in memory.episodes
    ]
    responses = [
        text
        for request, text in zip(backend.requests, backend.responses)
        if request.context["stage"] == "memory_abstraction"
    ]
    size = abstraction_batch_size(params)
    batches = [expected[i : i + size] for i in range(0, len(expected), size)]
    assert responses == [json.dumps({"units": batch}, ensure_ascii=False) for batch in batches]
    for ep, unit in zip(memory.episodes, expected):
        assert ep.schematic_summary == " ".join(unit["summary"].split())
        assert ep.entities == tuple(dict.fromkeys(unit["entities"]))


class TestBatchedAbstraction:
    def test_default_batch_size(self):
        assert abstraction_batch_size(MemoryParams()) == 9
        assert abstraction_batch_size(MemoryParams(summary_budget=1)) == 18
        assert abstraction_batch_size(MemoryParams(summary_budget=600)) == 1

    @pytest.mark.parametrize("budget", [1, 30, 200, 600])
    @pytest.mark.parametrize("seed", range(4))
    def test_build_sends_each_line_once_in_ceil_batches(self, budget, seed):
        t = random_transcript(random.Random(seed), max_lines=400)
        params = MemoryParams(summary_budget=budget)
        backend = RecordingBackend()
        memory = build_memory(t, backend, params)
        payloads = [
            r.text_payload()
            for r in backend.requests
            if r.context["stage"] == "memory_abstraction"
        ]
        episodes = len(memory.episodes)
        assert len(payloads) == math.ceil(episodes / abstraction_batch_size(params))
        sent = [
            row[0]
            for payload in payloads
            for row in parse_transcript_block(extract_block(payload, "transcript"))
        ]
        assert sent == list(range(1, len(t.lines) + 1))
        listed = [
            unit
            for payload in payloads
            for unit in parse_units_block(extract_block(payload, "units"))
        ]
        assert listed == [(ep.id + 1, *ep.line_range) for ep in memory.episodes]

    @pytest.mark.parametrize(
        "response",
        [
            '{"units": [{"summary": "a", "entities": []}]}',  # short
            '{"units": [{"summary": "a"}, null, {"summary": "c"}]}',  # missing
            '{"units": [{"summary": "a"}, {"entities": ["B"]}, {"summary": "c"}]}',
            '{"units": [{"summary": "a"}, {"summary": " \\n "}, {"summary": "c"}]}',  # blank
            '{"units": [{"summary": "a"}, {"summary": 7}, {"summary": "c"}]}',
            # a lone surrogate, which no UTF-8 memory file can hold
            '{"units": [{"summary": "a"}, {"summary": "bad \\ud800"}, {"summary": "c"}]}',
        ],
    )
    def test_bad_entry_names_its_unit_ordinal(self, response):
        t = make_transcript([(float(i), i + 0.5, f"line {i}") for i in range(6)])
        backend = ScriptedBackend([response])
        with pytest.raises(EmptySummary, match=r"^unit 5: "):
            abstract_schema(t, [(1, 2), (3, 4), (5, 6)], backend, first_ordinal=4)

    @pytest.mark.parametrize("response", ["[]", '{"units": {}}', '{"u": []}', "null"])
    def test_unreadable_response_names_the_first_ordinal(self, response):
        t = make_transcript([(0.0, 1.0, "x"), (2.0, 3.0, "y")])
        with pytest.raises(EmptySummary, match=r"^unit 3: "):
            abstract_schema(t, [(1, 1), (2, 2)], ScriptedBackend([response]), first_ordinal=3)

    def test_response_without_json_is_asked_for_in_halves(self):
        t = make_transcript([(float(i), i + 0.5, f"line {i}") for i in range(3)])
        entry = '{{"summary": "{}", "entities": []}}'
        backend = ScriptedBackend(
            [
                '{"units": [{"summary": "a"',  # cut off
                '{"units": [' + entry.format("a") + "]}",
                "no json here",
                '{"units": [' + entry.format("b") + "]}",
                '{"units": [' + entry.format("c") + "]}",
            ]
        )
        with pytest.warns(DegenerateOutputWarning) as caught:
            out = abstract_schema(t, [(1, 1), (2, 2), (3, 3)], backend, first_ordinal=4)
        assert out == [("a", ()), ("b", ()), ("c", ())]
        assert [str(w.message).split(" returned")[0] for w in caught] == [
            "abstraction of units 4-6",
            "abstraction of units 5-6",
        ]

    def test_single_unit_without_json_is_an_error(self):
        t = make_transcript([(0.0, 1.0, "x"), (2.0, 3.0, "y")])
        with pytest.warns(DegenerateOutputWarning):
            with pytest.raises(EmptySummary, match=r"^unit 3: "):
                abstract_schema(t, [(1, 1), (2, 2)], ScriptedBackend(["{"]), first_ordinal=3)

    @pytest.mark.parametrize("budget", [1, 30])
    def test_batches_fit_the_output_limit(self, budget):
        # 400-line transcripts of `w1234` words, the benchmark's vocabulary,
        # which the counting below splits into two tokens a word, plus the
        # fixture videos
        transcripts = [random_transcript(random.Random(seed), 400) for seed in range(3)]
        transcripts += [
            load_transcript(str(path)) for path in sorted((FIXTURES / "videos").iterdir())
        ]
        params = MemoryParams(summary_budget=budget)
        for t in transcripts:
            backend = CuttingBackend()
            assert build_memory(t, backend, params) == build_memory(t, ReferenceBackend(), params)
            assert backend.cut == 0

    @pytest.mark.parametrize("budget", [1, 30])
    def test_cut_off_batches_are_split_until_they_fit(self, budget):
        # every word a distinct name, so each unit lists dozens of entities
        rows = [
            (i * 2.0, i * 2.0 + 1.0, " ".join(f"Name{i}x{j}" for j in range(8)))
            for i in range(60)
        ]
        t = make_transcript(rows)
        params = MemoryParams(summary_budget=budget, max_lines=4)
        backend = CuttingBackend()
        with pytest.warns(DegenerateOutputWarning, match="returned no JSON"):
            memory = build_memory(t, backend, params)
        assert backend.cut > 0
        assert memory == build_memory(t, ReferenceBackend(), params)

    def test_extra_entries_are_dropped_with_a_warning(self):
        t = make_transcript([(0.0, 1.0, "x")])
        backend = ScriptedBackend(['{"units": [{"summary": "a"}, {"summary": "b"}]}'])
        with pytest.warns(DegenerateOutputWarning):
            assert abstract_schema(t, [(1, 1)], backend) == [("a", ())]

    @pytest.mark.parametrize(
        "units", [[], [(0, 1)], [(1, 3)], [(2, 1)], [(1, 1), (3, 3)], [(1, 2), (2, 3)]]
    )
    def test_units_must_be_consecutive_and_in_bounds(self, units, reference):
        t = make_transcript([(0.0, 1.0, "x"), (2.0, 3.0, "y")])
        with pytest.raises(InvariantViolation):
            abstract_schema(t, units, reference)

    def test_custom_template_transcript_holds_the_batch(self):
        t = make_transcript([(0.0, 1.0, "Alice waves"), (9.0, 10.0, "Bob nods")])
        template = PromptTemplate(id="memory_abstraction", body="Units:\n{transcript}")
        backend = RecordingBackend()
        out = abstract_schema(
            t, [(1, 1), (2, 2)], backend, templates={"memory_abstraction": template}
        )
        assert out == [("Event 1: Alice waves", ("Alice",)), ("Event 2: Bob nods", ("Bob",))]
        (request,) = backend.requests
        assert request.text_payload() == (
            "Units:\n<units>\n1: 1-1\n2: 2-2\n</units>\n<transcript>\n"
            "[1] 0.00-1.00: Alice waves\n[2] 9.00-10.00: Bob nods\n</transcript>"
        )


def _draft(i, summary, start=None):
    start = float(i * 10) if start is None else start
    return EpisodeDraft(
        id=i, span=(start, start + 5.0), line_range=(i + 1, i + 1),
        summary=summary, entities=(),
    )


class TestLinkNarrative:
    def test_single_episode_is_introduction(self, reference):
        out = link_narrative([_draft(0, "opening remarks")], reference)
        assert out == [("introduction", ())]

    def test_three_episodes_conflict_lexicon(self, reference):
        drafts = [
            _draft(0, "greetings all around"),
            _draft(1, "however a problem appears"),
            _draft(2, "calm returns at last"),
        ]
        out = link_narrative(drafts, reference)
        assert [role for role, _ in out] == ["introduction", "conflict", "resolution"]
        assert out[1][1] == (CausalLink(0, "precedes"),)
        assert out[2][1] == (CausalLink(1, "precedes"),)

    def test_middle_without_conflict_tokens_is_development(self, reference):
        drafts = [
            _draft(0, "greetings all around"),
            _draft(1, "the plot advances calmly"),
            _draft(2, "calm returns at last"),
        ]
        out = link_narrative(drafts, reference)
        assert out[1][0] == "development"

    def test_refers_back_on_shared_content_tokens(self, reference):
        drafts = [
            _draft(0, "crimson pigment palette introduced"),
            _draft(1, "a quiet interlude"),
            _draft(2, "the crimson pigment palette returns"),
        ]
        out = link_narrative(drafts, reference)
        assert CausalLink(0, "refers_back") in out[2][1]
        assert CausalLink(1, "precedes") in out[2][1]

    def test_adjacent_overlap_is_not_refers_back(self, reference):
        drafts = [
            _draft(0, "crimson pigment palette introduced"),
            _draft(1, "crimson pigment palette again"),
        ]
        out = link_narrative(drafts, reference)
        assert out[1][1] == (CausalLink(0, "precedes"),)

    def test_invalid_role_and_links_repaired(self):
        backend = ScriptedBackend(
            [
                json.dumps(
                    {
                        "episodes": [
                            {"id": 0, "narrative_role": "prologue", "causal_links": []},
                            {
                                "id": 1,
                                "narrative_role": "development",
                                "causal_links": [
                                    {"target_id": 5, "relation": "precedes"},
                                    {"target_id": 0, "relation": "sequel"},
                                    {"target_id": 0, "relation": "causes"},
                                ],
                            },
                        ]
                    }
                )
            ]
        )
        drafts = [_draft(0, "a"), _draft(1, "b")]
        with pytest.warns(InvalidLinkWarning):
            out = link_narrative(drafts, backend)
        assert out[0][0] == "other"
        assert out[1][1] == (CausalLink(0, "causes"),)


class TestBuildMemory:
    def test_three_line_composition(self, cooking_transcript, reference):
        memory = build_memory(cooking_transcript, reference)
        assert [ep.line_range for ep in memory.episodes] == [(1, 1), (2, 3)]
        assert [ep.narrative_role for ep in memory.episodes] == ["introduction", "resolution"]
        assert memory.version == 1
        assert memory.source_digest == transcript_digest(cooking_transcript)

    def test_caption_source_same_pipeline(self, reference):
        t = make_transcript(
            [(0.0, 0.0, "a frame of a dog"), (10.0, 10.0, "a frame of a cat")],
            source_kind="caption",
        )
        memory = build_memory(t, reference)
        assert len(memory.episodes) == 2

    def test_empty_transcript_is_an_error(self, reference):
        with pytest.raises(EmptyTranscript):
            build_memory(make_transcript([]), reference)

    def test_idempotent_under_reference_backend(self, cooking_transcript, reference):
        a = build_memory(cooking_transcript, reference)
        b = build_memory(cooking_transcript, reference)
        assert save_memory(a) == save_memory(b)

    def test_refers_back_links_per_episode_stay_within_the_limit(self, reference):
        # 61 captions that repeat their words: at overlap 1 most episodes have
        # more than 8 earlier episodes to refer back to
        t = load_transcript(str(FIXTURES / "videos" / "vid04.captions.jsonl"))
        memory = build_memory(t, reference, MemoryParams(refers_back_overlap=1))
        targets = [
            [link.target_id for link in ep.causal_links if link.relation == "refers_back"]
            for ep in memory.episodes
        ]
        assert max(map(len, targets)) == REFERS_BACK_LIMIT == 8
        for ep, ids in zip(memory.episodes, targets):
            assert ids == sorted(ids) and all(i <= ep.id - 2 for i in ids)

    def test_first_episode_introduction_last_resolution(self, reference):
        import random

        from conftest import random_transcript

        rng = random.Random(7)
        for _ in range(25):
            transcript = random_transcript(rng, max_lines=80)
            memory = build_memory(transcript, reference)
            if len(memory.episodes) >= 2:
                assert memory.episodes[0].narrative_role == "introduction"
                assert memory.episodes[-1].narrative_role == "resolution"


class TestReflect:
    def test_note_lands_on_most_overlapping_episode(self, cooking_memory, reference):
        updated = reflect(
            "why the bowl", (("A", "x"), ("B", "y")), "B",
            "they throw food into a big bowl to mix",
            cooking_memory, [(10.5, 11.5)], reference,
        )
        assert updated.version == 2
        assert [len(ep.reflections) for ep in updated.episodes] == [0, 1]
        note = updated.episodes[1].reflections[0]
        assert note.created_version == 2
        assert note.answer_id == "B"

    def test_two_reflections_increment_version_twice(self, cooking_memory, reference):
        options = (("A", "x"), ("B", "y"))
        once = reflect("q1", options, "A", "evidence one", cooking_memory, [(0.0, 1.0)], reference)
        twice = reflect("q2", options, "B", "evidence two", once, [(0.0, 1.0)], reference)
        assert twice.version == 3
        versions = [n.created_version for ep in twice.episodes for n in ep.reflections]
        assert sorted(versions) == [2, 3]

    def test_non_overlapping_span_attaches_to_nearest(self, cooking_memory, reference):
        updated = reflect(
            "q", (("A", "x"), ("B", "y")), "A", "some evidence",
            cooking_memory, [(100.0, 110.0)], reference,
        )
        # episode 1 ends at 15s, episode 0 at 2s; 100s is nearer episode 1
        assert [len(ep.reflections) for ep in updated.episodes] == [0, 1]

    def test_existing_content_untouched(self, cooking_memory, reference):
        updated = reflect(
            "q", (("A", "x"), ("B", "y")), "A", "ev",
            cooking_memory, [(0.0, 1.0)], reference,
        )
        for before, after in zip(cooking_memory.episodes, updated.episodes):
            assert before.schematic_summary == after.schematic_summary
            assert before.causal_links == after.causal_links
            assert before.narrative_role == after.narrative_role
            assert after.reflections[: len(before.reflections)] == before.reflections

    def test_backend_garbage_raises_and_memory_unchanged(self, cooking_memory):
        backend = ScriptedBackend(["not json at all"])
        with pytest.raises(BackendFailure):
            reflect(
                "q", (("A", "x"), ("B", "y")), "A", "ev",
                cooking_memory, [(0.0, 1.0)], backend,
            )
        assert cooking_memory.version == 1

    def test_custom_template_memory_placeholder_renders(self, cooking_memory):
        template = PromptTemplate(
            id="reflection",
            body="Notes so far:\n{memory}\nQ: {query}\n<evidence>\n{evidence}\n</evidence>",
        )
        backend = RecordingBackend()
        updated = reflect(
            "why the bowl", (("A", "x"), ("B", "y")), "B", "they mix food",
            cooking_memory, [(10.5, 11.5)], backend, templates={"reflection": template},
        )
        (request,) = backend.requests
        block = wrap_block("memory", _episode_text(cooking_memory.episodes[1]))
        assert request.text_payload().startswith(f"Notes so far:\n{block}\nQ: why the bowl\n")
        assert updated.episodes[1].reflections[-1].summary == "(B) they mix food"

    @pytest.mark.parametrize("perception", [[], [(0.0, 1.0)]])
    def test_memory_without_episodes_is_rejected_before_the_backend(self, perception):
        empty = EpisodicMemory(episodes=(), version=1, source_digest="d")
        backend = RecordingBackend()
        with pytest.raises(InvariantViolation, match="at least one episode"):
            reflect("q", (("A", "x"), ("B", "y")), "A", "ev", empty, perception, backend)
        assert backend.requests == []


_PIECE = re.compile(r"\w{1,4}|[^\w\s]")


class CuttingBackend:
    """Reference abstraction responses cut off after the request's
    `max_output_tokens`, counting each punctuation mark and each run of up
    to four word characters as one token (more than a subword tokenizer
    gives for English text)."""

    def __init__(self):
        self._inner = ReferenceBackend()
        self.profile = self._inner.profile
        self.cut = 0

    def complete(self, request):
        response = self._inner.complete(request)
        pieces = list(_PIECE.finditer(response.text))
        limit = request.max_output_tokens
        if request.context["stage"] != "memory_abstraction" or len(pieces) <= limit:
            return response
        self.cut += 1
        return ChatResponse(text=response.text[: pieces[limit].start()])


class RecordingBackend:
    """The reference backend, keeping every request it was sent."""

    def __init__(self):
        self._inner = ReferenceBackend()
        self.profile = self._inner.profile
        self.requests = []
        self.responses = []

    def complete(self, request):
        self.requests.append(request)
        response = self._inner.complete(request)
        self.responses.append(response.text)
        return response


class TestMemoryParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("refers_back_overlap", 0),
            ("refers_back_overlap", -3),
            ("refers_back_overlap", "abc"),
            ("refers_back_overlap", 2.0),
            ("refers_back_overlap", True),
            ("max_lines", 0),
            ("max_lines", None),
            ("summary_budget", 0),
            ("summary_budget", 1.5),
            ("gap_threshold_s", float("nan")),
            ("gap_threshold_s", -0.5),
            ("gap_threshold_s", "5"),
        ],
    )
    def test_bad_value_is_rejected(self, field, value):
        with pytest.raises(InvariantViolation, match=f"{field} must be"):
            MemoryParams(**{field: value})

    def test_smallest_values_are_accepted(self):
        params = MemoryParams(gap_threshold_s=0, max_lines=1, summary_budget=1, refers_back_overlap=1)
        assert params.refers_back_overlap == 1


class TestPersistence:
    def test_round_trip(self, cooking_memory, reference):
        updated = reflect(
            "q", (("A", "x"), ("B", "y")), "A", "ev",
            cooking_memory, [(0.0, 1.0)], reference,
        )
        assert load_memory(save_memory(updated)) == updated

    def test_overlapping_line_ranges_rejected(self, cooking_memory):
        doc = json.loads(save_memory(cooking_memory).decode())
        doc["episodes"][1]["line_range"] = [1, 3]
        with pytest.raises(SchemaViolation):
            load_memory(json.dumps(doc).encode())

    def test_version_zero_rejected(self, cooking_memory):
        doc = json.loads(save_memory(cooking_memory).decode())
        doc["version"] = 0
        with pytest.raises(SchemaViolation):
            load_memory(json.dumps(doc).encode())

    def test_missing_field_reports_path(self, cooking_memory):
        doc = json.loads(save_memory(cooking_memory).decode())
        del doc["episodes"][0]["schematic_summary"]
        with pytest.raises(SchemaViolation) as exc:
            load_memory(json.dumps(doc).encode())
        assert "episodes[0]" in exc.value.path

    def test_forward_link_rejected(self, cooking_memory):
        doc = json.loads(save_memory(cooking_memory).decode())
        doc["episodes"][0]["causal_links"] = [{"target_id": 1, "relation": "precedes"}]
        with pytest.raises(SchemaViolation):
            load_memory(json.dumps(doc).encode())

    @pytest.mark.parametrize("field", ["causal_links", "reflections", "entities", "span"])
    def test_non_list_collection_fields_rejected(self, cooking_memory, field):
        doc = json.loads(save_memory(cooking_memory).decode())
        doc["episodes"][0][field] = -3
        with pytest.raises(SchemaViolation):
            load_memory(json.dumps(doc).encode())


def _oracle_bytes(memory: EpisodicMemory) -> bytes:
    """The memory file as json.dumps lays it out."""
    doc = {
        "version": memory.version,
        "source_digest": memory.source_digest,
        "episodes": [
            {
                "id": ep.id,
                "span": [ep.span[0], ep.span[1]],
                "line_range": [ep.line_range[0], ep.line_range[1]],
                "schematic_summary": ep.schematic_summary,
                "entities": list(ep.entities),
                "narrative_role": ep.narrative_role,
                "causal_links": [
                    {"target_id": l.target_id, "relation": l.relation} for l in ep.causal_links
                ],
                "reflections": [
                    {
                        "query": n.query,
                        "answer_id": n.answer_id,
                        "summary": n.summary,
                        "created_version": n.created_version,
                    }
                    for n in ep.reflections
                ],
            }
            for ep in memory.episodes
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _span_key(memory: EpisodicMemory):
    """Spans as float reprs (nan never equals itself), the rest as is."""
    return (
        [(repr(float(a)), repr(float(b))) for a, b in (ep.span for ep in memory.episodes)],
        [(ep.id, ep.line_range, ep.schematic_summary, ep.entities, ep.narrative_role,
          ep.causal_links, ep.reflections) for ep in memory.episodes],
        memory.version,
        memory.source_digest,
    )


def _assert_serializes_like_json(memory: EpisodicMemory) -> None:
    data = save_memory(memory)
    assert data == _oracle_bytes(memory)
    assert _span_key(load_memory(data)) == _span_key(memory)


ODD_TEXT = 'caf\u00e9 \u201cquoted\u201d "q" back\\slash \t tab \x00\x1f\x7f \u2028 \U0001f600'
_NAN, _INF = float("nan"), float("inf")


def _episode(i, span, **fields):
    return Episode(id=i, span=span, line_range=(i + 1, i + 1), schematic_summary=f"s{i}", **fields)


SERIALIZER_CASES = {
    "empty": EpisodicMemory(episodes=(), version=1, source_digest=""),
    "odd_text": EpisodicMemory(
        episodes=(
            _episode(0, (0.0, 1.5), entities=(ODD_TEXT, "Ann"), narrative_role="introduction"),
            _episode(
                1,
                (1.5, 2.25),
                causal_links=(CausalLink(0, "precedes"), CausalLink(0, "refers_back")),
                reflections=(
                    ReflectionNote(query=ODD_TEXT, answer_id="B", summary=ODD_TEXT, created_version=2),
                    ReflectionNote(query="", answer_id="A", summary="ok", created_version=3),
                ),
            ),
        ),
        version=3,
        source_digest=ODD_TEXT,
    ),
    "int_spans": EpisodicMemory(
        episodes=(_episode(0, (0, 7)), _episode(1, (7, 7), causal_links=(CausalLink(0, "causes"),))),
        version=1,
        source_digest="d",
    ),
    "non_finite_spans": EpisodicMemory(
        episodes=(_episode(0, (_NAN, _NAN)), _episode(1, (-_INF, _INF)), _episode(2, (_NAN, 1e300))),
        version=1,
        source_digest="d",
    ),
}


@pytest.mark.parametrize("name", sorted(SERIALIZER_CASES))
def test_save_memory_matches_json_dumps(name):
    _assert_serializes_like_json(SERIALIZER_CASES[name])


_numbers = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def memories(draw):
    version = draw(st.integers(1, 5))
    episodes = []
    for i in range(draw(st.integers(0, 4))):
        start, end = sorted(draw(st.tuples(st.integers(0, 100), st.integers(0, 100))))
        span = draw(st.sampled_from([(start, end), (start / 3, end / 3), (draw(_numbers),) * 2]))
        if isinstance(span[0], float) and math.isnan(span[0]):
            span = (span[0], draw(_numbers))  # nan > x is false, so any end goes
        links = tuple(
            CausalLink(draw(st.integers(0, i - 1)), draw(st.sampled_from(LINK_RELATIONS)))
            for _ in range(draw(st.integers(0, 3) if i else st.just(0)))
        )
        notes = tuple(
            ReflectionNote(
                query=draw(st.text(max_size=12)),
                answer_id=draw(st.text(max_size=2)),
                summary="n" + draw(st.text(max_size=12)),
                created_version=draw(st.integers(1, version)),
            )
            for _ in range(draw(st.integers(0, 2)))
        )
        episodes.append(
            Episode(
                id=i,
                span=span,
                line_range=(i + 1, i + 1),
                schematic_summary="s" + draw(st.text(max_size=20)),
                entities=tuple(draw(st.lists(st.text(max_size=6), max_size=3))),
                narrative_role=draw(st.sampled_from(NARRATIVE_ROLES)),
                causal_links=links,
                reflections=notes,
            )
        )
    return EpisodicMemory(episodes=tuple(episodes), version=version, source_digest=draw(st.text()))


@settings(max_examples=200, deadline=None)
@given(memory=memories())
def test_save_memory_matches_json_dumps_randomized(memory):
    _assert_serializes_like_json(memory)


class TestMemoryStore:
    @pytest.mark.parametrize("name", ["missing.srt", "folder.srt"])
    def test_unreadable_source_is_a_typed_error(self, tmp_path, name):
        (tmp_path / "folder.srt").mkdir()
        source = str(tmp_path / name)
        with pytest.raises(UnreadableFile) as exc:
            MemoryStore(tmp_path / "mem").session("vid", source)
        assert exc.value.path == source

    def test_build_then_cache_hit(self, tmp_path, cooking_transcript, reference):
        store = MemoryStore(tmp_path)
        first = store.get_or_build("vid", cooking_transcript, reference)
        raw = store.path("vid").read_bytes()
        second = store.get_or_build("vid", cooking_transcript, reference)
        assert first == second
        assert store.path("vid").read_bytes() == raw

    def test_digest_mismatch_triggers_rebuild(self, tmp_path, cooking_transcript, reference):
        store = MemoryStore(tmp_path)
        store.get_or_build("vid", cooking_transcript, reference)
        other = make_transcript([(0.0, 1.0, "different content entirely")])
        rebuilt = store.get_or_build("vid", other, reference)
        assert rebuilt.source_digest == transcript_digest(other)


    def test_save_leaves_only_the_memory_file(self, tmp_path, cooking_memory):
        store = MemoryStore(tmp_path)
        store.save("vid", cooking_memory)
        store.save("vid", cooking_memory)
        assert [p.name for p in tmp_path.iterdir()] == ["vid.json"]
        assert load_memory(store.path("vid").read_bytes()) == cooking_memory

    def test_failed_save_keeps_old_file(self, tmp_path, cooking_memory, monkeypatch):
        store = MemoryStore(tmp_path)
        store.save("vid", cooking_memory)
        old = store.path("vid").read_bytes()

        def broken_replace(self, target):
            raise OSError("disk gone")

        monkeypatch.setattr(Path, "replace", broken_replace)
        bumped = EpisodicMemory(cooking_memory.episodes, cooking_memory.version + 1, "other")
        with pytest.raises(MemoryFileError, match="disk gone") as exc:
            store.save("vid", bumped)
        assert exc.value.path == str(store.path("vid"))
        assert store.path("vid").read_bytes() == old
        assert list(tmp_path.glob("*.tmp")) == []


def test_write_atomic_failing_write_leaves_nothing_behind(tmp_path):
    target = tmp_path / "m.json"
    _write_atomic(target, b"old")
    with pytest.raises(TypeError):
        _write_atomic(target, "not bytes")
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_memory_text_schematic_vs_narrative(cooking_memory):
    narrative = memory_text(cooking_memory, include_narrative=True)
    schematic = memory_text(cooking_memory, include_narrative=False)
    assert "introduction" in narrative and "precedes->0" in narrative
    assert "introduction" not in schematic and "precedes" not in schematic
    # same episodes, same summaries, only the narrative fields differ
    for narr_line, schem_line in zip(narrative.split("\n"), schematic.split("\n")):
        narr_fields = narr_line.strip("「」").split(" | ")
        schem_fields = schem_line.strip("「」").split(" | ")
        assert [narr_fields[0], narr_fields[1], narr_fields[3]] == schem_fields


def test_episode_invariants():
    with pytest.raises(Exception):
        Episode(id=0, span=(5.0, 1.0), line_range=(1, 1), schematic_summary="s")
    with pytest.raises(Exception):
        Episode(id=0, span=(0.0, 1.0), line_range=(1, 1), schematic_summary=" ")
    with pytest.raises(Exception):
        EpisodicMemory(
            episodes=(
                Episode(id=0, span=(0.0, 1.0), line_range=(2, 3), schematic_summary="s"),
            ),
            version=1,
            source_digest="d",
        )


def _scan_target(memory: EpisodicMemory, perception_spans) -> int:
    """Reference rule: the largest summed overlap over every episode, the
    first on ties; the smallest gap when nothing overlaps."""
    if not perception_spans:
        return 0

    def overlap(a, b):
        return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))

    def gap(a, b):
        return max(0.0, max(b[0] - a[1], a[0] - b[1]))

    overlaps = [sum(overlap(ep.span, s) for s in perception_spans) for ep in memory.episodes]
    best = max(overlaps)
    if best > 0:
        return overlaps.index(best)
    gaps = [min(gap(ep.span, s) for s in perception_spans) for ep in memory.episodes]
    return gaps.index(min(gaps))


# few distinct values, so starts, ends and perception bounds tie often
_times = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 7.25, 10.0, 30.0])
_episode_spans = st.lists(
    st.one_of(
        st.tuples(_times, _times).map(sorted).map(tuple),  # zero-width when equal
        st.sampled_from([(_NAN, _NAN), (_NAN, 3.0), (-_INF, _INF), (0.0, _INF)]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(
    spans=_episode_spans,
    sort_starts=st.booleans(),
    perception=st.lists(st.tuples(_times, _times).map(sorted).map(tuple), max_size=5),
)
def test_target_episode_matches_scan(spans, sort_starts, perception):
    from gcagent.memory import _target_episode

    if sort_starts:  # as build_memory makes them; loaded files may be in any order
        spans = sorted(spans, key=lambda s: (math.isnan(s[0]), s[0]))
    memory = EpisodicMemory(
        episodes=tuple(_episode(i, span) for i, span in enumerate(spans)),
        version=1,
        source_digest="d",
    )
    assert _target_episode(memory, perception) == _scan_target(memory, perception)


@settings(max_examples=200, deadline=None)
@given(
    spans=_episode_spans,
    noted=st.sets(st.integers(0, 11)),
    perception=st.lists(st.tuples(_times, _times).map(sorted).map(tuple), max_size=5),
)
def test_reflection_prompt_carries_only_the_target_episode(spans, noted, perception):
    """The `<memory>` block is the target episode's text alone, and the note
    lands where the whole-memory scan puts it, nearest-gap and nan spans
    included."""
    note = ReflectionNote(query="q0", answer_id="A", summary="old note", created_version=1)
    memory = EpisodicMemory(
        episodes=tuple(
            _episode(i, span, reflections=(note,) if i in noted else ())
            for i, span in enumerate(spans)
        ),
        version=1,
        source_digest="d",
    )
    backend = RecordingBackend()
    updated = reflect(
        "q", (("A", "x"), ("B", "y")), "B", "some evidence", memory, perception, backend
    )
    target = _scan_target(memory, perception)
    (request,) = backend.requests
    block = extract_block(request.text_payload(), "memory")
    assert block == _episode_text(memory.episodes[target])
    episode_lines = [line for line in block.split("\n") if line.startswith("「")]
    assert episode_lines == [_episode_text(memory.episodes[target]).split("\n")[0]]
    assert episode_lines[0].startswith(f"「{target} | ")
    for i, (before, after) in enumerate(zip(memory.episodes, updated.episodes)):
        if i == target:
            assert after.reflections == before.reflections + (
                ReflectionNote("q", "B", "(B) some evidence", 2),
            )
        else:
            assert after is before


@pytest.mark.parametrize(
    "spans, perception",
    [
        # an early episode whose end reaches past later ones still counts
        ([(0.0, 100.0), (1.0, 2.0), (3.0, 4.0)], [(50.0, 60.0)]),
        ([(0.0, 100.0), (1.0, 2.0), (3.0, 4.0)], [(3.0, 4.0)]),
        ([(0.0, 100.0), (1.0, 2.0), (3.0, 4.0)], [(200.0, 300.0)]),
        # starts out of order: the best overlap sits behind later starts
        ([(5.0, 6.0), (10.0, 11.0), (12.0, 13.0), (0.0, 0.5), (0.0, 1.0)], [(0.0, 1.0)]),
    ],
)
def test_target_episode_fixed_cases(spans, perception):
    from gcagent.memory import _target_episode

    memory = EpisodicMemory(
        episodes=tuple(_episode(i, span) for i, span in enumerate(spans)),
        version=1,
        source_digest="d",
    )
    assert _target_episode(memory, perception) == _scan_target(memory, perception)


_perceptions = st.lists(st.tuples(_times, _times).map(sorted).map(tuple), max_size=5)
_OPTIONS = (("A", "x"), ("B", "y"))


def _memory_of(spans, digest="d") -> EpisodicMemory:
    return EpisodicMemory(
        episodes=tuple(_episode(i, span) for i, span in enumerate(spans)),
        version=1,
        source_digest=digest,
    )


@settings(max_examples=200, deadline=None)
@given(spans=_episode_spans, steps=st.lists(_perceptions, min_size=1, max_size=6))
def test_span_index_carried_through_reflections_matches_scan(spans, steps):
    """`reflect` hands its input's span index on to the version it returns,
    and the carried index picks what the whole-memory scan picks, for a
    memory loaded from a file with its spans in any order and nan spans."""
    memory = load_memory(save_memory(_memory_of(spans)))
    index = memory.span_index
    backend = ReferenceBackend()
    for k, perception in enumerate(steps):
        assert _target_episode(memory, perception) == _scan_target(memory, perception)
        memory = reflect(f"q{k}", _OPTIONS, "A", f"evidence {k}", memory, perception, backend)
        assert memory.span_index is index
    assert index == replace(memory).span_index  # computed again: replace hands nothing on


@settings(max_examples=100, deadline=None)
@given(first=_episode_spans, second=_episode_spans, perception=_perceptions)
def test_reloaded_or_rebuilt_memory_never_reuses_a_stale_index(
    first, second, perception, tmp_path_factory
):
    """Only `reflect` hands an index on: a memory parsed again from its file,
    one made with `dataclasses.replace` and one rebuilt each get their own."""
    backend = ReferenceBackend()
    transcript = make_transcript([(0.0, 1.0, "crimson river")])
    store = MemoryStore(tmp_path_factory.mktemp("mem"))
    store.path("v").write_bytes(save_memory(_memory_of(first, transcript.digest)))
    loaded = store.get_or_build("v", transcript, backend)
    stale = reflect("q", _OPTIONS, "A", "evidence", loaded, perception, backend)
    store.save("v", stale)
    assert stale.span_index is loaded.span_index

    store.path("v").write_bytes(save_memory(_memory_of(second, transcript.digest)))
    reloaded = store.get_or_build("v", transcript, backend)
    replaced = replace(stale, episodes=reloaded.episodes)
    rebuilt = store.get_or_build("v", make_transcript([(0.0, 1.0, "palette")]), backend)
    for memory in (reloaded, replaced, rebuilt):
        assert memory is not stale
        assert memory.span_index is not stale.span_index
        assert memory.span_index == replace(memory).span_index
        assert _target_episode(memory, perception) == _scan_target(memory, perception)


@settings(max_examples=200, deadline=None)
@given(memory=memories(), steps=st.lists(_perceptions, min_size=1, max_size=4))
def test_reflect_equals_the_checked_constructor(memory, steps):
    """`reflect` makes its new version without `EpisodicMemory`'s
    whole-memory check; what it returns is what the checked constructor
    builds from the input with the one note added."""
    if not memory.episodes:
        return
    backend = ReferenceBackend()
    for k, perception in enumerate(steps):
        updated = reflect(f"q{k}", _OPTIONS, "A", f"evidence {k}", memory, perception, backend)
        target = _scan_target(memory, perception)
        episode = memory.episodes[target]
        note = ReflectionNote(f"q{k}", "A", f"(A) evidence {k}", memory.version + 1)
        checked = EpisodicMemory(
            episodes=memory.episodes[:target]
            + (replace(episode, reflections=episode.reflections + (note,)),)
            + memory.episodes[target + 1 :],
            version=memory.version + 1,
            source_digest=memory.source_digest,
        )
        assert updated == checked
        assert save_memory(updated) == save_memory(checked)
        memory = updated
