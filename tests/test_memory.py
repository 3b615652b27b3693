from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcagent.errors import (
    BackendFailure,
    DegenerateOutputWarning,
    EmptySummary,
    EmptyTranscript,
    InvalidLinkWarning,
    SchemaViolation,
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
    _write_atomic,
    abstract_schema,
    build_memory,
    link_narrative,
    load_memory,
    memory_text,
    reflect,
    save_memory,
    segment_events,
)
from gcagent.reference import ScriptedBackend
from gcagent.transcript import transcript_digest

from conftest import make_transcript


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

    def test_overlapping_units_clipped(self):
        t = make_transcript([(i * 1.0, i * 1.0 + 0.5, f"l{i}") for i in range(5)])
        backend = ScriptedBackend(['{"units": [[1, 3], [2, 5]]}'])
        with pytest.warns(DegenerateOutputWarning):
            assert segment_events(t, backend) == [(1, 3), (4, 5)]


class TestAbstractSchema:
    def test_summary_prefix_and_entities(self, reference):
        t = make_transcript([(0.0, 1.0, "Alice greets Bob warmly")])
        summary, entities = abstract_schema(t, (1, 1), reference)
        assert summary == "Event 1: Alice greets Bob warmly"
        assert entities == ("Alice", "Bob")

    def test_budget_truncates_to_exact_token_count(self, reference):
        words = " ".join(f"tok{i}" for i in range(100))
        t = make_transcript([(0.0, 1.0, words)])
        params = MemoryParams(summary_budget=30)
        summary, _ = abstract_schema(t, (1, 1), reference, params)
        prefix, _, body = summary.partition(": ")
        assert prefix == "Event 1"
        assert len(body.split()) == 30

    def test_no_capitalized_tokens_no_entities(self, reference):
        t = make_transcript([(0.0, 1.0, "the sky darkens and then rain arrives")])
        _, entities = abstract_schema(t, (1, 1), reference)
        assert entities == ()

    def test_ordinal_carried_into_summary(self, reference):
        t = make_transcript([(0.0, 1.0, "alpha"), (20.0, 21.0, "beta")])
        summary, _ = abstract_schema(t, (2, 2), reference, ordinal=2)
        assert summary == "Event 2: beta"

    def test_blank_summary_is_an_error(self):
        t = make_transcript([(0.0, 1.0, "x")])
        backend = ScriptedBackend(['{"summary": "   ", "entities": []}'])
        with pytest.raises(EmptySummary):
            abstract_schema(t, (1, 1), backend)

    def test_entities_deduplicated_in_first_occurrence_order(self):
        t = make_transcript([(0.0, 1.0, "x")])
        backend = ScriptedBackend(['{"summary": "s", "entities": ["B", "A", "B"]}'])
        _, entities = abstract_schema(t, (1, 1), backend)
        assert entities == ("B", "A")


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
        with pytest.raises(OSError, match="disk gone"):
            store.save("vid", bumped)
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
