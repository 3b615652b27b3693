"""Memory Manager retrieval: each question sends the transcript lines and
episodes that share a content token with it, under one token budget."""

from __future__ import annotations

import dataclasses
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gcagent.harness import BackendPair, RunConfig, answer, evaluate
from gcagent.memory import (
    MemoryStore,
    VideoSession,
    _episode_text,
    _fit,
    build_memory,
    memory_text,
    memory_token_count,
)
from gcagent.perception import PerceptionParams, Query
from gcagent.prompts import clean_field, format_speech_line, wrap_block
from gcagent.reasoning import ABLATION_ROWS
from gcagent.reference import ReferenceBackend
from gcagent.text import content_tokens, needle, postings
from gcagent.transcript import count_tokens, serialize_srt

from conftest import FIXTURES, make_transcript, random_query, random_transcript

pytestmark = pytest.mark.filterwarnings(
    "ignore::gcagent.errors.NoRelevantContentWarning",
    "ignore::gcagent.errors.BudgetTooSmallWarning",
)

WHOLE = sys.maxsize  # a budget larger than any video


def _config(budget: int, **kwargs) -> RunConfig:
    return RunConfig(perception_params=PerceptionParams(context_budget=budget), **kwargs)


def _inner_tokens(block: str) -> int:
    """The whitespace tokens of a block besides its two markers."""
    return count_tokens(block).count - 2


def _tokens(episode) -> int:
    return count_tokens(_episode_text(episode)).count


def _matches(wanted: set[str], texts) -> list[int]:
    return [pos for pos, text in enumerate(texts) if wanted & set(content_tokens(text))]


def _fresh_indexes(session: VideoSession):
    lines = session.transcript.lines
    line_index = (
        postings(line.text for line in lines),
        [count_tokens(format_speech_line(line)).count for line in lines],
    )
    episodes = session.memory.episodes
    return line_index, postings(clean_field(ep.schematic_summary) for ep in episodes)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([64, 256, 1024]))
def test_answers_equal_whole_context_when_the_matches_fit(seed, budget):
    """On transcripts larger than the budget, reference answers equal those
    of a whole-context run whenever the matching lines and episodes fit;
    evidence differs only where perception fell back."""
    rng = random.Random(seed)
    reference = ReferenceBackend()
    backends = BackendPair(manager=reference, reasoner=reference)
    transcript = random_transcript(rng, max_lines=400)
    memory = build_memory(transcript, reference)
    retrieved = VideoSession(transcript=transcript, memory=memory)
    whole = VideoSession(transcript=transcript, memory=memory)
    for _ in range(4):
        query = random_query(rng, transcript)
        wanted = needle(query.text, query.options)
        lines = _matches(wanted, (line.text for line in transcript.lines))
        episodes = retrieved.memory.episodes
        matched = _matches(wanted, (clean_field(ep.schematic_summary) for ep in episodes))
        fits = (
            sum(count_tokens(format_speech_line(transcript.lines[p])).count for p in lines)
            <= budget
            and sum(_tokens(episodes[p]) for p in matched) <= budget
        )
        context = retrieved.context(wanted, budget)
        assert _inner_tokens(context.transcript_block) <= max(budget, 1)  # "(empty)" is 1
        assert _inner_tokens(context.memory_block) <= budget
        small = answer(retrieved, query, _config(budget), backends)
        large = answer(whole, query, _config(WHOLE), backends)
        if not fits:
            continue
        sent = {ep.id for ep in context.episodes}
        assert set(matched) <= sent
        assert all(f"[{p + 1}]" in context.transcript_block for p in lines)
        assert small.result.answer_id == large.result.answer_id
        assert small.perception == large.perception
        if small.result.evidence != large.result.evidence:
            assert small.perception.used_fallback
            assert small.result.evidence == "No textual evidence available."


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["reflect", "reflect", "reflect", "reload", "rebuild", "edit"]),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=_STEPS)
def test_session_indexes_equal_fresh_ones(steps):
    """Across reflections, memory files rewritten behind the session,
    rebuilds and edited transcripts, the indexes the session answers with
    equal freshly built ones; a reflection keeps the episode index."""
    reference = ReferenceBackend()
    backends = BackendPair(manager=reference, reasoner=reference)
    rng = random.Random(len(steps))
    with tempfile.TemporaryDirectory() as root:
        srt = Path(root) / "video.srt"
        srt.write_bytes(serialize_srt(random_transcript(rng, max_lines=120)))
        store = MemoryStore(Path(root) / "mem")

        def opened() -> VideoSession:
            session = store.session("v", str(srt))
            store.get_or_build("v", session.transcript, reference)
            return session

        session = opened()
        base = store.path("v").read_bytes()
        for action, draw in steps:
            step_rng = random.Random(draw)
            kept = None
            if action == "reflect":
                answer(session, random_query(step_rng, session.transcript), _config(64), backends)
                kept = session.episode_index()
            elif action == "reload":  # rewritten behind the session
                store.path("v").write_bytes(base)
            elif action == "rebuild":
                store.path("v").unlink()
            else:  # one line's text edited: the transcript and memory change
                lines = list(session.transcript.lines)
                k = step_rng.randrange(len(lines))
                lines[k] = dataclasses.replace(lines[k], text=f"edited w{draw:07d}")
                edited = dataclasses.replace(session.transcript, lines=tuple(lines))
                srt.write_bytes(serialize_srt(edited))
            session = opened()
            if action in ("rebuild", "edit"):
                base = store.path("v").read_bytes()
            line_index, episode_index = _fresh_indexes(session)
            assert session.line_index() == line_index
            assert session.episode_index() == episode_index
            if kept is not None:
                assert session.episode_index() is kept


def test_committed_summary_edit_drops_the_episode_index():
    """A memory committed through the session whose episodes are as many
    but one summary differs (not a reflection) is indexed anew."""
    transcript, memory = _long_video(200)
    session = VideoSession(transcript=transcript, memory=memory)
    before = session.episode_index()
    edited = memory.episodes[3]
    edited = dataclasses.replace(edited, schematic_summary=edited.schematic_summary + " zebra")
    session.commit(
        dataclasses.replace(
            memory, episodes=memory.episodes[:3] + (edited,) + memory.episodes[4:]
        )
    )
    assert session.episode_index() is not before
    assert session.episode_index() == _fresh_indexes(session)[1]
    assert 3 in session.episode_index()["zebra"]
    session.transcript = _long_video(150)[0]  # a transcript assigned directly
    assert session.line_index() == _fresh_indexes(session)[0]


def test_fit_stops_at_the_first_that_does_not_fit():
    """Kept is a prefix of the ranking: a later, smaller item that would
    still fit is not sent after a larger one that does not."""
    assert _fit([2, 1, 0], [1, 5, 1], 3) == [2]
    assert _fit([2, 1, 0], [1, 5, 1], 7) == [0, 1, 2]
    assert _fit([], [], 0) == []


def _long_video(lines: int = 5000):
    rng = random.Random(7919)
    rows, t = [], 0.0
    for _ in range(lines):
        words = " ".join(f"w{rng.randint(0, 5000):04d}" for _ in range(rng.randint(3, 10)))
        rows.append((round(t, 3), round(t + 1.5, 3), words))
        t += 1.5 + rng.choice([0.2, 0.8, 6.0])
    transcript = make_transcript(rows)
    return transcript, build_memory(transcript, ReferenceBackend())


def test_no_block_exceeds_the_budget_and_a_fitting_block_is_whole():
    transcript, memory = _long_video()
    session = VideoSession(transcript=transcript, memory=memory)
    rng = random.Random(1)
    queries = [random_query(rng, transcript) for _ in range(20)]
    queries.append(Query(text="event", options=(("A", "w0001"), ("B", "w0002"))))
    for budget in (1, 8, 64, 512, 2048):
        for query in queries:
            context = session.context(needle(query.text, query.options), budget)
            assert _inner_tokens(context.transcript_block) <= max(budget, 1)
            assert _inner_tokens(context.memory_block) <= budget
            assert _inner_tokens(context.schematic_block()) <= budget
            ids = [ep.id for ep in context.episodes]
            assert ids == sorted(set(ids))
    whole_transcript = _inner_tokens(transcript.block)
    whole_memory = memory_token_count(memory)
    for budget in (max(whole_transcript, whole_memory), WHOLE):
        context = session.context(set(), budget)
        assert context.transcript_block == transcript.block
        assert context.memory_block == wrap_block("memory", memory_text(memory))
        assert context.schematic_block() == wrap_block(
            "memory", memory_text(memory, include_narrative=False)
        )


def test_retrieved_blocks_follow_the_ranking():
    """Lines and episodes sharing the most distinct needle tokens come
    first, ties to the lower position, kept while they fit; the one-hop
    link targets of the matched episodes follow them; the kept ones render
    in order with their original `[idx]` and with their notes."""
    transcript, memory = _long_video(300)
    session = VideoSession(transcript=transcript, memory=memory)
    query = random_query(random.Random(5), transcript)
    wanted = needle(query.text, query.options)
    shared = {
        line.index: len(wanted & set(content_tokens(line.text))) for line in transcript.lines
    }
    ranked = sorted((i for i in shared if shared[i]), key=lambda i: (-shared[i], i))
    assert len(ranked) > 1
    sizes = {i: count_tokens(format_speech_line(transcript.lines[i - 1])).count for i in ranked}
    budget = sum(sizes[i] for i in ranked[:-1])  # all matches but the last-ranked fit
    context = session.context(wanted, budget)
    rows = context.transcript_block.split("\n")[1:-1]
    assert rows == [format_speech_line(transcript.lines[i - 1]) for i in sorted(ranked[:-1])]

    episodes = memory.episodes
    matched = _matches(wanted, (clean_field(ep.schematic_summary) for ep in episodes))
    hops = {link.target_id for i in matched for link in episodes[i].causal_links} - set(matched)
    assert matched and hops
    budget = sum(_tokens(episodes[i]) for i in set(matched) | hops)
    assert budget < memory_token_count(memory)
    for cut, expected in ((budget, set(matched) | hops), (budget - 1, None)):
        context = session.context(wanted, cut)
        sent = [ep.id for ep in context.episodes]
        assert sent == sorted(sent)
        if expected is not None:
            assert set(sent) == expected
        else:
            assert set(matched) <= set(sent) < set(matched) | hops
        assert context.memory_block == wrap_block(
            "memory", "\n".join(_episode_text(episodes[i]) for i in sent)
        )


def test_prompt_tokens_count_what_is_sent(tmp_path):
    """`token_usage.prompt_tokens` is the action payload's count and
    `memory_tokens` the whole memory's, under a budget that cuts both the
    transcript and the memory of the fixture videos."""
    sent: list[int] = []  # per action request, in call order

    class Recording(ReferenceBackend):
        def complete(self, request):
            if request.context.get("stage") == "action":
                sent.append(count_tokens(request.text_payload()).count)
            return super().complete(request)

    backend = Recording()
    backends = BackendPair(manager=backend, reasoner=backend)
    store = MemoryStore(tmp_path / "mem")
    report = evaluate(
        FIXTURES / "manifest.jsonl", _config(48, reflect=False, workers=1), backends, store.root
    )
    # one worker runs the videos in id order, each video's items in id order
    records = sorted(report.items, key=lambda r: (r.video_id, r.question_id))
    assert len(sent) == len(records)
    for record, count in zip(records, sent):
        assert record.error is None
        assert record.token_usage["prompt_tokens"] == count
        assert record.memory_tokens == memory_token_count(store.load(record.video_id))


@pytest.mark.parametrize("row", sorted(ABLATION_ROWS))
def test_outcome_prompt_tokens_per_composition(row, reference):
    transcript, memory = _long_video(400)
    session = VideoSession(transcript=transcript, memory=memory)
    backends = BackendPair(manager=reference, reasoner=reference)
    query = random_query(random.Random(3), transcript)
    for budget in (16, 256, WHOLE):
        config = dataclasses.replace(_config(budget, reflect=False), evidence=ABLATION_ROWS[row])
        outcome = answer(session, query, config, backends)
        assert outcome.prompt_tokens() == count_tokens(outcome.request.text_payload()).count
        assert outcome.memory_tokens == memory_token_count(memory)
        if ABLATION_ROWS[row].text == "full_transcript":
            assert transcript.block in outcome.request.text_payload()
