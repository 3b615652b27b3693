from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcagent.errors import (
    BudgetTooSmallWarning,
    DigestMismatch,
    InvariantViolation,
    NonPositiveDuration,
    NoRelevantContentWarning,
)
from gcagent.memory import build_memory
from gcagent.perception import (
    PerceptionParams,
    Query,
    derive_clip,
    frame_extraction_commands,
    perceive,
    uniform_clip,
)

from conftest import make_transcript


class TestUniformClip:
    def test_midpoints_over_64s(self):
        clip = uniform_clip(64.0, 32)
        assert clip.frame_timestamps_s == tuple(float(x) for x in range(1, 64, 2))
        assert clip.intervals == ((0.0, 64.0),)

    def test_single_frame_midpoint(self):
        assert uniform_clip(10.0, 1).frame_timestamps_s == (5.0,)

    def test_zero_duration_rejected(self):
        with pytest.raises(NonPositiveDuration):
            uniform_clip(0.0, 4)


class TestDeriveClip:
    def test_single_span_fills_budget(self):
        clip = derive_clip([(0.0, 64.0)], max_frames=32)
        assert clip.frame_timestamps_s == tuple(float(x) for x in range(1, 64, 2))

    def test_zero_width_span_single_timestamp(self):
        clip = derive_clip([(10.0, 10.0)], max_frames=32)
        assert clip.frame_timestamps_s == (10.0,)

    def test_proportional_allocation_with_floor(self):
        clip = derive_clip([(0.0, 30.0), (30.0, 90.0)], max_frames=3)
        # 1 frame to the 30s span, 2 to the 60s span
        assert clip.frame_timestamps_s == (15.0, 45.0, 75.0)

    def test_more_spans_than_frames_drops_shortest(self):
        spans = [(0.0, 10.0), (20.0, 21.0), (30.0, 45.0)]
        with pytest.warns(BudgetTooSmallWarning):
            clip = derive_clip(spans, max_frames=2)
        assert clip.intervals == ((0.0, 10.0), (30.0, 45.0))

    def test_budget_never_exceeded(self):
        spans = [(float(i * 10), float(i * 10 + 4)) for i in range(6)]
        clip = derive_clip(spans, max_frames=32)
        assert len(clip.frame_timestamps_s) <= 32

    def test_timestamps_inside_spans_and_increasing(self):
        spans = [(0.0, 5.0), (8.0, 8.0), (12.0, 40.0)]
        clip = derive_clip(spans, max_frames=10)
        assert list(clip.frame_timestamps_s) == sorted(clip.frame_timestamps_s)
        for ts in clip.frame_timestamps_s:
            assert any(lo <= ts <= hi for lo, hi in clip.intervals)

    def test_span_outside_duration_rejected(self):
        with pytest.raises(InvariantViolation):
            derive_clip([(0.0, 100.0)], max_frames=4, video_duration_s=50.0)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=500, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=32),
    )
    def test_budget_property(self, raw_spans, budget):
        spans = sorted((round(s, 2), round(s + w, 2)) for s, w in raw_spans)
        # keep the generated spans disjoint
        cleaned, cursor = [], -1.0
        for lo, hi in spans:
            if lo > cursor:
                cleaned.append((lo, hi))
                cursor = hi
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clip = derive_clip(cleaned, max_frames=budget)
        assert len(clip.frame_timestamps_s) <= budget


class TestPerceive:
    def test_hit_line_padded(self, reference):
        t = make_transcript(
            [(5.0, 7.0, "they put food in the bowl"), (30.0, 31.0, "credits roll")],
            duration=40.0,
        )
        memory = build_memory(t, reference)
        query = Query(
            text="why throw food in bowl",
            options=(("A", "to mix"), ("B", "to discard")),
        )
        result = perceive(query, t, memory, reference)
        assert len(result.spans) == 1
        span = result.spans[0]
        assert (span.start_s, span.end_s) == (3.0, 9.0)
        assert span.line_indices == (1,)
        assert [l.index for l in result.selected_lines] == [1]
        assert result.used_fallback is False

    def test_zero_overlap_falls_back_to_uniform(self, reference):
        t = make_transcript([(0.0, 2.0, "plain words here")], duration=64.0)
        memory = build_memory(t, reference)
        query = Query(text="zorp blib", options=(("A", "qqq"), ("B", "zzz")))
        with pytest.warns(NoRelevantContentWarning):
            result = perceive(query, t, memory, reference)
        assert result.used_fallback is True
        assert result.spans == ()
        assert result.selected_lines == ()
        assert len(result.clip.frame_timestamps_s) == 32
        assert result.clip.intervals == ((0.0, 64.0),)

    def test_nearby_hits_merge_into_one_span(self, reference):
        t = make_transcript(
            [
                (0.0, 1.0, "the painter grabs a brush"),
                (5.0, 6.0, "the painter daubs color"),
                (40.0, 41.0, "unrelated ending"),
            ],
            duration=60.0,
        )
        memory = build_memory(t, reference)
        query = Query(text="what does the painter do", options=(("A", "paints"), ("B", "sings")))
        result = perceive(query, t, memory, reference)
        assert len(result.spans) == 1
        assert result.spans[0].line_indices == (1, 2)

    def test_far_hits_stay_separate_spans(self, reference):
        t = make_transcript(
            [
                (0.0, 1.0, "the painter grabs a brush"),
                (30.0, 31.0, "the painter signs the canvas"),
            ],
            duration=60.0,
        )
        memory = build_memory(t, reference)
        query = Query(text="painter", options=(("A", "brush"), ("B", "canvas")))
        result = perceive(query, t, memory, reference)
        assert len(result.spans) == 2

    def test_lines_between_hits_included_in_selection(self, reference):
        t = make_transcript(
            [
                (0.0, 1.0, "the painter grabs a brush"),
                (3.0, 4.0, "birds chirp outside"),
                (8.0, 9.0, "the painter daubs color"),
            ],
            duration=30.0,
        )
        memory = build_memory(t, reference)
        query = Query(text="painter working", options=(("A", "brush"), ("B", "color")))
        result = perceive(query, t, memory, reference)
        assert result.spans[0].line_indices == (1, 2, 3)
        # every span still contains at least one line with real overlap
        assert {1, 3} <= set(result.spans[0].line_indices)

    def test_top_k_limits_hits(self, reference):
        rows = [(i * 20.0, i * 20.0 + 1.0, f"the painter works diligently {i}") for i in range(8)]
        t = make_transcript(rows, duration=200.0)
        memory = build_memory(t, reference)
        query = Query(text="painter works", options=(("A", "yes"), ("B", "no")))
        result = perceive(query, t, memory, reference, PerceptionParams(top_k=3))
        assert sum(len(s.line_indices) for s in result.spans) == 3
        # earlier lines win ties
        assert result.spans[0].line_indices[0] == 1

    def test_digest_mismatch_rejected(self, reference, cooking_memory):
        other = make_transcript([(0.0, 1.0, "unrelated transcript")])
        query = Query(text="anything", options=(("A", "x"), ("B", "y")))
        with pytest.raises(DigestMismatch):
            perceive(query, other, cooking_memory, reference)

    def test_clip_respects_video_bounds(self, reference):
        t = make_transcript([(0.0, 2.0, "food in the bowl")], duration=10.0)
        memory = build_memory(t, reference)
        query = Query(text="food bowl", options=(("A", "a"), ("B", "b")))
        result = perceive(query, t, memory, reference)
        for ts in result.clip.frame_timestamps_s:
            assert 0.0 <= ts <= 10.0

    def test_deterministic(self, reference, cooking_transcript, cooking_memory, cooking_query):
        a = perceive(cooking_query, cooking_transcript, cooking_memory, reference)
        b = perceive(cooking_query, cooking_transcript, cooking_memory, reference)
        assert a == b


def test_query_label_validation():
    with pytest.raises(InvariantViolation):
        Query(text="q", options=(("A", "only one"),))
    with pytest.raises(InvariantViolation):
        Query(text="q", options=(("A", "x"), ("C", "y")))
    with pytest.raises(InvariantViolation):
        Query(text="q", options=(("B", "x"), ("A", "y")))


def test_frame_extraction_commands(tmp_path):
    clip = uniform_clip(10.0, 2)
    commands = frame_extraction_commands(clip, "video.mp4", tmp_path)
    assert len(commands) == 2
    ts, path, cmd = commands[0]
    assert ts == 2.5
    assert path.endswith("frame_0000_2.500.jpg")
    assert "video.mp4" in cmd and "-ss 2.500" in cmd


def _scan_spans(lines, hit_indices, params, duration):
    """Reference rule: merge the hit lines by a dict lookup, then collect each
    span's lines by a scan over the whole transcript."""
    by_index = {line.index: line for line in lines}
    hits = [by_index[i] for i in sorted(set(hit_indices)) if i in by_index]
    groups = []
    for line in hits:
        if groups and line.start_s - groups[-1][-1].end_s <= params.merge_window_s:
            groups[-1].append(line)
        else:
            groups.append([line])
    merged = []
    for group in groups:
        lo = max(0.0, min(l.start_s for l in group) - params.pad_s)
        hi = min(duration, max(l.end_s for l in group) + params.pad_s)
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return [
        (lo, hi, tuple(l.index for l in lines if lo <= l.start_s and l.end_s <= hi))
        for lo, hi in merged
    ]


# few distinct values, so starts tie, widths are zero and ends fall out of order
_line_starts = st.sampled_from([0.0, 0.5, 1.0, 3.0, 4.0, 10.0, 12.5, 30.0])
_line_widths = st.sampled_from([0.0, 0.0, 0.5, 2.0, 9.0, 25.0])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_line_starts, _line_widths), min_size=1, max_size=15),
    hits=st.lists(st.integers(min_value=-1, max_value=17), max_size=6),
    pad_s=st.sampled_from([0.0, 0.5, 2.0]),
    merge_window_s=st.sampled_from([0.0, 1.0, 10.0]),
    extra_duration=st.sampled_from([None, 0.0, 3.0]),
)
def test_perceive_spans_match_scan(rows, hits, pad_s, merge_window_s, extra_duration):
    import json
    import warnings

    from gcagent.memory import Episode, EpisodicMemory
    from gcagent.reference import ScriptedBackend

    lines = [(s, s + w, f"line {i}") for i, (s, w) in enumerate(rows)]
    end = max(e for _, e, _ in lines)
    t = make_transcript(lines, duration=None if extra_duration is None else end + extra_duration)
    memory = EpisodicMemory(
        episodes=(Episode(id=0, span=(0.0, end), line_range=(1, len(lines)), schematic_summary="s"),),
        version=1,
        source_digest=t.digest,
    )
    params = PerceptionParams(pad_s=pad_s, merge_window_s=merge_window_s)
    backend = ScriptedBackend([json.dumps({"line_indices": hits})])
    query = Query(text="q", options=(("A", "a"), ("B", "b")))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = perceive(query, t, memory, backend, params)
    in_range = [i for i in hits if 1 <= i <= len(lines)]
    expected = _scan_spans(t.lines, in_range, params, t.duration_s) if in_range else []
    assert [(s.start_s, s.end_s, s.line_indices) for s in result.spans] == expected


def test_nan_caption_time_is_a_malformed_record():
    from gcagent.errors import MalformedRecord
    from gcagent.transcript import parse_caption_doc

    with pytest.raises(MalformedRecord):
        parse_caption_doc(b'{"t": NaN, "caption": "x"}\n')
    with pytest.raises(InvariantViolation):
        make_transcript([(float("nan"), 1.0, "x")])
