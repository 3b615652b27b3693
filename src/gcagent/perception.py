"""Query-conditioned retrieval: relevant transcript spans and the clip plan.

The backend proposes relevant line indices; this module turns them into
merged, padded time spans, collects the lines inside those spans, and
derives a frame-sampling plan under the frame budget. When retrieval finds
nothing the stage falls back to uniform sampling over the whole video and
flags the result.
"""

from __future__ import annotations

import shlex
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

from .backend import (
    Backend,
    ChatRequest,
    PromptTemplate,
    TextPart,
    answer_field,
    complete_text,
    encodable,
    render_template,
)
from .errors import (
    BudgetTooSmallWarning,
    EmptyTranscript,
    InvariantViolation,
    NonPositiveDuration,
    NoRelevantContentWarning,
)
from .memory import Context, check_minimums
from .prompts import SYSTEM_MEMORY_MANAGER, format_options, lookup_template
from .transcript import SpeechLine, Transcript

DEFAULT_MAX_FRAMES = 32
_start = attrgetter("start_s")


@dataclass(frozen=True)
class Query:
    text: str
    options: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(self.options) < 2:
            raise InvariantViolation("a query needs at least two options")
        if not all(encodable(text) for text in (self.text, *(t for _, t in self.options))):
            raise InvariantViolation("query or option text cannot be written as UTF-8")
        labels = [label for label, _ in self.options]
        expected = [chr(ord("A") + i) for i in range(len(labels))]
        if labels != expected:
            raise InvariantViolation(
                f"option labels must be consecutive from A, got {labels}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.options)


@dataclass(frozen=True)
class PerceptionParams:
    top_k: int = 5
    pad_s: float = 2.0
    merge_window_s: float = 10.0
    max_frames: int = DEFAULT_MAX_FRAMES
    # the most tokens of transcript lines, or of memory episodes with their
    # notes, one prompt block carries (`VideoSession.context`)
    context_budget: int = 2048

    def __post_init__(self):
        check_minimums(
            self,
            (
                ("top_k", int, 1),
                ("pad_s", (int, float), 0),
                ("merge_window_s", (int, float), 0),
                ("max_frames", int, 1),
                ("context_budget", int, 1),
            ),
        )


@dataclass(frozen=True)
class Span:
    start_s: float
    end_s: float
    line_indices: tuple[int, ...]


@dataclass(frozen=True)
class ClipSpec:
    intervals: tuple[tuple[float, float], ...]
    frame_timestamps_s: tuple[float, ...]

    def __post_init__(self):
        prev = None
        for ts in self.frame_timestamps_s:
            if prev is not None and ts <= prev:
                raise InvariantViolation("frame timestamps must be strictly increasing")
            prev = ts
            if not any(lo <= ts <= hi for lo, hi in self.intervals):
                raise InvariantViolation(f"frame timestamp {ts} outside all intervals")

    def to_json_dict(self) -> dict:
        return {
            "intervals": [[lo, hi] for lo, hi in self.intervals],
            "frame_timestamps_s": list(self.frame_timestamps_s),
        }


@dataclass(frozen=True)
class PerceptionResult:
    spans: tuple[Span, ...]
    clip: ClipSpec
    selected_lines: tuple[SpeechLine, ...]
    used_fallback: bool = False


def uniform_clip(video_duration_s: float, n: int) -> ClipSpec:
    """Midpoint sampling of n frames over the whole video."""
    if video_duration_s <= 0:
        raise NonPositiveDuration(f"duration {video_duration_s} must be positive")
    if n < 1:
        raise InvariantViolation("frame count must be >= 1")
    step = video_duration_s / n
    return ClipSpec(
        intervals=((0.0, video_duration_s),),
        frame_timestamps_s=tuple((i + 0.5) * step for i in range(n)),
    )


def derive_clip(
    spans: Sequence[tuple[float, float]],
    max_frames: int = DEFAULT_MAX_FRAMES,
    video_duration_s: float | None = None,
) -> ClipSpec:
    """Allocate the frame budget over spans proportionally to duration
    (at least one frame per span), midpoint rule inside each span. If there
    are more spans than frames, the shortest spans are dropped."""
    if max_frames < 1:
        raise InvariantViolation("max_frames must be >= 1")
    intervals = [(float(lo), float(hi)) for lo, hi in spans]
    for lo, hi in intervals:
        if lo > hi:
            raise InvariantViolation(f"span [{lo}, {hi}] reversed")
        if video_duration_s is not None and (lo < 0 or hi > video_duration_s):
            raise InvariantViolation(f"span [{lo}, {hi}] outside [0, {video_duration_s}]")
    if not intervals:
        return ClipSpec(intervals=(), frame_timestamps_s=())
    intervals.sort()
    if len(intervals) > max_frames:
        warnings.warn(
            f"{len(intervals)} spans exceed the frame budget of {max_frames}; "
            "dropping the shortest",
            BudgetTooSmallWarning,
            stacklevel=2,
        )
        # drop lowest-duration first; on ties drop the later span
        keep = sorted(
            sorted(intervals, key=lambda iv: (iv[1] - iv[0], -iv[0]), reverse=True)[:max_frames]
        )
        intervals = keep
    # zero-width spans can only ever hold one frame
    alloc = [1] * len(intervals)
    pos_idx = [i for i, (lo, hi) in enumerate(intervals) if hi > lo]
    budget_pos = max_frames - (len(intervals) - len(pos_idx))
    if pos_idx:
        total = sum(intervals[i][1] - intervals[i][0] for i in pos_idx)
        counts = [
            max(1, int(budget_pos * (intervals[i][1] - intervals[i][0]) / total))
            for i in pos_idx
        ]
        while sum(counts) > budget_pos:
            # shrink the largest allocation, later span first on ties
            k = max(range(len(counts)), key=lambda i: (counts[i], i))
            counts[k] -= 1
        while sum(counts) < budget_pos:
            # grow the longest span, earlier span first on ties
            k = max(
                range(len(counts)),
                key=lambda i: (
                    intervals[pos_idx[i]][1] - intervals[pos_idx[i]][0],
                    -i,
                ),
            )
            counts[k] += 1
        for i, count in zip(pos_idx, counts):
            alloc[i] = count
    timestamps: list[float] = []
    for (lo, hi), n in zip(intervals, alloc):
        if hi == lo:
            timestamps.append(lo)
        else:
            width = hi - lo
            timestamps.extend(lo + (j + 0.5) * width / n for j in range(n))
    return ClipSpec(intervals=tuple(intervals), frame_timestamps_s=tuple(timestamps))


def _merge_hit_lines(
    lines: Sequence[SpeechLine],
    hit_indices: Sequence[int],
    params: PerceptionParams,
    duration: float,
) -> list[tuple[float, float]]:
    # a line's index is its 1-based position; perceive keeps only valid ones
    hits = [lines[i - 1] for i in sorted(set(hit_indices))]
    groups: list[list[SpeechLine]] = []
    for line in hits:
        if groups and line.start_s - groups[-1][-1].end_s <= params.merge_window_s:
            groups[-1].append(line)
        else:
            groups.append([line])
    merged: list[tuple[float, float]] = []
    for group in groups:
        lo = max(0.0, min(l.start_s for l in group) - params.pad_s)
        hi = min(duration, max(l.end_s for l in group) + params.pad_s)
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def perceive(
    query: Query,
    transcript: Transcript,
    context: Context,
    backend: Backend,
    params: PerceptionParams = PerceptionParams(),
    templates: Mapping[str, PromptTemplate] | None = None,
) -> PerceptionResult:
    """Retrieve query-relevant spans of `transcript` plus the clip plan for
    them. The prompt carries `context`'s transcript and memory blocks, the
    context the session retrieved for this query."""
    if not transcript.lines:
        raise EmptyTranscript("cannot perceive over an empty transcript")
    duration = transcript.duration_s
    body = render_template(
        lookup_template(templates, "perception"),
        {
            "query": " ".join(query.text.split()),
            "options": format_options(query.options),
            "memory": context.memory_block,
            "transcript": context.transcript_block,
        },
    )
    request = ChatRequest(
        system=SYSTEM_MEMORY_MANAGER,
        user_parts=(TextPart(body),),
        context={"stage": "perception", "top_k": params.top_k},
    )
    proposed = answer_field(complete_text(backend, request), "line_indices", list)
    n = len(transcript.lines)
    indices = [value for value in proposed or [] if type(value) is int and 1 <= value <= n]
    if not indices:
        warnings.warn(
            "no query-relevant lines found; falling back to uniform sampling",
            NoRelevantContentWarning,
            stacklevel=2,
        )
        clip = uniform_clip(max(duration, 1e-9), params.max_frames)
        return PerceptionResult(spans=(), clip=clip, selected_lines=(), used_fallback=True)
    lines = transcript.lines
    spans = []
    for lo, hi in _merge_hit_lines(lines, indices, params, duration):
        # starts are sorted, so the lines starting in [lo, hi] are one slice
        first, last = bisect_left(lines, lo, key=_start), bisect_right(lines, hi, key=_start)
        inside = tuple(l.index for l in lines[first:last] if l.end_s <= hi)
        spans.append(Span(start_s=lo, end_s=hi, line_indices=inside))
    spans = tuple(spans)
    selected = tuple(
        transcript.lines[i - 1] for span in spans for i in span.line_indices
    )
    clip = derive_clip(
        [(s.start_s, s.end_s) for s in spans], params.max_frames, duration
    )
    return PerceptionResult(spans=spans, clip=clip, selected_lines=selected)


def frame_extraction_commands(
    clip: ClipSpec, video_path: str, out_dir: str | Path
) -> list[tuple[float, str, str]]:
    """Adapter for an external frame grabber: one (timestamp, image path,
    shell command) triple per planned frame."""
    out = []
    base = Path(out_dir)
    for i, ts in enumerate(clip.frame_timestamps_s):
        image = base / f"frame_{i:04d}_{ts:.3f}.jpg"
        cmd = (
            f"ffmpeg -y -ss {ts:.3f} -i {shlex.quote(video_path)} "
            f"-frames:v 1 -q:v 2 {shlex.quote(str(image))}"
        )
        out.append((ts, str(image), cmd))
    return out
