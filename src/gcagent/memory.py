"""Episodic memory: construction, reflection updates, and persistence.

Construction runs in three backend-assisted passes over a transcript:
event segmentation (topic-shift boundaries), schematic abstraction per
unit (situation-level summary + participant entities), and narrative
linking across units (roles and causal/temporal dependencies). Reflection
appends a concise note about an answered query to the most relevant
episode; it never rewrites existing content.

Abstraction sends the units in batches of consecutive units, one
`memory_abstraction` request per batch, as many units as
`abstraction_batch_size` allows. The template's `{transcript}` holds the
batch: a `<units>` block with one `ordinal: first-last` line per unit
(ordinals count across the whole video, line numbers are transcript
indices), then the batch's lines, each sent once, in one `<transcript>`
block. The response is `{"units": [{"summary": ..., "entities": [...]},
...]}`, one entry per listed unit in listing order; a missing, short or
blank entry, or a summary that cannot be written as UTF-8, raises
`EmptySummary` naming that unit's ordinal (such an entity is dropped). A
response that is not JSON at all (as when it was cut off at the output
limit) is asked for again as two half batches, down to single units.
"""

from __future__ import annotations

import fcntl
import json
import os
import secrets
import threading
import warnings
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import Mapping, Sequence

from .backend import (
    DEFAULT_MAX_OUTPUT_TOKENS,
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
    BackendFailure,
    DegenerateOutputWarning,
    EmptySummary,
    EmptyTranscript,
    InvalidLinkWarning,
    InvariantViolation,
    MemoryFileError,
    SchemaViolation,
    TornLineWarning,
)
from .prompts import (
    SYSTEM_MEMORY_MANAGER,
    clean_field,
    format_episode_line,
    format_note_line,
    format_options,
    format_speech_line,
    lookup_template,
    rendered_transcript_block,
    transcript_block,
    units_block,
    wrap_block,
)
from .text import Postings, overlaps, postings, truncate_tokens
from .transcript import Transcript, count_tokens, load_transcript, read_source, transcript_digest

NARRATIVE_ROLES = ("introduction", "development", "conflict", "resolution", "other")
LINK_RELATIONS = ("precedes", "causes", "refers_back")

# tokens whose presence in a summary marks an event unit as a conflict beat
CONFLICT_LEXICON = frozenset({"but", "however", "problem", "fail", "wrong"})


def check_minimums(params, fields) -> None:
    """Raise `InvariantViolation` unless every `(name, types, low)` field of
    `params` is an instance of `types`, not a bool, and at least `low`."""
    for name, types, low in fields:
        value = getattr(params, name)
        # `not value >= low` also rejects NaN
        if isinstance(value, bool) or not isinstance(value, types) or not value >= low:
            kind = "an integer" if types is int else "a number"
            raise InvariantViolation(f"{name} must be {kind} >= {low}, got {value!r}")


@dataclass(frozen=True)
class MemoryParams:
    gap_threshold_s: float = 5.0
    max_lines: int = 20
    summary_budget: int = 30
    refers_back_overlap: int = 3

    def __post_init__(self):
        check_minimums(
            self,
            (
                ("gap_threshold_s", (int, float), 0),
                ("max_lines", int, 1),
                ("summary_budget", int, 1),
                ("refers_back_overlap", int, 1),
            ),
        )


@dataclass(frozen=True)
class CausalLink:
    target_id: int
    relation: str


@dataclass(frozen=True)
class ReflectionNote:
    query: str
    answer_id: str
    summary: str
    created_version: int


@dataclass(frozen=True)
class Episode:
    id: int
    span: tuple[float, float]
    line_range: tuple[int, int]
    schematic_summary: str
    entities: tuple[str, ...] = ()
    narrative_role: str = "other"
    causal_links: tuple[CausalLink, ...] = ()
    reflections: tuple[ReflectionNote, ...] = ()

    def __post_init__(self):
        if self.id < 0:
            raise InvariantViolation(f"episode id {self.id} negative")
        if self.span[0] > self.span[1]:
            raise InvariantViolation(f"episode {self.id}: span start after end")
        if self.line_range[0] < 1 or self.line_range[0] > self.line_range[1]:
            raise InvariantViolation(f"episode {self.id}: empty or invalid line_range")
        if not self.schematic_summary.strip():
            raise InvariantViolation(f"episode {self.id}: empty schematic summary")
        if self.narrative_role not in NARRATIVE_ROLES:
            raise InvariantViolation(f"episode {self.id}: unknown role {self.narrative_role!r}")
        for link in self.causal_links:
            if link.relation not in LINK_RELATIONS:
                raise InvariantViolation(f"episode {self.id}: unknown relation {link.relation!r}")
            if not 0 <= link.target_id < self.id:
                raise InvariantViolation(
                    f"episode {self.id}: link target {link.target_id} is not strictly earlier"
                )
        for note in self.reflections:
            if not note.summary.strip():
                raise InvariantViolation(f"episode {self.id}: empty reflection summary")
            if note.created_version < 1:
                raise InvariantViolation(f"episode {self.id}: bad note version")
        start, end = self.span
        if type(start) is not float or type(end) is not float:
            # floats, as a memory file reads back, so a memory equals its file
            object.__setattr__(self, "span", (float(start), float(end)))


@dataclass(frozen=True)
class EpisodicMemory:
    episodes: tuple[Episode, ...]
    version: int
    source_digest: str

    def __post_init__(self):
        if self.version < 1:
            raise InvariantViolation("memory version must be >= 1")
        expected_start = 1
        for pos, ep in enumerate(self.episodes):
            if ep.id != pos:
                raise InvariantViolation(f"episode id {ep.id} at position {pos}")
            if ep.line_range[0] != expected_start:
                raise InvariantViolation(
                    f"episode {ep.id}: line_range starts at {ep.line_range[0]}, "
                    f"expected {expected_start}"
                )
            expected_start = ep.line_range[1] + 1
            for note in ep.reflections:
                if note.created_version > self.version:
                    raise InvariantViolation(
                        f"episode {ep.id}: note version {note.created_version} "
                        f"exceeds memory version {self.version}"
                    )

    @property
    def line_count(self) -> int:
        return self.episodes[-1].line_range[1] if self.episodes else 0

    @cached_property
    def span_index(self) -> tuple[list[int], list[float], list[float]]:
        """The episode positions ordered by span start, their starts, and
        the running maximum of their ends, for `_target_episode`. A span
        holding a nan overlaps nothing and is left out (memory files may
        list spans in any order). Computed once per instance; `reflect`
        hands it on to the version it returns. Treat it as read-only."""
        spans = [ep.span for ep in self.episodes]
        order = sorted((i for i, (a, b) in enumerate(spans) if a <= b), key=lambda i: spans[i][0])
        starts = [spans[i][0] for i in order]
        reach = list(accumulate([spans[i][1] for i in order], max))  # furthest end so far
        return order, starts, reach


# --- prompt-facing serialization -------------------------------------------------

def _episode_text(ep: Episode, include_narrative: bool = True) -> str:
    """One episode's lines of `memory_text`: its episode line and its notes."""
    lines = [
        format_episode_line(
            ep.id,
            ep.span[0],
            ep.span[1],
            ep.schematic_summary,
            role=ep.narrative_role if include_narrative else None,
            links=[(l.relation, l.target_id) for l in ep.causal_links]
            if include_narrative
            else None,
        )
    ]
    for note in ep.reflections:
        lines.append(format_note_line(note.created_version, note.answer_id, note.summary))
    return "\n".join(lines)


def memory_text(memory: EpisodicMemory, include_narrative: bool = True) -> str:
    """One line per episode plus its reflection notes. The narrative form
    carries roles and causal links; the schematic form omits them."""
    return "\n".join(_episode_text(ep, include_narrative) for ep in memory.episodes)


def memory_token_count(memory: EpisodicMemory) -> int:
    """Token footprint of the memory as fed to prompts (summaries, roles,
    links, notes; never the underlying transcript text)."""
    return count_tokens(memory_text(memory, include_narrative=True)).count


# --- construction -----------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeDraft:
    id: int
    span: tuple[float, float]
    line_range: tuple[int, int]
    summary: str
    entities: tuple[str, ...]


def segment_events(
    transcript: Transcript,
    backend: Backend,
    params: MemoryParams = MemoryParams(),
    templates: Mapping[str, PromptTemplate] | None = None,
    rendered: Sequence[str] | None = None,
) -> list[tuple[int, int]]:
    """Ask the backend for event-level units, then repair the proposal into a
    contiguous, non-overlapping cover of all lines. `rendered` is the
    transcript's lines through `format_speech_line` when the caller has them."""
    if not transcript.lines:
        raise EmptyTranscript("cannot segment an empty transcript")
    n = len(transcript.lines)
    if rendered is None:
        rendered = [format_speech_line(line) for line in transcript.lines]
    body = render_template(
        lookup_template(templates, "memory_segmentation"),
        {"transcript": rendered_transcript_block(rendered)},
    )
    system = (
        SYSTEM_MEMORY_MANAGER
        + f" Start a new unit when the silence gap between consecutive lines reaches"
        f" {params.gap_threshold_s:g} seconds, and never let a unit exceed"
        f" {params.max_lines} lines."
    )
    request = ChatRequest(
        system=system,
        user_parts=(TextPart(body),),
        context={
            "stage": "memory_segmentation",
            "gap_threshold_s": params.gap_threshold_s,
            "max_lines": params.max_lines,
        },
    )
    proposal = answer_field(complete_text(backend, request), "units", list)
    units, repaired = _repair_units(proposal or [], n)
    if proposal is None or repaired:
        warnings.warn(
            f"segmentation output repaired into {len(units)} unit(s)",
            DegenerateOutputWarning,
            stacklevel=2,
        )
    return units


def _as_index(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _repair_units(proposal: list, n: int) -> tuple[list[tuple[int, int]], bool]:
    cleaned: list[tuple[int, int]] = []
    repaired = False
    for entry in proposal:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            repaired = True
            continue
        a, b = entry
        if type(a) is int and type(b) is int and 1 <= a <= b <= n:
            cleaned.append((a, b))  # the common, well-formed case
            continue
        a, b = _as_index(a), _as_index(b)
        if a is None or b is None:
            repaired = True
            continue
        ca, cb = max(1, min(a, n)), max(1, min(b, n))
        if (ca, cb) != (a, b):
            repaired = True
        if ca > cb:
            repaired = True
            continue
        cleaned.append((ca, cb))
    if not cleaned:
        return [(1, n)], True
    cleaned.sort()
    fixed: list[tuple[int, int]] = []
    expected = 1
    for a, b in cleaned:
        if a > expected:
            if fixed:
                # fill the gap by extending the previous unit
                fixed[-1] = (fixed[-1][0], a - 1)
            else:
                a = expected
            repaired = True
        elif a < expected:
            a = expected  # clip the overlap
            repaired = True
        if a > b:
            repaired = True
            continue
        fixed.append((a, b))
        expected = b + 1
    if not fixed:
        return [(1, n)], True
    if fixed[-1][1] < n:
        fixed[-1] = (fixed[-1][0], n)
        repaired = True
    return fixed, repaired


# Output tokens one unit's entry in an abstraction response may take besides
# its summary words: the entry's JSON keys, quotes and brackets (18 when each
# punctuation mark and each four characters of a word count as one token)
# and a list of eight entities at four tokens each.
_ENTRY_TOKENS = 20
_ENTITY_TOKENS = 8 * 4


def abstraction_batch_size(params: MemoryParams) -> int:
    """Units per `memory_abstraction` request: as many as fit the default
    output allowance (`DEFAULT_MAX_OUTPUT_TOKENS`) when each unit's entry
    takes two tokens per summary word plus its JSON wrapping and eight
    entities; 9 at the default budget of 30 words, at least 1."""
    per_unit = 2 * params.summary_budget + _ENTRY_TOKENS + _ENTITY_TOKENS
    return max(1, DEFAULT_MAX_OUTPUT_TOKENS // per_unit)


def abstract_schema(
    transcript: Transcript,
    units: Sequence[tuple[int, int]],
    backend: Backend,
    params: MemoryParams = MemoryParams(),
    first_ordinal: int = 1,
    templates: Mapping[str, PromptTemplate] | None = None,
    rendered: Sequence[str] | None = None,
) -> list[tuple[str, tuple[str, ...]]]:
    """Summary and entities of each of `units`, consecutive line ranges
    numbered from `first_ordinal`, from one request laid out as the module
    docstring says. A response that is not JSON is asked for again as two
    half batches; for a single unit it raises `EmptySummary`. `rendered` is
    as for `segment_events`."""
    if not units:
        raise InvariantViolation("abstraction needs at least one unit")
    expected = units[0][0]
    for a, b in units:
        if a < 1 or b > len(transcript.lines) or a > b or a != expected:
            raise InvariantViolation(f"line_range {(a, b)} out of bounds or not consecutive")
        expected = b + 1
    first, last = units[0][0], units[-1][1]
    if rendered is None:
        lines = [format_speech_line(line) for line in transcript.lines[first - 1 : last]]
    else:
        lines = rendered[first - 1 : last]
    batch = units_block(units, first_ordinal) + "\n" + rendered_transcript_block(lines)
    body = render_template(lookup_template(templates, "memory_abstraction"), {"transcript": batch})
    system = (
        SYSTEM_MEMORY_MANAGER
        + f" Keep each unit's summary within {params.summary_budget} words."
    )
    request = ChatRequest(
        system=system,
        user_parts=(TextPart(body),),
        context={"stage": "memory_abstraction", "summary_budget": params.summary_budget},
    )
    raw = complete_text(backend, request)
    entries = answer_field(raw, "units", list)
    if entries is None and len(units) > 1:
        try:
            json.loads(raw)  # JSON without a `units` list is not asked for again
        except (ValueError, RecursionError):
            half = len(units) // 2
            warnings.warn(
                f"abstraction of units {first_ordinal}-{first_ordinal + len(units) - 1}"
                " returned no JSON (cut off at the output limit?); asking for each half",
                DegenerateOutputWarning,
                stacklevel=2,
            )
            head, tail = units[:half], units[half:]
            return abstract_schema(
                transcript, head, backend, params, first_ordinal, templates, rendered
            ) + abstract_schema(
                transcript, tail, backend, params, first_ordinal + half, templates, rendered
            )
    entries = entries or []
    if len(entries) > len(units):
        warnings.warn(
            f"abstraction returned {len(entries)} entries for {len(units)} unit(s);"
            " the extra entries were dropped",
            DegenerateOutputWarning,
            stacklevel=2,
        )
    out: list[tuple[str, tuple[str, ...]]] = []
    for k in range(len(units)):
        entry = entries[k] if k < len(entries) and isinstance(entries[k], dict) else {}
        summary = entry.get("summary")
        if not isinstance(summary, str) or not summary.strip() or not encodable(summary):
            raise EmptySummary(
                f"unit {first_ordinal + k}: backend returned no usable summary"
            )
        entities = entry.get("entities")
        if not isinstance(entities, list):
            entities = []
        # first occurrence order, without duplicates
        kept = dict.fromkeys(
            item for item in entities if isinstance(item, str) and item and encodable(item)
        )
        out.append((" ".join(summary.split()), tuple(kept)))
    return out


def link_narrative(
    drafts: Sequence[EpisodeDraft],
    backend: Backend,
    params: MemoryParams = MemoryParams(),
    templates: Mapping[str, PromptTemplate] | None = None,
) -> list[tuple[str, tuple[CausalLink, ...]]]:
    """Assign one narrative role per draft episode and validated causal links.
    Invalid roles become 'other' and invalid links are dropped, each with a
    warning; a `causal_links` that is not a list is one invalid link."""
    if not drafts:
        raise InvariantViolation("link_narrative needs at least one draft episode")
    listing = "\n".join(
        format_episode_line(d.id, d.span[0], d.span[1], d.summary) for d in drafts
    )
    body = render_template(
        lookup_template(templates, "memory_narrative"),
        {"memory": wrap_block("memory", listing)},
    )
    request = ChatRequest(
        system=SYSTEM_MEMORY_MANAGER,
        user_parts=(TextPart(body),),
        context={
            "stage": "memory_narrative",
            "refers_back_overlap": params.refers_back_overlap,
        },
    )
    entries = answer_field(complete_text(backend, request), "episodes", list)
    if entries is None:
        warnings.warn(
            "narrative output unreadable; roles defaulted, links dropped",
            InvalidLinkWarning,
            stacklevel=2,
        )
    assignments = {
        entry["id"]: entry
        for entry in entries or []
        if isinstance(entry, dict) and isinstance(entry.get("id"), int)
    }
    out: list[tuple[str, tuple[CausalLink, ...]]] = []
    for draft in drafts:
        entry = assignments.get(draft.id, {})
        role = entry.get("narrative_role")
        if role not in NARRATIVE_ROLES:
            if role is not None:
                warnings.warn(
                    f"episode {draft.id}: role {role!r} replaced with 'other'",
                    InvalidLinkWarning,
                    stacklevel=2,
                )
            role = "other"
        proposed = entry.get("causal_links")
        if not isinstance(proposed, list):
            if proposed is not None:
                warnings.warn(
                    f"episode {draft.id}: dropped causal_links {proposed!r}, not a list",
                    InvalidLinkWarning,
                    stacklevel=2,
                )
            proposed = []
        links: list[CausalLink] = []
        for link in proposed:
            fields = link if isinstance(link, dict) else {}
            target, relation = fields.get("target_id"), fields.get("relation")
            if isinstance(target, int) and relation in LINK_RELATIONS and 0 <= target < draft.id:
                links.append(CausalLink(target_id=target, relation=relation))
            else:
                warnings.warn(
                    f"episode {draft.id}: dropped invalid link {link!r}",
                    InvalidLinkWarning,
                    stacklevel=2,
                )
        out.append((role, tuple(links)))
    return out


def build_memory(
    transcript: Transcript,
    backend: Backend,
    params: MemoryParams = MemoryParams(),
    templates: Mapping[str, PromptTemplate] | None = None,
) -> EpisodicMemory:
    """Full construction pass: segment, abstract the units in batches of
    `abstraction_batch_size` consecutive units, link narrative."""
    if not transcript.lines:
        raise EmptyTranscript("cannot build memory from an empty transcript")
    rendered = [format_speech_line(line) for line in transcript.lines]
    units = segment_events(transcript, backend, params, templates, rendered)
    size = abstraction_batch_size(params)
    abstracts: list[tuple[str, tuple[str, ...]]] = []
    for start in range(0, len(units), size):
        batch = units[start : start + size]
        abstracts += abstract_schema(
            transcript, batch, backend, params, start + 1, templates, rendered
        )
    drafts: list[EpisodeDraft] = []
    for k, ((a, b), (summary, entities)) in enumerate(zip(units, abstracts)):
        unit_lines = transcript.lines[a - 1 : b]
        span = (unit_lines[0].start_s, max([line.end_s for line in unit_lines]))
        drafts.append(
            EpisodeDraft(id=k, span=span, line_range=(a, b), summary=summary, entities=entities)
        )
    assignments = link_narrative(drafts, backend, params, templates)
    episodes = tuple(
        Episode(
            id=d.id,
            span=d.span,
            line_range=d.line_range,
            schematic_summary=d.summary,
            entities=d.entities,
            narrative_role=role,
            causal_links=links,
        )
        for d, (role, links) in zip(drafts, assignments)
    )
    return EpisodicMemory(
        episodes=episodes, version=1, source_digest=transcript_digest(transcript)
    )


# --- reflection --------------------------------------------------------------------

def _interval_overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def _interval_gap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, max(b[0] - a[1], a[0] - b[1]))


def _target_episode(
    memory: EpisodicMemory, perception_spans: Sequence[tuple[float, float]]
) -> int:
    """Position of the episode with the largest total overlap with the
    perception spans (the first on ties); when nothing overlaps, the one
    nearest to them."""
    if not perception_spans:
        return 0
    # each perception span bisects to the episodes it can overlap
    order, starts, reach = memory.span_index
    episodes = memory.episodes
    candidates: set[int] = set()
    for lo, hi in perception_spans:
        # overlap > 0 needs end > lo and start < hi
        candidates.update(order[bisect_right(reach, lo) : bisect_left(starts, hi)])
    best, target = 0.0, None
    for i in sorted(candidates):
        overlap = sum(_interval_overlap(episodes[i].span, span) for span in perception_spans)
        if overlap > best:
            best, target = overlap, i
    if target is not None:
        return target
    gaps = [
        min(_interval_gap(ep.span, span) for span in perception_spans)
        for ep in episodes
    ]
    return gaps.index(min(gaps))


def reflect(
    query: str,
    options: Sequence[tuple[str, str]],
    answer_id: str,
    evidence: str,
    memory: EpisodicMemory,
    perception_spans: Sequence[tuple[float, float]],
    backend: Backend,
    params: MemoryParams = MemoryParams(),
    templates: Mapping[str, PromptTemplate] | None = None,
) -> EpisodicMemory:
    """Append one reflection note to the episode whose span overlaps the
    perception spans most (nearest episode when nothing overlaps). The
    prompt's `{memory}` is that episode alone, its narrative line and its
    notes in a `<memory>` block, so the prompt grows with one episode, not
    with the memory. Returns a new memory with version + 1 in which only the
    target episode is a new object; everything pre-existing is untouched. It
    records which episode it changed (see `_with_note`), so a store appends
    the note to the memory file as one line."""
    if not evidence.strip():
        raise InvariantViolation("reflection requires non-empty evidence")
    if not memory.episodes:
        raise InvariantViolation("reflection requires a memory with at least one episode")
    target = _target_episode(memory, perception_spans)
    episode = memory.episodes[target]
    body = render_template(
        lookup_template(templates, "reflection"),
        {
            "query": query,
            "options": format_options(options),
            "answer": answer_id,
            "evidence": evidence,
            "memory": wrap_block("memory", _episode_text(episode)),
        },
    )
    request = ChatRequest(
        system=SYSTEM_MEMORY_MANAGER,
        user_parts=(TextPart(body),),
        context={
            "stage": "reflection",
            "answer_id": answer_id,
            "summary_budget": params.summary_budget,
        },
    )
    summary = answer_field(complete_text(backend, request), "summary", str)
    if summary is None or not summary.strip() or not encodable(summary):
        raise BackendFailure("reflection returned no usable summary; memory unchanged")
    note = ReflectionNote(
        query=query,
        answer_id=answer_id,
        summary=" ".join(summary.split()),
        created_version=memory.version + 1,
    )
    return _with_note(memory, target, note)


def _with_note(memory: EpisodicMemory, position: int, note: ReflectionNote) -> EpisodicMemory:
    """`memory` with `note`, whose `created_version` is `memory.version + 1`,
    appended to the episode at `position`, as that version. Made without
    `EpisodicMemory.__post_init__`, which would check every episode: what it
    checks holds already. Ids and line ranges are unchanged, the older notes
    are at most the old version and the new one is the new version. A note
    changes no span, so the span index carries over. The result
    records `_noted`: the episodes it was made from and `position`."""
    episode = memory.episodes[position]
    noted = replace(episode, reflections=episode.reflections + (note,))
    updated = object.__new__(EpisodicMemory)
    updated.__dict__.update(
        episodes=memory.episodes[:position] + (noted,) + memory.episodes[position + 1 :],
        version=note.created_version,
        source_digest=memory.source_digest,
        span_index=memory.span_index,
        _noted=(memory.episodes, position),
    )
    return updated


def _noted_position(memory: EpisodicMemory, episodes: tuple[Episode, ...]) -> int | None:
    """The position of the one episode that `memory` added a note to, when
    `_with_note` made it from `episodes`; else None."""
    noted = memory.__dict__.get("_noted")
    return noted[1] if noted is not None and noted[0] is episodes else None


def reference_note_summary(answer_id: str, evidence: str, budget: int) -> str:
    """Deterministic reflection-summary rule used by the reference backend."""
    return truncate_tokens(f"({answer_id}) {evidence}", budget)


# --- persistence --------------------------------------------------------------------

_DECODER, _WHITESPACE = json.JSONDecoder(), json.decoder.WHITESPACE  # as json.loads uses them


def _json_line(doc: dict) -> bytes:
    """`doc` as one line of UTF-8 JSON. JSON escapes every newline in a
    string, so the line holds no raw LF but its last."""
    return (json.dumps(doc, ensure_ascii=False) + "\n").encode("utf-8")


def _note_doc(note: ReflectionNote) -> dict:
    return {
        "query": note.query,
        "answer_id": note.answer_id,
        "summary": note.summary,
        "created_version": note.created_version,
    }


def save_memory(memory: EpisodicMemory) -> bytes:
    """The memory as one line of UTF-8 JSON in the documented schema, as
    ``json.dumps(doc, ensure_ascii=False) + "\\n"`` writes it. This is a
    memory file's snapshot; its note lines follow it (`_note_line`)."""
    doc = {
        "version": memory.version,
        "source_digest": memory.source_digest,
        "episodes": [
            {
                "id": ep.id,
                "span": ep.span,
                "line_range": ep.line_range,
                "schematic_summary": ep.schematic_summary,
                "entities": ep.entities,
                "narrative_role": ep.narrative_role,
                "causal_links": [
                    {"target_id": l.target_id, "relation": l.relation} for l in ep.causal_links
                ],
                "reflections": [_note_doc(n) for n in ep.reflections],
            }
            for ep in memory.episodes
        ],
    }
    return _json_line(doc)


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise SchemaViolation(f"{path}.{key}", "missing field")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaViolation(f"{path}.{key}", "expected a number")
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaViolation(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _load_note(doc, path: str) -> ReflectionNote:
    """A reflection note parsed from JSON; `path` names it in a `SchemaViolation`."""
    if not isinstance(doc, dict):
        raise SchemaViolation(path, "expected an object")
    return ReflectionNote(
        query=_require(doc, "query", str, path),
        answer_id=_require(doc, "answer_id", str, path),
        summary=_require(doc, "summary", str, path),
        created_version=_require(doc, "created_version", int, path),
    )


def _load_episode(ep_doc, path: str) -> Episode:
    """One item of a memory file's episode list, parsed from JSON, as an
    `Episode`; `path` names the item in a `SchemaViolation`."""
    if not isinstance(ep_doc, dict):
        raise SchemaViolation(path, "expected an object")
    span = _require(ep_doc, "span", list, path)
    line_range = _require(ep_doc, "line_range", list, path)
    if len(span) != 2 or not all(isinstance(v, (int, float)) for v in span):
        raise SchemaViolation(f"{path}.span", "expected [start_s, end_s]")
    if len(line_range) != 2 or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in line_range
    ):
        raise SchemaViolation(f"{path}.line_range", "expected [first, last]")
    links_raw = ep_doc.get("causal_links", [])
    if not isinstance(links_raw, list):
        raise SchemaViolation(f"{path}.causal_links", "expected a list")
    links = []
    for j, link_doc in enumerate(links_raw):
        link_path = f"{path}.causal_links[{j}]"
        if not isinstance(link_doc, dict):
            raise SchemaViolation(link_path, "expected an object")
        links.append(
            CausalLink(
                target_id=_require(link_doc, "target_id", int, link_path),
                relation=_require(link_doc, "relation", str, link_path),
            )
        )
    notes_raw = ep_doc.get("reflections", [])
    if not isinstance(notes_raw, list):
        raise SchemaViolation(f"{path}.reflections", "expected a list")
    notes = [
        _load_note(note_doc, f"{path}.reflections[{j}]") for j, note_doc in enumerate(notes_raw)
    ]
    entities = ep_doc.get("entities", [])
    if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
        raise SchemaViolation(f"{path}.entities", "expected a list of strings")
    try:
        return Episode(
            id=_require(ep_doc, "id", int, path),
            span=(float(span[0]), float(span[1])),
            line_range=(line_range[0], line_range[1]),
            schematic_summary=_require(ep_doc, "schematic_summary", str, path),
            entities=tuple(entities),
            narrative_role=_require(ep_doc, "narrative_role", str, path),
            causal_links=tuple(links),
            reflections=tuple(notes),
        )
    except InvariantViolation as exc:
        raise SchemaViolation(path, str(exc)) from None


def _read_snapshot(data: bytes) -> tuple[EpisodicMemory, int]:
    """The memory of the snapshot a memory file's bytes `data` start with,
    and the snapshot's length: through the newline that ends its last line,
    or all of `data` when no newline follows it."""
    body = data[: data.rfind(b"\n") + 1]  # the complete lines
    try:
        text = body.decode("utf-8")
        doc, end = _DECODER.raw_decode(text, _WHITESPACE.match(text).end())
        rest, tail = text[end:].split("\n", 1)
        if rest.strip():
            raise ValueError("not a note line")
        size = len(body) - len(tail.encode("utf-8"))
    except (ValueError, RecursionError):  # one document, without a final newline
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise SchemaViolation("$", f"not valid JSON: {exc}") from None
        size = len(data)
    if not isinstance(doc, dict):
        raise SchemaViolation("$", "top level must be an object")
    version = _require(doc, "version", int, "$")
    digest = _require(doc, "source_digest", str, "$")
    episodes_raw = _require(doc, "episodes", list, "$")
    episodes = tuple(
        _load_episode(ep_doc, f"$.episodes[{i}]") for i, ep_doc in enumerate(episodes_raw)
    )
    try:
        return EpisodicMemory(episodes=episodes, version=version, source_digest=digest), size
    except InvariantViolation as exc:
        raise SchemaViolation("$", str(exc)) from None


def _note_line(position: int, note: ReflectionNote) -> bytes:
    """The note line that appends `note` to the episode at `position`."""
    return _json_line({"episode": position, **_note_doc(note)})


def _fold(memory: EpisodicMemory, lines: bytes) -> tuple[EpisodicMemory, int]:
    """`memory` with the note lines `lines` folded on in order (`memory`
    itself when they hold none), and the length of `lines` without a torn
    last line. Each note makes a new version through `_with_note`, which
    records the episode it changed. A last line with no newline is what a
    writer that stopped mid-append leaves: it is dropped with a
    `TornLineWarning`. Blank lines are skipped. Any other line that is not a
    note on an existing episode, one version after the last, raises
    `SchemaViolation`."""
    complete = lines.rfind(b"\n") + 1
    for number, raw in enumerate(lines[:complete].split(b"\n")[:-1], start=1):
        if not raw.strip():
            continue
        path = f"note line {number}"
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise SchemaViolation(path, f"not valid JSON: {exc}") from None
        note = _load_note(doc, path)
        position = _require(doc, "episode", int, path)
        if not 0 <= position < len(memory.episodes):
            raise SchemaViolation(f"{path}.episode", f"no episode at position {position}")
        if note.created_version != memory.version + 1:
            raise SchemaViolation(
                f"{path}.created_version", f"expected version {memory.version + 1}"
            )
        try:
            memory = _with_note(memory, position, note)
        except InvariantViolation as exc:
            raise SchemaViolation(path, str(exc)) from None
    if complete < len(lines):
        warnings.warn(
            f"dropped a torn last note line ({len(lines) - complete} bytes, no newline)",
            TornLineWarning,
            stacklevel=3,
        )
    return memory, complete


def load_memory(data: bytes) -> EpisodicMemory:
    """The memory a memory file's bytes hold: its snapshot, with the note
    lines after it folded on (`_fold`)."""
    memory, size = _read_snapshot(data)
    return _fold(memory, data[size:])[0]


def _write_atomic(path: Path, data: bytes) -> None:
    """Write `data` to a temp file with a unique name next to `path`, then
    rename it over `path`: readers see the old or the new file, never a torn
    one, and concurrent writers never share a temp file. On error the temp
    file is removed and `path` is left as it was."""
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_after(fh, held: bytes | bytearray) -> bytes | None:
    """The rest of the file `fh`, open at its start, after its first
    `len(held)` bytes when those are `held`, else None. They are read and
    compared in chunks, so no copy of the whole file is made."""
    offset = 0
    while offset < len(held):
        chunk = fh.read(min(1 << 16, len(held) - offset))
        if not chunk or not held.startswith(chunk, offset):
            return None
        offset += len(chunk)
    return fh.read()


def _read_changed(file: Path, held: bytes | bytearray | None) -> bytes | None:
    """`file`'s bytes, or None when they are `held` (see `_read_after`)."""
    with open(file, "rb") as fh:
        if held is not None:
            rest = _read_after(fh, held)
            if rest is not None:
                return bytes(held) + rest if rest else None
            fh.seek(0)
        return fh.read()


def _locked(file: Path, mode: str):
    """`file` opened in `mode` and held under an exclusive `fcntl.flock`,
    which closing it releases; None when there is no such file."""
    try:
        fh = open(file, mode)
    except FileNotFoundError:
        return None
    try:
        fcntl.flock(fh, fcntl.LOCK_EX)
    except BaseException:
        fh.close()
        raise
    return fh


# --- store ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Context:
    """What the Memory Manager sends for one question (`VideoSession.context`):
    the `<transcript>` block for perception, and the episodes, in episode
    order, whose lines make the `<memory>` block of perception and action."""

    transcript_block: str
    episodes: tuple[Episode, ...]
    memory_block: str  # narrative form, with notes

    def schematic_block(self) -> str:
        """The `<memory>` block of the same episodes without roles and links."""
        texts = (_episode_text(ep, include_narrative=False) for ep in self.episodes)
        return wrap_block("memory", "\n".join(texts))


def _ranked(tokens: set[str], index: Postings) -> list[int]:
    """The positions sharing at least one of `tokens`, the most distinct
    ones first, ties to the lower position."""
    counts = overlaps(tokens, index)
    return sorted(counts, key=lambda pos: (-counts[pos], pos))


def _fit(order, sizes: Sequence[int], budget: int) -> list[int]:
    """The longest prefix of `order` whose `sizes` sum to at most `budget`,
    in ascending position order."""
    kept, used = [], 0
    for pos in order:
        used += sizes[pos]
        if used > budget:
            break
        kept.append(pos)
    return sorted(kept)


@dataclass(eq=False)
class VideoSession:
    """One video's warm state for answering questions: the parsed transcript
    and the current memory, each with the very file bytes it was parsed
    from or (the memory) written as. A file read again is parsed again
    only when its bytes differ from those (an `==` compare, not a hash),
    and then only as far as `reload` needs. Reflections are written through
    `store`, which knows the memory file as `key`, when set, else kept in
    this process only. A store's session belongs to the thread that opened
    it.

    The session also keeps the memory file's snapshot (see `MemoryStore`)
    and the memory it holds, and, from the first `memory_tokens` or
    `context` call on, each episode's memory-text lines and their token
    count. Each memory made current is synced with them at once: one that
    `_with_note` made from the rendered episodes (a note appended, or one
    note line folded on) re-renders only the episode it noted; any other is
    compared with the rendered one episode by episode, and only the
    episodes that are new objects are re-rendered.
    From the first `context` call on, it also keeps the retrieval indexes:
    content token -> transcript lines (with each rendered line's token
    count) and content token -> episodes. A note keeps the episode index, as
    it changes no summary. The caches go with the transcript or memory they
    belong to when it is parsed again in full, rebuilt, or the video
    changes."""

    transcript: Transcript | None = None
    memory: EpisodicMemory | None = None
    key: str | Path | None = None
    store: MemoryStore | None = None
    source: tuple[str, float | None] | None = None
    source_bytes: bytes | None = field(default=None, repr=False)
    # the memory file's bytes that `memory` holds: its snapshot and whole
    # note lines, a bytearray that appends grow in place; None when `memory`
    # was not read from or written as a file
    memory_bytes: bytes | bytearray | None = field(default=None, repr=False)
    # the file's snapshot and the memory it holds
    _snapshot: bytes = field(default=b"", repr=False)
    _base: EpisodicMemory | None = field(default=None, repr=False)
    # the episodes that the memory-text lines and their token counts were
    # rendered from; holding them keeps their identities from being reused
    _episodes: tuple[Episode, ...] = field(default=(), repr=False)
    _text: list[str] | None = field(default=None, repr=False)
    _tokens: list[int] | None = field(default=None, repr=False)
    # the retrieval indexes: the transcript indexed, its lines' postings and
    # token counts; the postings of the episodes' summaries as rendered
    _lines: tuple[Transcript, Postings, list[int]] | None = field(default=None, repr=False)
    _summaries: Postings | None = field(default=None, repr=False)

    def commit(self, memory: EpisodicMemory) -> None:
        """Make `memory`, a new version of the current memory, current and
        write it out. Another writer's notes may be folded in first, so the
        current version can end up above `memory`'s."""
        if self.store is not None:
            self.store.save(self.key, memory)
            if self.memory is not None and self.memory.version > memory.version:
                return  # another writer's notes were folded in before it
        if self.memory is not memory:  # no store, or it recorded it in its thread's session only
            self.adopt(memory, None)

    def adopt(self, memory: EpisodicMemory, data: bytes | bytearray | None) -> None:
        """Make `memory` current, with `data` as its `memory_bytes`, and
        bring what was rendered from the old memory up to it (`_sync`)."""
        self._sync(memory)
        self.memory, self.memory_bytes = memory, data

    def drop_transcript(self) -> None:
        """Forget the transcript and its line index."""
        self.transcript = self.source_bytes = self._lines = None

    def drop_memory(self) -> None:
        """Forget the memory and everything rendered from it."""
        self.memory = self.memory_bytes = self._base = None
        self._snapshot = b""
        self._episodes, self._text, self._tokens, self._summaries = (), None, None, None

    def reload(self, data: bytes) -> None:
        """Make `load_memory(data)`, a memory file's bytes, the current
        memory, raising its `SchemaViolation` for an invalid file. A file
        that extends `memory_bytes` folds on only the lines after them; one
        that starts with the snapshot the session holds folds its lines onto
        that snapshot's memory, with no parse. Any other file is parsed in
        full, and everything rendered from the old memory is dropped."""
        held, snapshot = self.memory_bytes, self._snapshot
        try:
            if held is not None and held.endswith(b"\n") and data.startswith(held):
                memory, size = _fold(self.memory, data[len(held) :])
                self.adopt(memory, data[: len(held) + size])
                return
            if snapshot.endswith(b"\n") and data.startswith(snapshot):
                memory, size = _fold(self._base, data[len(snapshot) :])
                self.adopt(memory, data[: len(snapshot) + size])
                return
        except SchemaViolation:
            pass  # the full parse below raises it, naming the line as counted from the snapshot
        base, size = _read_snapshot(data)
        memory, folded = _fold(base, data[size:])
        self.drop_memory()
        self._snapshot, self._base = data[:size], base
        self.adopt(memory, data[: size + folded])

    def _sync(self, memory: EpisodicMemory) -> None:
        """Bring the memory-text cache and the episode index up to `memory`:
        only the noted episode when `_with_note` made `memory` from the
        episodes last rendered, else every episode that is a new object."""
        episodes, old = memory.episodes, self._episodes
        if episodes is old:
            return
        if len(episodes) != len(old):
            self._text = self._tokens = self._summaries = None
        else:
            position = _noted_position(memory, old)
            for i in range(len(episodes)) if position is None else (position,):
                ep = episodes[i]
                if ep is old[i]:
                    continue
                if self._text is not None:
                    self._text[i] = text = _episode_text(ep)
                    self._tokens[i] = count_tokens(text).count
                if ep.schematic_summary != old[i].schematic_summary:
                    self._summaries = None
        self._episodes = episodes

    def _texts(self) -> tuple[list[str], list[int]]:
        """Each episode's `memory_text` lines and their token count,
        re-rendering only changed episodes."""
        self._sync(self.memory)
        if self._text is None:
            self._text = [_episode_text(ep) for ep in self.memory.episodes]
            self._tokens = [count_tokens(text).count for text in self._text]
        return self._text, self._tokens

    def memory_tokens(self) -> int:
        """`memory_token_count(self.memory)`: the whole memory's footprint."""
        return sum(self._texts()[1])

    def line_index(self) -> tuple[Postings, list[int]]:
        """The postings of the transcript's lines (positions count from 0)
        and each line's token count as `format_speech_line` renders it."""
        if self._lines is None or self._lines[0] is not self.transcript:
            self._lines = None  # drop the stale index before building
            lines = self.transcript.lines
            counts = [count_tokens(format_speech_line(line)).count for line in lines]
            self._lines = (self.transcript, postings(line.text for line in lines), counts)
        return self._lines[1], self._lines[2]

    def episode_index(self) -> Postings:
        """The postings of the episodes' schematic summaries as the memory
        block renders them."""
        self._sync(self.memory)
        if self._summaries is None:
            self._summaries = postings(
                clean_field(ep.schematic_summary) for ep in self.memory.episodes
            )
        return self._summaries

    def context(self, needle: set[str], budget: int) -> Context:
        """The context for a question whose query and options hold the
        content tokens `needle`, each block at most `budget` tokens besides
        its two markers.

        The transcript block is the whole `transcript.block` when its lines
        fit; else the lines sharing a needle token, the most distinct ones
        first (ties to the lower index), kept while their running token
        count fits, rendered in index order. The memory is the whole memory
        when its text fits; else the episodes whose summary shares a needle
        token, ranked the same way, then the one-hop `causal_links` targets
        of those episodes, kept while they fit, rendered in episode order
        with their notes."""
        transcript, memory = self.transcript, self.memory
        line_index, line_tokens = self.line_index()
        if sum(line_tokens) <= budget:
            block = transcript.block
        else:
            kept = _fit(_ranked(needle, line_index), line_tokens, budget)
            block = transcript_block(transcript.lines[i] for i in kept)
        texts, tokens = self._texts()
        episodes = memory.episodes
        if sum(tokens) <= budget:
            return Context(block, episodes, wrap_block("memory", "\n".join(texts)))
        ranked = _ranked(needle, self.episode_index())
        hops = (link.target_id for pos in ranked for link in episodes[pos].causal_links)
        kept = _fit(dict.fromkeys(chain(ranked, hops)), tokens, budget)
        return Context(
            block,
            tuple(episodes[i] for i in kept),
            wrap_block("memory", "\n".join(texts[i] for i in kept)),
        )


class MemoryStore:
    """The one owner of memory files: every read, digest check, build and
    write of one goes through a store. Each operation takes a `key` that
    `path` maps to its file: a video id, or a file in the store's directory.
    A missing directory is made on the first write; a file that cannot be
    read, parsed or written raises `MemoryFileError` naming it.

    A memory file is JSON Lines: a snapshot, the `save_memory` line of a
    memory, followed by zero or more note lines, one `_note_line` per
    reflection since. A snapshot that an earlier version wrote over several
    lines (`indent=2`) is read the same way. A build writes a new snapshot
    alone; a reflection appends its line (`save`). Both hold an exclusive
    `fcntl.flock` on the file they change, so writers in other processes
    keep every note; within this process they are also serialized per file.
    Nothing is fsynced. Each thread keeps one `VideoSession`, for the key it
    last used. Every call reads the file again, to see edits by other
    processes, but parses it again only when its bytes differ from those
    the session last read or wrote (an `==` compare, so no file is hashed),
    and then only as far as `VideoSession.reload` needs."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._locks: dict[Path, threading.RLock] = {}  # reentrant: `open` calls `build`
        self._locks_guard = threading.Lock()
        self._local = threading.local()

    def path(self, key: str | Path) -> Path:
        """`key`'s memory file: a video id's, named by this directory's rule,
        or `key` itself when it is a path."""
        return key if isinstance(key, Path) else self.root / f"{key}.json"

    def _lock(self, file: Path) -> threading.RLock:
        with self._locks_guard:
            return self._locks.setdefault(file, threading.RLock())

    def _session(self, key: str | Path, transcript: Transcript | None = None) -> VideoSession:
        session = getattr(self._local, "session", None)
        if session is None or session.key != key:
            self._local.session = None  # drop the other file's session first
            session = self._local.session = VideoSession(key=key, store=self)
        if transcript is not None and session.transcript is not transcript:
            session.drop_transcript()
            session.transcript = transcript
        return session

    def session(
        self, video_id: str, source: str, video_duration_s: float | None = None
    ) -> VideoSession:
        """The calling thread's session for `video_id`, its transcript read
        from `source` and parsed again only when the bytes changed. Bring
        its memory up to date with `get_or_build` before answering."""
        session = self._session(video_id)
        data = read_source(source)
        key = (source, video_duration_s)
        if session.transcript is None or session.source != key or session.source_bytes != data:
            session.drop_transcript()
            session.transcript = load_transcript(source, video_duration_s, data=data)
            session.source, session.source_bytes = key, data
        return session

    def _write(self, file: Path, memory: EpisodicMemory, session: VideoSession) -> None:
        """Write `memory` as `file`'s snapshot with no note lines: a new file
        renamed over the old one, under the lock that appends take."""
        session.memory = session.memory_bytes = None
        data = save_memory(memory)
        try:
            with _locked(file, "rb") or nullcontext():
                file.parent.mkdir(parents=True, exist_ok=True)
                _write_atomic(file, data)
        except OSError as exc:
            raise MemoryFileError(str(file), exc.strerror or str(exc)) from None
        session._snapshot, session._base = data, memory
        session.adopt(memory, data)

    def save(self, key: str | Path, memory: EpisodicMemory) -> None:
        """Write `memory`, a new version of `key`'s memory. When a
        reflection made it from the memory the session read from the file
        (`_noted_position`), its note is appended as one line, under the
        file's lock, once the locked file is checked to be the one at the
        path and to start with the bytes the session read. Whole note lines
        another writer appended since are folded in first, and the note
        takes the next version; a torn last line is cut. A file rebuilt or
        edited since raises `MemoryFileError` and is left as it is. Any
        other memory is written as a new snapshot (`_write`)."""
        file = self.path(key)
        with self._lock(file):
            session = self._session(key)
            current, held = session.memory, session.memory_bytes
            follows = current is not None and memory.version == current.version + 1
            position = _noted_position(memory, current.episodes) if follows else None
            if position is None or held is None or not held.endswith(b"\n"):
                self._write(file, memory, session)
                return
            note = memory.episodes[position].reflections[-1]
            try:
                fh = _locked(file, "r+b")
                if fh is None:  # deleted: write the memory anew
                    self._write(file, memory, session)
                    return
                with fh:
                    rest = _read_after(fh, held)
                    if rest is None or not os.path.samestat(os.fstat(fh.fileno()), os.stat(file)):
                        raise MemoryFileError(
                            str(file), "rebuilt or edited since it was read; note not written"
                        )
                    try:
                        folded, size = _fold(current, rest)
                    except SchemaViolation as exc:
                        raise MemoryFileError(str(file), str(exc)) from None
                    if size < len(rest):
                        fh.truncate(len(held) + size)
                    if folded is not current:  # another writer's notes came first
                        note = replace(note, created_version=folded.version + 1)
                        memory = _with_note(folded, position, note)
                    line = _note_line(position, note)
                    fh.seek(len(held) + size)
                    fh.write(line)
            except OSError as exc:
                raise MemoryFileError(str(file), exc.strerror or str(exc)) from None
            # grown in place: a copy of the whole file per note would cost
            # more than the append
            held = held if isinstance(held, bytearray) else bytearray(held)
            held += rest[:size] + line
            session.adopt(memory, held)

    def build(
        self, key, transcript, backend, params=MemoryParams(), templates=None, write=True
    ) -> VideoSession:
        """The session for `key`'s file holding a fresh memory of
        `transcript`, written as the file's snapshot whatever it held (kept
        in the session only when `write` is false)."""
        file = self.path(key)
        with self._lock(file):
            session = self._session(key, transcript)
            session.drop_memory()
            memory = build_memory(transcript, backend, params, templates)
            if write:
                self._write(file, memory, session)
            else:
                session.adopt(memory, None)
            return session

    def open(
        self, key, transcript, backend=None, params=MemoryParams(), templates=None, write=True
    ) -> VideoSession:
        """The session for `key`'s file holding `transcript` and the file's
        memory when its digest matches. A missing or stale file is `build`
        with `backend`; without one it raises `MemoryFileError`."""
        file = self.path(key)
        with self._lock(file):
            session = self._session(key, transcript)
            held = None if session.memory is None else session.memory_bytes
            try:
                data, exists = _read_changed(file, held), True
            except FileNotFoundError as exc:
                exists, reason = False, exc.strerror
            except OSError as exc:
                raise MemoryFileError(str(file), exc.strerror or str(exc)) from None
            if exists:
                if data is not None:
                    try:
                        session.reload(data)
                    except SchemaViolation as exc:
                        raise MemoryFileError(str(file), str(exc)) from None
                if session.memory.source_digest == transcript_digest(transcript):
                    return session
                reason = "memory digest does not match the transcript"
            if backend is None:
                raise MemoryFileError(str(file), reason)
            return self.build(key, transcript, backend, params, templates, write)

    def get_or_build(
        self,
        video_id: str,
        transcript: Transcript,
        backend: Backend,
        params: MemoryParams = MemoryParams(),
        templates: Mapping[str, PromptTemplate] | None = None,
    ) -> EpisodicMemory:
        """`open(video_id, transcript, backend, ...)`'s memory."""
        return self.open(video_id, transcript, backend, params, templates).memory
