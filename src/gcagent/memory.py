"""Episodic memory: construction, reflection updates, and persistence.

Construction runs in three backend-assisted passes over a transcript:
event segmentation (topic-shift boundaries), schematic abstraction per
unit (situation-level summary + participant entities), and narrative
linking across units (roles and causal/temporal dependencies). Reflection
appends a concise note about an answered query to the most relevant
episode; it never rewrites existing content.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import threading
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Sequence

from .backend import Backend, ChatRequest, PromptTemplate, TextPart, complete, render_template
from .errors import (
    BackendError,
    BackendFailure,
    DegenerateOutputWarning,
    EmptySummary,
    EmptyTranscript,
    InvalidLinkWarning,
    InvariantViolation,
    SchemaViolation,
)
from .prompts import (
    SYSTEM_MEMORY_MANAGER,
    format_episode_line,
    format_note_line,
    format_options,
    format_speech_line,
    lookup_template,
    rendered_transcript_block,
    wrap_block,
)
from .text import truncate_tokens
from .transcript import Transcript, count_tokens, load_transcript, transcript_digest

NARRATIVE_ROLES = ("introduction", "development", "conflict", "resolution", "other")
LINK_RELATIONS = ("precedes", "causes", "refers_back")

# tokens whose presence in a summary marks an event unit as a conflict beat
CONFLICT_LEXICON = frozenset({"but", "however", "problem", "fail", "wrong"})


@dataclass(frozen=True)
class MemoryParams:
    gap_threshold_s: float = 5.0
    max_lines: int = 20
    summary_budget: int = 30
    refers_back_overlap: int = 3


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


def _call(backend: Backend, request: ChatRequest) -> str:
    try:
        return complete(backend, request).text
    except BackendError as exc:
        raise BackendFailure(str(exc)) from exc


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
    raw = _call(backend, request)
    proposal: list = []
    parse_failed = False
    try:
        payload = json.loads(raw)
        proposal = payload["units"]
        if not isinstance(proposal, list):
            raise TypeError
    except (ValueError, KeyError, TypeError):
        parse_failed = True
        proposal = []
    units, repaired = _repair_units(proposal, n)
    if parse_failed or repaired:
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


def abstract_schema(
    transcript: Transcript,
    line_range: tuple[int, int],
    backend: Backend,
    params: MemoryParams = MemoryParams(),
    ordinal: int = 1,
    templates: Mapping[str, PromptTemplate] | None = None,
    rendered: Sequence[str] | None = None,
) -> tuple[str, tuple[str, ...]]:
    """Summary and entities of one unit. `rendered` is as for `segment_events`."""
    a, b = line_range
    if a < 1 or b > len(transcript.lines) or a > b:
        raise InvariantViolation(f"line_range {line_range} out of bounds")
    if rendered is None:
        unit = [format_speech_line(line) for line in transcript.lines[a - 1 : b]]
    else:
        unit = rendered[a - 1 : b]
    body = render_template(
        lookup_template(templates, "memory_abstraction"),
        {"transcript": rendered_transcript_block(unit)},
    )
    system = (
        SYSTEM_MEMORY_MANAGER
        + f" This is event unit {ordinal}. Keep the summary within"
        f" {params.summary_budget} words."
    )
    request = ChatRequest(
        system=system,
        user_parts=(TextPart(body),),
        context={
            "stage": "memory_abstraction",
            "ordinal": ordinal,
            "summary_budget": params.summary_budget,
        },
    )
    raw = _call(backend, request)
    try:
        payload = json.loads(raw)
        summary = payload.get("summary", "")
        entities_raw = payload.get("entities", [])
    except ValueError:
        summary, entities_raw = "", []
    if not isinstance(summary, str) or not summary.strip():
        raise EmptySummary(f"unit {ordinal}: backend returned no usable summary")
    entities: list[str] = []
    if isinstance(entities_raw, list):
        for item in entities_raw:
            if isinstance(item, str) and item and item not in entities:
                entities.append(item)
    return " ".join(summary.split()), tuple(entities)


def link_narrative(
    drafts: Sequence[EpisodeDraft],
    backend: Backend,
    params: MemoryParams = MemoryParams(),
    templates: Mapping[str, PromptTemplate] | None = None,
) -> list[tuple[str, tuple[CausalLink, ...]]]:
    """Assign one narrative role per draft episode and validated causal links.
    Invalid roles become 'other' and invalid links are dropped, each with a
    warning."""
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
    raw = _call(backend, request)
    assignments: dict[int, dict] = {}
    parse_failed = False
    try:
        payload = json.loads(raw)
        for entry in payload["episodes"]:
            if isinstance(entry, dict) and isinstance(entry.get("id"), int):
                assignments[entry["id"]] = entry
    except (ValueError, KeyError, TypeError):
        parse_failed = True
    if parse_failed:
        warnings.warn(
            "narrative output unreadable; roles defaulted, links dropped",
            InvalidLinkWarning,
            stacklevel=2,
        )
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
            role = role if role in NARRATIVE_ROLES else "other"
        links: list[CausalLink] = []
        for link in entry.get("causal_links", []) or []:
            target = link.get("target_id") if isinstance(link, dict) else None
            relation = link.get("relation") if isinstance(link, dict) else None
            if (
                isinstance(target, int)
                and relation in LINK_RELATIONS
                and 0 <= target < draft.id
            ):
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
    """Full construction pass: segment, abstract each unit, link narrative."""
    if not transcript.lines:
        raise EmptyTranscript("cannot build memory from an empty transcript")
    rendered = [format_speech_line(line) for line in transcript.lines]
    units = segment_events(transcript, backend, params, templates, rendered)
    drafts: list[EpisodeDraft] = []
    for k, (a, b) in enumerate(units):
        summary, entities = abstract_schema(
            transcript, (a, b), backend, params, k + 1, templates, rendered
        )
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
    spans = [ep.span for ep in memory.episodes]
    # positions ordered by span start, so each perception span bisects to the
    # episodes it can overlap; a span holding a nan overlaps nothing and is
    # left out (memory files may list spans in any order)
    order = sorted((i for i, (a, b) in enumerate(spans) if a <= b), key=lambda i: spans[i][0])
    starts = [spans[i][0] for i in order]
    reach = list(accumulate([spans[i][1] for i in order], max))  # furthest end so far
    candidates: set[int] = set()
    for lo, hi in perception_spans:
        # overlap > 0 needs end > lo and start < hi
        candidates.update(order[bisect_right(reach, lo) : bisect_left(starts, hi)])
    best, target = 0.0, None
    for i in sorted(candidates):
        overlap = sum(_interval_overlap(spans[i], span) for span in perception_spans)
        if overlap > best:
            best, target = overlap, i
    if target is not None:
        return target
    gaps = [
        min(_interval_gap(ep.span, span) for span in perception_spans)
        for ep in memory.episodes
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
    memory_block: str | None = None,
) -> EpisodicMemory:
    """Append one reflection note to the episode whose span overlaps the
    perception spans most (nearest episode when nothing overlaps). Returns a
    new memory with version + 1; everything pre-existing is untouched.
    `memory_block` is `wrap_block("memory", memory_text(memory))` when the
    caller has it."""
    if not evidence.strip():
        raise InvariantViolation("reflection requires non-empty evidence")
    if memory_block is None:
        memory_block = wrap_block("memory", memory_text(memory))
    body = render_template(
        lookup_template(templates, "reflection"),
        {
            "query": query,
            "options": format_options(options),
            "answer": answer_id,
            "evidence": evidence,
            "memory": memory_block,
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
    raw = _call(backend, request)
    try:
        payload = json.loads(raw)
        summary = payload["summary"]
        if not isinstance(summary, str) or not summary.strip():
            raise ValueError
    except (ValueError, KeyError, TypeError):
        raise BackendFailure("reflection returned no usable summary; memory unchanged") from None
    new_version = memory.version + 1
    note = ReflectionNote(
        query=query,
        answer_id=answer_id,
        summary=" ".join(summary.split()),
        created_version=new_version,
    )
    target = _target_episode(memory, perception_spans)
    episodes = tuple(
        replace(ep, reflections=ep.reflections + (note,)) if ep.id == target else ep
        for ep in memory.episodes
    )
    return replace(memory, episodes=episodes, version=new_version)


def reference_note_summary(answer_id: str, evidence: str, budget: int) -> str:
    """Deterministic reflection-summary rule used by the reference backend."""
    return truncate_tokens(f"({answer_id}) {evidence}", budget)


# --- persistence --------------------------------------------------------------------

_json_str = json.encoder.encode_basestring  # what json.dumps uses with ensure_ascii=False
_INF = float("inf")


def _json_num(value) -> str:
    """A number as json.dumps writes it."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    return int.__repr__(value)


def _json_list(items: list[str], indent: str) -> str:
    """Already-encoded items as an indent=2 JSON list whose items sit at
    `indent`; an empty list stays "[]"."""
    if not items:
        return "[]"
    sep = ",\n" + indent
    return "[\n" + indent + sep.join(items) + "\n" + indent[:-2] + "]"


def _episode_json(ep: Episode) -> str:
    """One episode as an item of the `save_memory` episode list."""
    s, num = _json_str, _json_num
    links = [
        f'{{\n          "target_id": {num(l.target_id)},\n'
        f'          "relation": {s(l.relation)}\n        }}'
        for l in ep.causal_links
    ]
    notes = [
        f'{{\n          "query": {s(n.query)},\n'
        f'          "answer_id": {s(n.answer_id)},\n'
        f'          "summary": {s(n.summary)},\n'
        f'          "created_version": {num(n.created_version)}\n        }}'
        for n in ep.reflections
    ]
    return (
        f'{{\n      "id": {num(ep.id)},\n'
        f'      "span": [\n        {num(ep.span[0])},\n        {num(ep.span[1])}\n      ],\n'
        f'      "line_range": [\n        {num(ep.line_range[0])},\n'
        f'        {num(ep.line_range[1])}\n      ],\n'
        f'      "schematic_summary": {s(ep.schematic_summary)},\n'
        f'      "entities": {_json_list([s(e) for e in ep.entities], "        ")},\n'
        f'      "narrative_role": {s(ep.narrative_role)},\n'
        f'      "causal_links": {_json_list(links, "        ")},\n'
        f'      "reflections": {_json_list(notes, "        ")}\n    }}'
    )


def _memory_json(memory: EpisodicMemory, episodes: list[str]) -> bytes:
    """`save_memory(memory)` from its episodes through `_episode_json`."""
    return (
        f'{{\n  "version": {_json_num(memory.version)},\n'
        f'  "source_digest": {_json_str(memory.source_digest)},\n'
        f'  "episodes": {_json_list(episodes, "    ")}\n}}\n'
    ).encode("utf-8")


def save_memory(memory: EpisodicMemory) -> bytes:
    """The memory as UTF-8 JSON, byte for byte what
    ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`` gives for the
    documented schema; written directly because the C encoder does not
    handle ``indent``."""
    return _memory_json(memory, [_episode_json(ep) for ep in memory.episodes])


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


def load_memory(data: bytes) -> EpisodicMemory:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SchemaViolation("$", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaViolation("$", "top level must be an object")
    version = _require(doc, "version", int, "$")
    digest = _require(doc, "source_digest", str, "$")
    episodes_raw = _require(doc, "episodes", list, "$")
    episodes: list[Episode] = []
    for i, ep_doc in enumerate(episodes_raw):
        path = f"$.episodes[{i}]"
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
        notes = []
        for j, note_doc in enumerate(notes_raw):
            note_path = f"{path}.reflections[{j}]"
            if not isinstance(note_doc, dict):
                raise SchemaViolation(note_path, "expected an object")
            notes.append(
                ReflectionNote(
                    query=_require(note_doc, "query", str, note_path),
                    answer_id=_require(note_doc, "answer_id", str, note_path),
                    summary=_require(note_doc, "summary", str, note_path),
                    created_version=_require(note_doc, "created_version", int, note_path),
                )
            )
        entities = ep_doc.get("entities", [])
        if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
            raise SchemaViolation(f"{path}.entities", "expected a list of strings")
        try:
            episodes.append(
                Episode(
                    id=_require(ep_doc, "id", int, path),
                    span=(float(span[0]), float(span[1])),
                    line_range=(line_range[0], line_range[1]),
                    schematic_summary=_require(ep_doc, "schematic_summary", str, path),
                    entities=tuple(entities),
                    narrative_role=_require(ep_doc, "narrative_role", str, path),
                    causal_links=tuple(links),
                    reflections=tuple(notes),
                )
            )
        except InvariantViolation as exc:
            raise SchemaViolation(path, str(exc)) from None
    try:
        return EpisodicMemory(episodes=tuple(episodes), version=version, source_digest=digest)
    except InvariantViolation as exc:
        raise SchemaViolation("$", str(exc)) from None


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


# --- store ---------------------------------------------------------------------------

def _content_hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(eq=False)
class VideoSession:
    """One video's warm state for answering questions: the parsed transcript
    and the current memory, each with the content hash of the file bytes it
    stands for, so that a file read again is parsed again only when its
    bytes changed. Reflections are written through `store` (as `video_id`)
    when set, else to `path` when set, else kept in this process only. A
    store's session belongs to the thread that opened it.

    The session also keeps each episode's JSON item and, from the first
    `memory_block` call on, its memory-text lines and their token count.
    A new memory version re-renders only the episodes that are new objects:
    `reflect` replaces exactly one. The caches go with the memory they
    belong to when it is parsed again, rebuilt, or the video changes."""

    transcript: Transcript | None = None
    memory: EpisodicMemory | None = None
    path: Path | None = None
    video_id: str = ""
    store: MemoryStore | None = None
    source: tuple[str, float | None] | None = None
    source_hash: bytes = b""
    memory_hash: bytes = b""
    # the episodes the caches below were rendered from; holding them keeps
    # their identities from being reused by new objects
    _episodes: tuple[Episode, ...] = field(default=(), repr=False)
    _json: list[str] | None = field(default=None, repr=False)
    _text: list[str] | None = field(default=None, repr=False)
    _tokens: list[int] | None = field(default=None, repr=False)

    def commit(self, memory: EpisodicMemory) -> None:
        """Make `memory` the current version and write it out."""
        if self.store is not None:
            self.store.save(self.video_id, memory)
        elif self.path is not None:
            _write_atomic(self.path, self.serialize(memory))
        if self.memory is not memory:  # the store records it in its thread's session only
            self.memory, self.memory_hash = memory, b""

    def drop_memory(self) -> None:
        """Forget the memory and everything rendered from it."""
        self.memory, self.memory_hash = None, b""
        self._episodes, self._json, self._text, self._tokens = (), None, None, None

    def _sync(self, memory: EpisodicMemory) -> None:
        """Bring the per-episode caches up to `memory`."""
        episodes, old = memory.episodes, self._episodes
        if episodes is old:
            return
        if len(episodes) != len(old):
            self._json = self._text = self._tokens = None
        else:
            for i, ep in enumerate(episodes):
                if ep is old[i]:
                    continue
                if self._json is not None:
                    self._json[i] = _episode_json(ep)
                if self._text is not None:
                    self._text[i] = text = _episode_text(ep)
                    self._tokens[i] = count_tokens(text).count
        self._episodes = episodes

    def serialize(self, memory: EpisodicMemory) -> bytes:
        """`save_memory(memory)`, re-rendering only changed episodes."""
        self._sync(memory)
        if self._json is None:
            self._json = [_episode_json(ep) for ep in memory.episodes]
        return _memory_json(memory, self._json)

    def memory_block(self) -> tuple[str, int]:
        """`wrap_block("memory", memory_text(self.memory))` and the token
        count of that text, re-rendering only changed episodes."""
        self._sync(self.memory)
        if self._text is None:
            self._text = [_episode_text(ep) for ep in self.memory.episodes]
            self._tokens = [count_tokens(text).count for text in self._text]
        return wrap_block("memory", "\n".join(self._text)), sum(self._tokens)


class MemoryStore:
    """Directory of per-video memory files. Writes are serialized per video
    id; readers always see a complete file (write-then-rename).

    Each thread keeps one `VideoSession`. Every call reads the files again,
    which is how edits by other processes are seen, but parses a file again
    only when its bytes hash differently from what the session last read
    or wrote."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._local = threading.local()

    def _lock(self, video_id: str) -> threading.Lock:
        with self._locks_guard:
            return self._locks.setdefault(video_id, threading.Lock())

    def _current(self, video_id: str) -> VideoSession | None:
        session = getattr(self._local, "session", None)
        return session if session is not None and session.video_id == video_id else None

    def _session(self, video_id: str) -> VideoSession:
        session = self._current(video_id)
        if session is None:
            self._local.session = None  # drop the other video's session first
            session = self._local.session = VideoSession(
                path=self.path(video_id), video_id=video_id, store=self
            )
        return session

    def path(self, video_id: str) -> Path:
        return self.root / f"{video_id}.json"

    def load(self, video_id: str) -> EpisodicMemory | None:
        path = self.path(video_id)
        if not path.exists():
            return None
        return load_memory(path.read_bytes())

    def session(
        self, video_id: str, source: str, video_duration_s: float | None = None
    ) -> VideoSession:
        """The calling thread's session for `video_id`, its transcript read
        from `source` and parsed again only when the bytes changed. Bring
        its memory up to date with `get_or_build` before answering."""
        session = self._session(video_id)
        with open(source, "rb") as fh:
            data = fh.read()
        digest = _content_hash(data)
        key = (source, video_duration_s)
        if session.transcript is None or (session.source, session.source_hash) != (key, digest):
            session.transcript = None
            session.transcript = load_transcript(source, video_duration_s, data=data)
            session.source, session.source_hash = key, digest
        return session

    def _write(self, video_id: str, memory: EpisodicMemory, session: VideoSession | None) -> None:
        if session is None:
            _write_atomic(self.path(video_id), save_memory(memory))
            return
        session.memory, session.memory_hash = None, b""
        data = session.serialize(memory)
        _write_atomic(self.path(video_id), data)
        session.memory, session.memory_hash = memory, _content_hash(data)

    def save(self, video_id: str, memory: EpisodicMemory) -> None:
        with self._lock(video_id):
            self._write(video_id, memory, self._current(video_id))

    def get_or_build(
        self,
        video_id: str,
        transcript: Transcript,
        backend: Backend,
        params: MemoryParams = MemoryParams(),
        templates: Mapping[str, PromptTemplate] | None = None,
    ) -> EpisodicMemory:
        """Reuse the memory file when its digest matches the transcript;
        otherwise build and persist a fresh one. A missing file always
        means a build. The result is the session's current memory."""
        with self._lock(video_id):
            session = self._session(video_id)
            try:
                data = self.path(video_id).read_bytes()
            except FileNotFoundError:
                data = None
            if data is not None:
                digest = _content_hash(data)
                if session.memory is None or session.memory_hash != digest:
                    session.drop_memory()
                    session.memory = load_memory(data)
                    session.memory_hash = digest
                if session.memory.source_digest == transcript_digest(transcript):
                    return session.memory
            session.drop_memory()
            built = build_memory(transcript, backend, params, templates)
            self._write(video_id, built, session)
            return built
