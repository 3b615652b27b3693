"""Prompt assembly: block serialization, default templates, block parsing.

Every stage prompt is built from delimited blocks (<transcript>, <memory>,
<frames>, <question>) so that (a) dry-run output can be asserted block by
block, and (b) the deterministic reference backend can read the same
requests a live model would receive.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .backend import PromptTemplate
from .transcript import SpeechLine

_LINE = re.compile(r"^\[(\d+)\] (\d+(?:\.\d+)?)-(\d+(?:\.\d+)?): (.*)$", re.MULTILINE)
_UNIT = re.compile(r"^(\d+): (\d+)-(\d+)$", re.MULTILINE)
_NOTE = re.compile(r"^\s+note v(\d+) \(([A-Za-z])\): (.*)$")
_OPTION = re.compile(r"^([A-Z])\. (.*)$")

SYSTEM_MEMORY_MANAGER = (
    "You are a memory manager agent. You build and maintain structured episodic "
    "memory for a long video from its time-aligned transcript, retrieve "
    "query-relevant spans, and fold answered questions back into memory."
)
SYSTEM_REASONER = (
    "You are a reasoning agent. You answer multiple-choice questions about a "
    "video from the evidence provided: episodic memory, transcript excerpts, "
    "and sampled frames."
)


def open_marker(name: str) -> str:
    return f"<{name}>"


def close_marker(name: str) -> str:
    return f"</{name}>"


def wrap_block(name: str, inner: str) -> str:
    return f"{open_marker(name)}\n{inner}\n{close_marker(name)}"


def extract_block(text: str, name: str) -> str | None:
    """Inner text of the first `name` block: from the first open marker
    line to the nearest close marker line after it."""
    head = open_marker(name) + "\n"
    start = text.find(head)
    if start < 0:
        return None
    start += len(head)
    end = text.find("\n" + close_marker(name), start)
    return None if end < 0 else text[start:end]


# --- transcript block -----------------------------------------------------------

def format_speech_line(line: SpeechLine) -> str:
    return f"[{line.index}] {line.start_s:.2f}-{line.end_s:.2f}: {line.text}"


def transcript_block(lines: Iterable[SpeechLine]) -> str:
    return rendered_transcript_block([format_speech_line(line) for line in lines])


def rendered_transcript_block(rendered: Sequence[str]) -> str:
    """`transcript_block` of lines already passed through `format_speech_line`."""
    body = "\n".join(rendered)
    return wrap_block("transcript", body if body else "(empty)")


def parse_transcript_block(inner: str) -> list[tuple[int, float, float, str]]:
    return [
        (int(idx), float(start), float(end), text)
        for idx, start, end, text in _LINE.findall(inner)
    ]


def transcript_row_text(inner: str, k: int) -> str:
    """The text of row `k` of `parse_transcript_block(inner)`, reading the
    block only up to that row."""
    return next(islice(_LINE.finditer(inner), k, None)).group(4)


# --- unit listing -----------------------------------------------------------------

def units_block(units: Sequence[tuple[int, int]], first_ordinal: int = 1) -> str:
    """A `<units>` block: one `ordinal: first-last` line per unit, the
    ordinals counting up from `first_ordinal`."""
    listing = "\n".join(f"{first_ordinal + k}: {a}-{b}" for k, (a, b) in enumerate(units))
    return wrap_block("units", listing)


def parse_units_block(inner: str) -> list[tuple[int, int, int]]:
    """The `(ordinal, first, last)` of each line of a `units_block`."""
    return [(int(k), int(a), int(b)) for k, a, b in _UNIT.findall(inner)]


# --- episode listing ------------------------------------------------------------

def clean_field(value: str) -> str:
    # keep the one-line pipe-delimited episode format unambiguous
    return " ".join(value.replace("|", "/").split())


def format_episode_line(
    episode_id: int,
    start_s: float,
    end_s: float,
    summary: str,
    role: str | None = None,
    links: Sequence[tuple[str, int]] | None = None,
) -> str:
    fields = [f"{episode_id}", f"{start_s:.2f}-{end_s:.2f}"]
    if role is not None:
        fields.append(role)
    fields.append(clean_field(summary))
    if role is not None:
        rendered = ",".join(f"{rel}->{target}" for rel, target in (links or ())) or "none"
        fields.append(rendered)
    return "「" + " | ".join(fields) + "」"


def format_note_line(created_version: int, answer_id: str, summary: str) -> str:
    return f"  note v{created_version} ({answer_id}): {clean_field(summary)}"


def parse_episode_lines(inner: str) -> list[dict]:
    """Read episode lines back out of a memory block. Returns dicts with
    id, start_s, end_s, summary, and (for the narrative form) role/links."""
    episodes = []
    for raw in inner.split("\n"):
        if not raw.startswith("「"):
            continue
        raw = raw.strip()
        if not raw.endswith("」"):
            continue
        fields = list(map(str.strip, raw[1:-1].split(" | ")))
        if len(fields) == 5:
            eid, span, role, summary, links_raw = fields
        elif len(fields) == 3:
            eid, span, summary = fields
            role, links_raw = None, None
        else:
            continue
        try:
            start_s, _, end_s = span.partition("-")
            entry: dict = {
                "id": int(eid),
                "start_s": float(start_s),
                "end_s": float(end_s),
                "summary": summary,
                "role": role,
            }
        except ValueError:
            continue
        if links_raw is not None:
            links = []
            if links_raw != "none":
                for chunk in links_raw.split(","):
                    rel, _, target = chunk.partition("->")
                    if target.strip().lstrip("-").isdigit():
                        links.append((rel.strip(), int(target)))
            entry["links"] = links
        episodes.append(entry)
    return episodes


# --- question block -------------------------------------------------------------

def format_options(options: Sequence[tuple[str, str]]) -> str:
    return "\n".join(f"{label}. {text}" for label, text in options)


def parse_question_block(inner: str) -> tuple[str, list[tuple[str, str]]]:
    query = ""
    options: list[tuple[str, str]] = []
    for raw in inner.split("\n"):
        if raw.startswith("Question: "):
            query = raw[len("Question: ") :]
            continue
        m = _OPTION.match(raw)
        if m:
            options.append((m.group(1), m.group(2)))
    return query, options


# --- default templates ------------------------------------------------------------

DEFAULT_TEMPLATES: dict[str, PromptTemplate] = {
    "memory_segmentation": PromptTemplate(
        id="memory_segmentation",
        body=(
            "Detect event boundaries in the transcript below and split it into "
            "coherent event-level units (topic shifts). Units must be contiguous, "
            "non-overlapping, and cover every line in order.\n"
            'Return strict JSON: {"units": [[first_line, last_line], ...]}\n\n'
            "{transcript}"
        ),
    ),
    "memory_abstraction": PromptTemplate(
        id="memory_abstraction",
        body=(
            "For each event unit listed below as ordinal: first-last transcript "
            "line, distill its situation-level meaning into a short schematic "
            "summary, and list its participant entities in order of first mention.\n"
            'Return strict JSON, one entry per unit in listing order: {"units": '
            '[{"summary": "...", "entities": ["..."]}, ...]}\n\n'
            "{transcript}"
        ),
    ),
    "memory_narrative": PromptTemplate(
        id="memory_narrative",
        body=(
            "Infer the storyline across the event units below. Assign each unit a "
            "narrative role (introduction, development, conflict, resolution, "
            "other) based on surrounding discourse and temporal flow, and identify "
            "causal or temporal dependencies between units. Dependencies must "
            "point to strictly earlier units.\n"
            'Return strict JSON: {"episodes": [{"id": 0, "narrative_role": "...", '
            '"causal_links": [{"target_id": 0, "relation": '
            '"precedes|causes|refers_back"}]}, ...]}\n\n'
            "{memory}"
        ),
    ),
    "perception": PromptTemplate(
        id="perception",
        body=(
            "Locate the transcript lines most relevant to answering the query. "
            "Use the episodic memory for global context. Return the minimally "
            "sufficient set of 1-based line indices.\n"
            'Return strict JSON: {"line_indices": [..]}\n\n'
            "<question>\nQuestion: {query}\nOptions:\n{options}\n</question>\n\n"
            "{memory}\n\n"
            "{transcript}"
        ),
    ),
    "action": PromptTemplate(
        id="action",
        body=(
            "<question>\n"
            "Question: {query}\n"
            "Options:\n{options}\n"
            "Answer with exactly one option letter, then quote the decisive "
            "evidence. Respond as:\n"
            "Answer: (X)\n"
            "Evidence: ...\n"
            "</question>"
        ),
    ),
    "reflection": PromptTemplate(
        id="reflection",
        body=(
            "The question below has been answered. Compress the outcome into one "
            "concise summary that will be appended to the episodic memory to help "
            "with future queries about this video.\n"
            'Return strict JSON: {"summary": "..."}\n\n'
            "<question>\nQuestion: {query}\nOptions:\n{options}\n</question>\n"
            "Predicted answer: {answer}\n"
            "<evidence>\n{evidence}\n</evidence>\n\n"
            "{memory}"
        ),
    ),
}


def lookup_template(
    templates: Mapping[str, PromptTemplate] | None, template_id: str
) -> PromptTemplate:
    """The caller's template for `template_id`, else the default one."""
    return (templates or {}).get(template_id) or DEFAULT_TEMPLATES[template_id]
