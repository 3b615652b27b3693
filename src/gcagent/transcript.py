"""Time-aligned transcript parsing and representation.

Supported inputs: SubRip (.srt), WebVTT (.vtt), and caption documents
(JSON lines with one ``{"t": seconds, "caption": text}`` record per sampled
frame). All three normalize into the same immutable :class:`Transcript` so
downstream stages are modality-agnostic.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

from .errors import (
    EmptyFile,
    EncodingError,
    InvariantViolation,
    MalformedCue,
    MalformedRecord,
    MissingHeader,
)

SOURCE_SUBTITLE = "subtitle"
SOURCE_CAPTION = "caption"

# HH:MM:SS,mmm --> HH:MM:SS,mmm   (SRT; lenient about digit counts and '.')
_SRT_TIMING = re.compile(
    r"^(\d{1,3}):(\d{1,2}):(\d{1,2})[,.](\d{1,3})\s*-->\s*"
    r"(\d{1,3}):(\d{1,2}):(\d{1,2})[,.](\d{1,3})\s*$"
)
# [HH:]MM:SS.mmm --> [HH:]MM:SS.mmm, optional cue settings after (WebVTT)
_VTT_TIMING = re.compile(
    r"^(?:(\d{1,3}):)?(\d{1,2}):(\d{1,2})\.(\d{3})\s*-->\s*"
    r"(?:(\d{1,3}):)?(\d{1,2}):(\d{1,2})\.(\d{3})(?:[ \t]+\S.*)?$"
)
_TAG = re.compile(r"<[^>]*>")
_ASS_TAG = re.compile(r"\{\\[^}]*\}")


@dataclass(frozen=True)
class SpeechLine:
    """One time-aligned line of text. `index` is the 1-based position after
    sorting; caption records use a zero-width interval (start == end)."""

    index: int
    start_s: float
    end_s: float
    text: str

    def __post_init__(self):
        if self.start_s < 0:
            raise InvariantViolation(f"line {self.index}: negative start time")
        if not self.start_s <= self.end_s:  # also false for a nan time
            raise InvariantViolation(f"line {self.index}: start after end or not a number")
        if not self.text.strip():
            raise InvariantViolation(f"line {self.index}: empty text")


@dataclass(frozen=True)
class Transcript:
    lines: tuple[SpeechLine, ...]
    source_kind: str = SOURCE_SUBTITLE
    video_duration_s: float | None = None

    def __post_init__(self):
        if self.source_kind not in (SOURCE_SUBTITLE, SOURCE_CAPTION):
            raise InvariantViolation(f"unknown source_kind {self.source_kind!r}")
        prev_start = -1.0
        for pos, line in enumerate(self.lines, start=1):
            if line.index != pos:
                raise InvariantViolation(f"line index {line.index} at position {pos}")
            if line.start_s < prev_start:
                raise InvariantViolation("lines not sorted by start time")
            prev_start = line.start_s
            if self.video_duration_s is not None and line.end_s > self.video_duration_s:
                raise InvariantViolation(
                    f"line {line.index} ends after video duration"
                )

    @classmethod
    def from_lines(
        cls,
        lines: Iterable[tuple[float, float, str]],
        source_kind: str = SOURCE_SUBTITLE,
        video_duration_s: float | None = None,
    ) -> "Transcript":
        """Sort by start time (stable, so file order breaks ties) and assign
        contiguous 1-based indices."""
        ordered = sorted(enumerate(lines), key=lambda item: item[1][0])
        built = tuple(
            SpeechLine(index=i, start_s=s, end_s=e, text=t)
            for i, (_, (s, e, t)) in enumerate(ordered, start=1)
        )
        return cls(lines=built, source_kind=source_kind, video_duration_s=video_duration_s)

    def with_duration(self, video_duration_s: float | None) -> "Transcript":
        return replace(self, video_duration_s=video_duration_s)

    @property
    def end_s(self) -> float:
        return max((line.end_s for line in self.lines), default=0.0)

    @property
    def duration_s(self) -> float:
        """The video duration when known, else the end of the last line."""
        return self.end_s if self.video_duration_s is None else self.video_duration_s

    def full_text(self) -> str:
        return " ".join(line.text for line in self.lines)

    @cached_property
    def token_count(self) -> int:
        """`count_tokens(self.full_text())`, counted once per instance."""
        return count_tokens(self.full_text()).count

    @cached_property
    def block(self) -> str:
        """The `<transcript>` prompt block of all lines; rendered once per
        instance."""
        from .prompts import transcript_block  # prompts imports this module

        return transcript_block(self.lines)

    @cached_property
    def digest(self) -> str:
        """Content hash tying derived artifacts (memory files) to this
        transcript's lines; computed once per instance."""
        body = "".join(
            f"\n{line.index}\t{line.start_s:.3f}\t{line.end_s:.3f}\t{line.text}"
            for line in self.lines
        )
        return hashlib.sha256((self.source_kind + body).encode()).hexdigest()


@dataclass(frozen=True)
class TokenCount:
    count: int
    method: str = "whitespace"

    def __post_init__(self):
        if self.count < 0:
            raise InvariantViolation("negative token count")


def count_tokens(text: str) -> TokenCount:
    """Number of maximal whitespace-separated non-empty segments."""
    return TokenCount(count=len(text.split()))


def transcript_digest(transcript: Transcript) -> str:
    """Content hash tying derived artifacts (memory files) to their source."""
    return transcript.digest


# --- decoding helpers ---------------------------------------------------------

def _decode(data: bytes) -> str:
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"input is not valid UTF-8: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _clean_cue_text(text_lines: list[str]) -> str:
    joined = " ".join(part.strip() for part in text_lines)
    joined = _ASS_TAG.sub("", joined)
    joined = _TAG.sub("", joined)
    return " ".join(joined.split())


def _timing_to_seconds(h: str | None, m: str, s: str, ms: str) -> float:
    # single division from integer milliseconds keeps re-parsed values
    # bit-identical to the originals
    total_ms = (int(h or 0) * 3600 + int(m) * 60 + int(s)) * 1000 + int(ms.ljust(3, "0"))
    return total_ms / 1000.0


# --- SRT ----------------------------------------------------------------------

def parse_srt(data: bytes) -> Transcript:
    """Parse SubRip content. One SpeechLine per cue; multi-line cue text is
    joined with single spaces and styling tags are stripped. Any unparseable
    cue aborts the parse (silently skipping cues would corrupt time-boundary
    retrieval downstream)."""
    content = _decode(data)
    if not content.strip():
        raise EmptyFile("no cues")
    blocks = [b for b in re.split(r"\n\s*\n", content.strip()) if b.strip()]
    rows: list[tuple[float, float, str]] = []
    for ordinal, block in enumerate(blocks, start=1):
        lines = [ln.strip("﻿").rstrip() for ln in block.split("\n") if ln.strip()]
        if not lines:
            continue
        pos = 0
        if re.fullmatch(r"\d+", lines[0]) and len(lines) > 1:
            pos = 1
        m = _SRT_TIMING.match(lines[pos]) if pos < len(lines) else None
        if m is None:
            raise MalformedCue(ordinal, "bad timestamp syntax")
        start = _timing_to_seconds(m.group(1), m.group(2), m.group(3), m.group(4))
        end = _timing_to_seconds(m.group(5), m.group(6), m.group(7), m.group(8))
        if start > end:
            raise MalformedCue(ordinal, "start time after end time")
        text_lines = lines[pos + 1 :]
        if any("-->" in ln for ln in text_lines):
            raise MalformedCue(ordinal, "embedded timestamp in cue text")
        text = _clean_cue_text(text_lines)
        if not text:
            raise MalformedCue(ordinal, "empty cue text")
        rows.append((start, end, text))
    if not rows:
        raise EmptyFile("no cues")
    return Transcript.from_lines(rows, source_kind=SOURCE_SUBTITLE)


def _format_srt_time(seconds: float) -> str:
    total_ms = int(round(seconds * 1000))
    s, ms = divmod(total_ms, 1000)
    h, rem = divmod(s, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d},{ms:03d}"


def serialize_srt(transcript: Transcript) -> bytes:
    chunks = []
    for line in transcript.lines:
        chunks.append(
            f"{line.index}\n"
            f"{_format_srt_time(line.start_s)} --> {_format_srt_time(line.end_s)}\n"
            f"{line.text}\n"
        )
    return "\n".join(chunks).encode("utf-8")


# --- WebVTT -------------------------------------------------------------------

def parse_vtt(data: bytes) -> Transcript:
    """Parse WebVTT content. NOTE/STYLE/REGION blocks are skipped; voice and
    styling tags are stripped from cue text."""
    content = _decode(data)
    if not content.strip():
        raise EmptyFile("no content")
    stripped = content.lstrip("\n")
    if not stripped.startswith("WEBVTT"):
        raise MissingHeader("file does not begin with WEBVTT")
    blocks = [b for b in re.split(r"\n\s*\n", stripped.strip()) if b.strip()]
    rows: list[tuple[float, float, str]] = []
    ordinal = 0
    for block_no, block in enumerate(blocks):
        lines = [ln.rstrip() for ln in block.split("\n") if ln.strip()]
        if block_no == 0 and lines and lines[0].startswith("WEBVTT"):
            continue
        if lines[0].startswith(("NOTE", "STYLE", "REGION")):
            continue
        ordinal += 1
        pos = 0
        if "-->" not in lines[0]:
            pos = 1  # cue identifier line
        if pos >= len(lines) or "-->" not in lines[pos]:
            raise MalformedCue(ordinal, "missing cue timing line")
        m = _VTT_TIMING.match(lines[pos])
        if m is None:
            raise MalformedCue(ordinal, "bad timestamp syntax")
        start = _timing_to_seconds(m.group(1), m.group(2), m.group(3), m.group(4))
        end = _timing_to_seconds(m.group(5), m.group(6), m.group(7), m.group(8))
        if start > end:
            raise MalformedCue(ordinal, "start time after end time")
        text_lines = lines[pos + 1 :]
        if any("-->" in ln for ln in text_lines):
            raise MalformedCue(ordinal, "embedded timestamp in cue text")
        text = _clean_cue_text(text_lines)
        if not text:
            raise MalformedCue(ordinal, "empty cue text")
        rows.append((start, end, text))
    if not rows:
        raise EmptyFile("no cues")
    return Transcript.from_lines(rows, source_kind=SOURCE_SUBTITLE)


def _format_vtt_time(seconds: float) -> str:
    return _format_srt_time(seconds).replace(",", ".")


def serialize_vtt(transcript: Transcript) -> bytes:
    chunks = ["WEBVTT\n"]
    for line in transcript.lines:
        chunks.append(
            f"{_format_vtt_time(line.start_s)} --> {_format_vtt_time(line.end_s)}\n"
            f"{line.text}\n"
        )
    return "\n".join(chunks).encode("utf-8")


# --- caption documents ---------------------------------------------------------

def parse_caption_doc(data: bytes) -> Transcript:
    """Parse a caption document: JSON lines, one record per sampled frame.
    Each record becomes a zero-width SpeechLine at its sample time."""
    content = _decode(data)
    rows: list[tuple[float, float, str]] = []
    saw_any = False
    for line_no, raw in enumerate(content.split("\n"), start=1):
        if not raw.strip():
            continue
        saw_any = True
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from None
        if not isinstance(record, dict):
            raise MalformedRecord(line_no, "record is not an object")
        t = record.get("t")
        caption = record.get("caption")
        if not isinstance(t, (int, float)) or isinstance(t, bool) or not t >= 0:
            raise MalformedRecord(line_no, "field 't' must be a non-negative number")
        if not isinstance(caption, str) or not caption.strip():
            raise MalformedRecord(line_no, "field 'caption' must be a non-empty string")
        rows.append((float(t), float(t), " ".join(caption.split())))
    if not saw_any:
        raise EmptyFile("no records")
    return Transcript.from_lines(rows, source_kind=SOURCE_CAPTION)


def serialize_caption_doc(transcript: Transcript) -> bytes:
    out = []
    for line in transcript.lines:
        out.append(json.dumps({"t": line.start_s, "caption": line.text}, ensure_ascii=False))
    return ("\n".join(out) + "\n").encode("utf-8")


def load_transcript(
    path: str, video_duration_s: float | None = None, data: bytes | None = None
) -> Transcript:
    """Dispatch on file extension: .srt, .vtt, or caption JSONL. `data` is
    the file's content when the caller has read it already."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    lower = path.lower()
    if lower.endswith(".srt"):
        parsed = parse_srt(data)
    elif lower.endswith(".vtt"):
        parsed = parse_vtt(data)
    else:
        parsed = parse_caption_doc(data)
    if video_duration_s is not None:
        parsed = parsed.with_duration(video_duration_s)
    return parsed
