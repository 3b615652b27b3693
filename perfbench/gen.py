"""Seeded input generators for the benchmark.

Everything here is a pure function of a ``random.Random``: the same seed
gives byte-identical files. Transcripts follow the shape of
``tests/conftest.py::random_transcript`` (3-10 words per line, 0.5-4 s
lines, gaps on both sides of the 5 s event-boundary threshold) over a dense
5,000-word vocabulary ``w0000``..``w4999``. Words that never occur in a
transcript come from a disjoint ``x`` vocabulary, so a question built from
them has no support anywhere in the video.

The seed chooses the words and which lines questions ask about. The shape
(line timings, words per line, video sizes, formats and durations, which
questions are answerable) comes from fixed shape seeds, so every seed gives
the same amount of work and the run-to-run spread is the machine's.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

VOCAB = 5000
GAPS = (0.2, 0.8, 1.5, 3.0, 6.0, 9.5)
# every fourth question has no support in the transcript and exercises
# perception's uniform-sampling fallback
UNANSWERABLE_EVERY = 4
LABELS = "ABCD"


def transcript_rows(
    rng: random.Random, n_lines: int, shape_seed: int = 0
) -> list[tuple[float, float, str]]:
    """Timings and line lengths from `shape_seed`, words from `rng`."""
    shape = random.Random(shape_seed)
    rows = []
    t = shape.uniform(0.0, 3.0)
    for _ in range(n_lines):
        duration = shape.uniform(0.5, 4.0)
        words = " ".join(f"w{rng.randrange(VOCAB):04d}" for _ in range(shape.randint(3, 10)))
        rows.append((t, t + duration, words))
        t += duration + shape.choice(GAPS)
    return rows


def fit_rows(rows, duration_s: float) -> list[tuple[float, float, str]]:
    """Scale times so the last line ends at 97% of `duration_s`; rounded to
    the millisecond so every format stores them exactly."""
    scale = 0.97 * duration_s / rows[-1][1]
    return [(round(s * scale, 3), round(e * scale, 3), text) for s, e, text in rows]


def _srt_time(seconds: float) -> str:
    total_ms = int(round(seconds * 1000))
    s, ms = divmod(total_ms, 1000)
    h, rem = divmod(s, 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d},{ms:03d}"


def to_srt(rows) -> bytes:
    return "\n".join(
        f"{i}\n{_srt_time(s)} --> {_srt_time(e)}\n{text}\n"
        for i, (s, e, text) in enumerate(rows, start=1)
    ).encode("utf-8")


def to_vtt(rows) -> bytes:
    cues = [
        f"{_srt_time(s).replace(',', '.')} --> {_srt_time(e).replace(',', '.')}\n{text}\n"
        for s, e, text in rows
    ]
    return "\n".join(["WEBVTT\n"] + cues).encode("utf-8")


def to_caption_doc(rows) -> bytes:
    """One caption record per line, sampled at the line's start time."""
    return "".join(json.dumps({"t": s, "caption": text}) + "\n" for s, _, text in rows).encode(
        "utf-8"
    )


def question(rng: random.Random, rows, ordinal: int) -> dict:
    """The `ordinal`-th manifest-style query with its gold label.

    Answerable questions take three words of one line as the query and two
    words of that line as the gold option; distractors use unseen words.
    Unanswerable ones use unseen words throughout, with a random gold label.
    The ordinal fixes the option count and whether the question is
    answerable.
    """
    n_options = 2 + ordinal % 3
    gold = LABELS[rng.randrange(n_options)]

    def unseen(k: int) -> str:
        return " ".join(f"x{rng.randrange(VOCAB):04d}" for _ in range(k))

    if ordinal % UNANSWERABLE_EVERY != UNANSWERABLE_EVERY - 1:
        tokens = rows[rng.randrange(len(rows))][2].split()
        text = " ".join(rng.sample(tokens, 3))
        gold_text = " ".join(rng.sample(tokens, 2))
    else:
        text, gold_text = unseen(3), unseen(2)
    options = [
        {"label": label, "text": gold_text if label == gold else unseen(2)}
        for label in LABELS[:n_options]
    ]
    return {"query": {"text": text, "options": options}, "gold": gold}


def write_long_video(rng: random.Random, root: Path, n_lines: int, n_questions: int):
    """One long SRT video and its questions. Returns (path, duration_s, questions)."""
    rows = transcript_rows(rng, n_lines)
    duration = round(rows[-1][1] + 1.0, 3)
    path = root / "long.srt"
    path.write_bytes(to_srt(rows))
    questions = [question(rng, rows, i) for i in range(n_questions)]
    return path, duration, questions


# duration buckets of the harness's token report, plus durations in the
# gaps between them ("other")
_DURATION_RANGES = ((30.0, 120.0), (240.0, 900.0), (1800.0, 3600.0), (125.0, 235.0), (950.0, 1750.0))
_SPLITS = ((180.0, "short"), (1200.0, "medium"))
_CATEGORIES = ("knowledge", "sports", "film_tv", "artistic", "competition")
_FORMATS = ("srt", "vtt", "jsonl")


def _split(duration_s: float) -> str:
    for limit, name in _SPLITS:
        if duration_s <= limit:
            return name
    return "long"


def write_manifest(
    rng: random.Random,
    root: Path,
    n_videos: int,
    questions_per_video: int,
    min_lines: int,
    max_lines: int,
) -> tuple[Path, dict[str, tuple[str, str]]]:
    """A manifest over `n_videos` videos whose sizes are evenly spaced from
    `min_lines` to `max_lines`, in a fixed shuffled order. Returns the
    manifest path and, per question id, the gold label and the option
    labels."""
    shape = random.Random(0)
    sizes = [
        min_lines + round(i * (max_lines - min_lines) / max(1, n_videos - 1))
        for i in range(n_videos)
    ]
    shape.shuffle(sizes)
    video_dir = root / "videos"
    video_dir.mkdir(parents=True, exist_ok=True)
    items = []
    gold: dict[str, tuple[str, str]] = {}
    for v, n_lines in enumerate(sizes):
        video_id = f"v{v:03d}"
        lo, hi = _DURATION_RANGES[v % len(_DURATION_RANGES)]
        duration = round(shape.uniform(lo, hi), 1)
        rows = fit_rows(transcript_rows(rng, n_lines, shape_seed=v), duration)
        fmt = _FORMATS[v % len(_FORMATS)]
        if fmt == "srt":
            name, data, key = f"{video_id}.srt", to_srt(rows), "subtitle_path"
        elif fmt == "vtt":
            name, data, key = f"{video_id}.vtt", to_vtt(rows), "subtitle_path"
        else:
            name, data, key = f"{video_id}.captions.jsonl", to_caption_doc(rows), "caption_path"
        (video_dir / name).write_bytes(data)
        category = _CATEGORIES[v % len(_CATEGORIES)]
        for q in range(questions_per_video):
            qid = f"{video_id}q{q}"
            doc = question(rng, rows, v * questions_per_video + q)
            gold[qid] = (doc["gold"], "".join(o["label"] for o in doc["query"]["options"]))
            items.append(
                {
                    "question_id": qid,
                    "video_id": video_id,
                    "duration_s": duration,
                    "split": _split(duration),
                    "category": category,
                    **doc,
                    key: f"videos/{name}",
                }
            )
    path = root / "manifest.jsonl"
    path.write_text("".join(json.dumps(item) + "\n" for item in items), encoding="utf-8")
    return path, gold
