"""Benchmark orchestration: full pipeline runs, accuracy, token accounting.

A manifest is JSON lines, one item per line. Items for the same video run
sequentially (reflection feeds later questions); distinct videos run in
parallel up to the worker limit. Reports are assembled after a
deterministic sort, so reference-mode runs are byte-identical.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .backend import Backend, ChatRequest, TextPart
from .errors import DigestMismatch, GcagentError, ManifestError, StageError, UnparseableAnswer
from .memory import MemoryParams, MemoryStore, VideoSession, check_minimums, reflect
from .perception import PerceptionParams, PerceptionResult, Query, perceive
from .reasoning import ActionResult, EvidenceConfig, act, assemble_evidence
from .text import needle
from .transcript import count_tokens, transcript_digest

SPLITS = ("short", "medium", "long")

# duration buckets for token-compression reporting; gaps between the named
# ranges are surfaced as "other" rather than silently binned
_BUCKETS = (
    ("0-2min", 0.0, 120.0),
    ("4-15min", 240.0, 900.0),
    ("30-60min", 1800.0, 3600.0),
)


@dataclass(frozen=True)
class BenchmarkItem:
    question_id: str
    video_id: str
    duration_s: float
    split: str
    category: str
    query: Query
    gold: str
    subtitle_path: str | None = None
    caption_path: str | None = None


@dataclass(frozen=True)
class TokenStats:
    transcript_tokens: float
    memory_tokens: float
    reduction_pct: float | None

    def to_json_dict(self) -> dict:
        """The stats with `reduction_pct` rounded to 0.1."""
        reduction = None if self.reduction_pct is None else round(self.reduction_pct, 1)
        return {
            "transcript_tokens": self.transcript_tokens,
            "memory_tokens": self.memory_tokens,
            "reduction_pct": reduction,
        }


def compute_token_stats(transcript_tokens: float, memory_tokens: float) -> TokenStats:
    """reduction = (1 - memory/transcript) * 100; undefined for an empty
    transcript (reported as null)."""
    if transcript_tokens < 0 or memory_tokens < 0:
        raise ValueError("token counts must be non-negative")
    reduction = None
    if transcript_tokens > 0:
        reduction = (1.0 - memory_tokens / transcript_tokens) * 100.0
    return TokenStats(
        transcript_tokens=transcript_tokens,
        memory_tokens=memory_tokens,
        reduction_pct=reduction,
    )


def duration_bucket(duration_s: float) -> str:
    for name, lo, hi in _BUCKETS:
        if lo <= duration_s <= hi:
            return name
    return "other"


def bucket_token_stats(videos: Iterable[tuple[float, float, float]]) -> dict[str, dict]:
    """Token stats per duration bucket of `videos`, given as `(duration_s,
    transcript_tokens, memory_tokens)`: the mean token counts, the reduction
    between the means rounded to 0.1 and the number of videos. Buckets come
    in `_BUCKETS` order, then "other"; empty ones are left out."""
    per_bucket: dict[str, list[tuple[float, float]]] = {}
    for duration_s, transcript_tokens, memory_tokens in videos:
        per_bucket.setdefault(duration_bucket(duration_s), []).append(
            (transcript_tokens, memory_tokens)
        )
    out = {}
    for bucket in (*(name for name, _, _ in _BUCKETS), "other"):
        pairs = per_bucket.get(bucket)
        if not pairs:
            continue
        mean_t = sum(p[0] for p in pairs) / len(pairs)
        mean_m = sum(p[1] for p in pairs) / len(pairs)
        doc = compute_token_stats(mean_t, mean_m).to_json_dict()
        doc["videos"] = len(pairs)
        out[bucket] = doc
    return out


@dataclass(frozen=True)
class BackendPair:
    manager: Backend
    reasoner: Backend


@dataclass(frozen=True)
class RunConfig:
    evidence: EvidenceConfig = EvidenceConfig()
    memory_params: MemoryParams = MemoryParams()
    perception_params: PerceptionParams = PerceptionParams()
    reflect: bool = True
    strict: bool = False
    workers: int = 4
    templates: dict | None = None

    def __post_init__(self):
        check_minimums(self, (("workers", int, 1),))


# --- manifest -------------------------------------------------------------------

def _parse_query(doc: dict, where: str) -> Query:
    if not isinstance(doc, dict):
        raise ManifestError(where, "query must be an object")
    text = doc.get("text")
    options_raw = doc.get("options")
    if not isinstance(text, str) or not text.strip():
        raise ManifestError(where, "query.text must be a non-empty string")
    if not isinstance(options_raw, list) or len(options_raw) < 2:
        raise ManifestError(where, "query.options must list at least two options")
    options = []
    for opt in options_raw:
        if not isinstance(opt, dict) or "label" not in opt or "text" not in opt:
            raise ManifestError(where, "each option needs label and text")
        options.append((str(opt["label"]), str(opt["text"])))
    try:
        return Query(text=text, options=tuple(options))
    except GcagentError as exc:
        raise ManifestError(where, str(exc)) from None


def load_manifest(path: str | Path) -> list[BenchmarkItem]:
    path = Path(path)
    if not path.exists():
        raise ManifestError(str(path), "manifest file not found")
    base = path.parent
    items: list[BenchmarkItem] = []
    seen_ids: set[str] = set()
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not raw.strip():
            continue
        where = f"{path.name}:{line_no}"
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise ManifestError(where, f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ManifestError(where, "item must be an object")
        for key in ("question_id", "video_id", "duration_s", "split", "category", "query", "gold"):
            if key not in doc:
                raise ManifestError(where, f"missing field {key!r}")
        question_id = str(doc["question_id"])
        if question_id in seen_ids:
            raise ManifestError(where, f"duplicate question_id {question_id!r}")
        seen_ids.add(question_id)
        duration = doc["duration_s"]
        if not isinstance(duration, (int, float)) or isinstance(duration, bool) or duration <= 0:
            raise ManifestError(where, "duration_s must be a positive number")
        if doc["split"] not in SPLITS:
            raise ManifestError(where, f"split must be one of {SPLITS}")
        query = _parse_query(doc["query"], where)
        gold = str(doc["gold"])
        if gold not in query.labels:
            raise ManifestError(where, f"gold {gold!r} is not an option label")
        subtitle = doc.get("subtitle_path")
        caption = doc.get("caption_path")
        items.append(
            BenchmarkItem(
                question_id=question_id,
                video_id=str(doc["video_id"]),
                duration_s=float(duration),
                split=doc["split"],
                category=str(doc["category"]),
                query=query,
                gold=gold,
                subtitle_path=str(base / subtitle) if subtitle else None,
                caption_path=str(base / caption) if caption else None,
            )
        )
    return items


def _item_source(item: BenchmarkItem) -> str | None:
    """Subtitles when available; the caption document otherwise."""
    if item.subtitle_path and Path(item.subtitle_path).exists():
        return item.subtitle_path
    if item.caption_path and Path(item.caption_path).exists():
        return item.caption_path
    return None


def _required_source(item: BenchmarkItem) -> str:
    source = _item_source(item)
    if source is None:
        raise ManifestError(item.question_id, "no transcript source exists for this item")
    return source


# --- pipeline -------------------------------------------------------------------

@dataclass
class ItemRecord:
    question_id: str
    video_id: str
    split: str
    category: str
    gold: str
    answer_id: str | None = None
    correct: bool = False
    unparseable: bool = False
    error: str | None = None
    stage: str | None = None
    evidence: str = ""
    config: dict = field(default_factory=dict)
    latency_ms: int = 0
    token_usage: dict = field(default_factory=dict)
    memory_version: int = 0
    transcript_tokens: int = 0
    memory_tokens: int = 0
    duration_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "video_id": self.video_id,
            "split": self.split,
            "category": self.category,
            "gold": self.gold,
            "answer_id": self.answer_id,
            "correct": self.correct,
            "unparseable": self.unparseable,
            "error": self.error,
            "stage": self.stage,
            "evidence": self.evidence,
            "config": self.config,
            "latency_ms": self.latency_ms,
            "token_usage": self.token_usage,
            "memory_version": self.memory_version,
            "transcript_tokens": self.transcript_tokens,
            "memory_tokens": self.memory_tokens,
        }


def _staged(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except GcagentError as exc:
        raise StageError(stage, exc) from exc


@dataclass
class Outcome:
    perception: PerceptionResult
    request: ChatRequest
    result: ActionResult | None
    memory_tokens: int  # the whole memory's footprint, not what was sent

    def prompt_tokens(self) -> int:
        """`count_tokens(self.request.text_payload()).count`, summed per
        part: the payload joins its parts with whitespace."""
        return sum(
            count_tokens(part.text).count
            for part in self.request.user_parts
            if isinstance(part, TextPart)
        )


def answer(
    session: VideoSession,
    query: Query,
    config: RunConfig,
    backends: BackendPair,
    dry_run: bool = False,
) -> Outcome:
    """Perceive, assemble, act and, when `config.reflect` is set, reflect
    and commit the new memory version through the session. Perception and
    assembly send the context the session retrieves for the query under
    `config.perception_params.context_budget`; reflection renders only its
    target episode. `memory_tokens` counts the whole memory. With `dry_run`
    the request is assembled but neither acted on nor reflected (`result`
    is None). Stage failures carry the stage name; a memory built from
    another transcript fails the `perception` stage, and a memory file that
    cannot be written the `memory` stage."""
    transcript, memory = session.transcript, session.memory
    if memory.source_digest != transcript_digest(transcript):
        mismatch = DigestMismatch("memory was built from a different transcript")
        raise StageError("perception", mismatch) from mismatch
    context = session.context(
        needle(query.text, query.options), config.perception_params.context_budget
    )
    perception = _staged(
        "perception",
        perceive,
        query,
        transcript,
        context,
        backends.manager,
        config.perception_params,
        config.templates,
    )
    request = _staged(
        "assemble",
        assemble_evidence,
        config.evidence,
        query,
        transcript,
        context,
        perception,
        config.perception_params.max_frames,
        config.templates,
    )
    outcome = Outcome(perception, request, None, session.memory_tokens())
    if dry_run:
        return outcome
    outcome.result = _staged("action", act, query, request, backends.reasoner)
    if config.reflect:
        updated = _staged(
            "reflection",
            reflect,
            query.text,
            query.options,
            outcome.result.answer_id,
            outcome.result.evidence,
            memory,
            [(s.start_s, s.end_s) for s in perception.spans],
            backends.manager,
            config.memory_params,
            config.templates,
        )
        _staged("memory", session.commit, updated)
    return outcome


def open_item(
    item: BenchmarkItem,
    config: RunConfig,
    backends: BackendPair,
    store: MemoryStore,
) -> VideoSession:
    """The calling thread's session for `item`'s video: its transcript
    loaded (the `load` stage) and its memory read from `store`, or built
    with the manager when missing or stale (the `memory` stage)."""
    session = _staged(
        "load", lambda: store.session(item.video_id, _required_source(item), item.duration_s)
    )
    _staged(
        "memory",
        store.get_or_build,
        item.video_id,
        session.transcript,
        backends.manager,
        config.memory_params,
        config.templates,
    )
    return session


def _run_item(
    item: BenchmarkItem,
    config: RunConfig,
    backends: BackendPair,
    store: MemoryStore,
) -> tuple[VideoSession, Outcome]:
    session = open_item(item, config, backends, store)
    return session, answer(session, item.query, config, backends)


def run_pipeline(
    item: BenchmarkItem,
    config: RunConfig,
    backends: BackendPair,
    memory_store: MemoryStore,
) -> ActionResult:
    """Build-or-load memory, perceive, assemble, act, and (unless disabled)
    reflect. Stage failures carry the stage name."""
    return _run_item(item, config, backends, memory_store)[1].result


def _record_for_item(
    item: BenchmarkItem,
    config: RunConfig,
    backends: BackendPair,
    store: MemoryStore,
) -> ItemRecord:
    record = ItemRecord(
        question_id=item.question_id,
        video_id=item.video_id,
        split=item.split,
        category=item.category,
        gold=item.gold,
        config=config.evidence.to_dict(),
        duration_s=item.duration_s,
    )
    started = time.perf_counter()
    try:
        session, outcome = _run_item(item, config, backends, store)
    except StageError as exc:
        if isinstance(exc.cause, UnparseableAnswer):
            record.unparseable = True
        record.error = str(exc.cause)
        record.stage = exc.stage
        return record
    if not backends.reasoner.profile.deterministic:
        record.latency_ms = int((time.perf_counter() - started) * 1000)
    result = outcome.result
    record.answer_id = result.answer_id
    record.correct = result.answer_id == item.gold
    record.evidence = result.evidence
    record.memory_version = session.memory.version
    record.transcript_tokens = session.transcript.token_count
    record.memory_tokens = outcome.memory_tokens
    record.token_usage = {
        "prompt_tokens": outcome.prompt_tokens(),
        "completion_tokens": count_tokens(result.raw_response).count,
    }
    return record


# --- reporting -------------------------------------------------------------------

@dataclass
class RunReport:
    config: dict
    items: list[ItemRecord]
    counts: dict
    accuracy: dict
    token_stats: dict
    memory_versions: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "counts": self.counts,
            "accuracy": self.accuracy,
            "token_stats": self.token_stats,
            "memory_versions": self.memory_versions,
            "items": [r.to_json_dict() for r in self.items],
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False) + "\n").encode(
            "utf-8"
        )


def _accuracy(records: list[ItemRecord], strict: bool) -> tuple[float | None, int, int]:
    attempted = [r for r in records if not (strict and r.error and not r.unparseable)]
    total = len(attempted)
    correct = sum(1 for r in attempted if r.correct)
    if total == 0:
        return None, 0, 0
    return round(100.0 * correct / total, 1), correct, total


def evaluate(
    manifest_path: str | Path,
    config: RunConfig,
    backends: BackendPair,
    memory_dir: str | Path,
) -> RunReport:
    """Run every manifest item through the pipeline and aggregate accuracy
    by split and category plus token stats by duration bucket."""
    items = load_manifest(manifest_path)
    if not items:
        raise ManifestError(str(manifest_path), "no items")
    for item in items:
        if _item_source(item) is None:
            raise ManifestError(
                item.question_id, "referenced transcript source does not exist"
            )
    store = MemoryStore(memory_dir)
    groups: dict[str, list[BenchmarkItem]] = {}
    for item in sorted(items, key=lambda it: it.question_id):
        groups.setdefault(item.video_id, []).append(item)

    def _run_group(group: list[BenchmarkItem]) -> list[ItemRecord]:
        return [_record_for_item(item, config, backends, store) for item in group]

    ordered_groups = [groups[vid] for vid in sorted(groups)]
    records: list[ItemRecord] = []
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            for chunk in pool.map(_run_group, ordered_groups):
                records.extend(chunk)
    else:
        for group in ordered_groups:
            records.extend(_run_group(group))
    records.sort(key=lambda r: r.question_id)

    overall, correct, total = _accuracy(records, config.strict)
    by_split = {}
    for split in SPLITS:
        split_records = [r for r in records if r.split == split]
        if split_records:
            acc, c, t = _accuracy(split_records, config.strict)
            by_split[split] = {"accuracy": acc, "correct": c, "total": t}
    by_category = {}
    for category in sorted({r.category for r in records}):
        cat_records = [r for r in records if r.category == category]
        acc, c, t = _accuracy(cat_records, config.strict)
        by_category[category] = {"accuracy": acc, "correct": c, "total": t}

    videos = {}  # each video's first record without an error
    for record in records:
        if not record.error:
            videos.setdefault(
                record.video_id,
                (record.duration_s, record.transcript_tokens, record.memory_tokens),
            )

    errors = sum(1 for r in records if r.error and not r.unparseable)
    unparseable = sum(1 for r in records if r.unparseable)
    return RunReport(
        config={
            "evidence": config.evidence.to_dict(),
            "reflect": config.reflect,
            "strict": config.strict,
        },
        items=records,
        counts={
            "total": len(records),
            "correct": correct,
            "attempted": total,
            "unparseable": unparseable,
            "errors": errors,
        },
        accuracy={"overall": overall, "by_split": by_split, "by_category": by_category},
        token_stats=bucket_token_stats(videos.values()),
        memory_versions={
            vid: max(r.memory_version for r in records if r.video_id == vid)
            for vid in sorted({r.video_id for r in records})
        },
    )


def render_report_table(report: RunReport, baseline: RunReport | None = None) -> str:
    """Plain-text table: overall and per-split/per-category accuracy, with
    delta columns against a baseline report when given."""
    lines = []
    cfg = report.config.get("evidence", {})
    lines.append(
        "configuration: vision={vision} text={text} memory={memory}".format(
            vision=cfg.get("vision"), text=cfg.get("text"), memory=cfg.get("memory")
        )
    )
    counts = report.counts
    overall = report.accuracy["overall"]
    overall_str = "n/a" if overall is None else f"{overall:.1f}%"
    lines.append(
        f"overall: {overall_str} ({counts['correct']}/{counts['attempted']})"
        f"  unparseable={counts['unparseable']} errors={counts['errors']}"
    )

    def _delta(current: float | None, previous: float | None) -> str:
        if current is None or previous is None:
            return ""
        return f" ({current - previous:+.1f})"

    base_acc = baseline.accuracy if baseline else {"by_split": {}, "by_category": {}}
    for section in ("by_split", "by_category"):
        if not report.accuracy[section]:
            continue
        lines.append(section.replace("_", " ") + ":")
        for name, entry in report.accuracy[section].items():
            base = base_acc[section].get(name, {}).get("accuracy")
            acc = entry["accuracy"]
            acc_str = "n/a" if acc is None else f"{acc:.1f}%"
            lines.append(
                f"  {name:<12} {acc_str:>7} ({entry['correct']}/{entry['total']})"
                + _delta(acc, base)
            )
    if report.token_stats:
        lines.append("token stats (per duration bucket):")
        for bucket, stats in report.token_stats.items():
            reduction = stats["reduction_pct"]
            reduction_str = "n/a" if reduction is None else f"{reduction:.1f}%"
            lines.append(
                f"  {bucket:<9} transcript={stats['transcript_tokens']:.1f} "
                f"memory={stats['memory_tokens']:.1f} reduction={reduction_str}"
            )
    return "\n".join(lines)
