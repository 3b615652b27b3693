"""The three benchmark workloads and their correctness gates.

Each workload is a closed loop from one process: set-up makes the inputs
from the seed (and, for ``long_video_qa``, builds memory), then the loop
runs operations until the time is up and the minimum count is reached. An
operation is one question for the two QA workloads and one cold memory
build for ``long_build``. All pipeline calls go through ``gcagent``
module attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import threading
import time
from pathlib import Path

import gcagent
from gcagent import harness, memory, transcript
from gcagent.errors import GcagentError
from gcagent.reference import ReferenceBackend

import gen
from tracer import STAGES

SETUP_REPEATS = 3
QUESTION_STAGES = ("perception", "action", "reflection")
BUILD_STAGES = ("segment", "abstract", "narrate")

# long_video_qa: one ~5k-line video asked the same round of questions
# again and again, memory reset to the prebuilt file at each round start
QA_LINES = 5000
QA_ROUND = 50
QA_MIN_QUESTIONS = 100  # so that p90 has ten samples beyond it
# manifest_eval_cold: one evaluate() over ~30 videos, fresh memory dir each
EVAL_VIDEOS = 30
EVAL_QUESTIONS = 4
EVAL_MIN_LINES, EVAL_MAX_LINES = 300, 2500
EVAL_WORKERS = 1
# long_build: cold builds of a few ~20k-line transcripts, round-robin
BUILD_TRANSCRIPTS = 3
BUILD_LINES = 20000


class CountingBackend:
    """Delegating backend: counts calls and whitespace tokens of each
    request payload and response per stage, and, per worker thread, the
    time from the end of its previous question (or from `start`) to the end
    of each action response, which is that question's latency."""

    def __init__(self, inner):
        self.inner = inner
        self.profile = inner.profile
        self._lock = threading.Lock()
        self.start = 0.0
        self.reset()

    def reset(self) -> None:
        """Zero the counts and the question latencies."""
        with self._lock:
            self.tokens = {stage: [0, 0, 0] for stage in STAGES.values()}
            self.question_s: list[float] = []
            self._marks: dict[int, float] = {}

    def begin(self, start: float) -> None:
        """Start of a batch: each worker's first question is timed from here."""
        with self._lock:
            self.start = start
            self._marks = {}

    def complete(self, request):
        response = self.inner.complete(request)
        end = time.perf_counter()
        stage = STAGES[request.context["stage"]]
        prompt = len(request.text_payload().split())
        completion = len(response.text.split())
        with self._lock:
            row = self.tokens[stage]
            row[0] += 1
            row[1] += prompt
            row[2] += completion
            if stage == "action":
                tid = threading.get_ident()
                self.question_s.append(end - self._marks.get(tid, self.start))
                self._marks[tid] = end
        return response

    def prompt_tokens(self, stages) -> int:
        return sum(self.tokens[s][1] for s in stages)


def digest_of(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.hexdigest()[:16]


def quantile_ms(samples_s: list[float], q: int) -> float:
    """q-th percentile (1..99) in ms, inclusive interpolation."""
    return statistics.quantiles(samples_s, n=100, method="inclusive")[q - 1] * 1000.0


def memory_tokens_ratio(pairs) -> float:
    """Sum of memory tokens over sum of transcript tokens."""
    return sum(m for _, m in pairs) / sum(t for t, _ in pairs)


def token_pair(tr, mem) -> tuple[int, int]:
    """(transcript tokens, memory tokens) as the harness report counts them."""
    return (
        gcagent.count_tokens(tr.full_text()).count,
        gcagent.memory_token_count(mem),
    )


class Gate:
    """Collects failed correctness checks and counts failed operations."""

    def __init__(self):
        self.failures: list[str] = []
        self.failed_ops = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def op_failed(self, message: str) -> None:
        self.failed_ops += 1
        self.failures.append(message)


def _query(doc: dict):
    q = doc["query"]
    return gcagent.Query(text=q["text"], options=tuple((o["label"], o["text"]) for o in q["options"]))


def _median_setup(make) -> tuple[float, object]:
    """Run `make` SETUP_REPEATS times; median seconds and the last result."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def _phases(seconds: float, traced: bool):
    """(label, seconds, tracing) for each measured phase. A traced run
    measures half its time untraced and half traced, for the overhead."""
    if traced:
        return [("untraced", seconds / 2, False), ("traced", seconds / 2, True)]
    return [("timed", seconds, False)]


# --- long_video_qa ------------------------------------------------------------------

def long_video_qa(work: Path, seed: int, seconds: float, tracer) -> dict:
    backend = CountingBackend(ReferenceBackend())
    backends = gcagent.BackendPair(manager=backend, reasoner=backend)
    config = gcagent.RunConfig(workers=1, reflect=True)

    def make():
        root = work / "setup"
        shutil.rmtree(root, ignore_errors=True)
        (root / "mem").mkdir(parents=True)
        path, duration, questions = gen.write_long_video(
            random.Random(seed), root, QA_LINES, QA_ROUND
        )
        store = memory.MemoryStore(root / "mem")
        backend.reset()
        tr = transcript.load_transcript(str(path), video_duration_s=duration)
        base = store.get_or_build("long", tr, backend)
        return root, path, duration, questions, store, tr, base

    setup_s, (root, path, duration, questions, store, tr, base) = _median_setup(make)
    build_tokens = backend.prompt_tokens(BUILD_STAGES)
    base_bytes = store.path("long").read_bytes()
    items = [
        gcagent.BenchmarkItem(
            question_id=f"q{i:03d}", video_id="long", duration_s=duration, split="long",
            category="synthetic", query=_query(doc), gold=doc["gold"], subtitle_path=str(path),
        )
        for i, doc in enumerate(questions)
    ]
    gate = Gate()
    round_digests: list[str] = []
    out: dict = {"phases": {}}
    for label, budget, traced in _phases(seconds, tracer is not None):
        minimum = QA_MIN_QUESTIONS if tracer is None else QA_ROUND
        backend.reset()
        if tracer is not None:
            tracer.enabled = traced
        latencies: list[float] = []
        answers: list[bytes] = []
        correct = 0
        started = time.perf_counter()
        while time.perf_counter() - started < budget or len(latencies) < minimum:
            k = len(latencies) % QA_ROUND
            if k == 0:
                store.path("long").write_bytes(base_bytes)  # new round: reset memory
                answers = []
            item = items[k]
            t0 = time.perf_counter()
            try:
                result = harness.run_pipeline(item, config, backends, store)
            except GcagentError as exc:
                latencies.append(time.perf_counter() - t0)
                gate.op_failed(f"{item.question_id}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            answers.append(f"{item.question_id}\t{result.answer_id}\t{result.evidence}\n".encode())
            if result.answer_id not in item.query.labels:
                gate.op_failed(f"{item.question_id}: invalid label {result.answer_id!r}")
            correct += result.answer_id == item.gold
            if k == QA_ROUND - 1:
                final = store.path("long").read_bytes()
                round_digests.append(digest_of(b"".join(answers), final))
                reloaded = memory.load_memory(final)
                notes = sum(len(ep.reflections) for ep in reloaded.episodes)
                gate.check(reloaded.version == 1 + QA_ROUND, f"memory version {reloaded.version}")
                gate.check(notes == QA_ROUND, f"{notes} reflection notes after {QA_ROUND} questions")
        if tracer is not None:
            tracer.enabled = False
        out["phases"][label] = {"ops": len(latencies), "busy_s": sum(latencies)}
    n = len(latencies)
    gate.check(len(set(round_digests)) == 1, f"rounds disagree: {sorted(set(round_digests))}")
    tokens = token_pair(tr, base)
    out.update(
        workers=config.workers,
        gate=gate,
        digest=round_digests[0] if round_digests else "",
        attempted=n,
        ops=n,
        backend=backend,
        e2e={
            "setup_s": setup_s,
            "ops_per_s": n / sum(latencies),
            "op_ms_p50": quantile_ms(latencies, 50),
            "op_ms_p90": quantile_ms(latencies, 90),
            "prompt_tokens_per_op": backend.prompt_tokens(QUESTION_STAGES) / n,
            "memory_token_ratio": memory_tokens_ratio([tokens]),
        },
        report={
            "setup_s": (setup_s, "s"),
            "questions_per_s": (n / sum(latencies), "1/s"),
            "question_ms_p50": (quantile_ms(latencies, 50), f"ms (n={n})"),
            "question_ms_p90": (quantile_ms(latencies, 90), f"ms (n={n}, {n - int(0.9 * n)} beyond)"),
            "prompt_tokens_per_question": (backend.prompt_tokens(QUESTION_STAGES) / n, "tokens"),
            "build_prompt_tokens_per_line": (build_tokens / QA_LINES, "tokens (set-up build)"),
            "memory_token_ratio": (memory_tokens_ratio([tokens]), "ratio"),
            "accuracy_pct": (100.0 * correct / n, "%"),
        },
    )
    return out


# --- manifest_eval_cold --------------------------------------------------------------

def manifest_eval_cold(work: Path, seed: int, seconds: float, tracer) -> dict:
    backend = CountingBackend(ReferenceBackend())
    backends = gcagent.BackendPair(manager=backend, reasoner=backend)
    config = gcagent.RunConfig(workers=EVAL_WORKERS, reflect=False)

    def make():
        root = work / "setup"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        return root, *gen.write_manifest(
            random.Random(seed), root, EVAL_VIDEOS, EVAL_QUESTIONS, EVAL_MIN_LINES, EVAL_MAX_LINES
        )

    setup_s, (root, manifest, gold) = _median_setup(make)
    total_lines = None
    gate = Gate()
    digests: list[str] = []
    out: dict = {"phases": {}}
    for label, budget, traced in _phases(seconds, tracer is not None):
        minimum = 2 if tracer is None else 1
        backend.reset()
        if tracer is not None:
            tracer.enabled = traced
        calls, busy = 0, 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < budget or calls < minimum:
            # a fresh directory per call; all are removed after the phase, so
            # no deletes hit the disk while evaluate() is timed
            mem_dir = work / label / f"mem{calls}"
            t0 = time.perf_counter()
            backend.begin(t0)
            report = harness.evaluate(manifest, config, backends, mem_dir)
            busy += time.perf_counter() - t0
            calls += 1
            memories = sorted(mem_dir.glob("*.json"))
            digests.append(
                digest_of(report.to_json_bytes(), *(p.read_bytes() for p in memories))
            )
            _check_report(gate, report, gold)
            if total_lines is None:
                total_lines = sum(
                    memory.load_memory(p.read_bytes()).line_count for p in memories
                )
                pairs = []
                seen = set()
                for record in report.items:
                    if record.video_id not in seen:
                        seen.add(record.video_id)
                        pairs.append((record.transcript_tokens, record.memory_tokens))
                accuracy = report.accuracy["overall"]
        if tracer is not None:
            tracer.enabled = False
        shutil.rmtree(work / label)
        out["phases"][label] = {"ops": calls * len(gold), "busy_s": busy}
    n = calls * len(gold)
    latencies = backend.question_s
    gate.check(len(latencies) == n, f"{len(latencies)} action calls for {n} questions")
    gate.check(len(set(digests)) == 1, f"evaluate runs disagree: {sorted(set(digests))}")
    question_tokens = backend.prompt_tokens(QUESTION_STAGES)
    build_tokens = backend.prompt_tokens(BUILD_STAGES)
    out.update(
        workers=config.workers,
        gate=gate,
        digest=digests[0],
        attempted=n,
        ops=n,
        backend=backend,
        e2e={
            "setup_s": setup_s,
            "ops_per_s": n / busy,
            "op_ms_p50": quantile_ms(latencies, 50),
            "op_ms_p90": quantile_ms(latencies, 90),
            "prompt_tokens_per_op": (question_tokens + build_tokens) / n,
            "memory_token_ratio": memory_tokens_ratio(pairs),
        },
        report={
            "setup_s": (setup_s, "s"),
            "questions_per_s": (n / busy, "1/s"),
            "question_ms_p50": (quantile_ms(latencies, 50), f"ms (n={n})"),
            "question_ms_p90": (quantile_ms(latencies, 90), f"ms (n={n}, {n - int(0.9 * n)} beyond)"),
            "prompt_tokens_per_question": (question_tokens / n, "tokens"),
            "build_prompt_tokens_per_line": (build_tokens / (calls * total_lines), "tokens"),
            "memory_token_ratio": (memory_tokens_ratio(pairs), "ratio"),
            "accuracy_pct": (accuracy, "%"),
        },
    )
    return out


def _check_report(gate: Gate, report, gold: dict[str, tuple[str, str]]) -> None:
    counts = report.counts
    gate.check(counts["total"] == len(gold), f"{counts['total']} items for {len(gold)} questions")
    right = 0
    for record in report.items:
        answer, labels = gold[record.question_id]
        if record.error is not None or record.answer_id not in labels:
            gate.op_failed(f"{record.question_id}: answer {record.answer_id!r}, {record.error}")
        right += record.answer_id == answer
    expected = round(100.0 * right / len(gold), 1)
    gate.check(report.accuracy["overall"] == expected,
               f"accuracy {report.accuracy['overall']} != {expected} from generator gold")


def check_fixture(work: Path, fixture_manifest: Path) -> list[str]:
    """The bundled fixture manifest: 13 items, no errors, 92.3% overall."""
    ref = ReferenceBackend()
    report = harness.evaluate(
        fixture_manifest, gcagent.RunConfig(workers=EVAL_WORKERS), gcagent.BackendPair(ref, ref),
        work / "fixture-mem",
    )
    gate = Gate()
    gate.check(report.counts["total"] == 13, f"fixture: {report.counts['total']} items")
    gate.check(report.counts["errors"] == 0, f"fixture: {report.counts['errors']} errors")
    gate.check(report.accuracy["overall"] == 92.3, f"fixture: {report.accuracy['overall']}%")
    return gate.failures


# --- long_build -----------------------------------------------------------------------

def long_build(work: Path, seed: int, seconds: float, tracer) -> dict:
    backend = CountingBackend(ReferenceBackend())

    def make():
        root = work / "setup"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        rng = random.Random(seed)
        out = []
        for i in range(BUILD_TRANSCRIPTS):
            path = root / f"t{i}.srt"
            path.write_bytes(gen.to_srt(gen.transcript_rows(rng, BUILD_LINES, shape_seed=i)))
            out.append(transcript.load_transcript(str(path)))
        return out

    setup_s, transcripts = _median_setup(make)
    store = memory.MemoryStore(work / "mem")
    gate = Gate()
    first: dict[int, bytes] = {}
    pairs: dict[int, tuple[int, int]] = {}
    out: dict = {"phases": {}}
    for label, budget, traced in _phases(seconds, tracer is not None):
        minimum = 2 * BUILD_TRANSCRIPTS if tracer is None else BUILD_TRANSCRIPTS
        backend.reset()
        if tracer is not None:
            tracer.enabled = traced
        latencies: list[float] = []
        started = time.perf_counter()
        while time.perf_counter() - started < budget or len(latencies) < minimum:
            i = len(latencies) % BUILD_TRANSCRIPTS
            video_id = f"t{i}"
            store.path(video_id).unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                built = store.get_or_build(video_id, transcripts[i], backend)
            except GcagentError as exc:
                latencies.append(time.perf_counter() - t0)
                gate.op_failed(f"{video_id}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            data = store.path(video_id).read_bytes()
            if i not in first:
                first[i] = data
                tr = transcripts[i]
                reloaded = memory.load_memory(data)
                gate.check(reloaded == built, f"{video_id}: memory does not round-trip")
                gate.check(reloaded.source_digest == transcript.transcript_digest(tr),
                           f"{video_id}: digest does not match its transcript")
                gate.check(reloaded.line_count == len(tr.lines), f"{video_id}: lines not covered")
                pairs[i] = token_pair(tr, reloaded)
            else:
                gate.check(data == first[i], f"{video_id}: rebuild differs")
        if tracer is not None:
            tracer.enabled = False
        out["phases"][label] = {"ops": len(latencies), "busy_s": sum(latencies)}
    n = len(latencies)
    lines = BUILD_LINES * n
    build_tokens = backend.prompt_tokens(BUILD_STAGES)
    ratio = memory_tokens_ratio(pairs.values())
    out.update(
        workers=1,
        gate=gate,
        digest=digest_of(*(first[i] for i in sorted(first))),
        attempted=n,
        ops=n,
        backend=backend,
        e2e={
            "setup_s": setup_s,
            "ops_per_s": n / sum(latencies),
            "op_ms_p50": quantile_ms(latencies, 50),
            "op_ms_p90": quantile_ms(latencies, 90),
            "prompt_tokens_per_op": build_tokens / n,
            "memory_token_ratio": ratio,
        },
        report={
            "setup_s": (setup_s, "s"),
            "build_lines_per_s": (lines / sum(latencies), "1/s"),
            "build_ms_p50": (quantile_ms(latencies, 50), f"ms (n={n})"),
            "build_ms_p90": (quantile_ms(latencies, 90), f"ms (n={n})"),
            "build_prompt_tokens_per_line": (build_tokens / lines, "tokens"),
            "memory_token_ratio": (ratio, "ratio"),
        },
    )
    return out


WORKLOADS = {
    "long_video_qa": long_video_qa,
    "manifest_eval_cold": manifest_eval_cold,
    "long_build": long_build,
}
