"""Benchmark runner for gcagent's episodic-memory pipeline.

    python3 perfbench/run.py --workload long_video_qa --seed 1 --seconds 50 --trace 0

Run from the repository root (or any checkout of it). The runner makes its
inputs from ``--seed``, drives the deterministic reference backend through
the public API of ``gcagent.harness`` and ``gcagent.memory``, checks every
output against its correctness gates and prints, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures
half its time untraced and half with every layer wrapped, and the metrics
are per layer. ``--workload all`` runs every workload in turn.

Work files go to ``.bench_work/`` (removed at exit); each result, with its
environment record and, for traced runs, the spans, goes to
``.bench_out/``. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_MANIFEST = ROOT / "tests" / "fixtures" / "manifest.jsonl"
WORKLOAD_NAMES = ("long_video_qa", "manifest_eval_cold", "long_build")
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "prompt_tokens_per_op": "tokens/op",
    "memory_token_ratio": "ratio",
}


def _git_sha() -> str:
    """HEAD's commit from the .git directory, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding `path`, from /proc/self/mountinfo."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except (OSError, ValueError, IndexError):
        pass
    return kind


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _io_stall_us() -> int:
    """Microseconds in which some task waited on I/O (Linux pressure stall
    information), or 0 where the kernel does not report it."""
    try:
        with open("/proc/pressure/io", encoding="ascii") as fh:
            return int(fh.readline().rsplit("total=", 1)[1])
    except (OSError, ValueError, IndexError):
        return 0


def environment(seed: int, work: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "seed": seed,
        "memory_dir_fs": _fs_type(work),
    }


def per_layer(tracer, out: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase, per operation."""
    from tracer import STAGES

    traced, untraced = out["phases"]["traced"], out["phases"]["untraced"]
    ops = traced["ops"]
    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name, row in summary.items():
        metrics[f"{name}.calls"] = (row["calls"] / ops, "calls/op")
        metrics[f"{name}.ms"] = (row["ms"] / ops, "ms/op")
        metrics[f"{name}.self_ms"] = (row["self_ms"] / ops, "ms/op")
    for stage in STAGES.values():
        calls, prompt, completion = out["backend"].tokens[stage]
        metrics[f"backend.{stage}.calls"] = (calls / ops, "calls/op")
        metrics[f"backend.{stage}.prompt_tokens"] = (prompt / ops, "tokens/op")
        metrics[f"backend.{stage}.completion_tokens"] = (completion / ops, "tokens/op")
    counts = tracer.counts

    def share(count: int, span: str) -> float:
        return count / max(1, summary[span]["calls"])

    metrics["memory.load.bytes"] = (counts["memory.load.bytes"] / ops, "bytes/op")
    metrics["memory.file_bytes"] = (share(counts["memory.file_bytes"], "memory.serialize"), "bytes")
    metrics["perception.fallback_ratio"] = (
        share(counts["perception.fallbacks"], "perception.perceive"), "ratio")
    metrics["reasoning.unparseable"] = (share(counts["reasoning.unparseable"], "reasoning.act"), "ratio")
    metrics["harness.parallel_efficiency"] = (
        tracer.busy_cpu_s() / (traced["busy_s"] * out["workers"]), "ratio")
    slowdown = (traced["busy_s"] / traced["ops"]) / (untraced["busy_s"] / untraced["ops"])
    metrics["trace.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads
    from tracer import Tracer

    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steal0, total0 = _cpu_ticks()
    io0, started = _io_stall_us(), time.monotonic()
    try:
        env = environment(seed, work)
        failures = [f"fixture: {m}" for m in workloads.check_fixture(work, FIXTURE_MANIFEST)]
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            out = workloads.WORKLOADS[name](work, seed, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    steal1, total1 = _cpu_ticks()
    env["cpu_steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    env["io_stall_pct"] = (_io_stall_us() - io0) / (time.monotonic() - started) / 1e4
    failures += out["gate"].failures
    failed = out["gate"].failed_ops
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        metrics = per_layer(tracer, out)
    else:
        metrics = {key: (value, UNITS[key]) for key, value in out["e2e"].items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    report = dict(out["report"])
    report["error_rate"] = (failed / out["attempted"], f"({failed}/{out['attempted']})")
    report["peak_rss_mb"] = (peak_rss_mb, "MB")

    print(f"== {name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {out['digest']}")
    for key, (value, unit) in report.items():
        print(f"  {key:<30} {value:>14.4f} {unit}")
    if traced:
        _print_layers(tracer, out["phases"]["traced"]["ops"], metrics)
    print("gates: " + ("pass" if not failures else "FAIL"))
    for message in failures:
        print(f"  gate failed: {message}")

    result = {
        "correct": not failures,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "env": env, "digest": out["digest"], "gate_failures": failures,
              "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
              "result": result}
    results = ROOT / ".bench_out"
    results.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span._asdict()) + "\n")
    return result


def _print_layers(tracer, ops: int, metrics: dict) -> None:
    summary = tracer.summary()
    print(f"  per layer, traced phase ({ops} ops), sorted by self time:")
    print(f"    {'layer':<26} {'calls/op':>10} {'ms/op':>10} {'self ms/op':>11}")
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"])
    for name, row in rows:
        print(f"    {name:<26} {row['calls'] / ops:>10.2f} {row['ms'] / ops:>10.2f} "
              f"{row['self_ms'] / ops:>11.2f}")
    total_self = sum(row["self_ms"] for row in summary.values()) or 1.0
    top, row = rows[0]
    within = " < ".join(tracer.ancestry(top))
    print(f"  dominant self time: {top} ({100.0 * row['self_ms'] / total_self:.1f}% of traced)"
          + (f", inside {within}" if within else ""))
    print(f"  tracing overhead: {metrics['trace.overhead_pct'][0]:+.2f}% per op")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gcagent" / "__init__.py").is_file() or not FIXTURE_MANIFEST.is_file():
        print(f"error: {ROOT} is not a gcagent checkout (needs src/gcagent and "
              "tests/fixtures/manifest.jsonl)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gcagent.errors import RepairWarning

    # repairs are expected on synthetic input; keep them off stderr
    warnings.simplefilter("ignore", RepairWarning)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
