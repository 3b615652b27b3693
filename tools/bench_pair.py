#!/usr/bin/env python3
"""Paired before/after runs of one benchmark workload.

    python3 tools/bench_pair.py --workload long_video_qa --seed 7919 2024 \\
        --seconds 10 --pairs 10 --base HEAD --out BENCH_long_video_qa.json

Runs ``perfbench/run.py`` (untraced) for ``--pairs`` pairs per seed. One
side of a pair is a detached ``git worktree`` of ``--base`` in a temporary
directory; the other, the change, is this working tree as it stands,
uncommitted edits included. The side that goes first alternates from pair
to pair, so a drift in the machine's speed falls on both. Each run prints
``digest <side> <hex>`` (its reference-output digest). After each seed's
pairs, every end-to-end metric is listed with each side's median and
quartiles and the number of pairs the change won, by the direction
``BENCHMARK.json`` gives for it. ``--out`` writes the same record, every run
included, as JSON. Exits 1 when any run fails its gates. Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of `checkout`'s runner: its digest, gate result and
    end-to-end metrics."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    run = {
        "digest": digest,
        "correct": proc.returncode == 0 and bool(result.get("correct")),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
    }
    if not run["correct"]:
        run["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return run


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; a single value is all three)."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and how many pairs the
    change beat the base in (a tie is no win)."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for name in better:
        if not pairs or any(name not in p["base"] or name not in p["change"] for p in pairs):
            continue
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        out[name] = {
            "better": better[name],
            "base": _spread(base),
            "change": _spread(change),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True, help="one or more seeds")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True, help="pairs per seed")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--out", help="write the record as JSON to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "base": base_sha,
        "change": f"working tree on {_git('rev-parse', 'HEAD')}",
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "seeds": [],
    }
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        worktree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(worktree), base_sha)
        try:
            sides = {"base": worktree, "change": ROOT}
            for seed in args.seed:
                runs = []
                for pair in range(args.pairs):
                    order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                    for position, side in enumerate(order):
                        run = _run(sides[side], args.workload, seed, args.seconds)
                        run.update(pair=pair, side=side, position=position)
                        runs.append(run)
                        failed += not run["correct"]
                        ops = run["metrics"].get("ops_per_s", float("nan"))
                        print(f"digest {side} {run['digest']}")
                        print(f"  seed {seed} pair {pair} {side:<6} ops_per_s {ops:.1f}"
                              + ("" if run["correct"] else "  FAILED"), flush=True)
                summary = summarize(runs, better)
                for name, row in summary.items():
                    b, c = row["base"], row["change"]
                    print(f"{name:<22} base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
                          f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
                          f"change won {row['change_wins']}/{row['pairs']} "
                          f"({row['better']} is better)")
                record["seeds"].append({
                    "seed": seed,
                    "digests_equal": len({run["digest"] for run in runs}) == 1,
                    "summary": summary,
                    "runs": runs,
                })
        finally:
            _git("worktree", "remove", "--force", str(worktree))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
