"""Alternating parent/change pairs of the benchmark, summarized against its bounds.

    python3 tools/bench_pairs.py --parent REV --seeds 3 4 5 6 7 8 9 10 11 12 \
        --workload trace-long --out BENCH.json

Extracts the parent and the change, which is always HEAD, with `git
archive` into two sibling directories of one fresh temporary directory, so
both sit at the same depth under names of the same length.  To measure
another revision, check it out first.  For each seed it runs one
pair of `python3 bench/run.py --workload W --seed S --trace 0`, one run
per side, alternating which side runs first.  Every run lasts
BENCHMARK.json's run_seconds on both sides.  Each workload named (all of
BENCHMARK.json's by default) gets one pair per seed.

The JSON written to --out holds, per workload and end-to-end metric of
BENCHMARK.json: each side's median, the parent's quartiles, the change's
wins (ties count for neither side) and a verdict:

  regression    the change's median is worse than the parent's by more
                than the metric's bound;
  gain          the change wins at least 9 in 10 pairs, its median is
                better by more than the parent's interquartile range, and
                it fails no larger share of ops than the parent;
  unresolved    the parent's interquartile range is wider than the bound
                and not every change run beats every parent run;
  within bound  otherwise.

It also keeps every run's values and each side's failed and attempted op
counts.  Standard library only, so it runs wherever the benchmark does.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: The benchmark ends its own loop well inside three minutes; this only stops a hung run.
RUN_TIMEOUT_S = 600


def extract(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into `dest`; return the full commit id."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`: the JSON of its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py imports its own src/
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3


def judge(metric: dict, parent: list, change: list) -> dict:
    """Medians, parent quartiles, wins and verdict of one metric over paired runs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = quartiles(parent)
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    bound = metric["bound"]
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse_by > bound:
        verdict = "regression"
    elif wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1:
        verdict = "gain"
    elif p_med and (q3 - q1) / abs(p_med) > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent_median": p_med,
        "change_median": c_med,
        "change_vs_parent": (c_med - p_med) / p_med if p_med else None,
        "parent_quartiles": [q1, q3],
        "change_quartiles": quartiles(change)[::2],
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "verdict": verdict,
    }


def summarize(metrics: list, runs: list) -> dict:
    """Per-metric judgement and per-side op counts of one workload's paired runs."""
    out = {"metrics": {}, "ops": {}}
    for side in SIDES:
        attempted = sum(run[side]["attempted"] for run in runs)
        failed = sum(run[side]["failed"] for run in runs)
        out["ops"][side] = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted if attempted else None,
            "all_correct": all(run[side]["correct"] for run in runs),
        }
    fail_ratio = {side: out["ops"][side]["fail_ratio"] or 0.0 for side in SIDES}
    for metric in metrics:
        name = metric["name"]
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        judged = out["metrics"][name] = judge(metric, values["parent"], values["change"])
        if fail_ratio["change"] > fail_ratio["parent"] and judged["verdict"] == "gain":  # a gain that fails more ops is no gain
            judged["verdict"] = "within bound"
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision the change is measured against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default all")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    base = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        dirs = {side: base / side for side in SIDES}
        shas = {side: extract(rev, dirs[side]) for side, rev in zip(SIDES, (args.parent, "HEAD"))}
        report = {
            "parent": shas["parent"],
            "change": shas["change"],
            "seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "workloads": {},
        }
        for workload in args.workload or names:
            runs = []
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(dirs[side], workload, seed, bench["run_seconds"])
                runs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']['value']:.4g}" for side in SIDES
                ), flush=True)
            summary = summarize(bench["end_to_end"], runs)
            summary["runs"] = [
                {"seed": r["seed"], "first": r["first"],
                 **{side: {m["name"]: r[side]["metrics"][m["name"]]["value"] for m in bench["end_to_end"]}
                    for side in SIDES}}
                for r in runs
            ]
            report["workloads"][workload] = summary
            for name, m in summary["metrics"].items():
                print(f"  {workload:<13} {name:<18} {m['parent_median']:>12.5g} -> {m['change_median']:<12.5g} "
                      f"wins {m['wins']}/{m['pairs']}  {m['verdict']}", flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
