"""infodyn benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  With `--trace 0` it measures the end-to-end metrics with no
tracing; with `--trace 1` it first runs untraced for half the time, then
runs the same operations again with layer spans (bench/spans.py) and
reports the per-layer metrics, bare-numpy floors and the tracing overhead.
Every operation is checked against an oracle that does not use infodyn
(bench/oracles.py), and the benchmark's own self-test (bench/selftest.py)
runs first.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines above it print
the environment and every metric by name with its unit.

BLAS and OpenMP are pinned to one thread before numpy loads.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import selftest  # noqa: E402
import spans  # noqa: E402
from workloads import API, WORKLOADS, exported_names, judge, run_probe  # noqa: E402

perf = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Set-up is measured this many times, each in a fresh process.
SETUP_SAMPLES = 5
#: Start-up probes per command in the traced run.
STARTUP_SAMPLES = 7
#: Fewest operations per run, so that p90 has ten samples beyond it.
MIN_OPS = 100
#: The measuring loop stops here whatever the op count, to end well
#: inside the three-minute limit on a run.
LOOP_DEADLINE_S = 110.0


def load_package(build: bool = False):
    """Import infodyn from this checkout's src/, or exit without a result.

    `build` first byte-compiles the sources, as an install would, so that
    every command-line process reads the same bytecode cache.
    """
    if not (SRC / "infodyn" / "__init__.py").is_file():
        sys.exit(f"bench: no infodyn sources under {SRC}")
    if build:
        compileall.compile_dir(str(SRC / "infodyn"), quiet=1)
    sys.path.insert(0, str(SRC))
    try:
        import infodyn
        import infodyn.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import infodyn from {SRC}: {exc}")
    if Path(infodyn.__file__).resolve().parent != (SRC / "infodyn").resolve():
        sys.exit(f"bench: imported infodyn from {infodyn.__file__}, not from {SRC}")
    return infodyn


class Stats:
    """Outcome of a closed-loop run: latencies, failures and work done."""

    def __init__(self):
        self.latencies: list[float] = []
        self.timed = 0.0
        self.verified = 0
        self.work = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, seconds: float, reason, work: int) -> None:
        self.timed += seconds
        if reason is None:
            self.latencies.append(seconds)
            self.verified += 1
            self.work += work
        else:
            # a failed operation ranks slower than any success
            self.latencies.append(math.inf)
            self.failures.append(reason)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the per-operation latencies."""
        ordered = sorted(self.latencies)
        return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(wl, seconds, *, tracer=None, n_ops=None, floors=None, between=None) -> Stats:
    """Closed loop: the next operation starts when the previous one ends.

    Stops at a cycle boundary once `seconds` of timed work and MIN_OPS
    operations are done, or after exactly `n_ops` operations.  Input
    generation and oracles run between operations, outside the timing;
    so does `between(stats)`, called at every cycle boundary.
    """
    stats = Stats()
    cycle = len(wl.cycle)
    deadline = perf() + LOOP_DEADLINE_S
    i = 0
    while True:
        spec = wl.spec(i)
        error = None
        t0 = perf()
        try:
            result = tracer.span(spans.ROOT_KEY, wl.run, spec) if tracer else wl.run(spec)
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf() - t0
        if tracer is not None:
            for layer, s in spans.time_floors(tracer.floor_inputs).items():
                floors[layer] += s
            tracer.floor_inputs.clear()
        reason = error or judge(wl, spec, result)
        stats.add(elapsed, reason, wl.work(spec))
        result = None
        i += 1
        if i % cycle == 0 and between is not None:
            between(stats)
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % cycle == 0 and stats.timed >= seconds and i >= MIN_OPS:
            break
        if perf() > deadline:
            break
    return stats


def warm_up(wl) -> None:
    """One untimed operation per warm-up slot, on inputs the run never uses."""
    base = 10**7 // len(wl.cycle) * len(wl.cycle)
    for slot in wl.warmup_slots:
        wl.run(wl.spec(base + slot))


def setup_probe(args) -> None:
    """Child side of a set-up sample: set up, warm up, print the clock."""
    pkg = load_package()
    workdir = BUILD / f"setup-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](pkg, args.seed, workdir)
        wl.setup()
        wl.spec(0)
        warm_up(wl)
        print(repr(perf()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class SetupSampler:
    """Process start to first timed op, each sample in a fresh process.

    Samples are spread over the measuring loop, one per `seconds /
    SETUP_SAMPLES` of timed work, so that they see the same machine load
    as the operations.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
                    "--seed", str(args.seed)]
        self.every = args.seconds / SETUP_SAMPLES
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)

    def __call__(self, stats: Stats) -> None:
        if len(self.samples) < SETUP_SAMPLES and stats.timed >= len(self.samples) * self.every:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return self.samples


def startup_probes(env) -> dict:
    """Median start-up layers of a fresh interpreter, timed from inside it.

    Python start-up runs from spawn to the child's first statement; the
    two imports are timed by the child itself, numpy first.  Exit is not
    timed, so the parent's way of waiting cannot quantize the result.
    """
    code = (
        "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
        "import infodyn.cli; print(t0, t1, time.perf_counter())"
    )
    samples = []
    for _ in range(STARTUP_SAMPLES):
        spawn = perf()
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        t0, t1, t2 = map(float, done.stdout.split())
        samples.append((t0 - spawn, t1 - t0, t2 - t1))
    python, numpy, infodyn = (statistics.median(s) * 1e3 for s in zip(*samples))
    return {
        "startup.python_ms": python,
        "startup.numpy_import_ms": numpy,
        "startup.infodyn_import_ms": infodyn,
    }


def run_defect_probes(wl) -> list[tuple[str, str | None]]:
    return [(label, run_probe(wl, spec)) for label, spec in wl.defect_probes()]


def environment(pkg, args) -> list[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"python={sys.version.split()[0]} numpy={np.__version__} infodyn={getattr(pkg, '__version__', '?')}",
        f"blas={blas_text} threads: {threads} nproc={os.cpu_count()}",
    ]


def e2e_metrics(stats: Stats, setup: list[float], rss_mb: float) -> dict:
    """End-to-end values from the untraced run; name -> (value, unit)."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (stats.verified / stats.timed, "1/s"),
        "state_steps_per_s": (stats.work / stats.timed, "1/s"),
        "op_p50_ms": (stats.percentile(0.5) * 1e3, "ms"),
        "op_p90_ms": (stats.percentile(0.9) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


MEASURES_FNS = tuple(spans.FUNCTION_KEYS["infodyn.measures"])


def layer_metrics(tr, traced: Stats, untraced: Stats, floors, startup: dict, defects) -> dict:
    """Per-layer values from the traced run; name -> (value, unit)."""
    S, inc, C, N = tr.self_s, tr.incl_s, tr.calls, tr.count
    m = {name: (value, "ms") for name, value in startup.items()}
    m["cli.main_self_ms"] = (S["cli"] * 1e3, "ms")
    m["io.load_ms"] = (S["io.load"] * 1e3, "ms")
    m["io.load_calls"] = (C["io.load"], "count")
    m["io.bytes_read"] = (N["io.bytes_read"], "bytes")
    m["io.render_ms"] = (S["io.render"] * 1e3, "ms")
    m["io.bytes_written"] = (N["io.bytes_written"], "bytes")
    m["io.write_ms"] = (S["io.write"] * 1e3, "ms")
    m["markov.construct_s"] = (S["markov.construct"], "s")
    m["markov.construct_calls"] = (C["markov.construct"], "count")
    for layer in ("evolve", "rk4", "stationary"):
        key = f"markov.{layer}"
        m[f"{key}_s"] = (S[key], "s")
        m[f"{key}_incl_s"] = (inc[key], "s")
        m[f"{key}_floor_s"] = (floors[layer], "s")
        m[f"{key}_overhead_x"] = (inc[key] / floors[layer] if floors[layer] else 0.0, "x")
    m["markov.stationary_calls"] = (C["markov.stationary"], "count")
    # solves that raised in the traced stream, plus defect probes whose solve
    # raised or whose law missed the oracle
    bad_solves = sum(1 for _, r in defects if r and (r.startswith("stationary law") or "NonErgodicError" in r))
    m["markov.stationary_failed"] = (tr.failed["markov.stationary"] + bad_solves, "count")
    m["markov.check_balance_s"] = (S["markov.check_balance"], "s")
    m["measures.eval_s"] = (sum(S[f"measures.{f}"] for f in MEASURES_FNS), "s")
    m["measures.eval_calls"] = (sum(C[f"measures.{f}"] for f in MEASURES_FNS), "count")
    for f in MEASURES_FNS:
        m[f"measures.{f}_s"] = (S[f"measures.{f}"], "s")
        m[f"measures.{f}_calls"] = (C[f"measures.{f}"], "count")
    m["measures.construct_s"] = (S["measures.construct"], "s")
    m["convexity.calls"] = (N["convexity.calls"], "count")
    m["convexity.cells"] = (N["convexity.cells"], "count")
    m["convexity.cells_per_call"] = (N["convexity.cells"] / N["convexity.calls"] if N["convexity.calls"] else 0.0, "count")
    m["convexity.s"] = (S["convexity.eval"], "s")
    m["convexity.build_s"] = (S["convexity.build"], "s")
    m["monotonicity.trace_self_s"] = (S["monotonicity.trace"], "s")
    m["monotonicity.verdict_s"] = (S["monotonicity.verdict"], "s")
    m["monotonicity.series_s"] = (S["monotonicity.series"], "s")
    m["bounds.sweep_ms"] = (S["bounds.sweep"] * 1e3, "ms")
    m["bounds.grid_points"] = (N["bounds.grid_points"], "count")
    m["bench.self_s"] = (S["bench"], "s")
    m["trace.wall_s"] = (traced.timed, "s")
    m["trace.coverage"] = (sum(S.values()) / traced.timed, "ratio")
    m["trace.spans"] = (tr.spans, "count")
    m["tracing.overhead_ratio"] = (traced.timed / untraced.timed, "ratio")
    failed = sum(1 for _, reason in defects if reason is not None)
    m["defects.attempted"] = (len(defects), "count")
    m["defects.failed"] = (failed, "count")
    m["defects.fail_ratio"] = (failed / len(defects), "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-mix", "trace-long", "large-chains"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0

    pkg = load_package(build=True)
    missing = set(API) - exported_names(pkg)
    if missing:
        sys.exit(f"bench: infodyn no longer exports {sorted(missing)}")
    cls = WORKLOADS[args.workload]
    BUILD.mkdir(exist_ok=True)
    workdir = BUILD / f"{args.workload}-{args.seed}-{os.getpid()}"
    lines = environment(pkg, args)
    try:
        checks, problems = selftest.run(cls, pkg, args.seed, workdir / "selftest")
        lines.append(f"self-test: {checks} checks, {len(problems)} problems" + "".join(f"\n  {p}" for p in problems))

        if args.trace == 0:
            wl = cls(pkg, args.seed, workdir / "run")
            wl.setup()
            warm_up(wl)
            sampler = SetupSampler(args)
            stats = measure(wl, args.seconds, between=sampler)
            setup = sampler.finish()
            if hasattr(wl, "max_child_rss_kb"):
                rss_mb = wl.max_child_rss_kb / 1024.0
            else:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            defects = run_defect_probes(wl)
            metrics = e2e_metrics(stats, setup, rss_mb)
            attempted, failures = stats.attempted, stats.failures
            lines.append(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
            lines.append(f"percentiles over n={stats.attempted} ops; p90 has "
                         f"{stats.attempted - math.ceil(0.9 * stats.attempted)} samples beyond it; "
                         f"{stats.attempted // len(wl.cycle)} whole cycles of {len(wl.cycle)} ops")
        else:
            wl = cls(pkg, args.seed, workdir / "run", inprocess=True)
            wl.setup()
            warm_up(wl)
            untraced = measure(wl, args.seconds / 2)
            tracer = spans.Tracer()
            floors = defaultdict(float)
            tracer.install()
            try:
                traced = measure(wl, None, tracer=tracer, n_ops=untraced.attempted, floors=floors)
            finally:
                tracer.uninstall()
            tracer.dump(BUILD / f"spans-{args.workload}-{args.seed}.npz")
            startup = startup_probes(wl.env if hasattr(wl, "env") else dict(os.environ, PYTHONPATH=str(SRC)))
            attempted = untraced.attempted + traced.attempted
            failures = untraced.failures + traced.failures
            defects = run_defect_probes(wl)
            metrics = layer_metrics(tracer, traced, untraced, floors, startup, defects)
            lines.append(f"traced {traced.attempted} ops after the same {untraced.attempted} untraced; "
                         f"spans written to {BUILD.name}/spans-{args.workload}-{args.seed}.npz")

        failed = len(failures)
        lines.append(f"ops: attempted={attempted} verified={attempted - failed} failed={failed} "
                     f"fail_ratio={failed / attempted:.4f} ({failed}/{attempted})")
        for reason in failures[:5]:
            lines.append(f"  failed: {reason}")
        bad = [(label, reason) for label, reason in defects if reason is not None]
        lines.append(f"known-defect probes: {len(bad)} of {len(defects)} fail (outside the timed stream)")
        for label, reason in bad:
            lines.append(f"  {label}: {reason[:160]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print("# " + line.replace("\n", "\n# "))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
