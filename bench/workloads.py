"""The three workloads: their inputs, their operations and their checks.

A workload is a fixed cycle of operation slots.  Operation `i` uses slot
`i % len(cycle)` with inputs drawn from `inputs.rng(seed, i)`, so every
run of a seed sees the same inputs and every seed the same mix of sizes.
`run(spec)` is the timed call into infodyn; `parse` and `compare` (the
oracle) run outside the timed region.  Every workload also carries a few
known-defect probes: inputs the package is documented to get wrong today,
run outside the timed stream and tallied on their own.

Only names exported by the `infodyn` package and `infodyn.cli.main` are
called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import oracles as orc

#: Package names the workloads call; checked against the package's exports.
API = (
    "Distribution StochasticMatrix RateMatrix MeasureFamily TimeSeries stationary_distribution "
    "check_balance integrate_master_equation trace_functional verdict shannon_entropy "
    "kl_divergence f_divergence builtin perspective"
).split()


def exported_names(pkg) -> set:
    return set(getattr(pkg, "__all__", None) or (n for n in dir(pkg) if not n.startswith("_")))


class Failed(Exception):
    """An operation's output did not pass its oracle."""


def perturb_array(a) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    mid = a.size // 2
    a.flat[mid] += 1e-6 * (1.0 + abs(a.flat[mid]))
    return a


# ====================================================================== trace-long


def _continuous_trace(pkg, kind, w, p0, dt, steps):
    """Master-equation trace the way the command line builds it."""
    chain = pkg.RateMatrix(w)
    init = pkg.Distribution(p0)
    path = pkg.integrate_master_equation(chain, init, dt, dt * (steps + 0.5))
    if kind == "entropy":
        values = [pkg.shannon_entropy(p) for _, p in path]
    else:
        pi = pkg.stationary_distribution(chain).probs
        values = [pkg.kl_divergence(p.probs, pi) for _, p in path]
    return pkg.TimeSeries([t for t, _ in path], values)


class TraceLong:
    """Long in-process traces: per-step overhead of the trajectory layers.

    Slots cover all nine trace kinds at n = 8 and n = 64 on discrete
    chains, and master-equation traces (entropy on symmetric rates, KL to
    the stationary law) at both sizes.  The stationary solve runs once
    per trace at small n, so it is nearly absent from the time.
    """

    name = "trace-long"
    LONG, SHORT = 2000, 250
    Q = {  # (kind, n) -> convex function spec; v_functional uses its perspective
        ("u_functional", 8): "neg_sqrt",
        ("u_functional", 64): "neg_log",
        ("j_functional", 8): "neg_log",
        ("j_functional", 64): "neg_sqrt",
        ("v_functional", 8): "square",
        ("v_functional", 64): "neg_log",
    }

    def __init__(self, pkg, seed: int, workdir: Path, inprocess: bool = True):
        self.pkg, self.seed = pkg, seed
        self.cycle = [("discrete", k, n) for n in (8, 64) for k in orc.DIRECTION]
        self.cycle += [("continuous", k, n) for n in (8, 64) for k in ("entropy", "kl_to_stationary")]
        self.warmup_slots = [0, len(self.cycle) - 4]

    def setup(self) -> None:
        pass

    def spec(self, i: int) -> dict:
        time_kind, kind, n = self.cycle[i % len(self.cycle)]
        g = inputs.rng(self.seed, i)
        s = {"time": time_kind, "kind": kind, "n": n, "p0": inputs.law(g, n)}
        if time_kind == "continuous":
            s["w"] = inputs.rates(g, n, symmetric=kind == "entropy")
            s["dt"] = 0.5 / float(s["w"].sum(axis=1).max())
            s["steps"] = self.LONG
            return s
        s["steps"] = self.SHORT if kind in ("j_functional", "v_functional") else self.LONG
        s["T"] = inputs.doubly_stochastic(g, n) if kind == "entropy" else inputs.dense_kernel(g, n)
        s["q"] = self.Q.get((kind, n))
        if kind == "kl_pair":
            s["p0b"] = inputs.law(g, n)
        if kind == "v_functional":
            s["family"] = inputs.measures(g, 3, n)
        return s

    def work(self, spec) -> int:
        return spec["n"] * (spec["steps"] + 1)

    def run(self, spec):
        pkg = self.pkg
        kind = spec["kind"]
        if spec["time"] == "continuous":
            series = _continuous_trace(pkg, kind, spec["w"], spec["p0"], spec["dt"], spec["steps"])
        else:
            q = spec["q"] and pkg.builtin(spec["q"])
            if kind == "v_functional":
                q = pkg.perspective(q)
            inits = {"init": pkg.Distribution(spec["p0"])}
            if "p0b" in spec:
                inits["init2"] = pkg.Distribution(spec["p0b"])
            if "family" in spec:
                inits["family"] = pkg.MeasureFamily(spec["family"])
            series = pkg.trace_functional(kind, pkg.StochasticMatrix(spec["T"]), q=q, inits=inits, steps=spec["steps"])
        holds = pkg.verdict(series, orc.DIRECTION[kind]).holds
        return series.times, series.values, holds

    def parse(self, spec, result):
        times, values, holds = result
        return np.asarray(times, dtype=float), np.asarray(values, dtype=float), holds

    def reference(self, spec):
        kind, steps = spec["kind"], spec["steps"]
        if spec["time"] == "continuous":
            traj = orc.rk4(spec["w"], spec["p0"], spec["dt"], steps)
            if kind == "entropy":
                ref = orc.entropy_rows(traj)
            else:
                ref = orc.kl_rows(traj, orc.bordered_solve(spec["w"], True))
            return spec["dt"] * np.arange(steps + 1), ref
        pi = None if kind in ("entropy", "kl_pair", "j_functional", "v_functional") else orc.bordered_solve(spec["T"], False)
        ref = orc.reference_series(
            kind, spec["T"], spec["p0"], steps, pi=pi, q=spec["q"], p0b=spec.get("p0b"), family=spec.get("family")
        )
        return np.arange(steps + 1, dtype=float), ref

    def compare(self, spec, parsed):
        times, values, holds = parsed
        ref_t, ref = self.reference(spec)
        if not orc.close(times, ref_t, rtol=1e-12, atol=1e-12):
            return "time points differ"
        return orc.check_series(times, values, ref, orc.DIRECTION[spec["kind"]], holds)

    def perturbed(self, parsed):
        times, values, holds = parsed
        return [(times, perturb_array(values), holds), (times, values, False)]

    def defect_probes(self):
        """Defect (c): kernels read from 13-digit decimal text drift in mass
        along a 2000-step trace.  The right answer is the reference series."""
        out = []
        for j, n in enumerate((8, 8, 64, 64)):
            g = inputs.rng(self.seed, 10**6 + j)
            spec = {"time": "discrete", "kind": "kl_to_stationary", "n": n, "steps": self.LONG, "q": None,
                    "p0": inputs.law(g, n), "T": inputs.decimal_text_kernel(g, n)}
            out.append((f"decimal-text kernel n={n}", spec))
        return out


# ====================================================================== large-chains


class LargeChains:
    """One operation per distinct chain: stationary_distribution, then
    check_balance, then a short u_functional trace.

    Dense kernels run from n = 32 to 2048, across the n = 64 switch between
    the direct and the iterative solver; birth-death chains (lazy discrete
    and continuous, load 0.9 and 0.5) stay at n <= 64, where today's solver
    meets the elementwise bound.  The solver, BLAS work and vectorized
    functionals dominate; per-step overhead is amortised.
    """

    name = "large-chains"
    STEPS = 30
    DENSE = (2048, 1024, 512, 512, 256, 256, 128, 128, 96, 96, 64, 64, 32)

    def __init__(self, pkg, seed: int, workdir: Path, inprocess: bool = True):
        self.pkg, self.seed = pkg, seed
        self.cycle = [("dense", n, None, False) for n in self.DENSE]
        self.cycle += [("bd", n, 0.9, c) for c in (False, True) for n in (16, 32, 48, 64)]
        self.cycle += [("bd", 16, 0.5, c) for c in (False, True)]
        self.warmup_slots = [len(self.DENSE) - 1, len(self.DENSE) - 3, len(self.cycle) - 1]

    def setup(self) -> None:
        pass

    def _make(self, g, family, n, load, continuous):
        s = {"family": family, "n": n, "continuous": continuous, "steps": self.STEPS}
        if family == "dense":
            s["matrix"] = inputs.dense_kernel(g, n)
        else:
            s["matrix"], s["up"], s["down"] = inputs.birth_death(g, n, load, continuous)
        s["p0"] = inputs.law(g, n)
        if continuous:
            s["dt"] = 0.5 / float(s["matrix"].sum(axis=1).max())
        return s

    def spec(self, i: int) -> dict:
        return self._make(inputs.rng(self.seed, i), *self.cycle[i % len(self.cycle)])

    def work(self, spec) -> int:
        return spec["n"] * (spec["steps"] + 1)

    def run(self, spec):
        pkg = self.pkg
        q = pkg.builtin("neg_sqrt")
        init = pkg.Distribution(spec["p0"])
        chain = (pkg.RateMatrix if spec["continuous"] else pkg.StochasticMatrix)(spec["matrix"])
        pi = pkg.stationary_distribution(chain)
        report = pkg.check_balance(chain, pi)
        if spec["continuous"]:
            dt = spec["dt"]
            path = pkg.integrate_master_equation(chain, init, dt, dt * (spec["steps"] + 0.5))
            values = [pkg.f_divergence(q, pi, p) for _, p in path]
        else:
            values = pkg.trace_functional("u_functional", chain, q=q, inits={"init": init}, steps=spec["steps"]).values
        flags = (
            report.is_doubly_stochastic,
            report.satisfies_global_balance,
            report.satisfies_detailed_balance,
            report.max_residual,
        )
        return pi.probs, flags, values

    def parse(self, spec, result):
        pi, flags, values = result
        return np.asarray(pi, dtype=float), flags, np.asarray(values, dtype=float)

    def reference_law(self, spec):
        if spec["family"] == "bd":
            return orc.birth_death_law(spec["up"], spec["down"])
        return orc.bordered_solve(spec["matrix"], spec["continuous"])

    def compare(self, spec, parsed):
        pi, flags, values = parsed
        m, cont = spec["matrix"], spec["continuous"]
        ref_pi = self.reference_law(spec)
        reason = orc.check_law(pi, m, cont, ref_pi)
        if reason:
            return "stationary law: " + reason
        reason = orc.check_balance_report(flags, m, cont, ref_pi, tol=1e-9)
        if reason:
            return "check_balance: " + reason
        if cont:
            traj = orc.rk4(m, spec["p0"], spec["dt"], spec["steps"])
        else:
            traj = orc.propagate(m, spec["p0"], spec["steps"])
        ref = orc.ratio_rows("neg_sqrt", ref_pi, traj)
        return orc.check_series(np.arange(ref.size, dtype=float), values, ref, "non_increasing")

    def perturbed(self, parsed):
        pi, flags, values = parsed
        moved = pi.copy()
        moved[0] *= 1.0 + 1e-6
        moved[1] -= moved[0] - pi[0]
        flipped = (not flags[0],) + tuple(flags[1:])
        return [(moved, flags, values), (pi, flipped, values), (pi, flags, perturb_array(values))]

    def defect_probes(self):
        """Defect (a): birth-death laws with tiny entries, on both sides of
        the n = 64 switch, miss the elementwise bound or raise."""
        out = []
        for j, (n, load, cont) in enumerate(((48, 0.5, False), (64, 0.5, True), (96, 0.9, False), (128, 0.9, True))):
            spec = self._make(inputs.rng(self.seed, 10**6 + j), "bd", n, load, cont)
            out.append((f"birth-death n={n} load={load} {'continuous' if cont else 'discrete'}", spec))
        return out


# ====================================================================== cli-mix


def _json(obj) -> str:
    return json.dumps(obj) + "\n"


def _chain_doc(matrix, continuous=False) -> str:
    return _json({"kind": "continuous" if continuous else "discrete", "n": len(matrix), "matrix": matrix.tolist()})


def _law_doc(p) -> str:
    return _json({"probs": p.tolist()})


def _parse_csv(text: str):
    lines = text.splitlines()
    header, rows = lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


class CliMix:
    """Sequential `python -m infodyn.cli` processes on small fixture files.

    Start-up, argument parsing, file loading and validation, and rendering
    do most of the work; the numeric layers do almost none.  This is what
    a shell user waits for.  One slot in 21 feeds a malformed or invalid
    input that must exit with its documented status.
    """

    name = "cli-mix"
    VARIANTS = 2
    INVALID = (  # (case, documented exit status)
        ("truncated", 1),
        ("bad_rows", 2),
        ("missing_file", 1),
        ("bad_q", 1),
        ("bad_ratio", 2),
        ("bad_choice", 1),
    )

    def __init__(self, pkg, seed: int, workdir: Path, inprocess: bool = False):
        self.pkg, self.seed, self.inprocess = pkg, seed, inprocess
        self.workdir = Path(workdir)
        self.fx = self.workdir / "fx"
        self.out = self.workdir / "out"
        self.cycle = [self._slot_evolve_entropy, self._slot_evolve_kl_to, self._slot_evolve_u, self._slot_evolve_v,
                      self._slot_evolve_cont_entropy, self._slot_check, self._slot_check_pi, self._slot_fdiv,
                      self._slot_mi, self._slot_lautum, self._slot_zz, self._slot_measure_v, self._slot_bounds_log,
                      self._slot_bounds_linear, self._slot_evolve_kl_from, self._slot_evolve_circuit,
                      self._slot_evolve_bhatt, self._slot_evolve_kl_pair, self._slot_evolve_j,
                      self._slot_evolve_cont_kl, None]  # None: the invalid-input slot
        self.warmup_slots = []
        self.env = dict(os.environ)
        src = str(Path(pkg.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.max_child_rss_kb = 0
        self._specs = {}

    # -- fixtures

    def fixtures(self) -> dict:
        """Every fixture text by file name, plus the specs that use them."""
        files = {}
        for v in range(self.VARIANTS):
            for slot, make in enumerate(self.cycle[:-1]):
                g = inputs.rng(self.seed, slot * self.VARIANTS + v)
                self._specs[(slot, v)] = make(g, f"s{slot:02d}v{v}", files)
        for k in range(len(self.INVALID)):
            self._specs[("invalid", k)] = self._invalid(inputs.rng(self.seed, 1000 + k), k, files)
        return files

    def setup(self) -> None:
        files = self.fixtures()
        self.fx.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (self.fx / name).write_text(text)

    def selftest_specs(self) -> list:
        """One variant of every slot and every invalid-input case."""
        return [self._specs[(slot, 0)] for slot in range(len(self.cycle) - 1)] + [
            self._specs[("invalid", k)] for k in range(len(self.INVALID))
        ]

    def spec(self, i: int) -> dict:
        slot = i % len(self.cycle)
        cycle = i // len(self.cycle)
        if slot == len(self.cycle) - 1:
            return self._specs[("invalid", cycle % len(self.INVALID))]
        return self._specs[(slot, cycle % self.VARIANTS)]

    def work(self, spec) -> int:
        return spec.get("work", 0)

    def _f(self, name) -> str:
        return str(self.fx / name)

    def _evolve(self, files, tag, matrix, kind, steps, ref, fmt, to_file, extra=(), continuous=False):
        files[f"{tag}_chain.json"] = _chain_doc(matrix, continuous)
        argv = ["--format", fmt] if fmt else []
        out = None
        if to_file:
            out = str(self.out / f"{tag}.{fmt or 'csv'}")
            argv += ["--out", out]
        argv += ["evolve", "--chain", self._f(f"{tag}_chain.json"), "--functional", kind, *extra]
        if not continuous:
            argv += ["--steps", str(steps)]
        return {"argv": argv, "out": out, "expect": "trace", "fmt": fmt or "csv", "ref": ref,
                "direction": orc.DIRECTION[kind], "work": len(matrix) * (steps + 1)}

    def _init_file(self, files, tag, p, key="init") -> list:
        files[f"{tag}_{key}.json"] = _law_doc(p)
        return [f"--{key}", self._f(f"{tag}_{key}.json")]

    def _slot_evolve_entropy(self, g, tag, files):
        t, p0 = inputs.doubly_stochastic(g, 8), inputs.law(g, 8)
        ref = lambda: (np.arange(61.0), orc.entropy_rows(orc.propagate(t, p0, 60)))
        return self._evolve(files, tag, t, "entropy", 60, ref, None, False, self._init_file(files, tag, p0))

    def _slot_evolve_kl_to(self, g, tag, files):
        t = inputs.dense_kernel(g, 16)
        ref = lambda: (np.arange(61.0), orc.kl_rows(orc.propagate(t, np.full(16, 1.0 / 16), 60), orc.bordered_solve(t, False)))
        return self._evolve(files, tag, t, "kl_to_stationary", 60, ref, "json", True, ["--init", "uniform"])

    def _slot_evolve_u(self, g, tag, files):
        t, p0 = inputs.dense_kernel(g, 32), inputs.law(g, 32)
        ref = lambda: (np.arange(41.0), orc.ratio_rows("neg_sqrt", orc.bordered_solve(t, False), orc.propagate(t, p0, 40)))
        extra = self._init_file(files, tag, p0) + ["--q", "neg_sqrt"]
        return self._evolve(files, tag, t, "u_functional", 40, ref, "csv", True, extra)

    def _slot_evolve_v(self, g, tag, files):
        t, fam = inputs.dense_kernel(g, 8), inputs.measures(g, 2, 8)
        files[f"{tag}_family.json"] = _json({"measures": fam.tolist()})
        ref = lambda: (np.arange(31.0), orc.ratio_rows("neg_log", *(orc.propagate(t, row, 30) for row in fam)))
        extra = ["--family", self._f(f"{tag}_family.json"), "--q", "neg_log"]
        return self._evolve(files, tag, t, "v_functional", 30, ref, "json", False, extra)

    def _continuous(self, g, tag, files, n, kind, fmt, to_file):
        w, p0 = inputs.rates(g, n, symmetric=kind == "entropy"), inputs.law(g, n)
        steps = 100
        dt = 0.5 / float(w.sum(axis=1).max())

        def ref():
            traj = orc.rk4(w, p0, dt, steps)
            values = orc.entropy_rows(traj) if kind == "entropy" else orc.kl_rows(traj, orc.bordered_solve(w, True))
            return dt * np.arange(steps + 1), values

        extra = self._init_file(files, tag, p0) + ["--dt", repr(dt), "--horizon", repr(dt * (steps + 0.5))]
        return self._evolve(files, tag, w, kind, steps, ref, fmt, to_file, extra, True)

    def _slot_evolve_cont_entropy(self, g, tag, files):
        return self._continuous(g, tag, files, 8, "entropy", None, False)

    def _slot_evolve_cont_kl(self, g, tag, files):
        return self._continuous(g, tag, files, 16, "kl_to_stationary", "json", True)

    def _slot_evolve_kl_from(self, g, tag, files):
        t, p0 = inputs.dense_kernel(g, 64), inputs.law(g, 64)
        ref = lambda: (np.arange(31.0), orc.kl_rows(orc.bordered_solve(t, False), orc.propagate(t, p0, 30)))
        return self._evolve(files, tag, t, "kl_from_stationary", 30, ref, "csv", False, self._init_file(files, tag, p0))

    def _slot_evolve_circuit(self, g, tag, files):
        t, p0 = inputs.dense_kernel(g, 48), inputs.law(g, 48)
        ref = lambda: (np.arange(41.0), orc.reference_series("circuit_energy", t, p0, 40, pi=orc.bordered_solve(t, False)))
        return self._evolve(files, tag, t, "circuit_energy", 40, ref, "json", True, self._init_file(files, tag, p0))

    def _slot_evolve_bhatt(self, g, tag, files):
        t, p0 = inputs.dense_kernel(g, 16), inputs.law(g, 16)
        ref = lambda: (np.arange(51.0), orc.reference_series("bhattacharyya", t, p0, 50, pi=orc.bordered_solve(t, False)))
        return self._evolve(files, tag, t, "bhattacharyya", 50, ref, "csv", False, self._init_file(files, tag, p0))

    def _slot_evolve_kl_pair(self, g, tag, files):
        t, p0, p1 = inputs.dense_kernel(g, 8), inputs.law(g, 8), inputs.law(g, 8)
        ref = lambda: (np.arange(51.0), orc.reference_series("kl_pair", t, p0, 50, p0b=p1))
        extra = self._init_file(files, tag, p0) + self._init_file(files, tag, p1, "init2")
        return self._evolve(files, tag, t, "kl_pair", 50, ref, "json", False, extra)

    def _slot_evolve_j(self, g, tag, files):
        t, p0 = inputs.dense_kernel(g, 8), inputs.law(g, 8)
        ref = lambda: (np.arange(21.0), orc.reference_series("j_functional", t, p0, 20, q="neg_log"))
        extra = self._init_file(files, tag, p0) + ["--q", "neg_log"]
        return self._evolve(files, tag, t, "j_functional", 20, ref, "csv", False, extra)

    def _slot_check(self, g, tag, files):
        t = inputs.dense_kernel(g, 32)
        files[f"{tag}_chain.json"] = _chain_doc(t)
        return {"argv": ["check", "--chain", self._f(f"{tag}_chain.json")], "out": None, "expect": "check",
                "matrix": t, "continuous": False, "pi": lambda: orc.bordered_solve(t, False)}

    def _slot_check_pi(self, g, tag, files):
        m, up, down = inputs.birth_death(g, 24, 0.9, continuous=False)
        pi = orc.birth_death_law(up, down)
        files[f"{tag}_chain.json"] = _chain_doc(m)
        out = str(self.out / f"{tag}.json")
        argv = ["--out", out, "check", "--chain", self._f(f"{tag}_chain.json")] + self._init_file(files, tag, pi, "pi")
        return {"argv": argv, "out": out, "expect": "check", "matrix": m, "continuous": False, "pi": pi}

    def _measure(self, argv, value, out=None):
        return {"argv": argv, "out": out, "expect": "measure", "value": value}

    def _slot_fdiv(self, g, tag, files):
        p1, p2 = inputs.law(g, 16), inputs.law(g, 16)
        argv = ["measure", "--op", "fdiv", "--q", "u_log_u"]
        argv += self._init_file(files, tag, p1, "p1") + self._init_file(files, tag, p2, "p2")
        return self._measure(argv, lambda: float(orc.ratio_rows("u_log_u", p1, p2)))

    def _joint(self, g, nx, ny):
        j = g.random((nx, ny)) + 0.05
        return j / j.sum()

    def _slot_mi(self, g, tag, files):
        j = self._joint(g, 6, 8)
        files[f"{tag}_joint.json"] = _json({"nx": 6, "ny": 8, "table": j.tolist()})
        prod = np.outer(j.sum(axis=1), j.sum(axis=0))
        argv = ["measure", "--op", "mi", "--q", "neg_log", "--joint", self._f(f"{tag}_joint.json")]
        return self._measure(argv, lambda: float(orc.ratio_rows("neg_log", j.ravel(), prod.ravel())))

    def _slot_lautum(self, g, tag, files):
        j = self._joint(g, 7, 5)
        files[f"{tag}_joint.json"] = _json({"nx": 7, "ny": 5, "table": j.tolist()})
        prod = np.outer(j.sum(axis=1), j.sum(axis=0))
        argv = ["measure", "--op", "lautum", "--q", "u_log_u", "--joint", self._f(f"{tag}_joint.json")]
        return self._measure(argv, lambda: float(orc.ratio_rows("u_log_u", prod.ravel(), j.ravel())))

    def _slot_zz(self, g, tag, files):
        j, m = self._joint(g, 5, 7), 0.1 + g.random((5, 7))
        files[f"{tag}_joint.json"] = _json({"nx": 5, "ny": 7, "table": j.tolist(), "measures": [m.tolist()]})
        out = str(self.out / f"{tag}.json")
        argv = ["--out", out, "measure", "--op", "zz", "--q", "neg_sqrt", "--joint", self._f(f"{tag}_joint.json")]
        return self._measure(argv, lambda: float(orc.ratio_rows("neg_sqrt", j.ravel(), m.ravel())), out)

    def _slot_measure_v(self, g, tag, files):
        fam = inputs.measures(g, 2, 12)
        files[f"{tag}_family.json"] = _json({"measures": fam.tolist()})
        argv = ["measure", "--op", "v", "--q", "square", "--family", self._f(f"{tag}_family.json")]
        return self._measure(argv, lambda: float(orc.ratio_rows("square", fam[0], fam[1])))

    def _bounds_pair(self, g):
        L = int(g.integers(2, 40))
        return L + 1 + int(g.integers(0, L - 1)), L

    def _slot_bounds_log(self, g, tag, files):
        K, L = self._bounds_pair(g)
        return {"argv": ["bounds", "--K", str(K), "--L", str(L)], "out": None, "expect": "bounds", "fmt": "json",
                "K": K, "L": L, "grid": orc.bound_grid(1e-3, 1e6, 64, True)}

    def _slot_bounds_linear(self, g, tag, files):
        K, L = self._bounds_pair(g)
        stop = float(np.round(10.0 + 90.0 * g.random(), 3))
        out = str(self.out / f"{tag}.csv")
        argv = ["--format", "csv", "--out", out, "bounds", "--K", str(K), "--L", str(L), "--linear",
                "--grid-start", "0", "--grid-stop", repr(stop), "--grid-points", "33"]
        return {"argv": argv, "out": out, "expect": "bounds", "fmt": "csv", "K": K, "L": L,
                "grid": orc.bound_grid(0.0, stop, 33, False)}

    def _invalid(self, g, k, files):
        what, code = self.INVALID[k]
        tag = f"bad{k}"
        t = inputs.dense_kernel(g, 8)
        if what == "truncated":
            files[f"{tag}_chain.json"] = _chain_doc(t)[:-40]
            argv = ["evolve", "--chain", self._f(f"{tag}_chain.json"), "--functional", "entropy", "--init", "uniform"]
        elif what == "bad_rows":
            files[f"{tag}_chain.json"] = _chain_doc(t * 1.1)
            argv = ["check", "--chain", self._f(f"{tag}_chain.json")]
        elif what == "missing_file":
            files[f"{tag}_chain.json"] = _chain_doc(t)
            argv = ["evolve", "--chain", self._f(f"{tag}_chain.json"), "--functional", "entropy",
                    "--init", self._f(f"{tag}_absent.json")]
        elif what == "bad_q":
            files[f"{tag}_family.json"] = _json({"measures": inputs.measures(g, 2, 8).tolist()})
            argv = ["measure", "--op", "v", "--q", "neg_pow:abc", "--family", self._f(f"{tag}_family.json")]
        elif what == "bad_ratio":
            argv = ["bounds", "--K", "9", "--L", "4"]
        else:
            files[f"{tag}_chain.json"] = _chain_doc(t)
            argv = ["evolve", "--chain", self._f(f"{tag}_chain.json"), "--functional", "no_such_kind"]
        return {"argv": argv, "out": None, "expect": "error", "code": code}

    # -- running

    def run(self, spec):
        if spec["out"] and os.path.exists(spec["out"]):
            os.unlink(spec["out"])
        if self.inprocess:
            return self._run_inprocess(spec["argv"])
        return self._run_child(spec["argv"])

    def _run_child(self, argv):
        errfile = self.workdir / "stderr.txt"
        with open(self.workdir / "stdout.txt", "wb") as out, open(errfile, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "infodyn.cli", *argv], stdout=out, stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, (self.workdir / "stdout.txt").read_text(), errfile.read_text()

    def _run_inprocess(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def parse(self, spec, result):
        code, stdout, stderr = result
        if spec["expect"] == "error":
            return {"code": code, "stderr": stderr}
        if code != 0:
            raise Failed(f"exit status {code}: {stderr.strip()[:200]}")
        text = Path(spec["out"]).read_text() if spec["out"] else stdout
        if spec["out"] and stdout:
            raise Failed("--out run also wrote to stdout")
        if spec["expect"] in ("check", "measure"):
            return json.loads(text)
        if spec["expect"] == "bounds":
            if spec["fmt"] == "json":
                return json.loads(text)
            header, rows = _parse_csv(text)
            if header != ["s", "psi", "d"]:
                raise Failed(f"bounds CSV header {header}")
            return {"grid": rows[:, 0], "psi": rows[:, 1], "d": rows[:, 2]}
        if spec["fmt"] == "json":
            doc = json.loads(text)
            return {"t": np.array(doc["t"]), "value": np.array(doc["value"])}
        header, rows = _parse_csv(text)
        if header != ["t", "value"]:
            raise Failed(f"trace CSV header {header}")
        return {"t": rows[:, 0], "value": rows[:, 1]}

    @staticmethod
    def _resolve(spec, key):
        """References are computed on first use, outside set-up and timing."""
        if callable(spec[key]):
            spec[key] = spec[key]()
        return spec[key]

    def compare(self, spec, parsed):
        kind = spec["expect"]
        if kind == "error":
            return orc.check_exit(parsed["code"], parsed["stderr"], spec["code"])
        if kind == "measure":
            want = self._resolve(spec, "value")
            if not orc.close(parsed["value"], want):
                return f"value {parsed['value']!r}, expected {want!r}"
            return None
        if kind == "check":
            pi = self._resolve(spec, "pi")
            flags = [parsed[k] for k in ("is_doubly_stochastic", "satisfies_global_balance",
                                         "satisfies_detailed_balance", "max_residual")]
            return orc.check_balance_report(flags, spec["matrix"], spec["continuous"], pi, tol=1e-9)
        if kind == "bounds":
            return orc.check_bounds(parsed, spec["K"], spec["L"], spec["grid"])
        ref_t, ref = self._resolve(spec, "ref")
        if not orc.close(parsed["t"], ref_t):
            return "time points differ"
        if not orc.close(parsed["value"], ref):
            bad = int(np.argmax(np.abs(parsed["value"] - ref)))
            return f"value {parsed['value'][bad]!r} at step {bad}, reference {ref[bad]!r}"
        return orc.check_series(parsed["t"], parsed["value"], parsed["value"], spec["direction"])

    def perturbed(self, parsed):
        if "code" in parsed:
            return [dict(parsed, code=0), dict(parsed, stderr="")]
        if "value" in parsed and np.ndim(parsed["value"]) == 0:
            return [dict(parsed, value=float(perturb_array([parsed["value"]])[0]))]
        if "is_doubly_stochastic" in parsed:
            return [dict(parsed, satisfies_global_balance=not parsed["satisfies_global_balance"])]
        if "psi" in parsed:
            out = [dict(parsed, psi=perturb_array(parsed["psi"])), dict(parsed, d=perturb_array(parsed["d"]))]
            psi0 = np.array(parsed["psi"], dtype=float)
            psi0[0] += 1e-6
            out.append(dict(parsed, psi=psi0))
            if "d_at_limit" in parsed:
                out.append(dict(parsed, d_at_limit=parsed["d_at_limit"] + 1e-6))
            return out
        return [dict(parsed, value=perturb_array(parsed["value"]))]

    def defect_probes(self):
        """Defect (b): a NaN token in a distribution file is accepted and the
        command exits 0; the documented outcome is an error exit."""
        files = {}
        g = inputs.rng(self.seed, 10**6)
        p = inputs.law(g, 8)
        files["nan_probs.json"] = _json({"probs": [math.nan] + p[1:].tolist()})  # json writes the NaN token
        files["ok_probs.json"] = _law_doc(p)
        files["nan_chain.json"] = _chain_doc(inputs.dense_kernel(g, 8))
        for name, text in files.items():
            (self.fx / name).write_text(text)
        probes = [
            ["measure", "--op", "fdiv", "--q", "u_log_u", "--p1", self._f("ok_probs.json"),
             "--p2", self._f("nan_probs.json")],
            ["evolve", "--chain", self._f("nan_chain.json"), "--functional", "entropy",
             "--init", self._f("nan_probs.json"), "--steps", "10"],
        ]
        return [(f"NaN token: {argv[0]}", {"argv": argv, "out": None, "expect": "error", "code": (1, 2)})
                for argv in probes]


WORKLOADS = {w.name: w for w in (CliMix, TraceLong, LargeChains)}


def judge(wl, spec, result) -> str | None:
    """Oracle verdict on one result: None when it holds, else the reason."""
    try:
        return wl.compare(spec, wl.parse(spec, result))
    except Failed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_probe(wl, spec):
    """A defect probe: None when the package gets it right, else the reason."""
    if spec.get("expect") == "error":
        code, _, stderr = wl.run(spec)
        if code in spec["code"] and "error:" in stderr:
            return None
        return f"exit status {code}, expected one of {spec['code']} with an error line"
    try:
        result = wl.run(spec)
    except Exception as exc:  # the probe records what the package raised
        return f"raised {type(exc).__name__}: {exc}"
    return judge(wl, spec, result)
