"""Layer spans recorded around infodyn's public functions, from outside.

`Tracer.install()` replaces each public function of `infodyn` by a timing
shim in every `infodyn.*` module that binds it (modules bind names at
import time, so `infodyn.monotonicity.evolve_distribution` is patched as
well as `infodyn.markov.evolve_distribution`), and wraps the constructors
and evaluation methods of the package's classes.  `uninstall()` restores
the originals.

Each span records a name, start, end and parent index in flat arrays that
stay in memory until `dump()`.  Self time is a span's duration minus the
time its child spans cover, accumulated per layer key as spans close, so
the keys' self times add up to the traced wall time.  Single process, no
threads and no queues, so nothing waits and no wait time is recorded.

Shims also record the inputs of the propagation and solver calls, so the
benchmark can time a bare-numpy floor on the same inputs after each
operation.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import oracles

perf = time.perf_counter

#: Layer key of each public function, by defining module.
FUNCTION_KEYS = {
    "infodyn.cli": {"main": "cli", "run_scenario": "cli", "emit_report": "io.write"},
    "infodyn.io": {
        **dict.fromkeys(
            ("load_chain", "load_distribution", "load_joint", "load_pair_measures", "load_family"), "io.load"
        ),
        **dict.fromkeys(("write_json", "trace_csv_text", "report_csv_text", "series_to_dict"), "io.render"),
    },
    "infodyn.markov": {
        "stationary_distribution": "markov.stationary",
        "evolve_distribution": "markov.evolve",
        "evolve_measures": "markov.evolve",
        "integrate_master_equation": "markov.rk4",
        "check_balance": "markov.check_balance",
    },
    "infodyn.measures": {
        name: f"measures.{name}"
        for name in (
            "shannon_entropy",
            "kl_divergence",
            "f_divergence",
            "generalized_mutual_information",
            "generalized_lautum_information",
            "zakai_ziv_functional",
            "measure_family_functional",
        )
    },
    "infodyn.monotonicity": {"trace_functional": "monotonicity.trace", "verdict": "monotonicity.verdict"},
    "infodyn.bounds": {"optimize_s": "bounds.sweep", "report_to_dict": "io.render"},
    "infodyn.convexity": dict.fromkeys(("builtin", "parse_q_spec", "perspective"), "convexity.build"),
}

#: Layer key of each wrapped class method, by (module, class, method).
METHOD_KEYS = {
    ("infodyn.markov", cls, "__init__"): "markov.construct"
    for cls in ("Distribution", "StochasticMatrix", "RateMatrix", "MeasureFamily")
}
METHOD_KEYS.update(
    {
        ("infodyn.measures", "JointDistribution", "__init__"): "measures.construct",
        ("infodyn.measures", "PairMeasure", "__init__"): "measures.construct",
        ("infodyn.monotonicity", "TimeSeries", "__init__"): "monotonicity.series",
        ("infodyn.convexity", "ConvexFunction", "__call__"): "convexity.eval",
        ("infodyn.convexity", "ConvexFunction", "batch"): "convexity.eval",
        ("infodyn.convexity", "PerspectiveFunction", "__call__"): "convexity.eval",
    }
)

ROOT_KEY = "bench"

#: Functions whose arguments or results feed a counter or a floor.
OBSERVED = {
    "load_chain", "load_distribution", "load_joint", "load_pair_measures", "load_family",
    "write_json", "trace_csv_text", "report_csv_text", "optimize_s",
    "evolve_distribution", "evolve_measures", "integrate_master_equation", "stationary_distribution",
}


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self.key_ids: dict[str, int] = {}
        self.span_key = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, key, time covered by children]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.count = defaultdict(float)
        self.floor_inputs: list[tuple] = []
        self._patched: list[tuple] = []

    # -- spans

    def _open(self, key: str) -> list:
        kid = self.key_ids.get(key)
        if kid is None:
            kid = self.key_ids[key] = len(self.keys)
            self.keys.append(key)
        frame = [len(self.span_start), key, 0.0]
        self.span_key.append(kid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(frame)
        self.span_start.append(perf())
        return frame

    def _close(self, frame: list, ok: bool) -> float:
        end = perf()
        self.stack.pop()
        idx, key, covered = frame
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.self_s[key] += duration - covered
        self.incl_s[key] += duration
        self.calls[key] += 1
        if not ok:
            self.failed[key] += 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def span(self, key: str, fn, *args, **kwargs):
        frame = self._open(key)
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self._close(frame, ok)

    def _shim(self, key: str, fn, name: str | None = None):
        span = self.span
        observe = self._observe if name in OBSERVED else None

        def shim(*args, **kwargs):
            out = span(key, fn, *args, **kwargs)
            if observe is not None:
                observe(name, args, out)
            return out

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", key)
        return shim

    def _observe(self, name: str, args: tuple, out) -> None:
        """Counters and floor inputs read off a call's arguments and result."""
        if name.startswith("load_"):
            self.count["io.bytes_read"] += os.path.getsize(args[0])
        elif name in ("write_json", "trace_csv_text", "report_csv_text"):
            self.count["io.bytes_written"] += len(out)
        elif name == "optimize_s":
            self.count["bounds.grid_points"] += len(out.s_grid)
        elif name in ("evolve_distribution", "evolve_measures"):
            chain, start, steps = args
            rows = start.probs if name == "evolve_distribution" else start.measures
            self.floor_inputs.append(("evolve", chain.matrix, rows, int(steps)))
        elif name == "integrate_master_equation":
            rates, init, dt, _ = args
            self.floor_inputs.append(("rk4", rates.matrix, init.probs, float(dt), len(out) - 1))
        elif name == "stationary_distribution":
            chain = args[0]
            self.floor_inputs.append(("stationary", chain.matrix, hasattr(chain, "generator")))

    def _convexity_shim(self, fn):
        """Evaluation shim that counts calls and cells at the outermost level."""
        span = self.span
        count = self.count
        stack = self.stack

        def shim(obj, *args, **kwargs):
            if not (stack and stack[-1][1] == "convexity.eval"):
                count["convexity.calls"] += 1
                if fn.__name__ == "batch":
                    count["convexity.cells"] += np.size(args[0])
                else:
                    count["convexity.cells"] += 1
            return span("convexity.eval", fn, obj, *args, **kwargs)

        shim.__wrapped__ = fn
        return shim

    # -- installation

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name == "infodyn" or name.startswith("infodyn.")}
        originals = {}
        for mod_name, names in FUNCTION_KEYS.items():
            for name, key in names.items():
                fn = getattr(modules[mod_name], name)
                originals[id(fn)] = (fn, self._shim(key, fn, name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (mod_name, cls_name, meth), key in METHOD_KEYS.items():
            cls = getattr(modules[mod_name], cls_name)
            fn = cls.__dict__[meth]
            shim = self._convexity_shim(fn) if key == "convexity.eval" else self._shim(key, fn)
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, shim)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output

    def dump(self, path) -> None:
        np.savez_compressed(
            path,
            keys=np.array(self.keys),
            key=np.frombuffer(self.span_key, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    @property
    def spans(self) -> int:
        return len(self.span_start)


def time_floors(records) -> dict:
    """Bare-numpy time of each recorded propagation or solve, by layer."""
    out = defaultdict(float)
    for rec in records:
        kind = rec[0]
        t0 = perf()
        if kind == "evolve":
            _, matrix, p, steps = rec
            for _ in range(steps):
                p = p @ matrix
        elif kind == "rk4":
            _, w, p, dt, steps = rec
            gen = w - np.diag(w.sum(axis=1))
            for _ in range(steps):
                k1 = p @ gen
                k2 = (p + 0.5 * dt * k1) @ gen
                k3 = (p + 0.5 * dt * k2) @ gen
                k4 = (p + dt * k3) @ gen
                p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            _, matrix, continuous = rec
            oracles.bordered_solve(matrix, continuous)
        out[kind] += perf() - t0
    return out
