"""Checks of the benchmark itself, run before every measurement.

Each workload's first cycle is run once in-process and must pass its
oracles; then every perturbed copy of each answer must be rejected.  The
input generator must give the same inputs (hash) for the same seed and
different inputs for another seed.
"""

from __future__ import annotations

import numpy as np

import inputs
import oracles as orc
from workloads import judge

#: Largest state space run by the self-test; bigger slots are skipped.
MAX_N = 256


def fingerprint(cls, pkg, seed: int, workdir) -> str:
    wl = cls(pkg, seed, workdir)
    if hasattr(wl, "fixtures"):
        return inputs.digest(wl.fixtures())
    return inputs.digest([spec for spec in map(wl.spec, range(len(wl.cycle))) if spec["n"] <= MAX_N])


def synthetic_checks() -> list[str]:
    """Oracle rules that a real answer cannot reach by perturbation alone."""
    problems = []
    rising = np.linspace(0.0, 1.0, 5)
    if orc.check_series(np.arange(5.0), rising, rising, "non_increasing") is None:
        problems.append("a rising series passed the non_increasing check")
    if orc.check_exit(0, "", 2) is None or orc.check_exit(1, "error: x", 2) is None:
        problems.append("a wrong exit status passed")
    up, down = [0.3, 0.3], [0.6, 0.6]
    exact = orc.birth_death_law(up, down)
    if not np.allclose(exact, np.array([4.0, 2.0, 1.0]) / 7.0, rtol=1e-15):
        problems.append("birth-death oracle is off on a 3-state chain")
    return problems


def run(cls, pkg, seed: int, workdir) -> tuple[int, list[str]]:
    """Returns (number of checks made, problems found)."""
    problems = synthetic_checks()
    checks = 3
    wl = cls(pkg, seed, workdir, inprocess=True)
    wl.setup()
    specs = wl.selftest_specs() if hasattr(wl, "selftest_specs") else [wl.spec(i) for i in range(len(wl.cycle))]
    for i, spec in enumerate(specs):
        if spec.get("n", 0) > MAX_N:
            continue
        checks += 1
        try:
            result = wl.run(spec)
        except Exception as exc:  # reported as a self-test problem
            problems.append(f"{wl.name} op {i}: raised {type(exc).__name__}: {exc}")
            continue
        reason = judge(wl, spec, result)
        if reason is not None:
            problems.append(f"{wl.name} op {i}: correct answer rejected: {reason}")
            continue
        for bad in wl.perturbed(wl.parse(spec, result)):
            checks += 1
            if wl.compare(spec, bad) is None:
                problems.append(f"{wl.name} op {i}: perturbed answer accepted")
    a, b = fingerprint(cls, pkg, seed, workdir), fingerprint(cls, pkg, seed, workdir)
    c = fingerprint(cls, pkg, seed + 1, workdir)
    checks += 2
    if a != b:
        problems.append("same seed gave different inputs")
    if a == c:
        problems.append("different seeds gave the same inputs")
    return checks, problems
