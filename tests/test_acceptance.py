"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single PASS/FAIL line,
and enforces the stated tolerance and time budget.  Diagnosis of a failure
belongs to the per-module suites; this file only decides.
"""

import math
import time

import numpy as np

from helpers import all_builtins, doubly_stochastic_chain, multi_convex, random_chain, random_distribution, random_family, random_joint
from infodyn import (
    Distribution,
    EpsilonChannel,
    ExampleConfig,
    JointDistribution,
    PairMeasure,
    RateMatrix,
    TRACE_KINDS,
    builtin,
    build_example_chain,
    check_balance,
    classical_bound,
    distortion_bound,
    embed_markov_triple,
    evolve_measures,
    generalized_mutual_information,
    h_theorem_rate,
    integrate_master_equation,
    measure_family_functional,
    mixed_measure_information,
    oracle_source_value,
    perspective,
    psi_exact,
    psi_limit,
    rate_distortion_value,
    shannon_entropy,
    stationary_distribution,
    trace_functional,
    verify_convexity,
    verdict,
    zakai_ziv_functional,
)

CONFIG_PAIRS = ((3, 2), (5, 4), (7, 4))

#: Trace kinds the paper predicts to rise; every other kind never rises.
RISING = {"entropy": "non_decreasing", "bhattacharyya": "non_decreasing"}


def _gate(label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status}: {label}")
    assert not failures, f"{label}: {failures[:3]}"


def test_acceptance_01_curve_starts_at_squared_excess():
    failures = []
    for k, l in CONFIG_PAIRS:
        cfg = ExampleConfig(k, l)
        got = psi_exact(0.0, cfg)
        want = (cfg.theta - 1.0) ** 2
        if abs(got - want) > 1e-12:
            failures.append((k, l, got, want))
    _gate("psi(0) equals the squared excess ratio on all three configs", failures)


def test_acceptance_02_limit_beats_zero_with_margin():
    failures = []
    for k, l in CONFIG_PAIRS:
        cfg = ExampleConfig(k, l)
        d_zero = distortion_bound(psi_exact(0.0, cfg))
        d_limit = distortion_bound(psi_limit(cfg))
        if not d_limit > d_zero + 0.01:
            failures.append(("margin", k, l, d_limit - d_zero))
        tail = psi_exact(1e6 * cfg.K, cfg)
        if abs(tail - 2.0 * (1.0 - 1.0 / cfg.theta)) > 1e-3:
            failures.append(("tail", k, l, tail))
    _gate("large-s bound clears the s=0 bound by more than 0.01", failures)


def test_acceptance_03_three_bound_ladder_at_ratio_three_halves():
    start = time.perf_counter()
    cfg = ExampleConfig(3, 2)
    d_zero = distortion_bound(psi_exact(0.0, cfg))
    d_limit = distortion_bound(psi_limit(cfg))
    d_cls = classical_bound(cfg)
    elapsed = time.perf_counter() - start

    failures = []
    for name, got, want in (
        ("limit", d_limit, 0.2113),
        ("classical", d_cls, 0.1403),
        ("zero", d_zero, 0.0670),
    ):
        if abs(got - want) > 1e-3:
            failures.append((name, got, want))
    if not d_limit > d_cls > d_zero:
        failures.append(("order", d_zero, d_cls, d_limit))
    if elapsed >= 1.0:
        failures.append(("time", elapsed))
    _gate("bound ladder 0.0670 < 0.1403 < 0.2113 lands within 1e-3 in under 1s", failures)


def test_acceptance_04_uniform_crossover_is_the_source_optimum():
    start = time.perf_counter()
    rng = np.random.default_rng(405)
    failures = []

    for _ in range(100):
        k = int(rng.integers(3, 9))
        d = float(rng.random())
        s = float(rng.random() * 20.0)
        cfg = ExampleConfig(k, k - 1)
        flat = oracle_source_value(cfg, EpsilonChannel(np.full(k, d)), s)
        if abs(flat + rate_distortion_value(d, s, k)) > 1e-12:
            failures.append(("identity", k, d, s))

    for _ in range(500):
        k = int(rng.integers(3, 9))
        d = float(rng.uniform(0.05, 0.95))
        s = float(rng.random() * 10.0)
        cfg = ExampleConfig(k, k - 1)
        delta = rng.uniform(-1.0, 1.0, k)
        delta -= delta.mean()
        with np.errstate(divide="ignore"):
            room = np.where(delta > 0, (1.0 - d) / delta, np.inf)
            room = np.minimum(room, np.where(delta < 0, -d / delta, np.inf))
        eps = np.clip(d + float(room.min() * rng.random()) * delta, 0.0, 1.0)
        flat = oracle_source_value(cfg, EpsilonChannel(np.full(k, d)), s)
        skew = oracle_source_value(cfg, EpsilonChannel(eps), s)
        if skew > flat + 1e-9:
            failures.append(("beat", k, d, s, skew - flat))

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("time", elapsed))
    _gate("uniform crossover matches the closed form and is never beaten", failures)


def test_acceptance_05_functionals_are_monotone_along_chains():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    rate_rng = np.random.default_rng(5050)
    qs = all_builtins()
    tails = [q for q in qs if q.recession_slope is not None]
    failures = []

    for trial in range(200):
        n = int(rng.integers(2, 7))
        chain = random_chain(rng, n)
        init = random_distribution(rng, n)
        init2 = random_distribution(rng, n)

        for q in qs:
            series = trace_functional(
                "u_functional", chain, q=q, inits={"init": init}, steps=50
            )
            if not verdict(series, "non_increasing", tol=1e-9).holds:
                failures.append(("u", trial, q.name))

        for k in (1, 2, 3):
            series = trace_functional(
                "v_functional", chain, q=multi_convex(k),
                inits={"family": random_family(rng, n, k)}, steps=50,
            )
            if not verdict(series, "non_increasing", tol=1e-9).holds:
                failures.append(("v", trial, k))

        series = trace_functional(
            "kl_pair", chain, inits={"init": init, "init2": init2}, steps=50
        )
        if not verdict(series, "non_increasing", tol=1e-9).holds:
            failures.append(("kl_pair", trial))

        series = trace_functional(
            "bhattacharyya", chain, inits={"init": init}, steps=50
        )
        if not verdict(series, "non_decreasing", tol=1e-9).holds:
            failures.append(("bhattacharyya", trial))

        flat = doubly_stochastic_chain(rng, n)
        series = trace_functional("entropy", flat, inits={"init": init}, steps=50)
        if not verdict(series, "non_decreasing", tol=1e-9).holds:
            failures.append(("entropy", trial))

        # Every kind on rate matrices, through the RK4 step kernel; symmetric
        # rates for entropy.  A separate generator keeps the draws above fixed.
        m = int(rate_rng.integers(2, 7))
        w = rate_rng.random((m, m)) * 2.0
        np.fill_diagonal(w, 0.0)
        k = 1 + trial % 3
        inits = {
            "init": random_distribution(rate_rng, m),
            "init2": random_distribution(rate_rng, m),
            "family": random_family(rate_rng, m, k),
        }
        for kind in TRACE_KINDS:
            rates = RateMatrix(0.5 * (w + w.T) if kind == "entropy" else w)
            q = {
                "v_functional": multi_convex(k),
                # the t = 0 joint is diagonal, so Q must grow at most linearly
                "j_functional": tails[trial % len(tails)],
            }.get(kind, qs[trial % len(qs)])
            series = trace_functional(
                kind, rates, q=q, inits=inits, steps=50,
                dt=0.9 / rates.matrix.sum(axis=1).max(),
            )
            direction = RISING.get(kind, "non_increasing")
            if not verdict(series, direction, tol=1e-9).holds:
                failures.append(("rates", kind, trial))

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(("time", elapsed))
    _gate(
        "200 random ergodic chains and rate matrices keep every trace monotone at 1e-9", failures
    )


def test_acceptance_06_processing_never_creates_information():
    rng = np.random.default_rng(606)
    qs = all_builtins()
    failures = []

    for trial in range(100):
        joint_xy = random_joint(rng, 3, 3)
        channel = random_chain(rng, 3)
        joint_xz = JointDistribution(joint_xy.table @ channel.matrix)
        for q in qs:
            before = generalized_mutual_information(q, joint_xy)
            after = generalized_mutual_information(q, joint_xz)
            if after > before + 1e-12:
                failures.append((trial, q.name, after - before))

        for joint in (joint_xy, joint_xz):
            px, py = joint.marginal_x(), joint.marginal_y()
            classical = sum(
                joint.table[x, y] * math.log(joint.table[x, y] / (px[x] * py[y]))
                for x in range(3)
                for y in range(3)
            )
            via_q = generalized_mutual_information(builtin("neg_log"), joint)
            if abs(via_q - classical) > 1e-12:
                failures.append((trial, "classical", via_q - classical))

    _gate("post-channel information never exceeds pre-channel at 1e-12", failures)


def test_acceptance_07_blend_equals_grid_functional_with_perspective():
    rng = np.random.default_rng(707)
    qs = all_builtins()
    failures = []

    for trial in range(100):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        joint = random_joint(rng, nx, ny)
        s = rng.random(nx + 1) + 0.01
        t = rng.random(nx + 1)
        q = qs[trial % len(qs)]

        direct = mixed_measure_information(q, joint, s, t)
        table = joint.table
        px = joint.marginal_x()
        cond = table / px[:, None]
        mu0 = s[0] * table + px[:, None] * (s[1:] @ cond)[None, :]
        mu1 = t[0] * table + px[:, None] * (t[1:] @ cond)[None, :]
        via_grid = zakai_ziv_functional(
            perspective(q), joint, [PairMeasure(mu0), PairMeasure(mu1)]
        )
        if abs(direct - via_grid) > 1e-12:
            failures.append((trial, q.name, direct - via_grid))

    for q in qs:
        result = verify_convexity(
            perspective(q), [[0.2, 3.0], [0.2, 3.0]], trials=300, seed=7
        )
        if not result.passed:
            failures.append(("convexity", q.name, result.witness))

    _gate("coefficient blend equals the two-measure grid functional", failures)


def test_acceptance_08_chain_embedding_reproduces_markov_triples():
    rng = np.random.default_rng(808)
    failures = []

    for trial in range(50):
        nu = int(rng.integers(2, 5))
        nv = int(rng.integers(2, 5))
        nw = int(rng.integers(2, 5))
        pu = random_distribution(rng, nu).probs
        a = rng.random((nu, nv)) + 0.05
        a /= a.sum(axis=1, keepdims=True)
        b = rng.random((nv, nw)) + 0.05
        b /= b.sum(axis=1, keepdims=True)
        p3 = pu[:, None, None] * a[:, :, None] * b[None, :, :]

        kernel, fam_now, fam_next = embed_markov_triple(p3)
        stepped = evolve_measures(kernel, fam_now, 1)[1]
        if np.abs(stepped.measures - fam_next.measures).max() > 1e-12:
            failures.append(("step", trial))

        q = builtin("neg_log") if trial % 2 == 0 else builtin("neg_sqrt")
        drop = measure_family_functional(q, fam_now) - measure_family_functional(
            q, stepped
        )
        mi_uv = generalized_mutual_information(q, JointDistribution(p3.sum(axis=2)))
        mi_uw = generalized_mutual_information(q, JointDistribution(p3.sum(axis=1)))
        if abs(drop - (mi_uv - mi_uw)) > 1e-12:
            failures.append(("drop", trial, drop - (mi_uv - mi_uw)))
        if drop < -1e-12:
            failures.append(("negative", trial, drop))

    _gate("one chain step turns pair information into successor information", failures)


def test_acceptance_09_continuous_time_benchmarks():
    failures = []

    queue = build_example_chain("mm1_truncated", n_states=8, lam=1.0, mu=2.5)
    pi = stationary_distribution(queue)
    rho = 1.0 / 2.5
    geometric = rho ** np.arange(8)
    geometric /= geometric.sum()
    if np.abs(pi.probs - geometric).max() > 1e-12:
        failures.append(("stationary", np.abs(pi.probs - geometric).max()))
    balance = check_balance(queue, pi)
    if not balance.satisfies_detailed_balance or balance.max_residual > 1e-12:
        failures.append(("balance", balance.max_residual))

    flip = RateMatrix([[0.0, 1.0], [1.0, 0.0]])
    path = integrate_master_equation(flip, Distribution([1.0, 0.0]), 1e-3, 1.0)
    t_end, p_end = path[-1]
    want = 0.5 * (1.0 + math.exp(-2.0 * t_end))
    if abs(p_end.probs[0] - want) > 1e-6:
        failures.append(("relaxation", p_end.probs[0] - want))

    rng = np.random.default_rng(909)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        w = rng.random((n, n)) * 2.0
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        rates = RateMatrix(w)
        p = random_distribution(rng, n)
        if h_theorem_rate(rates, p) < -1e-12:
            failures.append(("sign", trial))
        dt = 1e-5
        burst = integrate_master_equation(rates, p, dt, 2 * dt)
        centered = (
            shannon_entropy(burst[2][1]) - shannon_entropy(burst[0][1])
        ) / (2 * dt)
        if abs(h_theorem_rate(rates, burst[1][1]) - centered) > 1e-4:
            failures.append(("derivative", trial))

    _gate("queue balance, two-state relaxation, and entropy production check out", failures)
