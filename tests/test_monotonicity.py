"""Trace kinds, verdicts, and the continuous-time entropy production rate."""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import doubly_stochastic_chain, multi_convex, random_chain, random_distribution, random_family
from infodyn import (
    ArityMismatchError,
    BadParamsError,
    DimensionMismatchError,
    Distribution,
    EmptySeriesError,
    JointDistribution,
    MeasureFamily,
    MissingInitError,
    NotSymmetricError,
    RateMatrix,
    StochasticMatrix,
    TRACE_KINDS,
    TimeSeries,
    UnstableStepError,
    ZeroProbabilityError,
    builtin,
    build_example_chain,
    generalized_mutual_information,
    h_theorem_rate,
    integrate_master_equation,
    shannon_entropy,
    stationary_distribution,
    trace_functional,
    verdict,
)
from infodyn.markov import propagate
from infodyn.measures import _BLEND_BLOCK_CELLS, _ratio_functional

EPS = np.finfo(float).eps


# -------------------------------------------------------------- TimeSeries


def test_time_series_validation():
    with pytest.raises(BadParamsError):
        TimeSeries([0.0, 1.0], [1.0])
    with pytest.raises(BadParamsError):
        TimeSeries([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(BadParamsError):
        TimeSeries([1.0, 0.0], [1.0, 2.0])
    empty = TimeSeries([], [])
    assert len(empty) == 0


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.0, math.nan, 2.0], [1.0, 0.5, 0.2]),  # np.diff(t) <= 0 is False for NaN
        ([0.0, 1.0, math.inf], [1.0, 0.5, 0.2]),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 0.2]),  # verdict would read max_violation=nan
        ([0.0, 1.0], [math.inf, math.inf]),  # verdict would warn on inf - inf
    ],
    ids=["nan-time", "inf-time", "nan-value", "inf-values"],
)
def test_time_series_refuses_non_finite_entries(times, values):
    with pytest.raises(BadParamsError, match="must be finite"):
        TimeSeries(times, values)


def test_time_series_is_frozen():
    series = TimeSeries([0.0, 1.0], [3.0, 2.0])
    with pytest.raises(ValueError):
        series.values[0] = 0.0


# ----------------------------------------------------------------- verdict


def test_verdict_on_clean_descent():
    series = TimeSeries(range(4), [3.0, 2.0, 2.0, 1.0])
    v = verdict(series, "non_increasing")
    assert v.holds
    assert v.max_violation == 0.0


def test_verdict_catches_a_bump():
    series = TimeSeries(range(3), [1.0, 2.0, 1.0])
    v = verdict(series, "non_increasing")
    assert not v.holds
    assert v.max_violation == pytest.approx(1.0, abs=0.0)
    assert v.argmax_step == 0
    up = verdict(series, "non_decreasing")
    assert not up.holds
    assert up.argmax_step == 1


def test_verdict_single_point_and_empty():
    single = verdict(TimeSeries([0.0], [5.0]), "non_increasing")
    assert single.holds and single.max_violation == 0.0
    with pytest.raises(EmptySeriesError):
        verdict(TimeSeries([], []), "non_increasing")
    with pytest.raises(BadParamsError):
        verdict(TimeSeries([0.0], [1.0]), "sideways")


def test_verdict_respects_tolerance():
    series = TimeSeries(range(2), [1.0, 1.0 + 5e-10])
    assert verdict(series, "non_increasing", tol=1e-9).holds
    assert not verdict(series, "non_increasing", tol=1e-12).holds
    for tol in (math.nan, math.inf, -math.inf, -1e-9):
        with pytest.raises(BadParamsError, match="tol must be finite and nonnegative"):
            verdict(series, "non_increasing", tol=tol)


# ------------------------------------------------------------- trace kinds


def test_entropy_trace_on_mod3_walk():
    chain = build_example_chain("mod_k_walk", K=3)
    series = trace_functional(
        "entropy", chain, inits={"init": Distribution([1.0, 0.0, 0.0])}, steps=10
    )
    assert len(series) == 11
    assert series.values[0] == 0.0
    assert abs(series.values[-1] - math.log(3.0)) < 1e-6
    assert verdict(series, "non_decreasing").holds


def test_entropy_trace_non_decreasing_for_doubly_stochastic_kernels():
    rng = np.random.default_rng(31)
    for _ in range(10):
        chain = doubly_stochastic_chain(rng, 5)
        series = trace_functional(
            "entropy", chain, inits={"init": random_distribution(rng, 5)}, steps=40
        )
        assert verdict(series, "non_decreasing").holds


def test_u_functional_with_u_log_u_is_divergence_to_stationary():
    rng = np.random.default_rng(32)
    chain = random_chain(rng, 4)
    init = random_distribution(rng, 4)
    lhs = trace_functional(
        "u_functional", chain, q=builtin("u_log_u"), inits={"init": init}, steps=25
    )
    rhs = trace_functional("kl_to_stationary", chain, inits={"init": init}, steps=25)
    assert np.abs(lhs.values - rhs.values).max() < 1e-12
    assert verdict(lhs, "non_increasing").holds


def test_circuit_energy_is_the_half_square_functional():
    rng = np.random.default_rng(33)
    chain = random_chain(rng, 5)
    init = random_distribution(rng, 5)
    energy = trace_functional("circuit_energy", chain, inits={"init": init}, steps=30)
    half_sq = trace_functional(
        "u_functional", chain, q=builtin("half_square"), inits={"init": init}, steps=30
    )
    assert np.abs(energy.values - half_sq.values).max() < 1e-13
    assert verdict(energy, "non_increasing").holds


def test_circuit_energy_refuses_an_overflowing_value(monkeypatch):
    """A stationary entry of 1e-310 overflows the ratio law / pi squared in
    the kernel, for the circuit energy and the half-square functional alike:
    both raise, neither warns."""
    import infodyn.monotonicity as mono

    monkeypatch.setattr(mono, "stationary_distribution", lambda chain: Distribution([1.0, 1e-310]))
    chain = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    init = Distribution([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, q in (("circuit_energy", None), ("u_functional", builtin("half_square"))):
            with pytest.raises(BadParamsError, match="not finite"):
                trace_functional(kind, chain, q=q, inits={"init": init}, steps=2)


def test_bhattacharyya_trace_mirrors_neg_sqrt_functional():
    rng = np.random.default_rng(34)
    chain = random_chain(rng, 4)
    init = random_distribution(rng, 4)
    bh = trace_functional("bhattacharyya", chain, inits={"init": init}, steps=30)
    neg = trace_functional(
        "u_functional", chain, q=builtin("neg_sqrt"), inits={"init": init}, steps=30
    )
    assert np.abs(bh.values + neg.values).max() < 1e-13
    assert verdict(bh, "non_decreasing").holds


def test_stationary_divergences_decay_both_ways():
    rng = np.random.default_rng(35)
    chain = random_chain(rng, 5)
    init = random_distribution(rng, 5)
    for kind in ("kl_to_stationary", "kl_from_stationary"):
        series = trace_functional(kind, chain, inits={"init": init}, steps=40)
        assert verdict(series, "non_increasing").holds
        assert series.values[-1] < series.values[0]


def test_kl_pair_decays_without_reversibility():
    rng = np.random.default_rng(36)
    rotation = build_example_chain("cyclic", K=4).matrix
    chain = StochasticMatrix(0.5 * rotation + 0.5 * random_chain(rng, 4).matrix)
    p = random_distribution(rng, 4)
    p2 = random_distribution(rng, 4)
    series = trace_functional("kl_pair", chain, inits={"init": p, "init2": p2}, steps=40)
    assert verdict(series, "non_increasing").holds


def test_v_functional_with_pair_family_is_kl_pair():
    rng = np.random.default_rng(37)
    chain = random_chain(rng, 4)
    p = random_distribution(rng, 4)
    p2 = random_distribution(rng, 4)
    pair = trace_functional("kl_pair", chain, inits={"init": p, "init2": p2}, steps=20)
    fam = MeasureFamily(np.vstack([p2.probs, p.probs]))
    vee = trace_functional(
        "v_functional", chain, q=builtin("u_log_u"), inits={"family": fam}, steps=20
    )
    assert np.abs(pair.values - vee.values).max() < 1e-12


def test_v_functional_non_increasing_for_random_families():
    rng = np.random.default_rng(38)
    for k in (1, 2, 3):
        chain = random_chain(rng, 5)
        fam = random_family(rng, 5, k)
        series = trace_functional(
            "v_functional", chain, q=multi_convex(k), inits={"family": fam}, steps=30
        )
        assert verdict(series, "non_increasing").holds, k


def test_j_functional_starts_at_entropy_and_decays():
    """With Q = -log the t=0 joint is diagonal and the value is H(X_0)."""
    rng = np.random.default_rng(39)
    chain = random_chain(rng, 4)
    init = random_distribution(rng, 4)
    series = trace_functional(
        "j_functional", chain, q=builtin("neg_log"), inits={"init": init}, steps=30
    )
    assert series.values[0] == pytest.approx(shannon_entropy(init), abs=1e-13)
    assert verdict(series, "non_increasing").holds


def test_j_functional_is_the_mutual_information_of_each_joint_law():
    """On a dyadic chain every joint law of (X_0, X_t) is exact in floats, so each value matches bit for bit."""
    t = np.array([[2, 1, 1, 0], [1, 2, 0, 1], [0, 1, 2, 1], [1, 0, 1, 2]]) / 4.0
    p = np.array([0.5, 0.25, 0.125, 0.125])
    for q in (builtin("neg_log"), builtin("neg_sqrt"), builtin("neg_pow", s=0.3)):
        series = trace_functional("j_functional", StochasticMatrix(t), q=q, inits={"init": Distribution(p)}, steps=12)
        joint = np.diag(p)
        for value in series.values:
            assert value == generalized_mutual_information(q, JointDistribution(joint)), q.name
            joint = joint @ t


def test_traces_survive_row_sum_drift():
    """Rows summing to 1 + 5e-13 pass construction and must not fail mid-trace."""
    rng = np.random.default_rng(41)
    base = random_chain(rng, 4)
    drifting = StochasticMatrix(base.matrix * (1.0 + 5e-13))
    inits = {"init": random_distribution(rng, 4), "init2": random_distribution(rng, 4)}
    for kind in ("entropy", "kl_pair"):
        series = trace_functional(kind, drifting, inits=inits, steps=2000)
        exact = trace_functional(kind, base, inits=inits, steps=2000)
        assert np.abs(series.values - exact.values).max() < 1e-8


def test_trace_argument_validation():
    chain = build_example_chain("mod_k_walk", K=3)
    init = Distribution([1.0, 0.0, 0.0])
    with pytest.raises(BadParamsError):
        trace_functional("free_energy", chain, inits={"init": init})
    with pytest.raises(BadParamsError, match="steps must be nonnegative"):
        trace_functional("entropy", chain, inits={"init": init}, steps=-1)
    for steps in (math.nan, math.inf, -math.inf, 2.5):
        with pytest.raises(BadParamsError, match="steps must be a nonnegative integer"):
            trace_functional("entropy", chain, inits={"init": init}, steps=steps)
    for steps in (2.0, np.int64(2), True):
        assert len(trace_functional("entropy", chain, inits={"init": init}, steps=steps)) == int(steps) + 1
    with pytest.raises(MissingInitError):
        trace_functional("entropy", chain)
    with pytest.raises(MissingInitError):
        trace_functional("kl_pair", chain, inits={"init": init})
    with pytest.raises(MissingInitError):
        trace_functional("u_functional", chain, inits={"init": init})
    with pytest.raises(MissingInitError):
        trace_functional("v_functional", chain, q=builtin("neg_log"), inits={})
    with pytest.raises(BadParamsError):
        trace_functional("entropy", chain, inits={"init": [1, 0, 0]})
    # the step dt belongs to rate matrices, and they cannot do without it
    with pytest.raises(BadParamsError):
        trace_functional("entropy", chain, inits={"init": init}, dt=0.1)
    rates = RateMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    for dt in (None, 0.0):
        with pytest.raises(BadParamsError):
            trace_functional("entropy", rates, inits={"init": init}, dt=dt)
    with pytest.raises(UnstableStepError):
        trace_functional("entropy", rates, inits={"init": init}, dt=1.0)
    with pytest.raises(ArityMismatchError):
        trace_functional("j_functional", rates, q=multi_convex(2), inits={"init": init}, dt=0.1)


@pytest.mark.parametrize("continuous", [False, True], ids=["kernel", "rates"])
def test_circuit_energy_matches_a_decimal_oracle(continuous):
    """(1/2) sum p^2 / pi in 40-digit decimal on the exact float laws and pi.

    Every term is positive, so the kernel's value must lie within
    (n + 4) eps of the oracle relative to it.
    """
    rng = np.random.default_rng(44)
    for n in (2, 5, 17, 64):
        if continuous:
            w = rng.random((n, n))
            np.fill_diagonal(w, 0.0)
            chain, dt = RateMatrix(w), 0.5 / w.sum(axis=1).max()
        else:
            chain, dt = random_chain(rng, n), None
        init = random_distribution(rng, n)
        energy = trace_functional("circuit_energy", chain, inits={"init": init}, steps=12, dt=dt)
        _, laws = propagate(chain, init.probs, 12, dt)
        pi = [Decimal(x) for x in stationary_distribution(chain).probs]
        with localcontext() as ctx:
            ctx.prec = 40
            for value, law in zip(energy.values, laws):
                exact = sum(Decimal(p) * Decimal(p) / m for p, m in zip(law, pi)) / 2
                assert abs(Decimal(value) - exact) <= Decimal((n + 4) * EPS) * exact, (n, value)


def _huge_steps_trace(kind, **kw):
    """A trace whose 10^14 laws could not be held: only a check before the first step returns."""
    chain = build_example_chain("mod_k_walk", K=3)
    return trace_functional(kind, chain, steps=10**14, **kw)


@pytest.mark.parametrize("kind", ["u_functional", "j_functional"])
def test_q_is_checked_before_the_first_step(kind):
    init = {"init": Distribution([1.0, 0.0, 0.0])}
    with pytest.raises(MissingInitError, match=f"trace kind '{kind}' needs a convex function"):
        _huge_steps_trace(kind, inits=init)
    with pytest.raises(ArityMismatchError, match="has arity 2, expected 1"):
        _huge_steps_trace(kind, q=multi_convex(2), inits=init)
    reducible = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MissingInitError):
        trace_functional(kind, reducible, inits={"init": Distribution([0.5, 0.5])})


@pytest.mark.parametrize(
    "kind, inits, error",
    [
        ("entropy", {"init": [1.0, 0.0, 0.0]}, BadParamsError("inits['init'] must be a Distribution")),
        (
            "kl_pair",
            {"init": Distribution([1.0, 0.0, 0.0]), "init2": [0.0, 1.0, 0.0]},
            BadParamsError("inits['init2'] must be a Distribution"),
        ),
        (
            "v_functional",
            {"family": Distribution([1.0, 0.0, 0.0])},
            BadParamsError("inits['family'] must be a MeasureFamily"),
        ),
        (
            "kl_pair",
            {"init": Distribution([1.0, 0.0, 0.0]), "init2": Distribution([0.5, 0.5])},
            DimensionMismatchError("init has 3 states, init2 has 2"),
        ),
    ],
    ids=["init", "init2", "family", "init2_size"],
)
def test_init_types_are_checked_before_the_first_step(kind, inits, error):
    with pytest.raises(type(error)) as raised:
        _huge_steps_trace(kind, q=builtin("neg_log"), inits=inits)
    assert str(raised.value) == str(error)


# ---------------------------------------------------------- entropy rate


def test_h_rate_zero_at_uniform():
    rates = RateMatrix([[0.0, 1.0], [1.0, 0.0]])
    assert h_theorem_rate(rates, Distribution([0.5, 0.5])) == 0.0


def test_h_rate_frozen_two_state_value():
    rates = RateMatrix([[0.0, 1.0], [1.0, 0.0]])
    value = h_theorem_rate(rates, Distribution([0.9, 0.1]))
    assert value == pytest.approx(0.8 * math.log(9.0), abs=1e-13)


def test_h_rate_rejects_bad_inputs():
    asym = RateMatrix([[0.0, 2.0], [1.0, 0.0]])
    with pytest.raises(NotSymmetricError):
        h_theorem_rate(asym, Distribution([0.5, 0.5]))
    sym = RateMatrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ZeroProbabilityError):
        h_theorem_rate(sym, Distribution([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        h_theorem_rate(sym, Distribution([0.5, 0.25, 0.25]))


def test_h_rate_nonnegative_and_matches_finite_difference():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        w = rng.random((n, n)) * 2.0
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        rates = RateMatrix(w)
        p = random_distribution(rng, n)
        assert h_theorem_rate(rates, p) >= -1e-12

        dt = 1e-5
        path = integrate_master_equation(rates, p, dt, 2 * dt)
        centered = (shannon_entropy(path[2][1]) - shannon_entropy(path[0][1])) / (2 * dt)
        rate_mid = h_theorem_rate(rates, path[1][1])
        assert abs(rate_mid - centered) < 1e-4


# ------------------------------------------------------------ blocked loop


_Q = {name: builtin(name) for name in ("u_log_u", "neg_log", "neg_sqrt", "half_square")}


def _per_law(kind, q, pi, law):
    """One kernel call for one law of a trajectory: the reference the blocks must match."""
    kernel = _ratio_functional.__wrapped__  # without its errstate, which costs a third of a call
    if kind == "entropy":
        return -kernel(_Q["u_log_u"], np.ones(law.size), law[None])
    if kind == "kl_to_stationary":
        return kernel(_Q["neg_log"], law, pi[None])
    if kind == "kl_from_stationary":
        return kernel(_Q["neg_log"], pi, law[None])
    if kind == "kl_pair":
        return kernel(_Q["neg_log"], law[0], law[None, 1])
    if kind == "u_functional":
        return kernel(q, pi, law[None])
    if kind == "j_functional":
        product = np.outer(law.sum(axis=1), law.sum(axis=0))
        return kernel(q, law.ravel(), product.ravel()[None])
    if kind == "v_functional":
        return kernel(q, law[0], law[1:])
    if kind == "circuit_energy":
        return kernel(_Q["half_square"], pi, law[None])
    return -kernel(_Q["neg_sqrt"], law, pi[None])


@pytest.mark.parametrize("n", [8, 64, 130])
@pytest.mark.parametrize("continuous", [False, True], ids=["kernel", "rates"])
def test_blocks_match_a_per_law_reference_at_their_boundaries(n, continuous):
    """Each kind steps its rows in blocks of per = max(1, CELLS // rows.size) laws.

    Traces of per - 1, per and per + 1 steps end one law short of, on, and
    one past a block boundary; every value must equal, byte for byte, one
    kernel call on that law alone.  On a kernel, a trace of 2 per + 1 steps
    also carries a law into a block twice (the block loop is the same for
    rates, whose per-law reference would double this test's time).  At
    n = 130 the j_functional joint law has more than CELLS cells, so per = 1
    and each step writes the row it reads.
    """
    rng = np.random.default_rng(61 + n)
    if continuous:
        w = rng.random((n, n))
        np.fill_diagonal(w, 0.0)
        chain, dt = RateMatrix(w), 0.5 / w.sum(axis=1).max()
    else:
        chain, dt = random_chain(rng, n), None
    init, init2 = random_distribution(rng, n), random_distribution(rng, n)
    family = random_family(rng, n, 1)
    pi = stationary_distribution(chain).probs
    for kind in TRACE_KINDS:
        q = {"u_functional": builtin("u_log_u"), "j_functional": builtin("neg_sqrt")}.get(kind)
        q = builtin("neg_pow", s=0.3) if kind == "v_functional" else q
        rows = {
            "kl_pair": np.stack([init.probs, init2.probs]),
            "j_functional": np.diag(init.probs),
            "v_functional": family.measures,
        }.get(kind, init.probs)
        per = max(1, _BLEND_BLOCK_CELLS // rows.size)
        assert per > 1 or (kind, n) == ("j_functional", 130)
        longest = per + 1 if continuous else 2 * per + 1
        _, laws = propagate(chain, rows, longest, dt)
        reference = np.array([_per_law(kind, q, pi, law) for law in laws])
        inits = {"init": init, "init2": init2, "family": family}
        for steps in (per - 1, per, per + 1, longest):
            series = trace_functional(kind, chain, q=q, inits=inits, steps=steps, dt=dt)
            assert series.values.tobytes() == reference[: steps + 1].tobytes(), (kind, steps)


def test_a_long_trace_holds_one_block_of_laws_not_the_trajectory():
    """2001 laws of 64 states take 1 MiB; the traced peak stays below that."""
    rng = np.random.default_rng(62)
    chain, init = random_chain(rng, 64), random_distribution(rng, 64)
    trace_functional("u_functional", chain, q=builtin("u_log_u"), inits={"init": init}, steps=1)
    tracemalloc.start()
    try:
        trace_functional("u_functional", chain, q=builtin("u_log_u"), inits={"init": init}, steps=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2001 * 64 * 8, peak


def test_a_short_trace_holds_a_block_of_its_own_length():
    """31 laws of 16 states take 4 KiB: no block of CELLS cells (128 KiB) is allocated."""
    rng = np.random.default_rng(63)
    chain, init = random_chain(rng, 16), random_distribution(rng, 16)
    trace_functional("u_functional", chain, q=builtin("neg_log"), inits={"init": init}, steps=1)
    tracemalloc.start()
    try:
        trace_functional("u_functional", chain, q=builtin("neg_log"), inits={"init": init}, steps=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _BLEND_BLOCK_CELLS * 8, peak
