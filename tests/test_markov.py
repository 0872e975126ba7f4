"""Chain construction, stationarity, balance, and evolution."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import doubly_stochastic_chain, random_chain, random_distribution, random_family
from infodyn import (
    BadParamsError,
    DimensionMismatchError,
    Distribution,
    EpsilonChannel,
    MeasureFamily,
    NonErgodicError,
    NotStationaryError,
    RateMatrix,
    StochasticMatrix,
    UnstableStepError,
    ZeroProbabilityError,
    backward_matrix,
    build_example_chain,
    check_balance,
    evolve_distribution,
    evolve_measures,
    integrate_master_equation,
    stationary_distribution,
    trace_functional,
)
from infodyn import markov
from infodyn.markov import horizon_steps, propagate
from infodyn.measures import JointDistribution, embed_markov_triple


# ---------------------------------------------------------------- types


def test_distribution_rejects_negative_and_unnormalized():
    with pytest.raises(BadParamsError):
        Distribution([0.5, -0.5, 1.0])
    with pytest.raises(BadParamsError):
        Distribution([0.3, 0.3])
    with pytest.raises(BadParamsError):
        Distribution([])


def test_constructors_divide_out_a_sum_within_tolerance():
    """Exact sums keep the input bit for bit; the others are divided once."""
    rng = np.random.default_rng(5)
    exact = np.array([0.125, 0.375, 0.5])
    assert np.array_equal(Distribution(exact).probs, exact)
    p = rng.random(7) + 0.1
    p /= p.sum() / (1.0 + 4e-13)
    assert p.sum() != 1.0
    assert np.array_equal(Distribution(p).probs, p / p.sum())

    m = rng.random((6, 6)) + 0.1
    m /= m.sum(axis=1, keepdims=True)
    m[::2] = np.array([0.25, 0.125, 0.125, 0.25, 0.125, 0.125])
    m[1] *= 1.0 + 6e-13
    sums = m.sum(axis=1, keepdims=True)
    assert np.all(sums[::2] == 1.0) and np.any(sums != 1.0)
    kernel = StochasticMatrix(m).matrix
    assert np.array_equal(kernel, m / sums)
    assert np.array_equal(kernel[::2], m[::2])

    t = np.array([[0.5, 0.25], [0.125, 0.125]])
    assert np.array_equal(JointDistribution(t).table, t)
    off = t * (1.0 - 3e-13)
    assert off.sum() != 1.0
    assert np.array_equal(JointDistribution(off).table, off / off.sum())

    triple = np.full((2, 2, 2), 0.125) * (1.0 + 2e-13)
    kernel_off, *fams_off = embed_markov_triple(triple)
    kernel_div, *fams_div = embed_markov_triple(triple / triple.sum())
    assert np.array_equal(kernel_off.matrix, kernel_div.matrix)
    for a, b in zip(fams_off, fams_div):
        assert np.array_equal(a.measures, b.measures)


# Each entry must fail the one [0, 1] test of StochasticMatrix and EpsilonChannel.
OUT_OF_UNIT = (1.0 + 5e-13, np.nan, np.inf, -np.inf, -0.1)
OUT_OF_UNIT_IDS = ("above_one", "nan", "inf", "neg_inf", "negative")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Distribution([0.3, 0.3]), "distribution sums to 0.6, expected 1 within 1e-12"),
        (lambda: StochasticMatrix([[0.5, 0.6], [0.5, 0.5]]), "rows [0] do not sum to 1"),
        (
            lambda: StochasticMatrix([[1.0 + 5e-13, 0.0], [0.5, 0.5]]),
            "transition probabilities must lie in [0, 1]",
        ),
        (lambda: JointDistribution([[0.5, 0.4], [0.0, 0.0]]), "joint sums to 0.9, expected 1"),
        (lambda: JointDistribution([0.5, 0.5]), "need a nonempty 2-d table"),
        (lambda: embed_markov_triple(np.full((2, 2, 2), 0.1)), "joint sums to 0.8, expected 1"),
        *(
            (
                lambda x=x: StochasticMatrix([[x, 1.0], [0.5, 0.5]]),
                "transition probabilities must lie in [0, 1]",
            )
            for x in OUT_OF_UNIT[1:]
        ),
        *(
            (lambda x=x: EpsilonChannel([0.1, 0.2, x]), "crossover probabilities must lie in [0, 1]")
            for x in OUT_OF_UNIT
        ),
    ],
    ids=[
        "distribution", "rows", "entry", "joint", "joint_1d", "triple",
        *(f"entry_{name}" for name in OUT_OF_UNIT_IDS[1:]),
        *(f"crossover_{name}" for name in OUT_OF_UNIT_IDS),
    ],
)
def test_constructors_keep_their_sum_errors(build, error):
    with pytest.raises(BadParamsError) as raised:
        build()
    assert str(raised.value) == error


def test_distribution_is_frozen():
    d = Distribution([0.25, 0.75])
    with pytest.raises(ValueError):
        d.probs[0] = 0.5


def test_stochastic_matrix_rejects_bad_rows():
    with pytest.raises(BadParamsError):
        StochasticMatrix([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(BadParamsError):
        StochasticMatrix([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(BadParamsError):
        StochasticMatrix([[1.0, 0.0]])


def test_rate_matrix_rejects_negative_and_nonzero_diagonal():
    with pytest.raises(BadParamsError):
        RateMatrix([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(BadParamsError):
        RateMatrix([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(BadParamsError, match="rate matrix must be square and nonempty"):
        RateMatrix([[0.0, 1.0]])


def test_rate_matrix_generator_rows_sum_to_zero():
    w = RateMatrix([[0.0, 2.0, 1.0], [0.5, 0.0, 0.5], [3.0, 0.0, 0.0]])
    g = w.generator()
    assert np.allclose(g.sum(axis=1), 0.0, atol=1e-15)
    assert np.allclose(g - np.diag(np.diag(g)), w.matrix - 0.0)


NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize(
    "build",
    [
        lambda x: Distribution([x, 0.5, 0.5]),
        lambda x: StochasticMatrix([[x, 1.0], [0.5, 0.5]]),
        lambda x: RateMatrix([[0.0, x], [1.0, 0.0]]),
        lambda x: MeasureFamily([[0.5, 0.5], [x, 1.0]]),
        lambda x: MeasureFamily([[x, 0.5], [0.5, 1.0]], require_positive=False),
    ],
    ids=["distribution", "stochastic", "rates", "family", "family_reference"],
)
def test_constructors_reject_non_finite_entries(build):
    for x in NON_FINITE:
        with pytest.raises(BadParamsError):
            build(x)


def test_measure_family_requires_positive_reference():
    with pytest.raises(ZeroProbabilityError):
        MeasureFamily([[1.0, 0.0], [1.0, 1.0]])
    fam = MeasureFamily([[1.0, 0.0], [1.0, 0.0]], require_positive=False)
    assert fam.k == 1 and fam.n == 2
    with pytest.raises(BadParamsError):
        MeasureFamily([[1.0, 1.0]])  # no companion row


# ---------------------------------------------------------- stationarity


def test_stationary_symmetric_two_state_is_uniform():
    chain = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
    pi = stationary_distribution(chain)
    assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-14)


def test_stationary_mod3_walk_is_uniform():
    pi = stationary_distribution(build_example_chain("mod_k_walk", K=3))
    assert np.allclose(pi.probs, 1.0 / 3.0, atol=1e-13)


def test_stationary_mm1_truncated_is_renormalized_geometric():
    n = 20
    chain = build_example_chain("mm1_truncated", lam=1.0, mu=2.0, n_states=n)
    pi = stationary_distribution(chain)
    geo = 0.5 ** np.arange(n)
    geo /= geo.sum()
    assert np.abs(pi.probs - geo).max() < 1e-13


def test_stationary_rejects_reducible_chain():
    block = StochasticMatrix(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    with pytest.raises(NonErgodicError):
        stationary_distribution(block)


def test_stationary_rejects_one_way_flow():
    # state 2 is absorbing, nothing returns to 0
    m = StochasticMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NonErgodicError):
        stationary_distribution(m)


def test_stationary_power_iteration_path_discrete():
    rng = np.random.default_rng(7)
    chain = random_chain(rng, 70)  # dense, so it mixes fast and never reaches elimination
    pi = stationary_distribution(chain)
    assert np.abs(pi.probs @ chain.matrix - pi.probs).max() < 1e-10
    assert np.all(pi.probs > 0.0)


def test_stationary_power_iteration_path_continuous():
    rng = np.random.default_rng(8)
    w = rng.random((70, 70))  # dense rates, solved by power iteration like the kernel
    np.fill_diagonal(w, 0.0)
    rates = RateMatrix(w)
    pi = stationary_distribution(rates)
    assert np.abs(pi.probs @ rates.generator()).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_stationary_random_chain_properties(seed, n):
    """Dense random kernels always yield a positive stationary law."""
    chain = random_chain(np.random.default_rng(seed), n)
    pi = stationary_distribution(chain)
    assert np.all(pi.probs > 0.0)
    assert np.abs(pi.probs @ chain.matrix - pi.probs).max() < 1e-9


def _exact_stationary(w):
    """Stationary law of the rates in exact rational arithmetic.

    Entries may be floats or Fractions.  The diagonal is ignored, so an
    exactly row-stochastic kernel passes as its own rates.
    """
    n = len(w)
    g = [[Fraction(x) for x in row] for row in w]
    for i in range(n):
        g[i][i] = -sum(g[i][j] for j in range(n) if j != i)
    # pi G = 0 with the last balance equation replaced by sum(pi) = 1
    a = [[g[j][i] for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    a.append([Fraction(1)] * (n + 1))
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return np.array([float(a[i][n] / a[i][i]) for i in range(n)])


def _relative_error(pi, exact):
    return float(np.max(np.abs(pi - exact) / exact))


def test_stationary_matches_exact_rational_laws():
    """Small rational kernels and rate matrices against a fractions solve."""
    rng = np.random.default_rng(31)
    for trial in range(40):
        n = 2 + trial % 5
        counts = rng.integers(0, 10, (n, n))
        counts[np.arange(n), (np.arange(n) + 1) % n] += 1  # a cycle keeps it irreducible
        if trial % 2:
            np.fill_diagonal(counts, 0)
            rates = [[Fraction(int(c), 3) for c in row] for row in counts]
            chain = RateMatrix([[float(x) for x in row] for row in rates])
        else:
            rates = [[Fraction(int(c), int(sum(row))) for c in row] for row in counts]
            chain = StochasticMatrix([[float(x) for x in row] for row in rates])
        exact = _exact_stationary(rates)
        assert _relative_error(stationary_distribution(chain).probs, exact) <= 1e-13


def test_stationary_of_a_kernel_read_from_decimal_text():
    """Rows printed with 13 digits miss 1 by about 1e-13; the law must not.

    The oracle is the exact law of the chain whose rows are the parsed
    rows divided by their exact sums.
    """
    g = np.random.default_rng(2)
    t = g.random((8, 8)) ** 3 + 0.02
    t /= t.sum(axis=1, keepdims=True)
    t = np.array([[float(f"{x:.12e}") for x in row] for row in t])
    assert np.abs(t.sum(axis=1) - 1.0).max() > 5e-14
    rows = [[Fraction(x) for x in row] for row in t]
    exact = _exact_stationary([[x / sum(row) for x in row] for row in rows])
    assert _relative_error(stationary_distribution(StochasticMatrix(t)).probs, exact) <= 1e-12


def test_stationary_of_a_periodic_reflecting_walk():
    """Period 2, which the lazy step removes: the law puts 1/(2(n-1)) on each end."""
    n = 71
    t = np.zeros((n, n))
    t[np.arange(n - 1), np.arange(1, n)] = 0.5
    t[np.arange(1, n), np.arange(n - 1)] = 0.5
    t[0, 1] = t[n - 1, n - 2] = 1.0
    exact = np.full(n, 1.0 / (n - 1))
    exact[[0, -1]] /= 2.0
    assert _relative_error(stationary_distribution(StochasticMatrix(t)).probs, exact) <= 1e-8


def _birth_death_law(up, down):
    """Exact law from detailed balance, pi(i+1) / pi(i) = up[i] / down[i]."""
    weights = [Fraction(1)]
    for u, d in zip(up, down):
        weights.append(weights[-1] * Fraction(float(u)) / Fraction(float(d)))
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


@pytest.mark.parametrize(
    "lam, mu, n",
    [(1.0, 10.0, 40), (1.0, 10.0, 100), (0.99, 1.0, 200)],
    ids=["steep-40", "steep-100", "slow-200"],
)
def test_stationary_of_a_truncated_queue_is_exact_in_every_entry(lam, mu, n):
    """Tail entries near 1e-99, or a spectral gap of 2.7e-4: each entry within 1e-12 relative."""
    chain = build_example_chain("mm1_truncated", lam=lam, mu=mu, n_states=n)
    exact = _birth_death_law(np.full(n - 1, lam), np.full(n - 1, mu))
    assert _relative_error(stationary_distribution(chain).probs, exact) <= 1e-12


def test_stationary_of_birth_death_chains_at_every_size():
    """Lazy kernels and rate chains from 16 to 260 states, steep, slow and rising."""
    for n in (16, 65, 130, 260):
        i = np.arange(n - 1)
        for load in (0.1, 0.9, 0.99, 2.0):
            up, down = np.full(n - 1, load / 4.0), np.full(n - 1, 0.25)
            w = np.zeros((n, n))
            w[i, i + 1], w[i + 1, i] = up, down
            exact = _birth_death_law(up, down)
            assert _relative_error(stationary_distribution(RateMatrix(w)).probs, exact) <= 1e-12
            np.fill_diagonal(w, 1.0 - w.sum(axis=1))
            pi = stationary_distribution(StochasticMatrix(w)).probs
            assert _relative_error(pi, exact) <= 1e-12


@pytest.mark.parametrize("continuous, degree", [(False, 3), (True, 8)], ids=["kernel", "rates"])
def test_stationary_of_a_sparse_non_reversible_chain_above_64_states(continuous, degree):
    """A cycle plus `degree` random jumps per state, against the fractions solve.

    Entries are dyadic, so the oracle reads the stored matrix exactly.
    """
    n = 70
    rng = np.random.default_rng(degree)
    counts = np.zeros((n, n))
    counts[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    for _ in range(degree):
        counts[np.arange(n), rng.integers(0, n, n)] += rng.integers(1, 4, n)
    np.fill_diagonal(counts, 0.0)
    if continuous:
        chain = RateMatrix(counts / 4.0)
    else:
        t = counts / 64.0
        np.fill_diagonal(t, 1.0 - t.sum(axis=1))
        chain = StochasticMatrix(t)
    exact = _exact_stationary(chain.matrix.tolist())
    assert _relative_error(stationary_distribution(chain).probs, exact) <= 1e-12


@pytest.mark.parametrize("continuous", [False, True], ids=["kernel", "rates"])
def test_stationary_of_a_nearly_decomposable_chain_with_a_mode_the_lazy_step_removes(continuous):
    """Two blocks joined at rates near 1e-6, each with a mode the lazy step maps to 0.

    Two sweeps see only the within-block move die; the block masses, 1/2 at
    the start and 0.50005 in the law, still have to move.
    """
    block = np.array([[0.0, 1.0], [0.05, 0.0]] if continuous else [[0.45, 0.55], [0.5, 0.5]])
    w = np.zeros((4, 4))
    for rows, other, a in ((slice(0, 2), slice(2, 4), 1e-6), (slice(2, 4), slice(0, 2), 1.0002e-6)):
        w[rows, rows] = block if continuous else (1.0 - a) * block
        w[rows, other] = a / 2.0
    chain = RateMatrix(w) if continuous else StochasticMatrix(w)
    exact = _exact_stationary(chain.matrix.tolist())
    assert _relative_error(stationary_distribution(chain).probs, exact) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_stationary_of_nearly_decomposable_kernels_with_hidden_slow_modes(seed):
    """2-state blocks, most with a mode the lazy step removes, joined at 1e-10 to 1e-2.

    Block masses start near their law, so the slow mode moves the iterate
    little; every law is still within 1e-12 of the fractions solve.
    """
    g = np.random.default_rng(seed)
    for _ in range(60):
        k = int(g.integers(2, 5))
        t = np.zeros((2 * k, 2 * k))
        a = 10.0 ** g.uniform(-10, -2)
        for b in range(k):
            x = g.uniform(0.0, 0.9)
            block = [[x, 1.0 - x], [x + 0.05, 0.95 - x]] if g.random() < 0.7 else [[0.5, 0.5]] * 2
            ab = a * (1.0 + 10.0 ** g.uniform(-12, -1) * g.choice([-1.0, 1.0]))
            others = np.arange(2 * k) // 2 != b
            t[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = (1.0 - ab) * np.array(block)
            t[2 * b : 2 * b + 2, others] = ab / (2 * k - 2)
        chain = StochasticMatrix(t / t.sum(axis=1, keepdims=True))
        exact = _exact_stationary(chain.matrix.tolist())
        assert _relative_error(stationary_distribution(chain).probs, exact) <= 1e-12


@pytest.mark.parametrize(
    "chain", [StochasticMatrix([[1.0]]), RateMatrix([[0.0]])], ids=["kernel", "rates"]
)
def test_stationary_of_a_single_state(chain):
    """No exit rate to uniformize by, and no warning (warnings are errors here)."""
    assert stationary_distribution(chain).probs.tolist() == [1.0]


def _raise_if_called(chain):
    raise AssertionError(f"a fast-mixing chain with {chain.n} states reached elimination")


def test_stationary_of_fast_mixing_dense_kernels_needs_no_elimination(monkeypatch):
    """Rows w**3 + 0.02 normalized: power iteration solves them alone.

    With elimination made to raise, each law still comes out within 1e-12
    of the one elimination gives.
    """
    g = np.random.default_rng(12)
    for n in (96, 256, 512):
        t = g.random((n, n)) ** 3 + 0.02
        chain = StochasticMatrix(t / t.sum(axis=1, keepdims=True))
        eliminated = markov._gth(chain)
        with monkeypatch.context() as m:
            m.setattr(markov, "_gth", _raise_if_called)
            pi = stationary_distribution(chain).probs
        assert _relative_error(pi, eliminated) <= 1e-12


def _birth_death_rates(up, down, n=400):
    w = np.zeros((n, n))
    w[np.arange(n - 1), np.arange(1, n)] = up
    w[np.arange(1, n), np.arange(n - 1)] = down
    return RateMatrix(w)


@pytest.mark.parametrize(
    "chain",
    [
        _birth_death_rates(10.0, 1.0),
        _birth_death_rates(1.0, 10.0),
        # irreducible, but pi(0) is about 6.4e-324: elimination divides by a subnormal row sum
        StochasticMatrix([[0.22434580177714386, 0.7756541982228561], [5e-324, 1.0]]),
    ],
    ids=["rising", "falling", "subnormal"],
)
def test_stationary_of_a_law_wider_than_the_float_range_raises(chain):
    """A law whose entries span more than the float range cannot be held: a typed error, not a wrong law or a warning."""
    with pytest.raises(NonErgodicError, match="not strictly positive"):
        stationary_distribution(chain)


def test_stationary_rejects_a_long_path_cut_deep_inside():
    """Forward reachability spans all 100 states; backward stops at the cut."""
    n = 100
    w = np.zeros((n, n))
    w[np.arange(n - 1), np.arange(1, n)] = 1.0
    w[np.arange(1, n), np.arange(n - 1)] = 2.0
    w[70, 69] = 0.0
    with pytest.raises(NonErgodicError, match="reducible"):
        stationary_distribution(RateMatrix(w))


# ------------------------------------------------------------- evolution


def test_evolve_mod3_single_step_from_point_mass():
    chain = build_example_chain("mod_k_walk", K=3)
    traj = evolve_distribution(chain, Distribution([1.0, 0.0, 0.0]), 1)
    assert len(traj) == 2
    assert np.allclose(traj[1].probs, [0.0, 0.5, 0.5], atol=0.0)


def test_evolve_zero_steps_returns_init_only():
    chain = build_example_chain("mod_k_walk", K=3)
    init = Distribution([0.2, 0.3, 0.5])
    traj = evolve_distribution(chain, init, 0)
    assert len(traj) == 1
    assert traj[0] is init


def test_evolve_doubly_stochastic_converges_to_uniform():
    chain = doubly_stochastic_chain(np.random.default_rng(3), 4)
    traj = evolve_distribution(chain, Distribution([1.0, 0.0, 0.0, 0.0]), 50)
    assert np.abs(traj[-1].probs - 0.25).max() < 1e-6


def test_evolve_validates_dimensions_and_steps():
    chain = build_example_chain("mod_k_walk", K=3)
    with pytest.raises(DimensionMismatchError):
        evolve_distribution(chain, Distribution([0.5, 0.5]), 1)
    with pytest.raises(BadParamsError, match="steps must be nonnegative"):
        evolve_distribution(chain, Distribution([1.0, 0.0, 0.0]), -1)
    for steps in (math.nan, math.inf, -math.inf, 2.5, "2"):
        with pytest.raises(BadParamsError, match="steps must be a nonnegative integer"):
            evolve_distribution(chain, Distribution([1.0, 0.0, 0.0]), steps)
    for steps in (2.0, np.int64(2), True):
        assert len(evolve_distribution(chain, Distribution([1.0, 0.0, 0.0]), steps)) == int(steps) + 1
    rates = RateMatrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(BadParamsError, match="requires a discrete-time chain"):
        evolve_distribution(rates, Distribution([1.0, 0.0, 0.0]), 1)
    with pytest.raises(BadParamsError, match="requires a continuous-time chain"):
        integrate_master_equation(chain, Distribution([1.0, 0.0, 0.0]), 0.1, 1.0)


def test_wrappers_check_once_and_return_frozen_rows():
    rng = np.random.default_rng(21)
    chain = random_chain(rng, 5)
    init = random_distribution(rng, 5)
    traj = evolve_distribution(chain, init, 30)
    _, laws = propagate(chain, init.probs, 30)
    assert all(type(d) is Distribution for d in traj)
    assert np.array_equal(np.stack([d.probs for d in traj]), laws)
    with pytest.raises(ValueError):
        traj[7].probs[0] = 0.5
    fam = random_family(rng, 5, 2)
    path = evolve_measures(chain, fam, 12)
    assert all(type(m) is MeasureFamily and m.require_positive for m in path)
    with pytest.raises(ValueError):
        path[3].measures[0, 0] = 1.0
    rates = RateMatrix([[0.0, 2.0], [1.0, 0.0]])
    timed = integrate_master_equation(rates, Distribution([1.0, 0.0]), 0.1, 1.0)
    assert [type(t) for t, _ in timed] == [float] * 11
    with pytest.raises(ValueError):
        timed[4][1].probs[1] = 0.0


def test_evolve_holds_the_mass_of_a_drifting_kernel():
    """Rows 5e-13 over 1 pass construction and must not raise 2000 steps later."""
    rng = np.random.default_rng(13)
    raw = rng.random((6, 6)) + 0.05
    raw /= raw.sum(axis=1, keepdims=True) / (1.0 + 5e-13)
    p = np.eye(6)[0]
    for _ in range(2000):  # the kernel as given: its excess compounds
        p = p @ raw
    assert p.sum() - 1.0 > 1e-10
    laws = evolve_distribution(StochasticMatrix(raw), Distribution(np.eye(6)[0]), 2000)
    assert len(laws) == 2001
    assert max(abs(d.probs.sum() - 1.0) for d in laws) <= 1e-13


@pytest.mark.parametrize("continuous", [False, True], ids=["kernel", "rates"])
def test_propagate_equals_a_bare_loop_that_allocates_each_law(continuous):
    """Laws stepped in place are byte-equal to p = p @ T, or p = p + p @ D for rates.

    Sizes straddle the BLAS blocking edges, and rows are one law, a pair, a
    family and an n x n stack, stepped into a fresh row and into the law itself.
    """
    rng = np.random.default_rng(23)
    for n in (1, 2, 8, 63, 64, 65, 130):
        if continuous:
            w = rng.random((n, n))
            np.fill_diagonal(w, 0.0)
            chain, dt = RateMatrix(w), 0.5 / max(w.sum(axis=1).max(), 1.0)
            d = markov._rk4_increment(chain, dt)
            step = lambda p: p + p @ d
        else:
            chain, dt = random_chain(rng, n), None
            step = lambda p: p @ chain.matrix
        stacks = (
            random_distribution(rng, n).probs,
            random_family(rng, n, 1).measures,
            random_family(rng, n, 3).measures,
            rng.random((n, n)),
        )
        for rows in stacks:
            _, laws = propagate(chain, rows, 40, dt)
            in_place, step_map = rows.copy(), markov._step_map(chain, rows, 40, dt)
            p = rows
            for law in laws:
                assert law.tobytes() == p.tobytes(), (n, rows.shape)
                assert in_place.tobytes() == p.tobytes(), (n, rows.shape)
                step_map(in_place, in_place)
                p = step(p)


def test_the_step_takes_only_1d_or_2d_rows():
    """A 3-d stack would leave BLAS in np.dot and move bits: it is refused, as 0-d rows are."""
    chain = random_chain(np.random.default_rng(25), 3)
    for rows in (np.full((2, 2, 3), 1.0 / 3.0), np.array(1.0)):
        with pytest.raises(DimensionMismatchError, match="1-d or 2-d rows"):
            propagate(chain, rows, 1)
    with pytest.raises(DimensionMismatchError, match=r"rows have shape \(2,\), chain has 3 states"):
        propagate(chain, np.array([0.5, 0.5]), 1)


def test_rk4_times_are_whole_multiples_of_the_step():
    """Times are k * dt exactly, as a per-step product gives them, not a running sum."""
    rng = np.random.default_rng(24)
    w = rng.random((4, 4))
    np.fill_diagonal(w, 0.0)
    dt, steps = 0.1 / w.sum(axis=1).max(), 1000
    rates, init = RateMatrix(w), Distribution(np.eye(4)[0])
    times, _ = propagate(rates, init.probs, steps, dt)
    assert times.tobytes() == np.array([k * dt for k in range(steps + 1)]).tobytes()
    trace = trace_functional("entropy", rates, inits={"init": init}, steps=steps, dt=dt)
    assert trace.times.tobytes() == times.tobytes()


def test_horizon_must_hold_a_finite_number_of_steps():
    assert horizon_steps(0.1, 1.0) == 10
    for dt, horizon in ((0.01, np.inf), (1e-10, 1e300)):
        with pytest.raises(BadParamsError, match="finite number of steps"):
            horizon_steps(dt, horizon)


@pytest.mark.parametrize(
    "steps, count",
    [(10**14, "1e+14"), (10**302, "1e+302"), (10**400, "1e+400")],
    ids=["memory", "dimension", "beyond_float"],
)
def test_propagate_refuses_a_trajectory_it_cannot_hold(steps, count):
    """All sizes exceed the address space, so numpy refuses them without allocating."""
    with pytest.raises(BadParamsError) as raised:
        propagate(build_example_chain("cyclic", K=3), np.eye(3)[0], steps)
    assert str(raised.value).startswith(f"{count} laws cannot be held: ")


def test_counts_are_written_as_float_formatting_writes_them():
    """Exact for counts of every size up to 1e300, ties and 53-bit rounding included."""
    rng = np.random.default_rng(28)
    counts = [*range(1, 2100), *(2**b + d for b in range(10, 997, 7) for d in (-1, 0, 1))]
    for k in range(4, 300):
        counts += [10**k - 1, 10**k + 1, 1235 * 10**k, 1235 * 10**k + 1, 9995 * 10**k - 1]
        counts += [int(x) * 10 ** (k - 4) for x in rng.integers(1000, 10000, 3)]
    assert [markov._count_text(n) for n in counts] == [f"{n:.3g}" for n in counts]
    assert markov._count_text(10**400 + 1) == "1e+400"
    assert markov._count_text(2**1024) == "1.8e+308"
    # past the float range the exact decimal rounds half to even
    assert markov._count_text(1245 * 10**309) == "1.24e+312"
    assert markov._count_text(1255 * 10**309) == "1.26e+312"


def test_evolve_measures_raises_at_a_vanishing_reference():
    chain = build_example_chain("cyclic", K=3)
    fam = MeasureFamily([[0.5, 0.5, 0.0], [1.0, 1.0, 1.0]], require_positive=False)
    assert len(evolve_measures(chain, fam, 4)) == 5
    positive = MeasureFamily([[0.5, 0.5, 1e-300], [1.0, 1.0, 1.0]])
    draining = StochasticMatrix([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ZeroProbabilityError):
        evolve_measures(draining, positive, 3)


def test_evolve_measures_preserves_proportionality_and_mass():
    rng = np.random.default_rng(11)
    chain = random_chain(rng, 3)
    base = rng.random(3) + 0.1
    fam = MeasureFamily(np.vstack([base, 2.5 * base]))
    path = evolve_measures(chain, fam, 10)
    masses0 = fam.measures.sum(axis=1)
    for step in path:
        assert np.allclose(step.measures[1], 2.5 * step.measures[0], atol=1e-13)
        assert np.abs(step.measures.sum(axis=1) - masses0).max() < 1e-12


def test_evolve_measures_stationary_reference_is_fixed():
    rng = np.random.default_rng(12)
    chain = random_chain(rng, 4)
    pi = stationary_distribution(chain)
    fam = MeasureFamily(np.vstack([pi.probs, rng.random(4) + 0.1]))
    path = evolve_measures(chain, fam, 5)
    for step in path:
        assert np.abs(step.reference - pi.probs).max() < 1e-13


def test_evolve_measures_mass_conserved_for_random_family():
    rng = np.random.default_rng(13)
    chain = random_chain(rng, 3)
    fam = random_family(rng, 3, 2)
    path = evolve_measures(chain, fam, 10)
    for step in path:
        assert np.abs(step.measures.sum(axis=1) - fam.measures.sum(axis=1)).max() < 1e-12


# ----------------------------------------------------- master equation


def two_state_symmetric():
    return RateMatrix([[0.0, 1.0], [1.0, 0.0]])


def test_master_equation_matches_two_state_closed_form():
    # p0(t) = (1 + exp(-2t)) / 2 for symmetric unit rates from (1, 0)
    path = integrate_master_equation(two_state_symmetric(), Distribution([1.0, 0.0]), 0.001, 1.0)
    t_end, p_end = path[-1]
    assert t_end == pytest.approx(1.0, abs=1e-12)
    exact = 0.5 * (1.0 + np.exp(-2.0))
    assert abs(p_end.probs[0] - exact) < 1e-9


def test_master_equation_stationary_init_stays_put():
    rates = build_example_chain("mm1_truncated", lam=1.0, mu=2.0, n_states=6)
    pi = stationary_distribution(rates)
    path = integrate_master_equation(rates, pi, 0.01, 2.0)
    drift = max(np.abs(p.probs - pi.probs).max() for _, p in path)
    assert drift < 1e-12


def test_master_equation_converges_to_geometric_law():
    mu = 2.0
    rates = build_example_chain("mm1_truncated", lam=1.0, mu=mu, n_states=8)
    pi = stationary_distribution(rates)
    path = integrate_master_equation(rates, Distribution([1.0] + [0.0] * 7), 0.01, 50.0 / mu)
    assert np.abs(path[-1][1].probs - pi.probs).max() < 1e-4


def test_master_equation_conserves_probability():
    rng = np.random.default_rng(21)
    w = rng.random((5, 5)) * 3.0
    np.fill_diagonal(w, 0.0)
    path = integrate_master_equation(RateMatrix(w), random_distribution(rng, 5), 0.01, 5.0)
    for _, p in path:
        assert abs(p.probs.sum() - 1.0) < 1e-9


def test_master_equation_guards_against_coarse_steps():
    rates = RateMatrix([[0.0, 50.0], [50.0, 0.0]])
    with pytest.raises(UnstableStepError):
        integrate_master_equation(rates, Distribution([1.0, 0.0]), 0.05, 1.0)
    with pytest.raises(BadParamsError):
        integrate_master_equation(rates, Distribution([1.0, 0.0]), 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6), st.floats(0.01, 0.999))
def test_rk4_step_matrix_is_a_markov_kernel(seed, n, stiffness):
    """R is nonnegative, stochastic, one RK4 step, and keeps the rates' law.

    R is read off as one engine step from each unit vector.  Rounding
    bounds are a few ulps per summed term, 4 n eps.
    """
    w = 10.0 ** np.random.default_rng(seed).uniform(-8.0, 3.0, (n, n))
    np.fill_diagonal(w, 0.0)
    rates = RateMatrix(w)
    dt = stiffness / w.sum(axis=1).max()
    r = propagate(rates, np.eye(n), 1, dt)[1][1]
    rounding = 4 * n * np.finfo(float).eps
    assert np.all(r >= 0.0)
    assert np.abs(r.sum(axis=1) - 1.0).max() <= rounding

    g = rates.generator()
    p = np.eye(n)
    k1 = p @ g
    k2 = (p + 0.5 * dt * k1) @ g
    k3 = (p + 0.5 * dt * k2) @ g
    k4 = (p + dt * k3) @ g
    stagewise = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(r - stagewise).max() <= 1e-13

    pi = _exact_stationary(w)
    assert np.abs(pi @ r - pi).max() <= rounding


# ---------------------------------------------------------------- balance


def test_balance_mod_k_walk_is_detailed_and_doubly_stochastic():
    chain = build_example_chain("mod_k_walk", K=5)
    report = check_balance(chain, stationary_distribution(chain))
    assert report.is_doubly_stochastic
    assert report.satisfies_global_balance
    assert report.satisfies_detailed_balance
    assert report.max_residual < 1e-13


def test_balance_cyclic_chain_is_global_but_not_detailed():
    chain = build_example_chain("cyclic", K=3)
    uniform = Distribution([1.0 / 3.0] * 3)
    report = check_balance(chain, uniform)
    assert report.satisfies_global_balance
    assert not report.satisfies_detailed_balance
    assert report.is_doubly_stochastic  # permutation matrix


def test_balance_mm1_detailed_residual_tiny():
    chain = build_example_chain("mm1_truncated", lam=1.0, mu=2.0, n_states=12)
    report = check_balance(chain, stationary_distribution(chain))
    assert report.satisfies_detailed_balance
    assert report.max_residual <= 1e-12
    assert not report.is_doubly_stochastic  # flag reserved for discrete kernels


def test_balance_wrong_law_fails_global():
    chain = build_example_chain("mod_k_walk", K=3)
    report = check_balance(chain, Distribution([0.6, 0.2, 0.2]))
    assert not report.satisfies_global_balance
    assert not report.satisfies_detailed_balance
    assert report.max_residual > 0.01


def test_balance_dimension_mismatch():
    chain = build_example_chain("mod_k_walk", K=3)
    with pytest.raises(DimensionMismatchError):
        check_balance(chain, Distribution([0.5, 0.5]))
    for tol in (math.nan, math.inf, -math.inf, -1e-9):
        with pytest.raises(BadParamsError, match="tol must be finite and nonnegative"):
            check_balance(chain, Distribution([1 / 3, 1 / 3, 1 / 3]), tol=tol)


# --------------------------------------------------------------- reversal


def test_backward_of_reversible_chain_is_the_forward_kernel():
    chain = build_example_chain("mod_k_walk", K=4)
    pi = stationary_distribution(chain)
    b = backward_matrix(chain, pi)
    assert np.abs(b.matrix - chain.matrix).max() < 1e-13


def test_backward_of_cycle_is_the_reversed_cycle():
    chain = build_example_chain("cyclic", K=3)
    b = backward_matrix(chain, Distribution([1.0 / 3.0] * 3))
    expected = np.zeros((3, 3))
    for i in range(3):
        expected[i, (i - 1) % 3] = 1.0
    assert np.abs(b.matrix - expected).max() == 0.0


def test_backward_rows_sum_to_one_and_reversal_is_involutive():
    rng = np.random.default_rng(5)
    chain = random_chain(rng, 6)
    pi = stationary_distribution(chain)
    b = backward_matrix(chain, pi)
    assert np.abs(b.matrix.sum(axis=1) - 1.0).max() < 1e-12
    again = backward_matrix(b, pi)
    assert np.abs(again.matrix - chain.matrix).max() < 1e-12


def test_backward_rejects_zero_mass_and_non_stationary_laws():
    chain = build_example_chain("mod_k_walk", K=3)
    with pytest.raises(NotStationaryError):
        backward_matrix(chain, Distribution([0.5, 0.25, 0.25]))
    two = StochasticMatrix([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ZeroProbabilityError):
        backward_matrix(two, Distribution([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError, match="law has 2 states, chain has 3"):
        backward_matrix(chain, Distribution([0.5, 0.5]))


# ------------------------------------------------------------ constructors


def test_build_mod_k_walk_matrix():
    chain = build_example_chain("mod_k_walk", K=3)
    expected = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
    assert np.abs(chain.matrix - expected).max() == 0.0
    # K=2 folds the two directions onto the single neighbor
    swap = build_example_chain("mod_k_walk", K=2)
    assert np.abs(swap.matrix - [[0.0, 1.0], [1.0, 0.0]]).max() == 0.0


def test_build_cyclic_matrix():
    chain = build_example_chain("cyclic", K=3)
    expected = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    assert np.abs(chain.matrix - expected).max() == 0.0


def test_build_mm1_rates():
    rates = build_example_chain("mm1_truncated", lam=1.0, mu=2.0, n_states=3)
    expected = [[0.0, 1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 2.0, 0.0]]
    assert isinstance(rates, RateMatrix)
    assert np.abs(rates.matrix - expected).max() == 0.0


def _loop_builders(k, lam, mu):
    """The stock matrices filled entry by entry, as the reference for the array builders."""
    walk, cycle, rates = np.zeros((k, k)), np.zeros((k, k)), np.zeros((k, k))
    for i in range(k):
        walk[i, (i + 1) % k] += 0.5
        walk[i, (i - 1) % k] += 0.5
        cycle[i, (i + 1) % k] = 1.0
    for x in range(k - 1):
        rates[x, x + 1] = lam
        rates[x + 1, x] = mu
    return walk, cycle, rates


def test_stock_builders_equal_their_loop_definitions():
    rng = np.random.default_rng(17)
    for k in range(2, 65):
        lam, mu = np.sort(rng.random(2) * 3.0 + 0.01)
        walk, cycle, rates = _loop_builders(k, lam, mu)
        built = (
            build_example_chain("mod_k_walk", K=k),
            build_example_chain("cyclic", K=k),
            build_example_chain("mm1_truncated", lam=lam, mu=mu, n_states=k),
        )
        for chain, expected in zip(built, (walk, cycle, rates)):
            assert chain.matrix.tobytes() == expected.tobytes()


def test_build_rejects_bad_parameters():
    for k in (math.nan, math.inf, 2.5):
        with pytest.raises(BadParamsError, match="must be an integer"):
            build_example_chain("cyclic", K=k)
    with pytest.raises(BadParamsError):
        build_example_chain("mod_k_walk", K=1)
    with pytest.raises(BadParamsError):
        build_example_chain("cyclic", K=1)
    with pytest.raises(BadParamsError):
        build_example_chain("mm1_truncated", lam=2.0, mu=1.0, n_states=5)
    with pytest.raises(BadParamsError):
        build_example_chain("mm1_truncated", lam=1.0, mu=2.0, n_states=1)
    with pytest.raises(BadParamsError):
        build_example_chain("brownian")
    with pytest.raises(BadParamsError, match="unknown chain kind 'custom'"):
        build_example_chain("custom", matrix=[[1.0]])
    with pytest.raises(BadParamsError, match="missing parameter 'K'"):
        build_example_chain("mod_k_walk")
