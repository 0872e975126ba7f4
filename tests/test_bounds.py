"""Bound curve, endpoints, and the brute-force oracles for both sides."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import (
    BadGridError,
    BadParamsError,
    BoundReport,
    DimensionMismatchError,
    Distribution,
    EpsilonChannel,
    ExampleConfig,
    GridSpec,
    OutOfValidityRangeError,
    PsiAboveOneError,
    binary_entropy_bits,
    binary_entropy_nats,
    capacity_value,
    classical_bound,
    distortion_bound,
    optimize_s,
    oracle_channel_value,
    oracle_source_value,
    psi_exact,
    psi_lower,
    psi_limit,
    rate_distortion_value,
    report_to_dict,
    source_joint,
)

CONFIGS = [ExampleConfig(3, 2), ExampleConfig(5, 4), ExampleConfig(7, 4)]

# Remaining digits of 1/2 - sqrt(3)/4 and 1/2 - 1/(2 sqrt(3)).
D_AT_ZERO_32 = 0.0669872981077807
D_AT_LIMIT_32 = 0.21132486540518712
D_CLASSICAL_32 = 0.14027650699746474


def test_config_validation():
    assert ExampleConfig(3, 2).theta == 1.5
    assert ExampleConfig(4, 2).theta == 2.0
    with pytest.raises(BadParamsError):
        ExampleConfig(4.5, 2)
    with pytest.raises(BadParamsError):
        ExampleConfig(3, 1)
    with pytest.raises(BadParamsError):
        ExampleConfig(5, 2)  # ratio above 2
    with pytest.raises(BadParamsError):
        ExampleConfig(2, 2)  # ratio not above 1


# ---------------------------------------------------------------- channels


def test_epsilon_channel_matrix_and_distortion():
    ch = EpsilonChannel([0.1, 0.2, 0.3, 0.0])
    assert ch.K == 4
    assert ch.expected_distortion == pytest.approx(0.15)
    t = ch.transition_matrix()
    assert np.allclose(t.sum(axis=1), 1.0)
    assert t[0, 0] == 0.9 and t[0, 1] == 0.1
    assert t[3, 3] == 1.0 and t[3, 0] == 0.0

    rotation = EpsilonChannel([1.0, 1.0, 1.0]).transition_matrix()
    assert np.array_equal(rotation, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_epsilon_channel_matrix_equals_its_loop_definition():
    rng = np.random.default_rng(23)
    for trial in range(50):
        eps = rng.random(rng.integers(3, 65))
        eps[rng.random(eps.size) < 0.2] = trial % 2  # exact 0 and 1 crossovers too
        k = eps.size
        expected = np.zeros((k, k))
        for u in range(k):
            expected[u, u] = 1.0 - eps[u]
            expected[u, (u + 1) % k] += eps[u]
        assert EpsilonChannel(eps).transition_matrix().tobytes() == expected.tobytes()


def test_epsilon_channel_validation():
    with pytest.raises(BadParamsError):
        EpsilonChannel([0.1, 0.2])
    for bad in (1.2, -0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(BadParamsError):
            EpsilonChannel([0.1, 0.2, bad])
    with pytest.raises(BadParamsError):
        EpsilonChannel([[0.1, 0.2], [0.3, 0.4]])


def test_source_joint_is_uniform_row_mix():
    ch = EpsilonChannel([0.25, 0.0, 0.5])
    joint = source_joint(3, ch)
    assert np.allclose(joint.table, ch.transition_matrix() / 3.0)
    assert np.allclose(joint.marginal_x(), 1.0 / 3.0)
    with pytest.raises(DimensionMismatchError):
        source_joint(4, ch)


# ------------------------------------------------------------- both sides


def test_rate_distortion_endpoints():
    for k in (3, 4, 5, 7):
        assert rate_distortion_value(0.0, 0.0, k) == pytest.approx(-1.0 / math.sqrt(k), abs=1e-15)
        assert rate_distortion_value(0.5, 0.0, k) == pytest.approx(-math.sqrt(2.0 / k), abs=1e-15)


def test_rate_distortion_decreases_with_allowed_distortion():
    grid = np.linspace(0.0, 0.5, 40)
    values = [rate_distortion_value(d, 0.7, 5) for d in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_rate_distortion_validation():
    with pytest.raises(BadParamsError):
        rate_distortion_value(-0.01, 0.0, 3)
    with pytest.raises(BadParamsError):
        rate_distortion_value(1.01, 0.0, 3)
    with pytest.raises(BadParamsError):
        rate_distortion_value(0.1, -1.0, 3)
    with pytest.raises(BadParamsError):
        rate_distortion_value(0.1, 0.0, 1)


def test_capacity_frozen_points():
    assert capacity_value(0.0, 2) == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-16)
    assert capacity_value(0.0, 4) == -0.5
    s = 0.3
    assert capacity_value(s, 3) == pytest.approx(
        -math.sqrt(s) - 1.0 / (math.sqrt(s) + math.sqrt(s + 3.0)), abs=1e-16
    )


def test_uniform_input_attains_capacity():
    for n, s in ((2, 0.0), (4, 0.9), (6, 12.0)):
        uniform = Distribution(np.full(n, 1.0 / n))
        assert oracle_channel_value(uniform, s) == pytest.approx(
            -capacity_value(s, n), abs=1e-12
        )


def test_skewed_inputs_never_beat_capacity():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        p = rng.random(n) + 0.01
        law = Distribution(p / p.sum())
        s = float(rng.random() * 20.0)
        assert oracle_channel_value(law, s) >= -capacity_value(s, n) - 1e-9


def test_channel_oracle_skips_dead_letters():
    padded = Distribution([0.5, 0.5, 0.0])
    bare = Distribution([0.5, 0.5])
    assert oracle_channel_value(padded, 0.4) == oracle_channel_value(bare, 0.4)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e6),
    st.integers(min_value=3, max_value=8),
)
def test_uniform_crossover_matches_rate_value(d, s, k):
    ch = EpsilonChannel(np.full(k, d))
    cfg = ExampleConfig(k, k - 1)
    assert oracle_source_value(cfg, ch, s) == pytest.approx(
        -rate_distortion_value(d, s, k), rel=1e-12, abs=1e-12
    )


def test_source_oracle_counts_empty_cells():
    # All mass stays put: K^2 - K off-diagonal cells still contribute sqrt(s).
    cfg = ExampleConfig(3, 2)
    ch = EpsilonChannel([0.0, 0.0, 0.0])
    expected = (3.0 * math.sqrt(2.0 + 3.0) + 6.0 * math.sqrt(2.0)) / 9.0
    assert oracle_source_value(cfg, ch, 2.0) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DimensionMismatchError):
        oracle_source_value(ExampleConfig(4, 3), ch, 2.0)


# ------------------------------------------------------------ bound curve


def test_psi_at_zero_is_squared_excess_ratio():
    for cfg in CONFIGS + [ExampleConfig(4, 2)]:
        assert psi_exact(0.0, cfg) == (cfg.theta - 1.0) ** 2


def test_psi_limit_values():
    assert psi_limit(ExampleConfig(3, 2)) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert psi_limit(ExampleConfig(4, 2)) == 1.0
    for cfg in CONFIGS:
        assert abs(psi_exact(1e6 * cfg.K, cfg) - psi_limit(cfg)) < 1e-3


def test_psi_stays_flat_at_ratio_two():
    cfg = ExampleConfig(4, 2)
    for s in np.geomspace(1e-6, 1e8, 30):
        assert psi_exact(float(s), cfg) == pytest.approx(1.0, abs=1e-12)


def _bound_by_bisection(s: float, cfg: ExampleConfig) -> float:
    """Solve R(d) = C directly, with no reference to the psi algebra."""
    target = capacity_value(s, cfg.L)
    lo, hi = 0.0, 0.5
    if rate_distortion_value(hi, s, cfg.K) >= target:
        return 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_distortion_value(mid, s, cfg.K) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bound_matches_direct_crossing_point():
    s_grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 21)))
    for cfg in CONFIGS:
        for s in s_grid:
            direct = _bound_by_bisection(float(s), cfg)
            via_psi = distortion_bound(psi_exact(float(s), cfg))
            # dR/dd shrinks like s^(-3/2), so the crossing itself blurs at
            # large s; scale the comparison accordingly.
            assert abs(direct - via_psi) < 1e-9 * (1.0 + 2e-3 * float(s)), (cfg.K, cfg.L, s)


def test_crossing_sits_at_the_vertex_for_ratio_two():
    # R(1/2) = C exactly at ratio 2, so the crossing is tangential and d is
    # only determined to sqrt-of-ulp; the psi route reports 1/2 exactly.
    cfg = ExampleConfig(4, 2)
    for s in (0.0, 0.5, 10.0, 1e3):
        assert distortion_bound(psi_exact(s, cfg)) == 0.5
        assert abs(_bound_by_bisection(s, cfg) - 0.5) < 1e-6


def test_bound_satisfies_presquaring_identity():
    for cfg in CONFIGS:
        k, l = cfg.K, cfg.L
        for s in np.concatenate(([0.0], np.geomspace(1e-2, 1e3, 15))):
            d = distortion_bound(psi_exact(float(s), cfg))
            lhs = math.sqrt(s + k * d) + math.sqrt(s + k * (1.0 - d))
            rhs = k / (math.sqrt(s) + math.sqrt(s + l)) + 2.0 * math.sqrt(s)
            assert abs(lhs - rhs) < 1e-9


def test_psi_lower_is_a_minorant_with_shared_limit():
    for cfg in CONFIGS:
        for s in np.geomspace(cfg.L / 8.0, 1e8, 200):
            gap = psi_exact(float(s), cfg) - psi_lower(float(s), cfg)
            assert gap >= -1e-12
        assert abs(psi_lower(1e10, cfg) - psi_limit(cfg)) < 1e-6


def test_psi_lower_validity_gate():
    cfg = ExampleConfig(3, 2)
    psi_lower(cfg.L / 8.0, cfg)  # boundary is allowed
    with pytest.raises(OutOfValidityRangeError):
        psi_lower(cfg.L / 16.0, cfg)


def test_distortion_bound_roots_and_clamps():
    assert distortion_bound(0.25) == pytest.approx(D_AT_ZERO_32, abs=1e-15)
    assert distortion_bound(2.0 / 3.0) == pytest.approx(D_AT_LIMIT_32, abs=1e-15)
    assert distortion_bound(1.0) == 0.5
    assert distortion_bound(1.0 + 1e-13) == 0.5  # inside rounding slack
    assert distortion_bound(0.0) == 0.0
    assert distortion_bound(-3.0) == 0.0
    with pytest.raises(PsiAboveOneError):
        distortion_bound(1.0 + 1e-11)
    with pytest.raises(BadParamsError):
        distortion_bound(float("nan"))


def test_distortion_bound_is_increasing():
    grid = np.linspace(0.0, 1.0, 101)
    d = [distortion_bound(float(p)) for p in grid]
    assert all(a < b for a, b in zip(d, d[1:]))


def test_smaller_root_inverts_the_parabola():
    rng = np.random.default_rng(42)
    for psi in rng.random(50):
        d = distortion_bound(float(psi))
        assert 0.0 <= d <= 0.5
        assert 4.0 * d * (1.0 - d) == pytest.approx(psi, abs=1e-12)


def _decimal_root(psi: float) -> Decimal:
    """Smaller root (1 - sqrt(1 - psi)) / 2 carried to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (1 - (1 - Decimal(psi)).sqrt()) / 2


def test_distortion_bound_against_a_decimal_root():
    for psi in [*np.geomspace(1e-20, 1.0, 400), 20001 / 20000 - 1.0]:
        exact = _decimal_root(float(psi))
        assert abs(Decimal(distortion_bound(float(psi))) - exact) <= Decimal(1e-15) * exact


def _decimal_psi(s: float, k: int, l: int) -> Decimal:
    """The displayed psi(s) form, whose cancellation 80 digits absorb."""
    with localcontext() as ctx:
        ctx.prec = 80
        s, k, l = Decimal(s), Decimal(k), Decimal(l)
        inner = (k / (s.sqrt() + (s + l).sqrt()) + 2 * s.sqrt()) ** 2 - 2 * s - k
        return inner**2 / k**2 - 4 * s * (s + k) / k**2


def test_psi_exact_against_a_decimal_oracle():
    for k, l in [(3, 2), (5, 4), (7, 4), (4, 2), (101, 100)]:
        config = ExampleConfig(k, l)
        for s in [0.0, *np.geomspace(1e-6, 1e15, 120)]:
            exact = _decimal_psi(float(s), k, l)
            assert abs(Decimal(psi_exact(float(s), config)) - exact) <= Decimal(3e-14) * abs(exact)


# -------------------------------------------------------- classical route


def test_binary_entropy_points():
    assert binary_entropy_bits(0.5) == 1.0
    assert binary_entropy_nats(0.0) == 0.0
    assert binary_entropy_nats(1.0) == 0.0
    assert binary_entropy_nats(0.25) == pytest.approx(
        -0.25 * math.log(0.25) - 0.75 * math.log(0.75), abs=1e-16
    )
    with pytest.raises(BadParamsError):
        binary_entropy_nats(-0.1)
    with pytest.raises(BadParamsError):
        binary_entropy_bits(1.1)


def test_binary_entropy_dominates_parabola_in_bits():
    for d in np.linspace(0.0, 1.0, 201):
        assert binary_entropy_bits(float(d)) >= 4.0 * d * (1.0 - d) - 1e-12


def test_limit_bound_dominates_classical_exponent():
    # 2 (1 - 1/theta) >= log2(theta) on the whole admissible ratio range.
    for theta in np.linspace(1.0001, 2.0, 300):
        assert 2.0 * (1.0 - 1.0 / theta) >= math.log2(theta) - 1e-12


def test_classical_bound_frozen_and_consistent():
    root = classical_bound(ExampleConfig(3, 2))
    assert abs(root - D_CLASSICAL_32) < 1e-11
    assert abs(binary_entropy_nats(root) - math.log(1.5)) < 1e-11
    # The entropy curve is flat at d = 1/2, so only sqrt-of-ulp accuracy here.
    assert abs(classical_bound(ExampleConfig(4, 2)) - 0.5) < 1e-7


def _decimal_classical(k: int, l: int) -> Decimal:
    """Bisect h(d) = log(K/L) on [0, 1/2] in 50-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        target = (Decimal(k) / Decimal(l)).ln()
        lo, hi = Decimal(0), Decimal("0.5")
        for _ in range(110):
            mid = (lo + hi) / 2
            if -mid * mid.ln() - (1 - mid) * (1 - mid).ln() < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def test_classical_bound_against_a_decimal_bisection():
    for k, l in [(3, 2), (5, 4), (7, 4), (101, 100), (19, 10), (199, 100), (20001, 20000)]:
        exact = _decimal_classical(k, l)
        assert abs(Decimal(classical_bound(ExampleConfig(k, l))) - exact) <= Decimal(2e-12)


def test_three_bounds_are_strictly_ordered():
    for cfg in CONFIGS:
        low = distortion_bound(psi_exact(0.0, cfg))
        mid = classical_bound(cfg)
        high = distortion_bound(psi_limit(cfg))
        assert low + 1e-6 < mid < high - 1e-6, (cfg.K, cfg.L)


# ------------------------------------------------------------------ sweep


def test_grid_spec_values_and_validation():
    log = GridSpec(1e-2, 1e2, 5).values()
    assert log == pytest.approx([1e-2, 1e-1, 1.0, 1e1, 1e2], rel=1e-12)
    lin = GridSpec(0.0, 1.0, 3, log_spaced=False).values()
    assert np.array_equal(lin, [0.0, 0.5, 1.0])
    assert GridSpec(7.0, 7.0, 1).values() == pytest.approx([7.0])
    with pytest.raises(BadGridError):
        GridSpec(points=0)
    with pytest.raises(BadGridError):
        GridSpec(1.0, float("inf"), 4)
    with pytest.raises(BadGridError):
        GridSpec(2.0, 1.0, 4)
    with pytest.raises(BadGridError):
        GridSpec(0.0, 1.0, 4)  # log spacing from zero
    with pytest.raises(BadGridError):
        GridSpec(-1.0, 1.0, 4, log_spaced=False)


def test_optimize_s_report_shape_and_endpoints():
    report = optimize_s(ExampleConfig(3, 2))
    assert isinstance(report, BoundReport)
    assert report.s_grid[0] == 0.0
    assert len(report.s_grid) == 65  # default 64 points plus the prepended zero
    assert len(report.psi_values) == len(report.d_values) == len(report.s_grid)
    assert report.d_at_zero == pytest.approx(D_AT_ZERO_32, abs=1e-12)
    assert report.d_at_limit == pytest.approx(D_AT_LIMIT_32, abs=1e-12)
    assert abs(report.d_classical - D_CLASSICAL_32) < 1e-11
    assert np.all(report.d_values >= 0.0) and np.all(report.d_values <= 0.5)


def test_optimize_s_limit_wins_for_narrow_ratio():
    for cfg in CONFIGS:
        report = optimize_s(cfg, GridSpec(1e-3, 1e5, 40))
        assert report.best_s == "limit"
        assert report.best_d == report.d_at_limit
        assert report.best_d > report.d_values.max()


def test_optimize_s_ties_resolve_to_smallest_s():
    # At ratio 2 the curve is flat at 1/2, so the limit must not win.
    report = optimize_s(ExampleConfig(4, 2), GridSpec(1.0, 100.0, 10))
    assert report.best_s == 0.0
    assert report.best_d == 0.5
    assert report.d_at_limit == 0.5


def test_report_dict_key_order_and_types():
    report = optimize_s(ExampleConfig(3, 2), GridSpec(0.5, 2.0, 3))
    payload = report_to_dict(report)
    assert list(payload) == [
        "K",
        "L",
        "theta",
        "grid",
        "psi",
        "d",
        "d_at_zero",
        "d_at_limit",
        "d_classical",
        "best_s",
        "best_d",
    ]
    assert payload["K"] == 3 and payload["L"] == 2 and payload["theta"] == 1.5
    assert payload["grid"][0] == 0.0 and len(payload["grid"]) == 4
    assert payload["best_s"] == "limit"
    flat = report_to_dict(optimize_s(ExampleConfig(4, 2), GridSpec(1.0, 2.0, 2)))
    assert isinstance(flat["best_s"], float)
