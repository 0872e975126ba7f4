"""Builtin convex functions, perspectives, and the randomized verifier."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_builtins
from infodyn import (
    ArityMismatchError,
    BadParamsError,
    ConvexFunction,
    Distribution,
    JointDistribution,
    MeasureFamily,
    ParseError,
    SupportMismatchError,
    builtin,
    f_divergence,
    generalized_lautum_information,
    generalized_mutual_information,
    measure_family_functional,
    parse_q_spec,
    perspective,
    verify_convexity,
)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_builtin_point_values():
    assert builtin("u_log_u")(2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
    assert builtin("neg_log")(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert builtin("neg_sqrt")(4.0) == -2.0
    assert builtin("neg_pow", s=0.5)(0.25) == -0.5
    assert builtin("square")(3.0) == 9.0
    assert builtin("half_square")(3.0) == 4.5


def test_builtin_values_at_one():
    """Q(1) is the Jensen floor of every ratio functional downstream."""
    expected = {
        "u_log_u": 0.0,
        "neg_log": 0.0,
        "neg_pow": -1.0,
        "neg_sqrt": -1.0,
        "square": 1.0,
        "half_square": 0.5,
    }
    for q in all_builtins():
        if q.name in expected:
            assert q(1.0) == pytest.approx(expected[q.name], abs=1e-15)


def test_u_log_u_extends_to_zero_by_continuity():
    q = builtin("u_log_u")
    assert q(0.0) == 0.0
    assert q.accepts_zero
    with pytest.raises(SupportMismatchError):
        q(-0.5)


def test_other_builtins_reject_zero():
    with pytest.raises(SupportMismatchError):
        builtin("neg_log")(0.0)


_KNOTS = [(0.0, 1.0), (1.0, 0.0), (3.0, 4.0)]

_DECIMAL_Q = {
    "neg_sqrt": lambda u: -u.sqrt(),
    "neg_pow": lambda u: -(u ** Decimal("0.3")),
    "square": lambda u: u * u,
    "half_square": lambda u: u * u / 2,
    "piecewise_linear": lambda u: 1 - u if u <= 1 else 2 * u - 2,
}


_PARAMS = {"neg_pow": {"s": 0.3}, "piecewise_linear": {"breakpoints": _KNOTS}}


@pytest.mark.parametrize("name", sorted(_DECIMAL_Q))
def test_builtins_with_a_finite_q0_take_a_zero_cell(name):
    """A joint law with a zero cell: its lautum ratio is 0, where Q(0) is finite.

    The oracle evaluates sum P(x)P(y) Q(P(x,y) / (P(x)P(y))) in 40-digit
    decimal arithmetic on the exact float entries.
    """
    q = builtin(name, **_PARAMS.get(name, {}))
    table = [[0.5, 0.0], [0.25, 0.25]]
    value = generalized_lautum_information(q, JointDistribution(table))
    with localcontext() as ctx:
        ctx.prec = 40
        cells = [[Decimal(x) for x in row] for row in table]
        px = [sum(row) for row in cells]
        py = [sum(col) for col in zip(*cells)]
        exact = sum(
            px[i] * py[j] * _DECIMAL_Q[name](cells[i][j] / (px[i] * py[j]))
            for i in range(2)
            for j in range(2)
        )
    assert abs(value - float(exact)) <= 1e-15 * max(1.0, abs(float(exact)))


def _decimal_sum(terms) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float(sum(terms(), Decimal(0)))


@pytest.mark.parametrize("name", sorted({**_DECIMAL_Q, "u_log_u": None}))
def test_perspective_takes_a_zero_companion_under_a_positive_scale(name):
    """sum mu0 Q~(mu1/mu0, mu2/mu0) = sum mu1 Q(mu2/mu1), with mu2 = 0 where mu1 > 0.

    That cell contributes mu1 Q(0), finite for every builtin but neg_log; the
    oracle is a 40-digit decimal sum on the exact float entries.
    """
    exact_q = _DECIMAL_Q.get(name, lambda u: u * u.ln() if u else u)
    measures = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.125], [0.0, 0.375, 0.5]]
    family = MeasureFamily(measures)
    tilde = perspective(builtin(name, **_PARAMS.get(name, {})))
    value = measure_family_functional(tilde, family)
    _, scale, comp = ([Decimal(x) for x in row] for row in measures)
    exact = _decimal_sum(lambda: (v * exact_q(c / v) for v, c in zip(scale, comp)))
    assert abs(value - exact) <= 1e-15 * max(1.0, abs(exact))


@pytest.mark.parametrize(
    "q, exact_q",
    [
        (builtin("neg_log"), lambda u: -u.ln()),
        (builtin("neg_sqrt"), _DECIMAL_Q["neg_sqrt"]),
        (builtin("neg_pow", s=0.3), _DECIMAL_Q["neg_pow"]),
        (builtin("neg_pow", s=1.0), lambda u: -u),
        (builtin("piecewise_linear", breakpoints=_KNOTS), _DECIMAL_Q["piecewise_linear"]),
    ],
    ids=["neg_log", "neg_sqrt", "neg_pow_0.3", "neg_pow_1", "piecewise_linear"],
)
def test_recession_tail_matches_a_decimal_oracle(q, exact_q):
    """Companion mass on a null reference cell takes the recession slope.

    The oracle is sum_{ref>0} ref Q(comp/ref) + slope * sum_{ref=0} comp in
    40-digit decimal, for f_divergence and generalized_mutual_information.
    """
    p1, p2 = [0.5, 0.25, 0.25, 0.0], [0.125, 0.25, 0.125, 0.5]
    table = [[0.5, 0.0], [0.25, 0.25]]
    joint = JointDistribution(table)
    product = np.outer(joint.marginal_x(), joint.marginal_y()).ravel()
    slope = Decimal(q.recession_slope)
    for value, reference, companion in (
        (f_divergence(q, Distribution(p1), Distribution(p2)), p1, p2),
        (generalized_mutual_information(q, joint), np.ravel(table), product),
    ):
        pairs = [(Decimal(r), Decimal(c)) for r, c in zip(reference, companion)]
        assert any(r == 0 < c for r, c in pairs)
        exact = _decimal_sum(
            lambda: (r * exact_q(c / r) if r else slope * c for r, c in pairs)
        )
        assert abs(value - exact) <= 1e-15 * max(1.0, abs(exact)), q.name


@pytest.mark.parametrize(
    "q, exact_q",
    [
        (builtin("neg_log"), lambda u: -u.ln()),
        (builtin("neg_sqrt"), _DECIMAL_Q["neg_sqrt"]),
        (builtin("piecewise_linear", breakpoints=_KNOTS), _DECIMAL_Q["piecewise_linear"]),
    ],
    ids=["neg_log", "neg_sqrt", "piecewise_linear"],
)
def test_an_overflowing_ratio_takes_the_recession_tail(q, exact_q):
    """At ref = 1e-320 the ratio 0.5 / ref overflows, and ref Q(0.5 / ref) is 0.5 * slope.

    The oracle is sum ref Q(comp/ref) in 40-digit decimal on the exact float entries.
    """
    p1, p2 = [1e-320, 1.0], [0.5, 0.5]
    value = f_divergence(q, Distribution(p1), Distribution(p2))
    exact = _decimal_sum(lambda: (Decimal(r) * exact_q(Decimal(c) / Decimal(r)) for r, c in zip(p1, p2)))
    assert abs(value - exact) <= 1e-15 * max(1.0, abs(exact)), q.name


def test_an_overflowing_ratio_raises_without_a_finite_slope():
    """square grows faster than linearly; a perspective has no scalar slope."""
    with pytest.raises(BadParamsError, match="not finite"):
        f_divergence(builtin("square"), Distribution([1e-320, 1.0]), Distribution([0.5, 0.5]))
    family = MeasureFamily([[1e-320, 1.0], [0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(BadParamsError, match="not finite"):
        measure_family_functional(perspective(builtin("neg_log")), family)


def test_recession_slopes():
    assert builtin("neg_log").recession_slope == 0.0
    assert builtin("neg_sqrt").recession_slope == 0.0
    assert builtin("neg_pow", s=0.3).recession_slope == 0.0
    assert builtin("neg_pow", s=1.0).recession_slope == -1.0
    assert builtin("u_log_u").recession_slope is None
    assert builtin("square").recession_slope is None
    pw = builtin("piecewise_linear", breakpoints=[(1.0, 0.0), (2.0, 3.0)])
    assert pw.recession_slope == 3.0


def test_neg_pow_exponent_validation():
    with pytest.raises(BadParamsError):
        builtin("neg_pow", s=1.5)
    with pytest.raises(BadParamsError):
        builtin("neg_pow", s=-0.1)
    with pytest.raises(BadParamsError):
        builtin("neg_pow")


def test_piecewise_linear_evaluation_and_extrapolation():
    q = builtin("piecewise_linear", breakpoints=[(1.0, 1.0), (2.0, 1.0), (3.0, 2.0)])
    assert q(1.5) == 1.0
    assert q(2.5) == 1.5
    # beyond the last knot the final segment extends
    assert q(4.0) == 3.0
    # below the first knot the first segment extends
    assert q(0.5) == 1.0


def test_piecewise_linear_validation():
    with pytest.raises(BadParamsError):
        builtin("piecewise_linear", breakpoints=[(1.0, 0.0)])
    with pytest.raises(BadParamsError):
        builtin("piecewise_linear", breakpoints=[(2.0, 0.0), (1.0, 1.0)])
    with pytest.raises(BadParamsError):
        # slopes 1 then 0: concave kink
        builtin("piecewise_linear", breakpoints=[(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    for knots in ([(0.0, 0.0), (math.inf, 1.0)], [(0.0, math.nan), (1.0, 1.0)]):
        with pytest.raises(BadParamsError, match="breakpoints must be finite"):
            builtin("piecewise_linear", breakpoints=knots)
    for text in ("piecewise:0,0;inf,1", "piecewise:0,nan;1,1"):
        with pytest.raises(BadParamsError, match="breakpoints must be finite"):
            parse_q_spec(text)
    with pytest.raises(BadParamsError, match=r"breakpoints must be \(x, y\) pairs"):
        builtin("piecewise_linear", breakpoints=[(0.0, 1.0, 2.0), (1.0, 0.0, 1.0)])
    with pytest.raises(BadParamsError):
        builtin("unknown_q")


def test_batch_matches_scalar_calls():
    values = np.array([0.25, 1.0, 2.0, 7.5])
    for q in all_builtins():
        batched = q.batch(values)
        singles = np.array([q(float(v)) for v in values])
        assert np.abs(batched - singles).max() < 1e-15


def test_arity_enforcement():
    q = builtin("neg_log")
    with pytest.raises(BadParamsError):
        q(1.0, 2.0)
    two = ConvexFunction("sum_squares", 2, lambda v: float(v[0] ** 2 + v[1] ** 2))
    with pytest.raises(BadParamsError):
        two(1.0, 2.0, 3.0)
    assert two(1.0, 2.0) == 5.0
    assert two([1.0, 2.0]) == 5.0
    with pytest.raises(BadParamsError):
        two.batch(np.array([1.0, 2.0]))


def test_evaluate_refuses_a_leading_axis_of_another_length():
    """An unstacked array would put Q's argument axis on the cells: refused, not misread."""
    with pytest.raises(ArityMismatchError):
        builtin("neg_sqrt")._evaluate(np.array([0.25, 1.0]))
    with pytest.raises(ArityMismatchError):
        perspective(builtin("neg_log"))._evaluate(np.ones((3, 4)))
    assert builtin("neg_sqrt")._evaluate(np.array([[0.25, 1.0]])).tolist() == [-0.5, -1.0]


# ------------------------------------------------------------ perspective


def test_perspective_point_values():
    assert perspective(builtin("u_log_u"))(2.0, 2.0) == 0.0
    # v * (u/v) log(u/v) = u log(u/v)
    val = perspective(builtin("u_log_u"))(2.0, 3.0)
    assert val == pytest.approx(3.0 * math.log(1.5), abs=1e-14)


def test_perspective_at_unit_scale_is_the_base():
    for q in all_builtins():
        tilde = perspective(q)
        assert tilde.arity == q.arity + 1
        for u in (0.3, 1.0, 2.7):
            assert tilde(1.0, u) == pytest.approx(q(u), abs=1e-14)


def test_perspective_rejects_nonpositive_scale():
    tilde = perspective(builtin("neg_log"))
    with pytest.raises(SupportMismatchError):
        tilde(0.0, 1.0)
    with pytest.raises(SupportMismatchError):
        tilde(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(positive, positive, positive)
def test_perspective_is_positively_homogeneous(v, u, c):
    """Q~(cv, cu) = c Q~(v, u), the defining scaling property."""
    tilde = perspective(builtin("neg_sqrt"))
    lhs = tilde(c * v, c * u)
    rhs = c * tilde(v, u)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_perspective_of_multiargument_function():
    base = ConvexFunction("sum_squares", 2, lambda vec: float(np.sum(np.asarray(vec) ** 2)))
    tilde = perspective(base)
    assert tilde.arity == 3
    assert tilde(2.0, 2.0, 4.0) == pytest.approx(2.0 * (1.0 + 4.0), abs=1e-14)


# ---------------------------------------------------------- verification


def test_verify_convexity_passes_every_builtin():
    for q in all_builtins():
        result = verify_convexity(q, [(0.05, 10.0)], trials=600, seed=1)
        assert result.passed, q.name
        assert result.witness is None


def test_verify_convexity_passes_builtin_perspectives():
    box = [(0.1, 10.0), (0.1, 10.0)]
    for q in all_builtins():
        result = verify_convexity(perspective(q), box, trials=600, seed=2)
        assert result.passed, q.name


def test_verify_convexity_flags_a_concave_function():
    root = ConvexFunction("root", 1, lambda u: np.sqrt(u))
    result = verify_convexity(root, [(0.1, 10.0)], trials=200, seed=3)
    assert not result.passed
    a, b, lam, chord, value = result.witness
    assert value > chord + 1e-9


def test_verify_convexity_is_deterministic_per_seed():
    q = builtin("square")
    first = verify_convexity(q, [(0.1, 5.0)], trials=50, seed=9)
    second = verify_convexity(q, [(0.1, 5.0)], trials=50, seed=9)
    assert first == second


def test_verify_convexity_validates_box():
    q = builtin("square")
    with pytest.raises(BadParamsError):
        verify_convexity(q, [(2.0, 1.0)])
    with pytest.raises(BadParamsError):
        verify_convexity(q, [(0.1, 1.0), (0.1, 1.0)])
    with pytest.raises(BadParamsError):
        verify_convexity(q, [(0.1, 1.0)], trials=0)
    for box in ([(math.nan, 1.0)], [(0.1, math.nan)], [(0.1, math.inf)], [(-math.inf, 1.0)]):
        with pytest.raises(BadParamsError, match="sample box"):
            verify_convexity(q, box)
    # a bare (lo, hi) pair is the box of an arity-1 function
    assert verify_convexity(q, (0.1, 5.0), trials=20) == verify_convexity(q, [(0.1, 5.0)], trials=20)
    with pytest.raises(BadParamsError):
        verify_convexity(perspective(q), (0.1, 5.0))


@settings(max_examples=150, deadline=None)
@given(positive, positive, st.floats(min_value=0.0, max_value=1.0))
def test_builtins_satisfy_midpoint_inequality(a, b, lam):
    mid = lam * a + (1.0 - lam) * b
    for q in all_builtins():
        chord = lam * q(a) + (1.0 - lam) * q(b)
        assert q(mid) <= chord + 1e-9


# --------------------------------------------------------------- parsing


def test_parse_plain_names():
    for name in ("u_log_u", "neg_log", "neg_sqrt", "square", "half_square"):
        assert parse_q_spec(name).name == name


def test_parse_parameterized_forms():
    q = parse_q_spec("neg_pow:0.25")
    assert q.params["s"] == 0.25
    pw = parse_q_spec("piecewise:0.5,1;1,0;2,1")
    assert pw.name == "piecewise_linear"
    assert pw(1.5) == 0.5


def test_parse_rejects_malformed_specs():
    for text in ("neg_pow:", "neg_pow:abc", "piecewise:1", "piecewise:1,2;3", "piecewise:0,a;1,1", "hexagon"):
        with pytest.raises(ParseError):
            parse_q_spec(text)
    # well-formed text with an out-of-range parameter is a domain problem
    with pytest.raises(BadParamsError):
        parse_q_spec("neg_pow:2.0")
