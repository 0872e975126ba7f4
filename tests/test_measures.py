"""Information functionals against brute-force summation oracles."""

import math
import tracemalloc
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_builtins, multi_convex, random_joint
from infodyn import (
    ArityMismatchError,
    BadCoefficientsError,
    BadParamsError,
    ConvexFunction,
    DimensionMismatchError,
    Distribution,
    EpsilonChannel,
    JointDistribution,
    MeasureFamily,
    NotMarkovError,
    PairMeasure,
    StochasticMatrix,
    SupportMismatchError,
    TooManyLettersError,
    builtin,
    embed_markov_triple,
    evolve_measures,
    expected_mixed_measure_information,
    f_divergence,
    generalized_lautum_information,
    generalized_mutual_information,
    kl_divergence,
    measure_family_functional,
    mixed_measure_information,
    perspective,
    rate_distortion_value,
    shannon_entropy,
    simple_extension_coefficients,
    source_joint,
    trace_functional,
    zakai_ziv_functional,
)
import infodyn.measures as measures_module
from infodyn.measures import _ratio_functional


def classical_mutual_information(joint):
    t = joint.table
    px, py = joint.marginal_x(), joint.marginal_y()
    total = 0.0
    for i in range(joint.nx):
        for j in range(joint.ny):
            if t[i, j] > 0.0:
                total += t[i, j] * math.log(t[i, j] / (px[i] * py[j]))
    return total


# ---------------------------------------------------------------- entropy


def test_entropy_point_values():
    assert shannon_entropy(Distribution([1.0, 0.0, 0.0])) == 0.0
    assert shannon_entropy(Distribution([1 / 3, 1 / 3, 1 / 3])) == pytest.approx(
        math.log(3.0), abs=1e-14
    )
    assert shannon_entropy(Distribution([0.5, 0.5, 0.0])) == pytest.approx(
        math.log(2.0), abs=1e-15
    )


def test_kl_divergence_frozen_value_and_errors():
    p = Distribution([0.5, 0.5])
    q = Distribution([0.25, 0.75])
    assert kl_divergence(p, q) == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)
    assert kl_divergence(p, p) == 0.0
    with pytest.raises(SupportMismatchError):
        kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError, match=r"laws have shapes \(2,\) and \(3,\)"):
        kl_divergence(p, [0.25, 0.25, 0.5])


@pytest.mark.parametrize("zeros", [0, 1, 5])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_entropy_and_kl_equal_the_masked_sums_byte_for_byte(n, zeros):
    """The all-positive fast paths give the float the masked np.sum forms give."""
    rng = np.random.default_rng(n + 10 * zeros)
    for _ in range(20):
        a, b = rng.random(n), rng.random(n)
        a[rng.choice(n, min(zeros, n - 1), replace=False)] = 0.0
        law_a, law_b = Distribution(a / a.sum()), Distribution(b / b.sum())
        a, b = law_a.probs, law_b.probs
        pos = a > 0.0
        entropy = float(-np.sum(a[pos] * np.log(a[pos])))
        kl = float(np.sum(a[pos] * np.log(a[pos] / b[pos])))
        assert np.float64(shannon_entropy(law_a)).tobytes() == np.float64(entropy).tobytes()
        for p, base in ((a, b), (law_a, law_b), (law_a, b)):
            assert np.float64(kl_divergence(p, base)).tobytes() == np.float64(kl).tobytes()


@pytest.mark.parametrize(
    "p, base",
    [
        ([0.5, math.nan], [0.5, 0.5]),  # not masked away as a zero cell
        ([0.5, 0.5], [0.5, math.nan]),
        ([1.5, -0.5], [0.5, 0.5]),  # sums to 1, but is no law
        ([0.5, 0.5], [math.inf, 0.5]),  # no -inf, and no RuntimeWarning
        ([math.inf, 0.5], [0.5, 0.5]),
    ],
    ids=["nan-p", "nan-base", "negative-p", "inf-base", "inf-p"],
)
def test_kl_divergence_refuses_a_raw_vector_that_is_not_a_law(p, base):
    with pytest.raises(BadParamsError, match="finite and nonnegative"):
        kl_divergence(p, base)


def test_kl_divergence_refuses_raw_tables():
    with pytest.raises(BadParamsError, match="1-d"):
        kl_divergence([[0.5, 0.5]], [[0.5, 0.5]])


def test_kl_divergence_takes_valid_raw_laws_whose_ratio_overflows():
    """The raw-vector check refuses no valid law: raw input gives what Distributions give."""
    raw = kl_divergence([0.5, 0.5], [1.0, 5e-324])
    laws = kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 5e-324]))
    assert np.float64(raw).tobytes() == np.float64(laws).tobytes()


def test_kl_divergence_is_finite_where_a_ratio_overflows():
    """0.5 / 5e-324 is past the float range; its cell is 0.5 (log 0.5 - log 5e-324)."""
    exact = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(5e-324))
    assert exact == 371.5268887801307
    assert kl_divergence([0.5, 0.5], [1.0, 5e-324]) == exact
    assert kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 5e-324])) == exact


def test_kl_divergence_refuses_a_raw_pair_whose_value_passes_the_float_range():
    """The first cell alone is 1e308 (log 1e308 - log 1e-300), about 1.4e311: no float holds it."""
    with pytest.raises(BadParamsError, match="not finite"):
        kl_divergence([1e308, 1e308], [1e-300, 1.0])


def test_kl_divergence_is_finite_where_a_raw_ratio_underflows():
    """5e-324 / 3 rounds to 0; its cell is 5e-324 (log 5e-324 - log 3), not -inf."""
    assert kl_divergence([5e-324, 1.0], [3.0, 1.0]) == 5e-324 * (math.log(5e-324) - math.log(3.0))


# ------------------------------------------------------------ f-divergence


def test_f_divergence_of_a_law_with_itself_is_q_at_one():
    p = Distribution(np.full(4, 0.25))
    for q in (builtin("u_log_u"), builtin("neg_log"), builtin("neg_sqrt"), builtin("square")):
        assert f_divergence(q, p, p) == pytest.approx(q(1.0), abs=1e-14)


def test_f_divergence_neg_log_is_forward_kl():
    p1 = Distribution([0.5, 0.5])
    p2 = Distribution([0.25, 0.75])
    assert f_divergence(builtin("neg_log"), p1, p2) == pytest.approx(
        0.5 * math.log(4.0 / 3.0), abs=1e-15
    )
    # u log u swaps the direction
    assert f_divergence(builtin("u_log_u"), p1, p2) == pytest.approx(
        kl_divergence(p2, p1), abs=1e-14
    )


def test_f_divergence_neg_sqrt_is_negative_bhattacharyya():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.random(5) + 0.05, rng.random(5) + 0.05
        p1, p2 = Distribution(a / a.sum()), Distribution(b / b.sum())
        direct = -float(np.sum(np.sqrt(p1.probs * p2.probs)))
        assert f_divergence(builtin("neg_sqrt"), p1, p2) == pytest.approx(direct, abs=1e-13)


def test_f_divergence_dimension_check():
    from infodyn import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        f_divergence(builtin("neg_log"), Distribution([1.0]), Distribution([0.5, 0.5]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_f_divergence_jensen_floor(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.random(4) + 0.02, rng.random(4) + 0.02
    p1, p2 = Distribution(a / a.sum()), Distribution(b / b.sum())
    for q in (builtin("neg_log"), builtin("neg_sqrt"), builtin("square"), builtin("u_log_u")):
        assert f_divergence(q, p1, p2) >= q(1.0) - 1e-12


# ------------------------------------------------- mutual information pair


def test_generalized_mi_on_independent_joint_is_q_at_one():
    px = np.array([0.2, 0.3, 0.5])
    py = np.array([0.6, 0.4])
    joint = JointDistribution(np.outer(px, py))
    for q in (builtin("neg_log"), builtin("neg_sqrt"), builtin("square")):
        assert generalized_mutual_information(q, joint) == pytest.approx(q(1.0), abs=1e-14)
    assert generalized_mutual_information(builtin("neg_log"), joint) == pytest.approx(
        0.0, abs=1e-14
    )


def test_generalized_mi_neg_log_is_classical_mi():
    rng = np.random.default_rng(1)
    for _ in range(25):
        joint = random_joint(rng, 3, 3)
        assert generalized_mutual_information(builtin("neg_log"), joint) == pytest.approx(
            classical_mutual_information(joint), abs=1e-12
        )


def test_mi_and_lautum_swap_under_the_log_pair():
    """u log u and -log u exchange the two functionals exactly."""
    rng = np.random.default_rng(2)
    for _ in range(25):
        joint = random_joint(rng, 3, 4)
        mi_u = generalized_mutual_information(builtin("u_log_u"), joint)
        la_n = generalized_lautum_information(builtin("neg_log"), joint)
        assert mi_u == pytest.approx(la_n, abs=1e-12)
        mi_n = generalized_mutual_information(builtin("neg_log"), joint)
        la_u = generalized_lautum_information(builtin("u_log_u"), joint)
        assert mi_n == pytest.approx(la_u, abs=1e-12)


def test_lautum_neg_log_matches_direct_definition():
    rng = np.random.default_rng(3)
    for _ in range(25):
        joint = random_joint(rng, 3, 3)
        t = joint.table
        prod = np.outer(joint.marginal_x(), joint.marginal_y())
        direct = float(np.sum(prod * np.log(prod / t)))
        assert generalized_lautum_information(builtin("neg_log"), joint) == pytest.approx(
            direct, abs=1e-12
        )


def test_generalized_mi_neg_sqrt_on_the_worked_source():
    """Sparse test-channel joint reproduces the closed rate expression."""
    for k, d in ((3, 0.1), (5, 0.35), (4, 0.5)):
        joint = source_joint(k, EpsilonChannel(np.full(k, d)))
        value = generalized_mutual_information(builtin("neg_sqrt"), joint)
        assert value == pytest.approx(rate_distortion_value(d, 0.0, k), abs=1e-13)


def test_generalized_mi_zero_cells_follow_the_recession_slope():
    # joint with an empty cell but fully positive marginals
    joint = JointDistribution([[0.4, 0.0], [0.3, 0.3]])
    prod = np.outer(joint.marginal_x(), joint.marginal_y())
    t = joint.table
    # neg_log grows sublinearly: the empty cell contributes slope 0
    expected = sum(
        t[i, j] * -math.log(prod[i, j] / t[i, j])
        for i in range(2)
        for j in range(2)
        if t[i, j] > 0.0
    )
    value = generalized_mutual_information(builtin("neg_log"), joint)
    assert value == pytest.approx(expected, abs=1e-14)
    # u log u grows superlinearly: the same cell is a hard error
    with pytest.raises(SupportMismatchError):
        generalized_mutual_information(builtin("u_log_u"), joint)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_generalized_mi_jensen_floor(seed):
    joint = random_joint(np.random.default_rng(seed), 3, 3)
    for q in (builtin("neg_log"), builtin("neg_sqrt"), builtin("square"), builtin("u_log_u")):
        assert generalized_mutual_information(q, joint) >= q(1.0) - 1e-12


# ------------------------------------------------------- grid functionals


def test_zz_functional_specializes_to_mi_and_to_q_at_one():
    rng = np.random.default_rng(5)
    joint = random_joint(rng, 3, 3)
    q = builtin("neg_sqrt")
    prod = PairMeasure(np.outer(joint.marginal_x(), joint.marginal_y()))
    assert zakai_ziv_functional(q, joint, [prod]) == pytest.approx(
        generalized_mutual_information(q, joint), abs=1e-14
    )
    assert zakai_ziv_functional(q, joint, [PairMeasure(joint.table)]) == pytest.approx(
        q(1.0), abs=1e-14
    )


def test_zz_functional_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    q = multi_convex(2)  # u1 log(u1 / u2)
    for _ in range(10):
        joint = random_joint(rng, 3, 4)
        m1 = rng.random((3, 4)) + 0.05
        m2 = rng.random((3, 4)) + 0.05
        value = zakai_ziv_functional(q, joint, [PairMeasure(m1), PairMeasure(m2)])
        t = joint.table
        direct = 0.0
        for i in range(3):
            for j in range(4):
                u1 = m1[i, j] / t[i, j]
                u2 = m2[i, j] / t[i, j]
                direct += t[i, j] * u1 * math.log(u1 / u2)
        assert value == pytest.approx(direct, abs=1e-12)


def test_zz_functional_arity_and_null_cell_rule():
    """Mass on a null joint cell: the recession tail at arity 1, an error above it."""
    rng = np.random.default_rng(7)
    joint = random_joint(rng, 3, 3)
    q = builtin("neg_log")
    with pytest.raises(ArityMismatchError):
        zakai_ziv_functional(q, joint, [PairMeasure(joint.table)] * 2)
    with pytest.raises(DimensionMismatchError, match="measure grid does not match the joint law"):
        zakai_ziv_functional(q, joint, [PairMeasure(np.ones((3, 2)))])
    sparse = JointDistribution([[0.5, 0.0], [0.25, 0.25]])
    heavy = PairMeasure([[0.1, 0.2], [0.1, 0.1]])
    direct = math.fsum([-0.5 * math.log(0.2), -0.25 * math.log(0.4), -0.25 * math.log(0.4)])
    assert zakai_ziv_functional(q, sparse, [heavy]) == pytest.approx(direct, rel=1e-15)
    with pytest.raises(SupportMismatchError, match="u_log_u grows faster than linearly"):
        zakai_ziv_functional(builtin("u_log_u"), sparse, [heavy])
    with pytest.raises(SupportMismatchError, match="companion mass on a null reference cell"):
        zakai_ziv_functional(perspective(q), sparse, [heavy, heavy])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_constructors_reject_non_finite_entries(bad):
    with pytest.raises(BadParamsError):
        JointDistribution([[bad, 0.5], [0.25, 0.25]])
    with pytest.raises(BadParamsError):
        PairMeasure([[bad, 1.0]])


def _per_cell_sum(q, reference, companions):
    """Reference-weighted Q summed one scalar call per cell, and the sum of |terms|."""
    terms = []
    for j in np.flatnonzero(reference > 0.0):
        ratios = companions[:, j] / reference[j]
        terms.append(reference[j] * (q(float(ratios[0])) if q.arity == 1 else q(ratios)))
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _scalar_square(u):
    if np.ndim(u):
        raise TypeError("one point at a time")
    return u * u


def test_ratio_kernel_matches_per_cell_calls():
    """One whole-array call per trajectory equals the per-cell sums, fallback included.

    multi_convex(4) takes a single vector only, so its whole-array call
    returns one number, and `scalar_square` raises TypeError on an array:
    for both the kernel falls back to one call per cell.
    """
    assert np.ndim(multi_convex(4).evaluator(np.ones((4, 3)))) == 0
    rng = np.random.default_rng(17)
    cases = [(q, 1) for q in all_builtins()]
    cases += [(ConvexFunction("scalar_square", 1, _scalar_square, accepts_zero=True), 1)]
    cases += [(perspective(q), 2) for q in all_builtins()]
    cases += [(multi_convex(k), k) for k in (2, 3, 4)]
    for q, k in cases:
        for trial in range(3):
            n = int(rng.integers(4, 40))
            laws = rng.random((6, k + 1, n)) + 0.05
            laws[:, :, : n // 4] = 0.0  # null reference cells carrying no mass
            if q.name == "u_log_u":
                laws[:, 1, n // 4 : n // 2] = 0.0  # zero companions, Q(0) = 0
            values = _ratio_functional(q, laws[:, 0], np.moveaxis(laws[:, 1:], 1, 0))
            assert values.shape == (6,)
            for row, value in zip(laws, values):
                exact, scale = _per_cell_sum(q, row[0], row[1:])
                assert abs(value - exact) <= 1e-14 * scale, q.name


_NULL_CELL_QS = [
    builtin("neg_log"),
    builtin("neg_sqrt"),
    builtin("neg_pow", s=0.3),
    builtin("neg_pow", s=1.0),
    builtin("piecewise_linear", breakpoints=[(0.5, 1.0), (1.0, 0.0), (2.0, 1.0)]),
]


def _decimal_q(q, u: Decimal) -> Decimal:
    if q.name == "neg_log":
        return -u.ln()
    if q.name == "piecewise_linear":
        (x0, y0), (x1, y1), (x2, y2) = [(Decimal(x), Decimal(y)) for x, y in q.params["breakpoints"]]
        if u < x1:
            return y0 + (y1 - y0) / (x1 - x0) * (u - x0)
        return y1 + (y2 - y1) / (x2 - x1) * (u - x1)
    return -(u ** Decimal(q.params["s"])) if u else Decimal(0)


def _decimal_ratio_sum(q, reference, companion) -> Decimal:
    """sum ref * Q(comp / ref) plus the recession tail, to 40 digits from the float inputs."""
    with localcontext() as ctx:
        ctx.prec = 40
        total = Decimal(0)
        for r, c in zip(map(Decimal, reference.tolist()), map(Decimal, companion.tolist())):
            total += r * _decimal_q(q, c / r) if r else c * Decimal(q.recession_slope)
        return total


def test_null_reference_cells_take_the_recession_tail_at_arity_one():
    """The embedded triple of a sparse joint: its family value is the mutual information.

    The product of marginals has mass on the joint's null cell, so each
    value carries the tail mass * lim Q(u)/u.  The family functional, the
    mutual information and the v_functional trace give one value, which a
    40-digit oracle confirms, and one Markov step cannot raise it.
    """
    p_uv = np.array([[0.0, 0.5], [0.25, 0.25]])
    channel = np.array([[0.9, 0.1], [0.3, 0.7]])
    kernel, fam_now, fam_next = embed_markov_triple(p_uv[:, :, None] * channel[None, :, :])
    null = fam_now.reference == 0.0
    assert np.any(fam_now.measures[1][null] > 0.0)
    for q in _NULL_CELL_QS:
        value = measure_family_functional(q, fam_now)
        assert value == generalized_mutual_information(q, JointDistribution(p_uv)), q.name
        exact = _decimal_ratio_sum(q, fam_now.reference, fam_now.measures[1])
        assert abs(Decimal(value) - exact) <= Decimal(1e-15), q.name
        # 1e-15 covers rounding: Q(u) = -u gives -1 on both sides
        assert measure_family_functional(q, fam_next) <= value + 1e-15, q.name
        trace = trace_functional("v_functional", kernel, q=q, inits={"family": fam_now}, steps=3)
        assert trace.values[0] == value, q.name
    with pytest.raises(SupportMismatchError, match="square grows faster than linearly"):
        measure_family_functional(builtin("square"), fam_now)

    zero_scale = MeasureFamily([[0.5, 0.5], [0.0, 1.0], [0.3, 0.7]])
    tilde = perspective(builtin("neg_log"))
    with pytest.raises(SupportMismatchError, match="perspective scale must be strictly positive"):
        measure_family_functional(tilde, zero_scale)
    chain = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SupportMismatchError, match="perspective scale must be strictly positive"):
        trace_functional("v_functional", chain, q=tilde, inits={"family": zero_scale}, steps=3)


def test_an_infinite_value_says_so_at_arity_one():
    """Q = -log at a zero companion under a positive weight: the value is +inf.

    Every arity-1 functional says so, the family functional too; a direct
    call, a perspective and a Q with a finite Q(0) keep their own messages.
    """
    neg_log = builtin("neg_log")
    infinite = "value is infinite: the second law vanishes where the weighting law has mass"
    p1, p2 = Distribution([0.25, 0.25, 0.5]), Distribution([0.5, 0.5, 0.0])
    with pytest.raises(SupportMismatchError, match=infinite):
        f_divergence(neg_log, p1, p2)
    with pytest.raises(SupportMismatchError, match=infinite):
        generalized_lautum_information(neg_log, JointDistribution([[0.5, 0.0], [0.25, 0.25]]))
    with pytest.raises(SupportMismatchError, match=infinite):
        measure_family_functional(neg_log, MeasureFamily([p1.probs, p2.probs]))
    with pytest.raises(SupportMismatchError) as raised:
        neg_log(0.0)
    assert str(raised.value) == "neg_log needs strictly positive arguments"
    family = MeasureFamily([p1.probs, p1.probs, p2.probs])
    with pytest.raises(SupportMismatchError) as raised:
        measure_family_functional(perspective(neg_log), family)
    assert str(raised.value) == "neg_log needs strictly positive arguments"
    assert f_divergence(builtin("square"), p1, p2) == 2.0  # sum p2^2 / p1, Q(0) = 0


_ALL_POSITIVE, _MASKED = [0.25, 0.25, 0.5], [0.5, 0.5, 0.0]
_USER_NEG_LOG = ConvexFunction("user_neg_log", 1, lambda u: -np.log(u))
_INFINITE_AT_0 = "value is infinite: the second law vanishes where the weighting law has mass ({} is infinite at 0)"


@pytest.mark.parametrize(
    "q, weights, message",
    [
        (builtin("neg_log"), _MASKED, _INFINITE_AT_0.format("neg_log")),
        (_USER_NEG_LOG, _ALL_POSITIVE, _INFINITE_AT_0.format("user_neg_log")),
        (_USER_NEG_LOG, _MASKED, _INFINITE_AT_0.format("user_neg_log")),
        (perspective(builtin("neg_log")), _MASKED, "neg_log needs strictly positive arguments"),
    ],
    ids=["neg_log-masked", "user-all-positive", "user-masked", "perspective-masked"],
)
def test_a_q_that_refuses_zero_is_decided_in_both_kernel_branches(q, weights, message):
    """A zero companion under a positive weight, with and without a null reference cell.

    An arity-1 Q that refuses 0 makes the value infinite; a perspective keeps
    its base's own message.  The all-positive neg_log and perspective cases are
    in `test_an_infinite_value_says_so_at_arity_one`.
    """
    reference = np.array(weights)
    companions = np.array([reference, [1.0, 0.0, 0.0]])[-q.arity :]
    with pytest.raises(SupportMismatchError) as raised:
        _ratio_functional(q, reference, companions)
    assert str(raised.value) == message


def test_family_functional_constant_ratio_and_divergence_form():
    fam = MeasureFamily([[0.2, 0.5, 0.3], [0.6, 1.5, 0.9]])  # companion = 3 * reference
    q = builtin("neg_sqrt")
    assert measure_family_functional(q, fam) == pytest.approx(q(3.0) * 1.0, abs=1e-14)
    p = np.array([0.3, 0.7])
    same = MeasureFamily(np.vstack([p, p]))
    assert measure_family_functional(builtin("u_log_u"), same) == pytest.approx(0.0, abs=1e-15)


def test_family_functional_agrees_with_perspective_reweighting():
    """Any positive law can carry the sum once Q is lifted to its perspective."""
    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        q = multi_convex(k)
        fam = MeasureFamily(rng.random((k + 1, 5)) + 0.1)
        tilde = perspective(q)
        p = rng.random(5) + 0.1
        p /= p.sum()
        lifted = sum(
            p[x] * tilde(np.concatenate(([fam.measures[0, x] / p[x]], fam.measures[1:, x] / p[x])))
            for x in range(5)
        )
        assert measure_family_functional(q, fam) == pytest.approx(lifted, abs=1e-12)


def test_family_functional_checks_arity():
    rng = np.random.default_rng(9)
    fam = MeasureFamily(rng.random((3, 4)) + 0.1)  # k = 2
    with pytest.raises(ArityMismatchError):
        measure_family_functional(builtin("neg_log"), fam)


# --------------------------------------------------- linear combinations


def test_mixed_information_reduces_to_generalized_mi():
    rng = np.random.default_rng(10)
    joint = random_joint(rng, 3, 3)
    q = builtin("neg_sqrt")
    s = np.array([1.0, 0.0, 0.0, 0.0])
    t = np.concatenate(([0.0], joint.marginal_x()))
    assert mixed_measure_information(q, joint, s, t) == pytest.approx(
        generalized_mutual_information(q, joint), abs=1e-13
    )


def test_simple_extension_matches_its_blend():
    rng = np.random.default_rng(11)
    joint = random_joint(rng, 3, 3)
    q = builtin("neg_sqrt")
    at_zero = mixed_measure_information(q, joint, *simple_extension_coefficients(joint, 0.0))
    assert at_zero == pytest.approx(generalized_mutual_information(q, joint), abs=1e-13)
    at_two = mixed_measure_information(q, joint, *simple_extension_coefficients(joint, 2.0))
    # direct evaluation of the blended reference against the marginal product
    t = joint.table
    prod = np.outer(joint.marginal_x(), joint.marginal_y())
    ref = t + 2.0 * prod
    direct = float(np.sum(ref * -np.sqrt(prod / ref)))
    assert at_two == pytest.approx(direct, abs=1e-13)
    assert abs(at_two - at_zero) > 1e-6


def test_mixed_information_equals_grid_functional_of_the_perspective():
    rng = np.random.default_rng(12)
    for _ in range(20):
        joint = random_joint(rng, 3, 3)
        q = builtin("neg_sqrt")
        s = np.concatenate(([1.0], rng.random(3)))
        t = np.concatenate(([rng.random()], rng.random(3)))
        value = mixed_measure_information(q, joint, s, t)
        px = joint.marginal_x()
        cond = joint.table / px[:, None]
        mu0 = s[0] * joint.table + px[:, None] * (s[1:] @ cond)[None, :]
        mu1 = t[0] * joint.table + px[:, None] * (t[1:] @ cond)[None, :]
        lifted = zakai_ziv_functional(
            perspective(q), joint, [PairMeasure(mu0), PairMeasure(mu1)]
        )
        assert value == pytest.approx(lifted, abs=1e-12)


def test_mixed_information_coefficient_validation():
    rng = np.random.default_rng(13)
    joint = random_joint(rng, 3, 3)
    q = builtin("neg_log")
    zeros = np.zeros(4)
    with pytest.raises(BadCoefficientsError):
        mixed_measure_information(q, joint, zeros, np.ones(4))
    with pytest.raises(BadCoefficientsError):
        mixed_measure_information(q, joint, np.ones(3), np.ones(4))
    with pytest.raises(BadCoefficientsError):
        mixed_measure_information(q, joint, -np.ones(4), np.ones(4))
    with pytest.raises(BadCoefficientsError, match="t coefficients must be finite"):
        mixed_measure_information(q, joint, np.ones(4), [1.0, np.nan, 0.0, 0.0])
    for s in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(BadCoefficientsError, match="extension weight s must be nonnegative"):
            simple_extension_coefficients(joint, s)
    dead = JointDistribution([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(SupportMismatchError, match="weighted letter has zero marginal"):
        mixed_measure_information(q, dead, [1.0, 0.0, 1.0], [1.0, 0.0, 0.0])


def test_mixed_information_rejects_negative_companion_blend():
    rng = np.random.default_rng(14)
    joint = random_joint(rng, 3, 3)
    s = np.array([1.0, 0.0, 0.0, 0.0])
    t = np.array([-5.0, 0.0, 0.0, 0.0])
    with pytest.raises(SupportMismatchError):
        mixed_measure_information(builtin("neg_log"), joint, s, t)


def test_expected_mixed_matches_hand_enumeration():
    rng = np.random.default_rng(15)
    joint = random_joint(rng, 2, 3)
    q = builtin("neg_log")
    value = expected_mixed_measure_information(q, joint, [1.0, 0.0], [0.0, 1.0], 1)
    px = joint.marginal_x()
    cond = joint.table / px[:, None]
    direct = 0.0
    for letter in range(2):
        inner = 0.0
        for x in range(2):
            for y in range(3):
                ref = px[x] * cond[x, y]
                inner += ref * -math.log((px[x] * cond[letter, y]) / ref)
        direct += px[letter] * inner
    assert value == pytest.approx(direct, abs=1e-12)


def test_expected_mixed_on_uniform_rows_is_q_at_one():
    # identical conditionals: every blend ratio collapses to 1
    joint = JointDistribution(np.full((3, 3), 1.0 / 9.0))
    value = expected_mixed_measure_information(
        builtin("neg_sqrt"), joint, [0.5, 0.5], [0.5, 0.5], 1
    )
    assert value == pytest.approx(-1.0, abs=1e-13)


def test_expected_mixed_enumeration_cap():
    joint = JointDistribution(np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(TooManyLettersError):
        expected_mixed_measure_information(
            builtin("neg_log"), joint, [1.0, 0, 0, 0, 0], [0.0, 1, 1, 1, 1], 4
        )
    with pytest.raises(BadCoefficientsError):
        expected_mixed_measure_information(builtin("neg_log"), joint, [0.0, 0.0], [0.0, 1.0], 1)
    with pytest.raises(BadParamsError, match="need at least one letter"):
        expected_mixed_measure_information(builtin("neg_log"), joint, [1.0], [0.0], 0)


def _expected_per_tuple(q, joint, s, t, m):
    """The expectation as one kernel call per letter tuple, summed in tuple order."""
    px = joint.marginal_x()
    cond = np.zeros_like(joint.table)
    cond[px > 0.0] = joint.table[px > 0.0] / px[px > 0.0, None]
    total = 0.0
    for letters in product(range(joint.nx), repeat=m):
        weight = float(np.prod(px[list(letters)]))
        if weight == 0.0:
            continue
        rows = cond[list(letters)]
        reference = s[0] * joint.table + px[:, None] * (s[1:] @ rows)[None, :]
        companion = t[0] * joint.table + px[:, None] * (t[1:] @ rows)[None, :]
        total += weight * _ratio_functional(q, reference.ravel(), companion.ravel()[None])
    return total


def _joint_with_a_dead_letter(rng, nx, ny):
    table = rng.random((nx, ny)) + 0.05
    table[rng.integers(nx)] = 0.0
    return JointDistribution(table / table.sum())


def test_expected_mixed_equals_the_per_tuple_sum():
    rng = np.random.default_rng(21)
    for q in all_builtins():
        for m in (2, 3):
            for nx in (2, 3, 4):
                joint = _joint_with_a_dead_letter(rng, nx, int(rng.integers(1, 5)))
                s = np.concatenate(([rng.random() + 0.1], rng.random(m)))
                t = rng.random(m + 1)
                value = expected_mixed_measure_information(q, joint, s, t, m)
                assert value == _expected_per_tuple(q, joint, s, t, m), (q.name, m, nx)


def test_expected_mixed_blocks_agree_with_one_stack(monkeypatch):
    rng = np.random.default_rng(22)
    joint = _joint_with_a_dead_letter(rng, 4, 3)
    q = builtin("neg_sqrt")
    s, t = [1.0, 0.3, 0.2, 0.1], [0.2, 0.5, 0.3, 0.2]
    one_stack = expected_mixed_measure_information(q, joint, s, t, 3)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].shape[0])
        return _ratio_functional(*args, **kwargs)

    monkeypatch.setattr(measures_module, "_ratio_functional", counting)
    expected_mixed_measure_information(q, joint, s, t, 3)
    assert calls == [27]  # the 3^3 tuples free of the dead letter, in one stack
    calls.clear()
    monkeypatch.setattr(measures_module, "_BLEND_BLOCK_CELLS", 5 * joint.table.size)
    assert expected_mixed_measure_information(q, joint, s, t, 3) == one_stack
    assert calls == [5] * 5 + [2]


def test_expected_mixed_memory_stays_bounded():
    rng = np.random.default_rng(23)
    joint = random_joint(rng, 16, 16)
    tracemalloc.start()
    try:
        expected_mixed_measure_information(
            builtin("neg_sqrt"), joint, [1.0, 0.3, 0.2, 0.1], [0.0, 0.5, 0.3, 0.2], 3
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# --------------------------------------------------------------- embedding


def random_markov_triple(rng, nu, nv, nw):
    puv = rng.random((nu, nv)) + 0.05
    puv /= puv.sum()
    pwv = rng.random((nv, nw)) + 0.05
    pwv /= pwv.sum(axis=1, keepdims=True)
    return puv[:, :, None] * pwv[None, :, :]


def test_embedding_reproduces_the_next_measures():
    rng = np.random.default_rng(16)
    p3 = random_markov_triple(rng, 3, 3, 3)
    kernel, fam_now, fam_next = embed_markov_triple(p3)
    stepped = evolve_measures(kernel, fam_now, 1)[1]
    assert np.abs(stepped.measures - fam_next.measures).max() < 1e-12


def test_embedding_handles_unequal_alphabets():
    rng = np.random.default_rng(17)
    p3 = random_markov_triple(rng, 2, 2, 3)
    kernel, fam_now, fam_next = embed_markov_triple(p3)
    assert kernel.n == 2 * 3  # padded to the larger letter alphabet
    stepped = evolve_measures(kernel, fam_now, 1)[1]
    assert np.abs(stepped.measures - fam_next.measures).max() < 1e-12

    p3[:, 0, :] = 0.0  # V letter 0 leaves the support and takes a filler row
    kernel, fam_now, fam_next = embed_markov_triple(p3 / p3.sum())
    for row in (0, 2, 3, 5):  # the dead letter and the padding letter, for u = 0, 1
        assert np.array_equal(kernel.matrix[row], np.eye(6)[3 * (row // 3)])
    stepped = evolve_measures(kernel, fam_now, 1)[1]
    assert np.abs(stepped.measures - fam_next.measures).max() < 1e-12


def test_embedding_identity_channel_keeps_measures():
    rng = np.random.default_rng(18)
    puv = rng.random((3, 3)) + 0.05
    puv /= puv.sum()
    p3 = puv[:, :, None] * np.eye(3)[None, :, :]
    _, fam_now, fam_next = embed_markov_triple(p3)
    assert np.abs(fam_now.measures - fam_next.measures).max() < 1e-15


def test_embedding_drop_is_the_mi_difference():
    rng = np.random.default_rng(19)
    for q in (builtin("neg_log"), builtin("neg_sqrt")):
        p3 = random_markov_triple(rng, 3, 3, 3)
        _, fam_now, fam_next = embed_markov_triple(p3)
        drop = measure_family_functional(q, fam_now) - measure_family_functional(q, fam_next)
        mi_uv = generalized_mutual_information(q, JointDistribution(p3.sum(axis=2)))
        mi_uw = generalized_mutual_information(q, JointDistribution(p3.sum(axis=1)))
        assert drop == pytest.approx(mi_uv - mi_uw, abs=1e-12)
        assert drop >= -1e-12  # data processing


def test_embedding_rejects_non_markov_triples():
    rng = np.random.default_rng(20)
    p3 = rng.random((3, 3, 3)) + 0.05
    p3 /= p3.sum()
    with pytest.raises(NotMarkovError):
        embed_markov_triple(p3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embedding_rejects_non_finite_entries(bad):
    p3 = random_markov_triple(np.random.default_rng(24), 2, 2, 2)
    p3[0, 1, 1] = bad
    with pytest.raises(BadParamsError, match="table entries must be finite"):
        embed_markov_triple(p3)
