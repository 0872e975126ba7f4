"""Information functionals against brute-force summation oracles."""

import math
import tracemalloc
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


def test_zz_functional_arity_and_support_checks():
    rng = np.random.default_rng(7)
    joint = random_joint(rng, 3, 3)
    q = builtin("neg_log")
    with pytest.raises(ArityMismatchError):
        zakai_ziv_functional(q, joint, [PairMeasure(joint.table)] * 2)
    sparse = JointDistribution([[0.5, 0.0], [0.25, 0.25]])
    heavy = PairMeasure([[0.1, 0.2], [0.1, 0.1]])
    with pytest.raises(SupportMismatchError):
        zakai_ziv_functional(q, sparse, [heavy])


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


def test_ratio_kernel_matches_per_cell_calls():
    """One whole-array call per trajectory equals the per-cell sums, fallback included.

    multi_convex(4) takes a single vector only, so its whole-array call
    returns one number and the kernel falls back to one call per cell.
    """
    assert np.ndim(multi_convex(4).evaluator(np.ones((4, 3)))) == 0
    rng = np.random.default_rng(17)
    cases = [(q, 1) for q in all_builtins()]
    cases += [(perspective(q), 2) for q in all_builtins()]
    cases += [(multi_convex(k), k) for k in (2, 3, 4)]
    for q, k in cases:
        for trial in range(3):
            n = int(rng.integers(4, 40))
            laws = rng.random((6, k + 1, n)) + 0.05
            laws[:, :, : n // 4] = 0.0  # null reference cells carrying no mass
            if q.name == "u_log_u":
                laws[:, 1, n // 4 : n // 2] = 0.0  # zero companions, Q(0) = 0
            values = _ratio_functional(q, laws[:, 0], np.moveaxis(laws[:, 1:], 1, 0), strict=True)
            assert values.shape == (6,)
            for row, value in zip(laws, values):
                exact, scale = _per_cell_sum(q, row[0], row[1:])
                assert abs(value - exact) <= 1e-14 * scale, q.name
            if k == 1:
                loose = _ratio_functional(q, laws[:, 0], laws[:, 1])
                assert np.array_equal(loose, values), q.name


def test_strict_kernel_keeps_its_support_errors():
    """Multi-measure forms refuse mass on a null reference cell, even at arity 1."""
    p_uv = np.array([[0.0, 0.5], [0.25, 0.25]])
    channel = np.array([[0.9, 0.1], [0.3, 0.7]])
    kernel, fam_now, _ = embed_markov_triple(p_uv[:, :, None] * channel[None, :, :])
    null = fam_now.reference == 0.0
    assert np.any(fam_now.measures[1][null] > 0.0)
    q = builtin("neg_log")  # finite recession slope: the loose rule would accept this
    with pytest.raises(SupportMismatchError):
        measure_family_functional(q, fam_now)
    with pytest.raises(SupportMismatchError):
        trace_functional("v_functional", kernel, q=q, inits={"family": fam_now}, steps=3)

    zero_scale = MeasureFamily([[0.5, 0.5], [0.0, 1.0], [0.3, 0.7]])
    tilde = perspective(builtin("neg_log"))
    with pytest.raises(SupportMismatchError):
        measure_family_functional(tilde, zero_scale)
    chain = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SupportMismatchError):
        trace_functional("v_functional", chain, q=tilde, inits={"family": zero_scale}, steps=3)


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
        total += weight * _ratio_functional(q, reference.ravel(), companion.ravel())
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
