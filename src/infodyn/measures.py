"""Entropies, f-divergences, and generalized information functionals.

The generalized functionals are ratio functionals, all evaluated by the
kernel `_ratio_functional`: a reference measure weights a convex function
of ratios of companion measures to that reference,

    sum_cell  ref(cell) * Q(m_1(cell)/ref(cell), ..., m_k(cell)/ref(cell)).

Cells where the reference vanishes contribute zero when every companion
vanishes there too.  Companion mass on such a cell is ruled per function.
`f_divergence`, the mutual, lautum and mixed-measure informations and all
trace kinds but v_functional take the recession-slope tail: that mass
times lim_{u->inf} Q(u)/u when the limit is finite, else
SupportMismatchError.  The multi-measure `zakai_ziv_functional`,
`measure_family_functional` and v_functional trace are strict: such mass
raises SupportMismatchError, even at arity 1.

`_blend_values` serves both mixed-measure functions: one kernel call per
stack of letter tuples.  `embed_markov_triple` builds a block-diagonal
kernel and zero-padded measures without loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite  # per-step scalars: far cheaper than np.isfinite
from typing import Sequence

import numpy as np

from .convexity import ConvexFunction
from .errors import (
    ArityMismatchError,
    BadCoefficientsError,
    BadParamsError,
    DimensionMismatchError,
    NotMarkovError,
    SupportMismatchError,
    TooManyLettersError,
)
from .markov import (
    Distribution,
    MeasureFamily,
    StochasticMatrix,
    _finite_nonnegative,
    _freeze,
    _normalized,
)

__all__ = [
    "JointDistribution",
    "PairMeasure",
    "shannon_entropy",
    "kl_divergence",
    "f_divergence",
    "generalized_mutual_information",
    "generalized_lautum_information",
    "zakai_ziv_functional",
    "measure_family_functional",
    "mixed_measure_information",
    "expected_mixed_measure_information",
    "simple_extension_coefficients",
    "embed_markov_triple",
]

MARKOV_FACTORIZATION_ATOL = 1e-9
MAX_ENUMERATED_LETTERS = 3
# Cells per blended stack in expected_mixed_measure_information.  It bounds the
# temporaries and keeps each below glibc's 128 KiB mmap threshold: larger ones
# are mapped afresh and page-faulted per block (2x slower at |X| = |Y| = 24).
_BLEND_BLOCK_CELLS = 1 << 14


def _table(a, ndim: int) -> np.ndarray:
    t = np.asarray(a, dtype=float)
    if t.ndim != ndim or t.size == 0:
        raise BadParamsError(f"need a nonempty {ndim}-d table")
    if not _finite_nonnegative(t):
        raise BadParamsError("table entries must be finite and nonnegative")
    return t


@dataclass(frozen=True)
class JointDistribution:
    """Joint law of a pair (X, Y) on finite alphabets."""

    table: np.ndarray

    def __post_init__(self) -> None:
        t = _normalized(_table(self.table, 2), None, "joint sums to {total}, expected 1")
        object.__setattr__(self, "table", t)

    @property
    def nx(self) -> int:
        return self.table.shape[0]

    @property
    def ny(self) -> int:
        return self.table.shape[1]

    def marginal_x(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.table.sum(axis=0)


@dataclass(frozen=True)
class PairMeasure:
    """Nonnegative measure on the same grid as a joint law; no normalization."""

    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _freeze(_table(self.table, 2)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape


def shannon_entropy(p: Distribution) -> float:
    """Entropy in nats, with the 0 log 0 = 0 convention."""
    probs = p.probs
    pos = probs > 0.0
    return float(-np.sum(probs[pos] * np.log(probs[pos])))


def kl_divergence(p, base) -> float:
    """Classical divergence sum p log(p / base) in nats.

    Accepts Distributions or raw vectors.  Infinite when p keeps mass
    where the base vanishes; that case raises rather than returning inf.
    """
    a = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    b = base.probs if isinstance(base, Distribution) else np.asarray(base, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"laws have shapes {a.shape} and {b.shape}")
    pos = a > 0.0
    if np.any(b[pos] == 0.0):
        raise SupportMismatchError("divergence is infinite: mass where the base law is zero")
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))


def _require_arity(q: ConvexFunction, arity: int) -> None:
    if q.arity != arity:
        raise ArityMismatchError(f"{q.name} has arity {q.arity}, expected {arity}")


def _require_finite(values):
    """Finite inputs whose ratios overflow give no meaningful value: refuse it."""
    if not (isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise BadParamsError("functional value is not finite (a ratio overflows)")
    return values


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises at _require_finite
def _ratio_functional(
    q: ConvexFunction, reference: np.ndarray, companion: np.ndarray, strict: bool = False
):
    """sum ref * Q(companion / ref) over the last axis, with the null-cell rules above.

    Leading axes broadcast, so one call evaluates a whole trajectory.  By
    default `companion` has the cells' shape and a null reference cell takes
    the recession-slope tail.  `strict` is the multi-measure form:
    `companion` stacks the q.arity measures on a leading axis, and mass on a
    null reference cell raises.  So does a value that is not finite.
    """
    evaluate = q._evaluate if strict else q.batch
    pos = reference > 0.0
    if pos.all():
        total = np.sum(reference * evaluate(companion / reference), axis=-1)
    else:
        extinct = np.where(pos, 0.0, companion)
        if (strict or q.recession_slope is None) and np.any(extinct > 0.0):
            raise SupportMismatchError(f"companion mass on a null reference cell ({q.name})")
        values = evaluate(np.where(pos, companion / np.where(pos, reference, 1.0), 1.0))
        tail = 0.0 if strict else (q.recession_slope or 0.0) * extinct.sum(axis=-1)
        total = np.sum(np.where(pos, reference * values, 0.0), axis=-1) + tail
    return _require_finite(total)


def f_divergence(q: ConvexFunction, p1: Distribution, p2: Distribution) -> float:
    """D_Q(p1 || p2) = sum_x p1(x) Q(p2(x) / p1(x)).

    Note the direction: the first argument weights, the second sits in the
    numerator of the ratio.  Q(u) = -log u therefore yields the classical
    divergence of p1 from p2, while Q(u) = u log u yields the reverse one.
    """
    _require_arity(q, 1)
    if p1.n != p2.n:
        raise DimensionMismatchError(f"laws have {p1.n} and {p2.n} states")
    return float(_ratio_functional(q, p1.probs, p2.probs))


def generalized_mutual_information(q: ConvexFunction, joint: JointDistribution) -> float:
    """Joint-weighted convex functional of the independence ratio.

    I_Q(X; Y) = sum_{x,y} P(x,y) Q(P(x)P(y) / P(x,y)).  Jensen's inequality
    floors the value at Q(1), with equality when X and Y are independent.
    """
    _require_arity(q, 1)
    prod = np.outer(joint.marginal_x(), joint.marginal_y())
    return float(_ratio_functional(q, joint.table.ravel(), prod.ravel()))


def generalized_lautum_information(q: ConvexFunction, joint: JointDistribution) -> float:
    """Product-weighted twin of the mutual information functional.

    Swaps the roles of the joint law and the product of marginals:
    sum_{x,y} P(x)P(y) Q(P(x,y) / (P(x)P(y))).  With Q(u) = u log u this is
    the classical mutual information; with Q(u) = -log u, the lautum value.
    """
    _require_arity(q, 1)
    prod = np.outer(joint.marginal_x(), joint.marginal_y())
    return float(_ratio_functional(q, prod.ravel(), joint.table.ravel()))


def zakai_ziv_functional(
    q: ConvexFunction, joint: JointDistribution, measures: Sequence[PairMeasure]
) -> float:
    """Multi-measure information functional weighted by the joint law.

    sum_{x,y} P(x,y) Q(m_1(x,y)/P(x,y), ..., m_k(x,y)/P(x,y)) for a jointly
    convex Q of k arguments.  Strict on support: every measure must vanish
    wherever the joint does.
    """
    if len(measures) != q.arity:
        raise ArityMismatchError(f"{len(measures)} measures for arity-{q.arity} function")
    for m in measures:
        if m.shape != joint.table.shape:
            raise DimensionMismatchError("measure grid does not match the joint law")
    stack = np.stack([m.table.ravel() for m in measures])
    return float(_ratio_functional(q, joint.table.ravel(), stack, strict=True))


def measure_family_functional(q: ConvexFunction, family: MeasureFamily) -> float:
    """Reference-weighted convex functional of a measure family.

    sum_x mu0(x) Q(mu1(x)/mu0(x), ..., muk(x)/mu0(x)).  Evolving the family
    by one Markov step can only decrease this value.
    """
    if family.k != q.arity:
        raise ArityMismatchError(f"family has k={family.k}, function arity {q.arity}")
    return float(_ratio_functional(q, family.reference, family.measures[1:], strict=True))


def _coeff_vector(coeffs, expected: int, label: str) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (expected,):
        raise BadCoefficientsError(f"{label} coefficients must have length {expected}")
    if not np.all(np.isfinite(c)):
        raise BadCoefficientsError(f"{label} coefficients must be finite")
    return c


def _blend_values(
    q: ConvexFunction, joint: JointDistribution, s_coeffs, t_coeffs, letters: np.ndarray
) -> np.ndarray:
    """Mixed-measure values for each row of the (N, m) letter stack `letters`.

    Row i blends the reference s0 P(x,y) + P(x) sum_j s_j P(y | letters[i, j-1])
    and the companion with the t coefficients; one kernel call covers all rows.
    """
    m = letters.shape[1]
    s = _coeff_vector(s_coeffs, m + 1, "s")
    t = _coeff_vector(t_coeffs, m + 1, "t")
    if np.any(s < 0.0) or not np.any(s > 0.0):
        raise BadCoefficientsError("s coefficients must be nonnegative with one positive")
    table, px = joint.table, joint.marginal_x()
    needed = (s[1:] != 0.0) | (t[1:] != 0.0)
    if np.any(needed & (px[letters] == 0.0)):
        raise SupportMismatchError("a weighted letter has zero marginal probability")
    cond = np.divide(table, px[:, None], out=np.zeros_like(table), where=px[:, None] > 0.0)
    rows = cond[letters]

    def blend(c: np.ndarray) -> np.ndarray:
        mixed = c[0] * table + px[:, None] * (c[1:] @ rows)[:, None, :]
        return mixed.reshape(len(letters), -1)

    reference, companion = blend(s), blend(t)
    if np.any(companion < 0.0):
        raise SupportMismatchError("t blend goes negative, outside the function domain")
    return _ratio_functional(q, reference, companion)


def mixed_measure_information(
    q: ConvexFunction, joint: JointDistribution, s_coeffs, t_coeffs
) -> float:
    """Information value for a linearly combined pair of measures.

    The reference is s0 P(x,y) + P(x) sum_i s_i P(y|x_i) and the companion
    is the same blend with t coefficients, the letters x_i running over the
    whole X alphabet.  Requires s_i >= 0 with at least one strictly
    positive; the t side is unconstrained.
    """
    _require_arity(q, 1)
    return float(_blend_values(q, joint, s_coeffs, t_coeffs, np.arange(joint.nx)[None, :])[0])


def simple_extension_coefficients(joint: JointDistribution, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients that blend the joint with s times the marginal product.

    Plugging these into `mixed_measure_information` gives the reference
    P(x,y) + s P(x)P(y) against the companion P(x)P(y); at s = 0 the value
    coincides with `generalized_mutual_information`.
    """
    if s < 0.0:
        raise BadCoefficientsError("extension weight s must be nonnegative")
    px = joint.marginal_x()
    return np.concatenate(([1.0], s * px)), np.concatenate(([0.0], px))


def expected_mixed_measure_information(
    q: ConvexFunction, joint: JointDistribution, s_coeffs, t_coeffs, num_letters: int
) -> float:
    """Exact expectation of the mixed-measure value over random letters.

    The letters X_1 ... X_m are drawn independently from the X marginal;
    the expectation enumerates all |X|^m tuples, so m is capped at
    MAX_ENUMERATED_LETTERS.
    """
    _require_arity(q, 1)
    if num_letters < 1:
        raise BadParamsError("need at least one letter")
    if num_letters > MAX_ENUMERATED_LETTERS:
        raise TooManyLettersError(
            f"{num_letters} letters would enumerate {joint.nx}^{num_letters} tuples"
        )
    px = joint.marginal_x()
    letters = np.indices((joint.nx,) * num_letters).reshape(num_letters, -1).T
    weights = px[letters].prod(axis=1)
    letters, weights = letters[weights != 0.0], weights[weights != 0.0]
    per_block = max(1, _BLEND_BLOCK_CELLS // joint.table.size)
    total = 0.0
    for start in range(0, len(letters), per_block):
        values = _blend_values(q, joint, s_coeffs, t_coeffs, letters[start : start + per_block])
        # A running sum in tuple order: np.sum would add pairwise and move the last bits.
        for term in (weights[start : start + per_block] * values).tolist():
            total += term
    return float(total)


def embed_markov_triple(
    p_uvw: np.ndarray,
) -> tuple[StochasticMatrix, MeasureFamily, MeasureFamily]:
    """Recast a Markov triple U -> V -> W as one step of a pair chain.

    States are pairs (u, c) with c in a common alphabet of size
    max(|V|, |W|).  The kernel moves (u, v) to (u, w) with probability
    P(w | v), so pushing the pair of measures (P(u, v), P(u)P(v)) through
    one step lands exactly on (P(u, w), P(u)P(w)).  Rows for letters
    outside the V support get a filler transition that carries no mass.

    Raises NotMarkovError when the triple does not factor as
    P(u, v) P(w | v) within 1e-9.
    """
    p3 = _normalized(_table(p_uvw, 3), None, "joint sums to {total}, expected 1")
    nu, nv, nw = p3.shape

    p_uv = p3.sum(axis=2)
    p_vw = p3.sum(axis=0)
    p_v = p_uv.sum(axis=0)
    p_u = p_uv.sum(axis=1)
    p_uw = p3.sum(axis=1)
    p_w = p_vw.sum(axis=0)

    vpos = p_v > 0.0
    cond_wv = np.divide(p_vw, p_v[:, None], out=np.zeros((nv, nw)), where=vpos[:, None])
    gap = np.abs(p3 - p_uv[:, :, None] * cond_wv[None, :, :]).max()
    if gap > MARKOV_FACTORIZATION_ATOL:
        raise NotMarkovError(f"triple is not Markov (factorization gap {gap:.3e})")

    r = max(nv, nw)
    block = np.zeros((r, r))
    block[:nv, :nw] = cond_wv
    block[~np.pad(vpos, (0, r - nv)), 0] = 1.0  # filler rows carry no mass
    kernel = np.kron(np.eye(nu), block)

    mu = np.zeros((2, nu, r))
    mu[:, :, :nv] = p_uv, np.outer(p_u, p_v)
    mu_next = np.zeros((2, nu, r))
    mu_next[:, :, :nw] = p_uw, np.outer(p_u, p_w)
    return (
        StochasticMatrix(kernel),
        MeasureFamily(mu.reshape(2, -1), require_positive=False),
        MeasureFamily(mu_next.reshape(2, -1), require_positive=False),
    )
