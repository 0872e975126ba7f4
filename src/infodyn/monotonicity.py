"""Traces of information functionals along a chain, and their verdicts.

Each trace kind maps a trajectory to a scalar series indexed by step
count, or by time for rate matrices.  The point of the module is the
empirical side of the second-law statements: entropy of a doubly
stochastic chain never falls, divergence to the stationary law never
rises, and the generalized functionals drift one way only.  `verdict`
turns a series into a pass/fail record with the largest violation and
where it happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .convexity import ConvexFunction, builtin
from .errors import (
    BadParamsError,
    DimensionMismatchError,
    EmptySeriesError,
    MissingInitError,
    NotSymmetricError,
    ZeroProbabilityError,
)
from .markov import (
    Distribution,
    MeasureFamily,
    RateMatrix,
    StochasticMatrix,
    propagate,
    stationary_distribution,
    trajectory,
    _freeze,
)
from .measures import _ratio_functional, _require_arity, _require_finite

__all__ = [
    "TimeSeries",
    "MonotonicityVerdict",
    "TRACE_KINDS",
    "trace_functional",
    "verdict",
    "h_theorem_rate",
]

TRACE_KINDS = (
    "entropy",
    "kl_to_stationary",
    "kl_from_stationary",
    "kl_pair",
    "u_functional",
    "j_functional",
    "v_functional",
    "circuit_energy",
    "bhattacharyya",
)

DIRECTIONS = ("non_increasing", "non_decreasing")

SYMMETRY_ATOL = 1e-12

_U_LOG_U = builtin("u_log_u")
_NEG_LOG = builtin("neg_log")
_NEG_SQRT = builtin("neg_sqrt")


@dataclass(frozen=True)
class TimeSeries:
    """Scalar series over strictly increasing time points."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise BadParamsError("times and values must be 1-d and equally long")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise BadParamsError("times must be strictly increasing")
        for name, arr in (("times", t), ("values", v)):
            object.__setattr__(self, name, _freeze(arr))

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class MonotonicityVerdict:
    direction: str
    holds: bool
    max_violation: float
    argmax_step: int


def _need(inits: Mapping, key: str, kind: str):
    if not inits or key not in inits:
        raise MissingInitError(f"trace kind {kind!r} needs inits[{key!r}]")
    return inits[key]


def _need_q(q: ConvexFunction | None, kind: str, arity: int = 1) -> ConvexFunction:
    if q is None:
        raise MissingInitError(f"trace kind {kind!r} needs a convex function")
    _require_arity(q, arity)
    return q


def trace_functional(
    kind: str,
    chain: StochasticMatrix | RateMatrix,
    q: ConvexFunction | None = None,
    inits: Mapping | None = None,
    steps: int = 50,
    dt: float | None = None,
) -> TimeSeries:
    """Evaluate one named functional along the trajectory of a chain.

    `inits` supplies what the kind consumes: ``init`` (a Distribution) for
    all distribution-based kinds, additionally ``init2`` for ``kl_pair``,
    and ``family`` (a MeasureFamily) for ``v_functional``.  Kinds that
    compare against the stationary law compute it on the fly, so the chain
    must be ergodic for those.

    A RateMatrix needs the step `dt`; its trajectory is the RK4 solution of
    the master equation at t = 0, dt, ..., steps * dt.  Kinds are evaluated
    on the whole (steps+1, n) array of laws at once (``v_functional`` on the
    (steps+1, k+1, n) array of families), except ``j_functional``, which
    steps the n x n joint law of (X_0, X_t).  The RK4 step is itself a
    Markov kernel, so all kinds work in both time scales.
    """
    if kind not in TRACE_KINDS:
        raise BadParamsError(f"unknown trace kind {kind!r}")

    if kind == "v_functional":
        family = _need(inits, "family", kind)
        if not isinstance(family, MeasureFamily):
            raise BadParamsError("inits['family'] must be a MeasureFamily")
        qq = _need_q(q, kind, family.k)
        times, laws = propagate(chain, family.measures, steps, dt)
        companions = np.moveaxis(laws[:, 1:], 1, 0)
        return TimeSeries(times, _ratio_functional(qq, laws[:, 0], companions, strict=True))

    init = _need(inits, "init", kind)
    if not isinstance(init, Distribution):
        raise BadParamsError("inits['init'] must be a Distribution")
    if kind == "j_functional":  # law of (X_0, X_t), one n x n step at a time
        path = trajectory(chain, np.diag(init.probs), steps, dt)
        qq = _need_q(q, kind)
        times, values = [], []
        for t, joint in path:
            prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
            times.append(t)
            values.append(_ratio_functional(qq, joint.ravel(), prod.ravel()))
        return TimeSeries(times, values)

    rows = init.probs
    if kind == "kl_pair":
        other = _need(inits, "init2", kind)
        if not isinstance(other, Distribution):
            raise BadParamsError("inits['init2'] must be a Distribution")
        if other.n != init.n:
            raise DimensionMismatchError(f"init has {init.n} states, init2 has {other.n}")
        rows = np.stack([init.probs, other.probs])
    times, laws = propagate(chain, rows, steps, dt)

    if kind == "entropy":
        values = -_ratio_functional(_U_LOG_U, np.ones(chain.n), laws)
    elif kind == "kl_pair":
        values = _ratio_functional(_NEG_LOG, laws[:, 0], laws[:, 1])
    else:
        pi = stationary_distribution(chain).probs
        if kind == "kl_to_stationary":
            values = _ratio_functional(_NEG_LOG, laws, pi)
        elif kind == "kl_from_stationary":
            values = _ratio_functional(_NEG_LOG, pi, laws)
        elif kind == "u_functional":
            values = _ratio_functional(_need_q(q, kind), pi, laws)
        elif kind == "circuit_energy":
            with np.errstate(over="ignore"):
                values = _require_finite(0.5 * np.sum(laws**2 / pi, axis=-1))
        else:  # bhattacharyya
            values = -_ratio_functional(_NEG_SQRT, laws, pi)

    return TimeSeries(times, values)


def verdict(series: TimeSeries, direction: str, tol: float = 1e-9) -> MonotonicityVerdict:
    """Check a series for one-sided drift within a per-step tolerance.

    The violation at step t is the movement in the forbidden direction
    between points t and t+1; a single-point series holds vacuously.
    """
    if direction not in DIRECTIONS:
        raise BadParamsError(f"direction must be one of {DIRECTIONS}")
    if len(series) == 0:
        raise EmptySeriesError("cannot judge an empty series")
    if len(series) == 1:
        return MonotonicityVerdict(direction, True, 0.0, 0)
    diffs = np.diff(series.values)
    sign = 1.0 if direction == "non_increasing" else -1.0
    violations = np.maximum(sign * diffs, 0.0)
    worst = int(np.argmax(violations))
    max_violation = float(violations[worst])
    return MonotonicityVerdict(direction, max_violation <= tol, max_violation, worst)


def h_theorem_rate(rates: RateMatrix, p: Distribution) -> float:
    """Instantaneous entropy production for symmetric rates.

    Evaluates (1/2) sum_{x,x'} W[x',x] (p(x') - p(x)) (log p(x') - log p(x)),
    which equals dH/dt along the master equation when W is symmetric, and
    is nonnegative term by term.  Requires strictly positive p.
    """
    if p.n != rates.n:
        raise DimensionMismatchError(f"law has {p.n} states, chain has {rates.n}")
    w = rates.matrix
    if float(np.abs(w - w.T).max()) > SYMMETRY_ATOL:
        raise NotSymmetricError("rate matrix must be symmetric")
    probs = p.probs
    if np.any(probs <= 0.0):
        raise ZeroProbabilityError("law must be strictly positive")
    diff = probs[:, None] - probs[None, :]
    ldiff = np.log(probs)[:, None] - np.log(probs)[None, :]
    return 0.5 * float(np.sum(w * diff * ldiff))
