"""Traces of information functionals along a chain, and their verdicts.

Each trace kind maps a trajectory to a scalar series indexed by step
count, or by time for rate matrices.  All nine are sums ref * Q(comp/ref)
from the one ratio kernel `measures._ratio_functional`, and every input
is checked before the first step.  The series are the empirical side of
the second-law statements: entropy of a doubly stochastic chain never
falls, divergence to the stationary law never rises, and the generalized
functionals drift one way only.  `verdict` turns a series into a
pass/fail record with the largest violation and where it happened.
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
    stationary_distribution,
    _freeze,
    _series,
    _step_map,
)
from .measures import _BLEND_BLOCK_CELLS, _independence_functional, _ratio_functional, _require_arity

__all__ = [
    "TimeSeries",
    "MonotonicityVerdict",
    "TRACE_KINDS",
    "trace_functional",
    "verdict",
    "h_theorem_rate",
]

DIRECTIONS = ("non_increasing", "non_decreasing")

SYMMETRY_ATOL = 1e-12

_U_LOG_U = builtin("u_log_u")
_NEG_LOG = builtin("neg_log")
_NEG_SQRT = builtin("neg_sqrt")
_HALF_SQUARE = builtin("half_square")


# Each trace kind as one kernel call on a block of laws (b, *rows.shape), given Q and pi.
_KERNEL_CALLS = {
    "entropy": lambda q, pi, laws: -_ratio_functional(_U_LOG_U, np.ones(laws.shape[-1]), laws[None]),
    "kl_to_stationary": lambda q, pi, laws: _ratio_functional(_NEG_LOG, laws, pi[None]),
    "kl_from_stationary": lambda q, pi, laws: _ratio_functional(_NEG_LOG, pi, laws[None]),
    "kl_pair": lambda q, pi, laws: _ratio_functional(_NEG_LOG, laws[:, 0], laws[None, :, 1]),
    "u_functional": lambda q, pi, laws: _ratio_functional(q, pi, laws[None]),
    "j_functional": lambda q, pi, laws: _independence_functional(q, laws),
    "v_functional": lambda q, pi, laws: _ratio_functional(q, laws[:, 0], np.moveaxis(laws[:, 1:], 1, 0)),
    # (1/2) sum p^2 / pi = sum pi Q(p / pi), Q(u) = u^2 / 2
    "circuit_energy": lambda q, pi, laws: _ratio_functional(_HALF_SQUARE, pi, laws[None]),
    "bhattacharyya": lambda q, pi, laws: -_ratio_functional(_NEG_SQRT, laws, pi[None]),
}
TRACE_KINDS = tuple(_KERNEL_CALLS)
_LAW_ONLY = ("entropy", "kl_pair", "j_functional", "v_functional")  # no stationary law


@dataclass(frozen=True)
class TimeSeries:
    """Scalar series of finite values over finite, strictly increasing time points.

    A NaN or infinite time or value raises BadParamsError, so `verdict`
    never judges a value that is not a number.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise BadParamsError("times and values must be 1-d and equally long")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise BadParamsError("times and values must be finite")
        if not np.all(np.diff(t) > 0.0):  # NaN fails the comparison too
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


def _need(inits: Mapping, key: str, kind: str, cls: type = Distribution):
    if not inits or key not in inits:
        raise MissingInitError(f"trace kind {kind!r} needs inits[{key!r}]")
    if not isinstance(inits[key], cls):
        raise BadParamsError(f"inits[{key!r}] must be a {cls.__name__}")
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
    compare against the stationary law solve it once, before the first
    step, so the chain must be ergodic for those.  Every input is checked
    before the first step.

    A RateMatrix needs the step `dt`; its trajectory is the RK4 solution of
    the master equation at t = 0, dt, ..., steps * dt.  The RK4 step is
    itself a Markov kernel, so all kinds work in both time scales.  Each
    kind steps one stack of rows: the law, the ``kl_pair`` pair, the
    family, or for ``j_functional`` the n x n joint law of (X_0, X_t).
    The step map writes each law in place into a block of at most
    _BLEND_BLOCK_CELLS cells and at most steps + 1 laws, one kernel call
    each, so only the value series grows with `steps`; a block's last law
    steps into the next.
    """
    if kind not in TRACE_KINDS:
        raise BadParamsError(f"unknown trace kind {kind!r}")
    if kind == "v_functional":
        family = _need(inits, "family", kind, MeasureFamily)
        q, rows = _need_q(q, kind, family.k), family.measures
    else:
        init = _need(inits, "init", kind)
        rows = np.diag(init.probs) if kind == "j_functional" else init.probs
        if kind in ("u_functional", "j_functional"):
            q = _need_q(q, kind)
        if kind == "kl_pair":
            other = _need(inits, "init2", kind)
            if other.n != init.n:
                raise DimensionMismatchError(f"init has {init.n} states, init2 has {other.n}")
            rows = np.stack([init.probs, other.probs])

    step = _step_map(chain, rows, steps, dt)
    times, values = _series(steps, dt=dt)
    pi = None if kind in _LAW_ONLY else stationary_distribution(chain).probs
    total, call = len(times), _KERNEL_CALLS[kind]
    block = np.empty((min(max(1, _BLEND_BLOCK_CELLS // rows.size), total), *rows.shape))
    block[0] = rows
    views = list(block)
    for start in range(0, total, len(views)):
        laws = views[: total - start]
        if start:  # the last law of the full block before
            step(views[-1], laws[0])
        for law, out in zip(laws, laws[1:]):
            step(law, out)
        values[start : start + len(laws)] = call(q, pi, block[: len(laws)])
    return TimeSeries(times, values)


def verdict(series: TimeSeries, direction: str, tol: float = 1e-9) -> MonotonicityVerdict:
    """Check a series for one-sided drift within a per-step tolerance.

    The violation at step t is the movement in the forbidden direction
    between points t and t+1; a single-point series holds vacuously.
    """
    if direction not in DIRECTIONS:
        raise BadParamsError(f"direction must be one of {DIRECTIONS}")
    if not 0.0 <= tol < np.inf:
        raise BadParamsError(f"tol must be finite and nonnegative, got {tol}")
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
