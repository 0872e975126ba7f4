"""Finite-state Markov chains in discrete and continuous time.

Discrete chains are row-stochastic matrices T with T[i, j] = P(j | i), acting
on row vectors: p_{t+1} = p_t T.  Continuous chains are nonnegative rate
matrices W with zero diagonal; the master equation

    dp_t(x)/dt = sum_x' [ p_t(x') W[x', x] - p_t(x) W[x, x'] ]

is integrated with a fixed-step classical 4th-order scheme.  For this
linear equation one RK4 step is exactly p <- p R, R = sum_{k<=4} (dt G)^k / k!
with G the generator, so both time scales share one engine: `trajectory`
steps stacked row vectors through T, or through R built once (as p + p D
with D = R - I), and `propagate` collects them into one array.

Constructors of laws and kernels share one rule, `_normalized`: a sum
within NORMALIZATION_ATOL of 1 is divided out once, so no row excess
compounds along a trajectory and evolve results are read-only row views
checked once for finite, nonnegative entries.  Measure families evolve by
the same linear recursion as distributions, without any normalization,
which is what makes the monotone functionals downstream well-defined.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .errors import (
    BadParamsError,
    DimensionMismatchError,
    NonErgodicError,
    NotStationaryError,
    UnstableStepError,
    ZeroProbabilityError,
)

__all__ = [
    "Distribution",
    "StochasticMatrix",
    "RateMatrix",
    "MeasureFamily",
    "BalanceReport",
    "stationary_distribution",
    "trajectory",
    "propagate",
    "horizon_steps",
    "evolve_distribution",
    "evolve_measures",
    "integrate_master_equation",
    "check_balance",
    "backward_matrix",
    "build_example_chain",
]

#: Construction-time tolerance on normalization invariants.
NORMALIZATION_ATOL = 1e-12

#: Largest state space solved by direct elimination; larger chains fall back
#: to power iteration.
DIRECT_SOLVE_MAX = 64

POWER_ITERATION_CAP = 200_000


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _finite_nonnegative(a: np.ndarray, axis=None):
    """The entry check shared by every constructor: finite and nonnegative.

    NaN fails both comparisons, so it is rejected along with +-inf.
    """
    return np.all((a >= 0.0) & (a < np.inf), axis=axis)


def _normalized(a: np.ndarray, axis: int | None, message: str) -> np.ndarray:
    """The one normalization rule: a read-only copy of `a`, its sums along `axis` made 1.

    Sums (of all entries when `axis` is None) within NORMALIZATION_ATOL of 1
    are divided out once, in place and only if one is not exactly 1.0, so
    exact input stays bit-identical.  Any other sum raises BadParamsError with
    `message` formatted by `total` (the first sum), `rows` (those off) and `atol`.
    """
    sums = a.sum(axis=axis, keepdims=True)
    off = np.abs(sums - 1.0) > NORMALIZATION_ATOL
    if np.any(off):
        total, rows = float(sums.flat[0]), np.flatnonzero(off).tolist()
        raise BadParamsError(message.format(total=total, rows=rows, atol=NORMALIZATION_ATOL))
    out = _freeze(a)
    if np.any(sums != 1.0):
        out.setflags(write=True)
        out /= sums
        out.setflags(write=False)
    return out


def _wrap_rows(cls, name: str, laws: np.ndarray, ok=True, **fields) -> list:
    """One `cls` per row of `laws`: read-only views, checked once as a whole.

    Rows must be finite and nonnegative and pass `ok`, the rest of the
    constructor's check; at the first row that fails, the constructor raises
    its own error.  Sums need no check: normalized kernel rows keep them.
    """
    ok = ok & _finite_nonnegative(laws, axis=tuple(range(1, laws.ndim)))
    if not np.all(ok):
        cls(laws[np.argmin(ok)], **fields)
    laws.setflags(write=False)
    out = []
    for row in laws:
        out.append(object.__new__(cls))
        out[-1].__dict__.update({name: row, **fields})
    return out


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite state space."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise BadParamsError("distribution must be a nonempty 1-d vector")
        if not _finite_nonnegative(p):
            raise BadParamsError("distribution entries must be finite and nonnegative")
        p = _normalized(p, None, "distribution sums to {total}, expected 1 within {atol}")
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic transition matrix of a discrete-time chain."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.matrix, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
            raise BadParamsError("transition matrix must be square and nonempty")
        if not _finite_nonnegative(t) or np.any(t > 1.0):
            raise BadParamsError("transition probabilities must lie in [0, 1]")
        object.__setattr__(self, "matrix", _normalized(t, 1, "rows {rows} do not sum to 1"))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class RateMatrix:
    """Transition rates of a continuous-time chain, zero on the diagonal."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] == 0:
            raise BadParamsError("rate matrix must be square and nonempty")
        if not _finite_nonnegative(w):
            raise BadParamsError("rates must be finite and nonnegative")
        if np.any(np.diag(w) != 0.0):
            raise BadParamsError("rate matrix must have an exactly zero diagonal")
        object.__setattr__(self, "matrix", _freeze(w))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def generator(self) -> np.ndarray:
        """Generator G = W - diag(exit rates); rows sum to zero."""
        w = self.matrix
        return w - np.diag(w.sum(axis=1))


@dataclass(frozen=True)
class MeasureFamily:
    """A strictly positive reference measure plus k companion measures.

    Stored as a (k+1, n) array whose row 0 is the reference.  Companion
    rows are nonnegative but need not normalize.  `require_positive=False`
    admits zeros in the reference; the functionals that consume such a
    family only accept a zero reference cell when every companion vanishes
    there too.
    """

    measures: np.ndarray
    require_positive: bool = field(default=True)

    def __post_init__(self) -> None:
        m = np.asarray(self.measures, dtype=float)
        if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] == 0:
            raise BadParamsError("need a (k+1, n) array with k >= 1")
        if self.require_positive and np.any(m[0] <= 0.0):
            raise ZeroProbabilityError("reference measure must be strictly positive")
        if not _finite_nonnegative(m):
            raise BadParamsError("measures must be finite and nonnegative")
        object.__setattr__(self, "measures", _freeze(m))

    @property
    def k(self) -> int:
        return self.measures.shape[0] - 1

    @property
    def n(self) -> int:
        return self.measures.shape[1]

    @property
    def reference(self) -> np.ndarray:
        return self.measures[0]


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of balance diagnostics for a chain and a candidate law.

    A true `satisfies_detailed_balance` always comes with a true
    `satisfies_global_balance`; detailed balance is the stronger property.
    """

    is_doubly_stochastic: bool
    satisfies_global_balance: bool
    satisfies_detailed_balance: bool
    max_residual: float


Chain = StochasticMatrix | RateMatrix


def _exit_rates(chain: Chain):
    return 1.0 if isinstance(chain, StochasticMatrix) else chain.matrix.sum(axis=1)


def _drift(chain: Chain, rows: np.ndarray) -> np.ndarray:
    """rows G without building G = W - diag(exit); a kernel has W = T and exit 1."""
    return rows @ chain.matrix - rows * _exit_rates(chain)


def _require_strongly_connected(chain: Chain) -> None:
    """Reachability from 0 both ways, one frontier per level: O(n^2) at any diameter."""
    adj = chain.matrix > 0.0
    for mat in (adj, adj.T):
        seen = np.zeros(chain.n, dtype=bool)
        frontier = np.array([0])
        while frontier.size:
            seen[frontier] = True
            frontier = np.flatnonzero(mat[frontier].any(axis=0) & ~seen)
        if not seen.all():
            raise NonErgodicError("chain is reducible")


def stationary_distribution(chain: Chain, tol: float = 1e-12) -> Distribution:
    """Unique stationary law of an irreducible chain.

    Irreducibility, checked first, makes the law unique.  Up to
    DIRECT_SOLVE_MAX states, a least-squares solve of the balance equations
    bordered by the normalization row, which drifting rows do not upset.
    Above, power iteration on the lazy uniformized kernel in both time
    scales, pi <- pi W + hold pi normalized, hold = 1.05 max(exit) - exit > 0;
    it is aperiodic, so periodic chains converge too.  Raises NonErgodicError
    when the chain is reducible, the law is not strictly positive, the
    iteration does not converge or the residual exceeds tolerance.
    """
    _require_strongly_connected(chain)
    n = chain.n
    if n <= DIRECT_SOLVE_MAX:
        a = np.vstack([_drift(chain, np.eye(n)).T, np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    else:
        exit_rates = _exit_rates(chain)
        hold = 1.05 * np.max(exit_rates) - exit_rates
        pi = np.full(n, 1.0 / n)
        for _ in range(POWER_ITERATION_CAP):
            prev = pi
            pi = pi @ chain.matrix + hold * pi
            pi /= pi.sum()
            if np.abs(pi - prev).sum() < tol:
                break
        else:
            raise NonErgodicError(
                f"power iteration did not converge within {POWER_ITERATION_CAP} sweeps"
            )

    if np.any(pi <= 0.0):
        raise NonErgodicError("stationary law is not strictly positive")
    law = Distribution(pi)
    residual = float(np.abs(_drift(chain, law.probs)).max())
    if residual > max(tol, 1e-10):
        raise NonErgodicError(f"stationary residual {residual:.3e} exceeds tolerance")
    return law


def _check_discrete(chain: Chain) -> StochasticMatrix:
    if not isinstance(chain, StochasticMatrix):
        raise BadParamsError("operation requires a discrete-time chain")
    return chain


def _rk4_increment(rates: RateMatrix, dt: float | None) -> np.ndarray:
    """D = R - I for the RK4 step matrix R, built without subtraction.

    R = sum_m a_m M^m with M = c I + dt G >= 0, c = dt * max exit rate and
    a_m = T_{4-m}(-c) / m!, T_k the degree-k Taylor polynomial of e^x.  All
    a_m are positive exactly when c < 1 (else UnstableStepError), so the
    off-diagonal entries are sums of nonnegative terms.  The diagonal is
    minus the off-diagonal row sum, so a step p + p D conserves mass and
    rounds on the scale of the increment, as stagewise RK4 does.
    """
    if dt is None or not dt > 0.0:
        raise BadParamsError("rate matrices need a step dt > 0")
    exit_rates = rates.matrix.sum(axis=1)
    c = float(exit_rates.max()) * dt
    if c >= 1.0:
        raise UnstableStepError(
            f"dt={dt} too large for max exit rate {exit_rates.max()} (need product < 1)"
        )
    diag = np.diag_indices(rates.n)
    m = dt * rates.matrix
    m[diag] = c - dt * exit_rates
    taylor = np.cumsum([(-c) ** k / factorial(k) for k in range(5)])
    d = taylor[0] / 24.0 * m
    for k in (3, 2, 1):
        d[diag] += taylor[4 - k] / factorial(k)
        d = d @ m
    d[diag] = 0.0
    d[diag] = -d.sum(axis=1)
    return d


def trajectory(
    chain: Chain, rows: np.ndarray, steps: int, dt: float | None = None
) -> Iterator[tuple[float, np.ndarray]]:
    """Lazy (time, law) pairs for t = 0..steps with law_{t+1} = law_t K.

    `rows` has shape (..., n).  For a discrete chain K = T and times count
    steps; for rates K is the RK4 step matrix, applied as law + law D, and
    times are multiples of `dt`.  Arguments are checked, and the kernel
    built, when the function is called.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 0 or rows.shape[-1] != chain.n:
        raise DimensionMismatchError(f"rows have shape {rows.shape}, chain has {chain.n} states")
    if steps < 0:
        raise BadParamsError("steps must be nonnegative")
    rates = isinstance(chain, RateMatrix)
    if not rates and dt is not None:
        raise BadParamsError("dt applies to rate matrices only")
    kernel = _rk4_increment(chain, dt) if rates else chain.matrix

    def walk(law: np.ndarray) -> Iterator[tuple[float, np.ndarray]]:
        yield 0.0, law
        for k in range(1, int(steps) + 1):
            law = law + law @ kernel if rates else law @ kernel
            yield (k * dt if rates else float(k)), law

    return walk(rows)


def propagate(
    chain: Chain, rows: np.ndarray, steps: int, dt: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The whole `trajectory` as arrays: times (steps+1,), laws (steps+1, *rows.shape)."""
    path = trajectory(chain, rows, steps, dt)
    try:  # numpy refuses at once a size beyond the address space or its dimension limit
        times, laws = np.empty(int(steps) + 1), np.empty((int(steps) + 1, *np.shape(rows)))
    except (MemoryError, ValueError) as exc:
        raise BadParamsError(f"{int(steps) + 1:.3g} laws cannot be held: {exc}") from exc
    for k, (t, law) in enumerate(path):
        times[k], laws[k] = t, law
    return times, laws


def horizon_steps(dt: float, horizon: float) -> int:
    """Number of whole dt steps that fit in the horizon."""
    if not (dt > 0.0 and horizon >= dt):
        raise BadParamsError("need dt > 0 and horizon >= dt")
    if not horizon / dt < np.inf:
        raise BadParamsError(f"horizon {horizon} holds no finite number of steps of {dt}")
    return int(np.floor(horizon / dt + 1e-9))


def evolve_distribution(chain: StochasticMatrix, init: Distribution, steps: int) -> list[Distribution]:
    """Forward trajectory [p_0, p_1, ..., p_steps] with p_{t+1} = p_t T."""
    _, laws = propagate(_check_discrete(chain), init.probs, steps)
    return [init, *_wrap_rows(Distribution, "probs", laws[1:])]


def evolve_measures(chain: StochasticMatrix, family: MeasureFamily, steps: int) -> list[MeasureFamily]:
    """Push a whole measure family through the chain, one entry per step.

    Every row obeys mu_{t+1}(x) = sum_x' mu_t(x') P(x | x'); total mass of
    each row is conserved because the kernel rows sum to one.
    """
    _, laws = propagate(_check_discrete(chain), family.measures, steps)
    laws = laws[1:]
    ok = np.all(laws[:, 0] > 0.0, axis=1) if family.require_positive else True
    rows = _wrap_rows(MeasureFamily, "measures", laws, ok, require_positive=family.require_positive)
    return [family, *rows]


def integrate_master_equation(
    rates: RateMatrix, init: Distribution, dt: float, horizon: float
) -> list[tuple[float, Distribution]]:
    """Fixed-step RK4 trajectory of the master equation.

    Returns (time, law) pairs at t = 0, dt, 2 dt, ... up to the horizon.
    The step must satisfy max_x(total exit rate of x) * dt < 1, otherwise
    UnstableStepError is raised.
    """
    if not isinstance(rates, RateMatrix):
        raise BadParamsError("operation requires a continuous-time chain")
    times, laws = propagate(rates, init.probs, horizon_steps(dt, horizon), dt)
    return [(0.0, init), *zip(times[1:].tolist(), _wrap_rows(Distribution, "probs", laws[1:]))]


def check_balance(chain: Chain, pi: Distribution, tol: float = 1e-9) -> BalanceReport:
    """Diagnose global balance, detailed balance, and double stochasticity.

    The doubly-stochastic flag is a property of discrete kernels (column
    sums equal one) and is reported as False for rate matrices.
    """
    if pi.n != chain.n:
        raise DimensionMismatchError(f"law has {pi.n} states, chain has {chain.n}")
    p = pi.probs
    flow = p[:, None] * chain.matrix
    if isinstance(chain, StochasticMatrix):
        global_residual = float(np.abs(flow.sum(axis=0) - p).max())
        doubly = bool(np.abs(chain.matrix.sum(axis=0) - 1.0).max() <= tol)
    else:
        global_residual = float(np.abs(flow.sum(axis=0) - flow.sum(axis=1)).max())
        doubly = False
    detailed_residual = float(np.abs(flow - flow.T).max())

    global_ok = global_residual <= tol
    detailed_ok = detailed_residual <= tol and global_ok
    return BalanceReport(
        is_doubly_stochastic=doubly,
        satisfies_global_balance=global_ok,
        satisfies_detailed_balance=detailed_ok,
        max_residual=max(global_residual, detailed_residual),
    )


def backward_matrix(chain: StochasticMatrix, pi: Distribution) -> StochasticMatrix:
    """Time-reversed kernel B[x', x] = pi(x) P(x' | x) / pi(x').

    `pi` must be strictly positive and stationary for the chain; the rows of
    B then sum to one, and reversing twice restores the original kernel.
    """
    chain = _check_discrete(chain)
    if pi.n != chain.n:
        raise DimensionMismatchError(f"law has {pi.n} states, chain has {chain.n}")
    p = pi.probs
    if np.any(p <= 0.0):
        raise ZeroProbabilityError("reversal needs a strictly positive stationary law")
    residual = float(np.abs(_drift(chain, p)).max())
    if residual > 1e-9:
        raise NotStationaryError(f"law is not stationary (residual {residual:.3e})")
    b = (p[:, None] * chain.matrix).T / p[:, None]
    return StochasticMatrix(b)


def build_example_chain(kind: str, **params) -> Chain:
    """Construct one of the stock chains.

    kind selects the family:
      * ``mod_k_walk``: discrete walk x -> (x +/- 1) mod K, each with prob 1/2.
      * ``cyclic``: deterministic rotation x -> (x + 1) mod K.
      * ``mm1_truncated``: birth-death rates of a single-server queue with
        arrival rate ``lam`` and service rate ``mu``, cut at ``n_states``.
      * ``custom``: explicit ``matrix``, discrete unless ``continuous=True``.
    """
    if kind in ("mod_k_walk", "cyclic"):
        k = _int_param(params, "K")
        if k < 2:
            raise BadParamsError(f"{kind} needs K >= 2")
        shift = np.roll(np.eye(k), 1, axis=1)  # x -> x + 1 mod K
        return StochasticMatrix(shift if kind == "cyclic" else 0.5 * shift + 0.5 * shift.T)
    if kind == "mm1_truncated":
        lam = float(params.get("lam", float("nan")))
        mu = float(params.get("mu", float("nan")))
        n = _int_param(params, "n_states")
        if not (lam > 0.0 and mu > 0.0 and lam < mu):
            raise BadParamsError("mm1_truncated needs 0 < lam < mu")
        if n < 2:
            raise BadParamsError("mm1_truncated needs n_states >= 2")
        return RateMatrix(np.diag(np.full(n - 1, lam), 1) + np.diag(np.full(n - 1, mu), -1))
    if kind == "custom":
        if "matrix" not in params:
            raise BadParamsError("custom chain needs a matrix")
        if params.get("continuous", False):
            return RateMatrix(np.asarray(params["matrix"], dtype=float))
        return StochasticMatrix(np.asarray(params["matrix"], dtype=float))
    raise BadParamsError(f"unknown chain kind {kind!r}")


def _int_param(params: dict, name: str) -> int:
    if name not in params:
        raise BadParamsError(f"missing parameter {name!r}")
    value = params[name]
    if int(value) != value:
        raise BadParamsError(f"parameter {name!r} must be an integer")
    return int(value)
