"""Finite-state Markov chains in discrete and continuous time.

Discrete chains are row-stochastic matrices T with T[i, j] = P(j | i), acting
on row vectors: p_{t+1} = p_t T.  Continuous chains are nonnegative rate
matrices W with zero diagonal; the master equation

    dp_t(x)/dt = sum_x' [ p_t(x') W[x', x] - p_t(x) W[x, x'] ]

is integrated with a fixed-step classical 4th-order scheme.  For this
linear equation one RK4 step is exactly p <- p R, R = sum_{k<=4} (dt G)^k / k!
with G the generator, so both time scales share one step map, `_step_map`.
It writes law T, or law R as law + law D with D = R - I built once, into a
row its caller preallocated: `propagate` fills one array for the evolve
wrappers, and the traces fill one block of laws at a time.  Each step is one
np.dot per law written into that row (for rates, into one increment row,
then added to the law), on 1-d or 2-d rows only.  np.dot, not np.matmul:
on such rows it makes the same BLAS call, byte for byte, without a ufunc's
dispatch, which was half the cost of a step at n = 8.  `_series` gives the
times of both at once.

The stationary law has one solver at every n: power iteration on a lazy
kernel, stopped on an entrywise bound from its observed contraction, which
hands chains too slow for n sweeps to GTH elimination; neither subtracts.

Constructors of laws and kernels share one rule, `_normalized`: a sum
within NORMALIZATION_ATOL of 1 is divided out once, so no row excess
compounds along a trajectory and evolve results are read-only row views
checked once for finite, nonnegative entries.  Measure families evolve by
the same linear recursion as distributions, without any normalization,
which is what makes the monotone functionals downstream well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
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
    "evolve_distribution",
    "evolve_measures",
    "integrate_master_equation",
    "check_balance",
    "backward_matrix",
    "build_example_chain",
]

#: Construction-time tolerance on normalization invariants.
NORMALIZATION_ATOL = 1e-12
#: Relative accuracy of each entry of a stationary law.
STATIONARY_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _finite_nonnegative(a: np.ndarray, axis=None):
    """The entry check of the unbounded constructors: finite and nonnegative.

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
    out = np.array(a, dtype=float)
    if np.any(sums != 1.0):
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
    new, out = object.__new__, []
    for row in laws:
        out.append(obj := new(cls))
        obj.__dict__[name] = row
        obj.__dict__.update(fields)
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
        if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails both, so it goes too
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


@np.errstate(all="ignore")  # a law wider than the float range fails the positivity test
def _gth(chain: Chain) -> np.ndarray:
    """Grassmann-Taksar-Heyman elimination of the off-diagonal entries, kernel or rates."""
    a = np.array(chain.matrix)
    for k in range(chain.n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(chain.n)
    for k in range(1, chain.n):
        pi[k] = pi[:k] @ a[:k, k]
        pi[: k + 1] /= 1.0 + pi[k]  # the prefix sums to 1, so too wide a law underflows
    return pi / pi.sum()


def stationary_distribution(chain: Chain) -> Distribution:
    """Unique stationary law of an irreducible chain, each entry to about `tol` relative.

    Here tol = STATIONARY_TOL.  Irreducibility, checked first, makes the law
    unique.  Power iteration runs on the lazy uniformized kernel, pi <- pi W +
    hold pi normalized with hold = 1.05 max(exit) - exit > 0, which is
    aperiodic.  When sweep k moves each entry by at most c_k relative, the rest
    move it by about rho / (1 - rho) c_k, rho = c_k / c_(k-1).  A slower mode
    shows as a jump in that ratio, so the loop stops only once the last ratio
    is within 1.25 times the largest of the three before it, c_k <= 2 tol, and
    twice the tail, with rho the largest of the four, is within tol.  `_gth`
    takes over when rho predicts more than n sweeps, or c_k is down to
    rounding, where no rate can be read.  Raises NonErgodicError when the chain
    is reducible, the law is not strictly positive or the residual exceeds
    tolerance.
    """
    tol = STATIONARY_TOL
    _require_strongly_connected(chain)
    exit_rates = _exit_rates(chain)
    hold = (1.05 * np.max(exit_rates) or 1.0) - exit_rates  # one state: no exit, any hold
    pi = np.full(chain.n, 1.0 / chain.n)
    changes = []
    for sweeps in count(1):
        prev = pi
        pi = pi @ chain.matrix + hold * pi
        pi /= pi.sum()
        changes.append(float(np.max(np.abs(pi - prev) / pi)))
        if not changes[-1] >= 64.0 * np.finfo(float).eps:  # rounding, or NaN: no rate to read
            pi = _gth(chain)
            break
        if sweeps < 5:
            continue
        ratios = np.divide(changes[-4:], changes[-5:-1])
        rho = min(ratios.max(), 1.0)
        change = changes[-1]
        settled = ratios[-1] <= 1.25 * ratios[:-1].max()  # a jump: a slower mode shows
        if settled and change <= 2.0 * tol and 2.0 * rho * change <= tol * (1.0 - rho):
            break
        if not 2.0 * rho * change * rho ** max(chain.n - sweeps, 0) <= tol * (1.0 - rho):
            pi = _gth(chain)  # more than n sweeps to go, or no contraction
            break

    if not np.all(pi > 0.0):  # NaN fails too
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


def _step_map(chain: Chain, rows: np.ndarray, steps: int, dt: float | None = None):
    """The one step law_{t+1} = law_t K, as `step(law, out)` writing into `out`.

    `rows` is one law (n,) or a stack of laws (m, n); `law` and `out` are
    C-contiguous rows of that shape, and `out` may be `law` itself.  For a
    discrete chain K = T; for rates K is the RK4 step matrix, applied as
    law + law D through one increment row made here.  A 3-d stack is
    refused: np.dot steps it off BLAS, bits apart from np.matmul.  Arguments
    are checked, and the kernel built, when the function is called.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (1, 2):
        raise DimensionMismatchError(f"rows have shape {rows.shape}; a step takes 1-d or 2-d rows")
    if rows.shape[-1] != chain.n:
        raise DimensionMismatchError(f"rows have shape {rows.shape}, chain has {chain.n} states")
    if not _integral(steps):
        raise BadParamsError("steps must be a nonnegative integer")
    if steps < 0:
        raise BadParamsError("steps must be nonnegative")
    dot, add = np.dot, np.add  # bound once: the step runs once per law
    if isinstance(chain, RateMatrix):
        d, inc = _rk4_increment(chain, dt), np.empty(rows.shape)
        return lambda law, out: add(law, dot(law, d, inc), out=out)
    if dt is not None:
        raise BadParamsError("dt applies to rate matrices only")
    kernel = chain.matrix
    return lambda law, out: dot(law, kernel, out)


def _count_text(n: int) -> str:
    """f"{n:.3g}" of a count n >= 1; past the float range, its exact decimal rounded half to even."""
    try:
        return f"{n:.3g}"
    except OverflowError:
        from decimal import Decimal  # only on this refusal path: it costs every start-up 3.5 ms

        mantissa, exp = f"{Decimal(n):.2e}".split("e")
        return f"{mantissa.rstrip('0').rstrip('.')}e{int(exp):+03d}"


def _series(steps: int, shape: tuple = (), dt: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Times k dt (k for a kernel), k = 0..steps, and empty values (steps+1, *shape)."""
    total = int(steps) + 1
    try:  # numpy refuses at once a size beyond the address space or its dimension limit
        values = np.empty((total, *shape))
    except (MemoryError, ValueError, OverflowError) as exc:
        raise BadParamsError(f"{_count_text(total)} laws cannot be held: {exc}") from exc
    return np.arange(total, dtype=float) * (1.0 if dt is None else dt), values


def propagate(
    chain: Chain, rows: np.ndarray, steps: int, dt: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The trajectory of `rows` as arrays: times (steps+1,), laws (steps+1, *rows.shape)."""
    step = _step_map(chain, rows, steps, dt)
    times, laws = _series(steps, np.shape(rows), dt)
    laws[0] = rows
    views = list(laws)
    for law, out in zip(views, views[1:]):
        step(law, out)
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
    if not 0.0 <= tol < np.inf:
        raise BadParamsError(f"tol must be finite and nonnegative, got {tol}")
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

    kind selects the family; any other kind raises BadParamsError:
      * ``mod_k_walk``: discrete walk x -> (x +/- 1) mod K, each with prob 1/2.
      * ``cyclic``: deterministic rotation x -> (x + 1) mod K.
      * ``mm1_truncated``: birth-death rates of a single-server queue with
        arrival rate ``lam`` and service rate ``mu``, cut at ``n_states``.
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
    raise BadParamsError(f"unknown chain kind {kind!r}")


def _int_param(params: dict, name: str) -> int:
    if name not in params:
        raise BadParamsError(f"missing parameter {name!r}")
    if not _integral(params[name]):
        raise BadParamsError(f"parameter {name!r} must be an integer")
    return int(params[name])


def _integral(value) -> bool:
    """Whether `value` is a whole number, the one test of a count; NaN, +-inf and strings are not."""
    try:
        return int(value) == value
    except (OverflowError, TypeError, ValueError):
        return False
