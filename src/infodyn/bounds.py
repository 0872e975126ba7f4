"""Distortion lower bounds from a convex information functional.

The worked model: a uniform source on K letters, reproduced on the same
alphabet under a distortion measure that only permits the letter itself
(cost 0) or its cyclic successor (cost 1), transmitted over a noise-free
channel with L < K input letters.  With Q(z) = -sqrt(z) and an extension
weight s >= 0, both sides of the data processing inequality close over a
one-parameter family:

    rate side      R(d) = -(1/K) [sqrt(s + Kd) + sqrt(s + K(1 - d))]
                          - (1 - 2/K) sqrt(s)
    channel side   C    = -sqrt(s) - 1 / (sqrt(s) + sqrt(s + L))

Chaining R(d) <= C and squaring twice yields 4 d (1 - d) >= psi(s), whose
smaller root is a distortion lower bound for every s.  psi(0) recovers
(K/L - 1)^2; the s -> infinity limit gives 2 (1 - L/K), which is strictly
better throughout 1 < K/L < 2.  The classical route (binary entropy
matching log(K/L)) lands between the two endpoints.

Both sides are I_Q of the simple extension (Zakai & Ziv): P(u,v) + s P(u) P(v)
against P(u) P(v).  The two oracles evaluate it through
`measures.mixed_measure_information`, the source side with the channel's own
output law P(v) (1/K for a constant ε).  The perspective of Q, -sqrt(ab), is
symmetric, so they give P(u) P(v) the reference slot: the ratio
s + P(u,v) / (P(u) P(v)) then does not overflow at tiny s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGridError,
    BadParamsError,
    DimensionMismatchError,
    OutOfValidityRangeError,
    PsiAboveOneError,
)
from .convexity import builtin
from .markov import Distribution, _count_text, _freeze, _integral
from .measures import JointDistribution, mixed_measure_information, simple_extension_coefficients

__all__ = [
    "ExampleConfig",
    "EpsilonChannel",
    "GridSpec",
    "BoundReport",
    "rate_distortion_value",
    "capacity_value",
    "psi_exact",
    "psi_lower",
    "psi_limit",
    "distortion_bound",
    "optimize_s",
    "classical_bound",
    "binary_entropy_nats",
    "binary_entropy_bits",
    "oracle_source_value",
    "oracle_channel_value",
    "source_joint",
    "report_to_dict",
]

PSI_ROUNDING_SLACK = 1e-12
BISECTION_TOL = 1e-12
#: Most points a sweep takes: it evaluates them one by one, 10**6 in 0.9 s on a 2-vCPU x86-64 VM.
MAX_GRID_POINTS = 10**6
_Q = builtin("neg_sqrt")  # Q(z) = -sqrt(z) on both sides of the worked model


@dataclass(frozen=True)
class ExampleConfig:
    """Alphabet sizes of the worked model; requires 1 < K/L <= 2."""

    K: int
    L: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _alphabet_size(self.K))
        object.__setattr__(self, "L", _alphabet_size(self.L))
        if not self.L < self.K <= 2 * self.L:
            raise BadParamsError(
                f"need L < K <= 2L for a ratio in (1, 2], got K={self.K}, L={self.L}"
            )

    @property
    def theta(self) -> float:
        return self.K / self.L


@dataclass(frozen=True)
class EpsilonChannel:
    """Test channel: letter u stays put w.p. 1 - eps_u, else shifts to u+1 mod K."""

    eps: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.eps, dtype=float)
        if e.ndim != 1 or e.size < 3:
            raise BadParamsError("eps must be a vector with at least 3 entries")
        if not np.all((e >= 0.0) & (e <= 1.0)):  # NaN fails both, so it goes too
            raise BadParamsError("crossover probabilities must lie in [0, 1]")
        object.__setattr__(self, "eps", _freeze(e))

    @property
    def K(self) -> int:
        return self.eps.size

    @property
    def expected_distortion(self) -> float:
        return float(self.eps.mean())

    def transition_matrix(self) -> np.ndarray:
        return np.diag(1.0 - self.eps) + np.roll(np.diag(self.eps), 1, axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Sweep grid over the extension weight s."""

    start: float = 1e-3
    stop: float = 1e6
    points: int = 64
    log_spaced: bool = True

    def __post_init__(self) -> None:
        if not _integral(self.points):
            raise BadGridError("grid point count must be an integer")
        object.__setattr__(self, "points", int(self.points))
        if self.points < 1:
            raise BadGridError("grid needs at least one point")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise BadGridError("grid endpoints must be finite")
        if self.start > self.stop:
            raise BadGridError("grid start must not exceed stop")
        if self.log_spaced and self.start <= 0.0:
            raise BadGridError("log-spaced grid needs a positive start")
        if self.start < 0.0:
            raise BadGridError("grid values must be nonnegative")
        if self.points > MAX_GRID_POINTS:
            count = _count_text(self.points)
            raise BadGridError(f"{count} grid points cannot be held: a sweep takes at most {MAX_GRID_POINTS} points")

    def values(self) -> np.ndarray:
        return (np.geomspace if self.log_spaced else np.linspace)(self.start, self.stop, self.points)


@dataclass(frozen=True)
class BoundReport:
    """Everything the sweep produced, endpoints included."""

    config: ExampleConfig
    s_grid: np.ndarray
    psi_values: np.ndarray
    d_values: np.ndarray
    d_at_zero: float
    d_at_limit: float
    d_classical: float
    best_s: float | str
    best_d: float


def _alphabet_size(k) -> int:
    """The one alphabet-size rule: a whole number from 2 to the largest float, as the formulas take it."""
    if not _integral(k):
        raise BadParamsError("alphabet sizes must be integers")
    if k < 2:
        raise BadParamsError("alphabet size must be at least 2")
    if k > sys.float_info.max:
        raise BadParamsError(f"alphabet size {_count_text(k)} is past the float range")
    return int(k)


def _check_s(s: float) -> None:
    if s < 0.0 or not math.isfinite(s):
        raise BadParamsError("extension weight s must be finite and nonnegative")


def rate_distortion_value(d: float, s: float, K: int) -> float:
    """Best achievable functional value on the source side at distortion d.

    The maximizing test channel puts the same crossover d on every letter;
    concavity of the square root does the rest.
    """
    _check_s(s)
    K = _alphabet_size(K)
    if not 0.0 <= d <= 1.0:
        raise BadParamsError("distortion must lie in [0, 1]")
    root_pair = math.sqrt(s + K * d) + math.sqrt(s + K * (1.0 - d))
    return -root_pair / K - (1.0 - 2.0 / K) * math.sqrt(s)


def capacity_value(s: float, L: int) -> float:
    """Largest functional value across inputs of the noise-free L-ary channel.

    The uniform input is the minimizer of the negated value because
    t -> t / (sqrt(s + 1/t) + sqrt(s)) is convex on t > 0.
    """
    _check_s(s)
    L = _alphabet_size(L)
    return -math.sqrt(s) - 1.0 / (math.sqrt(s) + math.sqrt(s + L))


def psi_exact(s: float, config: ExampleConfig) -> float:
    """The bound curve psi(s) with 4 d (1 - d) >= psi(s) at admissible d.

    Algebraically equal to

        (1/K^2) [ (K/(sqrt(s)+sqrt(s+L)) + 2 sqrt(s))^2 - 2s - K ]^2
        - 4 s (s + K) / K^2,

    but evaluated through D = (sqrt(s) + sqrt(s+L))^2 expanded as
    2s + L + 2 sqrt(s (s+L)), which removes the catastrophic cancellation
    that the displayed form suffers for large s.  Near either end of the
    float range, where that expansion overflows, D stays a square.
    """
    k, l = config.K, config.L
    _check_s(s)
    s = float(s)  # a numpy scalar would warn where the expansion overflows
    if s == 0.0:
        denom = float(l)
    else:
        denom = 2.0 * s + l + 2.0 * s * math.sqrt(1.0 + l / s)
    if math.isinf(denom):
        root = math.sqrt(s) + math.hypot(math.sqrt(s), math.sqrt(l))  # sqrt(s + L) where s + L overflows
        return (k - 2 * l) / k * (2.0 * math.sqrt(s) / root) ** 2 + (1.0 + (k - 2 * l) / root / root) ** 2
    shift = (k - 2 * l) / denom
    return (k - 2 * l) / k * (4.0 * s / denom) + (1.0 + shift) ** 2


def psi_lower(s: float, config: ExampleConfig) -> float:
    """Closed-form minorant of psi(s), valid for s >= L/8.

    Comes from replacing sqrt(s + L) by its tangent bound; the result is a
    rational function of s that shares the s -> infinity limit with psi.
    With t = 4s + L it reads

        ((4s - L)/t)^2 + 16 K^2 s^2/t^4 - 8 L s/(K t) + 16 s^2/t^2 + 8 K s (4s - L)/t^3,

    evaluated through x = L/(4s) in (0, 2], r = 4s/t = 1/(1 + x) and
    (4s - L)/t = (1 - x)/(1 + x), so no term overflows at any finite s.
    """
    k, l = config.K, config.L
    _check_s(s)
    if s < l / 8.0:
        raise OutOfValidityRangeError(f"minorant requires s >= L/8 = {l / 8.0}")
    x = 0.25 * l / s
    theta, r, m = k / l, 1.0 / (1.0 + x), (1.0 - x) / (1.0 + x)
    return m**2 + (theta * x * r**2) ** 2 - 2.0 * r / theta + r**2 + 2.0 * theta * x * r**2 * m


def psi_limit(config: ExampleConfig) -> float:
    """Value of psi at s -> infinity: 2 (1 - L/K)."""
    return 2.0 * (1.0 - config.L / config.K)


def distortion_bound(psi: float) -> float:
    """Smaller root of 4 d (1 - d) = psi, clamped into [0, 1/2].

    Negative psi carries no information (d = 0); psi beyond 1 plus rounding
    slack has no real root and raises PsiAboveOneError.
    """
    if not math.isfinite(psi):
        raise BadParamsError("psi must be finite")
    if psi > 1.0 + PSI_ROUNDING_SLACK:
        raise PsiAboveOneError(f"psi = {psi} exceeds 1, no real distortion root")
    if psi <= 0.0:
        return 0.0
    psi = min(psi, 1.0)
    # (1 - sqrt(1 - psi)) / 2 without the cancellation at small psi.
    return psi / (2.0 * (1.0 + math.sqrt(1.0 - psi)))


def binary_entropy_nats(d: float) -> float:
    if not 0.0 <= d <= 1.0:
        raise BadParamsError("argument must lie in [0, 1]")
    if d in (0.0, 1.0):
        return 0.0
    return -d * math.log(d) - (1.0 - d) * math.log(1.0 - d)


def binary_entropy_bits(d: float) -> float:
    return binary_entropy_nats(d) / math.log(2.0)


def classical_bound(config: ExampleConfig) -> float:
    """Distortion below which R(d) = log K - h(d) would exceed C = log L.

    Bisects h(d) = log(K/L) on [0, 1/2]; h is strictly increasing there and
    the ratio constraint puts the target inside the range.
    """
    target = math.log(config.theta)
    lo, hi = 0.0, 0.5
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if binary_entropy_nats(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimize_s(config: ExampleConfig, grid: GridSpec | None = None) -> BoundReport:
    """Sweep the bound over s, compare with the limit, and report.

    The maximizer over the finite grid (always including s = 0) is compared
    against the analytic limit; ties go to the smaller s, and the limit
    only wins strictly.
    """
    gs = grid if grid is not None else GridSpec()
    s_values = gs.values()
    if s_values[0] > 0.0:
        s_values = np.concatenate(([0.0], s_values))
    count = len(s_values)  # filled in place: no list of Python floats per grid point
    psi_values = np.fromiter((psi_exact(s, config) for s in s_values), float, count=count)
    d_values = np.fromiter((distortion_bound(p) for p in psi_values), float, count=count)

    d_at_zero = float(d_values[0])  # the grid always starts at s = 0
    d_at_limit = distortion_bound(psi_limit(config))
    d_classical = classical_bound(config)

    idx = int(np.argmax(d_values))
    best_s: float | str = float(s_values[idx])
    best_d = float(d_values[idx])
    if d_at_limit > best_d:
        best_s = "limit"
        best_d = d_at_limit

    return BoundReport(
        config=config,
        s_grid=s_values,
        psi_values=psi_values,
        d_values=d_values,
        d_at_zero=d_at_zero,
        d_at_limit=d_at_limit,
        d_classical=d_classical,
        best_s=best_s,
        best_d=best_d,
    )


def oracle_source_value(config: ExampleConfig, channel: EpsilonChannel, s: float) -> float:
    """Negated source functional: -I_Q of the simple extension of `source_joint`.

    With Q(z) = -sqrt(z): sum_{u,v} P(u) P(v) sqrt(s + P(u,v) / (P(u) P(v))) for
    uniform P(u) = 1/K and the channel's own output law P(v), which is 1/K for a
    constant crossover only; there it independently checks `rate_distortion_value`.
    """
    joint = source_joint(config.K, channel)
    _check_s(s)
    return -mixed_measure_information(_Q, joint, *reversed(simple_extension_coefficients(joint, s)))


def oracle_channel_value(p: Distribution, s: float) -> float:
    """Negated channel functional: -I_Q of the simple extension of diag(p).

    For input law p: sum_{x,y} p(x) p(y) sqrt(s + 1{x=y} / p(y)), dead letters
    dropped by the kernel's null-cell rule.  Independent check of `capacity_value`.
    """
    _check_s(s)
    _alphabet_size(p.n)
    joint = JointDistribution(np.diag(p.probs))
    return -mixed_measure_information(_Q, joint, *reversed(simple_extension_coefficients(joint, s)))


def source_joint(K: int, channel: EpsilonChannel) -> JointDistribution:
    """Joint law of (U, V) for the uniform source through the test channel."""
    if channel.K != K:
        raise DimensionMismatchError(f"channel has {channel.K} letters, expected {K}")
    return JointDistribution(channel.transition_matrix() / K)


def report_to_dict(report: BoundReport) -> dict:
    """Flatten a report into the serialization layout, field order fixed."""
    return {
        "K": report.config.K,
        "L": report.config.L,
        "theta": report.config.theta,
        "grid": [float(s) for s in report.s_grid],
        "psi": [float(p) for p in report.psi_values],
        "d": [float(d) for d in report.d_values],
        "d_at_zero": report.d_at_zero,
        "d_at_limit": report.d_at_limit,
        "d_classical": report.d_classical,
        "best_s": report.best_s if isinstance(report.best_s, str) else float(report.best_s),
        "best_d": report.best_d,
    }
