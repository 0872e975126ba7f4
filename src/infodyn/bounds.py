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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGridError,
    BadParamsError,
    DimensionMismatchError,
    OutOfValidityRangeError,
    PsiAboveOneError,
)
from .markov import Distribution, _finite_nonnegative, _freeze
from .measures import JointDistribution

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

DEFAULT_GRID_START = 1e-3
DEFAULT_GRID_STOP = 1e6
DEFAULT_GRID_POINTS = 64


@dataclass(frozen=True)
class ExampleConfig:
    """Alphabet sizes of the worked model; requires 1 < K/L <= 2."""

    K: int
    L: int

    def __post_init__(self) -> None:
        if int(self.K) != self.K or int(self.L) != self.L:
            raise BadParamsError("alphabet sizes must be integers")
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "L", int(self.L))
        if self.L < 2:
            raise BadParamsError("channel alphabet needs L >= 2")
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
        if not _finite_nonnegative(e) or np.any(e > 1.0):
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

    start: float = DEFAULT_GRID_START
    stop: float = DEFAULT_GRID_STOP
    points: int = DEFAULT_GRID_POINTS
    log_spaced: bool = True

    def __post_init__(self) -> None:
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

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        if self.log_spaced:
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


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


def _check_sk(s: float, k: int, l: int | None = None) -> None:
    if s < 0.0 or not math.isfinite(s):
        raise BadParamsError("extension weight s must be finite and nonnegative")
    if k < 2:
        raise BadParamsError("alphabet size must be at least 2")
    if l is not None and l < 2:
        raise BadParamsError("channel alphabet must be at least 2")


def rate_distortion_value(d: float, s: float, K: int) -> float:
    """Best achievable functional value on the source side at distortion d.

    The maximizing test channel puts the same crossover d on every letter;
    concavity of the square root does the rest.
    """
    _check_sk(s, K)
    if not 0.0 <= d <= 1.0:
        raise BadParamsError("distortion must lie in [0, 1]")
    root_pair = math.sqrt(s + K * d) + math.sqrt(s + K * (1.0 - d))
    return -root_pair / K - (1.0 - 2.0 / K) * math.sqrt(s)


def capacity_value(s: float, L: int) -> float:
    """Largest functional value across inputs of the noise-free L-ary channel.

    The uniform input is the minimizer of the negated value because
    t -> t / (sqrt(s + 1/t) + sqrt(s)) is convex on t > 0.
    """
    _check_sk(s, L)
    return -math.sqrt(s) - 1.0 / (math.sqrt(s) + math.sqrt(s + L))


def psi_exact(s: float, config: ExampleConfig) -> float:
    """The bound curve psi(s) with 4 d (1 - d) >= psi(s) at admissible d.

    Algebraically equal to

        (1/K^2) [ (K/(sqrt(s)+sqrt(s+L)) + 2 sqrt(s))^2 - 2s - K ]^2
        - 4 s (s + K) / K^2,

    but evaluated through D = (sqrt(s) + sqrt(s+L))^2 expanded as
    2s + L + 2 sqrt(s (s+L)), which removes the catastrophic cancellation
    that the displayed form suffers for large s.
    """
    k, l = config.K, config.L
    _check_sk(s, k, l)
    if s == 0.0:
        denom = float(l)
    else:
        denom = 2.0 * s + l + 2.0 * s * math.sqrt(1.0 + l / s)
    shift = (k - 2 * l) / denom
    return (k - 2 * l) / k * (4.0 * s / denom) + (1.0 + shift) ** 2


def psi_lower(s: float, config: ExampleConfig) -> float:
    """Closed-form minorant of psi(s), valid for s >= L/8.

    Comes from replacing sqrt(s + L) by its tangent bound; the result is a
    rational function of s that shares the s -> infinity limit with psi.
    """
    k, l = config.K, config.L
    _check_sk(s, k, l)
    if s < l / 8.0:
        raise OutOfValidityRangeError(f"minorant requires s >= L/8 = {l / 8.0}")
    t = 4.0 * s + l
    return (
        ((4.0 * s - l) / t) ** 2
        + 16.0 * k**2 * s**2 / t**4
        - 8.0 * l * s / (k * t)
        + 16.0 * s**2 / t**2
        + 8.0 * k * s * (4.0 * s - l) / t**3
    )


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
    psi_values = np.array([psi_exact(s, config) for s in s_values])
    d_values = np.array([distortion_bound(p) for p in psi_values])

    d_at_zero = distortion_bound(psi_exact(0.0, config))
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
    """Literal double sum of the negated source functional.

    Evaluates sum_{u,v} P(u) P(v) sqrt(s + P(v|u) / P(v)) with uniform
    P(u) = P(v) = 1/K over the given test channel, term by term.  Serves as
    the independent check of `rate_distortion_value`.
    """
    if channel.K != config.K:
        raise DimensionMismatchError(f"channel has {channel.K} letters, config {config.K}")
    _check_sk(s, config.K)
    k = config.K
    t = channel.transition_matrix()
    total = 0.0
    for u in range(k):
        for v in range(k):
            total += math.sqrt(s + k * t[u, v]) / (k * k)
    return total


def oracle_channel_value(p: Distribution, s: float) -> float:
    """Literal double sum of the negated channel functional.

    Noise-free channel, arbitrary input law p: evaluates
    sum_{x,y} p(x) p(y) sqrt(s + 1{x=y} / p(y)) term by term, skipping
    zero-mass letters.  Independent check of `capacity_value`.
    """
    if s < 0.0:
        raise BadParamsError("extension weight s must be nonnegative")
    probs = p.probs
    total = 0.0
    for x in range(p.n):
        if probs[x] == 0.0:
            continue
        for y in range(p.n):
            if probs[y] == 0.0:
                continue
            bump = 1.0 / probs[y] if x == y else 0.0
            total += probs[x] * probs[y] * math.sqrt(s + bump)
    return total


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
