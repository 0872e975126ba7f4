"""Convex functions, their perspectives, and an empirical convexity check.

Every information functional in this package is parameterized by a convex
function Q on the positive orthant.  The perspective transform

    Q~(v, u_1, ..., u_k) = v * Q(u_1 / v, ..., u_k / v)

preserves convexity and raises the arity by one; it is the device that
turns a ratio functional with an arbitrary positive reference into one
weighted by a probability law.

Evaluators are defined on the strictly positive orthant.  Builtins with a
finite Q(0) take zero too (``u_log_u`` by continuity, 0 log 0 = 0); only
``neg_log`` rejects it.  ``recession_slope`` records lim Q(u)/u for u -> infinity
when that limit is finite (None means it diverges); downstream code uses it to
assign the continuity value to terms whose reference weight vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ArityMismatchError, BadParamsError, ParseError, SupportMismatchError
from .markov import _integral

__all__ = [
    "ConvexFunction",
    "PerspectiveFunction",
    "ConvexityResult",
    "builtin",
    "perspective",
    "verify_convexity",
    "parse_q_spec",
]

CONVEXITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConvexFunction:
    """A convex function of `arity` positive arguments.

    The evaluator is called once on a whole array whose leading axis holds
    the `arity` arguments (at arity 1, the values themselves) and returns
    the trailing shape, one value per cell.  An evaluator that handles one
    point only still works: when that call raises TypeError/ValueError or
    returns another shape, the call falls back to one evaluation per cell.
    """

    name: str
    arity: int
    evaluator: Callable[..., float]
    accepts_zero: bool = False
    recession_slope: float | None = None
    params: dict = field(default_factory=dict)

    def _check_domain(self, values: np.ndarray) -> None:
        if self.accepts_zero:
            if np.any(values < 0.0):
                raise SupportMismatchError(f"{self.name} needs nonnegative arguments")
        elif np.any(values <= 0.0):
            raise SupportMismatchError(f"{self.name} needs strictly positive arguments")

    def _evaluate(self, u: np.ndarray) -> np.ndarray:
        """Q at every cell of the float array `u` of shape (arity, *cells)."""
        if u.shape[:1] != (self.arity,):
            raise ArityMismatchError(f"{self.name} takes {self.arity} leading-axis arguments")
        self._check_domain(u)
        cells = u[0] if self.arity == 1 else u
        try:
            out = np.asarray(self.evaluator(cells), dtype=float)
            if out.shape == u.shape[1:]:
                return out
        except (TypeError, ValueError):
            pass
        points = u.reshape(-1) if self.arity == 1 else u.reshape(self.arity, -1).T
        return np.array([float(self.evaluator(x)) for x in points]).reshape(u.shape[1:])

    def __call__(self, *args):
        if self.arity == 1:
            if len(args) != 1:
                raise BadParamsError(f"{self.name} takes one argument")
            u = np.asarray(args[0], dtype=float)
            out = self._evaluate(u[None])
            return float(out) if u.ndim == 0 else out
        vec = np.asarray(args[0] if len(args) == 1 else args, dtype=float)
        if vec.shape != (self.arity,):
            raise BadParamsError(f"{self.name} takes {self.arity} arguments")
        return float(self._evaluate(vec))

    def batch(self, values: np.ndarray) -> np.ndarray:
        """Evaluate an arity-1 function over an array, elementwise."""
        if self.arity != 1:
            raise BadParamsError("batch evaluation is for arity-1 functions")
        return self._evaluate(np.asarray(values, dtype=float)[None])


@dataclass(frozen=True, eq=False)
class PerspectiveFunction(ConvexFunction):
    """Perspective of a base function; first argument is the scale v > 0.

    Its evaluator is the whole-array closure v * Q(u / v); the base checks
    the domain of the ratios.
    """

    def _check_domain(self, values: np.ndarray) -> None:
        if np.any(values[0] <= 0.0):
            raise SupportMismatchError("perspective scale must be strictly positive")

    # Its own entry point, so per-class instrumentation can wrap it apart.
    __call__ = ConvexFunction.__call__


def perspective(q: ConvexFunction) -> PerspectiveFunction:
    """Lift Q to its perspective Q~(v, u) = v Q(u / v)."""
    return PerspectiveFunction(
        name=f"{q.name}_perspective",
        arity=q.arity + 1,
        evaluator=lambda u: u[0] * q._evaluate(u[1:] / u[0]),
    )


def _u_log_u(u):
    u = np.asarray(u, dtype=float)
    safe = np.where(u == 0.0, 1.0, u)
    return np.where(u == 0.0, 0.0, u * np.log(safe))


def _piecewise_evaluator(xs: np.ndarray, ys: np.ndarray, slopes: np.ndarray):
    def ev(u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(xs, u, side="right") - 1, 0, xs.size - 2)
        return ys[idx] + slopes[idx] * (u - xs[idx])

    return ev


def builtin(name: str, **params) -> ConvexFunction:
    """Instantiate a builtin convex function by name.

    Parameterized members: ``neg_pow`` needs s in [0, 1]; ``piecewise_linear``
    needs ``breakpoints``, a sequence of (x, y) knots with strictly
    increasing x and non-decreasing segment slopes.
    """
    if name == "u_log_u":
        return ConvexFunction("u_log_u", 1, _u_log_u, accepts_zero=True)
    if name == "neg_log":
        return ConvexFunction("neg_log", 1, lambda u: -np.log(u), recession_slope=0.0)
    if name in ("neg_pow", "neg_sqrt"):
        s = 0.5 if name == "neg_sqrt" else params.get("s")
        if s is None:
            raise BadParamsError("neg_pow needs an exponent s")
        s = float(s)
        if not 0.0 <= s <= 1.0:
            raise BadParamsError(f"neg_pow exponent must lie in [0, 1], got {s}")
        return ConvexFunction(
            name,
            1,
            lambda u, s=s: -(u**s),
            accepts_zero=True,
            recession_slope=-1.0 if s == 1.0 else 0.0,
            params={"s": s},
        )
    if name == "square":
        return ConvexFunction("square", 1, lambda u: u * u, accepts_zero=True)
    if name == "half_square":
        return ConvexFunction("half_square", 1, lambda u: 0.5 * u * u, accepts_zero=True)
    if name == "piecewise_linear":
        points = params.get("breakpoints")
        if points is None or len(points) < 2:
            raise BadParamsError("piecewise_linear needs at least two breakpoints")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise BadParamsError("breakpoints must be (x, y) pairs")
        if not np.isfinite(pts).all():
            raise BadParamsError("breakpoints must be finite")
        xs, ys = pts[:, 0], pts[:, 1]
        if np.any(np.diff(xs) <= 0.0):
            raise BadParamsError("breakpoint x values must be strictly increasing")
        slopes = np.diff(ys) / np.diff(xs)
        if np.any(np.diff(slopes) < -1e-12):
            raise BadParamsError("breakpoint slopes must be non-decreasing")
        return ConvexFunction(
            "piecewise_linear",
            1,
            _piecewise_evaluator(xs, ys, slopes),
            accepts_zero=True,
            recession_slope=float(slopes[-1]),
            params={"breakpoints": [(float(x), float(y)) for x, y in pts]},
        )
    raise BadParamsError(f"unknown builtin {name!r}")


@dataclass(frozen=True)
class ConvexityResult:
    """Outcome of the randomized midpoint test.

    On failure, `witness` holds (a, b, lam, chord_value, function_value)
    with function_value > chord_value beyond tolerance.
    """

    passed: bool
    trials: int
    witness: tuple | None = None


def verify_convexity(
    q: ConvexFunction,
    sample_box: Sequence,
    trials: int = 400,
    seed: int = 42,
) -> ConvexityResult:
    """Randomized check of Jensen's inequality on a coordinate box.

    Draws point pairs uniformly from the box and tests
    Q(lam a + (1-lam) b) <= lam Q(a) + (1-lam) Q(b) + 1e-9 with a random
    mixing weight.  Purely empirical: passing is evidence, not proof.
    """
    box = np.asarray(sample_box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    if box.shape != (q.arity, 2) or not (np.isfinite(box).all() and np.all(box[:, 0] < box[:, 1])):
        raise BadParamsError("sample box needs one (lo, hi) pair per argument, lo < hi")
    if trials < 1:
        raise BadParamsError("trials must be positive")
    if not _integral(trials):
        raise BadParamsError("trials must be an integer")
    trials = int(trials)

    rng = np.random.default_rng(seed)
    lo, hi = box[:, 0], box[:, 1]
    for _ in range(trials):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        lam = rng.uniform()
        mid = lam * a + (1.0 - lam) * b
        chord = float(lam * q._evaluate(a) + (1.0 - lam) * q._evaluate(b))
        value = float(q._evaluate(mid))
        if value > chord + CONVEXITY_TOL:
            return ConvexityResult(False, trials, (a, b, lam, chord, value))
    return ConvexityResult(True, trials)


def parse_q_spec(text: str) -> ConvexFunction:
    """Parse the command-line form of a convex function.

    Accepts the plain builtin names, ``neg_pow:<s>``, and
    ``piecewise:x0,y0;x1,y1;...``.
    """
    text = text.strip()
    if text in ("u_log_u", "neg_log", "neg_sqrt", "square", "half_square"):
        return builtin(text)
    if text.startswith("neg_pow:"):
        try:
            s = float(text.removeprefix("neg_pow:"))
        except ValueError as exc:
            raise ParseError(f"bad exponent in {text!r}") from exc
        return builtin("neg_pow", s=s)
    if text.startswith("piecewise:"):
        body = text.removeprefix("piecewise:")
        points = []
        for token in body.split(";"):
            parts = token.split(",")
            if len(parts) != 2:
                raise ParseError(f"bad breakpoint {token!r} in {text!r}")
            try:
                points.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ParseError(f"bad breakpoint {token!r} in {text!r}") from exc
        return builtin("piecewise_linear", breakpoints=points)
    raise ParseError(f"unrecognized convex function spec {text!r}")
