"""Reference answers computed without infodyn, and the checks against them.

Nothing here imports the package.  Stationary laws come from exact
rational arithmetic (birth-death chains) or from a bordered LAPACK solve
(dense kernels); trace series come from plain numpy loops; the bound curve
comes from a 60-digit `decimal` evaluation of the displayed closed form.
Every check returns a short failure reason, or None when the answer holds.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

#: Elementwise relative error allowed on a stationary law.
LAW_RTOL = 1e-9
#: Largest |pi P - pi| (or |pi G|) accepted for a stationary law.
RESIDUAL_ATOL = 1e-10
#: Agreement of a functional series with its reference.
SERIES_RTOL = 1e-8
SERIES_ATOL = 1e-10
#: Per-step slack of a monotone series, the same as `verdict`'s default.
STEP_TOL = 1e-9
#: Agreement of values that went through 12-significant-digit text.
TEXT_RTOL = 1e-9
TEXT_ATOL = 1e-12

#: Convex functions by the spec the command line accepts; vectorized.
Q_REF = {
    "neg_sqrt": lambda u: -np.sqrt(u),
    "neg_log": lambda u: -np.log(u),
    "u_log_u": lambda u: np.where(u == 0.0, 0.0, u * np.log(np.where(u == 0.0, 1.0, u))),
    "square": lambda u: u * u,
}

#: The paper's predicted direction for each trace kind (entropy only on
#: doubly stochastic chains, which is how the workloads use it).
DIRECTION = {
    "entropy": "non_decreasing",
    "kl_to_stationary": "non_increasing",
    "kl_from_stationary": "non_increasing",
    "kl_pair": "non_increasing",
    "u_functional": "non_increasing",
    "j_functional": "non_increasing",
    "v_functional": "non_increasing",
    "circuit_energy": "non_increasing",
    "bhattacharyya": "non_decreasing",
}


# ---------------------------------------------------------------- laws


def birth_death_law(up, down) -> np.ndarray:
    """Exact stationary law of a birth-death chain, rounded once to float.

    `up[i]` is the rate (or probability) of i -> i+1 and `down[i]` that of
    i+1 -> i.  Detailed balance gives pi(i+1)/pi(i) = up[i]/down[i]; the
    products run over the exact rationals of the float inputs.
    """
    weights = [Fraction(1)]
    for u, d in zip(up, down):
        weights.append(weights[-1] * Fraction(float(u)) / Fraction(float(d)))
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


def balance_operator(matrix: np.ndarray, continuous: bool) -> np.ndarray:
    """A with A @ pi = 0 for the stationary law: (P - I)^T or G^T."""
    if continuous:
        gen = matrix - np.diag(matrix.sum(axis=1))
        return gen.T.copy()
    return matrix.T - np.eye(matrix.shape[0])


def bordered_solve(matrix: np.ndarray, continuous: bool) -> np.ndarray:
    """Stationary law from the balance equations with one row replaced by
    the normalization; a single LU solve."""
    a = balance_operator(matrix, continuous)
    a[-1, :] = 1.0
    b = np.zeros(a.shape[0])
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def check_law(pi, matrix: np.ndarray, continuous: bool, reference: np.ndarray) -> str | None:
    pi = np.asarray(pi, dtype=float)
    if pi.shape != reference.shape:
        return f"law has shape {pi.shape}, expected {reference.shape}"
    if not np.all(np.isfinite(pi)) or np.any(pi <= 0.0):
        return "law is not finite and strictly positive"
    if abs(pi.sum() - 1.0) > 1e-12:
        return f"law sums to {pi.sum()!r}"
    if continuous:
        residual = float(np.abs(pi @ matrix - pi * matrix.sum(axis=1)).max())
    else:
        residual = float(np.abs(pi @ matrix - pi).max())
    if residual > RESIDUAL_ATOL:
        return f"balance residual {residual:.3e}"
    rel = float(np.max(np.abs(pi - reference) / reference))
    if rel > LAW_RTOL:
        return f"elementwise relative error {rel:.3e}"
    return None


def balance_flags(matrix: np.ndarray, continuous: bool, pi: np.ndarray, tol: float):
    """(doubly stochastic, global balance, detailed balance, max residual)."""
    flow = pi[:, None] * matrix
    if continuous:
        global_res = float(np.abs(flow.sum(axis=0) - flow.sum(axis=1)).max())
        doubly = False
    else:
        global_res = float(np.abs(flow.sum(axis=0) - pi).max())
        doubly = bool(np.abs(matrix.sum(axis=0) - 1.0).max() <= tol)
    detailed_res = float(np.abs(flow - flow.T).max())
    return doubly, global_res <= tol, detailed_res <= tol and global_res <= tol, max(global_res, detailed_res)


def check_balance_report(flags, matrix, continuous, pi_ref, tol) -> str | None:
    """`flags` is (doubly, global, detailed, max_residual) as the package reported them."""
    want = balance_flags(matrix, continuous, pi_ref, tol)
    if tuple(bool(f) for f in flags[:3]) != want[:3]:
        return f"balance flags {tuple(flags[:3])}, expected {want[:3]}"
    if not math.isclose(float(flags[3]), want[3], rel_tol=1e-4, abs_tol=1e-11):
        return f"max residual {flags[3]!r}, expected {want[3]!r}"
    return None


# ---------------------------------------------------------------- trajectories


def propagate(matrix: np.ndarray, p0: np.ndarray, steps: int) -> np.ndarray:
    """Rows p_0 .. p_steps of p_{t+1} = p_t P."""
    out = np.empty((steps + 1, p0.size))
    out[0] = p0
    for t in range(steps):
        out[t + 1] = out[t] @ matrix
    return out


def rk4(rates: np.ndarray, p0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Rows of the classical fixed-step RK4 solution of dp/dt = p G."""
    gen = rates - np.diag(rates.sum(axis=1))
    out = np.empty((steps + 1, p0.size))
    out[0] = p = p0
    for t in range(steps):
        k1 = p @ gen
        k2 = (p + 0.5 * dt * k1) @ gen
        k3 = (p + 0.5 * dt * k2) @ gen
        k4 = (p + dt * k3) @ gen
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[t + 1] = p
    return out


def entropy_rows(traj):
    return -np.sum(traj * np.log(traj), axis=1)


def kl_rows(a, b):
    return np.sum(a * np.log(a / b), axis=-1)


def ratio_rows(q: str, reference, companion):
    """sum ref * Q(comp / ref) along the last axis, positive inputs."""
    return np.sum(reference * Q_REF[q](companion / reference), axis=-1)


def reference_series(kind: str, matrix, p0, steps, pi=None, q=None, p0b=None, family=None):
    """The functional of `kind` at every step of a discrete trajectory."""
    if kind == "v_functional":
        mu = [propagate(matrix, row, steps) for row in family]
        # sum mu0 * Qpersp(mu1/mu0, mu2/mu0) = sum mu1 Q(mu2/mu1)
        return ratio_rows(q, mu[1], mu[2])
    traj = propagate(matrix, p0, steps)
    if kind == "entropy":
        return entropy_rows(traj)
    if kind == "kl_pair":
        return kl_rows(traj, propagate(matrix, p0b, steps))
    if kind == "j_functional":
        out = np.empty(steps + 1)
        power = np.eye(p0.size)
        for t in range(steps + 1):
            if t:
                power = power @ matrix
            joint = p0[:, None] * power
            prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
            pos = joint > 0.0
            # Q(u)/u -> 0 for the specs used here, so null cells add nothing
            out[t] = float(np.sum(joint[pos] * Q_REF[q](prod[pos] / joint[pos])))
        return out
    if kind == "kl_to_stationary":
        return kl_rows(traj, pi)
    if kind == "kl_from_stationary":
        return kl_rows(pi, traj)
    if kind == "u_functional":
        return ratio_rows(q, pi, traj)
    if kind == "circuit_energy":
        return 0.5 * np.sum(traj**2 / pi, axis=1)
    if kind == "bhattacharyya":
        return np.sum(np.sqrt(pi * traj), axis=1)
    raise ValueError(kind)


def check_series(times, values, reference, direction: str | None, verdict_holds=None) -> str | None:
    """Compare a series with its reference and with the predicted direction.

    `verdict_holds` is the package's own verdict on the series, when the
    operation asked for one; it must agree with the prediction.
    """
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if values.shape != reference.shape:
        return f"series has {values.size} points, expected {reference.size}"
    if not np.all(np.isfinite(values)):
        return "series has non-finite values"
    if times.shape != values.shape or np.any(np.diff(times) <= 0.0):
        return "times are not strictly increasing"
    bad = np.abs(values - reference) > SERIES_ATOL + SERIES_RTOL * np.abs(reference)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return f"value {values[i]!r} at step {i}, reference {reference[i]!r}"
    if direction is not None:
        sign = 1.0 if direction == "non_increasing" else -1.0
        worst = float(np.max(sign * np.diff(reference), initial=0.0))
        if worst > STEP_TOL:
            return f"reference series breaks {direction} by {worst:.3e}"
        worst = float(np.max(sign * np.diff(values), initial=0.0))
        if worst > STEP_TOL:
            return f"series breaks {direction} by {worst:.3e}"
    if verdict_holds is not None and not verdict_holds:
        return f"verdict rejects the predicted {direction} direction"
    return None


# ---------------------------------------------------------------- bounds


def bound_grid(start: float, stop: float, points: int, log_spaced: bool) -> np.ndarray:
    s = np.geomspace(start, stop, points) if log_spaced else np.linspace(start, stop, points)
    if points == 1:
        s = np.array([start])
    return np.concatenate(([0.0], s)) if s[0] > 0.0 else s


def _distortion(psi: Decimal) -> float:
    if psi <= 0:
        return 0.0
    return float(Decimal("0.5") - Decimal("0.5") * (1 - min(psi, Decimal(1))).sqrt())


def bound_curve(K: int, L: int, grid: np.ndarray):
    """psi(s) and d(s) at every grid point, plus the two endpoints.

    psi(s) = (1/K^2) [ (K/(sqrt(s)+sqrt(s+L)) + 2 sqrt(s))^2 - 2s - K ]^2
             - 4 s (s + K) / K^2, evaluated with 60 significant digits.
    """
    psis, ds = [], []
    with localcontext() as ctx:
        ctx.prec = 60
        k, l = Decimal(K), Decimal(L)
        for s_float in grid:
            s = Decimal(float(s_float))
            root = s.sqrt()
            inner = (k / (root + (s + l).sqrt()) + 2 * root) ** 2 - 2 * s - k
            psi = inner**2 / k**2 - 4 * s * (s + k) / k**2
            psis.append(float(psi))
            ds.append(_distortion(psi))
        d_zero = _distortion((k / l - 1) ** 2)
        d_limit = _distortion(2 * (1 - l / k))
    return np.array(psis), np.array(ds), d_zero, d_limit


def classical_distortion(K: int, L: int) -> float:
    """Root of the binary entropy h(d) = log(K/L) on [0, 1/2]."""
    target = math.log(K / L)
    lo, hi = 1e-300, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = -mid * math.log(mid) - (1 - mid) * math.log1p(-mid)
        lo, hi = (mid, hi) if h < target else (lo, mid)
    return 0.5 * (lo + hi)


def close(a, b, rtol=TEXT_RTOL, atol=TEXT_ATOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def check_bounds(report: dict, K: int, L: int, grid: np.ndarray) -> str | None:
    """Check a bounds report laid out as the JSON output (keys grid/psi/d/...)."""
    psi, d, d_zero, d_limit = bound_curve(K, L, grid)
    if not close(report["grid"], grid):
        return "grid differs from the requested sweep"
    if not close(report["psi"][0], (K / L - 1.0) ** 2):
        return f"psi(0) = {report['psi'][0]!r}, expected (K/L-1)^2 = {(K / L - 1.0) ** 2!r}"
    if not close(report["psi"], psi):
        return "psi curve differs from the closed form"
    if not close(report["d"], d):
        return "distortion curve differs from the closed form"
    for key, want in (("d_at_zero", d_zero), ("d_at_limit", d_limit)):
        if key in report and not close(report[key], want):
            return f"{key} = {report[key]!r}, expected {want!r}"
    if "d_classical" in report and not close(report["d_classical"], classical_distortion(K, L), rtol=1e-9):
        return "classical bound differs from the entropy root"
    if "best_d" in report:
        best = max(float(np.max(d)), d_limit)
        if not close(report["best_d"], best):
            return f"best_d = {report['best_d']!r}, expected {best!r}"
    return None


# ---------------------------------------------------------------- command line


def check_exit(code: int, stderr: str, expected: int) -> str | None:
    """An invalid input must exit with its documented status and say why."""
    if code != expected:
        return f"exit status {code}, expected {expected}"
    if "error:" not in stderr:
        return "no 'error:' line on stderr"
    return None
