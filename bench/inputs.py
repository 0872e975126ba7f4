"""Seeded generators for the benchmark's inputs (numpy only).

Every operation's inputs come from `rng(seed, index)`, so the same seed
gives the same inputs.  Discrete kernels are dyadic: each row holds
integers over 2**20, so rows sum to exactly 1 in binary and a long
trajectory does not drift in mass.  The one family built to drift on
purpose is `decimal_text_kernel`, a kernel as it arrives from 13-digit
decimal text.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

DYADIC = 2**20


def rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def dyadic_rows(weights: np.ndarray) -> np.ndarray:
    """Rows proportional to positive `weights`, exactly stochastic in binary."""
    counts = np.floor(weights / weights.sum(axis=1, keepdims=True) * DYADIC)
    rows = np.arange(weights.shape[0])
    counts[rows, np.argmax(counts, axis=1)] += DYADIC - counts.sum(axis=1)
    return counts / DYADIC


def dense_kernel(g: np.random.Generator, n: int) -> np.ndarray:
    """Irreducible, aperiodic, non-reversible kernel with skewed rows."""
    w = g.random((n, n))
    return dyadic_rows(w * w * w + 0.02)


def doubly_stochastic(g: np.random.Generator, n: int, terms: int = 4) -> np.ndarray:
    """Dyadic mixture of the identity and random permutations."""
    weights = dyadic_rows(g.random((1, terms)) + 0.1)[0]
    t = weights[0] * np.eye(n)
    for w in weights[1:]:
        t[np.arange(n), g.permutation(n)] += w
    return t


def decimal_text_kernel(g: np.random.Generator, n: int) -> np.ndarray:
    """A normalized kernel printed with 13 significant digits and parsed back."""
    t = g.random((n, n))
    t = t * t * t + 0.02
    t /= t.sum(axis=1, keepdims=True)
    return np.array([[float(f"{x:.12e}") for x in row] for row in t])


def birth_death(g: np.random.Generator, n: int, load: float, continuous: bool):
    """Birth-death chain with up/down ratio near `load`.

    Returns (matrix, up, down) with up[i] the i -> i+1 entry and down[i]
    the i+1 -> i entry.  The discrete chain is lazy (holding >= 1/2) with
    dyadic entries; the continuous one has a random service rate.
    """
    ratio = load * (1.0 + 0.02 * (g.random() - 0.5))
    i = np.arange(n - 1)
    m = np.zeros((n, n))
    if continuous:
        mu = 0.5 + 1.5 * g.random()
        m[i, i + 1] = ratio * mu
        m[i + 1, i] = mu
    else:
        down = int(DYADIC // 8 * (1.0 + g.random()))
        m[i, i + 1] = round(ratio * down) / DYADIC
        m[i + 1, i] = down / DYADIC
        m[np.arange(n), np.arange(n)] = 1.0 - m.sum(axis=1)
    return m, m[i, i + 1].copy(), m[i + 1, i].copy()


def rates(g: np.random.Generator, n: int, symmetric: bool) -> np.ndarray:
    w = g.random((n, n)) ** 2 + 0.05
    if symmetric:
        w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


def law(g: np.random.Generator, n: int) -> np.ndarray:
    p = g.dirichlet(np.full(n, 2.0))
    return p / p.sum()


def measures(g: np.random.Generator, rows: int, n: int) -> np.ndarray:
    return 0.1 + g.random((rows, n))


def digest(obj) -> str:
    """Stable hash of nested inputs: arrays, lists, dicts and scalars."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"a{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            h.update(b"d")
            for k in sorted(x):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(f"l{len(x)}".encode())
            for v in x:
                feed(v)
        else:
            h.update(json.dumps(x).encode() if not isinstance(x, bytes) else x)

    feed(obj)
    return h.hexdigest()
