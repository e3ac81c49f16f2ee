"""Hot numeric kernels, vectorized with numpy, and the oracles' local search.

``volume_cubic`` is the only copy of the volume cubic in the package: the
batch kernels below, the simplex grid scan, the simplex objective and
``zonotope.volume_polynomial`` all evaluate it.  ``greedy_descent`` is
the one local search: the simplex and decomposable brute-force oracles
both refine their best grid point with it, evaluating the candidate
moves of a sweep in one call.  ``_chord_lengths`` is the one ball clip.
``cross3`` and ``det3`` are the one cross product and the one triple
product of 3-vectors: component formulas over the last axis, with none
of the per-call overhead of ``np.cross`` or a batched LU ``np.linalg.det``.
"""

from __future__ import annotations

import numpy as np


def cross3(a, b):
    """Cross product over the last axis of two broadcastable (..., 3) arrays."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    x = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _dot3(a, b):
    """Dot product over the last axis of (..., 3) arrays, by component."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def det3(a, b, c):
    """Triple product a . (b x c), the determinant with rows a, b, c, over the last axis."""
    return _dot3(np.asarray(a, dtype=np.float64), cross3(b, c))


def volume_cubic(t12, t13, t14, t23, t24, t34):
    """Volume of the parametrized body from its six coefficients.

    Elementwise: the arguments are scalars or arrays that broadcast
    together, in frame-pair order (12, 13, 14, 23, 24, 34).
    """
    return (
        t12 * t13 * t23
        + t12 * t14 * t24
        + t13 * t14 * t34
        + t23 * t24 * t34
        + (t12 + t34) * (t13 * t24 + t14 * t23)
        + (t13 + t24) * (t12 * t34 + t14 * t23)
        + (t14 + t23) * (t12 * t34 + t13 * t24)
    )


def volume_poly_many(tau: np.ndarray) -> np.ndarray:
    """The volume cubic on each row of an (N, 6) coefficient array."""
    tau = np.asarray(tau, dtype=np.float64)
    return volume_cubic(*(tau[..., k] for k in range(6)))


def simplex_grid_scan(lam: float, grid_n: int, budget: float):
    """Maximum of the lambda-scaled cubic (tau34 = 0) over a composition grid.

    Scans every integer composition (a, b, c, d, e) of ``grid_n`` into
    five parts, with coordinates ``(lam a, b, c, d, e) * budget / grid_n``,
    and returns the best value and its composition.  The triples
    (b, c, d) with b + c + d <= grid_n are tabulated once, sorted by their
    sum s; for each a, the compositions of grid_n - a are a prefix of the
    table, with e = grid_n - a - s.
    """
    n = grid_n
    bcd = np.indices((n + 1,) * 3).reshape(3, -1)
    bcd = bcd[:, bcd.sum(axis=0) <= n]
    bcd = bcd[:, np.argsort(bcd.sum(axis=0), kind="stable")]
    b, c, d = bcd
    s = b + c + d
    t13, t14, t23 = bcd * budget / n
    ends = np.searchsorted(s, np.arange(n + 1), side="right")
    best = -1.0
    best_idx = (0, 0, 0, 0, 0)
    for a in range(n + 1):
        m = ends[n - a]
        e = n - a - s[:m]
        vals = volume_cubic(lam * a * budget / n, t13[:m], t14[:m], t23[:m], e * budget / n, 0.0)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_idx = (a, int(b[k]), int(c[k]), int(d[k]), int(e[k]))
    return best, np.array(best_idx, dtype=np.int64)


def greedy_descent(f_many, moves, x, step: float, rounds: int):
    """Minimise from ``x`` by greedy moves, a sweep at a time; returns ``(best, x)``.

    ``moves(x, step)`` returns every candidate point as a row, with a mask
    of the allowed ones, and ``f_many`` evaluates a column stack of points.
    A sweep takes the moves in row order, each from the current point, and
    keeps every strict improvement: one call evaluates all remaining
    allowed moves, the first improving one is taken, and only the moves
    after it are evaluated again, from the new point.  These are the
    points a one-at-a-time sweep visits, in the same order.  A sweep that
    improves nothing halves ``step``; that happens ``rounds`` times.
    """
    x = np.asarray(x, dtype=np.float64)
    best = f_many(x[:, None])[0]
    for _ in range(rounds):
        improved = True
        while improved:
            improved, start = False, 0
            while True:
                cand, allowed = moves(x, step)
                rows = allowed[start:].nonzero()[0] + start
                if not rows.size:
                    break
                vals = f_many(cand[rows].T)
                hits = (vals < best).nonzero()[0]
                if not hits.size:
                    break
                i = hits[0]
                best, x, improved, start = vals[i], cand[rows[i]], True, rows[i] + 1
        step *= 0.5
    return float(best), x


#: Unordered index pairs of a 4-element frame, in canonical order.
#: The complementary pair of ``PAIRS[k]`` is ``PAIRS[5 - k]``.
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def pair_scalars_many(p: np.ndarray):
    """Per-pair gamma and zeta, and the volume, of (N, 4, 3) centered tetrahedra."""
    p = np.asarray(p, dtype=np.float64)
    gamma, zeta = np.empty((2, p.shape[0], 6))
    for k, (i, j) in enumerate(PAIRS):
        s, t = PAIRS[5 - k]
        gamma[:, k] = -_dot3(p[:, s], p[:, t])
        cr = cross3(p[:, i], p[:, j])
        zeta[:, k] = gamma[:, k] * _dot3(cr, cr)
    vol = np.abs(det3(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0])) / 6.0
    return gamma, zeta, vol


def type4_functional_many(v: np.ndarray, beta: np.ndarray, a6: float, a4: float):
    """Weighted edge functional at unit volume of type-4 bodies.

    ``v`` holds (N, 4, 3) frames and ``beta`` the (N, 5) coefficients in
    pair order (12, 13, 14, 23, 24); the 34 coefficient is zero.
    """
    v = np.asarray(v, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    cross_norm = np.empty((v.shape[0], 5))
    for k, (i, j) in enumerate(PAIRS[:5]):
        cr = cross3(v[:, i], v[:, j])
        cross_norm[:, k] = np.sqrt(_dot3(cr, cr))
    w_raw = a4 * beta[:, 0] * cross_norm[:, 0] + a6 * (beta[:, 1:] * cross_norm[:, 1:]).sum(axis=1)
    vol = volume_cubic(*(beta[:, k] for k in range(5)), 0.0)
    return w_raw / np.cbrt(vol)


def _chord_lengths(a, b, c):
    """Elementwise length inside the ball of a segment p(s), 0 <= s <= 1, with
    |p(s)|^2 - radius^2 = a s^2 + b s + c; zero where it misses or touches the ball."""
    disc = b * b - 4.0 * a * c
    ok = (disc > 0.0) & (a > 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.clip((-b - sq) / (2.0 * a), 0.0, 1.0)
        t2 = np.clip((-b + sq) / (2.0 * a), 0.0, 1.0)
    return np.where(ok, (t2 - t1) * np.sqrt(a), 0.0)


def segment_ball_clip(p0: np.ndarray, p1: np.ndarray, radius: float) -> np.ndarray:
    """Length of each segment p0[i]-p1[i] inside the ball of ``radius`` at 0."""
    p0 = np.asarray(p0, dtype=np.float64)
    d = np.asarray(p1, dtype=np.float64) - p0
    a = (d * d).sum(axis=-1)
    b = 2.0 * (p0 * d).sum(axis=-1)
    return _chord_lengths(a, b, (p0 * p0).sum(axis=-1) - radius * radius)
