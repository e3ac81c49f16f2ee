"""Hot numeric kernels, vectorized with numpy, and the oracles' local search.

``volume_cubic`` is the only copy of the volume cubic in the package: the
batch kernels below, the simplex grid scan, the simplex objective and
``zonotope.volume_polynomial`` all evaluate it, the scan, the objective and
the type-4 functional on its tau34 = 0 face.  ``greedy_descent`` is the
one local search: both brute-force oracles refine their best grid point
with it, and pass their moves as a direction table and their domain as a
box.  ``_chord_lengths`` is the one chord formula; ``skeleton_density``
runs it only on shell edges that may cross the sphere.
``_cross_rows`` is the one cross product of 3-vectors, on three component
rows each.  ``cross3`` and ``det3`` apply it over the last axis, without
the per-call overhead of ``np.cross`` or a batched LU ``np.linalg.det``;
the two batch kernels apply it to the (4, 3, N) component rows of their
(N, 4, 3) frames, so every coordinate they read is one contiguous row.
"""

from __future__ import annotations

import numpy as np


def _cross_rows(a, b):
    """Cross product of two 3-vectors given as sequences of three component rows."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _dot_rows(a, b):
    """Dot product of two 3-vectors given as sequences of three component rows."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _last_axis_rows(a):
    """The three components over the last axis of a (..., 3) array, as views."""
    a = np.asarray(a, dtype=np.float64)
    return a[..., 0], a[..., 1], a[..., 2]


def cross3(a, b):
    """Cross product over the last axis of two broadcastable (..., 3) arrays."""
    x, y, z = _cross_rows(_last_axis_rows(a), _last_axis_rows(b))
    out = np.empty(x.shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = x, y, z
    return out


def det3(a, b, c):
    """Triple product a . (b x c), the determinant with rows a, b, c, over the last axis."""
    return _dot_rows(_last_axis_rows(a), _cross_rows(_last_axis_rows(b), _last_axis_rows(c)))


def volume_cubic(t12, t13, t14, t23, t24, t34=None):
    """Volume of the parametrized body from its six coefficients.

    Elementwise: the arguments are scalars or arrays that broadcast
    together, in frame-pair order (12, 13, 14, 23, 24, 34).  With ``t34``
    omitted it is the tau34 = 0 face: the same left-to-right sums less the
    products that tau34 zeroes, 16 array operations instead of 29, and the
    same bits as ``t34 = 0.0`` on finite nonnegative arguments.  On signed
    ones a dropped product can be -0.0 and flip the sign of a zero result,
    so callers with signed coefficients pass tau34.
    """
    if t34 is None:
        x, y = t13 * t24, t14 * t23
        return t12 * t13 * t23 + t12 * t14 * t24 + t12 * (x + y) + (t13 + t24) * y + (t14 + t23) * x
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


def _ramps(counts):
    """0, 1, ..., k - 1 for each k in ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _triples_by_sum(n: int):
    """Every (b, c, d) >= 0 with s = b + c + d <= n, and s, sorted by s and then
    lexicographically; built from the counts per (s, b), with no larger array."""
    s = np.repeat(np.arange(n + 1), np.arange(1, n + 2))  # one entry per (s, b), b = 0..s
    b = _ramps(np.arange(1, n + 2))
    width = s - b + 1  # c = 0..s - b
    s, b, c = np.repeat(s, width), np.repeat(b, width), _ramps(width)
    return b, c, s - b - c, s


_SCAN_ROWS = 4096  # rows per step of the simplex scan: (2, rows) temporaries stay below glibc's mmap threshold


def simplex_grid_scan(lam: float, grid_n: int, budget: float):
    """Maximum of the lambda-scaled cubic (tau34 = 0) over a composition grid.

    Over every integer composition (a, b, c, d, e) of ``grid_n`` into five
    parts, with coordinates ``(lam a, b, c, d, e) * budget / grid_n`` and
    lam, budget > 0, returns the best value and its composition.  The
    triples (b, c, d) with s = b + c + d <= grid_n are tabulated once,
    sorted by s.  With e = grid_n - s - a, the cubic of a triple is a
    quadratic in a with leading coefficient -lam (b + c) (budget / grid_n)^3:
    concave, so its integer maximum on [0, grid_n - s] lies at the floor or
    the ceiling of its clipped vertex, and only those two are evaluated.
    Ties go to the smallest a, then the first table row, as in a scan of
    every a that keeps only strict improvements.
    """
    n = grid_n
    b, c, d, s = _triples_by_sum(n)
    best, best_key = -1.0, (n + 1, 0)
    for lo in range(0, len(s), _SCAN_ROWS):
        rows = slice(lo, lo + _SCAN_ROWS)
        b_, c_, d_, m = b[rows], c[rows], d[rows], n - s[rows]
        bc = b_ + c_  # the vertex (d + m) / 2 - (bc + bd + cd) / (2 lam (b + c)), 0 where b = c = 0
        v = np.clip((lam * bc * (d_ + m) - (b_ * c_ + bc * d_)) / (2.0 * lam * np.maximum(bc, 1)), 0, m)
        a = np.stack((np.floor(v), np.ceil(v))).astype(np.int64)
        vals = volume_cubic(lam * a * budget / n, b_ * budget / n, c_ * budget / n, d_ * budget / n,
                            (m - a) * budget / n)
        top = vals.max()
        first_a = np.where(vals == top, a, n + 1).min(axis=0)
        key = (int(first_a.min()), lo + int(np.argmin(first_a)))
        if top > best or (top == best and key < best_key):
            best, best_key = float(top), key
    a, k = best_key
    return best, np.array((a, b[k], c[k], d[k], n - a - s[k]), dtype=np.int64)


#: Halving step sizes of the greedy descent that refines each grid oracle's best point.
REFINE_ROUNDS = 60

_STEPS_PER_CALL = 8  # step sizes whose candidates one f_many call evaluates


def greedy_descent(f_many, dirs, lo, hi, x, step: float):
    """Minimise from ``x`` by best-improvement moves at halving steps; returns ``(best, x)``.

    The moves are ``x + s * dirs[i]`` for the ``REFINE_ROUNDS`` step sizes
    s = step, step / 2, ... and each row of the (M, d) table ``dirs``; only
    those inside the box ``lo <= y <= hi`` are evaluated, by ``f_many`` on a
    column stack.  Each call evaluates the ``_STEPS_PER_CALL`` largest steps
    left and goes to the best strict improvement at the largest step that
    has one (the first row on ties), dropping the larger steps; a call that
    finds none drops its steps.  Ties never move, and no move is evaluated
    twice from one point.
    """
    x = np.asarray(x, dtype=np.float64)
    best, steps = f_many(x[:, None])[0], step * 0.5 ** np.arange(REFINE_ROUNDS)
    while steps.size:
        cand = x + steps[:_STEPS_PER_CALL, None, None] * dirs  # (R, M, d)
        allowed = ((cand >= lo) & (cand <= hi)).all(axis=2)
        vals = np.full(allowed.shape, np.inf)
        vals[allowed] = f_many(cand[allowed].T)
        better = (vals < best).any(axis=1)
        if not better.any():
            steps = steps[_STEPS_PER_CALL:]
            continue
        r = int(np.argmax(better))  # the largest step that improves, and its best move
        j = int(np.argmin(vals[r]))
        best, x, steps = vals[r, j], cand[r, j], steps[r:]
    return float(best), x


#: Unordered index pairs of a 4-element frame, in canonical order.
#: The complementary pair of ``PAIRS[k]`` is ``PAIRS[5 - k]``.
PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _frame_rows(v):
    """(4, 3, N) component rows of (N, 4, 3) frames; free for a transposed view of such rows."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(v, dtype=np.float64), 0, -1))


def pair_scalars_many(p: np.ndarray):
    """Per-pair gamma and zeta ((N, 6) views of rows) and the volume of (N, 4, 3) centered tetrahedra."""
    r = _frame_rows(p)
    gamma, zeta = np.empty((2, 6, r.shape[-1]))
    for k, (i, j) in enumerate(PAIRS):
        s, t = PAIRS[5 - k]
        gamma[k] = -_dot_rows(r[s], r[t])
        cr = _cross_rows(r[i], r[j])
        zeta[k] = gamma[k] * _dot_rows(cr, cr)
    vol = np.abs(_dot_rows(r[1] - r[0], _cross_rows(r[2] - r[0], r[3] - r[0]))) / 6.0
    return gamma.T, zeta.T, vol


def type4_functional_many(v: np.ndarray, beta: np.ndarray, a6: float, a4: float):
    """Weighted edge functional at unit volume of type-4 bodies.

    ``v`` holds (N, 4, 3) frames and ``beta`` the (N, 5) coefficients in
    pair order (12, 13, 14, 23, 24); the 34 coefficient is zero.  Each beta
    row is scaled by a power of two to a maximum in [1/2, 1) before the cubic:
    exact, as the functional is homogeneous of degree 0 in beta.
    """
    r = _frame_rows(v)
    b = np.ascontiguousarray(np.asarray(beta, dtype=np.float64).T)
    b = np.ldexp(b, -np.frexp(np.maximum.reduce(b))[1])
    norm = [np.sqrt(_dot_rows(cr, cr)) for cr in (_cross_rows(r[i], r[j]) for i, j in PAIRS[:5])]
    w_raw = a4 * b[0] * norm[0] + a6 * (b[1] * norm[1] + b[2] * norm[2] + b[3] * norm[3] + b[4] * norm[4])
    return w_raw / np.cbrt(volume_cubic(*b))


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
