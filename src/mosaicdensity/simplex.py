"""Constrained maximization of the volume cubic over a weighted simplex.

The question: scale the first coordinate by lambda > 0, freeze the last
coordinate at zero, and maximize the volume cubic over nonnegative
(tau12, tau13, tau14, tau23, tau24) summing to 1.  The maximum is

    16 lambda^3 / (27 (4 lambda - 1)^2)   for lambda >= 3/4,
    1/16                                  for lambda <= 3/4,

the first attained at one interior point, which tests/test_simplex.py
keeps as the reference that the value is attained, and the second on the
face without tau12; the two are equal at 3/4.  A grid scan over exact
integer compositions plus coordinate-transfer refinement serves as an
independent check that no boundary stratum beats them.  The scan is
exact without visiting every composition: trading tau12 against tau24 at
fixed (tau13, tau14, tau23), the cubic is a concave quadratic, so only the
two grid points around its vertex can be that line's maximum.
"""

from __future__ import annotations

import numpy as np

from . import _kernels


def _objective(lam: float, t):
    """The lambda-scaled volume cubic (tau34 = 0) at five coordinates,
    each a float or a row of a column stack of points."""
    return _kernels.volume_cubic(lam * t[0], *t[1:])


def _check_scale(lam: float) -> None:
    """Refuse a scale factor that the lemma says nothing about."""
    if not 0.0 < lam < np.inf:
        raise ValueError(f"scale factor must be finite and > 0, got {lam}")


def scaled_simplex_max(lam: float) -> float:
    """The closed-form maximum: the interior point's value from lambda = 3/4, the face without tau12's below."""
    _check_scale(lam)
    return 16.0 * lam**3 / (27.0 * (4.0 * lam - 1.0) ** 2) if lam >= 0.75 else 1.0 / 16.0


def boundary_candidates(lam: float) -> list[float]:
    """Candidate maxima of the boundary strata.

    Each value arises when one or more coordinates are pinned to zero.
    1/16 is the face without tau12, and the maximum for lam <= 3/4; the
    4-faces with tau12 peak inside at the second value from lam = 1/2,
    and on their own boundary at 1/27 below it.
    """
    _check_scale(lam)
    return [
        1.0 / 16.0,
        4.0 * lam**2 / (27.0 * (4.0 * lam - 1.0)) if lam >= 0.5 else 1.0 / 27.0,
        lam / 27.0,
        1.0 / 27.0,
    ]


# transfer moves (a -> b) in the order a-major, b != a, as rows of -1 at a and +1 at b
_TRANSFERS = np.array([np.eye(5)[b] - np.eye(5)[a] for a in range(5) for b in range(5) if a != b])


def grid_simplex_max(lam: float, grid_n: int = 60) -> float:
    """Brute-force maximum: composition grid scan, then local refinement.

    The scan covers all integer compositions of ``grid_n`` into five parts
    (exact feasibility, no floating-point drift on the constraint), two per
    (b, c, d): the cubic is concave in a, so ``_kernels.simplex_grid_scan``
    evaluates the floor and the ceiling of its vertex, and of tied maxima
    keeps the smallest a, then the first (b, c, d) by sum, then by (b, c).
    Refinement runs ``_kernels.greedy_descent`` on the negated objective
    from the best grid point, with step ``1 / grid_n``: its moves are the
    20 pairwise mass transfers, which keep every point on the simplex, and
    its box [0, inf) refuses a transfer larger than its source's mass.
    """
    _check_scale(lam)
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    _, comp = _kernels.simplex_grid_scan(lam, grid_n, 1.0)
    return -_kernels.greedy_descent(
        lambda u: -_objective(lam, u), _TRANSFERS, 0.0, np.inf, comp.astype(np.float64) / grid_n, 1.0 / grid_n
    )[0]
