"""Constrained maximization of the volume cubic over a weighted simplex.

The question: scale the first coordinate by lambda >= 1, freeze the last
coordinate at zero, and maximize the volume cubic over nonnegative
(tau12, tau13, tau14, tau23, tau24) summing to 1.  The closed form of
the maximum is

    16 lambda^3 / (27 (4 lambda - 1)^2),

attained at one interior point, which tests/test_simplex.py keeps as the
reference that the value is attained.  A grid scan over exact integer
compositions plus coordinate-transfer refinement serves as an independent
check that no boundary stratum beats the interior point.  The scan is
exact without visiting every composition: trading tau12 against tau24 at
fixed (tau13, tau14, tau23), the cubic is a concave quadratic, so only the
two grid points around its vertex can be that line's maximum.
"""

from __future__ import annotations

import numpy as np

from . import _kernels


class DomainError(ValueError):
    """Scale factor outside the hypothesis lambda >= 1."""


def _objective(lam: float, t):
    """The lambda-scaled volume cubic (tau34 = 0) at five coordinates,
    each a float or a row of a column stack of points."""
    return _kernels.volume_cubic(lam * t[0], *t[1:])


def scaled_simplex_max(lam: float) -> float:
    """The closed-form maximum."""
    if lam < 1.0:
        raise DomainError(f"scale factor {lam} < 1")
    return 16.0 * lam**3 / (27.0 * (4.0 * lam - 1.0) ** 2)


def boundary_candidates(lam: float) -> list[float]:
    """Candidate maxima of the boundary strata.

    Each value arises when one or more coordinates are pinned to zero;
    all are strictly below the interior maximum for lam >= 1.
    """
    if lam < 1.0:
        raise DomainError(f"scale factor {lam} < 1")
    return [
        1.0 / 16.0,
        4.0 * lam**2 / (27.0 * (4.0 * lam - 1.0)),
        lam / 27.0,
        1.0 / 27.0,
    ]


# transfer moves (a -> b) in the order a-major, b != a, as rows of -1 at a and +1 at b
_SOURCES, _TARGETS = np.array([(a, b) for a in range(5) for b in range(5) if a != b]).T
_TRANSFERS = np.eye(5)[_TARGETS] - np.eye(5)[_SOURCES]


def grid_simplex_max(lam: float, grid_n: int = 60) -> float:
    """Brute-force maximum: composition grid scan, then local refinement.

    The scan covers all integer compositions of ``grid_n`` into five parts
    (exact feasibility, no floating-point drift on the constraint), two per
    (b, c, d): the cubic is concave in a, so ``_kernels.simplex_grid_scan``
    evaluates the floor and the ceiling of its vertex, and of tied maxima
    keeps the smallest a, then the first (b, c, d) by sum, then by (b, c).
    Refinement runs ``_kernels.greedy_descent`` on the negated objective
    from the best grid point, with step ``1 / grid_n``: its moves, the 20
    pairwise mass transfers, each allowed where its source holds at least
    the step, are one broadcast over the step sizes of a call and keep
    every point on the simplex.
    """
    if lam < 1.0:
        raise DomainError(f"scale factor {lam} < 1")
    if grid_n < 10:
        raise ValueError("grid_n must be at least 10")
    _, comp = _kernels.simplex_grid_scan(lam, grid_n, 1.0)
    neg, _ = _kernels.greedy_descent(
        lambda u: -_objective(lam, u),
        lambda t, steps: (t + steps[:, None, None] * _TRANSFERS, t[_SOURCES] >= steps[:, None]),
        comp.astype(np.float64) / grid_n, 1.0 / grid_n,
    )
    return -neg
