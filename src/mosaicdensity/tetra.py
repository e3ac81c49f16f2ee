"""Centered tetrahedra and the quadratic identities tying edge data to volume.

For a tetrahedron with vertex sum zero, write for each vertex pair (i, j)
the scalar ``gamma_ij = -<p_s, p_t>`` where (s, t) is the complementary
pair, and ``zeta_ij = gamma_ij |p_i x p_j|^2``.  Feeding the six gamma
values to the volume cubic yields (9/4) V^2, and the six zeta values sum
to (27/4) V^2, where V is the tetrahedron volume.  These two identities
are the backbone of several optimality arguments in this package and are
re-verified numerically here.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

#: ``batch_identity_residuals`` redraws tetrahedra of volume at most this.
REJECT_VOLUME_BELOW = 1e-3


def _identity_residuals(poly, weighted, v2):
    """Residuals of f(gamma) = 9 V^2 / 4 and sum(zeta) = 27 V^2 / 4 relative to
    max(1, V^2), from the cubic on gamma, the sum of zeta and V^2; elementwise."""
    scale = np.maximum(1.0, v2)
    return np.abs(poly - 2.25 * v2) / scale, np.abs(weighted - 6.75 * v2) / scale


def batch_identity_residuals(samples: int, seed: int = 0) -> tuple[float, float]:
    """Worst relative residual of each identity over random tetrahedra.

    Sampling and evaluation are vectorized through the kernel layer;
    rejection keeps volumes above ``REJECT_VOLUME_BELOW``.  A block is drawn
    as (n, 4, 3) vertices and evaluated as (4, 3, n) component rows.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    collected = 0
    worst1 = worst2 = 0.0
    while collected < samples:
        n = min(4096, max(256, samples - collected))
        q = rng.uniform(-1.0, 1.0, size=(n, 4, 3)).transpose(1, 2, 0).copy()
        q -= (q[0] + q[1] + q[2] + q[3]) / 4.0
        gamma, zeta, vol = _kernels.pair_scalars_many(q.transpose(2, 0, 1))
        keep = np.flatnonzero(vol > REJECT_VOLUME_BELOW)[: samples - collected]
        if not keep.size:
            continue
        collected += keep.size
        gamma, zeta, vol = gamma.T.take(keep, axis=1), zeta.T.take(keep, axis=1), vol[keep]  # gamma, zeta: (6, k) rows
        r1, r2 = _identity_residuals(_kernels.volume_poly_many(gamma.T), zeta.sum(axis=0), vol**2)
        worst1 = max(worst1, float(r1.max()))
        worst2 = max(worst2, float(r2.max()))
    return worst1, worst2
