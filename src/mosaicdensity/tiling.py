"""Lattice tilings by parallelohedra, skeleton density in a ball and exactly.

A parallelohedron tiles space by lattice translates.  This module proposes the
tiling lattice (its doubled facet centers lie in it, so a triple of them
spanning the cell volume is a basis), certifies any lattice exactly (no two
translates overlap and the covolume equals the cell volume, so the translates
tile), and measures the total edge length of the tiling inside a large ball
from edge pieces: each cell edge is cut where collinear edges of translates
end, and the pieces fall into classes of lattice translates, one class per
orbit of tiling pieces, with one member per cell whose edges hold the piece.
Face to face no edge is cut, and a class has 4 members on a 4-belt and 3 on a
6-belt, so the per-cell functional with weights (2, 1) over cell volume is the
limit density; with layers slid it is more.  The sum of the class
representatives' lengths over the covolume is the density exactly.  The
tiling's point group G, the orthogonal maps that take the lattice onto itself
and the cell's pieces onto pieces (order 48 for the cube, 2 for a generic body,
and always holding x -> -x as the cell is centred), maps the skeleton in a
centred ball onto itself.  So translates are enumerated line by line, one per
orbit of G, its lexicographic maximum, standing for the whole orbit: cells
strictly inside the ball are mostly counted, not formed, and add their piece
lengths in closed form; pieces near the sphere are whole, missing or crossing
by their endpoint norms, and only crossing pieces are clipped and summed, in
work arrays reused from block to block.  A lattice is reduced once, and G, the
pieces and the cone serve a whole series of radii.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from . import _kernels
from .zonotope import GeometryError, WeightPair, Zonotope, weighted_edge_functional


class NoValidBasis(GeometryError):
    """No facet-center triple generates a valid tiling lattice."""


class TooManyLines(GeometryError):
    """The lattice lines of a ball, or the points of the overlap screen's box, exceed ``_MAX_LINES``."""


class Overlap(GeometryError):
    """Two translates have intersecting interiors."""

    def __init__(self, message: str, witness: np.ndarray):
        super().__init__(message)
        self.witness = witness


class Gap(GeometryError):
    """A point of space is covered by no translate (witness None if none was found)."""

    def __init__(self, message: str, witness: np.ndarray | None):
        super().__init__(message)
        self.witness = witness


class RadiusTooSmall(ValueError):
    """Measurement ball not large enough relative to the cell."""


def _lll_unimodular(basis: np.ndarray) -> np.ndarray:
    """Integer U with det +-1 such that the rows of U @ basis are LLL-reduced (delta 3/4).

    With (U @ basis).T = QR, Gram-Schmidt gives mu[k, j] = R[j, k] / R[j, j]
    and |b*_k| = |R[k, k]|; subtracting rows of U subtracts columns of R.
    """
    u = np.eye(3, dtype=np.int64)
    k = 1
    while k < 3:
        r = np.linalg.qr((u @ basis).T, mode="r")
        for j in range(k - 1, -1, -1):  # size-reduce row k
            q = np.rint(r[j, k] / r[j, j])
            u[k] -= int(q) * u[j]
            r[:, k] -= q * r[:, j]
        if r[k, k] ** 2 + r[k - 1, k] ** 2 >= 0.75 * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            u[[k - 1, k]] = u[[k, k - 1]]
            k = max(k - 1, 1)
    return u


_LINE_CHUNK = 256  # lattice lines whose band is formed, and clipped, per block
_MAX_LINES = 2**21  # (c1, c2) lines in one ball, ~300-340 B each; near 2**21 lines the unit shapes peak at 282-710 MB
_RADIUS_BAND = (1e-60, 1e60)  # the chord terms ~ (radius x edge)^2 leave the doubles past radius x edge 1e154 or 1e-158


def _facet_walls(n: np.ndarray) -> np.ndarray:
    """The rows of n that bound a 2-face of the cone n @ c >= 0, exactly in int64.  Its rays are the
    cross products of two walls, either way round, on which every wall is >= 0, reduced to primitive
    vectors.  When every wall is > 0 on one of them, the cone is pointed and has an interior, so each
    ray, on two independent walls, is extreme, and a facet wall vanishes on two rays.  Else, as when the
    cone holds a line, and past 6 max|n|^3 = 2^63, where int64 no longer holds the products, all rows
    are kept."""
    if len(n) < 3 or 6 * int(np.abs(n).max(initial=0)) ** 3 >= 2**63:
        return n
    w = n.T
    r = np.stack(_kernels._cross_rows(w[:, :, None], w[:, None, :])).reshape(3, -1).T  # entries <= 2 max|n|^2
    r = r[r.any(axis=1) & (r @ w >= 0).all(axis=1)]
    r = r // np.gcd.reduce(r, axis=1)[:, None]
    r = r[np.lexsort(r.T)]  # np.unique(axis=0) would import numpy.ma
    on = r[np.diff(r, axis=0, prepend=0).any(axis=1)] @ w  # every wall on every distinct ray
    if not (on > 0).any(axis=0).all():
        return n
    return n[np.count_nonzero(on == 0, axis=0) >= 2]


def _count_lines(lat: Lattice, reach: float) -> None:
    """Raise TooManyLines if the (c1, c2) lines of a ball of radius ``reach`` exceed ``_MAX_LINES``, in ints."""
    lines = math.prod(2 * math.floor(s * reach) + 3 for s in lat._reduction[2][:2].tolist())
    if lines > _MAX_LINES:
        raise TooManyLines(f"a ball of radius {reach:.6g} spans {lines} lattice lines, more than {_MAX_LINES}")


def _box(lim: list[int]):
    """The integer coefficients c with |c_j| <= lim[j], in lexicographic order, in blocks of at most 2^16."""
    points = math.prod(2 * k + 1 for k in lim)
    for lo in range(0, points, 2**16):
        index = np.arange(lo, min(lo + 2**16, points))
        yield np.stack(np.unravel_index(index, [2 * k + 1 for k in lim]), axis=1) - np.array(lim)


def _cone(lat: Lattice, group: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """The walls n = (I - m)(K^2, K, 1) of ``_ball_lines``, one per m in ``group``, and the facet walls, for a K
    beyond |x_2|, |x_3| on the coefficient box of radius ``reach``, and so on every box of a smaller radius."""
    u, red, scale = lat._reduction
    d = np.eye(3, dtype=np.int64) - u @ group @ np.rint(np.linalg.inv(u)).astype(np.int64)  # m = u group u^-1
    lim = np.floor(scale * reach).astype(np.int64) + 1
    base = int(np.einsum("i,gik->gk", lim + 1, np.abs(d[:, :, 1:])).max()) + 2  # |x_2|, |x_3| < base
    n = d @ np.array([base * base, base, 1])
    return n, _facet_walls(n[(n != 0).any(axis=1)])


def _ball_lines(lat: Lattice, rmax: float, rin: float, cone: tuple[np.ndarray, np.ndarray]):
    """Lattice vectors of norm at most rmax, one per orbit of the group of ``cone`` (from ``_cone`` at
    a radius of at least rmax): per block of lines, the orbit-weighted count, the band and the orbit
    size of each band point.

    A point c of the LLL-reduced basis is taken when it is the lexicographic maximum of its orbit,
    c - c m >=lex 0 for every m.  In the coefficient box, x >=lex 0 iff x . (K^2, K, 1) >= 0 for K
    beyond |x_2| and |x_3|, so each m is a wall n = (I - m)(K^2, K, 1), and the cone's facet walls
    cut each line c1 b1 + c2 b2 + c3 b3 to a c3 interval, by floor division in integers.  All walls
    are >= 0 on it, so only its two ends can lie on a wall, n . c = 0 (c m = c), that the whole line
    does not: the points between share the line's stabiliser, and the ends, always formed, have
    theirs counted, in integers too.  Points strictly inside the cone interval whose two neighbours
    lie in the ball of radius ``rin`` are counted (by convexity |t|^2 <= rin^2 - |b3|^2); the rest of
    the line in the ball of radius rmax, rounded outwards, is formed from the stored basis and kept
    where norm(t) <= rmax, in lexicographic (c1, c2, c3) order.
    """
    (u, red, scale), (n, walls) = lat._reduction, cone
    lim = np.floor(scale * rmax).astype(np.int64) + 1
    c1 = np.repeat(np.arange(-lim[0], lim[0] + 1), 2 * lim[1] + 1)
    c2 = np.tile(np.arange(-lim[1], lim[1] + 1), 2 * lim[0] + 1)
    cl, ch = np.full(len(c1), -lim[2] - 1), np.full(len(c1), lim[2] + 1)  # cone interval, or past the box
    meets = np.ones(len(c1), dtype=bool)
    for w1, w2, w3 in walls.tolist():  # w3 c3 >= -a
        a = c1 * w1 + c2 * w2
        if w3 == 0:
            meets &= a >= 0
        elif w3 > 0:
            np.maximum(cl, -(a // w3), out=cl)
        else:
            np.minimum(ch, a // -w3, out=ch)
    meets &= cl <= ch
    c1, c2, cl, ch = c1[meets], c2[meets], cl[meets], ch[meets]
    g = red @ red.T  # |c @ red|^2 = c g c
    mid = -(c1 * g[0, 2] + c2 * g[1, 2]) / g[2, 2]
    d2 = (c1 * g[0, 0] + c2 * g[1, 0]) * c1 + (c1 * g[0, 1] + c2 * g[1, 1]) * c2 - g[2, 2] * mid * mid
    half, half_in = (np.sqrt(np.maximum(r * r - d2, 0.0) / g[2, 2]) for r in (rmax, rin))
    lo, hi = np.floor(mid - half).astype(np.int64), np.ceil(mid + half).astype(np.int64)
    lo_in = np.ceil(mid - half_in).astype(np.int64) + 1  # lo < lo_in <= hi + 1
    hi_in = np.floor(mid + half_in).astype(np.int64) - 1
    first, last = np.maximum(lo, cl), np.minimum(hi, ch)
    # d2 is the squared distance of a line from 0, with a margin for rounding; bands are exact
    keep = (d2 <= rmax * rmax * (1.0 + 1e-9)) & (first <= last)
    c12 = np.column_stack([c1[keep], c2[keep]])
    cl, ch, first, last = cl[keep], ch[keep], first[keep], last[keep]
    lo_in, hi_in = np.maximum(lo_in[keep], cl + 1), np.minimum(hi_in[keep], ch - 1)
    count = np.maximum(hi_in - lo_in + 1, 0)
    band = last - first + 1 - count
    # orbit sizes at each line's first band point, the next and the last: c . n = 0 counts the
    # stabiliser, and the next point has the one of every point between the ends
    at = np.stack([first, first + 1, last])[..., None] * n[:, 2] + c12 @ n[:, :2].T
    q_first, weight, q_last = len(n) // np.count_nonzero(at == 0, axis=2)
    bounds = [*range(0, len(band), _LINE_CHUNK), len(band)]
    for k, stop in zip(bounds, bounds[1:]):
        size = band[k:stop]
        start = np.cumsum(size) - size  # where each line's band begins in the block
        line = np.repeat(np.arange(k, stop), size)
        c3 = first[line] + np.arange(len(line)) - np.repeat(start, size)
        c3 += np.where(c3 >= lo_in[line], count[line], 0)  # step over the counted run
        c = np.column_stack([c12[line], c3])
        t = c @ u @ lat.basis
        q = np.repeat(weight[k:stop], size)
        q[start], q[start + size - 1] = q_first[k:stop], q_last[k:stop]
        inside = np.linalg.norm(t, axis=1) <= rmax
        yield int((count * weight)[k:stop].sum()), t[inside], q[inside]


@dataclass(frozen=True)
class Lattice:
    """Three independent vectors, one per row, and their LLL reduction, formed once, on first use."""

    basis: np.ndarray  # (3, 3)

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=np.float64)
        if b.shape != (3, 3) or not np.isfinite(b).all():
            raise ValueError("basis must be a finite 3x3 array")
        s = np.ldexp(b, -math.frexp(np.abs(b).max())[1])  # largest |entry| in [1/2, 1): no product leaves the doubles
        if abs(np.linalg.det(s)) <= 1e-12 * np.prod(np.linalg.norm(s, axis=1)):
            raise ValueError("basis vectors are linearly dependent")
        with np.errstate(over="ignore", under="ignore"):  # refused, not warned of
            if not 0.0 < abs(np.linalg.det(b)) < math.inf:
                raise ValueError("basis covolume is not a finite positive double")
        object.__setattr__(self, "basis", b)

    @property
    def covolume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    @functools.cached_property
    def _reduction(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = _lll_unimodular(self.basis)  # U, U @ basis and its inverse's column norms: |c_i| <= |t| norm_i
        return u, u @ self.basis, np.linalg.norm(np.linalg.inv(u @ self.basis), axis=0)

    def points_in_ball(self, rmax: float) -> np.ndarray:
        """All lattice vectors of norm at most rmax, in lexicographic coefficient order, from the whole
        coefficient box of the reduced basis, |c_j| <= |t| scale_j: the brute-force reference of the tests."""
        _count_lines(self, rmax)
        u, _, scale = self._reduction
        blocks = (c @ u @ self.basis for c in _box([math.floor(s * rmax) + 1 for s in scale.tolist()]))
        return np.concatenate([t[np.linalg.norm(t, axis=1) <= rmax] for t in blocks])


@dataclass(frozen=True)
class DensityEstimate:
    radius: float
    skeleton_length: float
    density: float
    target: float
    weighted_length: float
    cells: int
    shell: int  # translates whose edges were classified one by one
    crossing: int  # (translate, piece) pairs given to the chord formula
    exact_density: float  # the class representatives' total length over the covolume
    symmetries: int  # order of the tiling's point group, which folds the ball

    @property
    def relative_error(self) -> float:
        return abs(self.density - self.target) / self.target


@dataclass(frozen=True)
class TilingReport:
    determinant: float
    cell_volume: float
    translates_checked: int
    covering_fraction: float
    covering_samples: int


def _has_overlap(z: Zonotope, lat: Lattice) -> tuple[np.ndarray | None, int]:
    """Interior-intersection witness or None, and the number of nonzero points in the box screened.

    Translates z and z + t overlap iff |n_f.t| < 2h_f for every facet f: in reduced coefficients, t = c @ red,
    |m_f.c| < 1 with m_f = red n_f / 2h_f.  Rows m_a of an invertible M bound such c by |c_j| <= sum_a |M^-1_ja|
    (Cramer), rounded outwards.  Of the triples of facet directions (facets 2k and 2k + 1 of ``build_zonotope`` are
    +-n), the box with the fewest points is screened by every facet, in lexicographic order; the first overlap is
    the witness."""
    normals, offsets = z.facet_planes()
    u, red, _ = lat._reduction
    m = (normals[::2] / (2.0 * offsets[::2, None])) @ red.T  # rows m_f
    mats = m[list(combinations(range(len(m)), 3))]
    mats = mats[np.abs(np.linalg.det(mats)) > 1e-12 * np.prod(np.linalg.norm(mats, axis=2), axis=1)]
    lim = np.floor(np.abs(np.linalg.inv(mats)).sum(axis=2) * (1.0 + 1e-9))
    lim = [int(k) for k in lim[np.argmin(np.log(2.0 * lim + 1.0).sum(axis=1))].tolist()]  # fewest points; no overflow
    points = math.prod(2 * k + 1 for k in lim)  # in ints, before any array of the box
    if points > _MAX_LINES:
        raise TooManyLines(f"the overlap screen's box spans {points} lattice points, more than {_MAX_LINES}")
    for c in _box(lim):
        t = c[c.any(axis=1)] @ u @ lat.basis
        inside = ((t @ normals.T) / (2.0 * offsets) < 1.0 - 1e-12).all(axis=1)
        if inside.any():
            return t[np.argmax(inside)] / 2.0, points - 1
    return None, points - 1


def _gap_witness(
    z: Zonotope, lat: Lattice, samples: int, seed: int
) -> tuple[np.ndarray | None, int]:
    """The first uncovered one of at most ``samples`` random points of a
    fundamental domain, or None, and how many points were drawn.

    Each point is tested against the translates at its 27 nearest lattice
    coordinates, to 1e-9 circumradii; the search stops at the first chunk holding one.
    """
    rng = np.random.default_rng(seed)
    binv, tol = np.linalg.inv(lat.basis), 1e-9 * z.circumradius()
    shifts = np.indices((3, 3, 3)).reshape(3, -1).T - 1
    for lo in range(0, samples, 65536):
        n = min(65536, samples - lo)
        x = rng.random((n, 3)) @ lat.basis
        base = np.rint(x @ binv)
        ok = np.zeros(n, dtype=bool)
        for s in shifts:
            ok |= z.contains(x - (base + s) @ lat.basis, tol=tol)
        if not ok.all():
            return x[np.argmin(ok)].copy(), lo + n
    return None, max(samples, 0)


def _covolume_tol(volume: float) -> float:
    """How far a covolume may stand from the cell volume and still count as equal to it: relative, at any scale."""
    return 1e-9 * volume


def validate_tiling(
    z: Zonotope, lat: Lattice, samples: int = 1_000_000, seed: int = 0
) -> TilingReport:
    """Certify exactly that lattice translates of z tile space, sampling nothing: the one test of the tiling rule.

    z is convex and centrally symmetric, so z and z + t overlap iff t/2 is interior to z, which ``_has_overlap``
    screens.  Without such t the translates pack with density vol/covolume, and a lattice packing of density 1 is
    a tiling: an uncovered set would be open and periodic, so of positive density (P. McMullen, "Convex bodies which
    tile space by translation", Mathematika 27 (1980); P. M. Gruber, Convex and Discrete Geometry (2007)).  Raises
    TooManyLines if the screen's box passes the line budget; Overlap with its witness; Gap if covolume > volume,
    with a witness from at most ``samples`` points drawn from ``seed``; GeometryError if covolume < volume with no
    overlap, which the packing bound rules out, so the overlap screen is at fault.
    """
    witness, checked = _has_overlap(z, lat)
    if witness is not None:
        raise Overlap(f"translate interiors meet near {witness}", witness)
    vol = z.volume()
    det = lat.covolume
    if det - vol > _covolume_tol(vol):
        gap, drawn = _gap_witness(z, lat, samples, seed)
        msg = f"covolume {det:.12g} > volume {vol:.12g}; uncovered point {gap} in {drawn} samples"
        raise Gap(msg, gap)
    if vol - det > _covolume_tol(vol):
        msg = f"covolume {det:.12g} < volume {vol:.12g}, yet no overlap in {checked} translates"
        raise GeometryError(f"overlap screen fault: {msg}")
    return TilingReport(det, vol, checked, 1.0, 0)


def lattice_from_parallelohedron(z: Zonotope) -> Lattice:
    """Propose a tiling lattice from doubled facet centers; ``validate_tiling`` decides.

    The doubled facet centers of a parallelohedron lie in its face to face
    tiling lattice, whose covolume is the cell volume (Venkov; McMullen,
    Mathematika 27 (1980)), so the first triple of them whose determinant
    matches the volume spans the whole lattice and is returned.
    """
    vol = z.volume()
    centers = np.array([2.0 * z.vertices[list(c)].mean(axis=0) for c in z.facet_cycles])
    for tri in combinations(range(len(centers)), 3):
        b = centers[list(tri)]
        if abs(abs(np.linalg.det(b)) - vol) <= _covolume_tol(vol):
            return Lattice(b)
    raise NoValidBasis("no facet-center triple yields a disjoint unit-index lattice")


def _pieces(z: Zonotope, lat: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cell edges, oriented along their segments, cut where collinear edges of translates end: each
    piece's start and end, m, the number of cells whose edges hold it, and the first piece of each class.

    Edge b of z + t lies on edge a's line at mu times a's vector d when the coefficients f + mu c of
    t = start_a - start_b + mu d are integers: mu = (n - f_k) / c_k, k where |c| is largest, and the other
    two are tested.  |mu| < 1 cuts a at mu or 1 + mu, whichever lies inside; |mu| <= 1e-12 is a shared
    edge, |mu| >= 1 - 1e-12 a neighbour end to end.  A piece runs to the next cut on its line, so pieces
    of one segment whose starts differ by a lattice vector form a class, one member per cell that holds
    it.  Face to face no edge is cut and m is the belt's sharing count: 4 on a 4-belt, 3 on a 6-belt.
    """
    labels, inv = z.edge_segment, np.linalg.inv(lat.basis)
    ends = z.vertices[z.edge_vertex_ids]  # (E, 2, 3)
    flip = ((ends[:, 1] - ends[:, 0]) * z.generators[labels]).sum(axis=1) < 0
    ends[flip] = ends[flip, ::-1]
    c = (ends[:, 1] - ends[:, 0]) @ inv  # lattice coefficients of each edge's vector
    a, b = np.nonzero(labels[:, None] == labels)  # edge pairs along one segment
    f, k = (ends[a, 0] - ends[b, 0]) @ inv, np.abs(c).argmax(axis=1)[a]
    fk, ck, reach = f[np.arange(len(a)), k, None], c[a, k, None], math.floor(np.abs(c).max() + 0.5)
    mu = (np.rint(fk) + np.arange(-reach, reach + 1) - fk) / ck  # covers every n with |n - f_k| < |c_k|
    tau = f[:, None] + mu[..., None] * c[a, None]
    on = (np.abs(tau - np.rint(tau)) < 1e-7).all(axis=2) & (np.abs(mu) > 1e-12) & (np.abs(mu) < 1.0 - 1e-12)
    edge = np.concatenate([np.arange(2 * len(labels)) // 2, a[np.nonzero(on)[0]]])  # each edge twice, then its cuts
    at = np.concatenate([np.arange(2 * len(labels)) % 2.0, (mu % 1.0)[on]])  # its ends, 0 and 1; cuts at mu or 1 + mu
    order = np.lexsort((at, edge))
    edge, at = edge[order], at[order]
    keep = (np.diff(edge, prepend=-1) != 0) | (np.diff(at, prepend=0.0) > 1e-12)  # one of each cut
    edge, at = edge[keep], at[keep, None]
    s, e = ends[edge, 0], ends[edge, 1]
    point = np.where(at == 0.0, s, np.where(at == 1.0, e, s + at * (e - s)))  # the vertices themselves kept
    piece = np.flatnonzero(edge[1:] == edge[:-1])  # from point[i] to point[i + 1]
    start, end, label = point[piece], point[piece + 1], labels[edge[piece]]
    d = (start[:, None] - start[None]) @ inv  # lattice coefficients of the pieces' start differences
    same = (label[:, None] == label) & (np.abs(d - np.rint(d)) < 1e-7).all(axis=2)
    return start, end, same.sum(axis=1), np.flatnonzero(same.argmax(axis=1) == np.arange(len(same)))


def _check_radius(z: Zonotope, radius: float) -> None:
    """Raise RadiusTooSmall unless radius is finite and >= 3x the cell diameter; ValueError outside the band."""
    floor = 3.0 * z.diameter()
    if not (math.isfinite(radius) and radius >= floor):
        raise RadiusTooSmall(f"radius must be finite and at least 3x cell diameter {floor:.6g}, got {radius}")
    if not _RADIUS_BAND[0] <= radius <= _RADIUS_BAND[1]:
        raise ValueError(f"radius must be in [{_RADIUS_BAND[0]:g}, {_RADIUS_BAND[1]:g}], got {radius}")


def _shell_pairs(start: np.ndarray, end: np.ndarray, radius: float):
    """Classifier pairs(t): the (S, E) mask of pairs (translate t[i], edge start[j]-end[j]) inside the
    ball, and the flat indices and chords of the pairs that may cross the sphere; the rest miss, as for
    p(s) = t + start + s d, |p(s)|^2 = (1 - s)|p(0)|^2 + s|p(1)|^2 - s(1 - s)|d|^2.  Per-edge constants
    are formed once; each call works in place in arrays valid until the next, grown to twice the t that
    outgrows them: blocks vary in size along the enumeration, and each fresh array faults in its pages."""
    d, r2 = end - start, radius * radius
    a, sd, ss = (d * d).sum(axis=1), (start * d).sum(axis=1), (start * start).sum(axis=1)
    inside, near = r2 * (1.0 - 1e-12), r2 * (1.0 + 1e-12) + a / 4.0  # margins for rounding in c
    work = [np.empty((3, 0, len(a))), np.empty((2, 0, len(a)), dtype=bool)]

    def pairs(t: np.ndarray):
        if len(t) > work[0].shape[1]:
            rows = 2 * len(t)
            work[:] = np.empty((3, rows, len(a))), np.empty((2, rows, len(a)), dtype=bool)
        (b, c, c1), (whole, cross) = (w[:, : len(t)] for w in work)
        np.multiply(np.add(np.matmul(t, d.T, out=b), sd, out=b), 2.0, out=b)
        np.add(np.multiply(np.matmul(t, start.T, out=c), 2.0, out=c), (t * t).sum(axis=1)[:, None], out=c)
        np.add(np.add(np.add(c, ss, out=c), b, out=c1), a, out=c1)  # c = |p(0)|^2, c1 = |p(1)|^2
        np.logical_and(np.less_equal(c, inside, out=whole), np.less_equal(c1, inside, out=cross), out=whole)
        np.logical_xor(np.less_equal(np.minimum(c, c1, out=c1), near, out=cross), whole, out=cross)  # inside < near
        idx = np.flatnonzero(cross)
        return whole, idx, _kernels._chord_lengths(a[idx % len(a)], b.ravel()[idx], c.ravel()[idx] - r2)
    return pairs


def _point_group(z: Zonotope, lat: Lattice, mid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tiling's point group G: the orthogonal maps x -> x @ a taking the lattice onto itself and
    the cell's edge pieces, with midpoints ``mid``, onto pieces, and so its generators onto generators up to sign.

    An orthogonal map is fixed by its images of an independent triple of generators, so the
    candidates are the signed images of the first such triple with the triple's Gram matrix.
    Returns each element as an integer matrix on lattice coefficients, c -> c @ m, and its piece
    permutation, piece j onto piece perm[g, j]; raises GeometryError unless x -> -x is in G.
    """
    gens = z.generators
    scale = np.abs(gens).max()
    independent = (t for t in combinations(range(len(gens)), 3) if abs(np.linalg.det(gens[list(t)])) > 1e-9 * scale**3)
    tri = np.array(next(independent))
    idx = np.array(list(permutations(range(len(gens)), 3)))  # candidate image triples
    signs = np.array(list(product((1, -1), repeat=3)))
    i, j = [0, 0, 1, 0, 1, 2], [1, 2, 2, 0, 1, 2]  # the entries of a symmetric 3x3 matrix
    gram = gens @ gens.T
    fits = gram[idx[:, i], idx[:, j]] * (signs[:, i] * signs[:, j])[:, None] - gram[tri[i], tri[j]]
    sign, triple = np.nonzero((np.abs(fits) <= 1e-9 * scale**2).all(axis=2))
    maps = np.linalg.inv(gens[tri]) @ (gens[idx[triple]] * signs[sign, :, None])  # gens[tri] @ a = image triple
    image = mid @ maps
    # a ray from the centre leaves the cell once, so an image midpoint is nearest in direction to its edge's
    cosine = image.reshape(-1, 3) @ (mid / np.linalg.norm(mid, axis=1)[:, None]).T
    perm = cosine.argmax(axis=1).reshape(len(maps), -1)
    coeffs = lat.basis @ maps @ np.linalg.inv(lat.basis)
    ok = (np.abs(image - mid[perm]) <= 1e-9 * scale).all(axis=(1, 2))
    ok &= (np.abs(coeffs - np.rint(coeffs)) <= 1e-7).all(axis=(1, 2))
    group = np.rint(coeffs[ok]).astype(np.int64)
    if not (group == -np.eye(3, dtype=np.int64)).all(axis=(1, 2)).any():
        raise GeometryError("cell edges are not symmetric under x -> -x: the cell is not centred")
    return group, perm[ok]


def _densities(z: Zonotope, lat: Lattice, radii: list[float]):
    """Yield ``skeleton_density`` at each of the ascending ``radii``, built once: the edge pieces, the point group
    and its fold, the target, the exact density and the cone at the largest radius; ``_shell_pairs`` per radius."""
    if not len(radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be a nonempty ascending list, got {list(radii)}")
    for radius in radii:
        _check_radius(z, radius)
    _count_lines(lat, radii[-1] + z.circumradius())  # before any geometry: a needle's would fail
    start, end, m, reps = _pieces(z, lat)
    group, perm = _point_group(z, lat, (start + end) / 2.0)
    order, circ = len(group), z.circumradius()
    lengths = np.linalg.norm(end - start, axis=1)
    fold = np.isin(perm, reps).sum(axis=0)  # representatives among the images of piece j
    target = weighted_edge_functional(z, WeightPair(2.0, 1.0)) / z.volume()
    exact = math.fsum(lengths[reps].tolist()) / lat.covolume
    cone = _cone(lat, group, radii[-1] + circ)
    for radius in radii:
        pairs = _shell_pairs(start, end, radius)
        whole = np.zeros(len(lengths), dtype=np.int64)  # per piece, translates holding it whole, times their q
        cells, shell, crossing, totals, weighted = 0, 0, 0, [], []
        for counted, t, q in _ball_lines(lat, radius + circ, radius - circ, cone):
            inner = np.linalg.norm(t, axis=1) + circ < radius
            counted += int(q[inner].sum())
            q = q[~inner]
            inside, idx, chord = pairs(t[~inner])
            row, col = np.divmod(idx, len(lengths))
            w = q[row]
            full = chord == lengths[col]
            odd = np.flatnonzero(q != order)  # translates with a stabiliser beyond 1: few, and weighted apart
            whole += counted + order * np.count_nonzero(inside, axis=0) + (q[odd] - order) @ inside[odd]
            whole += np.bincount(col[full], w[full], len(lengths)).astype(np.int64)
            cut = (chord > 0.0) & ~full
            chord, col = (chord * w)[cut], col[cut]
            totals.append((chord * fold[col]).sum() / order)
            weighted.append((chord / m[col]).sum())
            cells += counted + int(q.sum())
            shell, crossing = shell + int(q.sum()), crossing + int(w.sum())
        held, rest = np.divmod(whole[perm].sum(axis=0), order)
        if rest.any():
            raise GeometryError(f"folded whole-edge count is not a multiple of |G| = {order}: an orbit weight is off")
        totals.extend((held * lengths)[reps].tolist())
        weighted.extend((held * lengths / m).tolist())
        total, weighted_total = math.fsum(totals), math.fsum(weighted)
        if abs(total - weighted_total) > 1e-9 * max(1.0, total):
            raise GeometryError(f"unique-edge total {total!r} and weighted total {weighted_total!r} disagree")
        density = total / (4.0 / 3.0 * math.pi * radius**3)
        yield DensityEstimate(radius, total, density, target, weighted_total, cells, shell, crossing, exact, order)


def skeleton_density(z: Zonotope, lat: Lattice, radius: float) -> DensityEstimate:
    """Edge length of the tiling per unit ball volume at one radius, and exactly.

    Two totals are formed over the cell's edge pieces of ``_pieces``:
    each tiling piece counted once, through the class representatives of
    every translate, and every piece weighted by 1/m.  Only one
    translate per orbit of the tiling's point group G is formed or
    counted, by ``_ball_lines``, with weight q, the orbit's size: g in G
    maps piece j of translate t onto piece perm[g, j] of translate g t,
    so pair (t, j) stands for its images.  Cells counted inside the ball
    or strictly inside it add q x length; of the other translates, pairs
    with both endpoints inside add length, and only the pairs that may
    cross the sphere are clipped and summed, a pairwise sum per block,
    by one ``_shell_pairs`` classifier.  A chord of piece j adds q/|G| x
    (the number of representatives among its images) to the first total
    and q/m to the second; whole counts, kept in integers scaled by |G|,
    fold as sum over g of whole[perm[g, j]], and a sum that |G| does not
    divide raises GeometryError.  The totals must agree to 1e-9.  The
    counts are those of the whole ball.  ``exact_density`` is the
    representatives' total length over the covolume; ``symmetries`` is
    |G|.  A ``convergence_series`` of one.
    """
    return tuple(_densities(z, lat, [radius]))[0]


def convergence_series(z: Zonotope, lat: Lattice, radii: list[float]) -> tuple[DensityEstimate, ...]:
    """Density estimates over strictly ascending radii, each the ``skeleton_density`` at its radius to the bit, from
    one geometry.  ValueError on no radii or one out of order; TooManyLines, before any ball, on one too wide."""
    return tuple(_densities(z, lat, radii))
