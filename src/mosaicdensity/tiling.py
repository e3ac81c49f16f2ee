"""Lattice tilings by parallelohedra, skeleton density in a ball and exactly.

A parallelohedron tiles space face to face by lattice translates.  This
module finds a tiling lattice (doubled facet centers supply candidate
vectors), certifies it exactly (no two translates overlap and the
covolume equals the cell volume, so the translates tile), and measures
the total edge length of the tiling inside a large ball from edge
orbits: the edges of one cell fall into classes of lattice translates,
one class per orbit of tiling edges, and a class has one member per
cell sharing the edge, 4 on a 4-belt and 3 on a 6-belt.
So the per-cell functional with weights (2, 1) over cell volume is the limit
density, and the sum of the class representatives' lengths over the covolume
is the density exactly.  The cell is centred and the lattice symmetric, so the
skeleton is symmetric under x -> -x, which takes edge j of translate t to edge
sigma(j) of translate -t.  Translates are enumerated line by line over half the
ball, the (0, 0) line and the lines after it, and each other line stands for its
mirror too: cells strictly inside the ball are mostly counted, not formed, and
add their edge lengths in closed form; edges near the sphere are whole, missing
or crossing by their endpoint norms, and only crossing edges are clipped and
summed, in work arrays reused from block to block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _kernels
from .zonotope import (
    BeltClass,
    GeometryError,
    WeightPair,
    Zonotope,
    belts,
    weighted_edge_functional,
)


class NoValidBasis(GeometryError):
    """No facet-center triple generates a valid tiling lattice."""


class NotFaceToFace(GeometryError):
    """A lattice edge class is not its belt's sharing count: the tiling is not face to face."""


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


def _ball_lines(basis: np.ndarray, rmax: float, rin: float = 0.0):
    """Lattice vectors of norm at most rmax in half the ball: per block of lines, a count and a band.

    Each line c1 b1 + c2 b2 + c3 b3 of the LLL-reduced basis meets a ball in
    one c3 interval.  Points whose two neighbours on the line lie in the interval
    of radius ``rin`` are counted (by convexity |t|^2 <= rin^2 - |b3|^2); the rest
    of the interval of radius rmax, rounded outwards, is formed from the stored
    basis and kept where norm(t) <= rmax, in lexicographic (c1, c2, c3) order.
    Only the (0, 0) line, alone in the first block, and the lines after it in
    lexicographic (c1, c2) order are enumerated; the line -(c1, c2) holds the
    negated points, with the same count, so the lines before (0, 0) are the
    mirror image of the lines after it.
    """
    u = _lll_unimodular(basis)
    red = u @ basis
    # |c_i| <= |t| * ||column i of basis inverse|| for t = c @ basis
    lim = np.floor(np.linalg.norm(np.linalg.inv(red), axis=0)[:2] * rmax).astype(np.int64) + 1
    c12 = np.stack(np.meshgrid(*(np.arange(-l, l + 1) for l in lim), indexing="ij"), -1).reshape(-1, 2)
    c12 = c12[len(c12) // 2 :]  # (0, 0) sits in the middle of the symmetric table
    g = red @ red.T  # |c @ red|^2 = c g c
    mid = -(c12 @ g[:2, 2]) / g[2, 2]
    d2 = ((c12 @ g[:2, :2]) * c12).sum(axis=1) - g[2, 2] * mid * mid  # squared distance of a line from 0
    near = d2 <= rmax * rmax * (1.0 + 1e-9)  # a margin for rounding; bands are exact
    c12, mid, d2 = c12[near], mid[near], d2[near]
    half, half_in = (np.sqrt(np.maximum(r * r - d2, 0.0) / g[2, 2]) for r in (rmax, rin))
    lo, hi = np.floor(mid - half).astype(np.int64), np.ceil(mid + half).astype(np.int64)
    lo_in = np.ceil(mid - half_in).astype(np.int64) + 1  # lo < lo_in <= hi + 1
    count = np.maximum(np.floor(mid + half_in).astype(np.int64) - lo_in, 0)
    band = hi - lo + 1 - count
    bounds = [0, *range(1, len(lo), _LINE_CHUNK), len(lo)]  # the (0, 0) line is always near
    for k, stop in zip(bounds, bounds[1:]):
        n = band[k:stop]
        line = np.repeat(np.arange(k, stop), n)
        c3 = lo[line] + np.arange(len(line)) - np.repeat(np.cumsum(n) - n, n)
        c3 += np.where(c3 >= lo_in[line], count[line], 0)  # step over the counted run
        t = (np.column_stack([c12[line], c3]) @ u) @ basis
        yield int(count[k:stop].sum()), t[np.linalg.norm(t, axis=1) <= rmax]


@dataclass(frozen=True)
class Lattice:
    """Three independent vectors, one per row."""

    basis: np.ndarray  # (3, 3)

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=np.float64)
        if b.shape != (3, 3) or not np.isfinite(b).all():
            raise ValueError("basis must be a finite 3x3 array")
        if abs(np.linalg.det(b)) < 1e-12:
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "basis", b)

    @property
    def covolume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    def points_in_ball(self, rmax: float) -> np.ndarray:
        """All lattice vectors of norm at most rmax, in lexicographic coefficient
        order: the half ball of ``_ball_lines`` and its mirror image."""
        zero, *rest = (band for _, band in _ball_lines(self.basis, rmax))
        after = np.concatenate([zero[:0], *rest])
        # 0 - t, not -t: a zero coordinate stays +0.0, as the matmul forms it
        return np.concatenate([0.0 - after[::-1], zero, after])


@dataclass(frozen=True)
class DensityEstimate:
    radius: float
    skeleton_length: float
    density: float
    target: float
    weighted_length: float
    cells: int
    shell: int  # translates whose edges were classified one by one
    crossing: int  # (translate, edge) pairs given to the chord formula
    exact_density: float  # the class representatives' total length over the covolume

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
    """Interior-intersection witness or None, and the number of nonzero translates screened.

    Translates z and z + t overlap iff t/2 lies in the interior of z.  An
    interior point of the centered body is interior to its circumscribed
    ball, so |t/2| < circumradius and |t| < diameter: the lattice points
    within the diameter are all that need screening.
    """
    normals, offsets = z.facet_planes()
    t = lat.points_in_ball(z.diameter() + 1e-9)
    t = t[np.linalg.norm(t, axis=1) > 1e-12]
    inside = ((t @ normals.T) / (2.0 * offsets) < 1.0 - 1e-12).all(axis=1)
    return (t[np.argmax(inside)] / 2.0 if inside.any() else None), len(t)


def _gap_witness(
    z: Zonotope, lat: Lattice, samples: int, seed: int
) -> tuple[np.ndarray | None, int]:
    """The first uncovered one of at most ``samples`` random points of a
    fundamental domain, or None, and how many points were drawn.

    Each point is tested against the translates at its 27 nearest
    lattice coordinates; the search stops at the first chunk holding one.
    """
    rng = np.random.default_rng(seed)
    binv = np.linalg.inv(lat.basis)
    shifts = np.indices((3, 3, 3)).reshape(3, -1).T - 1
    for lo in range(0, samples, 65536):
        n = min(65536, samples - lo)
        x = rng.random((n, 3)) @ lat.basis
        base = np.rint(x @ binv)
        ok = np.zeros(n, dtype=bool)
        for s in shifts:
            ok |= z.contains(x - (base + s) @ lat.basis, tol=1e-9)
        if not ok.all():
            return x[np.argmin(ok)].copy(), lo + n
    return None, max(samples, 0)


def validate_tiling(
    z: Zonotope, lat: Lattice, samples: int = 1_000_000, seed: int = 0
) -> TilingReport:
    """Certify exactly that lattice translates of z tile space, sampling nothing.

    z is convex and centrally symmetric, so z and z + t overlap iff t/2
    is interior to z.  Without such t the translates pack with density
    vol/covolume, and a lattice packing of density 1 is a tiling: an
    uncovered set would be open and periodic, so of positive density
    (P. McMullen, "Convex bodies which tile space by translation",
    Mathematika 27 (1980); P. M. Gruber, Convex and Discrete Geometry
    (2007)).  Raises Overlap with its witness; Gap if covolume > volume,
    with a witness from at most ``samples`` points drawn from ``seed``;
    GeometryError if covolume < volume with no overlap, which the
    packing bound rules out, so the overlap screen is at fault.
    """
    witness, checked = _has_overlap(z, lat)
    if witness is not None:
        raise Overlap(f"translate interiors meet near {witness}", witness)
    vol = z.volume()
    det = lat.covolume
    if det - vol > 1e-9 * max(1.0, vol):
        gap, drawn = _gap_witness(z, lat, samples, seed)
        msg = f"covolume {det:.12g} > volume {vol:.12g}; uncovered point {gap} in {drawn} samples"
        raise Gap(msg, gap)
    if vol - det > 1e-9 * max(1.0, vol):
        msg = f"covolume {det:.12g} < volume {vol:.12g}, yet no overlap in {checked} translates"
        raise GeometryError(f"overlap screen fault: {msg}")
    return TilingReport(det, vol, checked, 1.0, 0)


def lattice_from_parallelohedron(z: Zonotope) -> Lattice:
    """Find a tiling lattice among doubled facet centers.

    Accepts the first centroid triple whose covolume matches the cell
    volume and whose translates stay disjoint; the covolume test alone
    is not sufficient (some triples give half-volume fundamental
    domains), so the overlap screen is part of the search.
    """
    vol = z.volume()
    centers = np.array(
        [2.0 * z.vertices[list(f.vertex_ids)].mean(axis=0) for f in z.facets]
    )
    for tri in combinations(range(len(centers)), 3):
        b = centers[list(tri)]
        if abs(abs(np.linalg.det(b)) - vol) > 1e-9 * max(1.0, vol):
            continue
        lat = Lattice(b)
        if _has_overlap(z, lat)[0] is None:
            return lat
    raise NoValidBasis("no facet-center triple yields a disjoint unit-index lattice")


@dataclass(frozen=True)
class EdgeClasses:
    """Cell edges oriented along their segments, in lattice-translation classes."""

    start: np.ndarray  # (E, 3)
    end: np.ndarray  # (E, 3)
    share: np.ndarray  # (E,) sharing count k: 4 on a 4-belt, 3 on a 6-belt
    members: tuple[tuple[int, ...], ...]  # edge ids of each class, ascending
    reps: np.ndarray  # the first member of each class represents it


def edge_classes(z: Zonotope, lat: Lattice) -> EdgeClasses:
    """Split the cell edges into classes of lattice translates.

    Two edges are in one class when they carry the same segment label
    and their start points differ by a lattice vector, i.e. by integer
    coordinates under the basis (to within 1e-7).  In a face to face
    lattice tiling the class of an edge lists its position in every cell
    containing it, so each class size must equal the belt's sharing
    count; a mismatch raises :class:`NotFaceToFace`.
    """
    labels = z.edge_segment
    ends = z.vertices[z.edge_vertex_ids]  # (E, 2, 3)
    dirs = np.array([s.direction for s in z.segments])[labels]
    flip = ((ends[:, 1] - ends[:, 0]) * dirs).sum(axis=1) < 0
    ends[flip] = ends[flip, ::-1]
    start, end = ends[:, 0], ends[:, 1]
    share = np.array([4 if b is BeltClass.FOUR else 3 for b in belts(z)])[labels]
    frac = start @ np.linalg.inv(lat.basis)
    d = frac[:, None] - frac[None]
    same = (labels[:, None] == labels) & (np.abs(d - np.rint(d)) < 1e-7).all(axis=2)
    members = tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in same}))
    sizes = same.sum(axis=1)
    if (sizes != share).any() or sum(map(len, members)) != len(labels):
        bad = int(np.abs(sizes - share).max())
        raise NotFaceToFace(f"tiling is not face to face: edge multiplicity off by {bad} in a lattice edge class")
    return EdgeClasses(start, end, share, members, np.array([m[0] for m in members]))


def _check_radius(z: Zonotope, radius: float) -> None:
    """Raise RadiusTooSmall unless radius is finite and at least 3x the cell diameter."""
    floor = 3.0 * z.diameter()
    if not (math.isfinite(radius) and radius >= floor):
        raise RadiusTooSmall(
            f"radius must be finite and at least 3x cell diameter {floor:.6g}, got {radius}"
        )


def _shell_pairs(start: np.ndarray, end: np.ndarray, radius: float):
    """Classifier pairs(t): the (S, E) mask of pairs (translate t[i], edge start[j]-end[j]) inside the
    ball, and the flat indices and chords of the pairs that may cross the sphere; the rest miss, as for
    p(s) = t + start + s d, |p(s)|^2 = (1 - s)|p(0)|^2 + s|p(1)|^2 - s(1 - s)|d|^2.  Per-edge constants
    are formed once; each call works in place in arrays valid until the next, grown to twice the t that
    outgrows them: blocks of the half ball grow outwards from the (0, 0) line, and each fresh array faults
    in its pages."""
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


def _antipodal_edges(start: np.ndarray, end: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """sigma with start[sigma] = -end and end[sigma] = -start: x -> -x maps edge j to sigma(j).

    The edge of the same segment label whose start is nearest -end[j] is taken;
    raises GeometryError unless it lies within 1e-9 and sigma is an involution.
    """
    gap = np.abs(start[None] + end[:, None]).max(axis=2)  # gap[j, i] = |start[i] + end[j]|_inf
    gap[labels[:, None] != labels[None]] = np.inf
    sigma = gap.argmin(axis=1)
    ids = np.arange(len(sigma))
    if not (gap[ids, sigma] <= 1e-9).all() or (sigma[sigma] != ids).any():
        raise GeometryError("cell edges are not symmetric under x -> -x: the cell is not centred")
    return sigma


def skeleton_density(z: Zonotope, lat: Lattice, radius: float) -> DensityEstimate:
    """Edge length of the tiling per unit ball volume at one radius, and exactly.

    Two totals are formed: each tiling edge counted once, through the
    class representatives of every translate, and every cell edge
    weighted by 1/k.  Cells counted inside the ball by ``_ball_lines``
    or strictly inside it add count x length; of the other translates,
    pairs with both endpoints inside add length, and only the pairs that
    may cross the sphere are clipped and summed, a pairwise sum per block,
    by one ``_shell_pairs`` classifier.  Only half the ball is enumerated:
    the (0, 0) line has weight 1, and each other line weight 2, as pair
    (t, j) stands for its mirror (-t, sigma(j)) too.  So a chord of edge j
    adds (rep_j + rep_sigma(j)) to the first total and 2/k to the second,
    and the translates holding edge j whole number whole[j] + whole[sigma(j)].
    The totals must agree to 1e-9.  The counts are those of the whole ball.
    ``exact_density`` is the representatives' total length over the covolume.
    """
    _check_radius(z, radius)
    cls = edge_classes(z, lat)
    sigma = _antipodal_edges(cls.start, cls.end, z.edge_segment)
    circ, pairs = z.circumradius(), _shell_pairs(cls.start, cls.end, radius)
    lengths = np.linalg.norm(cls.end - cls.start, axis=1)
    rep = np.isin(np.arange(len(lengths)), cls.reps).astype(np.float64)
    fold = (rep, rep + rep[sigma])  # chord weights of the (0, 0) line and of the other lines
    whole = np.zeros((2, len(lengths)), dtype=np.int64)  # per line kind and edge, translates holding it whole
    cells, shell, crossing, totals, weighted = 0, 0, 0, [], []
    for k, (counted, t) in enumerate(_ball_lines(lat.basis, radius + circ, radius - circ)):
        m = min(k, 1)  # block 0 is the (0, 0) line, its own mirror image
        w = m + 1  # the lines that each line of the block stands for
        inner = np.linalg.norm(t, axis=1) + circ < radius
        cells += w * (counted + len(t))
        inside, idx, chord = pairs(t[~inner])
        col = idx % len(lengths)
        full = chord == lengths[col]
        whole[m] += counted + int(inner.sum()) + np.count_nonzero(inside, axis=0)
        whole[m] += np.bincount(col[full], minlength=len(lengths))
        cut = (chord > 0.0) & ~full
        totals.append((chord * fold[m][col])[cut].sum())
        weighted.append(w * (chord / cls.share[col])[cut].sum())
        shell, crossing = shell + w * len(inside), crossing + w * len(chord)
    held = whole[0] + whole[1] + whole[1][sigma]
    totals.extend((held * lengths)[cls.reps].tolist())
    weighted.extend((held * lengths / cls.share).tolist())
    total, weighted_total = math.fsum(totals), math.fsum(weighted)
    if abs(total - weighted_total) > 1e-9 * max(1.0, total):
        raise GeometryError(
            f"unique-edge total {total!r} and weighted total {weighted_total!r} disagree"
        )
    density = total / (4.0 / 3.0 * math.pi * radius**3)
    target = weighted_edge_functional(z, WeightPair(2.0, 1.0)) / z.volume()
    exact = math.fsum(lengths[cls.reps].tolist()) / lat.covolume
    return DensityEstimate(radius, total, density, target, weighted_total, cells, shell, crossing, exact)


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[DensityEstimate, ...]

    @property
    def final_relative_error(self) -> float:
        return self.rows[-1].relative_error


def convergence_series(z: Zonotope, lat: Lattice, radii: list[float]) -> ConvergenceReport:
    """Density estimates over ascending radii."""
    if list(radii) != sorted(radii):
        raise ValueError("radii must ascend")
    rows = tuple(skeleton_density(z, lat, r) for r in radii)
    return ConvergenceReport(rows)
