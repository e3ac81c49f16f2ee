"""Zonotopes generated by few segments, their face structure and belts.

A body here is a Minkowski sum of at most six line segments in R^3,
centered at the origin.  The face complex is built combinatorially: every
facet normal comes from a coplanar class of generators, every facet is a
zonogon of the generators in its class, and every vertex is a subset sum
of generators.  The boundary of each zonogon follows from the angular
order of its generators, read off the signs of triple products with the
facet normal: each member is turned to lie counterclockwise of the first
one, and det3(n, a, b) > 0 exactly when b follows a; no projection or
planar hull is formed.  A subset of generators is an integer bitmask, so
the whole complex is built on small integer arrays; working with subsets
instead of raw coordinates keeps the incidence structure exact, and
floating point only enters when positions, areas and normals are
evaluated.

The parametrized family built from a centered frame of four vectors
(summing to zero, unit triple products) with six nonnegative coefficients
covers the five combinatorial types of space-filling polytopes: the
parallelepiped, the hexagonal prism, the rhombic dodecahedron, its
elongated variant and the truncated octahedron.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from ._kernels import PAIRS, cross3, det3, volume_cubic

VECTOR_TOL = 1e-10
DET_TOL = 1e-12
COPLANAR_TOL = 1e-10


class GeometryError(ValueError):
    """Base class for all geometric input and construction errors."""


class NotCentered(GeometryError):
    """Frame vectors do not sum to zero within tolerance."""


class DegenerateFrame(GeometryError):
    """Some three frame vectors are linearly dependent."""


class FlatBody(GeometryError):
    """The nonzero segments do not span R^3."""


class ParallelSegments(GeometryError):
    """Two distinct nonzero segments are parallel; zones would be ambiguous."""


class BeltAnomaly(GeometryError):
    """A segment's zone has a size other than 4 or 6."""


class ConstructionError(GeometryError):
    """The face complex could not be assembled consistently."""


@dataclass(frozen=True)
class BetaVector:
    """Six nonnegative coefficients ordered like :data:`PAIRS`."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (6,):
            raise GeometryError("expected exactly six coefficients")
        if not np.isfinite(vals).all():
            raise GeometryError("coefficients must be finite")
        if (vals < 0).any():
            raise GeometryError("coefficients must be nonnegative")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class WeightPair:
    """Edge weights (alpha6 for six-belts, alpha4 for four-belts)."""

    alpha6: float
    alpha4: float

    def __post_init__(self) -> None:
        if not (0 < self.alpha6 < math.inf and 0 < self.alpha4 < math.inf):
            raise GeometryError("weights must be finite and positive")


@dataclass
class Zonotope:
    """A centered zonotope as arrays: its nonzero generators, vertices, edges and facets."""

    generators: np.ndarray          # (k, 3), the nonzero segments
    vertices: np.ndarray            # (V, 3), centered at the origin
    edge_vertex_ids: np.ndarray     # (E, 2) int
    edge_segment: np.ndarray        # (E,) int, row of generators
    facet_cycles: tuple[tuple[int, ...], ...]  # vertex ids of each facet, CCW seen from outside
    facet_normals: np.ndarray       # (F, 3), outward unit normals
    facet_areas: np.ndarray         # (F,)
    facet_members: np.ndarray       # (F, k) bool, the generators parallel to each facet

    def volume(self) -> float:
        """Volume by the divergence theorem over facet polygons, summed in facet order."""
        return sum((self.facet_areas * self.facet_planes()[1]).tolist()) / 3.0

    def circumradius(self) -> float:
        return float(np.linalg.norm(self.vertices, axis=1).max())

    def diameter(self) -> float:
        # centered body: the farthest vertex pair is antipodal
        return 2.0 * self.circumradius()

    def facet_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward normals (F, 3) and support offsets (F,) with n.x <= h."""
        first = self.vertices[[c[0] for c in self.facet_cycles]]
        return self.facet_normals, (first[:, None] @ self.facet_normals[:, :, None])[:, 0, 0]  # row dots

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        normals, offsets = self.facet_planes()
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return (pts @ normals.T <= offsets + tol).all(axis=1)


def validate_generators(raw: Iterable[Iterable[float]]) -> np.ndarray:
    """Normalize four frame vectors to the canonical scale and orientation: the frame as a (4, 3) array.

    The input must sum to zero (tolerance 1e-10 per coordinate) and any
    three vectors must be linearly independent.  The result is rescaled so
    det(v1, v2, v3) = +1, swapping the first two vectors when the input
    orientation is negative.  Inputs already satisfying the determinant
    convention within 1e-12 are returned unchanged.
    """
    v = np.asarray(raw, dtype=np.float64)
    if v.shape != (4, 3) or not np.isfinite(v).all():
        raise GeometryError("expected four finite vectors in R^3")
    if np.abs(v.sum(axis=0)).max() > VECTOR_TOL:
        raise NotCentered("frame vectors must sum to zero")
    d = float(det3(v[0], v[1], v[2]))
    scale = np.abs(v).max()
    if scale == 0.0 or abs(d) <= DET_TOL * scale**3:
        raise DegenerateFrame("frame has a dependent triple")
    if d < 0:
        v = v[[1, 0, 2, 3]]
        d = -d
    if abs(d - 1.0) > DET_TOL:
        v = v * d ** (-1.0 / 3.0)
    for tri in combinations(range(4), 3):
        if abs(abs(det3(*v[list(tri)])) - 1.0) > 1e-8:
            raise DegenerateFrame("triple products are not of unit magnitude")
    return v


def random_frame(rng: np.random.Generator) -> np.ndarray:
    """A random normalized frame: Gaussian v1, v2, v3 and v4 = -(v1 + v2 + v3),
    redrawn until |det(v1, v2, v3)| >= 5e-2, so slivers are rejected."""
    while True:
        v = rng.normal(size=(4, 3))
        v[3] = -(v[0] + v[1] + v[2])
        if abs(np.linalg.det(v[:3])) >= 5e-2:
            return validate_generators(v)


def segments_from_parameters(frame: np.ndarray, b: BetaVector) -> np.ndarray:
    """The six segments beta_ij (v_i x v_j) as (6, 3) rows ordered like :data:`PAIRS`, zero length allowed."""
    i, j = np.array(PAIRS).T
    return b.values[:, None] * cross3(frame[i], frame[j])


def volume_polynomial(tau: Sequence[float]) -> float:
    """The 16-term cubic giving the volume of the parametrized body.

    For any valid frame, the body built from coefficients ``tau`` has
    volume exactly ``volume_polynomial(tau)``; it is symmetric under
    relabeling the frame and vanishes exactly on the degenerate patterns.
    """
    t = np.asarray(tau, dtype=np.float64)
    if t.shape != (6,):
        raise GeometryError("expected six coefficients")
    return float(volume_cubic(*t))


_BITS = np.left_shift(1, np.arange(6))
#: Index pairs (i, j), i < j, of k segments in ``combinations`` order, as two rows.
_PAIR_INDEX = {k: np.array(list(combinations(range(k), 2))).reshape(-1, 2).T for k in range(7)}


def build_zonotope(generators) -> Zonotope:
    """Assemble the face complex of the Minkowski sum of the segments, given as rows.

    Zero-length segments are dropped.  The remaining ones must span R^3, with
    three singular values above 1e-12 times the longest segment, at any
    scale (:class:`FlatBody` otherwise), and be pairwise non-parallel
    (:class:`ParallelSegments`).  Norms, normals and signs are taken on the
    generators times the power of two that puts their largest |coordinate|
    in [2^-101, 2^100), so squares stay normal.  A set of segments is an
    integer bitmask.  The coplanar classes at relative tolerance
    ``COPLANAR_TOL`` are the distinct in-plane masks of the pair normals,
    in first-pair order, and each gives a facet for each sign of its
    normal.  A facet cycle starts at the facet's base (the segments on the
    normal's side) plus its turned members and toggles the members in the
    triple-product order of the module docstring, once per round; no hull
    is formed.  Vertex ids follow first occurrence in the cycles; vertices
    are subset sums, recentered so the body is symmetric about the origin.
    Each edge is a translate of one segment and carries its index.  A facet
    area that overflows raises :class:`ConstructionError`, without a warning,
    as does one that is not positive.  So the facet measure is a valid one:
    unit normals, positive areas, closed (facets come in +- pairs) and
    spanning R^3 (as the segments do).
    """
    gens = np.asarray(generators, dtype=np.float64)
    gens = gens.reshape(len(gens), 3)
    if len(gens) > 6:
        raise GeometryError("at most six segments are supported")
    e = math.frexp(np.abs(gens).max(initial=0.0))[1]
    scaled = np.ldexp(gens, min(max(e, -100), 100) - e)
    norms = np.linalg.norm(scaled, axis=1)
    keep = norms > 0.0
    k, gens, scaled, norms = int(keep.sum()), gens[keep], scaled[keep], norms[keep]
    if k < 3 or (np.linalg.svd(scaled, compute_uv=False) > 1e-12 * norms.max()).sum() < 3:
        raise FlatBody("nonzero segments do not span R^3")
    bit = _BITS[:k]

    i, j = _PAIR_INDEX[k]
    cr = cross3(scaled[i], scaled[j])
    crn = np.linalg.norm(cr, axis=1)
    parallel = crn <= COPLANAR_TOL * norms[i] * norms[j]
    if parallel.any():
        q = int(np.argmax(parallel))
        raise ParallelSegments(f"segments {i[q]} and {j[q]} are parallel")
    normals = cr / crn[:, None]
    masks, first, inverse = np.unique(
        (np.abs(normals @ scaled.T) <= COPLANAR_TOL * norms) @ bit, return_index=True, return_inverse=True
    )
    order = np.argsort(first)  # classes in first-pair order
    n0 = normals[first[order]]
    ref = first[inverse]  # the first pair of each pair's class, whose plane the later ones must share
    dots = (normals[ref, None] @ normals[:, :, None])[:, 0, 0]  # row dots, as 1-D ``@``
    if (np.abs(np.abs(dots[ref < np.arange(len(ref))]) - 1.0) > 1e-9).any():
        raise ConstructionError("inconsistent coplanar classes")
    n0[n0[np.arange(len(n0)), np.abs(n0).argmax(axis=1)] < 0] *= -1.0

    # facets 2c and 2c + 1 are class c about n0 and about -n0
    normal = np.empty((2 * len(n0), 3))
    normal[0::2], normal[1::2] = n0, -n0
    inbits = (np.repeat(masks[order], 2)[:, None] >> np.arange(k)) & 1
    base = (normal @ scaled.T > COPLANAR_TOL * norms) @ bit
    size = inbits.sum(axis=1)
    start = np.cumsum(2 * size) - 2 * size
    cyc = np.empty(2 * size.sum(), dtype=np.int64)
    groups = []  # facets and cycle positions per class size
    for c in sorted(set(size.tolist())):
        fs = np.flatnonzero(size == c)
        mem = np.nonzero(inbits[fs])[1].reshape(len(fs), c)
        g = scaled[mem]
        t = det3(normal[fs, None, None], g[:, :, None], g[:, None, :])  # det3(n, g_a, g_b)
        turned = t[:, 0] < 0
        sgn = np.where(turned, -1.0, 1.0)
        before = t * sgn[:, :, None] * sgn[:, None, :] > 0  # turned a precedes turned b
        toggle = bit[mem[np.arange(len(fs))[:, None], np.argsort(before.sum(axis=1), axis=1)]]
        corner = base[fs] | (turned * bit[mem]).sum(axis=1)
        pos = start[fs, None] + np.arange(2 * c)
        cyc[pos] = np.bitwise_xor.accumulate(
            np.concatenate([corner[:, None], toggle, toggle[:, :-1]], axis=1), axis=1
        )
        groups.append((fs, pos))

    vmask, vfirst, vinv = np.unique(cyc, return_index=True, return_inverse=True)
    vorder = np.argsort(vfirst)
    ids, vmask = np.argsort(vorder)[vinv], vmask[vorder]
    sums = np.zeros((1 << k, 3))  # every subset sum, added in ascending segment order
    for m in range(k):
        sums[1 << m : 2 << m] = sums[: 1 << m] + gens[m]
    center = gens.sum(axis=0) / 2.0
    verts = np.where(vmask[:, None] == 0, -center, sums[vmask] - center)

    nxt = np.arange(1, len(cyc) + 1)
    nxt[start + 2 * size - 1] = start
    diff = cyc ^ cyc[nxt]
    if not diff.all() or (diff & (diff - 1)).any():
        raise ConstructionError("facet cycle step is not a single segment")
    n_v = len(verts)
    ekeys, efirst, ecount = np.unique(
        np.minimum(ids, ids[nxt]) * n_v + np.maximum(ids, ids[nxt]),
        return_index=True, return_counts=True,
    )
    if (ecount != 2).any():
        raise ConstructionError("an edge is not shared by exactly two facets")

    area = np.empty(len(normal))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed area is refused below, not warned of
        for fs, pos in groups:
            corner = verts[ids[pos[:, :1]]]
            twice = cross3(verts[ids[pos]] - corner, verts[ids[nxt[pos]]] - corner).sum(axis=1)
            area[fs] = (twice[:, None] @ normal[fs, :, None])[:, 0, 0] / 2.0  # row dots, as 1-D ``@``
    if not np.isfinite(area).all():
        raise ConstructionError("facet areas overflow the doubles")
    if (area <= 0).any():
        raise ConstructionError("facet cycle is not counterclockwise about its normal")

    n_e, n_f = len(ekeys), len(normal)
    if n_v - n_e + n_f != 2:
        raise ConstructionError(f"Euler relation failed: V={n_v} E={n_e} F={n_f}")
    id_list, lo = ids.tolist(), start.tolist()
    return Zonotope(
        generators=gens,
        vertices=verts,
        edge_vertex_ids=np.stack([ekeys // n_v, ekeys % n_v], axis=1),
        edge_segment=np.log2(diff[efirst]).astype(np.int64),
        facet_cycles=tuple(tuple(id_list[a : a + 2 * c]) for a, c in zip(lo, size.tolist())),
        facet_normals=normal,
        facet_areas=area,
        facet_members=inbits == 1,
    )


def build_from_parameters(frame: np.ndarray, b: BetaVector) -> Zonotope:
    """Convenience: the body of the segments from (frame, b), zero-length entries dropped."""
    return build_zonotope(segments_from_parameters(frame, b))


def belts(z: Zonotope) -> np.ndarray:
    """Zone size of each segment, (k,) ints: the facets containing a translate of it.

    A facet belongs to the zone of a segment exactly when the segment is
    in the facet's coplanar class, i.e. one of its edges is labeled with
    that segment.  Every zone of a space-filling body of this family has
    size 4 or 6; anything else raises :class:`BeltAnomaly`.
    """
    sizes = z.facet_members.sum(axis=0)
    bad = np.flatnonzero((sizes != 4) & (sizes != 6))
    if len(bad):
        raise BeltAnomaly(f"segment {bad[0]} lies in {sizes[bad[0]]} facets")
    return sizes


def weighted_edge_functional(z: Zonotope, m: WeightPair) -> float:
    """Sum of segment lengths weighted by zone size (alpha4 or alpha6)."""
    g = z.generators
    lengths = np.sqrt((g[:, None] @ g[:, :, None])[:, 0, 0])  # row dots, as ``np.linalg.norm`` of a row
    return sum((np.where(belts(z) == 4, m.alpha4, m.alpha6) * lengths).tolist())


# ---------------------------------------------------------------------------
# canonical shapes


def cube(edge: float = 1.0) -> Zonotope:
    return build_zonotope(np.eye(3) * edge)


def hexagonal_prism(base_edge: float, height: float) -> Zonotope:
    """Right prism over a regular hexagon: three base segments at 60 degrees
    plus one lateral segment."""
    a, b = base_edge, height
    gens = np.array(
        [
            (a, 0.0, 0.0),
            (a / 2.0, a * math.sqrt(3.0) / 2.0, 0.0),
            (-a / 2.0, a * math.sqrt(3.0) / 2.0, 0.0),
            (0.0, 0.0, b),
        ]
    )
    return build_zonotope(gens)


_DIAGONALS = np.array([(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)], dtype=np.float64) / math.sqrt(3.0)


def rhombic_dodecahedron(edge: float = 1.0) -> Zonotope:
    """Zonotope of the four main diagonals of a cube, all of length ``edge``."""
    return build_zonotope(_DIAGONALS * edge)


def elongated_rhombic_dodecahedron(half_width: float, half_height: float, axis: float) -> Zonotope:
    """The four diagonals of the box [-half_width, half_width]^2 x [-half_height, half_height] plus an axial
    segment of length ``axis``; a cube's diagonals are the rhombic dodecahedron's."""
    w, c = half_width, half_height
    return build_zonotope([(w, w, c), (w, w, -c), (w, -w, c), (-w, w, c), (0.0, 0.0, axis)])


def truncated_octahedron(edge: float = 1.0) -> Zonotope:
    """Zonotope of the six segments joining midpoints of opposite cube edges."""
    dirs = np.array(
        [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)],
        dtype=np.float64,
    )
    return build_zonotope(dirs / np.linalg.norm(dirs, axis=1)[:, None] * edge)


def unit_volume(z: Zonotope) -> Zonotope:
    """The body rescaled to volume 1: every segment scaled by vol^(-1/3)."""
    return build_zonotope(z.generators * z.volume() ** (-1.0 / 3.0))


#: Edges that give the regular shapes unit volume: the hexagonal prism (base edge = height),
#: the rhombic dodecahedron and the truncated octahedron.
HEXPRISM_EDGE = (2.0 / (3.0 * math.sqrt(3.0))) ** (1.0 / 3.0)
RHOMBIC_EDGE = math.sqrt(3.0) / 2.0 ** (4.0 / 3.0)
TRUNCOCTA_EDGE = 2.0 ** (-7.0 / 6.0)
#: Edge, and so elongation, of the elongated rhombic dodecahedron before it is rescaled to unit volume: the
#: diagonals of the cube of half-side ELONGATION / sqrt(3) (rounded as the rhombic dodecahedron's) and an axis as long.
ELONGATION = 0.6
_ELONGATED_HALF_SIDE = _DIAGONALS[0, 0] * ELONGATION

_UNIT_SHAPES = {
    "cube": cube,
    "hexprism": lambda: hexagonal_prism(HEXPRISM_EDGE, HEXPRISM_EDGE),
    "rhombic": lambda: rhombic_dodecahedron(RHOMBIC_EDGE),
    "elongated": lambda: unit_volume(
        elongated_rhombic_dodecahedron(_ELONGATED_HALF_SIDE, _ELONGATED_HALF_SIDE, ELONGATION)
    ),
    "truncocta": lambda: truncated_octahedron(TRUNCOCTA_EDGE),
}
#: Names of the five unit-volume parallelohedra of :func:`unit_shape`.
UNIT_SHAPES = tuple(_UNIT_SHAPES)


def unit_shape(name: str) -> Zonotope:
    """The unit-volume parallelohedron ``name``, one of :data:`UNIT_SHAPES` (KeyError otherwise)."""
    return _UNIT_SHAPES[name]()


def to_json(z: Zonotope) -> dict:
    """Versioned plain-JSON document for a built body."""
    return {
        "schema": "1",
        "generators": z.generators.tolist(),
        "vertices": z.vertices.tolist(),
        "edges": np.column_stack([z.edge_vertex_ids, z.edge_segment]).tolist(),
        "facets": [
            {"vertices": list(c), "normal": n, "area": a}
            for c, n, a in zip(z.facet_cycles, z.facet_normals.tolist(), z.facet_areas.tolist())
        ],
    }


def from_json(doc: dict | str) -> Zonotope:
    """Rebuild a body from :func:`to_json` output and cross-check counts."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise GeometryError("document is not a JSON object")
    if doc.get("schema") != "1":
        raise GeometryError("unsupported document schema")
    gens = np.asarray(doc["generators"], dtype=np.float64)
    if gens.ndim != 2 or gens.shape[1] != 3 or not np.isfinite(gens).all():
        raise GeometryError("generators must be a list of finite 3-vectors")
    z = build_zonotope(gens)
    if len(z.vertices) != len(doc["vertices"]) or len(z.edge_vertex_ids) != len(doc["edges"]):
        raise ConstructionError("stored complex does not match the rebuilt body")
    return z
