"""Tiling lattices, validation witnesses, and skeleton density."""

import dataclasses
import math
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, cKDTree

from conftest import line_count, random_body
from mosaicdensity import tiling as TL
from mosaicdensity._kernels import segment_ball_clip
from mosaicdensity.zonotope import (
    UNIT_SHAPES,
    GeometryError,
    belts,
    cube,
    elongated_rhombic_dodecahedron,
    unit_shape,
    unit_volume,
)


def _ball_clip(p, q, radius):
    """Length of each segment pq inside the ball, from |p + s(q - p)| = radius."""
    d = q - p
    a = (d * d).sum(axis=1)
    half_b = (p * d).sum(axis=1)
    disc = half_b**2 - a * ((p * p).sum(axis=1) - radius**2)
    root = np.sqrt(np.maximum(disc, 0.0))
    lo = np.clip((-half_b - root) / a, 0.0, 1.0)
    hi = np.clip((-half_b + root) / a, 0.0, 1.0)
    return np.where(disc > 0.0, (hi - lo) * np.sqrt(a), 0.0)


def _reference_skeleton_length(z, lat, radius, tol=1e-7):
    """Every edge of every translate near the ball, merged when both
    endpoints match within tol, each merged edge clipped once.

    Also checks that each merged edge meeting the ball lies in as many
    cells as its belt says.
    """
    rmax = radius + z.circumradius()
    n = int(rmax * np.abs(np.linalg.inv(lat.basis)).sum(axis=0).max()) + 1
    axis = np.arange(-n, n + 1)
    coeffs = np.array(np.meshgrid(axis, axis, axis, indexing="ij")).reshape(3, -1).T
    t = coeffs @ lat.basis
    t = t[np.linalg.norm(t, axis=1) <= rmax, None]
    p = (t + z.vertices[z.edge_vertex_ids[:, 0]]).reshape(-1, 3)
    q = (t + z.vertices[z.edge_vertex_ids[:, 1]]).reshape(-1, 3)
    i, j = cKDTree((p + q) / 2.0).query_pairs(tol, output_type="ndarray").T

    def near(u, v):
        return np.linalg.norm(u - v, axis=1) < tol

    same = (near(p[i], p[j]) & near(q[i], q[j])) | (near(p[i], q[j]) & near(q[i], p[j]))
    graph = coo_matrix((np.ones(same.sum()), (i[same], j[same])), shape=(len(p), len(p)))
    _, group = connected_components(graph, directed=False)
    _, first, size = np.unique(group, return_index=True, return_counts=True)
    clip = _ball_clip(p[first], q[first], radius)
    share = np.where(belts(z) == 4, 4, 3)[z.edge_segment]
    label = np.tile(share, len(t))[first]
    assert (size[clip > 0] == label[clip > 0]).all()
    return math.fsum(clip.tolist())


def _shell_pairs_reference(t, start, end, radius):
    """The shell classification with fresh temporaries for every block of translates:
    the (S, E) whole mask, and the flat indices and chords of the pairs that may cross."""
    d = end - start
    a = (d * d).sum(axis=1)
    b = 2.0 * (t @ d.T + (start * d).sum(axis=1))
    c = (t * t).sum(axis=1)[:, None] + 2.0 * (t @ start.T) + (start * start).sum(axis=1)
    c1, r2 = c + b + a, radius * radius  # c = |p(0)|^2, c1 = |p(1)|^2
    inside, near = r2 * (1.0 - 1e-12), r2 * (1.0 + 1e-12) + a / 4.0
    whole = (c <= inside) & (c1 <= inside)
    idx = np.flatnonzero(((c <= near) | (c1 <= near)) & ~whole)
    return whole, idx, TL._kernels._chord_lengths(a[idx % len(a)], b.ravel()[idx], c.ravel()[idx] - r2)


def _ball_lines_full_reference(basis, rmax, rin):
    """The line enumeration over the whole ball, every line of the coefficient table
    in lexicographic order, 256 lines per block: a count and a band per block."""
    u = TL._lll_unimodular(basis)
    red = u @ basis
    lim = np.floor(np.linalg.norm(np.linalg.inv(red), axis=0)[:2] * rmax).astype(np.int64) + 1
    c12 = np.stack(np.meshgrid(*(np.arange(-l, l + 1) for l in lim), indexing="ij"), -1).reshape(-1, 2)
    g = red @ red.T
    mid = -(c12 @ g[:2, 2]) / g[2, 2]
    d2 = ((c12 @ g[:2, :2]) * c12).sum(axis=1) - g[2, 2] * mid * mid
    near = d2 <= rmax * rmax * (1.0 + 1e-9)
    c12, mid, d2 = c12[near], mid[near], d2[near]
    half, half_in = (np.sqrt(np.maximum(r * r - d2, 0.0) / g[2, 2]) for r in (rmax, rin))
    lo, hi = np.floor(mid - half).astype(np.int64), np.ceil(mid + half).astype(np.int64)
    lo_in = np.ceil(mid - half_in).astype(np.int64) + 1
    count = np.maximum(np.floor(mid + half_in).astype(np.int64) - lo_in, 0)
    band = hi - lo + 1 - count
    for k in range(0, len(lo), 256):
        n = band[k : k + 256]
        line = np.repeat(np.arange(k, k + len(n)), n)
        c3 = lo[line] + np.arange(len(line)) - np.repeat(np.cumsum(n) - n, n)
        c3 += np.where(c3 >= lo_in[line], count[line], 0)
        t = (np.column_stack([c12[line], c3]) @ u) @ basis
        yield int(count[k : k + 256].sum()), t[np.linalg.norm(t, axis=1) <= rmax]


def _skeleton_density_full_reference(z, lat, radius):
    """skeleton_density over every translate of the whole ball, without the mirror fold:
    (cells, shell, crossing, density, skeleton length, weighted length)."""
    start, end, m, reps = TL._pieces(z, lat)
    circ = z.circumradius()
    lengths = np.linalg.norm(end - start, axis=1)
    is_rep = np.isin(np.arange(len(lengths)), reps)
    whole = np.zeros(len(lengths), dtype=np.int64)
    cells, shell, crossing, totals, weighted = 0, 0, 0, [], []
    for counted, t in _ball_lines_full_reference(lat.basis, radius + circ, radius - circ):
        inner = np.linalg.norm(t, axis=1) + circ < radius
        cells += counted + len(t)
        inside, idx, chord = _shell_pairs_reference(t[~inner], start, end, radius)
        col = idx % len(lengths)
        full = chord == lengths[col]
        whole += counted + int(inner.sum()) + np.count_nonzero(inside, axis=0)
        whole += np.bincount(col[full], minlength=len(lengths))
        cut = (chord > 0.0) & ~full
        totals.append(chord[cut & is_rep[col]].sum())
        weighted.append((chord / m[col])[cut].sum())
        shell, crossing = shell + len(inside), crossing + len(chord)
    totals.extend((whole * lengths)[reps].tolist())
    weighted.extend((whole * lengths / m).tolist())
    total, weighted_total = math.fsum(totals), math.fsum(weighted)
    assert abs(total - weighted_total) <= 1e-9 * max(1.0, total)
    return cells, shell, crossing, total / (4.0 / 3.0 * math.pi * radius**3), total, weighted_total


def _box_points_reference(basis, rmax):
    """Lattice vectors of norm at most rmax from the whole coefficient box
    of the LLL-reduced basis, in lexicographic coefficient order."""
    u = TL._lll_unimodular(basis)
    # |c_i| <= |t| * ||column i of basis inverse|| for t = c @ basis
    lim = np.linalg.norm(np.linalg.inv(u @ basis), axis=0) * rmax
    axes = [np.arange(-math.floor(l) - 1, math.floor(l) + 2) for l in lim]
    coeffs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    t = (coeffs @ u) @ basis
    return t[np.linalg.norm(t, axis=1) <= rmax]


def _reference_uncovered(z, lat, x, tol=1e-9):
    """Mask of the points x that lie in none of the 27 translates around
    their nearest lattice coordinates, by the hull inequalities of the
    vertices rather than the body's own facet list."""
    hull = ConvexHull(z.vertices).equations  # a.x + b <= 0 inside
    base = np.rint(x @ np.linalg.inv(lat.basis))
    covered = np.zeros(len(x), dtype=bool)
    for shift in product((-1, 0, 1), repeat=3):
        rel = x - (base + shift) @ lat.basis
        covered |= (rel @ hull[:, :3].T + hull[:, 3] <= tol).all(axis=1)
    return ~covered


class TestLattice:
    def test_validation(self):
        with pytest.raises(ValueError):
            TL.Lattice(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            TL.Lattice(np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]]))
        assert abs(TL.Lattice(np.eye(3) * 2.0).covolume - 8.0) < 1e-12

    def test_dependency_is_relative_to_the_scale(self):
        # |det| is compared with the product of the row norms, so small cells keep their lattice
        assert TL.Lattice(np.eye(3) * 1e-5).covolume == pytest.approx(1e-15, rel=1e-12)
        with pytest.raises(ValueError, match="linearly dependent"):
            TL.Lattice(np.array([[1e3, 0, 0], [0, 1e3, 0], [1e3, 1e3, 1e-10]]))

    @pytest.mark.parametrize("scale", [1e-100, 1e100, 1e-110, 1e110, 1e160])
    def test_covolume_in_the_doubles(self, scale):
        # the dependence test runs on the basis scaled by a power of two, so a covolume that leaves the
        # doubles is refused as such, in one line and without a numpy warning, not as a dependent basis
        basis = np.eye(3) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if 1e-100 <= scale <= 1e100:
                assert TL.Lattice(basis).covolume == pytest.approx(scale**3, rel=1e-12)
                return
            with pytest.raises(ValueError, match="^basis covolume is not a finite positive double$"):
                TL.Lattice(basis)

    def test_points_in_ball_integer_lattice(self):
        lat = TL.Lattice(np.eye(3))
        pts = lat.points_in_ball(2.5)
        norms = np.linalg.norm(pts, axis=1)
        assert (norms <= 2.5).all()
        # brute-force count over the integer cube
        grid = np.array(
            [
                (i, j, k)
                for i in range(-3, 4)
                for j in range(-3, 4)
                for k in range(-3, 4)
                if i * i + j * j + k * k <= 2.5**2
            ]
        )
        assert len(pts) == len(grid)
        assert (norms == 0).sum() == 1

    def test_points_in_ball_sheared_integer_lattice(self):
        sheared = TL.Lattice(np.array([[1.0, 0, 0], [50.0, 1, 0], [30.0, 0, 1]]))
        got = np.rint(sheared.points_in_ball(4.0)).astype(int)
        want = np.rint(TL.Lattice(np.eye(3)).points_in_ball(4.0)).astype(int)
        assert len(got) == len(want)
        assert set(map(tuple, got.tolist())) == set(map(tuple, want.tolist()))

    def test_points_in_ball_skewed(self):
        lat = TL.Lattice(np.array([[1.0, 0.9, 0.0], [0.0, 1.0, 0.8], [0.0, 0.0, 1.0]]))
        pts = lat.points_in_ball(3.0)
        assert (np.linalg.norm(pts, axis=1) <= 3.0).all()
        # closure under negation
        keys = {tuple(np.round(p, 9)) for p in pts}
        assert all(tuple(np.round(-p, 9)) in keys for p in pts)


BASES = {
    "z3": np.eye(3),
    "sheared": np.array([[1.0, 0, 0], [50.0, 1, 0], [30.0, 0, 1]]),
    "skewed": np.array([[1.0, 0.9, 0.0], [0.0, 1.0, 0.8], [0.0, 0.0, 1.0]]),
}


#: cube lattices whose layers, or layers and rows, are slid: exact density, and the order of the point group
SLID_CUBES = {
    (0.3, 0.0): ([[1.0, 0, 0], [0, 1.0, 0], [0.3, 0, 1.0]], 4.0, 4),
    (0.5, 0.0): ([[1.0, 0, 0], [0, 1.0, 0], [0.5, 0, 1.0]], 4.0, 8),
    (0.3, 0.2): ([[1.0, 0, 0], [0, 1.0, 0], [0.3, 0.2, 1.0]], 5.0, 2),
    "rows too": ([[1.0, 0, 0], [0.2, 1.0, 0], [0.3, 0.4, 1.0]], 6.0, 2),
}


def _basis(name, unit_shapes):
    if name in BASES:
        return BASES[name]
    return TL.lattice_from_parallelohedron(unit_shapes[name]).basis


def _group(z, lat):
    """The tiling's point group on lattice coefficients, and its piece permutations."""
    start, end, _, _ = TL._pieces(z, lat)
    return TL._point_group(z, lat, (start + end) / 2.0)


#: x -> x and x -> -x, on any coefficients: the group of a generic body's tiling
_CENTRAL = np.array([np.eye(3), -np.eye(3)], dtype=np.int64)


def _coefficients(lat, t):
    return np.rint(t @ np.linalg.inv(lat.basis)).astype(np.int64)


def _orbit_sizes(lat, group, t):
    """The number of distinct images of each lattice vector t under the group."""
    images = _coefficients(lat, t) @ group  # (G, S, 3)
    keys = np.sort(images @ (np.abs(images).max(initial=0) * 2 + 1) ** np.arange(3), axis=0)
    return 1 + (np.diff(keys, axis=0) != 0).sum(axis=0)


class TestBallLines:
    """The orbit enumeration against the whole coefficient box: under x -> -x, the half ball and
    its mirror image; under a tiling's point group, one point per orbit."""

    @staticmethod
    def _radii(basis, case, reach=5.0):
        # radius and circumradius; tangent: a lattice point exactly on the sphere of radius + circ
        tangent = float(np.linalg.norm(_box_points_reference(basis, reach), axis=1).max())
        return {
            "non-integer": (7.3, 1.1),
            "tangent": (tangent, 0.0),
            "tangent-inner": (tangent + 0.75, 0.75),
        }[case]

    @pytest.mark.parametrize("name", [*BASES, *UNIT_SHAPES])
    @pytest.mark.parametrize("case", ["non-integer", "tangent", "tangent-inner"])
    def test_count_and_band_partition_the_box(self, unit_shapes, monkeypatch, name, case):
        monkeypatch.setattr(TL, "_LINE_CHUNK", 7)  # many blocks, each boundary crossed
        basis = _basis(name, unit_shapes)
        radius, circ = self._radii(basis, case)
        lat = TL.Lattice(basis)
        blocks = list(TL._ball_lines(lat, radius + circ, radius - circ, TL._cone(lat, _CENTRAL, radius + circ)))
        count = sum(n for n, _, _ in blocks)  # counted points and their mirror images
        half = np.concatenate([b for _, b, _ in blocks])
        q = np.concatenate([w for _, _, w in blocks])
        assert not half[0].any() and q[0] == 1 and (q[1:] == 2).all()  # 0 is its own mirror image
        band = np.concatenate([0.0 - half[:0:-1], half])
        ref = _box_points_reference(basis, radius + circ)
        index = {row.tobytes(): i for i, row in enumerate(ref)}
        pos = np.array([index[row.tobytes()] for row in band])
        assert (np.diff(pos) > 0).all()  # same points, same order
        counted = np.setdiff1d(np.arange(len(ref)), pos)
        assert count == len(counted) > 0
        # the classification of skeleton_density: counted points are inner
        assert (np.linalg.norm(ref[counted], axis=1) + circ < radius).all()
        got = TL.Lattice(basis).points_in_ball(radius + circ)
        assert np.array_equal(got, ref)
        if case == "tangent":
            assert (np.linalg.norm(got, axis=1) == radius).any()

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    @pytest.mark.parametrize("case", ["non-integer", "tangent", "tangent-inner"])
    def test_orbits_partition_the_box(self, unit_shapes, monkeypatch, name, case):
        monkeypatch.setattr(TL, "_LINE_CHUNK", 7)
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        group, _ = _group(z, lat)
        radius, circ = self._radii(lat.basis, case, reach=7.0)
        blocks = list(TL._ball_lines(lat, radius + circ, radius - circ, TL._cone(lat, group, radius + circ)))
        formed = np.concatenate([b for _, b, _ in blocks])
        q = np.concatenate([w for _, _, w in blocks])
        ref = _box_points_reference(lat.basis, radius + circ)
        index = {c: i for i, c in enumerate(map(tuple, _coefficients(lat, ref).tolist()))}
        images = _coefficients(lat, formed) @ group  # (G, F, 3)
        orbits = [{index[c] for c in map(tuple, images[:, i].tolist())} for i in range(len(formed))]
        assert [len(o) for o in orbits] == q.tolist()  # q is the orbit size
        covered = set().union(*orbits)
        assert len(covered) == int(q.sum())  # one point per orbit
        counted = np.setdiff1d(np.arange(len(ref)), list(covered))
        assert sum(n for n, _, _ in blocks) == len(counted) > 0
        assert (np.linalg.norm(ref[counted], axis=1) + circ < radius).all()


def _six_lattices(z):
    """The tiling lattice of z, scaled by 0.95, 0.6 and 1.1, and two shears of it."""
    b = TL.lattice_from_parallelohedron(z).basis
    shear1, shear2 = b.copy(), b.copy()
    shear1[2] += 0.3 * b[0] + 0.2 * b[1]
    shear2[1] += 0.5 * b[0]
    return [TL.Lattice(basis) for basis in (b, 0.95 * b, 0.6 * b, 1.1 * b, shear1, shear2)]


def _screened_search(z):
    """The lattice search as it was with an overlap screen per covolume-matching triple."""
    vol = z.volume()
    centers = np.array([2.0 * z.vertices[list(c)].mean(axis=0) for c in z.facet_cycles])
    for tri in combinations(range(len(centers)), 3):
        b = centers[list(tri)]
        if abs(abs(np.linalg.det(b)) - vol) > TL._covolume_tol(vol):
            continue
        lat = TL.Lattice(b)
        if TL._has_overlap(z, lat)[0] is None:
            return lat
    raise TL.NoValidBasis("no facet-center triple yields a disjoint unit-index lattice")


class TestLatticeSearch:
    def test_same_basis_as_the_screened_search(self, unit_shapes):
        # doubled facet centres lie in the tiling lattice, so the first covolume match needs no screen
        rng = np.random.default_rng(11)
        bodies = [*unit_shapes.values(), *(random_body(rng, i % 5 + 1) for i in range(250))]
        for z in bodies:
            assert TL.lattice_from_parallelohedron(z).basis.tobytes() == _screened_search(z).basis.tobytes()

    def test_all_canonical_shapes(self, unit_shapes):
        for name, z in unit_shapes.items():
            lat = TL.lattice_from_parallelohedron(z)
            assert abs(lat.covolume - z.volume()) <= 1e-9, name

    @pytest.mark.parametrize("edge", [1e-3, 1e-5, 1e-9])
    def test_small_cube(self, edge):
        # a dependent triple is no longer within the covolume tolerance of a small volume
        lat = TL.lattice_from_parallelohedron(cube(edge))
        assert abs(lat.covolume - edge**3) <= 1e-9 * edge**3

    def test_cube_gives_unit_lattice(self):
        lat = TL.lattice_from_parallelohedron(cube())
        assert abs(lat.covolume - 1.0) <= 1e-12
        # rows are signed unit vectors in some order
        assert np.allclose(np.abs(lat.basis) @ np.ones(3), np.ones(3))


    def test_screen_within_the_diameter_is_enough(self, unit_shapes, monkeypatch):
        # the tiling lattice, scaled and sheared copies of it (overlapping or not), screened in the box of the
        # cell's facet slabs and, for reference, within twice the diameter: every overlapping translate lies in
        # the box, and the count is the box's nonzero points
        rng = np.random.default_rng(5)
        bodies = [*unit_shapes.values(), *(random_body(rng, ty) for ty in (1, 3, 4, 5))]
        boxes, box = [], TL._box
        monkeypatch.setattr(TL, "_box", lambda lim: boxes.append(lim) or box(lim))
        overlaps = 0
        for z in bodies:
            normals, offsets = z.facet_planes()
            for lat in _six_lattices(z):
                boxes.clear()
                witness, checked = TL._has_overlap(z, lat)
                lim = np.array(boxes[0])
                t = lat.points_in_ball(2.0 * z.diameter() + 1e-9)
                t = t[np.linalg.norm(t, axis=1) > 1e-12]
                inside = ((t @ normals.T) / (2.0 * offsets) < 1.0 - 1e-12).all(axis=1)
                assert (witness is None) == (not inside.any())
                assert (np.abs(np.rint(t[inside] @ np.linalg.inv(lat._reduction[1]))) <= lim).all()
                assert checked == np.prod(2 * lim + 1) - 1
                overlaps += witness is not None
        assert 0 < overlaps < 6 * len(bodies)

    def test_screen_agrees_with_the_ball(self, unit_shapes):
        # the box screen against the ball screen it replaced, the nonzero lattice points within (1 + 1e-9)
        # diameters: the same verdicts, and the same witness to the bit, as both take the first overlap in
        # lexicographic coefficient order
        rng = np.random.default_rng(11)
        for z in [*unit_shapes.values(), *(random_body(rng, i % 5 + 1) for i in range(40))]:
            normals, offsets = z.facet_planes()
            for lat in _six_lattices(z):
                t = lat.points_in_ball(z.diameter() * (1.0 + 1e-9))
                t = t[np.linalg.norm(t, axis=1) > 1e-12 * z.diameter()]
                inside = ((t @ normals.T) / (2.0 * offsets) < 1.0 - 1e-12).all(axis=1)
                witness, _ = TL._has_overlap(z, lat)
                if inside.any():
                    assert witness.tobytes() == (t[np.argmax(inside)] / 2.0).tobytes()
                else:
                    assert witness is None

    def test_box_over_the_budget_is_refused_before_any_array(self):
        # the cube on a lattice 100 times finer: |c_j| <= 100, a box of 201^3 points, 195 MB of coefficients
        # alone, counted in Python ints and refused with its count; a first block of it would hold 1.5 MB
        lat = TL.Lattice(np.eye(3) * 0.01)
        tracemalloc.start()
        try:
            with pytest.raises(TL.TooManyLines) as exc:
                TL.validate_tiling(cube(), lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"the overlap screen's box spans {201**3} lattice points, more than 2097152"
        assert peak < 2**20
        with warnings.catch_warnings():  # a lattice 1e105 times finer: the boxes' sizes leave the doubles, unwarned
            warnings.simplefilter("error")
            with pytest.raises(TL.TooManyLines, match="^the overlap screen's box spans [0-9]{316} lattice points"):
                TL.validate_tiling(cube(), TL.Lattice(np.eye(3) * 1e-105))


class TestValidateTiling:
    def test_cube_passes(self):
        rep = TL.validate_tiling(cube(), TL.Lattice(np.eye(3)))
        assert rep.covering_fraction == 1.0
        assert abs(rep.determinant - 1.0) < 1e-12
        assert abs(rep.cell_volume - 1.0) < 1e-12
        # nonzero integer vectors within the diameter sqrt(3): 0 < |c|^2 <= 3
        assert rep.translates_checked == 26
        assert rep.covering_samples == 0

    def test_overlap_witness(self):
        with pytest.raises(TL.Overlap) as exc:
            TL.validate_tiling(cube(), TL.Lattice(np.eye(3) * 0.9), samples=1000)
        w = exc.value.witness
        assert w.shape == (3,)
        # witness is interior to the cell
        assert np.abs(w).max() < 0.5

    @pytest.mark.parametrize("scale", [1.1, 3.0, 10.0])
    def test_gap_witness(self, scale):
        with pytest.raises(TL.Gap) as exc:
            TL.validate_tiling(cube(), TL.Lattice(np.eye(3) * scale), samples=50_000)
        w = exc.value.witness
        assert w.shape == (3,)
        # the cube is a product, so the nearest lattice point in each
        # coordinate is the only shift that could cover w
        assert (np.abs(w - scale * np.rint(w / scale)) > 0.5).any()

    @pytest.mark.parametrize("edge", [1e-9, 1e-10, 1e-12])
    def test_screen_is_relative_to_the_diameter(self, edge):
        # the screen's box is bounded in lattice coefficients, so a cube of any edge tiles with its
        # face-to-face lattice after screening the 26 nonzero points of its box
        z = cube(edge)
        rep = TL.validate_tiling(z, TL.lattice_from_parallelohedron(z))
        assert rep.translates_checked == 26
        assert abs(rep.determinant - edge**3) <= 1e-9 * edge**3

    @pytest.mark.parametrize(
        "name, points", [("cube", 26), ("hexprism", 44), ("rhombic", 74), ("elongated", 44), ("truncocta", 62)]
    )
    def test_translates_checked_is_the_box(self, unit_shapes, name, points):
        # the nonzero points of the smallest Cramer box: the prism's bound 2 and the truncated octahedron's 3 come
        # out a rounding below, and only the outward rounding keeps them
        z = unit_shapes[name]
        assert TL.validate_tiling(z, TL.lattice_from_parallelohedron(z)).translates_checked == points

    @pytest.mark.parametrize("edge", [1e-2, 1e-4, 1e-6, 1e-9])
    def test_gap_below_unit_volume(self, edge):
        # the covolume tolerance is relative: a lattice of twice or three times the volume is a gap at any scale
        z = cube(edge)
        rep = TL.validate_tiling(z, TL.lattice_from_parallelohedron(z))
        assert abs(rep.determinant - rep.cell_volume) <= 1e-9 * rep.cell_volume
        for k in (2, 3):
            with pytest.raises(TL.Gap) as exc:
                TL.validate_tiling(z, TL.Lattice(np.diag([k * edge, edge, edge])))
            # the witness is uncovered in the stretched coordinate, where the translates stand k edges apart
            w = exc.value.witness
            assert abs(w[0] - k * edge * np.rint(w[0] / (k * edge))) > edge / 2

    def test_covolume_below_volume_without_overlap_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(TL, "_has_overlap", lambda z, lat: (None, 0))
        with pytest.raises(GeometryError, match="overlap screen") as exc:
            TL.validate_tiling(cube(), TL.Lattice(np.eye(3) * 0.9))
        assert type(exc.value) is GeometryError

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_certificate_matches_monte_carlo_reference(self, unit_shapes, name):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        x = np.random.default_rng(7).random((20_000, 3)) @ lat.basis
        assert not _reference_uncovered(z, lat, x).any()
        rep = TL.validate_tiling(z, lat)
        assert (rep.covering_fraction, rep.covering_samples) == (1.0, 0)
        assert abs(rep.determinant - rep.cell_volume) <= 1e-9

    def test_monte_carlo_reference_sees_gaps(self):
        lat = TL.Lattice(np.eye(3) * 1.1)
        x = np.random.default_rng(7).random((20_000, 3)) @ lat.basis
        frac = _reference_uncovered(cube(), lat, x).mean()
        assert abs(frac - (1.0 - 1.1**-3)) < 0.02

    def test_truncated_octahedron_passes(self, unit_shapes):
        z = unit_shapes["truncocta"]
        lat = TL.lattice_from_parallelohedron(z)
        rep = TL.validate_tiling(z, lat, samples=200_000)
        assert rep.covering_fraction == 1.0


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _det(a, b, c):
    return _dot(a, _cross(b, c))


def _integer_facets(gens):
    """The facet normals n of the zonotope of integer generators g_k, the primitive nonzero cross products of
    generator pairs; twice the support of each, sum_k |n.g_k|; and its doubled facet centre, sum_k sign(n.g_k) g_k."""
    normals = [n for n in (_cross(a, b) for a, b in combinations(gens, 2)) if any(n)]
    normals = [tuple(x // math.gcd(*n) for x in n) for n in normals]
    signs = [[(d > 0) - (d < 0) for d in (_dot(n, g) for g in gens)] for n in normals]
    centres = [tuple(_dot(s, column) for column in zip(*gens)) for s in signs]
    return normals, [sum(abs(_dot(n, g)) for g in gens) for n in normals], centres


def _integer_lattice(gens):
    """The first triple of doubled facet centres whose |det| is the volume, sum |det| over generator triples, or
    None."""
    centres = [x for c in _integer_facets(gens)[2] for x in (c, tuple(-v for v in c))]
    volume = sum(abs(_det(*t)) for t in combinations(gens, 3))
    return next((b for b in combinations(centres, 3) if abs(_det(*b)) == volume), None)


def _integer_overlap(gens, basis):
    """The first nonzero lattice vector t with |n.t| < sum_k |n.g_k| for every facet normal n, or None: the whole
    Cramer box of the first three independent normals, |y_a| < S_a for y = c @ w, w[i][a] = basis_i . n_a."""
    normals, twice, _ = _integer_facets(gens)
    tri = next(t for t in combinations(range(len(normals)), 3) if _det(*(normals[a] for a in t)))
    w = [[_dot(b, normals[a]) for a in tri] for b in basis]
    det = abs(_det(*w))
    adj = [_cross(w[(j + 1) % 3], w[(j + 2) % 3]) for j in range(3)]  # column j of det x w^-1
    lim = [sum(twice[tri[a]] * abs(adj[j][a]) for a in range(3)) // det for j in range(3)]
    for c in product(*(range(-k, k + 1) for k in lim)):
        t = tuple(_dot(c, column) for column in zip(*basis))
        if any(c) and all(abs(_dot(n, t)) < s for n, s in zip(normals, twice)):
            return t
    return None


#: integer frames of the unit shapes, row for row; the elongated one's axis is (sqrt 3)/2 times this one's
INTEGER_FRAMES = {
    "cube": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "hexprism": [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)],
    "rhombic": [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)],
    "elongated": [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1), (0, 0, 2)],
    "truncocta": [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)],
}


class TestIntegerTilings:
    """The unit shapes' tilings decided in integers, with no tolerance: a lattice tiling is invariant under linear
    maps, and four unit shapes are linear images of an integer frame's zonotope.  The elongated one is not, as its
    axis is (sqrt 3)/2 times the difference of two diagonals: its frame decides the family member with axis 2."""

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_frame_tiles_by_its_doubled_facet_centres(self, name):
        gens = INTEGER_FRAMES[name]
        basis = _integer_lattice(gens)
        assert basis is not None and _integer_overlap(gens, basis) is None
        normals, twice, centres = _integer_facets(gens)
        assert [_dot(n, c) for n, c in zip(normals, centres)] == twice  # a centre on its doubled facet plane
        # the same frame twice as large, on the lattice with one vector of the small frame's: a half overlap
        doubled = [tuple(2 * x for x in g) for g in gens]
        half = [basis[0], *(tuple(2 * x for x in b) for b in basis[1:])]
        assert _integer_overlap(doubled, half) is not None

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_unit_shape_is_its_frame_mapped(self, unit_shapes, name):
        frame = np.array(INTEGER_FRAMES[name], dtype=np.float64)
        if name == "elongated":
            frame[4] *= math.sqrt(3.0) / 2.0  # the axis as long as a diagonal: no integer frame maps onto it
        gens = unit_shapes[name].generators
        a = np.linalg.lstsq(frame, gens, rcond=None)[0]
        assert np.abs(frame @ a - gens).max() <= 1e-12 * np.abs(gens).max()

    def test_five_generators_in_general_position_are_refused(self):
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
        basis = _integer_lattice(gens)
        assert basis is None or _integer_overlap(gens, basis) is not None


class TestSkeletonDensity:
    def test_radius_floor(self, unit_shapes):
        z = unit_shapes["cube"]
        for bad in (2.0, math.nan, math.inf):
            with pytest.raises(TL.RadiusTooSmall):
                TL.skeleton_density(z, TL.Lattice(np.eye(3)), bad)

    def test_cube_converges(self):
        est = TL.skeleton_density(cube(), TL.Lattice(np.eye(3)), 10.0)
        assert est.target == 3.0
        assert est.relative_error <= 0.05
        assert est.skeleton_length > 0
        assert abs(est.weighted_length - est.skeleton_length) <= 1e-9 * est.skeleton_length
        assert est.density == est.skeleton_length / (4.0 / 3.0 * math.pi * 1000.0)

    def test_rhombic_converges(self, unit_shapes):
        z = unit_shapes["rhombic"]
        lat = TL.lattice_from_parallelohedron(z)
        est = TL.skeleton_density(z, lat, 10.0)
        assert est.relative_error <= 0.05

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_matches_brute_force_reference(self, unit_shapes, name):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        radius = 3.0 * z.diameter()
        est = TL.skeleton_density(z, lat, radius)
        want = _reference_skeleton_length(z, lat, radius)
        assert abs(est.skeleton_length - want) <= 1e-12 * want

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_shell_classification_against_segment_ball_clip(self, unit_shapes, name):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        start, end, _, _ = TL._pieces(z, lat)
        circ = z.circumradius()
        for radius in (3.0 * z.diameter(), 20.0):
            t = lat.points_in_ball(radius + circ)
            shell = t[np.linalg.norm(t, axis=1) + circ >= radius]
            whole, idx, _ = TL._shell_pairs(start, end, radius)(shell)
            cross = np.zeros(whole.shape, dtype=bool)
            cross.flat[idx] = True
            p0 = (shell[:, None] + start).reshape(-1, 3)
            p1 = (shell[:, None] + end).reshape(-1, 3)
            clip = segment_ball_clip(p0, p1, radius).reshape(whole.shape)
            length = np.linalg.norm(p1 - p0, axis=1).reshape(whole.shape)
            assert not (whole & cross).any()
            assert (clip[whole] == length[whole]).all()
            assert (clip[~whole & ~cross] == 0.0).all()
            partial = (clip > 0.0) & (clip < length)
            assert partial.any() and cross[partial].all()

    @pytest.mark.parametrize("name", ["truncocta", "elongated"])
    def test_independent_of_the_block_size(self, unit_shapes, monkeypatch, name):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        ests = []
        for chunk in (1, 7, 256):
            monkeypatch.setattr(TL, "_LINE_CHUNK", chunk)
            ests.append(TL.skeleton_density(z, lat, 20.0))
        ref = ests[-1]
        for est in ests[:-1]:
            assert (est.cells, est.shell, est.crossing) == (ref.cells, ref.shell, ref.crossing)
            assert abs(est.density - ref.density) <= 1e-15 * ref.density


def _seeded_body(type_index):
    return random_body(np.random.default_rng(40 + type_index), type_index)


class TestShellPairs:
    """The classifier's reused work arrays against fresh temporaries, block by block."""

    @staticmethod
    def _assert_blocks_match_reference(z, lat, radius, monkeypatch):
        blocks, make = [], TL._shell_pairs

        def recording(start, end, r):
            pairs = make(start, end, r)

            def record(t):
                got = pairs(t)
                blocks.append((t.copy(), start, end, r, *(np.array(x) for x in got)))
                return got

            return record

        monkeypatch.setattr(TL, "_shell_pairs", recording)
        est = TL.skeleton_density(z, lat, radius)
        sizes = [len(t) for t, *_ in blocks]
        for t, start, end, r, *got in blocks:
            want = _shell_pairs_reference(t, start, end, r)
            for g, w in zip(got, want):
                assert (g.shape, g.dtype) == (w.shape, w.dtype)
                assert g.tobytes() == w.tobytes()
        group, _ = _group(z, lat)  # each shell translate stands for its orbit
        assert sum(int(_orbit_sizes(lat, group, t).sum()) for t, *_ in blocks) == est.shell
        return sizes

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_unit_shapes_bitwise(self, unit_shapes, monkeypatch, name, chunk):
        monkeypatch.setattr(TL, "_LINE_CHUNK", chunk)
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        for radius in (3.0 * z.diameter(), 20.0, 30.0):
            sizes = self._assert_blocks_match_reference(z, lat, radius, monkeypatch)
            # blocks both shrink and grow within one call; at 3 diam, with one translate per orbit,
            # 7 lines a block leave too few blocks for that
            if chunk == 1 or (chunk == 7 and radius >= 20.0):
                assert any(np.diff(sizes) < 0) and any(np.diff(sizes[1:]) > 0)
                assert max(sizes[1:]) > sizes[0]

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @pytest.mark.parametrize("type_index", [1, 2, 3, 4, 5])
    def test_random_bodies_bitwise(self, monkeypatch, type_index, chunk):
        monkeypatch.setattr(TL, "_LINE_CHUNK", chunk)
        z = _seeded_body(type_index)
        lat = TL.lattice_from_parallelohedron(z)
        self._assert_blocks_match_reference(z, lat, 3.0 * z.diameter(), monkeypatch)


class TestMirrorFold:
    """skeleton_density folded by the tiling's point group, which holds x -> -x, against the whole ball."""

    @pytest.mark.parametrize("name", [*UNIT_SHAPES, "random"])
    def test_antipodal_map_is_an_involution(self, unit_shapes, name):
        for z in [_seeded_body(ty) for ty in (1, 2, 3, 4, 5)] if name == "random" else [unit_shapes[name]]:
            lat = TL.lattice_from_parallelohedron(z)
            start, end, _, _ = TL._pieces(z, lat)
            group, perm = _group(z, lat)
            (sigma,) = perm[(group == -np.eye(3, dtype=np.int64)).all(axis=(1, 2))]  # the permutation of x -> -x
            assert (sigma[sigma] == np.arange(len(sigma))).all()
            assert np.abs(start[sigma] + end).max() <= 1e-9
            assert np.abs(end[sigma] + start).max() <= 1e-9
            assert (z.edge_segment[sigma] == z.edge_segment).all()
            assert (sigma != np.arange(len(sigma))).all()  # no edge of a centred cell is its own mirror

    def test_off_centre_edges_are_refused_in_one_line(self, unit_shapes):
        z = unit_shapes["truncocta"]
        lat = TL.lattice_from_parallelohedron(z)
        off = dataclasses.replace(z, vertices=z.vertices + np.array([0.01, 0.0, 0.0]))
        with pytest.raises(GeometryError, match="^cell edges are not symmetric under x -> -x") as exc:
            TL.skeleton_density(off, lat, 3.0 * off.diameter())
        assert "\n" not in str(exc.value)

    @staticmethod
    def _assert_matches_full_reference(z, lat, radius, monkeypatch):
        cells, shell, crossing, density, total, weighted = _skeleton_density_full_reference(z, lat, radius)
        for chunk in (1, 7, 256):
            monkeypatch.setattr(TL, "_LINE_CHUNK", chunk)
            est = TL.skeleton_density(z, lat, radius)
            assert (est.cells, est.shell, est.crossing) == (cells, shell, crossing)
            assert abs(est.density - density) <= 1e-15 * density
            assert abs(est.weighted_length - weighted) <= 1e-15 * weighted

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_unit_shapes(self, unit_shapes, monkeypatch, name):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        for radius in (3.0 * z.diameter(), 20.0, 30.0):
            self._assert_matches_full_reference(z, lat, radius, monkeypatch)

    @pytest.mark.parametrize("type_index", [1, 2, 3, 4, 5])
    def test_random_bodies(self, monkeypatch, type_index):
        z = _seeded_body(type_index)
        lat = TL.lattice_from_parallelohedron(z)
        self._assert_matches_full_reference(z, lat, 3.0 * z.diameter(), monkeypatch)

    @pytest.mark.parametrize("slide", SLID_CUBES, ids=str)
    def test_slid_cubes(self, monkeypatch, slide):
        # a slid lattice has fewer symmetries, and its pieces are cut edges held by 2 or 4 cells
        basis, _, order = SLID_CUBES[slide]
        lat = TL.Lattice(np.array(basis))
        assert len(_group(cube(), lat)[0]) == order
        for radius in (6.0, 10.0):
            self._assert_matches_full_reference(cube(), lat, radius, monkeypatch)


class TestSymmetryGroup:
    """The tiling's point group: its order, its elements and their edge permutations."""

    @pytest.mark.parametrize(
        "name, order", [("cube", 48), ("hexprism", 24), ("rhombic", 48), ("elongated", 16), ("truncocta", 48)]
    )
    def test_order_of_the_unit_shapes(self, unit_shapes, name, order):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        group, perm = _group(z, lat)
        assert group.shape == (order, 3, 3) and perm.shape == (order, len(z.edge_segment))
        assert TL.skeleton_density(z, lat, 3.0 * z.diameter()).symmetries == order

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_elements_map_the_tiling_onto_itself(self, unit_shapes, name):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        start, end, _, _ = TL._pieces(z, lat)
        group, perm = _group(z, lat)
        assert group.dtype == np.int64  # integral on lattice coefficients, c -> c @ m
        keys = {m.tobytes() for m in group}
        assert len(keys) == len(group) and np.eye(3, dtype=np.int64).tobytes() in keys
        assert (-np.eye(3, dtype=np.int64)).tobytes() in keys
        assert all((a @ b).tobytes() in keys for a in group for b in group)  # closed: a group
        maps = np.linalg.inv(lat.basis) @ group @ lat.basis  # the same maps in space, x -> x @ a
        assert np.abs(maps @ maps.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-12
        gens = z.generators
        for a, p in zip(maps, perm):
            image = (z.vertices @ a)[:, None] - z.vertices
            assert np.abs(image).max(axis=2).min(axis=1).max() <= 1e-9  # vertices onto vertices
            image = (gens @ a)[:, None]
            assert np.minimum(np.abs(image - gens), np.abs(image + gens)).max(axis=2).min(axis=1).max() <= 1e-9
            assert sorted(p.tolist()) == list(range(len(p)))  # edge j onto edge p[j], one to one
            s, e = start @ a, end @ a
            kept = np.maximum(np.abs(s - start[p]).max(axis=1), np.abs(e - end[p]).max(axis=1))
            turned = np.maximum(np.abs(s - end[p]).max(axis=1), np.abs(e - start[p]).max(axis=1))
            assert np.minimum(kept, turned).max() <= 1e-9

    @pytest.mark.parametrize("type_index", [1, 2, 3, 4, 5])
    def test_random_bodies_have_order_two(self, type_index):
        rng = np.random.default_rng(60 + type_index)
        for z in [_seeded_body(type_index), *(random_body(rng, type_index) for _ in range(4))]:
            group, _ = _group(z, TL.lattice_from_parallelohedron(z))
            assert sorted(map(bytes, group)) == sorted(map(bytes, _CENTRAL))

    def test_off_centre_cell_is_refused_in_one_line(self, unit_shapes):
        z = unit_shapes["cube"]
        off = dataclasses.replace(z, vertices=z.vertices + np.array([0.0, 0.02, 0.01]))
        message = "^cell edges are not symmetric under x -> -x: the cell is not centred$"  # one line
        with pytest.raises(GeometryError, match=message):
            _group(off, TL.Lattice(np.eye(3)))

    def test_wrong_orbit_weight_is_refused_in_one_line(self, unit_shapes, monkeypatch):
        z = unit_shapes["truncocta"]
        lat = TL.lattice_from_parallelohedron(z)
        lines = TL._ball_lines

        def fixed_by_all(*args):  # every formed translate taken as fixed by all of G, so of weight 1
            for counted, t, q in lines(*args):
                yield counted, t, np.ones_like(q)

        monkeypatch.setattr(TL, "_ball_lines", fixed_by_all)
        with pytest.raises(GeometryError, match=r"^folded whole-edge count is not a multiple of \|G\| = 48") as exc:
            TL.skeleton_density(z, lat, 20.0)
        assert "\n" not in str(exc.value)


class TestNotFaceToFace:
    """Slid cube layers tile, are certified and are measured: a layer slid along x doubles the lines of
    y-edges at each interface, slid along both axes the lines of x-edges too, and with rows slid as well the
    lines of z-edges: exactly 4, 5 and 6, against 3 face to face."""

    @pytest.mark.parametrize("row", [(0.3, 0.0, 1.0), (0.3, 0.2, 1.0)])
    def test_certified_tiling_is_measured(self, row):
        lat = TL.Lattice(np.array([[1.0, 0, 0], [0, 1.0, 0], row]))
        rep = TL.validate_tiling(cube(), lat)
        assert abs(rep.determinant - rep.cell_volume) <= 1e-12
        want = 5.0 if row[1] else 4.0
        rows = TL.convergence_series(cube(), lat, [10.0, 20.0, 30.0])
        assert all(abs(est.exact_density - want) <= 1e-12 * want for est in rows)
        errors = [abs(est.density - want) / want for est in rows]
        assert errors[-1] < errors[0] and errors[-1] <= 1e-3  # the ball converges to the exact value
        for est in rows:
            assert abs(est.weighted_length - est.skeleton_length) <= 1e-9 * est.skeleton_length

    @pytest.mark.parametrize("slide", SLID_CUBES, ids=str)
    def test_exact_density(self, slide):
        basis, want, order = SLID_CUBES[slide]
        lat = TL.Lattice(np.array(basis))
        TL.validate_tiling(cube(), lat)
        est = TL.skeleton_density(cube(), lat, 6.0)
        assert abs(est.exact_density - want) <= 1e-12 * want and est.symmetries == order
        _, _, m, _ = TL._pieces(cube(), lat)
        assert set(m.tolist()) <= {2, 4} and (m == 2).any()  # a piece on an interface is held by 2 cells, not 4

    def test_face_to_face_lattice_passes(self):
        start, _, m, reps = TL._pieces(cube(), TL.Lattice(np.eye(3)))
        assert len(start) == 12 and len(reps) == 3 and (m == 4).all()


class TestShearedPrisms:
    """Hexagonal prisms in layers slid across the axis, or in columns slid along it: at least the
    face-to-face value, and equal to it only where the slide is a lattice vector."""

    @staticmethod
    def _sheared(kind, slide):
        z = unit_shape("hexprism")
        axis, u1, u2 = TL.lattice_from_parallelohedron(z).basis  # the axis, then two vectors across it
        s1, s2 = slide
        if kind == "layers":
            return z, TL.Lattice(np.array([axis + s1 * u1 + s2 * u2, u1, u2]))
        return z, TL.Lattice(np.array([axis, u1 + s1 * axis, u2 + s2 * axis]))

    @pytest.mark.parametrize("kind", ["layers", "columns"])
    def test_at_least_the_face_to_face_value(self, kind):
        z, lat = self._sheared(kind, (0.0, 0.0))
        flat = TL.skeleton_density(z, lat, 3.0 * z.diameter()).exact_density
        rng = np.random.default_rng(8)
        for slide in [(1.0, 0.0), (1.0, 2.0), (0.3, 0.0), (0.5, 0.5), *rng.random((4, 2)).tolist()]:
            z, lat = self._sheared(kind, slide)
            TL.validate_tiling(z, lat)
            est = TL.skeleton_density(z, lat, 3.0 * z.diameter())
            if float(slide[0]).is_integer() and float(slide[1]).is_integer():
                assert abs(est.exact_density - flat) <= 1e-12 * flat
            else:
                assert est.exact_density > (1.0 + 1e-9) * flat
            assert abs(est.density - est.exact_density) <= 0.02 * est.exact_density

    @pytest.mark.parametrize("kind, want", [("layers", 5.819326058515847), ("columns", 5.091910301201366)])
    def test_measured_values(self, kind, want):
        # the unit prism's base edge a equals its height h; face to face, 2h + 3a = 3.637 per unit volume.
        # Slid layers hold two hexagon grids at each interface, 2h + 6a; slid columns give 2h + 5a
        z, lat = self._sheared(kind, (0.3, 0.0))
        assert TL.skeleton_density(z, lat, 3.0 * z.diameter()).exact_density == pytest.approx(want, rel=1e-12)


# cells and density at the commit before line enumeration and the shell sum; shell
# translates and crossing pairs at the commit before the shell pass reused its work arrays
PINNED = {
    ("cube", 20.0): (38089, 8666, 30336, 3.002269744021391),
    ("cube", 30.0): (123065, 19682, 67872, 3.0012012490735303),
    ("cube", 40.0): (286145, 34706, 120576, 3.0005512895547515),
    ("hexprism", 20.0): (37623, 8008, 32280, 3.634689216352712),
    ("hexprism", 30.0): (122605, 18436, 74376, 3.6375092266615767),
    ("hexprism", 40.0): (285125, 32790, 133032, 3.6370018800991315),
    ("rhombic", 20.0): (37863, 8282, 44880, 5.5041432532758),
    ("rhombic", 30.0): (122231, 17786, 98352, 5.499530350371891),
    ("rhombic", 40.0): (284039, 31614, 167136, 5.499002928354329),
    ("elongated", 20.0): (38457, 9354, 40320, 5.021228655685158),
    ("elongated", 30.0): (123889, 20852, 87648, 5.025197766416012),
    ("elongated", 40.0): (286743, 36694, 157320, 5.025795343742795),
    ("truncocta", 20.0): (37309, 7154, 39312, 5.342829614997286),
    ("truncocta", 30.0): (121125, 16042, 90432, 5.344170333279854),
    ("truncocta", 40.0): (282417, 28070, 160632, 5.346120109902546),
}


@pytest.mark.parametrize("name, radius", sorted(PINNED))
def test_skeleton_density_pinned(unit_shapes, name, radius):
    # the elongated values were pinned on the body built at edge = elongation = 0.55; the unit
    # shape's 0.6 scales to the same body at unit volume, but its vertices differ by an ulp
    half = 0.55 / math.sqrt(3.0)  # rounds as 0.55 x (1 / sqrt(3)), the rhombic dodecahedron's coordinate
    z = unit_volume(elongated_rhombic_dodecahedron(half, half, 0.55)) if name == "elongated" else unit_shapes[name]
    est = TL.skeleton_density(z, TL.lattice_from_parallelohedron(z), radius)
    cells, shell, crossing, density = PINNED[name, radius]
    assert (est.cells, est.shell, est.crossing) == (cells, shell, crossing)
    assert abs(est.density - density) <= 1e-15 * density


class TestEdgeClasses:
    """The cell's edge pieces in classes of lattice translates, one member per cell that holds the piece."""

    @pytest.mark.parametrize("name, count", [("cube", 3), ("truncocta", 12)])
    def test_class_sizes_are_sharing_counts(self, unit_shapes, name, count):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        start, end, m, reps = TL._pieces(z, lat)
        assert len(reps) == count and len(start) == len(z.edge_segment)  # face to face: no edge is cut
        frac = np.stack([start, end], axis=1) @ np.linalg.inv(lat.basis)
        for r in reps.tolist():  # the members of a class: same segment, ends one lattice vector apart
            d = frac - frac[r]
            same = (z.edge_segment == z.edge_segment[r]) & (np.abs(d - np.rint(d)) < 1e-7).all(axis=(1, 2))
            members = np.flatnonzero(same)
            assert members[0] == r and (m[members] == len(members)).all()
        assert m[reps].sum() == len(start)  # the classes partition the pieces

    def test_random_bodies_are_not_cut(self):
        # face to face every edge is one piece, with the vertices as its ends, and m is its belt's sharing count
        rng = np.random.default_rng(12)
        for i in range(40):
            z = random_body(rng, i % 5 + 1)
            start, end, m, reps = TL._pieces(z, TL.lattice_from_parallelohedron(z))
            ends = z.vertices[z.edge_vertex_ids]
            along = ((ends[:, 1] - ends[:, 0]) * z.generators[z.edge_segment]).sum(axis=1) > 0
            assert np.array_equal(start, np.where(along[:, None], ends[:, 0], ends[:, 1]))
            assert np.array_equal(end, np.where(along[:, None], ends[:, 1], ends[:, 0]))
            assert np.array_equal(m, np.where(belts(z) == 4, 4, 3)[z.edge_segment])
            assert m[reps].sum() == len(start)


class TestWeightedEdges:
    # every tiling piece is a lattice translate of a class representative,
    # held by the class size m and weighted 1/m
    def test_cube_edges_shared_by_four(self):
        _, _, m, reps = TL._pieces(cube(), TL.Lattice(np.eye(3)))
        assert len(reps) > 0
        assert set(m[reps].tolist()) == {4}
        assert (1.0 / m == 0.25).all()

    def test_truncocta_edges_shared_by_three(self, unit_shapes):
        z = unit_shapes["truncocta"]
        _, _, m, reps = TL._pieces(z, TL.lattice_from_parallelohedron(z))
        assert set(m[reps].tolist()) == {3}

    def test_elongated_has_both_classes(self, unit_shapes):
        z = unit_shapes["elongated"]
        _, _, m, reps = TL._pieces(z, TL.lattice_from_parallelohedron(z))
        assert set(m[reps].tolist()) == {3, 4}


#: the exact density of each unit shape, as the face-to-face edge classes summed it
EXACT = {
    "cube": 3.0,
    "hexprism": 3.637078786572404,
    "rhombic": 5.498918547994411,
    "elongated": 5.024859912608727,
    "truncocta": 5.3453923088420385,
}


@pytest.mark.parametrize("name", UNIT_SHAPES)
def test_exact_density_pinned(unit_shapes, name):
    z = unit_shapes[name]
    est = TL.skeleton_density(z, TL.lattice_from_parallelohedron(z), 3.0 * z.diameter())
    assert repr(est.exact_density) == repr(EXACT[name])


class TestConvergence:
    def test_series_and_ordering(self, unit_shapes):
        z = unit_shapes["cube"]
        lat = TL.Lattice(np.eye(3))
        rows = TL.convergence_series(z, lat, [6.0, 9.0, 12.0])
        assert type(rows) is tuple and [row.radius for row in rows] == [6.0, 9.0, 12.0]
        assert rows[-1].relative_error <= 0.03
        with pytest.raises(ValueError):
            TL.convergence_series(z, lat, [9.0, 6.0])

    def test_repeated_radius_is_refused(self):
        with pytest.raises(ValueError, match=r"^radii must be a nonempty ascending list, got \[6.0, 9.0, 9.0\]$"):
            TL.convergence_series(cube(), TL.Lattice(np.eye(3)), [6.0, 9.0, 9.0])

    def test_empty_radii_are_refused_in_one_line(self):
        with pytest.raises(ValueError, match=r"^radii must be a nonempty ascending list, got \[\]$"):
            TL.convergence_series(cube(), TL.Lattice(np.eye(3)), [])

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_radius_cap_is_checked_before_any_work(self, unit_shapes, monkeypatch, name):
        # the line budget is the one cap, and no radius is measured here: near it a ball costs hundreds of MB
        z = unit_shapes[name]
        lat, circ = TL.lattice_from_parallelohedron(z), z.circumradius()
        lo, hi = 3.0 * z.diameter(), 1e4  # bisected to the two doubles around the first radius over the budget
        while math.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2.0
            lo, hi = (lo, mid) if line_count(lat, mid + circ) > TL._MAX_LINES else (mid, hi)
        assert line_count(lat, lo + circ) <= TL._MAX_LINES < line_count(lat, hi + circ)
        TL._count_lines(lat, lo + circ)  # the radius just below passes the count

        def fail(*args):
            raise AssertionError("the series' geometry was built before its lines were counted")

        for name in ("_pieces", "_point_group", "_cone", "_ball_lines", "_shell_pairs"):
            monkeypatch.setattr(TL, name, fail)
        with pytest.raises(TL.TooManyLines) as exc:
            TL.convergence_series(z, lat, [3.0 * z.diameter(), hi])
        lines = line_count(lat, hi + circ)
        assert str(exc.value) == f"a ball of radius {hi + circ:.6g} spans {lines} lattice lines, more than 2097152"
        # no radius cap: far past 100 diameters only the band refuses, in one line, before any geometry
        TL._check_radius(z, 1e20)
        with pytest.raises(ValueError, match=r"^radius must be in \[1e-60, 1e\+60\], got 1e\+300$") as exc:
            TL.convergence_series(z, TL.Lattice(np.eye(3)), [3.0 * z.diameter(), 1e300])
        assert not isinstance(exc.value, TL.RadiusTooSmall)

    @pytest.mark.parametrize("edge", [1e-70, 1e-60, 1e59, 1e70])
    def test_radius_band(self, edge):
        # the chord formula squares about (radius x edge): outside [1e-60, 1e60] it would leave the doubles
        z, lat = cube(edge), TL.Lattice(edge * np.eye(3))
        radius = 20.0 * edge
        if 1e-60 <= radius <= 1e60:
            assert TL.convergence_series(z, lat, [radius])[0].cells > 0
            return
        with pytest.raises(ValueError, match=r"^radius must be in \[1e-60, 1e\+60\], got ") as exc:
            TL.convergence_series(z, lat, [radius])
        assert not isinstance(exc.value, TL.RadiusTooSmall)


def _first_scale(rows, bound):
    """The least k with 6 max|k rows|^3 >= bound."""
    m = int(np.abs(rows).max())
    k = round((bound / 6) ** (1 / 3) / m)
    while 6 * (k * m) ** 3 >= bound:
        k -= 1
    while 6 * (k * m) ** 3 < bound:
        k += 1
    return k


class TestFacetWalls:
    """The facet walls of small integer cones, exact at every scale below 6 max|n|^3 = 2^63."""

    # the cone A c >= 0 of a unimodular A, whose rows are its facets, and two redundant walls that
    # vanish on the extreme ray A0 x A1 alone: (2 A0 + A1) x A1 = 2 (A0 x A1) finds that ray twice over
    SIMPLICIAL = np.array([[-1, -1, 0], [2, 0, -1], [0, 1, 1]])
    ROWS = np.concatenate([SIMPLICIAL, [SIMPLICIAL[0] + SIMPLICIAL[1], 2 * SIMPLICIAL[0] + SIMPLICIAL[1]]])

    @pytest.mark.parametrize(
        "rows, facets",
        [
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            (ROWS, SIMPLICIAL),
        ],
        ids=["octant", "simplicial"],
    )
    def test_redundant_walls_are_dropped(self, rows, facets):
        assert np.array_equal(TL._facet_walls(np.array(rows)), np.array(facets))

    @pytest.mark.parametrize(
        "bound, step, low, high",
        [(2**53, -1, 0, 2**53), (2**53, 0, 2**53, 2**63), (2**63, -1, 2**53, 2**63)],
        ids=["below-2^53", "from-2^53", "below-2^63"],
    )
    def test_exact_up_to_2_63(self, bound, step, low, high):
        k = _first_scale(self.ROWS, bound) + step
        # past 2^53 a float64 product could round a tight ray below 0; near 2^63 it does, the int64 one does not
        assert low <= 6 * int(np.abs(k * self.ROWS).max()) ** 3 < high
        assert np.array_equal(TL._facet_walls(k * self.ROWS), k * self.SIMPLICIAL)

    def test_past_int64_every_row_is_kept(self):
        n = _first_scale(self.ROWS, 2**63) * self.ROWS
        assert 6 * int(np.abs(n).max()) ** 3 >= 2**63
        assert np.array_equal(TL._facet_walls(n), n)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0], [0, 1, 0], [1, 1, 0]],  # a wedge: it holds the line of e3
            [[1, 0, 0], [2, 0, 0], [3, 0, 0]],  # a half-space: no two walls cross
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]],  # a quadrant of the plane c1 = 0: no interior
        ],
        ids=["wedge", "half-space", "flat"],
    )
    def test_every_row_is_kept_when_a_wall_vanishes_on_every_ray(self, rows):
        n = np.array(rows)
        assert np.array_equal(TL._facet_walls(n), n)


def _bits(est):
    """Every field of an estimate, typed and exact: repr round-trips a float."""
    return [(type(v), repr(v)) for v in dataclasses.astuple(est)]


class TestSeriesGeometry:
    """convergence_series is skeleton_density at each radius, with the tiling's geometry built once."""

    @staticmethod
    def _assert_rows_are_fresh_estimates(z, lat, radii, monkeypatch):
        blocks, lines = [], TL._ball_lines

        def recording(*args):
            for counted, t, q in lines(*args):
                blocks.append((counted, t.tobytes(), q.tobytes()))
                yield counted, t, q

        monkeypatch.setattr(TL, "_ball_lines", recording)
        rows = TL.convergence_series(z, lat, radii)
        series, blocks[:] = blocks[:], []
        assert [_bits(row) for row in rows] == [_bits(TL.skeleton_density(z, lat, r)) for r in radii]
        assert series == blocks  # the same translates, weights and blocks: one cone serves every radius

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_unit_shapes_bitwise(self, unit_shapes, monkeypatch, name):
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        self._assert_rows_are_fresh_estimates(z, lat, [3.0 * z.diameter(), 20.0, 30.0], monkeypatch)

    def test_rhombic_past_the_float_limit_of_facet_walls(self, unit_shapes, monkeypatch):
        z = unit_shapes["rhombic"]
        lat = TL.lattice_from_parallelohedron(z)
        group, _ = _group(z, lat)
        cones = [TL._cone(lat, group, r + z.circumradius()) for r in (40.0, 60.0)]
        assert [6 * int(np.abs(n).max()) ** 3 >= 2**53 for n, _ in cones] == [False, True]
        assert [len(walls) for _, walls in cones] == [3, 3]  # on both sides of the float64-exact range
        self._assert_rows_are_fresh_estimates(z, lat, [40.0, 60.0], monkeypatch)

    def test_rhombic_past_the_int64_limit_of_facet_walls(self, unit_shapes, monkeypatch):
        z = unit_shapes["rhombic"]
        lat = TL.lattice_from_parallelohedron(z)
        group, _ = _group(z, lat)
        n, walls = TL._cone(lat, group, 200.0 + z.circumradius())
        n = n[(n != 0).any(axis=1)]
        assert 6 * int(np.abs(n).max()) ** 3 >= 2**63 and len(n) == 47 and np.array_equal(walls, n)  # all kept
        self._assert_rows_are_fresh_estimates(z, lat, [60.0, 200.0], monkeypatch)

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_facet_walls_at_the_radius_cap(self, unit_shapes, name):
        # at 100 diameters 2^53 <= 6|n|^3 < 2^63 for all five shapes: past the float64-exact range
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        group, _ = _group(z, lat)
        circ = z.circumradius()
        n, walls = TL._cone(lat, group, 100.0 * z.diameter() + circ)
        assert 2**53 <= 6 * int(np.abs(n).max()) ** 3 < 2**63 and len(walls) == 3
        self._assert_facets_cut_the_cone(lat, n, walls, 3.0 * z.diameter(), circ)

    def test_elongated_where_a_float64_search_kept_every_wall(self, unit_shapes):
        # near R = 225 the float64 cross products of the search it replaced missed two of the 3 facets
        z = unit_shapes["elongated"]
        lat = TL.lattice_from_parallelohedron(z)
        group, _ = _group(z, lat)
        circ = z.circumradius()
        n, walls = TL._cone(lat, group, 225.0 + circ)
        assert 2**53 <= 6 * int(np.abs(n).max()) ** 3 < 2**63 and len(walls) == 3
        self._assert_facets_cut_the_cone(lat, n, walls, 3.0 * z.diameter(), circ)

    @staticmethod
    def _assert_facets_cut_the_cone(lat, n, walls, radius, circ):
        """The facet walls cut the cone of every wall: the same counts, translates and weights, block by block."""
        facets, full = (
            [(k, t.tobytes(), q.tobytes()) for k, t, q in TL._ball_lines(lat, radius + circ, radius - circ, (n, w))]
            for w in (walls, n[(n != 0).any(axis=1)])
        )
        assert facets == full

    @pytest.mark.parametrize("type_index", [1, 2, 3, 4, 5])
    def test_random_bodies_bitwise(self, monkeypatch, type_index):
        # from 3 to 10 diameters: a cone built for the smaller radius picks other orbit representatives
        z = _seeded_body(type_index)
        lat = TL.lattice_from_parallelohedron(z)
        self._assert_rows_are_fresh_estimates(z, lat, [3.0 * z.diameter(), 10.0 * z.diameter()], monkeypatch)

    @pytest.mark.parametrize("name", UNIT_SHAPES)
    def test_built_once(self, unit_shapes, monkeypatch, name):
        calls = {"_pieces": [], "_point_group": [], "_lll_unimodular": []}
        for fn in calls:
            def counting(*args, _fn=getattr(TL, fn), _calls=calls[fn]):
                _calls.append(args[0].tobytes() if isinstance(args[0], np.ndarray) else None)
                return _fn(*args)

            monkeypatch.setattr(TL, fn, counting)
        z = unit_shapes[name]
        lat = TL.lattice_from_parallelohedron(z)
        TL.validate_tiling(z, lat)
        TL.convergence_series(z, lat, [3.0 * z.diameter(), 20.0, 30.0])
        assert len(calls["_pieces"]) == len(calls["_point_group"]) == 1
        reduced = calls["_lll_unimodular"]  # the basis of each reduction: once per lattice searched
        assert len(set(reduced)) == len(reduced) and lat.basis.tobytes() in reduced
