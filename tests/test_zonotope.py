import json
import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from mosaicdensity import tiling as T
from mosaicdensity import zonotope as Z

from conftest import TYPE_PATTERNS, assert_facet_measure, random_beta, random_body


def mean_width_estimate(z: Z.Zonotope, n_polar: int = 256, n_azimuth: int = 512) -> float:
    """Mean width by spherical quadrature of the vertex support function.

    Gauss-Legendre nodes in the polar cosine and a uniform azimuth grid;
    independent of the segment representation, so it is an oracle for the
    closed form (half the segment-length sum) of a zonotope.
    """
    x, w = roots_legendre(n_polar)
    phi = (np.arange(n_azimuth) + 0.5) * (2.0 * np.pi / n_azimuth)
    sin_polar = np.sqrt(1.0 - x**2)
    dirs = np.stack(
        [
            np.outer(sin_polar, np.cos(phi)).ravel(),
            np.outer(sin_polar, np.sin(phi)).ravel(),
            np.repeat(x, n_azimuth),
        ],
        axis=1,
    )
    h = (dirs @ z.vertices.T).max(axis=1)
    weights = np.repeat(w, n_azimuth) * (2.0 * np.pi / n_azimuth)
    # mean width = (1 / 2 pi) * integral of the support function over S^2
    return float((h * weights).sum() / (2.0 * np.pi))


class TestValidateGenerators:
    def test_accepts_and_normalizes(self, rng):
        v = Z.random_frame(rng)
        assert v.shape == (4, 3)
        assert np.allclose(v.sum(axis=0), 0, atol=1e-9)
        assert abs(np.linalg.det(v[:3]) - 1.0) < 1e-9

    def test_all_triples_unimodular(self, rng):
        v = Z.random_frame(rng)
        from itertools import combinations

        for tri in combinations(range(4), 3):
            assert abs(abs(np.linalg.det(v[list(tri)])) - 1.0) < 1e-8

    def test_not_centered(self):
        v = np.eye(4, 3)
        with pytest.raises(Z.NotCentered):
            Z.validate_generators(v)

    def test_degenerate(self):
        v = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0], [-3, -1, 0]], float)
        with pytest.raises(Z.DegenerateFrame):
            Z.validate_generators(v)

    def test_orientation_swap(self):
        v = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1], [-1, -1, -1]], float)
        assert np.linalg.det(v[:3]) < 0
        assert np.linalg.det(Z.validate_generators(v)[:3]) > 0


class TestClassify:
    # zero patterns: (none) type 5; one -> 4; two disjoint -> 3; two sharing an index -> 2; three nonzero with
    # no common index -> 1; None where the nonzero segments do not span R^3 (the ids are the test's earlier ones)
    @pytest.mark.parametrize(
        "pattern,type_index",
        [
            pytest.param((1, 1, 1, 1, 1, 1), 5, id="pattern0-ParallelohedronType.TRUNCATED_OCTAHEDRON"),
            pytest.param((1, 1, 1, 1, 1, 0), 4, id="pattern1-ParallelohedronType.ELONGATED_RHOMBIC_DODECAHEDRON"),
            pytest.param((1, 1, 1, 1, 0, 1), 4, id="pattern2-ParallelohedronType.ELONGATED_RHOMBIC_DODECAHEDRON"),
            pytest.param((0, 1, 1, 1, 1, 0), 3, id="pattern3-ParallelohedronType.RHOMBIC_DODECAHEDRON"),
            pytest.param((1, 0, 1, 1, 0, 1), 3, id="pattern4-ParallelohedronType.RHOMBIC_DODECAHEDRON"),
            pytest.param((0, 0, 1, 1, 1, 1), 2, id="pattern5-ParallelohedronType.HEXAGONAL_PRISM"),
            pytest.param((1, 1, 1, 0, 0, 1), 2, id="pattern6-ParallelohedronType.HEXAGONAL_PRISM"),
            pytest.param((1, 1, 0, 1, 0, 0), 1, id="pattern7-ParallelohedronType.PARALLELEPIPED"),
            pytest.param((1, 0, 0, 1, 0, 1), 1, id="pattern8-ParallelohedronType.PARALLELEPIPED"),
            pytest.param((1, 1, 1, 0, 0, 0), None, id="pattern9-ParallelohedronType.DEGENERATE"),
            pytest.param((1, 1, 0, 0, 0, 0), None, id="pattern10-ParallelohedronType.DEGENERATE"),
            pytest.param((0, 0, 0, 0, 0, 0), None, id="pattern11-ParallelohedronType.DEGENERATE"),
        ],
    )
    def test_patterns(self, rng, pattern, type_index):
        # the body built on the pattern has its type's face counts on every frame
        for _ in range(20):
            b = Z.BetaVector(np.array(pattern) * rng.uniform(0.2, 1.3, 6))
            g = Z.random_frame(rng)
            if type_index is None:
                with pytest.raises(Z.FlatBody):
                    Z.build_from_parameters(g, b)
                continue
            z = Z.build_from_parameters(g, b)
            assert len(z.facet_cycles) == FACET_COUNTS[type_index]
            assert len(z.edge_vertex_ids) == EDGE_COUNTS[type_index]

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            Z.BetaVector(np.array([1.0, -0.1, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            Z.BetaVector(np.array([1.0, 1, 1]))


EDGE_COUNTS = {1: 12, 2: 18, 3: 24, 4: 28, 5: 36}
FACET_COUNTS = {1: 6, 2: 8, 3: 12, 4: 12, 5: 14}


class TestBuild:
    @pytest.mark.parametrize("type_index", [1, 2, 3, 4, 5])
    def test_counts_per_type(self, rng, type_index):
        for _ in range(6):
            z = random_body(rng, type_index)
            assert len(z.edge_vertex_ids) == EDGE_COUNTS[type_index]
            assert len(z.facet_cycles) == FACET_COUNTS[type_index]
            # Euler relation for 3-polytopes
            assert len(z.vertices) - len(z.edge_vertex_ids) + len(z.facet_cycles) == 2

    def test_volume_polynomial_matches_hull(self, rng):
        from scipy.spatial import ConvexHull

        for ty in (1, 2, 3, 4, 5):
            g = Z.random_frame(rng)
            b = random_beta(rng, ty)
            z = Z.build_from_parameters(g, b)
            poly = Z.volume_polynomial(b.values)
            assert abs(z.volume() - poly) < 1e-10 * max(1.0, poly)
            hull = ConvexHull(z.vertices).volume
            assert abs(hull - poly) < 1e-9 * max(1.0, poly)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 3, 4, 5]))
    def test_volume_identity_property(self, seed, ty):
        r = np.random.default_rng(seed)
        g = Z.random_frame(r)
        b = random_beta(r, ty)
        z = Z.build_from_parameters(g, b)
        assert abs(z.volume() - Z.volume_polynomial(b.values)) < 1e-9

    def test_flat_body(self):
        segs = np.array([[1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
        with pytest.raises(Z.FlatBody):
            Z.build_zonotope(segs)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_span_test_is_relative_to_the_scale(self, scale):
        # coplanar segments are flat, and a cube is a cube, at any scale
        segs = np.array([[1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
        with pytest.raises(Z.FlatBody):
            Z.build_zonotope(segs * scale)
        with pytest.raises(Z.FlatBody):
            Z.build_zonotope(np.array([[1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 1e-13]]) * scale)
        z = Z.cube(scale)
        assert (len(z.vertices), len(z.edge_vertex_ids), len(z.facet_cycles)) == (8, 12, 6)
        assert abs(z.volume() - scale**3) <= 1e-12 * scale**3

    @pytest.mark.parametrize("k", range(-300, 301, 10))
    def test_cube_at_every_scale(self, k):
        # no norm underflows or overflows before the vertices: a cube of edge
        # 1e-150..1e150 has the unit cube's normals, and tiles to 1e-100..1e100;
        # past 1e154 the facet areas overflow, and the body is refused without a warning
        edge = 10.0**k
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                z = Z.cube(edge)
        except Z.GeometryError as exc:
            assert abs(k) > 150 and (k < 0 or str(exc) == "facet areas overflow the doubles")
            return
        assert z.facet_normals.tobytes() == Z.cube(1.0).facet_normals.tobytes()
        if abs(k) <= 100:
            T.validate_tiling(z, T.lattice_from_parallelohedron(z))
            assert abs(z.volume() / edge**3 - 1.0) <= 1e-12

    def test_parallel_segments(self):
        segs = np.array([[1.0, 0, 0], [2.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
        with pytest.raises(Z.ParallelSegments, match="segments 0 and 1 are parallel"):
            Z.build_zonotope(segs)

    def test_centered_and_symmetric(self, rng):
        z = random_body(rng, 5)
        assert np.allclose(z.vertices.mean(axis=0), 0, atol=1e-12)
        # central symmetry: -v is also a vertex
        key = {tuple(np.round(v, 9)) for v in z.vertices}
        assert all(tuple(np.round(-v, 9)) in key for v in z.vertices)

    def test_contains(self, rng):
        z = random_body(rng, 5)
        assert z.contains(np.zeros((1, 3)))[0]
        far = z.vertices[:1] * 2.0
        assert not z.contains(far)[0]


def _coplanar_classes_reference(gens, norms, tol):
    # the per-pair loop build_zonotope ran before the pair crosses were batched
    k = len(gens)
    for i, j in combinations(range(k), 2):
        if np.linalg.norm(np.cross(gens[i], gens[j])) <= tol * norms[i] * norms[j]:
            raise Z.ParallelSegments(f"segments {i} and {j} are parallel")
    classes = {}
    for i, j in combinations(range(k), 2):
        n = np.cross(gens[i], gens[j])
        n /= np.linalg.norm(n)
        members = tuple(m for m in range(k) if abs(gens[m] @ n) <= tol * norms[m])
        if members in classes:
            if abs(abs(classes[members] @ n) - 1.0) > 1e-9:
                raise Z.ConstructionError("inconsistent coplanar classes")
        else:
            if n[np.argmax(np.abs(n))] < 0:
                n = -n
            classes[members] = n
    return classes


def _coplanar_classes_batched(gens, norms, tol):
    # the classes with one batched cross per pair set, keyed by member tuples
    i, j = np.array(list(combinations(range(len(gens)), 2))).T
    cr = Z.cross3(gens[i], gens[j])
    crn = np.linalg.norm(cr, axis=1)
    parallel = crn <= tol * norms[i] * norms[j]
    if parallel.any():
        q = int(np.argmax(parallel))
        raise Z.ParallelSegments(f"segments {i[q]} and {j[q]} are parallel")
    normals = cr / crn[:, None]
    inplane = np.abs(normals @ gens.T) <= tol * norms
    classes = {}
    for n, row in zip(normals, inplane):
        members = tuple(np.flatnonzero(row).tolist())
        if members in classes:
            if abs(abs(classes[members] @ n) - 1.0) > 1e-9:
                raise Z.ConstructionError("inconsistent coplanar classes")
        else:
            classes[members] = -n if n[np.argmax(np.abs(n))] < 0 else n
    return classes


def _zonogon_cycle_signs(gens, members, n):
    # corner subsets of the zonogon of ``members``, CCW about n, from the
    # signs of triple products: each member is turned CCW of the first one,
    # and from the corner of the turned members the members are toggled in
    # their angular order, once per round
    g = gens[list(members)]
    turned = Z.det3(n, g[0], g) < 0
    d = np.where(turned[:, None], -g, g)
    before = Z.det3(n, d[:, None], d[None]) > 0  # before[i, j]: d_i precedes d_j
    order = np.argsort(before.sum(axis=0))
    corner = frozenset(m for m, t in zip(members, turned) if t)
    cycle = []
    for i in np.concatenate([order, order]):
        cycle.append(corner)
        corner = corner ^ {members[i]}
    return cycle


def _build_zonotope_reference(
    generators, tol=Z.COPLANAR_TOL, classes=_coplanar_classes_batched, cycle=_zonogon_cycle_signs
):
    # build_zonotope as it was before vertex sets became bitmasks: frozensets
    # and dicts, one facet at a time; ``classes`` and ``cycle`` swap in the
    # constructions it replaced
    gens = np.asarray(generators, dtype=np.float64)
    gens = gens.reshape(len(gens), 3)
    if len(gens) > 6:
        raise Z.GeometryError("at most six segments are supported")
    gens = gens[[r for r in range(len(gens)) if np.linalg.norm(gens[r]) > 0.0]]
    k = len(gens)
    norms = np.linalg.norm(gens, axis=1)
    if k < 3 or np.linalg.matrix_rank(gens, tol=1e-12 * max(1.0, norms.max())) < 3:
        raise Z.FlatBody("nonzero segments do not span R^3")
    center = gens.sum(axis=0) / 2.0
    facet_raw = []
    for members, n0 in classes(gens, norms, tol).items():
        for sign in (1.0, -1.0):
            n = sign * n0
            base = frozenset(m for m in range(k) if gens[m] @ n > tol * norms[m])
            facet_raw.append((n, [base | s for s in cycle(gens, members, n)], members))
    vertex_id = {}
    for _, cyc, _ in facet_raw:
        for s in cyc:
            vertex_id.setdefault(s, len(vertex_id))
    verts = np.empty((len(vertex_id), 3))
    for s, i in vertex_id.items():
        verts[i] = gens[sorted(s)].sum(axis=0) - center if s else -center
    edge_label, edge_facets = {}, {}
    for _, cyc, _ in facet_raw:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            diff = a ^ b
            if len(diff) != 1:
                raise Z.ConstructionError("facet cycle step is not a single segment")
            u, v = vertex_id[a], vertex_id[b]
            key = (u, v) if u < v else (v, u)
            lab = next(iter(diff))
            if key in edge_label and edge_label[key] != lab:
                raise Z.ConstructionError("conflicting edge labels")
            edge_label[key] = lab
            edge_facets[key] = edge_facets.get(key, 0) + 1
    if any(c != 2 for c in edge_facets.values()):
        raise Z.ConstructionError("an edge is not shared by exactly two facets")
    facets = []
    for n, cyc, members in facet_raw:
        ids = [vertex_id[s] for s in cyc]
        poly = verts[ids]
        signed = float(Z.cross3(poly - poly[0], np.roll(poly, -1, axis=0) - poly[0]).sum(axis=0) @ n) / 2.0
        if signed <= 0:
            raise Z.ConstructionError("facet cycle is not counterclockwise about its normal")
        facets.append((tuple(ids), n, signed, [m in members for m in range(k)]))
    n_v, n_e, n_f = len(verts), len(edge_label), len(facets)
    if n_v - n_e + n_f != 2:
        raise Z.ConstructionError(f"Euler relation failed: V={n_v} E={n_e} F={n_f}")
    ekeys = sorted(edge_label)
    cycles, normals, areas, members = zip(*facets)
    return Z.Zonotope(
        generators=gens,
        vertices=verts,
        edge_vertex_ids=np.array(ekeys, dtype=np.int64).reshape(n_e, 2),
        edge_segment=np.array([edge_label[e] for e in ekeys], dtype=np.int64),
        facet_cycles=cycles,
        facet_normals=np.array(normals),
        facet_areas=np.array(areas),
        facet_members=np.array(members, dtype=bool).reshape(n_f, k),
    )


def _members(z):
    # each facet's generator indices, ascending
    return [tuple(np.flatnonzero(row).tolist()) for row in z.facet_members]


def _assert_same_body(z, ref, name=""):
    # every field, bit for bit
    for got, want in (
        (z.generators, ref.generators), (z.vertices, ref.vertices),
        (z.facet_normals, ref.facet_normals), (z.facet_areas, ref.facet_areas),
    ):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for got, want in (
        (z.edge_vertex_ids, ref.edge_vertex_ids), (z.edge_segment, ref.edge_segment),
        (z.facet_members, ref.facet_members),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), name
    assert z.facet_cycles == ref.facet_cycles and type(z.facet_cycles) is tuple, name
    assert all(type(c) is tuple and all(type(i) is int for i in c) for c in z.facet_cycles), name


def _random_segment_sets(seed, count):
    rng = np.random.default_rng(seed)
    sets = {}
    for q in range(count):
        ty = q % 5 + 1
        segs = Z.segments_from_parameters(Z.random_frame(rng), random_beta(rng, ty))
        sets[f"type{ty}-{q}"] = _nonzero_rows(segs)
    return sets


def _nonzero_rows(segs):
    # the nonzero rows of segments_from_parameters
    return segs[np.linalg.norm(segs, axis=1) > 0.0]


class TestBitmaskBuild:
    """The bitmask face lattice gives the body of the frozenset construction
    it replaced, field by field and bit for bit."""

    def test_unit_shapes(self, unit_shapes):
        for name, z in unit_shapes.items():
            _assert_same_body(Z.build_zonotope(z.generators), _build_zonotope_reference(z.generators), name)

    def test_random_bodies_of_every_type(self):
        sets = _random_segment_sets(1013, 1005)
        assert {name.split("-")[0] for name in sets} == {f"type{t}" for t in range(1, 6)}
        for name, segs in sets.items():
            _assert_same_body(Z.build_zonotope(segs), _build_zonotope_reference(segs), name)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(*[st.integers(-2, 2).map(float)] * 3),
                st.tuples(*[st.floats(-4.0, 4.0, allow_subnormal=False)] * 3),
            ),
            min_size=3,
            max_size=6,
        )
    )
    # pair cross products of size 1e-162, whose squares are subnormal
    @example([(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0, 6.380143499413343e-162)])
    def test_same_body_or_same_error(self, vectors):
        # small integer vectors make zero, parallel, flat and many-member
        # coplanar sets common
        gens = np.array(vectors)
        try:
            ref = _build_zonotope_reference(gens)
        except Z.GeometryError as exc:
            with pytest.raises(type(exc)) as got:
                Z.build_zonotope(gens)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            _assert_same_body(Z.build_zonotope(gens), ref)


class TestBatchedPairCrosses:
    """``build_zonotope`` with one batched cross per pair set gives the
    bodies of the per-pair loop: same classes, order, ids and segments."""

    @pytest.fixture
    def segment_sets(self, unit_shapes):
        sets = {name: z.generators for name, z in unit_shapes.items()}
        rng = np.random.default_rng(2024)
        for q in range(20):
            ty = q % 5 + 1
            v, b = Z.random_frame(rng), random_beta(rng, ty)
            segs = Z.segments_from_parameters(v, b)
            assert segs.shape == (6, 3)
            for k, (i, j) in enumerate(Z.PAIRS):
                assert np.array_equal(segs[k], b.values[k] * np.cross(v[i], v[j]))
            sets[f"type{ty}-{q}"] = _nonzero_rows(segs)
            kept = segs[[k for k, x in enumerate(b.values) if x > 0]].tobytes()
            assert Z.build_from_parameters(v, b).generators.tobytes() == sets[f"type{ty}-{q}"].tobytes() == kept
        return sets

    def test_classes_match_the_per_pair_loop(self, segment_sets):
        # facets 2c and 2c + 1 hold class c, about its normal and the opposite one
        for name, gens in segment_sets.items():
            norms = np.linalg.norm(gens, axis=1)
            ref = _coplanar_classes_reference(gens, norms, Z.COPLANAR_TOL)
            z = Z.build_zonotope(gens)
            assert _members(z)[::2] == list(ref), name
            assert _members(z)[1::2] == list(ref), name
            for f, g, n in zip(z.facet_normals[::2], z.facet_normals[1::2], ref.values()):
                assert np.abs(f - n).max() <= 1e-14, name
                assert np.array_equal(g, -f), name

    def test_body_matches_the_per_pair_loop(self, segment_sets):
        for name, segs in segment_sets.items():
            z = Z.build_zonotope(segs)
            ref = _build_zonotope_reference(segs, classes=_coplanar_classes_reference)
            assert _members(z) == _members(ref)
            assert z.facet_cycles == ref.facet_cycles
            assert np.array_equal(z.edge_vertex_ids, ref.edge_vertex_ids), name
            assert np.array_equal(z.edge_segment, ref.edge_segment), name
            scale = np.abs(ref.vertices).max()
            assert np.abs(z.vertices - ref.vertices).max() <= 1e-14 * scale, name
            for f, r in zip(z.facet_normals, ref.facet_normals):
                assert np.abs(f - r).max() <= 1e-14, name
            for f, r in zip(z.facet_areas.tolist(), ref.facet_areas.tolist()):
                assert abs(f - r) <= 1e-14 * r, name


def _hull2d_reference(pts):
    # the monotone-chain hull build_zonotope ran before facet cycles came
    # from triple-product signs: CCW, strict corners only
    spread = float(np.ptp(pts, axis=0).max())
    turn_eps = 1e-13 * spread * spread
    dup_eps = 1e-12 * spread
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))

    def chain(idx):
        out = []
        for i in idx:
            if out and np.abs(pts[i] - pts[out[-1]]).max() <= dup_eps:
                continue
            while len(out) >= 2:
                o, a = pts[out[-2]], pts[out[-1]]
                cross = (a[0] - o[0]) * (pts[i][1] - o[1]) - (a[1] - o[1]) * (pts[i][0] - o[0])
                if cross > turn_eps:
                    break
                out.pop()
            out.append(i)
        return out

    return chain(order)[:-1] + chain(order[::-1])[:-1]


def _zonogon_cycle_reference(gens, members, n):
    # every subset sum of the class, projected on an (e1, e2) frame of the
    # facet plane with e1 x e2 = n, and its planar hull
    e1 = gens[members[0]] - (gens[members[0]] @ n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    pts, subs = [], []
    for r in range(len(members) + 1):
        for chosen in combinations(members, r):
            s = gens[list(chosen)].sum(axis=0)
            pts.append((s @ e1, s @ e2))
            subs.append(frozenset(chosen))
    return [subs[h] for h in _hull2d_reference(np.array(pts))]


class TestZonogonCycles:
    """Facet cycles read from triple-product signs are the subset-sum hull
    cycles of the construction they replaced, with the same orientation."""

    @pytest.fixture(scope="class")
    def segment_sets(self, unit_shapes):
        sets = {name: z.generators for name, z in unit_shapes.items()}
        sets.update(_random_segment_sets(1010, 200))
        return sets

    def test_cycles_are_the_hull_cycles_up_to_rotation(self, segment_sets):
        turned_hexagons = 0
        for name, gens in segment_sets.items():
            z = Z.build_zonotope(gens)
            norms = np.linalg.norm(gens, axis=1)
            k = len(gens)
            # each vertex's subset of segments, by its position among all subset sums
            subsets = [frozenset(m for m in range(k) if mask >> m & 1) for mask in range(1 << k)]
            sums = np.array([gens[sorted(s)].sum(axis=0) for s in subsets]) - gens.sum(axis=0) / 2.0
            vertex_set = [subsets[int(np.abs(sums - v).max(axis=1).argmin())] for v in z.vertices]
            for n, members, cycle in zip(z.facet_normals, _members(z), z.facet_cycles):
                base = frozenset(m for m in range(k) if gens[m] @ n > Z.COPLANAR_TOL * norms[m])
                got = [vertex_set[i] - base for i in cycle]
                ref = _zonogon_cycle_reference(gens, members, n)
                assert len(got) == len(ref) == 2 * len(members), name
                i = got.index(ref[0])
                assert got[i:] + got[:i] == ref, name
                g = gens[list(members)]
                turned_hexagons += len(members) == 3 and (Z.det3(n, g[0], g) < 0).any()
        # the turn step only changes the order when a class has three members
        assert turned_hexagons > 300

    def test_body_matches_the_hull_construction(self, segment_sets):
        for name, segs in segment_sets.items():
            z = Z.build_zonotope(segs)
            ref = _build_zonotope_reference(segs, cycle=_zonogon_cycle_reference)
            scale = np.abs(ref.vertices).max()
            # the vertex sets agree; match ids through coordinates
            dist = np.linalg.norm(z.vertices[:, None] - ref.vertices[None], axis=2)
            to_ref = dist.argmin(axis=1)
            assert sorted(to_ref.tolist()) == list(range(len(ref.vertices))), name
            assert dist.min(axis=1).max() <= 1e-14 * scale, name
            edges = {
                (*sorted(to_ref[e].tolist()), int(g))
                for e, g in zip(z.edge_vertex_ids, z.edge_segment)
            }
            ref_edges = {
                (*sorted(e.tolist()), int(g))
                for e, g in zip(ref.edge_vertex_ids, ref.edge_segment)
            }
            assert edges == ref_edges, name
            assert len(z.facet_cycles) == len(ref.facet_cycles), name
            assert _members(z) == _members(ref), name
            assert np.array_equal(z.facet_normals, ref.facet_normals), name
            for cycle, ref_cycle in zip(z.facet_cycles, ref.facet_cycles):
                ids = to_ref[list(cycle)].tolist()
                i = ids.index(ref_cycle[0])
                assert tuple(ids[i:] + ids[:i]) == ref_cycle, name
            for f, r in zip(z.facet_areas.tolist(), ref.facet_areas.tolist()):
                assert abs(f - r) <= 1e-14 * r, name


def _facet_loops(z):
    # volume, facet_planes, belts, weighted_edge_functional, the facet measure and to_json
    # as they ran on one record per facet and per segment, each facet's area a float
    facets = list(zip(z.facet_cycles, z.facet_normals, z.facet_areas.tolist(), _members(z)))
    total = 0.0
    for ids, n, area, _ in facets:
        total += area * float(z.vertices[ids[0]] @ n)
    normals = np.array([n for _, n, _, _ in facets])
    offsets = np.array([float(z.vertices[ids[0]] @ n) for ids, n, _, _ in facets])
    belts = [sum(idx in members for _, _, _, members in facets) for idx in range(len(z.generators))]
    m = Z.WeightPair(1.0, 0.7)
    weighted = 0.0
    for g, c in zip(z.generators, belts):
        weighted += (m.alpha4 if c == 4 else m.alpha6) * float(np.linalg.norm(g))
    measure = normals, np.array([area for _, _, area, _ in facets])
    doc = {
        "schema": "1",
        "generators": [g.tolist() for g in z.generators],
        "vertices": z.vertices.tolist(),
        "edges": [[int(u), int(v), int(g)] for (u, v), g in zip(z.edge_vertex_ids, z.edge_segment)],
        "facets": [
            {"vertices": list(map(int, ids)), "normal": n.tolist(), "area": area} for ids, n, area, _ in facets
        ],
    }
    return total / 3.0, (normals, offsets), belts, (m, weighted), measure, doc


class TestArrayRecord:
    """The measurements read from the body's arrays equal, to the bit, the
    per-facet and per-segment loops they replace, and JSON round-trips the record."""

    @pytest.fixture(scope="class")
    def bodies(self, unit_shapes):
        bodies = dict(unit_shapes)
        rng = np.random.default_rng(11)
        for q in range(250):
            bodies[f"type{q % 5 + 1}-{q}"] = random_body(rng, q % 5 + 1)
        return bodies

    def test_measurements_equal_the_loops(self, bodies):
        for name, z in bodies.items():
            volume, (normals, offsets), belts, (m, weighted), measure, doc = _facet_loops(z)
            assert type(z.volume()) is float and z.volume() == volume, name
            got_normals, got_offsets = z.facet_planes()
            assert got_normals.tobytes() == normals.tobytes() and got_offsets.tobytes() == offsets.tobytes(), name
            assert Z.belts(z).tolist() == belts, name
            got = Z.weighted_edge_functional(z, m)
            assert type(got) is float and got == weighted, name
            assert z.facet_normals.tobytes() == measure[0].tobytes(), name
            assert z.facet_areas.tobytes() == measure[1].tobytes(), name
            assert json.dumps(Z.to_json(z)) == json.dumps(doc), name

    def test_json_rebuilds_the_record(self, bodies):
        for name, z in bodies.items():
            _assert_same_body(Z.from_json(json.dumps(Z.to_json(z))), z, name)

    def test_facet_measure_is_valid(self, bodies):
        # build_zonotope normalises each normal, refuses an area <= 0, pairs every facet with its opposite and
        # refuses segments that do not span R^3: the isotropy suite stacks these arrays unchecked
        for name, z in bodies.items():
            assert_facet_measure(z.facet_normals, z.facet_areas)


class TestBelts:
    def test_canonical_zone_sizes(self, unit_shapes):
        expected = {
            "cube": [4, 4, 4],
            "hexprism": [4, 4, 4, 6],
            "rhombic": [6, 6, 6, 6],
            "elongated": [4, 6, 6, 6, 6],
            "truncocta": [6, 6, 6, 6, 6, 6],
        }
        for name, z in unit_shapes.items():
            got = sorted(Z.belts(z).tolist())
            assert got == expected[name], name

    @pytest.mark.parametrize(
        "body",
        ["type1", "type2", "type3", "type4", "type5",
         "cube", "hexprism", "rhombic", "elongated", "truncocta"],
    )
    def test_zone_edge_partition(self, rng, unit_shapes, body):
        # each segment owns as many edges as its zone has facets; types 1, 2
        # and 4 and four of the shapes have 4-belts
        if body in unit_shapes:
            bodies = [unit_shapes[body]]
        else:
            bodies = [random_body(rng, int(body[4:])) for _ in range(4)]
        for z in bodies:
            counts = np.bincount(z.edge_segment, minlength=len(z.generators))
            assert Z.belts(z).tolist() == counts.tolist()


def _edge_lengths(z):
    return np.linalg.norm(z.vertices[z.edge_vertex_ids[:, 1]] - z.vertices[z.edge_vertex_ids[:, 0]], axis=1)


class TestFunctionals:
    @pytest.mark.parametrize(
        "alpha6, alpha4", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_weights_must_be_finite(self, alpha6, alpha4):
        with pytest.raises(Z.GeometryError, match="finite and positive"):
            Z.WeightPair(alpha6, alpha4)

    def test_weighted_functional_cube(self):
        z = Z.cube(1.0)
        m = Z.WeightPair(2.0, 1.0)
        assert abs(Z.weighted_edge_functional(z, m) - 3.0) < 1e-12

    def test_total_edge_length_routes_agree(self, rng):
        # vertex-coordinate route vs segment-length x zone-size route
        z = random_body(rng, 5)
        by_vertices = float(_edge_lengths(z).sum())
        by_zones = sum(float(np.linalg.norm(g)) * b for g, b in zip(z.generators, Z.belts(z).tolist()))
        assert abs(by_vertices - by_zones) < 1e-9

    def test_mean_width_equals_half_segment_sum(self, rng):
        # support-function quadrature vs the closed form for zonotopes
        for ty in (1, 3, 5):
            z = random_body(rng, ty)
            exact = 0.5 * sum(float(np.linalg.norm(g)) for g in z.generators)
            assert abs(mean_width_estimate(z) - exact) < 1e-4

    def test_functional_equals_mean_width_weights(self, rng):
        # with both weights 1/2 the functional is the mean width
        z = random_body(rng, 5)
        m = Z.WeightPair(0.5, 0.5)
        assert abs(Z.weighted_edge_functional(z, m) - mean_width_estimate(z)) < 1e-4


class TestJson:
    def test_roundtrip(self, rng):
        z = random_body(rng, 4)
        doc = Z.to_json(z)
        assert doc["schema"] == "1"
        assert sorted(doc) == ["edges", "facets", "generators", "schema", "vertices"]
        text = json.dumps(doc)
        z2 = Z.from_json(json.loads(text))
        assert abs(z.volume() - z2.volume()) < 1e-12
        assert len(z2.vertices) == len(z.vertices)
        assert len(z2.facet_cycles) == len(z.facet_cycles)

    def test_roundtrip_with_beta(self, rng):
        # documents once carried each generator's frame pair and the six coefficients; from_json reads neither
        b = random_beta(rng, 4)
        z = Z.build_from_parameters(Z.random_frame(rng), b)
        pairs = [list(p) for p, x in zip(Z.PAIRS, b.values) if x > 0]
        doc = {**Z.to_json(z), "generator_index": pairs, "beta": b.values.tolist()}
        _assert_same_body(Z.from_json(json.dumps(doc)), z)


class TestCanonicalShapes:
    def test_unit_volumes(self, unit_shapes):
        for name, z in unit_shapes.items():
            assert abs(z.volume() - 1.0) < 1e-9, name

    def test_cube_vertices(self):
        z = Z.cube(2.0)
        assert abs(z.volume() - 8.0) < 1e-12
        assert np.allclose(np.abs(z.vertices), 1.0)

    def test_truncated_octahedron_edges_equal(self):
        z = Z.truncated_octahedron(0.7)
        assert np.allclose(_edge_lengths(z), 0.7)

    def test_rhombic_dodecahedron_edges_equal(self):
        z = Z.rhombic_dodecahedron(0.9)
        assert np.allclose(_edge_lengths(z), 0.9)

    def test_elongation_default(self):
        z = Z.elongated_rhombic_dodecahedron(0.5 / math.sqrt(3.0), 0.5 / math.sqrt(3.0), 0.5)
        four = z.generators[Z.belts(z) == 4]
        assert len(four) == 1 and abs(np.linalg.norm(four[0]) - 0.5) < 1e-12

    def test_unit_volume_rescales_segments(self):
        z = Z.elongated_rhombic_dodecahedron(0.6 / math.sqrt(3.0), 0.6 / math.sqrt(3.0), 0.6)
        u = Z.unit_volume(z)
        assert abs(u.volume() - 1.0) < 1e-12
        scale = z.volume() ** (-1.0 / 3.0)
        assert len(u.generators) == len(z.generators)
        for s, t in zip(z.generators, u.generators):
            assert np.allclose(t, s * scale, rtol=1e-15, atol=0)
        assert np.array_equal(Z.belts(u), Z.belts(z))
