"""Planar-product density bounds, their published minima, and the
monotonicity certificates behind them."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mosaicdensity import decomposable as D

SQRT3 = math.sqrt(3.0)
HEX_MIN = math.sqrt(2.0 * SQRT3)          # 1.8612097182041991
TRI_ROOT = 3.0 ** 0.75                    # sqrt(3 * sqrt(3))


class TestComponents:
    def test_planar_validation(self):
        with pytest.raises(ValueError):
            D.PlanarComponent(0.0, 4.0)
        with pytest.raises(ValueError):
            D.PlanarComponent(1.0, 2.9)
        with pytest.raises(ValueError):
            D.PlanarComponent(1.0, 6.1)
        D.PlanarComponent(1.0, 3.0)
        D.PlanarComponent(1.0, 6.0)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            D.SegmentComponent(0.0)
        with pytest.raises(ValueError):
            D.SegmentComponent(math.inf)

    def test_spec_constraint(self):
        with pytest.raises(ValueError):
            D.DecompositionSpec(())
        with pytest.raises(D.ConstraintViolated):
            D.DecompositionSpec((D.PlanarComponent(2.0, 4.0),))
        with pytest.raises(D.ConstraintViolated):
            D.DecompositionSpec(
                (D.PlanarComponent(1.0, 4.0),), D.SegmentComponent(2.0)
            )
        ok = D.DecompositionSpec(
            (D.PlanarComponent(0.5, 4.0), D.PlanarComponent(4.0, 3.0)),
            D.SegmentComponent(0.5),
        )
        assert 2 * len(ok.planars) + (ok.segment is not None) == 5
        one = D.DecompositionSpec((D.PlanarComponent(1.0, 6.0),))
        assert 2 * len(one.planars) + (one.segment is not None) == 2


def planar_vertex_density(c: D.PlanarComponent) -> float:
    """Reference: vertices per unit area of a normal planar mosaic with these stats."""
    return (c.e_hat - 2.0) / (2.0 * c.area)


def planar_skeleton_density_bound(c: D.PlanarComponent) -> float:
    """Reference: the isoperimetric lower bound on skeleton length per unit area."""
    return math.sqrt(c.e_hat * math.tan(math.pi / c.e_hat) / c.area)


class TestPlanarDensities:
    def test_vertex_density(self):
        assert planar_vertex_density(D.PlanarComponent(1.0, 6.0)) == 2.0
        assert planar_vertex_density(D.PlanarComponent(1.0, 3.0)) == 0.5
        assert planar_vertex_density(D.PlanarComponent(2.0, 4.0)) == 0.5

    def test_skeleton_bound(self):
        # square grid: bound sqrt(4 tan(pi/4)) = 2 equals the true density
        assert abs(planar_skeleton_density_bound(D.PlanarComponent(1.0, 4.0)) - 2.0) < 1e-14
        # hexagonal mosaic attains sqrt(2 sqrt 3)
        assert abs(planar_skeleton_density_bound(D.PlanarComponent(1.0, 6.0)) - HEX_MIN) < 1e-14
        # area scaling goes like 1/sqrt(a)
        b1 = planar_skeleton_density_bound(D.PlanarComponent(1.0, 5.0))
        b4 = planar_skeleton_density_bound(D.PlanarComponent(4.0, 5.0))
        assert abs(b1 - 2.0 * b4) < 1e-14

    def test_one_factor_bound_is_area_times_skeleton_term(self):
        # k = 1: the bound's one term is sqrt(h(e) a), the skeleton density bound of the factor times its area
        for e in np.linspace(3.0, 6.0, 121).tolist():
            for a in np.logspace(-6.0, 6.0, 25).tolist():
                want = a * planar_skeleton_density_bound(D.PlanarComponent(a, e))
                assert abs(float(D._bound_arrays([e], [a], None)) - want) <= 1e-15 * want, (e, a)


class TestBounds:
    def test_cubic_grid_is_three(self):
        spec = D.DecompositionSpec(
            (D.PlanarComponent(1.0, 4.0),), D.SegmentComponent(1.0)
        )
        assert D.density_bound_odd(spec) == 3.0

    def test_double_hexagon(self):
        spec = D.DecompositionSpec(
            (D.PlanarComponent(1.0, 6.0), D.PlanarComponent(1.0, 6.0))
        )
        assert abs(D.density_bound_even(spec) - 4.0 * HEX_MIN) < 1e-12

    def test_wrong_parity_raises(self):
        even = D.DecompositionSpec((D.PlanarComponent(1.0, 6.0),))
        odd = D.DecompositionSpec((D.PlanarComponent(1.0, 4.0),), D.SegmentComponent(1.0))
        with pytest.raises(ValueError):
            D.density_bound_odd(even)
        with pytest.raises(ValueError):
            D.density_bound_even(odd)

    @given(st.floats(0.2, 5.0), st.floats(3.0, 6.0))
    def test_symmetric_areas_minimize_even_pair(self, t, e):
        skew = D.DecompositionSpec(
            (D.PlanarComponent(t, e), D.PlanarComponent(1.0 / t, e))
        )
        flat = D.DecompositionSpec(
            (D.PlanarComponent(1.0, e), D.PlanarComponent(1.0, e))
        )
        assert D.density_bound_even(skew) >= D.density_bound_even(flat) - 1e-12


class TestPublishedMinima:
    def test_closed_form_values(self):
        expect = {
            2: HEX_MIN,
            3: 3.0 * SQRT3 / 2.0,
            4: TRI_ROOT,
            5: 3.0 * SQRT3 * 2.0 ** (2.0 / 3.0) / 4.0,
            6: 3.0 * TRI_ROOT / 4.0,
            7: 3.0 * SQRT3 * 3.0 ** (2.0 / 3.0) / 8.0,
        }
        for n, want in expect.items():
            value, spec = D.minimize_density(n)
            assert abs(value - want) < 1e-14
            assert 2 * len(spec.planars) + (spec.segment is not None) == n
        assert abs(expect[3] - 2.598076211353316) < 1e-14
        assert abs(expect[5] - 2.062094455498) < 1e-12
        assert abs(expect[7] - 1.351054074573) < 1e-12

    def test_returned_specs(self):
        _, s2 = D.minimize_density(2)
        assert s2.planars[0].e_hat == 6.0 and s2.planars[0].area == 1.0
        _, s4 = D.minimize_density(4)
        assert all(c.e_hat == 3.0 and c.area == 1.0 for c in s4.planars)
        _, s5 = D.minimize_density(5)
        assert s5.segment is not None and all(c.e_hat == 3.0 for c in s5.planars)

    def test_bound_at_spec_matches_where_attained(self):
        for n in (2, 4, 6):
            value, spec = D.minimize_density(n)
            assert abs(D.density_bound_even(spec) - value) < 1e-12
        value, spec = D.minimize_density(3)
        assert abs(D.density_bound_odd(spec) - value) < 1e-12

    def test_bound_at_spec_differs_for_higher_odd(self):
        # the published odd closed forms for n >= 5 are valid lower
        # bounds but sit strictly below the functional at the published
        # parameters (and below its true minimum; see the brute force)
        v5, s5 = D.minimize_density(5)
        at5 = D.density_bound_odd(s5)
        assert abs(at5 - 2.4575924617540306) < 1e-12
        assert at5 > v5 + 0.3
        v7, s7 = D.minimize_density(7)
        at7 = D.density_bound_odd(s7)
        assert abs(at7 - 1.8311445185150619) < 1e-12
        assert at7 > v7 + 0.4

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            D.minimize_density(1)


class TestBruteForce:
    def test_matches_closed_forms_up_to_four(self):
        for n in (2, 3, 4):
            closed, _ = D.minimize_density(n)
            assert abs(D.brute_force_minimize(n) - closed) < 1e-6

    def test_five_finds_true_minimum_above_closed_form(self):
        closed, _ = D.minimize_density(5)
        found = D.brute_force_minimize(5)
        true_min = 1.25 * 3.0 ** 0.6
        assert abs(found - true_min) < 1e-6
        assert found >= closed - 1e-9
        assert found > closed + 0.3

    def test_pinned_values(self):
        # exact oracle values; a change in the descent's move order or
        # acceptance rule shows up here
        assert D.brute_force_minimize(5, 30) == 2.416477556164703
        assert D.brute_force_minimize(7, 30) == 1.7730821579085978

    @pytest.mark.parametrize("dims", range(1, 7))
    def test_axis_points_match_shrinking_loop(self, dims):
        for grid_n in range(20, 3001):
            m = grid_n + 1
            while m**dims > 250_000 and m > 5:
                m -= 2
            assert D._axis_points(grid_n, dims) == m, grid_n

    def test_huge_grid_is_capped(self):
        t = time.perf_counter()
        assert D.brute_force_minimize(2, 10**12) == HEX_MIN
        assert time.perf_counter() - t < 1.0

    @pytest.mark.parametrize("grid_n", [20, 30, 41])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_open_mesh_scan_matches_dense_columns(self, n, grid_n):
        k, odd = divmod(n, 2)
        dims = 2 * k - 1 + odd
        m = D._axis_points(grid_n, dims)
        axes = [np.linspace(3.0, 6.0, m)] * k + [np.linspace(-1.5, 1.5, m)] * (dims - k)
        dense = D._oracle_bound(np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")]), k, odd)
        mesh = D._oracle_bound(np.meshgrid(*axes, indexing="ij", sparse=True), k, odd)
        assert mesh.shape == (m,) * dims
        assert np.array_equal(mesh.ravel(), dense)
        # the oracle's scan, before its descent, finds the bound at the grid argmin
        assert D._scan_min(axes, k, odd)[0] == dense[np.argmin(dense)]

    @pytest.mark.parametrize("slab", [None, 1, 1000])
    @pytest.mark.parametrize("grid_n", [20, 30, 41])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_slab_scan_matches_dense_scan(self, n, grid_n, slab, monkeypatch):
        # the default cap, one point per slab (one first-axis row each), and a cap between
        if slab is not None:
            monkeypatch.setattr(D, "SLAB_POINTS", slab)
        k, odd = divmod(n, 2)
        dims = 2 * k - 1 + odd
        m = D._axis_points(grid_n, dims)
        axes = [np.linspace(3.0, 6.0, m)] * k + [np.linspace(-1.5, 1.5, m)] * (dims - k)
        dense = D._oracle_bound(np.meshgrid(*axes, indexing="ij", sparse=True), k, odd)
        i = int(np.argmin(dense))
        value, index = D._scan_min(axes, k, odd)
        assert value == dense.flat[i]
        assert index == np.unravel_index(i, dense.shape)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            D.brute_force_minimize(8)
        with pytest.raises(ValueError):
            D.brute_force_minimize(3, grid_n=10)


def _bound_arrays_reference(es, areas, length):
    # the bound as it was evaluated before the prefix and suffix products: O(k^2)
    k = len(es)
    total = 0.0
    for i in range(k):
        others = 2.0 ** (1 - k)
        for j in range(k):
            if j != i:
                others = others * (es[j] - 2.0)
        total = total + np.sqrt(es[i] * np.tan(np.pi / es[i]) * areas[i]) * others
    if length is not None:
        cross = length / 2.0**k
        for e in es:
            cross = cross * (e - 2.0)
        total = total + cross
    return total


class TestBoundArrays:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("odd", [False, True])
    def test_bit_identical_to_the_pairwise_loop(self, k, odd):
        # 2000 random (e_hat, area, length) cases per k and parity, 12 000 in all; up to
        # k = 3 (the oracle's) the new products differ only by the exact power of two
        rng = np.random.default_rng(k + 10 * odd)
        es = [rng.uniform(3.0, 6.0, 2000) for _ in range(k)]
        areas = [np.exp(rng.uniform(-1.5, 1.5, 2000)) for _ in range(k)]
        length = np.exp(rng.uniform(-1.5, 1.5, 2000)) if odd else None
        got = D._bound_arrays(es, areas, length)
        assert (got == _bound_arrays_reference(es, areas, length)).all()

    @pytest.mark.parametrize("k", [250, 499])
    def test_bound_curve_columns_of_corrected_minimum(self, k, monkeypatch):
        # the columns behind corrected_minimum(2k + 1); e_hat - 2 = 1, 2 and 4 are exact factors
        e = np.array([3.0, 4.0, 6.0])
        _, got = D.bound_curve(k, e)
        monkeypatch.setattr(D, "_bound_arrays", _bound_arrays_reference)
        _, want = D.bound_curve(k, e)
        assert (got == want).all()

    def test_linear_in_the_factor_count(self):
        t0 = time.perf_counter()
        D.corrected_minimum(999)
        assert time.perf_counter() - t0 < 0.25  # 0.5 s with the pairwise loop


class TestBoundCurve:
    def test_header_and_triangle_endpoints(self):
        header, rows = D.bound_curve(1, np.array([3.0, 6.0]))
        assert header == ["e_hat", "even_bound", "odd_bound"]
        assert rows.shape == (2, 3)
        assert abs(rows[0, 1] - TRI_ROOT) < 1e-12
        assert abs(rows[0, 2] - 3.0 * SQRT3 / 2.0) < 1e-12
        assert abs(rows[1, 1] - HEX_MIN) < 1e-12

    def test_two_factor_triangle_gives_true_five_dim_minimum(self):
        _, rows = D.bound_curve(2, np.array([3.0]))
        assert abs(rows[0, 2] - 1.25 * 3.0 ** 0.6) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_row_formula(self, k):
        # per-row closed form: even = k sqrt(h(e)) (e-2)^(k-1) / 2^(k-1), and
        # the odd bound c1 l^(-1/(2k)) + c2 l at its minimizing length
        e_values = np.linspace(3.0, 6.0, 61)
        _, rows = D.bound_curve(k, e_values)
        for e, row in zip(e_values, rows):
            even = k * math.sqrt(e * math.tan(math.pi / e)) * (e - 2.0) ** (k - 1) / 2.0 ** (k - 1)
            c2 = (e - 2.0) ** k / 2.0**k
            length = (even / (2.0 * k * c2)) ** (2.0 * k / (2.0 * k + 1.0))
            odd = even * length ** (-1.0 / (2.0 * k)) + c2 * length
            assert row[0] == e
            assert abs(row[1] - even) <= 1e-15 * even
            assert abs(row[2] - odd) <= 1e-15 * odd

    def test_validation(self):
        with pytest.raises(ValueError):
            D.bound_curve(0, np.array([4.0]))
        with pytest.raises(ValueError):
            D.bound_curve(1, np.array([2.5]))


class TestCertificates:
    def test_pass_with_positive_margins(self):
        rep = D.monotonicity_certificates(2000)
        assert rep.passed
        assert rep.root_decreasing_margin > 0
        assert rep.edge_weighted_increasing_margin > 0
        assert rep.product_increasing_margin > 0
        assert rep.root_convexity_margin > 0
        assert rep.g2_min > 0
        assert rep.g2_fd_residual < 1e-4

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            D.monotonicity_certificates(50)

    def test_margins_pinned(self):
        # the four sign-condition margins, pinned; g2_min and the
        # finite-difference residual are Python floats, not numpy scalars
        rep = D.monotonicity_certificates()
        assert rep.root_decreasing_margin == 9.735905822427782e-06
        assert rep.edge_weighted_increasing_margin == 0.0005143842240031837
        assert rep.product_increasing_margin == 0.0008219129214772636
        assert rep.root_convexity_margin == 1.6506751521205842e-09
        assert type(rep.g2_min) is float and type(rep.g2_fd_residual) is float

    def test_g2_matches_scalar_reference(self):
        def g2(x):
            t, tp = math.exp(x) + 2.0, math.exp(x)
            tan, sec2 = math.tan(math.pi / t), 1.0 / math.cos(math.pi / t) ** 2
            h = t * tan
            h1 = tan - math.pi / t * sec2
            h2 = 2.0 * math.pi**2 / t**3 * tan * sec2
            return tp * h1 / h + tp * tp * (h2 * h - h1 * h1) / (h * h)

        xs = np.linspace(0.0, math.log(4.0), 10_000)
        want = np.array([g2(x) for x in xs.tolist()])
        assert np.allclose(D._g2(xs), want, rtol=1e-13, atol=0)
