"""End-to-end acceptance checks, one per published claim.

Each test prints one PASS/FAIL line with the measured numbers.  The
decomposable cross-check (test 08) fails by design at n = 5: the
published closed form there is a strict lower bound on the density
functional, not its minimum, and the honest comparison records that.
"""

import math
import time

import numpy as np
from scipy.spatial import ConvexHull

from conftest import random_beta
from mosaicdensity import decomposable as D
from mosaicdensity import simplex
from mosaicdensity import tetra
from mosaicdensity import tiling
from mosaicdensity import weights as W
from mosaicdensity import zonotope as Z
from mosaicdensity.zonotope import WeightPair


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_volume_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        g = Z.random_frame(rng)
        b = random_beta(rng, int(rng.integers(1, 6)))
        body = Z.build_from_parameters(g, b)
        poly = Z.volume_polynomial(b.values)
        hull = ConvexHull(body.vertices).volume
        worst = max(worst, abs(hull - poly) / max(1.0, poly))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 30.0
    _report(1, "volume oracle", ok, f"1000 bodies, max rel err {worst:.3e}, {dt:.1f}s")
    assert worst <= 1e-9
    assert dt < 30.0


def test_02_tetra_identities():
    t0 = time.perf_counter()
    r_poly, r_sum = tetra.batch_identity_residuals(10_000, seed=0)
    dt = time.perf_counter() - t0
    ok = max(r_poly, r_sum) <= 1e-9 and dt < 10.0
    _report(
        2, "tetra pair identities", ok,
        f"10000 tetra, residuals {r_poly:.3e} / {r_sum:.3e}, {dt:.1f}s",
    )
    assert r_poly <= 1e-9 and r_sum <= 1e-9
    assert dt < 10.0


def test_03_simplex_maximum():
    t0 = time.perf_counter()
    worst_gap = 0.0
    min_margin = math.inf
    for lam in (1.0, 1.2, 2.0, 5.0, 20.0):
        closed = 16.0 * lam**3 / (27.0 * (4.0 * lam - 1.0) ** 2)
        brute = simplex.grid_simplex_max(lam)
        worst_gap = max(worst_gap, abs(closed - brute))
        min_margin = min(min_margin, closed - max(simplex.boundary_candidates(lam)))
    dt = time.perf_counter() - t0
    ok = worst_gap <= 1e-5 and min_margin > 0.0 and dt < 60.0
    _report(
        3, "simplex maximum", ok,
        f"5 scale factors, max gap {worst_gap:.3e}, boundary margin {min_margin:.3e}, {dt:.1f}s",
    )
    assert worst_gap <= 1e-5
    assert min_margin > 0.0
    assert dt < 60.0


def test_04_minima_table():
    worst = 0.0
    for a6, a4 in ((1.0, 1.0), (2.0, 1.0), (6.0, 4.0)):
        m = WeightPair(a6, a4)
        closed = {
            1: 3.0 * a4,
            2: 3.0 ** (7.0 / 6.0) * a4 ** (2.0 / 3.0) * a6 ** (1.0 / 3.0) / 2.0 ** (1.0 / 3.0),
            3: 2.0 ** (2.0 / 3.0) * math.sqrt(3.0) * a6,
            5: 3.0 * a6 / 2.0 ** (1.0 / 6.0),
        }
        for i, want in closed.items():
            z = W.optimal_shape_zonotope(i, m)
            got = Z.weighted_edge_functional(z, m)
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    _report(4, "per-type minima table", ok, f"3 weight pairs x 4 shapes, max diff {worst:.3e}")
    assert worst <= 1e-9


def test_05_winner_thresholds():
    ratios = np.arange(0.5, 1.2 + 5e-4, 1e-3)
    winners = [W.classify_optimal(WeightPair(1.0, float(r))).winner for r in ratios]
    flips = [
        (float(ratios[i]), float(ratios[i + 1]))
        for i in range(len(winners) - 1)
        if winners[i] is not winners[i + 1]
    ]
    thresholds = (W.CUBE_PRISM_RATIO, W.PRISM_OCTA_RATIO)
    located = len(flips) == 2 and all(
        lo <= thr <= hi for (lo, hi), thr in zip(flips, thresholds)
    )
    m1 = WeightPair(1.0, W.CUBE_PRISM_RATIO)
    tie1 = abs(W.type_minimum(1, m1).value - W.type_minimum(2, m1).value)
    m2 = WeightPair(1.0, W.PRISM_OCTA_RATIO)
    tie2 = abs(W.type_minimum(2, m2).value - W.type_minimum(5, m2).value)
    ties_ok = (
        tie1 <= 1e-12
        and tie2 <= 1e-12
        and W.classify_optimal(m1).winner is W.Winner.TIE_CUBE_PRISM
        and W.classify_optimal(m2).winner is W.Winner.TIE_PRISM_OCTA
    )
    ok = located and ties_ok
    _report(
        5, "winner thresholds", ok,
        f"switches at {flips}, tie gaps {tie1:.2e} / {tie2:.2e}",
    )
    assert located
    assert ties_ok


def test_06_weights_six_four():
    m = WeightPair(6.0, 4.0)
    ans = W.classify_optimal(m)
    octa = W.type_minimum(5, m).value
    ok = (
        ans.winner is W.Winner.CUBE
        and abs(ans.value - 12.0) <= 1e-12
        and octa > 12.0
        and abs(octa - 18.0 / 2.0 ** (1.0 / 6.0)) <= 1e-12
    )
    _report(6, "weights (6,4) winner", ok, f"cube 12 vs truncated octahedron {octa:.5f}")
    assert ans.winner is W.Winner.CUBE and abs(ans.value - 12.0) <= 1e-12
    assert octa > 12.0
    assert abs(octa - 16.03618) < 1e-4


def test_07_type4_sweep():
    t0 = time.perf_counter()
    m = WeightPair(1.0, 0.9)
    rep = W.type4_sweep(m, 10_000, seed=0)
    dt = time.perf_counter() - t0
    bound = 3.0 * 0.9 ** (1.0 / 3.0) * (4.0 - 0.81) ** (1.0 / 3.0) / 2.0 ** (2.0 / 3.0)
    ok = abs(rep.bound - bound) <= 1e-12 and rep.min_observed >= bound - 1e-9 and dt < 120.0
    _report(
        7, "type-4 sweep", ok,
        f"10000 bodies, min {rep.min_observed:.6f} >= bound {bound:.6f}, {dt:.1f}s",
    )
    assert abs(rep.bound - bound) <= 1e-12
    assert rep.min_observed >= bound - 1e-9
    assert dt < 120.0


def test_08_decomposable_cross_check():
    closed = {n: D.minimize_density(n)[0] for n in (2, 3, 4, 5)}
    expect = {
        2: math.sqrt(2.0 * math.sqrt(3.0)),
        3: 3.0 * math.sqrt(3.0) / 2.0,
        4: 3.0 ** 0.75,
        5: 3.0 * math.sqrt(3.0) * 2.0 ** (2.0 / 3.0) / 4.0,
    }
    closed_ok = all(abs(closed[n] - expect[n]) < 1e-12 for n in expect)
    grid_spec = D.DecompositionSpec(
        (D.PlanarComponent(1.0, 4.0),), D.SegmentComponent(1.0)
    )
    cubic_ok = D.density_bound_odd(grid_spec) == 3.0
    brute = {n: D.brute_force_minimize(n) for n in (2, 3, 4, 5)}
    diffs = {n: abs(brute[n] - closed[n]) for n in brute}
    match_ok = all(d <= 1e-4 for d in diffs.values())
    ok = closed_ok and cubic_ok and match_ok
    _report(
        8, "decomposable minima cross-check", ok,
        "; ".join(f"n={n}: |{brute[n]:.6f} - {closed[n]:.6f}| = {diffs[n]:.2e}" for n in diffs),
    )
    assert closed_ok
    assert cubic_ok
    assert match_ok, (
        "the n = 5 closed form 3*sqrt(3)*2^(2/3)/4 = "
        f"{closed[5]:.12f} is a strict lower bound: the functional's true "
        f"minimum is (5/4)*3^(3/5) = {1.25 * 3.0 ** 0.6:.12f}, found here as "
        f"{brute[5]:.12f} (diff {diffs[5]:.6f} > 1e-4); "
        f"n=2..4 agree to {max(diffs[n] for n in (2, 3, 4)):.2e}"
    )


def test_09_tiling_convergence():
    t0 = time.perf_counter()
    targets = {"cube": 3.0, "truncocta": 6.0 / 2.0 ** (1.0 / 6.0)}
    details = []
    worst_rel = 0.0
    worst_mode = 0.0
    shares_ok = True
    for name, want in targets.items():
        z = Z.unit_shape(name)
        lat = tiling.lattice_from_parallelohedron(z)
        est = tiling.skeleton_density(z, lat, 20.0)
        assert abs(est.target - want) <= 1e-12
        worst_rel = max(worst_rel, est.relative_error)
        worst_mode = max(worst_mode, abs(est.skeleton_length - est.weighted_length))
        shares = set(tiling._pieces(z, lat)[2].tolist())  # m, the cells that hold each piece
        shares_ok = shares_ok and shares <= {3, 4}
        details.append(f"{name} {est.density:.4f} vs {want:.4f}")
    dt = time.perf_counter() - t0
    ok = worst_rel <= 0.02 and worst_mode <= 1e-9 and shares_ok and dt < 120.0
    _report(
        9, "tiling convergence", ok,
        f"{'; '.join(details)}; rel err {worst_rel:.4f}, mode gap {worst_mode:.2e}, {dt:.1f}s",
    )
    assert worst_rel <= 0.02
    assert worst_mode <= 1e-9
    assert shares_ok
    assert dt < 120.0


def test_10_isotropic_position():
    rng = np.random.default_rng(0)
    worst_res, worst_det, worst_it = 0.0, 0.0, 0
    for _ in range(100):
        g = Z.random_frame(rng)
        b = random_beta(rng, 5)
        z = Z.build_from_parameters(g, b)
        u, f = z.facet_normals[None], z.facet_areas[None]
        matrix, iterations, _ = W.isotropic_positions(u, f)
        post = W.isotropy_residuals(u, f, matrix)[0]
        worst_res = max(worst_res, post)
        worst_det = max(worst_det, abs(float(np.linalg.det(matrix[0])) - 1.0))
        worst_it = max(worst_it, int(iterations[0]))
    ok = worst_res <= 1e-8 and worst_det <= 1e-12 and worst_it <= 200
    _report(
        10, "isotropic position", ok,
        f"100 bodies, residual {worst_res:.2e}, det err {worst_det:.2e}, <= {worst_it} iters",
    )
    assert worst_res <= 1e-8
    assert worst_det <= 1e-12
    assert worst_it <= 200


def test_11_proof_certificates():
    rep = D.monotonicity_certificates(10_000)
    ok = rep.passed
    _report(
        11, "proof certificates", ok,
        f"margins {rep.root_decreasing_margin:.2e} / {rep.edge_weighted_increasing_margin:.2e} / "
        f"{rep.product_increasing_margin:.2e} / {rep.root_convexity_margin:.2e}, "
        f"g'' min {rep.g2_min:.2e}",
    )
    assert rep.passed
