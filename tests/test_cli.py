"""Command-line interface: JSON/CSV output shapes and exit codes."""

import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_facet_measure, line_count, random_body
from mosaicdensity import cli, decomposable, simplex, tetra, tiling, weights, zonotope
from mosaicdensity.cli import main


def run_json(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "1"
    return code, doc


def run_csv(capsys, argv):
    code = main(argv)
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    return code, rows


def _not_json(constant):
    """parse_constant for json.loads: NaN and +-Infinity are not JSON."""
    raise ValueError(f"{constant} is not valid JSON")


# Faults under which one residual fails: each patches the library through ``monkeypatch``.


def _sweep_below_bound(monkeypatch):
    sweep = weights.type4_sweep
    monkeypatch.setattr(weights, "type4_sweep", lambda m, samples, seed=0: dataclasses.replace(
        sweep(m, samples, seed=seed), min_observed=weights.type_minimum(4, m).value - 1e-8))


def _scaled_optimal_shape(monkeypatch, scaled):
    # w_m is homogeneous of degree 1, so the body scaled by 1 + 1e-8 misses its value by about 2.6e-8
    shape = weights.optimal_shape_zonotope

    def patched(i, m):
        z = shape(i, m)
        if i != scaled:
            return z
        return zonotope.build_zonotope(z.generators * (1.0 + 1e-8))

    monkeypatch.setattr(weights, "optimal_shape_zonotope", patched)


def _corrected_minimum_off(monkeypatch):
    correct = decomposable.corrected_minimum
    monkeypatch.setattr(decomposable, "corrected_minimum", lambda n: (correct(n)[0] + 1e-3, correct(n)[1]))


def _oracle_below_published(monkeypatch):
    monkeypatch.setattr(
        decomposable, "brute_force_minimize", lambda n, grid_n: decomposable.minimize_density(n)[0] - 1e-5
    )


def _patched_estimates(monkeypatch, change):
    # the shared core of skeleton_density (verify) and convergence_series (tile)
    measure = tiling._densities

    def patched(z, lat, radii):
        rows = measure(z, lat, radii)
        return tuple(dataclasses.replace(est, **change(est, est.exact_density * lat.covolume)) for est in rows)

    monkeypatch.setattr(tiling, "_densities", patched)


def _simplex_gap(monkeypatch):
    closed = simplex.scaled_simplex_max(2.0)
    monkeypatch.setattr(simplex, "grid_simplex_max", lambda *args, **kwargs: closed - 2e-5)


def _boundary_above_interior(monkeypatch):
    closed = simplex.scaled_simplex_max(2.0)
    monkeypatch.setattr(simplex, "boundary_candidates", lambda lam: [1.0 / 27.0, closed + 1e-9])


def _published_minimum_above_bound(monkeypatch):
    # at n = 3 the published minimum is the bound at its spec, so 1e-9 more lies above it
    published = decomposable.minimize_density
    monkeypatch.setattr(decomposable, "minimize_density", lambda n: (published(n)[0] + 1e-9, published(n)[1]))


def _tetra_residuals(monkeypatch, poly, weighted):
    monkeypatch.setattr(tetra, "batch_identity_residuals", lambda samples, seed=0: (poly, weighted))


def _isotropy_off(monkeypatch):
    residuals = weights.isotropy_residuals
    monkeypatch.setattr(weights, "isotropy_residuals", lambda u, f, m: residuals(u, f, m) + 1e-7)


def _verify_isotropy_reference(seed, samples):
    # the isotropy suite as it ran one body at a time, before bodies were stacked
    rng = np.random.default_rng(seed)
    worst_it, worst_det, worst_res = 0, 0.0, 0.0
    n = max(10, samples // 100)
    for _ in range(n):
        while True:
            v = rng.normal(size=(4, 3))
            v[3] = -(v[0] + v[1] + v[2])
            if abs(np.linalg.det(v[:3])) >= 5e-2:
                break
        frame = zonotope.validate_generators(v)
        b = zonotope.BetaVector(rng.uniform(0.2, 1.3, 6))
        z = zonotope.build_from_parameters(frame, b)
        u, f = z.facet_normals, z.facet_areas
        assert_facet_measure(u, f)
        (matrix,), (iterations,), _ = weights.isotropic_positions(u[None], f[None])
        mapped = weights._mapped(u, f, matrix)
        assert_facet_measure(*mapped)
        post = float(weights._second_moment(*mapped)[1])
        worst_it = max(worst_it, int(iterations))
        worst_det = max(worst_det, abs(float(np.linalg.det(matrix)) - 1.0))
        worst_res = max(worst_res, post)
    return {"bodies": n, "max_iterations": worst_it, "max_det_error": worst_det, "max_residual": worst_res}


class TestWm:
    def test_full_report(self, capsys):
        code, doc = run_json(capsys, ["wm", "--alpha6", "1", "--alpha4", "1"])
        assert code == 0
        out = doc["outputs"]
        assert out["winner"] == "TruncOcta"
        assert abs(out["value"] - 2.672696154421018) < 1e-12
        assert [e["type"] for e in out["per_type"]] == [1, 2, 3, 4, 5]
        assert all(r["pass"] for r in doc["residuals"])
        assert abs(out["thresholds"]["prism_octa"] - (2.0 / 3.0) ** 0.25) < 1e-15

    def test_single_type(self, capsys):
        code, doc = run_json(capsys, ["wm", "--alpha6", "1", "--alpha4", "0.5", "--type", "1"])
        assert code == 0
        per = doc["outputs"]["per_type"]
        assert len(per) == 1 and per[0]["value"] == 1.5
        assert doc["outputs"]["winner"] == "Cube"

    def test_sweep_residual(self, capsys):
        code, doc = run_json(
            capsys, ["wm", "--alpha6", "1", "--alpha4", "0.9", "--sweep", "500"]
        )
        assert code == 0
        sweep = doc["outputs"]["sweep"]
        assert sweep["min_observed"] >= sweep["bound"] - 1e-9
        names = [r["name"] for r in doc["residuals"]]
        assert "type4_sweep_above_bound" in names


    def test_sweep_below_the_bound_fails(self, capsys, monkeypatch):
        _sweep_below_bound(monkeypatch)
        code, doc = run_json(capsys, ["wm", "--alpha6", "1", "--alpha4", "0.9", "--sweep", "100"])
        assert code == 1
        assert [r["name"] for r in doc["residuals"] if not r["pass"]] == ["type4_sweep_above_bound"]

    @pytest.mark.parametrize("alpha4", ["0.5", "2"])
    @pytest.mark.parametrize("type_index", [1, 2, 3, 4, 5])
    def test_every_type_checks_something(self, capsys, type_index, alpha4):
        # a report with nothing checked must not pass: above the diagonal type 4 has no body, and wm checks that the
        # value shown is the type-5 body's
        code, doc = run_json(capsys, ["wm", "--alpha6", "1", "--alpha4", alpha4, "--type", str(type_index)])
        assert code == 0 and doc["residuals"]

    def test_type4_bound_reuses_the_type5_body(self, capsys, monkeypatch):
        shape, built = weights.optimal_shape_zonotope, []
        monkeypatch.setattr(weights, "optimal_shape_zonotope", lambda i, m: built.append(i) or shape(i, m))
        code, doc = run_json(capsys, ["wm", "--alpha6", "1", "--alpha4", "2"])
        assert code == 0 and built == [1, 2, 3, 4, 5]
        assert [r["name"] for r in doc["residuals"]] == [
            "type1_shape_consistency", "type2_shape_consistency", "type3_shape_consistency",
            "type4_bound_is_type5_minimum", "type5_shape_consistency"]

    @pytest.mark.parametrize("scaled", [1, 2, 3, 4, 5])
    def test_shape_consistency_fails_on_a_scaled_body(self, capsys, monkeypatch, scaled):
        _scaled_optimal_shape(monkeypatch, scaled)
        code, doc = run_json(capsys, ["wm", "--alpha6", "1", "--alpha4", "0.9"])
        assert code == 1
        assert [r["name"] for r in doc["residuals"] if not r["pass"]] == [f"type{scaled}_shape_consistency"]

    @pytest.mark.parametrize(
        "alpha6, ratio, alpha4",
        [pytest.param(a6, 0.9, 0.9 * a6, id=str(a6)) for a6 in (1e6, 1e200, 1e-200)]
        + [pytest.param(1e100, 1e7, 1e107, id="1e+100-1e+107"), pytest.param(1e-200, 1e7, 1e-193, id="1e-200-1e-193")],
    )
    def test_every_weight_scale(self, capsys, alpha6, ratio, alpha4):
        # w_m is homogeneous of degree 1: every minimum scales with alpha6, and the residuals are relative to it
        _, unit = run_json(capsys, ["wm", "--alpha6", "1", "--alpha4", repr(ratio)])
        code, doc = run_json(capsys, ["wm", "--alpha6", repr(alpha6), "--alpha4", repr(alpha4), "--sweep", "100"])
        assert code == 0
        for got, want in zip(doc["outputs"]["per_type"], unit["outputs"]["per_type"], strict=True):
            assert abs(got["value"] - alpha6 * want["value"]) <= 1e-12 * alpha6 * want["value"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alpha6", "1", "--alpha4", "1e-10"],
            ["--alpha6", "1", "--alpha4", repr(1e-12 / 1.5), "--type", "2"],
            ["--alpha6", "1", "--alpha4", "1e8"],
            ["--alpha6", "1e-300", "--alpha4", "1e-300"],
            ["--alpha6", "1", "--alpha4", "1e14", "--type", "5"],
            ["--alpha6", "1", "--alpha4", "1e-16", "--type", "1"],
        ],
    )
    def test_ratio_edges_pass(self, capsys, argv):
        # the ratio range is that of types 2 and 4: the type-4 body's diagonals are parallel below 1e-10, the
        # type-2 prism is flat below 1e-12 / 1.5, and the other types take any ratio
        code, doc = run_json(capsys, ["wm", *argv])
        assert code == 0 and doc["residuals"]


class TestDecomp:
    def test_three_dimensional(self, capsys):
        code, doc = run_json(capsys, ["decomp", "--dim", "3"])
        assert code == 0
        assert abs(doc["outputs"]["minimum"] - 2.598076211353316) < 1e-12
        assert doc["outputs"]["spec"]["segment"] is not None

    @pytest.mark.parametrize("dim", [3, 5, 1000])
    def test_published_minimum_checked_without_oracle(self, capsys, dim):
        code, doc = run_json(capsys, ["decomp", "--dim", str(dim)])
        assert code == 0
        published, corrected = doc["residuals"]
        assert published["name"] == "published_minimum_at_or_below_bound_at_spec"
        assert corrected["name"] == "corrected_minimum_is_bound_at_spec"
        assert all(res["pass"] and res["tolerance"] == 1e-12 for res in (published, corrected))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_corrected_minimum_is_the_oracle_minimum(self, capsys, dim):
        code, doc = run_json(capsys, ["decomp", "--dim", str(dim), "--oracle", "30"])
        assert code == 0
        out = doc["outputs"]
        k = dim // 2
        if dim % 2:  # (2k + 1) 3^(3k / (4k + 2)) / 2^k, the published value only at n = 3
            closed = (2 * k + 1) * 3.0 ** (3 * k / (4 * k + 2)) / 2**k
            assert abs(out["corrected_minimum"] - closed) <= 1e-15 * closed
            assert out["corrected_spec"]["segment"]["length"] == 3.0 ** (3 * k / (2 * (2 * k + 1)))
            assert (out["corrected_minimum"] > out["minimum"] + 0.3) == (dim >= 5)
        else:
            assert (out["corrected_minimum"], out["corrected_spec"]) == (out["minimum"], out["spec"])
        assert abs(out["oracle_value"] - out["corrected_minimum"]) <= 1e-15
        names = {r["name"]: r["pass"] for r in doc["residuals"]}
        assert names["oracle_at_corrected_minimum"] and names["corrected_minimum_is_bound_at_spec"]

    @pytest.mark.parametrize("oracle", [[], ["--oracle", "30"]], ids=["bound", "oracle"])
    def test_corrected_minimum_off_by_a_thousandth_fails(self, capsys, monkeypatch, oracle):
        _corrected_minimum_off(monkeypatch)
        code, doc = run_json(capsys, ["decomp", "--dim", "5", *oracle])
        assert code == 1
        failed = {r["name"] for r in doc["residuals"] if not r["pass"]}
        assert failed == {"corrected_minimum_is_bound_at_spec", *(["oracle_at_corrected_minimum"] if oracle else [])}

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
    def test_oracle_below_the_published_minimum_fails(self, capsys, monkeypatch, dim):
        _oracle_below_published(monkeypatch)
        code, doc = run_json(capsys, ["decomp", "--dim", str(dim), "--oracle", "30"])
        assert code == 1
        failed = {r["name"] for r in doc["residuals"] if not r["pass"]}
        assert failed == {"oracle_at_or_above_minimum", "oracle_at_corrected_minimum"}

    def test_argmin_on_the_log_area_box_edge_fails(self, capsys, monkeypatch):
        # at n = 5 the minimum's log areas are -0.33, outside a box of half-width 0.05
        monkeypatch.setattr(decomposable, "LOG_AREA_HALF_WIDTH", 0.05)
        with pytest.raises(SystemExit) as exc:
            main(["decomp", "--dim", "5", "--oracle", "30"])
        assert exc.value.code == "oracle failed: grid argmin on the edge of log-area axis 0 at -0.05"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "running grid oracle with grid_n=30\n"

    def test_with_oracle(self, capsys):
        code, doc = run_json(capsys, ["decomp", "--dim", "2", "--oracle", "30"])
        assert code == 0
        assert abs(doc["outputs"]["oracle_value"] - doc["outputs"]["minimum"]) < 1e-6


class TestTile:
    def test_cube_json(self, capsys):
        code, doc = run_json(capsys, ["tile", "--shape", "cube", "--radius", "8"])
        assert code == 0
        rows = doc["outputs"]["rows"]
        assert len(rows) == 1
        assert rows[0]["target"] == 3.0
        assert rows[0]["relative_error"] <= 0.02
        assert doc["outputs"]["covering_fraction"] == 1.0
        assert doc["outputs"]["translates_checked"] == 26
        # the chord formula runs on some, but at most all, edges of the shell translates
        assert 0 < rows[0]["crossing"] <= rows[0]["shell"] * len(zonotope.cube().edge_vertex_ids)
        covolume = [r for r in doc["residuals"] if r["name"] == "covolume_minus_volume"]
        assert len(covolume) == 1 and covolume[0]["pass"]
        assert covolume[0]["value"] == 0.0 and covolume[0]["tolerance"] == 1e-9

    def test_small_body_from_file(self, capsys, tmp_path):
        # a cube of edge 1e-5 tiles like the unit cube: its covolume tolerance scales with its volume
        path = tmp_path / "small.json"
        path.write_text(json.dumps(zonotope.to_json(zonotope.cube(1e-5))))
        code, doc = run_json(capsys, ["tile", "--shape", f"file:{path}", "--radius", "2e-4"])
        assert code == 0
        covolume = [r for r in doc["residuals"] if r["name"] == "covolume_minus_volume"]
        assert len(covolume) == 1 and covolume[0]["pass"] and covolume[0]["tolerance"] == pytest.approx(1e-24)

    def test_cube_past_a_hundred_diameters(self, capsys):
        # 200 is 115 diameters: the line budget, not the radius, bounds the ball (0.1 s and about 80 MB)
        code, doc = run_json(capsys, ["tile", "--shape", "cube", "--radius", "200"])
        assert code == 0
        assert [(r["name"], r["pass"]) for r in doc["residuals"]] == [
            ("covolume_minus_volume", True), ("final_relative_error", True),
            ("exact_density_vs_target", True), ("skeleton_length_in_exact_bracket", True)]

    def test_exact_density_in_every_row(self, capsys):
        code, doc = run_json(capsys, ["tile", "--shape", "truncocta", "--series", "20,30"])
        assert code == 0
        rows = doc["outputs"]["rows"]
        assert len(rows) == 2 and rows[0]["exact_density"] == rows[1]["exact_density"]
        assert abs(rows[0]["exact_density"] - rows[0]["target"]) <= 5e-16 * rows[0]["target"]
        names = {r["name"]: r for r in doc["residuals"]}
        for name in ("exact_density_vs_target", "skeleton_length_in_exact_bracket"):
            assert names[name]["pass"] and names[name]["tolerance"] == 1e-12

    @pytest.mark.parametrize(
        "change, failing",
        [
            (lambda est, reps: {"exact_density": est.exact_density * (1.0 + 1e-9)}, "exact_density_vs_target"),
            (lambda est, reps: {"skeleton_length": (est.cells + 1) * reps}, "skeleton_length_in_exact_bracket"),
            (lambda est, reps: {"skeleton_length": (est.cells - est.shell - 1) * reps},
             "skeleton_length_in_exact_bracket"),
        ],
        ids=["exact-density-off-by-1e-9", "one-cell-above-bracket", "one-cell-below-bracket"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["tile", "--shape", "cube", "--radius", "8"],
         ["tile", "--shape", "cube", "--radius", "8", "--csv"],
         ["tile", "--shape", "cube", "--series", "6,9", "--csv"],
         ["verify", "--lemma", "tiling", "--radius", "8"]],
        ids=["tile", "tile-csv", "tile-series-csv", "verify"],
    )
    def test_exact_residuals_can_fail(self, capsys, monkeypatch, change, failing, argv):
        _patched_estimates(monkeypatch, change)
        if "--csv" in argv:  # CSV rows carry no residuals: the exit status reports all of them
            assert run_csv(capsys, argv)[0] == 1
            return
        code, doc = run_json(capsys, argv)
        assert code == 1
        failed = {r["name"] for r in doc["residuals"] if not r["pass"]}
        if argv[0] == "tile":
            assert failed == {failing}
        else:  # a changed length also fails the agreement with the weighted length
            assert {f"cube_{failing}", f"truncocta_{failing}"} <= failed
            assert failed <= {f"{s}_{n}" for s in ("cube", "truncocta") for n in (failing, "mode_agreement")}

    def test_series_csv(self, capsys):
        code, rows = run_csv(
            capsys, ["tile", "--shape", "cube", "--series", "6,9", "--csv"]
        )
        assert code == 0
        assert rows[0][0] == "radius"
        assert len(rows) == 3
        assert float(rows[1][0]) == 6.0 and float(rows[2][0]) == 9.0

    def test_symmetries_in_every_row(self, capsys):
        # the order of the point group that folds the ball: 48 for the cube's tiling
        code, doc = run_json(capsys, ["tile", "--shape", "cube", "--series", "6,9"])
        assert code == 0
        assert [row["symmetries"] for row in doc["outputs"]["rows"]] == [48, 48]
        code, rows = run_csv(capsys, ["tile", "--shape", "hexprism", "--series", "6,9", "--csv"])
        assert code == 0
        assert rows[0][-1] == "symmetries" and [row[-1] for row in rows[1:]] == ["24", "24"]

    # an unusable --shape is a usage error (exit 2), not a failed certificate (exit 1)
    def test_unknown_shape(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tile", "--shape", "megacube"])
        assert exc.value.code == 2
        assert "--shape: unknown shape 'megacube'" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tile", "--shape", "file:/nonexistent.json"])
        assert exc.value.code == 2
        assert "--shape: cannot load shape from '/nonexistent.json'" in capsys.readouterr().err

    # bad radii are usage errors (exit 2), not failed certificates (exit 1)
    def test_radius_too_small_is_clean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tile", "--shape", "cube", "--radius", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--radius: radius must be finite and at least 3x cell diameter" in err

    def test_descending_series_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tile", "--shape", "cube", "--series", "20,10"])
        assert exc.value.code == 2
        assert "--series: radii must ascend, got 20,10" in capsys.readouterr().err

    def test_repeated_radius_is_rejected(self, capsys):
        # two equal radii would print the same row twice
        with pytest.raises(SystemExit) as exc:
            main(["tile", "--shape", "cube", "--series", "20,20"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--series: radii must ascend, got 20,20" in err

    def test_nan_radius_is_clean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tile", "--shape", "cube", "--radius", "nan"])
        assert exc.value.code == 2
        assert "--radius: must be finite and > 0, got nan" in capsys.readouterr().err

    @staticmethod
    def _scaled_cube_argv(directory, k):
        """tile --series 20e,100e on the file: document of cube() with its generators replaced by I * e, e = 10^k."""
        path = directory / f"cube{k}.json"
        path.write_text(json.dumps(dict(zonotope.to_json(zonotope.cube()), generators=(10.0**k * np.eye(3)).tolist())))
        return ["tile", "--shape", f"file:{path}", "--series", f"{20 * 10.0**k!r},{100 * 10.0**k!r}"]

    @pytest.mark.parametrize("k", range(-300, 301, 10))
    def test_cube_at_every_scale(self, capsys, tmp_path, k):
        # each scale either reads cube(1)'s rows, the density times e^2, or is refused as a usage error; at
        # these radii the chord formula leaves the doubles from edge 1e76 (and 1e-81), where rows read 4% off
        unit = run_json(capsys, self._scaled_cube_argv(tmp_path, 0))[1]["outputs"]["rows"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the run
            try:
                code = main(self._scaled_cube_argv(tmp_path, k))
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 2) and "Traceback" not in captured.err
        if code == 2:
            assert captured.out == "" and captured.err.splitlines()[-1].startswith("mosaicdensity: error: argument ")
            assert not -60 <= k <= 50  # both radii inside [1e-60, 1e60]: the body must be measured
            return
        rows = json.loads(captured.out)["outputs"]["rows"]
        keys = ("cells", "shell", "crossing", "symmetries")
        assert [[row[key] for key in keys] for row in rows] == [[row[key] for key in keys] for row in unit]
        for row, ref in zip(rows, unit, strict=True):
            assert abs(row["density"] * 10.0 ** (2 * k) / ref["density"] - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "argv, screens",
        [*((["tile", "--shape", name, "--radius", "20"], 1) for name in zonotope.UNIT_SHAPES),
         (["verify", "--lemma", "tiling"], 2)],
        ids=[*zonotope.UNIT_SHAPES, "verify-tiling"],
    )
    def test_one_overlap_screen_per_shape(self, capsys, monkeypatch, argv, screens):
        calls = []
        screen = tiling._has_overlap
        monkeypatch.setattr(tiling, "_has_overlap", lambda z, lat: calls.append(z) or screen(z, lat))
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == screens


def _same_body(a, b):
    # repr round-trips every float, so equal JSON text means bit-identical bodies
    return json.dumps(zonotope.to_json(a)) == json.dumps(zonotope.to_json(b))


class TestShapeTables:
    def test_canonical_shapes_are_the_direct_constructors(self):
        hx = (2.0 / (3.0 * math.sqrt(3.0))) ** (1.0 / 3.0)
        direct = {
            "cube": zonotope.cube(),
            "hexprism": zonotope.hexagonal_prism(hx, hx),
            "rhombic": zonotope.rhombic_dodecahedron(math.sqrt(3.0) / 2.0 ** (4.0 / 3.0)),
            # the diagonals of the cube of half-side 0.6 / sqrt(3), rounded as the rhombic dodecahedron's
            "elongated": zonotope.unit_volume(zonotope.elongated_rhombic_dodecahedron(
                1.0 / math.sqrt(3.0) * 0.6, 1.0 / math.sqrt(3.0) * 0.6, 0.6
            )),
            "truncocta": zonotope.truncated_octahedron(2.0 ** (-7.0 / 6.0)),
        }
        assert cli._SHAPES == tuple(direct)
        for name, z in direct.items():
            assert _same_body(cli._canonical_shape(name), z), name

    @pytest.mark.parametrize("a6, a4", [(1.0, 1.0), (1.0, 0.9), (6.0, 4.0), (0.3, 2.0)])
    def test_optimal_shapes_are_the_direct_constructors(self, a6, a4):
        m = zonotope.WeightPair(a6, a4)
        base = 2.0 ** (2.0 / 3.0) * a6 ** (1.0 / 3.0) / (3.0 ** (5.0 / 6.0) * a4 ** (1.0 / 3.0))
        height = 3.0 ** (1.0 / 6.0) * a4 ** (2.0 / 3.0) / (2.0 ** (1.0 / 3.0) * a6 ** (2.0 / 3.0))
        r, q = a4 / a6, 4.0 - (a4 / a6) ** 2
        direct = {
            1: zonotope.cube(1.0),
            2: zonotope.hexagonal_prism(base, height),
            3: zonotope.rhombic_dodecahedron(math.sqrt(3.0) / 2.0 ** (4.0 / 3.0)),
            4: None,  # above alpha4 = alpha6; below, the closed-form body at unit volume
            5: zonotope.truncated_octahedron(2.0 ** (-7.0 / 6.0)),
        }
        if r <= 1.0:
            u = r / math.sqrt(2.0 * q)
            axis = (4.0 - 3.0 * r * r) * (2.0 * q * r) ** (-2.0 / 3.0)
            direct[4] = zonotope.elongated_rhombic_dodecahedron(u ** (1.0 / 3.0) / 2.0, u ** (4.0 / 3.0), axis)
        for i, z in direct.items():
            got = weights.optimal_shape_zonotope(i, m)
            assert got is None if z is None else _same_body(got, z), i


class TestVerify:
    def test_simplex_suite(self, capsys):
        code, doc = run_json(
            capsys, ["verify", "--lemma", "simplex", "--lambda", "2", "--grid", "40"]
        )
        assert code == 0
        out = doc["outputs"]["simplex"]
        assert out["gap"] <= 1e-5
        assert all(r["pass"] for r in doc["residuals"])

    def test_simplex_gap_can_fail(self, capsys, monkeypatch):
        _simplex_gap(monkeypatch)
        code, doc = run_json(capsys, ["verify", "--lemma", "simplex", "--lambda", "2"])
        assert code == 1
        assert {r["name"]: r["pass"] for r in doc["residuals"]} == {
            "simplex_gap": False, "boundary_below_interior": True,
        }

    def test_boundary_below_interior_can_fail(self, capsys, monkeypatch):
        _boundary_above_interior(monkeypatch)
        code, doc = run_json(capsys, ["verify", "--lemma", "simplex", "--lambda", "2"])
        assert code == 1
        assert {r["name"]: r["pass"] for r in doc["residuals"]} == {
            "simplex_gap": True, "boundary_below_interior": False,
        }

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_simplex_memory_is_bounded_at_the_grid_cap(self):
        # VmHWM is the peak RSS of the child's own address space: its
        # ru_maxrss would start at the peak of this (pytest) process, which
        # Linux carries across fork and exec
        script = "\n".join([
            "import contextlib, io",
            "from mosaicdensity import cli",
            "def peak_kib():",
            "    with open('/proc/self/status') as fh:",
            "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))",
            "before = peak_kib()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    code = cli.main(['verify', '--lemma', 'simplex', '--grid', '{cli._MAX_GRID}'])",
            "print(code, peak_kib() - before)",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        code, grown_kib = map(int, run.stdout.split())
        assert code == 0
        assert grown_kib <= 45 * 1024

    def test_tetra_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--lemma", "tetra", "--samples", "2000"])
        assert code == 0
        assert doc["outputs"]["tetra"]["poly_residual"] <= 1e-9

    def test_zero_samples_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--lemma", "tetra", "--samples", "0"])
        assert exc.value.code == 2
        assert "--samples: must be at least 1, got 0" in capsys.readouterr().err

    def test_tiling_suite_reports_certificates(self, capsys):
        code, doc = run_json(capsys, ["verify", "--lemma", "tiling", "--radius", "8"])
        assert code == 0
        names = {r["name"]: r["pass"] for r in doc["residuals"]}
        assert names["cube_covolume_minus_volume"] and names["truncocta_covolume_minus_volume"]

    def test_tiling_suite_reports_exact_density(self, capsys):
        code, doc = run_json(capsys, ["verify", "--lemma", "tiling", "--radius", "8"])
        assert code == 0
        rows = {row["shape"]: row for row in doc["outputs"]["tiling"]["rows"]}
        assert rows["cube"]["exact_density"] == 3.0
        names = {r["name"]: r["pass"] for r in doc["residuals"]}
        for shape in ("cube", "truncocta"):
            assert names[f"{shape}_exact_density_vs_target"] and names[f"{shape}_skeleton_length_in_exact_bracket"]
        assert rows["cube"]["symmetries"] == rows["truncocta"]["symmetries"] == 48

    def test_isotropy_suite(self, capsys):
        code, doc = run_json(capsys, ["verify", "--lemma", "isotropy", "--samples", "1000"])
        assert code == 0
        assert doc["outputs"]["isotropy"]["max_residual"] <= 1e-8

    @pytest.mark.parametrize("chunk, samples", [(7, 1000), (64, 7000), (4, 1500)])
    def test_isotropy_chunks_match_the_per_body_loop(self, capsys, monkeypatch, chunk, samples):
        # 10, 70 and 15 bodies: a last chunk shorter than the others
        assert max(10, samples // 100) % chunk
        monkeypatch.setattr(cli, "_ISOTROPY_CHUNK", chunk)
        code, doc = run_json(capsys, ["verify", "--lemma", "isotropy", "--samples", str(samples), "--seed", "4"])
        assert code == 0
        assert doc["outputs"]["isotropy"] == _verify_isotropy_reference(4, samples)


class TestCsvReports:
    def test_table1(self, capsys):
        code, rows = run_csv(capsys, ["table1", "--alpha6", "6", "--alpha4", "4"])
        assert code == 0
        assert rows[0] == ["type", "value", "is_exact", "shape", "parameters"]
        assert len(rows) == 6
        assert abs(float(rows[1][1]) - 12.0) < 1e-12
        assert rows[4][2:4] == ["True", "elongated_rhombic_dodecahedron"]  # type 4's minimum is attained too
        assert json.loads(rows[5][4])["edge"] == pytest.approx(2.0 ** (-7.0 / 6.0))

    @pytest.mark.parametrize("alpha6", [1e200, 1e-200])
    def test_table1_at_every_weight_scale(self, capsys, alpha6):
        _, unit = run_csv(capsys, ["table1", "--alpha6", "1", "--alpha4", "0.9"])
        code, rows = run_csv(capsys, ["table1", "--alpha6", repr(alpha6), "--alpha4", repr(0.9 * alpha6)])
        assert code == 0
        for got, want in zip(rows[1:], unit[1:], strict=True):
            assert abs(float(got[1]) - alpha6 * float(want[1])) <= 1e-12 * alpha6 * float(want[1])

    @pytest.mark.parametrize("alpha6, alpha4", [(1e-300, 1e300), (1e300, 1e-300), (1e15, 1e-300)])
    def test_table1_type2_at_ratios_outside_the_normal_doubles(self, capsys, alpha6, alpha4):
        # alpha4 / alpha6 overflows, underflows or is subnormal; the minimum is a4^(2/3) a6^(1/3) times its constant
        code, rows = run_csv(capsys, ["table1", "--alpha6", repr(alpha6), "--alpha4", repr(alpha4)])
        assert code == 0
        want = 3.0 ** (7.0 / 6.0) / 2.0 ** (1.0 / 3.0) * alpha4 ** (2.0 / 3.0) * alpha6 ** (1.0 / 3.0)
        assert (rows[2][0], rows[2][2]) == ("2", "True")
        assert 0.0 < float(rows[2][1]) < math.inf
        assert abs(float(rows[2][1]) - want) <= 1e-13 * want
        # a parameter that leaves the positive doubles leaves the shape unknown; every parameter is valid JSON
        if alpha4 / alpha6 in (0.0, math.inf):
            assert rows[2][3:] == ["", "{}"]
        else:
            assert rows[2][3] == "hexagonal_prism"
        # at (1e15, 1e-300) the type-4 body's half height, r^(4/3) for a subnormal r, underflows to 0.0
        assert rows[4][3:] == ["", "{}"]
        for row in rows[1:]:
            params = json.loads(row[4], parse_constant=_not_json)
            assert all(0.0 < v < math.inf for v in params.values())

    def test_fig2(self, capsys):
        code, rows = run_csv(
            capsys, ["fig2", "--start", "0.2", "--stop", "0.4", "--step", "0.1"]
        )
        assert code == 0
        assert rows[0] == ["alpha4", "type1", "type2", "type3", "type4_bound", "type5"]
        assert len(rows) == 4
        assert float(rows[1][1]) == pytest.approx(0.6)


# the unit cube's lattice is Z^3: a ball of radius 1e20 spans (2 x 10^20 + 3)^2 (c1, c2) lines
_CUBE_AT_1E20 = f"a ball of radius 1e+20 spans {(2 * 10**20 + 3) ** 2} lattice lines, more than 2097152"


class TestBadInput:
    """Invalid counts and reals stop at parse time: exit 2, one error line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["wm", "--alpha6", "1", "--alpha4", "1", "--sweep", "0"],
             "--sweep: must be at least 100, got 0"),
            (["wm", "--alpha6", "1", "--alpha4", "1", "--sweep", "-5"],
             "--sweep: must be at least 100, got -5"),
            (["wm", "--alpha6", "1", "--alpha4", "1", "--sweep", "50"],
             "--sweep: must be at least 100, got 50"),
            (["verify", "--lemma", "simplex", "--grid", "0"],
             "--grid: must be at least 10, got 0"),
            (["decomp", "--dim", "3", "--oracle", "1"],
             "--oracle: must be at least 20, got 1"),
            (["decomp", "--dim", "8", "--oracle", "30"],
             "--oracle: the grid oracle covers --dim 2..7, got 8"),
            (["wm", "--alpha6", "inf", "--alpha4", "1"],
             "--alpha6: must be finite and > 0, got inf"),
            (["wm", "--alpha6", "1", "--alpha4", "nan"],
             "--alpha4: must be finite and > 0, got nan"),
            (["table1", "--alpha6", "0", "--alpha4", "1"],
             "--alpha6: must be finite and > 0, got 0"),
            (["decomp", "--dim", "1"],
             "--dim: must be at least 2, got 1"),
            (["verify", "--lemma", "simplex", "--lambda", "0.5"],
             "--lambda: must be finite and at least 1, got 0.5"),
            (["fig2", "--step", "0"], "--step: must be finite and > 0, got 0"),
            (["fig2", "--start", "0", "--stop", "0.1", "--step", "0.05"],
             "--start: must be finite and > 0, got 0"),
            (["fig2", "--step", "-0.1"], "--step: must be finite and > 0, got -0.1"),
            (["fig2", "--start", "0.5", "--stop", "0.4"],
             "--stop: must be at least --start 0.5, got 0.4"),
            (["tile", "--shape", "cube", "--radius", "-5"],
             "--radius: must be finite and > 0, got -5"),
            (["tile", "--shape", "cube", "--series", "10,nan"],
             "--series: must be finite and > 0, got nan"),
            (["tile", "--shape", "cube", "--radius", "5", "--series", "6,7"],
             "--series: not allowed with argument --radius"),
            (["tile", "--shape", "cube", "--series", "3,20"],
             "--series: radius must be finite and at least 3x cell diameter 5.19615, got 3.0"),
            (["verify", "--lemma", "tiling", "--radius", "1"],
             "--radius: radius must be finite and at least 3x cell diameter 5.19615, got 1.0"),
            (["fig2", "--stop", "1e20"],
             "--step: more than 100000 steps from --start to --stop"),
            (["decomp", "--dim", "2100"], "--dim: must be at most 1000, got 2100"),
            (["verify", "--lemma", "simplex", "--grid", "151"], "--grid: must be at most 150, got 151"),
            (["verify", "--lemma", "simplex", "--lambda", "1e300"],
             "--lambda: must be at most 1e+06, got 1e300"),
            (["tile", "--shape", "truncocta", "--series", "20,1e300"],
             "--series: radius must be in [1e-60, 1e+60], got 1e+300"),
            (["tile", "--shape", "cube", "--radius", "1e20"], f"--radius: {_CUBE_AT_1E20}"),
            (["verify", "--lemma", "tiling", "--radius", "1e300"],
             "--radius: radius must be in [1e-60, 1e+60], got 1e+300"),
            # inside the band and far over the line budget: verify refuses it when the tiling suite starts
            *[(["verify", "--lemma", lemma, "--radius", "1e20"], f"--radius: {_CUBE_AT_1E20}")
              for lemma in ("tiling", "all")],
            (["decomp", "--dim", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["table1", "--alpha6", "1", "--alpha4", "1", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["fig2", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["wm", "--alpha6", "1", "--alpha4", "1", "--sweep", "100", "--seed", "-5"],
             "--seed: must be at least 0, got -5"),
            (["verify", "--lemma", "tetra", "--seed", "-1"], "--seed: must be at least 0, got -1"),
            (["tile", "--shape", "cube", "--seed", "-1"], "--seed: must be at least 0, got -1"),
            (["wm", "--alpha6", "1e301", "--alpha4", "1"], "--alpha6: must be at most 1e+300, got 1e301"),
            (["table1", "--alpha6", "1", "--alpha4", "1e301"], "--alpha4: must be at most 1e+300, got 1e301"),
            *[(["wm", "--alpha6", "1", "--alpha4", a4],
               f"--alpha4: type 2 needs alpha4/alpha6 in [6.66667e-13, 1e+08], got {float(a4)!r}")
              for a4 in ("1e9", "1e10", "1e12", "1e14", "1e-14", "1e-16")],
            *[(["wm", "--alpha6", "1", "--alpha4", a4, *argv],
               f"--alpha4: type 4 needs alpha4/alpha6 in [1e-10, inf], got {float(a4)!r}")
              for a4 in ("1e-11", "9.9e-11") for argv in ([], ["--type", "4"])],
            (["wm", "--alpha6", "1e-315", "--alpha4", "9e-316"], "--alpha6: must be at least 1e-300, got 1e-315"),
            (["wm", "--alpha6", "5e-324", "--alpha4", "5e-324"], "--alpha6: must be at least 1e-300, got 5e-324"),
        ],
        ids=[
            "sweep-0", "sweep-neg", "sweep-below-floor", "grid-0", "oracle-1",
            "oracle-dim-8", "alpha6-inf", "alpha4-nan", "table1-alpha6-0", "dim-1",
            "lambda-half", "fig2-step-0", "fig2-start-0", "fig2-step-neg", "fig2-stop-below-start",
            "tile-radius-neg", "tile-series-nan", "tile-radius-and-series", "tile-series-below-floor",
            "verify-tiling-radius-below-floor", "fig2-too-many-steps", "dim-above-cap",
            "grid-above-cap", "lambda-above-cap", "tile-series-above-cap", "tile-radius-above-cap",
            "verify-tiling-radius-above-cap", "verify-tiling-over-budget", "verify-all-over-budget",
            "decomp-seed", "table1-seed", "fig2-seed", "wm-seed-neg", "verify-seed-neg", "tile-seed-neg",
            "alpha6-above-cap", "table1-alpha4-above-cap",
            "ratio-1e9", "ratio-1e10", "ratio-1e12", "ratio-1e14", "ratio-1e-14", "ratio-1e-16",
            "ratio-1e-11", "ratio-1e-11-type4", "ratio-9.9e-11", "ratio-9.9e-11-type4",
            "alpha6-subnormal", "alpha6-least-subnormal",
        ],
    )
    def test_rejected_at_parse_time(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(message)
        assert "Traceback" not in captured.err

    def test_parser_reused_after_parse_error(self, capsys):
        # one parser per process: a parse error leaves nothing behind in it
        argv = ["decomp", "--dim", "4", "--oracle", "20"]
        cli.build_parser.cache_clear()
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["decomp", "--dim", "3", "--oracle", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2, 3]", "document is not a JSON object"),
            ('{"schema": "1", "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
             ' "generator_index": [0, 1], "vertices": [], "edges": []}',
             "stored complex does not match the rebuilt body"),
            ('{"schema": "1", "generators": [[1e400, 0, 0], [0, 1, 0], [0, 0, 1]],'
             ' "vertices": [], "edges": []}',
             "generators must be a list of finite 3-vectors"),
            ('{"schema": "1", "generators": {"x": 1}}', "not 'dict'"),
            ("{not json",
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ],
        ids=["json-array", "short-generator-index", "overflowing-coordinate",
             "generators-not-a-list", "not-json"],
    )
    def test_bad_shape_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "shape.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["tile", "--shape", f"file:{path}", "--radius", "20"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"--shape: cannot load shape from '{path}': " in errors[0]
        assert errors[0].endswith(message)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tile", "--shape", "megacube"], "--shape: unknown shape 'megacube'; choose from"),
            (["tile", "--shape", "file:/nonexistent/shape.json"],
             "--shape: cannot load shape from '/nonexistent/shape.json': [Errno 2]"),
        ],
        ids=["unknown-name", "unreadable-file"],
    )
    def test_bad_shape_name(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    @staticmethod
    def _one_error_line(capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(message)
        assert "Traceback" not in captured.err

    def test_body_that_does_not_tile(self, capsys, tmp_path):
        # six generators in general position: a zonotope with 30 facets, not a parallelohedron
        z = zonotope.unit_volume(zonotope.build_zonotope(np.random.default_rng(3).normal(size=(6, 3))))
        assert len(z.facet_cycles) == 30
        path = tmp_path / "six.json"
        path.write_text(json.dumps(zonotope.to_json(z)))
        argv = ["tile", "--shape", f"file:{path}", "--radius", "30"]
        self._one_error_line(capsys, argv, "--shape: no facet-center triple yields a disjoint unit-index lattice")

    def test_lattice_that_is_not_face_to_face(self, capsys, monkeypatch):
        # slid cube layers: validate_tiling certifies them and the ball measures them, at exactly 4 against
        # w_(2,1)/vol = 3, so the residuals against w_(2,1)/vol fail by a third, and the bracket holds
        sheared = tiling.Lattice(np.array([[1.0, 0, 0], [0, 1.0, 0], [0.3, 0, 1.0]]))
        monkeypatch.setattr(tiling, "lattice_from_parallelohedron", lambda z: sheared)
        code, doc = run_json(capsys, ["tile", "--shape", "cube", "--radius", "8"])
        assert code == 1
        (row,) = doc["outputs"]["rows"]
        assert row["exact_density"] == 4.0 and row["symmetries"] == 4
        residuals = {r["name"]: r for r in doc["residuals"]}
        assert residuals["exact_density_vs_target"]["value"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert [name for name, r in residuals.items() if not r["pass"]] == [
            "final_relative_error", "exact_density_vs_target"]

    def test_needle_is_refused_with_bounded_memory(self, tmp_path):
        # the type-4 minimum at ratio 1e-9 is about 1e6 long and 1e-3 wide, and the unit box 100 x 100 x 1e-4 is a
        # plate: both tile, and the overlap screen passes each with the 26 points of its box, but a ball of 4
        # diameters spans about 8.1e19 and 1.9e8 lattice lines, counted and refused before any geometry of the series
        # is built.  Run in a fresh process, whose VmHWM is its own peak, as for the simplex grid
        needle = weights.optimal_shape_zonotope(4, zonotope.WeightPair(1.0, 1e-9))
        plate = zonotope.build_zonotope(np.diag([100.0, 100.0, 1e-4]))
        for name, body in (("needle", needle), ("plate", plate)):
            report = tiling.validate_tiling(body, tiling.lattice_from_parallelohedron(body))
            assert report.translates_checked == 26, name
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(zonotope.to_json(body)), encoding="utf-8")
            script = "\n".join([
                "import contextlib, io, sys",
                "from mosaicdensity import cli",
                "def peak_kib():",
                "    with open('/proc/self/status') as fh:",
                "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))",
                "before = peak_kib()",
                "err = io.StringIO()",
                "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):",
                "    try:",
                f"        cli.main(['tile', '--shape', 'file:{path}', '--radius', '{4.0 * body.diameter()!r}'])",
                "    except SystemExit as exc:",
                "        code = exc.code",
                "print(code, peak_kib() - before)",
                "print(err.getvalue(), end='')",
            ])
            env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            head, *err = run.stdout.splitlines()
            code, grown_kib = map(int, head.split())
            assert code == 2, name
            errors = [line for line in err if "error:" in line]
            assert len(errors) == 1 and " lattice lines, more than 2097152" in errors[0], name
            assert errors[0].split("error: ")[1].startswith("argument --radius: a ball of radius "), name
            assert "Traceback" not in run.stdout + run.stderr, name
            assert grown_kib <= 45 * 1024, name

    @pytest.mark.parametrize("option", ["--series", "--radius"])
    def test_ball_too_wide_names_its_option(self, capsys, monkeypatch, tmp_path, option):
        # the first default_rng(11) body whose ball at 100 diameters passes 2^21 lines, by the count's formula:
        # the option that gave the radius is refused before any ball of the series is formed
        rng = np.random.default_rng(11)
        for i in range(250):
            z = random_body(rng, i % 5 + 1)
            lat = tiling.lattice_from_parallelohedron(z)
            low, high = 3.0 * z.diameter(), 100.0 * z.diameter()
            if line_count(lat, high + z.circumradius()) > tiling._MAX_LINES:
                break
        assert line_count(lat, low + z.circumradius()) <= tiling._MAX_LINES
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(zonotope.to_json(z)), encoding="utf-8")
        reach = high + z.circumradius()

        def fail(*args):
            raise AssertionError("a ball was formed")

        monkeypatch.setattr(tiling, "_ball_lines", fail)  # the overlap screen forms none either
        monkeypatch.setattr(tiling, "_shell_pairs", fail)
        radii = f"{low!r},{high!r}" if option == "--series" else repr(high)
        lines = line_count(lat, reach)
        message = f"{option}: a ball of radius {reach:.6g} spans {lines} lattice lines, more than 2097152"
        self._one_error_line(capsys, ["tile", "--shape", f"file:{path}", option, radii], message)

    def test_lattice_that_overlaps(self, capsys, monkeypatch):
        # a body that does not tile: validate_tiling screens the proposed lattice
        monkeypatch.setattr(tiling, "lattice_from_parallelohedron", lambda z: tiling.Lattice(0.9 * np.eye(3)))
        argv = ["tile", "--shape", "cube", "--radius", "8"]
        self._one_error_line(capsys, argv, "--shape: translate interiors meet near [-0.45 -0.45 -0.45]")

    @pytest.mark.parametrize(
        "argv",
        [
            ["tile", "--shape", "truncocta", "--radius", "2"],
            ["verify", "--lemma", "all", "--radius", "2"],
        ],
        ids=["tile", "verify-all"],
    )
    def test_radius_floor_checked_before_any_work(self, capsys, monkeypatch, argv):
        from mosaicdensity import tetra, tiling

        def fail(*args, **kwargs):
            raise AssertionError("ran before the radius was checked")

        monkeypatch.setattr(tiling, "lattice_from_parallelohedron", fail)
        monkeypatch.setattr(tetra, "batch_identity_residuals", fail)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "3x cell diameter" in capsys.readouterr().err


_WM = ["wm", "--alpha6", "1", "--alpha4", "0.9", "--sweep", "100"]
_WM_ABOVE_DIAGONAL = ["wm", "--alpha6", "1", "--alpha4", "2"]
_TILE = ["tile", "--shape", "cube", "--radius", "8"]
_VERIFY_TILING = ["verify", "--lemma", "tiling", "--radius", "8"]


def _relative_error_off(monkeypatch):
    _patched_estimates(monkeypatch, lambda est, reps: {"density": est.target * 1.03})


def _exact_density_off(monkeypatch):
    _patched_estimates(monkeypatch, lambda est, reps: {"exact_density": est.exact_density * (1.0 + 1e-9)})


def _length_above_bracket(monkeypatch):
    _patched_estimates(monkeypatch, lambda est, reps: {"skeleton_length": (est.cells + 1) * reps})


def _weighted_length_off(monkeypatch):
    # 1e-7 is far inside the 1e-9 x total that _densities allows the two lengths, about 6.4e-6 for the cube at R = 8
    _patched_estimates(monkeypatch, lambda est, reps: {"weighted_length": est.weighted_length + 1e-7})


# Every residual name the commands emit: a command and a fault under which that residual fails and the command
# exits 1, or, in _ECHOES, why it cannot fail on its own.
_FAULTS = {
    **{f"type{i}_shape_consistency": (_WM, functools.partial(_scaled_optimal_shape, scaled=i)) for i in range(1, 6)},
    "type4_sweep_above_bound": (_WM, _sweep_below_bound),
    "type4_bound_is_type5_minimum": (_WM_ABOVE_DIAGONAL, functools.partial(_scaled_optimal_shape, scaled=5)),
    "published_minimum_at_or_below_bound_at_spec": (["decomp", "--dim", "3"], _published_minimum_above_bound),
    "corrected_minimum_is_bound_at_spec": (["decomp", "--dim", "5"], _corrected_minimum_off),
    "oracle_at_or_above_minimum": (["decomp", "--dim", "5", "--oracle", "30"], _oracle_below_published),
    "oracle_at_corrected_minimum": (["decomp", "--dim", "5", "--oracle", "30"], _corrected_minimum_off),
    "final_relative_error": (_TILE, _relative_error_off),
    "exact_density_vs_target": (_TILE, _exact_density_off),
    "skeleton_length_in_exact_bracket": (_TILE, _length_above_bracket),
    "tetra_volume_polynomial": (["verify", "--lemma", "tetra"], lambda mp: _tetra_residuals(mp, 1e-8, 0.0)),
    "tetra_weighted_sum": (["verify", "--lemma", "tetra"], lambda mp: _tetra_residuals(mp, 0.0, 1e-8)),
    "simplex_gap": (["verify", "--lemma", "simplex", "--lambda", "2"], _simplex_gap),
    "boundary_below_interior": (["verify", "--lemma", "simplex", "--lambda", "2"], _boundary_above_interior),
    "isotropy_residual": (["verify", "--lemma", "isotropy", "--samples", "100"], _isotropy_off),
    **{f"{shape}_{name}": (_VERIFY_TILING, fault) for shape in cli._TILING_SUITE for name, fault in (
        ("relative_error", _relative_error_off),
        ("exact_density_vs_target", _exact_density_off),
        ("skeleton_length_in_exact_bracket", _length_above_bracket),
        ("mode_agreement", _weighted_length_off),
    )},
}
_COVOLUME_ECHO = "validate_tiling raises at the same tolerance first"
_ECHOES = {
    "covolume_minus_volume": _COVOLUME_ECHO,
    "isotropy_determinant": "it re-checks the last normalisation",
    **{f"{shape}_covolume_minus_volume": _COVOLUME_ECHO for shape in cli._TILING_SUITE},
}


class TestResidualRegistry:
    """Every residual a command emits can fail, or is marked as an echo of a check made before it."""

    def test_every_emitted_residual_is_registered(self, capsys):
        emitted = set()
        for argv in (
            _WM,
            _WM_ABOVE_DIAGONAL,
            ["decomp", "--dim", "5", "--oracle", "30"],
            _TILE,
            ["verify", "--lemma", "all", "--samples", "100", "--grid", "10", "--radius", "8"],
        ):
            code, doc = run_json(capsys, argv)
            assert code == 0
            emitted |= {r["name"] for r in doc["residuals"]}
        assert not set(_FAULTS) & set(_ECHOES)
        assert emitted == set(_FAULTS) | set(_ECHOES)  # no unregistered name, and no stale entry

    @pytest.mark.parametrize("name", sorted(_FAULTS))
    def test_residual_fails_under_its_fault(self, capsys, monkeypatch, name):
        argv, fault = _FAULTS[name]
        fault(monkeypatch)
        code, doc = run_json(capsys, argv)
        assert code == 1
        assert name in {r["name"] for r in doc["residuals"] if not r["pass"]}
