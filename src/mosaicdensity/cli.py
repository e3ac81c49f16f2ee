"""Command-line front end.

Subcommands: ``wm`` (per-type minima and the overall winner), ``decomp``
(decomposable-mosaic bounds), ``tile`` (tiling simulation), ``verify``
(numeric verification suites), ``table1`` (per-type minima as CSV) and
``fig2`` (minima as functions of alpha4 at alpha6 = 1, CSV).  Reports go
to stdout as JSON with a top-level schema tag; progress notes go to
stderr.  Exit status is 0 exactly when every residual check passed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import decomposable, simplex, tetra, tiling, weights, zonotope
from .zonotope import WeightPair

_SHAPES = zonotope.UNIT_SHAPES
_TILING_SUITE = ("cube", "truncocta")  # shapes measured by verify --lemma tiling
_MAX_DIM = 1000  # the published minima hold 2**(dim // 2), a float overflow from dim 2048
_FIG2_MAX_STEPS = 100_000  # fig2 computes the five type minima of each row in Python
_MAX_GRID = 150  # verify --lemma simplex at 150: ~0.1 s, peak ~19 MB above the interpreter (the (b, c, d) table)
_MAX_LAMBDA = 1e6  # simplex_gap is absolute (1e-5) while the maximum grows like lambda / 27
_ISOTROPY_CHUNK = 64  # bodies per stacked isotropy fixed point, so memory stays flat as --samples grows
_MAX_WEIGHT = 1e300  # every type minimum is below 3 max(alpha6, alpha4), so minima and residuals stay finite
_MIN_WEIGHT = 1e-300  # below the normal doubles the weights lose precision and the residuals fail
# The alpha4/alpha6 range of each type whose body wm builds.  The type-2 prism has height 1.5 (alpha4/alpha6) x
# base edge: below 1e-12 / 1.5 it fails build_zonotope's 1e-12 rank test (FlatBody); above 1e8 its residual's
# rounding passes 1e-9 (first seen at 1.6e8).  The type-4 body's diagonals (a, a, +-c) meet at an angle of about
# alpha4/alpha6: below COPLANAR_TOL = 1e-10 build_zonotope finds them parallel (ParallelSegments; 1e-10 builds).
_RATIO_RANGES = {2: (1e-12 / 1.5, 1e8), 4: (1e-10, math.inf)}


def _canonical_shape(name: str) -> zonotope.Zonotope:
    """Unit-volume canonical body for each named shape, or the body of a ``file:`` JSON document."""
    if name in _SHAPES:
        return zonotope.unit_shape(name)
    if name.startswith("file:"):
        path = name[5:]
        try:
            with open(path, encoding="utf-8") as fh:
                return zonotope.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _OptionError(f"argument --shape: cannot load shape from {path!r}: {exc}") from exc
    raise _OptionError(f"argument --shape: unknown shape {name!r}; choose from {_SHAPES} or file:<path>")


def _tolist(obj):
    """``json.dump`` hook for numpy arrays and integers (``np.float64`` is a float already)."""
    return obj.tolist()


def _residual(name: str, value: float, tolerance: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "pass": bool(abs(value) <= tolerance),
    }


def _status(residuals: list[dict]) -> int:
    return 0 if all(r["pass"] for r in residuals) else 1


def _int_at_least(low: int, high: int | None = None):
    """Argparse type: an integer no smaller than ``low`` (nor larger than ``high``)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid" message
    return parse


def _finite_real(low: float, *, strict: bool, high: float = math.inf, floor: float = -math.inf):
    """Argparse type: a finite float above ``low`` (or at least ``low``), at least ``floor``, at most ``high``."""

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            bound = f"> {low:g}" if strict else f"at least {low:g}"
            raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {text}")
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor:g}, got {text}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high:g}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


_positive_real = _finite_real(0.0, strict=True)
_weight = _finite_real(0.0, strict=True, high=_MAX_WEIGHT, floor=_MIN_WEIGHT)


def _ascending_radii(text: str) -> list[float]:
    """Argparse type: comma-separated strictly ascending radii, each finite and > 0."""
    radii = [_positive_real(x) for x in text.split(",")]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise argparse.ArgumentTypeError(f"radii must ascend, got {text}")
    return radii


_ascending_radii.__name__ = "radii"


class _OptionError(Exception):
    """An unloadable shape, or an option out of range for the body; exits 2 via ``main``."""


def _require_radius(z: zonotope.Zonotope, radii: list[float], option: str) -> None:
    """Refuse a ball radius below the floor of ``skeleton_density`` or outside its band, before any search."""
    try:
        for radius in (min(radii), max(radii)):
            tiling._check_radius(z, radius)
    except ValueError as exc:
        raise _OptionError(f"argument {option}: {exc}") from exc


def _emit(command: str, inputs: dict, outputs: dict, residuals: list[dict]) -> int:
    doc = {"schema": "1", "command": command, "inputs": inputs, "outputs": outputs, "residuals": residuals}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True, default=_tolist)
    sys.stdout.write("\n")
    return _status(residuals)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_wm(args: argparse.Namespace) -> int:
    m = WeightPair(args.alpha6, args.alpha4)
    types = [args.type] if args.type else [1, 2, 3, 4, 5]
    per_type = []
    residuals = []
    body = functools.cache(lambda i: weights.optimal_shape_zonotope(i, m))  # type 4 above the diagonal reads type 5's
    for i in types:
        tm = weights.type_minimum(i, m)
        entry = {
            "type": i,
            "value": tm.value,
            "is_exact": tm.is_exact,
            "optimal_shape": tm.optimal_shape,
        }
        if tm.note:
            entry["note"] = tm.note
        per_type.append(entry)
        z = body(i)
        if z is not None:
            diff = zonotope.weighted_edge_functional(z, m) - tm.value  # w_m is homogeneous of degree 1 in m
            residuals.append(_residual(f"type{i}_shape_consistency", diff / args.alpha6, 1e-9))
        elif not tm.is_exact:  # no type-4 body: the value shown is the type-5 minimum, a lower bound
            diff = zonotope.weighted_edge_functional(body(5), m) - tm.value
            residuals.append(_residual("type4_bound_is_type5_minimum", diff / args.alpha6, 1e-9))
    ans = weights.classify_optimal(m)
    outputs = {
        "per_type": per_type,
        "winner": ans.winner.value,
        "value": ans.value,
        "thresholds": {
            "cube_prism": weights.CUBE_PRISM_RATIO,
            "prism_octa": weights.PRISM_OCTA_RATIO,
        },
    }
    if args.sweep:
        _note(f"sweeping {args.sweep} random type-4 bodies")
        rep = weights.type4_sweep(m, args.sweep, seed=args.seed)
        outputs["sweep"] = {
            "samples": rep.samples,
            "min_observed": rep.min_observed,
            "bound": rep.bound,
        }
        shortfall = max(0.0, rep.bound - rep.min_observed)
        residuals.append(_residual("type4_sweep_above_bound", shortfall / args.alpha6, 1e-9))
    inputs = {"alpha6": args.alpha6, "alpha4": args.alpha4, "type": args.type, "sweep": args.sweep}
    return _emit("wm", inputs, outputs, residuals)


def _spec_doc(spec: decomposable.DecompositionSpec) -> dict:
    return {
        "planars": [{"area": c.area, "e_hat": c.e_hat} for c in spec.planars],
        "segment": None if spec.segment is None else {"length": spec.segment.length},
    }


def cmd_decomp(args: argparse.Namespace) -> int:
    value, spec = decomposable.minimize_density(args.dim)
    corrected, corrected_spec = decomposable.corrected_minimum(args.dim)
    outputs = {
        "minimum": value,
        "spec": _spec_doc(spec),
        "corrected_minimum": corrected,
        "corrected_spec": _spec_doc(corrected_spec),
    }
    bound = decomposable.density_bound_odd if spec.segment else decomposable.density_bound_even
    excess = max(0.0, value - bound(spec))
    residuals = [
        _residual("published_minimum_at_or_below_bound_at_spec", excess, 1e-12),
        _residual("corrected_minimum_is_bound_at_spec", corrected - bound(corrected_spec), 1e-12),
    ]
    if args.oracle:
        _note(f"running grid oracle with grid_n={args.oracle}")
        try:
            oracle = decomposable.brute_force_minimize(args.dim, args.oracle)
        except decomposable.OracleBoxEdge as exc:
            raise SystemExit(f"oracle failed: {exc}") from exc
        outputs["oracle_value"] = oracle
        shortfall = max(0.0, value - oracle)
        residuals.append(_residual("oracle_at_or_above_minimum", shortfall, 1e-6))
        residuals.append(_residual("oracle_at_corrected_minimum", oracle - corrected, 1e-6))
    return _emit("decomp", {"dim": args.dim, "oracle": args.oracle}, outputs, residuals)


def _density_row(est: tiling.DensityEstimate) -> dict:
    return {
        "radius": est.radius,
        "skeleton_length": est.skeleton_length,
        "density": est.density,
        "target": est.target,
        "relative_error": est.relative_error,
        "cells": est.cells,
        "shell": est.shell,
        "crossing": est.crossing,
        "exact_density": est.exact_density,
        "symmetries": est.symmetries,
    }


def _exact_residuals(est: tiling.DensityEstimate, covolume: float) -> tuple[float, float]:
    """The exact density's relative distance from w_(2,1)/vol, and how far, relative to the
    skeleton length, the length leaves the bracket (cells - shell) L_reps <= length <= cells L_reps,
    L_reps the class representatives' total length: a translate off the shell holds its
    representatives whole, and no translate holds more."""
    reps = est.exact_density * covolume
    length = est.skeleton_length
    outside = max(0.0, (est.cells - est.shell) * reps - length, length - est.cells * reps)
    return abs(est.exact_density - est.target) / est.target, outside / length


def _certify_tiling(z: zonotope.Zonotope, radii: list[float], option: str, seed: int, prefix: str = ""):
    """Lattice search, ``validate_tiling`` and ``convergence_series`` for z: the lattice, the report, the rows
    and the residuals covolume_minus_volume, relative_error (last row; led by final_ with no ``prefix``),
    exact_density_vs_target and skeleton_length_in_exact_bracket (worst row), each name led by ``prefix``."""
    lat = tiling.lattice_from_parallelohedron(z)
    report = tiling.validate_tiling(z, lat, seed=seed)
    try:
        rows = tiling.convergence_series(z, lat, radii)
    except tiling.TooManyLines as exc:  # the series' largest ball is too wide for the lattice: ``option`` is at fault
        raise _OptionError(f"argument {option}: {exc}") from exc
    exact, bracket = np.max([_exact_residuals(est, lat.covolume) for est in rows], axis=0)
    covolume = report.determinant - report.cell_volume
    return lat, report, rows, [
        _residual(f"{prefix}covolume_minus_volume", covolume, tiling._covolume_tol(report.cell_volume)),
        _residual(f"{prefix or 'final_'}relative_error", rows[-1].relative_error, 0.02),
        _residual(f"{prefix}exact_density_vs_target", exact, 1e-12),
        _residual(f"{prefix}skeleton_length_in_exact_bracket", bracket, 1e-12),
    ]


def cmd_tile(args: argparse.Namespace) -> int:
    z = _canonical_shape(args.shape)
    radii, option = (args.series, "--series") if args.series else ([args.radius], "--radius")
    _require_radius(z, radii, option)
    _note(f"shape {args.shape}: volume={z.volume():.6f}, searching tiling lattice")
    try:
        lat, report, rows, residuals = _certify_tiling(z, radii, option, args.seed)
    except (tiling.NoValidBasis, tiling.Overlap, tiling.TooManyLines) as exc:  # a body that cannot be measured
        raise _OptionError(f"argument --shape: {exc}") from exc
    except ValueError as exc:  # geometry errors
        raise SystemExit(f"tiling failed: {exc}") from exc
    _note(f"lattice certified: no overlap among {report.translates_checked} translates, covolume = volume")
    if args.csv:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(_density_row(rows[0])))
        writer.writeheader()
        writer.writerows(_density_row(est) for est in rows)
        return _status(residuals)
    outputs = {
        "basis": lat.basis,
        "covering_fraction": report.covering_fraction,
        "translates_checked": report.translates_checked,
        "rows": [_density_row(est) for est in rows],
    }
    return _emit("tile", {"shape": args.shape, "radius": args.radius, "series": args.series}, outputs, residuals)


def _verify_tetra(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    r1, r2 = tetra.batch_identity_residuals(args.samples, seed=args.seed)
    outputs = {"samples": args.samples, "poly_residual": r1, "sum_residual": r2}
    return outputs, [
        _residual("tetra_volume_polynomial", r1, 1e-9),
        _residual("tetra_weighted_sum", r2, 1e-9),
    ]


def _verify_simplex(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    closed = simplex.scaled_simplex_max(args.lam)
    brute = simplex.grid_simplex_max(args.lam, grid_n=args.grid)
    gap = closed - brute
    candidates = max(simplex.boundary_candidates(args.lam))
    outputs = {
        "lambda": args.lam,
        "grid_n": args.grid,
        "closed_form": closed,
        "brute_force": brute,
        "gap": gap,
    }
    return outputs, [
        _residual("simplex_gap", gap, 1e-5),
        _residual("boundary_below_interior", min(0.0, closed - candidates), 1e-15),
    ]


def _isotropy_body(rng: np.random.Generator) -> zonotope.Zonotope:
    """One random truncated octahedron: a ``random_frame``, then six coefficients uniform on [0.2, 1.3)."""
    g = zonotope.random_frame(rng)
    b = zonotope.BetaVector(rng.uniform(0.2, 1.3, 6))
    return zonotope.build_from_parameters(g, b)


def _verify_isotropy(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    rng = np.random.default_rng(args.seed)
    worst_it, worst_det, worst_res = 0, 0.0, 0.0
    n = max(10, args.samples // 100)
    for done in range(0, n, _ISOTROPY_CHUNK):  # one stacked fixed point per chunk of bodies
        chunk = [_isotropy_body(rng) for _ in range(min(_ISOTROPY_CHUNK, n - done))]
        u = np.array([z.facet_normals for z in chunk])
        f = np.array([z.facet_areas for z in chunk])
        matrix, iterations, _ = weights.isotropic_positions(u, f)
        worst_it = max(worst_it, int(iterations.max()))
        worst_det = max(worst_det, float(np.abs(np.linalg.det(matrix) - 1.0).max()))
        worst_res = max(worst_res, float(weights.isotropy_residuals(u, f, matrix).max()))
    outputs = {"bodies": n, "max_iterations": worst_it, "max_det_error": worst_det, "max_residual": worst_res}
    return outputs, [
        _residual("isotropy_residual", worst_res, weights.ISOTROPY_TOL),
        _residual("isotropy_determinant", worst_det, 1e-12),
    ]


def _verify_tiling(args: argparse.Namespace, shapes: dict) -> tuple[dict, list[dict]]:
    rows = []
    residuals = []
    for name, z in shapes.items():
        _, _, (est,), certified = _certify_tiling(z, [args.radius], "--radius", args.seed, f"{name}_")
        _note(f"{name}: density {est.density:.6f} vs {est.target:.6f}")
        rows.append({"shape": name, **_density_row(est)})
        agreement = _residual(f"{name}_mode_agreement", est.skeleton_length - est.weighted_length, 1e-9)
        residuals.extend([*certified[:2], agreement, *certified[2:]])
    return {"radius": args.radius, "rows": rows}, residuals


def cmd_verify(args: argparse.Namespace) -> int:
    suites = ("tetra", "simplex", "isotropy", "tiling") if args.lemma == "all" else (args.lemma,)
    shapes = {name: _canonical_shape(name) for name in _TILING_SUITE} if "tiling" in suites else {}
    for z in shapes.values():
        _require_radius(z, [args.radius], "--radius")
    outputs: dict = {}
    residuals: list[dict] = []
    runner = {
        "tetra": _verify_tetra,
        "simplex": _verify_simplex,
        "isotropy": _verify_isotropy,
        "tiling": functools.partial(_verify_tiling, shapes=shapes),
    }
    for suite in suites:
        _note(f"verifying: {suite}")
        out, res = runner[suite](args)
        outputs[suite] = out
        residuals.extend(res)
    inputs = {"lemma": args.lemma, "samples": args.samples, "lambda": args.lam, "grid": args.grid}
    return _emit("verify", inputs, outputs, residuals)


def cmd_table1(args: argparse.Namespace) -> int:
    m = WeightPair(args.alpha6, args.alpha4)
    writer = csv.writer(sys.stdout)
    writer.writerow(["type", "value", "is_exact", "shape", "parameters"])
    for i in range(1, 6):
        tm = weights.type_minimum(i, m)
        shape = tm.optimal_shape or {}
        params = {k: v for k, v in shape.items() if k != "shape"}
        writer.writerow(
            [i, repr(tm.value), tm.is_exact, shape.get("shape", ""), json.dumps(params, default=_tolist)]
        )
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    grid = np.arange(args.start, args.stop + args.step / 2, args.step)
    header, rows = weights.figure_curves(grid)
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosaicdensity",
        description="Edge densities of convex mosaics: per-type minima, "
        "decomposable bounds, and lattice-tiling simulation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_at_least(0), default=0, help="non-negative seed for randomized routines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wm", help="per-type minima of the weighted edge functional", parents=[common])
    p.add_argument("--alpha6", type=_weight, required=True, help="weight of 6-belt segments")
    p.add_argument("--alpha4", type=_weight, required=True, help="weight of 4-belt segments")
    p.add_argument("--type", type=int, choices=range(1, 6), help="restrict to one type")
    p.add_argument(
        "--sweep", type=_int_at_least(100), help="random type-4 bodies to sweep against the bound"
    )

    p = sub.add_parser("decomp", help="minimum density bound for decomposable mosaics")
    p.add_argument("--dim", type=_int_at_least(2, _MAX_DIM), required=True, help=f"ambient dimension (2..{_MAX_DIM})")
    p.add_argument(
        "--oracle", type=_int_at_least(20),
        help=f"run the grid oracle with this resolution (its scan is capped at "
        f"{decomposable.MAX_SCAN_POINTS} points)",
    )

    p = sub.add_parser("tile", help="simulate a lattice tiling and measure edge density", parents=[common])
    p.add_argument("--shape", required=True, help=f"one of {_SHAPES} or file:<json>")
    ball = p.add_mutually_exclusive_group()
    ball.add_argument("--radius", type=_positive_real, default=20.0, help="measurement ball radius")
    ball.add_argument("--series", type=_ascending_radii, help="comma-separated ascending radii")
    p.add_argument("--csv", action="store_true", help="emit CSV rows instead of JSON")

    p = sub.add_parser("verify", help="run numeric verification suites", parents=[common])
    p.add_argument("--lemma", choices=("tetra", "simplex", "isotropy", "tiling", "all"), default="all")
    p.add_argument(
        "--samples", type=_int_at_least(1), default=10_000,
        help="tetrahedra of the tetra suite; the isotropy suite draws max(10, samples // 100) bodies",
    )
    p.add_argument(
        "--lambda", dest="lam", type=_finite_real(1.0, strict=False, high=_MAX_LAMBDA), default=1.0,
        help=f"scale factor (simplex suite, 1..{_MAX_LAMBDA:g})",
    )
    p.add_argument(
        "--grid", type=_int_at_least(10, _MAX_GRID), default=60,
        help=f"grid resolution (simplex suite, 10..{_MAX_GRID})",
    )
    p.add_argument("--radius", type=_positive_real, default=20.0, help="ball radius (tiling suite)")

    p = sub.add_parser("table1", help="CSV of per-type minima for one weight pair")
    p.add_argument("--alpha6", type=_weight, required=True)
    p.add_argument("--alpha4", type=_weight, required=True)

    p = sub.add_parser("fig2", help="CSV curves of the minima vs alpha4 at alpha6 = 1")
    p.add_argument("--start", type=_positive_real, default=0.05)
    p.add_argument("--stop", type=_positive_real, default=1.2)
    p.add_argument("--step", type=_positive_real, default=0.01)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decomp" and args.oracle and args.dim > 7:
        parser.error(f"argument --oracle: the grid oracle covers --dim 2..7, got {args.dim}")
    for i, (low, high) in _RATIO_RANGES.items():
        if args.command == "wm" and args.type in (None, i) and not low <= args.alpha4 / args.alpha6 <= high:
            parser.error(f"argument --alpha4: type {i} needs alpha4/alpha6 in [{low:g}, {high:g}], "
                         f"got {args.alpha4 / args.alpha6!r}")
    if args.command == "fig2" and args.stop < args.start:
        parser.error(f"argument --stop: must be at least --start {args.start:g}, got {args.stop:g}")
    if args.command == "fig2" and (args.stop - args.start) / args.step > _FIG2_MAX_STEPS:
        parser.error(f"argument --step: more than {_FIG2_MAX_STEPS} steps from --start to --stop")
    try:
        # looked up per call: the cached parser binds no command, so a patched or wrapped one runs
        return globals()[f"cmd_{args.command}"](args)
    except _OptionError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
