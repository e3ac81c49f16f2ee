"""Workload inputs, operations and output checks.

A workload is a list of passes; a pass is a list of ops.  An op is one
CLI command run through ``cli.main`` in this process (``tile-large`` and
``certify``) or one body through the library API (``bodies``).  Every op
carries a check that raises :class:`WrongAnswer` when the output is not
correct, so a fast wrong answer counts as a failed op.

Inputs are drawn from the workload seed only: the same seed gives the
same passes on every run.  Library functions are looked up through their module
at call time, so a tracer that swaps module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from mosaicdensity import cli, decomposable, tiling, zonotope

WORKLOADS = ("tile-large", "certify", "bodies")

# Paper values used as independent references.
TRUNCOCTA_DENSITY = 6.0 / 2.0 ** (1.0 / 6.0)  # w_(2,1)/vol of the truncated octahedron
CUBE_PRISM_RATIO = math.sqrt(3.0) / 2.0
PRISM_OCTA_RATIO = (2.0 / 3.0) ** 0.25
DENSITY_TOLERANCE = 0.02  # the tolerance the CLI applies to final_relative_error

# beta zero patterns of the five combinatorial types, ordered like zonotope.PAIRS
TYPE_PATTERNS = {
    1: (1, 1, 0, 1, 0, 0),
    2: (0, 0, 1, 1, 1, 1),
    3: (0, 1, 1, 1, 1, 0),
    4: (1, 1, 1, 1, 1, 0),
    5: (1, 1, 1, 1, 1, 1),
}

# Address-space ceiling of the bodies process: skewed lattice bases ask
# points_in_ball for tens of millions of points, which without a ceiling
# can exhaust the machine's memory.
BODIES_MEMORY_CEILING = int(2.5 * 2**30)

class WrongAnswer(Exception):
    """An op finished but its output failed a check."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], float | None]  # relative density error, if any


# Sample counts are kept small enough that every certify op takes well
# under a second: each op's best time over a run then filters out the
# second-scale slowdowns of a shared machine, which a long op averages in.
@dataclass(frozen=True)
class Sizes:
    radii: tuple[float, ...]
    tetra_samples: int
    isotropy_samples: int
    sweep_samples: int
    oracle_grid: int
    certificate_points: int
    body_samples: int


SIZES = {
    "full": Sizes((20.0, 30.0), 20_000, 1_000, 100_000, 30, 10_000, 20_000),
    "tiny": Sizes((6.0, 8.0), 1_000, 1_000, 1_000, 20, 1_000, 2_000),
}


# ---------------------------------------------------------------------------
# CLI ops


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
            err.write(f"{exc.code}\n")
    if rc != 0:
        raise WrongAnswer(f"exit {rc}: {err.getvalue().strip()[-200:]}")
    return out.getvalue()


def _cli_op(label: str, argv: list[str], check: Callable[[Any], float | None]) -> Op:
    return Op(label, lambda: _run_cli(argv), check)


def _residual_doc(text: str) -> dict:
    """The JSON document, after checking that every residual passed."""
    doc = json.loads(text)
    residuals = doc["residuals"]
    if not residuals:
        raise WrongAnswer("no residual was checked")
    failed = [r["name"] for r in residuals if not r["pass"]]
    if failed:
        raise WrongAnswer(f"residuals failed: {failed}")
    return doc


def _check_residuals(text: str) -> None:
    _residual_doc(text)


def _check_tile(radii: tuple[float, ...]):
    def check(text: str) -> float:
        rows = _residual_doc(text)["outputs"]["rows"]
        if [r["radius"] for r in rows] != list(radii):
            raise WrongAnswer(f"rows for radii {[r['radius'] for r in rows]}, asked {radii}")
        worst = 0.0
        for r in rows:
            if abs(r["target"] - TRUNCOCTA_DENSITY) > 1e-12 * TRUNCOCTA_DENSITY:
                raise WrongAnswer(f"target {r['target']!r} != 6/2^(1/6)")
            ball = 4.0 / 3.0 * math.pi * r["radius"] ** 3
            if abs(r["skeleton_length"] / ball - r["density"]) > 1e-12 * r["density"]:
                raise WrongAnswer("density is not skeleton length over ball volume")
            err = abs(r["density"] - TRUNCOCTA_DENSITY) / TRUNCOCTA_DENSITY
            if err > DENSITY_TOLERANCE:
                raise WrongAnswer(f"density {r['density']!r} off by {err:.3g} at R={r['radius']}")
            worst = max(worst, err)
        return worst

    return check


def _paper_minima(a6: float, a4: float) -> dict[int, float]:
    """Closed-form unit-volume minima of types 1, 2, 3 and 5."""
    return {
        1: 3.0 * a4,
        2: 3.0 ** (7.0 / 6.0) / 2.0 ** (1.0 / 3.0) * a4 ** (2.0 / 3.0) * a6 ** (1.0 / 3.0),
        3: 2.0 ** (2.0 / 3.0) * math.sqrt(3.0) * a6,
        5: 3.0 * a6 / 2.0 ** (1.0 / 6.0),
    }


def _paper_winner(ratio: float) -> str:
    if ratio < CUBE_PRISM_RATIO:
        return "Cube"
    return "HexPrism" if ratio < PRISM_OCTA_RATIO else "TruncOcta"


def _close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_wm(a6: float, a4: float):
    def check(text: str) -> None:
        out = _residual_doc(text)["outputs"]
        winner = _paper_winner(a4 / a6)
        value = min(_paper_minima(a6, a4).values())
        if out["winner"] != winner or not _close(out["value"], value):
            raise WrongAnswer(f"winner {out['winner']} {out['value']!r}, paper {winner} {value!r}")
        if "sweep" not in out:
            raise WrongAnswer("sweep missing")

    return check


def _check_decomp(n: int):
    def check(text: str) -> None:
        out = _residual_doc(text)["outputs"]
        if n == 3 and not _close(out["minimum"], 1.5 * math.sqrt(3.0)):
            raise WrongAnswer(f"n=3 minimum {out['minimum']!r} != 3*sqrt(3)/2")

    return check


def _check_table1(a6: float, a4: float):
    def check(text: str) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["type", "value", "is_exact", "shape", "parameters"] or len(rows) != 6:
            raise WrongAnswer(f"table1 layout: {rows[:1]} with {len(rows) - 1} rows")
        values = {int(r[0]): float(r[1]) for r in rows[1:]}
        for i, ref in _paper_minima(a6, a4).items():
            if not _close(values[i], ref):
                raise WrongAnswer(f"table1 type {i}: {values[i]!r} != {ref!r}")
        if not (math.isfinite(values[4]) and values[4] > 0):
            raise WrongAnswer(f"table1 type 4 bound {values[4]!r}")

    return check


def _check_fig2(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["alpha4", "type1", "type2", "type3", "type4_bound", "type5"]:
        raise WrongAnswer(f"fig2 header {rows[0]}")
    if len(rows) < 2:
        raise WrongAnswer("fig2 has no rows")
    for r in rows[1:]:
        a4, *vals = (float(x) for x in r)
        ref = _paper_minima(1.0, a4)
        for col, i in ((0, 1), (1, 2), (2, 3), (4, 5)):
            if not _close(vals[col], ref[i]):
                raise WrongAnswer(f"fig2 alpha4={a4}: type {i} {vals[col]!r} != {ref[i]!r}")
        if min(abs(a4 - CUBE_PRISM_RATIO), abs(a4 - PRISM_OCTA_RATIO)) < 1e-9:
            continue
        exact = {"Cube": vals[0], "HexPrism": vals[1], "TruncOcta": vals[4]}
        best = min(exact, key=exact.get)
        if best != _paper_winner(a4):
            raise WrongAnswer(f"fig2 alpha4={a4}: minimum {best}, paper {_paper_winner(a4)}")


def _check_certificates(report) -> None:
    if not report.passed:
        raise WrongAnswer(f"certificates failed: {report.failures}")


# ---------------------------------------------------------------------------
# bodies


def _random_frame(rng: np.random.Generator) -> np.ndarray:
    """Gaussian centered frame with |det| >= 5e-2, as in the isotropy suite."""
    while True:
        v = rng.normal(size=(4, 3))
        v[3] = -(v[0] + v[1] + v[2])
        if abs(np.linalg.det(v[:3])) >= 5e-2:
            return v


def _run_body(frame: np.ndarray, beta: np.ndarray, samples: int, seed: int):
    g = zonotope.validate_generators(frame)
    z = zonotope.build_from_parameters(g, zonotope.BetaVector(beta))
    lat = tiling.lattice_from_parallelohedron(z)
    tiling.validate_tiling(z, lat, samples=samples, seed=seed)
    est = tiling.skeleton_density(z, lat, 3.0 * z.diameter())
    return z, beta, est


def _check_body(result) -> float:
    z, beta, est = result
    # the volume cubic in the coefficients, not the hull volume the
    # simulator divides by
    w21 = zonotope.weighted_edge_functional(z, zonotope.WeightPair(2.0, 1.0))
    target = w21 / zonotope.volume_polynomial(beta)
    err = abs(est.density - target) / target
    if err > DENSITY_TOLERANCE:
        raise WrongAnswer(f"density {est.density!r} off w_(2,1)/vol {target!r} by {err:.3g}")
    return err


# ---------------------------------------------------------------------------
# passes


def _tile_pass(rng: np.random.Generator, size: Sizes) -> list[Op]:
    series = ",".join(f"{r:g}" for r in size.radii)
    argv = ["tile", "--shape", "truncocta", "--series", series, "--seed", str(rng.integers(2**31))]
    return [_cli_op(f"tile {series}", argv, _check_tile(size.radii))]


def _certify_pass(rng: np.random.Generator, size: Sizes) -> list[Op]:
    seed = str(rng.integers(2**31))
    # the simplex oracle's cost changes by a quarter over lambda in [1, 3];
    # on [1.5, 2.5] it is flat to a few percent
    lam = f"{rng.uniform(1.5, 2.5):.4f}"
    a4 = float(f"{rng.uniform(0.5, 1.5):.6f}")
    t6, t4 = (float(f"{x:.4f}") for x in rng.uniform(0.5, 6.0, 2))
    tetra = ["--samples", str(size.tetra_samples), "--seed", seed]
    isotropy = ["--samples", str(size.isotropy_samples), "--seed", seed]
    sweep = ["--sweep", str(size.sweep_samples), "--seed", seed]
    ops = [
        _cli_op("verify tetra", ["verify", "--lemma", "tetra", *tetra], _check_residuals),
        _cli_op("verify simplex", ["verify", "--lemma", "simplex", "--lambda", lam, "--grid", "60"],
                _check_residuals),
        _cli_op("verify isotropy", ["verify", "--lemma", "isotropy", *isotropy], _check_residuals),
        _cli_op("wm sweep", ["wm", "--alpha6", "1", "--alpha4", repr(a4), *sweep], _check_wm(1.0, a4)),
    ]
    ops += [
        _cli_op(f"decomp {n}", ["decomp", "--dim", str(n), "--oracle", str(size.oracle_grid)],
                _check_decomp(n))
        for n in range(2, 8)
    ]
    ops += [
        _cli_op("table1", ["table1", "--alpha6", repr(t6), "--alpha4", repr(t4)], _check_table1(t6, t4)),
        _cli_op("fig2", ["fig2"], _check_fig2),
        # no CLI command runs these certificates; call the library directly
        Op("monotonicity_certificates",
           lambda: decomposable.monotonicity_certificates(size.certificate_points),
           _check_certificates),
    ]
    return ops


def _bodies_pass(rng: np.random.Generator, size: Sizes) -> list[Op]:
    ops = []
    for t in range(1, 6):
        frame = _random_frame(rng)
        beta = np.array(TYPE_PATTERNS[t], dtype=np.float64) * rng.uniform(0.2, 1.3, 6)
        seed = int(rng.integers(2**31))
        ops.append(Op(f"body type {t}",
                      lambda f=frame, b=beta, s=seed: _run_body(f, b, size.body_samples, s),
                      _check_body))
    return ops


_PASS_FACTORIES = {"tile-large": _tile_pass, "certify": _certify_pass, "bodies": _bodies_pass}

# Distinct passes generated per run.  tile-large and certify repeat one
# pass, so every op is timed several times on the same input and its
# best time is robust to the machine slowing down for a while.  bodies
# runs fresh bodies in every pass; a run that gets past the last pass
# starts over at the first.
DISTINCT_PASSES = {"tile-large": 1, "certify": 1, "bodies": 400}


def make_passes(workload: str, seed: int, size: str) -> list[list[Op]]:
    """The run's passes, drawn from the seed alone."""
    rng = np.random.default_rng(seed)
    make = _PASS_FACTORIES[workload]
    return [make(rng, SIZES[size]) for _ in range(DISTINCT_PASSES[workload])]


# ---------------------------------------------------------------------------
# kernel cases: the fixed-size inputs of benchmarks/bench_kernels.py


def kernel_cases(seed: int) -> list[tuple[str, tuple]]:
    rng = np.random.default_rng(seed)
    tau = np.abs(rng.normal(size=(200_000, 6)))
    p = rng.uniform(-1.0, 1.0, size=(50_000, 4, 3))
    p -= p.mean(axis=1, keepdims=True)
    v = np.ascontiguousarray(p)
    beta = rng.uniform(0.1, 1.0, size=(50_000, 5))
    seg0 = rng.uniform(-30, 30, size=(500_000, 3))
    seg1 = seg0 + rng.uniform(-1, 1, size=(500_000, 3))
    return [
        ("volume_poly_many", (tau,)),
        ("simplex_grid_scan", (2.0, 60, 1.0)),
        ("pair_scalars_many", (v,)),
        ("type4_functional_many", (v, beta, 1.0, 1.0)),
        ("segment_ball_clip", (seg0, seg1, 25.0)),
    ]
