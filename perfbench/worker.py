"""One workload in its own process; the parent is ``perfbench/run.py``.

Usage (from the root of a checkout):

    python3 perfbench/worker.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload certify --seed 1 --setup-only

With ``--setup-only`` it imports ``mosaicdensity``, generates the
workload's inputs and exits; the parent times that as set-up.  Otherwise
it runs whole passes until ``--seconds`` have elapsed and prints one JSON
line with the raw per-op records, pass wall times and peak memory.

With ``--trace 1`` it runs every pass twice, untraced and with every
traced function wrapped, alternating which goes first, and reports
per-pass layer metrics from the traced passes and the tracing overhead
(median over pairs of traced over untraced pass time, minus one).
Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _failure_origin(exc: BaseException) -> str:
    """Innermost public mosaicdensity function on the traceback."""
    origin = "perfbench"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        code = frame.f_code
        name = getattr(code, "co_qualname", code.co_name)
        if module.startswith("mosaicdensity.") and not name.split(".")[-1].startswith("_"):
            origin = f"{module.split('.', 1)[1].lstrip('_')}.{name}"
    return origin


def _failure(exc: Exception) -> dict:
    """Record fields for a failed op; no reference to the exception is kept."""
    from workloads import WrongAnswer

    if isinstance(exc, WrongAnswer):
        return {"status": "wrong", "message": str(exc)}
    return {"status": "raised", "error_class": type(exc).__name__,
            "origin": _failure_origin(exc), "message": str(exc)[:200]}


def run_pass(passes, k: int, tracer=None) -> tuple[list[dict], float]:
    """Runs pass k, then checks its outputs after the clock has stopped.

    With a tracer, its wrappers are installed for the ops of the pass
    and removed before the checks.
    """
    from workloads import WrongAnswer

    results = []
    if tracer is not None:
        tracer.install()
    t_pass = time.perf_counter()
    for op in passes[k % len(passes)]:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing op is recorded, and the run goes on
            latency = time.perf_counter() - t0
            # Described at once: the traceback holds the failed call's
            # frames, whose arrays would count against the memory ceiling
            # of the ops that follow.
            out, failure = None, _failure(exc)
        else:
            latency, failure = time.perf_counter() - t0, None
        results.append((op, latency, out, failure))
    wall = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.uninstall()
    records = []
    for op, latency, out, failure in results:
        rec = {"pass": k, "op": op.label, "latency_s": latency, "status": "ok"}
        if failure is None:
            try:
                err = op.check(out)
                if err is not None:
                    rec["rel_error"] = err
            except WrongAnswer as wrong:
                failure = _failure(wrong)
            except (KeyError, IndexError, TypeError, ValueError) as bad:
                failure = {"status": "wrong", "message": f"unreadable output: {type(bad).__name__}: {bad}"}
        if failure is not None:
            rec.update(failure)
        records.append(rec)
    return records, wall


def run_timed(passes, seconds: float) -> tuple[list[dict], list[float]]:
    """Whole passes until the time is up (at least one)."""
    records, walls = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        recs, wall = run_pass(passes, k)
        records += recs
        walls.append(wall)
        k += 1
    return records, walls


def kernel_case_ms(seed: int, repeat: int = 3) -> dict[str, float]:
    """Best-of-``repeat`` time of each kernel on fixed-size inputs."""
    from mosaicdensity import _kernels
    from workloads import kernel_cases

    out = {}
    for name, args in kernel_cases(seed):
        fn = getattr(_kernels, name)
        fn(*args)
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        out[name] = best * 1e3
    return out


def layer_metrics(tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the tracer's spans and counters."""
    from tracing import KERNELS

    summary = tracer.summary()

    def total(name, field="s"):
        return summary.get(name, {}).get(field, 0.0) / passes

    def count(key):
        return tracer.counts.get(key, 0.0) / passes

    def failed(name):
        return sum(tracer.failed.get(name, {}).values()) / passes

    sd, pib = "tiling.skeleton_density", "tiling.Lattice.points_in_ball"
    lfp, bfp = "tiling.lattice_from_parallelohedron", "zonotope.build_from_parameters"
    m = {
        f"{sd}.s": total(sd),
        f"{sd}.self_s": total(sd, "self_s"),
        f"{sd}.cells": count(f"{sd}.cells"),
        f"{sd}.failed": failed(sd),
        "tiling.validate_tiling.s": total("tiling.validate_tiling"),
        "tiling.validate_tiling.samples": count("tiling.validate_tiling.samples"),
        f"{pib}.s": total(pib),
        f"{pib}.calls": tracer.calls.get(pib, 0) / passes,
        f"{pib}.points": count(f"{pib}.points"),
        f"{lfp}.s": total(lfp),
        f"{lfp}.failed": failed(lfp),
        "tetra.batch_identity_residuals.s": total("tetra.batch_identity_residuals"),
        "weights.type4_sweep.s": total("weights.type4_sweep"),
        "weights.type4_sweep.samples": count("weights.type4_sweep.samples"),
        "weights.isotropic_position.s": total("weights.isotropic_position"),
        "weights.isotropic_position.iterations": count("weights.isotropic_position.iterations"),
        f"{bfp}.s": total(bfp),
        f"{bfp}.calls": tracer.calls.get(bfp, 0) / passes,
        f"{bfp}.failed": failed(bfp),
        "simplex.grid_simplex_max.s": total("simplex.grid_simplex_max"),
        "simplex.grid_simplex_max.self_s": total("simplex.grid_simplex_max", "self_s"),
        "decomposable.brute_force_minimize.s": total("decomposable.brute_force_minimize"),
        "decomposable.monotonicity_certificates.s": total("decomposable.monotonicity_certificates"),
        "cli.self_s": sum(v["self_s"] for k, v in summary.items() if k.startswith("cli.")) / passes,
        "trace.spans": len(tracer.spans) / passes,
    }
    for name in KERNELS:
        m[f"kernels.{name}.s"] = total(f"kernels.{name}")
        m[f"kernels.{name}.rows"] = count(f"kernels.{name}.rows")
    for cmd in ("tile", "verify", "wm", "decomp"):
        m[f"cli.{cmd}.s"] = total(f"cli.{cmd}")
    return m


def environment() -> dict:
    from importlib import metadata

    import mosaicdensity
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "numba_enabled": bool(mosaicdensity.NUMBA_ENABLED),
        "package_version": mosaicdensity.__version__,
        "package_path": str(Path(mosaicdensity.__file__).parent),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import BODIES_MEMORY_CEILING, WORKLOADS, make_passes

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
    ceiling = None
    if args.workload == "bodies":
        ceiling = BODIES_MEMORY_CEILING
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    passes = make_passes(args.workload, args.seed, args.size)
    if args.setup_only:
        return 0

    result = {"environment": environment(), "memory_ceiling_bytes": ceiling,
              "distinct_passes": len(passes)}
    if not args.trace:
        records, walls = run_timed(passes, args.seconds)
        result.update(records=records, pass_walls=walls,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        from tracing import Tracer

        # Each pass runs twice, untraced and traced, in alternating order,
        # so the two runs of a pair see the machine in the same state.
        tracer = Tracer()
        records, walls, traced_walls = [], [], []
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < args.seconds:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                recs, wall = run_pass(passes, k, tracer if traced else None)
                records += recs
                (traced_walls if traced else walls).append(wall)
            k += 1
        layers = layer_metrics(tracer, k)
        layers["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced_walls, walls)) - 1.0
        errors = [r["rel_error"] for r in records if "rel_error" in r]
        layers["tiling.skeleton_density.rel_error_max"] = max(errors, default=0.0)
        for name, ms in kernel_case_ms(args.seed).items():
            layers[f"kernels.{name}.case_ms"] = ms
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        result.update(
            records=records,
            pass_walls=walls,
            traced_pass_walls=traced_walls,
            layers=layers,
            traced_failures={k: dict(v) for k, v in tracer.failed.items()},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
