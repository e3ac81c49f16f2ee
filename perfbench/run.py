"""The mosaicdensity benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tile-large --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md):

- ``tile-large``: ``tile --shape truncocta --series 20,30`` through ``cli.main``.
- ``certify``: the certificate commands (``verify``, ``wm --sweep``,
  ``decomp --oracle`` for n = 2..7, ``table1``, ``fig2``) and the
  monotonicity certificates.
- ``bodies``: random bodies of all five types through lattice search,
  tiling validation and skeleton density.  Not a gated workload: at the
  current code some of its ops fail by design (see the README).

The workload runs in its own process (``perfbench/worker.py``), so its
peak memory is its own.  Set-up (interpreter start, ``import
mosaicdensity``, input generation) is timed over several fresh processes
and reported as the median.

Output: one line with the full report (environment, failures by origin
and exception class, the tail percentile and its sample count), then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced run of the same passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # the whole invocation ends within this, set-up included
TAIL_BEYOND = 10  # samples required beyond the tail percentile

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

EXPECTED_FAILURES = {
    "bodies": [
        "GeometryError 'dedup total ... and weighted total ... disagree' from "
        "tiling.skeleton_density: _quantized_keys rounds edge endpoints at 1e9 and "
        "splits an edge whose coordinate rounds across a boundary",
        "MemoryError from tiling.Lattice.points_in_ball: a skewed facet-center basis "
        "makes the coefficient box tens of millions of points",
    ],
}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND samples that statistic lies under the median,
    so the maximum is reported instead, at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    rank = n - TAIL_BEYOND - 1
    return xs[rank], 100.0 * (rank + 1) / n


def timing_metrics(
    records: list[dict], pass_walls: list[float], repeated: bool
) -> tuple[dict, list[float]]:
    """wall_s, ops_per_s and the latency samples of completed ops.

    When every pass is the same (``repeated``), each op's sample is its
    best time over the passes, and wall_s is the sum of those: the pass
    time on a machine that is not slowed by other load, which on a shared
    machine varies far less than a median.  Otherwise each op is its own
    sample and wall_s is the median pass wall time.
    """
    done = [r for r in records if r["status"] == "ok"]
    if repeated:
        best: dict[str, float] = {}
        for r in done:
            best[r["op"]] = min(best.get(r["op"], float("inf")), r["latency_s"])
        samples = list(best.values())
        wall = sum(samples)
        return {"wall_s": wall, "ops_per_s": len(samples) / wall}, samples
    samples = [r["latency_s"] for r in done]
    return {"wall_s": statistics.median(pass_walls),
            "ops_per_s": len(done) / sum(pass_walls)}, samples


def git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke check")
    args = parser.parse_args()

    if not Path("src/mosaicdensity/__init__.py").is_file():
        print("perfbench: run from the root of a mosaicdensity checkout (src/mosaicdensity is missing)",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]

    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd + ["--setup-only"], timeout=60)
        setup.append(time.perf_counter() - t0)
        if done.returncode != 0:
            print(f"perfbench: set-up failed with exit {done.returncode}", file=sys.stderr)
            return 1

    budget = TIME_LIMIT_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"perfbench: workload exited {done.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    pkg = Path(raw["environment"]["package_path"])
    if not pkg.is_relative_to(Path.cwd() / "src"):
        print(f"perfbench: imported mosaicdensity from {pkg}, not from this checkout", file=sys.stderr)
        return 1

    records = raw["records"]
    done_ops = [r for r in records if r["status"] == "ok"]
    wrong = [r for r in records if r["status"] == "wrong"]
    failures: dict[str, dict[str, int]] = {}
    for r in records:
        if r["status"] == "raised":
            by_class = failures.setdefault(r["origin"], {})
            by_class[r["error_class"]] = by_class.get(r["error_class"], 0) + 1
    rel_errors = [r["rel_error"] for r in done_ops if "rel_error" in r]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {**raw["environment"], "git_commit": git_commit(),
                        "memory_ceiling_bytes": raw["memory_ceiling_bytes"]},
        "passes": len(raw["pass_walls"]),
        "attempted": len(records),
        "completed": len(done_ops),
        "failed_frac": (len(records) - len(done_ops)) / len(records),
        "rel_error": max(rel_errors) if rel_errors else None,
        "wrong_answers": [f"{r['op']}: {r['message']}" for r in wrong[:5]],
        "failures_by_origin_and_class": failures,
        "expected_failures": EXPECTED_FAILURES.get(args.workload, []),
        "setup_runs_s": setup,
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in layer_units(raw["layers"])}
        report["traced_failures_by_function_and_class"] = raw["traced_failures"]
        report["untraced_pass_walls_s"] = raw["pass_walls"]
        report["traced_pass_walls_s"] = raw["traced_pass_walls"]
    else:
        if not done_ops:
            print("perfbench: no op completed", file=sys.stderr)
            return 1
        values, samples = timing_metrics(records, raw["pass_walls"], raw["distinct_passes"] == 1)
        tail_value, tail_pct = tail(samples)
        values.update(
            setup_s=statistics.median(setup),
            op_p50_ms=statistics.median(samples) * 1e3,
            op_tail_ms=tail_value * 1e3,
            peak_rss_mb=raw["peak_rss_mb"],
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        report["op_tail"] = {"percentile": tail_pct, "samples": len(samples)}
        report["pass_walls_s"] = raw["pass_walls"]
    report["metrics"] = metrics
    print(json.dumps(report))
    print(json.dumps({
        "correct": not wrong and bool(done_ops),
        "attempted": len(records),
        "failed": len(records) - len(done_ops),
        "metrics": metrics,
    }))
    return 0


def layer_units(layers: dict[str, float]):
    """(name, value, unit) for each layer metric; times and counts are per pass."""
    for name, value in sorted(layers.items()):
        if name.endswith("case_ms"):
            unit = "ms"
        elif name.endswith(("_frac", "rel_error_max")):
            unit = "ratio"
        elif name.endswith((".s", "self_s")):
            unit = "s/pass"
        else:
            unit = "count/pass"
        yield name, value, unit


if __name__ == "__main__":
    raise SystemExit(main())
