"""Smoke check of the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For each workload it runs ``perfbench/run.py --size tiny`` untraced and
traced, and checks that the last line has exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and that every metric named in
``BENCHMARK.json`` (end-to-end untraced, per-layer traced) is emitted as a
finite number with its unit.  It also checks that the benchmark refuses
to run where the package source is missing.  Exits 1 on the first
problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tile-large", "certify", "bodies")


def fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


def run(workload: str, trace: int, cwd: Path | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=cwd)


def check_result(workload: str, trace: int, proc: subprocess.CompletedProcess, spec: list[dict]) -> None:
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: last line keys {sorted(last)}")
    counts = last["attempted"], last["failed"]
    if not (all(isinstance(c, int) for c in counts) and counts[0] >= 1):
        fail(f"{workload} trace={trace}: attempted {last['attempted']!r}, failed {last['failed']!r}")
    emitted = last["metrics"]
    if set(emitted) != {m["name"] for m in spec}:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(emitted) ^ {m['name'] for m in spec})}")
    for m in spec:
        got = emitted[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{workload} trace={trace}: {m['name']} = {got}, expected unit {m['unit']}")
    if workload != "bodies" and not (last["correct"] and last["failed"] == 0):
        fail(f"{workload} trace={trace}: correct={last['correct']}, failed={last['failed']}")
    print(f"smoke: {workload} trace={trace}: ok ({last['attempted']} ops, {last['failed']} failed)")


def check_bare_directory() -> None:
    """Where only BENCHMARK.json and perfbench/ exist, the benchmark must refuse."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("smoke: bare directory refused: ok")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    unknown = {w["name"] for w in bench["workloads"]} - set(WORKLOADS)
    if unknown:
        fail(f"BENCHMARK.json names workloads the benchmark does not have: {sorted(unknown)}")
    for workload in WORKLOADS:
        check_result(workload, 0, run(workload, 0), bench["end_to_end"])
        check_result(workload, 1, run(workload, 1), bench["per_layer"])
    check_bare_directory()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
