"""Benchmark for gpislands: time one workload's experiment cell, end to end.

    python3 perfbench/run.py --workload feed-hetero --seed 1 --seconds 40 --trace 0

A workload is one ``gpislands`` command line.  Every cell is one fresh
process (``cell.py``) that runs it through ``gpislands.cli.main``, one at a
time and single-threaded.  Cells repeat until ``--seconds`` is used up (at
least ``MIN_CELLS``), and each metric is the median over the run's cells.

Every cell runs at its workload's pinned experiment seed, and the SHA-256
of its rows CSV and summary CSV must equal the digests pinned below; any
other outcome fails the cell.  The experiment seed is not taken from
``--seed`` because the cost of a cell depends on it: on ``deep-lossy`` one
iteration takes from 3 s to 11 s depending on the seed, as the deep trees
bloat or collapse, so a varied experiment seed would measure the seed and
not the code.  ``--seed`` sets ``PYTHONHASHSEED`` of the cell processes
instead: it changes the string hashes, dict layouts and memory placement
the program runs with, none of which may change its output.

``--trace 0`` prints the end-to-end metrics, with every time scaled by the
speed of the core during its cell (``SpeedSampler`` in ``cell.py``).
``--trace 1`` alternates untraced and traced cells and prints the per-layer
metrics of the traced ones (see ``spans.py``), plus the tracing overhead.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object; the exit status is 0 only when every
cell was correct.  A record of each run, with the environment it ran in,
goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_CELLS = 3
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    iterations: int
    seed: str
    rows_sha256: str
    summary_sha256: str


# Why each workload was chosen is in README.md; the same reasons, shortened,
# are the "why" of each workload in BENCHMARK.json.  The experiment seed is
# the CLI default except on deep-lossy, where seed 0 never exceeds the step
# budget and seed 1 is the first seed with supervisor kills.
WORKLOADS = {
    "feed-hetero": Workload(
        ("--app", "feed", "--landscape", "hetero", "--islands", "8", "--capacity", "10",
         "--generations", "30", "--interval", "5", "--rate", "0.2", "--mode", "migrate"),
        iterations=4, seed="0",
        rows_sha256="b3b6e84129cdf92691eee13ede94cdd3b537f199489d79ae7b476ead4c0f5caa",
        summary_sha256="102a302512d332f4a4aa50d0105477d7e24f5adbed73460cba93fd965debf814"),
    "loc-random": Workload(
        ("--app", "localisation", "--mode", "random", "--islands", "2", "--capacity", "12",
         "--generations", "20", "--interval", "5", "--rate", "0.1"),
        iterations=3, seed="0",
        rows_sha256="78a4fa0bf914dd60c3b5e65a2e04270890def4d2bbd0ec5d8da08bddb5f20951",
        summary_sha256="27288c047c3e37f9268c430da8f616f6a71565c7e8340637221f8851851b23e7"),
    "deep-lossy": Workload(
        ("--app", "feed", "--islands", "4", "--capacity", "10", "--generations", "30",
         "--interval", "1", "--rate", "0.5", "--loss", "0.5", "--max-depth", "9"),
        iterations=1, seed="1",
        rows_sha256="7e2e4feafaf88c98247dea7a4e8e8dd863d1caa488ceeacfaca359484f05e97c",
        summary_sha256="116e9a873540f34ef35d3ae2a27cfb603186bf1eafd0fb0ca84778c5e683bd61"),
}


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256() -> str:
    """One digest over the package sources, for checkouts that are not repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs the cells of one benchmark run and keeps their results."""

    def __init__(self, name: str, seed: int, deadline: float) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.deadline = deadline
        self.dir = WORK / "work" / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.cells: list[dict] = []

    def warm_up(self) -> None:
        """Compile the package's bytecode and load it once, so no cell pays for it."""
        code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gpislands.cli"
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)

    def cell(self, traced: bool) -> dict:
        result_path = self.dir / "cell.json"
        rows_path = self.dir / "rows.csv"
        spans_path = self.dir / "spans.jsonl.gz"
        for path in (result_path, rows_path):
            path.unlink(missing_ok=True)
        w = self.workload
        argv = [*w.argv, "--iterations", str(w.iterations), "--seed", w.seed,
                "--out", str(rows_path)]
        cmd = [sys.executable, str(HERE / "cell.py")]
        if traced:
            cmd += ["--spans", str(spans_path)]
        cmd.append(str(result_path))
        record = {"traced": traced, "loadavg_before": loadavg()}
        began = time.perf_counter()
        try:
            proc = subprocess.run(cmd + ["--", *argv], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(5.0, self.deadline - time.perf_counter()))
            record["exit"] = proc.returncode
            failure = None if proc.returncode == 0 else (
                f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        except subprocess.TimeoutExpired:
            record["exit"] = None
            failure = "timed out"
        record["wall_s"] = time.perf_counter() - began
        record["loadavg_after"] = loadavg()
        if failure is None:
            record.update(json.loads(result_path.read_text(encoding="utf-8")))
            failure = self.check(record)
        record["failure"] = failure
        self.cells.append(record)
        if failure:
            print(f"{self.name}: cell {len(self.cells)} failed: {failure}", file=sys.stderr)
        return record

    def check(self, record: dict) -> str | None:
        w = self.workload
        if (record["rows_sha256"], record["summary_sha256"]) != (w.rows_sha256,
                                                                 w.summary_sha256):
            return (f"digests differ from the pinned ones: rows {record['rows_sha256']}, "
                    f"summary {record['summary_sha256']}")
        layers = record.get("layers")
        if layers is not None and layers["evolution.evaluations"] != record["evaluations"]:
            return (f"traced cell counted {layers['evolution.evaluations']} evaluations, "
                    f"the rows imply {record['evaluations']}")
        return None

    def good(self, traced: bool) -> list[dict]:
        return [c for c in self.cells if c["traced"] == traced and not c["failure"]]


def fits(seconds: float, started: float, next_wall: float) -> bool:
    """Whether one more cell taking ``next_wall`` s still ends within ``seconds``."""
    return time.perf_counter() - started + next_wall <= seconds


def end_to_end(cells: list[dict]) -> tuple[dict[str, float], int]:
    """Medians over the cells, with every time scaled to an uncontended core."""
    iterations = [t * c["speed"] for c in cells for t in c["iteration_s"]]
    return {
        "cell_s": statistics.median(c["cell_s"] * c["speed"] for c in cells),
        "iteration_s.p50": statistics.median(iterations),
        "cpu_s": statistics.median(c["cpu_s"] * c["speed"] for c in cells),
        "evals_per_s": statistics.median(c["evaluations"] / (c["cell_s"] * c["speed"])
                                         for c in cells),
        "setup_s": statistics.median(c["setup_s"] * c["speed"] for c in cells),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in cells),
    }, len(iterations)


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    metrics = {name: statistics.median(c["layers"][name] for c in traced)
               for name in traced[0]["layers"]}
    metrics["harness.rows"] = statistics.median(c["rows"] for c in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(c["cell_s"] * c["speed"] for c in traced)
        - statistics.median(c["cell_s"] * c["speed"] for c in untraced))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="PYTHONHASHSEED of the cell processes")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to keep starting cells")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "gpislands" / "cli.py").is_file():
        print(f"error: no gpislands sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    started = time.perf_counter()
    runner = Runner(args.workload, args.seed, started + RUN_LIMIT_S)
    environment = {"commit": git_commit(), "source_sha256": source_sha256(),
                   "python": platform.python_version(),
                   "nproc": len(os.sched_getaffinity(0)), "loadavg_start": loadavg()}
    runner.warm_up()
    measuring = time.perf_counter()
    seconds = min(args.seconds, RUN_LIMIT_S - (measuring - started))
    if args.trace:
        while True:
            pair = [runner.cell(traced=False), runner.cell(traced=True)]
            if not fits(seconds, measuring, sum(c["wall_s"] for c in pair)):
                break
    else:
        while True:
            runner.cell(traced=False)
            walls = [c["wall_s"] for c in runner.good(traced=False) or runner.cells]
            if len(runner.cells) >= MIN_CELLS and not fits(
                    seconds, measuring, statistics.median(walls)):
                break
    environment["loadavg_end"] = loadavg()

    untraced, traced = runner.good(False), runner.good(True)
    metrics: dict[str, float] = {}
    if args.trace and traced and untraced:
        metrics = per_layer(traced, untraced)
    elif not args.trace and untraced:
        metrics, samples = end_to_end(untraced)
        print(f"{args.workload}: {len(untraced)} cells, {samples} run_islands calls; "
              f"unscaled medians: cell_s "
              f"{statistics.median(c['cell_s'] for c in untraced):.4f}, setup_s "
              f"{statistics.median(c['setup_s'] for c in untraced):.4f}; core speed "
              f"{statistics.median(c['speed'] for c in untraced):.3f}")
    missing = sorted(set(wanted) - set(metrics)) if metrics else []
    if missing:
        raise KeyError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    failed = sum(1 for c in runner.cells if c["failure"])
    environment["numpy"] = next((c["numpy"] for c in runner.cells if "numpy" in c), None)
    print("environment: " + json.dumps(environment, sort_keys=True))
    w = runner.workload
    print(f"{args.workload}: rows sha256 {w.rows_sha256}, summary sha256 "
          f"{w.summary_sha256} at seed {w.seed!r}; failed_frac "
          f"{failed / len(runner.cells):.4f}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment,
              "metrics": metrics, "cells": runner.cells}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runner.cells),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items() if name in metrics},
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
