"""Run one gpislands experiment cell in this process and report on it.

    python3 perfbench/cell.py [--spans SPANS.jsonl.gz] RESULT.json -- CLI ARGV...

The cell goes through ``gpislands.cli.main(argv)`` exactly as a user's
command line would.  ``setup_s`` runs from just before ``import gpislands``
to the first ``run_islands`` call, and ``cell_s`` from there to the return
of ``cli.main``, by which time both CSVs are written.  The cell also samples
the speed of its core (``SpeedSampler``): the times it reports leave out the
sampler's own time, and ``speed`` scales them to an uncontended core.  With
``--spans`` the cell is traced too (see ``spans.py``): its per-layer metrics
go into the result and its spans into the named file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One speed sample on an uncontended core of the machine the benchmark was
# written on (Intel Xeon, 2 vCPUs, Python 3.11.7).  It only sets the scale of
# the scaled times.
REFERENCE_S = 0.00028
SAMPLE_PERIOD_S = 0.02


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _leaf(i: int) -> float:
    return (i % 7) * 0.5


class SpeedSampler:
    """Measures how fast the core runs plain Python while the cell runs.

    On a shared host the speed a core gives one process swings by up to 2x
    within a second as other tenants come and go, and whole minutes can be
    slow.  Every ``SAMPLE_PERIOD_S`` of wall time a SIGALRM handler runs a
    fixed piece of plain Python work (calls, dict lookups, float arithmetic,
    and nothing of gpislands) between two bytecodes of the cell and times it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, signum, frame) -> None:
        begun = time.perf_counter()
        table: dict[int, float] = {}
        for i in range(1500):
            key = i & 255
            table[key] = table.get(key, 0.0) + _leaf(i)
        self.samples.append((begun, time.perf_counter() - begun))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, begin: float, end: float) -> float:
        """Seconds taken by the samples that started between ``begin`` and ``end``."""
        return sum(d for t, d in self.samples if begin <= t < end)

    def speed(self) -> float:
        """The reference duration over the mean sample: 1.0 on an uncontended core."""
        return REFERENCE_S * len(self.samples) / sum(d for _, d in self.samples)


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="where to write the JSON result")
    parser.add_argument("--spans", help="trace the cell and write its spans here")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the gpislands argv")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(SRC))
    sampler = SpeedSampler()
    sampler.start()

    started = time.perf_counter()
    import gpislands.cli
    from gpislands import harness

    if Path(gpislands.__file__).resolve().parent != SRC / "gpislands":
        raise RuntimeError(f"imported gpislands from {gpislands.__file__}, not {SRC}")
    tracer = None
    if args.spans:
        from spans import SAMPLE, Tracer
        tracer = Tracer()
        tracer.install()
        signal.signal(signal.SIGALRM, tracer.wrap(sampler.sample, SAMPLE))

    first: list[float] = []
    iterations: list[tuple[float, float]] = []
    run_islands = harness.run_islands

    def timed_run_islands(*a, **kw):
        begun = time.perf_counter()
        if not first:
            first.extend((begun, cpu_seconds()))
        try:
            return run_islands(*a, **kw)
        finally:
            iterations.append((begun, time.perf_counter()))

    harness.run_islands = timed_run_islands
    status = gpislands.cli.main(argv)
    ended = time.perf_counter()
    cpu_end = cpu_seconds()
    sampler.stop()
    if status != 0 or not first:
        return status or 1

    def net(begin: float, end: float) -> float:
        return end - begin - sampler.spent(begin, end)

    options = gpislands.cli.build_parser().parse_args(argv)
    summary_path = harness.summary_path_for(options.out)
    with open(options.out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    cell_s = net(first[0], ended)
    sampling_s = ended - first[0] - cell_s
    result = {
        "setup_s": net(started, first[0]),
        "cell_s": cell_s,
        "cpu_s": cpu_end - first[1] - sampling_s,
        "iteration_s": [net(begin, end) for begin, end in iterations],
        "speed": sampler.speed(),
        "rows": len(rows),
        # every member is scored once per generation, and every admitted or
        # injected arrival once more on arrival
        "evaluations": len(rows) * options.capacity
        + sum(int(row["immigrants_admitted"]) for row in rows),
        "rows_sha256": sha256(options.out),
        "summary_sha256": sha256(summary_path),
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(cell_s, result["speed"])
        tracer.write_spans(args.spans, first[0])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
