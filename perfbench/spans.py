"""Span tracing for one gpislands cell, installed from outside the package.

Each public function is wrapped where the calling module looks it up, so a
call from ``gpislands.islands`` to ``deserialize`` goes through the wrapper
while ``gpislands.trees`` keeps its own unwrapped names.  That matters for
the self-recursive helpers (``tree_size``, ``tree_depth``, ``iter_nodes``,
``grow_subtree`` and ``serialize``): their recursion looks up the
module-level name in ``gpislands.trees``, so wrapping them there would turn
every inner call into a span.

Spans are kept in memory as ``[name, start, end, parent, run]`` lists and
written out once the cell has finished.  ``run`` is the index of the
``run_islands`` call (one per iteration) that caused the span, or -1 for the
aggregation and CSV writing that follow the last iteration.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  A module attribute is replaced in that
# module only; the call sites listed here are the ones the package uses.
MODULE_WRAPS = [
    ("gpislands.feed", "execute", "interpreter.execute"),
    ("gpislands.localisation", "execute", "interpreter.execute"),
    ("gpislands.feed", "run_feed_program", "feed.run_feed_program"),
    ("gpislands.feed", "simulate_clicks", "feed.simulate_clicks"),
    ("gpislands.localisation", "evaluate_localisation",
     "localisation.evaluate_localisation"),
    ("gpislands.islands", "serialize", "trees.serialize"),
    ("gpislands.islands", "deserialize", "trees.deserialize"),
    ("gpislands.trees", "validate_tree", "trees.validate_tree"),
    ("gpislands.islands", "build_random_tree", "trees.build_random_tree"),
    ("gpislands.evolution", "build_random_tree", "trees.build_random_tree"),
    ("gpislands.islands", "initial_population", "evolution.initial_population"),
    ("gpislands.islands", "breed_next_generation", "evolution.breed_next_generation"),
    ("gpislands.islands", "evaluate_population", "evolution.evaluate_population"),
    ("gpislands.islands", "evaluate_new_members", "evolution.evaluate_new_members"),
    ("gpislands.evolution", "mutate", "evolution.mutate"),
    ("gpislands.evolution", "crossover", "evolution.crossover"),
    ("gpislands.islands", "select_emigrants", "islands.select_emigrants"),
    ("gpislands.islands", "admit_immigrants", "islands.admit_immigrants"),
    ("gpislands.islands", "inject_random", "islands.inject_random"),
    ("gpislands.harness", "run_islands", "islands.run_islands"),
    ("gpislands.harness", "_summarize", "harness.summarize"),
    ("gpislands.cli", "write_rows_csv", "harness.write_rows_csv"),
    ("gpislands.cli", "write_summary_csv", "harness.write_summary_csv"),
]

# Span name of the core-speed samples (``cell.SpeedSampler``).  They are not
# program work: their time is taken out of every span they interrupted.
SAMPLE = "perfbench.sample"

SPAN_NAMES = sorted({name for _, _, name in MODULE_WRAPS}
                    | {"trees.from_tree", "localisation.World.init"})

COUNTERS = ["evaluations", "eval_errors", "nodes", "kills", "crossover_fallbacks",
            "helper_rejections", "admitted", "malformed", "wire_bytes"]


class Tracer:
    """Records nested spans and boundary counters for one cell."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.run = -1
        self._runs = 0
        self._stack = [-1]
        self._buses: list = []
        self._bus_islands: list[int] = []

    def wrap(self, fn, name, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], self.run]
            # append before pushing, so that a sample taken in between cannot
            # claim this span's index
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    # -- boundary counters, read from what each wrapped call returned --

    def _on_execute(self, outcome, args) -> None:
        self.counts["nodes"] += outcome.steps_used
        self.counts["kills"] += outcome.killed

    def _on_crossover(self, child, args) -> None:
        self.counts["crossover_fallbacks"] += child is args[0]

    def _on_population(self, pop, args) -> None:
        self.counts["helper_rejections"] += pop.helper_rejections

    def _on_admission(self, report, args) -> None:
        self.counts["admitted"] += report.admitted
        self.counts["malformed"] += report.dropped

    def _on_emigrants(self, envelopes, args) -> None:
        self.counts["wire_bytes"] += sum(len(e.encode()) for e in envelopes)

    def install(self) -> None:
        """Replace the call sites in the imported gpislands modules."""
        from gpislands import feed, islands, localisation, trees

        hooks = {
            "interpreter.execute": self._on_execute,
            "evolution.crossover": self._on_crossover,
            "evolution.initial_population": self._on_population,
            "evolution.breed_next_generation": self._on_population,
            "islands.admit_immigrants": self._on_admission,
            "islands.select_emigrants": self._on_emigrants,
        }
        for module_name, attr, name in MODULE_WRAPS:
            module = importlib.import_module(module_name)
            wrapped = self.wrap(getattr(module, attr), name, hooks.get(name))
            if name == "islands.run_islands":
                wrapped = self._run_scope(wrapped)
            setattr(module, attr, wrapped)

        from_tree = trees.Individual.__dict__["from_tree"].__func__
        trees.Individual.from_tree = classmethod(self.wrap(from_tree, "trees.from_tree"))
        localisation.World.__init__ = self.wrap(localisation.World.__init__,
                                                "localisation.World.init")
        for evaluator in (feed.FeedEvaluator, localisation.LocalisationEvaluator):
            evaluator.__call__ = self._count_evaluations(evaluator.__call__)
        bus_init = islands.SimulatedBroadcastBus.__init__

        def record_bus(bus, *args, **kwargs):
            bus_init(bus, *args, **kwargs)
            self._buses.append(bus)

        islands.SimulatedBroadcastBus.__init__ = record_bus

    def _run_scope(self, run_islands):
        """Tag spans with the iteration and note each bus's island count."""

        def scoped(specs, *args, **kwargs):
            self.run = self._runs
            self._runs += 1
            try:
                return run_islands(specs, *args, **kwargs)
            finally:
                self.run = -1
                new_buses = len(self._buses) - len(self._bus_islands)
                self._bus_islands.extend([len(specs)] * new_buses)

        return scoped

    def _count_evaluations(self, call):
        counts = self.counts

        def counted(evaluator, member):
            counts["evaluations"] += 1
            try:
                return call(evaluator, member)
            except Exception:
                counts["eval_errors"] += 1
                raise

        return counted

    # -- results --

    def metrics(self, interval: float, speed: float) -> dict[str, float]:
        """Per-layer metrics for a cell whose net measured interval was ``interval`` s.

        Times leave out the speed samples and are scaled by ``speed``, as the
        end-to-end times are.
        """
        spans = self.spans
        net = [end - start for _, start, end, _, _ in spans]
        for name, start, end, parent, _ in spans:
            if name == SAMPLE:
                while parent >= 0:
                    net[parent] -= end - start
                    parent = spans[parent][3]
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(spans)
        top_level = 0.0
        for (name, _, _, parent, _), duration in zip(spans, net):
            if name == SAMPLE:
                continue
            calls[name] += 1
            busy[name] += duration * speed
            if parent < 0:
                top_level += duration
            else:
                covered[parent] += duration
        for (name, _, _, _, _), duration, child in zip(spans, net, covered):
            if name != SAMPLE:
                self_s[name] += (duration - child) * speed

        c = self.counts
        sent = sum(bus.sent for bus in self._buses)
        lost = sum(bus.dropped for bus in self._buses)
        offered = sum(bus.sent * (n - 1) for bus, n in zip(self._buses, self._bus_islands))
        execute = "interpreter.execute"
        crossovers = calls["evolution.crossover"]
        m = {
            "interpreter.nodes": c["nodes"],
            "interpreter.nodes_per_s": c["nodes"] / busy[execute] if busy[execute] else 0.0,
            "interpreter.kills": c["kills"],
            "interpreter.kill_frac": c["kills"] / calls[execute] if calls[execute] else 0.0,
            "evolution.evaluations": c["evaluations"],
            "evolution.eval_errors": c["eval_errors"],
            "evolution.crossover.fallback_frac":
                c["crossover_fallbacks"] / crossovers if crossovers else 0.0,
            "evolution.helper_rejections": c["helper_rejections"],
            "islands.admitted": c["admitted"],
            "islands.malformed": c["malformed"],
            "islands.bus.sent": sent,
            "islands.bus.lost": lost,
            "islands.bus.delivery_frac": (offered - lost) / offered if offered else 0.0,
            "islands.wire_bytes": c["wire_bytes"],
            "trace.uncovered_frac": 1.0 - top_level / interval,
        }
        for name in SPAN_NAMES:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.busy_s"] = busy[name]
            m[f"{name}.self_s"] = self_s[name]
        return m

    def write_spans(self, path: str, origin: float) -> None:
        """One JSON object per span, times in seconds from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "run": run}) + "\n")
