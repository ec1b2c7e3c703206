"""Experiment runner: repeated island runs and CSV output.

An :class:`ExperimentConfig` pins one experimental cell -- task, island
count, capacity, breeding strategy, migration policy, landscape and base
seed.  :func:`run_experiment` repeats it for the configured number of
iterations (seeding every island and the transport from the base seed, so
reruns are byte-identical) and yields per-generation statistics rows plus
across-iteration aggregates.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import feed as feed_app
from . import localisation as loc_app
from .evolution import (
    EvolutionStrategy,
    google_reader_strategy,
    island_strategy,
    localisation_strategy,
    strategy_from_dict,
)
from .islands import (
    GenerationStats,
    IslandSpec,
    MigrationMode,
    MigrationPolicy,
    SimulatedBroadcastBus,
    Transport,
    UdpBroadcastTransport,
    run_islands,
)
from .trees import DEPTH_CEILING, ConfigurationError, PrimitiveSet, _read_config_file

DEFAULT_MAX_DEPTH = 3

CSV_COLUMNS = [f.name for f in dataclasses.fields(GenerationStats)]


@dataclass
class ExperimentConfig:
    app: str
    islands: int = 2
    capacity: Optional[int] = None
    generations: int = 20
    iterations: int = 15
    interval: int = 5
    rate: float = 0.1
    mode: str = "migrate"
    landscape: str = "homo"
    seed: int | str = 0
    transport: str = "sim"
    loss: float = 0.0
    strategy: str = "auto"
    helper: bool = True
    max_depth: int = DEFAULT_MAX_DEPTH
    app_config: Optional[str] = None
    udp_base_port: int = 47500

    def validate(self) -> None:
        if self.app not in ("feed", "localisation"):
            raise ConfigurationError(f"unknown app {self.app!r}")
        if self.islands < 1:
            raise ConfigurationError("need at least one island")
        if self.generations < 1 or self.iterations < 1:
            raise ConfigurationError("generations and iterations must be positive")
        if self.mode not in ("migrate", "random", "none"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.landscape not in ("homo", "hetero"):
            raise ConfigurationError(f"unknown landscape {self.landscape!r}")
        if self.app == "localisation" and self.landscape != "homo":
            raise ConfigurationError(
                "the heterogeneous landscape is defined for the feed app only")
        if self.transport not in ("sim", "udp"):
            raise ConfigurationError(f"unknown transport {self.transport!r}")
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigurationError("loss probability must lie in [0, 1]")
        if self.transport == "udp" and self.loss > 0.0:
            raise ConfigurationError("--loss applies to the simulated transport only")
        if self.transport == "udp" and not (
                1 <= self.udp_base_port and self.udp_base_port + self.islands - 1 <= 65535):
            raise ConfigurationError(
                f"udp ports {self.udp_base_port}..{self.udp_base_port + self.islands - 1} "
                f"(one per island) must lie in 1..65535")
        if not 1 <= self.max_depth <= DEPTH_CEILING:
            # growing and running deeper trees would exhaust Python's stack
            raise ConfigurationError(f"max_depth must lie in 1..{DEPTH_CEILING}")

    def policy(self) -> MigrationPolicy:
        return MigrationPolicy(self.interval, self.rate, MigrationMode(self.mode))


def resolve_strategy(config: ExperimentConfig) -> EvolutionStrategy:
    """Named preset, ``auto`` (pick by task and capacity), or a JSON file.

    An island's size is its strategy's total.  ``gr``, ``localisation`` and
    a file state their own; ``island``, and ``auto`` when it picks it, use
    the capacity, 10 when none is given.  A given capacity must equal the
    total.
    """
    name, capacity = config.strategy, config.capacity
    if name == "auto":
        if config.app == "feed" and capacity == 5:
            name = "gr"
        elif config.app == "localisation" and capacity == 12:
            name = "localisation"
        else:
            name = "island"
    if name == "gr":
        strategy = google_reader_strategy()
    elif name == "localisation":
        strategy = localisation_strategy()
    elif name == "island":
        strategy = island_strategy() if capacity is None else island_strategy(capacity)
    elif os.path.exists(name):
        strategy = strategy_from_dict(_read_config_file(name, "strategy"))
    else:
        raise ConfigurationError(f"unknown strategy {name!r} (not a preset or a file)")
    if capacity is not None and strategy.total() != capacity:
        raise ConfigurationError(f"strategy produces {strategy.total()} members per "
                                 f"generation; pass --capacity {strategy.total()}")
    return strategy


def _task_setup(config: ExperimentConfig) -> tuple[PrimitiveSet, Callable]:
    """The task's vocabulary, and a factory of each island's evaluator."""
    if config.app == "feed":
        if config.app_config:
            catalog, base_user = feed_app.load_feed_config(config.app_config)
        else:
            catalog, base_user = feed_app.default_catalog(), None

        def make_feed_evaluator(island: int, seed: str):
            if base_user is not None and config.landscape == "homo":
                user = base_user
            else:
                user = feed_app.landscape_user(catalog, config.landscape, island)
            return feed_app.FeedEvaluator(catalog, user, random.Random(f"{seed}:eval"))

        prims, make_evaluator = feed_app.feed_primitives(catalog), make_feed_evaluator
    else:
        world_config = (loc_app.load_world_config(config.app_config)
                        if config.app_config else loc_app.WorldConfig())

        def make_loc_evaluator(island: int, seed: str):
            return loc_app.LocalisationEvaluator(world_config, random.Random(f"{seed}:eval"))

        prims, make_evaluator = loc_app.localisation_primitives(), make_loc_evaluator
    if not config.helper:
        prims = dataclasses.replace(prims, helper=None)
    return prims, make_evaluator


@dataclass(frozen=True)
class SummaryRow:
    """Across-iteration aggregates for one (generation, island) cell."""

    generation: int
    island: int
    max_fitness_mean: float
    max_fitness_sd: float
    max_fitness_se: float
    mean_fitness_mean: float
    mean_fitness_sd: float
    mean_fitness_se: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[GenerationStats]
    summary: list[SummaryRow]


def _summarize(config: ExperimentConfig, rows: Sequence[GenerationStats]) -> list[SummaryRow]:
    """Mean, standard deviation and standard error of the max and mean
    fitness over the iterations, for each (generation, island) cell in
    order.  ``rows`` must hold ``config.iterations`` rows for every cell.

    The rows are laid out as one C-contiguous ``(cells, iterations)`` array
    per statistic, each cell's row holding its values in row order, and
    reduced along the iterations in one numpy call per figure.  numpy sums
    each contiguous row pairwise exactly as it sums a lone array of it, so
    every figure keeps the bits of summarizing the cell on its own.
    """
    cells = [(generation, island) for generation in range(config.generations)
             for island in range(config.islands)]
    n = config.iterations
    ordered = sorted(rows, key=lambda r: (r.generation, r.island))  # stable: row order kept
    if [(r.generation, r.island) for r in ordered] != [cell for cell in cells for _ in range(n)]:
        raise ValueError(f"the rows do not hold {n} iterations of each of the "
                         f"{config.generations} generations x {config.islands} islands")
    ddof = 1 if n > 1 else 0
    figures = []
    for column in ("max_fitness", "mean_fitness"):
        grid = np.array([getattr(r, column) for r in ordered]).reshape(len(cells), n)
        sd = grid.std(axis=1, ddof=ddof)
        figures.append((grid.mean(axis=1).tolist(), sd.tolist(), (sd / np.sqrt(n)).tolist()))
    (max_mean, max_sd, max_se), (mean_mean, mean_sd, mean_se) = figures
    return [SummaryRow(generation, island, max_mean[k], max_sd[k], max_se[k],
                       mean_mean[k], mean_sd[k], mean_se[k])
            for k, (generation, island) in enumerate(cells)]


def _transports(config: ExperimentConfig, iteration: int) -> list[Transport]:
    """One transport per island: a simulated bus's endpoints, seeded from the
    base seed and the iteration, or bound UDP sockets; if any bind fails, the
    sockets already bound are closed before the error propagates."""
    if config.transport == "sim":
        bus = SimulatedBroadcastBus(config.loss, f"{config.seed}:it{iteration}")
        return [bus.register() for _ in range(config.islands)]
    ports = [config.udp_base_port + k for k in range(config.islands)]
    transports: list[Transport] = []
    try:
        for port in ports:
            transports.append(UdpBroadcastTransport(
                bind_port=port,
                peers=[("127.0.0.1", other) for other in ports if other != port]))
    except (OSError, OverflowError):  # OverflowError: a port outside 0..65535
        for transport in transports:
            transport.close()
        raise
    return transports


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every iteration of the configured cell and aggregate the rows."""
    config.validate()
    strategy = resolve_strategy(config)
    prims, make_evaluator = _task_setup(config)
    policy = config.policy()
    rows: list[GenerationStats] = []
    for iteration in range(config.iterations):
        specs = []
        for island in range(config.islands):
            seed = f"{config.seed}:it{iteration}:is{island}"
            specs.append(IslandSpec(
                strategy=strategy,
                evaluator=make_evaluator(island, seed),
                seed=seed,
            ))
        transports = _transports(config, iteration)
        try:
            history = run_islands(specs, prims, config.max_depth, policy,
                                  config.generations, transports, iteration=iteration)
        finally:
            for transport in transports:
                transport.close()
        for island_rows in history:
            rows.extend(island_rows)
    rows.sort(key=lambda r: (r.iteration, r.generation, r.island))
    return ExperimentResult(config, rows, _summarize(config, rows))


# ---------------------------------------------------------------------------
# CSV output

def _write_csv(path: str, columns: Sequence[str], rows: Sequence) -> None:
    """A header of ``columns``, then each row's attributes of those names."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([getattr(row, column) for column in columns])


def write_rows_csv(result: ExperimentResult, path: str) -> None:
    _write_csv(path, CSV_COLUMNS, result.rows)


def summary_path_for(path: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_summary{ext or '.csv'}"


def write_summary_csv(result: ExperimentResult, path: str) -> None:
    _write_csv(path, [f.name for f in dataclasses.fields(SummaryRow)], result.summary)

