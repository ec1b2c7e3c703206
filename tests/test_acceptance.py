"""End-to-end behavioural checklist for the package.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL`` line with the measured statistic before
asserting it.  Run ``pytest tests/test_acceptance.py -v -s`` to see the
lines for passing criteria too.  The statistical checks freeze their
seeds, so every number below is reproducible bit for bit.
"""

import random
import statistics
import time
from collections import defaultdict

from reference import at_bias

from gpislands.evolution import (breed_next_generation, crossover,
                                 evaluate_population, google_reader_strategy,
                                 initial_population, mutate,
                                 population_stats)
from gpislands.feed import (FeedEvaluator, FeedReport, default_catalog,
                            feed_fitness, feed_primitives, homogeneous_user,
                            run_feed_program)
from gpislands.harness import ExperimentConfig, run_experiment, write_rows_csv
from gpislands.localisation import BUDGET_MA, accuracy_fitness, energy_fitness
from gpislands.trees import deserialize, serialize

TOL = 1e-12
THRESHOLD = 0.9
GRID = [(i, r) for i in (5, 10) for r in (0.1, 0.2, 0.3)]


def check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def crossing_generations(result) -> list[int]:
    """First generation per iteration where any island's elite hits 0.9.

    Iterations that never get there count as the full run length, which
    can only understate an improvement, never invent one.
    """
    best = defaultdict(dict)
    for row in result.rows:
        gens = best[row.iteration]
        gens[row.generation] = max(gens.get(row.generation, 0.0),
                                   row.max_fitness)
    out = []
    for it in sorted(best):
        hit = next((g for g in sorted(best[it])
                    if best[it][g] >= THRESHOLD), None)
        out.append(result.config.generations if hit is None else hit)
    return out


def event_dip_cells(result, interval: int) -> list[bool]:
    """One truth value per (island, event): did the iteration-averaged
    mean fitness drop at the event generation relative to the one before?"""
    mean_by = defaultdict(dict)
    for row in result.rows:
        mean_by[(row.island, row.iteration)][row.generation] = row.mean_fitness
    iters = range(result.config.iterations)
    events = [g for g in range(1, result.config.generations)
              if g % interval == 0]
    cells = []
    for island in range(result.config.islands):
        for event in events:
            before = statistics.mean(
                mean_by[(island, m)][event - 1] for m in iters)
            at = statistics.mean(mean_by[(island, m)][event] for m in iters)
            cells.append(at < before)
    return cells


def test_criterion_1_formula_exactness():
    started = time.perf_counter()
    a = 40.0
    accuracy_points = [(0.0, 1.0), (a, 0.5), (1.5 * a, 0.25),
                       (2.0 * a, 0.0), (3.0 * a, 0.0)]
    ok = all(abs(accuracy_fitness((d, 0.0), (0.0, 0.0), a) - want) <= TOL
             for d, want in accuracy_points)

    energy_points = [(0.0, 1.0), (31.5, 0.5), (63.0, 0.0), (100.0, 0.0)]
    ok = ok and all(abs(energy_fitness(p) - want) <= TOL
                    for p, want in energy_points)

    feed_cases = [(10, 10, 1.0), (5, 5, 0.5), (12, 6, 0.5), (0, 0, 0.0)]
    for displayed, clicked, want in feed_cases:
        report = FeedReport(displayed=[("f", i) for i in range(displayed)],
                            clicked=[("f", i) for i in range(clicked)])
        ok = ok and abs(feed_fitness(report) - want) <= TOL

    ok = ok and abs(1400 / 22 - BUDGET_MA) <= 1.0

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    check(1, ok, f"fitness formulas exact at {TOL}; "
                 f"budget 1400/22 ≈ {BUDGET_MA:g} mA; {elapsed:.2f}s")


def test_criterion_2_operator_closure():
    started = time.perf_counter()
    prims = at_bias(feed_primitives(default_catalog()), 0.5)
    rng = random.Random("closure")
    pool = [initial_population(prims, 50, 3, rng).members[i].tree
            for i in range(50)]
    failures = 0
    for _ in range(10_000):
        child = mutate(rng.choice(pool), prims, 3, rng)
        if child.depth > 3 or deserialize(serialize(child), prims) != child:
            failures += 1
    for _ in range(10_000):
        child = crossover(rng.choice(pool), rng.choice(pool), 3, rng)
        if child.depth > 3 or deserialize(serialize(child), prims) != child:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    check(2, ok, f"20000 mutate/crossover offspring at max depth 3, "
                 f"{failures} violations; {elapsed:.1f}s")


def test_criterion_3_feed_convergence():
    started = time.perf_counter()
    catalog = default_catalog()
    prims = feed_primitives(catalog)
    user = homogeneous_user(catalog)
    strategy = google_reader_strategy()
    reached = 0
    tech_shares: list[float] = []
    other_shares: list[float] = []
    for m in range(15):
        rng = random.Random(f"c3:{m}:evo")
        evaluator = FeedEvaluator(catalog, user, random.Random(f"c3:{m}:eval"))
        pop = initial_population(prims, 5, 3, rng)
        hit = False
        for gen in range(30):
            evaluate_population(pop, evaluator)
            if population_stats(pop).max_fitness >= THRESHOLD:
                hit = True
            if gen == 10:
                for member in pop.members:
                    report = run_feed_program(member.tree, catalog)
                    groups = report.displayed_by_group(catalog)
                    shown = max(1, len(report.displayed))
                    tech_shares.append(groups["tech"] / shown)
                    other_shares.append(groups["other"] / shown)
            if gen < 29:
                pop = breed_next_generation(pop, strategy, prims, 3, rng)
        reached += hit
    tech, other = statistics.mean(tech_shares), statistics.mean(other_shares)
    elapsed = time.perf_counter() - started
    ok = reached >= 13 and tech > other and elapsed < 120.0
    check(3, ok, f"elite ≥ {THRESHOLD} within 30 generations in {reached}/15 "
                 f"iterations; generation-10 tech share {tech:.2f} vs other "
                 f"{other:.2f}; {elapsed:.1f}s")


def test_criterion_4_island_speedup():
    started = time.perf_counter()
    baseline = run_experiment(ExperimentConfig(
        app="feed", islands=1, mode="none", seed="c4:base"))
    base_mean = statistics.mean(crossing_generations(baseline))
    treatment_means = {}
    for interval, rate in GRID:
        result = run_experiment(ExperimentConfig(
            app="feed", interval=interval, rate=rate,
            seed=f"c4:i{interval}r{rate}"))
        treatment_means[(interval, rate)] = statistics.mean(
            crossing_generations(result))
    all_earlier = all(t < base_mean for t in treatment_means.values())
    best = min(treatment_means.values())
    ratio = 1.0 - best / base_mean
    elapsed = time.perf_counter() - started
    ok = all_earlier and ratio >= 0.3 and elapsed < 600.0
    check(4, ok, f"two islands cross {THRESHOLD} earlier than standalone in "
                 f"{sum(t < base_mean for t in treatment_means.values())}/6 "
                 f"configurations (baseline mean {base_mean:.2f}, best "
                 f"{best:.2f}); best improvement {ratio:.2f}; {elapsed:.0f}s")


def test_criterion_5_post_migration_dip():
    cells: list[bool] = []
    for interval, rate in GRID:
        result = run_experiment(ExperimentConfig(
            app="feed", landscape="hetero", interval=interval, rate=rate,
            seed=f"c4:i{interval}r{rate}"))
        cells.extend(event_dip_cells(result, interval))
    dips = sum(cells)
    ok = dips > len(cells) / 2
    check(5, ok, f"island mean fitness drops at the migration generation in "
                 f"{dips}/{len(cells)} (island, event) cells under the "
                 f"mixed-taste user model")


def test_criterion_6_total_loss_equivalence():
    started = time.perf_counter()
    silent = run_experiment(ExperimentConfig(app="feed", mode="none",
                                             seed="c6"))
    lossy = run_experiment(ExperimentConfig(app="feed", mode="migrate",
                                            loss=1.0, seed="c6"))
    stripped_silent = [r._replace(emigrants_sent=0) for r in silent.rows]
    stripped_lossy = [r._replace(emigrants_sent=0) for r in lossy.rows]
    sent = sum(r.emigrants_sent for r in lossy.rows)
    admitted = sum(r.immigrants_admitted for r in lossy.rows)
    elapsed = time.perf_counter() - started
    ok = (stripped_silent == stripped_lossy and sent > 0 and admitted == 0
          and elapsed < 60.0)
    check(6, ok, f"loss probability 1.0 reproduces the no-migration "
                 f"trajectories exactly (every column but the send counter; "
                 f"{sent} sends, {admitted} deliveries); {elapsed:.1f}s")


def test_criterion_7_helper_ablation():
    started = time.perf_counter()
    elite_at = {}
    for helper in (False, True):
        result = run_experiment(ExperimentConfig(
            app="localisation", islands=1, capacity=12, generations=2,
            mode="none", helper=helper, seed=f"c7:h{int(helper)}"))
        per_iteration = defaultdict(dict)
        for row in result.rows:
            per_iteration[row.iteration][row.generation] = row.max_fitness
        elite_at[helper] = per_iteration
    blind_zero = sum(1 for gens in elite_at[False].values()
                     if gens[0] == 0.0 and gens[1] == 0.0)
    guided_nonzero = sum(1 for gens in elite_at[True].values()
                         if gens[0] > 0.0)
    elapsed = time.perf_counter() - started
    ok = blind_zero >= 8 and guided_nonzero >= 8 and elapsed < 300.0
    check(7, ok, f"without the guard the elite stays at 0 through the first "
                 f"two generations in {blind_zero}/15 iterations; with it "
                 f"generation 0 already scores in {guided_nonzero}/15; "
                 f"{elapsed:.0f}s")


def test_criterion_8_random_injection():
    result = run_experiment(ExperimentConfig(
        app="localisation", interval=5, rate=0.3, mode="random", seed="c8"))
    events = {5, 10, 15}
    counts_exact = all(
        row.immigrants_admitted == (3 if row.generation in events else 0)
        for row in result.rows)
    cells = event_dip_cells(result, 5)
    dips = sum(cells)
    ok = counts_exact and dips > len(cells) / 2
    check(8, ok, f"exactly 3 random arrivals at every injection generation "
                 f"({'yes' if counts_exact else 'no'}); mean fitness dips in "
                 f"{dips}/{len(cells)} (island, event) cells")


def test_criterion_9_rerun_byte_identical(tmp_path):
    configs = [
        ExperimentConfig(app="feed", landscape="hetero", iterations=3,
                         generations=8, interval=2, rate=0.2, seed="c9"),
        ExperimentConfig(app="localisation", islands=2, capacity=6,
                         iterations=2, generations=6, interval=3, rate=0.5,
                         mode="random", seed="c9"),
    ]
    ok = True
    for n, config in enumerate(configs):
        first, second = tmp_path / f"a{n}.csv", tmp_path / f"b{n}.csv"
        write_rows_csv(run_experiment(config), str(first))
        write_rows_csv(run_experiment(config), str(second))
        ok = ok and first.read_bytes() == second.read_bytes()
    check(9, ok, "reruns with the same config and seed write byte-identical "
                 "CSV for both applications")
