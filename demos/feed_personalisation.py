"""Evolve a news-screen scorer for a reader who only clicks tech items.

One island, five programs, the small elitist strategy: watch the population
discover that scoring the technology feeds above everything else fills the
screen with articles the simulated reader actually opens.  Every number here
is reproducible — pass a different --seed to watch a different run.
"""

import argparse
import random

from gpislands.evolution import (breed_next_generation, evaluate_population,
                                 google_reader_strategy, initial_population,
                                 n_best)
from gpislands.feed import (FeedEvaluator, default_catalog, feed_primitives,
                            homogeneous_user, run_feed_program)
from gpislands.trees import serialize


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="demo")
    parser.add_argument("--generations", type=int, default=30)
    args = parser.parse_args()

    catalog = default_catalog()
    prims = feed_primitives(catalog)
    user = homogeneous_user(catalog)
    rng = random.Random(f"{args.seed}:evo")
    evaluator = FeedEvaluator(catalog, user, random.Random(f"{args.seed}:eval"))

    print("Feeds on offer:")
    for feed in catalog.feeds:
        print(f"  {feed.feed_id:<15} ({feed.group}, "
              f"click probability {user.probability(feed.feed_id):.1f})")
    print()

    pop = initial_population(prims, 5, 3, rng)
    strategy = google_reader_strategy()
    for gen in range(args.generations):
        stats = evaluate_population(pop, evaluator)
        if gen % 5 == 0 or gen == args.generations - 1:
            elite = n_best(pop, 1)[0]
            print(f"gen {gen:>2}  best {stats.max_fitness:.2f}  "
                  f"mean {stats.mean_fitness:.2f}  {serialize(elite.tree)}")
        if gen < args.generations - 1:
            pop = breed_next_generation(pop, strategy, prims, 3, rng)

    elite = n_best(pop, 1)[0]
    report = run_feed_program(elite.tree, catalog)
    groups = report.displayed_by_group(catalog)
    print()
    print(f"The winning scorer fills the screen with {len(report.displayed)} "
          f"items: {groups['tech']} tech, {groups['other']} other.")
    shown = sorted({feed_id for feed_id, _ in report.displayed})
    print(f"Feeds it drew from: {', '.join(shown)}")


if __name__ == "__main__":
    main()
