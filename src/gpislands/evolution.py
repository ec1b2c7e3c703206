"""Generational evolution over typed trees.

A population breeds through a declarative :class:`EvolutionStrategy`: an
ordered list of steps, each binding a named roulette-wheel selector to one of
the four operators (COPY, MUTATION, CROSSOVER, RANDOM) with a count.  The
step counts add up to the population's size: the strategy alone states it,
and every breed conserves it.

The vocabulary's helper (``PrimitiveSet.helper``) screens every tree grown
or bred here; rejected candidates are rebuilt (with freshly drawn parents)
up to :data:`REBUILD_ATTEMPTS` times, after which the last is admitted
anyway so breeding can never stall.  Rejections count into the statistics.

Breeding does each piece of work once.  The population does not change while
it breeds, so a breed ranks its members at most once, and only if some
selector keeps a ``pool_best``: each such pool is a prefix of that one
ranking.  The running fitness sums of each selector's :class:`Wheel` are
built once per breed, and every pick is one spin: one draw and one
bisection.  Mutation and crossover walk to a point once
(:func:`~gpislands.trees.node_at`) and graft along that walk's path.
Crossover draws its donor from ``b`` by preorder index when every node of
``b`` has ``b``'s sort.  Every operator draws the same numbers in the same
order as the textbook operators, which list every node.
"""

from __future__ import annotations

import enum
import logging
import math
import random
from bisect import bisect_right
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Optional, Sequence

from .trees import (
    ConfigurationError,
    Individual,
    Origin,
    PrimitiveSet,
    ProgramTree,
    Sort,
    build_random_tree,
    grow_subtree,
    iter_nodes,
    node_at,
    replace_subtree,
)

log = logging.getLogger(__name__)

#: Point pairs a crossover draws before it falls back to the first parent.
CROSSOVER_RETRIES = 16
#: Rebuilds a helper may ask for before its last candidate is admitted anyway.
REBUILD_ATTEMPTS = 64

FitnessFn = Callable[[Individual], float]


class Operator(enum.Enum):
    COPY = "COPY"
    MUTATION = "MUTATION"
    CROSSOVER = "CROSSOVER"
    RANDOM = "RANDOM"


@dataclass
class Population:
    members: list[Individual]
    _: KW_ONLY
    helper_rejections: int = 0
    guard_fallbacks: int = 0


@dataclass(frozen=True)
class SelectorBinding:
    """A selector: a roulette wheel over the pool's fitness values.  Its key
    in :attr:`EvolutionStrategy.selectors` names it.

    ``pool_best`` restricts the wheel to the n fittest members (all of
    them, when the population holds fewer); ``None`` spins over the whole
    population.
    """

    pool_best: Optional[int] = None

    def __post_init__(self) -> None:
        best = self.pool_best
        if best is not None and (type(best) is not int or best < 1):  # rejects bools too
            raise ConfigurationError(
                f"pool_best must be a whole number of at least 1, got {best!r}")


@dataclass(frozen=True)
class StrategyStep:
    operator: Operator
    count: int
    selector: Optional[str] = None

    def __post_init__(self) -> None:
        if type(self.count) is not int or self.count < 0:  # rejects bools too
            raise ConfigurationError(
                f"step count must be a whole number of at least 0, got {self.count!r}")


@dataclass
class EvolutionStrategy:
    """Ordered breeding steps plus the selector bindings they reference."""

    selectors: dict[str, SelectorBinding]
    steps: list[StrategyStep]

    def __post_init__(self) -> None:
        for step in self.steps:
            if step.selector is None:
                if step.operator is not Operator.RANDOM:  # the one operator without parents
                    raise ConfigurationError(f"{step.operator.value} step needs a selector")
            elif step.selector not in self.selectors:
                raise ConfigurationError(f"unknown selector {step.selector!r}")
        if self.total() < 1:
            raise ConfigurationError(
                f"strategy must produce at least 1 member per generation, got {self.total()}")

    def total(self) -> int:
        return sum(step.count for step in self.steps)


def strategy_from_dict(data: dict) -> EvolutionStrategy:
    """Build a strategy from its declarative form::

        {"selectors": {"HR": {"kind": "wheel", "pool_best": 3}},
         "steps": [{"operator": "MUTATION", "selector": "HR", "count": 3}, ...]}

    Anything a run could not use raises :class:`ConfigurationError`: besides
    malformed entries, a ``count`` or ``pool_best`` that is not a whole
    number (``true`` included) and a step, ``RANDOM`` ones included, that
    names a selector the strategy does not declare.
    """
    try:
        selectors = {}
        for name, spec in data["selectors"].items():
            if spec.get("kind", "wheel") != "wheel":  # the one kind there is
                raise ConfigurationError(f"unknown selector kind {spec['kind']!r}")
            selectors[name] = SelectorBinding(spec.get("pool_best"))
        steps = [
            StrategyStep(Operator(str(step["operator"]).upper()), step["count"],
                         step.get("selector"))
            for step in data["steps"]
        ]
        return EvolutionStrategy(selectors, steps)
    except (AttributeError, ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad strategy config: {exc}") from exc


def google_reader_strategy() -> EvolutionStrategy:
    """The five-program feed-ranking setup: one elite copy from a 1-best
    wheel, two mutations and two crossovers from a 3-best wheel."""
    return EvolutionStrategy(
        selectors={
            "HR": SelectorBinding(pool_best=3),
            "Leader": SelectorBinding(pool_best=1),
        },
        steps=[
            StrategyStep(Operator.COPY, 1, "Leader"),
            StrategyStep(Operator.MUTATION, 2, "HR"),
            StrategyStep(Operator.CROSSOVER, 2, "HR"),
        ],
    )


def localisation_strategy() -> EvolutionStrategy:
    """Twelve programs: elite, four mutations, five crossovers, two random."""
    return EvolutionStrategy(
        selectors={
            "HR": SelectorBinding(pool_best=3),
            "Leader": SelectorBinding(pool_best=1),
        },
        steps=[
            StrategyStep(Operator.COPY, 1, "Leader"),
            StrategyStep(Operator.MUTATION, 4, "HR"),
            StrategyStep(Operator.CROSSOVER, 5, "HR"),
            StrategyStep(Operator.RANDOM, 2),
        ],
    )


def island_strategy(capacity: int = 10) -> EvolutionStrategy:
    """Collaborative-run setup: elite, three mutations from a 3-best wheel,
    and crossovers over the whole breeding pool for the remainder."""
    if capacity < 5:
        raise ConfigurationError("island strategy needs capacity of at least 5")
    return EvolutionStrategy(
        selectors={
            "HR": SelectorBinding(pool_best=3),
            "Leader": SelectorBinding(pool_best=1),
            "Pool": SelectorBinding(pool_best=None),
        },
        steps=[
            StrategyStep(Operator.COPY, 1, "Leader"),
            StrategyStep(Operator.MUTATION, 3, "HR"),
            StrategyStep(Operator.CROSSOVER, capacity - 4, "Pool"),
        ],
    )


# ---------------------------------------------------------------------------
# selection

def _need_fitness(members: Sequence[Individual]) -> None:
    for m in members:
        if m.fitness is None:
            raise ValueError("selection over unevaluated members")


class Wheel:
    """A roulette wheel: a fixed pool and its running fitness sums.

    The sums are added up once, so each spin costs one draw and one
    bisection; a zero-total pool spins uniformly instead."""

    __slots__ = ("pool", "cumulative", "total")

    def __init__(self, pool: Sequence[Individual]) -> None:
        if not pool:
            raise ValueError("cannot select from an empty pool")
        total = 0.0
        cumulative = []
        for m in pool:
            fitness = m.fitness
            if fitness is None:
                raise ValueError("selection over unevaluated members")
            total += fitness
            cumulative.append(total)
        self.pool = pool
        self.cumulative = cumulative
        self.total = total

    def spin(self, rng: random.Random) -> Individual:
        """Fitness-proportionate draw; a zero-total pool degrades to uniform."""
        pool = self.pool
        if self.total <= 0.0:
            return pool[rng.randrange(len(pool))]
        return pool[bisect_right(self.cumulative, rng.random() * self.total)]


def _ranking(members: Sequence[Individual]) -> list[Individual]:
    """The scored ``members``, fittest first, in the order of ``(-fitness,
    index)``: the sort is stable, so equal fitness keeps the earlier index
    first."""
    return sorted(members, key=lambda m: -m.fitness)


def n_best(pop: Population, n: int) -> list[Individual]:
    """The ``n`` fittest members, for ``0 <= n <= len(pop.members)``; equal
    fitness keeps the earlier index first.  Any other ``n`` raises
    :class:`ValueError`."""
    if n < 0 or n > len(pop.members):
        raise ValueError(f"n_best({n}) over {len(pop.members)} members")
    _need_fitness(pop.members)
    return _ranking(pop.members)[:n]


# ---------------------------------------------------------------------------
# variation operators

def mutate(tree: ProgramTree, prims: PrimitiveSet, max_depth: int,
           rng: random.Random) -> ProgramTree:
    """Replace one uniformly chosen node with a freshly grown subtree of the
    same sort, sized so the result stays within ``max_depth``."""
    node, path = node_at(tree, rng.randrange(tree.size))
    replacement = grow_subtree(prims, node.kind.result_sort, max(1, max_depth - len(path)), rng)
    return replace_subtree(path, replacement)


def crossover(a: ProgramTree, b: ProgramTree, max_depth: int,
              rng: random.Random) -> ProgramTree:
    """Graft a sort-compatible subtree of ``b`` onto a copy of ``a``.

    Retries a bounded number of times when the picked pair is incompatible or
    would blow the depth limit; falls back to ``a`` itself (trees are
    immutable, so sharing it is a free copy).  Each point drawn on ``a`` is
    walked to once, and a donor that fits is grafted along that walk's path.
    When every node of ``b`` has its root's sort (``b.uniform``), the donor
    is the node at a drawn preorder index of ``b``, and a point of any other
    sort has no donor; otherwise the donor is drawn from ``b``'s nodes of
    the point's sort, listed from its preorder walk once per sort.  Either
    way the draws and the donor are the same.
    """
    uniform = b.uniform
    donors_by_sort: dict[Sort, list[ProgramTree]] = {}
    for _ in range(CROSSOVER_RETRIES):
        target, path = node_at(a, rng.randrange(a.size))
        sort = target.kind.result_sort
        if uniform:
            if sort is not b.kind.result_sort:
                continue
            donor = node_at(b, rng.randrange(b.size))[0]
        else:
            donors = donors_by_sort.get(sort)
            if donors is None:
                donors = donors_by_sort[sort] = [
                    node for node, _ in iter_nodes(b) if node.kind.result_sort is sort]
            if not donors:
                continue
            donor = donors[rng.randrange(len(donors))]
        if len(path) + donor.depth <= max_depth:
            return replace_subtree(path, donor)
    return a


# ---------------------------------------------------------------------------
# breeding and evaluation

def _build_guarded(make: Callable[[], ProgramTree], prims: PrimitiveSet,
                   new: Population) -> ProgramTree:
    """A tree from ``make`` that the vocabulary's helper accepts, drafting
    again up to :data:`REBUILD_ATTEMPTS` times; each rejected draft and each
    last draft kept unaccepted counts on ``new``, the population it joins."""
    helper = prims.helper
    if helper is None:
        return make()
    candidate = make()
    for _ in range(REBUILD_ATTEMPTS):
        if helper(candidate):
            return candidate
        new.helper_rejections += 1
        candidate = make()
    new.guard_fallbacks += 1
    return candidate


def _guarded_random_tree(prims: PrimitiveSet, max_depth: int, rng: random.Random,
                         new: Population) -> ProgramTree:
    return _build_guarded(lambda: build_random_tree(prims, max_depth, rng), prims, new)


def initial_population(prims: PrimitiveSet, size: int, max_depth: int,
                       rng: random.Random) -> Population:
    """Generation 0: ``size`` fresh random programs, helper-screened."""
    new = Population([])
    for _ in range(size):
        new.members.append(Individual.from_tree(_guarded_random_tree(prims, max_depth, rng, new)))
    return new


def breed_next_generation(pop: Population, strategy: EvolutionStrategy, prims: PrimitiveSet,
                          max_depth: int, rng: random.Random) -> Population:
    """Produce the next generation by running the strategy steps in order.

    The source population may hold more members than the strategy's total
    (appended immigrants take part in selection); the new population has
    exactly ``strategy.total()`` members.  Each selector's wheel is built
    when a step first picks from it, and spun for every later pick of the
    breed.  The members are ranked when the first ``pool_best`` wheel is
    built, and never again.
    """
    _need_fitness(pop.members)
    new = Population([])
    members = new.members
    wheels: dict[str, Wheel] = {}
    ranking: Optional[list[Individual]] = None
    for step in strategy.steps:
        if step.operator is Operator.RANDOM:
            for _ in range(step.count):
                tree = _guarded_random_tree(prims, max_depth, rng, new)
                members.append(Individual.from_tree(tree, Origin.RANDOM_INJECTED))
            continue
        if not step.count:
            continue
        # the pool cannot change while the population breeds
        wheel = wheels.get(step.selector)
        if wheel is None:
            best = strategy.selectors[step.selector].pool_best
            if best is None:
                pool = pop.members
            else:
                if ranking is None:
                    ranking = _ranking(pop.members)
                pool = ranking[:best]
            wheel = wheels[step.selector] = Wheel(pool)
        spin = wheel.spin
        for _ in range(step.count):
            if step.operator is Operator.COPY:
                src = spin(rng)
                members.append(Individual.from_tree(src.tree, Origin.ELITE_COPY, src.fitness))
            elif step.operator is Operator.MUTATION:
                def make_mutant() -> ProgramTree:
                    return mutate(spin(rng).tree, prims, max_depth, rng)
                members.append(Individual.from_tree(_build_guarded(make_mutant, prims, new)))
            else:  # CROSSOVER
                def make_child() -> ProgramTree:
                    first = spin(rng)
                    second = spin(rng)
                    return crossover(first.tree, second.tree, max_depth, rng)
                members.append(Individual.from_tree(_build_guarded(make_child, prims, new)))
    return new


@dataclass(frozen=True)
class EvalStats:
    max_fitness: float
    mean_fitness: float
    mean_size: float
    mean_depth: float


def _safe_fitness(evaluator: FitnessFn, member: Individual) -> float:
    try:
        value = float(evaluator(member))
    except ConfigurationError:
        raise
    except Exception:
        log.exception("evaluator failed; assigning fitness 0")
        return 0.0
    if math.isnan(value):
        return 0.0
    return min(1.0, max(0.0, value))


def population_stats(pop: Population) -> EvalStats:
    """The generation's fitness, size and depth figures, in one pass over
    the members.  The maximum is the first of the highest fitnesses, as
    ``max`` keeps it.  Fitnesses are added left to right from ``0``: ``sum``
    over floats rounds differently from 3.12 on, and the mean reaches the
    rows.  Sizes and depths are whole numbers, so their totals are exact."""
    members = pop.members
    if not members:
        raise ValueError("statistics of an empty population")
    best = None
    total = size = depth = 0
    for m in members:
        fitness = m.fitness
        if fitness is None:
            raise ValueError("selection over unevaluated members")
        if best is None or fitness > best:
            best = fitness
        total += fitness
        tree = m.tree
        size += tree.size
        depth += tree.depth
    count = len(members)
    return EvalStats(best, total / count, size / count, depth / count)


def evaluate_population(pop: Population, evaluator: FitnessFn) -> EvalStats:
    """Score every member (elite copies are re-scored too) and summarize.

    A failing evaluator zeroes that member's fitness and never aborts the
    generation, except for a :class:`ConfigurationError` (such as a terminal
    the evaluator's bindings leave out), which propagates.
    """
    for member in pop.members:
        member.fitness = _safe_fitness(evaluator, member)
    return population_stats(pop)


def evaluate_new_members(pop: Population, evaluator: FitnessFn) -> int:
    """Score only members that have no fitness yet (late arrivals)."""
    scored = 0
    for member in pop.members:
        if member.fitness is None:
            member.fitness = _safe_fitness(evaluator, member)
            scored += 1
    return scored
