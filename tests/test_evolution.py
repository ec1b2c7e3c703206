"""Selection, variation operators, strategies and generational breeding."""
import dataclasses
import logging
import random

import pytest
from reference import (
    at_bias,
    oracle_best,
    oracle_stats,
    reference_breed,
    reference_crossover,
    reference_mutate,
)
from sized import constant, leaf

from gpislands import evolution
from gpislands.evolution import (
    REBUILD_ATTEMPTS,
    EvolutionStrategy,
    Operator,
    Population,
    SelectorBinding,
    StrategyStep,
    Wheel,
    breed_next_generation,
    evaluate_new_members,
    evaluate_population,
    google_reader_strategy,
    initial_population,
    island_strategy,
    localisation_strategy,
    mutate,
    crossover,
    n_best,
    population_stats,
    strategy_from_dict,
)
from gpislands.interpreter import compile_program, execute
from gpislands.localisation import localisation_helper
from gpislands.trees import (
    ConfigurationError,
    Individual,
    Origin,
    ProgramTree,
    Sort,
    build_random_tree,
    grow_subtree,
    iter_nodes,
    serialize,
    validate_tree,
)


def make_pop(fitnesses, geo_prims):
    rng = random.Random(0)
    members = []
    for f in fitnesses:
        ind = Individual.from_tree(build_random_tree(geo_prims, 3, rng))
        ind.fitness = f
        members.append(ind)
    return Population(members)


# ---------------------------------------------------------------------------
# selection

def test_wheel_is_fitness_proportionate(geo_prims):
    pop = make_pop([0.75, 0.25], geo_prims)
    rng = random.Random(314)
    draws = sum(Wheel(pop.members).spin(rng) is pop.members[0]
                for _ in range(30000))
    assert abs(draws / 30000 - 0.75) < 0.02


def test_wheel_zero_total_degrades_to_uniform(geo_prims):
    pop = make_pop([0.0, 0.0, 0.0, 0.0], geo_prims)
    rng = random.Random(271)
    counts = {id(m): 0 for m in pop.members}
    for _ in range(30000):
        counts[id(Wheel(pop.members).spin(rng))] += 1
    for c in counts.values():
        assert abs(c / 30000 - 0.25) < 0.02


def test_wheel_rejects_bad_pools(geo_prims):
    with pytest.raises(ValueError):
        Wheel([])
    pop = make_pop([0.5], geo_prims)
    pop.members[0].fitness = None
    with pytest.raises(ValueError):
        Wheel(pop.members)


@pytest.mark.parametrize("unscored", [0, 2, 4], ids=["first", "middle", "last"])
def test_wheel_rejects_an_unevaluated_member_anywhere(geo_prims, unscored):
    """A wheel checks every member as it adds up the running sums, so an
    unscored member is refused wherever it stands, with one message."""
    pop = make_pop([0.5, 0.25, 0.75, 0.0, 1.0], geo_prims)
    pop.members[unscored].fitness = None
    with pytest.raises(ValueError, match="^selection over unevaluated members$"):
        Wheel(pop.members)


def fitness_lists():
    """Random, tied and mixed fitness lists, from one to twelve members."""
    rng = random.Random("fitness lists")
    for size in range(1, 13):
        yield [rng.random() for _ in range(size)]
        yield [0.5] * size
        yield [0.0] * size
        yield [rng.choice((0.0, 0.25, 1.0, rng.random())) for _ in range(size)]
        yield [rng.random() * 10.0 ** rng.randint(-8, 0) for _ in range(size)]


def test_n_best_breaks_ties_by_position(geo_prims):
    pop = make_pop([0.5, 0.5], geo_prims)
    assert n_best(pop, 1) == [pop.members[0]]
    pop = make_pop([0.2, 0.9, 0.5], geo_prims)
    assert n_best(pop, 3) == [pop.members[1], pop.members[2], pop.members[0]]


def test_n_best_takes_n_from_0_to_the_population_size(geo_prims):
    for fitnesses in fitness_lists():
        pop = make_pop(fitnesses, geo_prims)
        for n in range(len(fitnesses) + 1):
            got = n_best(pop, n)
            assert len(got) == n
            assert all(a is b for a, b in zip(got, oracle_best(pop, n)))
        for n in (-1, len(fitnesses) + 1):
            with pytest.raises(ValueError, match=f"n_best\\({n}\\) over {len(fitnesses)}"):
                n_best(pop, n)


# ---------------------------------------------------------------------------
# variation operators

def test_mutation_closure(geo_prims, feed_prims, loc_prims):
    rng = random.Random(17)
    for prims in (geo_prims, at_bias(feed_prims, 0.5), at_bias(loc_prims, 0.5)):
        for _ in range(600):
            parent = build_random_tree(prims, 3, rng)
            child = mutate(parent, prims, 3, rng)
            validate_tree(child, prims, max_depth=3)
            assert child.sort is parent.sort


def test_crossover_closure(geo_prims, feed_prims, loc_prims):
    rng = random.Random(23)
    for prims in (geo_prims, at_bias(feed_prims, 0.5), at_bias(loc_prims, 0.5)):
        for _ in range(600):
            a = build_random_tree(prims, 3, rng)
            b = build_random_tree(prims, 3, rng)
            child = crossover(a, b, 3, rng)
            validate_tree(child, prims, max_depth=3)


def test_crossover_falls_back_without_compatible_donor(loc_prims):
    a = leaf(loc_prims, "request_update")
    b = constant(loc_prims, 5.0)
    assert crossover(a, b, 3, random.Random(2)) is a


@pytest.mark.parametrize("task", ["feed", "localisation"])
def test_operators_match_list_based_references(task, feed_prims, loc_prims):
    prims = feed_prims if task == "feed" else loc_prims
    build = random.Random(f"operators-{task}")
    seen = dict.fromkeys(["no donors", "mixed donor", "one-sort donor", "grafted",
                          "fallback", "self graft"], 0)
    for depth in range(3, 10):
        for case in range(12):
            a = build_random_tree(prims, depth, build)
            b = build_random_tree(prims, build.randint(1, depth), build)
            # a donor of Numbers alone: an Action point has no donor in it
            number_donor = grow_subtree(prims, Sort.NUMBER, build.randint(1, depth), build)
            # tight bounds make grafts fail the depth check and fall back
            for max_depth in (1, 2, depth - 1, depth):
                seed = build.random()
                ours, theirs = random.Random(seed), random.Random(seed)
                child = mutate(a, prims, max_depth, ours)
                assert child == reference_mutate(a, prims, max_depth, theirs)
                assert ours.getstate() == theirs.getstate()

                for donor in (b, number_donor):
                    expected, point, graft = reference_crossover(a, donor, max_depth, theirs,
                                                                 seen)
                    child = crossover(a, donor, max_depth, ours)
                    assert child == expected
                    if graft is None:
                        assert child is a
                    else:  # ``a`` itself only when the graft is the node already there
                        assert (child is a) == (graft is point)
                        seen["self graft"] += graft is point
                    assert ours.getstate() == theirs.getstate()
    assert seen["grafted"] and seen["fallback"] and seen["one-sort donor"]
    assert seen["self graft"]  # a shared terminal leaf grafted onto itself
    if task == "localisation":  # a feed tree has one sort, so always donors
        assert seen["no donors"] and seen["mixed donor"]


def test_mutation_changes_trees_sometimes(geo_prims):
    rng = random.Random(4)
    parent = build_random_tree(at_bias(geo_prims, 1.0), 3, rng)
    changed = sum(serialize(mutate(parent, geo_prims, 3, rng)) != serialize(parent)
                  for _ in range(50))
    assert changed > 25


# ---------------------------------------------------------------------------
# strategies

def test_preset_strategy_totals():
    assert google_reader_strategy().total() == 5
    assert localisation_strategy().total() == 12
    assert island_strategy(10).total() == 10
    assert island_strategy(7).total() == 7


def test_strategy_from_dict_round_trip():
    data = {
        "selectors": {"Leader": {"kind": "wheel", "pool_best": 1},
                      "HR": {"kind": "wheel", "pool_best": 3}},
        "steps": [{"operator": "copy", "count": 1, "selector": "Leader"},
                  {"operator": "mutation", "count": 2, "selector": "HR"},
                  {"operator": "crossover", "count": 2, "selector": "HR"}],
    }
    strategy = strategy_from_dict(data)
    assert strategy.total() == 5
    assert strategy.steps[0].operator is Operator.COPY


@pytest.mark.parametrize("selectors", [
    {"HR": {"kind": "tournament", "pool_best": 3}},  # wheels are the only kind
    {"HR": [3]},
    [["HR", 3]],
])
def test_strategy_from_dict_rejects_bad_selectors(selectors):
    data = {"selectors": selectors,
            "steps": [{"operator": "mutation", "count": 5, "selector": "HR"}]}
    with pytest.raises(ConfigurationError):
        strategy_from_dict(data)


@pytest.mark.parametrize("selectors, steps", [
    # counts and pools are whole numbers; a bool is not one, nor is a float
    ({"HR": {"pool_best": 2.5}}, [{"operator": "mutation", "count": 5, "selector": "HR"}]),
    ({"HR": {"pool_best": True}}, [{"operator": "mutation", "count": 5, "selector": "HR"}]),
    ({"HR": {"pool_best": "3"}}, [{"operator": "mutation", "count": 5, "selector": "HR"}]),
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": 1.9, "selector": "HR"}]),
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": 9.5, "selector": "HR"}]),
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": True, "selector": "HR"}]),
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": "5", "selector": "HR"}]),
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": -1, "selector": "HR"}]),
    # a random step needs no selector, but one it names must exist
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": 4, "selector": "HR"},
                                {"operator": "random", "count": 1, "selector": "typo"}]),
    # a strategy must produce at least one member
    ({"HR": {"pool_best": 3}}, [{"operator": "mutation", "count": 0, "selector": "HR"},
                                {"operator": "random", "count": 0}]),
])
def test_strategy_from_dict_rejects_unusable_counts_and_names(selectors, steps):
    with pytest.raises(ConfigurationError, match="bad strategy config"):
        strategy_from_dict({"selectors": selectors, "steps": steps})


def test_random_steps_may_name_a_declared_selector_or_none():
    strategy = strategy_from_dict({
        "selectors": {"HR": {"pool_best": 3}},
        "steps": [{"operator": "mutation", "count": 3, "selector": "HR"},
                  {"operator": "random", "count": 1, "selector": "HR"},
                  {"operator": "random", "count": 1}]})
    assert strategy.total() == 5


def test_selector_binding_is_a_wheel_over_its_pool():
    assert SelectorBinding(3) == SelectorBinding(pool_best=3)
    for bad in (0, 2.5, True):
        with pytest.raises(ConfigurationError):
            SelectorBinding(pool_best=bad)


def test_strategy_rejects_unknown_selector():
    with pytest.raises(ConfigurationError):
        EvolutionStrategy(
            selectors={},
            steps=(StrategyStep(Operator.COPY, 1, "nonexistent"),),
        )


def test_a_population_is_its_members_and_keyword_only_counters():
    assert [f.name for f in dataclasses.fields(Population)] == [
        "members", "helper_rejections", "guard_fallbacks"]
    with pytest.raises(TypeError):
        Population([], 1)  # a counter is never bound by position


def test_a_strategy_must_produce_a_member():
    with pytest.raises(ConfigurationError, match="at least 1 member"):
        EvolutionStrategy(selectors={"all": SelectorBinding()},
                          steps=[StrategyStep(Operator.COPY, 0, "all")])
    with pytest.raises(ConfigurationError, match="at least 1 member"):
        EvolutionStrategy(selectors={}, steps=[])


# ---------------------------------------------------------------------------
# breeding

def test_breed_preserves_capacity_and_elite(geo_prims):
    pop = make_pop([0.1, 0.9, 0.3, 0.2, 0.5], geo_prims)
    nxt = breed_next_generation(pop, google_reader_strategy(), geo_prims, 3,
                                random.Random(8))
    assert len(nxt.members) == 5
    elites = [m for m in nxt.members if m.origin is Origin.ELITE_COPY]
    assert len(elites) == 1
    assert elites[0].tree == pop.members[1].tree  # wheel over 1-best pool
    assert elites[0].fitness == 0.9  # retained, though re-evaluated later
    for m in nxt.members:
        if m.origin is not Origin.ELITE_COPY:
            assert m.fitness is None


def test_breed_marks_random_injections(geo_prims):
    pop = make_pop([0.4] * 12, geo_prims)
    nxt = breed_next_generation(pop, localisation_strategy(), geo_prims, 3,
                                random.Random(9))
    injected = [m for m in nxt.members if m.origin is Origin.RANDOM_INJECTED]
    assert len(injected) == 2


def test_breed_handles_over_capacity_source(geo_prims):
    # immigrants append past capacity; the next breed restores it
    pop = make_pop([0.2] * 10, geo_prims)
    extra = Individual.from_tree(build_random_tree(geo_prims, 3, random.Random(77)),
                                 Origin.IMMIGRANT)
    extra.fitness = 0.9
    pop.members.append(extra)
    nxt = breed_next_generation(pop, island_strategy(10), geo_prims, 3,
                                random.Random(10))
    assert len(nxt.members) == 10


def mixed_strategy():
    """A zero-count step, a random step naming a selector, and one pool
    shared by two steps."""
    return EvolutionStrategy(
        selectors={"All": SelectorBinding(), "Two": SelectorBinding(2)},
        steps=[StrategyStep(Operator.COPY, 0, "Two"),
               StrategyStep(Operator.CROSSOVER, 3, "All"),
               StrategyStep(Operator.RANDOM, 1, "Two"),
               StrategyStep(Operator.MUTATION, 2, "Two"),
               StrategyStep(Operator.COPY, 1, "All")])


@pytest.mark.parametrize("task", ["geo", "feed", "localisation"])
def test_a_breed_matches_a_wheel_built_for_every_pick(task, geo_prims, feed_prims,
                                                      loc_prims):
    prims = {"geo": geo_prims, "feed": feed_prims, "localisation": loc_prims}[task]
    build = random.Random(f"breed-{task}")
    # a guard that rejects every draft falls back on every guarded build
    guards = (None, lambda tree: tree.size % 3 != 0, lambda tree: False)
    zero_totals = 0
    for strategy in (google_reader_strategy(), localisation_strategy(), island_strategy(10),
                     island_strategy(6), mixed_strategy()):
        capacity = strategy.total()
        for case in range(8):
            trees = [build_random_tree(prims, 4, build)
                     for _ in range(capacity + case % 3)]  # immigrants past capacity
            pop = Population([Individual.from_tree(tree) for tree in trees])
            for i, member in enumerate(pop.members):
                # all zero, all zero but the last, or spread
                member.fitness = (0.0 if case % 4 == 0 else
                                  0.0 if case % 4 == 1 and i < len(trees) - 1 else
                                  round(build.random(), 2))
            zero_totals += all(m.fitness == 0.0 for m in pop.members)
            for guard in guards:
                seed = build.random()
                ours, theirs = random.Random(seed), random.Random(seed)
                helped = dataclasses.replace(prims, helper=guard)
                bred = breed_next_generation(pop, strategy, helped, 4, ours)
                want, counters = reference_breed(pop, strategy, prims, 4, theirs, guard)
                assert ([(m.tree, m.origin, m.fitness) for m in bred.members]
                        == [(m.tree, m.origin, m.fitness) for m in want])
                assert (bred.helper_rejections, bred.guard_fallbacks) == (
                    counters["rejections"], counters["fallbacks"])
                assert ours.getstate() == theirs.getstate()
    assert zero_totals


def copies_of(pop, pool_best, count, rng):
    """The members a breed of ``count`` elite copies from one selector picks."""
    strategy = EvolutionStrategy({"S": SelectorBinding(pool_best)},
                                 [StrategyStep(Operator.COPY, count, "S")])
    return breed_next_generation(pop, strategy, None, 3, rng).members


def test_a_ranked_wheel_spins_as_a_wheel_over_n_best(geo_prims):
    for case, fitnesses in enumerate(fitness_lists()):
        pop = make_pop(fitnesses, geo_prims)
        for pool_best in (1, 2, 3, len(fitnesses), len(fitnesses) + 2, None):
            ours, theirs = random.Random(case), random.Random(case)
            bred = copies_of(pop, pool_best, 20, ours)
            wheel = Wheel(pop.members if pool_best is None  # in member order
                          else n_best(pop, min(pool_best, len(fitnesses))))
            picks = [wheel.spin(theirs) for _ in range(20)]
            assert [(m.tree, m.fitness) for m in bred] == [(m.tree, m.fitness) for m in picks]
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("strategy,sorts", [
    (island_strategy(10), 1),  # Leader and HR share the one ranking
    (mixed_strategy(), 1),
    (EvolutionStrategy({"All": SelectorBinding()},
                       [StrategyStep(Operator.CROSSOVER, 6, "All")]), 0),
    (EvolutionStrategy({"Two": SelectorBinding(2)},  # no step picks from "Two"
                       [StrategyStep(Operator.COPY, 0, "Two"),
                        StrategyStep(Operator.RANDOM, 6, "Two")]), 0),
], ids=["island", "mixed", "whole pool", "unused pool_best"])
def test_a_breed_ranks_its_members_at_most_once(geo_prims, monkeypatch, strategy, sorts):
    pop = make_pop([0.2, 0.9, 0.0, 0.5, 0.9, 0.5, 0.1], geo_prims)
    calls = []

    def counting_sorted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(evolution, "sorted", counting_sorted, raising=False)
    breed_next_generation(pop, strategy, geo_prims, 3, random.Random(3))
    assert len(calls) == sorts


def test_elite_fitness_never_decreases_with_deterministic_evaluator(geo_prims):
    def evaluator(member):
        # optimum: a full depth-3 tree of two-argument functions (7 nodes)
        return 1.0 / (1.0 + abs(len(list(iter_nodes(member.tree))) - 7))

    rng = random.Random(99)
    pop = initial_population(geo_prims, 5, 3, rng)
    evaluate_population(pop, evaluator)
    best = population_stats(pop).max_fitness
    for _ in range(30):
        pop = breed_next_generation(pop, google_reader_strategy(), geo_prims, 3, rng)
        evaluate_population(pop, evaluator)
        now = population_stats(pop).max_fitness
        assert now >= best - 1e-12
        best = now
    assert best == 1.0


# ---------------------------------------------------------------------------
# the helper guard

def test_each_task_states_its_helper_with_its_vocabulary(feed_prims, loc_prims):
    assert loc_prims.helper is localisation_helper
    assert feed_prims.helper is None


def test_guard_rejections_are_counted(geo_prims):
    def guard(tree):
        return any(n.kind.name == "lat" for n, _ in iter_nodes(tree))

    pop = initial_population(dataclasses.replace(geo_prims, helper=guard), 20, 3,
                             random.Random(5))
    for m in pop.members:
        assert guard(m.tree)
    assert pop.helper_rejections > 0
    assert pop.guard_fallbacks == 0


def test_guard_exhaustion_admits_last_candidate(geo_prims):
    pop = initial_population(dataclasses.replace(geo_prims, helper=lambda tree: False), 3, 3,
                             random.Random(6))
    assert len(pop.members) == 3
    assert pop.guard_fallbacks == 3
    assert pop.helper_rejections == 3 * REBUILD_ATTEMPTS


# ---------------------------------------------------------------------------
# evaluation bookkeeping

def test_population_stats_match_max_reduce_and_sum_bit_for_bit(geo_prims):
    for fitnesses in [*fitness_lists(), [-0.0, 0.0], [0.0, -0.0], [-0.0], [0.1] * 10,
                      [1e16, 1.0, -1e16, 1.0]]:
        pop = make_pop(fitnesses, geo_prims)
        stats = population_stats(pop)
        got = (stats.max_fitness, stats.mean_fitness, stats.mean_size, stats.mean_depth)
        assert [x.hex() for x in got] == [x.hex() for x in oracle_stats(pop)]


def test_population_stats_need_every_member_scored(geo_prims):
    pop = make_pop([0.5, 0.25, 0.75], geo_prims)
    pop.members[2].fitness = None
    with pytest.raises(ValueError, match="unevaluated"):
        population_stats(pop)
    with pytest.raises(ValueError, match="empty"):
        population_stats(Population([]))


def test_population_stats_shape(geo_prims):
    pop = make_pop([1.0, 0.0, 0.0, 0.0, 0.0], geo_prims)
    stats = population_stats(pop)
    assert stats.max_fitness == 1.0
    assert stats.mean_fitness == pytest.approx(0.2)


def test_mean_fitness_adds_left_to_right(geo_prims):
    """Ten members at 0.1 add to 0.9999999999999999 left to right; the
    compensated ``sum`` of Python 3.12+ gives 1.0, which would change the
    rows' ``mean_fitness`` between interpreters."""
    stats = population_stats(make_pop([0.1] * 10, geo_prims))
    assert stats.mean_fitness == 0.9999999999999999 / 10 == 0.09999999999999999


def test_evaluate_population_scores_everyone(geo_prims):
    pop = make_pop([0.5, 0.5, 0.5], geo_prims)
    evaluate_population(pop, lambda member: 0.25)
    assert [m.fitness for m in pop.members] == [0.25, 0.25, 0.25]


def test_evaluate_new_members_skips_scored(geo_prims):
    pop = make_pop([0.5, 0.5, 0.5], geo_prims)
    pop.members[1].fitness = None
    touched = evaluate_new_members(pop, lambda member: 0.75)
    assert touched == 1
    assert [m.fitness for m in pop.members] == [0.5, 0.75, 0.5]


def test_misbehaving_evaluators_are_contained(geo_prims):
    pop = make_pop([0.0, 0.0, 0.0], geo_prims)

    outputs = iter([float("nan"), 5.0, None])

    def wild(member):
        value = next(outputs)
        if value is None:
            raise RuntimeError("evaluator blew up")
        return value

    evaluate_population(pop, wild)
    assert [m.fitness for m in pop.members] == [0.0, 1.0, 0.0]


def test_a_failing_evaluator_logs_one_error_with_its_traceback(geo_prims, caplog):
    caplog.set_level(logging.DEBUG, logger="gpislands")
    pop = make_pop([0.5], geo_prims)

    def failing(member):
        raise ValueError("no score")

    evaluate_population(pop, failing)
    assert pop.members[0].fitness == 0.0
    assert [(r.name, r.levelno) for r in caplog.records] == \
        [("gpislands.evolution", logging.ERROR)]
    assert caplog.records[0].exc_info[0] is ValueError


def test_configuration_errors_are_not_scored_as_zero(geo_prims):
    """An unbound terminal is a setup bug, so it must surface."""
    tree = ProgramTree(geo_prims.kind("add"), (leaf(geo_prims, "lat"), leaf(geo_prims, "lon")))
    pop = Population([Individual.from_tree(tree)])
    bindings = {"lon": lambda: 1.0}  # no "lat"

    def unbound(member):
        return execute(compile_program(member.tree, bindings), 16).value

    with pytest.raises(ConfigurationError, match="lat"):
        evaluate_population(pop, unbound)
