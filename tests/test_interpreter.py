"""Supervised execution: step budgets, laziness, action terminals, and the
compiled engine against the reference walker."""
import functools
import random

import grower
import pytest
from sized import feed_chain, feed_edges
from walker import feed_environments, walk

from gpislands import feed as feed_module
from gpislands import localisation as localisation_module
from gpislands.feed import default_catalog
from gpislands.interpreter import RunOutcome, compile_program, execute
from gpislands.localisation import World, WorldConfig
from gpislands.trees import (
    DEPTH_CEILING,
    Category,
    ConfigurationError,
    PrimitiveSet,
    ProgramTree,
    Sort,
    arithmetic_kinds,
    build_random_tree,
    constant_kind_name,
    deserialize,
    function,
    if_greater,
    if_greater_kind,
    sequence_kind,
    terminal,
)


def num_const(prims, value):
    return ProgramTree(prims.kind(constant_kind_name(Sort.NUMBER)), value=value)


@pytest.fixture
def branch_prims():
    """Numbers plus a comparison, for branching and budget tests."""
    kinds = arithmetic_kinds() + [
        if_greater_kind(Sort.NUMBER),
        terminal("a", Sort.NUMBER),
        terminal("b", Sort.NUMBER),
    ]
    return PrimitiveSet(kinds, Sort.NUMBER,
                        {Sort.NUMBER: lambda rng: rng.uniform(-1.0, 1.0)})


def test_constant_tree_completes_in_one_step(geo_prims):
    out = execute(compile_program(num_const(geo_prims, 2.5), {}), 8)
    assert out.value == 2.5
    assert out.steps_used == 1
    assert not out.killed


def test_terminal_bindings_are_read_at_execution(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (ProgramTree(geo_prims.kind("lat")),
                                            num_const(geo_prims, 2.5)))
    out = execute(compile_program(t, {"lat": lambda: 1.5}), 16)
    assert out.value == 4.0
    assert out.steps_used == 3


def test_unbound_terminal_is_a_configuration_error(geo_prims):
    t = ProgramTree(geo_prims.kind("lat"))
    program = compile_program(t, {})  # compiling a tree it cannot run is no error
    with pytest.raises(ConfigurationError):
        execute(program, 4)


def test_step_budget_kills_large_tree(branch_prims):
    rng = random.Random(5)
    t = build_random_tree(grower.at_bias(branch_prims, 1.0), 6, rng)
    assert t.size > 10
    out = execute(compile_program(t, {"a": lambda: 1.0, "b": lambda: 2.0}),
                  10)
    assert out.killed
    assert out.value is None
    assert out.steps_used == 10


def test_steps_never_exceed_budget(branch_prims):
    rng = random.Random(99)
    bindings = {"a": lambda: 0.5, "b": lambda: -0.5}
    for _ in range(300):
        t = build_random_tree(branch_prims, 5, rng)
        out = execute(compile_program(t, bindings), 12)
        assert out.steps_used <= 12
        if not out.killed:
            assert out.steps_used <= t.size


def test_if_greater_evaluates_only_taken_branch(branch_prims):
    calls = {"a": 0, "b": 0}

    def reader(name, value):
        def read():
            calls[name] += 1
            return value
        return read

    t = ProgramTree(branch_prims.kind("if_greater"), (
        num_const(branch_prims, 2.0),
        num_const(branch_prims, 1.0),
        ProgramTree(branch_prims.kind("a")),
        ProgramTree(branch_prims.kind("b")),
    ))
    out = execute(compile_program(t, {"a": reader("a", 10.0), "b": reader("b", 20.0)}),
                  16)
    assert out.value == 10.0
    assert calls == {"a": 1, "b": 0}  # untaken branch never touched
    assert out.steps_used == 4  # if node, both guards, one branch


def logged(bindings):
    """``bindings`` with every accessor call appended, by terminal name, to
    the returned log."""
    log = []

    def wrap(name, accessor):
        def call():
            log.append(name)
            return accessor()
        return call

    return {name: wrap(name, accessor) for name, accessor in bindings.items()}, log


def compiled_run(tree, bindings, max_steps):
    return execute(compile_program(tree, bindings), max_steps)


def test_action_terminals_act_through_their_accessors():
    enable = terminal("enable_gps", Sort.ACTION)
    request = terminal("request_update", Sort.ACTION)
    prims = PrimitiveSet([sequence_kind(), enable, request], Sort.ACTION)
    t = ProgramTree(prims.kind("seq"), (ProgramTree(enable), ProgramTree(request)))
    bindings, log = logged({"enable_gps": lambda: "enable:gps",
                            "request_update": lambda: "request_fix"})
    for run in (compiled_run, walk):
        log.clear()
        out = run(t, bindings, 8)
        assert not out.killed
        assert log == ["enable_gps", "request_update"]
        assert out.value == "request_fix"  # seq yields its second action's value


def test_an_unbound_terminal_past_the_budget_raises(geo_prims):
    """The run reads every terminal it reaches, so an unbound one raises even
    where the walker would already have killed the run."""
    t = ProgramTree(geo_prims.kind("add"), (num_const(geo_prims, 1.0),
                                            ProgramTree(geo_prims.kind("lat"))))
    assert walk(t, {}, 2) == (True, None, 2)
    with pytest.raises(ConfigurationError, match="lat"):
        compiled_run(t, {}, 2)
    assert compiled_run(t, {"lat": lambda: 1.0}, 2) == (True, None, 2)


# ---------------------------------------------------------------------------
# compiled programs against the walker

DIFF_DEPTHS = range(3, 10)
DIFF_TREES_PER_DEPTH = 20


def random_trees(prims, seed):
    rng = random.Random(seed)
    return [build_random_tree(prims, depth, rng)
            for depth in DIFF_DEPTHS for _ in range(DIFF_TREES_PER_DEPTH)]


def same_value(a, b):
    return a == b or (a != a and b != b)  # NaN matches NaN


def assert_same_outcome(compiled, walked):
    assert compiled.killed is walked.killed
    assert same_value(compiled.value, walked.value)
    assert compiled.steps_used == walked.steps_used


def assert_same_calls(compiled_log, walked_log, killed):
    """The compiled run calls the walker's accessors in the walker's order;
    a killed one goes on past the budget, where the walker stopped."""
    if killed:
        assert compiled_log[:len(walked_log)] == walked_log
    else:
        assert compiled_log == walked_log


def assert_same_runs(tree, bindings, max_steps):
    """``tree`` compiled against ``bindings`` and the walker give the same
    outcome and call the same accessors in the same order up to the budget;
    returns the outcome."""
    compiled_bindings, compiled_log = logged(bindings)
    walked_bindings, walked_log = logged(bindings)
    program = compile_program(tree, compiled_bindings)
    assert program.size == tree.size
    outcome = execute(program, max_steps)
    assert_same_outcome(outcome, walk(tree, walked_bindings, max_steps))
    assert_same_calls(compiled_log, walked_log, outcome.killed)
    return outcome


def feed_bindings(prims, rng):
    return {k.name: (lambda v=rng.uniform(-3.0, 3.0): v)
            for k in prims.all_kinds if k.category is Category.TERMINAL}


@pytest.mark.parametrize("max_steps", [512, 24])
def test_compiled_matches_walker_on_feed_trees(feed_prims, max_steps):
    rng = random.Random(max_steps)
    sizes = []
    for tree in random_trees(feed_prims, 11):
        sizes.append(tree.size)
        assert_same_runs(tree, feed_bindings(feed_prims, rng), max_steps)
    # trees within the budget and larger ones were both run
    assert min(sizes) <= max_steps < max(sizes)


def test_the_oversize_fill_runs_each_feed_as_the_walker_does(feed_prims, monkeypatch):
    """A tree larger than the budget is scored in the one pass, with no
    program compiled or run; each feed gets the value of a walk of the tree
    against that feed's own bindings, and its count is the steps of that
    walk, so the fill is killed exactly when some feed's walk is."""
    def unexpected(*args):
        pytest.fail("a fill that raises nothing compiled or ran a program")

    monkeypatch.setattr(feed_module, "compile_program", unexpected)
    monkeypatch.setattr(feed_module, "execute", unexpected)
    catalog = default_catalog()
    per_feed = feed_environments(catalog)
    assert len(per_feed) == 7
    max_steps = feed_module.MAX_STEPS
    edges = feed_edges(feed_prims)
    oversize = kills = 0
    for tree in random_trees(feed_prims, 14) + [edges["skipping"], edges["killed"]]:
        if tree.size <= max_steps:
            continue
        oversize += 1
        fill = feed_module._fill_screen(tree, catalog)
        walked = [walk(tree, bindings, max_steps) for bindings in per_feed]
        steps = feed_module._score_feeds(tree, catalog)[1]
        assert list(steps) == [walk(tree, bindings, tree.size).steps_used
                               for bindings in per_feed]
        for count, want in zip(steps, walked):
            assert want.killed is (count > max_steps)
            assert want.steps_used == min(count, max_steps)
        if not any(want.killed for want in walked):
            assert len(fill[0]) == len(walked)
            for value, want in zip(fill[0], walked):
                assert same_value(value, float(want.value))
        else:
            assert fill is None
            kills += 1
    assert oversize > kills > 0


def loc_world_runs(runner, ticks=8):
    """``runner(bindings)`` against a fresh world, called once per tick up to a
    kill, as the task runs a program: the outcomes, and per tick the
    accessors called and, after a completed tick, the program fix and the
    radios."""
    world = World(WorldConfig(ticks=ticks))
    bindings, log = logged(world.environment())
    run = runner(bindings)
    outcomes, states = [], []
    for tick in range(1, ticks + 1):
        world.t = float(tick)
        log.clear()
        outcome = run()
        outcomes.append(outcome)
        if outcome.killed:
            states.append((list(log),))
            break
        states.append((list(log), world.program_fix, dict(world.enabled)))
    return outcomes, states


@pytest.mark.parametrize("max_steps", [256, 12])
def test_compiled_matches_walker_on_localisation_trees(loc_prims, max_steps):
    killed = 0
    for tree in random_trees(grower.at_bias(loc_prims, 0.5), 12):
        compiled, state_c = loc_world_runs(
            lambda b: functools.partial(execute, compile_program(tree, b), max_steps))
        walked, state_w = loc_world_runs(lambda b: functools.partial(walk, tree, b, max_steps))
        assert len(compiled) == len(walked)
        for a, b in zip(compiled, walked):
            assert_same_outcome(a, b)
        # accessor log, program fix and radios after every completed tick
        completed = len(walked) - walked[-1].killed
        assert state_c[:completed] == state_w[:completed]
        if walked[-1].killed:
            assert_same_calls(state_c[-1][0], state_w[-1][0], True)
            killed += 1
    if max_steps < 256:
        assert killed  # the kill path was exercised


def test_unbound_terminal_raises_on_both_paths(feed_prims):
    """Without bindings every reached terminal is a configuration error, on
    the walker and on the compiled program alike."""
    raised = 0
    for tree in random_trees(feed_prims, 13):
        errors = []
        for run in (walk, compiled_run):
            try:
                run(tree, {}, 10_000)
            except ConfigurationError as exc:
                errors.append(str(exc))
        # a tree whose terminals all sit in untaken branches completes everywhere
        assert errors == [] or (len(errors) == 2 and len(set(errors)) == 1)
        raised += bool(errors)
    assert raised > 100


def test_a_kill_at_the_edge_of_the_budget_matches_the_walker(branch_prims):
    """At budgets of the tree's size, of the steps a full run takes, and one
    below each, the kill, the value and ``steps_used`` are the walker's."""
    rng = random.Random(8)
    bushy = grower.at_bias(branch_prims, 1.0)
    bindings = {"a": lambda: 1.0, "b": lambda: 2.0}
    edges = {"killed": 0, "completed": 0}
    for _ in range(100):
        tree = build_random_tree(bushy, 5, rng)
        program = compile_program(tree, bindings)
        needed = execute(program, tree.size).steps_used
        for budget in {tree.size, tree.size - 1, needed, needed - 1} - {0}:
            outcome = execute(program, budget)
            assert_same_outcome(outcome, walk(tree, bindings, budget))
            assert outcome.killed is (budget < needed)
            edges["killed" if outcome.killed else "completed"] += 1
    assert min(edges.values()) > 50, edges


def test_a_run_has_no_budget_and_execute_adds_its_kill(branch_prims):
    """``Program.run`` gives the value and the steps of the whole run, as
    the walker does with budget to spare; ``execute`` reports that run, or
    kills it when it took more steps than the budget."""
    rng = random.Random(9)
    bushy = grower.at_bias(branch_prims, 1.0)
    bindings = {"a": lambda: 1.0, "b": lambda: 2.0}
    for _ in range(50):
        tree = build_random_tree(bushy, 5, rng)
        program = compile_program(tree, bindings)
        value, steps = program.run()
        assert_same_outcome(RunOutcome(False, value, steps), walk(tree, bindings, tree.size))
        assert_same_outcome(execute(program, steps), RunOutcome(False, value, steps))
        assert execute(program, steps - 1) == (True, None, steps - 1)


def test_a_kind_branches_by_its_function_not_its_name(branch_prims):
    """Any kind whose function is ``if_greater`` compiles to the branch that
    runs only the taken side, whatever the kind is called."""
    pick = function("pick", (Sort.NUMBER,) * 4, Sort.NUMBER, if_greater)
    a, b = ProgramTree(branch_prims.kind("a")), ProgramTree(branch_prims.kind("b"))
    tree = ProgramTree(pick, (a, b, a, ProgramTree(pick, (b, a, b, a))))
    outcome = assert_same_runs(tree, {"a": lambda: 0.5, "b": lambda: -0.5}, 64)
    assert outcome == (False, 0.5, 4)  # the untaken side's 5 nodes never ran


@pytest.mark.parametrize("arity", [2, 4])
def test_any_other_function_runs_eagerly(branch_prims, arity):
    """A function other than ``if_greater`` is given its children's values,
    every child evaluated first, even one with the conditional's arity."""
    first = function("first", (Sort.NUMBER,) * arity, Sort.NUMBER, lambda *values: values[0])
    a, b = ProgramTree(branch_prims.kind("a")), ProgramTree(branch_prims.kind("b"))
    tree = ProgramTree(first, (a,) + (b,) * (arity - 1))
    outcome = assert_same_runs(tree, {"a": lambda: 0.5, "b": lambda: -0.5}, 64)
    assert outcome == (False, 0.5, arity + 1)


# ---------------------------------------------------------------------------
# trees at the depth ceiling

def loc_chain(depth):
    """The same for localisation: the innermost ``seq`` enables cell and asks
    for a fix, so a completed run earns a trace."""
    text = "(seq (enable_cell) (request_update))"
    for _ in range(depth - 2):
        text = f"(if_greater (last_fix_age) (const:Number -1.0) {text} (enable_gps))"
    return text


def test_a_chain_at_the_depth_ceiling_runs_in_both_tasks(feed_prims, loc_prims):
    catalog = default_catalog()
    feed_tree = deserialize(feed_chain("if_greater", DEPTH_CEILING), feed_prims)
    loc_tree = deserialize(loc_chain(DEPTH_CEILING), loc_prims)
    assert feed_tree.depth == loc_tree.depth == DEPTH_CEILING
    assert feed_tree.size == 797 > feed_module.MAX_STEPS
    assert loc_tree.size > localisation_module.MAX_STEPS
    runs = [(feed_tree, feed_environments(catalog)[0], feed_module.MAX_STEPS),
            (loc_tree, World(WorldConfig()).environment(), localisation_module.MAX_STEPS)]
    for tree, bindings, max_steps in runs:
        program = compile_program(tree, bindings)
        assert execute(program, max_steps) == (True, None, max_steps)
        completed = execute(program, 10**6)
        assert not completed.killed
        assert_same_outcome(completed, walk(tree, bindings, 10**6))
    # at the tasks' own budgets, a run down the chain is killed at once: the
    # feed task's one pass descends the whole chain to count each feed's
    # steps, and the fill's kill is the walker's
    assert [walk(feed_tree, env, feed_module.MAX_STEPS).killed
            for env in feed_environments(catalog)] == [True] * len(catalog.feeds)
    assert feed_module._fill_screen(feed_tree, catalog) is None
    assert feed_module._score_feeds(feed_tree, catalog)[1] == tuple(
        walk(feed_tree, env, 10**6).steps_used for env in feed_environments(catalog))
    assert localisation_module._control_trace(loc_tree, WorldConfig()) == ()
