"""Supervised execution: step budgets, laziness, action terminals, and the
compiled engine against the walker."""
import random

import pytest

from gpislands import interpreter
from gpislands.feed import _feed_environments, default_catalog
from gpislands.interpreter import SupervisorPolicy, compile_program, execute
from gpislands.localisation import World, WorldConfig
from gpislands.trees import (
    Category,
    ConfigurationError,
    PrimitiveSet,
    ProgramTree,
    Sort,
    arithmetic_kinds,
    build_random_tree,
    constant_kind_name,
    if_greater_kind,
    sequence_kind,
    terminal,
    tree_size,
)


def num_const(prims, value):
    return ProgramTree(prims.kind(constant_kind_name(Sort.NUMBER)), value=value)


@pytest.fixture
def branch_prims():
    """Numbers plus a lazy comparison, for laziness and budget tests."""
    kinds = arithmetic_kinds(include_div=True) + [
        if_greater_kind(Sort.NUMBER),
        terminal("a", Sort.NUMBER),
        terminal("b", Sort.NUMBER),
    ]
    return PrimitiveSet(kinds, Sort.NUMBER,
                        {Sort.NUMBER: lambda rng: rng.uniform(-1.0, 1.0)})


def test_constant_tree_completes_in_one_step(geo_prims):
    out = execute(num_const(geo_prims, 2.5), {}, SupervisorPolicy(8))
    assert out.value == 2.5
    assert out.steps_used == 1
    assert not out.killed


def test_terminal_bindings_are_read_at_execution(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (ProgramTree(geo_prims.kind("lat")),
                                            num_const(geo_prims, 2.5)))
    out = execute(t, {"lat": lambda: 1.5}, SupervisorPolicy(16))
    assert out.value == 4.0
    assert out.steps_used == 3


def test_unbound_terminal_is_a_configuration_error(geo_prims):
    t = ProgramTree(geo_prims.kind("lat"))
    with pytest.raises(ConfigurationError):
        execute(t, {}, SupervisorPolicy(4))


def test_division_by_zero_yields_sentinel(branch_prims):
    t = ProgramTree(branch_prims.kind("div"),
                    (num_const(branch_prims, 1.0), num_const(branch_prims, 0.0)))
    out = execute(t, {}, SupervisorPolicy(8))
    assert out.value == 1.0


def test_step_budget_kills_large_tree(branch_prims):
    rng = random.Random(5)
    t = build_random_tree(branch_prims, 6, rng, function_bias=1.0)
    assert tree_size(t) > 10
    out = execute(t, {"a": lambda: 1.0, "b": lambda: 2.0}, SupervisorPolicy(max_steps=10))
    assert out.killed
    assert out.value is None
    assert out.steps_used == 10


def test_steps_never_exceed_budget(branch_prims):
    rng = random.Random(99)
    bindings = {"a": lambda: 0.5, "b": lambda: -0.5}
    for _ in range(300):
        t = build_random_tree(branch_prims, 5, rng)
        out = execute(t, bindings, SupervisorPolicy(max_steps=12))
        assert out.steps_used <= 12
        if not out.killed:
            assert out.steps_used <= tree_size(t)


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
    out = execute(t, {"a": reader("a", 10.0), "b": reader("b", 20.0)}, SupervisorPolicy(16))
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


def test_action_terminals_act_through_their_accessors():
    enable = terminal("enable_gps", Sort.ACTION)
    request = terminal("request_update", Sort.ACTION)
    prims = PrimitiveSet([sequence_kind(), enable, request], Sort.ACTION)
    t = ProgramTree(prims.kind("seq"), (ProgramTree(enable), ProgramTree(request)))
    bindings, log = logged({"enable_gps": lambda: "enable:gps",
                            "request_update": lambda: "request_fix"})
    for target in (t, compile_program(t)):
        log.clear()
        out = execute(target, bindings, SupervisorPolicy(8))
        assert not out.killed
        assert log == ["enable_gps", "request_update"]
        assert out.value == "request_fix"  # seq yields its second action's value


@pytest.mark.parametrize("compiled", [False, True])
def test_a_killed_run_calls_no_accessor_after_the_budget(compiled):
    ping = terminal("ping", Sort.ACTION)
    prims = PrimitiveSet([sequence_kind(), ping], Sort.ACTION)
    t = ProgramTree(prims.kind("seq"), (ProgramTree(ping), ProgramTree(ping)))
    bindings, log = logged({"ping": lambda: "ping"})
    out = execute(compile_program(t) if compiled else t, bindings,
                  SupervisorPolicy(max_steps=2))
    assert out.killed
    assert out.value is None
    assert out.steps_used == 2
    assert log == ["ping"]  # the second ping would have been the third step


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        SupervisorPolicy(max_steps=0)


# ---------------------------------------------------------------------------
# compiled programs against the walker

DIFF_DEPTHS = range(3, 10)
DIFF_TREES_PER_DEPTH = 20


def random_trees(prims, seed, function_bias):
    rng = random.Random(seed)
    return [build_random_tree(prims, depth, rng, function_bias=function_bias)
            for depth in DIFF_DEPTHS for _ in range(DIFF_TREES_PER_DEPTH)]


def same_value(a, b):
    return a == b or (a != a and b != b)  # NaN matches NaN


def assert_same_outcome(compiled, walked):
    assert compiled.killed is walked.killed
    assert same_value(compiled.value, walked.value)
    assert compiled.steps_used == walked.steps_used


def assert_same_runs(program, tree, bindings, policy):
    """The compiled program and the walker give the same outcome and call the
    same accessors in the same order; returns the outcome."""
    compiled_bindings, compiled_log = logged(bindings)
    walked_bindings, walked_log = logged(bindings)
    outcome = execute(program, compiled_bindings, policy)
    assert_same_outcome(outcome, execute(tree, walked_bindings, policy))
    assert compiled_log == walked_log
    return outcome


def feed_bindings(prims, rng):
    return {k.name: (lambda v=rng.uniform(-3.0, 3.0): v)
            for k in prims.all_kinds if k.category is Category.TERMINAL}


@pytest.mark.parametrize("max_steps", [512, 24])
def test_compiled_matches_walker_on_feed_trees(feed_prims, max_steps):
    rng = random.Random(max_steps)
    policy = SupervisorPolicy(max_steps=max_steps)
    sizes = []
    for tree in random_trees(feed_prims, 11, function_bias=0.75):
        program = compile_program(tree)
        assert program.size == tree_size(tree)
        sizes.append(program.size)
        assert_same_runs(program, tree, feed_bindings(feed_prims, rng), policy)
    # both the unchecked path and the walker fallback were exercised
    assert min(sizes) <= max_steps < max(sizes)


@pytest.mark.parametrize("max_steps", [512, 24])
def test_one_compiled_program_serves_every_feed(feed_prims, max_steps):
    """One program runs against the seven feeds' bindings in turn, and each
    run matches a walk of the tree against the same feed."""
    per_feed = _feed_environments(default_catalog())
    assert len(per_feed) == 7
    policy = SupervisorPolicy(max_steps=max_steps)
    fallbacks = kills = 0
    for tree in random_trees(feed_prims, 14, function_bias=0.75):
        program = compile_program(tree)
        outcomes = [assert_same_runs(program, tree, bindings, policy) for bindings in per_feed]
        fallbacks += tree.size > max_steps
        kills += any(o.killed for o in outcomes)
    assert fallbacks
    if max_steps < 512:
        assert kills


def loc_world_runs(tree, policy, compiled, ticks=8):
    """Outcomes of ``ticks`` runs against a fresh world, as the task runs them,
    and the log of the accessors they called."""
    world = World(WorldConfig(ticks=ticks), seed=3)
    bindings, log = logged(world.environment())
    program = compile_program(tree) if compiled else tree
    outcomes = []
    for tick in range(1, ticks + 1):
        world.t = float(tick)
        outcomes.append(execute(program, bindings, policy))
    return outcomes, log, world.program_fix, dict(world.enabled)


@pytest.mark.parametrize("max_steps", [256, 12])
def test_compiled_matches_walker_on_localisation_trees(loc_prims, max_steps):
    policy = SupervisorPolicy(max_steps=max_steps)
    killed = 0
    for tree in random_trees(loc_prims, 12, function_bias=0.5):
        compiled, *state_c = loc_world_runs(tree, policy, True)
        walked, *state_w = loc_world_runs(tree, policy, False)
        for a, b in zip(compiled, walked):
            assert_same_outcome(a, b)
        assert state_c == state_w  # accessor log, program fix and radios
        killed += any(o.killed for o in walked)
    if max_steps < 256:
        assert killed  # the kill path was exercised


def test_unbound_terminal_raises_on_both_paths(feed_prims):
    """Without bindings every reached terminal is a configuration error, on the
    walker and on the unchecked compiled path alike."""
    policy = SupervisorPolicy(max_steps=10_000)
    raised = 0
    for tree in random_trees(feed_prims, 13, function_bias=0.75):
        errors = []
        for target in (tree, compile_program(tree)):
            try:
                execute(target, {}, policy)
            except ConfigurationError as exc:
                errors.append(str(exc))
        # a tree whose terminals all sit in untaken branches completes everywhere
        assert errors == [] or (len(errors) == 2 and len(set(errors)) == 1)
        raised += bool(errors)
    assert raised > 100


def test_compiled_program_takes_the_walker_only_when_a_kill_is_possible(
        branch_prims, monkeypatch):
    tree = build_random_tree(branch_prims, 5, random.Random(8), function_bias=1.0)
    program = compile_program(tree)
    walked = []
    real_walk = interpreter._walk
    monkeypatch.setattr(interpreter, "_walk",
                        lambda t, *args: walked.append(t) or real_walk(t, *args))
    bindings = {"a": lambda: 1.0, "b": lambda: 2.0}
    execute(program, bindings, SupervisorPolicy(max_steps=program.size))
    assert walked == []
    execute(program, bindings, SupervisorPolicy(max_steps=program.size - 1))
    assert walked == [tree]
