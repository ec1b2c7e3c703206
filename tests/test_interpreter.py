"""Supervised execution: step budgets, deadlines, laziness, action capture."""
import random

import pytest

from gpislands import interpreter
from gpislands.feed import _feed_environments, default_catalog
from gpislands.interpreter import (
    Environment,
    RunStatus,
    SupervisorPolicy,
    compile_program,
    execute,
)
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
    out = execute(num_const(geo_prims, 2.5), Environment(), SupervisorPolicy(8))
    assert out.status is RunStatus.COMPLETED
    assert out.value == 2.5
    assert out.steps_used == 1
    assert out.actions == []
    assert not out.killed


def test_terminal_bindings_are_read_at_execution(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (ProgramTree(geo_prims.kind("lat")),
                                            num_const(geo_prims, 2.5)))
    env = Environment(bindings={"lat": lambda: 1.5})
    out = execute(t, env, SupervisorPolicy(16))
    assert out.value == 4.0
    assert out.steps_used == 3


def test_unbound_terminal_is_a_configuration_error(geo_prims):
    t = ProgramTree(geo_prims.kind("lat"))
    with pytest.raises(ConfigurationError):
        execute(t, Environment(), SupervisorPolicy(4))


def test_division_by_zero_yields_sentinel(branch_prims):
    t = ProgramTree(branch_prims.kind("div"),
                    (num_const(branch_prims, 1.0), num_const(branch_prims, 0.0)))
    out = execute(t, Environment(), SupervisorPolicy(8))
    assert out.value == 1.0


def test_step_budget_kills_large_tree(branch_prims):
    rng = random.Random(5)
    t = build_random_tree(branch_prims, 6, rng, function_bias=1.0)
    assert tree_size(t) > 10
    out = execute(t, Environment(bindings={"a": lambda: 1.0, "b": lambda: 2.0}),
                  SupervisorPolicy(max_steps=10))
    assert out.killed
    assert out.value is None
    assert out.steps_used == 10


def test_steps_never_exceed_budget(branch_prims):
    rng = random.Random(99)
    env = Environment(bindings={"a": lambda: 0.5, "b": lambda: -0.5})
    for _ in range(300):
        t = build_random_tree(branch_prims, 5, rng)
        out = execute(t, env, SupervisorPolicy(max_steps=12))
        assert out.steps_used <= 12
        if out.status is RunStatus.COMPLETED:
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
    env = Environment(bindings={"a": reader("a", 10.0), "b": reader("b", 20.0)})
    out = execute(t, env, SupervisorPolicy(16))
    assert out.value == 10.0
    assert calls == {"a": 1, "b": 0}  # untaken branch never touched
    assert out.steps_used == 4  # if node, both guards, one branch


def test_action_terminals_record_and_sink():
    enable = terminal("enable_gps", Sort.ACTION)
    request = terminal("request_update", Sort.ACTION)
    prims = PrimitiveSet([sequence_kind(), enable, request], Sort.ACTION)
    t = ProgramTree(prims.kind("seq"), (ProgramTree(enable), ProgramTree(request)))
    seen = []
    env = Environment(
        bindings={"enable_gps": lambda: "enable:gps",
                  "request_update": lambda: "request_fix"},
        action_sink=seen.append,
    )
    out = execute(t, env, SupervisorPolicy(8))
    assert out.status is RunStatus.COMPLETED
    assert out.actions == ["enable:gps", "request_fix"]
    assert seen == out.actions
    assert out.value is None  # an action reports through the sink, not a value


def test_kill_preserves_actions_emitted_so_far():
    ping = terminal("ping", Sort.ACTION)
    prims = PrimitiveSet([sequence_kind(), ping], Sort.ACTION)
    t = ProgramTree(prims.kind("seq"), (ProgramTree(ping), ProgramTree(ping)))
    env = Environment(bindings={"ping": lambda: "ping"})
    out = execute(t, env, SupervisorPolicy(max_steps=2))
    assert out.killed
    assert out.actions == ["ping"]


def test_virtual_deadline_kills(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (ProgramTree(geo_prims.kind("lat")),
                                            num_const(geo_prims, 1.0)))
    now = iter(range(0, 1000, 10))
    env = Environment(bindings={"lat": lambda: 1.0}, clock=lambda: next(now))
    out = execute(t, env, SupervisorPolicy(max_steps=100, max_virtual_seconds=15.0))
    assert out.killed
    assert out.steps_used < 3


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        SupervisorPolicy(max_steps=0)
    with pytest.raises(ConfigurationError):
        SupervisorPolicy(max_steps=4, max_virtual_seconds=0.0)


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
    assert compiled.status is walked.status
    assert same_value(compiled.value, walked.value)
    assert compiled.steps_used == walked.steps_used
    assert compiled.actions == walked.actions


def feed_bindings(prims, rng):
    return {k.name: (lambda v=rng.uniform(-3.0, 3.0): v)
            for k in prims.all_kinds if k.category is Category.TERMINAL}


@pytest.mark.parametrize("max_steps", [512, 24])
def test_compiled_matches_walker_on_feed_trees(feed_prims, max_steps):
    rng = random.Random(max_steps)
    policy = SupervisorPolicy(max_steps=max_steps)
    sizes = []
    for tree in random_trees(feed_prims, 11, function_bias=0.75):
        env = Environment(bindings=feed_bindings(feed_prims, rng))
        program = compile_program(tree)
        assert program.size == tree_size(tree)
        sizes.append(program.size)
        assert_same_outcome(execute(program, env, policy), execute(tree, env, policy))
    # both the unchecked path and the walker fallback were exercised
    assert min(sizes) <= max_steps < max(sizes)


@pytest.mark.parametrize("max_steps", [512, 24])
def test_one_compiled_program_serves_every_feed(feed_prims, max_steps, monkeypatch):
    """One program runs against the seven feed environments in turn, as the
    feed task runs it: branches compiled by an earlier feed are reused by a
    later one, none is compiled twice, and untaken ones never are."""
    compiled = []
    real_compile = interpreter._compile
    monkeypatch.setattr(interpreter, "_compile",
                        lambda node, frame: compiled.append(node) or real_compile(node, frame))
    envs = _feed_environments(default_catalog())
    assert len(envs) == 7
    policy = SupervisorPolicy(max_steps=max_steps)
    fallbacks = kills = partial = 0
    for tree in random_trees(feed_prims, 14, function_bias=0.75):
        compiled.clear()
        program = compile_program(tree)
        outcomes = []
        for env in envs:
            outcome = execute(program, env, policy)
            assert_same_outcome(outcome, execute(tree, env, policy))
            outcomes.append(outcome)
        assert len(compiled) <= tree.size
        fallbacks += tree.size > max_steps
        kills += any(o.killed for o in outcomes)
        partial += tree.size <= max_steps and len(compiled) < tree.size
    assert fallbacks and partial
    if max_steps < 512:
        assert kills


def loc_world_runs(tree, policy, compiled, ticks=8, clock_offset=None):
    """Outcomes of ``ticks`` runs against a fresh world, as the task runs them."""
    world = World(WorldConfig(ticks=ticks), seed=3)
    env = world.environment()
    if clock_offset is not None:
        # a clock that moves while the program runs, so deadlines can fire
        steps = iter(range(10 ** 6))
        env.clock = lambda: world.t + clock_offset * next(steps)
    program = compile_program(tree) if compiled else tree
    outcomes = []
    for tick in range(1, ticks + 1):
        world.t = float(tick)
        outcomes.append(execute(program, env, policy))
    return outcomes, world.program_fix, dict(world.enabled)


@pytest.mark.parametrize("policy, clock_offset", [
    (SupervisorPolicy(max_steps=256), None),
    (SupervisorPolicy(max_steps=12), None),
    (SupervisorPolicy(max_steps=256, max_virtual_seconds=3.0), 0.25),
])
def test_compiled_matches_walker_on_localisation_trees(loc_prims, policy, clock_offset):
    killed = 0
    for tree in random_trees(loc_prims, 12, function_bias=0.5):
        compiled, fix_c, enabled_c = loc_world_runs(tree, policy, True, clock_offset=clock_offset)
        walked, fix_w, enabled_w = loc_world_runs(tree, policy, False, clock_offset=clock_offset)
        for a, b in zip(compiled, walked):
            assert_same_outcome(a, b)
        assert (fix_c, enabled_c) == (fix_w, enabled_w)
        killed += any(o.killed for o in walked)
    if policy.max_steps < 256 or clock_offset is not None:
        assert killed  # the kill path was exercised


def test_unbound_terminal_raises_on_both_paths(feed_prims):
    """Without bindings every reached terminal is a configuration error, on the
    walker, on the unchecked compiled path and on the compiled fallback."""
    unchecked = SupervisorPolicy(max_steps=10_000)
    deadline = SupervisorPolicy(max_steps=10_000, max_virtual_seconds=1.0)
    env = Environment(clock=lambda: 0.0)
    raised = 0
    for tree in random_trees(feed_prims, 13, function_bias=0.75):
        program = compile_program(tree)
        errors = []
        for target, policy in ((tree, unchecked), (program, unchecked), (program, deadline)):
            try:
                execute(target, env, policy)
            except ConfigurationError as exc:
                errors.append(str(exc))
        # a tree whose terminals all sit in untaken branches completes everywhere
        assert errors == [] or (len(errors) == 3 and len(set(errors)) == 1)
        raised += bool(errors)
    assert raised > 100


def test_compiled_program_takes_the_walker_only_when_a_kill_is_possible(
        branch_prims, monkeypatch):
    tree = build_random_tree(branch_prims, 5, random.Random(8), function_bias=1.0)
    program = compile_program(tree)
    walked = []
    real_walk = interpreter._walk
    monkeypatch.setattr(interpreter, "_walk",
                        lambda t, env, policy: walked.append(t) or real_walk(t, env, policy))
    env = Environment(bindings={"a": lambda: 1.0, "b": lambda: 2.0})
    execute(program, env, SupervisorPolicy(max_steps=program.size))
    assert walked == []
    execute(program, env, SupervisorPolicy(max_steps=program.size - 1))
    assert walked == [tree]
    clocked = Environment(bindings=env.bindings, clock=lambda: 0.0)
    execute(program, clocked, SupervisorPolicy(max_steps=program.size,
                                               max_virtual_seconds=1.0))
    assert walked == [tree, tree]
    # a deadline without a clock cannot fire
    execute(program, env, SupervisorPolicy(max_steps=program.size, max_virtual_seconds=1.0))
    assert walked == [tree, tree]
