"""The provider-switching benchmark: world model, scoring, helper, and the
package against the eager oracle of ``reference.py``."""
import dataclasses
import itertools
import json
import math
import random

import pytest
from reference import (
    EagerWorld,
    at_bias,
    direct_trace,
    displace,
    fix_source,
    leaves_and_functions,
    oracle_fitness,
    reference_helper,
)
from sized import always, constant, leaf, loc_requests

from gpislands import interpreter
from gpislands import localisation as localisation_module
from gpislands.localisation import (
    BUDGET_MA,
    DEFAULT_PROVIDERS,
    DEFAULT_TICKS,
    ERROR_HIGH,
    ERROR_LOW,
    LocalisationEvaluator,
    MAX_STEPS,
    MAX_TICKS,
    NO_FIX_SENTINEL,
    Provider,
    Segment,
    World,
    WorldConfig,
    _available,
    _error_draws,
    _layout,
    _truth,
    accuracy_fitness,
    energy_fitness,
    evaluate_localisation,
    load_world_config,
    localisation_helper,
    localisation_primitives,
)
from gpislands.trees import (
    ConfigurationError,
    Individual,
    ProgramTree,
    Sort,
    arithmetic_kinds,
    build_random_tree,
    constant_kind_name,
    deserialize,
)

WIFI = DEFAULT_PROVIDERS[1]
CELL = DEFAULT_PROVIDERS[2]


def single_provider_world(provider, ticks=DEFAULT_TICKS, stationary=True):
    """A minimal world for closed-form checks: one always-available provider."""
    end = float(ticks)
    waypoints = ((0.0, 0.0, 0.0), (end, 0.0, 0.0)) if stationary else (
        (0.0, 0.0, 0.0), (end, 5.0 * end, 0.0))
    return WorldConfig(providers=(provider,), waypoints=waypoints,
                       segments=(Segment(0.0, end, indoor=False, wifi=True),),
                       ticks=ticks)


ENABLE_AND_ASK = "(seq (enable_wifi) (request_update))"


# ---------------------------------------------------------------------------
# scoring formulas

def test_accuracy_fitness_piecewise():
    a = 40.0
    for d, expected in [(0.0, 1.0), (a, 0.5), (1.5 * a, 0.25), (2 * a, 0.0),
                        (3 * a, 0.0)]:
        assert accuracy_fitness((d, 0.0), (0.0, 0.0), a) == pytest.approx(
            expected, abs=1e-12)


def test_accuracy_fitness_degenerate_cases():
    assert accuracy_fitness(None, (0.0, 0.0), 40.0) == 0.0
    assert accuracy_fitness((0.0, 0.0), (0.0, 0.0), 0.0) == 1.0
    assert accuracy_fitness((1e-9, 0.0), (0.0, 0.0), 0.0) == 0.0


def test_energy_fitness_line():
    for power, expected in [(0.0, 1.0), (31.5, 0.5), (63.0, 0.0), (100.0, 0.0)]:
        assert energy_fitness(power) == pytest.approx(expected, abs=1e-12)


def test_budget_current_matches_battery_over_day():
    assert BUDGET_MA == 63.0
    assert abs(1400.0 / 22.0 - BUDGET_MA) < 1.0  # round number


# ---------------------------------------------------------------------------
# the world

def fix_position(config, seed, name, t):
    """Where provider ``name`` places the phone at tick ``t`` with the
    errors of ``seed``, worked out as the scoring pass does it."""
    source = fix_source(config, name, t)
    return displace(*source, _error_draws(seed, source[2] + 2))


def table_source(config, name, t):
    """The tick table's source for provider ``name`` at tick ``t``."""
    return {p.name: source for p, source in _layout(config).ticks[t].ready}[name]


def test_walk_interpolates_waypoints():
    config = WorldConfig()
    assert _truth(config.waypoints, 0.0) == (0.0, 0.0)
    assert _truth(config.waypoints, 30.0) == (50.0, 0.0)
    assert _truth(config.waypoints, 45.0) == (100.0, 0.0)
    assert _truth(config.waypoints, 99.0) == (100.0, 0.0)  # clamps at the final waypoint
    ticks = _layout(config).ticks
    assert list(ticks) == [float(tick) for tick in range(config.ticks + 1)]
    assert all(ticks[t].ready for t in ticks)  # cell sees the phone everywhere
    assert all(source[0] == _truth(config.waypoints, t)
               for t in ticks for _, source in ticks[t].ready)


def test_provider_availability_follows_segments():
    segments = WorldConfig().segments
    assert not _available(segments, "gps", 5.0)    # indoors at home
    assert _available(segments, "gps", 25.0)       # out on the walk
    assert not _available(segments, "wifi", 25.0)  # no coverage outside
    assert _available(segments, "wifi", 45.0)      # office network
    assert all(_available(segments, "cell", t) for t in (0.0, 25.0, 55.0))
    ticks = _layout(WorldConfig()).ticks
    visible = lambda t: [provider.name for provider, _ in ticks[t].ready]  # sharpest first
    assert visible(5.0) == ["wifi", "cell"]
    assert visible(25.0) == ["gps", "cell"]
    assert visible(45.0) == ["wifi", "cell"]


def test_fix_errors_are_frozen_per_provider_and_tick():
    config = WorldConfig()
    fixed = fix_position(config, "w", "wifi", 7.0)
    assert fix_position(config, "w", "wifi", 7.0) == fixed
    assert fix_position(WorldConfig(), "w", "wifi", 7.0) == fixed
    assert fix_position(config, "different", "wifi", 7.0) != fixed
    assert fix_position(config, "w", "cell", 7.0) != fixed
    assert fix_position(config, "w", "wifi", 8.0) != fixed


def test_fix_error_magnitude_within_band():
    assert (ERROR_LOW, ERROR_HIGH) == (0.25, 0.75)
    waypoints = WorldConfig().waypoints
    for tick in range(61):
        d = math.dist(fix_position(WorldConfig(), 3, "wifi", float(tick)),
                      _truth(waypoints, float(tick)))
        assert 0.25 * WIFI.radius_m <= d <= 0.75 * WIFI.radius_m


def test_enable_is_sticky_and_disable_clears():
    world = World(WorldConfig())
    energy = _layout(WorldConfig()).energy
    env = world.environment()
    world.t = 5.0
    assert env["enable_gps"]() == "enable:gps"
    world.t = 8.0
    env["enable_gps"]()  # re-enabling never restarts the warm-up
    assert world.enabled["gps"] == 5.0
    env["enable_cell"]()
    assert world.radios == 0b101  # gps and cell, bits in config order
    assert energy[world.radios] == energy_fitness(145.0)
    assert env["disable_gps"]() == "disable:gps"
    assert world.enabled["gps"] is None
    assert world.radios == 0b100
    assert energy[world.radios] == energy_fitness(5.0)


def test_power_adds_the_radios_left_to_right():
    """15.0 + 21.2 + 25.9 is 62.1 left to right; the compensated ``sum`` of
    Python 3.12+ gives 62.099999999999994, whose energy fitness has other
    bits, so it would move the fitness between interpreters."""
    draws = (15.0, 21.2, 25.9)
    providers = tuple(Provider(name, radius_m=5.0, draw_ma=draw, first_fix_s=1.0)
                      for name, draw in zip(("gps", "wifi", "cell"), draws))
    config = WorldConfig(providers=providers)
    world = World(config)
    env = world.environment()
    for name in ("gps", "wifi", "cell"):
        env[f"enable_{name}"]()
    assert energy_fitness(62.1) != energy_fitness(math.fsum(draws))
    assert _layout(config).energy[world.radios] == energy_fitness(62.1)


def test_switching_a_radio_the_config_lacks_does_nothing():
    world = World(single_provider_world(WIFI))
    env = world.environment()
    world.t = 3.0
    for name in ("gps", "cell"):
        assert env[f"enable_{name}"]() == f"enable:{name}"
        assert env[f"disable_{name}"]() == f"disable:{name}"
    assert world.enabled == {"wifi": None}
    assert world.radios == 0
    assert env["request_update"]() == "request_fix"
    assert world.program_fix is None


@pytest.mark.parametrize("providers", [DEFAULT_PROVIDERS, DEFAULT_PROVIDERS[::-1]])
def test_request_fix_prefers_the_sharpest_ready_provider(providers):
    world = World(WorldConfig(providers=providers))
    env = world.environment()
    world.t = 50.0  # indoors at the office: wifi and cell, no gps
    world.enabled["wifi"] = 0.0
    world.enabled["cell"] = 0.0
    assert env["request_update"]() == "request_fix"
    assert env["last_accuracy"]() == WIFI.radius_m
    assert env["last_fix_age"]() == 0.0


def test_fix_requires_warm_up_and_availability():
    world = World(WorldConfig())
    env = world.environment()
    world.t = 1.0
    env["enable_wifi"]()
    env["request_update"]()  # too soon: first fix needs 2 s
    assert world.program_fix is None
    assert env["last_fix_age"]() == env["last_accuracy"]() == NO_FIX_SENTINEL
    world.t = 25.0  # outdoors now, wifi out of range
    env["request_update"]()
    assert world.program_fix is None
    world.t = 45.0
    env["request_update"]()
    assert world.program_fix == (45.0, fix_source(WorldConfig(), "wifi", 45.0))
    assert world.program_fix[1] is table_source(WorldConfig(), "wifi", 45.0)


def test_stale_fix_ages():
    world = World(WorldConfig())
    env = world.environment()
    world.enabled["cell"] = 0.0
    world.t = 5.0
    env["request_update"]()
    world.t = 9.0
    assert env["last_fix_age"]() == 4.0
    assert env["last_accuracy"]() == CELL.radius_m


def test_reference_on_ticks_is_the_sharpest_provider_on_since_0():
    """The tick table's reference is the eager oracle's pick with every
    provider on since 0, tie-break and draw index included, and its
    position the eager table's."""
    for config in ORACLE_CONFIGS.values():
        ticks = _layout(config).ticks
        eager = EagerWorld(config, 9)
        for tick in range(config.ticks + 1):
            eager.t = t = float(tick)
            best = eager.best(lambda p: 0.0)  # every provider on since 0
            source = ticks[t].reference_source
            if best is None:
                assert source is None
                continue
            assert source == fix_source(config, best.name, t)
            assert displace(*source, _error_draws(9, source[2] + 2)) == (
                eager.fix_position(best.name, t))
    ticks = _layout(WorldConfig()).ticks
    assert ticks[0.0].reference_source is None  # nothing has warmed up yet
    assert ticks[30.0].reference_source[1] == GPS.radius_m  # outdoors: gps


def test_reference_power_is_never_charged(loc_prims):
    """The reference rides gps on the walk, yet a cell-only program pays
    for cell alone."""
    config = WorldConfig()
    tree = deserialize("(seq (enable_cell) (request_update))", loc_prims)
    trace = localisation_module._control_trace(tree, config)
    assert len(trace) == config.ticks - 1  # cell is ready from tick 2
    assert {energy for _, _, energy in trace} == {energy_fitness(CELL.draw_ma)}
    assert any(reference[1] == GPS.radius_m for _, reference, _ in trace)


# ---------------------------------------------------------------------------
# whole-walk evaluation oracles

def test_single_provider_walk_closed_form(loc_prims):
    """Quiet provider, zero error radius: every ready tick scores exactly
    accuracy 1 x energy (1 - draw/63)."""
    quiet = Provider("gps", radius_m=0.0, draw_ma=30.0, first_fix_s=10.0)
    tree = deserialize("(seq (enable_gps) (request_update))", loc_prims)
    fitness = evaluate_localisation(tree, single_provider_world(quiet), 8)
    # enabled at tick 1, first fix at tick 11: 50 of 60 ticks score 33/63
    assert fitness == pytest.approx(50 * (1 - 30 / 63) / 60, rel=1e-12)


def test_wifi_walk_closed_form(loc_prims):
    fitness = evaluate_localisation(deserialize(ENABLE_AND_ASK, loc_prims),
                                    single_provider_world(WIFI), 8)
    # ready from tick 3 onwards; program and reference share each tick's error
    assert fitness == pytest.approx(58 * (1 - 30 / 63) / 60, rel=1e-12)


def test_greedy_gps_exhausts_the_budget(loc_prims):
    config = single_provider_world(DEFAULT_PROVIDERS[0])
    tree = deserialize("(seq (enable_gps) (request_update))", loc_prims)
    assert evaluate_localisation(tree, config, 8) == 0.0  # 140 mA >> 63 mA budget


def at_the_edge(prims, fresh_size, stale_size):
    """``(if_greater (last_fix_age) 2.0 fresh stale)``: while the program's
    fix is older than 2 s (ticks 1, 2, 5, 8, ...) it runs
    :func:`loc_requests` of ``fresh_size`` nodes, 3 steps more in all, and
    otherwise, behind an ``if_greater`` that always holds, one of
    ``stale_size`` nodes, 6 steps more."""
    stale = always(prims, loc_requests(prims, stale_size), leaf(prims, "disable_cell"))
    return ProgramTree(prims.kind("if_greater"), (
        leaf(prims, "last_fix_age"), constant(prims, 2.0), loc_requests(prims, fresh_size),
        stale))


def killed_at_tick_3(prims):
    """Takes exactly the step budget at ticks 1 and 2, and one step more at
    tick 3, where a fix from tick 2 makes it take the stale branch."""
    return at_the_edge(prims, MAX_STEPS - 3, MAX_STEPS - 5)


def test_kill_stops_scoring_but_keeps_earlier_ticks(loc_prims):
    """A program that outgrows its step budget midway keeps what it earned."""
    fitness = evaluate_localisation(killed_at_tick_3(loc_prims),
                                    single_provider_world(CELL, ticks=5), 1)
    # tick 1: no fix yet; tick 2: fix lands, scores (1 - 5/63); tick 3: the
    # stale branch needs 257 steps and is killed; ticks 4-5 score nothing
    assert fitness == pytest.approx((1 - 5 / 63) / 5, rel=1e-12)


def test_immediate_kill_scores_zero(loc_prims):
    fitness = evaluate_localisation(loc_requests(loc_prims, MAX_STEPS + 1),
                                    single_provider_world(CELL, ticks=5), 1)
    assert fitness == 0.0


def test_default_walk_is_seed_deterministic(loc_prims):
    tree = deserialize(ENABLE_AND_ASK, loc_prims)
    a = evaluate_localisation(tree, WorldConfig(), "walk")
    b = evaluate_localisation(tree, WorldConfig(), "walk")
    assert a == b
    assert 0.0 < a < 1.0


def test_evaluator_draws_a_fresh_world_per_call(loc_prims):
    # a lazy refresher: its stale fixes drift by world noise, so each fresh
    # world scores differently (an every-tick refresher would not)
    member = Individual.from_tree(deserialize(LAZY_REFRESHER, loc_prims))
    evaluator = LocalisationEvaluator(WorldConfig(), random.Random("s"))
    first, second = evaluator(member), evaluator(member)
    assert first != second  # different world noise
    replay = LocalisationEvaluator(WorldConfig(), random.Random("s"))
    assert [replay(member), replay(member)] == [first, second]


# ---------------------------------------------------------------------------
# the helper predicate

@pytest.mark.parametrize("text,ok", [
    (ENABLE_AND_ASK, True),
    ("(seq (enable_gps) (request_update))", True),
    ("(if_greater (last_fix_age) (const:Number 5.0) (enable_cell)"
     " (request_update))", True),   # both nodes present, branches aside
    ("(request_update)", False),
    ("(seq (enable_gps) (enable_wifi))", False),
    ("(seq (disable_gps) (request_update))", False),
])
def test_helper_requires_enable_and_request(loc_prims, text, ok):
    assert localisation_helper(deserialize(text, loc_prims)) is ok


def test_helper_agrees_with_a_full_walk(loc_prims):
    rng = random.Random(31)
    verdicts = []
    biased = [at_bias(loc_prims, bias) for bias in (0.3, 0.6, 0.9)]
    for depth in range(1, 10):
        for grown in biased:
            for _ in range(40):
                tree = build_random_tree(grown, depth, rng)
                verdict = localisation_helper(tree)
                assert verdict is reference_helper(tree)
                verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------------------
# the shallow exhaustive oracle

def test_depth2_brute_force_matches_closed_form(loc_prims):
    """Nothing a two-level program can do beats enable-then-ask on wifi."""
    config = single_provider_world(WIFI)
    leaves_a = [ProgramTree(k) for k in leaves_and_functions(loc_prims, Sort.ACTION)[0]]
    leaves_n = [ProgramTree(k) for k in leaves_and_functions(loc_prims, Sort.NUMBER)[0]
                if k.name != constant_kind_name(Sort.NUMBER)]
    leaves_n += [constant(loc_prims, v) for v in (0.5, 10.0, 50.0)]
    trees = list(leaves_a)
    trees += [ProgramTree(loc_prims.kind("seq"), pair)
              for pair in itertools.product(leaves_a, repeat=2)]
    trees += [ProgramTree(loc_prims.kind("if_greater"), (a, b, x, y))
              for a, b in itertools.product(leaves_n, repeat=2)
              for x, y in itertools.product(leaves_a, repeat=2)]
    best = max(evaluate_localisation(t, config, 8) for t in trees)
    assert best == pytest.approx(58 * (1 - 30 / 63) / 60, rel=1e-12)


# ---------------------------------------------------------------------------
# config files

def test_world_config_round_trip(tmp_path):
    data = {
        "providers": [{"name": "gps", "radius_m": 10, "draw_ma": 2,
                       "first_fix_s": 1}],
        "waypoints": [[0, 0, 0], [10, 50.5, 0]],
        "segments": [{"start": 0, "end": 10.0, "indoor": False, "wifi": False}],
        "ticks": 10,
    }
    path = tmp_path / "world.json"
    path.write_text(json.dumps(data))
    config = load_world_config(str(path))
    # JSON ints and floats alike become floats
    assert config.providers == (Provider("gps", 10.0, 2.0, 1.0),)
    assert repr(config.waypoints) == repr(((0.0, 0.0, 0.0), (10.0, 50.5, 0.0)))
    assert repr((config.segments[0].start, config.segments[0].end)) == repr((0.0, 10.0))
    assert config.ticks == 10
    assert config.segments[0].indoor is False


def test_world_config_defaults_fill_in(tmp_path):
    path = tmp_path / "world.json"
    path.write_text(json.dumps({"ticks": 30}))
    config = load_world_config(str(path))
    assert config.providers == DEFAULT_PROVIDERS
    assert config.ticks == 30


def test_bad_world_config_raises(tmp_path):
    path = tmp_path / "world.json"
    path.write_text(json.dumps({"providers": [{"name": "x"}]}))
    with pytest.raises(ConfigurationError):
        load_world_config(str(path))


def test_a_world_lasts_at_most_a_day_of_one_second_ticks():
    assert MAX_TICKS == 24 * 60 * 60
    assert WorldConfig(ticks=MAX_TICKS).ticks == MAX_TICKS
    for ticks in (MAX_TICKS + 1, 10**8):  # rejected before any tick is laid out
        with pytest.raises(ConfigurationError, match="ticks"):
            WorldConfig(ticks=ticks)


# ---------------------------------------------------------------------------
# against the eager oracle, ``reference.oracle_fitness``

GPS = DEFAULT_PROVIDERS[0]
#: A gps that draws less than the budget current, so its fixes score energy.
FRUGAL_GPS = Provider("gps", radius_m=5.0, draw_ma=40.0, first_fix_s=10.0)

ORACLE_CONFIGS = {
    "default": WorldConfig(),
    "wifi": single_provider_world(WIFI),
    "gps-walking": single_provider_world(FRUGAL_GPS, stationary=False),
    "cell-short": single_provider_world(CELL, ticks=20),
    # equal radii: the first in config order wins a tie
    "tied": WorldConfig(providers=(Provider("wifi", 40.0, 30.0, 2.0),
                                   Provider("cell", 40.0, 5.0, 1.0), GPS)),
    # a 0 m gps, outdoors from tick 20: cell fixes and stale gps fixes are
    # scored against a 0 m reference, on the move and, from tick 40, standing
    # still, where a stale gps fix lies at distance 0
    "zero-radius": WorldConfig(
        providers=(Provider("gps", 0.0, 40.0, 10.0), CELL),
        segments=(Segment(0.0, 20.0, indoor=True, wifi=False),
                  Segment(20.0, 60.0, indoor=False, wifi=False))),
}


HAND_TREES = (
    # two ready providers of equal radius: the tie-break decides the fix
    "(seq (seq (enable_cell) (enable_wifi)) (seq (enable_gps) (request_update)))",
    "(seq (enable_cell) (seq (enable_wifi) (request_update)))",
    # a gps fix kept for two ticks: stale fixes of the provider that is the
    # reference
    "(if_greater (last_fix_age) (const:Number 2.0)"
    " (seq (enable_gps) (request_update)) (enable_gps))",
)


def test_arithmetic_is_the_shared_definition(loc_prims):
    """``add`` and ``mul`` run the very functions the shared arithmetic
    kinds run, so the two tasks cannot disagree on a sum or product."""
    shared = {kind.name: kind.fn for kind in arithmetic_kinds()}
    for name in ("add", "mul"):
        assert loc_prims.kind(name).fn is shared[name]


@pytest.fixture(scope="module")
def oracle_trees():
    prims = localisation_primitives()
    rng = random.Random(2024)
    trees = [build_random_tree(prims, 3 + i % 4, rng) for i in range(200)]
    helped = sum(localisation_helper(tree) for tree in trees)
    assert 0 < helped < len(trees)  # helper-rejected trees are scored too
    # killed_at_tick_3 is killed at the tick after its first fix, and would
    # fix again later if a kill did not end the walk
    return trees + [deserialize(text, prims) for text in HAND_TREES] + [killed_at_tick_3(prims)]


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_scoring_matches_the_eager_oracle(oracle_trees, name):
    config = ORACLE_CONFIGS[name]
    kills = scored = 0
    for i, tree in enumerate(oracle_trees):
        for seed in (i, f"again:{i}"):  # the second world reuses the trace
            want, killed = oracle_fitness(tree, config, seed)
            assert evaluate_localisation(tree, config, seed) == want
            kills += killed
            scored += want > 0.0
    assert kills and scored


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_evaluator_matches_the_eager_oracle(oracle_trees, name):
    """Repeated members, as elitism and crossover fallbacks make them, draw
    a fresh world each and score as the oracle does."""
    config = ORACLE_CONFIGS[name]
    pick = random.Random(name)
    members = [Individual.from_tree(pick.choice(oracle_trees)) for _ in range(120)]
    evaluator = LocalisationEvaluator(config, random.Random(5))
    seeds = random.Random(5)
    for member in members:
        want, _ = oracle_fitness(member.tree, config, seeds.getrandbits(48))
        assert evaluator(member) == want


@pytest.fixture
def program_runs(monkeypatch):
    """Every program run, as the ``(value, steps_used)`` it gave."""
    # the trace cache is shared by the whole process; start each count cold
    localisation_module._control_trace.cache_clear()
    results = []
    real = interpreter.Program.run

    def counted(program):
        result = real(program)
        results.append(result)
        return result

    monkeypatch.setattr(interpreter.Program, "run", counted)
    return results


LAZY_REFRESHER = ("(if_greater (last_fix_age) (const:Number 5.0)"
                  " (seq (enable_wifi) (request_update)) (enable_wifi))")


def test_a_second_evaluation_runs_no_program(loc_prims, program_runs):
    tree = deserialize(LAZY_REFRESHER, loc_prims)
    first = evaluate_localisation(tree, WorldConfig(), 1)
    assert len(program_runs) == WorldConfig().ticks
    second = evaluate_localisation(tree, WorldConfig(), 2)
    assert len(program_runs) == WorldConfig().ticks
    assert first != second  # each world still scores with its own errors
    assert evaluate_localisation(tree, WorldConfig(), 1) == first


def test_a_world_keeps_the_hash_the_dataclass_would_generate():
    config, twin = WorldConfig(), WorldConfig()
    assert config._hash is None  # worked out on first use, never before
    assert hash(config) == hash((config.providers, config.waypoints, config.segments,
                                 config.ticks))
    assert config._hash == hash(config)
    assert twin == config and twin is not config and hash(twin) == hash(config)
    assert "_hash" not in repr(config)
    shorter = dataclasses.replace(config, ticks=30)
    assert shorter == WorldConfig(ticks=30) != config
    assert hash(shorter) == hash((config.providers, config.waypoints, config.segments, 30))
    assert dataclasses.replace(config) == config


# worlds that differ from the default in the walk's length, and in a figure
# the energy factor reads
OTHER_CONFIGS = (WorldConfig(ticks=30), WorldConfig(providers=(FRUGAL_GPS, WIFI, CELL)))


def test_other_inputs_recompute_the_trace(loc_prims, program_runs):
    tree = deserialize(LAZY_REFRESHER, loc_prims)
    config = WorldConfig()
    for other_config in OTHER_CONFIGS:
        evaluate_localisation(tree, config, 3)
        before = len(program_runs)
        got = evaluate_localisation(tree, other_config, 3)
        assert len(program_runs) > before
        assert got == oracle_fitness(tree, other_config, 3)[0]
    before = len(program_runs)
    # equal inputs hit the cache, even as distinct objects
    evaluate_localisation(tree, WorldConfig(ticks=20), 4)
    evaluate_localisation(tree, WorldConfig(ticks=20), 4)
    assert len(program_runs) == before + 20


def test_a_killed_tick_adds_no_trace_entry_and_no_later_tick_runs(loc_prims, program_runs):
    """The killed tick's run goes on past the budget, where it asks for a
    fix, on the control pass's own world; that fix reaches no trace."""
    config = single_provider_world(CELL, ticks=5)
    # the same program with small branches: it is never killed
    full = localisation_module._control_trace(at_the_edge(loc_prims, 7, 7), config)
    assert len(program_runs) == 5
    # tick 1: no fix yet; from tick 2 every tick fixes anew (error index 2 * tick)
    assert [source[2] for source, _, _ in full] == [4, 6, 8, 10]
    program_runs.clear()
    killed = localisation_module._control_trace(killed_at_tick_3(loc_prims), config)
    # exactly the budget at ticks 1 and 2; at tick 3 the stale branch needs
    # one step more, its request_update the 257th
    assert program_runs == [("request_fix", MAX_STEPS)] * 2 + [("request_fix", MAX_STEPS + 1)]
    assert killed == full[:1]


# ---------------------------------------------------------------------------
# what the passes skip: reference fixes and energy by radio set

FRESH_EVERY_TICK = "(seq (enable_cell) (request_update))"
# fixes afresh at ticks 2, 5, 8, ...; keeps the same fix for the two between
REFRESH_WHEN_OLD = ("(if_greater (last_fix_age) (const:Number 2.0)"
                    " (seq (enable_cell) (request_update)) (enable_cell))")


class LoggedDraws(list):
    """An evaluation's error draws, logging the index of every draw read."""

    def __init__(self, draws, read):
        super().__init__(draws)
        self.read = read

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


@pytest.fixture
def draws_read(monkeypatch):
    """The index of every error draw the scoring pass reads, in order: a
    fix is displaced by reading its magnitude's index and then its angle's,
    the next one."""
    read = []
    real = localisation_module._error_draws
    monkeypatch.setattr(localisation_module, "_error_draws",
                        lambda seed, count: LoggedDraws(real(seed, count), read))
    return read


def displaced(read):
    """The magnitude indices of the fixes displaced by reading ``read``."""
    assert read[1::2] == [i + 1 for i in read[::2]]
    return read[::2]


def test_a_trace_of_reference_fixes_displaces_nothing(loc_prims, draws_read):
    config = single_provider_world(CELL)
    tree = deserialize(FRESH_EVERY_TICK, loc_prims)
    trace = localisation_module._control_trace(tree, config)
    assert len(trace) == config.ticks - 1  # the cell warms up over tick 1
    assert all(fix is reference for fix, reference, _ in trace)
    for seed in range(5):
        want, _ = oracle_fitness(tree, config, seed)
        assert evaluate_localisation(tree, config, seed) == want
    assert draws_read == []


@pytest.mark.parametrize("stationary", [True, False])
def test_a_stale_fix_is_displaced_where_a_later_entry_needs_it(loc_prims, draws_read,
                                                               stationary):
    """An entry whose fix is the reference fix displaces nothing; the next
    entry that holds the same fix, now stale, displaces it and its own
    reference, and the entries after it that keep the fix only their
    reference.  Scoring a stale fix as the reference fix, as a test of the
    provider alone would, misses the oracle."""
    config = single_provider_world(CELL, stationary=stationary)
    tree = deserialize(REFRESH_WHEN_OLD, loc_prims)
    trace = localisation_module._control_trace(tree, config)
    stale = [fix for fix, reference, _ in trace if fix is not reference]
    assert 0 < len(stale) < len(trace)
    # one provider: a stale entry differs from its reference in the tick alone
    assert all(fix[1] == reference[1] for fix, reference, _ in trace)
    per_evaluation = len(stale) + len({id(fix) for fix in stale})
    for seed in range(5):
        want, _ = oracle_fitness(tree, config, seed)
        draws_read.clear()
        got = evaluate_localisation(tree, config, seed)
        assert got == want
        assert len(displaced(draws_read)) == per_evaluation
        perfect = sum(energy for _, _, energy in trace) / config.ticks
        assert got < perfect


def test_the_radio_set_holds_exactly_the_enabled_radios():
    config = WorldConfig(providers=(WIFI, CELL))  # no gps
    world = World(config)
    env = world.environment()
    bits = {"wifi": 1, "cell": 2}  # config order
    switches = [f"{verb}_{radio}" for verb in ("enable", "disable")
                for radio in ("gps", "wifi", "cell")]
    rng = random.Random(17)
    seen = set()
    calls = ["enable_wifi", "enable_wifi"] + [rng.choice(switches) for _ in range(300)]
    for step, name in enumerate(calls):
        world.t = float(step)
        env[name]()
        assert world.radios == sum(bits[radio] for radio, since in world.enabled.items()
                                   if since is not None)
        seen.add(world.radios)
    assert world.enabled.keys() == bits.keys()
    assert seen == {0, 1, 2, 3}


def switching_trees(prims, count=150, seed=7):
    """Random programs the helper accepts, grown deep and bushy enough that
    many switch radios from tick to tick."""
    rng = random.Random(seed)
    prims = at_bias(prims, 0.7)
    trees = []
    while len(trees) < count:
        tree = build_random_tree(prims, 6, rng)
        if localisation_helper(tree):
            trees.append(tree)
    return trees


def test_the_energy_table_gives_each_radio_set_its_energy(loc_prims, monkeypatch):
    """A layout works out each radio set's energy factor once, and a
    control pass looks it up without working any out."""
    calls = []
    real = localisation_module.energy_fitness
    monkeypatch.setattr(localisation_module, "energy_fitness",
                        lambda *args: calls.append(args) or real(*args))
    trees = switching_trees(loc_prims)
    lookups = draws = switching = 0
    for name in ("default", "tied", "wifi", "gps-walking"):
        config = ORACLE_CONFIGS[name]
        _layout.cache_clear()
        localisation_module._control_trace.cache_clear()
        calls.clear()
        assert len(_layout(config).energy) == 2 ** len(config.providers)
        assert len(calls) == 2 ** len(config.providers)  # one per radio set
        draws += len(calls)
        for tree in trees:
            want, radio_sets = direct_trace(tree, config)
            calls.clear()
            assert localisation_module._control_trace(tree, config) == want
            assert calls == []
            lookups += len(want)
            switching += len(radio_sets) > 1
    assert switching > 10 and lookups > 10 * draws


# Twins: distinct tree objects that compare equal.  A signed zero does not
# change what the program does, so 0.0 and -0.0 constants make twins too.
TWIN_TEXTS = (
    (LAZY_REFRESHER, LAZY_REFRESHER),
    ("(if_greater (mul (last_fix_age) (const:Number 0.0)) (const:Number -0.0)"
     " (seq (enable_gps) (request_update)) (seq (enable_cell) (request_update)))",
     "(if_greater (mul (last_fix_age) (const:Number -0.0)) (const:Number 0.0)"
     " (seq (enable_gps) (request_update)) (seq (enable_cell) (request_update)))"),
    ("(if_greater (add (const:Number -0.0) (last_accuracy)) (const:Number 50.0)"
     " (seq (enable_wifi) (request_update)) (disable_wifi))",
     "(if_greater (add (const:Number 0.0) (last_accuracy)) (const:Number 50.0)"
     " (seq (enable_wifi) (request_update)) (disable_wifi))"),
)


def nan_twin(prims, nan):
    """``(if_greater nan (last_fix_age) (disable_cell) (seq ...))`` with the
    given NaN object as its constant."""
    return ProgramTree(prims.kind("if_greater"), (
        constant(prims, nan), leaf(prims, "last_fix_age"), leaf(prims, "disable_cell"),
        ProgramTree(prims.kind("seq"), (leaf(prims, "enable_cell"),
                                        leaf(prims, "request_update")))))


def twin_pairs(prims):
    pairs = [(deserialize(a, prims), deserialize(b, prims)) for a, b in TWIN_TEXTS]
    nan = float("nan")
    pairs.append((nan_twin(prims, nan), nan_twin(prims, nan)))
    return pairs


def test_twins_are_distinct_equal_trees(loc_prims):
    for a, b in twin_pairs(loc_prims):
        assert a is not b and a == b and hash(a) == hash(b)
    signed = [deserialize(text, loc_prims) for text in TWIN_TEXTS[1]]
    assert math.copysign(1.0, signed[0].children[0].children[1].value) == 1.0
    assert math.copysign(1.0, signed[1].children[0].children[1].value) == -1.0


@pytest.mark.parametrize("swap", [False, True])
def test_a_twin_shares_its_partners_trace(loc_prims, program_runs, swap):
    config = WorldConfig()
    for pair in twin_pairs(loc_prims):
        first, second = reversed(pair) if swap else pair
        localisation_module._control_trace.cache_clear()
        # the partner runs the program; the twin runs none of it
        for seed, tree, runs in ((1, first, config.ticks), (2, second, 0)):
            before = len(program_runs)
            got = evaluate_localisation(tree, config, seed)
            assert got == oracle_fitness(tree, config, seed)[0]
            assert len(program_runs) - before == runs
        info = localisation_module._control_trace.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_nans_that_are_not_the_same_object_miss(loc_prims, program_runs):
    a, b = nan_twin(loc_prims, float("nan")), nan_twin(loc_prims, float("nan"))
    assert a != b
    config = WorldConfig()
    for seed, tree in enumerate((a, b)):
        got = evaluate_localisation(tree, config, seed)
        assert got == oracle_fitness(tree, config, seed)[0]
    assert len(program_runs) == 2 * config.ticks
    assert localisation_module._control_trace.cache_info().hits == 0


def test_a_twin_under_other_inputs_recomputes(loc_prims, program_runs):
    for first, second in twin_pairs(loc_prims):
        evaluate_localisation(first, WorldConfig(), 3)
        for other_config in OTHER_CONFIGS:
            before = len(program_runs)
            got = evaluate_localisation(second, other_config, 3)
            assert len(program_runs) > before
            assert got == oracle_fitness(second, other_config, 3)[0]
    info = localisation_module._control_trace.cache_info()
    assert info.hits == 0
    assert info.misses == (1 + len(OTHER_CONFIGS)) * len(twin_pairs(loc_prims))


def test_error_draws_match_the_eager_table():
    """Every provider's fix at every tick, and every source of the tick
    table, displaced as the scoring pass does it, lies where the eager
    table puts it."""
    config = ORACLE_CONFIGS["tied"]
    eager = EagerWorld(config, "fp")
    draws = _error_draws("fp", 2 * len(config.providers) * (config.ticks + 1))
    for provider in config.providers:
        for tick in range(config.ticks + 1):
            assert fix_position(config, "fp", provider.name, float(tick)) == (
                eager.fix_position(provider.name, float(tick)))
    for t, tick in _layout(config).ticks.items():
        for provider, source in tick.ready:
            assert source == fix_source(config, provider.name, t)
            assert displace(*source, draws) == eager.fix_position(provider.name, t)


def test_error_draws_are_a_prefix_of_the_seeds_stream(monkeypatch):
    config = ORACLE_CONFIGS["tied"]
    count = 2 * len(config.providers) * (config.ticks + 1)
    draw = random.Random("world:fp").random
    whole = [draw() for _ in range(count)]
    for n in (1, 7, 40, count):
        assert _error_draws("fp", n) == whole[:n]
    streams = []
    real = random.Random
    monkeypatch.setattr(localisation_module.random, "Random",
                        lambda *args: streams.append(args) or real(*args))
    assert _error_draws("fp", 0) == []
    assert streams == []  # no stream is made for no draws


def test_scoring_draws_exactly_the_prefix_it_reads(oracle_trees, draws_read,
                                                   monkeypatch):
    """An evaluation draws as far into its stream as the highest draw the
    scoring pass reads (each fix reads two from its index), and no further."""
    counts = []
    real = localisation_module._error_draws
    monkeypatch.setattr(localisation_module, "_error_draws",
                        lambda seed, count: counts.append(count) or real(seed, count))
    partial = none = 0
    for config in ORACLE_CONFIGS.values():
        whole = 2 * len(config.providers) * (config.ticks + 1)
        for i, tree in enumerate(oracle_trees):
            counts.clear()
            draws_read.clear()
            evaluate_localisation(tree, config, i)
            read = max((j + 2 for j in displaced(draws_read)), default=0)
            assert counts == [read]
            partial += 0 < read < whole
            none += read == 0
    assert partial and none


def test_a_second_evaluation_of_an_equal_tree_builds_no_world(loc_prims, monkeypatch):
    """Only the control pass builds a world, and an equal tree's second
    evaluation scores its cached trace without one."""
    localisation_module._control_trace.cache_clear()
    built = []
    init = World.__init__

    def counted(world, *args, **kwargs):
        built.append(args)
        init(world, *args, **kwargs)

    monkeypatch.setattr(World, "__init__", counted)
    evaluator = LocalisationEvaluator(WorldConfig(), random.Random(3))
    evaluator(Individual.from_tree(deserialize(LAZY_REFRESHER, loc_prims)))
    assert len(built) == 1
    evaluator(Individual.from_tree(deserialize(LAZY_REFRESHER, loc_prims)))
    assert len(built) == 1


def test_program_fix_records_its_source():
    world = World(WorldConfig())
    env = world.environment()
    world.enabled["wifi"] = 0.0
    world.t = 5.0
    env["request_update"]()
    first_draw = 2 * (WorldConfig().ticks + 1) * 1  # wifi is the second provider
    assert world.program_fix == (
        5.0, (_truth(WorldConfig().waypoints, 5.0), WIFI.radius_m, first_draw + 10))
    assert world.program_fix[1] is table_source(WorldConfig(), "wifi", 5.0)
    eager = EagerWorld(WorldConfig(), 2)
    fixed = world.program_fix
    world.t = 8.0
    assert world.program_fix is fixed  # stale
    source = fixed[1]
    assert displace(*source, _error_draws(2, source[2] + 2)) == (
        eager.fix_position("wifi", 5.0))


@pytest.mark.parametrize("providers", [DEFAULT_PROVIDERS, DEFAULT_PROVIDERS[::-1]])
def test_a_program_fix_of_the_reference_provider_is_the_reference_fix(providers):
    """The program's fix and the reference fix of one provider and tick are
    one object; a fix of another provider, or of another tick, is not."""
    config = WorldConfig(providers=providers)
    ticks = _layout(config).ticks
    world = World(config)
    env = world.environment()
    world.enabled["wifi"] = world.enabled["cell"] = 0.0
    world.t = 50.0  # indoors at the office: wifi is the reference
    env["request_update"]()
    assert world.program_fix[1] is ticks[50.0].reference_source
    world.t = 51.0
    assert world.program_fix[1] is not ticks[51.0].reference_source  # stale
    env["disable_wifi"]()
    env["request_update"]()
    assert world.program_fix[1] is table_source(config, "cell", 51.0)
    assert world.program_fix[1] is not ticks[51.0].reference_source


@pytest.mark.parametrize("build", [
    lambda: Provider("gps", radius_m=-1.0, draw_ma=1.0, first_fix_s=1.0),
    lambda: Provider("gps", radius_m=5.0, draw_ma=math.nan, first_fix_s=1.0),
    lambda: Provider("gps", radius_m=5.0, draw_ma=1.0, first_fix_s=math.inf),
    lambda: Segment(0.0, 10.0, indoor="no", wifi=True),
    lambda: Segment(50.0, 10.0, indoor=False, wifi=True),
    lambda: Segment(0.0, math.nan, indoor=False, wifi=True),
    lambda: WorldConfig(providers=()),
    lambda: WorldConfig(segments=()),
    lambda: WorldConfig(providers=(WIFI, WIFI)),
    lambda: WorldConfig(providers=(Provider("beacon", 10.0, 2.0, 1.0),)),  # no terminal
    lambda: WorldConfig(waypoints=()),
    lambda: WorldConfig(waypoints=((0.0, 0.0),)),
    lambda: WorldConfig(waypoints=((0.0, 0.0, math.nan),)),
    lambda: WorldConfig(waypoints=((10.0, 0.0, 0.0), (5.0, 0.0, 0.0))),
    lambda: WorldConfig(ticks=0),
    # fix positions that overflow: two equal fixes would be no finite
    # distance apart, and the reference fix itself would score 0
    lambda: WorldConfig(waypoints=((0.0, 1e308, 0.0),)),
    lambda: WorldConfig(waypoints=((0.0, -1e308, 0.0), (60.0, 1e308, 0.0))),
    lambda: WorldConfig(providers=(Provider("cell", 1.5e308, 5.0, 1.0),)),
])
def test_unusable_worlds_are_rejected_when_built(build):
    with pytest.raises(ConfigurationError):
        build()

