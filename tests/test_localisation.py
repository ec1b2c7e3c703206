"""The provider-switching benchmark: world model, scoring, helper, oracles."""
import itertools
import json
import math
import random

import pytest

from gpislands.interpreter import SupervisorPolicy
from gpislands.localisation import (
    DEFAULT_PROVIDERS,
    EnergyBudget,
    LocalisationEvaluator,
    NO_FIX_SENTINEL,
    Provider,
    Segment,
    World,
    WorldConfig,
    accuracy_fitness,
    energy_fitness,
    evaluate_localisation,
    load_world_config,
    localisation_helper,
    localisation_primitives,
    single_provider_world,
)
from gpislands.trees import (
    ConfigurationError,
    Individual,
    ProgramTree,
    Sort,
    build_random_tree,
    constant_kind_name,
    deserialize,
)

WIFI = DEFAULT_PROVIDERS[1]
CELL = DEFAULT_PROVIDERS[2]


@pytest.fixture
def prims():
    return localisation_primitives()


def parse(prims, text):
    return deserialize(text, prims)


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
    budget = EnergyBudget()
    assert budget.budget_ma == 63.0
    assert budget.derived_ma == pytest.approx(1400.0 / 22.0)
    assert abs(budget.budget_ma - budget.derived_ma) < 1.0  # round number


# ---------------------------------------------------------------------------
# the world

def test_walk_interpolates_waypoints():
    world = World(WorldConfig())
    assert world.truth(0.0) == (0.0, 0.0)
    assert world.truth(30.0) == (50.0, 0.0)
    assert world.truth(45.0) == (100.0, 0.0)
    assert world.truth(99.0) == (100.0, 0.0)  # clamps at the final waypoint


def test_provider_availability_follows_segments():
    world = World(WorldConfig())
    assert not world.available("gps", 5.0)    # indoors at home
    assert world.available("gps", 25.0)       # out on the walk
    assert not world.available("wifi", 25.0)  # no coverage outside
    assert world.available("wifi", 45.0)      # office network
    assert all(world.available("cell", t) for t in (0.0, 25.0, 55.0))


def test_fix_errors_are_frozen_per_provider_and_tick():
    world = World(WorldConfig(), seed="w")
    assert world.fix_position("wifi", 7.0) == world.fix_position("wifi", 7.0)
    again = World(WorldConfig(), seed="w")
    assert again.fix_position("wifi", 7.0) == world.fix_position("wifi", 7.0)
    other = World(WorldConfig(), seed="different")
    assert other.fix_position("wifi", 7.0) != world.fix_position("wifi", 7.0)


def test_fix_error_magnitude_within_band():
    world = World(WorldConfig(), seed=3)
    for tick in range(61):
        x, y = world.fix_position("wifi", float(tick))
        tx, ty = world.truth(float(tick))
        d = math.dist((x, y), (tx, ty))
        assert 0.25 * WIFI.radius_m <= d <= 0.75 * WIFI.radius_m


def test_enable_is_sticky_and_disable_clears():
    world = World(WorldConfig())
    world.t = 5.0
    world.apply_action("enable:gps")
    world.t = 8.0
    world.apply_action("enable:gps")  # re-enabling never restarts the warm-up
    assert world.enabled["gps"] == 5.0
    world.apply_action("enable:cell")
    assert world.power_now() == 145.0
    world.apply_action("disable:gps")
    assert world.enabled["gps"] is None
    assert world.power_now() == 5.0


def test_unknown_actions_are_ignored():
    world = World(WorldConfig())
    for action in ("enable:plutonium", "warp:gps", "enable", 42, None):
        world.apply_action(action)
    assert world.power_now() == 0.0


def test_request_fix_prefers_the_sharpest_ready_provider():
    world = World(WorldConfig())
    world.t = 50.0  # indoors at the office: wifi and cell, no gps
    world.enabled["wifi"] = 0.0
    world.enabled["cell"] = 0.0
    world.apply_action("request_fix")
    assert world.last_fix_accuracy() == WIFI.radius_m
    assert world.last_fix_age() == 0.0


def test_fix_requires_warm_up_and_availability():
    world = World(WorldConfig())
    world.t = 1.0
    world.apply_action("enable:wifi")
    world.apply_action("request_fix")  # too soon: first fix needs 2 s
    assert world.program_position() is None
    assert world.last_fix_age() == NO_FIX_SENTINEL
    world.t = 25.0  # outdoors now, wifi out of range
    world.apply_action("request_fix")
    assert world.program_position() is None
    world.t = 45.0
    world.apply_action("request_fix")
    assert world.program_position() is not None


def test_stale_fix_ages():
    world = World(WorldConfig())
    world.enabled["cell"] = 0.0
    world.t = 5.0
    world.apply_action("request_fix")
    world.t = 9.0
    assert world.last_fix_age() == 4.0


def test_reference_fix_on_and_between_ticks():
    """The per-tick tables agree with the walk computed from scratch, and
    times between ticks keep working."""
    config = WorldConfig()
    world = World(config, seed=9)
    for half_ticks in range(2, 2 * config.ticks + 1):  # cell is warm from t = 1
        world.t = half_ticks / 2.0
        ready = [p for p in config.providers
                 if world.t >= p.first_fix_s and world.available(p.name, world.t)]
        best = min(ready, key=lambda p: p.radius_m)
        assert world.reference_fix() == (world.fix_position(best.name, world.t),
                                         best.radius_m)
    assert world.truth(30.5) == (52.5, 0.0)
    world.t = 0.5  # nothing has warmed up yet
    assert world.reference_fix() is None


def test_reference_ignores_program_radios():
    world = World(WorldConfig())
    world.t = 30.0  # outdoors: the reference rides gps
    pos, radius = world.reference_fix()
    assert radius == 5.0
    assert world.power_now() == 0.0  # and its power is never charged


# ---------------------------------------------------------------------------
# whole-walk evaluation oracles

def test_single_provider_walk_closed_form(prims):
    """Quiet provider, zero error radius: every ready tick scores exactly
    accuracy 1 x energy (1 - draw/63)."""
    quiet = Provider("gps", radius_m=0.0, draw_ma=30.0, first_fix_s=10.0)
    world = World(single_provider_world(quiet), seed=8)
    tree = parse(prims, "(seq (enable_gps) (request_update))")
    fitness = evaluate_localisation(tree, world)
    # enabled at tick 1, first fix at tick 11: 50 of 60 ticks score 33/63
    assert fitness == pytest.approx(50 * (1 - 30 / 63) / 60, rel=1e-12)


def test_wifi_walk_closed_form(prims):
    world = World(single_provider_world(WIFI), seed=8)
    fitness = evaluate_localisation(parse(prims, ENABLE_AND_ASK), world)
    # ready from tick 3 onwards; program and reference share each tick's error
    assert fitness == pytest.approx(58 * (1 - 30 / 63) / 60, rel=1e-12)


def test_greedy_gps_exhausts_the_budget(prims):
    world = World(single_provider_world(DEFAULT_PROVIDERS[0]), seed=8)
    tree = parse(prims, "(seq (enable_gps) (request_update))")
    assert evaluate_localisation(tree, world) == 0.0  # 140 mA >> 63 mA budget


def test_kill_stops_scoring_but_keeps_earlier_ticks(prims):
    """A program that outgrows its step budget midway keeps what it earned."""
    tree = parse(prims, "(if_greater (last_fix_age) (const:Number 100.0)"
                        " (seq (enable_cell) (request_update))"
                        " (seq (enable_cell) (seq (enable_cell) (request_update))))")
    world = World(single_provider_world(CELL, ticks=5), seed=1)
    fitness = evaluate_localisation(tree, world, SupervisorPolicy(max_steps=7))
    # tick 1: no fix yet; tick 2: fix lands, scores (1 - 5/63); tick 3: the
    # fat else-branch needs 8 steps and is killed; ticks 4-5 score nothing
    assert fitness == pytest.approx((1 - 5 / 63) / 5, rel=1e-12)


def test_immediate_kill_scores_zero(prims):
    world = World(single_provider_world(CELL, ticks=5), seed=1)
    fitness = evaluate_localisation(parse(prims, ENABLE_AND_ASK), world,
                                    SupervisorPolicy(max_steps=1))
    assert fitness == 0.0


def test_default_walk_is_seed_deterministic(prims):
    tree = parse(prims, ENABLE_AND_ASK)
    a = evaluate_localisation(tree, World(WorldConfig(), seed="walk"))
    b = evaluate_localisation(tree, World(WorldConfig(), seed="walk"))
    assert a == b
    assert 0.0 < a < 1.0


def test_evaluator_draws_a_fresh_world_per_call(prims):
    # a lazy refresher: its stale fixes drift by world noise, so each fresh
    # world scores differently (an every-tick refresher would not)
    member = Individual.from_tree(parse(
        prims, "(if_greater (last_fix_age) (const:Number 5.0)"
               " (seq (enable_wifi) (request_update)) (enable_wifi))"))
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
def test_helper_requires_enable_and_request(prims, text, ok):
    assert localisation_helper(parse(prims, text)) is ok


# ---------------------------------------------------------------------------
# the shallow exhaustive oracle

def test_depth2_brute_force_matches_closed_form(prims):
    """Nothing a two-level program can do beats enable-then-ask on wifi."""
    config = single_provider_world(WIFI)
    leaves_a = [ProgramTree(k) for k in prims.leaves_for(Sort.ACTION)]
    leaves_n = [ProgramTree(k) for k in prims.leaves_for(Sort.NUMBER)
                if k.name != constant_kind_name(Sort.NUMBER)]
    leaves_n += [ProgramTree(prims.kind(constant_kind_name(Sort.NUMBER)), value=v)
                 for v in (0.5, 10.0, 50.0)]
    trees = list(leaves_a)
    trees += [ProgramTree(prims.kind("seq"), pair)
              for pair in itertools.product(leaves_a, repeat=2)]
    trees += [ProgramTree(prims.kind("if_greater"), (a, b, x, y))
              for a, b in itertools.product(leaves_n, repeat=2)
              for x, y in itertools.product(leaves_a, repeat=2)]
    best = max(evaluate_localisation(t, World(config, seed=8)) for t in trees)
    assert best == pytest.approx(58 * (1 - 30 / 63) / 60, rel=1e-12)


# ---------------------------------------------------------------------------
# config files

def test_world_config_round_trip(tmp_path):
    data = {
        "providers": [{"name": "beacon", "radius_m": 10, "draw_ma": 2,
                       "first_fix_s": 1}],
        "waypoints": [[0, 0, 0], [10, 50, 0]],
        "segments": [{"start": 0, "end": 10, "indoor": False, "wifi": False}],
        "ticks": 10,
    }
    path = tmp_path / "world.json"
    path.write_text(json.dumps(data))
    config = load_world_config(str(path))
    assert config.providers[0].name == "beacon"
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
