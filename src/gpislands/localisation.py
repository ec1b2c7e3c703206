"""Location-provider benchmark: evolve a program that picks its fixes wisely.

A phone walks a scripted path for ``ticks`` virtual seconds.  Once per second
the evolved program runs; its actions enable or disable location providers
and request position updates, and its numeric terminals report how old and
how precise its latest fix is.  Each provider trades accuracy for current
draw and needs a warm-up period after being enabled before it can deliver a
first fix; GPS additionally only works outdoors and WiFi only near access
points.

Per-tick scoring multiplies two sub-fitnesses:

* accuracy -- how far the program's position is from the best position any
  provider could offer right now (all providers notionally on, free of
  charge).  Within the best provider's accuracy radius ``a`` the score falls
  linearly from 1 to 0.5, from ``a`` to ``2a`` linearly from 0.5 to 0, and
  beyond ``2a`` (or with no fix at all) it is 0.
* energy -- ``max(0, 1 - power / budget)`` where the budget current is what
  would drain the battery over a full day.

Overall fitness is the mean of the per-tick products; a program killed by
the supervisor at tick k contributes nothing from tick k on.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .interpreter import Environment, SupervisorPolicy, compile_program, execute
from .trees import (
    ConfigurationError,
    Individual,
    PrimitiveSet,
    ProgramTree,
    Sort,
    function,
    if_greater_kind,
    iter_nodes,
    sequence_kind,
    terminal,
)

DEFAULT_TICKS = 60
DEFAULT_MAX_STEPS = 256
#: Grow bias for localisation programs; low enough that raw random programs
#: rarely stumble into a working enable-plus-request combination.
LOC_FUNCTION_BIAS = 0.3
#: Reported when the program has never obtained a fix.
NO_FIX_SENTINEL = 9999.0

Position = tuple[float, float]


@dataclass(frozen=True)
class Provider:
    """A location source: accuracy radius, current draw, and first-fix delay."""

    name: str
    radius_m: float
    draw_ma: float
    first_fix_s: float


DEFAULT_PROVIDERS = (
    Provider("gps", radius_m=5.0, draw_ma=140.0, first_fix_s=10.0),
    Provider("wifi", radius_m=40.0, draw_ma=30.0, first_fix_s=2.0),
    Provider("cell", radius_m=400.0, draw_ma=5.0, first_fix_s=1.0),
)


@dataclass(frozen=True)
class EnergyBudget:
    """Battery capacity spread over the waking day.

    ``budget_ma`` is the round-number current the scoring rule uses; it is
    the capacity / day quotient rounded to the nearest integer.
    """

    capacity_mah: float = 1400.0
    day_hours: float = 22.0
    budget_ma: float = 63.0

    @property
    def derived_ma(self) -> float:
        return self.capacity_mah / self.day_hours


@dataclass(frozen=True)
class Segment:
    """A stretch of the walk: indoors or out, with or without WiFi coverage."""

    start: float
    end: float
    indoor: bool
    wifi: bool


@dataclass(frozen=True)
class WorldConfig:
    providers: tuple[Provider, ...] = DEFAULT_PROVIDERS
    waypoints: tuple[tuple[float, float, float], ...] = (
        (0.0, 0.0, 0.0),      # at home, indoors
        (20.0, 0.0, 0.0),
        (40.0, 100.0, 0.0),   # walk five metres a second to the office
        (60.0, 100.0, 0.0),
    )
    segments: tuple[Segment, ...] = (
        Segment(0.0, 20.0, indoor=True, wifi=True),
        Segment(20.0, 40.0, indoor=False, wifi=False),
        Segment(40.0, 60.0, indoor=True, wifi=True),
    )
    ticks: int = DEFAULT_TICKS
    #: Fix errors are radius * uniform(error_low, error_high) in a random
    #: direction, drawn once per provider and tick when the world is built.
    error_low: float = 0.25
    error_high: float = 0.75


def single_provider_world(provider: Provider, ticks: int = DEFAULT_TICKS,
                          stationary: bool = True) -> WorldConfig:
    """A minimal world for closed-form checks: one always-available provider."""
    end = float(ticks)
    waypoints = ((0.0, 0.0, 0.0), (end, 0.0, 0.0)) if stationary else (
        (0.0, 0.0, 0.0), (end, 5.0 * end, 0.0))
    return WorldConfig(providers=(provider,), waypoints=waypoints,
                       segments=(Segment(0.0, end, indoor=False, wifi=True),),
                       ticks=ticks)


def _truth(waypoints: Sequence[tuple[float, float, float]], t: float) -> Position:
    if t <= waypoints[0][0]:
        return (waypoints[0][1], waypoints[0][2])
    for (t0, x0, y0), (t1, x1, y1) in zip(waypoints, waypoints[1:]):
        if t0 <= t <= t1:
            if t1 == t0:
                return (x1, y1)
            frac = (t - t0) / (t1 - t0)
            return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
    return (waypoints[-1][1], waypoints[-1][2])


def _segment(segments: Sequence[Segment], t: float) -> Segment:
    for segment in segments:
        if segment.start <= t < segment.end:
            return segment
    return segments[-1]


def _available(segments: Sequence[Segment], name: str, t: float) -> bool:
    segment = _segment(segments, t)
    if name == "gps":
        return not segment.indoor
    if name == "wifi":
        return segment.wifi
    return True


@dataclass(frozen=True)
class _Tick:
    """What the walk offers at one integer tick, whatever the program does."""

    truth: Position
    #: Names of the providers that can see the phone at this tick.
    available: frozenset[str]
    #: The provider behind :meth:`World.reference_fix` at this tick.
    reference: Optional[Provider]


@functools.lru_cache(maxsize=16)
def _tick_table(config: WorldConfig) -> dict[float, _Tick]:
    """Per-tick walk geometry for ``config``, keyed by the tick as a float.

    Computed with the same functions :class:`World` falls back to between
    ticks, so a table hit and a fresh computation agree bit for bit.
    """
    table = {}
    for tick in range(config.ticks + 1):
        t = float(tick)
        available = frozenset(p.name for p in config.providers
                              if _available(config.segments, p.name, t))
        ready = [p for p in config.providers
                 if t >= p.first_fix_s and p.name in available]
        reference = min(ready, key=lambda p: p.radius_m) if ready else None
        table[t] = _Tick(_truth(config.waypoints, t), available, reference)
    return table


class World:
    """Mutable per-evaluation state: the walk, the radios, the program's fix.

    The walk itself depends only on the config, so its geometry at every
    integer tick is computed once per config and shared; only the fix errors
    are drawn per world.
    """

    def __init__(self, config: WorldConfig, seed: int | str = 0) -> None:
        self.config = config
        self.t = 0.0
        self.enabled: dict[str, Optional[float]] = {p.name: None for p in config.providers}
        self.program_fix: Optional[tuple[Position, float, float]] = None  # pos, t, radius
        # lo + span * random() is random.uniform's arithmetic, draw for draw
        draw = random.Random(f"world:{seed}").random
        lo = config.error_low
        span = config.error_high - lo
        tau = 2.0 * math.pi
        cos, sin = math.cos, math.sin
        self._errors: dict[tuple[str, int], Position] = {}
        for provider in config.providers:
            name, radius = provider.name, provider.radius_m
            for tick in range(config.ticks + 1):
                magnitude = radius * (lo + span * draw())
                angle = tau * draw()
                self._errors[(name, tick)] = (magnitude * cos(angle), magnitude * sin(angle))
        self._by_name = {p.name: p for p in config.providers}
        self._ticks = _tick_table(config)

    # -- geometry ----------------------------------------------------------
    def truth(self, t: float) -> Position:
        tick = self._ticks.get(t)
        if tick is not None:
            return tick.truth
        return _truth(self.config.waypoints, t)

    def available(self, name: str, t: float) -> bool:
        return _available(self.config.segments, name, t)

    def fix_position(self, name: str, t: float) -> Position:
        x, y = self.truth(t)
        dx, dy = self._errors[(name, int(t))]
        return (x + dx, y + dy)

    # -- program-visible state ---------------------------------------------
    def last_fix_age(self) -> float:
        if self.program_fix is None:
            return NO_FIX_SENTINEL
        return self.t - self.program_fix[1]

    def last_fix_accuracy(self) -> float:
        if self.program_fix is None:
            return NO_FIX_SENTINEL
        return self.program_fix[2]

    def program_position(self) -> Optional[Position]:
        return None if self.program_fix is None else self.program_fix[0]

    # -- actions ------------------------------------------------------------
    def apply_action(self, action) -> None:
        if not isinstance(action, str) or ":" not in action and action != "request_fix":
            return
        if action == "request_fix":
            self._request_fix()
            return
        verb, _, name = action.partition(":")
        if name not in self._by_name:
            return
        if verb == "enable":
            if self.enabled[name] is None:  # re-enabling never resets the warm-up
                self.enabled[name] = self.t
        elif verb == "disable":
            self.enabled[name] = None

    def _ready(self, name: str, since: Optional[float]) -> bool:
        if since is None or not self.t >= since + self._by_name[name].first_fix_s:
            return False
        tick = self._ticks.get(self.t)
        if tick is not None:
            return name in tick.available
        return self.available(name, self.t)

    def _request_fix(self) -> None:
        ready = [p for p in self.config.providers if self._ready(p.name, self.enabled[p.name])]
        if not ready:
            return  # nothing to offer; the previous fix, if any, stands
        best = min(ready, key=lambda p: p.radius_m)
        self.program_fix = (self.fix_position(best.name, self.t), self.t, best.radius_m)

    # -- scoring inputs ------------------------------------------------------
    def power_now(self) -> float:
        return sum(self._by_name[name].draw_ma
                   for name, since in self.enabled.items() if since is not None)

    def reference_fix(self) -> Optional[tuple[Position, float]]:
        """Best fix available right now with every provider notionally on
        since tick 0; its power is never charged to the program."""
        tick = self._ticks.get(self.t)
        if tick is not None:
            best = tick.reference
        else:
            ready = [p for p in self.config.providers if self._ready(p.name, 0.0)]
            best = min(ready, key=lambda p: p.radius_m) if ready else None
        if best is None:
            return None
        return (self.fix_position(best.name, self.t), best.radius_m)

    def environment(self) -> Environment:
        return Environment(
            bindings={
                "last_fix_age": self.last_fix_age,
                "last_accuracy": self.last_fix_accuracy,
                "enable_gps": lambda: "enable:gps",
                "enable_wifi": lambda: "enable:wifi",
                "enable_cell": lambda: "enable:cell",
                "disable_gps": lambda: "disable:gps",
                "disable_wifi": lambda: "disable:wifi",
                "disable_cell": lambda: "disable:cell",
                "request_update": lambda: "request_fix",
            },
            action_sink=self.apply_action,
            clock=lambda: self.t,
        )


# ---------------------------------------------------------------------------
# scoring

def accuracy_fitness(program_pos: Optional[Position], best_pos: Position,
                     accuracy_m: float) -> float:
    """Piecewise-linear score of the program's position against the best one.

    1 at zero distance, 0.5 at one accuracy radius, 0 at two radii or beyond;
    0 with no position at all.  A zero radius degenerates to exact-match.
    """
    if program_pos is None:
        return 0.0
    d = math.dist(program_pos, best_pos)
    if accuracy_m <= 0.0:
        return 1.0 if d == 0.0 else 0.0
    ratio = d / accuracy_m
    if ratio <= 1.0:
        return 1.0 - 0.5 * ratio
    if ratio <= 2.0:
        return 0.5 - 0.5 * (ratio - 1.0)
    return 0.0


def energy_fitness(power_ma: float, budget: EnergyBudget = EnergyBudget()) -> float:
    """1 at zero draw, 0 at the full day-budget current, clamped below."""
    return max(0.0, 1.0 - power_ma / budget.budget_ma)


def evaluate_localisation(tree: ProgramTree, world: World,
                          policy: Optional[SupervisorPolicy] = None,
                          budget: EnergyBudget = EnergyBudget()) -> float:
    """Run ``tree`` once per tick and average the per-tick products.

    A supervisor kill at tick k stops the program for good: ticks k..n
    contribute 0 while the earlier ticks keep their score.
    """
    policy = policy or SupervisorPolicy(max_steps=DEFAULT_MAX_STEPS)
    ticks = world.config.ticks
    env = world.environment()
    program = compile_program(tree)
    total = 0.0
    for tick in range(1, ticks + 1):
        world.t = float(tick)
        outcome = execute(program, env, policy)
        if outcome.killed:
            break
        reference = world.reference_fix()
        if reference is None:
            acc = 0.0
        else:
            acc = accuracy_fitness(world.program_position(), reference[0], reference[1])
        total += acc * energy_fitness(world.power_now(), budget)
    return total / ticks


def localisation_helper(tree: ProgramTree) -> bool:
    """Screen out programs that cannot possibly obtain a position: accept
    only trees containing at least one provider-enable and one
    position-request node."""
    has_enable = has_request = False
    for node, _ in iter_nodes(tree):
        if node.kind.name.startswith("enable_"):
            has_enable = True
        elif node.kind.name == "request_update":
            has_request = True
    return has_enable and has_request


def localisation_primitives(constant_range: tuple[float, float] = (0.0, 60.0)) -> PrimitiveSet:
    """Action vocabulary plus the numeric plumbing for duty-cycling logic."""
    two = (Sort.NUMBER, Sort.NUMBER)
    kinds = [
        sequence_kind(),
        if_greater_kind(Sort.ACTION),
        function("add", two, Sort.NUMBER, lambda a, b: a + b),
        function("mul", two, Sort.NUMBER, lambda a, b: a * b),
        terminal("last_fix_age", Sort.NUMBER),
        terminal("last_accuracy", Sort.NUMBER),
        terminal("enable_gps", Sort.ACTION),
        terminal("enable_wifi", Sort.ACTION),
        terminal("enable_cell", Sort.ACTION),
        terminal("disable_gps", Sort.ACTION),
        terminal("disable_wifi", Sort.ACTION),
        terminal("disable_cell", Sort.ACTION),
        terminal("request_update", Sort.ACTION),
    ]
    lo, hi = constant_range
    return PrimitiveSet(kinds, Sort.ACTION,
                        constant_sources={Sort.NUMBER: lambda rng: rng.uniform(lo, hi)})


class LocalisationEvaluator:
    """Fitness callback: one fresh world walk per evaluation."""

    def __init__(self, config: WorldConfig, rng: random.Random,
                 budget: EnergyBudget = EnergyBudget(),
                 policy: Optional[SupervisorPolicy] = None) -> None:
        self.config = config
        self.rng = rng
        self.budget = budget
        self.policy = policy or SupervisorPolicy(max_steps=DEFAULT_MAX_STEPS)

    def __call__(self, member: Individual) -> float:
        world = World(self.config, seed=self.rng.getrandbits(48))
        return evaluate_localisation(member.tree, world, self.policy, self.budget)


# ---------------------------------------------------------------------------
# config files

def world_config_from_dict(data: dict) -> WorldConfig:
    try:
        providers = tuple(
            Provider(p["name"], float(p["radius_m"]), float(p["draw_ma"]),
                     float(p["first_fix_s"]))
            for p in data.get("providers", [])) or DEFAULT_PROVIDERS
        waypoints = tuple(tuple(float(v) for v in point)
                          for point in data.get("waypoints", ())) or \
            WorldConfig.waypoints
        segments = tuple(
            Segment(float(s["start"]), float(s["end"]), bool(s["indoor"]),
                    bool(s["wifi"]))
            for s in data.get("segments", ())) or WorldConfig.segments
        ticks = int(data.get("ticks", DEFAULT_TICKS))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad world config: {exc}") from exc
    return WorldConfig(providers=providers, waypoints=waypoints,
                       segments=segments, ticks=ticks)


def load_world_config(path: str) -> WorldConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigurationError(f"bad world config file {path!r}: {exc}") from exc
    return world_config_from_dict(data)
