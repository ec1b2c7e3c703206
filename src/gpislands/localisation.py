"""Location-provider benchmark: evolve a program that picks its fixes wisely.

A phone walks a scripted path for ``ticks`` virtual seconds.  Once per second,
at each integer tick, the evolved program runs; its actions enable or disable
location providers and request position updates, and its numeric terminals
report how old and how precise its latest fix is.  Every terminal is bound to
an accessor on a :class:`World` (:meth:`World.environment`), so an action
takes effect the moment the program evaluates it.  Each provider trades
accuracy for current draw and needs a warm-up period after being enabled
before it can deliver a first fix; GPS additionally only works outdoors and
WiFi only near access points.

Per-tick scoring multiplies two sub-fitnesses:

* accuracy -- how far the program's position is from the best position any
  provider could offer right now (all providers notionally on, free of
  charge).  Within the best provider's accuracy radius ``a`` the score falls
  linearly from 1 to 0.5, from ``a`` to ``2a`` linearly from 0.5 to 0, and
  beyond ``2a`` (or with no fix at all) it is 0.
* energy -- ``max(0, 1 - power / BUDGET_MA)`` where the budget current
  :data:`BUDGET_MA` is what would drain the battery over a full day.

Overall fitness is the mean of the per-tick products; a program killed by
the supervisor at tick k contributes nothing from tick k on.

Control pass and scoring pass
-----------------------------
Each evaluation draws its own fix errors from its seed, but the program
cannot observe them: its terminals report only the age of its latest fix (a
time difference) and that fix's radius.  What it does at every tick -- which
radios it switches, when it asks for a fix, which provider answers --
therefore depends only on the tree and the config (walk, availability,
warm-up).  :func:`evaluate_localisation` splits accordingly:

* the control pass (:func:`_control_trace`) compiles the program once,
  against the accessors of a :class:`World` (the radios and the program's
  latest fix, nothing more), runs it tick by tick (one
  :meth:`~gpislands.interpreter.Program.run` per tick, killed when it took
  more than :data:`MAX_STEPS` steps, the rule
  :func:`~gpislands.interpreter.execute` applies), and records, per tick,
  the program's fix, the reference fix and the energy factor.  Everything
  the config fixes comes from one table built once per config
  (:func:`_layout`): per tick, each provider that can see the phone with its
  fix source (true position, radius and error-draw index), sharpest first,
  and which of those sources is the reference fix; and the energy factor of
  every set of radios, which the pass looks up by the world's radio set
  (:attr:`World.radios`).  A program's fix is the table's own source.
  Its result is kept in one bounded cache for the whole process, keyed by
  the tree's structure together with the config.  Structurally equal
  programs share a trace, so elite copies, crossover fallbacks and the small
  programs that breeding builds again and again do not run it again while
  it is cached;
* the scoring pass adds the evaluation's errors to those sources and sums
  the per-tick products.  It runs on every evaluation, so fitness itself is
  never cached: each evaluation scores against freshly drawn errors
  (:func:`_error_draws`).  A tick whose program fix is the reference fix
  itself (the same provider at the same tick, so the same source object and
  the same error draws) scores accuracy exactly 1 whatever the errors, and
  adds its energy factor without displacing either fix.  The trace records
  how far into the error stream the other ticks read, and the evaluation
  draws that prefix of the stream and no more.  The pass is one loop that
  calls no Python function per entry: it writes out the arithmetic of
  displacing a fix by its error and of :func:`accuracy_fitness`, in their
  operation order, so it gives their bits; the eager oracle of the tests,
  which calls :func:`accuracy_fitness`, pins it bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Callable, NamedTuple, Optional, Sequence

from .interpreter import Bindings, compile_program
from .interpreter import execute  # noqa: F401  unused: the traced benchmark wraps this name
from .trees import (
    ConfigurationError,
    FrozenRecord,
    Individual,
    PrimitiveSet,
    ProgramTree,
    Sort,
    _read_config_file,
    _set_field,
    config_number,
    function,
    if_greater_kind,
    sequence_kind,
    terminal,
)

DEFAULT_TICKS = 60
#: The most ticks a world may last: a day of one-second ticks, the span the
#: energy budget covers.  Every tick takes about 560 bytes of the walk's table
#: (``tracemalloc`` of the default world's :func:`_layout` at ``MAX_TICKS``).
MAX_TICKS = 86_400
#: The supervisor's step budget: a tick's run that evaluates more nodes is killed.
MAX_STEPS = 256
#: The current that drains the battery over a day: 1400 mAh over a 22-hour
#: waking day is 63.6 mA, and the scoring rule uses the round figure.
BUDGET_MA = 63.0
#: The ``function_bias`` of :func:`localisation_primitives`; low enough that raw
#: random programs rarely stumble into a working enable-plus-request combination.
LOC_FUNCTION_BIAS = 0.3
#: Reported when the program has never obtained a fix.
NO_FIX_SENTINEL = 9999.0
#: Control traces kept by :func:`_control_trace`, least recently used first out.
_TRACE_CACHE_SIZE = 64
#: Fix errors are radius * uniform(ERROR_LOW, ERROR_HIGH) in a random
#: direction, one per provider and tick and evaluation (see :func:`_error_draws`).
ERROR_LOW = 0.25
ERROR_HIGH = 0.75

Position = tuple[float, float]
_TAU = 2.0 * math.pi


class Provider(FrozenRecord):
    """A location source: accuracy radius, current draw, and first-fix delay."""

    __slots__ = ("name", "radius_m", "draw_ma", "first_fix_s")
    _fields = __slots__

    def __init__(self, name: str, radius_m: float, draw_ma: float,
                 first_fix_s: float) -> None:
        for figure, value in (("radius_m", radius_m), ("draw_ma", draw_ma),
                              ("first_fix_s", first_fix_s)):
            if not 0.0 <= value < math.inf:  # a zero radius is fine; nan is not
                raise ConfigurationError(f"provider {name!r} {figure} must be "
                                         f"finite and not negative, got {value!r}")
        _set_field(self, "name", name)
        _set_field(self, "radius_m", radius_m)
        _set_field(self, "draw_ma", draw_ma)
        _set_field(self, "first_fix_s", first_fix_s)


#: The providers a program can switch: each has its enable_/disable_ terminals.
RADIO_NAMES = ("gps", "wifi", "cell")

DEFAULT_PROVIDERS = (
    Provider("gps", radius_m=5.0, draw_ma=140.0, first_fix_s=10.0),
    Provider("wifi", radius_m=40.0, draw_ma=30.0, first_fix_s=2.0),
    Provider("cell", radius_m=400.0, draw_ma=5.0, first_fix_s=1.0),
)


class Segment(FrozenRecord):
    """A stretch of the walk: indoors or out, with or without WiFi coverage."""

    __slots__ = ("start", "end", "indoor", "wifi")
    _fields = __slots__

    def __init__(self, start: float, end: float, indoor: bool, wifi: bool) -> None:
        if not start <= end:  # also rejects nan
            raise ConfigurationError(
                f"a segment must not end before it starts, got {start!r} to {end!r}")
        if not (isinstance(indoor, bool) and isinstance(wifi, bool)):
            raise ConfigurationError(
                f"segment indoor and wifi must be true or false, got "
                f"{indoor!r} and {wifi!r}")
        _set_field(self, "start", start)
        _set_field(self, "end", end)
        _set_field(self, "indoor", indoor)
        _set_field(self, "wifi", wifi)


#: The default walk: ``(t, x, y)`` waypoints, times not decreasing.
DEFAULT_WAYPOINTS = (
    (0.0, 0.0, 0.0),      # at home, indoors
    (20.0, 0.0, 0.0),
    (40.0, 100.0, 0.0),   # walk five metres a second to the office
    (60.0, 100.0, 0.0),
)
#: The default walk's coverage: indoors with WiFi, out without, in again.
DEFAULT_SEGMENTS = (
    Segment(0.0, 20.0, indoor=True, wifi=True),
    Segment(20.0, 40.0, indoor=False, wifi=False),
    Segment(40.0, 60.0, indoor=True, wifi=True),
)


class WorldConfig(FrozenRecord):
    """The walk, its radio coverage and the providers a program can switch.

    The hash is the hash of the field tuple, worked out on first use and
    kept in ``_hash``, since every evaluation looks its world's layout and
    its tree's control trace up by it and hashing each field runs Python
    code.
    """

    __slots__ = ("providers", "waypoints", "segments", "ticks", "_hash")
    _fields = ("providers", "waypoints", "segments", "ticks")

    def __init__(self, providers: tuple[Provider, ...] = DEFAULT_PROVIDERS,
                 waypoints: tuple[tuple[float, float, float], ...] = DEFAULT_WAYPOINTS,
                 segments: tuple[Segment, ...] = DEFAULT_SEGMENTS,
                 ticks: int = DEFAULT_TICKS) -> None:
        _set_field(self, "providers", providers)
        _set_field(self, "waypoints", waypoints)
        _set_field(self, "segments", segments)
        _set_field(self, "ticks", ticks)
        _set_field(self, "_hash", None)
        if not providers:
            raise ConfigurationError("a world needs at least one provider")
        if not segments:
            raise ConfigurationError("a world needs at least one segment")
        names = [p.name for p in providers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate provider names in {names}")
        for name in names:
            if name not in RADIO_NAMES:
                raise ConfigurationError(f"no terminal switches provider {name!r}; "
                                         f"providers are named from {RADIO_NAMES}")
        if not waypoints:
            raise ConfigurationError("the walk needs at least one waypoint")
        for point in waypoints:
            if len(point) != 3 or not all(map(math.isfinite, point)):
                raise ConfigurationError(f"a waypoint is a finite (t, x, y), got {point!r}")
        if any(b[0] < a[0] for a, b in zip(waypoints, waypoints[1:])):
            raise ConfigurationError("waypoint times must not decrease")
        if type(ticks) is not int or not 1 <= ticks <= MAX_TICKS:  # rejects bools too
            raise ConfigurationError(
                f"ticks must be a whole number from 1 to {MAX_TICKS}, got {ticks!r}")
        # a fix lies within the walk's reach plus a radius times ERROR_HIGH;
        # were it not finite, two equal fixes would lie at no finite
        # distance from each other and a perfect fix would score 0
        reach = max(abs(v) for point in waypoints for v in point[1:])
        radius = max(p.radius_m for p in providers)
        if not math.isfinite(2.0 * (reach + radius * ERROR_HIGH)):
            raise ConfigurationError(
                f"every fix position must be finite, but waypoint coordinates up to "
                f"{reach!r} and radii up to {radius!r} can overflow")

    def __hash__(self) -> int:
        kept = self._hash
        if kept is None:
            kept = hash((self.providers, self.waypoints, self.segments, self.ticks))
            _set_field(self, "_hash", kept)
        return kept


def _truth(waypoints: Sequence[tuple[float, float, float]], t: float) -> Position:
    """Where the walk is at ``t``, between the waypoints around it.  A time
    two waypoints share is caught by the first guard or by the end of the
    stretch before, so a zero-length stretch is never divided by."""
    if t <= waypoints[0][0]:
        return (waypoints[0][1], waypoints[0][2])
    for (t0, x0, y0), (t1, x1, y1) in zip(waypoints, waypoints[1:]):
        if t0 <= t <= t1:
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


#: A fix before its error is added: the true position, the provider's radius
#: and the index of the provider's magnitude draw for the tick.
_Source = tuple[Position, float, int]


def _error_draws(seed: int | str, count: int) -> list[float]:
    """The first ``count`` draws of the error stream ``world:<seed>``: two
    per provider and tick (magnitude, then angle), provider by provider.
    No stream is made when ``count`` is 0."""
    if not count:
        return []
    draw = random.Random(f"world:{seed}").random
    return list(itertools.starmap(draw, itertools.repeat((), count)))


class _Tick(FrozenRecord):
    """What the walk offers at one integer tick, whatever the program does.

    ``ready`` holds each provider that can see the phone at this tick, with
    its fix source, sharpest first; the sort is stable, so equal radii keep
    their config order, as ``min`` would pick them.  ``reference_source``
    is the reference fix at this tick, the very source ``ready`` holds for
    the sharpest provider that would be ready with every radio on since
    tick 0 (its power is never charged to the program), or ``None`` if none
    would be.
    """

    __slots__ = ("ready", "reference_source")
    _fields = __slots__

    def __init__(self, ready: tuple[tuple[Provider, _Source], ...],
                 reference_source: Optional[_Source]) -> None:
        _set_field(self, "ready", ready)
        _set_field(self, "reference_source", reference_source)


class _Layout(NamedTuple):
    """What ``config`` fixes for every control pass and evaluation."""

    #: What the walk offers at ticks ``0..ticks``, keyed by the tick as a
    #: float (the type of :attr:`World.t`).
    ticks: dict[float, _Tick]
    #: The energy factor of each radio set, indexed by :attr:`World.radios`:
    #: :func:`energy_fitness` of the draws of the radios on, added left to
    #: right in config order (``sum`` over floats rounds differently from
    #: 3.12 on).
    energy: tuple[float, ...]


@functools.lru_cache(maxsize=16)
def _layout(config: WorldConfig) -> _Layout:
    per_provider = 2 * (config.ticks + 1)
    by_radius = sorted(enumerate(config.providers), key=lambda item: item[1].radius_m)
    ticks = {}
    for tick in range(config.ticks + 1):
        t = float(tick)
        truth = _truth(config.waypoints, t)
        ready = tuple((p, (truth, p.radius_m, i * per_provider + 2 * tick))
                      for i, p in by_radius if _available(config.segments, p.name, t))
        reference = next((source for p, source in ready if t >= p.first_fix_s), None)
        ticks[t] = _Tick(ready, reference)
    draws = [p.draw_ma for p in config.providers]
    energy = tuple(
        energy_fitness(functools.reduce(
            operator.add, [draw for i, draw in enumerate(draws) if radios >> i & 1], 0))
        for radios in range(1 << len(draws)))
    return _Layout(ticks, energy)


class World:
    """The control pass's state on integer ticks: the radios and the
    program's latest fix, read and changed through :meth:`environment`.

    ``t`` is the current tick as a float; the control pass sets it before
    each run and every lookup indexes the per-config tick table with it.
    The radios (``enabled``, the tick each was switched on, and ``radios``,
    the set that is on as a bitmask, bit ``i`` for the config's ``i``-th
    provider) and the program's latest fix (``program_fix``) change only
    through the accessors of :meth:`environment`.  A world holds no fix
    errors: each evaluation draws its own (:func:`_error_draws`).
    """

    def __init__(self, config: WorldConfig) -> None:
        self.t = 0.0
        self.enabled: dict[str, Optional[float]] = {p.name: None for p in config.providers}
        self.radios = 0
        #: (fix tick, the fix's source in the tick table) of the program's
        #: latest fix.
        self.program_fix: Optional[tuple[float, _Source]] = None
        self._ticks = _layout(config).ticks

    def last_fix_age(self) -> float:
        if self.program_fix is None:
            return NO_FIX_SENTINEL
        return self.t - self.program_fix[0]

    def last_fix_accuracy(self) -> float:
        if self.program_fix is None:
            return NO_FIX_SENTINEL
        return self.program_fix[1][1]

    def environment(self) -> Bindings:
        """The program's terminals mapped to accessors on this world: the
        numeric ones read its latest fix, and each action one acts on it
        directly and returns a descriptor of what it did (``"request_fix"``,
        ``"enable:<provider>"`` or ``"disable:<provider>"``).  Switching a
        radio the config lacks does nothing."""
        bindings = {
            "last_fix_age": self.last_fix_age,
            "last_accuracy": self.last_fix_accuracy,
            "request_update": self._request_update,
        }
        for name in RADIO_NAMES:
            bindings[f"enable_{name}"] = self._switch("enable", name)
            bindings[f"disable_{name}"] = self._switch("disable", name)
        return bindings

    def _request_update(self) -> str:
        t = self.t
        for provider, source in self._ticks[t].ready:  # the sharpest ready provider wins
            since = self.enabled[provider.name]
            if since is not None and t >= since + provider.first_fix_s:
                self.program_fix = (t, source)
                break
        # with nothing to offer, the previous fix, if any, stands
        return "request_fix"

    def _switch(self, verb: str, name: str) -> Callable[[], str]:
        action = f"{verb}:{name}"
        if name not in self.enabled:
            return lambda: action
        bit = 1 << list(self.enabled).index(name)
        if verb == "enable":
            def enable() -> str:
                if self.enabled[name] is None:  # re-enabling never resets the warm-up
                    self.enabled[name] = self.t
                    self.radios |= bit
                return action
            return enable

        def disable() -> str:
            self.enabled[name] = None
            self.radios &= ~bit
            return action
        return disable


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


def energy_fitness(power_ma: float) -> float:
    """1 at zero draw, 0 at the full day-budget current, clamped below."""
    return max(0.0, 1.0 - power_ma / BUDGET_MA)


def evaluate_localisation(tree: ProgramTree, config: WorldConfig, seed: int | str) -> float:
    """Score ``tree`` over ``config``'s walk with the fix errors of ``seed``:
    the mean of the per-tick products.

    A supervisor kill at tick k stops the program for good: ticks k..n
    contribute 0 while the earlier ticks keep their score.

    The program's radio logic runs in a control pass, whose trace is cached
    and shared by every program equal to ``tree`` (see
    :func:`_control_trace`).  The trace is scored against the errors drawn
    from ``seed`` (:func:`_error_draws`), as far into the stream as it reads.
    Each entry that is not the reference fix scores :func:`accuracy_fitness`
    of its two fixes, each moved by its error, times its energy factor; the
    loop writes that arithmetic out in its operation order.
    """
    trace = _control_trace(tree, config)
    draws = _error_draws(seed, trace.prefix)
    cos, sin, dist = math.cos, math.sin, math.dist
    spread = ERROR_HIGH - ERROR_LOW
    total = 0.0
    fix = position = None
    for program_fix, reference, energy in trace:
        if program_fix is reference:  # accuracy 1
            total += energy
            continue
        (x, y), radius, i = reference
        if program_fix is not fix:  # a new fix; a stale one keeps its place
            fix = program_fix
            (fx, fy), fix_radius, j = fix
            # random.uniform(ERROR_LOW, ERROR_HIGH)'s arithmetic, draw for draw
            magnitude = fix_radius * (ERROR_LOW + spread * draws[j])
            angle = _TAU * draws[j + 1]
            position = (fx + magnitude * cos(angle), fy + magnitude * sin(angle))
        magnitude = radius * (ERROR_LOW + spread * draws[i])
        angle = _TAU * draws[i + 1]
        # accuracy_fitness(position, the reference position, radius)
        d = dist(position, (x + magnitude * cos(angle), y + magnitude * sin(angle)))
        if radius <= 0.0:
            accuracy = 1.0 if d == 0.0 else 0.0
        else:
            ratio = d / radius
            if ratio <= 1.0:
                accuracy = 1.0 - 0.5 * ratio
            elif ratio <= 2.0:
                accuracy = 0.5 - 0.5 * (ratio - 1.0)
            else:
                accuracy = 0.0
        total += accuracy * energy
    return total / config.ticks


class _Trace(tuple):
    """A control trace: its ``(program fix, reference fix, energy)`` entries,
    and in ``prefix`` how many draws of an evaluation's error stream scoring
    it reads."""

    prefix: int


@functools.lru_cache(maxsize=_TRACE_CACHE_SIZE)
def _control_trace(tree: ProgramTree, config: WorldConfig) -> _Trace:
    """Run ``tree`` once per tick on a :class:`World` of its own, up to a kill.

    Each tick is one :meth:`~gpislands.interpreter.Program.run`; a run that
    took more than :data:`MAX_STEPS` steps is the kill
    :func:`~gpislands.interpreter.execute` would report, decided after the
    same accessor calls, and ends the pass.

    Returns ``(program fix, reference fix, energy)`` for every completed tick
    with a program fix, a reference provider and a positive energy factor.
    Every other tick adds exactly +0.0 to the fitness whatever the errors
    (its accuracy or its energy is 0, and both lie in [0, 1]), so leaving it
    out changes no fitness bit.  Both fixes are sources of the config's tick
    table (:func:`_layout`), one object per provider and tick, so a stale
    program fix is the same object tick after tick.  The trace's ``prefix``
    is one past the highest error draw an entry that is not a reference fix
    reads (two draws from each fix's index), or 0 if no entry reads any: the
    scoring pass needs no more of the stream than that.

    The program fix is the reference fix exactly when it is the same object:
    the same provider at the same tick, so the same true position, radius
    and draws.  Their positions are then equal whatever the errors, their
    distance is 0.0 and the accuracy exactly 1.0 (a zero radius included), so
    the scoring pass adds such an entry's energy factor as it stands.

    The energy factor depends on which radios are on alone, so the pass
    reads it from the table by ``world.radios``; each radio set's factor is
    built with the table, never in the pass.

    The trace is a pure function of the arguments, so it is cached on them,
    and the tree takes part by its structural ``==`` and ``hash``: a program
    equal to one already run shares that one's trace.  This is exact for the
    localisation vocabulary.  Control flow there depends only on
    ``if_greater`` comparisons of values built with ``add`` and ``mul``, and
    given operands that are ``==`` (or both NaN) those give results that are
    ``==`` (or both NaN).  So equal trees take the same branches and make the
    same accessor calls, even where one holds the constant ``0.0`` and the
    other ``-0.0``, which compare equal.  Trees compare NaN constants by
    identity, and NaN hashes by identity, so a NaN can cause a miss, never
    a wrong hit.  A vocabulary with a function that tells ``-0.0`` from ``0.0``, such
    as ``copysign`` or ``atan2``, would break this.
    """
    world = World(config)
    run = compile_program(tree, world.environment()).run
    layout = _layout(config)
    ticks, energies = layout.ticks, layout.energy
    trace = []
    prefix = 0
    for tick in range(1, config.ticks + 1):
        t = world.t = float(tick)
        if run()[1] > MAX_STEPS:  # execute's kill rule
            break
        fix = world.program_fix
        reference = ticks[t].reference_source
        if fix is None or reference is None:
            continue
        energy = energies[world.radios]
        if energy == 0.0:
            continue
        source = fix[1]
        trace.append((source, reference, energy))
        if source is not reference:
            prefix = max(prefix, source[2] + 2, reference[2] + 2)
    result = _Trace(trace)
    result.prefix = prefix
    return result


def localisation_helper(tree: ProgramTree) -> bool:
    """Screen out programs that cannot possibly obtain a position: accept
    only trees containing at least one provider-enable and one
    position-request node.  The walk stops as soon as it has seen both."""
    has_enable = has_request = False
    stack = [tree]
    while stack:
        node = stack.pop()
        name = node.kind.name
        if name.startswith("enable_"):
            if has_request:
                return True
            has_enable = True
        elif name == "request_update":
            if has_enable:
                return True
            has_request = True
        stack.extend(node.children)
    return False


def localisation_primitives() -> PrimitiveSet:
    """Action vocabulary plus the numeric plumbing for duty-cycling logic,
    screened by :func:`localisation_helper`."""
    two = (Sort.NUMBER, Sort.NUMBER)
    kinds = [
        sequence_kind(),
        if_greater_kind(Sort.ACTION),
        function("add", two, Sort.NUMBER, operator.add),
        function("mul", two, Sort.NUMBER, operator.mul),
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
    return PrimitiveSet(kinds, Sort.ACTION,
                        constant_sources={Sort.NUMBER: lambda rng: rng.uniform(0.0, 60.0)},
                        function_bias=LOC_FUNCTION_BIAS, helper=localisation_helper)


class LocalisationEvaluator:
    """Fitness callback: one fresh error seed per evaluation, so one set of
    fix errors; the control trace is shared by every evaluation of an equal
    program while it stays in the cache."""

    def __init__(self, config: WorldConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng

    def __call__(self, member: Individual) -> float:
        return evaluate_localisation(member.tree, self.config, self.rng.getrandbits(48))


# ---------------------------------------------------------------------------
# config files

def world_config_from_dict(data: dict) -> WorldConfig:
    """Build a world from its JSON form; a missing key keeps the default.

    Anything a run could not use raises :class:`ConfigurationError`: besides
    malformed entries, a figure, coordinate or bound that is not a JSON
    number a float can hold, and whatever :class:`Provider`,
    :class:`Segment` and :class:`WorldConfig` reject, such as an empty
    provider or segment list, a provider no program terminal can switch
    (any name but those in :data:`RADIO_NAMES`), a non-boolean ``wifi``
    flag or a ``ticks`` that is not a whole number from 1 to
    :data:`MAX_TICKS`.
    """
    try:
        providers = DEFAULT_PROVIDERS
        if "providers" in data:
            providers = tuple(
                Provider(p["name"], config_number(p["radius_m"]),
                         config_number(p["draw_ma"]), config_number(p["first_fix_s"]))
                for p in data["providers"])
        waypoints = tuple(tuple(config_number(v) for v in point)
                          for point in data.get("waypoints", DEFAULT_WAYPOINTS))
        segments = DEFAULT_SEGMENTS
        if "segments" in data:
            segments = tuple(
                Segment(config_number(s["start"]), config_number(s["end"]),
                        s["indoor"], s["wifi"])
                for s in data["segments"])
        return WorldConfig(providers=providers, waypoints=waypoints,
                           segments=segments, ticks=data.get("ticks", DEFAULT_TICKS))
    except (AttributeError, ConfigurationError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ConfigurationError(f"bad world config: {exc}") from exc


def load_world_config(path: str) -> WorldConfig:
    return world_config_from_dict(_read_config_file(path, "world config"))
