"""The slow engines the tests hold the package to, one per behaviour.

This module holds oracles only: the package never imports it, and no
``gpislands`` run uses it unless a test swaps it in (as
``tests/config_cells.py``'s reference growth does).  Each function or class
is the spec of one fast engine, written the plain way (a node-by-node walk,
a recursion, a list, a table drawn up front), and the tests compare the two
on the same inputs.  The sections below hold the walker, feed scoring,
growth, trees, localisation, breeding and the harness's summary.

:func:`pass_values` and :func:`pass_steps` run the feed task's own one
pass and counting walk on their own, for the tests to compare to the
walker.
"""
import dataclasses
import math
import operator
import random
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from gpislands import feed, harness, localisation, trees
from gpislands.evolution import (
    CROSSOVER_RETRIES,
    REBUILD_ATTEMPTS,
    Operator,
    Wheel,
    crossover,
    mutate,
)
from gpislands.interpreter import RunOutcome
from gpislands.localisation import (
    ERROR_HIGH,
    ERROR_LOW,
    NO_FIX_SENTINEL,
    World,
    _available,
    _layout,
    _truth,
    accuracy_fitness,
    energy_fitness,
)
from gpislands.trees import (
    Category,
    ConfigurationError,
    Individual,
    NodeKind,
    Origin,
    Sort,
    build_random_tree,
    if_greater,
    iter_nodes,
)

# ---------------------------------------------------------------------------
# programs


class _Killed(Exception):
    pass


def walk(tree, bindings, max_steps):
    """Run ``tree`` against ``bindings`` with a budget of ``max_steps`` nodes,
    never compiled.

    The walk checks the budget before every node, so it stops at the first
    node past the budget and calls no accessor after it.  The package
    compiles every program and decides the kill after the run; a compiled
    run must give the same kill, value and ``steps_used`` as this walk, and
    the same accessor calls up to the budget.
    """
    steps = 0

    def ev(node):
        nonlocal steps
        if steps >= max_steps:
            raise _Killed()
        steps += 1
        kind = node.kind
        if kind.category is Category.CONSTANT:
            return node.value
        if kind.category is Category.TERMINAL:
            accessor = bindings.get(kind.name)
            if accessor is None:
                raise ConfigurationError(f"terminal {kind.name!r} is not bound")
            return accessor()
        if kind.fn is if_greater:  # given thunks, it runs only the taken branch
            return kind.fn(*[(lambda c=c: ev(c)) for c in node.children])
        return kind.fn(*[ev(c) for c in node.children])

    try:
        value = ev(tree)
    except _Killed:
        return RunOutcome(True, None, steps)
    return RunOutcome(False, value, steps)


def feed_environments(catalog):
    """One bindings mapping per feed of ``catalog``, in catalog order; each
    accessor reads the feed's own attributes.  The package's terminal
    columns must hold, feed by feed, the values they give."""
    return tuple(_feed_environment(each, catalog) for each in catalog.feeds)


def _feed_environment(own, catalog):
    bindings = {
        "group_is_tech": lambda: 1.0 if own.is_tech else 0.0,
        "unread_count": lambda: float(own.unread),
    }
    for other in catalog.feeds:
        bindings[f"is_{other.feed_id}"] = (
            lambda match=(other.feed_id == own.feed_id): 1.0 if match else 0.0)
    return bindings


# ---------------------------------------------------------------------------
# feed scoring


def walk_feeds(tree, catalog, max_steps=None):
    """Each feed's walk of ``tree``, lazily and in catalog order, with a
    budget of ``max_steps`` nodes; with none, no budget stops a walk, since
    no walk evaluates more nodes than the tree has."""
    budget = tree.size if max_steps is None else max_steps
    return (walk(tree, env, budget) for env in feed_environments(catalog))


def walked_fill(tree, catalog):
    """The screen fill worked out feed by feed on the walker, at the feed
    task's step budget: ``None`` once some feed's walk is killed, else each
    feed's score in catalog order and the items :func:`cursor_screen`
    displays for their :func:`ranking_of`."""
    values = []
    for walked in walk_feeds(tree, catalog, feed.MAX_STEPS):
        if walked.killed:
            return None
        values.append(float(walked.value))
    return tuple(values), list(cursor_screen(catalog, ranking_of(values)))


def walked_steps(tree, catalog):
    """The nodes each feed's walk of ``tree`` evaluates when no budget stops
    it, in catalog order."""
    return tuple(walked.steps_used for walked in walk_feeds(tree, catalog))


def ranking_of(values):
    """The positive feeds' indices, best first, ties in catalog order."""
    return tuple(sorted((i for i, value in enumerate(values) if value > 0.0),
                        key=lambda i: -values[i]))


def cursor_screen(catalog, ranking):
    """The round-robin as a loop with a cursor per ranked feed, round by
    round until the screen is full or a round shows nothing: the reference
    for ``feed._screen``'s comprehension."""
    feeds = catalog.feeds
    cursors = {i: 0 for i in ranking}
    displayed = []
    while len(displayed) < feed.SCREEN_SIZE:
        progressed = False
        for i in ranking:
            if len(displayed) >= feed.SCREEN_SIZE:
                break
            if cursors[i] < feeds[i].unread:
                displayed.append((feeds[i].feed_id, cursors[i]))
                cursors[i] += 1
                progressed = True
        if not progressed:
            break
    return tuple(displayed)


def pass_values(tree, catalog):
    """Each feed's value for ``tree`` from the package's one pass, in catalog
    order.  It raises the pass's own ``KeyError`` for a terminal with no
    column, where a screen fill raises ``ConfigurationError``."""
    return feed._scorer(feed._feed_columns(catalog), len(catalog.feeds))(tree)


def pass_steps(tree, catalog):
    """Each feed's step count for ``tree`` from the package's counting walk,
    in catalog order, counting on the scorer that scored, as a fill does."""
    columns = feed._feed_columns(catalog)
    return feed._count_steps(tree, columns, feed._scorer(columns, len(catalog.feeds)))


# ---------------------------------------------------------------------------
# growth


def leaves_and_functions(prims, sort):
    """The kinds producing ``sort`` in declared order: its leaves (terminals
    and constant kind) and its functions."""
    kinds = [kind for kind in prims.all_kinds if kind.result_sort is sort]
    leaves = [kind for kind in kinds if kind.category is not Category.FUNCTION]
    functions = [kind for kind in kinds if kind.category is Category.FUNCTION]
    return leaves, functions


def sorts_with_leaves(prims):
    """The sorts some leaf of ``prims`` produces, by name: the sorts a tree
    of the set can be grown at."""
    return sorted((sort for sort in Sort if leaves_and_functions(prims, sort)[0]),
                  key=lambda s: s.value)


def at_bias(prims, bias):
    """``prims`` growing at ``bias``: the same vocabulary, its growth tables
    built again."""
    return dataclasses.replace(prims, function_bias=bias)


def grow(prims, sort, budget, rng):
    """A random tree of ``sort`` no deeper than ``budget``, grown as the
    textbook reads.

    One recursive call per node collects the kinds of the wanted sort from
    the set's declared kinds, in their order, and draws from the rng in the
    order the package must: the leaf when only leaves are eligible, else the
    leaf-or-function choice at the set's ``function_bias`` (only when the
    sort has leaves) and the kind, then a constant's payload, children left
    to right.  Every node, leaves included, is built fresh through the
    checked constructor, so trees grown here share no node.  The reference
    for :func:`gpislands.trees.grow_subtree`.
    """
    if budget < 1:
        raise ValueError("depth budget must be at least 1")
    leaves, functions = leaves_and_functions(prims, sort)
    if budget == 1 or not functions:
        if not leaves:
            raise ConfigurationError(f"no terminal or constant produces sort {sort.value!r}")
        kind = leaves[rng.randrange(len(leaves))]
    elif leaves and rng.random() >= prims.function_bias:
        kind = leaves[rng.randrange(len(leaves))]
    else:
        kind = functions[rng.randrange(len(functions))]
    if kind.category is Category.CONSTANT:
        return trees.ProgramTree(kind, (), float(prims.constant_sources[sort](rng)))
    if kind.category is Category.TERMINAL:
        return trees.ProgramTree(kind)
    children = tuple(grow(prims, arg, budget - 1, rng) for arg in kind.argument_sorts)
    return trees.ProgramTree(kind, children)


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True)
class ProgramTree:
    """The reference for ``ProgramTree``'s hand-written ``==``, ``hash`` and
    ``repr``, named so that the ``repr`` the dataclass generates reads the
    same as the real one's.  It holds only the three fields that take part
    in equality.

    Most interpreters generate an ``__eq__`` that compares the fields as one
    tuple, so a shared NaN payload is equal to itself.  Python 3.13.0
    generates a field-by-field ``self.value == other.value`` instead, under
    which it is not; where the interpreter does that, the class states the
    tuple compare itself, since that is what ``ProgramTree`` promises
    everywhere.
    """
    kind: NodeKind
    children: tuple["ProgramTree", ...] = ()
    value: Optional[float] = None


_NAN = float("nan")
if ProgramTree(None, (), _NAN) != ProgramTree(None, (), _NAN):
    def _tuple_eq(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.children, self.value) == (other.kind, other.children,
                                                          other.value)

    ProgramTree.__eq__ = _tuple_eq


def mirror(tree, mirrored=None):
    """``tree`` as reference nodes, keeping every payload object (so a shared
    NaN stays shared); ``mirrored`` maps node ids to the mirrors already
    made, so subtrees shared between trees mirrored with one map stay
    shared."""
    if mirrored is None:
        mirrored = {}
    done = mirrored.get(id(tree))
    if done is None:
        children = tuple(mirror(child, mirrored) for child in tree.children)
        done = mirrored[id(tree)] = ProgramTree(tree.kind, children, tree.value)
    return done


def recount(tree):
    """``(size, depth)`` recomputed by recursion over the children."""
    if not tree.children:
        return 1, 1
    counts = [recount(c) for c in tree.children]
    return 1 + sum(s for s, _ in counts), 1 + max(d for _, d in counts)


def reference_preorder(tree, depth=1):
    """``(node, depth)`` of every node, in preorder, by recursion."""
    nodes = [(tree, depth)]
    for child in tree.children:
        nodes.extend(reference_preorder(child, depth + 1))
    return nodes


def reference_replace(tree, index, replacement):
    """``tree`` with the node at preorder position ``index`` swapped for
    ``replacement``, by a full preorder rebuild through the checked
    constructor: the reference for :func:`gpislands.trees.replace_subtree`."""
    counter = [0]

    def rebuild(node):
        here = counter[0]
        if here == index:
            counter[0] += recount(node)[0]
            return replacement
        counter[0] += 1
        return trees.ProgramTree(node.kind, tuple(rebuild(c) for c in node.children),
                                 node.value)

    return rebuild(tree)


def checked_copy(tree):
    """``tree`` rebuilt node by node through the checked constructor, which
    raises if any node is not valid: a replacement at no position."""
    return reference_replace(tree, -1, None)


def reference_serialize(tree):
    """Serialization by recursion over the children."""
    if tree.kind.category is Category.CONSTANT:
        return f"({tree.kind.name} {float(tree.value)!r})"
    if not tree.children:
        return f"({tree.kind.name})"
    inner = " ".join(reference_serialize(c) for c in tree.children)
    return f"({tree.kind.name} {inner})"


# ---------------------------------------------------------------------------
# localisation: evaluation with every fix error drawn up front, fixes stored
# as positions, and each tick scored as the program runs


def displace(truth, radius, i, draws):
    """``truth`` moved by the error drawn at ``draws[i]`` (magnitude, as
    ``random.uniform(ERROR_LOW, ERROR_HIGH)`` scales it) and ``draws[i + 1]``
    (angle): where a fix places the phone."""
    magnitude = radius * (ERROR_LOW + (ERROR_HIGH - ERROR_LOW) * draws[i])
    angle = 2.0 * math.pi * draws[i + 1]
    x, y = truth
    return (x + magnitude * math.cos(angle), y + magnitude * math.sin(angle))


def fix_source(config, name, t):
    """Provider ``name``'s fix at tick ``t`` before its error is added,
    worked out from scratch: the true position, the provider's radius and
    the index of its magnitude draw, each provider's draws starting a whole
    ``2 * (ticks + 1)`` after the previous one's."""
    index = [p.name for p in config.providers].index(name)
    return (_truth(config.waypoints, t), config.providers[index].radius_m,
            2 * (config.ticks + 1) * index + 2 * int(t))


class EagerWorld:
    """A world that draws every provider's error at every tick when it is
    made, and keeps the program's fix as a position."""

    def __init__(self, config, seed):
        self.config = config
        self.t = 0.0
        self.enabled = {p.name: None for p in config.providers}
        self.fix = None  # (position, time, radius)
        self.by_name = {p.name: p for p in config.providers}
        draw = random.Random(f"world:{seed}").random
        self.draws = [draw() for _ in range(2 * len(config.providers) * (config.ticks + 1))]

    def fix_position(self, name, t):
        return displace(*fix_source(self.config, name, t), self.draws)

    def ready(self, provider, since):
        return (since is not None and self.t >= since + provider.first_fix_s
                and _available(self.config.segments, provider.name, self.t))

    def best(self, since_of):
        ready = [p for p in self.config.providers if self.ready(p, since_of(p))]
        return min(ready, key=lambda p: p.radius_m) if ready else None

    def act(self, action):
        if action == "request_fix":
            best = self.best(lambda p: self.enabled[p.name])
            if best is not None:
                self.fix = (self.fix_position(best.name, self.t), self.t, best.radius_m)
            return
        verb, _, name = action.partition(":")
        if name in self.by_name:
            if verb == "disable":
                self.enabled[name] = None
            elif self.enabled[name] is None:
                self.enabled[name] = self.t

    def environment(self):
        bindings = {
            "last_fix_age": lambda: NO_FIX_SENTINEL if self.fix is None else self.t - self.fix[1],
            "last_accuracy": lambda: NO_FIX_SENTINEL if self.fix is None else self.fix[2],
            "request_update": lambda: self.act("request_fix"),
        }
        for name in ("gps", "wifi", "cell"):
            bindings[f"enable_{name}"] = lambda name=name: self.act(f"enable:{name}")
            bindings[f"disable_{name}"] = lambda name=name: self.act(f"disable:{name}")
        return bindings


def power(config, enabled):
    """The current drawn by the radios ``enabled`` holds a time for, added
    left to right in config order: ``sum`` over floats rounds differently
    from 3.12 on."""
    return reduce(operator.add, [p.draw_ma for p in config.providers
                                 if enabled[p.name] is not None], 0)


def oracle_fitness(tree, config, seed):
    """The fitness, and whether the program was killed, of ``tree`` in the
    world of ``config`` and ``seed``; the tree is walked node by node, never
    compiled."""
    world = EagerWorld(config, seed)
    bindings = world.environment()
    total = 0.0
    for tick in range(1, config.ticks + 1):
        world.t = float(tick)
        if walk(tree, bindings, localisation.MAX_STEPS).killed:
            return total / config.ticks, True
        best = world.best(lambda p: 0.0)
        if best is None:
            acc = 0.0
        else:
            acc = accuracy_fitness(None if world.fix is None else world.fix[0],
                                   world.fix_position(best.name, world.t), best.radius_m)
        total += acc * energy_fitness(power(config, world.enabled))
    return total / config.ticks, False


def direct_trace(tree, config):
    """The control pass worked out with the walker, and each tick's energy
    from the :func:`power` of the radios on; also returns the radio sets it
    drew for."""
    world = World(config)
    bindings = world.environment()
    ticks = _layout(config).ticks
    trace, radio_sets = [], set()
    for tick in range(1, config.ticks + 1):
        world.t = float(tick)
        if walk(tree, bindings, localisation.MAX_STEPS).killed:
            break
        fix, reference = world.program_fix, ticks[world.t].reference_source
        if fix is None or reference is None:
            continue
        radio_sets.add(world.radios)
        energy = energy_fitness(power(config, world.enabled))
        if energy > 0.0:
            trace.append((fix[1], reference, energy))
    return tuple(trace), radio_sets


def reference_helper(tree):
    """The localisation helper as a full preorder walk with no early exit."""
    names = [node.kind.name for node, _ in iter_nodes(tree)]
    return (any(name.startswith("enable_") for name in names)
            and "request_update" in names)


# ---------------------------------------------------------------------------
# breeding: the operators as they were before they found their points
# through the recorded subtree sizes, and drew donors from a listing of the
# donor's nodes of the wanted sort even when all its nodes have it


def reference_mutate(tree, prims, max_depth, rng):
    nodes = list(iter_nodes(tree))
    index = rng.randrange(len(nodes))
    node, depth = nodes[index]
    budget = max(1, max_depth - depth + 1)
    return reference_replace(tree, index, grow(prims, node.kind.result_sort, budget, rng))


def reference_crossover(a, b, max_depth, rng, seen):
    """Crossover, also returning the node at the point it grafted at and the
    donor node it grafted, or two ``None`` when it falls back to ``a``.
    ``seen`` counts the cases a differential test must reach; a localisation
    tree of both sorts always has donors, so "no donors" is a donor of one
    sort, skipped without a draw."""
    a_nodes = list(iter_nodes(a))
    b_nodes = list(iter_nodes(b))
    one_sort = all(n.kind.result_sort is b.kind.result_sort for n, _ in b_nodes)
    donors_by_sort = {}
    for _ in range(CROSSOVER_RETRIES):
        index = rng.randrange(len(a_nodes))
        target, depth = a_nodes[index]
        sort = target.kind.result_sort
        donors = donors_by_sort.get(sort)
        if donors is None:
            donors = donors_by_sort[sort] = [n for n, _ in b_nodes if n.kind.result_sort is sort]
        if not donors:
            seen["no donors"] += 1
            continue
        seen["one-sort donor" if one_sort else "mixed donor"] += 1
        donor = donors[rng.randrange(len(donors))]
        if depth - 1 + donor.depth <= max_depth:
            seen["grafted"] += 1
            return reference_replace(a, index, donor), target, donor
    seen["fallback"] += 1
    return a, None, None


def oracle_best(pop, n):
    """The ``n`` fittest members by ``(-fitness, index)``."""
    order = sorted(range(len(pop.members)), key=lambda i: (-pop.members[i].fitness, i))
    return [pop.members[i] for i in order[:n]]


def oracle_pool(binding, pop):
    """A selector's pool, built on its own: the ``pool_best`` fittest
    members (all, when there are fewer), or every member."""
    if binding.pool_best is None:
        return list(pop.members)
    return oracle_best(pop, min(binding.pool_best, len(pop.members)))


def reference_breed(pop, strategy, prims, max_depth, rng, guard):
    """Breeding as it was before each selector kept one wheel per breed:
    every pick builds its selector's pool, and the wheel over it, again."""
    counters = {"rejections": 0, "fallbacks": 0}

    def guarded(make):
        candidate = make()
        if guard is None:
            return candidate
        for _ in range(REBUILD_ATTEMPTS):
            if guard(candidate):
                return candidate
            counters["rejections"] += 1
            candidate = make()
        counters["fallbacks"] += 1
        return candidate

    members = []
    for step in strategy.steps:
        binding = strategy.selectors.get(step.selector)

        def pick():
            return Wheel(oracle_pool(binding, pop)).spin(rng)

        for _ in range(step.count):
            if step.operator is Operator.COPY:
                src = pick()
                members.append(Individual.from_tree(src.tree, Origin.ELITE_COPY, src.fitness))
            elif step.operator is Operator.RANDOM:
                tree = guarded(lambda: build_random_tree(prims, max_depth, rng))
                members.append(Individual.from_tree(tree, Origin.RANDOM_INJECTED))
            elif step.operator is Operator.MUTATION:
                tree = guarded(lambda: mutate(pick().tree, prims, max_depth, rng))
                members.append(Individual.from_tree(tree))
            else:
                tree = guarded(lambda: crossover(pick().tree, pick().tree, max_depth, rng))
                members.append(Individual.from_tree(tree))
    return members, counters


def oracle_stats(pop):
    """A population's figures as ``max``, ``reduce`` from ``0`` and ``sum``
    give them."""
    count = len(pop.members)
    return (max(m.fitness for m in pop.members),
            reduce(operator.add, [m.fitness for m in pop.members], 0) / count,
            sum(m.size for m in pop.members) / count,
            sum(m.depth for m in pop.members) / count)


# ---------------------------------------------------------------------------
# the harness


def per_cell_summary(config, rows):
    """The summary written out cell by cell, one small numpy array per cell
    in row order: the oracle the one-pass summary is held to bit for bit."""
    cells = {}
    for r in rows:
        cells.setdefault((r.generation, r.island), []).append(r)
    summary = []
    for generation in range(config.generations):
        for island in range(config.islands):
            cell = cells[generation, island]
            maxes = np.array([r.max_fitness for r in cell])
            means = np.array([r.mean_fitness for r in cell])
            ddof = 1 if len(cell) > 1 else 0
            summary.append(harness.SummaryRow(
                generation=generation, island=island,
                max_fitness_mean=float(maxes.mean()),
                max_fitness_sd=float(maxes.std(ddof=ddof)),
                max_fitness_se=float(maxes.std(ddof=ddof) / np.sqrt(len(cell))),
                mean_fitness_mean=float(means.mean()),
                mean_fitness_sd=float(means.std(ddof=ddof)),
                mean_fitness_se=float(means.std(ddof=ddof) / np.sqrt(len(cell))),
            ))
    return summary
