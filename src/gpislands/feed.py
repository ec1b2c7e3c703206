"""Feed-ranking benchmark: evolve a scoring program for a news-feed screen.

The screen holds :data:`SCREEN_SIZE` items drawn from seven feeds, four
tech and three not.  A program gives each feed a score (its terminals read
that feed's attributes); feeds scoring above zero are ranked and their
unread items fill the screen round-robin, best feed first, until the screen
is full or every positive feed is exhausted.  A synthetic user then clicks
each displayed item with a per-feed probability, and fitness is the fill
ratio times the click-through ratio:

    fitness = min(displayed / SCREEN_SIZE, 1) * (clicked / displayed)

with fitness 0 when nothing is displayed.  A program killed by the
supervisor displays nothing.

All seven scores come from one pass over the tree (:func:`_score_feeds`):
each node is evaluated once over the list of feeds that reach it, a terminal
reading a column of per-feed values, and ``if_greater`` splitting its feeds
between its branches.  Every feed meets the same operations on the same
operands as in a run of its own, so each score keeps its bits, NaN and
``inf`` included.  The same pass tallies each feed's step count, the nodes
a run of that feed alone would evaluate, and the fill is killed exactly
when some feed's count exceeds :data:`MAX_STEPS`, as a supervisor running
the feeds one by one would decide.  The feed task runs no interpreter.

The pass scores only what it has not scored before.  A function node that
every feed of a catalog reaches keeps its per-feed values on the node
(``ProgramTree.record``), keyed by the identity of that catalog's columns,
together with its per-feed step counts, and a later pass over any tree
holding the node reads them instead of descending.  A bred child shares
every subtree with its parents except the ancestors breeding rebuilt, and a
crossover donor has mostly been scored in its own tree, so scoring a child
evaluates those ancestors, and below them only the branches that some feeds
alone reach.  The values and counts depend on nothing but the subtree and
the columns, and a record is never mutated, only replaced.

The screen fill is a pure function of the tree and the catalog, so
:func:`run_feed_program` memoises it on the tree's root node
(``ProgramTree.memo``) together with the catalog.
Elite copies, crossover fallbacks and immigrants share their tree object
with one already scored, and their fill is not run again.  The clicks are
never memoised: every evaluation draws them afresh from the evaluator's rng.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .interpreter import execute  # unused: kept for perfbench, which wraps feed.execute
from .trees import (
    Category,
    ConfigurationError,
    Individual,
    PrimitiveSet,
    ProgramTree,
    Sort,
    arithmetic_kinds,
    config_number,
    if_greater,
    if_greater_kind,
    terminal,
)

TECH_GROUP = "tech"

#: Per-feed unread items.  Small enough that no single feed can fill the
#: screen on its own, so good programs have to pull in the whole tech group.
DEFAULT_UNREAD = 3
SCREEN_SIZE = 10
#: The supervisor's step budget: a run that evaluates more nodes is killed.
MAX_STEPS = 512
#: How readily growth nests functions in feed programs: the
#: ``function_bias`` of every set :func:`feed_primitives` builds.
FEED_FUNCTION_BIAS = 0.75

DEFAULT_FEED_IDS_TECH = ("techcrunch", "techland", "engadget", "digitaltrends")
DEFAULT_FEED_IDS_OTHER = ("visualloop", "breakvideos", "businessgreen")


_UNPARSEABLE = re.compile(r"[\s()]")


@dataclass(frozen=True)
class Feed:
    feed_id: str
    group: str
    unread: int

    def __post_init__(self) -> None:
        for label, text in (("id", self.feed_id), ("group", self.group)):
            if not isinstance(text, str) or not text:
                raise ConfigurationError(
                    f"feed {label} must be a non-empty string, got {text!r}")
        if _UNPARSEABLE.search(self.feed_id):
            # the id names the terminal is_<id>, which tree text must spell
            raise ConfigurationError(
                f"feed id {self.feed_id!r} must not contain whitespace or parentheses")
        if type(self.unread) is not int or self.unread < 0:  # rejects bools too
            raise ConfigurationError(
                f"feed {self.feed_id!r}: unread must be a whole number of at least 0, "
                f"got {self.unread!r}")
        try:
            float(self.unread)  # the unread_count terminal reads it as a float
        except OverflowError:
            raise ConfigurationError(
                f"feed {self.feed_id!r}: unread is too large for a float") from None

    @property
    def is_tech(self) -> bool:
        return self.group == TECH_GROUP


@dataclass(frozen=True)
class FeedCatalog:
    """The feeds a screen is filled from, in order.

    The hash is the one the dataclass would generate, worked out on first
    use and kept, since every screen fill looks the catalog's columns up by
    it and hashing each feed runs Python code.
    """

    feeds: tuple[Feed, ...]
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        kept = self._hash
        if kept is None:
            kept = hash((self.feeds,))
            object.__setattr__(self, "_hash", kept)
        return kept

    def __post_init__(self) -> None:
        if len({f.feed_id for f in self.feeds}) != len(self.feeds):
            raise ConfigurationError("feed ids must be unique")


def default_catalog(unread: int = DEFAULT_UNREAD) -> FeedCatalog:
    feeds = [Feed(fid, TECH_GROUP, unread) for fid in DEFAULT_FEED_IDS_TECH]
    feeds += [Feed(fid, "other", unread) for fid in DEFAULT_FEED_IDS_OTHER]
    return FeedCatalog(tuple(feeds))


@dataclass(frozen=True)
class UserModel:
    """Click probability per feed id."""

    click_prob: dict[str, float]

    def probability(self, feed_id: str) -> float:
        return self.click_prob.get(feed_id, 0.0)


def homogeneous_user(catalog: FeedCatalog) -> UserModel:
    """The group-level reader: loves tech feeds, skims the rest."""
    return UserModel({f.feed_id: 0.9 if f.is_tech else 0.1
                      for f in catalog.feeds})


def preference_user(catalog: FeedCatalog, preferred: Sequence[str]) -> UserModel:
    """A reader who clicks a specific set of feeds, whatever their group."""
    wanted = set(preferred)
    unknown = wanted - {f.feed_id for f in catalog.feeds}
    if unknown:
        raise ConfigurationError(f"unknown feeds in preferences: {sorted(unknown)}")
    return UserModel({f.feed_id: 0.9 if f.feed_id in wanted else 0.1
                      for f in catalog.feeds})


#: Per-island reader tastes for the split-landscape experiments.
HETEROGENEOUS_PREFERENCES = (
    ("techcrunch", "engadget"),
    ("breakvideos", "digitaltrends"),
)


def landscape_user(catalog: FeedCatalog, landscape: str, island: int) -> UserModel:
    if landscape == "homo":
        return homogeneous_user(catalog)
    if landscape == "hetero":
        prefs = HETEROGENEOUS_PREFERENCES[island % len(HETEROGENEOUS_PREFERENCES)]
        return preference_user(catalog, prefs)
    raise ConfigurationError(f"unknown landscape {landscape!r}")


def feed_primitives(catalog: FeedCatalog) -> PrimitiveSet:
    """Scoring vocabulary: feed attributes, identity tests and arithmetic."""
    kinds = arithmetic_kinds()
    kinds.append(if_greater_kind(Sort.NUMBER))
    kinds.append(terminal("group_is_tech", Sort.NUMBER))
    kinds.append(terminal("unread_count", Sort.NUMBER))
    for feed in catalog.feeds:
        kinds.append(terminal(f"is_{feed.feed_id}", Sort.NUMBER))
    return PrimitiveSet(kinds, Sort.NUMBER,
                        constant_sources={Sort.NUMBER: lambda rng: rng.uniform(-10.0, 10.0)},
                        function_bias=FEED_FUNCTION_BIAS)


@functools.lru_cache(maxsize=16)
def _feed_columns(catalog: FeedCatalog) -> dict[str, tuple]:
    """Each terminal's value for every feed, as a tuple in catalog order:
    the feed's attributes as floats, ``is_<id>`` being 1.0 on that feed
    alone.  An empty catalog binds no terminal.  Equal catalogs get the same
    dict, so they share the per-node records keyed by it."""
    feeds = catalog.feeds
    columns = {"group_is_tech": tuple(1.0 if feed.is_tech else 0.0 for feed in feeds),
               "unread_count": tuple(float(feed.unread) for feed in feeds)}
    for other in feeds:
        columns[f"is_{other.feed_id}"] = tuple(1.0 if feed is other else 0.0 for feed in feeds)
    return columns if feeds else {}


#: Step counts, one per feed: one int when every feed took the same count,
#: else a tuple in the order of the feeds counted.
Steps = Union[int, tuple[int, ...]]


def _score_feeds(tree: ProgramTree, catalog: FeedCatalog
                 ) -> tuple[Sequence, tuple[int, ...]]:
    """``tree``'s value for every feed of ``catalog`` and each feed's step
    count, both in catalog order, from one pass over the tree.

    Each node is evaluated once over the feeds that reach it.  An
    ``if_greater`` splits its feeds by the same ``a > b`` test a per-feed
    run applies and runs each branch over its own feeds only, so every feed
    sees exactly the operations, and gets exactly the value, of a per-feed
    run.  A feed's step count is the number of nodes a run of that feed
    alone would evaluate with no budget to stop it: a leaf costs 1, an eager
    node 1 plus its children's counts, and an ``if_greater`` 1 plus the
    counts of ``a`` and ``b`` and of the branch the feed takes.

    A function node evaluated over every feed keeps its values, as a tuple in
    catalog order, and its counts (:data:`Steps`) in its ``record`` together
    with the catalog's columns, and any later pass over any tree that holds
    that node reads them instead of descending into it.  They are a function
    of the subtree and the columns alone, the record is never mutated, and
    it holds the columns dict itself, so a record matches only while its
    columns are the ones being read (an identity no other dict can take
    while the record lives).  A branch only some feeds reach is evaluated
    over those feeds and keeps no record, so an unbound terminal still
    raises only when a feed reaches it.  Leaves keep none either: their
    values cost nothing to read.
    """
    if not catalog.feeds:
        return (), ()
    columns = _feed_columns(catalog)
    every = range(len(catalog.feeds))

    def scored(node: ProgramTree, rows: Sequence[int]) -> tuple[Sequence, Steps]:
        """``node``'s value and step count for each feed of ``rows``."""
        kind = node.kind
        children = node.children
        if not children:
            if kind.category is Category.CONSTANT:
                return (node.value,) * len(rows), 1
            column = columns.get(kind.name)
            if column is None:
                raise ConfigurationError(f"terminal {kind.name!r} is not bound")
            return (column if rows is every else [column[i] for i in rows]), 1
        full = rows is every
        if full:
            record = node.record
            if record is not None and record[0] is columns:
                return record[1], record[2]
        if not kind.lazy:
            if len(children) == 2:
                a, b = children
                a_values, a_steps = scored(a, rows)
                b_values, b_steps = scored(b, rows)
                values = tuple(map(kind.fn, a_values, b_values))
                steps = _plus(a_steps, b_steps, 1)
            else:
                tallies = [scored(child, rows) for child in children]
                values = tuple(map(kind.fn, *[child_values for child_values, _ in tallies]))
                steps = 1
                for _, child_steps in tallies:
                    steps = _plus(steps, child_steps, 0)
        elif kind.fn is not if_greater:
            raise ConfigurationError(
                f"lazy function {kind.name!r} cannot score every feed in one pass")
        else:
            a, b, then, other = children
            a_values, a_steps = scored(a, rows)
            b_values, b_steps = scored(b, rows)
            taken = list(map(operator.gt, a_values, b_values))
            if all(taken):
                values, branch_steps = scored(then, rows)
            elif not any(taken):
                values, branch_steps = scored(other, rows)
            else:
                then_values, then_steps = scored(then, [r for r, t in zip(rows, taken) if t])
                other_values, other_steps = scored(
                    other, [r for r, t in zip(rows, taken) if not t])
                values = _interleave(taken, then_values, other_values)
                if then_steps.__class__ is int and then_steps == other_steps:
                    branch_steps = then_steps
                else:
                    branch_steps = _interleave(taken, _each(then_steps), _each(other_steps))
            steps = _plus(_plus(a_steps, b_steps, 1), branch_steps, 0)
        if full:
            node.record = (columns, values, steps)
        return values, steps

    values, steps = scored(tree, every)
    return values, (steps,) * len(every) if steps.__class__ is int else steps


def _each(steps: Steps) -> Iterable[int]:
    """The counts of :data:`Steps` feed by feed (endless when one int)."""
    return itertools.repeat(steps) if steps.__class__ is int else steps


def _plus(a: Steps, b: Steps, extra: int) -> Steps:
    """Feed by feed, ``a + b + extra``."""
    if a.__class__ is int and b.__class__ is int:
        return a + b + extra
    return tuple([s + t + extra for s, t in zip(_each(a), _each(b))])


def _interleave(taken: Sequence[bool], thens: Iterable, others: Iterable) -> tuple:
    """``thens`` where ``taken`` holds and ``others`` elsewhere, each read in
    order: a branch's results over its own feeds put back in feed order."""
    thens, others = iter(thens), iter(others)
    return tuple([next(thens) if t else next(others) for t in taken])


@dataclass
class FeedReport:
    """What one evaluation put on the screen and what got clicked."""

    scores: dict[str, float] = field(default_factory=dict)
    displayed: list[tuple[str, int]] = field(default_factory=list)
    clicked: list[tuple[str, int]] = field(default_factory=list)

    def displayed_by_group(self, catalog: FeedCatalog) -> dict[str, int]:
        groups = {f.feed_id: f.group for f in catalog.feeds}
        counts = {f.group: 0 for f in catalog.feeds}
        for feed_id, _ in self.displayed:
            counts[groups[feed_id]] += 1
        return counts


def run_feed_program(tree: ProgramTree, catalog: FeedCatalog) -> FeedReport:
    """Score every feed with ``tree`` and fill the screen round-robin.

    Feeds scoring <= 0 contribute nothing.  Ties rank by catalog position.
    If some feed's run would be killed, the whole report is empty.  The fill is
    memoised on ``tree`` for the last catalog it was computed for; every
    call returns a fresh report.
    """
    memo = tree.memo
    if memo is None or memo[0] != catalog:
        memo = (catalog, _fill_screen(tree, catalog))
        tree.memo = memo
    fill = memo[1]
    if fill is None:  # killed
        return FeedReport()
    scores, displayed = fill
    return FeedReport(scores=dict(scores), displayed=list(displayed))


def _fill_screen(tree: ProgramTree, catalog: FeedCatalog
                 ) -> Optional[tuple[dict[str, float], tuple[tuple[str, int], ...]]]:
    """The scores and the displayed items, or ``None`` if a run was killed.

    Every tree is scored and counted in one pass (:func:`_score_feeds`):
    the fill is killed exactly when some feed's run would evaluate more
    than :data:`MAX_STEPS` nodes.  The pass scores every feed before the
    kill is decided, so a terminal the catalog does not bind raises
    :class:`ConfigurationError` whenever some feed reaches it, even in a
    tree the budget kills.
    """
    values, steps = _score_feeds(tree, catalog)
    if max(steps, default=0) > MAX_STEPS:
        return None
    scores = {feed.feed_id: float(value) for feed, value in zip(catalog.feeds, values)}
    # drop before sorting: a NaN score would break the sort for the others;
    # the sort is stable, so ties keep their catalog order
    ranked = sorted((f for f in catalog.feeds if scores[f.feed_id] > 0.0),
                    key=lambda f: -scores[f.feed_id])
    cursors = {f.feed_id: 0 for f in ranked}
    displayed: list[tuple[str, int]] = []
    while len(displayed) < SCREEN_SIZE:
        progressed = False
        for feed in ranked:
            if len(displayed) >= SCREEN_SIZE:
                break
            if cursors[feed.feed_id] < feed.unread:
                displayed.append((feed.feed_id, cursors[feed.feed_id]))
                cursors[feed.feed_id] += 1
                progressed = True
        if not progressed:
            break
    return scores, tuple(displayed)


def simulate_clicks(report: FeedReport, user: UserModel, rng: random.Random) -> FeedReport:
    """Bernoulli click per displayed item at the user's per-feed probability."""
    report.clicked = [item for item in report.displayed
                      if rng.random() < user.probability(item[0])]
    return report


def feed_fitness(report: FeedReport) -> float:
    if not report.displayed:
        return 0.0
    count_ratio = min(len(report.displayed) / SCREEN_SIZE, 1.0)
    click_ratio = len(report.clicked) / len(report.displayed)
    return count_ratio * click_ratio


class FeedEvaluator:
    """Fitness callback: one screen fill plus one simulated reading session."""

    def __init__(self, catalog: FeedCatalog, user: UserModel, rng: random.Random) -> None:
        self.catalog = catalog
        self.user = user
        self.rng = rng

    def evaluate_report(self, tree: ProgramTree) -> tuple[float, FeedReport]:
        report = run_feed_program(tree, self.catalog)
        simulate_clicks(report, self.user, self.rng)
        return feed_fitness(report), report

    def __call__(self, member: Individual) -> float:
        fitness, _ = self.evaluate_report(member.tree)
        return fitness


# ---------------------------------------------------------------------------
# config files

def catalog_from_dict(data: dict) -> FeedCatalog:
    """``feeds`` lists at least one feed; a feed's ``unread`` defaults to
    :data:`DEFAULT_UNREAD`."""
    try:
        feeds = tuple(Feed(f["id"], f["group"], f.get("unread", DEFAULT_UNREAD))
                      for f in data["feeds"])
        if not feeds:
            raise ConfigurationError("'feeds' must list at least one feed")
        return FeedCatalog(feeds)
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad catalog config: {exc}") from exc


def user_from_dict(data: dict, catalog: FeedCatalog) -> UserModel:
    """``click_prob`` maps catalog feed ids to probabilities in [0, 1], each a
    JSON number; feeds it leaves out are never clicked."""
    probs = data.get("click_prob")
    if probs is None:
        return homogeneous_user(catalog)
    try:
        click_prob = {str(k): config_number(v) for k, v in probs.items()}
    except (AttributeError, ConfigurationError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad click_prob config: {exc}") from exc
    unknown = click_prob.keys() - {f.feed_id for f in catalog.feeds}
    if unknown:
        raise ConfigurationError(f"bad click_prob config: no catalog feed {sorted(unknown)}")
    for feed_id, prob in click_prob.items():
        if not 0.0 <= prob <= 1.0:  # also rejects nan and inf
            raise ConfigurationError(
                f"bad click_prob config: {feed_id!r} must lie in [0, 1], got {prob!r}")
    return UserModel(click_prob)


def load_feed_config(path: str) -> tuple[FeedCatalog, UserModel]:
    """Read ``{"feeds": [...], "click_prob": {...}}`` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigurationError(f"bad feed config file {path!r}: {exc}") from exc
    catalog = catalog_from_dict(data)
    return catalog, user_from_dict(data, catalog)
