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

All seven scores come from one pass over the tree (:func:`_scorer`):
each node it reads is evaluated once over every feed, a terminal reading a
column of per-feed values.  An ``if_greater`` that every feed takes the
same way reads only that branch; one that splits its feeds scores both
branches over every feed and gives each feed the value of the branch it
takes.  Each feed's value depends only on the operations on its own path,
and the vocabulary's arithmetic on floats neither raises nor has side
effects, so every feed gets the value of a run of its own, bit for bit, NaN
and ``inf`` included.

The fill is killed exactly when some feed's step count, the nodes a run of
that feed alone would evaluate, exceeds :data:`MAX_STEPS`, as a supervisor
running the feeds one by one would decide.  No run evaluates more nodes
than its tree has, so a tree of at most :data:`MAX_STEPS` nodes is never
killed and its steps are never counted.  A larger tree's counts come from
a second walk (:func:`_count_steps`) that evaluates nothing: it follows
each feed down the branches the recorded values send it.

The pass scores only what it has not scored before.  Every function node
it evaluates keeps its per-feed values on the node (``ProgramTree.record``),
keyed by the identity of the catalog's columns, the counting walk adds the
node's per-feed step counts once it has counted them, and a later pass or
walk over any tree holding the node reads them instead of descending.  A
bred child shares every subtree with its parents except the ancestors
breeding rebuilt, and a crossover donor has mostly been scored in its own
tree, so scoring or counting a child evaluates those ancestors and little
else.  A branch that no feed takes is never read and keeps no record.
The values and counts depend on nothing but the subtree and the columns,
and a record is never mutated, only replaced.

The screen fill is a pure function of the tree and the catalog, so it is
memoised on the tree's root node (``ProgramTree.memo``) together with the
catalog (:func:`_memoised_fill`), as the scores (the root's own tuple of
values, in catalog order) and the displayed items.  Elite copies, crossover
fallbacks and immigrants share their tree object with one already scored,
and their fill is not run again.

The displayed items depend on the scores only through the ranking: the
catalog indices of the feeds scoring above zero, best first, ties in
catalog order.  Many trees rank the feeds alike, so the round-robin runs
once per distinct catalog and ranking (:func:`_screen`), in a bounded
cache shared by every tree, and each fill only ranks its scores.

:class:`FeedEvaluator` reads the memoised fill directly and builds no
report.  The clicks are never memoised: every evaluation draws them afresh
from the evaluator's rng.  :class:`FeedReport`, built by
:func:`run_feed_program` and :func:`simulate_clicks` and scored by
:func:`feed_fitness`, holds the same screen, clicks and fitness for the demo
and the tests to read.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from typing import Callable, Optional, Sequence

from .interpreter import execute  # noqa: F401  unused: the traced benchmark wraps this name
from .trees import (
    Category,
    ConfigurationError,
    FrozenRecord,
    Individual,
    PrimitiveSet,
    ProgramTree,
    Record,
    Sort,
    _read_config_file,
    _set_field,
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


class Feed(FrozenRecord):
    """One feed of a catalog: its id (which names its ``is_<id>`` terminal),
    its group and how many unread items it holds."""

    __slots__ = ("feed_id", "group", "unread")
    _fields = __slots__

    def __init__(self, feed_id: str, group: str, unread: int) -> None:
        for label, text in (("id", feed_id), ("group", group)):
            if not isinstance(text, str) or not text:
                raise ConfigurationError(
                    f"feed {label} must be a non-empty string, got {text!r}")
        if _UNPARSEABLE.search(feed_id):
            # the id names the terminal is_<id>, which tree text must spell
            raise ConfigurationError(
                f"feed id {feed_id!r} must not contain whitespace or parentheses")
        if type(unread) is not int or unread < 0:  # rejects bools too
            raise ConfigurationError(
                f"feed {feed_id!r}: unread must be a whole number of at least 0, "
                f"got {unread!r}")
        try:
            float(unread)  # the unread_count terminal reads it as a float
        except OverflowError:
            raise ConfigurationError(
                f"feed {feed_id!r}: unread is too large for a float") from None
        _set_field(self, "feed_id", feed_id)
        _set_field(self, "group", group)
        _set_field(self, "unread", unread)

    @property
    def is_tech(self) -> bool:
        return self.group == TECH_GROUP


class FeedCatalog(FrozenRecord):
    """The feeds a screen is filled from, in order: at least one, with
    unique ids.

    The hash is the hash of the field tuple, worked out on first use and
    kept in ``_hash``, since every screen fill looks the catalog's columns
    up by it and hashing each feed runs Python code.
    """

    __slots__ = ("feeds", "_hash")
    _fields = ("feeds",)

    def __init__(self, feeds: tuple[Feed, ...]) -> None:
        if not feeds:
            raise ConfigurationError("a catalog needs at least one feed")
        if len({f.feed_id for f in feeds}) != len(feeds):
            raise ConfigurationError("feed ids must be unique")
        _set_field(self, "feeds", feeds)
        _set_field(self, "_hash", None)

    def __hash__(self) -> int:
        kept = self._hash
        if kept is None:
            kept = hash((self.feeds,))
            _set_field(self, "_hash", kept)
        return kept


def default_catalog(unread: int = DEFAULT_UNREAD) -> FeedCatalog:
    feeds = [Feed(fid, TECH_GROUP, unread) for fid in DEFAULT_FEED_IDS_TECH]
    feeds += [Feed(fid, "other", unread) for fid in DEFAULT_FEED_IDS_OTHER]
    return FeedCatalog(tuple(feeds))


class UserModel(FrozenRecord):
    """Click probability per feed id."""

    __slots__ = ("click_prob",)
    _fields = __slots__

    def __init__(self, click_prob: dict[str, float]) -> None:
        _set_field(self, "click_prob", click_prob)

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
    alone.  Equal catalogs get the same dict, so they share the per-node
    records keyed by it."""
    feeds = catalog.feeds
    columns = {"group_is_tech": tuple(1.0 if feed.is_tech else 0.0 for feed in feeds),
               "unread_count": tuple(float(feed.unread) for feed in feeds)}
    for other in feeds:
        columns[f"is_{other.feed_id}"] = tuple(1.0 if feed is other else 0.0 for feed in feeds)
    return columns


def _scorer(columns: dict[str, tuple], count: int) -> Callable[[ProgramTree], Sequence]:
    """The one pass over the ``count`` feeds of ``columns``: a function
    giving a node's value for every feed, as a tuple in catalog order.

    Each node the pass reads is evaluated once over every feed.  An
    ``if_greater`` tests ``a > b`` for each feed as a per-feed run does.
    When every feed takes the same branch, only that branch is read.  When
    the test splits the feeds, both branches are scored over every feed
    and each feed's value is picked from the branch it takes: a feed's
    value depends only on its own path, and the feed vocabulary neither
    raises nor has side effects, so every feed gets exactly the value of a
    per-feed run.  A terminal with no column raises a ``KeyError`` naming it.

    Every function node the pass evaluates keeps its values in its
    ``record`` as ``(columns, values, None)``, and any later pass over any
    tree that holds that node reads them instead of descending into it;
    :func:`_count_steps` may later replace the ``None`` with the node's
    counts, a tuple of one count per feed.  The values are a function of
    the subtree and the columns alone, the record is never mutated, and it
    holds the columns dict itself, so a record matches only while its
    columns are the ones being read (an identity no other dict can take
    while the record lives).  A branch no feed takes is never read and
    keeps no record.  Leaves must keep none: growth shares one node per
    terminal kind among every tree of a primitive set, so a leaf's record
    would stand for every copy of it, and a leaf's values cost nothing to
    read anyway.
    """
    def scored(node: ProgramTree) -> Sequence:
        kind = node.kind
        children = node.children
        if not children:
            if kind.category is Category.CONSTANT:
                return (node.value,) * count
            return columns[kind.name]
        record = node.record
        if record is not None and record[0] is columns:
            return record[1]
        if kind.fn is not if_greater:
            if len(children) == 2:
                a, b = children
                values = tuple(map(kind.fn, scored(a), scored(b)))
            else:
                values = tuple(map(kind.fn, *[scored(child) for child in children]))
        else:
            a, b, then, other = children
            taken = list(map(operator.gt, scored(a), scored(b)))
            if all(taken):
                values = scored(then)
            elif not any(taken):
                values = scored(other)
            else:
                values = tuple([t if k else o
                                for k, t, o in zip(taken, scored(then), scored(other))])
        node.record = (columns, values, None)
        return values

    return scored


def _count_steps(tree: ProgramTree, columns: dict[str, tuple],
                 scored: Callable[[ProgramTree], Sequence]) -> tuple[int, ...]:
    """Each feed's step count for ``tree``, in catalog order: the number of
    nodes a run of that feed alone would evaluate with no budget to stop
    it.  A leaf costs 1, an eager node 1 plus its children's counts, and an
    ``if_greater`` 1 plus the counts of ``a`` and ``b`` and of the branch
    the feed takes.

    The walk evaluates nothing.  It finds the branch each feed takes from
    the values ``scored``, the pass over ``columns``, recorded for ``a``
    and ``b``, so it descends only where some feed's run goes, and it
    scores first any function node whose record holds other columns (or
    none).  Each function node it counts keeps its counts, a tuple of one
    int per feed, in its record beside its values, and a later walk over
    any tree that holds the node reads them, so a bred child counts only
    the ancestors breeding rebuilt.  The walk raises only the pass's
    ``KeyError``, for a terminal with no column in a node it scores.
    """
    ones = (1,) * len(scored(tree))

    def counted(node: ProgramTree) -> tuple[int, ...]:
        children = node.children
        if not children:
            return ones
        values = scored(node)  # the record's, the node scored first if need be
        steps = node.record[2]
        if steps is not None:
            return steps
        if node.kind.fn is not if_greater:
            if len(children) == 2:
                a, b = children
                steps = tuple([1 + s + t for s, t in zip(counted(a), counted(b))])
            else:
                steps = ones
                for child in children:
                    steps = tuple(map(operator.add, steps, counted(child)))
        else:
            a, b, then, other = children
            taken = list(map(operator.gt, scored(a), scored(b)))
            if all(taken):
                branch = counted(then)
            elif not any(taken):
                branch = counted(other)
            else:
                branch = [t if k else o for k, t, o in zip(taken, counted(then), counted(other))]
            steps = tuple([1 + s + t + u for s, t, u in zip(counted(a), counted(b), branch)])
        node.record = (columns, values, steps)
        return steps

    return counted(tree)


class FeedReport(Record):
    """What one evaluation put on the screen and what got clicked; each
    field left out starts empty."""

    __slots__ = ("scores", "displayed", "clicked")
    _fields = __slots__

    def __init__(self, scores: Optional[dict[str, float]] = None,
                 displayed: Optional[list[tuple[str, int]]] = None,
                 clicked: Optional[list[tuple[str, int]]] = None) -> None:
        self.scores = {} if scores is None else scores
        self.displayed = [] if displayed is None else displayed
        self.clicked = [] if clicked is None else clicked

    def displayed_by_group(self, catalog: FeedCatalog) -> dict[str, int]:
        groups = {f.feed_id: f.group for f in catalog.feeds}
        counts = {f.group: 0 for f in catalog.feeds}
        for feed_id, _ in self.displayed:
            counts[groups[feed_id]] += 1
        return counts


def run_feed_program(tree: ProgramTree, catalog: FeedCatalog) -> FeedReport:
    """Score every feed with ``tree``, a tree of :func:`feed_primitives`
    over ``catalog``, and fill the screen round-robin.

    Feeds scoring <= 0 contribute nothing.  Ties rank by catalog position.
    If some feed's run would be killed, the whole report is empty.  The fill
    comes from :func:`_memoised_fill`; every call returns a fresh report.
    The demo and the tests read reports; evolution scores through
    :class:`FeedEvaluator`, which builds none.
    """
    fill = _memoised_fill(tree, catalog)
    if fill is None:  # killed
        return FeedReport()
    values, displayed = fill
    return FeedReport(
        scores={feed.feed_id: float(value) for feed, value in zip(catalog.feeds, values)},
        displayed=list(displayed))


#: A screen fill: each feed's score in catalog order, and the items shown.
Fill = tuple[Sequence, tuple[tuple[str, int], ...]]


def _memoised_fill(tree: ProgramTree, catalog: FeedCatalog) -> Optional[Fill]:
    """:func:`_fill_screen` of ``tree`` and ``catalog``, memoised on ``tree``
    for the last catalog it was computed for, as ``(values, displayed)`` or
    ``None`` when killed.  The fill is shared, its values with the root's
    record and its screen with every tree of the same ranking: callers must
    not mutate it."""
    memo = tree.memo
    if memo is None or memo[0] is not catalog and memo[0] != catalog:
        memo = (catalog, _fill_screen(tree, catalog))
        tree.memo = memo
    return memo[1]


def _fill_screen(tree: ProgramTree, catalog: FeedCatalog) -> Optional[Fill]:
    """The scores and the displayed items, or ``None`` if a run was killed.

    Every tree is scored in one pass (:func:`_scorer`).  The fill is
    killed exactly when some feed's run would evaluate more than
    :data:`MAX_STEPS` nodes, which only a tree of more nodes than that can
    do, so only such a tree's steps are counted (:func:`_count_steps`).

    ``tree`` is a tree of :func:`feed_primitives` over ``catalog``: a terminal
    the catalog does not bind raises :class:`ConfigurationError` naming it
    wherever the pass reads it, in any feed's branch, even in a killed tree.

    The scores are the pass's own tuple of values, not copied.  The screen
    is :func:`_screen` of the ranking: the indices of the feeds scoring
    above zero, best first.  A NaN score drops out (``NaN > 0.0`` is
    false) before the sort, where it would misrank the others, and the sort
    is stable, ``reverse`` included, so ties keep their catalog order.
    """
    columns = _feed_columns(catalog)
    scored = _scorer(columns, len(catalog.feeds))
    try:
        values = scored(tree)
        if tree.size > MAX_STEPS and max(_count_steps(tree, columns, scored)) > MAX_STEPS:
            return None  # killed
    except KeyError as missing:  # the pass read a terminal with no column
        raise ConfigurationError(f"terminal {missing.args[0]!r} is not bound") from None
    ranking = tuple(sorted([i for i, value in enumerate(values) if value > 0.0],
                           key=values.__getitem__, reverse=True))
    return values, _screen(catalog, ranking)


#: How many screens :func:`_screen` keeps, over every catalog and ranking;
#: seven feeds can be ranked 13700 ways, and a run meets a few hundred.
SCREEN_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=SCREEN_CACHE_SIZE)
def _screen(catalog: FeedCatalog, ranking: tuple[int, ...]) -> tuple[tuple[str, int], ...]:
    """The items the screen shows when the feeds at ``ranking`` (catalog
    indices, best first) are the positive ones: their unread items
    round-robin, best feed first, until the screen is full or every ranked
    feed is exhausted.  Kept for the last :data:`SCREEN_CACHE_SIZE`
    catalogs and rankings asked for; equal catalogs share their screens."""
    ranked = [catalog.feeds[i] for i in ranking]
    # each round shows an item until every ranked feed is exhausted: SCREEN_SIZE rounds suffice
    return tuple([(feed.feed_id, k) for k in range(SCREEN_SIZE) for feed in ranked
                  if k < feed.unread][:SCREEN_SIZE])


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
    """Fitness callback: one screen fill plus one simulated reading session.

    It scores straight from the memoised fill, with no :class:`FeedReport`:
    one ``rng.random()`` per displayed item, in display order, a feed the
    user never clicks included, against the user's probability for that
    feed, looked up in a table built once from ``user.probability`` over the
    catalog's feeds.  The fitness is :func:`feed_fitness`'s expression, and
    a killed fill or an empty screen scores 0.0 and draws nothing, so every
    evaluation's fitness and rng state are those of :func:`run_feed_program`,
    :func:`simulate_clicks` and :func:`feed_fitness` in turn.

    It scores trees of :func:`feed_primitives` over its catalog, which the
    harness builds from the same catalog and ``deserialize`` enforces.
    """

    def __init__(self, catalog: FeedCatalog, user: UserModel, rng: random.Random) -> None:
        self.catalog = catalog
        self.rng = rng
        self.click_prob = {feed.feed_id: user.probability(feed.feed_id)
                           for feed in catalog.feeds}

    def __call__(self, member: Individual) -> float:
        fill = _memoised_fill(member.tree, self.catalog)
        if fill is None:  # killed
            return 0.0
        displayed = fill[1]
        if not displayed:
            return 0.0
        draw, click_prob = self.rng.random, self.click_prob
        clicked = [draw() < click_prob[feed_id] for feed_id, _ in displayed].count(True)
        return min(len(displayed) / SCREEN_SIZE, 1.0) * (clicked / len(displayed))


# ---------------------------------------------------------------------------
# config files

def catalog_from_dict(data: dict) -> FeedCatalog:
    """``feeds`` lists at least one feed; a feed's ``unread`` defaults to
    :data:`DEFAULT_UNREAD`."""
    try:
        return FeedCatalog(tuple(Feed(f["id"], f["group"], f.get("unread", DEFAULT_UNREAD))
                                 for f in data["feeds"]))
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
    data = _read_config_file(path, "feed config")
    catalog = catalog_from_dict(data)
    return catalog, user_from_dict(data, catalog)
