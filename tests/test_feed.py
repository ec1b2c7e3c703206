"""The feed-ranking benchmark: screen filling, clicks, fitness, configs."""
import itertools
import json
import math
import random
import statistics
from collections import Counter

import grower
import pytest
from sized import always, feed_chain, feed_edges, feed_sum
from walker import feed_environments, walk

from gpislands import feed as feed_module
from gpislands.feed import (
    MAX_STEPS,
    SCREEN_SIZE,
    Feed,
    FeedCatalog,
    FeedEvaluator,
    FeedReport,
    HETEROGENEOUS_PREFERENCES,
    UserModel,
    default_catalog,
    feed_fitness,
    feed_primitives,
    homogeneous_user,
    landscape_user,
    load_feed_config,
    preference_user,
    run_feed_program,
    simulate_clicks,
)
from gpislands.evolution import crossover, mutate
from gpislands.trees import (
    DEPTH_CEILING,
    Category,
    ConfigurationError,
    Individual,
    PrimitiveSet,
    ProgramTree,
    Sort,
    arithmetic_kinds,
    build_random_tree,
    constant_kind_name,
    deserialize,
    function,
    iter_nodes,
    replace_subtree,
    serialize,
)


@pytest.fixture
def catalog():
    return default_catalog()


def program(prims, name):
    return ProgramTree(prims.kind(name))


def const_program(prims, value):
    return ProgramTree(prims.kind(constant_kind_name(Sort.NUMBER)), value=value)


def expected_fitness(report, user):
    """Deterministic expectation: count ratio times mean click probability."""
    if not report.displayed:
        return 0.0
    count_ratio = min(len(report.displayed) / SCREEN_SIZE, 1.0)
    return count_ratio * statistics.mean(user.probability(fid)
                                         for fid, _ in report.displayed)


# ---------------------------------------------------------------------------
# catalog and users

def test_default_catalog_composition(catalog):
    assert len(catalog.feeds) == 7
    groups = [f.group for f in catalog.feeds]
    assert groups.count("tech") == 4 and groups.count("other") == 3
    assert all(f.unread == 3 for f in catalog.feeds)


def test_duplicate_feed_ids_rejected():
    from gpislands.feed import Feed
    with pytest.raises(ConfigurationError):
        FeedCatalog((Feed("a", "tech", 1), Feed("a", "other", 1)))


def test_homogeneous_user_probabilities(catalog):
    user = homogeneous_user(catalog)
    for f in catalog.feeds:
        assert user.probability(f.feed_id) == (0.9 if f.is_tech else 0.1)


def test_preference_user_rejects_unknown_feeds(catalog):
    with pytest.raises(ConfigurationError):
        preference_user(catalog, ["techcrunch", "nosuchfeed"])


def test_heterogeneous_islands_get_disjoint_tastes(catalog):
    lhs = landscape_user(catalog, "hetero", 0)
    rhs = landscape_user(catalog, "hetero", 1)
    lhs_liked = {fid for fid in lhs.click_prob if lhs.probability(fid) > 0.5}
    rhs_liked = {fid for fid in rhs.click_prob if rhs.probability(fid) > 0.5}
    assert lhs_liked == set(HETEROGENEOUS_PREFERENCES[0])
    assert rhs_liked == set(HETEROGENEOUS_PREFERENCES[1])
    assert not lhs_liked & rhs_liked
    with pytest.raises(ConfigurationError):
        landscape_user(catalog, "diagonal", 0)


# ---------------------------------------------------------------------------
# screen filling

def test_uniform_scores_fill_round_robin(catalog, feed_prims):
    report = run_feed_program(const_program(feed_prims, 1.0), catalog)
    assert len(report.displayed) == 10
    first_round = [fid for fid, _ in report.displayed[:7]]
    assert first_round == [f.feed_id for f in catalog.feeds]  # ties by position
    assert [fid for fid, _ in report.displayed[7:]] == first_round[:3]


def test_zero_scores_display_nothing(catalog, feed_prims):
    report = run_feed_program(const_program(feed_prims, 0.0), catalog)
    assert report.displayed == []
    assert feed_fitness(report) == 0.0


def test_negative_scores_are_excluded(catalog, feed_prims):
    report = run_feed_program(program(feed_prims, "group_is_tech"), catalog)
    assert len(report.displayed) == 10
    assert report.displayed_by_group(catalog) == {"tech": 10, "other": 0}


def test_higher_scores_rank_first(catalog, feed_prims):
    # unread_count is constant here, so use a per-feed identity: one feed wins
    report = run_feed_program(program(feed_prims, "is_breakvideos"), catalog)
    assert {fid for fid, _ in report.displayed} == {"breakvideos"}
    assert len(report.displayed) == 3  # supply exhausted below the screen size


def test_a_nan_score_does_not_misrank_the_other_feeds():
    """Feed b scores inf - inf; it is dropped, and c (2.0) still ranks
    before a (1.0)."""
    catalog = FeedCatalog((Feed("a", "tech", 3), Feed("b", "tech", 3),
                           Feed("c", "tech", 3)))
    prims = feed_primitives(catalog)
    tree = deserialize(
        "(if_greater (is_b) (const:Number 0.5)"
        " (sub (mul (const:Number 1e300) (const:Number 1e300))"
        " (mul (const:Number 1e300) (const:Number 1e300)))"
        " (add (const:Number 1.0) (is_c)))", prims)
    report = run_feed_program(tree, catalog)
    assert report.scores["a"] == 1.0 and report.scores["c"] == 2.0
    assert math.isnan(report.scores["b"])
    assert report.displayed == [("c", 0), ("a", 0), ("c", 1), ("a", 1),
                                ("c", 2), ("a", 2)]


def test_killed_run_empties_the_screen(catalog, feed_prims):
    report = run_feed_program(feed_sum(feed_prims, MAX_STEPS + 1), catalog)
    assert report.displayed == []
    assert report.scores == {}


def test_item_indices_are_distinct_per_feed(catalog, feed_prims):
    report = run_feed_program(const_program(feed_prims, 2.0), catalog)
    assert len(set(report.displayed)) == len(report.displayed)


# ---------------------------------------------------------------------------
# the screen fill memo

def fresh_copy(tree, prims):
    """A structurally equal tree with no memo on it."""
    return deserialize(serialize(tree), prims)


@pytest.fixture
def fill_calls(monkeypatch):
    """Every screen fill computed, whichever path scored it."""
    calls = []
    real = feed_module._fill_screen

    def counted(tree, catalog):
        fill = real(tree, catalog)
        calls.append(fill)
        return fill

    monkeypatch.setattr(feed_module, "_fill_screen", counted)
    return calls


def test_a_memoised_fill_gives_equal_but_distinct_reports(catalog, feed_prims,
                                                           fill_calls):
    tree = build_random_tree(feed_prims, 5, random.Random(4))
    first = run_feed_program(tree, catalog)
    runs = len(fill_calls)
    second = run_feed_program(tree, catalog)
    assert len(fill_calls) == runs == 1  # no second fill
    assert second == first == run_feed_program(fresh_copy(tree, feed_prims), catalog)
    assert second is not first
    assert second.scores is not first.scores
    assert second.displayed is not first.displayed
    second.displayed.append(("techcrunch", 99))
    assert run_feed_program(tree, catalog) == first


def test_other_inputs_recompute_the_fill(catalog, feed_prims, fill_calls):
    tree = build_random_tree(feed_prims, 5, random.Random(4))
    run_feed_program(tree, catalog)  # memoise the base catalog
    before = len(fill_calls)
    got = run_feed_program(tree, default_catalog(unread=5))
    assert len(fill_calls) == before + 1
    assert got == run_feed_program(fresh_copy(tree, feed_prims), default_catalog(unread=5))
    before = len(fill_calls)
    # an equal catalog is the same input, even as a distinct object
    run_feed_program(tree, default_catalog(unread=5))
    assert len(fill_calls) == before


def test_a_killed_fill_is_memoised_as_the_empty_report(catalog, feed_prims, fill_calls):
    tree = feed_sum(feed_prims, MAX_STEPS + 1)
    assert walker_fill(tree, catalog) is None
    assert run_feed_program(tree, catalog) == FeedReport()
    assert fill_calls == [None]
    assert run_feed_program(tree, catalog) == FeedReport()
    assert fill_calls == [None]  # no second fill


def test_the_step_budget_decides_at_its_edge(catalog, feed_prims):
    """Each edge tree's fill, and each feed's step count, are the walker's."""
    trees = feed_edges(feed_prims)
    assert [tree.size for tree in trees.values()] == [511, 513, 513]
    want_scores = {feed.feed_id: 256.0 * 3.0 for feed in catalog.feeds}
    assert run_feed_program(trees["within"], catalog).scores == want_scores
    assert run_feed_program(trees["skipping"], catalog).scores == {
        feed_id: 255.0 * 3.0 for feed_id in want_scores}
    assert run_feed_program(trees["killed"], catalog) == FeedReport()
    walked = {name: [walk(tree, env, MAX_STEPS) for env in feed_environments(catalog)]
              for name, tree in trees.items()}
    assert walked["within"] == [(False, 256.0 * 3.0, MAX_STEPS - 1)] * len(catalog.feeds)
    assert walked["skipping"] == [(False, 255.0 * 3.0, MAX_STEPS)] * len(catalog.feeds)
    assert walked["killed"] == [(True, None, MAX_STEPS)] * len(catalog.feeds)
    for tree, want in zip(trees.values(), (MAX_STEPS - 1, MAX_STEPS, MAX_STEPS + 1)):
        steps = feed_module._score_feeds(tree, catalog)[1]
        assert steps == walked_steps(tree, catalog) == (want,) * len(catalog.feeds)


def test_evaluator_fitness_matches_a_memo_free_reference(catalog, feed_prims, fill_calls):
    """Repeated trees, as elitism, crossover fallbacks and migrants make them,
    score the same as fresh copies, draw for draw, deep kills included, and
    every fill is the walker's."""
    rng = random.Random(11)
    trees = [build_random_tree(feed_prims, depth, rng)
             for depth in (3, 5, 7, 9, 9, 9, 9, 9, 9) for _ in range(6)]
    order = [rng.randrange(len(trees)) for _ in range(4 * len(trees))]
    user = homogeneous_user(catalog)
    memoised = FeedEvaluator(catalog, user, random.Random(5))
    reference = FeedEvaluator(catalog, user, random.Random(5))
    members = [Individual.from_tree(trees[i]) for i in order]
    got = [memoised.evaluate_report(m.tree) for m in members]
    fills = len(fill_calls)
    assert None in fill_calls and fills < len(members)
    want = [reference.evaluate_report(fresh_copy(m.tree, feed_prims)) for m in members]
    assert got == want
    assert len(fill_calls) - fills == len(members)  # the reference ran every fill
    for tree in {id(m.tree): m.tree for m in members}.values():
        assert_same_fill(tree.memo[1], walker_fill(tree, catalog))
    assert [memoised(m) for m in members] == [reference(Individual.from_tree(
        fresh_copy(m.tree, feed_prims))) for m in members]


# ---------------------------------------------------------------------------
# one-pass scoring against the per-feed walker

def walker_fill(tree, catalog):
    """The screen fill computed feed by feed on the reference walker, with
    the round-robin written out round by round."""
    scores = {}
    for feed, env in zip(catalog.feeds, feed_environments(catalog)):
        outcome = walk(tree, env, MAX_STEPS)
        if outcome.killed:
            return None
        scores[feed.feed_id] = float(outcome.value)
    ranked = sorted((f for f in catalog.feeds if scores[f.feed_id] > 0.0),
                    key=lambda f: -scores[f.feed_id])
    displayed = []
    for item in range(max((f.unread for f in ranked), default=0)):
        displayed += [(f.feed_id, item) for f in ranked if item < f.unread]
    return scores, displayed[:SCREEN_SIZE]


def assert_same_fill(got, want):
    """Scores equal bit for bit (NaN and inf included) and in catalog order."""
    if want is None:
        assert got is None
        return
    scores, displayed = got
    assert [(k, repr(v)) for k, v in scores.items()] == [
        (k, repr(v)) for k, v in want[0].items()]
    assert list(displayed) == want[1]


def test_one_pass_scoring_matches_the_per_feed_walker(catalog, feed_prims):
    rng = random.Random(2024)
    trees = [build_random_tree(feed_prims, depth, rng)
             for depth in range(3, 10) for _ in range(40)]
    paths = {"within": 0, "oversize": 0, "killed": 0}
    for tree in trees + list(feed_edges(feed_prims).values()):
        want = walker_fill(tree, catalog)
        assert_same_fill(feed_module._fill_screen(tree, catalog), want)
        if tree.size <= MAX_STEPS:
            paths["within"] += 1
        else:
            paths["killed" if want is None else "oversize"] += 1
    assert min(paths.values()) >= 3, paths  # 265 within, 15 oversize, 3 killed


BIG = "(mul (const:Number 1e200) (const:Number 1e200))"  # inf
NAN = f"(sub {BIG} {BIG})"  # inf - inf


@pytest.mark.parametrize("text", [
    BIG,
    NAN,
    f"(sub (const:Number 0.0) {BIG})",
    f"(mul (is_engadget) {BIG})",  # 0 * inf: NaN for every other feed
    f"(if_greater (group_is_tech) (const:Number 0.5)"
    f" (mul (is_techland) {BIG}) (sub (is_businessgreen) {BIG}))",
])
def test_non_finite_scores_keep_their_bits(catalog, feed_prims, text):
    tree = deserialize(text, feed_prims)
    got = feed_module._fill_screen(tree, catalog)
    assert_same_fill(got, walker_fill(tree, catalog))
    assert not all(map(math.isfinite, got[0].values()))


def test_a_nan_comparand_takes_the_else_branch(catalog, feed_prims):
    """engadget's comparand is 0 * inf = NaN, so ``NaN > 0`` sends it, and it
    alone, to the else branch."""
    tree = deserialize(
        f"(if_greater (mul (sub (const:Number 1.0) (is_engadget)) {BIG})"
        f" (const:Number 0.0) (add (unread_count) (is_techcrunch)) {NAN})", feed_prims)
    got = feed_module._fill_screen(tree, catalog)
    assert_same_fill(got, walker_fill(tree, catalog))
    scores = got[0]
    assert math.isnan(scores["engadget"])
    assert scores["techcrunch"] == 4.0
    assert {scores[f.feed_id] for f in catalog.feeds} - {scores["engadget"]} == {3.0, 4.0}


def test_an_unbound_terminal_raises_only_when_a_feed_reaches_it():
    wide = FeedCatalog((Feed("a", "tech", 3), Feed("b", "other", 3), Feed("c", "tech", 3)))
    narrow = FeedCatalog(wide.feeds[:2])  # binds no is_c
    prims = feed_primitives(wide)
    reached = ["(is_c)",
               "(add (is_a) (is_c))",
               "(if_greater (is_a) (const:Number 0.5) (is_c) (const:Number 1.0))",
               "(if_greater (is_a) (const:Number 0.5) (const:Number 1.0) (is_c))"]
    for text in reached:
        tree = deserialize(text, prims)
        for fill in (feed_module._fill_screen, walker_fill):
            with pytest.raises(ConfigurationError, match="is_c"):
                fill(tree, narrow)
    hidden = ["(if_greater (const:Number 0.0) (const:Number 1.0) (is_c) (is_b))",
              "(if_greater (is_a) (const:Number 2.0) (is_c) (unread_count))",
              "(if_greater (unread_count) (const:Number 0.0) (is_a) (is_c))"]
    for text in hidden:
        tree = deserialize(text, prims)
        assert_same_fill(feed_module._fill_screen(tree, narrow), walker_fill(tree, narrow))
    # a catalog without feeds runs the program for no feed at all
    assert feed_module._fill_screen(deserialize("(is_c)", prims), FeedCatalog(())) == ({}, ())


def test_one_pass_scoring_refuses_an_unknown_lazy_kind(catalog, feed_prims):
    first = function("first", (Sort.NUMBER, Sort.NUMBER), Sort.NUMBER,
                     lambda a, b: a(), lazy=True)
    tree = ProgramTree(first, (const_program(feed_prims, 1.0),
                               const_program(feed_prims, 2.0)))
    with pytest.raises(ConfigurationError, match="first"):
        feed_module._fill_screen(tree, catalog)


# ---------------------------------------------------------------------------
# step counts: trees larger than the step budget against the walker

def walked_steps(tree, catalog):
    """The nodes each feed's walk of ``tree`` evaluates when no budget stops
    it (a walk never evaluates more than the whole tree)."""
    return tuple(walk(tree, env, tree.size).steps_used for env in feed_environments(catalog))


def assert_counted_as_walked(tree, catalog):
    """``tree``'s fill is the walker's, kill and every bit of every score,
    and its counts are each feed's unbudgeted walk; returns the fill."""
    assert tree.size > MAX_STEPS
    fill = feed_module._fill_screen(tree, catalog)
    assert_same_fill(fill, walker_fill(tree, catalog))
    steps = walked_steps(tree, catalog)
    assert feed_module._score_feeds(tree, catalog)[1] == steps
    assert (fill is None) is (max(steps) > MAX_STEPS)
    return fill


def test_the_counts_match_the_walker_on_every_oversize_tree(catalog, feed_prims):
    """Depth-9 growth, the same trees with an infinite or NaN subtree grafted
    in, the edge trees and chains at the depth ceiling: each oversize fill
    and each feed's count are the walker's."""
    rng = random.Random(99)
    grown = [tree for tree in (build_random_tree(feed_prims, 9, rng) for _ in range(160))
             if tree.size > MAX_STEPS]
    grafts = [deserialize(text, feed_prims) for text in (
        BIG, NAN, f"(mul (is_engadget) {BIG})", "(mul (const:Number -0.0) (unread_count))")]
    grafted = [replace_subtree(tree, rng.randrange(1, tree.size), rng.choice(grafts))
               for tree in grown]
    edges = feed_edges(feed_prims)
    chains = [deserialize(feed_chain("if_greater", DEPTH_CEILING), feed_prims),
              always(feed_prims, deserialize(feed_chain("add", DEPTH_CEILING - 1), feed_prims),
                     feed_sum(feed_prims, MAX_STEPS + 1))]
    assert [chain.depth for chain in chains] == [DEPTH_CEILING] * 2
    outcomes = Counter()
    uneven = 0
    for tree in grown + grafted + [edges["skipping"], edges["killed"]] + chains:
        if tree.size <= MAX_STEPS:
            continue
        fill = assert_counted_as_walked(tree, catalog)
        outcomes["killed" if fill is None else "scored"] += 1
        if fill is not None and not all(map(math.isfinite, fill[0].values())):
            outcomes["non-finite"] += 1
        uneven += len(set(walked_steps(tree, catalog))) > 1
    assert min(outcomes.values()) >= 2 and outcomes["killed"] < outcomes["scored"], outcomes
    assert uneven >= 2  # feeds split by if_greater took different counts


@pytest.mark.parametrize("kind", ["add", "if_greater"])
def test_a_chain_at_the_depth_ceiling_counts_as_walked(catalog, feed_prims, kind):
    """A chain 200 nodes deep is scored without a ``RecursionError`` and
    counts each feed's walk: the ``add`` chain's 399 steps are within the
    budget, the ``if_greater`` chain's 598 (of 797 nodes) over it."""
    tree = deserialize(feed_chain(kind, DEPTH_CEILING), feed_prims)
    values, steps = feed_module._score_feeds(tree, catalog)
    assert steps == walked_steps(tree, catalog)
    assert steps[0] == {"add": 2 * DEPTH_CEILING - 1,
                        "if_greater": 3 * (DEPTH_CEILING - 1) + 1}[kind]
    assert [repr(v) for v in values] == [repr(walk(tree, env, tree.size).value)
                                         for env in feed_environments(catalog)]
    assert_same_fill(feed_module._fill_screen(fresh_copy(tree, feed_prims), catalog),
                     walker_fill(tree, catalog))


def test_an_oversize_tree_reading_an_unbound_terminal_raises():
    """In a tree larger than the budget an unbound terminal raises when some
    feed reaches it, as in a smaller tree, and a branch no feed takes stays
    unread.  The pass scores every feed before the fill decides the kill, so
    a killed tree raises too, where the walker stops at the budget first."""
    wide = FeedCatalog((Feed("a", "tech", 3), Feed("b", "other", 3), Feed("c", "tech", 3)))
    narrow = FeedCatalog(wide.feeds[:2])  # binds no is_c
    prims = feed_primitives(wide)

    def oversize(text, before):
        """``text`` added to a sum of ``before`` nodes, behind an untaken
        branch that makes the tree larger than the budget."""
        then = ProgramTree(prims.kind("add"), (feed_sum(prims, before), deserialize(text, prims)))
        return always(prims, then, feed_sum(prims, MAX_STEPS + 1))

    reached = ["(is_c)",
               "(if_greater (is_a) (const:Number 0.5) (is_c) (const:Number 1.0))",
               "(if_greater (is_a) (const:Number 0.5) (const:Number 1.0) (is_c))"]
    hidden = ["(if_greater (const:Number 0.0) (const:Number 1.0) (is_c) (is_b))",
              "(if_greater (is_a) (const:Number 2.0) (is_c) (unread_count))"]
    for text in reached:
        tree = oversize(text, 101)
        for fill in (feed_module._fill_screen, walker_fill):
            with pytest.raises(ConfigurationError, match="is_c"):
                fill(tree, narrow)
        killed = oversize(text, MAX_STEPS + 1)
        assert walker_fill(killed, narrow) is None
        with pytest.raises(ConfigurationError, match="is_c"):
            feed_module._fill_screen(killed, narrow)
    for text in hidden:
        for before in (101, MAX_STEPS + 1):
            tree = oversize(text, before)
            assert_same_fill(feed_module._fill_screen(tree, narrow), walker_fill(tree, narrow))


@pytest.mark.parametrize("first", ["oversize", "small"])
def test_records_cross_between_oversize_and_small_trees(catalog, feed_prims, first):
    """A subtree whose feeds take different counts, scored first inside a
    tree larger than the budget and then inside one within it, gives the
    walker's values and counts in both, and so does the reverse order."""
    rng = random.Random(5)
    shared = next(tree for tree in iter(lambda: build_random_tree(feed_prims, 8, rng), None)
                  if 100 < tree.size < MAX_STEPS // 2
                  and len(set(walked_steps(tree, catalog))) > 1)
    add = feed_prims.kind("add")
    oversize = ProgramTree(add, (shared, feed_sum(feed_prims, MAX_STEPS - 1)))
    small = ProgramTree(feed_prims.kind("sub"), (shared, const_program(feed_prims, 1.0)))
    trees = {"oversize": oversize, "small": small}
    order = [first, "small" if first == "oversize" else "oversize"]
    for name in order:
        tree = trees[name]
        assert_same_fill(feed_module._fill_screen(tree, catalog), walker_fill(tree, catalog))
        assert is_warm(shared, catalog)
        values, steps = feed_module._score_feeds(shared, catalog)
        assert values is shared.record[1]
        assert [repr(v) for v in values] == [
            repr(walk(shared, env, shared.size).value) for env in feed_environments(catalog)]
        assert steps == walked_steps(shared, catalog)
        assert feed_module._score_feeds(tree, catalog)[1] == walked_steps(tree, catalog)


def test_an_oversize_child_reads_the_counts_its_parent_recorded(catalog, feed_prims):
    """Once a tree's counts are recorded, a child breeding made from the
    tree evaluates only the ancestors breeding rebuilt."""
    calls = []
    parent = labelled(feed_sum(feed_prims, MAX_STEPS + 1), calls)
    killed = (MAX_STEPS + 1,) * len(catalog.feeds)
    assert feed_module._score_feeds(parent, catalog)[1] == killed
    assert len(calls) == len(catalog.feeds) * (parent.size // 2)
    for index, (node, above) in enumerate(with_ancestors(parent)):
        if node.children:
            continue
        child = replace_subtree(parent, index, const_program(feed_prims, 0.5))
        calls.clear()
        assert feed_module._score_feeds(child, catalog)[1] == killed
        assert Counter(calls) == {a.kind.name: len(catalog.feeds) for a in above}
        if index > 40:
            break


# ---------------------------------------------------------------------------
# per-node records: a bred child is scored only where breeding changed it

def is_warm(node, catalog):
    record = node.record
    return record is not None and record[0] is feed_module._feed_columns(catalog)


def test_a_catalog_keeps_the_hash_the_dataclass_would_generate():
    catalog, twin = default_catalog(), default_catalog()
    assert catalog._hash is None  # worked out on first use, never before
    assert hash(catalog) == hash((catalog.feeds,))
    assert catalog._hash == hash(catalog)
    assert twin == catalog and twin is not catalog and hash(twin) == hash(catalog)
    assert "_hash" not in repr(catalog)
    # equal catalogs share one columns dict, and so the records keyed by it
    assert feed_module._feed_columns(twin) is feed_module._feed_columns(catalog)
    assert default_catalog(unread=5) != catalog


THREE_FEEDS = FeedCatalog((Feed("a", "tech", 3), Feed("b", "other", 2),
                           Feed("c", "tech", 4)))


@pytest.mark.parametrize("catalog", [
    default_catalog(), default_catalog(unread=5), THREE_FEEDS,
    FeedCatalog((Feed("solo", "other", 0),)), FeedCatalog(()),
], ids=["default", "unread5", "three", "one-feed-unread0", "no-feeds"])
def test_the_columns_hold_what_each_feeds_bindings_give(catalog):
    """Terminal by terminal, in the bindings' order, each column holds the
    value every feed's own bindings give, bit for bit and in catalog order."""
    per_feed = feed_environments(catalog)
    names = list(per_feed[0]) if per_feed else []
    columns = feed_module._feed_columns(catalog)
    assert list(columns) == names
    for name in names:
        assert isinstance(columns[name], tuple)
        assert [repr(v) for v in columns[name]] == [repr(b[name]()) for b in per_feed]
    if not catalog.feeds:
        tree = deserialize("(unread_count)", feed_primitives(catalog))
        report = run_feed_program(tree, catalog)
        assert (report.scores, report.displayed, report.clicked) == ({}, [], [])


@pytest.mark.parametrize("catalog", [default_catalog(), default_catalog(unread=5),
                                     THREE_FEEDS], ids=["default", "unread5", "three"])
def test_bred_lineages_score_as_fresh_copies_and_the_walker(catalog):
    """Children of mutation and crossover share subtree objects, records
    included, with their parents; each scores bit for bit as a record-free
    copy and as the per-feed walker, through grafted inf, NaN and signed
    zeros."""
    prims = feed_primitives(catalog)
    rng = random.Random(909)
    grafts = [deserialize(text, prims) for text in (
        BIG, NAN, "(const:Number 0.0)", "(const:Number -0.0)",
        f"(add (const:Number -0.0) {NAN})", "(mul (const:Number -0.0) (unread_count))")]

    def score(tree):
        """The one pass, whatever the tree's size, against a record-free
        copy and a walk that no budget stops: each value bit for bit, and
        each feed's count."""
        values, steps = feed_module._score_feeds(tree, catalog)
        fresh_values, fresh_steps = feed_module._score_feeds(fresh_copy(tree, prims), catalog)
        got = [repr(value) for value in values]
        assert got == [repr(value) for value in fresh_values] and steps == fresh_steps
        walks = [walk(tree, env, tree.size) for env in feed_environments(catalog)]
        assert got == [repr(walked.value) for walked in walks]
        assert steps == tuple(walked.steps_used for walked in walks)

    parents = [build_random_tree(prims, 9, rng) for _ in range(6)]
    for tree in parents:
        score(tree)
    warm = functions = 0
    seen = set()  # reprs of recorded values
    for _ in range(8):
        children = []
        for parent in parents:
            pick = rng.random()
            if pick < 0.3:
                child = mutate(parent, prims, 9, rng)
            elif pick < 0.5:
                child = crossover(parent, rng.choice(parents), 9, rng)
            else:
                child = replace_subtree(parent, rng.randrange(parent.size),
                                        rng.choice(grafts))
            for node, _ in iter_nodes(child):
                if node.children:
                    functions += 1
                    warm += is_warm(node, catalog)
            children.append(child)
        for child in children:
            score(child)
            for node, _ in iter_nodes(child):
                if is_warm(node, catalog):
                    seen.update(map(repr, node.record[1]))
        parents = children
    assert warm > functions // 4  # children reuse what their parents recorded
    assert {"inf", "-inf", "nan", "0.0", "-0.0"} <= seen  # through the records


def labelled(tree, calls):
    """``tree`` with each eager function node given a kind of its own, named
    after its preorder position, whose ``fn`` logs that name per call."""
    position = itertools.count()

    def relabel(node):
        if not node.children:
            return node
        kind = node.kind
        name = f"{kind.name}#{next(position)}"

        def fn(*args, base=kind.fn, name=name):
            calls.append(name)
            return base(*args)
        children = tuple(relabel(child) for child in node.children)
        return ProgramTree(function(name, kind.argument_sorts, kind.result_sort, fn),
                           children)
    return relabel(tree)


def with_ancestors(tree):
    """``(node, its ancestors)`` for every node, in preorder."""
    stack = [(tree, ())]
    while stack:
        node, above = stack.pop()
        yield node, above
        stack.extend((child, above + (node,)) for child in reversed(node.children))


def test_a_child_evaluates_only_the_ancestors_breeding_rebuilt(catalog, feed_prims):
    """Without ``if_greater`` every node is reached by every feed, so every
    function node keeps a record."""
    terminals = [kind for kind in grower.split(feed_prims, Sort.NUMBER)[0]
                 if kind.category is Category.TERMINAL]
    prims = PrimitiveSet(arithmetic_kinds() + terminals, Sort.NUMBER,
                         {Sort.NUMBER: lambda rng: rng.uniform(-10.0, 10.0)},
                         function_bias=0.9)
    calls = []
    parent = labelled(build_random_tree(prims, 6, random.Random(3)), calls)
    feeds = len(catalog.feeds)
    everything = {node.kind.name: feeds for node, _ in iter_nodes(parent) if node.children}
    assert len(everything) > 10

    def evaluated(tree, catalog):
        calls.clear()
        values, _ = feed_module._score_feeds(tree, catalog)
        counts = Counter(calls)
        for got, env in zip(values, feed_environments(catalog)):
            assert repr(got) == repr(walk(tree, env, tree.size).value)
        return counts

    assert evaluated(parent, catalog) == everything
    assert evaluated(parent, catalog) == {}  # the root's own record
    leaf = const_program(prims, 1.5)
    for index, (_, above) in enumerate(with_ancestors(parent)):
        child = replace_subtree(parent, index, leaf)
        assert evaluated(child, catalog) == {a.kind.name: feeds for a in above}
    # an equal catalog reads the same columns, and so the same records
    assert evaluated(parent, default_catalog()) == {}
    # other columns evaluate everything again and replace the records
    other = default_catalog(unread=5)
    assert evaluated(parent, other) == everything
    assert evaluated(parent, other) == {}
    assert evaluated(parent, catalog) == everything


def test_only_branches_every_feed_reaches_keep_a_record(catalog, feed_prims):
    tree = deserialize(
        "(add (if_greater (group_is_tech) (const:Number 0.5)"
        " (mul (unread_count) (is_techland)) (sub (unread_count) (is_engadget)))"
        " (if_greater (unread_count) (const:Number 0.0)"
        " (add (group_is_tech) (unread_count)) (mul (unread_count) (unread_count))))",
        feed_prims)
    feed_module._score_feeds(tree, catalog)
    split, whole = tree.children
    assert is_warm(tree, catalog) and is_warm(split, catalog) and is_warm(whole, catalog)
    assert [branch.record for branch in split.children[2:]] == [None, None]
    assert is_warm(whole.children[2], catalog) and whole.children[3].record is None
    assert all(node.record is None for node, _ in iter_nodes(tree) if not node.children)
    values, _ = feed_module._score_feeds(tree, catalog)
    assert tree.record[1] is values and isinstance(values, tuple)


# ---------------------------------------------------------------------------
# clicks and fitness

def test_click_extremes(catalog, feed_prims):
    report = run_feed_program(const_program(feed_prims, 1.0), catalog)
    always = UserModel({f.feed_id: 1.0 for f in catalog.feeds})
    eager = simulate_clicks(report, always, random.Random(0))
    assert eager.clicked == eager.displayed
    report = run_feed_program(const_program(feed_prims, 1.0), catalog)
    never = UserModel({f.feed_id: 0.0 for f in catalog.feeds})
    bored = simulate_clicks(report, never, random.Random(0))
    assert bored.clicked == []


def test_click_rate_monte_carlo(catalog, feed_prims):
    user = UserModel({f.feed_id: 0.5 for f in catalog.feeds})
    rng = random.Random(2718)
    tree = const_program(feed_prims, 1.0)
    clicks = []
    for _ in range(10000):
        report = simulate_clicks(run_feed_program(tree, catalog), user, rng)
        clicks.append(len(report.clicked))
    assert abs(statistics.mean(clicks) - 5.0) < 0.15


def make_report(displayed, clicked):
    items = [("feed", i) for i in range(displayed)]
    return FeedReport(displayed=items, clicked=items[:clicked])


@pytest.mark.parametrize("displayed,screen,clicked,expected", [
    (10, 10, 10, 1.0),
    (5, 10, 5, 0.5),
    (12, 10, 6, 0.5),
    (0, 10, 0, 0.0),
])
def test_fitness_tabulated_cases(displayed, screen, clicked, expected):
    assert screen == SCREEN_SIZE
    assert feed_fitness(make_report(displayed, clicked)) == pytest.approx(
        expected, abs=1e-12)


def test_fitness_bounded_and_count_monotone():
    rng = random.Random(31)
    for _ in range(500):
        displayed = rng.randrange(0, 25)
        clicked = rng.randrange(0, displayed + 1) if displayed else 0
        fit = feed_fitness(make_report(displayed, clicked))
        assert 0.0 <= fit <= 1.0
    # same click fraction, more coverage: count factor never decreases
    for displayed in range(1, 10):
        lo = feed_fitness(make_report(displayed, displayed // 2))
        hi = feed_fitness(make_report(displayed + 1, (displayed + 1) // 2))
        if displayed % 2 == 1:  # matching fractions only
            continue
        assert hi >= lo - 1e-12


def test_evaluator_is_seed_deterministic(catalog, feed_prims):
    tree = build_random_tree(grower.at_bias(feed_prims, 0.5), 3, random.Random(5))
    member = Individual.from_tree(tree)
    a = FeedEvaluator(catalog, homogeneous_user(catalog), random.Random("e"))(member)
    b = FeedEvaluator(catalog, homogeneous_user(catalog), random.Random("e"))(member)
    assert a == b
    fitness, report = FeedEvaluator(catalog, homogeneous_user(catalog),
                                    random.Random("e")).evaluate_report(tree)
    assert fitness == feed_fitness(report)


# ---------------------------------------------------------------------------
# the depth-2 exhaustive oracle

def enumerate_depth2(prims, const_values=(-1.0, 0.5, 2.0)):
    leaf_kinds, functions = grower.split(prims, Sort.NUMBER)
    leaves = [ProgramTree(k) for k in leaf_kinds if k.name != constant_kind_name(Sort.NUMBER)]
    leaves += [const_program(prims, v) for v in const_values]
    yield from leaves
    for kind in functions:
        for combo in itertools.product(leaves, repeat=kind.arity):
            yield ProgramTree(kind, combo)


def test_depth2_brute_force_optimum_is_all_tech(catalog, feed_prims):
    """Exhaustive search over shallow programs: nothing beats a full screen
    of tech items, and the best score is exactly the tech click rate."""
    user = homogeneous_user(catalog)
    best, best_report = -1.0, None
    for tree in enumerate_depth2(feed_prims):
        report = run_feed_program(tree, catalog)
        value = expected_fitness(report, user)
        if value > best:
            best, best_report = value, report
    assert best == pytest.approx(0.9, abs=1e-12)
    assert len(best_report.displayed) >= SCREEN_SIZE
    groups = best_report.displayed_by_group(catalog)
    assert groups["other"] == 0 and groups["tech"] >= 10


# ---------------------------------------------------------------------------
# config files

def test_config_round_trip(tmp_path):
    config = {
        "feeds": [{"id": "alpha", "group": "tech", "unread": 2},
                  {"id": "beta", "group": "news"}],
        "click_prob": {"alpha": 0.8, "beta": 0},
    }
    path = tmp_path / "feeds.json"
    path.write_text(json.dumps(config))
    catalog, user = load_feed_config(str(path))
    assert [f.feed_id for f in catalog.feeds] == ["alpha", "beta"]
    assert catalog.feeds[0].unread == 2
    assert catalog.feeds[1].unread == 3  # default fills in
    assert user.probability("alpha") == 0.8
    assert repr(user.probability("beta")) == "0.0"  # a JSON int becomes a float
    prims = feed_primitives(catalog)
    assert prims.kind("is_alpha") is not None


def test_config_without_clicks_defaults_to_group_reader(tmp_path):
    path = tmp_path / "feeds.json"
    path.write_text(json.dumps({"feeds": [{"id": "a", "group": "tech"}]}))
    _, user = load_feed_config(str(path))
    assert user.probability("a") == 0.9


def test_bad_config_raises(tmp_path):
    path = tmp_path / "feeds.json"
    path.write_text(json.dumps({"feeds": [{"group": "tech"}]}))
    with pytest.raises(ConfigurationError):
        load_feed_config(str(path))
