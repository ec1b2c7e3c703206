"""The feed-ranking benchmark: screen filling, clicks, fitness, configs."""
import itertools
import json
import math
import operator
import random
import statistics
from collections import Counter

import pytest
from reference import (
    at_bias,
    cursor_screen,
    feed_environments,
    leaves_and_functions,
    pass_steps,
    pass_values,
    ranking_of,
    walk_feeds,
    walked_fill,
    walked_steps,
)
from sized import always, constant, feed_chain, feed_edges, feed_sum, leaf, split

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
    catalog_from_dict,
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
from gpislands.evolution import Population, crossover, evaluate_population, mutate
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
    if_greater,
    iter_nodes,
    node_at,
    replace_subtree,
    serialize,
)


@pytest.fixture
def catalog():
    return default_catalog()


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
    report = run_feed_program(constant(feed_prims, 1.0), catalog)
    assert len(report.displayed) == 10
    first_round = [fid for fid, _ in report.displayed[:7]]
    assert first_round == [f.feed_id for f in catalog.feeds]  # ties by position
    assert [fid for fid, _ in report.displayed[7:]] == first_round[:3]


def test_zero_scores_display_nothing(catalog, feed_prims):
    report = run_feed_program(constant(feed_prims, 0.0), catalog)
    assert report.displayed == []
    assert feed_fitness(report) == 0.0


def test_negative_scores_are_excluded(catalog, feed_prims):
    report = run_feed_program(leaf(feed_prims, "group_is_tech"), catalog)
    assert len(report.displayed) == 10
    assert report.displayed_by_group(catalog) == {"tech": 10, "other": 0}


def test_higher_scores_rank_first(catalog, feed_prims):
    # unread_count is constant here, so use a per-feed identity: one feed wins
    report = run_feed_program(leaf(feed_prims, "is_breakvideos"), catalog)
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
    report = run_feed_program(constant(feed_prims, 2.0), catalog)
    assert len(set(report.displayed)) == len(report.displayed)


# ---------------------------------------------------------------------------
# the screen fill memo

def fresh_copy(tree, prims):
    """A structurally equal tree with no memo on it."""
    return deserialize(serialize(tree), prims)


def report_fitness(tree, catalog, user, rng):
    """The report path an evaluation is held to: fill the screen, draw the
    clicks and score the report, drawing from ``rng``."""
    report = simulate_clicks(run_feed_program(tree, catalog), user, rng)
    return feed_fitness(report), report


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


def test_a_hit_on_the_same_catalog_compares_nothing(catalog, feed_prims, monkeypatch):
    tree = build_random_tree(feed_prims, 5, random.Random(4))
    run_feed_program(tree, catalog)
    compared = []
    equal = FeedCatalog.__eq__
    monkeypatch.setattr(FeedCatalog, "__eq__",
                        lambda a, b: compared.append(b) or equal(a, b))
    run_feed_program(tree, catalog)
    assert compared == []


def test_a_killed_fill_is_memoised_as_the_empty_report(catalog, feed_prims, fill_calls):
    tree = feed_sum(feed_prims, MAX_STEPS + 1)
    assert walked_fill(tree, catalog) is None
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
    walked = {name: list(walk_feeds(tree, catalog, MAX_STEPS)) for name, tree in trees.items()}
    assert walked["within"] == [(False, 256.0 * 3.0, MAX_STEPS - 1)] * len(catalog.feeds)
    assert walked["skipping"] == [(False, 255.0 * 3.0, MAX_STEPS)] * len(catalog.feeds)
    assert walked["killed"] == [(True, None, MAX_STEPS)] * len(catalog.feeds)
    for tree, want in zip(trees.values(), (MAX_STEPS - 1, MAX_STEPS, MAX_STEPS + 1)):
        steps = pass_steps(tree, catalog)
        assert steps == walked_steps(tree, catalog) == (want,) * len(catalog.feeds)


def test_evaluator_fitness_matches_a_memo_free_reference(catalog, feed_prims, fill_calls):
    """Repeated trees, as elitism, crossover fallbacks and migrants make them,
    score as the report path scores fresh copies, draw for draw, deep kills
    included, and every fill is the walker's."""
    rng = random.Random(11)
    trees = [build_random_tree(feed_prims, depth, rng)
             for depth in (3, 5, 7, 9, 9, 9, 9, 9, 9) for _ in range(6)]
    order = [rng.randrange(len(trees)) for _ in range(4 * len(trees))]
    user = homogeneous_user(catalog)
    memoised = FeedEvaluator(catalog, user, random.Random(5))
    reference = random.Random(5)
    members = [Individual.from_tree(trees[i]) for i in order]
    got = [memoised(m) for m in members]
    fills = len(fill_calls)
    assert None in fill_calls and fills < len(members)
    want = [report_fitness(fresh_copy(m.tree, feed_prims), catalog, user, reference)[0]
            for m in members]
    assert got == want
    assert memoised.rng.getstate() == reference.getstate()
    assert len(fill_calls) - fills == len(members)  # the reference ran every fill
    for tree in {id(m.tree): m.tree for m in members}.values():
        assert_same_fill(tree.memo[1], walked_fill(tree, catalog))


#: Readers of the differential test below; ``sparse`` leaves four feeds out
#: of its ``click_prob``, so it never clicks them, and every item of theirs
#: on the screen still takes its draw.
USERS = {
    "homo": homogeneous_user(default_catalog()),
    "hetero-0": landscape_user(default_catalog(), "hetero", 0),
    "hetero-1": landscape_user(default_catalog(), "hetero", 1),
    "sparse": UserModel({"techcrunch": 0.8, "engadget": 0.6, "breakvideos": 0.3}),
}


@pytest.mark.parametrize("name", USERS)
def test_the_evaluator_scores_and_draws_as_the_report_path(catalog, feed_prims, name):
    """After every evaluation the fitness is the report path's bit for bit,
    and the evaluator's rng is where the report path leaves its own, over
    random trees of depth 2 to 9, kills, NaN and inf scores, empty screens
    and trees memoised for one catalog and then evaluated on another."""
    user = USERS[name]
    rng = random.Random("differential")
    trees = [build_random_tree(feed_prims, depth, rng)
             for depth in range(2, 10) for _ in range(8)]
    grown = len(trees)
    trees += [feed_sum(feed_prims, MAX_STEPS + 1)]  # killed
    trees += [deserialize(text, feed_prims)
              for text in (BIG, NAN, f"(mul (is_engadget) {BIG})")]
    order = list(range(len(trees))) + [rng.randrange(len(trees))
                                       for _ in range(3 * len(trees))]
    catalogs = (catalog, default_catalog(unread=5))
    evaluators = [FeedEvaluator(each, user, random.Random(7)) for each in catalogs]
    references = [random.Random(7) for _ in catalogs]
    seen = Counter()
    for i in order:
        tree = trees[i]
        side = rng.randrange(len(catalogs))
        seen["switched"] += tree.memo is not None and tree.memo[0] != catalogs[side]
        got = evaluators[side](Individual.from_tree(tree))
        want, report = report_fitness(fresh_copy(tree, feed_prims), catalogs[side],
                                      user, references[side])
        assert got.hex() == want.hex()
        assert evaluators[side].rng.getstate() == references[side].getstate()
        seen["killed"] += tree.memo[1] is None
        seen["grown and killed"] += i < grown and tree.memo[1] is None
        seen["empty"] += tree.memo[1] is not None and not report.displayed
        seen["non-finite"] += not all(map(math.isfinite, report.scores.values()))
        seen["never clicked"] += sum(user.probability(feed_id) == 0.0
                                     for feed_id, _ in report.displayed)
    assert all(seen[key] > 0 for key in ("switched", "killed", "grown and killed", "empty",
                                         "non-finite")), seen
    assert (seen["never clicked"] > 0) == (name == "sparse"), seen


# ---------------------------------------------------------------------------
# one-pass scoring against the per-feed walker

def assert_same_fill(got, want):
    """Both killed, or scores equal bit for bit (NaN and inf included), as
    floats, one per feed in catalog order, and the same items displayed."""
    assert (got is None) is (want is None)
    if want is not None:
        values, displayed = got
        assert [repr(v) for v in values] == [repr(v) for v in want[0]]
        assert list(displayed) == want[1]


def assert_scored_as_walked(tree, catalog):
    """Each feed's one-pass value (``repr``) and step count are those of its
    own walk, with no budget to stop it; returns the values and counts."""
    values, steps = pass_values(tree, catalog), pass_steps(tree, catalog)
    walks = tuple(walk_feeds(tree, catalog))
    assert [repr(value) for value in values] == [repr(walked.value) for walked in walks]
    assert steps == tuple(walked.steps_used for walked in walks)
    return values, steps


def test_one_pass_scoring_matches_the_per_feed_walker(catalog, feed_prims):
    rng = random.Random(2024)
    trees = [build_random_tree(feed_prims, depth, rng)
             for depth in range(3, 10) for _ in range(40)]
    paths = {"within": 0, "oversize": 0, "killed": 0}
    for tree in trees + list(feed_edges(feed_prims).values()):
        want = walked_fill(tree, catalog)
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
    assert_same_fill(got, walked_fill(tree, catalog))
    assert not all(map(math.isfinite, got[0]))


def test_a_nan_comparand_takes_the_else_branch(catalog, feed_prims):
    """engadget's comparand is 0 * inf = NaN, so ``NaN > 0`` sends it, and it
    alone, to the else branch."""
    tree = deserialize(
        f"(if_greater (mul (sub (const:Number 1.0) (is_engadget)) {BIG})"
        f" (const:Number 0.0) (add (unread_count) (is_techcrunch)) {NAN})", feed_prims)
    got = feed_module._fill_screen(tree, catalog)
    assert_same_fill(got, walked_fill(tree, catalog))
    scores = dict(zip((f.feed_id for f in catalog.feeds), got[0]))
    assert math.isnan(scores["engadget"])
    assert scores["techcrunch"] == 4.0
    assert {scores[f.feed_id] for f in catalog.feeds} - {scores["engadget"]} == {3.0, 4.0}


#: Feeds ``a``, ``b`` and ``c``; trees are built over all three and scored
#: on the first two, which bind no ``is_c``.
WIDE = FeedCatalog((Feed("a", "tech", 3), Feed("b", "other", 3), Feed("c", "tech", 3)))
NARROW = FeedCatalog(WIDE.feeds[:2])


def nested(outer_then, inner_comparand):
    """Feed ``a`` takes the outer ``then`` branch and ``b`` the ``else``; in
    the branch the side says, a split on ``inner_comparand`` sends a feed
    with a value of 1 to ``(is_c)``."""
    inner = (f"(if_greater ({inner_comparand}) (const:Number 0.5)"
             f" (is_c) (const:Number 1.0))")
    branches = (inner, "(const:Number 2.0)") if outer_then else ("(const:Number 2.0)", inner)
    return "(if_greater (is_a) (const:Number 0.5) {} {})".format(*branches)


#: Nested splits on a catalog of feeds ``a`` and ``b`` that binds no
#: ``is_c``.  Scoring a split's branches over every feed would send the
#: other feed into ``(is_c)`` too; only in the first two does a feed take
#: that path itself.
NESTED_REACHED = [nested(True, "is_a"), nested(False, "is_b")]
NESTED_HIDDEN = [nested(True, "is_b"), nested(False, "is_a")]


def test_an_unbound_terminal_raises_wherever_the_pass_reads_it():
    """A terminal the catalog does not bind raises :class:`ConfigurationError`
    wherever the one pass reads it: where some feed's own walk reaches it,
    as the walker raises too, and in a split nested in a branch only some
    feeds take, whose sides the pass scores over every feed though no
    feed's walk reaches the terminal.  A branch no feed takes stays
    unread."""
    prims = feed_primitives(WIDE)
    reached = ["(is_c)",
               "(add (is_a) (is_c))",
               "(if_greater (is_a) (const:Number 0.5) (is_c) (const:Number 1.0))",
               "(if_greater (is_a) (const:Number 0.5) (const:Number 1.0) (is_c))"] + NESTED_REACHED
    for text in reached:
        tree = deserialize(text, prims)
        for fill in (feed_module._fill_screen, walked_fill):
            with pytest.raises(ConfigurationError, match="is_c"):
                fill(tree, NARROW)
    for text in NESTED_HIDDEN:
        tree = deserialize(text, prims)
        assert walked_fill(tree, NARROW) is not None
        with pytest.raises(ConfigurationError, match="is_c"):
            feed_module._fill_screen(tree, NARROW)
    untaken = ["(if_greater (const:Number 0.0) (const:Number 1.0) (is_c) (is_b))",
               "(if_greater (is_a) (const:Number 2.0) (is_c) (unread_count))",
               "(if_greater (unread_count) (const:Number 0.0) (is_a) (is_c))"]
    for text in untaken:
        tree = deserialize(text, prims)
        assert_same_fill(feed_module._fill_screen(tree, NARROW), walked_fill(tree, NARROW))


#: Every class of float a node can return, with either sign: zero, the
#: least subnormal, one, the largest magnitudes, infinity, and NaN.
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan]


def test_the_feed_vocabulary_raises_on_no_float():
    """Every function of the feed set, and ``if_greater``'s comparison, is
    total on floats (Koza's closure), so the one pass over a tree of the
    set raises nothing: overflow gives ``inf`` and ``inf - inf`` NaN."""
    kinds = [kind for kind in feed_primitives(default_catalog()).kinds
             if kind.category is Category.FUNCTION]
    assert sorted(kind.name for kind in kinds) == ["add", "if_greater", "mul", "sub"]
    for kind in kinds:
        if kind.fn is if_greater:
            continue
        for operands in itertools.product(EXTREMES, repeat=len(kind.argument_sorts)):
            assert type(kind.fn(*operands)) is float
    for a, b in itertools.product(EXTREMES, repeat=2):
        assert type(operator.gt(a, b)) is bool


#: Each way a tree is scored on a catalog: the fill itself, the evaluator
#: and the report, the last two through the memoised fill.
SCORERS = {
    "fill": feed_module._fill_screen,
    "evaluator": lambda tree, catalog: FeedEvaluator(
        catalog, homogeneous_user(catalog), random.Random(0))(Individual(tree)),
    "report": run_feed_program,
}


@pytest.mark.parametrize("scorer", SCORERS)
@pytest.mark.parametrize("before", [1, 101, MAX_STEPS + 1], ids=["small", "oversize", "killed"])
def test_an_unbound_terminal_is_a_configuration_error_naming_it(before, scorer):
    """A tree reading a terminal the catalog does not bind raises
    :class:`ConfigurationError` naming the terminal, from the fill, the
    evaluator and the report, whether the tree is within :data:`MAX_STEPS`
    nodes, over it, or over it and killed; the error is not memoised as a
    fill, so scoring the tree again raises it again."""
    prims = feed_primitives(WIDE)
    then = ProgramTree(prims.kind("add"), (feed_sum(prims, before), deserialize("(is_c)", prims)))
    tree = then if before == 1 else always(prims, then, feed_sum(prims, MAX_STEPS + 1))
    assert (tree.size > MAX_STEPS) is (before > 1)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="'is_c'"):
            SCORERS[scorer](tree, NARROW)
    assert tree.memo is None


def test_an_unbound_terminal_the_first_feed_reaches_stops_the_generation():
    """A :class:`ConfigurationError` from the fill propagates through the
    evaluator and the generation, and is not scored 0."""
    tree = deserialize("(if_greater (is_a) (const:Number 0.5) (is_c) (is_b))",
                       feed_primitives(WIDE))
    pop = Population([Individual(tree)])
    with pytest.raises(ConfigurationError, match="is_c"):
        evaluate_population(pop, FeedEvaluator(NARROW, homogeneous_user(NARROW), random.Random(0)))
    assert pop.members[0].fitness is None


def test_one_pass_scoring_branches_by_the_function_not_the_name(catalog, feed_prims):
    """Any kind whose function is ``if_greater`` splits the feeds, whatever
    it is called: each feed runs the comparison and its own side only."""
    pick = function("pick", (Sort.NUMBER,) * 4, Sort.NUMBER, if_greater)
    add = feed_prims.kind("add")
    tree = ProgramTree(pick, (
        leaf(feed_prims, "group_is_tech"), constant(feed_prims, 0.5),
        leaf(feed_prims, "unread_count"),
        ProgramTree(add, (leaf(feed_prims, "is_engadget"),
                          leaf(feed_prims, "unread_count")))))
    assert_same_fill(feed_module._fill_screen(tree, catalog), walked_fill(tree, catalog))
    assert set(assert_scored_as_walked(tree, catalog)[1]) == {4, 6}


@pytest.mark.parametrize("arity", [2, 4])
def test_one_pass_scoring_runs_any_other_function_eagerly(catalog, feed_prims, arity):
    """A function other than ``if_greater`` gets every child's value for
    every feed, even one with the conditional's arity."""
    first = function("first", (Sort.NUMBER,) * arity, Sort.NUMBER, lambda *values: values[0])
    tree = ProgramTree(first, (leaf(feed_prims, "group_is_tech"),)
                       + (leaf(feed_prims, "unread_count"),) * (arity - 1))
    assert_same_fill(feed_module._fill_screen(tree, catalog), walked_fill(tree, catalog))
    assert set(assert_scored_as_walked(tree, catalog)[1]) == {arity + 1}


# ---------------------------------------------------------------------------
# the screen cache: one round-robin per catalog and ranking

def scoring(prims, catalog, values):
    """A tree giving each feed of ``catalog`` its value in ``values``: a
    chain of ``if_greater (is_<id>) 0.5`` tests, one per feed but the last,
    each yielding its feed's constant."""
    feeds = catalog.feeds
    tree = constant(prims, values[-1])
    for feed, value in zip(feeds[-2::-1], values[-2::-1]):
        tree = ProgramTree(prims.kind("if_greater"), (
            leaf(prims, f"is_{feed.feed_id}"), constant(prims, 0.5),
            constant(prims, value), tree))
    return tree


TWELVE_FEEDS = FeedCatalog(tuple(Feed(f"f{i}", "tech" if i % 2 else "other", i % 4)
                                 for i in range(12)))
UNREAD_ZERO = FeedCatalog((Feed("a", "tech", 0), Feed("b", "other", 2),
                           Feed("c", "tech", 0), Feed("d", "other", 1)))

SCREEN_CASES = {
    "equal": (default_catalog(), [2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 0.5]),
    "all equal": (default_catalog(), [3.0] * 7),
    "nan": (default_catalog(), [math.nan, 1.0, math.nan, 2.0, 1.0, math.nan, 3.0]),
    "signed zeros": (default_catalog(), [-0.0, 0.0, 1.0, -0.0, 5e-324, 0.0, -5e-324]),
    "infinities": (default_catalog(), [1.0, math.inf, -math.inf, math.inf, 2.0, math.nan, 1e308]),
    "none positive": (default_catalog(), [-1.0, 0.0, -0.0, -math.inf, math.nan, -2.0, 0.0]),
    "unread zero": (UNREAD_ZERO, [4.0, 1.0, 3.0, 2.0]),
    "twelve feeds": (TWELVE_FEEDS, [1.0, 5.0, 5.0, 2.0, 0.0, 3.0, 4.0, 4.0, 1.0, 9.0, 6.0, 2.0]),
    "five unread": (default_catalog(unread=5), [1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    "one feed fills it": (FeedCatalog((Feed("deep", "tech", SCREEN_SIZE + 2),
                                       Feed("shallow", "other", 2))), [1.0, -1.0]),
}


@pytest.mark.parametrize("name", SCREEN_CASES)
def test_a_cached_screen_is_the_walkers(name):
    """Each fill, scores bit for bit and every displayed item, is the
    walker's, whether the screen is computed or read back from the cache."""
    catalog, values = SCREEN_CASES[name]
    prims = feed_primitives(catalog)
    tree = scoring(prims, catalog, values)
    want = walked_fill(tree, catalog)
    assert [repr(v) for v in want[0]] == [repr(float(v)) for v in values]
    feed_module._screen.cache_clear()
    computed = feed_module._fill_screen(tree, catalog)
    cached = feed_module._fill_screen(fresh_copy(tree, prims), catalog)
    assert feed_module._screen.cache_info()[:2] == (1, 1)  # one hit, one miss
    for got in (computed, cached):
        assert_same_fill(got, want)
    assert cached[1] is computed[1]
    assert len(computed[1]) <= SCREEN_SIZE


def test_the_round_robin_runs_once_per_catalog_and_ranking(catalog, feed_prims):
    """Over many fills of random trees on two catalogs, the loop runs once
    for each distinct catalog and ranking, and every other fill reads the
    cached screen; every fill is still the walker's."""
    rng = random.Random(31)
    catalogs = (catalog, default_catalog(unread=5))
    trees = [build_random_tree(feed_prims, depth, rng)
             for depth in range(2, 7) for _ in range(60)]
    feed_module._screen.cache_clear()
    keys, fills = set(), 0
    for tree in trees:
        for each in catalogs:
            want = walked_fill(tree, each)
            assert_same_fill(feed_module._fill_screen(fresh_copy(tree, feed_prims), each), want)
            if want is not None:
                keys.add((each, ranking_of(want[0])))
                fills += 1
    info = feed_module._screen.cache_info()
    assert info.currsize < info.maxsize  # nothing evicted
    assert (info.misses, info.hits) == (len(keys), fills - len(keys))
    assert fills > 4 * len(keys) > 0


def test_equal_catalogs_share_their_screens(feed_prims):
    """An equal catalog built apart reads the screens cached for the first."""
    catalog, twin = default_catalog(), default_catalog()
    assert twin == catalog and twin is not catalog
    tree = deserialize("(add (group_is_tech) (is_engadget))", feed_prims)
    feed_module._screen.cache_clear()
    first = feed_module._fill_screen(tree, catalog)[1]
    again = feed_module._fill_screen(fresh_copy(tree, feed_prims), twin)[1]
    assert again is first


def test_the_screen_cache_stays_bounded(catalog):
    """More rankings than the cache holds: it keeps at most its bound, and a
    screen evicted and computed again is the same screen."""
    feed_module._screen.cache_clear()
    rankings = list(itertools.permutations(range(len(catalog.feeds)), 5))
    assert len(rankings) > feed_module.SCREEN_CACHE_SIZE
    first = {ranking: feed_module._screen(catalog, ranking) for ranking in rankings}
    assert feed_module._screen.cache_info().currsize == feed_module.SCREEN_CACHE_SIZE
    evicted = rankings[0]
    assert feed_module._screen(catalog, evicted) == first[evicted]
    assert feed_module._screen.cache_info().currsize == feed_module.SCREEN_CACHE_SIZE


def test_the_screen_is_the_cursor_loops():
    """On catalogs of 1 to 9 feeds and any ranking of some of them, the
    screen is the cursor loop's.  A feed with 10**18 unread items can be
    ranked, so the screen must stop after :data:`SCREEN_SIZE` rounds, not
    run a round per unread item."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    unread = st.sampled_from([0, 1, 2, 3, SCREEN_SIZE + 2, 10**18])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(unreads=st.lists(unread, min_size=1, max_size=9), data=st.data())
    def check(unreads, data):
        catalog = FeedCatalog(tuple(Feed(f"f{i}", "tech", count)
                                    for i, count in enumerate(unreads)))
        order = data.draw(st.permutations(range(len(unreads))))
        ranking = tuple(order[:data.draw(st.integers(0, len(unreads)))])
        assert feed_module._screen(catalog, ranking) == cursor_screen(catalog, ranking)

    feed_module._screen.cache_clear()
    check()


def test_a_fill_keeps_the_roots_own_values(catalog, feed_prims):
    """The memoised scores are the tuple the root's record holds, not a
    copy, and a report reads them as a fresh dict of floats."""
    tree = deserialize("(add (unread_count) (is_techland))", feed_prims)
    report = run_feed_program(tree, catalog)
    assert tree.memo[1][0] is tree.record[1]
    assert report.scores == {feed.feed_id: value
                             for feed, value in zip(catalog.feeds, tree.record[1])}


# ---------------------------------------------------------------------------
# step counts: trees larger than the step budget against the walker

def test_the_counts_match_the_walker_on_every_oversize_tree(catalog, feed_prims):
    """Depth-9 growth, the same trees with an infinite or NaN subtree grafted
    in, growth at depths 3 to 9, the edge trees and chains at the depth
    ceiling: each oversize fill, kill and every bit of every score, is the
    walker's, and each feed's count is its own unbudgeted walk's, so the
    fill is killed exactly when some walk is."""

    def counted_as_walked(tree):
        assert tree.size > MAX_STEPS
        fill = feed_module._fill_screen(tree, catalog)
        assert_same_fill(fill, walked_fill(tree, catalog))
        steps = walked_steps(tree, catalog)
        assert pass_steps(tree, catalog) == steps
        assert (fill is None) is (max(steps) > MAX_STEPS)
        return fill, steps

    rng = random.Random(99)
    grown = [tree for tree in (build_random_tree(feed_prims, 9, rng) for _ in range(160))
             if tree.size > MAX_STEPS]
    grafts = [deserialize(text, feed_prims) for text in (
        BIG, NAN, f"(mul (is_engadget) {BIG})", "(mul (const:Number -0.0) (unread_count))")]
    grafted = [replace_subtree(node_at(tree, rng.randrange(1, tree.size))[1], rng.choice(grafts))
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
        fill, steps = counted_as_walked(tree)
        outcomes["killed" if fill is None else "scored"] += 1
        if fill is not None and not all(map(math.isfinite, fill[0])):
            outcomes["non-finite"] += 1
        uneven += len(set(steps)) > 1
    assert min(outcomes.values()) >= 2 and outcomes["killed"] < outcomes["scored"], outcomes
    assert uneven >= 2  # feeds split by if_greater took different counts
    drawn = random.Random(14)
    mixed = [build_random_tree(feed_prims, depth, drawn)
             for depth in range(3, 10) for _ in range(20)]
    oversize = [tree for tree in mixed + [edges["skipping"], edges["killed"]]
                if tree.size > MAX_STEPS]
    kills = sum(counted_as_walked(tree)[0] is None for tree in oversize)
    assert len(oversize) > kills > 0


def test_every_count_the_walk_records_is_one_int_per_feed(catalog, feed_prims):
    """Each function node the counting walk counts records a tuple of one
    int per feed, the root's being the tuple the walk returns: on grown
    trees whose feeds take different counts, and on trees where every feed
    takes the same count, through a sum with no branch, a split whose two
    sides cost the same, or a one-argument function."""
    rng = random.Random(99)
    grown = [tree for tree in (build_random_tree(feed_prims, 9, rng) for _ in range(60))
             if tree.size > MAX_STEPS]
    even_split = split(feed_prims, feed_sum(feed_prims, 255), feed_sum(feed_prims, 255))
    assert even_split.size > MAX_STEPS
    shapes = Counter()
    for tree in grown + budget_edge_trees(feed_prims) + [even_split]:
        steps = pass_steps(tree, catalog)
        assert steps == walked_steps(tree, catalog)
        assert tree.record[2] is steps
        counts = [node.record[2] for node, _ in iter_nodes(tree)
                  if node.record is not None and node.record[2] is not None]
        for count in counts:
            assert type(count) is tuple and len(count) == len(catalog.feeds)
            assert all(type(step) is int for step in count)
        shapes["even" if len(set(steps)) == 1 else "uneven"] += 1
    assert min(shapes.values()) >= 2, shapes


@pytest.mark.parametrize("kind", ["add", "if_greater"])
def test_a_chain_at_the_depth_ceiling_counts_as_walked(catalog, feed_prims, kind):
    """A chain 200 nodes deep is scored without a ``RecursionError`` and
    counts each feed's walk: the ``add`` chain's 399 steps are within the
    budget, the ``if_greater`` chain's 598 (of 797 nodes) over it."""
    tree = deserialize(feed_chain(kind, DEPTH_CEILING), feed_prims)
    _, steps = assert_scored_as_walked(tree, catalog)
    assert steps[0] == {"add": 2 * DEPTH_CEILING - 1,
                        "if_greater": 3 * (DEPTH_CEILING - 1) + 1}[kind]
    assert_same_fill(feed_module._fill_screen(fresh_copy(tree, feed_prims), catalog),
                     walked_fill(tree, catalog))


def test_an_oversize_tree_reading_an_unbound_terminal_raises():
    """In a tree larger than the budget an unbound terminal raises wherever
    the pass reads it, as in a smaller tree, and a branch no feed takes
    stays unread.  The pass scores every feed before the fill decides the
    kill, so a killed tree raises too, where the walker stops at the budget
    first."""
    prims = feed_primitives(WIDE)

    def oversize(text, before):
        """``text`` added to a sum of ``before`` nodes, behind an untaken
        branch that makes the tree larger than the budget."""
        then = ProgramTree(prims.kind("add"), (feed_sum(prims, before), deserialize(text, prims)))
        return always(prims, then, feed_sum(prims, MAX_STEPS + 1))

    reached = ["(is_c)",
               "(if_greater (is_a) (const:Number 0.5) (is_c) (const:Number 1.0))",
               "(if_greater (is_a) (const:Number 0.5) (const:Number 1.0) (is_c))"] + NESTED_REACHED
    untaken = ["(if_greater (const:Number 0.0) (const:Number 1.0) (is_c) (is_b))",
               "(if_greater (is_a) (const:Number 2.0) (is_c) (unread_count))"]
    for text in reached + NESTED_HIDDEN:
        tree, killed = oversize(text, 101), oversize(text, MAX_STEPS + 1)
        for scored in (tree, killed):
            with pytest.raises(ConfigurationError, match="is_c"):
                feed_module._fill_screen(scored, NARROW)
        assert walked_fill(killed, NARROW) is None
        if text in NESTED_HIDDEN:
            assert walked_fill(tree, NARROW) is not None
        else:
            with pytest.raises(ConfigurationError, match="is_c"):
                walked_fill(tree, NARROW)
    for text in untaken:
        for before in (101, MAX_STEPS + 1):
            tree = oversize(text, before)
            assert_same_fill(feed_module._fill_screen(tree, NARROW), walked_fill(tree, NARROW))


@pytest.mark.parametrize("before", [101, MAX_STEPS + 1], ids=["scored", "killed"])
def test_an_oversize_tree_whose_pass_raises_runs_each_feed_once(monkeypatch, before):
    """A tree larger than the budget whose one pass raises, though no
    feed's own walk does, runs each feed once per fill, in that pass: the
    fill builds one scorer, runs no program on the interpreter and counts
    no steps, and raises the pass's error as a configuration error, where
    the walker gives each feed a value, or kills the tree."""
    prims = feed_primitives(WIDE)
    then = ProgramTree(prims.kind("add"),
                       (feed_sum(prims, before), deserialize(NESTED_HIDDEN[0], prims)))
    tree = always(prims, then, feed_sum(prims, MAX_STEPS + 1))
    assert tree.size > MAX_STEPS
    assert (walked_fill(tree, NARROW) is None) is (before > MAX_STEPS)
    with pytest.raises(KeyError, match="is_c"):  # the pass itself raises
        pass_values(tree, NARROW)
    passes = []
    real = feed_module._scorer

    def counting(columns, count):
        passes.append(count)
        return real(columns, count)

    def unexpected(*args):
        pytest.fail("a fill ran a program or counted steps")

    monkeypatch.setattr(feed_module, "_scorer", counting)
    monkeypatch.setattr(feed_module, "execute", unexpected)
    monkeypatch.setattr(feed_module, "_count_steps", unexpected)
    with pytest.raises(ConfigurationError, match="'is_c'"):
        feed_module._fill_screen(tree, NARROW)
    assert passes == [len(NARROW.feeds)]


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
    small = ProgramTree(feed_prims.kind("sub"), (shared, constant(feed_prims, 1.0)))
    trees = {"oversize": oversize, "small": small}
    order = [first, "small" if first == "oversize" else "oversize"]
    for name in order:
        tree = trees[name]
        assert_same_fill(feed_module._fill_screen(tree, catalog), walked_fill(tree, catalog))
        assert is_warm(shared, catalog)
        values, _ = assert_scored_as_walked(shared, catalog)
        assert values is shared.record[1]
        assert pass_steps(tree, catalog) == walked_steps(tree, catalog)


def test_an_oversize_child_reads_the_counts_its_parent_recorded(catalog, feed_prims):
    """Once a tree's counts are recorded, a child breeding made from the
    tree evaluates only the ancestors breeding rebuilt, and counts only
    them: every node it shares with the tree keeps the record, counts
    included, that the tree's count left on it."""
    calls = []
    parent = labelled(feed_sum(feed_prims, MAX_STEPS + 1), calls)
    killed = (MAX_STEPS + 1,) * len(catalog.feeds)
    assert pass_steps(parent, catalog) == killed
    assert len(calls) == len(catalog.feeds) * (parent.size // 2)
    records = {id(node): node.record for node, _ in iter_nodes(parent) if node.children}
    assert all(record[2] is not None for record in records.values())
    for index, (node, above) in enumerate(with_ancestors(parent)):
        if node.children:
            continue
        child = replace_subtree(node_at(parent, index)[1], constant(feed_prims, 0.5))
        calls.clear()
        assert pass_steps(child, catalog) == killed
        assert Counter(calls) == {a.kind.name: len(catalog.feeds) for a in above}
        shared = [node for node, _ in iter_nodes(child) if id(node) in records]
        assert len(shared) == len(records) - len(above)
        assert all(node.record is records[id(node)] for node in shared)
        if index > 40:
            break


def test_a_fill_within_the_budget_never_counts(catalog, feed_prims, monkeypatch):
    """No run evaluates more nodes than its tree has, so a fill counts the
    steps of every tree larger than the budget and of no other."""
    counted = []
    real = feed_module._count_steps

    def counting(tree, columns, scored):
        if tree.size <= MAX_STEPS:
            pytest.fail(f"a tree of {tree.size} nodes was counted")
        counted.append(tree)
        return real(tree, columns, scored)

    monkeypatch.setattr(feed_module, "_count_steps", counting)
    rng = random.Random(31)
    trees = [build_random_tree(feed_prims, depth, rng)
             for depth in range(2, 10) for _ in range(30)]
    trees += feed_edges(feed_prims).values()
    for tree in trees:
        assert_same_fill(feed_module._fill_screen(tree, catalog), walked_fill(tree, catalog))
    oversize = [tree for tree in trees if tree.size > MAX_STEPS]
    assert 2 < len(oversize) < len(trees) // 10
    assert list(map(id, counted)) == list(map(id, oversize))


def budget_edge_trees(prims):
    """Trees of 511, 512, 513 and 515 nodes, some of whose runs take just
    under, at or just over the step budget: sums every feed runs whole,
    and sums behind an ``if_greater`` that sends the tech feeds one way and
    the rest the other.  A 512-node tree needs a function of odd arity:
    there it is a one-argument negation."""
    negate = function("negate", (Sort.NUMBER,), Sort.NUMBER, operator.neg)

    def negated(tree):
        return ProgramTree(negate, (tree,))

    def sums(then, other):
        return split(prims, feed_sum(prims, then), feed_sum(prims, other))

    return [feed_sum(prims, 511), sums(507, 1),
            negated(feed_sum(prims, 511)), negated(sums(505, 3)),
            feed_sum(prims, 513), feed_edges(prims)["skipping"], sums(509, 1), sums(1, 509),
            feed_sum(prims, 515), sums(511, 1), sums(1, 511), sums(509, 3)]


@pytest.mark.parametrize("size", [511, 512, 513, 515])
def test_a_fill_at_the_budgets_edge_is_killed_when_some_walk_is(catalog, feed_prims, size):
    """Each fill is killed exactly when some feed's walk is, and is the
    walker's fill otherwise; at 513 and 515 nodes, both happen."""
    trees = [tree for tree in budget_edge_trees(feed_prims) if tree.size == size]
    killed = []
    for tree in trees:
        fill = feed_module._fill_screen(tree, catalog)
        assert (fill is None) is any(walked.killed for walked in walk_feeds(tree, catalog,
                                                                             MAX_STEPS))
        assert_same_fill(fill, walked_fill(tree, catalog))
        killed.append(fill is None)
    assert len(trees) >= 2
    assert set(killed) == ({False} if size <= MAX_STEPS else {False, True})


def test_records_of_two_catalogs_used_in_turn_give_exact_counts(feed_prims):
    """Subtrees scored or counted against one catalog leave records holding
    its columns; counting the whole tree against the other scores each
    such node again before counting it, so every count, and every kill, is
    the walker's, turn after turn."""
    catalogs = (default_catalog(), default_catalog(unread=5))
    rng = random.Random(23)
    trees = [tree for tree in (build_random_tree(feed_prims, 9, rng) for _ in range(160))
             if tree.size > MAX_STEPS]
    differ = [tree for tree in trees
              if walked_steps(tree, catalogs[0]) != walked_steps(tree, catalogs[1])]
    assert len(differ) >= 2  # a count read from the wrong catalog would show
    for _ in range(3):
        for tree in trees:
            functions = [node for node, _ in iter_nodes(tree) if node.children]
            for node in rng.sample(functions, 6):
                step = rng.choice((pass_values, pass_steps))
                step(node, rng.choice(catalogs))
            catalog = rng.choice(catalogs)
            assert pass_steps(tree, catalog) == walked_steps(tree, catalog)
            assert_same_fill(feed_module._fill_screen(tree, catalog), walked_fill(tree, catalog))


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
    FeedCatalog((Feed("solo", "other", 0),)),
], ids=["default", "unread5", "three", "one-feed-unread0"])
def test_the_columns_hold_what_each_feeds_bindings_give(catalog):
    """Terminal by terminal, in the bindings' order, each column holds the
    value every feed's own bindings give, bit for bit and in catalog order."""
    per_feed = feed_environments(catalog)
    names = list(per_feed[0])
    columns = feed_module._feed_columns(catalog)
    assert list(columns) == names
    for name in names:
        assert isinstance(columns[name], tuple)
        assert [repr(v) for v in columns[name]] == [repr(b[name]()) for b in per_feed]


def test_a_catalog_without_feeds_is_rejected():
    with pytest.raises(ConfigurationError, match="at least one feed"):
        FeedCatalog(())
    with pytest.raises(ConfigurationError, match="at least one feed"):
        catalog_from_dict({"feeds": []})


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
        values, steps = assert_scored_as_walked(tree, catalog)
        fresh = fresh_copy(tree, prims)
        fresh_values = pass_values(fresh, catalog)
        assert [repr(value) for value in values] == [repr(value) for value in fresh_values]
        assert steps == pass_steps(fresh, catalog)

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
                child = replace_subtree(node_at(parent, rng.randrange(parent.size))[1],
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
    terminals = [kind for kind in leaves_and_functions(feed_prims, Sort.NUMBER)[0]
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
        values = pass_values(tree, catalog)
        counts = Counter(calls)
        for got, walked in zip(values, walk_feeds(tree, catalog)):
            assert repr(got) == repr(walked.value)
        return counts

    assert evaluated(parent, catalog) == everything
    assert evaluated(parent, catalog) == {}  # the root's own record
    replacement = constant(prims, 1.5)
    for index, (_, above) in enumerate(with_ancestors(parent)):
        child = replace_subtree(node_at(parent, index)[1], replacement)
        assert evaluated(child, catalog) == {a.kind.name: feeds for a in above}
    # an equal catalog reads the same columns, and so the same records
    assert evaluated(parent, default_catalog()) == {}
    # other columns evaluate everything again and replace the records
    other = default_catalog(unread=5)
    assert evaluated(parent, other) == everything
    assert evaluated(parent, other) == {}
    assert evaluated(parent, catalog) == everything


def test_every_function_node_a_pass_evaluates_keeps_a_record(catalog, feed_prims):
    """Both branches of a split ``if_greater`` are scored over every feed,
    so they and every function node below them, a nested split included,
    keep a record after one pass.  The branch a unanimous ``if_greater``
    leaves untaken is never read, and leaves keep no record."""
    tree = deserialize(
        "(add (if_greater (group_is_tech) (const:Number 0.5)"
        " (mul (if_greater (is_techland) (const:Number 0.5)"
        " (add (unread_count) (is_techland)) (sub (unread_count) (group_is_tech)))"
        " (unread_count))"
        " (sub (unread_count) (mul (is_engadget) (const:Number 2.0))))"
        " (if_greater (unread_count) (const:Number 0.0)"
        " (add (group_is_tech) (unread_count))"
        " (mul (sub (unread_count) (is_engadget)) (unread_count))))",
        feed_prims)
    values = pass_values(tree, catalog)
    split, unanimous = tree.children
    untaken = unanimous.children[3]
    unread = {id(node) for node, _ in iter_nodes(untaken)}
    read = [node for node, _ in iter_nodes(tree) if node.children and id(node) not in unread]
    assert len(read) == 10
    assert all(is_warm(node, catalog) for node in read)
    assert all(node.record is None for node, _ in iter_nodes(untaken))
    assert all(node.record is None for node, _ in iter_nodes(tree) if not node.children)
    assert tree.record[1] is values and isinstance(values, tuple)
    again = pass_values(tree, catalog)
    assert again is values
    assert_same_fill(feed_module._fill_screen(tree, catalog), walked_fill(tree, catalog))


# ---------------------------------------------------------------------------
# clicks and fitness

def test_click_extremes(catalog, feed_prims):
    report = run_feed_program(constant(feed_prims, 1.0), catalog)
    always = UserModel({f.feed_id: 1.0 for f in catalog.feeds})
    eager = simulate_clicks(report, always, random.Random(0))
    assert eager.clicked == eager.displayed
    report = run_feed_program(constant(feed_prims, 1.0), catalog)
    never = UserModel({f.feed_id: 0.0 for f in catalog.feeds})
    bored = simulate_clicks(report, never, random.Random(0))
    assert bored.clicked == []


def test_click_rate_monte_carlo(catalog, feed_prims):
    user = UserModel({f.feed_id: 0.5 for f in catalog.feeds})
    rng = random.Random(2718)
    tree = constant(feed_prims, 1.0)
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
    tree = build_random_tree(at_bias(feed_prims, 0.5), 3, random.Random(5))
    member = Individual.from_tree(tree)
    a = FeedEvaluator(catalog, homogeneous_user(catalog), random.Random("e"))(member)
    b = FeedEvaluator(catalog, homogeneous_user(catalog), random.Random("e"))(member)
    assert a == b == report_fitness(tree, catalog, homogeneous_user(catalog),
                                    random.Random("e"))[0]


# ---------------------------------------------------------------------------
# the depth-2 exhaustive oracle

def enumerate_depth2(prims, const_values=(-1.0, 0.5, 2.0)):
    leaf_kinds, functions = leaves_and_functions(prims, Sort.NUMBER)
    leaves = [ProgramTree(k) for k in leaf_kinds if k.name != constant_kind_name(Sort.NUMBER)]
    leaves += [constant(prims, v) for v in const_values]
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


@pytest.mark.parametrize("low,high", [(0.0, 1.0), (0, 1)])
def test_a_click_prob_at_either_end_of_its_range_is_accepted(tmp_path, low, high):
    path = tmp_path / "feeds.json"
    path.write_text(json.dumps({"feeds": [{"id": "a", "group": "tech"},
                                          {"id": "b", "group": "news"}],
                                "click_prob": {"a": low, "b": high}}))
    _, user = load_feed_config(str(path))
    assert (repr(user.probability("a")), repr(user.probability("b"))) == ("0.0", "1.0")


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
