"""Property tests: the text form round-trips, its tokens keep every
character but whitespace, the variation operators stay closed over the primitive set and the depth bound, one-pass feed scoring
gives every feed what its own walk gives, cold, warm and bred, and raises
a configuration error for a terminal the catalog leaves unbound, and a
localisation world of any shape scores as the eager oracle does."""
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    at_bias,
    leaves_and_functions,
    oracle_fitness,
    pass_values,
    walked_fill,
    walked_steps,
)
from test_feed import NARROW, WIDE, assert_same_fill, assert_scored_as_walked
from test_localisation import HAND_TREES, switching_trees

from gpislands.evolution import crossover, mutate
from gpislands import feed
from gpislands.feed import default_catalog, feed_primitives
from gpislands.localisation import (
    RADIO_NAMES,
    Provider,
    Segment,
    WorldConfig,
    evaluate_localisation,
    localisation_primitives,
)
from gpislands.trees import (
    Category,
    ConfigurationError,
    ProgramTree,
    deserialize,
    iter_nodes,
    serialize,
    validate_tree,
)
from gpislands.trees import _TOKEN

CATALOG = default_catalog()
PRIMS = {
    "feed": feed_primitives(CATALOG),
    "localisation": localisation_primitives(),
}
MAX_DEPTH = 6
#: Past this many nodes a drawn tree only adds leaves, so examples stay small.
MAX_NODES = 60
#: Operator applications per drawn example: the rng picks the nodes.
OPERATOR_DRAWS = 10

# derandomized: tier-1 runs the same examples every time, like every other test
bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def trees(draw, prims, max_depth=MAX_DEPTH, payloads=st.floats(allow_nan=False)):
    """A sort-valid tree over ``prims`` of depth <= ``max_depth``, every kind
    and constant payload chosen by hypothesis."""
    made = 0

    def grow(sort, budget):
        nonlocal made
        made += 1
        leaves, functions = leaves_and_functions(prims, sort)
        choices = leaves + functions if budget > 1 and made < MAX_NODES else leaves
        kind = draw(st.sampled_from(choices))
        if kind.category is Category.CONSTANT:
            return ProgramTree(kind, (), draw(payloads))
        return ProgramTree(kind, tuple(grow(arg, budget - 1) for arg in kind.argument_sorts))

    return grow(prims.root_sort, draw(st.integers(1, max_depth)))


def assert_closed(tree, prims, max_depth):
    validate_tree(tree, prims, max_depth)
    walked = list(iter_nodes(tree))
    assert tree.size == len(walked)
    assert tree.depth == max(depth for _, depth in walked) <= max_depth


@pytest.mark.parametrize("task", sorted(PRIMS))
@bounded
@given(data=st.data())
def test_serialize_round_trips(task, data):
    prims = PRIMS[task]
    tree = data.draw(trees(prims))
    text = serialize(tree)
    back = deserialize(text, prims)
    assert back == tree
    assert (back.size, back.depth) == (tree.size, tree.depth)
    assert serialize(back) == text


@pytest.mark.parametrize("task", sorted(PRIMS))
@bounded
@given(data=st.data())
def test_text_is_canonical_for_any_payload(task, data):
    """NaN payloads compare unequal to themselves, so this checks the text:
    NaN, infinities and signed zeros come back as they went out."""
    prims = PRIMS[task]
    tree = data.draw(trees(prims, payloads=st.floats()))
    text = serialize(tree)
    assert serialize(deserialize(text, prims)) == text


#: Characters tree text may mix: parentheses, ASCII spaces, Unicode spaces
#: (no-break, em, and U+001C to U+001F, which ``str.split`` splits at too),
#: characters that are no space though they show none (zero-width space,
#: byte-order mark), and any other.
TEXT_CHARACTERS = st.one_of(
    st.sampled_from(list("()  \t\n\r\x0b\x0c\u00a0\u2003\x1c\x1d\x1e\x1f\u200b\ufeff")),
    st.characters())


@bounded
@given(text=st.text(TEXT_CHARACTERS, max_size=40))
def test_the_tokens_of_any_text_hold_all_of_it_but_whitespace(text):
    """The parser's tokens join to the text with its whitespace removed, so
    it skips nothing that is not whitespace and needs no check that it did."""
    assert "".join(_TOKEN.findall(text)) == "".join(text.split())


def test_the_tokens_skip_exactly_what_str_split_does_on_every_code_point():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(_TOKEN.findall(everything)) == "".join(everything.split())
    text = "(seq\u00a0(enable_gps)\x1f\u2003(request_update)\x1c)"
    assert serialize(deserialize(text, PRIMS["localisation"])) == \
        "(seq (enable_gps) (request_update))"


@pytest.mark.parametrize("task", sorted(PRIMS))
@bounded
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), bias=st.floats(0.0, 1.0))
def test_mutate_stays_closed(task, data, seed, bias):
    prims = at_bias(PRIMS[task], bias)
    max_depth = data.draw(st.integers(1, MAX_DEPTH))
    tree = data.draw(trees(prims, max_depth))
    rng = random.Random(seed)
    for _ in range(OPERATOR_DRAWS):
        assert_closed(mutate(tree, prims, max_depth, rng), prims, max_depth)


@pytest.mark.parametrize("task", sorted(PRIMS))
@bounded
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_crossover_stays_closed(task, data, seed):
    prims = PRIMS[task]
    max_depth = data.draw(st.integers(1, MAX_DEPTH))
    a = data.draw(trees(prims, max_depth))
    b = data.draw(trees(prims, max_depth))
    rng = random.Random(seed)
    for _ in range(OPERATOR_DRAWS):
        assert_closed(crossover(a, b, max_depth, rng), prims, max_depth)


#: Payloads that keep their bits only if every operation does: NaN, the
#: infinities and both zeros, drawn as often as any other float.
SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0])


@bounded
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_one_pass_feed_scoring_is_the_walkers_cold_warm_and_bred(data, seed):
    """Scored cold, scored again from the records, and as a mutation child
    and a crossover child of parents already scored, whose records they
    share."""
    prims = PRIMS["feed"]
    max_depth = data.draw(st.integers(1, MAX_DEPTH))
    payloads = st.one_of(SPECIAL, st.floats())
    a = data.draw(trees(prims, max_depth, payloads))
    b = data.draw(trees(prims, max_depth, payloads))
    for parent in (a, b):
        values, _ = assert_scored_as_walked(parent, CATALOG)
        assert assert_scored_as_walked(parent, CATALOG)[0] is values or not parent.children
    rng = random.Random(seed)
    assert_scored_as_walked(mutate(a, prims, max_depth, rng), CATALOG)
    assert_scored_as_walked(crossover(a, b, max_depth, rng), CATALOG)


#: Two splits added, so that every feed meets both in its own run, or each
#: taken by one feed, ``a`` taking the first and ``b`` the second.
ROOTS = ["(add {} {})", "(if_greater (is_a) (const:Number 0.5) {} {})"]
#: A split on a terminal: all but ``unread_count`` send ``a`` and ``b`` apart.
SPLIT = "(if_greater ({}) (const:Number 0.5) {} {})"
COMPARANDS = ["is_a", "is_b", "group_is_tech", "unread_count"]


@bounded
@given(data=st.data())
def test_a_fill_reading_an_unbound_terminal_is_a_configuration_error(data):
    """Over the feed vocabulary of a catalog that binds ``is_c``, scored on
    one that does not: when some feed's own walk reaches ``is_c``, the fill
    raises that walk's :class:`ConfigurationError`, message and all.  When
    none does, the fill gives every feed its walked value, unless the pass
    read ``is_c`` where no feed's walk goes (in a split nested in a branch
    only some feeds take), and then it raises the same error.  The tree is
    two splits under a root that adds them or splits the feeds."""
    payloads = st.one_of(SPECIAL, st.floats(1.0, 10.0))
    parts = [serialize(data.draw(trees(feed_primitives(WIDE), 2, payloads))) for _ in range(4)]
    comparands = [data.draw(st.sampled_from(COMPARANDS)) for _ in range(2)]
    splits = [SPLIT.format(comparands[0], *parts[:2]), SPLIT.format(comparands[1], *parts[2:])]
    tree = deserialize(data.draw(st.sampled_from(ROOTS)).format(*splits), feed_primitives(WIDE))
    try:
        pass_values(tree, NARROW)
    except KeyError:
        with pytest.raises(ConfigurationError) as raised:
            feed._fill_screen(tree, NARROW)
        assert str(raised.value) == "terminal 'is_c' is not bound"
        try:  # the walks stop at the first feed whose own walk raises
            walked_steps(tree, NARROW)
        except ConfigurationError as error:
            assert str(error) == str(raised.value)
        return
    walked_steps(tree, NARROW)  # raises if some feed's own walk does
    assert_same_fill(feed._fill_screen(tree, NARROW), walked_fill(tree, NARROW))


#: Radii with ties and a zero, draws whose left-to-right sums differ from
#: their compensated ones, and warm-ups on and between ticks.
RADII = st.sampled_from([0.0, 5.0, 40.0, 400.0])
DRAWS = st.sampled_from([0.0, 0.1, 9.1, 17.3, 21.2, 25.9, 30.0, 140.0])
WARM_UPS = st.sampled_from([0.0, 1.0, 2.5, 10.0])
WHOLE = st.integers(0, 32).map(float)


@st.composite
def world_configs(draw):
    """A world of 1 to 3 uniquely named providers in any order, 1 to 3
    segments that may overlap or leave gaps, 1 to 3 waypoints and 1 to 30
    ticks."""
    names = draw(st.permutations(RADIO_NAMES))[:draw(st.integers(1, 3))]
    providers = tuple(Provider(name, draw(RADII), draw(DRAWS), draw(WARM_UPS))
                      for name in names)
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(WHOLE)
        segments.append(Segment(start, start + draw(st.integers(0, 12)),
                                indoor=draw(st.booleans()), wifi=draw(st.booleans())))
    times = sorted(draw(WHOLE) for _ in range(draw(st.integers(1, 3))))
    coordinates = st.integers(-100, 100).map(float)
    waypoints = tuple((t, draw(coordinates), draw(coordinates)) for t in times)
    return WorldConfig(providers=providers, waypoints=waypoints,
                       segments=tuple(segments), ticks=draw(st.integers(1, 30)))


@bounded
@given(config=world_configs(), seed=st.integers(0, 2**32 - 1))
def test_any_world_scores_as_the_eager_oracle(config, seed):
    """The tick table, its reference fixes and energy factors give every
    program the oracle's fitness, bit for bit, in worlds beyond the fixed
    ones of the localisation tests."""
    prims = PRIMS["localisation"]
    programs = [deserialize(text, prims) for text in HAND_TREES]
    programs += switching_trees(prims, count=3, seed=seed)
    for tree in programs:
        assert evaluate_localisation(tree, config, seed) == oracle_fitness(tree, config, seed)[0]
