"""Property tests: the text form round-trips and the variation operators stay
closed over the primitive set and the depth bound."""
import random

import grower
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gpislands.evolution import crossover, mutate
from gpislands.feed import default_catalog, feed_primitives
from gpislands.localisation import localisation_primitives
from gpislands.trees import (
    Category,
    ProgramTree,
    deserialize,
    iter_nodes,
    serialize,
    validate_tree,
)

PRIMS = {
    "feed": feed_primitives(default_catalog()),
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
        leaves, functions = grower.split(prims, sort)
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


@pytest.mark.parametrize("task", sorted(PRIMS))
@bounded
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), bias=st.floats(0.0, 1.0))
def test_mutate_stays_closed(task, data, seed, bias):
    prims = grower.at_bias(PRIMS[task], bias)
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
