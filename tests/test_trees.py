"""Typed tree construction, measurement, serialization and validation."""
import dataclasses
import random
import re

import grower
import pytest
from reference_tree import mirror
from sized import feed_chain
from walker import feed_environments, walk

from gpislands import feed as feed_module
from gpislands.evolution import Population, crossover, mutate, population_stats
from gpislands.feed import FEED_FUNCTION_BIAS, default_catalog, feed_primitives
from gpislands.interpreter import compile_program, execute
from gpislands.localisation import LOC_FUNCTION_BIAS, localisation_primitives
from gpislands.trees import (
    DEPTH_CEILING,
    Category,
    ConfigurationError,
    Individual,
    NodeKind,
    Origin,
    PrimitiveSet,
    ProgramTree,
    Sort,
    TreeError,
    TreeParseError,
    TreeValidationError,
    arithmetic_kinds,
    build_random_tree,
    constant_kind_name,
    deserialize,
    function,
    grow_subtree,
    iter_nodes,
    node_at,
    replace_subtree,
    serialize,
    terminal,
    validate_tree,
)
from gpislands.trees import _grow, _node

GOLDEN = "tests/data/feed_tree_seed42.txt"


def leaf(prims, name):
    return ProgramTree(prims.kind(name))


def const(prims, value, sort=Sort.NUMBER):
    return ProgramTree(prims.kind(constant_kind_name(sort)), value=value)


# ---------------------------------------------------------------------------
# construction and typing

def test_node_kind_arity_and_categories():
    lat = terminal("lat", Sort.NUMBER)
    assert lat.arity == 0 and lat.category is Category.TERMINAL
    add = function("add", (Sort.NUMBER, Sort.NUMBER), Sort.NUMBER, lambda a, b: a + b)
    assert add.arity == 2 and add.category is Category.FUNCTION


def test_function_kind_requires_arguments_and_fn():
    with pytest.raises(ConfigurationError):
        NodeKind("nop", (), Sort.NUMBER, Category.FUNCTION, fn=lambda: 0.0)
    with pytest.raises(ConfigurationError):
        NodeKind("f", (Sort.NUMBER,), Sort.NUMBER, Category.FUNCTION)


def test_tree_rejects_wrong_arity_and_child_sort(geo_prims):
    add = geo_prims.kind("add")
    with pytest.raises(TreeValidationError):
        ProgramTree(add, (leaf(geo_prims, "lat"),))
    bool_leaf = ProgramTree(terminal("flag", Sort.BOOLEAN))
    with pytest.raises(TreeValidationError):
        ProgramTree(add, (leaf(geo_prims, "lat"), bool_leaf))


def test_constant_payload_required(geo_prims):
    kind = geo_prims.kind(constant_kind_name(Sort.NUMBER))
    with pytest.raises(TreeValidationError):
        ProgramTree(kind)  # missing payload
    with pytest.raises(TreeValidationError):
        ProgramTree(geo_prims.kind("lat"), value=1.0)  # payload on a terminal


def test_protected_division_total():
    div = next(k for k in arithmetic_kinds(include_div=True) if k.name == "div")
    assert div.fn(1.0, 0.0) == 1.0
    assert div.fn(6.0, 3.0) == 2.0


def test_duplicate_kind_names_rejected():
    with pytest.raises(ConfigurationError):
        PrimitiveSet([terminal("x", Sort.NUMBER), terminal("x", Sort.NUMBER)],
                     Sort.NUMBER)


def test_ensure_generable_needs_a_leaf_per_reachable_sort():
    prims = PrimitiveSet(arithmetic_kinds(), Sort.NUMBER)
    with pytest.raises(ConfigurationError):
        prims.ensure_generable()


def test_an_ungenerable_set_fails_its_first_build_without_drawing():
    prims = PrimitiveSet(arithmetic_kinds(), Sort.NUMBER)
    rng = random.Random(5)
    state = rng.getstate()
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="'Number'"):
            build_random_tree(prims, 3, rng)
    assert rng.getstate() == state


def test_reachable_sorts_follow_argument_sorts(loc_prims):
    """A sort counts when a kind of a reachable sort takes it as an
    argument, however far from the root; a leafless sort that no such kind
    takes does not stop a build."""
    loc_prims.ensure_generable()
    chain = [function("act_on", (Sort.NUMBER,), Sort.ACTION, lambda a: a),
             function("number_of", (Sort.BOOLEAN,), Sort.NUMBER, lambda a: a),
             terminal("go", Sort.ACTION), terminal("x", Sort.NUMBER)]
    with pytest.raises(ConfigurationError, match="'Boolean'"):
        PrimitiveSet(chain, Sort.ACTION).ensure_generable()
    PrimitiveSet(chain + [terminal("flag", Sort.BOOLEAN)], Sort.ACTION).ensure_generable()
    unreached = [terminal("x", Sort.NUMBER),
                 function("negate", (Sort.BOOLEAN,), Sort.BOOLEAN, lambda a: a),
                 function("act_if", (Sort.BOOLEAN,), Sort.ACTION, lambda a: a)]
    PrimitiveSet(unreached, Sort.NUMBER).ensure_generable()


# ---------------------------------------------------------------------------
# measurements

def test_size_and_depth_of_single_leaf(geo_prims):
    t = leaf(geo_prims, "lat")
    assert t.size == 1
    assert t.depth == 1


def test_size_and_depth_nested(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (
        ProgramTree(geo_prims.kind("mul"), (leaf(geo_prims, "lat"),
                                            leaf(geo_prims, "lon"))),
        const(geo_prims, 2.5),
    ))
    assert t.size == 5
    assert t.depth == 3


def test_iter_nodes_is_preorder_with_depths(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (leaf(geo_prims, "lat"),
                                            leaf(geo_prims, "lon")))
    walked = [(node.kind.name, depth) for node, depth in iter_nodes(t)]
    assert walked == [("add", 1), ("lat", 2), ("lon", 2)]


def test_replace_subtree_rebuilds_without_mutating(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (leaf(geo_prims, "lat"),
                                            leaf(geo_prims, "lon")))
    swapped = replace_subtree(t, 2, const(geo_prims, 7.0))
    assert serialize(t) == "(add (lat) (lon))"
    assert serialize(swapped) == "(add (lat) (const:Number 7.0))"
    whole = replace_subtree(t, 0, leaf(geo_prims, "lat"))
    assert serialize(whole) == "(lat)"
    with pytest.raises(ValueError):
        replace_subtree(t, 3, leaf(geo_prims, "lat"))


# ---------------------------------------------------------------------------
# cached measurements and the preorder walk, against recursive references

def recount(tree):
    """``(size, depth)`` recomputed by recursion over the children."""
    if not tree.children:
        return 1, 1
    counts = [recount(c) for c in tree.children]
    return 1 + sum(s for s, _ in counts), 1 + max(d for _, d in counts)


def reference_preorder(tree, depth=1):
    nodes = [(tree, depth)]
    for child in tree.children:
        nodes.extend(reference_preorder(child, depth + 1))
    return nodes


def reference_replace(tree, index, replacement):
    """Subtree replacement by a full preorder rebuild."""
    counter = [0]

    def rebuild(node):
        here = counter[0]
        if here == index:
            counter[0] += recount(node)[0]
            return replacement
        counter[0] += 1
        return ProgramTree(node.kind, tuple(rebuild(c) for c in node.children), node.value)

    return rebuild(tree)


def assert_measures_hold(tree):
    walked = list(iter_nodes(tree))
    reference = reference_preorder(tree)
    assert len(walked) == len(reference)
    for (node, depth), (ref_node, ref_depth) in zip(walked, reference):
        assert node is ref_node and depth == ref_depth
        assert (node.size, node.depth) == recount(node)
        assert node.uniform == all(n.sort is node.sort for n, _ in reference_preorder(node))
    assert (tree.size, tree.depth) == recount(tree)


#: The two task vocabularies.  Localisation grows at 0.5 here, not at its
#: own 0.3, so that its trees reach the depths these tests walk.
TASK_SETS = pytest.mark.parametrize("make_prims", [
    lambda: feed_primitives(default_catalog()),
    lambda: grower.at_bias(localisation_primitives(), 0.5),
], ids=["feed", "localisation"])


def operator_trees(prims, seed):
    """Trees from every constructor that builds nodes, at depths 3 to 9; the
    swapped-in subtrees grow at bias 0.5."""
    rng = random.Random(seed)
    halfway = grower.at_bias(prims, 0.5)
    for depth in range(3, 10):
        for _ in range(5):
            a = build_random_tree(prims, depth, rng)
            b = build_random_tree(prims, depth, rng)
            yield a
            yield mutate(a, prims, depth, rng)
            yield crossover(a, b, depth, rng)
            index = rng.randrange(a.size)
            sort = reference_preorder(a)[index][0].sort
            yield replace_subtree(a, index, grow_subtree(halfway, sort, 3, rng))
            yield deserialize(serialize(b), prims, max_depth=depth)


@TASK_SETS
def test_cached_measures_and_preorder_match_recursive_references(make_prims):
    prims = make_prims()
    trees = list(operator_trees(prims, 21))
    assert max(t.depth for t in trees) >= 8
    for tree in trees:
        assert_measures_hold(tree)


@TASK_SETS
def test_node_at_matches_the_preorder_walk(make_prims):
    prims = make_prims()
    for tree in operator_trees(prims, 22):
        for index, (node, depth) in enumerate(iter_nodes(tree)):
            found, found_depth = node_at(tree, index)
            assert found is node and found_depth == depth
        for index in (-1, tree.size):
            with pytest.raises(ValueError):
                node_at(tree, index)


def test_replace_subtree_matches_a_full_rebuild(feed_prims):
    rng = random.Random(5)
    halfway = grower.at_bias(feed_prims, 0.5)
    for depth in (3, 6, 9):
        tree = build_random_tree(feed_prims, depth, rng)
        for index, (node, _) in enumerate(reference_preorder(tree)):
            replacement = grow_subtree(halfway, node.sort, 2, rng)
            swapped = replace_subtree(tree, index, replacement)
            assert swapped == reference_replace(tree, index, replacement)
            assert_measures_hold(swapped)


UNCOMPARED = ("size", "depth", "uniform", "memo", "record", "_hash")


def test_cached_measures_stay_out_of_equality_hash_and_repr(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (leaf(geo_prims, "lat"),
                                            const(geo_prims, 2.5)))
    again = deserialize(serialize(t), geo_prims)
    assert again == t and hash(again) == hash(t)
    assert "size" not in repr(t) and "depth" not in repr(t) and "uniform" not in repr(t)
    # only kind, children and value are compared: whatever the other slots
    # hold, equal trees compare and hash equal and write the same repr
    odd = deserialize(serialize(t), geo_prims)
    for name, junk in zip(UNCOMPARED, (99, -3, "no", object(), [1], 12345)):
        setattr(odd, name, junk)
    assert odd == t and hash(odd) == 12345 and repr(odd) == repr(t)
    assert not any(name in repr(odd) for name in UNCOMPARED)
    assert repr(t) == f"ProgramTree(kind={t.kind!r}, children={t.children!r}, value=None)"
    for other in (ProgramTree(geo_prims.kind("sub"), t.children),
                  ProgramTree(t.kind, t.children[::-1]),
                  ProgramTree(t.kind, (t.children[0], const(geo_prims, 2.25)))):
        assert other != t and not other == t
    assert t.memo is None and t.record is None
    t.memo = ("some key", 0.5)
    t.record = ("some columns", (1.0, 2.0))
    assert again == t and hash(again) == hash(t)
    assert "memo" not in repr(t) and again.memo is None
    assert "record" not in repr(t) and again.record is None
    assert t.memo == ("some key", 0.5)  # the slots are apart


def with_payloads(tree, payload):
    """``tree`` rebuilt with each constant's payload replaced by
    ``payload()``."""
    children = tuple(with_payloads(child, payload) for child in tree.children)
    value = payload() if tree.kind.category is Category.CONSTANT else None
    return ProgramTree(tree.kind, children, value)


def comparison_pairs(prims, seed):
    """Pairs of trees to compare: unrelated, bred from one another (sharing
    subtrees), structural twins, and twins whose constants are one shared
    NaN or distinct NaNs."""
    rng = random.Random(seed)
    shared_nan = float("nan")
    for depth in (2, 4, 6, 8):
        for _ in range(6):
            a = build_random_tree(prims, depth, rng)
            b = build_random_tree(prims, depth, rng)
            yield a, b
            yield a, mutate(a, prims, depth, rng)
            yield a, crossover(a, b, depth, rng)
            yield a, deserialize(serialize(a), prims)
            yield a, a
            nan_a = with_payloads(a, lambda: shared_nan)
            yield nan_a, with_payloads(a, lambda: shared_nan)
            yield nan_a, with_payloads(a, lambda: float("nan"))
            yield nan_a, nan_a
            yield nan_a, a


@TASK_SETS
def test_equality_hash_and_repr_agree_with_a_frozen_dataclass(make_prims):
    prims = make_prims()
    outcomes = set()
    for a, b in comparison_pairs(prims, 23):
        mirrored = {}
        ref_a, ref_b = mirror(a, mirrored), mirror(b, mirrored)
        assert (a == b, a != b) == (ref_a == ref_b, ref_a != ref_b)
        assert (hash(a), hash(b)) == (hash(ref_a), hash(ref_b))
        assert (repr(a), repr(b)) == (repr(ref_a), repr(ref_b))
        assert a.__eq__(ref_a) is NotImplemented and ref_a.__eq__(a) is NotImplemented
        assert a.__eq__(None) is NotImplemented and a != 1
        outcomes.add(a == b)
    assert outcomes == {True, False}


def checked_copy(tree):
    """``tree`` rebuilt node by node through the checked constructor, which
    raises if any node is not valid."""
    return ProgramTree(tree.kind, tuple(checked_copy(child) for child in tree.children),
                       tree.value)


@TASK_SETS
def test_unchecked_nodes_from_growth_and_replacement_are_valid(make_prims):
    prims = make_prims()
    bias = prims.function_bias
    rng = random.Random(24)
    for sort in grower.sorts_with_leaves(prims):
        for depth in range(1, 8):
            grown = _grow(prims._growth[sort], depth, rng, bias)
            assert grown.sort is sort and grown.depth <= depth
            assert_measures_hold(grown)
            copy = checked_copy(grown)
            assert copy == grown
            assert [(n.size, n.depth, n.uniform) for n, _ in iter_nodes(copy)] == \
                [(n.size, n.depth, n.uniform) for n, _ in iter_nodes(grown)]
            index = rng.randrange(grown.size)
            node, _ = node_at(grown, index)
            swapped = replace_subtree(grown, index, _grow(prims._growth[node.sort], 3, rng, bias))
            assert_measures_hold(swapped)
            assert checked_copy(swapped) == swapped
            assert all(n.memo is None and n.record is None for n, _ in iter_nodes(swapped))


def test_replace_subtree_rejects_a_replacement_of_another_sort(loc_prims):
    tree = deserialize("(seq (request_update) (enable_gps))", loc_prims)
    number = const(loc_prims, 1.0)
    with pytest.raises(TreeValidationError):
        replace_subtree(tree, 1, number)
    assert replace_subtree(tree, 0, number) is number  # the root has no parent
    leaf_node = _node(loc_prims.kind("enable_wifi"))
    assert serialize(replace_subtree(tree, 2, leaf_node)) == \
        "(seq (request_update) (enable_wifi))"


# ---------------------------------------------------------------------------
# random generation

def test_build_random_tree_respects_depth_bound(geo_prims):
    rng = random.Random(7)
    for _ in range(500):
        t = build_random_tree(geo_prims, 3, rng)
        assert 1 <= t.depth <= 3
        validate_tree(t, geo_prims, max_depth=3)


def test_each_set_carries_its_grow_bias(geo_prims):
    assert feed_primitives(default_catalog()).function_bias == FEED_FUNCTION_BIAS == 0.75
    assert localisation_primitives().function_bias == LOC_FUNCTION_BIAS == 0.3
    assert geo_prims.function_bias == 0.5


def test_function_bias_extremes(geo_prims):
    rng = random.Random(11)
    leafy, bushy = grower.at_bias(geo_prims, 0.0), grower.at_bias(geo_prims, 1.0)
    for _ in range(50):
        assert build_random_tree(leafy, 3, rng).depth == 1
        assert build_random_tree(bushy, 3, rng).depth == 3


def test_constants_are_frozen_at_generation(geo_prims):
    rng = random.Random(3)
    values = set()
    for _ in range(20):
        t = build_random_tree(grower.at_bias(geo_prims, 1.0), 2, rng)
        for node, _ in iter_nodes(t):
            if node.kind.category is Category.CONSTANT:
                assert node.value is not None
                values.add(node.value)
    assert len(values) > 1  # ephemeral, not a shared singleton


GROWTH_SETS = {
    "geo": lambda: PrimitiveSet(arithmetic_kinds() + [terminal("lat", Sort.NUMBER)],
                                Sort.NUMBER, {Sort.NUMBER: lambda rng: rng.uniform(-10, 10)}),
    "feed": lambda: feed_primitives(default_catalog()),
    "localisation": localisation_primitives,
}


@pytest.mark.parametrize("name", sorted(GROWTH_SETS))
@pytest.mark.parametrize("bias", [0.0, 0.5, 0.75, 1.0])
def test_growth_matches_the_recursive_reference(name, bias):
    """The same trees from the same draws, and the rng left in the same
    state, as the textbook recursion; at bias 1 every tree is full, so the
    budgets stop at 5 there."""
    prims = grower.at_bias(GROWTH_SETS[name](), bias)
    budgets = range(1, 6) if bias == 1.0 else range(1, 10)
    seeds = random.Random(f"{name}:{bias}")
    for sort in grower.sorts_with_leaves(prims):
        for budget in budgets:
            for _ in range(6):
                seed = seeds.random()
                ours, theirs = random.Random(seed), random.Random(seed)
                tree = grow_subtree(prims, sort, budget, ours)
                assert tree == grower.grow(prims, sort, budget, theirs)
                assert ours.getstate() == theirs.getstate()
                assert tree.sort is sort and tree.depth <= budget


def leafless_prims():
    """Booleans come only from ``gt``, and ``pick`` needs one."""
    kinds = [terminal("lat", Sort.NUMBER),
             function("gt", (Sort.NUMBER, Sort.NUMBER), Sort.BOOLEAN,
                      lambda a, b: a > b),
             function("pick", (Sort.BOOLEAN, Sort.NUMBER, Sort.NUMBER), Sort.NUMBER,
                      lambda c, a, b: a if c else b)]
    return PrimitiveSet(kinds, Sort.NUMBER)


@pytest.mark.parametrize("sort", [Sort.BOOLEAN, Sort.ACTION])
def test_a_leafless_sort_raises_without_drawing(sort):
    prims = leafless_prims()
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ConfigurationError) as ours:
        grow_subtree(prims, sort, 1, rng)
    with pytest.raises(ConfigurationError) as theirs:
        grower.grow(prims, sort, 1, random.Random(3))
    assert str(ours.value) == str(theirs.value)
    assert rng.getstate() == state


def test_growth_through_a_leafless_sort_draws_as_the_reference():
    """A leafless sort with functions grows a function without the
    leaf-or-function draw, and one reached at budget 1 raises after the
    same draws as the reference."""
    prims = leafless_prims()
    seeds = random.Random(8)
    grown = raised = 0
    for budget in range(1, 6):
        for _ in range(40):
            seed = seeds.random()
            ours, theirs = random.Random(seed), random.Random(seed)
            try:
                want = grower.grow(prims, Sort.NUMBER, budget, theirs)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                    grow_subtree(prims, Sort.NUMBER, budget, ours)
                raised += 1
            else:
                assert grow_subtree(prims, Sort.NUMBER, budget, ours) == want
                grown += 1
            assert ours.getstate() == theirs.getstate()
    assert grown and raised


def test_the_growth_tables_list_each_sorts_kinds_in_order(loc_prims):
    for sort in Sort:
        leaves, functions = grower.split(loc_prims, sort)
        table = loc_prims._growth[sort]
        assert list(table.leaves) == leaves
        assert [kind for kind, _ in table.functions] == functions


def test_generation_is_reproducible_golden_file():
    prims = feed_primitives(default_catalog())
    tree = build_random_tree(prims, 3, random.Random(42))
    with open(GOLDEN) as fh:
        assert serialize(tree) == fh.read().strip()


# ---------------------------------------------------------------------------
# serialization

def test_serialize_canonical_example(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (leaf(geo_prims, "lat"),
                                            const(geo_prims, 2.5)))
    assert serialize(t) == "(add (lat) (const:Number 2.5))"


def reference_serialize(tree):
    """Serialization by recursion over the children."""
    if tree.kind.category is Category.CONSTANT:
        return f"({tree.kind.name} {float(tree.value)!r})"
    if not tree.children:
        return f"({tree.kind.name})"
    inner = " ".join(reference_serialize(c) for c in tree.children)
    return f"({tree.kind.name} {inner})"


@TASK_SETS
def test_serialize_matches_a_recursive_reference(make_prims):
    prims = make_prims()
    for tree in operator_trees(prims, 23):
        assert serialize(tree) == reference_serialize(tree)


def test_serialize_nonfinite_and_signed_zero_payloads(feed_prims):
    payloads = (float("nan"), 0.0, -0.0, float("inf"), float("-inf"))
    tree = const(feed_prims, payloads[0])
    for value in payloads[1:]:
        tree = ProgramTree(feed_prims.kind("add"), (tree, const(feed_prims, value)))
    text = serialize(tree)
    assert text == reference_serialize(tree) == (
        "(add (add (add (add (const:Number nan) (const:Number 0.0))"
        " (const:Number -0.0)) (const:Number inf)) (const:Number -inf))")
    assert serialize(deserialize(text, feed_prims)) == text
    for value in payloads:
        assert serialize(const(feed_prims, value)) == f"(const:Number {value!r})"


def test_equal_trees_with_signed_zeros_serialize_apart(feed_prims):
    """The text follows the payload bits, not ``==``."""
    def tree(zero):
        return ProgramTree(feed_prims.kind("add"), (leaf(feed_prims, "unread_count"),
                                                    const(feed_prims, zero)))
    plus, minus = tree(0.0), tree(-0.0)
    assert plus == minus and hash(plus) == hash(minus)
    assert serialize(plus) == "(add (unread_count) (const:Number 0.0))"
    assert serialize(minus) == "(add (unread_count) (const:Number -0.0))"
    for twin in (plus, minus):
        assert serialize(deserialize(serialize(twin), feed_prims)) == serialize(twin)


def test_serialize_a_chain_deeper_than_the_recursion_limit(feed_prims):
    # texts are compared, not trees: == on a tree this deep recurses
    add = feed_prims.kind("add")
    unread = ProgramTree(feed_prims.kind("unread_count"))
    tree = unread
    for _ in range(4999):
        tree = ProgramTree(add, (tree, unread))
    assert tree.depth == 5000
    text = serialize(tree)
    assert text == "(add " * 4999 + "(unread_count)" + " (unread_count))" * 4999
    assert serialize(deserialize(text, feed_prims, 5000)) == text


def test_round_trip_many_random_trees(geo_prims, feed_prims, loc_prims):
    rng = random.Random(1234)
    for prims in (geo_prims, grower.at_bias(feed_prims, 0.5), grower.at_bias(loc_prims, 0.5)):
        for _ in range(400):
            t = build_random_tree(prims, 4, rng)
            again = deserialize(serialize(t), prims)
            assert again == t
            assert serialize(again) == serialize(t)


def test_round_trip_awkward_float_payloads(geo_prims):
    for value in (0.1 + 0.2, 1e-17, -1.561563606294591, 3.0, -0.0):
        t = const(geo_prims, value)
        assert deserialize(serialize(t), geo_prims).value == value


def test_parse_is_whitespace_tolerant(geo_prims):
    t = deserialize("  ( add ( lat )\n (const:Number 2.5) ) ", geo_prims)
    assert serialize(t) == "(add (lat) (const:Number 2.5))"


@pytest.mark.parametrize("text", [
    "",
    "add",
    "(add (lat)",
    "(add (lat) (lon)) (lat)",
    "(const:Number)",
    "(const:Number abc)",
    "(const:Number 1.0 2.0)",
    "(lat extra)",
])
def test_malformed_text_raises_parse_error(geo_prims, text):
    with pytest.raises(TreeParseError):
        deserialize(text, geo_prims)


@pytest.mark.parametrize("text", [
    "(bogus)",
    "(add (lat) (lon) (lat))",
    "(add (lat) (bogus))",
])
def test_unknown_kinds_and_arity_raise_validation_error(geo_prims, text):
    with pytest.raises(TreeValidationError):
        deserialize(text, geo_prims)


def test_deserialize_enforces_max_depth(geo_prims):
    deep = "(add (add (lat) (lon)) (lat))"
    assert deserialize(deep, geo_prims, max_depth=3) is not None
    with pytest.raises(TreeValidationError):
        deserialize(deep, geo_prims, max_depth=2)
    # far deeper than the interpreter's recursion limit: rejected at the bound
    nested = "(add " * 5000 + "(lat)" + " (lon))" * 5000
    with pytest.raises(TreeValidationError):
        deserialize(nested, geo_prims, max_depth=9)


@pytest.mark.parametrize("kind", ["add", "if_greater"])
def test_deserialize_without_bound_stops_at_the_ceiling(feed_prims, kind):
    catalog = default_catalog()
    text = feed_chain(kind, DEPTH_CEILING)
    tree = deserialize(text, feed_prims)
    assert tree.depth == DEPTH_CEILING
    assert serialize(tree) == text
    values, steps = feed_module._score_feeds(tree, catalog)
    assert len(values) == len(catalog.feeds)
    env = feed_environments(catalog)[0]
    walked = walk(tree, env, 10 * tree.size)
    compiled = execute(compile_program(tree, env), 10 * tree.size)
    assert not walked.killed
    assert (walked.value, walked.steps_used) == (compiled.value, compiled.steps_used)
    # the one pass counts the walk's steps: every feed's walk takes the same
    assert steps == (walked.steps_used,) * len(catalog.feeds)
    with pytest.raises(TreeValidationError):
        deserialize(feed_chain(kind, DEPTH_CEILING + 1), feed_prims)


def test_a_node_keeps_the_hash_the_dataclass_would_generate(feed_prims, loc_prims):
    rng = random.Random(4)
    compared = [f.name for f in dataclasses.fields(NodeKind) if f.compare]
    for prims in (grower.at_bias(feed_prims, 0.5), grower.at_bias(loc_prims, 0.5)):
        for _ in range(100):
            tree = build_random_tree(prims, 6, rng)
            assert tree._hash is None  # worked out on first use, never before
            assert hash(tree) == hash((tree.kind, tree.children, tree.value))
            assert all(node._hash is not None for node, _ in iter_nodes(tree))
            kind = tree.kind
            assert hash(kind) == hash(tuple(getattr(kind, name) for name in compared))
            twin = deserialize(serialize(tree), prims)
            assert twin is not tree
            assert (twin, hash(twin), repr(twin)) == (tree, hash(tree), repr(tree))


@pytest.mark.parametrize("kind", ["add", "if_greater"])
def test_a_chain_at_the_ceiling_hashes(feed_prims, kind):
    tree = deserialize(feed_chain(kind, DEPTH_CEILING), feed_prims)
    assert tree.depth == DEPTH_CEILING
    assert hash(tree) == hash((tree.kind, tree.children, tree.value))
    assert hash(deserialize(feed_chain(kind, DEPTH_CEILING), feed_prims)) == hash(tree)


def test_wrong_root_sort_rejected(geo_prims, loc_prims):
    with pytest.raises(TreeValidationError):
        deserialize("(lat)", loc_prims)  # unknown kind there
    t = leaf(geo_prims, "lat")
    with pytest.raises(TreeValidationError):
        validate_tree(t, loc_prims)


def test_same_name_different_shape_rejected(geo_prims):
    imposter = ProgramTree(terminal("lat", Sort.BOOLEAN))
    with pytest.raises(TreeValidationError):
        validate_tree(imposter, geo_prims)


def test_error_hierarchy():
    assert issubclass(TreeParseError, TreeError)
    assert issubclass(TreeValidationError, TreeError)
    assert issubclass(TreeError, ValueError)
    assert not issubclass(ConfigurationError, TreeError)


# ---------------------------------------------------------------------------
# individuals

def test_individual_from_tree_measures(geo_prims):
    t = ProgramTree(geo_prims.kind("add"), (leaf(geo_prims, "lat"),
                                            leaf(geo_prims, "lon")))
    ind = Individual.from_tree(t)
    assert ind.origin is Origin.LOCAL
    assert ind.fitness is None
    assert ind.size == 3 and ind.depth == 2


def test_an_individual_built_directly_measures_its_tree(geo_prims):
    """Size and depth are read from the tree, however the member is built."""
    add = geo_prims.kind("add")
    pair = ProgramTree(add, (leaf(geo_prims, "lat"), leaf(geo_prims, "lon")))
    t = ProgramTree(add, (ProgramTree(add, (pair, leaf(geo_prims, "lat"))), pair))
    assert (t.size, t.depth) == (9, 4)
    direct, built = Individual(t, fitness=0.5), Individual.from_tree(t, fitness=0.5)
    assert (direct.size, direct.depth) == (built.size, built.depth) == (9, 4)
    assert direct == built
    stats = population_stats(Population([direct], 1))
    assert (stats.mean_size, stats.mean_depth) == (9.0, 4.0)
    with pytest.raises(AttributeError):
        direct.size = 1
