"""Typed program trees: the genome representation for the evolution engine.

Every node pairs a :class:`NodeKind` (a named, sorted primitive) with a tuple
of already-built child trees, so trees can share structure freely between
populations and migrating programs.  That needs trees to be immutable, which
is a contract :class:`ProgramTree` states but does not enforce: a node is a
plain slotted object, so building one costs no more than a plain object, and
no code may rebind a node's structure once it is built.  A
:class:`PrimitiveSet` declares the vocabulary available to a task --
functions, terminals and per-sort ephemeral constant sources -- and random
construction, mutation and deserialization all validate against it.

Each node records its ``size`` (nodes in its subtree), its ``depth`` (nodes
on its longest root-to-leaf path) and whether it is ``uniform`` (every node
of its subtree has its result sort) once, at construction, from the values
its children already hold.  Measuring a tree is therefore O(1), and the
preorder walk, subtree replacement and parsing are linear or better.  These
fields are derived from the structure, so ``==``, ``hash`` and ``repr``
ignore them.  So does the node's kept hash: worked out the first time the
node is hashed, from its children's kept hashes, so hashing a tree again, or
a new tree built around hashed subtrees, costs only the nodes not hashed
before, and a tree nobody hashes never works it out (a :class:`NodeKind`
keeps its hash the same way).  So do two slots in which a task may keep
what it computed from the subtree alone, with the inputs it used:
``memo`` holds one result for the node as a whole program, and ``record``
the node's value for each of a set of inputs.  Both live exactly as long
as the node, are keyed by the node's identity only, never by its
structure, and are set by plain assignment and replaced, never mutated.

The public constructor checks each node it builds: the arity, the constant
payload and every child's sort.  Random growth and :func:`replace_subtree`
build nodes that are valid by construction, from the growth tables and
from the ancestors on a path whose last parent takes the replacement's
sort, so they build through the private :func:`_node`, which skips those
checks, and spend on a node only what setting its slots costs.
:func:`deserialize` takes untrusted text and keeps the checked constructor,
which rejects a wrong arity or child sort there.

The text form of a tree is a parenthesized prefix expression, one pair of
parentheses per node, e.g. ``(add (lat) (const:Number 2.5))``.  The text is a
function of the structure and of each constant payload's bits, and parsing
it back gives the same structure and payloads at full float precision (a NaN
as a NaN), whose text is the same again.  Trees that compare equal need not
share their text: constants ``0.0`` and ``-0.0`` are ``==`` but written
apart.  Serializing and parsing are each one iterative loop, so neither
recurses.  The parser validates as it goes, so arbitrarily deep untrusted
text is rejected at the depth bound instead of building a tree the
recursive parts of the package cannot take: without an explicit bound,
:data:`DEPTH_CEILING` applies, and :func:`grow_subtree` and the interpreter
handle trees that deep.

Breeding walks to each point once: :func:`node_at` finds the node at a
preorder index through the recorded sizes, in time proportional to the
tree's depth and the arity of the nodes on the way, and returns the path
along which :func:`replace_subtree` rebuilds the ancestors.
Random growth reads a table per sort that the primitive set builds once:
the sort's leaves, its functions each with the tables of its argument
sorts, and its constant source.  :func:`grow_subtree` looks one table up
and then follows tables from node to node, so growing a node hashes no sort.
It picks a function over a leaf at the set's ``function_bias``, which a task
states once, with its vocabulary, as it states its ``helper``.

Terminal leaves are shared per set.  A terminal leaf is ``(kind, (), None)``
and holds nothing that depends on where it sits, so the table keeps one node
per terminal kind, built with the set, and growth returns that node: a grown
tree builds only its function nodes and its constants, each constant with
its own drawn payload.  A leaf's identity therefore says nothing about the
tree or the breeding it came from, a one-leaf program's ``memo`` is shared
by every one-leaf program of that kind, and no task may keep a ``record`` on
a leaf.  :func:`deserialize` builds its own nodes, leaves included.
"""

from __future__ import annotations

import enum
import operator
import random
import re
from typing import Callable, Iterator, Mapping, Optional, Sequence


#: The depth bound :func:`deserialize` and a run's ``max_depth`` must keep
#: to.  Growing a tree recurses one frame per level, and running one about
#: three at worst (a chain of conditionals), so at this depth both stay well
#: inside Python's default recursion limit of 1000.
DEPTH_CEILING = 200


class ConfigurationError(Exception):
    """A primitive set, strategy or run was configured inconsistently."""


def _read_config_file(path: str, what: str) -> object:
    """The JSON value in the file at ``path``: malformed JSON, or a file not
    in UTF-8, raises :class:`ConfigurationError` naming the bad ``what``
    file; an :class:`OSError` propagates."""
    import json  # loaded only by a run that reads a file
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(f"bad {what} file {path!r}: {exc}") from exc


def config_number(value: object) -> float:
    """A JSON config's number as a float: a string or a bool (an int to
    Python) raises :class:`ConfigurationError`, an int too large for a float
    :class:`OverflowError`."""
    if type(value) is not float and type(value) is not int:
        raise ConfigurationError(f"expected a number, got {value!r}")
    return float(value)


class TreeError(ValueError):
    """Base class for rejected tree text (parse or validation failures)."""


class TreeParseError(TreeError):
    """The text is not a well-formed parenthesized prefix expression."""


class TreeValidationError(TreeError):
    """The tree is well-formed text but invalid against the primitive set."""


class Sort(enum.Enum):
    """The closed set of value sorts a tree slot can carry."""

    NUMBER = "Number"
    BOOLEAN = "Boolean"
    ACTION = "Action"


class Category(enum.Enum):
    FUNCTION = "function"
    TERMINAL = "terminal"
    CONSTANT = "constant"


class Origin(enum.Enum):
    """How an individual entered its population."""

    LOCAL = "local"
    IMMIGRANT = "immigrant"
    RANDOM_INJECTED = "random-injected"
    ELITE_COPY = "elite-copy"


#: Sets a field of a frozen record past its own ``__setattr__``.
_set_field = object.__setattr__


class Record:
    """A hand-written record: a slotted class whose fields, in order, are
    named in ``_fields``, as a ``NamedTuple``'s are.  No code is generated
    for it, so defining one costs what defining a plain class costs.

    ``==`` compares the field tuples of two records of the same class, so a
    shared NaN is equal to itself, and gives ``NotImplemented`` for any
    other class.  ``repr`` reads ``Name(field=value, ...)``.  A plain record
    may change, so it has no hash (see :class:`FrozenRecord`).  Each
    subclass declares its own ``__slots__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    __hash__ = None  # a record may change, so it has no hash

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record no code may change once it is built: assigning or deleting
    an attribute raises :class:`AttributeError`, so ``__init__`` sets each
    slot with ``_set_field``.  Its hash is the hash of its field tuple."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class NodeKind(FrozenRecord):
    """A named primitive: its argument sorts, result sort and semantics.

    ``fn`` carries the implementation for functions, which receive the
    already-evaluated child values.  The one exception is the conditional,
    whose ``fn`` is :func:`if_greater`: the engines recognise it by that
    ``fn`` and run its branching themselves, so an untaken branch takes no
    actions and burns no steps.  Terminals and constants have no ``fn``;
    their values come from the run's bindings and the node payload
    respectively.

    The hash is the hash of the field tuple, worked out on first use and
    kept in ``_hash``, since hashing each enum sort runs Python code.
    """

    __slots__ = ("name", "argument_sorts", "result_sort", "category", "fn", "_hash")
    _fields = ("name", "argument_sorts", "result_sort", "category", "fn")

    def __init__(self, name: str, argument_sorts: tuple[Sort, ...], result_sort: Sort,
                 category: Category, fn: Optional[Callable] = None) -> None:
        _set_field(self, "name", name)
        _set_field(self, "argument_sorts", argument_sorts)
        _set_field(self, "result_sort", result_sort)
        _set_field(self, "category", category)
        _set_field(self, "fn", fn)
        _set_field(self, "_hash", None)
        if category is Category.FUNCTION:
            if not argument_sorts:
                raise ConfigurationError(f"function kind {name!r} needs arguments")
            if fn is None:
                raise ConfigurationError(f"function kind {name!r} needs an implementation")
        elif argument_sorts:
            raise ConfigurationError(f"{category.value} kind {name!r} must have arity 0")

    @property
    def arity(self) -> int:
        return len(self.argument_sorts)

    def __hash__(self) -> int:
        kept = self._hash
        if kept is None:
            kept = hash((self.name, self.argument_sorts, self.result_sort, self.category,
                         self.fn))
            _set_field(self, "_hash", kept)
        return kept

    def __repr__(self) -> str:  # keep population dumps readable
        return f"NodeKind({self.name!r}, {self.result_sort.value})"


def terminal(name: str, sort: Sort) -> NodeKind:
    return NodeKind(name, (), sort, Category.TERMINAL)


def function(name: str, argument_sorts: Sequence[Sort], result_sort: Sort,
             fn: Callable) -> NodeKind:
    return NodeKind(name, tuple(argument_sorts), result_sort, Category.FUNCTION, fn)


def arithmetic_kinds() -> list[NodeKind]:
    """add/sub/mul over Number."""
    two = (Sort.NUMBER, Sort.NUMBER)
    return [
        function("add", two, Sort.NUMBER, operator.add),
        function("sub", two, Sort.NUMBER, operator.sub),
        function("mul", two, Sort.NUMBER, operator.mul),
    ]


def if_greater(a: Callable, b: Callable, then: Callable, other: Callable):
    """What every ``if_greater`` kind means, given one zero-argument thunk
    per child: only the taken branch runs."""
    return then() if a() > b() else other()


def if_greater_kind(branch_sort: Sort = Sort.NUMBER) -> NodeKind:
    """``(if_greater a b then else)``: runs only the taken branch."""
    return function(
        "if_greater",
        (Sort.NUMBER, Sort.NUMBER, branch_sort, branch_sort),
        branch_sort,
        if_greater,
    )


def sequence_kind() -> NodeKind:
    """``(seq a b)``: evaluates both actions left to right."""
    return function("seq", (Sort.ACTION, Sort.ACTION), Sort.ACTION, lambda a, b: b)


class ProgramTree:
    """One node; the whole program is the root node.

    A node is immutable by contract, not by enforcement: its slots are
    plain attributes, so building one costs what a plain object costs, and
    nothing stops a store.  Nobody may rebind ``kind``, ``children``,
    ``value`` or the measures after construction, since trees share
    subtrees and every measure, kept hash and task slot relies on them.

    ``size`` and ``depth`` describe the subtree rooted here (a lone leaf has
    both equal to 1), and ``uniform`` says whether every node of it has this
    node's result sort (a lone leaf is uniform).  They are computed at
    construction and take no part in equality, hashing or ``repr``.  Neither
    do ``memo`` and ``record``, which start as ``None`` and are set by plain
    assignment (``node.memo = ...``); whoever sets one must store a value
    that depends on nothing but the subtree and the inputs recorded with
    it, and never mutate it after.
    ``memo`` is for a result of the whole program rooted here, ``record``
    for this subtree's value per input; a node may carry both.  Growth
    shares one node per terminal kind among every tree it grows from a set,
    so a terminal leaf's identity says nothing about its origin, its
    ``memo`` serves every one-leaf program of its kind, and a leaf must keep
    no ``record``.

    ``==`` compares ``(kind, children, value)`` tuples, and only with
    another :class:`ProgramTree`, so a shared NaN payload is equal to
    itself.  The hash is ``hash((kind, children, value))``.  It is worked
    out the first time the node is hashed, from the children's kept hashes,
    and kept in ``_hash``, which takes no part in equality or ``repr``
    either.  A NaN payload hashes by its identity, as it compares.

    The constructor checks the arity, the constant payload and each child's
    sort.  Random growth and subtree replacement build nodes that are valid
    by construction, so they go through :func:`_node`, which skips those
    checks.
    """

    __slots__ = ("kind", "children", "value", "size", "depth", "uniform", "memo",
                 "record", "_hash")

    def __init__(self, kind: NodeKind, children: tuple["ProgramTree", ...] = (),
                 value: Optional[float] = None) -> None:
        sorts = kind.argument_sorts
        if len(children) != len(sorts):
            raise TreeValidationError(
                f"{kind.name!r} takes {len(sorts)} children, got {len(children)}")
        if kind.category is Category.CONSTANT:
            if value is None:
                raise TreeValidationError(f"constant {kind.name!r} is missing its payload")
        elif value is not None:
            raise TreeValidationError(f"{kind.name!r} is not a constant but carries a payload")
        for child, want in zip(children, sorts):
            if child.kind.result_sort is not want:
                raise TreeValidationError(
                    f"{kind.name!r} expects {want.value}, got "
                    f"{child.kind.result_sort.value} from {child.kind.name!r}")
        _fill(self, kind, children, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.children, self.value) == (other.kind, other.children,
                                                          other.value)

    def __hash__(self) -> int:
        kept = self._hash
        if kept is None:
            kept = self._hash = hash((self.kind, self.children, self.value))
        return kept

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(kind={self.kind!r}, "
                f"children={self.children!r}, value={self.value!r})")

    @property
    def sort(self) -> Sort:
        return self.kind.result_sort


def _fill(node: ProgramTree, kind: NodeKind, children: tuple[ProgramTree, ...],
          value: Optional[float]) -> None:
    """Set every slot of ``node``, measuring it from its children."""
    size = 1
    depth = 0
    uniform = True
    sort = kind.result_sort
    for child in children:
        size += child.size
        if child.depth > depth:
            depth = child.depth
        if child.kind.result_sort is not sort or not child.uniform:
            uniform = False
    node.kind = kind
    node.children = children
    node.value = value
    node.size = size
    node.depth = depth + 1
    node.uniform = uniform
    node.memo = None
    node.record = None
    node._hash = None


_new = object.__new__


def _node(kind: NodeKind, children: tuple[ProgramTree, ...] = (),
          value: Optional[float] = None) -> ProgramTree:
    """A node built without the constructor's checks.

    Only for nodes valid by construction: the arity is the kind's, a
    payload is present exactly on a constant, and each child has its
    argument sort.  Growth draws every child from its argument sort's
    table, and subtree replacement keeps each rebuilt ancestor's kind and
    payload and swaps one child for a node of the same sort.  Parsing
    untrusted text must use the checked constructor.
    """
    node = _new(ProgramTree)
    _fill(node, kind, children, value)
    return node


def constant_kind_name(sort: Sort) -> str:
    return f"const:{sort.value}"


class _Growth:
    """What growing a node of one sort can choose from.

    ``leaves`` pairs each of the sort's terminals with the one node that
    stands for it in every tree grown from the set, and its constant kind
    with ``None``, since each constant is built with its own payload.
    ``functions`` pairs each function kind with the tables of its argument
    sorts, and ``constant`` is the sort's constant source (or ``None``), all
    in the order the primitive set declares them.  A :class:`PrimitiveSet`
    builds one per sort, so growth follows tables from node to node, looks
    up no sort on the way, and builds no terminal leaf.
    """

    __slots__ = ("sort", "leaves", "functions", "constant")

    def __init__(self, sort: Sort) -> None:
        self.sort = sort
        self.leaves: tuple[tuple[NodeKind, Optional[ProgramTree]], ...] = ()
        self.functions: tuple[tuple[NodeKind, tuple[_Growth, ...]], ...] = ()
        self.constant: Optional[Callable[[random.Random], float]] = None


class PrimitiveSet(Record):
    """The vocabulary a task exposes to evolution.

    ``constant_sources`` maps a sort to a callable drawing a fresh ephemeral
    constant from an rng; each entry synthesizes a ``const:<Sort>`` kind that
    participates in generation like any other terminal but freezes the drawn
    value into the node.  ``function_bias`` is the chance that growth picks
    a function where the depth budget allows one.  The growth table of every
    sort (:class:`_Growth`), with the set's one node per terminal kind, is
    built with the set, and built again by ``PrimitiveSet(prims.kinds,
    prims.root_sort, prims.constant_sources, b, prims.helper)``, whose trees
    share leaves of their own.

    ``helper``, when set, is a predicate over trees that every tree
    evolution grows or breeds from this vocabulary must pass, or else be
    rebuilt (see :mod:`gpislands.evolution`); ``None`` screens nothing.
    ``PrimitiveSet(prims.kinds, prims.root_sort, prims.constant_sources,
    prims.function_bias)`` is the same vocabulary unscreened.
    """

    __slots__ = ("kinds", "root_sort", "constant_sources", "function_bias", "helper",
                 "_all", "_by_name", "_growth", "_leafless")
    _fields = ("kinds", "root_sort", "constant_sources", "function_bias", "helper")

    def __init__(self, kinds: Sequence[NodeKind], root_sort: Sort,
                 constant_sources: Optional[Mapping[Sort, Callable]] = None,
                 function_bias: float = 0.5,
                 helper: Optional[Callable[[ProgramTree], bool]] = None) -> None:
        self.kinds = kinds
        self.root_sort = root_sort
        self.constant_sources = {} if constant_sources is None else constant_sources
        self.function_bias = function_bias
        self.helper = helper
        all_kinds = list(self.kinds)
        for sort in self.constant_sources:
            all_kinds.append(NodeKind(constant_kind_name(sort), (), sort, Category.CONSTANT))
        self._all = tuple(all_kinds)
        self._by_name = {}
        for kind in self._all:
            if kind.name in self._by_name:
                raise ConfigurationError(f"duplicate kind name {kind.name!r}")
            self._by_name[kind.name] = kind
        growth = {sort: _Growth(sort) for sort in Sort}
        for kind in self._all:
            table = growth[kind.result_sort]
            if kind.category is Category.FUNCTION:
                table.functions += ((kind, tuple(growth[arg] for arg in kind.argument_sorts)),)
            elif kind.category is Category.CONSTANT:
                table.leaves += ((kind, None),)
            else:
                table.leaves += ((kind, _node(kind)),)
        for sort, source in self.constant_sources.items():
            growth[sort].constant = source
        self._growth = growth
        reachable = {self.root_sort}
        frontier = [self.root_sort]
        while frontier:
            sort = frontier.pop()
            for kind in self._all:
                if kind.result_sort is sort:
                    for arg in kind.argument_sorts:
                        if arg not in reachable:
                            reachable.add(arg)
                            frontier.append(arg)
        #: Reachable sorts no leaf produces; a tree reaching one cannot be grown.
        self._leafless = [sort for sort in reachable if not growth[sort].leaves]

    @property
    def all_kinds(self) -> tuple[NodeKind, ...]:
        return self._all

    def kind(self, name: str) -> Optional[NodeKind]:
        return self._by_name.get(name)

    def ensure_generable(self) -> None:
        """Every sort reachable from the root must offer at least one leaf.

        The set is checked once, when it is built, so this only reports the
        answer."""
        if self._leafless:
            raise ConfigurationError(
                f"no terminal or constant produces sort {self._leafless[0].value!r}")


# ---------------------------------------------------------------------------
# traversal

def iter_nodes(tree: ProgramTree) -> Iterator[tuple[ProgramTree, int]]:
    """Preorder walk yielding ``(node, depth_of_node)``; the root is depth 1."""
    stack = [(tree, 1)]
    pop = stack.pop
    push = stack.append
    while stack:
        node, depth = pop()
        yield node, depth
        children = node.children
        if children:
            depth += 1
            for child in reversed(children):
                push((child, depth))


def node_at(tree: ProgramTree, index: int) -> tuple[ProgramTree, list[tuple[ProgramTree, int]]]:
    """The node at preorder position ``index``, found through the children's
    sizes, and the path to it: ``(ancestor, position of the child leading
    on)`` pairs, root first.  The node's depth is ``len(path) + 1``."""
    if index < 0 or index >= tree.size:
        raise ValueError(f"node index {index} out of range")
    path = []
    node = tree
    while index:
        index -= 1  # step past ``node`` itself
        for position, child in enumerate(node.children):
            if index < child.size:
                break
            index -= child.size
        path.append((node, position))
        node = child
    return node, path


def replace_subtree(path: Sequence[tuple[ProgramTree, int]],
                    replacement: ProgramTree) -> ProgramTree:
    """The tree ``path`` (from :func:`node_at`) leads down, with the node at
    the path's end swapped for ``replacement``; the root's empty path gives
    ``replacement`` itself.

    Only the ancestors on the path are rebuilt, and the tree is not walked
    again.  Below the root the replacement must have the sort its parent
    takes there, the one check the rebuild needs: each ancestor keeps its
    kind and payload and gains one child of the sort it had, so the
    ancestors are built unchecked and every other subtree is shared.
    """
    if path:
        parent, position = path[-1]
        wanted = parent.kind.argument_sorts[position]
        if replacement.kind.result_sort is not wanted:
            raise TreeValidationError(
                f"{parent.kind.name!r} expects {wanted.value}, got "
                f"{replacement.kind.result_sort.value} from {replacement.kind.name!r}")
    new = replacement
    for parent, position in reversed(path):
        children = parent.children
        if new is children[position]:
            new = parent
        else:
            new = _node(parent.kind, children[:position] + (new,) + children[position + 1:],
                        parent.value)
    return new


# ---------------------------------------------------------------------------
# random construction

def grow_subtree(prims: PrimitiveSet, sort: Sort, budget: int,
                 rng: random.Random) -> ProgramTree:
    """Grow-style construction: leaves may appear anywhere, and at a depth
    budget of 1 only leaves are eligible.  The set's ``function_bias`` is
    the chance of picking a function while the budget still allows one.

    Each node draws, in order: the leaf (a ``randrange`` over the sort's
    leaves) when only leaves are eligible; otherwise ``random() >=
    prims.function_bias`` to choose a leaf, when the sort has any, and then
    the leaf or the function (a ``randrange`` over the sort's functions);
    and last a constant's payload.  Children grow left to right."""
    if budget < 1:
        raise ValueError("depth budget must be at least 1")
    return _grow(prims._growth[sort], budget, rng, prims.function_bias)


def _grow(table: _Growth, budget: int, rng: random.Random,
          function_bias: float) -> ProgramTree:
    leaves = table.leaves
    functions = table.functions
    if budget == 1 or not functions:
        if not leaves:
            raise ConfigurationError(
                f"no terminal or constant produces sort {table.sort.value!r}")
        kind, leaf = leaves[rng.randrange(len(leaves))]
    elif leaves and rng.random() >= function_bias:
        kind, leaf = leaves[rng.randrange(len(leaves))]
    else:
        kind, argument_tables = functions[rng.randrange(len(functions))]
        budget -= 1
        children = []
        for argument in argument_tables:
            children.append(_grow(argument, budget, rng, function_bias))
        return _node(kind, tuple(children))
    if leaf is None:
        return _node(kind, (), float(table.constant(rng)))
    return leaf


def build_random_tree(prims: PrimitiveSet, max_depth: int,
                      rng: random.Random) -> ProgramTree:
    """A fresh random program of depth <= ``max_depth`` rooted at the set's
    root sort, grown at the set's ``function_bias``."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    prims.ensure_generable()
    return grow_subtree(prims, prims.root_sort, max_depth, rng)


# ---------------------------------------------------------------------------
# validation

def validate_tree(tree: ProgramTree, prims: PrimitiveSet,
                  max_depth: Optional[int] = None) -> None:
    """Raise :class:`TreeValidationError` unless ``tree`` is well-typed over
    ``prims``, rooted at the set's root sort and within the depth bound."""
    if tree.kind.result_sort is not prims.root_sort:
        raise TreeValidationError(
            f"root produces {tree.kind.result_sort.value}, expected {prims.root_sort.value}")
    for node, _ in iter_nodes(tree):
        registered = prims.kind(node.kind.name)
        if registered is None:
            raise TreeValidationError(f"unknown kind {node.kind.name!r}")
        same_shape = (registered.argument_sorts == node.kind.argument_sorts
                      and registered.result_sort is node.kind.result_sort
                      and registered.category is node.kind.category)
        if not same_shape:
            raise TreeValidationError(f"kind {node.kind.name!r} does not match the primitive set")
        # child arity/sorts and constant payloads are enforced at construction
    if max_depth is not None and tree.depth > max_depth:
        raise TreeValidationError(
            f"depth {tree.depth} exceeds the limit of {max_depth}")


# ---------------------------------------------------------------------------
# canonical text form

def _format_payload(value: float) -> str:
    return repr(float(value))


def serialize(tree: ProgramTree) -> str:
    """Canonical parenthesized prefix text with single-space separators.

    One loop over an explicit stack of the nodes still to write, with a
    ``None`` where a function node's ``")"`` goes after its last child.
    Every node is written with a leading space, cut from the root's at the
    end.
    """
    parts: list[str] = []
    emit = parts.append
    stack: list[Optional[ProgramTree]] = [tree]
    pop = stack.pop
    push = stack.append
    constant = Category.CONSTANT
    while stack:
        node = pop()
        if node is None:
            emit(")")
            continue
        kind = node.kind
        children = node.children
        if children:
            emit(" (" + kind.name)
            push(None)
            stack.extend(children[::-1])
        elif kind.category is constant:
            emit(f" ({kind.name} {_format_payload(node.value)})")
        else:
            emit(" (" + kind.name + ")")
    return "".join(parts)[1:]


#: A tree text's tokens: each parenthesis, and each run of other characters
#: that are not whitespace.  Every character but whitespace lands in a token,
#: since ``\s`` and :meth:`str.isspace` agree on every code point.
_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def deserialize(text: str, prims: PrimitiveSet,
                max_depth: Optional[int] = None) -> ProgramTree:
    """Parse canonical tree text and validate it against ``prims``.

    Raises :class:`TreeParseError` for malformed text and
    :class:`TreeValidationError` for unknown kinds, arity or sort mismatches,
    a wrong root sort, or a tree deeper than ``max_depth`` (or, when that is
    ``None``, than :data:`DEPTH_CEILING`).

    One loop reads the tokens, with an explicit stack of the nodes still
    open.  Kinds resolve through ``prims`` as they are named, so every node
    is a registered kind; arity and child sorts are checked as each node
    closes; and a node opening deeper than ``max_depth`` is rejected at once.
    """
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    limit = DEPTH_CEILING if max_depth is None else max_depth
    kind_of = prims.kind
    stack: list[tuple[NodeKind, list[ProgramTree]]] = []  # open nodes, root first
    pos = 0
    while True:
        # a node opens at tokens[pos]
        if pos >= end:
            raise TreeParseError("unexpected end of tree text")
        if tokens[pos] != "(":
            raise TreeParseError("expected '('")
        if len(stack) >= limit:
            raise TreeValidationError(f"tree is deeper than the limit of {limit}")
        if pos + 1 >= end:
            raise TreeParseError("unexpected end of tree text")
        name = tokens[pos + 1]
        if name == "(" or name == ")":
            raise TreeParseError("expected a kind name after '('")
        kind = kind_of(name)
        if kind is None:
            raise TreeValidationError(f"unknown kind {name!r}")
        pos += 2
        if kind.category is Category.CONSTANT:
            if pos >= end:
                raise TreeParseError("unexpected end of tree text")
            raw = tokens[pos]
            if raw == "(" or raw == ")":
                raise TreeParseError(f"constant {name!r} is missing its payload")
            try:
                value = float(raw)
            except ValueError as exc:
                raise TreeParseError(f"bad constant payload {raw!r}") from exc
            if pos + 1 >= end:
                raise TreeParseError("unexpected end of tree text")
            if tokens[pos + 1] != ")":
                raise TreeParseError(f"constant {name!r} takes exactly one payload")
            pos += 2
            node: Optional[ProgramTree] = ProgramTree(kind, (), value)
        else:
            stack.append((kind, []))
            node = None
        # hand finished nodes to their parents and close every node that ends here
        while True:
            if node is not None:
                if not stack:
                    if pos != end:
                        raise TreeParseError("trailing tokens after the tree")
                    if node.kind.result_sort is not prims.root_sort:
                        raise TreeValidationError(
                            f"root produces {node.kind.result_sort.value}, "
                            f"expected {prims.root_sort.value}")
                    return node
                stack[-1][1].append(node)
            if pos >= end:
                raise TreeParseError("unexpected end of tree text")
            token = tokens[pos]
            if token == "(":
                break
            if token != ")":
                raise TreeParseError(f"unexpected token {token!r}")
            pos += 1
            kind, children = stack.pop()
            # ProgramTree checks the arity and the child sorts; the text is
            # untrusted, so this must never be the unchecked _node
            node = ProgramTree(kind, tuple(children))


# ---------------------------------------------------------------------------
# individuals

class Individual(Record):
    """A program plus its bookkeeping inside a population."""

    __slots__ = ("tree", "origin", "fitness")
    _fields = __slots__

    def __init__(self, tree: ProgramTree, origin: Origin = Origin.LOCAL,
                 fitness: Optional[float] = None) -> None:
        self.tree = tree
        self.origin = origin
        self.fitness = fitness

    @property
    def size(self) -> int:
        return self.tree.size

    @property
    def depth(self) -> int:
        return self.tree.depth

    @classmethod
    def from_tree(cls, tree: ProgramTree, origin: Origin = Origin.LOCAL,
                  fitness: Optional[float] = None) -> "Individual":
        return cls(tree, origin, fitness)
