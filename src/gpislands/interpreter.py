"""Tree execution under a supervising step budget.

A program runs depth-first against ``bindings``, a mapping from terminal
names to zero-argument accessors.  A terminal evaluates to whatever its
accessor returns; an action terminal's accessor acts on the world itself.
Every node evaluation costs one step from the supervisor's budget, and a run
that would exceed it is killed instead of raising, so any sort-valid tree
either completes with a value or is killed (``RunOutcome.killed``).

Two engines
-----------
:func:`execute` accepts a bare :class:`ProgramTree`, which it walks node by
node, checking the budget at every node, or a :class:`Program` made by
:func:`compile_program`, which turns the whole tree into nested closures.  A
caller that runs the same tree many times compiles it once and saves the
per-node dispatch of the walker.  Only the localisation task compiles, once
per control pass, running the program once per tick.  The feed task scores
all its feeds in one pass of its own and calls :func:`execute` only on trees
too large for the step budget, which it walks.

The closures skip the budget check, so :func:`execute` runs them only when
the program's size is within ``policy.max_steps``: a run visits each node at
most once -- lazy functions such as ``if_greater`` call each of their thunks
at most once -- so such a run can never exhaust the budget.  Otherwise it
walks ``program.tree``, which kills exactly as for the bare tree.  The
walker is the reference the compiled closures are tested against.

``steps_used`` is exact on both paths without a per-node counter.  A run that
skipped nothing used ``size`` steps.  Each lazy node adds the total size of
its children to a ``skipped`` tally, and each thunk takes its own child's
size back off when called, so ``size - skipped`` counts exactly the nodes the
run evaluated, untaken branches excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Union

from .trees import Category, ConfigurationError, ProgramTree

#: Terminal names mapped to the zero-argument accessors that give their values.
Bindings = Mapping[str, Callable[[], Any]]


@dataclass(frozen=True)
class SupervisorPolicy:
    """The supervisor's one bound: how many nodes a run may evaluate."""

    max_steps: int

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")


class RunOutcome(NamedTuple):
    killed: bool
    value: Any  # None when killed
    steps_used: int


class _Killed(Exception):
    pass


class _Frame:
    """Per-run state shared by the closures of one compiled program."""

    __slots__ = ("bindings", "skipped")


class Program:
    """A tree compiled to nested closures; build one with :func:`compile_program`.

    A program keeps its run state in one frame shared by its closures, so it
    must not be executed again from inside one of its own runs (from an
    accessor), nor from two threads at once.
    """

    __slots__ = ("tree", "size", "_root", "_frame")

    def __init__(self, tree: ProgramTree, root: Callable[[], Any], frame: _Frame) -> None:
        self.tree = tree
        self.size = tree.size
        self._root = root
        self._frame = frame

    def _run(self, bindings: Bindings) -> RunOutcome:
        frame = self._frame
        frame.bindings = bindings
        frame.skipped = 0
        value = self._root()
        return RunOutcome(False, value, self.size - frame.skipped)


def compile_program(tree: ProgramTree) -> Program:
    """Compile ``tree``, every branch included, into nested closures."""
    frame = _Frame()
    return Program(tree, _compile(tree, frame), frame)


def _compile(node: ProgramTree, frame: _Frame) -> Callable[[], Any]:
    kind = node.kind
    if kind.category is Category.CONSTANT:
        value = node.value
        return lambda: value
    if kind.category is Category.TERMINAL:
        name = kind.name

        def read() -> Any:
            accessor = frame.bindings.get(name)
            if accessor is None:
                raise ConfigurationError(f"terminal {name!r} is not bound")
            return accessor()

        return read
    fn = kind.fn
    if kind.lazy:
        thunks = tuple(_thunk(child, frame) for child in node.children)
        below = node.size - 1

        def lazy() -> Any:
            frame.skipped += below
            return fn(*thunks)

        return lazy
    calls = [_compile(child, frame) for child in node.children]
    if len(calls) == 2:
        a, b = calls
        return lambda: fn(a(), b())
    return lambda: fn(*[call() for call in calls])


def _thunk(child: ProgramTree, frame: _Frame) -> Callable[[], Any]:
    size = child.size
    call = _compile(child, frame)

    def thunk() -> Any:
        frame.skipped -= size
        return call()

    return thunk


def execute(program: Union[Program, ProgramTree], bindings: Bindings,
            policy: SupervisorPolicy) -> RunOutcome:
    """Run ``program`` (a tree or a compiled :class:`Program`) against
    ``bindings`` under ``policy``; never raises for a sort-valid tree.

    An unbound terminal is a configuration error, not a kill: the tree was
    handed bindings that cannot support it.
    """
    if isinstance(program, Program):
        if program.size <= policy.max_steps:
            return program._run(bindings)
        program = program.tree
    return _walk(program, bindings, policy)


def _walk(tree: ProgramTree, bindings: Bindings, policy: SupervisorPolicy) -> RunOutcome:
    """Node-by-node evaluation, checking the budget at every node."""
    steps = 0
    max_steps = policy.max_steps

    def ev(node: ProgramTree) -> Any:
        nonlocal steps
        if steps >= max_steps:
            raise _Killed()
        steps += 1
        kind = node.kind
        category = kind.category
        if category is Category.CONSTANT:
            return node.value
        if category is Category.TERMINAL:
            accessor = bindings.get(kind.name)
            if accessor is None:
                raise ConfigurationError(f"terminal {kind.name!r} is not bound")
            return accessor()
        if kind.lazy:
            thunks = [(lambda c=c: ev(c)) for c in node.children]
            return kind.fn(*thunks)
        return kind.fn(*[ev(c) for c in node.children])

    try:
        value = ev(tree)
    except _Killed:
        return RunOutcome(True, None, steps)
    return RunOutcome(False, value, steps)
