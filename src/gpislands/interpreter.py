"""Tree execution under a supervising step budget.

A program runs depth-first against ``bindings``, a mapping from terminal
names to zero-argument accessors.  A terminal evaluates to whatever its
accessor returns; an action terminal's accessor acts on the world itself.
Every node evaluated costs one step from the supervisor's budget; a run
that exceeds it is killed (``RunOutcome.killed``) instead of raising.

One engine
----------
:func:`compile_program` turns the whole tree into nested closures once and
:func:`execute` runs them, so a caller running a tree many times compiles it
once: the localisation task once per control pass, for every tick; the feed
task, which scores its feeds in one pass of its own, only for a tree too
large for the step budget, run feed by feed.

The closures carry no budget check; the kill is decided after the run.  A run
visits each node at most once -- lazy functions such as ``if_greater`` call
each of their thunks at most once -- so its cost is bounded by the tree's
size whatever the budget.  A run that evaluated more than
``policy.max_steps`` nodes is reported killed with ``steps_used ==
max_steps``: a supervisor checking every node would have stopped it at
exactly that step, after the same accessor calls.  Terminals past the budget
are still read, so their accessors must not act on anything a caller reads
after a kill.

``steps_used`` is exact without a per-node counter.  A run that skipped
nothing used ``size`` steps.  Each lazy node adds the total size of its
children to a ``skipped`` tally, and each thunk takes its own child's size
back off when called, so ``size - skipped`` counts exactly the nodes the run
evaluated, untaken branches excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

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


class _Frame:
    """Per-run state shared by the closures of one compiled program."""

    __slots__ = ("bindings", "skipped")


class Program:
    """A tree compiled to nested closures; build one with :func:`compile_program`.

    A program keeps its run state in one frame shared by its closures, so it
    must not be executed again from inside one of its own runs (from an
    accessor), nor from two threads at once.
    """

    __slots__ = ("size", "_root", "_frame")

    def __init__(self, size: int, root: Callable[[], Any], frame: _Frame) -> None:
        self.size = size
        self._root = root
        self._frame = frame


def compile_program(tree: ProgramTree) -> Program:
    """Compile ``tree``, every branch included, into nested closures."""
    frame = _Frame()
    return Program(tree.size, _compile(tree, frame), frame)


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


def execute(program: Program, bindings: Bindings, policy: SupervisorPolicy) -> RunOutcome:
    """Run ``program`` against ``bindings`` under ``policy``; never raises for a
    sort-valid tree.  A run that evaluated more than ``policy.max_steps``
    nodes is killed: ``RunOutcome(True, None, policy.max_steps)``.

    An unbound terminal is a configuration error, not a kill: the tree was
    handed bindings that cannot support it.  It raises even past the budget,
    since the run reads every terminal it reaches.
    """
    frame = program._frame
    frame.bindings = bindings
    frame.skipped = 0
    value = program._root()
    steps = program.size - frame.skipped
    if steps > policy.max_steps:
        return RunOutcome(True, None, policy.max_steps)
    return RunOutcome(False, value, steps)
