"""Tree execution under a supervising watchdog.

A program runs depth-first against an :class:`Environment` that binds its
terminals to live accessors.  Every node evaluation costs one step from the
supervisor's budget; blowing the budget (or an optional virtual-time bound)
kills the run instead of raising, so any sort-valid tree yields exactly one
of two outcomes: ``COMPLETED`` or ``KILLED``.  Actions emitted before a kill
are kept in the outcome so callers can tell how far the program got.

Compile once, run many
----------------------
:func:`execute` accepts a bare :class:`ProgramTree`, which it walks node by
node, or a :class:`Program` made by :func:`compile_program`, which turns the
tree into nested closures.  A caller that runs the same tree many times
compiles it once per evaluation and saves the per-node dispatch of the
walker.  Only the localisation task compiles, running the program once per
tick.  The feed task scores all its feeds in one pass of its own and calls
:func:`execute` only on trees too large for the step budget, which it walks.

Compilation is lazy at conditionals.  The children of a lazy function (such
as ``if_greater``) are compiled the first time their thunk is called, and the
compiled child is kept for later runs of the same program, so a branch that
no run takes is never compiled.  Everything above and between lazy nodes is
compiled when its enclosing node is.

A compiled program skips the supervisor's per-node checks only when no kill
is possible: its size is within ``policy.max_steps`` and no deadline applies
(``max_virtual_seconds`` is unset or the environment has no clock).  A run
visits each node at most once -- lazy functions call each of their thunks at
most once -- so such a run can never exhaust the budget.  In every other case
:func:`execute` walks ``program.tree``, and kills, partial ``actions`` and the
virtual-clock deadline behave exactly as for the bare tree.

``steps_used`` is exact on both paths without a per-node counter.  A run that
skipped nothing used ``size`` steps.  Each lazy node adds the total size of
its children to a ``skipped`` tally, and each thunk takes its own child's
size back off when called, so ``size - skipped`` counts exactly the nodes the
run evaluated, untaken branches excluded.  The sizes are the ones every node
records at construction, so a branch need not be compiled to be counted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Union

from .trees import Category, ConfigurationError, ProgramTree, Sort


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    KILLED = "killed"


@dataclass
class Environment:
    """Terminal bindings plus receivers for a program's side effects.

    ``bindings`` maps terminal names to zero-argument accessors.  When an
    Action-sorted terminal evaluates, its accessor's return value is treated
    as the action descriptor: it is recorded, handed to ``action_sink`` if
    one is set, and the node itself evaluates to ``None``.
    """

    bindings: Mapping[str, Callable[[], Any]] = field(default_factory=dict)
    action_sink: Optional[Callable[[Any], None]] = None
    clock: Optional[Callable[[], float]] = None


@dataclass(frozen=True)
class SupervisorPolicy:
    """Execution bounds: a step budget and an optional virtual-time bound."""

    max_steps: int
    max_virtual_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be at least 1")
        if self.max_virtual_seconds is not None and self.max_virtual_seconds <= 0:
            raise ConfigurationError("max_virtual_seconds must be positive")


@dataclass
class RunOutcome:
    status: RunStatus
    value: Any
    steps_used: int
    actions: list

    @property
    def killed(self) -> bool:
        return self.status is RunStatus.KILLED


class _Killed(Exception):
    pass


class _Frame:
    """Per-run state shared by the closures of one compiled program."""

    __slots__ = ("bindings", "actions", "sink", "skipped")


class Program:
    """A tree compiled to nested closures; build one with :func:`compile_program`.

    A program keeps its run state in one frame shared by its closures, so it
    must not be executed again from inside one of its own runs (from an
    accessor or an action sink), nor from two threads at once.
    """

    __slots__ = ("tree", "size", "_root", "_frame")

    def __init__(self, tree: ProgramTree, root: Callable[[], Any], frame: _Frame) -> None:
        self.tree = tree
        self.size = tree.size
        self._root = root
        self._frame = frame

    def _run(self, env: Environment) -> RunOutcome:
        frame = self._frame
        frame.bindings = env.bindings
        frame.actions = actions = []
        frame.sink = env.action_sink
        frame.skipped = 0
        value = self._root()
        return RunOutcome(RunStatus.COMPLETED, value, self.size - frame.skipped, actions)


def compile_program(tree: ProgramTree) -> Program:
    """Compile ``tree`` into nested closures; branches below lazy nodes are
    compiled on first use."""
    frame = _Frame()
    return Program(tree, _compile(tree, frame), frame)


def _compile(node: ProgramTree, frame: _Frame) -> Callable[[], Any]:
    kind = node.kind
    if kind.category is Category.CONSTANT:
        value = node.value
        return lambda: value
    if kind.category is Category.TERMINAL:
        return _compile_terminal(kind.name, kind.result_sort is Sort.ACTION, frame)
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
    call = None

    def thunk() -> Any:
        nonlocal call
        frame.skipped -= size
        if call is None:
            call = _compile(child, frame)
        return call()

    return thunk


def _compile_terminal(name: str, is_action: bool, frame: _Frame) -> Callable[[], Any]:
    if is_action:
        def action() -> None:
            accessor = frame.bindings.get(name)
            if accessor is None:
                raise ConfigurationError(f"terminal {name!r} is not bound")
            value = accessor()
            frame.actions.append(value)
            if frame.sink is not None:
                frame.sink(value)
            return None

        return action

    def read() -> Any:
        accessor = frame.bindings.get(name)
        if accessor is None:
            raise ConfigurationError(f"terminal {name!r} is not bound")
        return accessor()

    return read


def execute(program: Union[Program, ProgramTree], env: Environment,
            policy: SupervisorPolicy) -> RunOutcome:
    """Run ``program`` (a tree or a compiled :class:`Program`) under ``policy``;
    never raises for a sort-valid tree.

    An unbound terminal is a configuration error, not a kill: the tree was
    handed an environment that cannot support it.
    """
    if isinstance(program, Program):
        if program.size <= policy.max_steps and (
                policy.max_virtual_seconds is None or env.clock is None):
            return program._run(env)
        program = program.tree
    return _walk(program, env, policy)


def _walk(tree: ProgramTree, env: Environment, policy: SupervisorPolicy) -> RunOutcome:
    """Node-by-node evaluation, checking the budget and deadline at every node."""
    steps = 0
    actions: list = []
    max_steps = policy.max_steps
    bindings = env.bindings
    sink = env.action_sink
    clock = env.clock
    deadline = None
    if policy.max_virtual_seconds is not None and clock is not None:
        deadline = clock() + policy.max_virtual_seconds

    def ev(node: ProgramTree) -> Any:
        nonlocal steps
        if steps >= max_steps:
            raise _Killed()
        if deadline is not None and clock() > deadline:
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
            value = accessor()
            if kind.result_sort is Sort.ACTION:
                actions.append(value)
                if sink is not None:
                    sink(value)
                return None
            return value
        if kind.lazy:
            thunks = [(lambda c=c: ev(c)) for c in node.children]
            return kind.fn(*thunks)
        return kind.fn(*[ev(c) for c in node.children])

    try:
        value = ev(tree)
    except _Killed:
        return RunOutcome(RunStatus.KILLED, None, steps, actions)
    return RunOutcome(RunStatus.COMPLETED, value, steps, actions)
