"""Tree execution under a supervising step budget.

A program is compiled against ``bindings``, a mapping from terminal names to
zero-argument accessors, and then run depth-first.  A terminal evaluates to
whatever its accessor returns; an action terminal's accessor acts on the
world itself.  Every node evaluated costs one step from the supervisor's
budget, a plain step count that each task fixes as its own ``MAX_STEPS``; a
run that exceeds it is killed (``RunOutcome.killed``) instead of raising.

One engine
----------
:func:`compile_program` turns the whole tree into nested closures once and
:meth:`Program.run` runs them, with no budget, giving the run's value and
the steps it used; :func:`execute` is that run plus the budget's kill rule,
reported as a :class:`RunOutcome`.  A caller running a tree many times
compiles it once: the localisation task once per control pass, whose every
tick is one :meth:`Program.run` killed by the rule :func:`execute` applies,
written out inline; the tests' oracle uses :func:`execute` and
:class:`RunOutcome` as that rule.  The feed task never runs a program: it
scores its feeds in one pass and counts their steps in a walk of its own.

Terminals are bound when compiling: a bound terminal compiles to its
accessor itself, so a run looks up no binding.  A terminal ``bindings``
lacks compiles to a closure that raises :class:`ConfigurationError` when a
run reaches it, so an unbound terminal is an error only where a run reads it.

The closures carry no budget check; the kill is decided after the run.  A run
visits each node at most once -- ``if_greater`` runs ``a`` and ``b`` and then
one branch -- so its cost is bounded by the tree's size whatever the budget.
A run that evaluated more than ``max_steps`` nodes is reported killed with
``steps_used == max_steps``: a supervisor checking every node would have
stopped it at exactly that step, after the same accessor calls.  Terminals
past the budget are still read, so their accessors must not act on anything
a caller reads after a kill.

``steps_used`` is exact without a per-node counter.  A run that skipped
nothing used ``size`` steps.  ``if_greater`` compiles to one closure that
adds the size of the branch it does not take to a ``skipped`` tally, so
``size - skipped`` counts exactly the nodes the run evaluated, untaken
branches excluded.  The engine knows the conditional by its ``fn``
(:func:`~gpislands.trees.if_greater`); every other function is eager and
gets its children's values.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

from .trees import Category, ConfigurationError, ProgramTree, if_greater

#: Terminal names mapped to the zero-argument accessors that give their values.
Bindings = Mapping[str, Callable[[], Any]]


class RunOutcome(NamedTuple):
    killed: bool
    value: Any  # None when killed
    steps_used: int


class _Frame:
    """Per-run state shared by the closures of one compiled program."""

    __slots__ = ("skipped",)


class Program:
    """A tree compiled to nested closures against its bindings; build one
    with :func:`compile_program` and run it with :meth:`run`, or under a
    budget with :func:`execute`.

    A program keeps its run state in one frame shared by its closures, so it
    must not be run again from inside one of its own runs (from an
    accessor), nor from two threads at once.
    """

    __slots__ = ("size", "_root", "_frame")

    def __init__(self, size: int, root: Callable[[], Any], frame: _Frame) -> None:
        self.size = size
        self._root = root
        self._frame = frame

    def run(self) -> tuple[Any, int]:
        """Run the program once, with no budget: ``(value, steps_used)``,
        where ``steps_used`` counts the nodes the run evaluated."""
        frame = self._frame
        frame.skipped = 0
        return self._root(), self.size - frame.skipped


def compile_program(tree: ProgramTree, bindings: Bindings) -> Program:
    """Compile ``tree``, every branch included, into nested closures, each
    terminal bound to its accessor in ``bindings``."""
    frame = _Frame()
    return Program(tree.size, _compile(tree, bindings, frame), frame)


def _compile(node: ProgramTree, bindings: Bindings, frame: _Frame) -> Callable[[], Any]:
    kind = node.kind
    if kind.category is Category.CONSTANT:
        value = node.value
        return lambda: value
    if kind.category is Category.TERMINAL:
        accessor = bindings.get(kind.name)
        if accessor is not None:
            return accessor
        name = kind.name

        def unbound() -> Any:
            raise ConfigurationError(f"terminal {name!r} is not bound")

        return unbound
    fn = kind.fn
    if fn is if_greater:
        a, b, then, other = (_compile(child, bindings, frame) for child in node.children)
        then_size, other_size = node.children[2].size, node.children[3].size

        def branch() -> Any:
            if a() > b():
                frame.skipped += other_size
                return then()
            frame.skipped += then_size
            return other()

        return branch
    calls = [_compile(child, bindings, frame) for child in node.children]
    if len(calls) == 2:
        a, b = calls
        return lambda: fn(a(), b())
    return lambda: fn(*[call() for call in calls])


def execute(program: Program, max_steps: int) -> RunOutcome:
    """Run ``program`` with a budget of ``max_steps`` nodes; never raises for
    a sort-valid tree compiled against bindings for all of its terminals.  A
    run that evaluated more than ``max_steps`` nodes is killed:
    ``RunOutcome(True, None, max_steps)``.

    The accessors are the ones the program was compiled against, and each is
    called when the run reaches its terminal.  An unbound terminal is a
    configuration error, not a kill: the tree was compiled against bindings
    that cannot support it.  It raises when a run reaches it, even past the
    budget, since the run reads every terminal it reaches.
    """
    value, steps = program.run()
    if steps > max_steps:
        return RunOutcome(True, None, max_steps)
    return RunOutcome(False, value, steps)
