"""The reference supervisor the tests hold the package's engine to.

:func:`walk` evaluates a tree node by node and checks the step budget before
every node, so it stops at the first node past the budget and calls no
accessor after it.  The package compiles every program and decides the kill
after the run; a compiled run must give the same kill, value and
``steps_used`` as this walk, and the same accessor calls up to the budget.
"""
from gpislands.interpreter import RunOutcome
from gpislands.trees import Category, ConfigurationError


class _Killed(Exception):
    pass


def walk(tree, bindings, policy):
    """Run ``tree`` against ``bindings`` under ``policy``, never compiled."""
    steps = 0
    max_steps = policy.max_steps

    def ev(node):
        nonlocal steps
        if steps >= max_steps:
            raise _Killed()
        steps += 1
        kind = node.kind
        if kind.category is Category.CONSTANT:
            return node.value
        if kind.category is Category.TERMINAL:
            accessor = bindings.get(kind.name)
            if accessor is None:
                raise ConfigurationError(f"terminal {kind.name!r} is not bound")
            return accessor()
        if kind.lazy:
            return kind.fn(*[(lambda c=c: ev(c)) for c in node.children])
        return kind.fn(*[ev(c) for c in node.children])

    try:
        value = ev(tree)
    except _Killed:
        return RunOutcome(True, None, steps)
    return RunOutcome(False, value, steps)
