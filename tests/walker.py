"""The reference supervisor the tests hold the package's engine to.

:func:`walk` evaluates a tree node by node and checks the step budget before
every node, so it stops at the first node past the budget and calls no
accessor after it.  The package compiles every program and decides the kill
after the run; a compiled run must give the same kill, value and
``steps_used`` as this walk, and the same accessor calls up to the budget.

:func:`feed_environments` is the feed task's bindings written out feed by
feed: the walker runs a feed tree against one of them, and the package's
terminal columns must hold, feed by feed, the values they give.
"""
from gpislands.interpreter import RunOutcome
from gpislands.trees import Category, ConfigurationError, if_greater


class _Killed(Exception):
    pass


def walk(tree, bindings, max_steps):
    """Run ``tree`` against ``bindings`` with a budget of ``max_steps`` nodes,
    never compiled."""
    steps = 0

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
        if kind.fn is if_greater:  # given thunks, it runs only the taken branch
            return kind.fn(*[(lambda c=c: ev(c)) for c in node.children])
        return kind.fn(*[ev(c) for c in node.children])

    try:
        value = ev(tree)
    except _Killed:
        return RunOutcome(True, None, steps)
    return RunOutcome(False, value, steps)


def feed_environments(catalog):
    """One bindings mapping per feed of ``catalog``, in catalog order; each
    accessor reads the feed's own attributes."""
    return tuple(_feed_environment(feed, catalog) for feed in catalog.feeds)


def _feed_environment(feed, catalog):
    bindings = {
        "group_is_tech": lambda: 1.0 if feed.is_tech else 0.0,
        "unread_count": lambda: float(feed.unread),
    }
    for other in catalog.feeds:
        bindings[f"is_{other.feed_id}"] = (
            lambda match=(other.feed_id == feed.feed_id): 1.0 if match else 0.0)
    return bindings
