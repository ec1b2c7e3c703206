"""Trees of an exact size, for tests at the tasks' real step budgets.

Every function of the feed and localisation vocabularies takes two or four
arguments, so every tree of either task has an odd number of nodes: the
feed trees either side of its 512-step budget have 511 and 513.  A run
evaluates a tree less the untaken branch of each ``if_greater`` it
reaches, so a run's step count can be odd or even.
"""
from gpislands import feed
from gpislands.trees import ProgramTree, Sort, constant_kind_name


def sized(kind, size, *leaves):
    """A tree of exactly ``size`` nodes: the binary function ``kind`` over
    ``leaves`` in order, the first repeated in front as often as it takes,
    split as evenly as they go, so it stays shallow."""
    count = (size + 1) // 2
    if size % 2 == 0 or count < len(leaves):
        raise ValueError(f"no tree of {size} nodes over {len(leaves)} leaves")
    return _balanced(kind, [leaves[0]] * (count - len(leaves)) + list(leaves))


def _balanced(kind, leaves):
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return ProgramTree(kind, (_balanced(kind, leaves[:half]), _balanced(kind, leaves[half:])))


def feed_sum(prims, size):
    """A feed program of ``size`` nodes adding up ``unread_count``: it has
    no branch, so every run evaluates all of it."""
    return sized(prims.kind("add"), size, ProgramTree(prims.kind("unread_count")))


def feed_edges(prims):
    """The feed trees nearest the step budget: 511 nodes, within it; 513
    nodes whose ``if_greater`` skips a leaf, so that every feed's run takes
    exactly 512 steps; and 513 nodes without a branch, whose every run is
    killed."""
    return {"within": feed_sum(prims, feed.MAX_STEPS - 1),
            "skipping": always(prims, feed_sum(prims, feed.MAX_STEPS - 3), feed_sum(prims, 1)),
            "killed": feed_sum(prims, feed.MAX_STEPS + 1)}


def feed_chain(kind, depth):
    """Feed-program text ``depth`` nodes deep, nesting only in one child.

    ``add`` nests through its first operand; ``if_greater`` (whose
    condition always holds) through its taken branch, the deepest stack a
    run can need per level.
    """
    text = "(unread_count)"
    for _ in range(depth - 1):
        if kind == "add":
            text = f"(add {text} (unread_count))"
        else:
            text = f"(if_greater (unread_count) (const:Number -1.0) {text} (unread_count))"
    return text


def loc_requests(prims, size):
    """A localisation program of ``size`` nodes that switches every radio
    on (cell over and over) and then asks for a fix: it has no branch, so
    every run evaluates all of it, the request last."""
    leaves = [ProgramTree(prims.kind(name))
              for name in ("enable_cell", "enable_wifi", "enable_gps", "request_update")]
    return sized(prims.kind("seq"), size, *leaves)


def always(prims, then, other):
    """``(if_greater 1.0 0.0 then other)``: runs ``then`` in 3 steps more
    than ``then`` takes, and never ``other``."""
    return ProgramTree(prims.kind("if_greater"), (constant(prims, 1.0), constant(prims, 0.0),
                                                  then, other))


def constant(prims, value):
    return ProgramTree(prims.kind(constant_kind_name(Sort.NUMBER)), value=value)
