"""The reference growth the tests hold :func:`gpislands.trees.grow_subtree` to.

:func:`grow` is grow-style construction as it reads in the textbook: one
recursive call per node, which collects the kinds of the wanted sort from
the primitive set's declared kinds, in their order, and draws from the rng
in the same order the package must: the leaf when only leaves are eligible,
else the leaf-or-function choice at the set's ``function_bias`` (only when
the sort has leaves) and the kind, then a constant's payload, children left
to right.  It builds every node, leaves included, fresh through the checked
constructor, so trees it grows share no node (``tests/config_cells.py``'s
reference growth runs whole cells so).  :func:`split` is the collection it
grows from, for tests that need a sort's leaves or functions, and
:func:`at_bias` gives a set that grows at another bias.
"""
import dataclasses

from gpislands.trees import Category, ConfigurationError, ProgramTree, Sort


def split(prims, sort):
    """The kinds producing ``sort`` in declared order: its leaves (terminals
    and constant kind) and its functions."""
    kinds = [kind for kind in prims.all_kinds if kind.result_sort is sort]
    leaves = [kind for kind in kinds if kind.category is not Category.FUNCTION]
    functions = [kind for kind in kinds if kind.category is Category.FUNCTION]
    return leaves, functions


def sorts_with_leaves(prims):
    """The sorts some leaf of ``prims`` produces, by name: the sorts a tree
    of the set can be grown at."""
    return sorted((sort for sort in Sort if split(prims, sort)[0]), key=lambda s: s.value)


def at_bias(prims, bias):
    """``prims`` growing at ``bias``: the same vocabulary, its growth tables
    built again."""
    return dataclasses.replace(prims, function_bias=bias)


def grow(prims, sort, budget, rng):
    """A random tree of ``sort`` no deeper than ``budget``."""
    if budget < 1:
        raise ValueError("depth budget must be at least 1")
    leaves, functions = split(prims, sort)
    if budget == 1 or not functions:
        if not leaves:
            raise ConfigurationError(f"no terminal or constant produces sort {sort.value!r}")
        kind = leaves[rng.randrange(len(leaves))]
    elif leaves and rng.random() >= prims.function_bias:
        kind = leaves[rng.randrange(len(leaves))]
    else:
        kind = functions[rng.randrange(len(functions))]
    if kind.category is Category.CONSTANT:
        return ProgramTree(kind, (), float(prims.constant_sources[sort](rng)))
    if kind.category is Category.TERMINAL:
        return ProgramTree(kind)
    children = tuple(grow(prims, arg, budget - 1, rng)
                     for arg in kind.argument_sorts)
    return ProgramTree(kind, children)
