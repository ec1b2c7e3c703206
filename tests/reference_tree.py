"""A frozen-dataclass program tree: the reference for ``ProgramTree``'s
hand-written ``==``, ``hash`` and ``repr``.

The class is named ``ProgramTree`` so that the ``repr`` the dataclass
generates reads the same as the real one's.  It holds only the three fields
that take part in equality; :func:`mirror` copies a tree into it, keeping
every payload object (so a shared NaN stays shared) and sharing the mirror
of a node that appears more than once.

Most interpreters generate an ``__eq__`` that compares the fields as one
tuple, so a shared NaN payload is equal to itself.  Python 3.13.0 generates
a field-by-field ``self.value == other.value`` instead, under which it is
not; where the interpreter does that, the reference states the tuple
compare itself, since that is what ``ProgramTree`` promises everywhere.

:func:`reference_replace` is the reference for subtree replacement: it
rebuilds a real tree in full, in preorder, through the checked constructor.
"""
from dataclasses import dataclass
from typing import Optional

from gpislands import trees
from gpislands.trees import NodeKind


@dataclass(frozen=True)
class ProgramTree:
    kind: NodeKind
    children: tuple["ProgramTree", ...] = ()
    value: Optional[float] = None


_NAN = float("nan")
if ProgramTree(None, (), _NAN) != ProgramTree(None, (), _NAN):
    def _tuple_eq(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.children, self.value) == (other.kind, other.children,
                                                          other.value)

    ProgramTree.__eq__ = _tuple_eq


def mirror(tree, mirrored=None):
    """``tree`` as reference nodes; ``mirrored`` maps node ids to the mirrors
    already made, so subtrees shared between trees mirrored with one map stay
    shared."""
    if mirrored is None:
        mirrored = {}
    done = mirrored.get(id(tree))
    if done is None:
        children = tuple(mirror(child, mirrored) for child in tree.children)
        done = mirrored[id(tree)] = ProgramTree(tree.kind, children, tree.value)
    return done


def reference_replace(tree, index, replacement):
    """``tree`` with the node at preorder position ``index`` swapped for
    ``replacement``, by a full preorder rebuild through the checked
    constructor: the reference for :func:`gpislands.trees.replace_subtree`."""
    counter = [0]

    def count(node):
        return 1 + sum(count(child) for child in node.children)

    def rebuild(node):
        here = counter[0]
        if here == index:
            counter[0] += count(node)
            return replacement
        counter[0] += 1
        return trees.ProgramTree(node.kind, tuple(rebuild(c) for c in node.children),
                                 node.value)

    return rebuild(tree)
