"""Preorder effects: the affine morphisms decorating f-SLP edges.

Effects form a two-object category (objects 0 and 1, the validity types).
A morphism maps the preorder data of a parent node to that of a child:
a single number x for type-0 nodes, a pair (x, y) for type-1 nodes, where
x is the smallest preorder number inside the node's subforest and y the
size of the forest plugged into its hole.  Every morphism here has the
uniform affine form

    first  = x + eps*y + c        (eps only when the domain is 1)
    second = kappa*y + d          (only when the codomain is 1)

with eps, kappa in {0,1} and eps*kappa = 0.  Composition stays in this
family, which yields seven concrete shapes; six of them are the edge
shapes (M00, M01, M10a, M10b, M11a, M11b) and M11c = (x,y) -> (x+c, d)
arises only through composition across a type-0 node.

The engine carries an effect as the bare ``(eps, c, kappa, d)`` int
4-tuple, its objects implied by where it sits in the DAG.  ``compose``
checks each composite; only the build and ``fslp.path_preorder`` call
it.  A witness tree's cumulative effect starts at object 0, so the answer
stream keeps only its point (c, d), moved by the unchecked ``act`` (see
``msoenum``).  ``oracle.Effect`` is the validated test-side reference.
"""

from __future__ import annotations


class Category:
    """Minimal morphism interface used by the generic DAG enumeration."""

    def identity(self, obj):  # pragma: no cover - interface
        raise NotImplementedError

    def compose(self, f, g):  # pragma: no cover - interface
        raise NotImplementedError


ID0 = (0, 0, 0, 0)
"""Identity on object 0 as a 4-tuple (M00 with c = 0)."""
ID1 = (0, 0, 1, 0)
"""Identity on object 1 as a 4-tuple (M11a with c = d = 0)."""


def compose(f: tuple, g: tuple) -> tuple:
    """``f`` applied first, then ``g``, on ``(eps, c, kappa, d)`` tuples.

    The objects are not carried, so a mismatch is not seen; a composite
    outside the family (eps or kappa not in {0,1}, both set, or a negative
    constant) raises ``ValueError``.
    """
    e1, c1, k1, d1 = f
    e2, c2, k2, d2 = g
    eps, kappa = e1 + e2 * k1, k1 * k2
    c, d = c1 + e2 * d1 + c2, k2 * d1 + d2
    if eps < 0 or kappa < 0 or eps + kappa > 1 or c < 0 or d < 0:
        raise ValueError(f"composite {(eps, c, kappa, d)} leaves the effect family")
    return (eps, c, kappa, d)


def act(p: tuple, f: tuple) -> tuple:
    """The point ``p = (c, d)`` moved by ``f``; not checked, like an edge step."""
    (c, d), (eps, ce, kappa, de) = p, f
    return (c + eps * d + ce, kappa * d + de)


class PreorderCategory(Category):
    """Preorder effects as ``(eps, c, kappa, d)`` tuples, acting on points ``(c, d)``."""

    compose = staticmethod(compose)
    act = staticmethod(act)

    def identity(self, obj):
        return ID1 if obj else ID0


class MonoidCategory(Category):
    """Single-object category from a monoid (used for integer-weighted DAGs)."""

    def __init__(self, unit, op):
        self.unit = unit
        self.op = op

    def identity(self, obj):
        return self.unit

    def compose(self, f, g):
        return self.op(f, g)


PRE_CATEGORY = PreorderCategory()
