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

Two representations share these rules.  ``Effect`` is the public,
validated form: it carries its objects, checks every field when built,
and names its shape.  The engine carries the bare ``(eps, c, kappa, d)``
int 4-tuple (``Effect.as_tuple``), whose objects are implied by where it
sits in the DAG; ``compose`` checks each composite and runs at build
time only.  A witness tree's cumulative effect starts at object 0, so
the answer stream keeps only its point (c, d), moved along paths by the
unchecked ``act`` (see ``msoenum``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Effect:
    dom: int
    cod: int
    eps: int = 0
    c: int = 0
    kappa: int = 0
    d: int = 0

    def __post_init__(self):
        if self.dom not in (0, 1) or self.cod not in (0, 1):
            raise ValueError("objects must be 0 or 1")
        if self.eps not in (0, 1) or self.kappa not in (0, 1):
            raise ValueError("eps/kappa must be 0 or 1")
        if self.c < 0 or self.d < 0:
            raise ValueError("constants must be non-negative")
        if self.dom == 0 and self.eps:
            raise ValueError("eps requires a pair domain")
        if (self.dom == 0 or self.cod == 0) and self.kappa:
            raise ValueError("kappa requires pair domain and codomain")
        if self.cod == 0 and self.d:
            raise ValueError("d requires a pair codomain")
        if self.eps and self.kappa:
            raise ValueError("eps and kappa are mutually exclusive")

    # -- constructors for the edge shapes --------------------------------

    @staticmethod
    def m00(c: int = 0) -> "Effect":
        return Effect(0, 0, 0, c, 0, 0)

    @staticmethod
    def m01(c: int, d: int) -> "Effect":
        return Effect(0, 1, 0, c, 0, d)

    @staticmethod
    def m10a(c: int = 0) -> "Effect":
        return Effect(1, 0, 0, c, 0, 0)

    @staticmethod
    def m10b(c: int = 0) -> "Effect":
        return Effect(1, 0, 1, c, 0, 0)

    @staticmethod
    def m11a(c: int = 0, d: int = 0) -> "Effect":
        return Effect(1, 1, 0, c, 1, d)

    @staticmethod
    def m11b(c: int, d: int) -> "Effect":
        return Effect(1, 1, 1, c, 0, d)

    @staticmethod
    def identity(obj: int) -> "Effect":
        return Effect.m00(0) if obj == 0 else Effect.m11a(0, 0)

    # -- structure --------------------------------------------------------

    @property
    def shape(self) -> str:
        if self.dom == 0:
            return "M00" if self.cod == 0 else "M01"
        if self.cod == 0:
            return "M10b" if self.eps else "M10a"
        if self.kappa:
            return "M11a"
        return "M11b" if self.eps else "M11c"

    def compose(self, other: "Effect") -> "Effect":
        """This effect applied first, then ``other``."""
        if self.cod != other.dom:
            raise ValueError(
                f"object mismatch: cannot compose {self.shape} into {other.shape}"
            )
        if self.cod == 0:
            return Effect(self.dom, other.cod, self.eps, self.c + other.c, 0, other.d)
        return Effect(
            self.dom,
            other.cod,
            self.eps + other.eps * self.kappa,
            self.c + other.eps * self.d + other.c,
            self.kappa * other.kappa,
            other.kappa * self.d + other.d,
        )

    def apply(self, x: int, y: int | None = None):
        """Evaluate pointwise; returns an int (cod 0) or a pair (cod 1)."""
        if self.dom == 1:
            if y is None:
                raise ValueError("pair domain needs two arguments")
        else:
            if y is not None:
                raise ValueError("number domain takes one argument")
            y = 0
        out = x + self.eps * y + self.c
        if self.cod == 0:
            return out
        return (out, self.kappa * y + self.d)

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The engine's form ``(eps, c, kappa, d)``; the objects are dropped."""
        return (self.eps, self.c, self.kappa, self.d)

    @property
    def preorder(self) -> int:
        """Preorder number encoded by a root-to-leaf composite (domain 0)."""
        if self.dom != 0:
            raise ValueError("preorder is defined for effects from object 0")
        return self.c


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
