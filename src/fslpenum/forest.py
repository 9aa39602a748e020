"""Unranked ordered forests, their term syntax, and forest-algebra expressions.

A forest is stored flat: vertex ids coincide with preorder numbers, so
preorder lookups are O(1).  Forest contexts are forests with exactly one
hole leaf (label ``*``).  Expressions are binary trees over horizontal
concatenation ("hc") and vertical concatenation ("vc") with leaves ``a``
and ``a_*``; they evaluate to forests / forest contexts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

HOLE = "*"

HC = "hc"  # horizontal concatenation of two forests / one forest + one context
VC = "vc"  # vertical concatenation: plug right operand into left operand's hole


class ParseError(ValueError):
    """Syntax error in a term, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Forest:
    """Vertex-labelled ordered forest; vertex index == preorder number."""

    __slots__ = ("labels", "parents", "children", "roots")

    def __init__(
        self,
        labels: Iterable[str] = (),
        parents: Iterable[Optional[int]] = (),
        children: Iterable[Iterable[int]] = (),
        roots: Iterable[int] = (),
    ):
        self.labels = tuple(labels)
        self.parents = tuple(parents)
        self.children = tuple(tuple(c) for c in children)
        self.roots = tuple(roots)
        self._check()

    def _check(self) -> None:
        n = len(self.labels)
        if not (len(self.parents) == len(self.children) == n):
            raise ValueError("labels/parents/children length mismatch")
        for lbl in self.labels:
            if not lbl:
                raise ValueError("empty label")
        seen = [False] * n
        above: list[Optional[int]] = [None] * n  # the list holding v: a parent or the roots
        # Depth-first left-to-right walk must visit vertex i as the i-th vertex.
        stack: list[tuple[int, Optional[int]]] = [(v, None) for v in reversed(self.roots)]
        expect = 0
        while stack:
            v, p = stack.pop()
            if not (0 <= v < n) or seen[v]:
                raise ValueError("root/child lists are not a valid traversal")
            seen[v] = True
            if v != expect:
                raise ValueError(f"vertex {v} is not stored at its preorder position")
            expect += 1
            above[v] = p
            stack.extend((c, v) for c in reversed(self.children[v]))
        if expect != n:
            raise ValueError("traversal does not reach every vertex")
        # each vertex sits in exactly one list, so its parent must name that list
        for v in range(n):
            p = self.parents[v]
            if p != above[v]:
                if p is None:
                    raise ValueError(f"vertex {v} has no parent and is not a root")
                raise ValueError(f"vertex {v} missing from parent's child list")

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Forest):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.parents == other.parents
            and self.roots == other.roots
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.parents, self.roots))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({serialize_term(self)!r})"

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def hole_index(self) -> Optional[int]:
        """Index of the unique hole leaf, or None if this is a plain forest."""
        idx = None
        for v, lbl in enumerate(self.labels):
            if lbl == HOLE:
                if idx is not None:
                    return None
                idx = v
        return idx

    def relabel(self, v: int, label: str) -> "Forest":
        if not (0 <= v < len(self)):
            raise ValueError(f"vertex {v} out of range")
        labels = list(self.labels)
        labels[v] = label
        return type(self)(labels, self.parents, self.children, self.roots)


class ForestContext(Forest):
    """Forest with exactly one hole leaf (label ``*``)."""

    __slots__ = ()

    def __init__(self, labels=(), parents=(), children=(), roots=()):
        super().__init__(labels, parents, children, roots)
        holes = [v for v, l in enumerate(self.labels) if l == HOLE]
        if len(holes) != 1:
            raise ValueError("a forest context has exactly one hole")
        if self.children[holes[0]]:
            raise ValueError("the hole must be a leaf")

    @property
    def hole(self) -> int:
        return self.hole_index()  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# term representation
# ---------------------------------------------------------------------------

def _scan_label(text: str, i: int) -> tuple[str, int]:
    ch = text[i]
    if ch == "'":
        j = text.find("'", i + 1)
        if j < 0:
            raise ParseError("unterminated quoted label", i)
        if j == i + 1:
            raise ParseError("empty label", i)
        return text[i + 1 : j], j + 1
    if ch.isalnum() or ch == "_" or ch == HOLE:
        # Bare labels are single characters; longer identifiers are quoted.
        return ch, i + 1
    raise ParseError(f"unexpected character {ch!r}", i)


def parse_term(text: str) -> Forest:
    """Parse ``Forest := Tree*; Tree := LABEL ['(' Forest ')']``.

    Whitespace and commas separate trees.  Bare labels are single
    characters; multi-character labels are single-quoted.
    """
    labels: list[str] = []
    parents: list[Optional[int]] = []
    children: list[list[int]] = []
    roots: list[int] = []
    stack: list[int] = []  # vertices whose '(' group is open
    last: Optional[int] = None  # most recent vertex completed at this level
    grouped: set[int] = set()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace() or ch == ",":
            i += 1
        elif ch == "(":
            if last is None:
                raise ParseError("'(' must follow a label", i)
            if last in grouped:
                raise ParseError("a label may carry only one child group", i)
            grouped.add(last)
            stack.append(last)
            last = None
            i += 1
        elif ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            last = stack.pop()
            i += 1
        else:
            label, i = _scan_label(text, i)
            v = len(labels)
            labels.append(label)
            children.append([])
            if stack:
                parents.append(stack[-1])
                children[stack[-1]].append(v)
            else:
                parents.append(None)
                roots.append(v)
            last = v
    if stack:
        raise ParseError("unbalanced '('", len(text))
    return Forest(labels, parents, children, roots)


def _emit_label(label: str) -> str:
    if len(label) == 1 and (label.isalnum() or label in ("_", HOLE)):
        return label
    if "'" in label or not label:
        raise ValueError(f"label {label!r} is not representable in term syntax")
    return f"'{label}'"


def serialize_term(f: Forest) -> str:
    """Canonical term text; ``parse_term`` inverts it."""
    out: list[str] = []
    # item: vertex id, or ")" marker
    stack: list[object] = list(reversed(f.roots))
    while stack:
        item = stack.pop()
        if item == ")":
            out.append(")")
            continue
        v = item  # type: ignore[assignment]
        out.append(_emit_label(f.labels[v]))
        if f.children[v]:
            out.append("(")
            stack.append(")")
            stack.extend(reversed(f.children[v]))
    return "".join(out)


# ---------------------------------------------------------------------------
# forest algebra expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class ExprLeaf:
    label: str
    ctx: bool = False  # True for a_* (an a-labelled root over the hole)

    def __repr__(self) -> str:
        return f"{self.label}*" if self.ctx else self.label


@dataclass(frozen=True, eq=False, repr=False)
class ExprNode:
    op: str  # HC or VC
    left: "Expr"
    right: "Expr"

    def __repr__(self) -> str:
        sym = "+" if self.op == HC else "/"
        return f"({self.left!r} {sym} {self.right!r})"


Expr = ExprLeaf | ExprNode


def leaf(label: str) -> ExprLeaf:
    return ExprLeaf(label)


def leafctx(label: str) -> ExprLeaf:
    return ExprLeaf(label, ctx=True)


def hc(left: Expr, right: Expr) -> ExprNode:
    return ExprNode(HC, left, right)


def vc(left: Expr, right: Expr) -> ExprNode:
    return ExprNode(VC, left, right)


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality, safe for deep expressions."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, ExprLeaf):
            if not (isinstance(y, ExprLeaf) and x.label == y.label and x.ctx == y.ctx):
                return False
        else:
            if not (isinstance(y, ExprNode) and x.op == y.op):
                return False
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
    return True


class _Flat:
    """Expression flattened to preorder-position arrays (children follow parents)."""

    __slots__ = ("kind", "label", "ctx", "left", "right", "leaves")

    def __init__(self, e: Expr):
        kind: list[str] = []
        label: list[Optional[str]] = []
        ctx: list[bool] = []
        left: list[int] = []
        right: list[int] = []
        leaves: list[int] = []
        stack: list[tuple[Expr, int, bool]] = [(e, -1, False)]
        while stack:
            node, parent, is_right = stack.pop()
            pos = len(kind)
            if parent >= 0:
                (right if is_right else left)[parent] = pos
            if isinstance(node, ExprLeaf):
                kind.append("leaf")
                label.append(node.label)
                ctx.append(node.ctx)
                left.append(-1)
                right.append(-1)
                leaves.append(pos)
            else:
                kind.append(node.op)
                label.append(None)
                ctx.append(False)
                left.append(-1)
                right.append(-1)
                stack.append((node.right, pos, True))
                stack.append((node.left, pos, False))
        self.kind = kind
        self.label = label
        self.ctx = ctx
        self.left = left
        self.right = right
        self.leaves = leaves  # in left-to-right order (preorder visits them in order)

    def __len__(self) -> int:
        return len(self.kind)


def _types(flat: _Flat) -> Optional[list[int]]:
    """Per-position validity types, or None if the expression is invalid."""
    n = len(flat)
    tau: list[int] = [0] * n
    for pos in range(n - 1, -1, -1):
        k = flat.kind[pos]
        if k == "leaf":
            tau[pos] = 1 if flat.ctx[pos] else 0
        elif k == HC:
            t = tau[flat.left[pos]] + tau[flat.right[pos]]
            if t > 1:
                return None
            tau[pos] = t
        else:  # VC
            if tau[flat.left[pos]] != 1:
                return None
            tau[pos] = tau[flat.right[pos]]
    return tau


def type_of(e: Expr) -> Optional[int]:
    """Validity type of the expression: 0, 1, or None when invalid."""
    tau = _types(_Flat(e))
    return None if tau is None else tau[0]


class _V:
    """Mutable vertex record used while evaluating an expression."""

    __slots__ = ("label", "child", "next")

    def __init__(self, label: str):
        self.label = label
        self.child: Optional[_V] = None
        self.next: Optional[_V] = None


def eval_expr(e: Expr) -> Forest:
    """Evaluate a valid expression to its Forest / ForestContext."""
    flat = _Flat(e)
    if _types(flat) is None:
        raise ValueError("invalid expression")
    n = len(flat)
    first: list[Optional[_V]] = [None] * n
    last: list[Optional[_V]] = [None] * n
    hole: list[Optional[_V]] = [None] * n
    for pos in range(n - 1, -1, -1):
        k = flat.kind[pos]
        if k == "leaf":
            rec = _V(flat.label[pos])  # type: ignore[arg-type]
            first[pos] = last[pos] = rec
            if flat.ctx[pos]:
                h = _V(HOLE)
                rec.child = h
                hole[pos] = h
        elif k == HC:
            l, r = flat.left[pos], flat.right[pos]
            last[l].next = first[r]  # type: ignore[union-attr]
            first[pos], last[pos] = first[l], last[r]
            hole[pos] = hole[l] or hole[r]
        else:  # VC: plug right operand into left operand's hole, in place
            l, r = flat.left[pos], flat.right[pos]
            h = hole[l]
            f2, l2 = first[r], last[r]
            after = h.next  # type: ignore[union-attr]
            h.label = f2.label  # type: ignore[union-attr]
            h.child = f2.child  # type: ignore[union-attr]
            if f2 is l2:
                h.next = after  # type: ignore[union-attr]
                tail = h
            else:
                h.next = f2.next  # type: ignore[union-attr]
                l2.next = after  # type: ignore[union-attr]
                tail = l2
            first[pos] = first[l]
            last[pos] = tail if last[l] is h else last[l]
            hole[pos] = hole[r]
    return _records_to_forest(first[0])


def _records_to_forest(first_root: Optional[_V]) -> Forest:
    labels: list[str] = []
    parents: list[Optional[int]] = []
    children: list[list[int]] = []
    roots: list[int] = []
    stack: list[tuple[_V, Optional[int]]] = []
    r = first_root
    chain: list[_V] = []
    while r is not None:
        chain.append(r)
        r = r.next
    for rec in reversed(chain):
        stack.append((rec, None))
    while stack:
        rec, parent = stack.pop()
        v = len(labels)
        labels.append(rec.label)
        parents.append(parent)
        children.append([])
        if parent is None:
            roots.append(v)
        else:
            children[parent].append(v)
        sib: list[_V] = []
        c = rec.child
        while c is not None:
            sib.append(c)
            c = c.next
        for child in reversed(sib):
            stack.append((child, v))
    if labels.count(HOLE) == 1:
        return ForestContext(labels, parents, children, roots)
    return Forest(labels, parents, children, roots)


def expr_leaves(e: Expr) -> list[ExprLeaf]:
    """Leaves of the expression in left-to-right order."""
    out: list[ExprLeaf] = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, ExprLeaf):
            out.append(node)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return out


def iter_subexprs(e: Expr) -> Iterator[Expr]:
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ExprNode):
            stack.append(node.left)
            stack.append(node.right)
