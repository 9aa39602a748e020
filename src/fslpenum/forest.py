"""Unranked ordered forests and their term syntax.

A forest is stored flat: vertex ids coincide with preorder numbers, so
preorder lookups are O(1).  Forest contexts are forests with exactly one
hole leaf (label ``*``).  The forests of an f-SLP come out of
``fslp.evaluate``; explicit forest-algebra expressions live in ``oracle``.
"""

from __future__ import annotations

from typing import Iterable, Optional

HOLE = "*"


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
