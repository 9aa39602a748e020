"""Unranked ordered forests and their term syntax.

A forest is stored flat: vertex ids coincide with preorder numbers, so
preorder lookups are O(1).  It is built from its labels and parent list
alone, ``Forest(labels, parents)``, which checks the parents in one pass
and derives the children and roots; a parent list that is not that of a
forest in preorder is a ``ValueError``.  Forest contexts are forests
with exactly one hole leaf (label ``*``).  The forests of an f-SLP come
out of ``fslp.evaluate``; explicit forest-algebra expressions live in
``oracle``.
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
    """Vertex-labelled ordered forest; vertex index == preorder number.

    A forest is given by its ``labels`` and ``parents``: the parent of
    vertex ``v`` is ``None`` (a root) or an ``int`` that is ``v - 1`` or an
    ancestor of ``v - 1``, which are exactly the parent lists of forests in
    preorder.  One pass over ``parents`` checks that rule and derives
    ``children`` (a tuple per vertex) and ``roots``.  Any other input is a
    ``ValueError``: labels and parents of different lengths, an empty
    label, or a parent that breaks the rule, named with its vertex.
    """

    __slots__ = ("labels", "parents", "children", "roots")

    def __init__(self, labels: Iterable[str] = (), parents: Iterable[Optional[int]] = ()):
        self.labels = labels = tuple(labels)
        self.parents = parents = tuple(parents)
        if len(parents) != len(labels):
            raise ValueError("labels/parents length mismatch")
        if not all(labels):
            raise ValueError("empty label")
        if not {int, type(None)}.issuperset(map(type, parents)):
            v = next(v for v, p in enumerate(parents) if p is not None and type(p) is not int)
            raise ValueError(f"vertex {v}: parent {parents[v]!r} is not an int")
        children: list = [()] * len(labels)  # a leaf keeps (); a first child makes a list
        roots: list[int] = []
        path: list[Optional[int]] = [None]  # [None, root, ..., v - 1]: v - 1 and its ancestors
        for v, p in enumerate(parents):
            while path[-1] != p:
                path.pop()
                if not path:
                    raise ValueError(
                        f"vertex {v}: parent {p} is not the previous vertex or one of its ancestors"
                    )
            if p is None:
                roots.append(v)
            elif children[p]:
                children[p].append(v)
            else:
                children[p] = [v]
            path.append(v)
        self.children = tuple(map(tuple, children))
        self.roots = tuple(roots)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Forest):
            return NotImplemented
        return self.labels == other.labels and self.parents == other.parents

    def __hash__(self) -> int:
        return hash((self.labels, self.parents))

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
        return type(self)(labels, self.parents)


class ForestContext(Forest):
    """Forest with exactly one hole leaf (label ``*``)."""

    __slots__ = ()

    def __init__(self, labels=(), parents=()):
        super().__init__(labels, parents)
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
    """The quoted label starting at ``i`` and the position after it."""
    ch = text[i]
    if ch != "'":
        raise ParseError(f"unexpected character {ch!r}", i)
    j = text.find("'", i + 1)
    if j < 0:
        raise ParseError("unterminated quoted label", i)
    if j == i + 1:
        raise ParseError("empty label", i)
    return text[i + 1 : j], j + 1


def parse_term(text: str) -> Forest:
    """Parse ``Forest := Tree*; Tree := LABEL ['(' Forest ')']``.

    Whitespace and commas separate trees.  Bare labels are single
    characters; multi-character labels are single-quoted.
    """
    labels: list[str] = []
    parents: list[Optional[int]] = []
    p: Optional[int] = None  # the vertex whose '(' group is open
    stack: list[Optional[int]] = []  # the open parents of the enclosing groups
    last: Optional[int] = None  # the vertex just completed at this level; -1 once its ')' closed
    chars = enumerate(text)
    for i, ch in chars:
        if ch == "(":
            if last is None:
                raise ParseError("'(' must follow a label", i)
            if last < 0:
                raise ParseError("a label may carry only one child group", i)
            stack.append(p)
            p = last
            last = None
            continue
        if ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            p = stack.pop()
            last = -1
            continue
        if ch.isalnum() or ch == "_" or ch == HOLE:
            label = ch  # bare labels are single characters; longer ones are quoted
        elif ch.isspace() or ch == ",":
            continue
        else:
            label, end = _scan_label(text, i)
            for _ in range(end - i - 1):  # the rest of the quoted label
                next(chars)
        last = len(labels)
        labels.append(label)
        parents.append(p)
    if stack:
        raise ParseError("unbalanced '('", len(text))
    return Forest(labels, parents)


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
