"""Seeded inputs for the benchmark, written as the text formats the program reads.

Everything here depends only on the seed.  The label arrays returned beside
the texts are the benchmark's own record of the input; the checkers compare
the program's answers against them without using the library.
"""

from __future__ import annotations

import random
from typing import Optional

LABELS = "abc"


def random_document(rng: random.Random, n: int, max_depth: int = 8) -> tuple[list[str], list[Optional[int]]]:
    """Labels and parents, in preorder, of a document-like forest of exactly ``n`` vertices.

    Vertices are created in preorder along the open rightmost path, as a
    writer appends nested sections: each new vertex opens a subsection,
    continues the current section, or closes a few sections first.  New
    roots (separate documents) are rare, depth is capped and fan-out stays
    moderate, as in real documents.
    """
    if n < 1:
        raise ValueError("n must be positive")
    labels: list[str] = []
    parents: list[Optional[int]] = []
    path: list[int] = []  # open vertices, outermost first
    for v in range(n):
        r = rng.random()
        depth = len(path)
        if not path or r < 0.001:
            path.clear()  # a new document
        elif (r < 0.40 or depth == 1) and depth < max_depth:
            pass  # first child of the newest open vertex
        elif r < 0.90 or depth <= 2:
            path.pop()  # next sibling
        else:
            del path[-rng.randint(2, depth - 1):]  # close sections
        parents.append(path[-1] if path else None)
        labels.append(rng.choice(LABELS))
        path.append(v)
    return labels, parents


def term_text(labels: list[str], parents: list[Optional[int]]) -> str:
    """Term syntax for a forest given in preorder, e.g. ``a(bc)b``."""
    has_child = [False] * len(labels)
    for p in parents:
        if p is not None:
            has_child[p] = True
    out: list[str] = []
    open_: list[int] = []
    for v, p in enumerate(parents):
        while open_ and open_[-1] != p:
            open_.pop()
            out.append(")")
        out.append(labels[v])
        if has_child[v]:
            out.append("(")
            open_.append(v)
    out.append(")" * len(open_))
    return "".join(out)


def fslp_text(kinds: list[str], labels: list, lefts: list, rights: list, root: int) -> str:
    """The ``fslp v1`` text of a node table."""
    lines = ["fslp v1"]
    for i, kind in enumerate(kinds):
        if kind in ("leaf", "leafctx"):
            lines.append(f"node {i} {kind} {labels[i]}")
        else:
            lines.append(f"node {i} {kind} {lefts[i]} {rights[i]}")
    lines.append(f"root {root}")
    return "\n".join(lines) + "\n"


def squared_fslp_text(block_fslp, rounds: int) -> str:
    """Append ``rounds`` hc-squaring nodes above a block's f-SLP.

    The result derives the block's forest repeated 2**rounds times side by
    side, so vertex k carries the label of block vertex k mod |block|.
    """
    kinds = list(block_fslp.kinds)
    labels = list(block_fslp.labels)
    lefts = list(block_fslp.lefts)
    rights = list(block_fslp.rights)
    root = block_fslp.root
    for _ in range(rounds):
        kinds.append("hc")
        labels.append(None)
        lefts.append(root)
        rights.append(root)
        root = len(kinds) - 1
    return fslp_text(kinds, labels, lefts, rights, root)


def exactly_one_b_nsta() -> str:
    """nSTA text accepting (F, S) iff S is one ``b``-labelled vertex.

    State 0 has seen no selected vertex, state 1 exactly one; only ``b``
    vertices may be selected.
    """
    lines = ["nsta v1", "states 2"]
    for a in LABELS:
        lines.append(f"iota {a} 0 0")
    lines.append("iota b 1 1")
    lines += ["trans 0 0 0", "trans 0 1 1", "trans 1 0 1", "init 0", "final 1"]
    return "\n".join(lines) + "\n"


def select_b_nsta() -> str:
    """nSTA text accepting (F, S) iff S is exactly the set of ``b`` vertices."""
    lines = ["nsta v1", "states 1"]
    for a in LABELS:
        lines.append(f"iota {a} {1 if a == 'b' else 0} 0")
    lines += ["trans 0 0 0", "init 0", "final 0"]
    return "\n".join(lines) + "\n"
