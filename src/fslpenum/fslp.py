"""Forest straight-line programs: a binary DAG whose unfoldings are valid
forest-algebra expressions.

Node kinds: ``leaf`` (label a), ``leafctx`` (label a over the hole, a_*),
``hc`` (horizontal concatenation) and ``vc`` (vertical concatenation).
Nodes may reference only earlier-declared nodes, so the structure is
acyclic by construction and node arrays are append-only: extending an
f-SLP never invalidates existing node ids.

The f-SLP is the data: ``evaluate`` decompresses a node in one preorder
walk over the DAG.  Explicit expressions (``unfold``, ``fold_expr``) are
oracle helpers in ``oracle``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .effects import Effect
from .forest import HOLE, Forest, ForestContext

LEAF = "leaf"
LEAFCTX = "leafctx"
HC = "hc"  # horizontal concatenation of two forests / one forest + one context
VC = "vc"  # vertical concatenation: plug the right operand into the left one's hole


def env_int(name: str, default: int, positive: bool = False) -> int:
    """The integer in environment variable ``name``, else ``default``.

    A value that is not an integer (or, with ``positive``, is below 1) is
    a ``ValueError`` that names the variable.
    """
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ValueError(f"{name} must be {kind}, got {text!r}")
    return value


def default_budget() -> int:
    """Decompression budget: ``FSLPENUM_BUDGET`` if set, else 10**6."""
    return env_int("FSLPENUM_BUDGET", 10**6)


class InvalidFSLP(ValueError):
    """Structural or typing violation, reporting the offending node."""

    def __init__(self, node: int, rule: str):
        super().__init__(f"node {node}: {rule}")
        self.node = node
        self.rule = rule


class BudgetExceeded(RuntimeError):
    pass


def _size_text(n: int) -> str:
    """``n`` in decimal, or a power-of-two bound past the int/str digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2**{n.bit_length() - 1}"


class FSLP:
    """Append-only node store; node id = declaration index."""

    __slots__ = ("kinds", "labels", "lefts", "rights", "root")

    def __init__(self, root: Optional[int] = None):
        self.kinds: list[str] = []
        self.labels: list[Optional[str]] = []
        self.lefts: list[Optional[int]] = []
        self.rights: list[Optional[int]] = []
        self.root = root

    def __len__(self) -> int:
        return len(self.kinds)

    def _push(self, kind: str, label: Optional[str], left: Optional[int], right: Optional[int]) -> int:
        i = len(self.kinds)
        if kind in (HC, VC):
            for ref in (left, right):
                if ref is None or not (0 <= ref < i):
                    raise InvalidFSLP(i, "children must reference earlier nodes")
        self.kinds.append(kind)
        self.labels.append(label)
        self.lefts.append(left)
        self.rights.append(right)
        return i

    def add_leaf(self, label: str) -> int:
        return self._push(LEAF, label, None, None)

    def add_leafctx(self, label: str) -> int:
        return self._push(LEAFCTX, label, None, None)

    def add_hc(self, left: int, right: int) -> int:
        return self._push(HC, None, left, right)

    def add_vc(self, left: int, right: int) -> int:
        return self._push(VC, None, left, right)

    def add_node(self, definition: tuple) -> int:
        kind = definition[0]
        if kind in (LEAF, LEAFCTX):
            return self._push(kind, definition[1], None, None)
        if kind in (HC, VC):
            return self._push(kind, None, definition[1], definition[2])
        raise InvalidFSLP(len(self), f"unknown node kind {kind!r}")

    def node_def(self, i: int) -> tuple:
        kind = self.kinds[i]
        if kind in (LEAF, LEAFCTX):
            return (kind, self.labels[i])
        return (kind, self.lefts[i], self.rights[i])

    def is_leaf_node(self, i: int) -> bool:
        return self.kinds[i] in (LEAF, LEAFCTX)

    def alphabet(self) -> set[str]:
        return {l for l in self.labels if l is not None}


def node_type(i: int, kind: str, tl: int, tr: int) -> int:
    """Type of inner node ``i`` from its children's types; raises on ill-typed nodes."""
    if kind == HC:
        if tl + tr > 1:
            raise InvalidFSLP(i, "hc requires at most one context operand")
        return tl + tr
    if tl != 1:
        raise InvalidFSLP(i, "vc requires a context left operand")
    return tr


@dataclass
class VertexStats:
    """Per-node type, leaf size, left size, vertex count and height."""

    tau: list[int] = field(default_factory=list)
    s: list[int] = field(default_factory=list)
    ell: list[Optional[int]] = field(default_factory=list)
    nverts: list[int] = field(default_factory=list)
    height: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tau)

    def append_node(self, g: FSLP, i: int) -> None:
        kind = g.kinds[i]
        if kind == LEAF:
            tau, s, ell, h = 0, 1, None, 0
        elif kind == LEAFCTX:
            tau, s, ell, h = 1, 1, 1, 0
        else:
            l, r = g.lefts[i], g.rights[i]
            tl, tr = self.tau[l], self.tau[r]
            tau = node_type(i, kind, tl, tr)
            if kind == HC:
                if tau == 0:
                    ell = None
                elif tl == 0:
                    ell = self.s[l] + self.ell[r]
                else:
                    ell = self.ell[l]
            else:  # VC
                ell = None if tau == 0 else self.ell[l] + self.ell[r]
            s = self.s[l] + self.s[r]
            h = 1 + max(self.height[l], self.height[r])
        self.tau.append(tau)
        self.s.append(s)
        self.ell.append(ell)
        self.nverts.append(s if tau == 0 else s + 1)
        self.height.append(h)

    def extend_for(self, g: FSLP) -> None:
        for i in range(len(self), len(g)):
            self.append_node(g, i)


def compute_stats(g: FSLP) -> VertexStats:
    stats = VertexStats()
    stats.extend_for(g)
    return stats


# ---------------------------------------------------------------------------
# preorder effects on edges, path navigation
# ---------------------------------------------------------------------------

def edge_effect(g: FSLP, stats: VertexStats, parent: int, side: str) -> Effect:
    """Effect of the edge from ``parent`` to its ``side`` ('l'/'r') child."""
    kind = g.kinds[parent]
    if kind not in (HC, VC):
        raise ValueError(f"node {parent} has no outgoing edges")
    if side not in ("l", "r"):
        raise ValueError("side must be 'l' or 'r'")
    l, r = g.lefts[parent], g.rights[parent]
    tl, tr = stats.tau[l], stats.tau[r]
    if kind == HC:
        if tl == 0 and tr == 0:
            return Effect.m00(0) if side == "l" else Effect.m00(stats.s[l])
        if tl == 0:  # parent type 1, right child carries the hole
            return Effect.m10a(0) if side == "l" else Effect.m11a(stats.s[l], 0)
        # tl == 1, tr == 0
        return Effect.m11a(0, 0) if side == "l" else Effect.m10b(stats.s[l])
    # VC
    if tr == 0:  # parent type 0
        return Effect.m01(0, stats.s[r]) if side == "l" else Effect.m00(stats.ell[l])
    return Effect.m11a(0, stats.s[r]) if side == "l" else Effect.m11a(stats.ell[l], 0)


def path_preorder(g: FSLP, stats: VertexStats, start: int, path: Iterable[str]) -> int:
    """Preorder number of the leaf reached from ``start`` along ``path``."""
    if stats.tau[start] != 0:
        raise ValueError("start node must have type 0")
    eff = Effect.identity(0)
    cur = start
    for step, side in enumerate(path):
        if g.is_leaf_node(cur):
            raise ValueError(f"path leaves the DAG at step {step}")
        eff = eff.compose(edge_effect(g, stats, cur, side))
        cur = g.lefts[cur] if side == "l" else g.rights[cur]
    if not g.is_leaf_node(cur):
        raise ValueError("path ends at an internal node")
    return eff.preorder


def preorder_to_path(g: FSLP, stats: VertexStats, start: int, k: int) -> str:
    """Ten-case descent from ``start`` to the leaf with preorder number ``k``."""
    if stats.tau[start] != 0:
        raise ValueError("start node must have type 0")
    if not (0 <= k < stats.nverts[start]):
        raise ValueError(f"preorder {k} out of range [0, {_size_text(stats.nverts[start])})")
    path: list[str] = []
    node, m = start, k
    p: Optional[int] = None  # size of the forest plugged below, when tau=1
    while not g.is_leaf_node(node):
        l, r = g.lefts[node], g.rights[node]
        kind = g.kinds[node]
        s1 = stats.s[l]
        if stats.tau[node] == 0:
            if kind == HC:
                if m < s1:
                    node, m = l, m
                    path.append("l")
                else:
                    node, m = r, m - s1
                    path.append("r")
            else:  # VC, tau(l)=1, tau(r)=0
                e1 = stats.ell[l]
                if m < e1 or e1 + stats.s[r] <= m:
                    node, m, p = l, m, stats.s[r]
                    path.append("l")
                else:
                    node, m, p = r, m - e1, None
                    path.append("r")
        else:
            if kind == HC:
                if stats.tau[l] == 0:
                    if m < s1:
                        node, m, p = l, m, None
                        path.append("l")
                    else:
                        node, m = r, m - s1
                        path.append("r")
                else:  # tau(l)=1, tau(r)=0
                    if m < s1 + p:
                        node, m = l, m
                        path.append("l")
                    else:
                        node, m, p = r, m - s1 - p, None
                        path.append("r")
            else:  # VC, tau(l)=tau(r)=1
                e1 = stats.ell[l]
                if m < e1 or e1 + stats.s[r] + p <= m:
                    node, m, p = l, m, stats.s[r] + p
                    path.append("l")
                else:
                    node, m = r, m - e1
                    path.append("r")
    return "".join(path)


def relabel_defs(g: FSLP, stats: VertexStats, node: int, k: int, label: str) -> list[tuple]:
    """Definitions, to append to ``g``, of a bottom-up copy of the path to vertex
    ``k`` of ⟦node⟧ with the leaf relabelled; the last one is the new root."""
    path = preorder_to_path(g, stats, node, k)
    chain = [node]
    for side in path:
        cur = chain[-1]
        chain.append(g.lefts[cur] if side == "l" else g.rights[cur])
    defs: list[tuple] = [(g.kinds[chain[-1]], label)]
    if not (isinstance(label, str) and label):
        raise ValueError(f"definition 0 needs a non-empty string label: {defs[0]!r}")
    for depth in range(len(path) - 1, -1, -1):
        cur = chain[depth]
        swapped = len(g) + len(defs) - 1  # the copy appended last
        if path[depth] == "l":
            defs.append((g.kinds[cur], swapped, g.rights[cur]))
        else:
            defs.append((g.kinds[cur], g.lefts[cur], swapped))
    return defs


# ---------------------------------------------------------------------------
# decompression
# ---------------------------------------------------------------------------

def evaluate(g: FSLP, node: int, budget: Optional[int] = None, stats: Optional[VertexStats] = None) -> Forest:
    """Decompress the forest / forest context produced by ``node``, in one
    preorder walk with a stack of ``(node, parent vertex, plug)``.  A plug is
    ``None`` or a linked pair ``(node, plug)``: the forest that fills a type-1
    node's hole.  ``hc`` hands it to its type-1 child, ``vc`` plugs its right
    child into its left one, and a ``leafctx`` vertex gets it as its
    children, or the hole ``*`` when there is none."""
    if stats is None:
        stats = compute_stats(g)
    if budget is None:
        budget = default_budget()
    if stats.nverts[node] > budget:
        raise BudgetExceeded(f"decompressed size {_size_text(stats.nverts[node])} > budget {budget}")
    kinds, labels, lefts, rights, tau = g.kinds, g.labels, g.lefts, g.rights, stats.tau
    out: list[str] = []
    parents: list[Optional[int]] = []
    children: list[list[int]] = []
    roots: list[int] = []
    stack: list[tuple] = [(node, None, None)]
    while stack:
        i, parent, plug = stack.pop()
        kind = kinds[i]
        if kind == HC:
            l = lefts[i]
            ctx_left = tau[l] == 1
            stack.append((rights[i], parent, None if ctx_left else plug))
            stack.append((l, parent, plug if ctx_left else None))
        elif kind == VC:
            stack.append((lefts[i], parent, (rights[i], plug)))
        else:
            v = len(out)
            out.append(labels[i])
            parents.append(parent)
            children.append([])
            (roots if parent is None else children[parent]).append(v)
            if kind == LEAFCTX:
                if plug is None:
                    out.append(HOLE)
                    parents.append(v)
                    children.append([])
                    children[v].append(v + 1)
                else:
                    stack.append((plug[0], v, plug[1]))
    if out.count(HOLE) == 1:
        return ForestContext(out, parents, children, roots)
    return Forest(out, parents, children, roots)


class _Builder:
    """Hash-consing FSLP builder: structurally equal definitions share a node."""

    def __init__(self):
        self.g = FSLP()
        self.memo: dict[tuple, int] = {}

    def mk(self, *definition) -> int:
        nid = self.memo.get(definition)
        if nid is None:
            nid = self.memo[definition] = self.g.add_node(definition)
        return nid


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def _balanced(b: _Builder, op: str, items: list[int], weights: list[int]) -> int:
    """Combine ``items`` with ``op`` splitting at the weighted midpoint."""
    if len(items) == 1:
        return items[0]
    total = sum(weights)
    acc = 0
    cut = len(items) - 1
    for j in range(1, len(items)):
        acc += weights[j - 1]
        if 2 * acc >= total:
            cut = j
            break
    left = _balanced(b, op, items[:cut], weights[:cut])
    right = _balanced(b, op, items[cut:], weights[cut:])
    return b.mk(op, left, right)


def compress_forest(f: Forest) -> FSLP:
    """Build a valid expression for ``f`` of height O(log |f|) and fold it.

    Sibling sequences are combined at the weighted midpoint; trees are
    decomposed along the heaviest root-to-leaf path, whose context pieces
    are recombined with vertical concatenation (also weight-balanced).
    Folding happens on the fly through hash-consing, so repeated shapes
    (rows a^n, deep unary chains) collapse to O(log n) nodes.
    """
    if len(f) == 0:
        raise ValueError("cannot compress the empty forest")
    size = [1] * len(f)
    for v in range(len(f) - 1, -1, -1):
        for c in f.children[v]:
            size[v] += size[c]
    b = _Builder()

    def forest_part(vs: list[int]) -> int:
        if len(vs) == 1:
            return tree_part(vs[0])
        items = [tree_part(v) for v in vs]
        return _balanced(b, HC, items, [size[v] for v in vs])

    def tree_part(v: int) -> int:
        if not f.children[v]:
            return b.mk(LEAF, f.labels[v])
        # heaviest path from v down to a leaf
        path = [v]
        cur = v
        while f.children[cur]:
            cur = max(f.children[cur], key=lambda c: size[c])
            path.append(cur)
        pieces: list[int] = []
        weights: list[int] = []
        for i in range(len(path) - 2):
            vi, nxt = path[i], path[i + 1]
            kids = f.children[vi]
            at = kids.index(nxt)
            piece = b.mk(LEAFCTX, f.labels[nxt])
            w = size[nxt]
            if at > 0:
                piece = b.mk(HC, forest_part(list(kids[:at])), piece)
                w += sum(size[c] for c in kids[:at])
            if at + 1 < len(kids):
                piece = b.mk(HC, piece, forest_part(list(kids[at + 1 :])))
                w += sum(size[c] for c in kids[at + 1 :])
            # the piece's weight no longer counts the subtree below nxt
            pieces.append(piece)
            weights.append(w - size[nxt] + 1)
        last = path[-2]  # parent of the final leaf on the path
        pieces.append(forest_part(list(f.children[last])))
        weights.append(sum(size[c] for c in f.children[last]))
        body = _balanced(b, VC, pieces, weights)
        return b.mk(VC, b.mk(LEAFCTX, f.labels[v]), body)

    b.g.root = forest_part(list(f.roots))
    return b.g


def _halving(b: _Builder, n: int, leaf_kind: str, join: str, label: str) -> int:
    """Node for ``n`` copies of a ``leaf_kind`` leaf joined by ``join``: the
    leaf for 1, otherwise the join of the ceil(n/2) and floor(n/2) nodes.

    One node per distinct size, at most two per halving level, created
    children first with the ceil half before the floor half; the explicit
    stack holds O(log n) sizes, so any ``n`` builds without recursion.
    """
    memo: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack[-1]
        if m in memo:
            stack.pop()
        elif m == 1:
            memo[1] = b.mk(leaf_kind, label)
        elif m - m // 2 not in memo:
            stack.append(m - m // 2)
        elif m // 2 not in memo:
            stack.append(m // 2)
        else:
            memo[m] = b.mk(join, memo[m - m // 2], memo[m // 2])
    return memo[n]


def row_fslp(label: str, n: int) -> FSLP:
    """f-SLP for the forest of ``n`` sibling ``label`` vertices, O(log n) nodes."""
    if n < 1:
        raise ValueError("n must be positive")
    b = _Builder()
    b.g.root = _halving(b, n, LEAF, HC, label)
    return b.g


def chain_fslp(label: str, depth: int) -> FSLP:
    """f-SLP for the unary chain of ``depth`` vertices, O(log depth) nodes."""
    if depth < 1:
        raise ValueError("depth must be positive")
    b = _Builder()
    if depth == 1:
        b.g.root = b.mk(LEAF, label)
    else:
        b.g.root = b.mk(VC, _halving(b, depth - 1, LEAFCTX, VC, label), b.mk(LEAF, label))
    return b.g


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def dumps(g: FSLP) -> str:
    """The ``fslp v1`` text of ``g``; raises ValueError on a label that
    ``loads`` could not read back (empty, or holding whitespace or '#')."""
    lines = ["fslp v1"]
    for i in range(len(g)):
        kind = g.kinds[i]
        if kind in (LEAF, LEAFCTX):
            label = g.labels[i]
            if not isinstance(label, str) or label.split() != [label] or "#" in label:
                raise ValueError(f"node {i}: label {label!r} cannot be written to an "
                                 "f-SLP file (empty, or holds whitespace or '#')")
            lines.append(f"node {i} {kind} {label}")
        else:
            lines.append(f"node {i} {kind} {g.lefts[i]} {g.rights[i]}")
    if g.root is not None:
        lines.append(f"root {g.root}")
    return "\n".join(lines) + "\n"


def _int_field(text: str, lineno: int, what: str) -> int:
    # held to the default int/str digit limit whatever limit is set (the CLI
    # lifts it to print sizes): no field of an input costs quadratic time
    try:
        if len(text) <= sys.int_info.default_max_str_digits:
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"line {lineno}: {what} {text!r} is not an integer")


def loads(text: str) -> FSLP:
    g = FSLP()
    lines = text.splitlines()
    if not lines or lines[0].split("#", 1)[0].strip() != "fslp v1":
        raise ValueError("missing 'fslp v1' header")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "root":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: bad root line")
            g.root = _int_field(parts[1], lineno, "root")
            if not (0 <= g.root < len(g)):
                raise ValueError(f"line {lineno}: root references unknown node")
            continue
        if parts[0] != "node" or len(parts) < 4:
            raise ValueError(f"line {lineno}: expected 'node <id> <kind> ...'")
        nid, kind = _int_field(parts[1], lineno, "node id"), parts[2]
        if nid != len(g):
            raise ValueError(f"line {lineno}: node ids must be dense and in order")
        if kind in (LEAF, LEAFCTX):
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: leaf takes one label")
            g.add_node((kind, parts[3]))
        elif kind in (HC, VC):
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: {kind} takes two child ids")
            left = _int_field(parts[3], lineno, "child id")
            g.add_node((kind, left, _int_field(parts[4], lineno, "child id")))
        else:
            raise ValueError(f"line {lineno}: unknown kind {kind!r}")
    return g


def gc(g: FSLP, keep: Iterable[int]) -> tuple[FSLP, dict[int, int]]:
    """Drop nodes unreachable from ``keep``; returns (new FSLP, id map)."""
    live: set[int] = set()
    stack = list(keep)
    while stack:
        i = stack.pop()
        if i in live:
            continue
        live.add(i)
        if not g.is_leaf_node(i):
            stack.append(g.lefts[i])
            stack.append(g.rights[i])
    out = FSLP()
    remap: dict[int, int] = {}
    for i in sorted(live):
        if g.is_leaf_node(i):
            remap[i] = out.add_node((g.kinds[i], g.labels[i]))
        else:
            remap[i] = out.add_node((g.kinds[i], remap[g.lefts[i]], remap[g.rights[i]]))
    if g.root is not None and g.root in remap:
        out.root = remap[g.root]
    return out, remap
