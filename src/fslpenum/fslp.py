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
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Optional

from .effects import ID0, compose
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
    """Append-only node store; node id = declaration index.

    ``ids`` maps each node definition (``node_def``) to the first node with
    it.  The ``add_*`` methods always append, so a file may repeat a
    definition; ``mk`` appends only a definition no node has yet
    (hash-consing)."""

    __slots__ = ("kinds", "labels", "lefts", "rights", "ids", "root")

    def __init__(self, root: Optional[int] = None):
        self.kinds: list[str] = []
        self.labels: list[Optional[str]] = []
        self.lefts: list[Optional[int]] = []
        self.rights: list[Optional[int]] = []
        self.ids: dict[tuple, int] = {}
        self.root = root

    def __len__(self) -> int:
        return len(self.kinds)

    def _push(self, kind: str, label: Optional[str], left: Optional[int], right: Optional[int]) -> int:
        i = len(self.kinds)
        if kind in (HC, VC):
            # both children lie in [0, i): one chained comparison
            if left is None or right is None or not 0 <= left < i > right >= 0:
                raise InvalidFSLP(i, "children must reference earlier nodes")
            self.ids.setdefault((kind, left, right), i)
        else:
            self.ids.setdefault((kind, label), i)
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

    def mk(self, *definition) -> int:
        """The first node with ``definition``, appended if there is none."""
        nid = self.ids.get(definition)
        return self.add_node(definition) if nid is None else nid

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
    """Per-node type, leaf size, left size, vertex count and height, and
    the preorder effects of an inner node's left and right edges as
    ``(eps, c, kappa, d)`` tuples (``lm``, ``rm``; None for a leaf)."""

    tau: list[int] = field(default_factory=list)
    s: list[int] = field(default_factory=list)
    ell: list[Optional[int]] = field(default_factory=list)
    nverts: list[int] = field(default_factory=list)
    height: list[int] = field(default_factory=list)
    lm: list[Optional[tuple]] = field(default_factory=list)
    rm: list[Optional[tuple]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tau)

    def extend_for(self, g: FSLP) -> None:
        """Append the entries of ``g``'s nodes from ``len(self)`` on."""
        taus, ss, ells, heights = self.tau, self.s, self.ell, self.height
        for i in range(len(taus), len(g)):
            kind = g.kinds[i]
            if kind == LEAF:
                tau, s, ell, h, lm, rm = 0, 1, None, 0, None, None
            elif kind == LEAFCTX:
                tau, s, ell, h, lm, rm = 1, 1, 1, 0, None, None
            else:
                l, r = g.lefts[i], g.rights[i]
                tl, tr = taus[l], taus[r]
                tau = node_type(i, kind, tl, tr)
                # the edge effects by the ten-case rule, shapes named as in ``effects``
                if kind == HC:
                    if tl == 0:  # M00(0), M00(s_l); or M10a(0), M11a(s_l, 0) if r has the hole
                        ell = ss[l] + ells[r] if tr else None
                        lm, rm = (0, 0, 0, 0), (0, ss[l], tr, 0)
                    else:  # M11a(0, 0), M10b(s_l)
                        ell = ells[l]
                        lm, rm = (0, 0, 1, 0), (1, ss[l], 0, 0)
                else:  # VC
                    ell = None if tau == 0 else ells[l] + ells[r]
                    # M01(0, s_r), M00(ell_l); or M11a(0, s_r), M11a(ell_l, 0) if r has the hole
                    lm, rm = (0, 0, tr, ss[r]), (0, ells[l], tr, 0)
                s = ss[l] + ss[r]
                h = 1 + max(heights[l], heights[r])
            taus.append(tau)
            ss.append(s)
            ells.append(ell)
            self.nverts.append(s if tau == 0 else s + 1)
            heights.append(h)
            self.lm.append(lm)
            self.rm.append(rm)

    def repeat(self, i: int) -> None:
        """Append node ``i``'s entries again, sharing its edge tuples: the
        stats of a node with ``i``'s kind whose children have the stats of
        ``i``'s children (a copy on a relabelled path)."""
        self.tau.append(self.tau[i])
        self.s.append(self.s[i])
        self.ell.append(self.ell[i])
        self.nverts.append(self.nverts[i])
        self.height.append(self.height[i])
        self.lm.append(self.lm[i])
        self.rm.append(self.rm[i])


def compute_stats(g: FSLP) -> VertexStats:
    stats = VertexStats()
    stats.extend_for(g)
    return stats


# ---------------------------------------------------------------------------
# preorder effects on edges, path navigation
# ---------------------------------------------------------------------------

def check_node(node: int, count: int) -> None:
    """Reject ``node`` unless it is an int naming one of the first ``count`` nodes."""
    if not (isinstance(node, int) and 0 <= node < count):
        raise ValueError(f"unknown node {node}")


def path_preorder(g: FSLP, stats: VertexStats, start: int, path: Iterable[str]) -> int:
    """Preorder number of the leaf reached from ``start`` along ``path``:
    the ``c`` of its edge effects (``stats.lm`` / ``stats.rm``) composed
    from ``ID0``.  ``start`` must be a node that ``stats`` covers."""
    check_node(start, len(stats.tau))
    if stats.tau[start] != 0:
        raise ValueError("start node must have type 0")
    eff, cur = ID0, start
    for step, side in enumerate(path):
        if g.is_leaf_node(cur):
            raise ValueError(f"path leaves the DAG at step {step}")
        if side not in ("l", "r"):
            raise ValueError("side must be 'l' or 'r'")
        eff = compose(eff, stats.rm[cur] if side == "r" else stats.lm[cur])
        cur = g.lefts[cur] if side == "l" else g.rights[cur]
    if not g.is_leaf_node(cur):
        raise ValueError("path ends at an internal node")
    return eff[1]


def preorder_to_path(g: FSLP, stats: VertexStats, start: int, k: int) -> str:
    """Descent from ``start`` to the leaf with preorder number ``k`` by the
    edge effects (``stats.lm`` / ``stats.rm``).  At plug size ``p``, a right edge
    ``(eps, c, kappa, d)`` puts the right child's vertices and plug at ``c +
    eps*p`` on, spanning ``s[r] + kappa*p + d``; the rest is the left child's,
    from 0 on, with plug ``kappa_l*p + d_l``.  ``start`` must be a node
    that ``stats`` covers."""
    check_node(start, len(stats.tau))
    if stats.tau[start] != 0:
        raise ValueError("start node must have type 0")
    if not isinstance(k, int):
        raise ValueError(f"preorder {k!r} is not an integer")
    if not (0 <= k < stats.nverts[start]):
        raise ValueError(f"preorder {k} out of range [0, {_size_text(stats.nverts[start])})")
    path: list[str] = []
    node, m, p = start, k, 0
    lms, rms, rights, sizes = stats.lm, stats.rm, g.rights, stats.s
    while lms[node] is not None:  # an inner node
        (_, _, kl, dl), (eps, c, kr, dr) = lms[node], rms[node]
        r = rights[node]
        lo = c + eps * p
        if lo <= m < lo + sizes[r] + kr * p + dr:
            node, m, p = r, m - lo, kr * p + dr
            path.append("r")
        else:
            node, p = g.lefts[node], kl * p + dl
            path.append("l")
    return "".join(path)


def check_leaf_def(offset: int, d: tuple) -> None:
    """Reject the leaf definition ``d``, number ``offset`` of its batch,
    unless its label is a non-empty string other than the hole."""
    if not (isinstance(d[1], str) and d[1]):
        raise ValueError(f"definition {offset} needs a non-empty string label: {d!r}")
    if d[1] == HOLE:
        raise ValueError(f"definition {offset}: the hole {HOLE!r} is not a label: {d!r}")


def relabel_path(g: FSLP, stats: VertexStats, node: int, k: int, label: str) -> tuple[int, int]:
    """Copy the path to vertex ``k`` of ⟦node⟧ bottom-up, with the leaf
    relabelled; returns (new root, number of nodes appended).

    ``stats`` is first brought up to ``g`` (``extend_for``), and covers
    every node of ``g`` again on return, so one ``stats`` serves a chain
    of relabels.  Every check of the input runs before anything is
    appended.  A copy that some node already defines is that node
    (``g.ids``), so at most height(node)+1 nodes are appended, none if
    the label is unchanged, and the new root may be an existing node;
    ``node`` still derives the old forest.  Every ancestor of the first
    new copy names a new node, so it is new too and is appended without
    a lookup.  A copy has the kind, type, sizes, height and edge effects
    of the node it copies, so it carries that node's stats
    (``VertexStats.repeat``)."""
    stats.extend_for(g)
    path = preorder_to_path(g, stats, node, k)
    kinds, lefts, rights = g.kinds, g.lefts, g.rights
    chain, cur = [], node
    for side in path:
        chain.append(cur)
        cur = lefts[cur] if side == "l" else rights[cur]
    leaf = (kinds[cur], label)
    check_leaf_def(0, leaf)
    before = len(kinds)
    ids, tau, push, repeat = g.ids, stats.tau, g._push, stats.repeat
    copy = ids.get(leaf)
    if copy is None:
        copy = push(leaf[0], label, None, None)
        repeat(cur)
    for cur, side in zip(reversed(chain), reversed(path)):
        kind = kinds[cur]
        if side == "l":
            l, r = copy, rights[cur]
        else:
            l, r = lefts[cur], copy
        if copy < before:  # no copy appended yet: this one may exist
            old = ids.get((kind, l, r))
            if old is not None:
                copy = old
                continue
        # the children type the copy, as they typed its original
        node_type(len(kinds), kind, tau[l], tau[r])
        copy = push(kind, None, l, r)
        repeat(cur)
    return copy, len(kinds) - before


# ---------------------------------------------------------------------------
# decompression
# ---------------------------------------------------------------------------

def evaluate(g: FSLP, node: int, budget: Optional[int] = None, stats: Optional[VertexStats] = None) -> Forest:
    """Decompress the forest / forest context produced by ``node``, in one
    preorder walk with a stack of ``(node, parent vertex, plug)``.  A plug is
    ``None`` or a linked pair ``(node, plug)``: the forest that fills a type-1
    node's hole.  ``hc`` hands it to its type-1 child, ``vc`` plugs its right
    child into its left one, and a ``leafctx`` vertex gets it as its
    children, or the hole ``*`` when there is none.  Given ``stats``,
    ``node`` must be a node that they cover."""
    check_node(node, len(g.kinds) if stats is None else len(stats.tau))
    if stats is None:
        stats = compute_stats(g)
    if budget is None:
        budget = default_budget()
    if stats.nverts[node] > budget:
        raise BudgetExceeded(f"decompressed size {_size_text(stats.nverts[node])} > budget {budget}")
    kinds, labels, lefts, rights, tau = g.kinds, g.labels, g.lefts, g.rights, stats.tau
    out: list[str] = []
    parents: list[Optional[int]] = []
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
            if kind == LEAFCTX:
                if plug is None:
                    out.append(HOLE)
                    parents.append(v)
                else:
                    stack.append((plug[0], v, plug[1]))
    if tau[node] == 1:
        return ForestContext(out, parents)
    return Forest(out, parents)


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def _balanced(mk, op: str, items: list[int], pre: list[int], lo: int, hi: int) -> int:
    """Combine ``items[lo:hi]`` with ``op``, splitting at the weighted
    midpoint: the first cut whose prefix weight reaches half of the range's
    (``pre[j]`` is the weight of ``items[:j]``).  Left before right."""
    if hi - lo == 1:
        return items[lo]
    cut = bisect_left(pre, (pre[lo] + pre[hi] + 1) // 2, lo + 1, hi - 1)
    return mk(op, _balanced(mk, op, items, pre, lo, cut), _balanced(mk, op, items, pre, cut, hi))


def _forest_part(g: FSLP, f: Forest, size: list[int], vs: tuple[int, ...]) -> int:
    """Node for the sibling sequence ``vs``: its trees joined by ``hc``."""
    if len(vs) == 1:
        return _tree_part(g, f, size, vs[0])
    items = [_tree_part(g, f, size, v) for v in vs]
    pre = list(accumulate((size[v] for v in vs), initial=0))
    return _balanced(g.mk, HC, items, pre, 0, len(items))


def _tree_part(g: FSLP, f: Forest, size: list[int], v: int) -> int:
    """Node for the tree at ``v``: the pieces along its heaviest path,
    joined by ``vc``, under the ``leafctx`` of ``v``."""
    kids = f.children[v]
    if not kids:
        return g.mk(LEAF, f.labels[v])
    children, labels, mk = f.children, f.labels, g.mk
    pieces: list[int] = []
    # a piece weighs its path vertex and the sibling subtrees beside it, so
    # the prefix weight after it is size[v] minus the size of that vertex
    pre = [0]
    while True:
        at, heavy = 0, size[kids[0]]  # the first heaviest child
        for j in range(1, len(kids)):
            if size[kids[j]] > heavy:
                at, heavy = j, size[kids[j]]
        nxt = kids[at]
        if not children[nxt]:
            pieces.append(_forest_part(g, f, size, kids))
            pre.append(size[v] - 1)
            break
        piece = mk(LEAFCTX, labels[nxt])
        if at:
            piece = mk(HC, _forest_part(g, f, size, kids[:at]), piece)
        if at + 1 < len(kids):
            piece = mk(HC, piece, _forest_part(g, f, size, kids[at + 1 :]))
        pieces.append(piece)
        pre.append(size[v] - heavy)
        kids = children[nxt]
    body = _balanced(mk, VC, pieces, pre, 0, len(pieces))
    return mk(VC, mk(LEAFCTX, labels[v]), body)


def compress_forest(f: Forest) -> FSLP:
    """Build a valid expression for ``f`` of height O(log |f|) and fold it.

    Sibling sequences are combined at the weighted midpoint; trees are
    decomposed along the heaviest root-to-leaf path (the first heaviest
    child at each step), whose context pieces are recombined with vertical
    concatenation (also weight-balanced).  Folding happens on the fly
    through hash-consing, so repeated shapes (rows a^n, deep unary chains)
    collapse to O(log n) nodes.

    The work is done by module-level helpers that take the forest, its
    subtree sizes and the f-SLP as arguments, so no closure holds them and
    nothing is left as cyclic garbage.  Node ids follow the order in which
    ``mk`` first meets a definition, and that order is what ``dumps``
    writes: each piece's ``leafctx`` before the sibling forests left and
    then right of it, the pieces top down, the ``vc`` joins of the body,
    and only then the ``leafctx`` of the tree's root and its ``vc``.
    """
    if len(f) == 0:
        raise ValueError("cannot compress the empty forest")
    if HOLE in f.labels:
        raise ValueError(f"vertex {f.labels.index(HOLE)}: the hole {HOLE!r} is not a label")
    size = [1] * len(f)
    for v in range(len(f) - 1, -1, -1):
        for c in f.children[v]:
            size[v] += size[c]
    g = FSLP()
    g.root = _forest_part(g, f, size, f.roots)
    return g


def _halving(g: FSLP, n: int, leaf_kind: str, join: str, label: str) -> int:
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
            memo[1] = g.mk(leaf_kind, label)
        elif m - m // 2 not in memo:
            stack.append(m - m // 2)
        elif m // 2 not in memo:
            stack.append(m // 2)
        else:
            memo[m] = g.mk(join, memo[m - m // 2], memo[m // 2])
    return memo[n]


def row_fslp(label: str, n: int) -> FSLP:
    """f-SLP for the forest of ``n`` sibling ``label`` vertices, O(log n) nodes."""
    if n < 1:
        raise ValueError("n must be positive")
    g = FSLP()
    g.root = _halving(g, n, LEAF, HC, label)
    return g


def chain_fslp(label: str, depth: int) -> FSLP:
    """f-SLP for the unary chain of ``depth`` vertices, O(log depth) nodes."""
    if depth < 1:
        raise ValueError("depth must be positive")
    g = FSLP()
    if depth == 1:
        g.root = g.mk(LEAF, label)
    else:
        g.root = g.mk(VC, _halving(g, depth - 1, LEAFCTX, VC, label), g.mk(LEAF, label))
    return g


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def dumps(g: FSLP) -> str:
    """The ``fslp v1`` text of ``g``; raises ValueError on a label that
    ``loads`` would not read back (empty, the hole ``*``, or holding
    whitespace or '#')."""
    lines = ["fslp v1"]
    for i in range(len(g)):
        kind = g.kinds[i]
        if kind in (LEAF, LEAFCTX):
            label = g.labels[i]
            if not isinstance(label, str) or label.split() != [label] or "#" in label:
                raise ValueError(f"node {i}: label {label!r} cannot be written to an "
                                 "f-SLP file (empty, or holds whitespace or '#')")
            if label == HOLE:
                raise ValueError(f"node {i}: the hole {HOLE!r} is not a label")
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
    """The f-SLP of an ``fslp v1`` text, as ``dumps`` writes it.

    The first line is the header ``fslp v1``.  Each later line is ``node
    <id> leaf|leafctx <label>``, ``node <id> hc|vc <left id> <right id>``
    or ``root <id>``; ids are dense and in order from 0, and a child or
    the root names a node declared above it.  A ``#`` starts a comment
    that runs to the end of the line, and blank lines are skipped.  Each
    node is appended through ``FSLP._push``, so a repeated definition is
    a new node while ``ids`` keeps the first node with it.

    Every integer field is held to the default int/str digit limit,
    whatever limit the process has set, so a long field is refused at no
    quadratic cost.  Every rejection is a ``ValueError`` that names its
    line, but for the missing header.
    """
    g = FSLP()
    lines = text.splitlines()
    if not lines or lines[0].split("#", 1)[0].strip() != "fslp v1":
        raise ValueError("missing 'fslp v1' header")
    limit = sys.int_info.default_max_str_digits
    push, kinds = g._push, g.kinds
    for lineno, line in enumerate(lines[1:], start=2):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "node" or len(parts) < 4:
            if parts[0] != "root":
                raise ValueError(f"line {lineno}: expected 'node <id> <kind> ...'")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: bad root line")
            g.root = _int_field(parts[1], lineno, "root")
            if not (0 <= g.root < len(g)):
                raise ValueError(f"line {lineno}: root references unknown node")
            continue
        # a line within the digit limit holds no field past it; any other
        # line, and any field int() refuses, goes through _int_field
        short = len(line) <= limit
        try:
            nid = int(parts[1]) if short else None
        except ValueError:
            nid = None
        if nid is None:
            nid = _int_field(parts[1], lineno, "node id")
        if nid != len(kinds):
            raise ValueError(f"line {lineno}: node ids must be dense and in order")
        kind = parts[2]
        if kind == HC or kind == VC:
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: {kind} takes two child ids")
            try:
                left, right = (int(parts[3]), int(parts[4])) if short else (None, None)
            except ValueError:
                left = None
            if left is None:
                left = _int_field(parts[3], lineno, "child id")
                right = _int_field(parts[4], lineno, "child id")
            try:
                push(kind, None, left, right)
            except InvalidFSLP as exc:  # a forward or self reference
                raise ValueError(f"line {lineno}: {exc}") from None
        elif kind == LEAF or kind == LEAFCTX:
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: leaf takes one label")
            if parts[3] == HOLE:
                raise ValueError(f"line {lineno}: the hole {HOLE!r} is not a label")
            push(kind, parts[3], None, None)
        else:
            raise ValueError(f"line {lineno}: unknown kind {kind!r}")
    return g


def gc(g: FSLP, keep: Iterable[int]) -> tuple[FSLP, dict[int, int]]:
    """Drop nodes unreachable from ``keep``; returns (new FSLP, id map).
    A kept id that does not name a node of ``g`` raises ValueError."""
    live: set[int] = set()
    stack = list(keep)
    for i in stack:
        check_node(i, len(g))
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
