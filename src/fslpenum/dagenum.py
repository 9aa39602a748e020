"""Constant-delay enumeration of source-to-target paths in decorated DAGs.

Preprocessing normalizes the DAG bottom-up: dead ends are pruned,
non-leaf targets get a cloned leaf behind an identity edge, out-degree-1
vertices become shortcuts with composed morphisms, and larger out-degrees
are binarized along a right spine of identity edges.  Each normalized
vertex knows the leaf reached by right edges (``omega``) and the morphism
of that right path (``gam``), so the enumeration loop emits one pair per
step with at most one silent stack pop in between.

The normalizer is incremental: vertices are fed children-first, and new
vertices may be appended later without touching existing ones (the update
machinery relies on this).

A free-monoid variant enumerates path label words in output-linear delay;
there the composed-morphism tables are replaced by a grow-only trie of
label prefixes plus shortcut tables over empty-labelled runs.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from .effects import Category


class DecoratedDAG:
    """Multi-edge DAG; per-source edge lists give edges a stable dense index."""

    def __init__(self, category: Optional[Category] = None):
        self.category = category
        self.obj: list = []
        self.edges: list[list[tuple]] = []  # per vertex: [(morphism, target), ...]
        self.targets: set[int] = set()

    def add_vertex(self, obj=None, target: bool = False) -> int:
        self.obj.append(obj)
        self.edges.append([])
        if target:
            self.targets.add(len(self.obj) - 1)
        return len(self.obj) - 1

    def add_edge(self, u: int, morphism, v: int) -> None:
        if not (0 <= v < len(self.obj)):
            raise ValueError(f"edge from {u} references unknown vertex {v}")
        self.edges[u].append((morphism, v))

    def __len__(self) -> int:
        return len(self.obj)

    def topo_order(self) -> list[int]:
        """Children-first order; raises on cycles."""
        n = len(self.obj)
        state = [0] * n  # 0 new, 1 on stack, 2 done
        order: list[int] = []
        for start in range(n):
            if state[start]:
                continue
            stack: list[tuple[int, int]] = [(start, 0)]
            state[start] = 1
            while stack:
                v, i = stack.pop()
                if i < len(self.edges[v]):
                    stack.append((v, i + 1))
                    w = self.edges[v][i][1]
                    if state[w] == 1:
                        raise ValueError("input DAG has a cycle")
                    if state[w] == 0:
                        state[w] = 1
                        stack.append((w, 0))
                else:
                    state[v] = 2
                    order.append(v)
        return order


PRUNED = "pruned"
NODE = "node"
SHORTCUT = "shortcut"


class Normalizer:
    """Bottom-up construction of the normalized binary DAG with omega/gam tables.

    The normalized DAG is the only stored form of the input edges."""

    def __init__(self, category: Category):
        self.category = category
        # normalized binary DAG
        self.obj: list = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.lm: list = []
        self.rm: list = []
        self.leaf_orig: list = []  # original vertex represented, for leaves
        self.omega: list[int] = []
        self.gam: list = []
        # original-vertex dispositions (a NODE's edges lie on its right spine)
        self.source: dict[Hashable, tuple] = {}

    def _new_vertex(self, obj) -> int:
        self.obj.append(obj)
        self.left.append(-1)
        self.right.append(-1)
        self.lm.append(None)
        self.rm.append(None)
        self.leaf_orig.append(None)
        self.omega.append(-1)
        self.gam.append(None)
        return len(self.obj) - 1

    def is_leaf(self, nid: int) -> bool:
        return self.left[nid] < 0

    def _new_leaf(self, obj, orig) -> int:
        nid = self._new_vertex(obj)
        self.leaf_orig[nid] = orig
        self.omega[nid] = nid
        self.gam[nid] = self.category.identity(obj)
        return nid

    def resolve(self, morphism, child) -> Optional[tuple]:
        """Rewrite an original edge against the child's disposition."""
        disp = self.source[child]
        if disp[0] == PRUNED:
            return None
        if disp[0] == NODE:
            return (morphism, disp[1])
        # shortcut: compose the contracted chain's morphism on the right
        return (self.category.compose(morphism, disp[2]), disp[1])

    def add_original(self, orig, obj, edges: Iterable[tuple], is_target: bool) -> tuple:
        """Feed one original vertex (children must have been fed already).

        ``edges`` is the ordered list of (morphism, original child) pairs,
        not kept.  Returns and records the vertex's disposition.
        """
        live = []
        for morphism, child in edges:
            r = self.resolve(morphism, child)
            if r is not None:
                live.append(r)
        if not live and not is_target:
            disp = (PRUNED,)
        elif not live:
            disp = (NODE, self._new_leaf(obj, orig))
        elif not is_target and len(live) == 1:
            disp = (SHORTCUT, live[0][1], live[0][0])
        else:
            if is_target:
                clone = self._new_leaf(obj, orig)
                live.append((self.category.identity(obj), clone))
            disp = (NODE, self._spine(obj, live))
        self.source[orig] = disp
        return disp

    def only_pair(self, source) -> Optional[tuple]:
        """The one ⟨target, morphism⟩ pair of ``source``, or None unless it
        has exactly one path.

        A single path means the normalized vertex is a leaf (reached directly
        or through a shortcut), and the pair equals the first
        ``PathSession.next`` from ``source``.  That call composes the
        shortcut's morphism (or the identity) with the leaf's ``gam``, which
        is the identity, so the composite is the morphism itself.
        """
        disp = self.source.get(source)
        if disp is None:
            raise ValueError(f"unknown vertex {source!r}")
        if disp[0] == PRUNED or self.left[disp[1]] >= 0:
            return None
        v = disp[1]
        return (self.leaf_orig[v], disp[2] if disp[0] == SHORTCUT else self.gam[v])

    def _spine(self, obj, live: list[tuple]) -> int:
        """Binarize >=2 edges into a right spine of identity edges."""
        ident = self.category.identity(obj)
        d = len(live)
        spine = [self._new_vertex(obj) for _ in range(d - 1)]
        for k, nid in enumerate(spine):
            self.left[nid] = live[k][1]
            self.lm[nid] = live[k][0]
            if k + 1 < d - 1:
                self.right[nid] = spine[k + 1]
                self.rm[nid] = ident
            else:
                self.right[nid] = live[d - 1][1]
                self.rm[nid] = live[d - 1][0]
        # omega/gam bottom-up along the spine
        for nid in reversed(spine):
            r = self.right[nid]
            self.omega[nid] = self.omega[r]
            self.gam[nid] = self.category.compose(self.rm[nid], self.gam[r])
        return spine[0]


def preprocess(d: DecoratedDAG) -> Normalizer:
    """Normalize ``d`` in one bottom-up pass over a topological order."""
    if d.category is None:
        raise ValueError("decorated DAG needs a category")
    norm = Normalizer(d.category)
    for v in d.topo_order():
        norm.add_original(v, d.obj[v], d.edges[v], v in d.targets)
    return norm


class PathSession:
    """One enumeration of ⟨target, morphism⟩ pairs; persistent over the normalizer.

    ``next`` returns the next pair or None once exhausted.  ``last_steps``
    counts loop iterations of the most recent call (at most 2).
    """

    __slots__ = ("norm", "v", "gamma", "stack", "flag", "exhausted", "last_steps")

    def __init__(self, norm: Normalizer, source):
        self.norm = norm
        disp = norm.source.get(source)
        if disp is None:
            raise ValueError(f"unknown vertex {source!r}")
        self.stack: list[tuple] = []
        self.flag = 1
        self.last_steps = 0
        if disp[0] == PRUNED:
            self.exhausted = True
            self.v = -1
            self.gamma = None
        elif disp[0] == NODE:
            self.exhausted = False
            self.v = disp[1]
            self.gamma = norm.category.identity(norm.obj[disp[1]])
        else:  # shortcut: enumerate from the chain target, morphism pre-composed
            self.exhausted = False
            self.v = disp[1]
            self.gamma = disp[2]

    def __iter__(self):
        while True:
            item = self.next()
            if item is None:
                return
            yield item

    def next(self) -> Optional[tuple]:
        if self.exhausted:
            self.last_steps = 0
            return None
        norm = self.norm
        compose = norm.category.compose
        it = 0
        emit = None
        while True:
            it += 1
            if self.flag:
                w = norm.omega[self.v]
                emit = (norm.leaf_orig[w], compose(self.gamma, norm.gam[self.v]))
            self.flag = 1
            if norm.left[self.v] >= 0:
                r = norm.right[self.v]
                if norm.left[r] >= 0:
                    self.stack.append((r, compose(self.gamma, norm.rm[self.v])))
                self.gamma = compose(self.gamma, norm.lm[self.v])
                self.v = norm.left[self.v]
            elif self.stack:
                self.v, self.gamma = self.stack.pop()
                self.flag = 0
            else:
                self.exhausted = True
            if emit is not None or self.exhausted:
                self.last_steps = it
                return emit


# ---------------------------------------------------------------------------
# free-monoid variant: edge labels over Sigma ∪ {ε}, outputs are label words
# ---------------------------------------------------------------------------

class FMIndex:
    """Preprocessed structure for word enumeration over a labelled DAG."""

    def __init__(self, n: int):
        # normalized binary DAG; labels are None (ε), ("s", x), or
        # ("t", x, u, f): x then the labels of the original chain u -> f
        self.left: list[int] = []
        self.right: list[int] = []
        self.llab: list = []
        self.rlab: list = []
        self.lempty: list[bool] = []
        self.rempty: list[bool] = []
        self.leaf_orig: list = []
        self.rskip: list[int] = []
        self.source: list[tuple] = [None] * n  # type: ignore[list-item]
        # original chain structure for label expansion
        self.chain_edge: dict[int, tuple] = {}  # u -> (label|None, next, in_chain)
        self.chain_jump: dict[int, int] = {}
        self.chain_emits: dict[int, bool] = {}

    def _new_vertex(self) -> int:
        self.left.append(-1)
        self.right.append(-1)
        self.llab.append(None)
        self.rlab.append(None)
        self.lempty.append(True)
        self.rempty.append(True)
        self.leaf_orig.append(None)
        self.rskip.append(-1)
        return len(self.left) - 1

    def is_leaf(self, nid: int) -> bool:
        return self.left[nid] < 0

    def expand(self, lab, out: list) -> int:
        """Append the symbols of one normalized edge label; returns symbol count."""
        if lab is None:
            return 0
        if lab[0] == "s":
            out.append(lab[1])
            return 1
        _, x, u, f = lab
        k = 0
        if x is not None:
            out.append(x)
            k += 1
        cur = u
        while cur != f:
            sym, nxt, _ = self.chain_edge[cur]
            if sym is not None:
                out.append(sym)
                k += 1
                cur = nxt
            else:
                cur = self.chain_jump[cur]
        return k


def fm_preprocess(d: DecoratedDAG) -> FMIndex:
    """Normalize a symbol-labelled DAG (labels None = ε) for word enumeration."""
    n = len(d)
    idx = FMIndex(n)
    outdeg = [len(e) for e in d.edges]
    live_edge = [[True] * len(e) for e in d.edges]
    incoming: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u in range(n):
        for j, (_, w) in enumerate(d.edges[u]):
            incoming[w].append((u, j))
    # 1. prune dead ends (cascades upward)
    pruned = [False] * n
    queue = [v for v in range(n) if outdeg[v] == 0 and v not in d.targets]
    while queue:
        v = queue.pop()
        if pruned[v]:
            continue
        pruned[v] = True
        for u, j in incoming[v]:
            if live_edge[u][j] and not pruned[u]:
                live_edge[u][j] = False
                outdeg[u] -= 1
                if outdeg[u] == 0 and u not in d.targets:
                    queue.append(u)
    # 2. chain vertices: outdeg 1 and not a target
    in_chain = [
        not pruned[v] and outdeg[v] == 1 and v not in d.targets for v in range(n)
    ]

    def live_edges(v: int) -> list[tuple]:
        return [e for e, ok in zip(d.edges[v], live_edge[v]) if ok]

    order = d.topo_order()
    chain_end: dict[int, int] = {}
    for v in order:
        if not in_chain[v]:
            continue
        (lab, w) = live_edges(v)[0]
        idx.chain_edge[v] = (lab, w, in_chain[w])
        if in_chain[w]:
            chain_end[v] = chain_end[w]
            idx.chain_emits[v] = (lab is not None) or idx.chain_emits[w]
            idx.chain_jump[v] = v if lab is not None else idx.chain_jump[w]
        else:
            chain_end[v] = w
            idx.chain_emits[v] = lab is not None
            idx.chain_jump[v] = v if lab is not None else w

    def resolve(lab, w) -> Optional[tuple]:
        """Original edge -> normalized (label, node) or None when dangling."""
        if pruned[w]:
            return None
        if in_chain[w]:
            f = chain_end[w]
            nlab = ("t", lab, w, f)
            empty = lab is None and not idx.chain_emits[w]
            return (nlab, empty, idx.source[f][1])
        nlab = None if lab is None else ("s", lab)
        return (nlab, lab is None, idx.source[w][1])

    # 3. build normalized vertices bottom-up (non-chain vertices only)
    for v in order:
        if pruned[v]:
            idx.source[v] = (PRUNED,)
            continue
        if in_chain[v]:
            continue  # handled below, after chain targets exist
        resolved = [r for r in (resolve(lab, w) for lab, w in live_edges(v)) if r]
        if not resolved:
            nid = idx._new_vertex()
            idx.leaf_orig[nid] = v
            idx.rskip[nid] = nid
            idx.source[v] = (NODE, nid)
            continue
        if v in d.targets:
            clone = idx._new_vertex()
            idx.leaf_orig[clone] = v
            idx.rskip[clone] = clone
            resolved.append((None, True, clone))
        # right spine
        spine = [idx._new_vertex() for _ in range(len(resolved) - 1)]
        for k, nid in enumerate(spine):
            lab, empty, child = resolved[k]
            idx.left[nid] = child
            idx.llab[nid] = lab
            idx.lempty[nid] = empty
            if k + 1 < len(spine):
                idx.right[nid] = spine[k + 1]
                idx.rlab[nid] = None
                idx.rempty[nid] = True
            else:
                lab, empty, child = resolved[-1]
                idx.right[nid] = child
                idx.rlab[nid] = lab
                idx.rempty[nid] = empty
        for nid in reversed(spine):
            r = idx.right[nid]
            idx.rskip[nid] = nid if not idx.rempty[nid] else idx.rskip[r]
        idx.source[v] = (NODE, spine[0])
    # sessions from chain vertices delegate to the chain end
    for v in range(n):
        if in_chain[v]:
            f = chain_end[v]
            idx.source[v] = (SHORTCUT, idx.source[f][1], v, f)
    return idx


class FMSession:
    """Word enumeration; emits (target, word) with delay linear in the word."""

    def __init__(self, idx: FMIndex, source: int):
        self.idx = idx
        disp = idx.source[source]
        if disp is None:
            raise ValueError(f"unknown vertex {source}")
        self.trie: list[tuple[int, object]] = [(-1, None)]  # (parent, label)
        self.stack: list[tuple[int, int]] = []
        self.flag = 1
        self.last_steps = 0
        self.prefix: Optional[tuple[int, int]] = None  # original chain (u, f)
        if disp[0] == PRUNED:
            self.exhausted = True
            self.v = -1
            self.alpha = 0
        else:
            self.exhausted = False
            if disp[0] == SHORTCUT:
                self.prefix = (disp[2], disp[3])
            self.v = disp[1]
            self.alpha = 0

    def _step_trie(self, alpha: int, lab, empty: bool) -> int:
        if empty:
            return alpha
        self.trie.append((alpha, lab))
        return len(self.trie) - 1

    def _assemble(self) -> tuple:
        idx = self.idx
        word: list = []
        k = 0
        if self.prefix is not None:
            u, f = self.prefix
            k += idx.expand(("t", None, u, f), word)
        labels = []
        a = self.alpha
        while a > 0:
            parent, lab = self.trie[a]
            labels.append(lab)
            a = parent
        for lab in reversed(labels):
            k += idx.expand(lab, word)
        cur = self.v
        while not idx.is_leaf(cur):
            cur = idx.rskip[cur]
            k += 1
            if idx.is_leaf(cur):
                break
            k += idx.expand(idx.rlab[cur], word)
            cur = idx.right[cur]
        self.last_steps += k
        return (idx.leaf_orig[cur], tuple(word))

    def __iter__(self):
        while True:
            item = self.next()
            if item is None:
                return
            yield item

    def next(self) -> Optional[tuple]:
        if self.exhausted:
            self.last_steps = 0
            return None
        idx = self.idx
        self.last_steps = 0
        emit = None
        while True:
            self.last_steps += 1
            if self.flag:
                emit = self._assemble()
            self.flag = 1
            if not idx.is_leaf(self.v):
                r = idx.right[self.v]
                if not idx.is_leaf(r):
                    self.stack.append(
                        (r, self._step_trie(self.alpha, idx.rlab[self.v], idx.rempty[self.v]))
                    )
                self.alpha = self._step_trie(self.alpha, idx.llab[self.v], idx.lempty[self.v])
                self.v = idx.left[self.v]
            elif self.stack:
                self.v, self.alpha = self.stack.pop()
                self.flag = 0
            else:
                self.exhausted = True
            if emit is not None or self.exhausted:
                return emit
