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

Label words are one more category (``WORDS``): ε is the identity and
concatenation builds a two-slot rope node in O(1), so the same normalizer
and session enumerate ⟨target, label word⟩ pairs.  ``FMSession`` expands
each emitted rope into its word, which makes the delay linear in the word.
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
        if not (0 <= u < len(self.obj)):
            raise ValueError(f"edge from unknown vertex {u}")
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


def _normalize(d: DecoratedDAG, category: Category) -> Normalizer:
    """Normalize ``d`` in one bottom-up pass over a topological order."""
    norm = Normalizer(category)
    for v in d.topo_order():
        norm.add_original(v, d.obj[v], d.edges[v], v in d.targets)
    return norm


def preprocess(d: DecoratedDAG) -> Normalizer:
    """Normalize ``d`` under its own category."""
    if d.category is None:
        raise ValueError("decorated DAG needs a category")
    return _normalize(d, d.category)


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
# label words: edge labels over Sigma ∪ {ε}, outputs are label words
# ---------------------------------------------------------------------------

class _Cat:
    """Rope node: the word of ``f`` followed by the word of ``g``."""

    __slots__ = ("f", "g")

    def __init__(self, f, g):
        self.f = f
        self.g = g


class WordCategory(Category):
    """Label words under concatenation, as ropes composed in O(1).

    A word is ``None`` (ε), a symbol, or a ``_Cat`` of two non-empty words;
    ε never enters a rope, so a word of k symbols has 2k - 1 nodes.
    """

    def identity(self, obj):
        return None

    def compose(self, f, g):
        if f is None:
            return g
        if g is None:
            return f
        return _Cat(f, g)


WORDS = WordCategory()


def _expand(rope) -> list:
    """The symbols of ``rope``, left to right.

    Iterative, so a rope of any depth expands in time linear in its size.
    """
    out: list = []
    if rope is None:
        return out
    emit = out.append
    stack: list = []
    push, pop = stack.append, stack.pop
    while True:
        while type(rope) is _Cat:
            push(rope.g)
            rope = rope.f
        emit(rope)
        if not stack:
            return out
        rope = pop()


def fm_preprocess(d: DecoratedDAG) -> Normalizer:
    """Normalize a symbol-labelled DAG (labels None = ε) for word enumeration."""
    return _normalize(d, WORDS)


class FMSession(PathSession):
    """Word enumeration; emits (target, word) with delay linear in the word.

    ``last_steps`` is the path iterations (at most 2) plus the rope nodes
    expanded (2k - 1 for a word of k symbols).
    """

    __slots__ = ()

    def next(self) -> Optional[tuple]:
        item = super().next()
        if item is None:
            return None
        word = _expand(item[1])
        if word:  # a rope of k symbols has 2k - 1 nodes
            self.last_steps += 2 * len(word) - 1
        return (item[0], tuple(word))
