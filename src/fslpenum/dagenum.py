"""Constant-delay enumeration of source-to-target paths in decorated DAGs.

Preprocessing normalizes the DAG bottom-up: dead ends are pruned,
out-degree-1 vertices become shortcuts with composed morphisms, and larger
out-degrees are binarized along a right spine of identity edges.  A
target's spine emits the target itself before its edges' paths, so no
leaf is cloned for it; only a target with a single live edge gets a cloned
leaf behind an identity edge, as its spine's second arm.  Each normalized
vertex knows the vertex emitted first from it (``omega``: the leaf reached
by right edges, or a target spine's head) and the morphism of the way
there (``gam``), so the enumeration loop emits one pair per step with at
most one silent stack pop in between.

The normalizer is incremental: vertices are fed children-first, and new
vertices may be appended later without touching existing ones (the update
machinery relies on this).

Label words are one more category (``WORDS``): ε is the identity and
concatenation builds a two-slot rope node in O(1), so the same normalizer
and session enumerate ⟨target, label word⟩ pairs.  ``FMSession`` expands
each emitted rope into its word, which makes the delay linear in the word.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
_PRUNED = (PRUNED,)


class Normalizer:
    """Bottom-up construction of the normalized binary DAG with omega/gam tables.

    The normalized DAG is the only stored form of the input edges.  A vertex
    with d >= 2 live edges becomes a right spine of d - 1 vertices: vertex k
    has the k-th edge as its left arm and the next spine vertex (behind an
    identity) as its right one, and the last vertex has the last edge as
    its right arm.  ``omega`` and ``gam`` give the vertex whose original is
    emitted first, and the morphism of the way there.  A non-target spine
    emits the first path of its last edge first: every spine vertex has
    the ``omega`` of that edge's child, and as ``gam`` the edge's morphism
    composed with the child's ``gam``.  A
    target's spine emits the target itself first: its head holds
    ``leaf_orig``, and every spine vertex has ``omega`` = head and ``gam``
    = identity.  A target with one live edge would have an empty spine,
    so it gets a cloned leaf as its second edge, behind an identity.

    ``arm[v]`` is the flag with which ``PathSession`` pushes ``v``'s right
    arm: 1 on the last vertex of a target's spine (the arm's first path is
    not emitted yet), 0 when the arm is a non-leaf below the same ``omega``
    (its first path is), and -1 when the arm is a leaf whose one path
    ``omega`` already gave (it is not pushed).

    ``source[orig]`` is the disposition of the original vertex ``orig``,
    or None if it was not fed: ``(PRUNED,)``, ``(NODE, head)`` or
    ``(SHORTCUT, vertex, morphism)``.

    Vertices come in one at a time with their edge lists (``add_original``,
    for a ``DecoratedDAG``) or one product node's block at a time, from its
    shape rows (``add_rows``); both place them through ``_place``.
    """

    def __init__(self, category: Category):
        self.category = category
        # normalized binary DAG
        self.obj: list = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.lm: list = []
        self.rm: list = []
        self.arm: list[int] = []
        self.leaf_orig: list = []  # original vertex emitted, for leaves and target heads
        self.omega: list[int] = []
        self.gam: list = []
        self.source: list[Optional[tuple]] = []

    def is_leaf(self, nid: int) -> bool:
        return self.left[nid] < 0

    def _new_leaf(self, obj, orig) -> int:
        nid = len(self.obj)
        self.obj.append(obj)
        self.left.append(-1)
        self.right.append(-1)
        self.lm.append(None)
        self.rm.append(None)
        self.arm.append(-1)
        self.leaf_orig.append(orig)
        self.omega.append(nid)
        self.gam.append(self.category.identity(obj))
        return nid

    def add_original(self, orig: int, obj, edges: Iterable[tuple], is_target: bool) -> tuple:
        """Feed one original vertex (children must have been fed already).

        ``edges`` is the ordered list of (morphism, original child) pairs,
        not kept: each is rewritten against its child's disposition (a
        pruned child drops it, a shortcut composes the contracted chain's
        morphism on the right).  Returns and records the vertex's
        disposition.
        """
        if orig < 0:
            raise ValueError(f"unknown vertex {orig!r}")
        source, compose = self.source, self.category.compose
        live = []
        for morphism, child in edges:
            disp = source[child]
            if disp[0] == NODE:
                live.append((morphism, disp[1]))
            elif disp[0] == SHORTCUT:
                live.append((compose(morphism, disp[2]), disp[1]))
        disp = self._place(orig, obj, live, is_target)
        if orig >= len(source):
            source.extend([None] * (orig + 1 - len(source)))
        source[orig] = disp
        return disp

    def add_rows(self, obj, rows: Iterable[tuple], edges: Optional[tuple]) -> None:
        """Feed one product node's block of original vertices, one per row,
        from ``len(source)`` on; every child must be fed and live already.
        With ``edges`` = ``(fl, lm, fr, rm)`` (None if no row has an edge),
        the vertex of a row ``(li, ri, target)`` has the edges
        ``(lm, fl + a)`` for ``a`` in ``li``, then ``(rm, fr + c)`` for ``c`` in ``ri``.
        """
        source, compose = self.source, self.category.compose
        fl, lm, fr, rm = edges or (0, None, 0, None)
        for li, ri, target in rows:
            live = []
            for a in li:
                disp = source[fl + a]
                live.append((lm, disp[1]) if disp[0] == NODE else (compose(lm, disp[2]), disp[1]))
            for c in ri:
                disp = source[fr + c]
                live.append((rm, disp[1]) if disp[0] == NODE else (compose(rm, disp[2]), disp[1]))
            orig = len(source)
            assert live or target, f"vertex {orig} has no live edge and is no target"
            source.append(self._place(orig, obj, live, target))

    def _place(self, orig: int, obj, live: list[tuple], is_target: bool) -> tuple:
        """Place ``orig`` from its resolved live edges; returns its disposition:
        pruned or a leaf (no live edge), a shortcut (one, and no target), or
        a right spine (see the class docstring for a target's spine)."""
        if not live:
            return (NODE, self._new_leaf(obj, orig)) if is_target else _PRUNED
        if len(live) == 1 and not is_target:
            return (SHORTCUT, live[0][1], live[0][0])
        ident = self.category.identity(obj)
        if len(live) == 1:  # a target: a cloned leaf is its spine's second arm
            live.append((ident, self._new_leaf(obj, orig)))
            is_target = False
        head = len(self.obj)
        last_m, last = live[-1]
        # interior right arms are identities, so the whole spine shares one
        # omega and gam: the last arm's, or the target's own
        if is_target:
            arm, omega, gam = 1, head, ident
        else:
            arm = 0 if self.left[last] >= 0 else -1
            omega, gam = self.omega[last], self.category.compose(last_m, self.gam[last])
        for k in range(len(live) - 1):
            m, child = live[k]
            self.obj.append(obj)
            self.left.append(child)
            self.lm.append(m)
            self.right.append(head + k + 1)
            self.rm.append(ident)
            self.arm.append(0)
            self.leaf_orig.append(None)
            self.omega.append(omega)
            self.gam.append(gam)
        self.right[-1], self.rm[-1], self.arm[-1] = last, last_m, arm
        self.leaf_orig[head] = orig if is_target else None
        return (NODE, head)

    def only_pair(self, source: int) -> Optional[tuple]:
        """The one ⟨target, morphism⟩ pair of ``source``, or None unless it
        has exactly one path.

        A single path means the normalized vertex is a leaf (reached directly
        or through a shortcut), and the pair equals the first
        ``PathSession.next`` from ``source``.  That call composes the
        shortcut's morphism (or the identity) with the leaf's ``gam``, which
        is the identity, so the composite is the morphism itself.
        """
        src = self.source
        disp = src[source] if 0 <= source < len(src) else None
        if disp is None:
            raise ValueError(f"unknown vertex {source!r}")
        if disp[0] == PRUNED or self.left[disp[1]] >= 0:
            return None
        v = disp[1]
        return (self.leaf_orig[v], disp[2] if disp[0] == SHORTCUT else self.gam[v])


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
    counts loop iterations of the most recent call (at most 2).  Given a
    ``point``, the session carries it instead of a morphism, moves it with
    the category's ``act``, and emits ⟨target, moved point⟩ pairs.

    The walk goes left from the current vertex ``v`` and keeps the right
    arms still to visit on ``stack`` as ``(vertex, morphism or point, flag)``
    entries, pushed with the vertex's ``Normalizer.arm`` flag.  Entering a
    vertex with flag 1 emits its ``omega`` pair; flag 0 means that pair
    was already emitted higher up, so the walk only goes on to the left.
    So a spine emits its ``omega`` pair first, then its left arms' paths
    in spine order, then those of its last right arm not emitted yet (all
    of them below a target's spine).
    """

    __slots__ = ("norm", "op", "v", "gamma", "stack", "flag", "exhausted", "last_steps")

    def __init__(self, norm: Normalizer, source: int, point=None):
        self.norm = norm
        cat = norm.category
        self.op = cat.compose if point is None else cat.act
        src = norm.source
        disp = src[source] if 0 <= source < len(src) else None
        if disp is None:
            raise ValueError(f"unknown vertex {source!r}")
        self.stack: list[tuple] = []
        self.flag = 1
        self.last_steps = 0
        self.exhausted = disp[0] == PRUNED
        self.v = v = -1 if self.exhausted else disp[1]
        # a shortcut enumerates from the chain's end, its morphism pre-composed
        if disp[0] == SHORTCUT:
            self.gamma = disp[2] if point is None else cat.act(point, disp[2])
        else:
            self.gamma = point if point is not None or v < 0 else cat.identity(norm.obj[v])

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
        op, left, stack = self.op, norm.left, self.stack
        v, gamma, flag = self.v, self.gamma, self.flag
        it = 0
        emit = None
        while True:
            it += 1
            if flag:
                emit = (norm.leaf_orig[norm.omega[v]], op(gamma, norm.gam[v]))
            nxt = left[v]
            if nxt >= 0:
                a = norm.arm[v]
                if a >= 0:
                    stack.append((norm.right[v], op(gamma, norm.rm[v]), a))
                gamma = op(gamma, norm.lm[v])
                v, flag = nxt, 1
            elif stack:
                v, gamma, flag = stack.pop()
            else:
                self.exhausted = True
                self.last_steps = it
                return emit
            if emit is not None:
                self.v, self.gamma, self.flag = v, gamma, flag
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
