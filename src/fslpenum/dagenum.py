"""Constant-delay enumeration of source-to-target paths in decorated DAGs.

Preprocessing normalizes the DAG bottom-up: dead ends are pruned,
out-degree-1 vertices become shortcuts with composed morphisms, and every
other vertex becomes one normalized vertex, a fan whose arms are its live
edges.  One loop places every vertex; its disposition is two list entries,
no object.  Each normalized vertex knows the target emitted first from it
(``omega``: itself for a target, else its last arm's) and the morphism of
the way there (``gam``), so the enumeration loop emits one pair per step
with at most one silent step in between.

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


_UNFED = -2  # vertex_of entry of an original vertex that was not fed
_NO_SHORTCUT = object()  # shortcut entry of an original vertex that is no shortcut


class Normalizer:
    """Bottom-up construction of the normalized DAG with omega/gam tables.

    The normalized DAG is the only stored form of the input edges.  Each
    original vertex that is neither pruned nor a shortcut is one normalized
    vertex ``v``, a fan whose arms are its live edges in order: arm ``j``,
    for ``lo[v] <= j < lo[v + 1]``, goes by ``morph[j]`` to the normalized
    vertex ``child[j]``.  A vertex with no arm is a leaf: a target with no
    live edge.  ``obj[v]`` is the vertex's object.

    ``omega[v]`` is the original target emitted first from ``v`` and
    ``gam[v]`` the morphism of the way there.  A target emits itself first
    (``gam`` is the identity); any other vertex emits its last arm's first
    pair first (the child's ``omega``, and the arm's morphism composed with
    the child's ``gam``).  ``tail[v]`` is where the walk enters the child
    of ``v``'s last arm once the other arms are done: at -1 (all its
    pairs) below a target, else at its first arm (its first pair went out
    as ``v``'s), or not at all (None) if that child is a leaf.

    ``vertex_of[orig]`` is the normalized vertex of the original vertex
    ``orig`` (for a shortcut, its chain's end), -1 if it is pruned and
    ``_UNFED`` if it was not fed.  ``shortcut[orig]`` is a shortcut's
    morphism, else ``_NO_SHORTCUT`` (None is ε in ``WORDS``, a morphism).

    Vertices come in one at a time with their edge lists (``add_original``,
    for a ``DecoratedDAG``) or as a batch of product nodes' blocks, from
    their shape rows (``add_rows``).  ``add_original`` passes its vertex
    to ``add_rows`` as a batch of one block, so the loop in ``add_rows``
    is the one place the placement rule is stated.
    """

    def __init__(self, category: Category):
        self.category = category
        self.obj: list = []
        self.lo: list[int] = [0]  # arms of v: lo[v]:lo[v + 1]
        self.morph: list = []
        self.child: list[int] = []
        self.omega: list[int] = []
        self.gam: list = []
        self.tail: list[Optional[int]] = []
        self.vertex_of: list[int] = []
        self.shortcut: list = []

    def is_leaf(self, nid: int) -> bool:
        return self.lo[nid] == self.lo[nid + 1]

    def is_shortcut(self, orig: int) -> bool:
        return self.shortcut[orig] is not _NO_SHORTCUT

    def add_original(self, orig: int, obj, edges: Iterable[tuple], is_target: bool) -> None:
        """Feed one original vertex, after its children.

        Each of the ordered (morphism, original child) ``edges`` is resolved
        (a pruned child drops it, a shortcut composes its morphism on the
        right) and appended as an arm, and ``add_rows`` places the vertex,
        a batch of one block of one row.  An edge to a vertex that was not
        fed raises ValueError and records nothing."""
        if orig < 0:
            raise ValueError(f"unknown vertex {orig!r}")
        vertex_of, shortcut, compose = self.vertex_of, self.shortcut, self.category.compose
        morph, child, first = self.morph, self.child, self.lo[-1]
        try:
            for morphism, c in edges:
                v = vertex_of[c] if 0 <= c < len(vertex_of) else _UNFED
                if v == _UNFED:
                    raise ValueError(f"unknown vertex {c!r}")
                if v >= 0:
                    s = shortcut[c]
                    morph.append(morphism if s is _NO_SHORTCUT else compose(morphism, s))
                    child.append(v)
        except BaseException:  # a bad edge, or a composite that leaves the category
            del morph[first:], child[first:]
            raise
        gap = orig - len(vertex_of)
        if gap > 0:
            vertex_of += [_UNFED] * gap
            shortcut += [_NO_SHORTCUT] * gap
        self.add_rows(((orig, obj, (((), (), is_target),), None),))
        if gap < 0:  # a gap left earlier, or a vertex fed again
            vertex_of[orig] = vertex_of.pop()
            shortcut[orig] = shortcut.pop()

    def add_rows(self, blocks: Iterable[tuple]) -> None:
        """Feed a batch of product nodes' blocks in order, appending the
        dispositions of their original vertices; every child must be fed
        and live already, in an earlier block or before the batch.

        A block ``(orig, obj, rows, edges)`` holds the original vertices
        ``orig``, ``orig + 1``, ..., one per row, all with the object
        ``obj``.  With ``edges`` = ``(fl, lm, fr, rm)`` (None if no row has
        an edge), a row ``(li, ri, target)`` has the edges ``(lm, fl + a)``
        for ``a`` in ``li``, then ``(rm, fr + c)`` for ``c`` in ``ri``.
        Arms already past ``lo[-1]`` (``add_original``'s) are the edges of
        a row with none of its own.  A row is placed by one rule: pruned if
        it has no arm and no target, a shortcut if one arm and no target
        (its arm's child and composed morphism taken at once, never
        appended), else a fan whose arms are appended in order."""
        vertex_of, shortcut = self.vertex_of, self.shortcut
        compose, identity = self.category.compose, self.category.identity
        lo, morph, child = self.lo, self.morph, self.child
        objs, omega, gam, tail = self.obj, self.omega, self.gam, self.tail
        for orig, obj, rows, edges in blocks:
            fl, lm, fr, rm = edges or (0, None, 0, None)
            ident = identity(obj)
            for li, ri, target in rows:
                arms = len(li) + len(ri) or len(child) - lo[-1]
                if target or arms > 1:
                    for a in li:
                        c = fl + a
                        child.append(vertex_of[c])
                        s = shortcut[c]
                        morph.append(lm if s is _NO_SHORTCUT else compose(lm, s))
                    for c in ri:
                        c += fr
                        child.append(vertex_of[c])
                        s = shortcut[c]
                        morph.append(rm if s is _NO_SHORTCUT else compose(rm, s))
                    vertex_of.append(len(objs))
                    shortcut.append(_NO_SHORTCUT)
                    objs.append(obj)
                    lo.append(len(child))
                    if target:
                        omega.append(orig)
                        gam.append(ident)
                        tail.append(-1)
                    else:
                        c = child[-1]
                        omega.append(omega[c])
                        gam.append(compose(morph[-1], gam[c]))
                        tail.append(lo[c] if lo[c] < lo[c + 1] else None)
                elif not arms:
                    vertex_of.append(-1)
                    shortcut.append(_NO_SHORTCUT)
                elif li or ri:
                    c, m = (fl + li[0], lm) if li else (fr + ri[0], rm)
                    vertex_of.append(vertex_of[c])
                    s = shortcut[c]
                    shortcut.append(m if s is _NO_SHORTCUT else compose(m, s))
                else:  # add_original's one arm
                    vertex_of.append(child.pop())
                    shortcut.append(morph.pop())
                orig += 1

    def only_pair(self, source: int) -> Optional[tuple]:
        """The one ⟨target, morphism⟩ pair of ``source``, or None unless it
        has exactly one path.

        A single path means the normalized vertex is a leaf (reached directly
        or through a shortcut), and the pair equals the first
        ``PathSession.next`` from ``source``.  That call composes the
        shortcut's morphism (or the identity) with the leaf's ``gam``, which
        is the identity, so the composite is the morphism itself.
        """
        vertex_of = self.vertex_of
        v = vertex_of[source] if 0 <= source < len(vertex_of) else _UNFED
        if v == _UNFED:
            raise ValueError(f"unknown vertex {source!r}")
        if v < 0 or self.lo[v] < self.lo[v + 1]:
            return None
        s = self.shortcut[source]
        return (self.omega[v], self.gam[v] if s is _NO_SHORTCUT else s)


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

    The walk stands at vertex ``v`` with next arm index ``j`` (an index
    into the normalizer's arm lists) and keeps the rest of the walk on
    ``stack`` as ``(vertex, next arm index, morphism or point)`` entries.
    Arm index -1 means: enter the vertex and emit its ``omega`` pair
    first.  Each iteration takes one arm down to its child, entered with
    -1, and leaves the vertex's later arms on the stack: the vertex itself
    while two or more remain, else the last arm's child, entered where
    the vertex's ``tail`` says.  So a vertex emits its ``omega`` pair,
    then its arms' paths in order, less the one already emitted.
    """

    __slots__ = ("norm", "op", "v", "j", "gamma", "stack", "exhausted", "last_steps")

    def __init__(self, norm: Normalizer, source: int, point=None):
        self.norm = norm
        cat = norm.category
        self.op = cat.compose if point is None else cat.act
        vertex_of = norm.vertex_of
        v = vertex_of[source] if 0 <= source < len(vertex_of) else _UNFED
        if v == _UNFED:
            raise ValueError(f"unknown vertex {source!r}")
        self.stack: list[tuple] = []
        self.v, self.j, self.last_steps, self.exhausted = v, -1, 0, v < 0
        # a shortcut enumerates from the chain's end, its morphism pre-composed
        m = norm.shortcut[source]
        if m is not _NO_SHORTCUT:
            self.gamma = m if point is None else cat.act(point, m)
        else:
            self.gamma = point if point is not None or v < 0 else cat.identity(norm.obj[v])

    def __iter__(self):
        return iter(self.next, None)

    def next(self) -> Optional[tuple]:
        if self.exhausted:
            self.last_steps = 0
            return None
        norm = self.norm
        op, lo, stack = self.op, norm.lo, self.stack
        v, j, gamma = self.v, self.j, self.gamma
        steps = 1
        emit = None
        while True:
            if j < 0:
                emit = (norm.omega[v], op(gamma, norm.gam[v]))
                j = lo[v]
            r = lo[v + 1] - j  # arms left, arm j included
            if r:
                if r == 2:
                    t = norm.tail[v]
                    if t is not None:
                        stack.append((norm.child[j + 1], t, op(gamma, norm.morph[j + 1])))
                elif r > 2:
                    stack.append((v, j + 1, gamma))
                v, j, gamma = norm.child[j], -1, op(gamma, norm.morph[j])
            elif stack:
                v, j, gamma = stack.pop()
            else:
                self.exhausted = True
                self.last_steps = steps
                return emit
            if emit:
                self.v, self.j, self.gamma = v, j, gamma
                self.last_steps = steps
                return emit
            steps += 1


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
