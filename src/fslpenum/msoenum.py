"""Answer-set enumeration for automaton queries over f-SLP-compressed forests.

The preprocessing is one bottom-up sweep over the f-SLP.  One walk over
a node's state pairs (left child's active/empty states x right child's)
yields both the node's configuration rows -- the states reachable with a
nonempty selection (active), with both children selecting (useful), or
with the empty selection -- and its part of the product DAG: the
successor tuples of the useful states and the edges of the active states
that skip an empty-selection sibling.  The walk depends only on the
node's row shape (its operation and its children's active and empty
rows), of which a fixed query has a bounded number, so it runs once per
shape and is kept per shape, successor tuples included.  Every other
node with that shape costs one dict lookup, its block of pids, and one
entry of its children's first pids and edge effects.  The product DAG
goes straight into the path-enumeration normalizer, every fed node's
block in one batch, with the useful configurations as targets, and is
stored only in normalized form.

Enumeration then walks witness trees: unary nodes draw (useful config,
point) pairs from frozen path sessions that carry their point; binary
nodes step through their pair's ordered successor tuples; and each
emitted answer is the set of preorder numbers read off the root-to-leaf
points.  A subtree with no choice at all (a rigid pair, see
``ProductIndex.fill_rigid``) is one node that holds its pair's record;
a record holds its children's records, so the walk expands the subtree
by following them, with no table lookup per node, while steps are still
counted on the full witness tree.  Answers come out duplicate-free with
delay linear in the answer size.
"""

from __future__ import annotations

from contextlib import closing
from typing import Iterator, NamedTuple, Optional

from .automata import DBUTA
from .dagenum import Normalizer, PathSession
from .effects import PRE_CATEGORY
from .fslp import FSLP, LEAFCTX, check_node, compute_stats


class ConfSets(NamedTuple):
    """Per (node, state) membership in the active/useful/empty classes."""

    active: list[tuple[int, ...]]
    useful: list[tuple[int, ...]]
    empty: list[tuple[int, ...]]


def build_conf_sets(g: FSLP, b: DBUTA) -> ConfSets:
    """The configuration rows of every node of ``g``: a view read off the
    per-node shapes of a fresh ``ProductIndex``, not a build phase."""
    shape_of = ProductIndex(g, b).shape_of
    return ConfSets(*([s[k] for s in shape_of] for k in range(3)))


class ProductIndex:
    """Preprocessed bundle: configuration rows, ordered successor tuples,
    per-edge effects, and the normalized product DAG with its path index.

    Node i's active (node, state) pairs are one block of pids that follows
    its active row ``act``, the first row of its ``shapes`` entry
    ``shape_of[i]``: pid ``first[i] + k`` is ``(i, act[k])``.
    ``node_of[pid]`` is the node of pair ``pid``, and ``pair`` / ``pid``
    convert both ways.  ``edges[i]`` is ``(fl, lm, fr, rm)``: the first
    pids of node i's left and right child and the effects of its left and
    right edge as ``(eps, c, kappa, d)`` tuples (None for a leaf).
    Successor tuples are kept only in the shapes: ``succ(pid)`` reads a
    pair's tuples off its shape row and adds ``fl`` / ``fr``.  The product
    edges between pairs are stored only in the normalizer ``norm``.

    ``built`` counts the nodes of ``g`` fed so far (``extend_for``): a node
    appended to ``g`` later is unknown to every table until it is fed.  The
    table from node definitions to nodes is ``g.ids``.

    ``shapes`` maps a row shape -- ``(label, is_context)`` for a leaf,
    ``(op, al, el, ar, er)`` (the children's active and empty rows) for an
    inner node -- to what the state-pair walk (``_walk``) found for it:
    ``(act, useful, emp, succ, rows, work)``: the node's configuration
    rows; per active state, its successor tuples as index pairs into
    ``al`` x ``ar`` (None outside the useful row); per active state, its
    left- and right-edge children as sorted indices into ``al`` / ``ar``
    and its target flag; and the walk's ``work`` increment.  An index
    into a child's active row is also its offset in the child's pid
    block.  Entries hold states only, never pids or nodes, so one entry
    serves every node of its shape.

    ``rigid[pid]`` is the pair's rigid record (``fill_rigid``), or None if
    its witness subtree holds a choice.  Records are filled lazily, the
    first time a stream meets a pair, so building, extending and
    relabelling cost what they did, and a fill visits only pairs of the
    witness tree being built; ``rigid`` is the memo that every stream
    shares.  A binary record holds its children's record tuples, not
    their pids, so records form a DAG of tuples whose unfolding can be
    exponential in the f-SLP's size: nothing hashes, reprs or
    deep-compares a whole record.  A record depends only on its pair's
    sub-DAG, and pids are append-only, so it stays valid across
    ``extend_for`` and for old snapshots; concurrent fills write equal
    values, which may leave a record whose child is an equal but
    distinct tuple from the one ``rigid`` holds for that child."""

    def __init__(self, g: FSLP, b: DBUTA):
        self.g = g
        self.b = b
        self.stats = compute_stats(g)
        self.first: list[int] = []
        self.shape_of: list[tuple] = []
        self.node_of: list[int] = []
        self.edges: list[Optional[tuple]] = []
        self.norm = Normalizer(PRE_CATEGORY)
        self.rigid: dict[int, Optional[tuple]] = {}
        self.shapes: dict[tuple, tuple] = {}
        self.work = 0  # state-pair iterations, for maintenance-cost checks
        self.built = 0
        self.extend_for(len(g))

    @property
    def pairs(self) -> range:
        """The pids, one per active (node, state) pair."""
        return range(len(self.node_of))

    def pair(self, pid: int) -> tuple[int, int]:
        """The (node, state) pair of ``pid``."""
        node = self.node_of[pid]
        return node, self.shape_of[node][0][pid - self.first[node]]

    def pid(self, node: int, q: int) -> int:
        """The pid of the active pair (node, q); ValueError if q is not active."""
        return self.first[node] + self.shape_of[node][0].index(q)

    def succ(self, pid: int) -> Optional[list]:
        """The successor tuples of ``pid`` in order, as the pids ``(pid_l, pid_r)``
        of its children's pairs: () for a leaf pair, None outside the useful row."""
        node = self.node_of[pid]
        tuples = self.shape_of[node][3][pid - self.first[node]]
        if not tuples:
            return tuples
        fl, _, fr, _ = self.edges[node]
        return [(fl + a, fr + c) for a, c in tuples]

    def extend_for(self, upto: int) -> None:
        """Feed nodes [built, upto) into every table (children come first).

        The state-pair walk (``_walk``) runs once per row shape, on the
        first node that has it (see ``shapes``).  Every node then costs one
        lookup of its shape, its block of pids and its ``edges`` entry, and
        its block ``(first pid, type, shape rows, edges)`` goes to one
        ``Normalizer.add_rows`` call, which places the blocks as
        ``_blocks`` yields them and finds the children's pairs at their
        first pids plus their row indices.  ``work`` still counts the walk
        that each node stands for.
        """
        self.stats.extend_for(self.g)
        with closing(self._blocks(upto)) as blocks:  # counts settle even if add_rows raises
            self.norm.add_rows(blocks)

    def _blocks(self, upto: int) -> Iterator[tuple]:
        """Yield the normalizer block of each node in [built, upto), and
        enter the node in the other tables once its block is placed.  The
        tables are bound once.  A walk that raises ends the batch: the
        nodes yielded before it are placed and entered, so every table
        stays at the fed nodes."""
        g, shapes, stats = self.g, self.shapes, self.stats
        first, shape_of, node_of, edges_of = self.first, self.shape_of, self.node_of, self.edges
        kinds, labels, lefts, rights = g.kinds, g.labels, g.lefts, g.rights
        tau, lms, rms = stats.tau, stats.lm, stats.rm
        work = 0
        try:
            for i in range(self.built, upto):
                l = lefts[i]
                if l is None:
                    key = (labels[i], kinds[i] == LEAFCTX)
                    edges = None
                else:
                    r = rights[i]
                    sl, sr = shape_of[l], shape_of[r]
                    key = (kinds[i], sl[0], sl[2], sr[0], sr[2])
                    edges = (first[l], lms[i], first[r], rms[i])
                shape = shapes.get(key)
                if shape is None:
                    shape = shapes[key] = self._walk(key)
                act, _, _, _, rows, w = shape
                f = len(node_of)  # one int object: a target's omega shares it
                yield f, tau[i], rows, edges
                first.append(f)
                shape_of.append(shape)
                node_of += [i] * len(act)
                edges_of.append(edges)
                work += w
        finally:
            self.work += work
            self.built = len(first)

    def _walk(self, key: tuple) -> tuple:
        """The state-pair walk of one row shape; returns its ``shapes`` entry.

        A leaf's one active state is useful and has no successor tuples.
        For an inner node, active x active gives the useful states and their
        successor tuples, active x empty (and mirrored) the other active
        states and the product edges, and empty x empty the empty states.
        """
        b = self.b
        if len(key) == 2:
            qa = b.delta0(*key, 1)
            return (qa,), (qa,), (b.delta0(*key, 0),), ((),), (((), (), True),), 1
        op, al, el, ar, er = key
        succ: dict[int, list[tuple[int, int]]] = {}
        ledges: dict[int, set[int]] = {}
        redges: dict[int, set[int]] = {}
        for a, q1 in enumerate(al):
            for c, q2 in enumerate(ar):
                succ.setdefault(b.delta2(q1, q2, op), []).append((a, c))
            for qe in er:
                ledges.setdefault(b.delta2(q1, qe, op), set()).add(a)
        emp = set()
        for qe in el:
            for c, q2 in enumerate(ar):
                redges.setdefault(b.delta2(qe, q2, op), set()).add(c)
            for qf in er:
                emp.add(b.delta2(qe, qf, op))
        act = tuple(sorted(succ.keys() | ledges.keys() | redges.keys()))
        rows = tuple(
            (tuple(sorted(ledges.get(q, ()))), tuple(sorted(redges.get(q, ()))), q in succ) for q in act
        )
        work = (len(al) + len(el)) * (len(ar) + len(er))
        work += sum(1 + len(li) + len(ri) for li, ri, _ in rows)
        succ_rows = tuple(tuple(succ[q]) if q in succ else None for q in act)
        return act, tuple(sorted(succ)), tuple(sorted(emp)), succ_rows, rows, work

    def fill_rigid(self, pid: int) -> Optional[tuple]:
        """Fill the rigid records of ``pid`` and of the pairs its record
        needs, children first, with an explicit stack; return ``pid``'s.

        A pair is rigid when its minimal witness subtree holds no choice:
        it is a leaf pair, or it has a single path to a useful pair that is
        a leaf or has one successor tuple of two rigid pairs.  A leaf-like
        record is ``(steps, nodes, None, eps, ce)``: reached with the effect
        (c, d), its one element is ``c + eps*d + ce``.  A binary one is
        ``(steps, nodes, rec_l, *effect_l, rec_r, *effect_r)``: ``rec_l``
        and ``rec_r`` are the children's records themselves (the tuples
        ``rigid`` holds for them), and each effect is an ``(eps, c, kappa,
        d)`` tuple, the single path's effect precomposed with the left or
        right edge's.  Slot 2 is None exactly for a leaf-like record, so
        a walk goes down a subtree by following slots 2 and 7 and never
        looks a record up.  ``steps`` and ``nodes`` are what the full
        witness subtree charges and holds: ``_LEAF_STEPS`` and 1 per leaf
        pair, ``_PATH_STEPS`` and ``_PATH_NODES`` per single-path unary
        node with the child it draws.  A non-rigid pair's record is None.

        A stack entry is a bare pid on its first visit.  That visit makes
        the fill's one call per record, ``Normalizer.only_pair``, and reads
        the useful pair's one successor tuple straight off its shape row,
        adding ``fl`` / ``fr`` as ``succ`` does.  It then pushes ``(pid,
        path effect, edges entry, pid_l, pid_r)`` and above it the children
        that have no record yet, so the second visit, which pops that tuple
        once both children are filled, only reads their records and
        composes.  Children are filled first and records never change, so
        a record can hold its children's.
        """
        rec, node_of, first, shape_of = self.rigid, self.node_of, self.first, self.shape_of
        edges, only_pair = self.edges, self.norm.only_pair
        stack: list = [pid]
        while stack:
            p = stack.pop()
            if p.__class__ is int:  # first visit
                if p in rec:
                    continue
                if edges[node_of[p]] is None:
                    rec[p] = _LEAF_RECORD
                    continue
                only = only_pair(p)
                if only is None:
                    rec[p] = None
                    continue
                u, eff = only
                n = node_of[u]
                e = edges[n]
                if e is None:
                    rec[p] = (_PATH_STEPS, _PATH_NODES, None, eff[0], eff[1])
                    continue
                tuples = shape_of[n][3][u - first[n]]
                if len(tuples) > 1:
                    rec[p] = None
                    continue
                (a, c), = tuples
                pl, pr = e[0] + a, e[2] + c
                stack.append((p, eff, e, pl, pr))
                if pr not in rec:
                    stack.append(pr)
                if pl not in rec:
                    stack.append(pl)
                continue
            p, eff, e, pl, pr = p
            rl, rr = rec[pl], rec[pr]
            if rl is None or rr is None:
                rec[p] = None
                continue
            eps, ce, kappa, de = eff
            _, (le, lc, lk, ld), _, (re, rc, rk, rd) = e
            rec[p] = (
                _PATH_STEPS + rl[0] + rr[0], _PATH_NODES + rl[1] + rr[1],
                rl, eps + le * kappa, ce + le * de + lc, lk * kappa, lk * de + ld,
                rr, eps + re * kappa, ce + re * de + rc, rk * kappa, rk * de + rd,
            )
        return rec[pid]


# ---------------------------------------------------------------------------
# witness trees over the product DAG
# ---------------------------------------------------------------------------

_LEAF, _UNARY, _BINARY, _RIGID = 0, 1, 2, 3
# Steps charged on the full witness tree: a leaf's start, and a single-path
# unary node's start, its session's one iteration and its one draw, which
# together also start the node drawn; a record counts those two nodes.
_LEAF_STEPS = 1
_PATH_STEPS, _PATH_NODES = 3, 2
_LEAF_RECORD = (_LEAF_STEPS, 1, None, 0, 0)  # a leaf pair: one node, element c


class _WNode:
    """A witness-tree node for the active or useful pair ``pid``.

    Its cumulative effect from the stream's type-0 root is x -> x + c, or
    x -> (x + c, d) below a context, so two ints hold it: composed with an
    edge or path effect (eps, c_e, kappa, d_e) it becomes
    (c + eps*d + c_e, kappa*d + d_e).  A unary node's path session moves
    its point (c, d) so, edge by edge; the node keeps the next pair in
    ``buf``, for the maximality test, and its child is the only place a
    binary node is built.  A drawn leaf pair gets no node: the unary node
    keeps its element c in ``elem``, set only by that draw, and its
    ``child`` is None (a leaf is always maximal, so no advance needs it).
    A rigid pair (no choice below it) is one ``_RIGID`` node that holds
    the effect reaching the pair, with ``folded`` set to the other nodes
    of its full subtree and ``rec`` (set only on such a node) to the
    pair's record that ``ProductIndex.fill_rigid`` returned; the walk
    expands the subtree by following the record's children, never reads
    ``ProductIndex.rigid``, and never advances the node.
    ``pos`` is the node's index in the preorder of the full witness tree
    (for a rigid node, that of the last node of its subtree).
    """

    __slots__ = (
        "kind", "node", "pid", "c", "d", "child", "left", "right",
        "session", "buf", "succ", "succ_idx", "maximal", "pos", "folded", "elem", "rec",
    )

    def __init__(self, kind: int, node: int, pid: int, c: int, d: int):
        self.kind = kind
        self.node = node
        self.pid = pid
        self.c = c
        self.d = d
        self.child: Optional[_WNode] = None
        self.left: Optional[_WNode] = None
        self.right: Optional[_WNode] = None
        self.session: Optional[PathSession] = None
        self.buf: Optional[tuple] = None
        self.succ: Optional[list] = None
        self.succ_idx = 0
        self.maximal = True
        self.pos = 0
        self.folded = 0


class AnswerStream:
    """Enumerates the answer sets for one forest node of the product index.

    ``next`` returns the next answer as a list of preorder numbers (in
    witness order, not sorted) or None after the end.  ``last_steps``
    counts the instrumented work of the most recent call.  A rigid pair
    becomes one node that is charged its record's steps when started; the
    walk expands it into the answer and keeps it out of ``_pre``, the
    preorder list of nodes an advance may reach.  Every other non-leaf pair
    is a unary node that draws from a path session.  Steps are counted on
    the full witness tree, as if every rigid subtree were built node by
    node.
    """

    def __init__(self, idx: ProductIndex, node: int, record_steps: bool = False):
        check_node(node, idx.built)
        if idx.stats.tau[node] != 0:
            raise ValueError("enumeration needs a forest node (type 0)")
        self.idx = idx
        self.node = node
        b = idx.b
        first = idx.first[node]
        self._finals = [first + k for k, q in enumerate(idx.shape_of[node][0]) if b.is_final(q)]
        self._emit_empty = any(b.is_final(q) for q in idx.shape_of[node][2])
        self._state_pos = -1
        self._root: Optional[_WNode] = None
        self._pre: list[_WNode] = []
        self._last_nonmax: Optional[int] = None
        self.last_steps = 0
        self.step_log: Optional[list[int]] = [] if record_steps else None
        self.exhausted = False

    # -- construction -----------------------------------------------------

    def _start_active(self, pid: int, c: int, d: int) -> _WNode:
        """Fresh node for an active pair; its choice is not drawn yet."""
        idx = self.idx
        node = idx.node_of[pid]
        if idx.g.lefts[node] is None:
            self.last_steps += _LEAF_STEPS
            return _WNode(_LEAF, node, pid, c, d)
        if idx.norm.only_pair(pid) is not None:  # multi-path pairs are never rigid
            rec = idx.fill_rigid(pid)  # returns a filled record at once
            if rec is not None:  # no choice below: the whole subtree at once
                self.last_steps += rec[0]
                x = _WNode(_RIGID, node, pid, c, d)
                x.folded = rec[1] - 1
                x.rec = rec
                return x
        w = _WNode(_UNARY, node, pid, c, d)
        session = w.session = PathSession(idx.norm, pid, (c, d))
        w.buf = session.next()
        self.last_steps += 1 + session.last_steps
        return w

    def _draw_unary(self, w: _WNode) -> None:
        """Draw the next (useful pair, point) for a unary node and start its
        child at that useful pair, or keep a leaf pair's element in ``elem``."""
        pid, (c, d) = w.buf
        session = w.session
        w.buf = session.next()
        self.last_steps += session.last_steps + 1
        w.maximal = w.buf is None
        idx = self.idx
        node = idx.node_of[pid]
        if idx.g.lefts[node] is None:  # a leaf: kept as w's element
            w.child = None
            w.elem = c
        else:
            x = w.child = _WNode(_BINARY, node, pid, c, d)
            x.succ = idx.succ(pid)
            x.maximal = len(x.succ) == 1

    def _start_child(self, w: _WNode, side: int) -> _WNode:
        """(Re)create w's left (side 0) or right (side 1) child, the pair
        named by its current successor tuple, reached over that edge."""
        eps, ce, kappa, de = self.idx.edges[w.node][2 * side + 1]
        return self._start_active(w.succ[w.succ_idx][side], w.c + eps * w.d + ce, kappa * w.d + de)

    def _complete_below(self, w: _WNode) -> None:
        """Minimal completion of a fresh node whose choice is not yet drawn."""
        work = [w]
        while work:
            x = work.pop()
            kind = x.kind
            if kind == _BINARY:
                x.left, x.right = self._start_child(x, 0), self._start_child(x, 1)
                work.append(x.right)
                work.append(x.left)
            elif kind == _UNARY:
                self._draw_unary(x)
                if x.child is not None:
                    work.append(x.child)

    # -- walk: preorder list, answer, last non-maximal ---------------------

    def _walk(self) -> list[int]:
        answer: list[int] = []
        pre: list[_WNode] = []
        last_nonmax = None
        n = 0  # nodes of the full witness tree so far
        stack = [self._root]
        while stack:
            w = stack.pop()
            n += w.folded  # the other full-tree nodes it stands for
            w.pos = n
            n += 1
            if not w.maximal:
                last_nonmax = len(pre)
            kind = w.kind
            if kind == _LEAF:
                pre.append(w)
                answer.append(w.c)
            elif kind == _UNARY:
                pre.append(w)
                if w.child is None:  # its drawn leaf: one more full-tree node
                    n += 1
                    answer.append(w.elem)
                else:
                    stack.append(w.child)
            elif kind == _BINARY:
                pre.append(w)
                stack.append(w.right)
                stack.append(w.left)
            else:  # rigid: expanded from its record's children, kept out of pre
                todo = [(w.rec, w.c, w.d)]
                while todo:
                    r, c, d = todo.pop()
                    while r[2] is not None:  # down the left spine, right children wait
                        todo.append((r[7], c + r[8] * d + r[9], r[10] * d + r[11]))
                        c, d = c + r[3] * d + r[4], r[5] * d + r[6]
                        r = r[2]
                    answer.append(c + r[3] * d + r[4])
        self.last_steps += n  # one step per node of the full tree
        if n > 4 * len(answer) - 2:
            raise AssertionError(
                f"witness tree has {n} nodes for {len(answer)} leaves"
            )
        if len(set(answer)) != len(answer):
            raise AssertionError("answer set contains a repeated preorder number")
        self._pre = pre
        self._last_nonmax = last_nonmax
        return answer

    # -- the lexicographic successor ---------------------------------------

    def _advance(self) -> None:
        i = self._last_nonmax
        w = self._pre[i]
        # one step for the advance, one per node of the full tree before w
        self.last_steps += 1 + w.pos
        # advance the last non-maximal node, then complete minimally below it
        if w.kind == _UNARY:
            self._draw_unary(w)
            if w.child is not None:  # a drawn leaf is complete as drawn
                self._complete_below(w.child)
        else:
            w.succ_idx += 1
            w.maximal = w.succ_idx == len(w.succ) - 1
            w.left, w.right = self._start_child(w, 0), self._start_child(w, 1)
            self._complete_below(w.left)
            self._complete_below(w.right)
        # children of kept nodes that fell into the discarded suffix are
        # rebuilt minimally (their labels are fixed by the kept choice)
        for j in range(i):
            x = self._pre[j]
            if x.kind == _BINARY and x.right is not None and x.right.pos > w.pos:
                x.right = self._start_child(x, 1)
                self._complete_below(x.right)

    # -- public -------------------------------------------------------------

    def next(self) -> Optional[list[int]]:
        self.last_steps = 0
        if self.exhausted:
            return None
        if self._emit_empty:
            self._emit_empty = False
            self.last_steps = 1
            out = []
        else:
            while True:
                if self._root is None:
                    self._state_pos += 1
                    if self._state_pos >= len(self._finals):
                        self.exhausted = True
                        return None
                    self._root = self._start_active(self._finals[self._state_pos], 0, 0)
                    self._complete_below(self._root)
                    break
                if self._last_nonmax is not None:
                    self._advance()
                    break
                self._root = None
            out = self._walk()
        if self.step_log is not None:
            self.step_log.append(self.last_steps)
        return out

    def __iter__(self) -> Iterator[list[int]]:
        while True:
            item = self.next()
            if item is None:
                return
            yield item
