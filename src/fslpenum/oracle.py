"""Brute-force reference implementations, used as correctness anchors,
and the explicit forest-algebra expressions they work on.

An expression is a binary tree over horizontal ("hc") and vertical ("vc")
concatenation with leaves ``a`` and ``a_*``.  ``unfold`` spells out an
f-SLP node as one and ``fold_expr`` folds one into its minimal f-SLP;
``eval_expr`` and ``type_of`` go through that fold to ``fslp.evaluate``
and the f-SLP typing rule.  The engine never builds an expression: this
module is the only one that knows the format.

The subset and path oracles enumerate exhaustively and are budget-guarded;
the tree-level witness enumeration and the leaf preorder numbering work on
an explicit expression.  None of it shares configuration/product code with
the main engine, so agreement in tests is evidence rather than tautology.
``canonical_form`` is no oracle but a comparator: it reads the engine's
tables back as values, so that an updated structure can be compared with
a rebuild.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .automata import DBUTA, NSTA, nsta_accepts
from .dagenum import NODE, PRUNED, SHORTCUT, DecoratedDAG
from .forest import Forest
from .fslp import (
    FSLP,
    HC,
    LEAF,
    LEAFCTX,
    VC,
    BudgetExceeded,
    InvalidFSLP,
    VertexStats,
    _Builder,
    _size_text,
    compute_stats,
    default_budget,
    evaluate,
)


# ---------------------------------------------------------------------------
# forest-algebra expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class ExprLeaf:
    label: str
    ctx: bool = False  # True for a_* (an a-labelled root over the hole)

    def __repr__(self) -> str:
        return f"{self.label}*" if self.ctx else self.label


@dataclass(frozen=True, eq=False, repr=False)
class ExprNode:
    op: str  # HC or VC
    left: "Expr"
    right: "Expr"

    def __repr__(self) -> str:
        sym = "+" if self.op == HC else "/"
        return f"({self.left!r} {sym} {self.right!r})"


Expr = ExprLeaf | ExprNode


def leaf(label: str) -> ExprLeaf:
    return ExprLeaf(label)


def leafctx(label: str) -> ExprLeaf:
    return ExprLeaf(label, ctx=True)


def hc(left: Expr, right: Expr) -> ExprNode:
    return ExprNode(HC, left, right)


def vc(left: Expr, right: Expr) -> ExprNode:
    return ExprNode(VC, left, right)


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality, safe for deep expressions: equal trees, and only
    they, fold to the same f-SLP, because unfolding inverts folding."""
    fa, fb = fold_expr(a), fold_expr(b)
    return (fa.kinds, fa.labels, fa.lefts, fa.rights) == (fb.kinds, fb.labels, fb.lefts, fb.rights)


class _Flat:
    """Expression flattened to preorder-position arrays (children follow
    parents); ``leaves`` lists the leaf positions left to right."""

    __slots__ = ("kind", "label", "ctx", "left", "right", "leaves")

    def __init__(self, e: Expr):
        kind: list[str] = []
        label: list[Optional[str]] = []
        ctx: list[bool] = []
        left: list[int] = []
        right: list[int] = []
        leaves: list[int] = []
        stack: list[tuple[Expr, int, bool]] = [(e, -1, False)]
        while stack:
            node, parent, is_right = stack.pop()
            pos = len(kind)
            if parent >= 0:
                (right if is_right else left)[parent] = pos
            left.append(-1)
            right.append(-1)
            if isinstance(node, ExprLeaf):
                kind.append("leaf")
                label.append(node.label)
                ctx.append(node.ctx)
                leaves.append(pos)
            else:
                kind.append(node.op)
                label.append(None)
                ctx.append(False)
                stack.append((node.right, pos, True))
                stack.append((node.left, pos, False))
        self.kind = kind
        self.label = label
        self.ctx = ctx
        self.left = left
        self.right = right
        self.leaves = leaves

    def __len__(self) -> int:
        return len(self.kind)


def type_of(e: Expr) -> Optional[int]:
    """Validity type of the expression: 0, 1, or None when invalid (by the
    f-SLP typing rule, on its fold)."""
    g = fold_expr(e)
    try:
        return compute_stats(g).tau[g.root]
    except InvalidFSLP:
        return None


def eval_expr(e: Expr) -> Forest:
    """Evaluate a valid expression to its Forest / ForestContext; an invalid
    one raises ``InvalidFSLP``, a ``ValueError``."""
    g = fold_expr(e)
    stats = compute_stats(g)
    return evaluate(g, g.root, budget=stats.nverts[g.root], stats=stats)


def iter_subexprs(e: Expr) -> Iterator[Expr]:
    """Subexpressions of ``e`` in preorder."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ExprNode):
            stack.append(node.right)
            stack.append(node.left)


def expr_leaves(e: Expr) -> list[ExprLeaf]:
    """Leaves of the expression in left-to-right order."""
    return [x for x in iter_subexprs(e) if isinstance(x, ExprLeaf)]


def unfold(g: FSLP, node: int, budget: Optional[int] = None, stats: Optional[VertexStats] = None) -> Expr:
    """Explicit expression tree for ``node``, exponential in general.

    Shared nodes share their (immutable) subexpression objects, so building
    it costs O(node); the budget bounds the 2s - 1 positions a walk visits.
    """
    if stats is None:
        stats = compute_stats(g)
    if budget is None:
        budget = default_budget()
    size = 2 * stats.s[node] - 1
    if size > budget:
        raise BudgetExceeded(f"unfolded expression has {_size_text(size)} nodes > budget {budget}")
    out: list[Expr] = []
    for i in range(node + 1):
        kind = g.kinds[i]
        if kind == LEAF:
            out.append(leaf(g.labels[i]))
        elif kind == LEAFCTX:
            out.append(leafctx(g.labels[i]))
        else:
            out.append(ExprNode(kind, out[g.lefts[i]], out[g.rights[i]]))
    return out[node]


def fold_expr(e: Expr) -> FSLP:
    """Minimal DAG of the expression: one node per distinct subtree."""
    b = _Builder()
    out: list[int] = []
    stack: list[tuple[Expr, bool]] = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, ExprLeaf):
            out.append(b.mk(LEAFCTX if node.ctx else LEAF, node.label))
        elif expanded:
            right = out.pop()
            out.append(b.mk(node.op, out.pop(), right))
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    b.g.root = out[0]
    return b.g


def dbuta_run(b: DBUTA, e: Expr, selection: Iterable[int]) -> int:
    """State id the automaton reaches on (e, selected leaf indices)."""
    sel = set(selection)
    flat = _Flat(e)
    leaf_no = {pos: i for i, pos in enumerate(flat.leaves)}
    n = len(flat)
    state = [0] * n
    for pos in range(n - 1, -1, -1):
        if flat.kind[pos] == "leaf":
            bit = 1 if leaf_no[pos] in sel else 0
            state[pos] = b.delta0(flat.label[pos], flat.ctx[pos], bit)
        else:
            state[pos] = b.delta2(state[flat.left[pos]], state[flat.right[pos]], flat.kind[pos])
    return state[0]


def dbuta_accepts(b: DBUTA, e: Expr, selection: Iterable[int]) -> bool:
    return b.is_final(dbuta_run(b, e, selection))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 16  # subset loops run over 2^max_vertices sets
    max_paths: int = 10**5
    max_states: int = 64

    def __post_init__(self):
        if min(self.max_vertices, self.max_paths, self.max_states) <= 0:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = OracleBudget()


def brute_select(a: NSTA, f: Forest, budget: OracleBudget = DEFAULT_BUDGET) -> set[frozenset]:
    """All selected vertex sets, by checking every subset."""
    n = len(f)
    if n > budget.max_vertices:
        raise ValueError(f"{n} vertices exceed the subset budget {budget.max_vertices}")
    if a.m > budget.max_states:
        raise ValueError("state count exceeds the oracle budget")
    out: set[frozenset] = set()
    for size in range(n + 1):
        for sel in combinations(range(n), size):
            if nsta_accepts(a, f, sel):
                out.add(frozenset(sel))
    return out


def brute_paths(d: DecoratedDAG, source: int, budget: OracleBudget = DEFAULT_BUDGET) -> Counter:
    """Multiset of ⟨target, morphism⟩ over all source-to-target paths (DFS)."""
    if d.category is None:
        raise ValueError("decorated DAG needs a category")
    cat = d.category
    out: Counter = Counter()
    stack = [(source, cat.identity(d.obj[source]))]
    seen_paths = 0
    while stack:
        v, m = stack.pop()
        if v in d.targets:
            out[(v, m)] += 1
            seen_paths += 1
            if seen_paths > budget.max_paths:
                raise ValueError("path count exceeds the oracle budget")
        for em, w in reversed(d.edges[v]):
            stack.append((w, cat.compose(m, em)))
    return out


def brute_word_paths(d: DecoratedDAG, source: int, budget: OracleBudget = DEFAULT_BUDGET) -> Counter:
    """Multiset of ⟨target, label word⟩; labels None are skipped (ε)."""
    out: Counter = Counter()
    stack: list[tuple[int, tuple]] = [(source, ())]
    seen_paths = 0
    while stack:
        v, word = stack.pop()
        if v in d.targets:
            out[(v, word)] += 1
            seen_paths += 1
            if seen_paths > budget.max_paths:
                raise ValueError("path count exceeds the oracle budget")
        for lab, w in reversed(d.edges[v]):
            stack.append((w, word if lab is None else word + (lab,)))
    return out


def brute_dbuta_select(b: DBUTA, e: Expr, budget: OracleBudget = DEFAULT_BUDGET) -> set[frozenset]:
    """All accepted leaf-index subsets of the expression."""
    nleaves = len(_Flat(e).leaves)
    if nleaves > budget.max_vertices:
        raise ValueError(f"{nleaves} leaves exceed the subset budget")
    out: set[frozenset] = set()
    for size in range(nleaves + 1):
        for sel in combinations(range(nleaves), size):
            if b.is_final(dbuta_run(b, e, sel)):
                out.add(frozenset(sel))
    return out


def leaf_preorders(e: Expr) -> list[int]:
    """Preorder number in ``eval_expr(e)`` of each expression leaf, in leaf order.

    Computed arithmetically from leaf sizes / left sizes, walking the
    expression top-down; this never materializes the forest.
    """
    t = type_of(e)
    if t is None:
        raise ValueError("invalid expression")
    if t != 0:
        raise ValueError("expression has type 1 (a context); no preorder numbering")
    flat = _Flat(e)
    n = len(flat)
    s = [0] * n
    ell = [0] * n
    tau = [0] * n
    for pos in range(n - 1, -1, -1):
        if flat.kind[pos] == "leaf":
            s[pos] = 1
            if flat.ctx[pos]:
                ell[pos] = tau[pos] = 1
        else:
            l, r = flat.left[pos], flat.right[pos]
            s[pos] = s[l] + s[r]
            if flat.kind[pos] == HC:
                tau[pos] = tau[l] + tau[r]
                if tau[l] == 0 and tau[r] == 1:
                    ell[pos] = s[l] + ell[r]
                elif tau[l] == 1 and tau[r] == 0:
                    ell[pos] = ell[l]
            else:  # VC
                tau[pos] = tau[r]
                if tau[r] == 1:
                    ell[pos] = ell[l] + ell[r]
    # top-down preorder data: a number for type-0 positions, a pair for type-1
    pod: list[object] = [None] * n
    pod[0] = 0
    out: dict[int, int] = {}
    for pos in range(n):
        k = flat.kind[pos]
        if k == "leaf":
            p = pod[pos]
            out[pos] = p[0] if tau[pos] == 1 else p  # type: ignore[index]
            continue
        l, r = flat.left[pos], flat.right[pos]
        if k == HC:
            if tau[l] == 0 and tau[r] == 0:
                x = pod[pos]
                pod[l] = x
                pod[r] = x + s[l]  # type: ignore[operator]
            elif tau[l] == 0:
                x, y = pod[pos]  # type: ignore[misc]
                pod[l] = x
                pod[r] = (x + s[l], y)
            else:
                x, y = pod[pos]  # type: ignore[misc]
                pod[l] = (x, y)
                pod[r] = x + s[l] + y
        else:  # VC
            if tau[r] == 0:
                x = pod[pos]
                pod[l] = (x, s[r])
                pod[r] = x + ell[l]  # type: ignore[operator]
            else:
                x, y = pod[pos]  # type: ignore[misc]
                pod[l] = (x, y + s[r])
                pod[r] = (x + ell[l], y)
    return [out[p] for p in flat.leaves]


class _TreeEnum:
    """Witness-tree enumeration directly on an expression tree.

    Self-contained second oracle: configuration sets, the per-position
    product forest, and reachability lists are recomputed here on the
    explicit tree, without the engine's DAG machinery.
    """

    def __init__(self, e: Expr, b: DBUTA):
        flat = _Flat(e)
        self.flat = flat
        self.b = b
        n = len(flat)
        act: list[tuple[int, ...]] = [()] * n
        use: list[tuple[int, ...]] = [()] * n
        emp: list[tuple[int, ...]] = [()] * n
        for pos in range(n - 1, -1, -1):
            if flat.kind[pos] == "leaf":
                qa = b.delta0(flat.label[pos], flat.ctx[pos], 1)
                qe = b.delta0(flat.label[pos], flat.ctx[pos], 0)
                act[pos], use[pos], emp[pos] = (qa,), (qa,), (qe,)
            else:
                l, r = flat.left[pos], flat.right[pos]
                op = flat.kind[pos]
                e_s = {b.delta2(x, y, op) for x in emp[l] for y in emp[r]}
                u_s = {b.delta2(x, y, op) for x in act[l] for y in act[r]}
                a_s = set(u_s)
                a_s.update(b.delta2(x, y, op) for x in act[l] for y in emp[r])
                a_s.update(b.delta2(x, y, op) for x in emp[l] for y in act[r])
                act[pos] = tuple(sorted(a_s))
                use[pos] = tuple(sorted(u_s))
                emp[pos] = tuple(sorted(e_s))
        self.act, self.use, self.emp = act, use, emp
        self.use_sets = [frozenset(u) for u in use]
        # product forest edges per active configuration
        self.adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.succ_a: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for pos in range(n):
            if flat.kind[pos] == "leaf":
                continue
            l, r = flat.left[pos], flat.right[pos]
            op = flat.kind[pos]
            for q1 in act[l]:
                for q2 in act[r]:
                    self.succ_a.setdefault((pos, b.delta2(q1, q2, op)), []).append((q1, q2))
            for p in act[pos]:
                edges = []
                for q1 in act[l]:
                    if any(b.delta2(q1, qe, op) == p for qe in emp[r]):
                        edges.append((l, q1))
                for q2 in act[r]:
                    if any(b.delta2(qe, q2, op) == p for qe in emp[l]):
                        edges.append((r, q2))
                self.adj[(pos, p)] = edges
        self._succ_u: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.leaf_no = {pos: i for i, pos in enumerate(flat.leaves)}

    def succ_u(self, conf: tuple[int, int]) -> list[tuple[int, int]]:
        out = self._succ_u.get(conf)
        if out is None:
            out = []
            seen = set()
            stack = [conf]
            while stack:
                c = stack.pop()
                if c in seen:
                    continue
                seen.add(c)
                if c[1] in self.use_sets[c[0]]:
                    out.append(c)
                stack.extend(reversed(self.adj.get(c, ())))
            self._succ_u[conf] = out
        return out

    def answers(self, root_states: list[int]) -> Iterator[frozenset]:
        """All answer leaf-index sets, one witness tree at a time."""
        for q in root_states:
            yield from self._answers_from((0, q))

    def _answers_from(self, conf: tuple[int, int]) -> Iterator[frozenset]:
        # recursive witness construction; oracle sizes are small
        pos, q = conf
        if self.flat.kind[pos] == "leaf":
            yield frozenset((self.leaf_no[pos],))
            return
        for upos, uq in self.succ_u(conf):
            if self.flat.kind[upos] == "leaf":
                yield frozenset((self.leaf_no[upos],))
                continue
            l, r = self.flat.left[upos], self.flat.right[upos]
            for q1, q2 in self.succ_a[(upos, uq)]:
                for s1 in self._answers_from((l, q1)):
                    for s2 in self._answers_from((r, q2)):
                        yield s1 | s2


def enumerate_select_uncompressed(e: Expr, b: DBUTA) -> Iterator[frozenset]:
    """Reference answer stream on the explicit tree; emits preorder-number sets."""
    po = leaf_preorders(e)
    te = _TreeEnum(e, b)
    if any(b.is_final(q) for q in te.emp[0]):
        yield frozenset()
    finals = [q for q in te.act[0] if b.is_final(q)]
    for leaf_set in te.answers(finals):
        yield frozenset(po[i] for i in leaf_set)


def canonical_form(eds) -> tuple:
    """Value-level snapshot of an ``EnumDataStructure``, for structural
    comparison with a rebuild, read off the engine's own tables
    (configuration rows, successor tuples, edge effects and the normalized
    product DAG) without recomputing any of them.

    State ids are mapped back to state values, and pids and normalized
    vertices to (node, state value) pairs.  The orders are not
    canonicalized: configuration rows are sorted by state id, and pid
    order, successor tuples and spine edges follow them, so they
    follow the order in which the automaton interned its states.  Two
    builds compare equal only if their automata interned states in the
    same order (for example, each build on a fresh automaton, or both
    on one shared automaton).
    """
    product = eds.product
    g, conf, norm, pairs = product.g, product.conf, product.norm, product.pairs
    sval = product.b.value

    conf_part = tuple(
        (
            tuple(map(sval, conf.active[i])),
            tuple(map(sval, conf.useful[i])),
            tuple(map(sval, conf.empty[i])),
        )
        for i in range(len(g))
    )
    succ_part = tuple(
        sorted(
            (
                (pairs[pid][0], sval(pairs[pid][1])),
                tuple((sval(pairs[p1][1]), sval(pairs[p2][1])) for p1, p2 in tuples),
            )
            for pid, tuples in product.succ_a.items()
        )
    )
    eff_part = tuple(zip(product.eff_l, product.eff_r))

    def pairval(pid: int):
        node, q = pairs[pid]
        return (node, sval(q))

    owner = {
        disp[1]: orig for orig, disp in norm.source.items() if disp[0] == NODE
    }

    def normval(nid: int):
        if norm.is_leaf(nid):
            return ("leaf", pairval(norm.leaf_orig[nid]))
        return ("vertex", pairval(owner[nid]))

    prod_part = []
    for pid in range(len(pairs)):
        disp = norm.source[pid]
        if disp[0] == PRUNED:
            prod_part.append((pairval(pid), PRUNED))
        elif disp[0] == SHORTCUT:
            prod_part.append((pairval(pid), SHORTCUT, normval(disp[1]), disp[2]))
        else:
            # the resolved edges, read off the right spine below the head
            nid = v = disp[1]
            edges = []
            while not norm.is_leaf(v):
                edges.append((norm.lm[v], normval(norm.left[v])))
                r = norm.right[v]
                if norm.is_leaf(r) or r in owner:
                    edges.append((norm.rm[v], normval(r)))
                    break
                v = r
            omega = pairval(norm.leaf_orig[norm.omega[nid]])
            prod_part.append((pairval(pid), NODE, tuple(edges), omega, norm.gam[nid]))
    return (conf_part, succ_part, eff_part, tuple(prod_part))
