import hashlib
import math
import random
from functools import partial

import pytest

from fslpenum import (
    FSLP,
    BudgetExceeded,
    Effect,
    Forest,
    ForestContext,
    InvalidFSLP,
    chain_fslp,
    compress_forest,
    compute_stats,
    edge_effect,
    eval_expr,
    evaluate,
    expr_equal,
    fold_expr,
    hc,
    leaf,
    leaf_preorders,
    leafctx,
    parse_term,
    path_preorder,
    preorder_to_path,
    relabel_path,
    row_fslp,
    serialize_term,
    unfold,
    vc,
)
from fslpenum import fslp as fslp_mod
from fslpenum.automata import multivar_reduce
from fslpenum.fixtures import (
    SHARED_FSLP_GREEN_PATH,
    SHARED_FSLP_GREEN_PREORDER,
    random_term,
    shared_subtree_fslp,
)

from conftest import (
    bytecodes,
    check_counts_double,
    check_stats,
    doubling_ratios,
    random_expr,
    random_forest,
    unique_term,
)


def layer_bytecodes(layer: str, sizes=(1000, 2000, 4000, 8000)) -> list:
    """Bytecodes of ``compress_forest``, ``loads`` or ``evaluate`` (with
    stats), as ``layer`` names, on the forest of ``unique_term(n)`` or its
    f-SLP, per size n."""
    counts = []
    for n in sizes:
        f = parse_term(unique_term(n))
        if layer == "compress":
            run = partial(compress_forest, f)
        elif layer == "loads":
            run = partial(fslp_mod.loads, fslp_mod.dumps(compress_forest(f)))
        else:
            g = compress_forest(f)
            run = partial(evaluate, g, g.root, stats=compute_stats(g))
        counts.append(bytecodes(run))
    return counts


def first_ids(g):
    """Each node definition of ``g`` mapped to the first node with it."""
    first = {}
    for i in range(len(g)):
        first.setdefault(g.node_def(i), i)
    return first


def all_paths(g, stats, start):
    out = {}
    stack = [(start, "")]
    while stack:
        v, p = stack.pop()
        if g.is_leaf_node(v):
            out[p] = path_preorder(g, stats, start, p)
        else:
            stack.append((g.lefts[v], p + "l"))
            stack.append((g.rights[v], p + "r"))
    return out


class TestStats:
    def test_leaves(self):
        g = FSLP()
        a = g.add_leaf("a")
        actx = g.add_leafctx("a")
        st = compute_stats(g)
        assert (st.tau[a], st.s[a]) == (0, 1) and st.ell[a] is None
        assert (st.tau[actx], st.s[actx], st.ell[actx]) == (1, 1, 1)

    def test_folded_worked_forest(self):
        f = parse_term("a(ba(a))bcb(c(ab))")
        g = compress_forest(f)
        st = compute_stats(g)
        assert st.s[g.root] == 10

    def test_vertical_chain(self):
        k = 17
        g = FSLP()
        actx = g.add_leafctx("a")
        node = g.add_leaf("a")
        for _ in range(k):
            node = g.add_vc(actx, node)
        st = compute_stats(g)
        assert st.s[node] == k + 1
        assert st.nverts[node] == k + 1
        assert st.height[node] == k

    def test_invalid_vc_reports_node(self):
        g = FSLP()
        a = g.add_leaf("a")
        bad = g.add_vc(a, a)
        with pytest.raises(InvalidFSLP) as err:
            compute_stats(g)
        assert err.value.node == bad

    def test_invalid_hc_two_contexts(self):
        g = FSLP()
        a = g.add_leafctx("a")
        g.add_hc(a, a)
        with pytest.raises(InvalidFSLP):
            compute_stats(g)

    def test_forward_reference_rejected(self):
        g = FSLP()
        with pytest.raises(InvalidFSLP):
            g.add_hc(0, 1)

    def test_counts_match_unfolding(self, rng):
        for _ in range(60):
            e = random_expr(rng, 4)
            g = fold_expr(e)
            st = compute_stats(g)
            f = eval_expr(e)
            assert st.s[g.root] == len(f)
            assert st.nverts[g.root] == len(f)


class TestEdgeEffects:
    def test_hc_forest_children(self):
        g = FSLP()
        a = g.add_leaf("a")
        b = g.add_leaf("b")
        ab = g.add_hc(a, b)
        st = compute_stats(g)
        assert edge_effect(g, st, ab, "l") == Effect.m00(0)
        assert edge_effect(g, st, ab, "r") == Effect.m00(1)

    def test_vc_left_gets_hole_size(self):
        g = FSLP()
        actx = g.add_leafctx("a")
        b = g.add_leaf("b")
        bb = g.add_hc(b, b)
        node = g.add_vc(actx, bb)
        st = compute_stats(g)
        assert edge_effect(g, st, node, "l") == Effect.m01(0, 2)
        assert edge_effect(g, st, node, "r") == Effect.m00(1)

    def test_vc_both_contexts(self):
        g = FSLP()
        actx = g.add_leafctx("a")
        node = g.add_vc(actx, actx)
        st = compute_stats(g)
        assert edge_effect(g, st, node, "l") == Effect.m11a(0, 1)
        assert edge_effect(g, st, node, "r") == Effect.m11a(1, 0)

    def test_hc_mixed_types(self):
        g = FSLP()
        a = g.add_leaf("a")
        actx = g.add_leafctx("a")
        fwd = g.add_hc(a, actx)  # type 1, hole on the right
        rev = g.add_hc(actx, a)  # type 1, hole on the left
        st = compute_stats(g)
        assert edge_effect(g, st, fwd, "l") == Effect.m10a(0)
        assert edge_effect(g, st, fwd, "r") == Effect.m11a(1, 0)
        assert edge_effect(g, st, rev, "l") == Effect.m11a(0, 0)
        assert edge_effect(g, st, rev, "r") == Effect.m10b(1)

    def test_leaf_has_no_edges(self):
        g = FSLP()
        g.add_leaf("a")
        st = compute_stats(g)
        with pytest.raises(ValueError):
            edge_effect(g, st, 0, "l")


class TestPathNavigation:
    def test_green_path(self):
        g = shared_subtree_fslp()
        st = compute_stats(g)
        assert path_preorder(g, st, g.root, SHARED_FSLP_GREEN_PATH) == SHARED_FSLP_GREEN_PREORDER
        assert preorder_to_path(g, st, g.root, SHARED_FSLP_GREEN_PREORDER) == SHARED_FSLP_GREEN_PATH

    def test_green_path_effect_composition(self):
        g = shared_subtree_fslp()
        st = compute_stats(g)
        eff = Effect.identity(0)
        cur = g.root
        for side in SHARED_FSLP_GREEN_PATH:
            eff = eff.compose(edge_effect(g, st, cur, side))
            cur = g.lefts[cur] if side == "l" else g.rights[cur]
        assert eff == Effect.m00(14)

    def test_single_leaf_empty_path(self):
        g = FSLP()
        g.add_leaf("a")
        st = compute_stats(g)
        assert path_preorder(g, st, 0, "") == 0
        assert preorder_to_path(g, st, 0, 0) == ""

    def test_path_errors(self):
        g = shared_subtree_fslp()
        st = compute_stats(g)
        with pytest.raises(ValueError):
            path_preorder(g, st, g.root, "llllllll")  # falls off the DAG
        with pytest.raises(ValueError):
            path_preorder(g, st, g.root, "r")  # ends at an internal node
        with pytest.raises(ValueError):
            preorder_to_path(g, st, g.root, 16)  # out of range
        with pytest.raises(ValueError):
            preorder_to_path(g, st, 7, 0)  # type 1 start
        with pytest.raises(ValueError, match="^side must be 'l' or 'r'$"):
            path_preorder(g, st, 6, "lx")  # node 3, the left child of 6, is inner
        with pytest.raises(ValueError, match="^start node must have type 0$"):
            path_preorder(g, st, 7, "")  # type 1 start

    def test_bijection_on_folded_expressions(self, rng):
        for _ in range(40):
            e = random_expr(rng, 4)
            g = fold_expr(e)
            st = compute_stats(g)
            paths = all_paths(g, st, g.root)
            n = st.s[g.root]
            assert sorted(paths.values()) == list(range(n))
            assert sorted(leaf_preorders(e)) == list(range(n))

    def test_inverse_property_exhaustive(self, rng):
        for _ in range(40):
            e = random_expr(rng, 4)
            g = fold_expr(e)
            st = compute_stats(g)
            for k in range(st.s[g.root]):
                p = preorder_to_path(g, st, g.root, k)
                assert path_preorder(g, st, g.root, p) == k
        # every type-0 node of compressed forests, whose deep vc chains
        # plug nonzero forests into the contexts they descend through
        for _ in range(30):
            g = compress_forest(parse_term(random_term(rng, rng.randint(1, 200), "abc")))
            st = compute_stats(g)
            for node in range(len(g)):
                if st.tau[node] == 0:
                    for k in range(st.s[node]):
                        p = preorder_to_path(g, st, node, k)
                        assert path_preorder(g, st, node, p) == k, (node, k)

    def test_effect_constants_bit_bounded(self, rng):
        # register-width style bound: composed constants stay within O(|g|) bits
        for _ in range(30):
            e = random_expr(rng, 5)
            g = fold_expr(e)
            st = compute_stats(g)
            limit = 2 * len(g) + 4
            for p in all_paths(g, st, g.root):
                eff = Effect.identity(0)
                cur = g.root
                for side in p:
                    eff = eff.compose(edge_effect(g, st, cur, side))
                    cur = g.lefts[cur] if side == "l" else g.rights[cur]
                assert eff.c.bit_length() <= limit
                assert eff.d.bit_length() <= limit


class TestBadNodesAndPreorders:
    """A node outside [0, len(g)), or one that is not an int, is not read
    from the end of a list or used as an index, and a preorder that is not
    an int is not walked as a fraction."""

    @pytest.fixture
    def g_st(self):
        g = compress_forest(parse_term("a(b c) d"))
        return g, compute_stats(g)

    @pytest.mark.parametrize("node", [-1, 7, 1.5, 6.0])  # g has 7 nodes
    def test_unknown_node(self, g_st, node):
        g, st = g_st
        calls = [
            lambda: preorder_to_path(g, st, node, 0),
            lambda: path_preorder(g, st, node, ""),
            lambda: evaluate(g, node),
            lambda: relabel_path(g, st, node, 1, "x"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^unknown node {node}$"):
                call()
        assert len(g) == 7  # the relabel appended nothing

    def test_node_past_the_stats(self, g_st):
        # a node of g that the stats do not cover yet is unknown to the
        # stats readers, not an IndexError
        g, st = g_st
        node = g.add_hc(g.root, g.root)
        calls = [
            lambda: preorder_to_path(g, st, node, 0),
            lambda: path_preorder(g, st, node, "l"),
            lambda: evaluate(g, node, stats=st),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^unknown node {node}$"):
                call()

    @pytest.mark.parametrize("k", [1.5, "1", None])
    def test_preorder_must_be_an_int(self, g_st, k):
        g, st = g_st
        with pytest.raises(ValueError, match=f"^preorder {k!r} is not an integer$"):
            preorder_to_path(g, st, g.root, k)


class TestRelabelPath:
    def test_appended_copy_derives_the_relabelled_forest(self, rng):
        for _ in range(30):
            f = random_forest(rng, 30)
            g = compress_forest(f)
            st = compute_stats(g)
            root, k = g.root, rng.randrange(len(f))
            new_root, added = relabel_path(g, st, root, k, "c")
            check_stats(st, g)
            assert added <= st.height[root] + 1
            assert evaluate(g, new_root) == f.relabel(k, "c")
            assert evaluate(g, root) == f  # the old root is untouched

    def test_rejects_what_the_path_copy_cannot_use(self):
        g = shared_subtree_fslp()
        st = compute_stats(g)
        with pytest.raises(ValueError, match="non-empty string label"):
            relabel_path(g, st, g.root, 3, "")
        with pytest.raises(ValueError, match="out of range"):
            relabel_path(g, st, g.root, 16, "c")
        with pytest.raises(ValueError, match="type 0"):
            relabel_path(g, st, 7, 0, "c")  # node 7 is a context
        with pytest.raises(ValueError, match=r"definition 0: the hole '\*' is not a label"):
            relabel_path(g, st, g.root, 3, "*")
        assert len(g) == len(st) == 9  # nothing was appended


    def test_a_same_label_copy_is_the_old_path(self):
        g = shared_subtree_fslp()
        st = compute_stats(g)
        assert relabel_path(g, st, g.root, 3, "b") == (g.root, 0)
        new_root, added = relabel_path(g, st, g.root, 14, "d")
        assert (added, len(g)) == (6, 15)
        check_stats(st, g)
        assert relabel_path(g, st, new_root, 14, "d") == (new_root, 0)
        check_stats(st, g)

    def test_chained_relabels_on_one_stats(self):
        # the second relabel starts at a node the first appended; the stats
        # are brought up to g first
        g = compress_forest(parse_term("a(b c) d(e)"))
        st = compute_stats(g)
        r1, _ = relabel_path(g, st, g.root, 1, "x")
        check_stats(st, g)
        r2, _ = relabel_path(g, st, r1, 4, "y")
        check_stats(st, g)
        assert serialize_term(evaluate(g, r2)) == "a(xc)d(y)"
        st = compute_stats(g)
        g.add_hc(r2, r2)  # appended after the stats were taken
        r3, added = relabel_path(g, st, len(g) - 1, 0, "z")
        check_stats(st, g)
        assert added == 4 and serialize_term(evaluate(g, r3)) == "z(xc)d(y)a(xc)d(y)"


class TestDefinitionTable:
    """``FSLP.ids`` maps each definition to the first node with it,
    whichever way the nodes were appended."""

    def test_compressors_and_transforms(self, rng):
        programs = [row_fslp("a", n) for n in range(1, 70)]
        programs += [chain_fslp("a", n) for n in range(1, 70)]
        for _ in range(30):
            g = compress_forest(random_forest(rng, 40))
            programs += [g, fold_expr(unfold(g, g.root)), multivar_reduce(g, 2).fslp]
        for g in programs:
            assert g.ids == first_ids(g)

    def test_appending_methods_keep_the_first(self):
        g = shared_subtree_fslp()
        text = fslp_mod.dumps(g).replace("root 8", "node 9 leaf b\nnode 10 hc 2 4\nnode 11 hc 9 9\nroot 11")
        h = fslp_mod.loads(text)  # repeats the definitions of nodes 0 and 5
        assert h.ids == first_ids(h)
        assert (h.ids[("leaf", "b")], h.ids[("hc", 2, 4)], h.ids[("hc", 9, 9)]) == (0, 5, 11)
        out, remap = fslp_mod.gc(h, [h.root, 10])
        assert out.ids == first_ids(out)
        g.add_leaf("z")
        assert g.ids == first_ids(g)

    def test_mk_appends_only_new_definitions(self):
        g = FSLP()
        a = g.add_leaf("a")
        g.add_leaf("a")
        assert g.mk("leaf", "a") == a and len(g) == 2
        top = g.mk("hc", a, a)
        assert top == 2 and g.mk("hc", a, a) == top and len(g) == 3
        with pytest.raises(InvalidFSLP, match="earlier nodes"):
            g.mk("vc", 0, 7)
        assert len(g) == 3 and g.ids == first_ids(g)


class TestUnfoldEvaluate:
    def test_shared_fixture_unfolds_to_16_vertices(self):
        g = shared_subtree_fslp()
        e = unfold(g, g.root)
        f = eval_expr(e)
        assert len(f) == 16
        assert serialize_term(f) == "a(" + "b" * 15 + ")"
        assert evaluate(g, g.root) == f

    def test_leaf(self):
        g = FSLP()
        g.add_leaf("a")
        assert expr_equal(unfold(g, 0), leaf("a"))
        assert serialize_term(evaluate(g, 0)) == "a"

    def test_fold_then_unfold_identity(self, rng):
        for _ in range(60):
            e = random_expr(rng, 4)
            g = fold_expr(e)
            assert expr_equal(unfold(g, g.root), e)

    def test_budget_guard(self):
        g = row_fslp("a", 2**30)
        with pytest.raises(BudgetExceeded):
            unfold(g, g.root, budget=1000)
        with pytest.raises(BudgetExceeded):
            evaluate(g, g.root, budget=1000)

    def test_budget_message_past_the_digit_limit(self):
        # 2**15000 has 4516 digits, past the interpreter's int/str limit:
        # the size still formats, so the error stays a BudgetExceeded
        g = row_fslp("a", 2**15000)
        with pytest.raises(BudgetExceeded, match=r"size at least 2\*\*15000 > budget 1000$"):
            evaluate(g, g.root, budget=1000)

    @pytest.mark.timing
    def test_evaluate_time_doubles_with_size(self):
        # one preorder walk over the f-SLP: each doubling of the forest must
        # cost at most 3x (``doubling_ratios``: interleaved, best of five,
        # CPU time of this process from a collected heap that no longer
        # holds the last result)
        sizes = [25000, 50000, 100000]
        rng = random.Random(11)
        programs = {n: compress_forest(parse_term(random_term(rng, n))) for n in sizes}
        stats = {n: compute_stats(g) for n, g in programs.items()}

        def run(n):
            g = programs[n]
            f = evaluate(g, g.root, stats=stats[n])
            assert len(f) == n

        ratios, times = doubling_ratios(sizes, {n: n for n in sizes}, run)
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)

    def test_evaluate_bytecodes_double_with_size(self):
        check_counts_double(layer_bytecodes("evaluate"), "test_fslp.layer_bytecodes('evaluate', (1000, 2000))")


class TestFold:
    def test_six_distinct_subtrees(self):
        # binary tree with subtrees c, d, a(cc), a(cd), b(a(cc)a(cd)), top
        acc = hc(leaf("c"), leaf("c"))
        acd = hc(leaf("c"), leaf("d"))
        mid = hc(acc, acd)
        top = hc(mid, acd)
        g = fold_expr(top)
        assert len(g) == 6

    def test_single_leaf(self):
        assert len(fold_expr(leaf("a"))) == 1

    def test_node_order_is_first_occurrence_in_preorder(self):
        acd = hc(leaf("c"), leaf("d"))
        g = fold_expr(hc(hc(hc(leaf("c"), leaf("c")), acd), acd))
        assert [g.node_def(i) for i in range(len(g))] == [
            ("leaf", "c"),
            ("hc", 0, 0),
            ("leaf", "d"),
            ("hc", 0, 2),
            ("hc", 1, 3),
            ("hc", 4, 3),
        ]
        assert g.root == 5

    def test_all_distinct_subtrees(self, rng):
        for _ in range(40):
            e = random_expr(rng, 4)
            g = fold_expr(e)
            classes = set()

            def canon(x):
                if isinstance(x, type(leaf("a"))):
                    return (x.label, x.ctx)
                return (x.op, canon(x.left), canon(x.right))

            from fslpenum.oracle import iter_subexprs

            for sub in iter_subexprs(e):
                classes.add(canon(sub))
            assert len(g) == len(classes)


class TestCompression:
    def test_round_trip_random(self, rng):
        for _ in range(80):
            f = random_forest(rng, 30, labels="abc")
            g = compress_forest(f)
            assert evaluate(g, g.root) == f

    def test_single_vertex(self):
        g = compress_forest(parse_term("a"))
        assert len(g) == 1

    def test_wide_family_logarithmic(self):
        for k in (6, 10, 14):
            g = row_fslp("a", 2**k)
            st = compute_stats(g)
            assert st.s[g.root] == 2**k
            assert len(g) == k + 1
        g = compress_forest(parse_term("a" * 1024))
        assert len(g) <= 40

    def test_deep_family_logarithmic(self):
        for k in (6, 10, 14):
            g = chain_fslp("a", 2**k)
            st = compute_stats(g)
            assert st.s[g.root] == 2**k
            assert len(g) <= 2 * k + 4
        deep = parse_term("a(" * 511 + "a" + ")" * 511)
        g = compress_forest(deep)
        assert len(g) <= 60
        assert evaluate(g, g.root) == deep

    def test_families_past_the_recursion_limit(self):
        # 1200 halving levels: deeper than Python's default recursion limit
        row, chain = row_fslp("a", 2**1200), chain_fslp("a", 2**1200)
        st = compute_stats(row)
        assert (len(row), row.root, st.height[row.root]) == (1201, 1200, 1200)
        assert st.nverts[row.root] == 2**1200
        st = compute_stats(chain)
        assert (len(chain), chain.root, st.height[chain.root]) == (2401, 2400, 1201)
        assert st.nverts[chain.root] == 2**1200

    def test_height_logarithmic(self, rng):
        # documented constant: height <= 4*log2(n) + 2 on every tested shape
        cases = [random_forest(rng, 200, labels="ab") for _ in range(30)]
        cases.append(parse_term("a" * 500))
        cases.append(parse_term("a(" * 300 + "a" + ")" * 300))
        comb = "a(b)" * 120
        cases.append(parse_term(comb))
        for f in cases:
            g = compress_forest(f)
            st = compute_stats(g)
            n = len(f)
            assert st.height[g.root] <= 4 * math.log2(n + 1) + 2, (n, st.height[g.root])

    @pytest.mark.parametrize(
        "term, digest",
        [
            (random_term(random.Random(1), 10, "abc"),
             "b6c673c307feaa9a205afcb3543b0f5079450dd3af3ff69de165701b0f026461"),
            (random_term(random.Random(2), 100, "abc"),
             "8b179ddb64dfa060da6c619747ae9414c1058d09c7aa8c27db44dd7aa4e4440c"),
            (random_term(random.Random(3), 1000, "abc"),
             "8687a43bc676ac1da8d4836cbe2e7a072654ecceb9aec9843778c722e861ad7e"),
            (random_term(random.Random(4), 10000, "abc"),
             "df0d2a5f81af5c0ef48b80973b903d1be8ace698b95d74bb77c5158fdff15f4f"),
            ("a(b(" * 1000 + "c" + "))" * 1000,
             "261e93bd44ec6ff9de6f17111b2fd65eefd349b29f7b0767c3de8034379d7154"),
            ("abc" * 3000, "b682fbeac0830424efa0ebe6c816ed2276da82bca3345fa8598813e61b20f1c8"),
            ("a(bc)" * 500, "863d8db33dec8cb7b88df7e815f0e823e04fac6898ca9ddc7d8bbc3ba6baab91"),
        ],
        ids=["random-10", "random-100", "random-1000", "random-10000", "chain", "row", "comb"],
    )
    def test_node_order_is_pinned(self, term, digest):
        # ``compress`` writes this order to users' files: node ids, and so
        # the f-SLP text, must not change with the compressor's code
        text = fslp_mod.dumps(compress_forest(parse_term(term)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compress_forest(parse_term(""))

    @pytest.mark.parametrize("term, vertex", [("a(*)", 1), ("*", 0), ("ab(c*)", 3)])
    def test_hole_label_rejected(self, term, vertex):
        with pytest.raises(ValueError, match=rf"vertex {vertex}: the hole '\*' is not a label"):
            compress_forest(parse_term(term))


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        g = shared_subtree_fslp()
        text = fslp_mod.dumps(g)
        assert fslp_mod.dumps(fslp_mod.loads(text)) == text

    def test_comments_and_blanks(self):
        text = "fslp v1\n# comment\n\nnode 0 leaf a # trailing\nroot 0\n"
        g = fslp_mod.loads(text)
        assert len(g) == 1 and g.root == 0

    # every rejection of ``loads`` with its exact message
    LOADS_ERRORS = {
        "node 0 leaf a\n": "missing 'fslp v1' header",
        "fslp v1\nnode 1 leaf a\n": "line 2: node ids must be dense and in order",
        "fslp v1\nnode 0 hc 0 0\n": "line 2: node 0: children must reference earlier nodes",
        "fslp v1\nnode 0 leaf a\nnode 1 vc 0 2\n": "line 3: node 1: children must reference earlier nodes",
        "fslp v1\nnode 0 leaf a\nnode 1 hc -1 0\n": "line 3: node 1: children must reference earlier nodes",
        "fslp v1\nnode 0 leaf a\nroot 3\n": "line 3: root references unknown node",
        "fslp v1\nnode 0 frob a\n": "line 2: unknown kind 'frob'",
        "fslp v1\nnode 0 leaf a b\n": "line 2: leaf takes one label",
        "fslp v1\nnode 0 leaf a\nnode 1 hc 0\n": "line 3: hc takes two child ids",
        "fslp v1\nnode 0 leaf a\nroot 0 0\n": "line 3: bad root line",
        "fslp v1\n# a comment\n\nedge 0 1\n": "line 4: expected 'node <id> <kind> ...'",
    }

    @pytest.mark.parametrize("text", list(LOADS_ERRORS))
    def test_errors(self, text):
        with pytest.raises(ValueError) as exc:
            fslp_mod.loads(text)
        assert str(exc.value) == self.LOADS_ERRORS[text]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("fslp v1\nnode 0 leaf a\nroot x\n", "line 3: root 'x' is not an integer"),
            ("fslp v1\nnode zero leaf a\n", "line 2: node id 'zero' is not an integer"),
            ("fslp v1\nnode 0 leaf a\nnode 1 hc 0 q\n", "line 3: child id 'q' is not an integer"),
            ("fslp v1\nnode 0 leaf a\nnode 1 vc x 0\n", "line 3: child id 'x' is not an integer"),
        ],
    )
    def test_non_integer_fields_name_their_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            fslp_mod.loads(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", ["leaf", "leafctx"])
    def test_loads_rejects_the_hole_as_a_label(self, kind):
        # with it, evaluate gave a type-0 node a ForestContext and a type-1
        # node a Forest with two holes
        text = f"fslp v1\nnode 0 {kind} *\nnode 1 leafctx a\nnode 2 hc 1 0\n"
        with pytest.raises(ValueError) as exc:
            fslp_mod.loads(text)
        assert str(exc.value) == "line 2: the hole '*' is not a label"

    def test_dumps_rejects_the_hole_as_a_label(self):
        g = FSLP()
        g.add_leafctx("a")
        g.add_leaf("*")
        g.root = g.add_vc(0, 1)
        with pytest.raises(ValueError, match=r"node 1: the hole '\*' is not a label"):
            fslp_mod.dumps(g)

    def test_evaluate_types_by_the_node(self):
        g = fslp_mod.loads("fslp v1\nnode 0 leafctx a\nnode 1 leaf b\nnode 2 hc 0 1\nnode 3 vc 2 1\n")
        assert [type(evaluate(g, i)) for i in range(4)] == [ForestContext, Forest, ForestContext, Forest]
        assert serialize_term(evaluate(g, 3)) == "a(b)b"

    @pytest.mark.parametrize("label", ["", "a b", "x#y", "a\tb", "a\nb", None])
    def test_dumps_rejects_labels_loads_cannot_read(self, label):
        g = FSLP()
        g.add_leaf("a")
        g.add_leafctx(label)
        with pytest.raises(ValueError, match="node 1: label"):
            fslp_mod.dumps(g)

    def test_multi_character_labels_round_trip(self):
        g = FSLP()
        g.add_leafctx("foo~1")
        g.add_leaf("b'c")
        g.root = g.add_vc(0, 1)
        g2 = fslp_mod.loads(fslp_mod.dumps(g))
        assert g2.labels == ["foo~1", "b'c", None] and g2.root == 2

    def test_gc_drops_unreachable(self):
        g = shared_subtree_fslp()
        g.add_leaf("z")  # unreachable from the root
        out, remap = fslp_mod.gc(g, [g.root])
        assert len(out) == 9
        assert evaluate(out, remap[g.root]) == evaluate(g, g.root)


class TestLinearBuilds:
    """Building the definition table keeps ``compress_forest`` and ``loads``
    linear: each doubling of a random forest (25k, 50k, 100k vertices)
    must cost at most 3x."""

    SIZES = [25000, 50000, 100000]

    @pytest.mark.timing
    def test_compress_time_doubles_with_size(self):
        rng = random.Random(11)
        forests = {n: parse_term(random_term(rng, n)) for n in self.SIZES}
        ratios, times = doubling_ratios(self.SIZES, forests, compress_forest)
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)

    @pytest.mark.timing
    def test_loads_time_doubles_with_size(self):
        rng = random.Random(11)
        texts = {n: fslp_mod.dumps(compress_forest(parse_term(random_term(rng, n)))) for n in self.SIZES}
        ratios, times = doubling_ratios(self.SIZES, texts, fslp_mod.loads)
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)

    @pytest.mark.parametrize("layer", ["compress", "loads"])
    def test_bytecodes_double_with_size(self, layer):
        # the builds counted in bytecodes at 1k to 8k vertices: exact, so
        # the bound is tight and no busy machine skews it
        check_counts_double(layer_bytecodes(layer), f"test_fslp.layer_bytecodes({layer!r}, (1000, 2000))")


class TestDeepInputs:
    def test_ten_thousand_deep_chain_round_trip(self):
        depth = 10_000
        term = "a(" * (depth - 1) + "a" + ")" * (depth - 1)
        f = parse_term(term)
        g = compress_forest(f)
        st = compute_stats(g)
        assert st.height[g.root] <= 60
        assert serialize_term(evaluate(g, g.root)) == term

    def test_unfold_budget_boundary(self):
        g = shared_subtree_fslp()
        st = compute_stats(g)
        exact = 2 * st.s[g.root] - 1
        unfold(g, g.root, budget=exact)  # fits exactly
        with pytest.raises(BudgetExceeded):
            unfold(g, g.root, budget=exact - 1)
