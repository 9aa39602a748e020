import gc
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fslpenum import (
    ExprLeaf,
    Forest,
    ForestContext,
    ParseError,
    compress_forest,
    compute_stats,
    eval_expr,
    evaluate,
    expr_equal,
    hc,
    leaf,
    leaf_preorders,
    leafctx,
    parse_term,
    serialize_term,
    type_of,
    unfold,
    vc,
)
from fslpenum.fixtures import random_term
from fslpenum.oracle import expr_leaves

from conftest import random_expr, random_forest


class TestParse:
    def test_worked_forest(self):
        f = parse_term("a(ba(a))bcb(c(ab))")
        assert len(f) == 10
        assert list(f.labels) == list("abaabcbcab")
        # vertex index == preorder number by construction
        assert f.roots == (0, 4, 5, 6)
        assert f.children[0] == (1, 2)
        assert f.children[2] == (3,)
        assert f.children[6] == (7,)
        assert f.children[7] == (8, 9)

    def test_empty(self):
        f = parse_term("")
        assert len(f) == 0 and f.roots == ()

    def test_singleton(self):
        f = parse_term("a")
        assert len(f) == 1 and f.labels == ("a",) and f.parents == (None,)

    def test_commas_and_whitespace_are_separators(self):
        assert parse_term("a(b,a(a)), b, c , b(c(a, b))") == parse_term("a(ba(a))bcb(c(ab))")

    def test_quoted_multichar_labels(self):
        f = parse_term("'foo'('bar'a)")
        assert f.labels == ("foo", "bar", "a")

    @pytest.mark.parametrize(
        "text,pos",
        [("a(b", 3), ("a)b", 1), ("(a)", 0), ("a(''b)", 2), ("a%b", 1)],
    )
    def test_errors_carry_positions(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_term(text)
        assert err.value.position == pos

    def test_double_group_rejected(self):
        with pytest.raises(ParseError):
            parse_term("a(b)(c)")


class TestForestCheck:
    @pytest.mark.parametrize(
        "parents, children, roots, message",
        [
            ((None, None), ((1,), ()), (0,), "vertex 1 has no parent and is not a root"),
            ((None, 0), ((), ()), (0, 1), "vertex 1 missing from parent's child list"),
            ((None, 0, 1), ((1, 2), (), ()), (0,), "vertex 2 missing from parent's child list"),
            ((None, 0, 0), ((1,), (2,), ()), (0,), "vertex 2 missing from parent's child list"),
            ((None, 0, 0), ((2, 1), (), ()), (0,), "not stored at its preorder position"),
            ((None, 0, 0), ((1,), (), ()), (0,), "does not reach every vertex"),
            ((None, 0), ((1, 1), ()), (0,), "not a valid traversal"),
        ],
    )
    def test_inconsistent_links_rejected(self, parents, children, roots, message):
        with pytest.raises(ValueError, match=message):
            Forest("a" * len(parents), parents, children, roots)

    def test_consistent_links_accepted(self):
        f = Forest("abc", (None, 0, None), ((1,), (), ()), (0, 2))
        assert serialize_term(f) == "a(b)c"

    def test_parse_time_doubles_with_size(self):
        # a row of n roots was quadratic in the consistency check; each
        # doubling must now cost at most 3x (interleaved, best of five, each
        # timed parse starting from a collected heap)
        sizes = [50000, 100000, 200000]
        texts = {n: "a" * n for n in sizes}
        best = dict.fromkeys(sizes, float("inf"))
        for _ in range(5):
            for n in sizes:
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                parse_term(texts[n])
                best[n] = min(best[n], time.perf_counter() - t0)
                gc.enable()
        ratios = [best[sizes[i]] / best[sizes[i - 1]] for i in range(1, len(sizes))]
        assert all(1.0 <= r <= 3.0 for r in ratios), ratios


class TestSerialize:
    def test_worked_forest(self):
        f = parse_term("a(ba(a))bcb(c(ab))")
        assert serialize_term(f) == "a(ba(a))bcb(c(ab))"

    def test_empty_and_two_roots(self):
        assert serialize_term(Forest()) == ""
        assert serialize_term(parse_term("ab")) == "ab"

    @given(
        st.recursive(
            st.tuples(st.sampled_from("abc"), st.just(())),
            lambda kids: st.tuples(
                st.sampled_from(["x", "long_label", "b9"]), st.lists(kids, max_size=3)
            ),
            max_leaves=20,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip(self, tree):
        def emit(t):
            label, kids = t
            quoted = label if len(label) == 1 else f"'{label}'"
            return quoted + (f"({''.join(emit(k) for k in kids)})" if kids else "")

        f = parse_term(emit(tree))
        assert parse_term(serialize_term(f)) == f

    def test_round_trip_random(self, rng):
        for _ in range(150):
            f = random_forest(rng, 14, labels="abc")
            assert parse_term(serialize_term(f)) == f


class TestTyping:
    def test_leaves(self):
        assert type_of(leaf("a")) == 0
        assert type_of(leafctx("a")) == 1

    def test_two_holes_invalid(self):
        assert type_of(hc(leafctx("a"), leafctx("a"))) is None

    def test_hole_then_forest(self):
        assert type_of(vc(leafctx("a"), leaf("b"))) == 0

    def test_vc_requires_context(self):
        assert type_of(vc(leaf("a"), leaf("b"))) is None

    def test_soundness_random(self, rng):
        for _ in range(200):
            t = rng.choice([0, 1])
            e = random_expr(rng, 4, typ=t)
            assert type_of(e) == t
            value = eval_expr(e)
            if t == 0:
                assert not isinstance(value, ForestContext)
                assert "*" not in value.labels
            else:
                assert isinstance(value, ForestContext)
                assert value.labels.count("*") == 1


class TestEval:
    def test_vertical_concatenation_example(self):
        # a(b *) plugged with a(bc) b(ccb): composite expression a_* / (b + X)
        x = hc(
            vc(leafctx("a"), hc(leaf("b"), leaf("c"))),
            vc(leafctx("b"), hc(hc(leaf("c"), leaf("c")), leaf("b"))),
        )
        e = vc(leafctx("a"), hc(leaf("b"), x))
        assert serialize_term(eval_expr(e)) == "a(ba(bc)b(ccb))"

    def test_hole_substitution(self):
        assert serialize_term(eval_expr(vc(leafctx("a"), leaf("b")))) == "a(b)"

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            eval_expr(hc(leafctx("a"), leafctx("a")))

    def test_leaf_count_matches_vertex_count(self, rng):
        for _ in range(150):
            e = random_expr(rng, 4)
            assert len(expr_leaves(e)) == len(eval_expr(e))

    def test_monoid_law_horizontal(self, rng):
        for _ in range(100):
            e1, e2, e3 = (random_expr(rng, 3) for _ in range(3))
            left = eval_expr(hc(hc(e1, e2), e3))
            right = eval_expr(hc(e1, hc(e2, e3)))
            assert left == right

    def test_context_composition_associates(self, rng):
        for _ in range(100):
            c1, c2 = (random_expr(rng, 3, typ=1) for _ in range(2))
            f = random_expr(rng, 3, typ=0)
            assert eval_expr(vc(vc(c1, c2), f)) == eval_expr(vc(c1, vc(c2, f)))


class TestLeafPreorders:
    def test_single_leaf(self):
        assert leaf_preorders(leaf("a")) == [0]

    def test_type_one_rejected(self):
        with pytest.raises(ValueError):
            leaf_preorders(leafctx("a"))

    def test_against_unique_label_oracle(self, rng):
        # relabel every leaf uniquely, evaluate, read positions off the forest
        for _ in range(150):
            e = random_expr(rng, 4)
            tagged, counter = _tag_leaves(e, [0])
            f = eval_expr(tagged)
            want = []
            for i in range(counter[0]):
                want.append(f.labels.index(f"L{i}"))
            assert leaf_preorders(e) == want


def _tag_leaves(e, counter):
    if isinstance(e, ExprLeaf):
        tag = ExprLeaf(f"L{counter[0]}", e.ctx)
        counter[0] += 1
        return tag, counter
    left, _ = _tag_leaves(e.left, counter)
    right, _ = _tag_leaves(e.right, counter)
    return type(e)(e.op, left, right), counter


class TestExprEqual:
    def test_reflexive_and_sensitive(self):
        e = vc(leafctx("a"), hc(leaf("b"), leaf("c")))
        assert expr_equal(e, vc(leafctx("a"), hc(leaf("b"), leaf("c"))))
        assert not expr_equal(e, vc(leafctx("a"), hc(leaf("c"), leaf("b"))))
        assert not expr_equal(leaf("a"), leafctx("a"))


class TestEvalDifferential:
    """The f-SLP evaluator, on folded and compressed inputs, vs a naive
    nested-tuple evaluator of the explicit expression."""

    @staticmethod
    def _naive(e):
        # value: list of (label, children) trees; hole encoded as label "*"
        if isinstance(e, ExprLeaf):
            if e.ctx:
                return [(e.label, [("*", [])])]
            return [(e.label, [])]
        left = TestEvalDifferential._naive(e.left)
        right = TestEvalDifferential._naive(e.right)
        if e.op == "hc":
            return left + right

        def plug(trees):
            out = []
            changed = False
            for label, kids in trees:
                if label == "*" and not kids:
                    out.extend(right)
                    changed = True
                else:
                    new_kids, sub = plug(kids)
                    changed = changed or sub
                    out.append((label, new_kids))
            return out, changed

        plugged, changed = plug(left)
        assert changed, "left operand of vc had no hole"
        return plugged

    @staticmethod
    def _to_term(trees):
        def quote(label):
            return label if len(label) == 1 else f"'{label}'"

        return "".join(
            quote(l) + (f"({TestEvalDifferential._to_term(k)})" if k else "")
            for l, k in trees
        )

    def test_matches_naive_evaluator(self, rng):
        for _ in range(250):
            t = rng.choice([0, 1])
            e = random_expr(rng, 5, labels="abc", typ=t)
            want = parse_term(self._to_term(self._naive(e)))
            assert eval_expr(e) == want

    def test_every_node_matches_naive_evaluator(self, rng):
        # type-1 nodes included: their hole comes out as the leaf "*"
        nodes = contexts = 0
        for _ in range(50):
            g = compress_forest(parse_term(random_term(rng, rng.randint(1, 60), "abc")))
            stats = compute_stats(g)
            for v in range(len(g)):
                want = parse_term(self._to_term(self._naive(unfold(g, v, stats=stats))))
                got = evaluate(g, v, stats=stats)
                assert got == want
                assert type(got) is (ForestContext if stats.tau[v] else Forest)
                nodes += 1
                contexts += stats.tau[v]
        assert contexts >= 100 and nodes - contexts >= 100, (nodes, contexts)
