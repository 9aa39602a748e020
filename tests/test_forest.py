import hashlib
from functools import partial
from random import Random

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

from conftest import bytecodes, check_counts_double, doubling_ratios, random_expr, random_forest, unique_term


def parse_bytecodes(sizes=(1000, 2000, 4000, 8000)) -> list:
    """Bytecodes of ``parse_term`` on ``unique_term(n)``, per size n."""
    return [bytecodes(partial(parse_term, unique_term(n))) for n in sizes]


# (text, message, position) of a term the parser rejects
PARSE_ERRORS = [
    ("a(b", "unbalanced '('", 3),
    ("a)b", "unbalanced ')'", 1),
    ("(a)", "'(' must follow a label", 0),
    ("a(''b)", "empty label", 2),
    ("a%b", "unexpected character '%'", 1),
    ("a'bc", "unterminated quoted label", 1),
    ("a, ,''", "empty label", 4),
    ("a, %", "unexpected character '%'", 3),
    ("a(b)(c)", "a label may carry only one child group", 4),
    ("a()(b)", "a label may carry only one child group", 3),
    ("a(b(c)", "unbalanced '('", 6),
    ("'ab'('cd'", "unbalanced '('", 9),
]


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

    @pytest.mark.parametrize("text,message,pos", PARSE_ERRORS, ids=[f"{t}-{p}" for t, _, p in PARSE_ERRORS])
    def test_errors_carry_positions(self, text, message, pos):
        with pytest.raises(ParseError) as err:
            parse_term(text)
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.position == pos

    def test_double_group_rejected(self):
        with pytest.raises(ParseError):
            parse_term("a(b)(c)")


def _chain_then_roots(n: int) -> list:
    """A chain of n/2 vertices, then n/2 roots: the first root pops the chain."""
    half = n // 2
    return [None] + list(range(half - 1)) + [None] * (n - half)


def _comb(n: int, teeth: int = 16) -> list:
    """Vertex 0 with chains of about n/teeth vertices under it: each tooth's
    first vertex pops the whole path of the tooth before."""
    m = n // teeth
    return [None] + [0 if (v - 1) % m == 0 else v - 1 for v in range(1, n)]


def _fails_last(n: int) -> list:
    """A chain whose last vertex names parent -1: it pops the whole path, then fails."""
    return [None] + list(range(n - 2)) + [-1]


ADVERSARIAL = {"chain-then-roots": _chain_then_roots, "comb": _comb, "fails-last": _fails_last}


def _build(parents: list) -> None:
    try:
        Forest("a" * len(parents), parents)
    except ValueError:
        pass


def build_bytecodes(kind: str, sizes=(1000, 2000, 4000, 8000)) -> list:
    """Bytecodes of ``Forest`` on the ``ADVERSARIAL[kind]`` parent list of n vertices, per size n."""
    return [bytecodes(partial(_build, ADVERSARIAL[kind](n))) for n in sizes]


# (labels, parents, message) of a forest the constructor rejects
BAD_FORESTS = {
    "length-mismatch": ("ab", (None,), "labels/parents length mismatch"),
    "empty-label": (("a", ""), (None, 0), "empty label"),
    "self-parent-first": ("a", (0,), "vertex 0: parent 0 is not the previous vertex"),
    "self-parent": ("ab", (None, 1), "vertex 1: parent 1 is not the previous vertex"),
    "forward-parent": ("abc", (None, 2, None), "vertex 1: parent 2 is not the previous vertex"),
    "negative-parent": ("ab", (None, -1), "vertex 1: parent -1 is not the previous vertex"),
    "closed-subtree": ("abcd", (None, 0, 0, 1), "vertex 3: parent 1 is not the previous vertex"),
    "earlier-tree": ("abcd", (None, 0, None, 1), "vertex 3: parent 1 is not the previous vertex"),
    "float-parent": ("ab", (None, 0.0), "vertex 1: parent 0.0 is not an int"),
    "str-parent": ("ab", (None, "0"), "vertex 1: parent '0' is not an int"),
    "bool-parent": ("ab", (None, False), "vertex 1: parent False is not an int"),
}


class TestForestCheck:
    @pytest.mark.parametrize("labels, parents, message", BAD_FORESTS.values(), ids=BAD_FORESTS)
    def test_bad_parents_rejected(self, labels, parents, message):
        with pytest.raises(ValueError) as err:
            Forest(labels, parents)
        assert str(err.value).startswith(message)

    def test_consistent_links_accepted(self):
        f = Forest("abc", (None, 0, None))
        assert serialize_term(f) == "a(b)c"
        assert f.children == ((1,), (), ()) and f.roots == (0, 2)

    @pytest.mark.parametrize("kind", ADVERSARIAL)
    def test_build_bytecodes_double_with_size(self, kind):
        # every vertex is pushed on the path once and popped at most once
        check_counts_double(build_bytecodes(kind), f"test_forest.build_bytecodes({kind!r}, (1000, 2000))")

    @pytest.mark.timing
    def test_parse_time_doubles_with_size(self):
        # a row of n roots was quadratic in the consistency check; each
        # doubling must now cost at most 3x (``doubling_ratios``: interleaved,
        # best of five, CPU time of this process from a collected heap)
        sizes = [50000, 100000, 200000]
        texts = {n: "a" * n for n in sizes}
        ratios, times = doubling_ratios(sizes, texts, parse_term)
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)

    def test_parse_bytecodes_double_with_size(self):
        # the parse counted in bytecodes: exact, so the bound is tight and
        # no busy machine skews it
        check_counts_double(parse_bytecodes(), "test_forest.parse_bytecodes((1000, 2000))")


def links_digest(forests) -> str:
    """SHA-256 of every forest's ``(labels, parents, children, roots)``."""
    data = repr([(f.labels, f.parents, f.children, f.roots) for f in forests])
    return hashlib.sha256(data.encode()).hexdigest()


class TestDerivedLinks:
    """The children and roots a forest derives, pinned exactly: equality of
    forests does not compare them."""

    @pytest.mark.parametrize(
        "seed, n, digest",
        [
            (1, 10, "350ca4877c5b0edabf72d4860f131ae58735da8c3adde18aabc15509c0f64092"),
            (2, 300, "d96697b72e1149116a354bdd393e84248f72ff5d29eecab5ab69ed4a74fcce24"),
            (3, 10000, "dd256a1b33cad02271cee177e838bf470ab02f2f87865449913051e81db6466e"),
        ],
    )
    def test_parse(self, seed, n, digest):
        assert links_digest([parse_term(random_term(Random(seed), n, "abc"))]) == digest

    @pytest.mark.parametrize(
        "seed, n, digest",
        [
            (4, 40, "b20220ab93852d65bb88a6b5547c16f736258de3bb192cda04f3536a5c977bfe"),
            (5, 2000, "7856863733ea5d81c07de240f046fa56e68c0ab2df3b0de839deb4aed11bfabe"),
            (6, 10000, "fa7668068d797c3e5d741af89ff717b5bcb095cfde250a2ef6ce89379827b3b2"),
        ],
    )
    def test_evaluate(self, seed, n, digest):
        # the root and up to 60 seeded nodes of the compressed forest
        rng = Random(seed)
        g = compress_forest(parse_term(random_term(rng, n, "abc")))
        stats = compute_stats(g)
        nodes = sorted(set(rng.sample(range(len(g)), min(len(g), 60))) | {g.root})
        assert 20 <= sum(stats.tau[v] for v in nodes) <= len(nodes) - 20  # both types
        assert links_digest([evaluate(g, v, stats=stats) for v in nodes]) == digest


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
