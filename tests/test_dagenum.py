import random
from collections import Counter

import pytest

from fslpenum import (
    DecoratedDAG,
    Effect,
    MonoidCategory,
    PRE_CATEGORY,
    FMSession,
    PathSession,
    fm_preprocess,
    preprocess,
)
from fslpenum.dagenum import _UNFED, WORDS, _expand
from fslpenum.effects import act
from fslpenum.fixtures import (
    INT_SUM,
    SAMPLE_DAG_PAIRS,
    SAMPLE_DAG_SOURCE,
    adversarial_path_dag,
    sample_annotation_case,
    sample_weighted_dag,
)
from fslpenum.oracle import brute_path_order, brute_paths, brute_word_paths

from conftest import bytecodes, check_counts_double, doubling_ratios, random_labelled_dag, random_weighted_dag


def shared_sink_dag(n: int) -> DecoratedDAG:
    """A chain of ``n - 1`` vertices, each also edged to one shared sink,
    the last chain vertex a target."""
    d = DecoratedDAG(INT_SUM)
    for v in range(n):
        d.add_vertex(None, target=v == n - 1)
    shared = n - 1
    for v in range(n - 2):
        d.add_edge(v, 1, v + 1)
        d.add_edge(v, 2, shared)
    return d


def preprocess_bytecodes(sizes=(2500, 5000, 10000)) -> list:
    """Bytecodes of ``preprocess`` on ``shared_sink_dag(n)``, per size n."""
    counts = []
    for n in sizes:
        d = shared_sink_dag(n)
        counts.append(bytecodes(lambda: preprocess(d)))
    return counts


def session_multiset(idx, source):
    out = Counter()
    sess = PathSession(idx, source)
    for item in sess:
        out[item] += 1
        assert sess.last_steps <= 2
    return out


class TestPreprocess:
    def test_already_binary_is_fixed_point(self):
        d = DecoratedDAG(INT_SUM)
        for v in range(3):
            d.add_vertex(None, target=v > 0)
        d.add_edge(0, 1, 1)
        d.add_edge(0, 2, 2)
        idx = preprocess(d)
        assert session_multiset(idx, 0) == Counter({(1, 1): 1, (2, 2): 1})

    def test_high_outdegree_is_one_fan(self):
        d = DecoratedDAG(INT_SUM)
        d.add_vertex(None)
        leaves = [d.add_vertex(None, target=True) for _ in range(4)]
        for w, v in enumerate(leaves):
            d.add_edge(0, w + 1, v)
        norm = preprocess(d)
        # 4 outgoing edges become one vertex with 4 arms, in edge order,
        # with the original weights and no identity arm
        fan = norm.vertex_of[0]
        arms = range(norm.lo[fan], norm.lo[fan + 1])
        assert [norm.morph[j] for j in arms] == [1, 2, 3, 4]
        assert [norm.child[j] for j in arms] == [norm.vertex_of[t] for t in leaves]
        assert all(norm.is_leaf(norm.child[j]) for j in arms)
        assert len(norm.obj) == 5  # the fan and its four leaves, nothing cloned
        assert session_multiset(norm, 0) == Counter(
            {(v, w + 1): 1 for w, v in enumerate(leaves)}
        )

    def test_outdegree_one_chain_contracted(self):
        d = DecoratedDAG(INT_SUM)
        s, a, b, t = (d.add_vertex(None) for _ in range(4))
        d.targets.add(t)
        d.add_edge(s, 1, a)
        d.add_edge(a, 2, b)
        d.add_edge(b, 4, t)
        idx = preprocess(d)
        # the whole chain is a shortcut: one output with the composed weight
        assert session_multiset(idx, s) == Counter({(t, 7): 1})
        assert idx.is_shortcut(s)

    def test_prune_cascades(self):
        d = DecoratedDAG(INT_SUM)
        s = d.add_vertex(None)
        dead1 = d.add_vertex(None)
        dead2 = d.add_vertex(None)
        t = d.add_vertex(None, target=True)
        d.add_edge(s, 1, dead1)
        d.add_edge(s, 2, t)
        d.add_edge(dead1, 1, dead2)
        idx = preprocess(d)
        assert idx.vertex_of[dead1] == -1
        assert session_multiset(idx, s) == Counter({(t, 2): 1})

    def test_cycle_rejected(self):
        d = DecoratedDAG(INT_SUM)
        d.add_vertex(None)
        d.add_vertex(None)
        d.edges[0].append((1, 1))
        d.edges[1].append((1, 0))
        with pytest.raises(ValueError):
            preprocess(d)

    def test_dangling_edge_rejected(self):
        d = DecoratedDAG(INT_SUM)
        d.add_vertex(None)
        with pytest.raises(ValueError):
            d.add_edge(0, 1, 5)

    @pytest.mark.parametrize("u", [-1, 2, 7])
    def test_edge_from_unknown_vertex_rejected(self, u):
        d = DecoratedDAG(INT_SUM)
        d.add_vertex(None)
        d.add_vertex(None, target=True)
        with pytest.raises(ValueError, match="unknown vertex"):
            d.add_edge(u, 1, 1)
        assert d.edges == [[], []]


class TestSessions:
    def test_sample_dag_multiset(self):
        d = sample_weighted_dag()
        idx = preprocess(d)
        got = session_multiset(idx, SAMPLE_DAG_SOURCE)
        assert got == Counter(SAMPLE_DAG_PAIRS)
        assert got[(12, 13)] == 2

    def test_target_leaf_source(self):
        d = sample_weighted_dag()
        idx = preprocess(d)
        s = PathSession(idx, 11)
        assert s.next() == (11, 0)
        assert s.next() is None
        assert s.next() is None  # stays exhausted

    def test_pruned_source_empty(self):
        d = sample_weighted_dag()
        idx = preprocess(d)
        s = PathSession(idx, 0)
        assert s.next() is None

    def test_unknown_vertex(self):
        d = sample_weighted_dag()
        idx = preprocess(d)
        # -1 must not wrap around to the last disposition
        for v in (-1, len(idx.vertex_of), 99):
            with pytest.raises(ValueError, match="unknown vertex"):
                PathSession(idx, v)
            with pytest.raises(ValueError, match="unknown vertex"):
                idx.only_pair(v)
        with pytest.raises(ValueError, match="unknown vertex"):
            idx.add_original(-1, None, [], True)
        assert idx.vertex_of[-1] != _UNFED and len(idx.vertex_of) == len(d)

    @pytest.mark.parametrize("child", [-1, 1, 3, 9])
    def test_edge_to_unknown_vertex_rejected(self, child):
        norm = preprocess(DecoratedDAG(INT_SUM))
        norm.add_original(0, None, [], True)
        norm.add_original(2, None, [], True)  # leaves vertex 1 unfed
        tables = [list(t) for t in (norm.obj, norm.lo, norm.morph, norm.child, norm.omega)]
        with pytest.raises(ValueError, match="unknown vertex"):
            norm.add_original(3, None, [(4, 0), (5, child)], False)
        # nothing recorded: no arm, no vertex, no disposition
        assert [list(t) for t in (norm.obj, norm.lo, norm.morph, norm.child, norm.omega)] == tables
        assert norm.vertex_of == [0, _UNFED, 1] and not any(map(norm.is_shortcut, (0, 1, 2)))
        norm.add_original(3, None, [(4, 0), (5, 2)], False)
        assert session_multiset(norm, 3) == Counter({(0, 4): 1, (2, 5): 1})

    def test_multisets_match_oracle(self, rng):
        for _ in range(150):
            d = random_weighted_dag(rng, 13)
            idx = preprocess(d)
            for s in range(len(d)):
                assert session_multiset(idx, s) == brute_paths(d, s)

    def test_order_matches_oracle(self, rng):
        # the emitted sequence itself, not only its multiset
        target_fans = 0
        for _ in range(200):
            d = random_weighted_dag(rng, 13)
            idx = preprocess(d)
            for s in range(len(d)):
                sess = PathSession(idx, s)
                got = []
                for item in sess:
                    got.append(item)
                    assert sess.last_steps <= 2
                assert got == brute_path_order(d, s)
                v = -1 if idx.is_shortcut(s) else idx.vertex_of[s]
                target_fans += v >= 0 and not idx.is_leaf(v) and idx.omega[v] == s
        # 330 of the 1 491 sources are fans that emit their own target
        assert target_fans >= 100

    def test_only_pair_is_the_single_session_pair(self, rng):
        # pruned sources (no path), shortcuts and fans over random DAGs
        for _ in range(150):
            d = random_weighted_dag(rng, 13)
            idx = preprocess(d)
            for s in range(len(d)):
                want = list(PathSession(idx, s))
                assert idx.only_pair(s) == (want[0] if len(want) == 1 else None)

    def test_persistence_across_interleaved_sessions(self, rng):
        d = sample_weighted_dag()
        idx = preprocess(d)
        seq1 = list(PathSession(idx, SAMPLE_DAG_SOURCE))
        seq2 = list(PathSession(idx, 7))
        a = PathSession(idx, SAMPLE_DAG_SOURCE)
        b = PathSession(idx, 7)
        got1, got2 = [], []
        while True:
            x = a.next()
            if x is not None:
                got1.append(x)
            y = b.next()
            if y is not None:
                got2.append(y)
            if x is None and y is None:
                break
        assert got1 == seq1 and got2 == seq2

    def test_preorder_effect_morphisms(self):
        # the same engine drives preorder effects over an f-SLP-shaped DAG;
        # PRE_CATEGORY morphisms are (eps, c, kappa, d) tuples
        first, second = Effect.m00(0).as_tuple(), Effect.m00(1).as_tuple()
        d = DecoratedDAG(PRE_CATEGORY)
        d.add_vertex(0)  # hc of two leaves
        d.add_vertex(0, target=True)
        d.add_edge(0, first, 1)
        d.add_edge(0, second, 1)
        idx = preprocess(d)
        got = session_multiset(idx, 0)
        assert got == Counter({(1, first): 1, (1, second): 1})

    def test_point_sessions_from_pruned_and_shortcut_sources(self, rng):
        d = DecoratedDAG(PRE_CATEGORY)
        leaf1, leaf0 = d.add_vertex(1, target=True), d.add_vertex(0, target=True)
        dead = d.add_vertex(1)  # no edge and no target: pruned
        short = d.add_vertex(1)  # one live edge: a shortcut
        d.add_edge(short, Effect.m11b(2, 3).as_tuple(), leaf1)
        d.add_edge(short, Effect.m11a(1, 1).as_tuple(), dead)
        top = d.add_vertex(1)
        d.add_edge(top, Effect.m11a(0, 4).as_tuple(), short)
        d.add_edge(top, Effect.m10b(5).as_tuple(), leaf0)
        d.add_edge(top, Effect.m11a(2, 0).as_tuple(), leaf1)
        norm = preprocess(d)
        assert norm.vertex_of[dead] == -1 and norm.is_shortcut(short)
        for v in range(len(d)):
            for _ in range(10):
                p = (rng.randrange(100), rng.randrange(100))
                want = [(t, act(p, m)) for t, m in PathSession(norm, v)]
                assert list(PathSession(norm, v, p)) == want, v
        assert list(PathSession(norm, dead, (1, 2))) == []


class TestPreprocessLinearity:
    @pytest.mark.timing
    def test_time_ratio_on_doubling(self):
        sizes = [30000, 60000, 120000]
        ratios, times = doubling_ratios(sizes, {n: shared_sink_dag(n) for n in sizes}, preprocess)
        # linear growth doubles; quadratic would quadruple
        assert all(1.2 <= r <= 3.5 for r in ratios), (ratios, times)

    def test_bytecodes_double_with_size(self):
        # the same preprocess counted in bytecodes: exact, so the bound is
        # tight and a busy machine cannot fail it
        check_counts_double(preprocess_bytecodes(), "test_dagenum.preprocess_bytecodes((2500, 5000))")

    @pytest.mark.timing
    def test_target_fans_double_linearly(self):
        # every vertex is a target with 2-4 out-edges, so each one is a
        # target fan (the sink is a leaf target)
        def build(n):
            rng = random.Random(n)
            d = DecoratedDAG(INT_SUM)
            for _ in range(n):
                d.add_vertex(None, target=True)
            for v in range(n - 1):
                for _ in range(rng.randint(2, 4)):
                    d.add_edge(v, rng.randint(0, 5), rng.randrange(v + 1, min(n, v + 50)))
            return d

        sizes = [25000, 50000, 100000]
        ratios, times = doubling_ratios(sizes, {n: build(n) for n in sizes}, preprocess)
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)


class TestConstantDelay:
    @pytest.mark.parametrize("n", [1000, 10000])
    def test_adversarial_family(self, n):
        d, src = adversarial_path_dag(n)
        idx = preprocess(d)
        sess = PathSession(idx, src)
        outputs = 0
        max_steps = 0
        while True:
            item = sess.next()
            if item is None:
                break
            outputs += 1
            max_steps = max(max_steps, sess.last_steps)
        assert outputs == n + 1
        assert max_steps <= 2


class TestFreeMonoid:
    def test_annotation_example(self):
        dag, source, expected = sample_annotation_case()
        idx = fm_preprocess(dag)
        words = Counter()
        sess = FMSession(idx, source)
        for _, word in sess:
            words[word] += 1
        assert set(words) == expected
        assert sum(words.values()) == 2

    def test_all_epsilon_dag(self):
        d = DecoratedDAG()
        v = [d.add_vertex(None) for _ in range(4)]
        d.targets.add(v[3])
        d.add_edge(v[0], None, v[1])
        d.add_edge(v[0], None, v[2])
        d.add_edge(v[1], None, v[3])
        d.add_edge(v[2], None, v[3])
        idx = fm_preprocess(d)
        words = Counter(w for _, w in FMSession(idx, v[0]))
        assert words == Counter({(): 2})

    def test_matches_oracle_random(self, rng):
        for _ in range(150):
            d = random_labelled_dag(rng, 12)
            idx = fm_preprocess(d)
            for s in range(len(d)):
                got = Counter()
                sess = FMSession(idx, s)
                for tgt, word in sess:
                    got[(tgt, word)] += 1
                assert got == brute_word_paths(d, s)

    def test_output_linear_delay(self, rng):
        # steps per output stay proportional to the emitted word length
        for _ in range(40):
            d = random_labelled_dag(rng, 12)
            idx = fm_preprocess(d)
            for s in range(len(d)):
                sess = FMSession(idx, s)
                for _, word in sess:
                    assert sess.last_steps <= 6 * (1 + len(word))

    @pytest.mark.parametrize("source", [-1, 2, 99])
    def test_unknown_source(self, source):
        d = DecoratedDAG()
        d.add_vertex(None)
        d.add_vertex(None, target=True)
        d.add_edge(0, "x", 1)
        idx = fm_preprocess(d)
        with pytest.raises(ValueError, match="unknown vertex"):
            FMSession(idx, source)
        assert list(FMSession(idx, 0)) == [(1, ("x",))]

    def test_word_category_keeps_epsilon_out_of_ropes(self):
        assert WORDS.identity(None) is None
        assert WORDS.compose(None, "x") == "x" and WORDS.compose("x", None) == "x"
        assert WORDS.compose(None, None) is None
        assert _expand(None) == []
        left = right = None
        for i in range(10**5):
            left = WORDS.compose(left, i)
            right = WORDS.compose(i, right)
        assert _expand(left) == list(range(10**5))
        assert _expand(right) == list(reversed(range(10**5)))

    def test_long_alternating_chain_streams_its_word(self):
        # ε and symbol edges alternate along 10^5 vertices; the chain
        # contracts into one shortcut whose rope is 5·10^4 symbols deep
        n = 10**5
        d = DecoratedDAG()
        for v in range(n):
            d.add_vertex(None, target=v == n - 1)
        for v in range(n - 1):
            d.add_edge(v, None if v % 2 == 0 else ("x", v), v + 1)
        sess = FMSession(fm_preprocess(d), 0)
        target, word = sess.next()
        assert target == n - 1
        assert word == tuple(("x", v) for v in range(1, n - 1, 2))
        assert sess.last_steps <= 6 * (1 + len(word))
        assert sess.next() is None

    def test_layered_dag_first_words_within_delay(self):
        # 50 vertices per layer, 400 edge layers, two edges per vertex to
        # the next layer; every other layer is ε, so each word has 200 symbols
        width, depth = 50, 400
        rng = random.Random(5)
        d = DecoratedDAG()
        for layer in range(depth + 1):
            for _ in range(width):
                d.add_vertex(None, target=layer == depth)
        for layer in range(depth):
            for i in range(width):
                for w in rng.sample(range(width), 2):
                    lab = None if layer % 2 == 0 else rng.choice("xy")
                    d.add_edge(layer * width + i, lab, (layer + 1) * width + w)
        sess = FMSession(fm_preprocess(d), 0)
        for _ in range(2 * 10**4):
            target, word = sess.next()
            assert target >= depth * width and len(word) == depth // 2
            assert sess.last_steps <= 6 * (1 + len(word))
