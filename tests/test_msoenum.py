import hashlib
import random
from itertools import islice

import pytest

from fslpenum import (
    DBUTA,
    FSLP,
    NSTA,
    AnswerStream,
    Normalizer,
    PathSession,
    ProductIndex,
    build_conf_sets,
    build_enum_structure,
    chain_fslp,
    compress_forest,
    compute_stats,
    enumerate_select_uncompressed,
    evaluate,
    fold_expr,
    hc,
    leaf,
    leaf_preorders,
    leafctx,
    nsta_accepts,
    nsta_to_dbuta,
    parse_term,
    relabel,
    row_fslp,
    unfold,
    vc,
)
from fslpenum import effects, msoenum
from fslpenum.fixtures import (
    accept_all_nsta,
    at_least_one_nsta,
    exactly_one_nsta,
    only_empty_nsta,
    random_term,
    reject_all_nsta,
    select_labels_nsta,
)
from fslpenum.oracle import _TreeEnum, brute_dbuta_select, brute_select

from conftest import (
    bytecodes,
    check_counts_double,
    check_pid_blocks,
    check_rigid_records,
    doubling_ratios,
    random_expr,
    random_forest,
    random_nsta,
    unique_term,
)


def answer_family(idx, node, **kw):
    got = set()
    for ans in AnswerStream(idx, node, **kw):
        fz = frozenset(ans)
        assert fz not in got, "duplicate answer emitted"
        assert len(set(ans)) == len(ans), "repeated preorder within one answer"
        got.add(fz)
    return got


def build(g, a):
    return ProductIndex(g, nsta_to_dbuta(a))


def rigid_read_bytecodes(sizes=(1000, 2000, 4000, 8000)) -> tuple[list, list]:
    """Bytecodes of a first read (the rigid records' fill and the walk)
    and of a second read (the walk alone) of the one answer, all n
    vertices, of a query that selects every label of ``unique_term(n)``,
    per size n; each read is one fresh stream's first ``next``."""
    first, second = [], []
    for n in sizes:
        f = parse_term(unique_term(n))
        labels = set(f.labels)
        g = compress_forest(f)
        idx = build(g, select_labels_nsta(labels, labels))
        answers = []
        first.append(bytecodes(lambda: answers.append(AnswerStream(idx, g.root).next())))
        assert len(idx.rigid) == 2 * n - 1
        second.append(bytecodes(lambda: answers.append(AnswerStream(idx, g.root).next())))
        assert [sorted(a) for a in answers] == [list(range(n))] * 2
    return first, second


def session_read_bytecodes(sizes=(1000, 2000, 4000, 8000)) -> list:
    """Bytecodes of reading every answer, one per vertex, of a fresh
    stream of the exactly-one query over ``unique_term(n)``, per size n:
    each answer is a draw from the root's path session."""
    counts = []
    for n in sizes:
        f = parse_term(unique_term(n))
        labels = set(f.labels)
        g = compress_forest(f)
        idx = build(g, exactly_one_nsta(labels))
        answers = []
        counts.append(bytecodes(lambda: answers.extend(AnswerStream(idx, g.root))))
        assert sorted(a for a, in answers) == list(range(n))
    return counts


def empty_solution(idx, node):
    # the stream emits the empty answer first exactly when it is an answer
    return AnswerStream(idx, node).next() == []


class TestConfSets:
    def test_single_leaf_rule(self):
        g = FSLP()
        g.add_leaf("a")
        a = exactly_one_nsta("a")
        b = nsta_to_dbuta(a)
        conf = build_conf_sets(g, b)
        assert conf.active[0] == conf.useful[0] == (b.delta0("a", False, 1),)
        assert conf.empty[0] == (b.delta0("a", False, 0),)

    def test_bit_blind_automaton_everywhere_empty_nonempty(self, rng):
        a = accept_all_nsta("ab")
        b = nsta_to_dbuta(a)
        for _ in range(15):
            g = compress_forest(random_forest(rng, 10))
            conf = build_conf_sets(g, b)
            assert all(conf.empty[i] for i in range(len(g)))

    def test_matches_unfolded_tree_rules(self, rng):
        for _ in range(40):
            a = random_nsta(rng, rng.randint(1, 3))
            b = nsta_to_dbuta(a)
            g = compress_forest(random_forest(rng, 10))
            conf = build_conf_sets(g, b)
            e = unfold(g, g.root)
            te = _TreeEnum(e, b)
            # compare for the root: same state values at the top position
            val = lambda qs: sorted(b.value(q) for q in qs)
            assert val(conf.active[g.root]) == val(te.act[0])
            assert val(conf.useful[g.root]) == val(te.use[0])
            assert val(conf.empty[g.root]) == val(te.emp[0])

    def test_alphabet_mismatch_surfaces(self):
        g = FSLP()
        g.add_leaf("z")
        a = exactly_one_nsta("ab")  # never saw label z
        b = nsta_to_dbuta(a)
        conf = build_conf_sets(g, b)
        # unknown labels yield empty initial sets, hence the empty pair-set state
        assert b.value(conf.active[0][0]) == ("p", ())


def _positions_to_nodes(flat, g, root):
    out = {0: root}
    stack = [(0, root)]
    while stack:
        pos, n = stack.pop()
        if flat.kind[pos] != "leaf":
            for cpos, cn in ((flat.left[pos], g.lefts[n]), (flat.right[pos], g.rights[n])):
                out[cpos] = cn
                stack.append((cpos, cn))
    return out


class TestProduct:
    def test_active_configs_always_reach_useful(self, rng):
        # structural consequence of disjointness: a session opened on any
        # active configuration emits at least one (useful config, effect) pair
        for _ in range(40):
            a = random_nsta(rng, rng.randint(1, 3))
            g = compress_forest(random_forest(rng, 8))
            idx = build(g, a)
            for pid in idx.pairs:
                node, q = idx.pair(pid)
                sess = PathSession(idx.norm, idx.pid(node, q))
                first = sess.next()
                assert first is not None, (node, q)
                tnode, tq = idx.pair(first[0])
                assert tq in set(idx.shape_of[tnode][1])  # its useful row

    def test_leaf_only_product_has_no_edges(self):
        g = FSLP()
        g.add_leaf("a")
        idx = build(g, exactly_one_nsta("a"))
        # no edges: every pair is a normalized leaf of its own
        for pid in range(len(idx.pairs)):
            v = idx.norm.vertex_of[pid]
            assert v >= 0 and not idx.norm.is_shortcut(pid) and idx.norm.is_leaf(v)

    def test_edges_match_tree_level_product(self, rng):
        # every occurrence of a DAG node reaches exactly the useful pairs
        # that the tree-level edges reach
        for _ in range(40):
            a = random_nsta(rng, rng.randint(1, 3))
            g = compress_forest(random_forest(rng, 8))
            idx = build(g, a)
            b = idx.b
            e = unfold(g, g.root)
            te = _TreeEnum(e, b)
            flat = te.flat
            pos_node = _positions_to_nodes(flat, g, g.root)
            for pos, node in pos_node.items():
                if flat.kind[pos] == "leaf":
                    continue
                for p in te.act[pos]:
                    want = {(pos_node[upos], q) for upos, q in te.succ_u((pos, p))}
                    sess = PathSession(idx.norm, idx.pid(node, p))
                    got = {idx.pair(pid) for pid, _ in sess}
                    assert got == want, (pos, node, p)

    def test_succ_tuples_match_pair_scan(self, rng):
        for _ in range(30):
            a = random_nsta(rng, rng.randint(1, 3))
            g = compress_forest(random_forest(rng, 8))
            idx = build(g, a)
            b = idx.b
            for i in range(len(g)):
                if g.is_leaf_node(i):
                    continue
                l, r = g.lefts[i], g.rights[i]
                op = g.kinds[i]
                want = {}
                for q1 in idx.shape_of[l][0]:  # the active rows
                    for q2 in idx.shape_of[r][0]:
                        want.setdefault(b.delta2(q1, q2, op), []).append((q1, q2))
                for q, tuples in want.items():
                    succ = idx.succ(idx.pid(i, q))
                    # succ names the children's pairs by pid
                    for pl, pr in succ:
                        assert idx.node_of[pl] == l and idx.node_of[pr] == r
                    got = tuple((idx.pair(pl)[1], idx.pair(pr)[1]) for pl, pr in succ)
                    assert got == tuple(tuples)


class TestPointSessions:
    def test_point_session_is_the_morphism_session_acted_on(self, rng):
        shortcuts = 0
        for _ in range(40):
            a = random_nsta(rng, rng.randint(1, 3))
            idx = build(compress_forest(random_forest(rng, 10)), a)
            norm = idx.norm
            for pid in idx.pairs:
                shortcuts += norm.is_shortcut(pid)
                p = (rng.randrange(100), rng.randrange(100))
                want = [(t, effects.act(p, m)) for t, m in PathSession(norm, pid)]
                assert list(PathSession(norm, pid, p)) == want, pid
        assert shortcuts  # a shortcut source starts from its acted-on morphism


class TestSinglePath:
    def test_only_pair_is_the_single_session_pair(self, rng):
        single = several = 0
        for _ in range(40):
            a = random_nsta(rng, rng.randint(1, 3))
            g = compress_forest(random_forest(rng, 10))
            idx = build(g, a)
            for pid in range(len(idx.pairs)):
                want = list(PathSession(idx.norm, pid))
                got = idx.norm.only_pair(pid)
                if len(want) == 1:
                    assert got == want[0], pid
                    single += 1
                else:
                    assert got is None, pid
                    several += 1
        assert single and several  # both branches were exercised

    @staticmethod
    def _count_sessions(monkeypatch):
        opened = []

        class CountingSession(PathSession):
            __slots__ = ()

            def __init__(self, norm, source, *args):
                opened.append(source)
                super().__init__(norm, source, *args)

        monkeypatch.setattr(msoenum, "PathSession", CountingSession)
        return opened

    def test_select_labels_stream_opens_no_session(self, rng, monkeypatch):
        opened = self._count_sessions(monkeypatch)
        g = compress_forest(parse_term(random_term(rng, 300, "abc")))
        idx = build(g, select_labels_nsta({"b"}, "abc"))
        (answer,) = list(AnswerStream(idx, g.root))
        assert len(answer) > 50  # a witness tree of hundreds of nodes
        assert opened == []

    def test_exactly_one_stream_still_opens_sessions(self, rng, monkeypatch):
        opened = self._count_sessions(monkeypatch)
        g = compress_forest(parse_term(random_term(rng, 300, "abc")))
        idx = build(g, exactly_one_nsta("abc"))
        assert len(list(AnswerStream(idx, g.root))) == 300
        assert opened

    def test_exactly_one_stream_composes_no_effect(self, monkeypatch):
        g = compress_forest(parse_term(random_term(random.Random(17), 300, "abc")))
        idx = build(g, exactly_one_nsta("abc"))  # every stored morphism is composed here
        calls = []
        real = effects.compose

        def counting(f, h):
            calls.append(1)
            return real(f, h)

        monkeypatch.setattr(effects, "compose", counting)
        monkeypatch.setattr(effects.PreorderCategory, "compose", staticmethod(counting))
        stream = AnswerStream(idx, g.root, record_steps=True)
        answers = list(stream)
        assert len(answers) == 300 and calls == []
        # the stored run: morphism sessions made 803 compose calls for it
        digest = hashlib.sha256(repr((answers, stream.step_log)).encode()).hexdigest()
        assert digest == "973c75ad0cc97528126cabef32c6285743da72825116c7b470b73d4891ab9b29"
        for pid in idx.pairs:  # the counter does see a morphism session
            list(PathSession(idx.norm, pid))
        assert calls

    def test_select_labels_witness_tree_has_no_unary_node(self, rng):
        g = compress_forest(parse_term(random_term(rng, 300, "abc")))
        stream = AnswerStream(build(g, select_labels_nsta({"b"}, "abc")), g.root)
        answer = stream.next()
        assert len(answer) > 50
        assert all(w.kind != msoenum._UNARY for w in stream._pre)
        # no choice anywhere: the root is one rigid node, expanded in the walk
        assert stream._root.kind == msoenum._RIGID and stream._pre == []
        assert stream.next() is None  # the one answer

    def test_deep_chain_streams_without_recursion(self):
        # a 5000-node left-deep hc chain, built as `bench --family chain`
        # builds it: the rigid records are filled with an explicit stack
        g = FSLP()
        node = leaf_id = g.add_leaf("a")
        for _ in range(4999):
            node = g.add_hc(node, leaf_id)
        g.root = node
        stream = AnswerStream(build(g, select_labels_nsta({"a"}, "a")), g.root)
        answer = stream.next()
        assert stream._root.kind == msoenum._RIGID
        assert sorted(answer) == list(range(5000))
        assert stream.next() is None
        check_rigid_records(stream.idx)

    def test_later_reads_append_stored_offsets(self, rng):
        # a select-b answer is rigid subtrees: the first walk stores each
        # small keyed record's elements as offsets from its c, and a later
        # stream appends them in one extend per record (today's counts:
        # 159 971 and 15 346 bytecodes, 76 tuples of at most 72 offsets)
        g = compress_forest(parse_term(random_term(rng, 5000, "abc")))
        idx = build(g, select_labels_nsta({"b"}, "abc"))
        for pid in AnswerStream(idx, g.root)._finals:
            idx.fill_rigid(pid)  # so that the first count is the walk alone
        answers = []
        first = bytecodes(lambda: answers.append(AnswerStream(idx, g.root).next()))
        stored = dict(idx.offsets)
        second = bytecodes(lambda: answers.append(AnswerStream(idx, g.root).next()))
        assert answers[0] == answers[1] and len(answers[0]) > 1000
        assert stored and idx.offsets == stored  # the second read stores nothing
        assert max(map(len, stored.values())) <= msoenum._OFFSET_NODES
        assert 5 * second <= first, (first, second)
        check_rigid_records(idx)

    def test_rigid_reads_double_with_size(self):
        # the whole answer is one rigid subtree: the first read fills its
        # 2n - 1 records and walks them, a second read only walks, and
        # each costs a fixed count of bytecodes per vertex
        first, second = rigid_read_bytecodes()
        check_counts_double(first, "test_msoenum.rigid_read_bytecodes((1000, 2000))[0]")
        check_counts_double(second, "test_msoenum.rigid_read_bytecodes((1000, 2000))[1]")

    def test_session_reads_double_with_size(self):
        # every answer is one draw from the root's session: a fixed count
        # of bytecodes per answer
        counts = session_read_bytecodes()
        check_counts_double(counts, "test_msoenum.session_read_bytecodes((1000, 2000))")

    @pytest.mark.parametrize("make, records", [(row_fslp, 61), (chain_fslp, 121)])
    def test_records_of_an_exponential_unfolding(self, make, records):
        # 2**60 vertices from about 60 nodes: a record holds its children's
        # records, so its unfolding is exponential; filling and checking
        # the records must touch each record once, never the unfolding
        g = make("b", 2**60)
        idx = build(g, select_labels_nsta({"b"}, "b"))
        finals = AnswerStream(idx, g.root)._finals

        def fill_and_check():
            for pid in finals:
                idx.fill_rigid(pid)
            check_rigid_records(idx)

        count = bytecodes(fill_and_check)
        assert len(idx.rigid) == records and count < 2000 * records  # about 740 each
        steps = [idx.rigid[pid][0] for pid in finals]
        assert steps and all(2**61 < s < 2**63 for s in steps)

    def test_exactly_one_witness_trees_keep_unary_nodes(self, rng):
        g = compress_forest(parse_term(random_term(rng, 300, "abc")))
        stream = AnswerStream(build(g, exactly_one_nsta("abc")), g.root)
        unary = 0
        for _ in stream:
            unary += sum(w.kind == msoenum._UNARY for w in stream._pre)
        assert unary

    def test_drawn_leaves_are_kept_as_elements(self, rng, monkeypatch):
        # each exactly-one witness tree is a unary root and the leaf it
        # draws: the leaf is the root's element, so a stream builds one
        # node per root it opens and none per answer
        built = []

        class CountingNode(msoenum._WNode):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(msoenum, "_WNode", CountingNode)
        g = compress_forest(parse_term(random_term(rng, 300, "abc")))
        stream = AnswerStream(build(g, exactly_one_nsta("abc")), g.root)
        answers = 0
        for answer in stream:
            drawn = [w.elem for w in stream._pre if w.kind == msoenum._UNARY and w.child is None]
            assert drawn == answer
            answers += 1
        assert answers > 50
        assert len(built) == len(stream._finals)

    def test_fill_rigid_decides_every_start(self, monkeypatch):
        # at least one b in "bb": the root pair has three paths, so it is a
        # unary node, and the binary pair it draws starts two leaf pairs
        g = compress_forest(parse_term("bb"))
        idx = build(g, at_least_one_nsta("ab"))
        stream = AnswerStream(idx, g.root)
        answers, children = [], []
        for answer in stream:
            answers.append(sorted(answer))
            children += [x for w in stream._pre if w.kind == msoenum._BINARY for x in (w.left, w.right)]
        assert sorted(answers) == [[0], [0, 1], [1]]
        assert children and all(x.kind == msoenum._RIGID and x.rec is msoenum._LEAF_RECORD for x in children)
        root, = stream._finals
        assert idx.norm.only_pair(root) is None
        assert idx.rigid[root] is None  # the multi-path start is kept too
        calls = []
        only_pair = Normalizer.only_pair
        monkeypatch.setattr(Normalizer, "only_pair", lambda self, pid: calls.append(pid) or only_pair(self, pid))
        assert [sorted(a) for a in AnswerStream(idx, g.root)] == answers
        assert calls == []  # a second stream reads every start off rigid

    def test_answers_and_steps_match_the_session_walk(self, rng, monkeypatch):
        # the single-path branch counts what a session would (1 step at the
        # start, 1 at the draw): switched off, every stream is unchanged
        cases = []
        for n in (50, 300):
            g = compress_forest(parse_term(random_term(rng, n, "abc")))
            cases += [(g, select_labels_nsta({"b"}, "abc")), (g, exactly_one_nsta("abc"))]
        for _ in range(30):
            cases.append((compress_forest(random_forest(rng, 10)), random_nsta(rng, rng.randint(1, 3))))
        runs = []
        for g, a in cases:
            stream = AnswerStream(build(g, a), g.root, record_steps=True)
            runs.append((list(stream), stream.step_log))
        opened = self._count_sessions(monkeypatch)
        rigid = []

        class CountingNode(msoenum._WNode):
            __slots__ = ()

            def __init__(self, kind, *args):
                if kind == msoenum._RIGID:
                    rigid.append(self)
                super().__init__(kind, *args)

        monkeypatch.setattr(msoenum, "_WNode", CountingNode)
        monkeypatch.setattr(Normalizer, "only_pair", lambda self, source: None)
        for (g, a), (answers, log) in zip(cases, runs):
            # a fresh index: no record filled with only_pair on is reused
            stream = AnswerStream(build(g, a), g.root, record_steps=True)
            assert list(stream) == answers
            assert stream.step_log == log
        assert opened  # the streams above did go through sessions
        assert rigid and all(x.rec is msoenum._LEAF_RECORD for x in rigid)  # and no rigid node but leaves


class TestEmptySolution:
    def test_accept_all(self):
        g = compress_forest(parse_term("ab"))
        a = accept_all_nsta("ab")
        idx = build(g, a)
        assert empty_solution(idx, g.root)

    def test_requires_selection(self):
        g = compress_forest(parse_term("ab"))
        a = at_least_one_nsta("ab")
        idx = build(g, a)
        assert not empty_solution(idx, g.root)

    def test_agrees_with_oracle(self, rng):
        for _ in range(60):
            a = random_nsta(rng, rng.randint(1, 3))
            f = random_forest(rng, 8)
            g = compress_forest(f)
            idx = build(g, a)
            assert empty_solution(idx, g.root) == nsta_accepts(a, f, [])


class TestEnumerate:
    def test_reject_all_is_immediately_exhausted(self):
        g = compress_forest(parse_term("ab"))
        idx = build(g, reject_all_nsta("ab"))
        stream = AnswerStream(idx, g.root)
        assert stream.next() is None

    def test_only_empty(self):
        g = compress_forest(parse_term("ab"))
        idx = build(g, only_empty_nsta("ab"))
        stream = AnswerStream(idx, g.root)
        assert stream.next() == []
        assert stream.next() is None

    def test_type_one_vertex_rejected(self):
        g = FSLP()
        g.add_leafctx("a")
        idx = build(g, accept_all_nsta("a"))
        with pytest.raises(ValueError):
            AnswerStream(idx, 0)

    def test_singletons_on_wide_row(self):
        k = 20
        g = row_fslp("a", 2**k)
        idx = build(g, exactly_one_nsta("a"))
        stream = AnswerStream(idx, g.root, record_steps=True)
        seen = set()
        for i, ans in enumerate(stream):
            if i >= 1000:
                break
            assert len(ans) == 1
            assert ans[0] not in seen and 0 <= ans[0] < 2**k
            seen.add(ans[0])
        assert len(seen) == 1000
        assert max(stream.step_log) <= 16  # bounded, independent of 2^k

    def test_exhaustive_oracle_small(self, rng):
        for _ in range(120):
            a = random_nsta(rng, rng.randint(1, 3))
            f = random_forest(rng, 10)
            g = compress_forest(f)
            idx = build(g, a)
            got = answer_family(idx, g.root)
            assert got == brute_select(a, f)

    def test_enumeration_from_inner_forest_nodes(self, rng):
        for _ in range(25):
            a = random_nsta(rng, 2)
            g = compress_forest(random_forest(rng, 9))
            idx = build(g, a)
            st = idx.stats
            for node in range(len(g)):
                if st.tau[node] != 0 or st.nverts[node] > 8:
                    continue
                got = answer_family(idx, node)
                want = brute_select(a, evaluate(g, node))
                assert got == want

    def test_hole_size_resets_across_a_forest_node(self):
        # w is a unary witness node inside a context whose hole holds one
        # vertex; its drawn path crosses the forest node f into the context
        # c2, so the witness's hole size must become f's plug (1), not 1 + 1
        c2 = hc(leafctx("b"), leaf("b"))  # b(·) b
        f = vc(c2, leaf("c"))  # b(c) b
        w = hc(f, leafctx("c"))  # b(c) b c(·)
        e = vc(hc(w, leaf("b")), leaf("c"))  # b(c) b c(c) b
        g = fold_expr(e)
        idx = build(g, select_labels_nsta({"b"}, {"b", "c"}))
        assert answer_family(idx, g.root) == {frozenset({0, 2, 5})}


class TestUncompressedReference:
    def test_agreement_with_dag_version(self, rng):
        for _ in range(60):
            a = random_nsta(rng, rng.randint(1, 3))
            b = nsta_to_dbuta(a)
            e = random_expr(rng, 4)
            emitted = list(enumerate_select_uncompressed(e, b))
            got_tree = set(emitted)
            assert len(emitted) == len(got_tree), "tree-level stream emitted a duplicate"
            g = fold_expr(e)
            idx = ProductIndex(g, b)
            got_dag = answer_family(idx, g.root)
            assert got_tree == got_dag

    def test_accept_all_three_leaves(self):
        e = fold_expr  # noqa: F841  (imported-name guard)
        from fslpenum import hc, leaf

        expr = hc(leaf("a"), hc(leaf("a"), leaf("a")))
        b = nsta_to_dbuta(accept_all_nsta("a"))
        got = set(enumerate_select_uncompressed(expr, b))
        assert got == {frozenset(s) for s in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]}

    def test_single_leaf_must_select(self):
        from fslpenum import leaf

        b = nsta_to_dbuta(at_least_one_nsta("a"))
        got = set(enumerate_select_uncompressed(leaf("a"), b))
        assert got == {frozenset({0})}

    def test_matches_leaf_subset_oracle(self, rng):
        for _ in range(40):
            a = random_nsta(rng, 2)
            b = nsta_to_dbuta(a)
            e = random_expr(rng, 3)
            po = leaf_preorders(e)
            want = {
                frozenset(po[i] for i in s) for s in brute_dbuta_select(b, e)
            }
            assert set(enumerate_select_uncompressed(e, b)) == want


class TestDifferentialAtScale:
    """The engine against the explicit-tree oracle on forests of 10^2-10^3
    vertices: one answer with a witness tree of hundreds of nodes (taken
    without path sessions), every singleton (drawn from a session), and
    random automata, whose witness trees mix session nodes and rigid
    subtrees."""

    @pytest.mark.parametrize("n", [100, 400, 1000])
    def test_engine_matches_tree_oracle(self, n):
        rng = random.Random(n)
        f = parse_term(random_term(rng, n, "abc"))
        g = compress_forest(f)
        e = unfold(g, g.root)
        bees = frozenset(k for k, label in enumerate(f.labels) if label == "b")

        sel = build(g, select_labels_nsta({"b"}, "abc"))
        assert [frozenset(a) for a in AnswerStream(sel, g.root)] == [bees]
        assert list(enumerate_select_uncompressed(e, sel.b)) == [bees]

        one = build(g, exactly_one_nsta("abc"))
        got = [frozenset(a) for a in AnswerStream(one, g.root)]
        want = list(enumerate_select_uncompressed(e, one.b))
        assert len(got) == len(set(got)) == len(want) == n
        assert set(got) == set(want) == {frozenset({k}) for k in range(n)}


    @staticmethod
    def _random_automaton_streams():
        # random 1-4-state queries on the root and the larger forest nodes
        # of 100-1000-vertex forests
        rng = random.Random(2024)
        for _ in range(20):
            g = compress_forest(parse_term(random_term(rng, rng.randint(100, 1000), "ab")))
            a = random_nsta(rng, rng.randint(1, 4))
            idx = build(g, a)
            st = idx.stats
            nodes = [v for v in range(len(g)) if st.tau[v] == 0 and st.nverts[v] >= 100]
            for v in nodes[-4:]:
                yield g, a, idx, v

    def test_random_automata_match_tree_oracle(self):
        # both sides stop one answer past the cap, and a case over it on
        # both sides is skipped and counted
        cap = 32
        compared = nonempty = skipped = mixed = past_rigid = 0
        for g, a, idx, v in self._random_automaton_streams():
            stream = AnswerStream(idx, v)
            got, sessions, rigid = [], False, False
            for ans in islice(stream, cap + 1):
                got.append(frozenset(ans))
                pre, i = stream._pre, stream._last_nonmax
                sessions |= any(w.kind == msoenum._UNARY for w in pre)
                # the next advance scans past a rigid child of a node up
                # to the advanced one
                rigid |= i is not None and any(
                    w.kind == msoenum._BINARY
                    and msoenum._RIGID in (w.left.kind, w.right.kind)
                    for w in pre[: i + 1]
                )
            want = list(islice(enumerate_select_uncompressed(unfold(g, v), idx.b), cap + 1))
            assert len(set(got)) == len(got) and len(set(want)) == len(want)
            assert (len(got) > cap) == (len(want) > cap), v
            if len(got) <= cap:
                assert set(got) == set(want), v
                compared += 1
                nonempty += bool(got)
                continue
            # over the cap: every answer drawn must still be one
            f = evaluate(g, v)
            assert all(nsta_accepts(a, f, ans) for ans in got), v
            skipped += 1
            mixed += rigid and sessions
            past_rigid += rigid
        # random queries mostly have no answer or exponentially many
        assert compared >= 40 and nonempty >= 2 and skipped >= 20
        assert mixed >= 20  # advances across rigid subtrees, beside session nodes
        assert past_rigid >= 20  # advances across rigid subtrees

    def test_binary_nodes_are_drawn_by_unary_nodes(self):
        # the paper's alternation: a binary node is only ever the child a
        # unary node drew, and only a rigid node stands for full-tree nodes
        # it does not build
        binary = rigid = 0
        for _, _, idx, v in self._random_automaton_streams():
            stream = AnswerStream(idx, v)
            for _ in islice(stream, 33):
                pre = stream._pre
                drawn = {id(w.child) for w in pre if w.kind == msoenum._UNARY}
                for w in pre:
                    if w.kind == msoenum._BINARY:
                        assert id(w) in drawn
                        binary += 1
                # rigid nodes stay out of pre: the root, or a binary node's child
                nodes = pre + [stream._root] if stream._root else list(pre)
                nodes += [x for w in pre if w.kind == msoenum._BINARY for x in (w.left, w.right)]
                assert not any(hasattr(x, "rec") for x in nodes if x.kind != msoenum._RIGID)
                rigid += sum(x.kind == msoenum._RIGID and x.rec[1] > 1 for x in nodes)
            check_rigid_records(idx)
        assert binary >= 10**4 and rigid >= 10**3  # 159 986 and 62 706 today


class TestDelayAtScale:
    def test_deep_slp_delay_independent_of_data(self):
        # decompressed size 2^16 vs 2^20; per-answer steps stay in one band
        logs = {}
        for k in (16, 20):
            g = row_fslp("a", 2**k)
            idx = build(g, exactly_one_nsta("a"))
            stream = AnswerStream(idx, g.root, record_steps=True)
            for i, _ in enumerate(stream):
                if i >= 500:
                    break
            logs[k] = stream.step_log
        assert max(logs[16]) == max(logs[20])
        # identical profiles once the k-dependent initial descent has passed
        assert logs[16][17:400] == logs[20][21:404]

    def test_output_linear_bound(self, rng):
        for _ in range(30):
            a = random_nsta(rng, 2)
            g = compress_forest(random_forest(rng, 10))
            idx = build(g, a)
            stream = AnswerStream(idx, g.root, record_steps=True)
            for ans in stream:
                assert stream.last_steps <= 40 * max(1, len(ans))


def root_selecting_nsta(alphabet) -> NSTA:
    """Accepts (F, S) iff S is one root of F: state 1 is a selected vertex
    with nothing selected below it, and 2 a forest read with that root."""
    iota = {(a, bit): frozenset([bit]) for a in alphabet for bit in (0, 1)}
    return NSTA(3, frozenset([(0, 0, 0), (1, 0, 1), (0, 1, 2), (2, 0, 2)]), iota, 0, 2)


class TestShapeMemo:
    """The state-pair walk runs once per row shape (``ProductIndex.shapes``)."""

    @pytest.mark.parametrize("hc_first", [True, False])
    def test_key_includes_the_operation(self, hc_first):
        # hc(l, r) and vc(l, r) over one context l = a(*) and one forest
        # r = b have identical child rows; only the operation tells them
        # apart: vc(l, r) = a(b) has one root, vc(hc(l, r), c) = a(c) b two
        g = FSLP()
        l, r = g.add_leafctx("a"), g.add_leaf("b")
        if hc_first:
            h, v = g.add_hc(l, r), g.add_vc(l, r)
        else:
            v, h = g.add_vc(l, r), g.add_hc(l, r)
        w = g.add_vc(h, g.add_leaf("c"))
        a = root_selecting_nsta("abc")
        idx = build(g, a)
        assert idx.shape_of[v][0] != idx.shape_of[h][0]  # the active rows
        for node, want in ((v, {frozenset({0})}), (w, {frozenset({0}), frozenset({2})})):
            assert brute_select(a, evaluate(g, node)) == want
            assert answer_family(idx, node) == want

    def test_delta2_calls_follow_the_row_shapes(self, monkeypatch):
        # the walk's delta2 calls are bounded by the shapes, not the nodes:
        # an 8x larger forest (over the same alphabet and query) makes no
        # more calls, and every call belongs to one shape's walk
        calls = [0]
        delta2 = DBUTA.delta2

        def counted(self, q1, q2, op):
            calls[0] += 1
            return delta2(self, q1, q2, op)

        monkeypatch.setattr(DBUTA, "delta2", counted)
        counts, built = [], []
        for n in (2000, 16000):
            g = compress_forest(parse_term(random_term(random.Random(5), n)))
            calls[0] = 0
            built.append(build_enum_structure(g, exactly_one_nsta("ab")))
            counts.append(calls[0])
        assert 0 < counts[1] <= counts[0], counts
        for eds, count in zip(built, counts):
            shapes, states = len(eds.product.shapes), eds.dbuta.state_count
            assert count < shapes * states**2, (count, shapes, states)
            assert shapes < len(eds.fslp) // 10

    @pytest.mark.timing
    def test_build_time_doubles_with_size(self):
        # compressed random forests of 25k, 50k and 100k vertices over an
        # alphabet of n/8 labels, so every size meets new leaf shapes and the
        # memo grows with the forest: each doubling must cost at most 3x
        # (``doubling_ratios``: interleaved, best of five, CPU time of this
        # process from a collected heap)
        sizes = [25000, 50000, 100000]
        rng = random.Random(11)
        inputs = {}
        for n in sizes:
            alphabet = "".join(chr(0x4E00 + k) for k in range(n // 8))  # CJK letters
            inputs[n] = compress_forest(parse_term(random_term(rng, n, alphabet)))
        query = exactly_one_nsta("ab")
        ratios, times = doubling_ratios(sizes, inputs, lambda g: build_enum_structure(g, query))
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)


class TestPidBlocks:
    """A node's pairs are one block of pids, and no pair is pruned."""

    @staticmethod
    def _relabelled(rng, relabels):
        # random queries on random forests: the built index, then the same
        # index after chained relabels (labels c are outside the alphabet)
        for _ in range(40):
            f = random_forest(rng, 10)
            eds = build_enum_structure(compress_forest(f), random_nsta(rng, rng.randint(1, 3)))
            yield eds.product
            root = eds.fslp.root
            for _ in range(relabels):
                eds, root, _ = relabel(eds, root, rng.randrange(len(f)), rng.choice("abc"))
            yield eds.product

    def test_blocks_and_accessors_hold_across_relabels(self, rng):
        for product in self._relabelled(rng, 50):
            check_pid_blocks(product)

    def test_no_pair_is_pruned(self, rng):
        # every active pair reaches a useful one, so the per-node feed
        # never meets a pruned child
        for product in self._relabelled(rng, 30):
            assert min(product.norm.vertex_of) >= 0
