import dataclasses
import gc
import hashlib
import random
import time

import pytest

from fslpenum import (
    FSLP,
    NSTA,
    AnswerStream,
    compress_forest,
    evaluate,
    nsta_to_dbuta,
    parse_term,
)
from fslpenum.automata import StateLimitExceeded
from fslpenum.fixtures import (
    accept_all_nsta,
    exactly_one_nsta,
    random_term,
    select_labels_nsta,
    shared_subtree_fslp,
)
from fslpenum.oracle import brute_select, canonical_form
from fslpenum.updates import build_enum_structure, extend, relabel

from conftest import bytecodes, check_pid_blocks, check_rigid_records, check_stats, count_ratios, random_forest, random_nsta, under_hash_seeds


def family(eds, node):
    return {frozenset(ans) for ans in eds.enumerate(node)}


def relabel_bytecodes(sizes=(500, 1000, 2000)) -> list:
    """Bytecodes of relabelling the leftmost leaf of a left-deep hc chain,
    whose path holds every node, per chain size."""
    counts = []
    for n in sizes:
        g = FSLP()
        leaf_a = g.root = g.add_leaf("a")
        for _ in range(n - 1):
            g.root = g.add_hc(g.root, leaf_a)
        eds = build_enum_structure(g, exactly_one_nsta("ab"))
        counts.append(bytecodes(lambda: relabel(eds, g.root, 0, "x")))
    return counts


class TestExtend:
    def test_empty_extension_is_identity(self):
        g = shared_subtree_fslp()
        eds = build_enum_structure(g, select_labels_nsta({"b"}, "ab"))
        before = canonical_form(eds)
        eds, ids = extend(eds, [])
        assert ids == [] and canonical_form(eds) == before

    def test_one_node_extension_equals_rebuild(self):
        g = compress_forest(parse_term("ab"))
        a = exactly_one_nsta("ab")
        eds = build_enum_structure(g, a)
        leaf_a = next(i for i in range(len(g)) if g.node_def(i) == ("leaf", "a"))
        leaf_b = next(i for i in range(len(g)) if g.node_def(i) == ("leaf", "b"))
        eds, ids = extend(eds, [("hc", leaf_a, leaf_b)])
        rebuilt = build_enum_structure(eds.fslp, a)
        assert canonical_form(eds) == canonical_form(rebuilt)
        assert family(eds, ids[0]) == brute_select(a, parse_term("ab"))

    def test_chain_of_50_extensions_equals_batch_equals_rebuild(self):
        a = exactly_one_nsta("ab")
        base = compress_forest(parse_term("ab"))
        n0 = len(base)
        defs = [("leaf", "b")]
        for i in range(49):
            defs.append(("hc", n0 + i, n0 + i))
        one = build_enum_structure(compress_forest(parse_term("ab")), a)
        for d in defs:
            one, _ = extend(one, [d])
        batch = build_enum_structure(compress_forest(parse_term("ab")), a)
        batch, _ = extend(batch, defs)
        rebuilt = build_enum_structure(one.fslp, a)
        assert canonical_form(one) == canonical_form(batch) == canonical_form(rebuilt)

    def test_malformed_extension_rejected(self):
        g = compress_forest(parse_term("a"))
        eds = build_enum_structure(g, accept_all_nsta("a"))
        before = canonical_form(eds)
        with pytest.raises(ValueError):
            extend(eds, [("hc", 0, 7)])  # forward reference
        with pytest.raises(ValueError):
            extend(eds, [("frob", 0, 0)])  # unknown kind
        # a rejected extension leaves the structure untouched
        assert canonical_form(eds) == before
        # ill-typed definitions are rejected before anything is appended
        g = compress_forest(parse_term("ab"))
        a = exactly_one_nsta("ab")
        eds = build_enum_structure(g, a)
        leaf_a = next(i for i in range(len(g)) if g.node_def(i) == ("leaf", "a"))
        leaf_b = next(i for i in range(len(g)) if g.node_def(i) == ("leaf", "b"))
        before, n = canonical_form(eds), len(g)
        with pytest.raises(ValueError):
            extend(eds, [("vc", leaf_a, leaf_a)])  # vc needs a context on the left
        with pytest.raises(ValueError):
            extend(eds, [("leafctx", "a"), ("hc", n, n)])  # two holes, later in the batch
        for bad in (None, ""):  # a leaf label is a non-empty string
            with pytest.raises(ValueError, match="non-empty string label"):
                extend(eds, [("leaf", "a"), ("leaf", bad)])
        with pytest.raises(ValueError, match="non-empty string label"):
            relabel(eds, g.root, 0, "")
        for kind in ("leaf", "leafctx"):  # the hole is not a label
            with pytest.raises(ValueError, match=r"definition 1: the hole '\*' is not a label"):
                extend(eds, [("leaf", "a"), (kind, "*")])
        with pytest.raises(ValueError, match=r"the hole '\*' is not a label"):
            relabel(eds, g.root, 0, "*")
        assert len(eds.fslp) == n and canonical_form(eds) == before
        # and the structure stays usable
        eds, ids = extend(eds, [("hc", leaf_a, leaf_b)])
        assert canonical_form(eds) == canonical_form(build_enum_structure(eds.fslp, a))
        assert family(eds, ids[0]) == brute_select(a, parse_term("ab"))

    @pytest.mark.parametrize("bad", [True, False])
    def test_bool_child_id_rejected(self, bad):
        # a bool compares equal to 0 or 1, but stored as a child id it
        # reaches fslp.dumps as "True", which fslp.loads rejects
        g = compress_forest(parse_term("ab"))
        eds = build_enum_structure(g, exactly_one_nsta("ab"))
        before = (len(eds.fslp), eds.product.built, dataclasses.astuple(eds.stats))
        with pytest.raises(ValueError, match="definition 1 references an undeclared node"):
            extend(eds, [("leaf", "b"), ("hc", bad, 0)])
        assert (len(eds.fslp), eds.product.built, dataclasses.astuple(eds.stats)) == before

    def test_old_views_survive_extension(self):
        g = compress_forest(parse_term("ab"))
        a = exactly_one_nsta("ab")
        eds = build_enum_structure(g, a)
        root = g.root
        before = family(eds, root)
        leaf_a = next(i for i in range(len(g)) if g.node_def(i) == ("leaf", "a"))
        eds, _ = extend(eds, [("hc", root, leaf_a)])
        assert family(eds, root) == before


class TestRelabel:
    def test_worked_scenario(self):
        g = shared_subtree_fslp()
        a = select_labels_nsta({"b"}, {"a", "b", "d"})
        eds = build_enum_structure(g, a)
        old_root = g.root
        height = eds.stats.height[old_root]
        eds, new_root, added = relabel(eds, old_root, 14, "d")
        assert added <= height + 1
        assert eds.stats.height[new_root] <= height
        old = evaluate(shared_subtree_fslp(), old_root)
        new = evaluate(eds.fslp, new_root)
        diff = [v for v in range(16) if old.labels[v] != new.labels[v]]
        assert diff == [14] and new.labels[14] == "d"
        # select-b now excludes the relabelled vertex
        assert family(eds, new_root) == {frozenset(range(1, 16)) - {14}}
        rebuilt = build_enum_structure(eds.fslp, a)
        assert canonical_form(eds) == canonical_form(rebuilt)

    def test_same_symbol_adds_no_nodes(self):
        g = shared_subtree_fslp()
        eds = build_enum_structure(g, accept_all_nsta("ab"))
        n = len(eds.fslp)
        eds, new_root, added = relabel(eds, g.root, 3, "b")
        assert added == 0 and len(eds.fslp) == n
        assert evaluate(eds.fslp, new_root) == evaluate(eds.fslp, g.root)

    def test_existing_copies_are_reused(self):
        # relabelling back and forth appends the path once: the second
        # change back finds every copy of the first
        g = shared_subtree_fslp()
        a = select_labels_nsta({"b"}, {"a", "b", "d"})
        eds = build_enum_structure(g, a)
        eds, r1, added1 = relabel(eds, g.root, 14, "d")
        eds, r2, added2 = relabel(eds, r1, 14, "b")
        eds, r3, added3 = relabel(eds, r2, 14, "d")
        assert added1 > 0 and added2 == added3 == 0
        assert r2 == g.root and r3 == r1
        assert len(eds.fslp) == len(shared_subtree_fslp()) + added1

    def test_repeated_definitions_resolve_to_the_first(self):
        g = FSLP()
        leaf_a = g.add_leaf("a")
        g.add_leaf("a")  # a file may repeat a definition
        g.root = g.add_hc(leaf_a, leaf_a)
        eds = build_enum_structure(g, accept_all_nsta("ab"))
        assert eds.fslp.ids[("leaf", "a")] == leaf_a
        eds, root, added = relabel(eds, g.root, 1, "a")
        assert (root, added) == (g.root, 0)

    def test_fractional_preorder_is_rejected_a_fractional_preorder(self):
        g = compress_forest(parse_term("a(b c) d"))
        eds = build_enum_structure(g, accept_all_nsta("abcdx"))
        with pytest.raises(ValueError, match="^preorder 1.5 is not an integer$"):
            relabel(eds, g.root, 1.5, "x")
        assert len(g) == 7 and evaluate(g, g.root).labels == ("a", "b", "c", "d")

    @pytest.mark.timing
    def test_relabel_time_doubles_with_height(self):
        # a relabel costs O(height): on left-deep hc chains of n nodes, the
        # leftmost leaf's path holds every node, and each doubling must cost
        # at most 3x (interleaved, best of five, CPU time of this process
        # from a collected heap; a new label each time, so every copy is
        # appended)
        sizes = [2000, 4000, 8000]
        structures = {}
        for n in sizes:
            g = FSLP()
            leaf_a = g.root = g.add_leaf("a")
            for _ in range(n - 1):
                g.root = g.add_hc(g.root, leaf_a)
            structures[n] = build_enum_structure(g, exactly_one_nsta("ab"))
        times = {n: [] for n in sizes}
        for rep in range(5):
            for n in sizes:
                eds = structures[n]
                gc.collect()
                gc.disable()
                t0 = time.process_time()
                eds, _, added = relabel(eds, eds.fslp.root, 0, f"x{rep}")
                times[n].append(time.process_time() - t0)
                gc.enable()
                assert added == n
        best = [min(times[n]) for n in sizes]
        ratios = [best[i] / best[i - 1] for i in range(1, len(sizes))]
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)

    def test_relabel_bytecodes_double_with_height(self):
        # the relabel of test_relabel_time_doubles_with_height counted in
        # bytecodes: exact, so the bound is tight, and the same under any
        # hash seed
        counts = relabel_bytecodes()
        ratios = count_ratios(counts)
        assert all(1.9 <= r <= 2.1 for r in ratios), (ratios, counts)
        assert under_hash_seeds("test_updates.relabel_bytecodes()") == [counts] * 2

    def test_out_of_range(self):
        g = shared_subtree_fslp()
        eds = build_enum_structure(g, accept_all_nsta("ab"))
        with pytest.raises(ValueError):
            relabel(eds, g.root, 16, "a")

    def test_context_vertex_rejected(self):
        g = shared_subtree_fslp()
        eds = build_enum_structure(g, accept_all_nsta("ab"))
        with pytest.raises(ValueError):
            relabel(eds, 7, 0, "a")  # node 7 is the a_* context leaf

    def test_random_sequences_match_oracle_and_rebuild(self, rng):
        for trial in range(12):
            m = rng.randint(1, 3)
            a = random_nsta(rng, m)
            f = random_forest(rng, 8)
            g = compress_forest(f)
            eds = build_enum_structure(g, a)
            root = g.root
            current = f
            for _ in range(6):
                k = rng.randrange(eds.stats.nverts[root])
                sym = rng.choice("ab")
                height = eds.stats.height[root]
                ops_before = eds.ops
                eds, root, added = relabel(eds, root, k, sym)
                current = current.relabel(k, sym)
                assert added <= height + 1
                assert evaluate(eds.fslp, root) == current
                assert family(eds, root) == brute_select(a, current)
                q = eds.dbuta.state_count
                assert eds.ops - ops_before <= 4 * q * q * (height + 1) + 4
            rebuilt = build_enum_structure(eds.fslp, a)
            assert canonical_form(eds) == canonical_form(rebuilt), trial

    @pytest.mark.parametrize("query, want", [
        (exactly_one_nsta("abc"), (
            "4b107bee03e3963054146a6ccd4c60028a260e1e13ff663db86a3a2cea9bd78f",
            "df37988c07c50b46f785f01145bd980d4c7efafeb0bc713e3522c63f1b2ba7b0",
        )),
        (select_labels_nsta({"b"}, "abc"), (
            "7d7a7035c9326d0469f618c5ad5194faf7d0d063775b9d40508962eefeb76b8f",
            "e212b447717dbca48dcca4e1db67f99a294a47c43ee683173d1704ded106773e",
        )),
    ], ids=["exactly-one", "select-b"])
    def test_streams_across_relabels_match_the_stored_run(self, query, want):
        # SHA-256 of the answers and step logs of a stored run: the full
        # stream from the root, then the full streams after each of 20
        # chained relabels
        text = random_term(random.Random(2000), 2000, "abc")
        eds = build_enum_structure(compress_forest(parse_term(text)), query)
        root, rng = eds.fslp.root, random.Random(20)

        def stream_digest(h, node):
            stream = eds.enumerate(node, record_steps=True)
            h.update(repr((list(stream), stream.step_log)).encode())

        from_root, after = hashlib.sha256(), hashlib.sha256()
        stream_digest(from_root, root)
        for _ in range(20):
            eds, root, _ = relabel(eds, root, rng.randrange(2000), rng.choice("abc"))
            stream_digest(after, root)
        assert (from_root.hexdigest(), after.hexdigest()) == want

    def test_reads_after_relabels_reuse_stored_offsets(self):
        # offsets depend only on a pid's sub-DAG: after chained relabels,
        # a read from the newest root appends the offsets that reads from
        # the first root stored for the unchanged subtrees
        rng = random.Random(31)
        query = select_labels_nsta({"b"}, "abc")
        eds = build_enum_structure(compress_forest(parse_term(random_term(rng, 2000, "abc"))), query)
        idx = eds.product
        first_root = root = eds.fslp.root
        old = list(eds.enumerate(root))
        stored = dict(idx.offsets)
        assert stored
        for _ in range(10):
            eds, root, _ = relabel(eds, root, rng.randrange(2000), rng.choice("abc"))
        hits = []

        class Reads(dict):
            def get(self, key):
                found = super().get(key)
                if found is not None:
                    hits.append(key)
                return found

        idx.offsets = Reads(idx.offsets)
        got = list(eds.enumerate(root))
        reused = [k for k in hits if k in stored]
        assert sum(len(stored[k][0]) for k in reused) * 2 > len(got[0])  # most elements
        fresh = build_enum_structure(compress_forest(evaluate(eds.fslp, root)), query)
        assert [sorted(a) for a in got] == [sorted(a) for a in fresh.enumerate(fresh.fslp.root)]
        assert list(eds.enumerate(first_root)) == old  # the older snapshot
        check_rigid_records(idx)


def exactly_one_b_nsta(alphabet):
    """Accepts (F, S) iff S is one b-labelled vertex."""
    iota = {(a, 0): frozenset([0]) for a in alphabet}
    iota.update({(a, 1): frozenset([1]) if a == "b" else frozenset() for a in alphabet})
    return NSTA(2, frozenset([(0, 0, 0), (0, 1, 1), (1, 0, 1)]), iota, 0, 1)


class TestUnfedNode:
    """A node appended to the shared f-SLP but not yet fed to the index is
    unknown to every entry point, like a negative node."""

    @pytest.fixture
    def eds_and_node(self):
        g = compress_forest(parse_term("a(b)c"))
        eds = build_enum_structure(g, accept_all_nsta("abc"))
        return eds, g.add_leaf("b")

    def test_enumerate(self, eds_and_node):
        eds, node = eds_and_node
        with pytest.raises(ValueError, match=f"^unknown node {node}$"):
            eds.enumerate(node)

    def test_answer_stream(self, eds_and_node):
        eds, node = eds_and_node
        with pytest.raises(ValueError, match=f"^unknown node {node}$"):
            AnswerStream(eds.product, node)

    def test_relabel(self, eds_and_node):
        eds, node = eds_and_node
        for bad in (node, -1):
            with pytest.raises(ValueError, match=f"^unknown node {bad}$"):
                relabel(eds, bad, 0, "c")
        assert len(eds.fslp) == node + 1  # nothing was appended

    def test_a_walk_that_raises_leaves_only_fed_nodes(self):
        # a relabel whose second appended node needs a state past the cap:
        # the index keeps exactly the nodes it fed, so a later relabel
        # feeds the rest and matches a rebuild (the old feed kept a row of
        # the failed batch, and the next relabel raised a bare KeyError)
        rng = random.Random(3)
        g = compress_forest(parse_term(random_term(rng, 30, "ab")))
        b = nsta_to_dbuta(random_nsta(rng, 3, "abc"))
        eds = build_enum_structure(g, b)
        fed = len(g)
        b.max_states = b.state_count + 1
        with pytest.raises(StateLimitExceeded):
            relabel(eds, g.root, rng.randrange(30), "c")
        p = eds.product
        assert fed < p.built < len(g)
        check_pid_blocks(p)  # blocks of exactly the fed nodes
        b.max_states = None
        eds, _, _ = relabel(eds, g.root, 0, "a")
        assert canonical_form(eds) == canonical_form(build_enum_structure(eds.fslp, b))


class TestNonIntNode:
    """A node id that is not an int is unknown, even inside the range."""

    @pytest.fixture
    def eds(self):
        g = compress_forest(parse_term("a(b c) d"))
        return build_enum_structure(g, accept_all_nsta("abcd"))

    @pytest.mark.parametrize("node", [1.5, "root"])
    def test_enumerate(self, eds, node):
        node = float(eds.fslp.root) if node == "root" else node
        with pytest.raises(ValueError, match=f"^unknown node {node}$"):
            eds.enumerate(node)

    @pytest.mark.parametrize("node", [1.5, "root"])
    def test_relabel(self, eds, node):
        node = float(eds.fslp.root) if node == "root" else node
        before = len(eds.fslp)
        with pytest.raises(ValueError, match=f"^unknown node {node}$"):
            relabel(eds, node, 0, "x")
        assert len(eds.fslp) == before  # nothing was appended


class TestLongRelabelRun:
    def test_thousand_chained_relabels_match_rebuilds(self):
        # 10^3 seeded relabels on a 10^3-vertex forest, with labels from the
        # forest's own alphabet, so that about a third keep their label
        rng = random.Random(12)
        f = parse_term(random_term(rng, 1000, "abc"))
        alphabet = sorted(set(f.labels))
        a = exactly_one_b_nsta(alphabet)
        labels = list(f.labels)
        eds = build_enum_structure(compress_forest(f), a)
        root, start, total, unchanged = eds.fslp.root, len(eds.fslp), 0, 0
        for step in range(1, 1001):
            k = rng.randrange(len(f))
            sym = rng.choice(alphabet)
            same = labels[k] == sym
            labels[k] = sym
            eds, root, added = relabel(eds, root, k, sym)
            assert added == 0 or not same  # a same-label relabel appends nothing
            unchanged += same
            total += added
            if step % 100:
                continue
            assert len(eds.fslp) == start + total
            check_stats(eds.stats, eds.fslp)
            current = evaluate(eds.fslp, root)
            assert list(current.labels) == labels
            fresh = build_enum_structure(compress_forest(current), a)
            answers = family(eds, root)
            assert answers == family(fresh, fresh.fslp.root), step
            assert answers == {frozenset([v]) for v, l in enumerate(labels) if l == "b"}
            rebuilt = build_enum_structure(eds.fslp, a)
            assert canonical_form(eds) == canonical_form(rebuilt), step
        assert unchanged > 200  # same-label relabels occurred
