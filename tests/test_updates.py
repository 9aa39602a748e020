import pytest

from fslpenum import (
    compress_forest,
    evaluate,
    parse_term,
)
from fslpenum.fixtures import (
    accept_all_nsta,
    exactly_one_nsta,
    select_labels_nsta,
    shared_subtree_fslp,
)
from fslpenum.oracle import brute_select, canonical_form
from fslpenum.updates import build_enum_structure, extend, relabel

from conftest import random_forest, random_nsta


def family(eds, node):
    return {frozenset(ans) for ans in eds.enumerate(node)}


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
        assert len(eds.fslp) == n and canonical_form(eds) == before
        # and the structure stays usable
        eds, ids = extend(eds, [("hc", leaf_a, leaf_b)])
        assert canonical_form(eds) == canonical_form(build_enum_structure(eds.fslp, a))
        assert family(eds, ids[0]) == brute_select(a, parse_term("ab"))

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

    def test_same_symbol_still_adds_nodes(self):
        g = shared_subtree_fslp()
        eds = build_enum_structure(g, accept_all_nsta("ab"))
        n = len(eds.fslp)
        eds, new_root, added = relabel(eds, g.root, 3, "b")
        assert added > 0 and len(eds.fslp) == n + added
        assert evaluate(eds.fslp, new_root) == evaluate(eds.fslp, g.root)

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
