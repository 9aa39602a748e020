import random
from itertools import combinations, product

import pytest

from fslpenum import (
    NSTA,
    build_btau,
    build_enum_structure,
    compress_forest,
    dbuta_accepts,
    dbuta_run,
    evaluate,
    fold_expr,
    hc,
    leaf,
    leaf_preorders,
    leafctx,
    multivar_reduce,
    nsta_accepts,
    nsta_to_dbuta,
    parse_term,
    type_of,
    unfold,
    vc,
)
from fslpenum import automata as am
from fslpenum.automata import FAILURE, StateLimitExceeded
from fslpenum.fixtures import (
    accept_all_nsta,
    exactly_one_nsta,
    random_term,
    select_labels_nsta,
)

from conftest import (
    bytecodes,
    check_counts_double,
    doubling_ratios,
    random_any_expr,
    random_expr,
    random_forest,
    random_nsta,
)


def iota_text(n: int) -> str:
    """nSTA text with ``n`` iota lines for one key, each adding a state."""
    return "\n".join(["nsta v1", f"states {n}", *(f"iota a 0 {q}" for q in range(n)),
                      "trans 0 0 0", "init 0", "final 0"]) + "\n"


def loads_bytecodes(sizes=(1000, 2000, 4000, 8000)) -> list:
    """Bytecodes of ``automata.loads`` on ``iota_text(n)``, per size n."""
    counts = []
    for n in sizes:
        text = iota_text(n)
        counts.append(bytecodes(lambda: am.loads(text)))
    return counts


def stress_build(case: str):
    """An f-SLP and an nSTA whose determinization does real work:
    ``dense`` is a random 8-state query over 100 vertices, ``sparse`` has
    300 states, 900 random transitions and 3 initial states per key, over
    300 vertices."""
    if case == "dense":
        rng = random.Random(2)
        a = random_nsta(rng, 8)
        return compress_forest(parse_term(random_term(rng, 100))), a
    rng = random.Random(300)
    delta: set = set()
    while len(delta) < 900:
        delta.add((rng.randrange(300), rng.randrange(300), rng.randrange(300)))
    iota = {(label, bit): frozenset(rng.sample(range(300), 3)) for label in "ab" for bit in (0, 1)}
    a = NSTA(300, frozenset(delta), iota, rng.randrange(300), rng.randrange(300))
    return compress_forest(parse_term(random_term(rng, 300))), a


def build_bytecodes(case: str) -> int:
    """Bytecodes of determinizing and building the product on ``stress_build(case)``."""
    g, a = stress_build(case)
    return bytecodes(lambda: build_enum_structure(g, nsta_to_dbuta(a)))


def brute_run_accept(a: NSTA, f, sel) -> bool:
    """Exhaustive assignment of all three run mappings."""
    n = len(f)
    if n == 0:
        return a.q0 == a.qf
    lab = lambda v: (f.labels[v], 1 if v in sel else 0)
    for rho in product(range(a.m), repeat=3 * n):
        r0, r1, rf = rho[:n], rho[n : 2 * n], rho[2 * n :]
        ok = True
        for v in range(n):
            if (r0[v], r1[v], rf[v]) not in a.delta:
                ok = False
                break
            kids = f.children[v]
            if not kids:
                if r1[v] not in a.iota_set(*lab(v)):
                    ok = False
                    break
            else:
                if r0[kids[0]] not in a.iota_set(*lab(v)):
                    ok = False
                    break
                if r1[v] != rf[kids[-1]]:
                    ok = False
                    break
                if any(r0[w] != rf[u] for u, w in zip(kids, kids[1:])):
                    ok = False
                    break
        if not ok:
            continue
        if r0[f.roots[0]] != a.q0 or rf[f.roots[-1]] != a.qf:
            continue
        if all(r0[w] == rf[u] for u, w in zip(f.roots, f.roots[1:])):
            return True
    return False


class TestNstaAccepts:
    def test_bit_blind_automaton_ignores_selection(self, rng):
        a = accept_all_nsta("ab")
        for _ in range(30):
            f = random_forest(rng, 8)
            sel = [v for v in range(len(f)) if rng.random() < 0.5]
            assert nsta_accepts(a, f, sel) == nsta_accepts(a, f, [])

    def test_select_b_on_worked_forest(self):
        f = parse_term("a(ba(a))bcb(c(ab))")
        a = select_labels_nsta({"b"}, {"a", "b", "c"})
        want = {1, 4, 6, 9}
        for size in range(4):
            for sel in combinations(range(10), size):
                assert nsta_accepts(a, f, sel) == (set(sel) == want)
        assert nsta_accepts(a, f, want)

    def test_against_exhaustive_run_oracle(self, rng):
        checked = 0
        while checked < 150:
            m = rng.randint(1, 2)
            a = random_nsta(rng, m)
            f = random_forest(rng, 4)
            if a.m ** (3 * len(f)) > 10**5:
                continue
            for size in range(len(f) + 1):
                for sel in combinations(range(len(f)), size):
                    assert nsta_accepts(a, f, sel) == brute_run_accept(a, f, set(sel))
                    checked += 1

    def test_empty_forest(self):
        f = parse_term("")
        yes = NSTA(2, frozenset(), {}, 0, 0)
        no = NSTA(2, frozenset(), {}, 0, 1)
        assert nsta_accepts(yes, f, [])
        assert not nsta_accepts(no, f, [])

    def test_bad_states_rejected(self):
        with pytest.raises(ValueError):
            NSTA(1, frozenset([(0, 0, 1)]), {}, 0, 0)
        with pytest.raises(ValueError):
            NSTA(1, frozenset(), {("a", 2): frozenset([0])}, 0, 0)


class TestBtau:
    def test_leaf_values(self):
        b = build_btau()
        assert b.value(b.delta0("a", False, 0)) == 0
        assert b.value(b.delta0("a", True, 1)) == 1

    def test_table_entries(self):
        b = build_btau()
        one = b.delta0("a", True, 0)
        zero = b.delta0("a", False, 0)
        assert b.value(b.delta2(one, zero, "vc")) == 0
        assert b.value(b.delta2(one, one, "hc")) == FAILURE

    def test_rejects_double_hole(self):
        b = build_btau()
        e = hc(leafctx("a"), leafctx("a"))
        assert not dbuta_accepts(b, e, ())

    def test_agrees_with_structural_typing(self, rng):
        b = build_btau()
        for _ in range(250):
            e = random_any_expr(rng, 4)
            t = type_of(e)
            v = b.value(dbuta_run(b, e, ()))
            assert v == (FAILURE if t is None else t)


class TestDeterminization:
    def test_trivial_automaton_reachable_states(self):
        a = NSTA(1, frozenset(), {("a", 0): frozenset([0]), ("a", 1): frozenset([0])}, 0, 0)
        b = nsta_to_dbuta(a)
        seeds = [
            b.delta0("a", False, 0),
            b.delta0("a", False, 1),
            b.delta0("a", True, 0),
            b.delta0("a", True, 1),
        ]
        frontier = set(seeds)
        reachable = set(frontier)
        for _ in range(6):
            new = set()
            for q1 in reachable:
                for q2 in reachable:
                    for op in ("hc", "vc"):
                        q = b.delta2(q1, q2, op)
                        if q not in reachable:
                            new.add(q)
            if not new:
                break
            reachable |= new
        assert len(reachable) <= 3

    def test_type_mismatch_goes_to_failure(self):
        a = exactly_one_nsta("ab")
        b = nsta_to_dbuta(a)
        p = b.delta0("a", False, 0)  # pair-set state
        assert b.value(b.delta2(p, p, "vc")) == FAILURE
        # failure absorbs
        q = b.delta0("a", True, 0)
        fid = b.delta2(p, p, "vc")
        assert b.value(b.delta2(fid, q, "hc")) == FAILURE

    def test_equivalence_random(self, rng):
        for _ in range(200):
            m = rng.randint(1, 6)
            a = random_nsta(rng, m)
            b = nsta_to_dbuta(a)
            e = random_expr(rng, 4)
            po = leaf_preorders(e)
            sel = frozenset(i for i in range(len(po)) if rng.random() < 0.4)
            f = evaluate(fold_expr(e), fold_expr(e).root)
            got = dbuta_accepts(b, e, sel)
            want = nsta_accepts(a, f, {po[i] for i in sel})
            assert got == want

    def test_state_bound_tracked(self, rng):
        for m in (1, 2, 3):
            a = random_nsta(rng, m)
            b = nsta_to_dbuta(a)
            bound = 2 ** (m * m) + 2 ** (m**4) + 1
            assert b.state_bound == bound
            e = random_expr(rng, 5)
            dbuta_run(b, e, ())
            assert b.state_count <= bound

    @pytest.mark.parametrize("case, budget", [("dense", 10**7), ("sparse", 6 * 10**6)])
    def test_build_within_bytecode_budget(self, case, budget):
        # a state costs its nonzero rows: set joins over quadruples overrun
        # both budgets (61.5M and 12.2M bytecodes), and a row for each of the
        # m*m state pairs overruns the sparse one (past 100M)
        assert build_bytecodes(case) < budget

    def test_interning_is_canonical(self):
        a = exactly_one_nsta("ab")
        b = nsta_to_dbuta(a)
        # two different routes to the same subset state intern identically
        e1 = hc(leaf("a"), hc(leaf("a"), leaf("a")))
        e2 = hc(hc(leaf("a"), leaf("a")), leaf("a"))
        assert dbuta_run(b, e1, (0,)) == dbuta_run(b, e2, (0,))


class TestStateCap:
    def test_default_reads_the_variable(self, monkeypatch):
        a = exactly_one_nsta("ab")
        monkeypatch.delenv("FSLPENUM_MAX_STATES", raising=False)
        assert nsta_to_dbuta(a).max_states == 10**6
        monkeypatch.setenv("FSLPENUM_MAX_STATES", "7")
        assert nsta_to_dbuta(a).max_states == 7

    @pytest.mark.parametrize("text", ["abc", "", "1.5", "0", "-4"])
    def test_malformed_variable(self, monkeypatch, text):
        monkeypatch.setenv("FSLPENUM_MAX_STATES", text)
        with pytest.raises(ValueError, match="FSLPENUM_MAX_STATES"):
            nsta_to_dbuta(exactly_one_nsta("ab"))

    def test_refused_state_leaves_the_automaton_unchanged(self, monkeypatch):
        a = exactly_one_nsta("ab")
        e = hc(leaf("a"), hc(leaf("b"), leaf("a")))
        need = nsta_to_dbuta(a)
        want = need.value(dbuta_run(need, e, (1,)))
        assert need.state_count > 1
        monkeypatch.setenv("FSLPENUM_MAX_STATES", str(need.state_count - 1))
        b = nsta_to_dbuta(a)
        with pytest.raises(StateLimitExceeded) as info:
            dbuta_run(b, e, (1,))
        assert isinstance(info.value, RuntimeError)
        before = [b.value(q) for q in range(b.state_count)]
        assert len(before) == b.max_states
        with pytest.raises(StateLimitExceeded):
            dbuta_run(b, e, (1,))  # refused again, and nothing was appended
        assert [b.value(q) for q in range(b.state_count)] == before
        assert b.state_bound == need.state_bound  # the cap is its own attribute
        b.max_states += 1
        assert b.value(dbuta_run(b, e, (1,))) == want

    def test_build_past_the_cap(self, monkeypatch):
        g = compress_forest(parse_term("a(bab)ab(aa)"))
        monkeypatch.setenv("FSLPENUM_MAX_STATES", "2")
        with pytest.raises(StateLimitExceeded):
            build_enum_structure(g, nsta_to_dbuta(exactly_one_nsta("ab")))


class TestMultivar:
    def test_pair_expansion(self):
        g = compress_forest(parse_term("ab"))
        red = multivar_reduce(g, 2)
        out = evaluate(red.fslp, red.node_map[g.root])
        assert list(out.labels) == ["a~1", "a~2", "b~1", "b~2"]
        assert out.parents == (None, None, None, None)

    def test_context_expansion(self):
        g = fold_expr(vc(leafctx("a"), leaf("b")))
        red = multivar_reduce(g, 3)
        out = evaluate(red.fslp, red.node_map[g.root])
        # a~1 a~2 a~3(b~1 b~2 b~3): siblings added left of each original vertex
        assert list(out.labels) == ["a~1", "a~2", "a~3", "b~1", "b~2", "b~3"]
        assert out.children[2] == (3, 4, 5)

    def test_decoder(self):
        g = compress_forest(parse_term("ab"))
        red = multivar_reduce(g, 2)
        assert red.decode([]) == (frozenset(), frozenset())
        # transformed preorder m selects variable m mod k at vertex m div k
        assert red.decode([0, 3]) == (frozenset({0}), frozenset({1}))

    def test_size_bound(self, rng):
        for k in (2, 3, 5):
            f = random_forest(rng, 20, labels="abc")
            g = compress_forest(f)
            red = multivar_reduce(g, k)
            sigma = len(g.alphabet())
            assert len(red.fslp) - len(g) <= 3 * sigma * k

    def test_commutes_with_decompression(self, rng):
        for _ in range(25):
            k = rng.randint(2, 4)
            f = random_forest(rng, 10)
            g = compress_forest(f)
            red = multivar_reduce(g, k)
            got = evaluate(red.fslp, red.node_map[g.root])
            want = _transform_forest(f, k)
            assert got == want

    def test_k_must_be_at_least_two(self):
        g = compress_forest(parse_term("a"))
        with pytest.raises(ValueError):
            multivar_reduce(g, 1)

    def test_pair_queries_end_to_end(self, rng):
        # enumerate over the reduced f-SLP, decode, and compare with a
        # brute-force oracle over all pairs of vertex sets of the original
        def pair_oracle(f, accepts):
            subsets = [
                frozenset(c) for size in range(len(f) + 1) for c in combinations(range(len(f)), size)
            ]
            return {(s0, s1) for s0 in subsets for s1 in subsets if accepts(s0, s1)}

        for _ in range(25):
            f = random_forest(rng, 5)
            g = compress_forest(f)
            red = multivar_reduce(g, 2)
            tagged = red.fslp.alphabet()
            a_s = frozenset(v for v in range(len(f)) if f.labels[v] == "a")
            b_s = frozenset(v for v in range(len(f)) if f.labels[v] == "b")
            cases = [
                (exactly_one_nsta(tagged), lambda s0, s1: len(s0) + len(s1) == 1),
                # variable 0 on the a-vertices, variable 1 on the b-vertices
                (select_labels_nsta({"a~1", "b~2"}, tagged), lambda s0, s1: (s0, s1) == (a_s, b_s)),
            ]
            for query, accepts in cases:
                eds = build_enum_structure(red.fslp, query)
                got = [red.decode(ans) for ans in eds.enumerate(red.node_map[g.root])]
                assert len(got) == len(set(got)), "duplicate pair emitted"
                assert set(got) == pair_oracle(f, accepts)


def _transform_forest(f, k):
    """Direct forest-level transformation: k-1 extra left siblings per vertex."""
    from fslpenum import parse_term as pt

    def emit(v):
        row = "".join(f"'{f.labels[v]}~{i}'" for i in range(1, k))
        kids = "".join(emit(c) for c in f.children[v])
        return row + f"'{f.labels[v]}~{k}'" + (f"({kids})" if kids else "")

    return pt("".join(emit(r) for r in f.roots))


class TestTextFormat:
    def test_round_trip(self):
        a = exactly_one_nsta("ab")
        text = am.dumps(a)
        assert am.dumps(am.loads(text)) == text

    def test_parse_example(self):
        text = "nsta v1\nstates 2\niota a 0 0\niota a 1 1\ntrans 0 1 1\ninit 0\nfinal 1\n"
        a = am.loads(text)
        assert a.m == 2 and a.q0 == 0 and a.qf == 1
        assert a.iota_set("a", 1) == frozenset([1])
        assert (0, 1, 1) in a.delta

    @pytest.mark.parametrize(
        "text",
        [
            "states 1\ninit 0\nfinal 0\n",
            "nsta v1\ninit 0\nfinal 0\n",
            "nsta v1\nstates 1\nfrob 1\ninit 0\nfinal 0\n",
            "nsta v1\nstates 1\ntrans 0 0 3\ninit 0\nfinal 0\n",
        ],
    )
    def test_errors(self, text):
        with pytest.raises(ValueError):
            am.loads(text)

    @pytest.mark.timing
    def test_iota_lines_for_one_key_load_in_linear_time(self):
        # n iota lines for one key, each adding a state: each doubling of n
        # must cost at most 3x (``doubling_ratios``: interleaved, best of
        # five, CPU time of this process from a collected heap); the
        # smallest size is large enough that one slow run moves no ratio far
        sizes = [10000, 20000, 40000]
        texts = {n: iota_text(n) for n in sizes}

        def run(n):
            assert am.loads(texts[n]).iota_set("a", 0) == frozenset(range(n))

        ratios, times = doubling_ratios(sizes, {n: n for n in sizes}, run)
        assert all(1.0 <= r <= 3.0 for r in ratios), (ratios, times)

    def test_iota_lines_load_in_linear_bytecodes(self):
        # the same loads counted in bytecodes: exact, so the bound is tight
        # and a busy machine cannot fail it
        check_counts_double(loads_bytecodes(), "test_automata.loads_bytecodes((1000, 2000))")

    @pytest.mark.parametrize(
        "line, lineno, message",
        [
            ("states 1 2", 2, "states takes 1 field(s), got 2"),
            ("trans 0 0 0 9", 3, "trans takes 3 field(s), got 4"),
            ("trans 0 0", 3, "trans takes 3 field(s), got 2"),
            ("init 0 7", 3, "init takes 1 field(s), got 2"),
            ("final", 3, "final takes 1 field(s), got 0"),
            ("iota a", 3, "iota takes at least 2 field(s), got 1"),
            ("iota", 3, "iota takes at least 2 field(s), got 0"),
            ("states x", 2, "states 'x' is not an integer"),
            ("iota a z 0", 3, "iota bit 'z' is not an integer"),
            ("iota a 1 0 q", 3, "iota state 'q' is not an integer"),
            ("trans 0 x 0", 3, "trans state 'x' is not an integer"),
            ("init 0.5", 4, "init '0.5' is not an integer"),
            ("final -", 5, "final '-' is not an integer"),
            ("frob 1", 3, "unknown directive 'frob'"),
        ],
    )
    def test_fixed_width_lines_reject_extra_or_missing_fields(self, line, lineno, message):
        lines = ["nsta v1", "states 1", "trans 0 0 0", "init 0", "final 0"]
        lines[lineno - 1] = line
        with pytest.raises(ValueError) as exc:
            am.loads("\n".join(lines) + "\n")
        assert str(exc.value) == f"line {lineno}: {message}"
