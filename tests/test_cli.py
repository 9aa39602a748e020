import json
import os
import random
import re
import subprocess
import sys

import pytest

from fslpenum import (
    AnswerStream,
    PathSession,
    automata,
    cli,
    compress_forest,
    compute_stats,
    fslp,
    parse_term,
    relabel_path,
    row_fslp,
)
from fslpenum.cli import main
from fslpenum.fixtures import exactly_one_nsta, random_term, select_labels_nsta, shared_subtree_fslp


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fig1.term").write_text("a(ba(a))bcb(c(ab))\n")
    (tmp_path / "selb.nsta").write_text(
        automata.dumps(select_labels_nsta({"b"}, {"a", "b", "c"}))
    )
    (tmp_path / "one.nsta").write_text(automata.dumps(exactly_one_nsta({"a", "b", "c"})))
    (tmp_path / "shared.fslp").write_text(fslp.dumps(shared_subtree_fslp()))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompressDecompress:
    def test_round_trip(self, workdir, capsys):
        out = workdir / "fig1.fslp"
        code, _, err = run(capsys, "compress", workdir / "fig1.term", "-o", out)
        assert code == 0
        assert "N=10" in err
        code, text, _ = run(capsys, "decompress", out)
        assert code == 0 and text.strip() == "a(ba(a))bcb(c(ab))"

    def test_summary_line_matches_the_stats(self, workdir, capsys):
        # the stderr line takes N from the forest and the height from the
        # child lists, not from compute_stats; it must still say what the
        # stats say, on random forests, rows and chains
        rng = random.Random(27)
        terms = [random_term(rng, rng.randint(1, 300), "abc") for _ in range(20)]
        terms += ["a" * n for n in (1, 2, 7, 300)]
        terms += ["a(" * (n - 1) + "a" + ")" * (n - 1) for n in (2, 7, 300)]
        src, out = workdir / "summary.term", workdir / "summary.fslp"
        for term in terms:
            src.write_text(term)
            code, _, err = run(capsys, "compress", src, "-o", out)
            g = compress_forest(parse_term(term))
            st = compute_stats(g)
            assert code == 0
            assert err == f"nodes={len(g)} N={st.nverts[g.root]} height={st.height[g.root]}\n", term

    def test_compress_to_stdout_is_parseable(self, workdir, capsys):
        code, text, _ = run(capsys, "compress", workdir / "fig1.term")
        assert code == 0
        g = fslp.loads(text)
        assert g.root is not None

    def test_parse_error_exit_code(self, workdir, capsys):
        bad = workdir / "bad.term"
        bad.write_text("a(b")
        code, _, err = run(capsys, "compress", bad)
        assert code == 1 and "parse error" in err

    @pytest.mark.parametrize("term", ["'a b'(c)", "a'x#y'"])
    def test_unwritable_label_exits_1(self, workdir, capsys, term):
        src, out = workdir / "label.term", workdir / "label.fslp"
        src.write_text(term)
        code, text, err = run(capsys, "compress", src, "-o", out)
        assert code == 1 and text == "" and not out.exists()
        assert err.startswith("error: node ") and "cannot be written" in err

    def test_hole_label_exits_1(self, workdir, capsys):
        src, out = workdir / "hole.term", workdir / "hole.fslp"
        src.write_text("a(*)")
        code, text, err = run(capsys, "compress", src, "-o", out)
        assert (code, text) == (1, "") and not out.exists()
        assert err == "error: vertex 1: the hole '*' is not a label\n"
        bad = workdir / "hole-leaf.fslp"
        bad.write_text("fslp v1\nnode 0 leaf *\nnode 1 leafctx a\nnode 2 hc 1 0\n")
        code, text, err = run(capsys, "decompress", bad, "--vertex", "0")
        assert (code, text) == (1, "")
        assert err == "error: line 2: the hole '*' is not a label\n"

    def test_non_integer_child_id_exits_1(self, workdir, capsys):
        bad = workdir / "bad.fslp"
        bad.write_text("fslp v1\nnode 0 leaf a\nnode 1 hc 0 q\nroot 1\n")
        code, text, err = run(capsys, "decompress", bad)
        assert (code, text) == (1, "")
        assert err == "error: line 3: child id 'q' is not an integer\n"

    def test_budget_exceeded(self, workdir, capsys):
        code, _, err = run(capsys, "decompress", workdir / "shared.fslp", "--budget", "3")
        assert code == 1 and "budget" in err.lower()

    def test_malformed_budget_variable(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("FSLPENUM_BUDGET", "abc")
        code, _, err = run(capsys, "decompress", workdir / "shared.fslp")
        assert code == 1 and err == "error: FSLPENUM_BUDGET must be an integer, got 'abc'\n"
        code, text, _ = run(capsys, "decompress", workdir / "shared.fslp", "--budget", "100")
        assert code == 0 and text.startswith("a(")  # an explicit --budget never reads it
        monkeypatch.setenv("FSLPENUM_BUDGET", "3")
        code, _, err = run(capsys, "decompress", workdir / "shared.fslp")
        assert code == 1 and "budget 3" in err


class TestStatsValidate:
    def test_stats_dump(self, workdir, capsys):
        code, out, _ = run(capsys, "stats", workdir / "shared.fslp")
        assert code == 0
        assert "node 8 vc 7 6 tau=0 s=16 l=- N=16 height=5" in out
        assert out.strip().endswith("root 8")

    def test_validate_ok_and_via_btau(self, workdir, capsys):
        for flags in ([], ["--via-btau"]):
            code, out, _ = run(capsys, "validate", workdir / "shared.fslp", *flags)
            assert code == 0 and "valid" in out
        # a row of 2^22 vertices from 23 nodes: the check runs on the DAG,
        # never on the unfolded expression
        row = workdir / "row22.fslp"
        row.write_text(
            "fslp v1\nnode 0 leaf a\n"
            + "".join(f"node {i} hc {i - 1} {i - 1}\n" for i in range(1, 23))
            + "root 22\n"
        )
        code, out, err = run(capsys, "validate", row, "--via-btau")
        assert (code, out, err) == (0, "valid nodes=23\n", "")

    def test_validate_corrupt(self, workdir, capsys):
        bad = workdir / "bad.fslp"
        bad.write_text("fslp v1\nnode 0 leaf a\nnode 1 vc 0 0\n")
        code, _, err = run(capsys, "validate", bad)
        assert code == 1 and "node 1" in err


class TestEnumerate:
    def test_lines_format(self, workdir, capsys):
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        code, text, _ = run(capsys, "enumerate", out, workdir / "selb.nsta")
        assert code == 0
        assert text.splitlines() == ["1 4 6 9", "EOE"]

    def test_json_format(self, workdir, capsys):
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        code, text, _ = run(
            capsys, "enumerate", out, workdir / "selb.nsta", "--format", "json"
        )
        assert code == 0 and json.loads(text) == [[1, 4, 6, 9]]

    def test_limit_and_instrument(self, workdir, capsys):
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        code, text, err = run(
            capsys, "enumerate", out, workdir / "one.nsta", "--limit", "3", "--instrument"
        )
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 4 and lines[-1] == "EOE"
        assert sum(1 for l in err.splitlines() if l.startswith("answer ")) == 3

    @pytest.mark.parametrize("limit", [0, 3])
    def test_limit_draws_no_answer_past_it(self, workdir, capsys, monkeypatch, limit):
        drawn = []
        real_next = AnswerStream.next

        def counting_next(stream):
            drawn.append(1)
            return real_next(stream)

        monkeypatch.setattr(AnswerStream, "next", counting_next)
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        code, text, _ = run(capsys, "enumerate", out, workdir / "one.nsta", "--limit", limit)
        assert code == 0 and len(text.splitlines()) == limit + 1
        assert len(drawn) == limit

    def test_extra_nsta_field_exits_1(self, workdir, capsys):
        out, bad = workdir / "fig1.fslp", workdir / "bad.nsta"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        bad.write_text((workdir / "selb.nsta").read_text().replace("init 0", "init 0 7"))
        code, text, err = run(capsys, "enumerate", out, bad)
        assert (code, text) == (1, "")
        assert re.fullmatch(r"error: line \d+: init takes 1 field\(s\), got 2\n", err)

    def test_short_iota_line_exits_1(self, workdir, capsys):
        out, bad = workdir / "fig1.fslp", workdir / "bad.nsta"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        bad.write_text("nsta v1\nstates 1\niota a\ninit 0\nfinal 0\n")
        code, text, err = run(capsys, "enumerate", out, bad)
        assert (code, text) == (1, "")
        assert err == "error: line 3: iota takes at least 2 field(s), got 1\n"

    def test_state_cap_exits_1(self, workdir, capsys, monkeypatch):
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        monkeypatch.setenv("FSLPENUM_MAX_STATES", "2")
        code, text, err = run(capsys, "enumerate", out, workdir / "selb.nsta")
        assert code == 1 and text == ""
        assert err.startswith("error: the query automaton needs more than 2 states")
        monkeypatch.setenv("FSLPENUM_MAX_STATES", "abc")
        code, text, err = run(capsys, "enumerate", out, workdir / "selb.nsta")
        assert code == 1 and text == ""
        assert err == "error: FSLPENUM_MAX_STATES must be a positive integer, got 'abc'\n"
        monkeypatch.setenv("FSLPENUM_MAX_STATES", "1000")
        code, text, _ = run(capsys, "enumerate", out, workdir / "selb.nsta")
        assert code == 0 and text.splitlines() == ["1 4 6 9", "EOE"]

    def test_empty_set_printed_as_dash(self, workdir, capsys):
        only_empty = workdir / "empty.nsta"
        from fslpenum.fixtures import only_empty_nsta

        only_empty.write_text(automata.dumps(only_empty_nsta({"a", "b", "c"})))
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        code, text, _ = run(capsys, "enumerate", out, only_empty)
        assert text.splitlines() == ["-", "EOE"]

    def test_reject_all_only_eoe(self, workdir, capsys):
        rj = workdir / "reject.nsta"
        from fslpenum.fixtures import reject_all_nsta

        rj.write_text(automata.dumps(reject_all_nsta({"a", "b", "c"})))
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        code, text, _ = run(capsys, "enumerate", out, rj)
        assert text.splitlines() == ["EOE"]

    def test_context_vertex_rejected(self, workdir, capsys):
        code, _, err = run(
            capsys, "enumerate", workdir / "shared.fslp", workdir / "selb.nsta", "--vertex", "7"
        )
        assert code == 1 and "context" in err

    def test_deterministic_output(self, workdir, capsys):
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        runs = []
        for _ in range(2):
            _, text, _ = run(capsys, "enumerate", out, workdir / "one.nsta")
            runs.append(text)
        assert runs[0] == runs[1]

    def test_matches_oracle_command(self, workdir, capsys):
        out = workdir / "fig1.fslp"
        run(capsys, "compress", workdir / "fig1.term", "-o", out)
        _, enum_text, _ = run(capsys, "enumerate", out, workdir / "one.nsta")
        _, oracle_text, _ = run(capsys, "oracle", workdir / "fig1.term", workdir / "one.nsta")
        assert set(enum_text.splitlines()) == set(oracle_text.splitlines())


class TestRelabel:
    def test_worked_scenario(self, workdir, capsys):
        out = workdir / "relabelled.fslp"
        code, _, err = run(
            capsys,
            "relabel", workdir / "shared.fslp",
            "--preorder", "14", "--symbol", "d", "-o", out,
        )
        assert code == 0
        assert "added=6" in err
        code, text, _ = run(capsys, "decompress", out)
        assert text.strip() == "a(" + "b" * 13 + "d" + "b" + ")"

    def test_same_symbol_appends_nothing(self, workdir, capsys):
        # vertex 3 is already b: every path copy is an existing node, and the
        # CLI appends what the library's relabel appends
        out = workdir / "same.fslp"
        code, _, err = run(
            capsys,
            "relabel", workdir / "shared.fslp",
            "--preorder", "3", "--symbol", "b", "-o", out,
        )
        assert (code, err) == (0, "added=0 root=8\n")
        assert out.read_text() == (workdir / "shared.fslp").read_text()
        assert len(out.read_text().splitlines()) == 11

    def test_out_of_range_names_the_valid_range(self, workdir, capsys):
        code, _, err = run(
            capsys,
            "relabel", workdir / "shared.fslp", "--preorder", "99", "--symbol", "d",
        )
        assert code == 1 and "[0, 16)" in err

    @pytest.mark.parametrize("gc", [[], ["--gc"]])
    def test_unwritable_symbol_exits_1(self, workdir, capsys, gc):
        out = workdir / "relabelled.fslp"
        code, text, err = run(
            capsys,
            "relabel", workdir / "shared.fslp",
            "--preorder", "3", "--symbol", "c d", "-o", out, *gc,
        )
        assert code == 1 and text == "" and not out.exists()
        assert "label 'c d' cannot be written" in err

    def test_gc_drops_stale_nodes(self, workdir, capsys):
        out = workdir / "gc.fslp"
        run(
            capsys,
            "relabel", workdir / "shared.fslp",
            "--preorder", "0", "--symbol", "c", "-o", out, "--gc",
        )
        g = fslp.loads(out.read_text())
        kept = fslp.loads((workdir / "shared.fslp").read_text())
        assert len(g) <= len(kept) + 7
        _, text, _ = run(capsys, "decompress", out)
        assert text.strip().startswith("c(")


LIMIT = 640  # the smallest int/str digit limit the interpreter accepts
BIG = 2**2200  # 663 digits: past LIMIT


def _decimal(n):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(LIMIT)
    yield
    assert sys.get_int_max_str_digits() == LIMIT  # main leaves the limit as it found it
    sys.set_int_max_str_digits(old)


class TestExactSizes:
    """Sizes past the interpreter's int/str digit limit print whole."""

    @pytest.fixture
    def big(self, workdir):
        path = workdir / "big.fslp"
        path.write_text(fslp.dumps(row_fslp("a", BIG)))
        return path

    def test_stats(self, big, capsys, digit_limit):
        code, out, err = run(capsys, "stats", big)
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 2202)
        assert lines[-2] == f"node 2200 hc 2199 2199 tau=0 s={_decimal(BIG)} l=- N={_decimal(BIG)} height=2200"

    def test_decompress_reports_the_budget(self, big, capsys, digit_limit):
        code, out, err = run(capsys, "decompress", big)
        assert (code, out) == (1, "")
        assert err == f"error: decompressed size {_decimal(BIG)} > budget 1000000\n"

    def test_relabel_names_the_valid_range(self, big, capsys, digit_limit):
        code, out, err = run(capsys, "relabel", big, "--preorder", "-1", "--symbol", "b")
        assert (code, out) == (1, "")
        assert err == f"preorder -1 out of the valid range [0, {_decimal(BIG)})\n"

    def test_enumerate(self, workdir, capsys, digit_limit):
        g = row_fslp("a", BIG)
        g.root = relabel_path(g, compute_stats(g), g.root, BIG - 1, "b")[0]
        path = workdir / "last_b.fslp"
        path.write_text(fslp.dumps(g))
        code, out, err = run(capsys, "enumerate", path, workdir / "selb.nsta")
        assert (code, out, err) == (0, f"{_decimal(BIG - 1)}\nEOE\n", "")
        code, out, err = run(capsys, "enumerate", path, workdir / "selb.nsta", "--format", "json")
        assert (code, out, err) == (0, f"[[{_decimal(BIG - 1)}]]\n", "")

    def test_bench(self, capsys, monkeypatch, digit_limit):
        monkeypatch.setattr(cli, "row_fslp", lambda label, n: row_fslp(label, BIG))
        code, out, _ = run(capsys, "bench", "--family", "wide", "--size", "1", "--limit", "1")
        assert code == 0 and f"decompressed={_decimal(BIG)} " in out

    def test_input_keeps_the_digit_limit(self, workdir, capsys):
        # the lifted limit is for output: a long integer field of an input
        # file is still refused by int(), at no quadratic cost
        long_id = "1" * 5000
        bad = workdir / "long.fslp"
        for body, message in [
            (f"node 0 leaf a\nroot {long_id}", f"line 3: root '{long_id}' is not an integer"),
            (f"node {long_id} leaf a", f"line 2: node id '{long_id}' is not an integer"),
            (f"node 0 leaf a\nnode 1 hc {long_id} 0", f"line 3: child id '{long_id}' is not an integer"),
            (f"node 0 leaf a\nnode 1 hc 0 {long_id}", f"line 3: child id '{long_id}' is not an integer"),
        ]:
            bad.write_text(f"fslp v1\n{body}\n")
            code, out, err = run(capsys, "stats", bad)
            assert (code, out) == (1, "")
            assert err == f"error: {message}\n"
        query = workdir / "long.nsta"
        query.write_text((workdir / "selb.nsta").read_text().replace("init 0", f"init {long_id}", 1))
        code, out, err = run(capsys, "enumerate", workdir / "shared.fslp", query)
        assert (code, out) == (1, "")
        assert f"'{long_id}' is not an integer" in err


class TestBench:
    def test_wide_family(self, workdir, capsys):
        code, out, err = run(
            capsys, "bench", "--family", "wide", "--size", "10", "--limit", "64"
        )
        assert code == 0
        assert "fslp_nodes=11" in out and "answers=64" in out
        assert "preprocess=" in err

    def test_wide_family_past_the_recursion_limit(self, workdir, capsys):
        code, out, _ = run(capsys, "bench", "--family", "wide", "--size", "1200", "--limit", "64")
        assert code == 0
        assert "fslp_nodes=1201" in out and f"decompressed={2**1200}" in out and "answers=64" in out

    def test_wide_family_size_is_capped(self, workdir, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "row_fslp", lambda label, n: built.append(n) or row_fslp(label, n))
        code, out, err = run(capsys, "bench", "--family", "wide", "--size", "4097")
        assert (code, out, built) == (1, "", [])
        assert err == "--size must be at most 4096 for the wide family\n"
        code, out, _ = run(capsys, "bench", "--family", "wide", "--size", "4096", "--limit", "1")
        assert code == 0 and built == [2**4096] and "fslp_nodes=4097" in out

    def test_fig2_family(self, workdir, capsys):
        code, out, _ = run(capsys, "bench", "--family", "fig2")
        assert code == 0 and "outputs=16" in out and "max_steps=2" in out

    @pytest.mark.parametrize("limit", [0, 1, 5])
    def test_fig2_limit_draws_no_pair_past_it(self, workdir, capsys, monkeypatch, limit):
        drawn = []
        real_next = PathSession.next

        def counting_next(sess):
            drawn.append(1)
            return real_next(sess)

        monkeypatch.setattr(PathSession, "next", counting_next)
        code, out, _ = run(capsys, "bench", "--family", "fig2", "--limit", limit)
        assert code == 0 and f"outputs={limit} " in out
        assert len(drawn) == limit

    def test_wide_family_negative_size_exits_1(self, workdir, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "row_fslp", lambda label, n: built.append(n) or row_fslp(label, n))
        code, out, err = run(capsys, "bench", "--family", "wide", "--size", "-1")
        assert (code, out, built) == (1, "", [])
        assert err == "--size must be non-negative for the wide family\n"
        code, out, _ = run(capsys, "bench", "--family", "wide", "--size", "0", "--limit", "5")
        assert code == 0 and built == [1] and "answers=1 " in out

    def test_chain_and_random(self, workdir, capsys):
        code, out, _ = run(capsys, "bench", "--family", "chain", "--size", "64", "--limit", "10")
        assert code == 0 and "fslp_nodes=64" in out
        code, out, _ = run(
            capsys, "bench", "--family", "random", "--size", "12", "--seed", "3", "--limit", "5"
        )
        assert code == 0

    def test_random_family_has_exactly_size_vertices(self, workdir, capsys):
        for seed in range(1, 7):
            code, out, _ = run(
                capsys, "bench", "--family", "random", "--size", "5000", "--seed", seed, "--limit", "1"
            )
            assert code == 0
            assert re.search(r"\bdecompressed=(\d+)\b", out).group(1) == "5000", (seed, out)

    @pytest.mark.parametrize("size", [0, -3])
    def test_empty_chain_exits_1(self, workdir, capsys, size):
        code, out, err = run(capsys, "bench", "--family", "chain", "--size", size)
        assert code == 1 and out == "" and "--size" in err

    @pytest.mark.parametrize("family", ["chain", "wide", "random"])
    def test_negative_limit_exits_1(self, workdir, capsys, family):
        code, out, err = run(capsys, "bench", "--family", family, "--size", "4", "--limit", "-1")
        assert code == 1 and out == "" and "--limit" in err

    @pytest.mark.parametrize("limit", [0, 1, 5])
    def test_limit_draws_no_answer_past_it(self, workdir, capsys, monkeypatch, limit):
        drawn = []
        real_next = AnswerStream.next

        def counting_next(stream):
            drawn.append(1)
            return real_next(stream)

        monkeypatch.setattr(AnswerStream, "next", counting_next)
        code, out, _ = run(capsys, "bench", "--family", "chain", "--size", "8", "--limit", limit)
        assert code == 0 and f"answers={limit} " in out
        assert len(drawn) == limit

    def test_seed_determinism(self, workdir, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "bench", "--family", "random", "--size", "15", "--seed", "9", "--limit", "8"
            )
            outs.append(out)
        assert outs[0] == outs[1]


class TestOracle:
    def test_max_vertices_is_capped(self, workdir, capsys, monkeypatch):
        calls = []
        real = cli.brute_select
        monkeypatch.setattr(cli, "brute_select", lambda *a: calls.append(a) or real(*a))
        args = ("oracle", workdir / "fig1.term", workdir / "one.nsta", "--max-vertices")
        code, out, err = run(capsys, *args, "25")
        assert (code, out, calls) == (1, "", [])
        assert err == "--max-vertices must be at most 24\n"
        code, out, _ = run(capsys, *args, "24")
        assert code == 0 and len(calls) == 1 and out.splitlines()[-1] == "EOE"
        assert len(out.splitlines()) == 11  # exactly-one over 10 vertices


class TestEntryPoint:
    def test_module_invocation(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "fslpenum.cli", "bench", "--family", "fig2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "outputs=16" in proc.stdout

    def test_import_ignores_malformed_budget_variable(self, workdir):
        env = {**os.environ, "FSLPENUM_BUDGET": "abc"}
        proc = subprocess.run(
            [sys.executable, "-c", "import fslpenum"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-m", "fslpenum.cli", "decompress", str(workdir / "shared.fslp")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: FSLPENUM_BUDGET must be an integer, got 'abc'\n"
