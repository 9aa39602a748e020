import ast
import os
from collections import Counter

import pytest

import fslpenum

from fslpenum import (
    DecoratedDAG,
    OracleBudget,
    brute_dbuta_select,
    brute_paths,
    brute_select,
    brute_word_paths,
    hc,
    leaf,
    nsta_to_dbuta,
    parse_term,
    unfold,
    compress_forest,
)
from fslpenum.fixtures import (
    INT_SUM,
    accept_all_nsta,
    reject_all_nsta,
    select_labels_nsta,
)

from conftest import random_forest, random_nsta


class TestBudget:
    def test_fields_positive(self):
        with pytest.raises(ValueError):
            OracleBudget(max_vertices=0)

    def test_subset_budget_enforced(self):
        f = parse_term("a" * 20)
        with pytest.raises(ValueError):
            brute_select(accept_all_nsta("a"), f, OracleBudget(max_vertices=16))

    def test_path_budget_enforced(self):
        d = DecoratedDAG(INT_SUM)
        for v in range(12):
            d.add_vertex(None, target=v == 11)
        for v in range(11):
            d.add_edge(v, 1, v + 1)
            d.add_edge(v, 2, v + 1)
        with pytest.raises(ValueError):
            brute_paths(d, 0, OracleBudget(max_paths=100))


class TestBruteSelect:
    def test_empty_forest(self):
        f = parse_term("")
        assert brute_select(accept_all_nsta("a"), f) == {frozenset()}
        assert brute_select(reject_all_nsta("a"), f) == set()

    def test_select_b_worked_forest(self):
        f = parse_term("a(ba(a))bcb(c(ab))")
        a = select_labels_nsta({"b"}, {"a", "b", "c"})
        assert brute_select(a, f) == {frozenset({1, 4, 6, 9})}

    def test_reject_all(self, rng):
        f = random_forest(rng, 6)
        assert brute_select(reject_all_nsta("ab"), f) == set()


class TestBrutePaths:
    def test_leaf_source(self):
        d = DecoratedDAG(INT_SUM)
        d.add_vertex(None, target=True)
        assert brute_paths(d, 0) == Counter({(0, 0): 1})

    def test_diamond_symmetry(self):
        d = DecoratedDAG(INT_SUM)
        s, x, y, t = (d.add_vertex(None) for _ in range(4))
        d.targets.add(t)
        d.add_edge(s, 1, x)
        d.add_edge(s, 1, y)
        d.add_edge(x, 1, t)
        d.add_edge(y, 1, t)
        assert brute_paths(d, s) == Counter({(t, 2): 2})

    def test_word_paths_skip_epsilon(self):
        d = DecoratedDAG()
        s, t = d.add_vertex(None), d.add_vertex(None, target=True)
        d.add_edge(s, None, t)
        d.add_edge(s, "x", t)
        assert brute_word_paths(d, s) == Counter({(t, ()): 1, (t, ("x",)): 1})


class TestBruteDbutaSelect:
    def test_single_leaf(self):
        b = nsta_to_dbuta(select_labels_nsta({"a"}, "a"))
        got = brute_dbuta_select(b, leaf("a"))
        assert got == {frozenset({0})}

    def test_three_way_agreement(self, rng):
        for _ in range(40):
            a = random_nsta(rng, 2)
            b = nsta_to_dbuta(a)
            f = random_forest(rng, 6)
            g = compress_forest(f)
            e = unfold(g, g.root)
            from fslpenum import leaf_preorders

            po = leaf_preorders(e)
            via_expr = {frozenset(po[i] for i in s) for s in brute_dbuta_select(b, e)}
            via_forest = brute_select(a, f)
            assert via_expr == via_forest


class TestImportBoundary:
    """The expression format is known to this module alone: the engine
    modules neither import it nor define its pieces."""

    ENGINE = ("forest", "fslp", "automata", "dagenum", "effects", "msoenum", "updates")
    EXPRESSION = {"Expr", "_Flat", "unfold", "fold_expr", "eval_expr", "dbuta_run"}

    @staticmethod
    def _violations(tree):
        out = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out += [a.name for a in node.names if a.name.startswith("fslpenum.oracle")]
            elif isinstance(node, ast.ImportFrom):
                mod = "." * node.level + (node.module or "")
                if mod in (".oracle", "fslpenum.oracle"):
                    out.append(f"from {mod}")
                names = {a.name for a in node.names}
                if mod in (".", "fslpenum") and "oracle" in names:
                    out.append(f"from {mod} import oracle")
                out += sorted(names & TestImportBoundary.EXPRESSION)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name in TestImportBoundary.EXPRESSION:
                    out.append(f"def {node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [t.id for t in targets if isinstance(t, ast.Name) and t.id in TestImportBoundary.EXPRESSION]
        return out

    @pytest.mark.parametrize("module", ENGINE)
    def test_engine_module_holds_no_expression_code(self, module):
        path = os.path.join(os.path.dirname(fslpenum.__file__), module + ".py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        assert self._violations(tree) == []

    def test_the_check_sees_each_kind_of_violation(self):
        text = (
            "from .oracle import brute_select\n"
            "from . import oracle\n"
            "import fslpenum.oracle\n"
            "from .forest import Expr, _Flat\n"
            "def unfold(): pass\n"
            "class fold_expr: pass\n"
            "eval_expr = dbuta_run = None\n"
        )
        assert self._violations(ast.parse(text)) == [
            "from .oracle",
            "from . import oracle",
            "fslpenum.oracle",
            "Expr",
            "_Flat",
            "def unfold",
            "def fold_expr",
            "eval_expr",
            "dbuta_run",
        ]
