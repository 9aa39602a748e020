"""No public operation leaves cyclic garbage.

What an operation builds is freed by reference counting as soon as the
caller drops it, so memory does not wait for the cycle collector to find
it: a compressed f-SLP held in a cycle by the compressor kept the input
forest and the whole node table alive until the next full collection.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fslpenum import automata, build_enum_structure, compress_forest, fslp, parse_term, relabel
from fslpenum.cli import main
from fslpenum.fixtures import exactly_one_nsta, random_term

from conftest import cyclic_garbage

N = 10_000  # vertices, as in the relabel-mix benchmark workload


@pytest.fixture(scope="module")
def inputs():
    text = random_term(random.Random(451), N, "abc")
    forest = parse_term(text)
    return text, forest, compress_forest(forest), exactly_one_nsta("abc")


def test_parse_term(inputs):
    text, *_ = inputs
    assert cyclic_garbage(lambda: parse_term(text)) == 0


def test_compress_forest(inputs):
    _, forest, *_ = inputs
    assert cyclic_garbage(lambda: compress_forest(forest)) == 0


def test_dumps_and_loads(inputs):
    _, _, g, _ = inputs
    assert cyclic_garbage(lambda: fslp.loads(fslp.dumps(g))) == 0


def test_build_enum_structure(inputs):
    _, _, g, nsta = inputs
    assert cyclic_garbage(lambda: build_enum_structure(g, nsta)) == 0


def test_full_read(inputs):
    _, _, g, nsta = inputs
    eds = build_enum_structure(g, nsta)
    assert len(list(eds.enumerate(g.root))) == N  # one answer per vertex
    assert cyclic_garbage(lambda: list(eds.enumerate(g.root))) == 0


def test_chained_relabels(inputs):
    _, _, g, nsta = inputs
    eds = build_enum_structure(fslp.loads(fslp.dumps(g)), nsta)  # relabels append to the f-SLP
    rng = random.Random(452)

    def chain():
        e, root = eds, eds.fslp.root
        for _ in range(20):
            e, root, _ = relabel(e, root, rng.randrange(N), rng.choice("abcd"))
        return e, root

    assert cyclic_garbage(chain) == 0


def test_cli_compress_and_enumerate(inputs, tmp_path):
    text, *_ = inputs
    (tmp_path / "in.term").write_text(text)
    (tmp_path / "one.nsta").write_text(automata.dumps(exactly_one_nsta("abc")))

    def cli():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert main(["compress", str(tmp_path / "in.term"), "-o", str(tmp_path / "in.fslp")]) == 0
            assert main(["enumerate", str(tmp_path / "in.fslp"), str(tmp_path / "one.nsta")]) == 0
        return out.getvalue()

    assert cyclic_garbage(cli) == 0
