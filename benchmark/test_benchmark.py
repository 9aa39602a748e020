"""Self-tests of the benchmark: ``python -m pytest benchmark -q`` from the checkout root."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run

sys.path[:0] = [run.HERE, run.SRC]  # the library, as run.main would import it

import fslpenum as fe  # noqa: E402

import gen  # noqa: E402
from checks import (  # noqa: E402
    TrackedLabels,
    check_answer,
    check_cli_output,
    check_full_stream,
)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

EXACT_COUNTS = (
    "automata.delta2_calls",
    "msoenum.calls_per_element",
    "msoenum.steps_per_element",
    "effects.built_per_element",
    "effects.compose_per_element",
    "updates.nodes_added_per_relabel",
)


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 30000])
def test_generator_gives_exact_sizes(n):
    for seed in range(5):
        labels, parents = gen.random_document(random.Random(seed), n)
        assert len(labels) == len(parents) == n
        f = fe.parse_term(gen.term_text(labels, parents))
        assert list(f.labels) == labels
        assert list(f.parents) == parents


def test_generator_is_seeded():
    a = gen.random_document(random.Random(7), 500)
    assert a == gen.random_document(random.Random(7), 500)
    assert a != gen.random_document(random.Random(8), 500)


def test_squared_fslp_repeats_the_block():
    labels, parents = gen.random_document(random.Random(1), 40)
    block = fe.compress_forest(fe.parse_term(gen.term_text(labels, parents)))
    g = fe.fslp.loads(gen.squared_fslp_text(block, 3))
    assert fe.evaluate(g, g.root).labels == tuple(labels * 8)


def _small_labels():
    return TrackedLabels(list("abcbaa"), copies=2)  # b at 1, 3, 7, 9


def test_one_b_checker_flags_corrupted_answers():
    labels = _small_labels()
    assert check_answer("one_b", [7], labels, set()) is None
    assert check_answer("one_b", [6], labels, set())  # label a
    assert check_answer("one_b", [1, 3], labels, set())  # not a singleton
    assert check_answer("one_b", [12], labels, set())  # out of range
    seen: set = set()
    assert check_answer("one_b", [3], labels, seen) is None
    assert check_answer("one_b", [3], labels, seen)  # repeated
    labels[3] = "c"
    assert check_answer("one_b", [3], labels, set())  # relabelled away from b


def test_all_b_checker_flags_corrupted_answers():
    labels = _small_labels()
    assert check_answer("all_b", [9, 1, 7, 3], labels, set()) is None
    assert check_answer("all_b", [1, 3, 7], labels, set())  # missing a vertex
    assert check_answer("all_b", [1, 3, 7, 9, 10], labels, set())  # extra vertex
    assert check_full_stream("all_b", [[1, 3, 7, 9], [1, 3, 7, 9]], labels)  # second answer


def test_full_stream_checker_flags_a_missing_answer():
    labels = _small_labels()
    assert check_full_stream("one_b", [[1], [3], [7], [9]], labels) is None
    assert check_full_stream("one_b", [[1], [3], [7]], labels)


def test_cli_checker_flags_corrupted_output():
    labels = _small_labels()
    good = "1\n3\n7\n9\nEOE\n"
    assert check_cli_output("one_b", good, labels, 4) is None
    assert check_cli_output("one_b", "1\n3\n7\n9\n", labels, 4)  # no EOE
    assert check_cli_output("one_b", "1\n3\n7\nEOE\n", labels, 4)  # line missing
    assert check_cli_output("one_b", "1\n3\n7\n8\nEOE\n", labels, 4)  # 8 is a c
    assert check_cli_output("all_b", "1 3 7 9\nEOE\n", labels, 1) is None
    assert check_cli_output("all_b", "3 1 7 9\nEOE\n", labels, 1)  # not sorted


def test_checkers_accept_library_output_and_flag_its_corruption():
    from workloads import WORKLOADS, make_inputs, read, setup

    for name, w in WORKLOADS.items():
        inp = make_inputs(w, 5, 0, scale=0.02)
        eds, root = setup(inp)
        answers = read(eds.enumerate(root), 0)
        assert check_full_stream(w.query, answers, inp.labels) is None, name
        if w.query == "one_b":
            bad = answers[:-1] + [answers[0]]  # the first answer again, the last one lost
        else:
            bad = [answers[0][:-1]]  # one b vertex missing
        assert check_full_stream(w.query, bad, inp.labels), name


def _run(capsys, workload, trace, seed=3):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace), "--scale", "0.05"])
    out = capsys.readouterr().out
    return rc, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_has_no_failed_operations(capsys, workload):
    rc, res = _run(capsys, workload, 0)
    assert rc == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(capsys, workload):
    rc1, first = _run(capsys, workload, 1)
    rc2, second = _run(capsys, workload, 1)
    assert rc1 == rc2 == 0 and first["failed"] == second["failed"] == 0
    assert {k: m["unit"] for k, m in first["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "relabel-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
