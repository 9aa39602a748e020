"""The three workloads and the round every run repeats.

A round is one closed loop with a single caller: set up from the input
text, stream answers from the root, relabel and read, then run the CLI on
the same input files.  Every workload runs the same round on its own input,
and each phase is timed on its own.  The inputs give each workload its
focus:

* ``compressed-stream``: set-up is small, so the answer stream shows the
  enumeration layers;
* ``random-bigset``: set-up dominates, and reads walk one big answer;
* ``relabel-mix``: relabels interleaved with short reads.
"""

from __future__ import annotations

import gc
import io
import os
import random
import statistics
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import fslpenum as fe
import fslpenum.cli
from fslpenum import automata, fslp

import gen
from checks import TrackedLabels, check_answer, check_cli_output, check_full_stream, expected_answer_count


@dataclass(frozen=True)
class Workload:
    name: str
    query: str           # "one_b": exactly one b vertex; "all_b": the set of b vertices
    stream_reads: int    # fresh streams read from the root per round
    stream_answers: int  # answers read per stream, 0 = to the end
    relabels: int        # relabel operations per round, chained from the newest root
    read_every: int      # read from the new root after every read_every-th relabel
    read_answers: int    # answers read after a relabel, 0 = to the end
    cli_limit: int       # --limit of the CLI run, 0 = none
    final_check: bool    # stream the last root to its end and compare with the labels


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compressed-stream", "one_b", 1, 30000, 300, 1, 10, 20000, False),
        Workload("random-bigset", "all_b", 3, 0, 200, 100, 0, 0, False),
        Workload("relabel-mix", "one_b", 1, 0, 1000, 1, 10, 0, True),
    )
}

BLOCK_VERTICES = 2000
SQUARINGS = 12
BIGSET_VERTICES = 30000
RELABEL_VERTICES = 10000


@dataclass
class Inputs:
    kind: str  # "fslp" or "term": the text format of ``text``
    text: str
    nsta_text: str
    labels: TrackedLabels


def make_inputs(w: Workload, seed: int, round_no: int, scale: float = 1.0) -> Inputs:
    """Input texts of one round, from the seed and the round number.

    Each round of a run gets its own input, so that a run's medians pool
    several inputs.  ``scale`` shrinks the sizes for self-tests.
    """
    rng = random.Random(f"{w.name}/{seed}/{round_no}")
    if w.name == "compressed-stream":
        labels, parents = gen.random_document(rng, max(1, int(BLOCK_VERTICES * scale)))
        block = fe.compress_forest(fe.parse_term(gen.term_text(labels, parents)))
        rounds = max(1, int(SQUARINGS * scale))
        return Inputs("fslp", gen.squared_fslp_text(block, rounds), gen.exactly_one_b_nsta(),
                      TrackedLabels(labels, 2 ** rounds))
    n = BIGSET_VERTICES if w.name == "random-bigset" else RELABEL_VERTICES
    labels, parents = gen.random_document(rng, max(1, int(n * scale)))
    nsta = gen.select_b_nsta() if w.query == "all_b" else gen.exactly_one_b_nsta()
    return Inputs("term", gen.term_text(labels, parents), nsta, TrackedLabels(labels))


REF_S = 0.001  # reference-task time on the machine the bounds were set on
REF_INTERVAL_S = 0.1
TIMINGS = ("setup", "delay", "relabel", "read", "cli")


class _Cell:
    __slots__ = ("key", "next")

    def __init__(self, key, nxt):
        self.key = key
        self.next = nxt


def reference_task() -> int:
    """Fixed interpreter-bound work, about 1 ms: calls, small objects, dicts, lists.

    Its time tracks the speed of the machine, which drifts by tens of
    percent within minutes on shared virtual CPUs.
    """
    memo: dict = {}
    stack = []
    head = None
    acc = 0
    for i in range(1000):
        key = (i & 63, i % 7)
        memo[key] = memo.get(key, 0) + 1
        head = _Cell(key, head)
        stack.append((i, head))
        if i & 1:
            acc += stack.pop()[0]
    while head is not None:
        acc += head.key[0]
        head = head.next
    return acc + len(memo)


@dataclass
class Samples:
    """What the rounds of one run measured.

    Timings are taken in phases.  Around and during each phase the
    reference task runs (five times at each end, then every 0.1 s between
    operations), and the phase's timings are also stored multiplied by
    REF_S / median reference time of that phase: ``scaled`` holds seconds
    on the reference machine, ``raw`` the wall seconds.
    """

    raw: dict = field(default_factory=lambda: {k: array("d") for k in TIMINGS})
    scaled: dict = field(default_factory=lambda: {k: array("d") for k in TIMINGS})
    elements: int = 0  # answer elements of the stream phases
    round_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # sizes and counters of the last round
    inputs: list = field(default_factory=list)  # (vertices, nodes, height) of each round
    ref_s: array = field(default_factory=lambda: array("d"))
    _window: list = field(default_factory=list)
    _pending: dict = field(default_factory=dict)
    _next_ref: float = 0.0

    def reference(self, times: int = 1) -> None:
        for _ in range(times):
            gc.disable()  # the workload's heap must not set the reference's pace
            t = perf_counter()
            reference_task()
            dt = perf_counter() - t
            gc.enable()
            self._window.append(dt)
            self.ref_s.append(dt)
        self._next_ref = perf_counter() + REF_INTERVAL_S

    def begin(self) -> None:
        gc.collect()
        self._window, self._pending = [], {k: [] for k in TIMINGS}
        self.reference(5)

    def time(self, name: str, seconds: float) -> None:
        self._pending[name].append(seconds)

    def end(self) -> None:
        self.reference(5)
        factor = REF_S / statistics.median(self._window)
        for name, xs in self._pending.items():
            self.raw[name].extend(xs)
            self.scaled[name].extend(x * factor for x in xs)
        self._pending = {}

    def op(self, error: Optional[str]) -> None:
        """Count one operation; runs between timed regions, so it also samples the reference."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)
        if perf_counter() >= self._next_ref:
            self.reference()


def setup(inp: Inputs):
    """Input text in memory to a structure ready to enumerate; returns (eds, root)."""
    if inp.kind == "fslp":
        g = fslp.loads(inp.text)
    else:
        g = fe.compress_forest(fe.parse_term(inp.text))
    eds = fe.build_enum_structure(g, automata.loads(inp.nsta_text))
    return eds, g.root


def read(stream, limit: int) -> list:
    out = []
    while not limit or len(out) < limit:
        ans = stream.next()
        if ans is None:
            break
        out.append(ans)
    return out


def _mark(tracer, name: str) -> None:
    if tracer is not None:
        tracer.phase(name)


def run_round(w: Workload, inp: Inputs, files: dict, rng: random.Random, s: Samples, tracer=None) -> None:
    gc_before = sum(st["collections"] for st in gc.get_stats())
    t_round = perf_counter()
    try:
        _round(w, inp, files, rng, s, tracer)
    except Exception as exc:  # a raising operation counts as failed; the round ends
        s.op(f"{type(exc).__name__}: {exc}")
    s.round_s.append(perf_counter() - t_round)
    s.facts["gc_collections"] = sum(st["collections"] for st in gc.get_stats()) - gc_before


def _round(w: Workload, inp: Inputs, files: dict, rng: random.Random, s: Samples, tracer) -> None:
    _structure_phases(w, inp, rng, s, tracer)  # returns only once the structure is garbage
    _cli_phase(w, inp, files, s, tracer)


def _structure_phases(w: Workload, inp: Inputs, rng: random.Random, s: Samples, tracer) -> None:
    labels = inp.labels.copy()
    _mark(tracer, "setup")
    s.begin()
    t0 = perf_counter()
    eds, root = setup(inp)
    s.time("setup", perf_counter() - t0)
    s.op(None)
    s.end()
    stats = eds.stats
    s.inputs.append((stats.nverts[root], len(eds.fslp), stats.height[root]))
    s.facts.update(
        vertices=stats.nverts[root], nodes=len(eds.fslp), height=stats.height[root],
        dbuta_states=eds.dbuta.state_count, product_pairs=len(eds.product.pairs),
        product_work=eds.product.work, normalized_vertices=len(eds.product.norm.obj),
    )

    _mark(tracer, "stream")
    s.begin()
    for _ in range(w.stream_reads):
        stream = eds.enumerate(root)
        seen: set = set()
        n = 0
        while not w.stream_answers or n < w.stream_answers:
            t = perf_counter()
            ans = stream.next()
            dt = perf_counter() - t
            if ans is None:
                break
            s.time("delay", dt)
            s.elements += len(ans)
            n += 1
            s.op(check_answer(w.query, ans, labels, seen))
        if not w.stream_answers:
            s.op(None if n == expected_answer_count(w.query, labels)
                 else f"stream from the root ended after {n} answers")
    s.end()

    _mark(tracer, "relabel")
    s.begin()
    nodes_before, ops_before, added_total = len(eds.fslp), eds.ops, 0
    for i in range(w.relabels):
        k = rng.randrange(len(labels))
        label = rng.choice(gen.LABELS)
        t = perf_counter()
        eds, root, added = fe.relabel(eds, root, k, label)
        s.time("relabel", perf_counter() - t)
        labels[k] = label
        added_total += added
        if (i + 1) % w.read_every:
            s.op(None)
            continue
        t = perf_counter()
        got = read(eds.enumerate(root), w.read_answers)
        s.time("read", perf_counter() - t)
        if not w.read_answers:
            s.op(check_full_stream(w.query, got, labels))
            continue
        seen = set()
        errors = [e for e in (check_answer(w.query, a, labels, seen) for a in got) if e]
        s.op(errors[0] if errors else None)
    s.end()
    s.facts.update(
        relabels=w.relabels, nodes_added=added_total, relabel_ops=eds.ops - ops_before,
        nodes_before=nodes_before, nodes_after=len(eds.fslp),
    )
    if w.final_check:
        _mark(tracer, "final")
        s.op(check_full_stream(w.query, read(eds.enumerate(root), 0), labels))


def _cli_phase(w: Workload, inp: Inputs, files: dict, s: Samples, tracer) -> None:
    """``fslpenum enumerate`` in-process on the input files, from the original labels."""
    _mark(tracer, "cli")
    s.begin()
    out, err = io.StringIO(), io.StringIO()
    argv = ["enumerate", files["fslp"], files["nsta"]] + (["--limit", str(w.cli_limit)] if w.cli_limit else [])
    t = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = 0
        if inp.kind == "term":
            rc = fslpenum.cli.main(["compress", files["term"], "-o", files["fslp"]])
        rc = rc or fslpenum.cli.main(argv)
    s.time("cli", perf_counter() - t)
    s.end()
    text = out.getvalue()
    s.facts["cli_output_lines"] = text.count("\n")
    total = expected_answer_count(w.query, inp.labels)
    expected = min(total, w.cli_limit) if w.cli_limit else total
    s.op(f"CLI exited {rc}: {err.getvalue().strip()[:200]}" if rc
         else check_cli_output(w.query, text, inp.labels, expected))


def write_input_files(inp: Inputs, workdir: str) -> dict:
    files = {"nsta": os.path.join(workdir, "query.nsta"), "fslp": os.path.join(workdir, "input.fslp")}
    if inp.kind == "term":
        files["term"] = os.path.join(workdir, "input.term")
    for key, text in (("nsta", inp.nsta_text), (inp.kind, inp.text)):
        with open(files[key], "w", encoding="utf-8") as fh:
            fh.write(text)
    return files
