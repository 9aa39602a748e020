"""Shared random instance generators for the property tests, and the
timing and bytecode-count helpers of the doubling tests."""

from __future__ import annotations

import ast
import dataclasses
import gc
import os
import random
import subprocess
import sys
import time

import pytest

import fslpenum
from fslpenum import (
    NSTA,
    DecoratedDAG,
    ExprLeaf,
    ExprNode,
    Forest,
    compute_stats,
    parse_term,
)
from fslpenum.effects import compose
from fslpenum.fixtures import INT_SUM, random_term
from fslpenum.msoenum import _LEAF_RECORD, _OFFSET_NODES, _PATH_NODES, _PATH_STEPS


def random_forest(rng: random.Random, max_n: int, labels: str = "ab") -> Forest:
    """Random non-empty forest with at most max_n vertices."""
    return parse_term(random_term(rng, rng.randint(1, max_n), labels))


def random_expr(rng: random.Random, depth: int, labels: str = "ab", typ: int = 0):
    """Random valid expression of the requested type."""
    if depth == 0 or rng.random() < 0.3:
        if typ == 0:
            return ExprLeaf(rng.choice(labels))
        return ExprLeaf(rng.choice(labels), ctx=True)
    if typ == 0:
        choice = rng.randrange(3)
        if choice == 0:
            return ExprNode("hc", random_expr(rng, depth - 1, labels, 0), random_expr(rng, depth - 1, labels, 0))
        if choice == 1:
            return ExprNode("vc", random_expr(rng, depth - 1, labels, 1), random_expr(rng, depth - 1, labels, 0))
        return ExprLeaf(rng.choice(labels))
    choice = rng.randrange(3)
    if choice == 0:
        return ExprNode("hc", random_expr(rng, depth - 1, labels, 0), random_expr(rng, depth - 1, labels, 1))
    if choice == 1:
        return ExprNode("hc", random_expr(rng, depth - 1, labels, 1), random_expr(rng, depth - 1, labels, 0))
    return ExprNode("vc", random_expr(rng, depth - 1, labels, 1), random_expr(rng, depth - 1, labels, 1))


def random_any_expr(rng: random.Random, depth: int, labels: str = "ab"):
    """Random expression tree, possibly invalid."""
    if depth == 0 or rng.random() < 0.3:
        return ExprLeaf(rng.choice(labels), rng.random() < 0.4)
    op = rng.choice(["hc", "vc"])
    return ExprNode(op, random_any_expr(rng, depth - 1, labels), random_any_expr(rng, depth - 1, labels))


def random_nsta(rng: random.Random, m: int, labels: str = "ab") -> NSTA:
    delta = frozenset(
        (p, q, r)
        for p in range(m)
        for q in range(m)
        for r in range(m)
        if rng.random() < 0.3
    )
    iota = {}
    for a in labels:
        for bit in (0, 1):
            iota[(a, bit)] = frozenset(q for q in range(m) if rng.random() < 0.5)
    return NSTA(m, delta, iota, rng.randrange(m), rng.randrange(m))


def random_weighted_dag(rng: random.Random, max_n: int) -> DecoratedDAG:
    n = rng.randint(1, max_n)
    d = DecoratedDAG(INT_SUM)
    for v in range(n):
        d.add_vertex(None, target=rng.random() < 0.4)
    for v in range(n):
        for w in range(v + 1, n):
            for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
                d.add_edge(v, rng.randint(0, 5), w)
    return d


def random_labelled_dag(rng: random.Random, max_n: int, symbols=("x", "y")) -> DecoratedDAG:
    n = rng.randint(1, max_n)
    d = DecoratedDAG()
    for v in range(n):
        d.add_vertex(None, target=rng.random() < 0.4)
    for v in range(n):
        for w in range(v + 1, n):
            if rng.random() < 0.4:
                d.add_edge(v, rng.choice([None, None, *symbols]), w)
    return d


def check_pid_blocks(p) -> None:
    """A ``ProductIndex``'s pids are one block per fed node that follows
    the node's active row: node i holds exactly ``[first[i], first[i] +
    len(act))``, pid ``first[i] + k`` is ``(i, act[k])``, and ``pair`` and
    ``pid`` are inverse to each other.  ``edges[i]`` is None exactly for
    leaves, and otherwise holds the children's first pids and the edge
    effects of the ten-case rule.  Every successor tuple indexes into the
    children's active rows, and ``succ(pid)`` is None exactly for the
    states outside the node's useful row.  The normalizer prunes no pid
    and has one vertex per pid that is no shortcut, and a pid's arms (or
    its shortcut's morphism and vertex) are its shape row's edges
    resolved through the children's shortcuts."""
    blocks: list[int] = []
    for i, shape in enumerate(p.shape_of):
        assert p.first[i] == len(blocks)
        blocks += [i] * len(shape[0])
    assert len(p.shape_of) == len(p.first) == len(p.edges) == p.built
    assert p.node_of == blocks
    assert len(p.pairs) == len(p.norm.vertex_of) == len(blocks)
    for pid in p.pairs:
        assert p.pid(*p.pair(pid)) == pid
    g = p.g
    for i, (act, useful, _, succ, *_) in enumerate(p.shape_of):
        l, r = g.lefts[i], g.rights[i]
        if l is None:
            assert p.edges[i] is None, i
        else:
            fl, lm, fr, rm = p.edges[i]
            assert (fl, fr) == (p.first[l], p.first[r]), i
            assert (lm, rm) == (p.stats.lm[i], p.stats.rm[i]), i
            for t in succ:
                for a, c in t or ():
                    assert 0 <= a < len(p.shape_of[l][0]) and 0 <= c < len(p.shape_of[r][0]), (i, t)
        for k, q in enumerate(act):
            pid = p.first[i] + k
            assert p.pair(pid) == (i, q) and p.pid(i, q) == pid
            assert (p.succ(pid) is None) == (q not in useful), (i, q)
    norm = p.norm
    vertex_of, shortcut, is_shortcut = norm.vertex_of, norm.shortcut, norm.is_shortcut
    assert len(shortcut) == len(vertex_of) and all(v >= 0 for v in vertex_of)
    assert sorted(v for pid, v in enumerate(vertex_of) if not is_shortcut(pid)) == list(range(len(norm.obj)))
    assert len(norm.lo) == len(norm.obj) + 1
    compose = norm.category.compose
    for pid in p.pairs:
        i = p.node_of[pid]
        li, ri, target = p.shape_of[i][4][pid - p.first[i]]
        fl, lm, fr, rm = p.edges[i] or (0, None, 0, None)
        want = []
        for m, child in [(lm, fl + a) for a in li] + [(rm, fr + c) for c in ri]:
            want.append((compose(m, shortcut[child]) if is_shortcut(child) else m, vertex_of[child]))
        v = vertex_of[pid]
        if is_shortcut(pid):
            assert not target and want == [(shortcut[pid], v)], pid
        else:
            arms = range(norm.lo[v], norm.lo[v + 1])
            assert [(norm.morph[j], norm.child[j]) for j in arms] == want, pid
            c = want[-1][1] if want else None
            assert norm.tail[v] == (-1 if target else None if norm.is_leaf(c) else norm.lo[c]), pid


def check_stats(stats, g) -> None:
    """Each field of ``stats`` equals the same field of ``compute_stats(g)``:
    a relabel's copies carry exactly the stats a fresh pass gives them."""
    want = compute_stats(g)
    for f in dataclasses.fields(want):
        assert getattr(stats, f.name) == getattr(want, f.name), f.name


def expand_record(r: tuple, c: int, d: int) -> list:
    """The elements of rigid record ``r`` reached at (c, d), in witness
    order, read by following every child record."""
    out, todo = [], [(r, c, d)]
    while todo:
        r, c, d = todo.pop()
        if r[2] is None:
            out.append(c + r[3] * d + r[4])
        else:
            todo.append((r[7], c + r[8] * d + r[9], r[10] * d + r[11]))
            todo.append((r[2], c + r[3] * d + r[4], r[5] * d + r[6]))
    return out


def check_rigid_records(p, concurrent: bool = False) -> None:
    """Every rigid record a ``ProductIndex`` has filled equals the one its
    definition (``ProductIndex.fill_rigid``) gives, whatever order the
    fill visited the pairs in.  The definition is read off the pair's
    single path, ``succ`` and the ten-case edge rule; a binary record's
    key is its pid exactly when it holds at most ``_OFFSET_NODES`` nodes
    and its path effect ignores d (eps == kappa == 0).  A binary record's
    child slots hold its children's records: each is the very tuple
    ``rigid`` holds for that child, or, if ``concurrent`` fills may have
    left an equal but distinct tuple there, is checked against the
    child's definition in turn.  Each (record, pair) is checked once, by
    the record's identity, so a record DAG whose unfolding is
    exponential costs its size: no record is hashed or compared whole.

    Every ``offsets`` entry belongs to a keyed record, holds at most
    ``_OFFSET_NODES`` offsets, and is what the record expands to, less
    c, at two points (c, d) with different c and d."""
    g, rigid = p.g, p.rigid
    seen = set()
    todo = list(rigid.items())
    while todo:
        pid, got = todo.pop()
        if (id(got), pid) in seen:
            continue
        seen.add((id(got), pid))
        if g.lefts[p.node_of[pid]] is None:
            assert got == _LEAF_RECORD, pid
            continue
        only = p.norm.only_pair(pid)
        if only is None:
            assert got is None, pid
            continue
        u, path = only
        node = p.node_of[u]
        if g.lefts[node] is None:
            assert got == (_PATH_STEPS, _PATH_NODES, None, path[0], path[1]), pid
            continue
        succ = p.succ(u)
        if len(succ) > 1:
            assert got is None, pid
            continue
        (pl, pr), = succ
        assert pl in rigid and pr in rigid, pid
        if rigid[pl] is None or rigid[pr] is None:
            assert got is None, pid
            continue
        assert got is not None and len(got) == 13, pid
        rl, rr = got[2], got[7]
        nodes = _PATH_NODES + rl[1] + rr[1]
        want = (
            _PATH_STEPS + rl[0] + rr[0], nodes,
            *compose(path, p.stats.lm[node]), *compose(path, p.stats.rm[node]),
            pid if nodes <= _OFFSET_NODES and path[0] == path[2] == 0 else None,
        )
        assert got[:2] + got[3:7] + got[8:] == want, pid
        for child, r in ((pl, rl), (pr, rr)):
            if r is not rigid[child]:
                assert concurrent, (pid, child)
                todo.append((child, r))
    for pid, offsets in p.offsets.items():
        r = rigid[pid]
        assert r[12] == pid and len(offsets) <= _OFFSET_NODES, pid
        for c, d in ((0, 0), (7, 3)):
            assert expand_record(r, c, d) == [c + k for k in offsets], pid


def doubling_ratios(sizes, inputs, run):
    """Time ratios of ``run(inputs[n])`` between consecutive sizes:
    interleaved, best of five, CPU time of this process, each timed call
    starting from a collected heap that no longer holds the last result.
    Returns the ratios and, for the assertion message, each size's five
    times in seconds."""
    times: dict = {n: [] for n in sizes}
    for _ in range(5):
        for n in sizes:
            out = None
            gc.collect()
            gc.disable()
            t0 = time.process_time()
            out = run(inputs[n])
            times[n].append(time.process_time() - t0)
            gc.enable()
    best = [min(times[n]) for n in sizes]
    return [best[i] / best[i - 1] for i in range(1, len(sizes))], times


def bytecodes(run) -> int:
    """How many bytecodes ``run()`` executes, counted by an opcode trace
    with the collector off.  The count is exact and repeats, so a doubling
    check on it cannot fail on a busy machine; work done inside one C call
    (a ``list.index``, an ``in`` on a list) is not counted."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return opcode

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    gc.collect()
    gc.disable()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        gc.enable()
    return count


def count_ratios(counts: list) -> list:
    return [counts[i] / counts[i - 1] for i in range(1, len(counts))]


def unique_term(n: int, block: int = 500) -> str:
    """Term text of ``n // block`` copies, in a row, of one random forest
    of ``block`` vertices, each vertex with its own label of one length:
    no two subtrees are equal, so each doubling of ``n`` doubles the text,
    the vertices and the nodes of the compressed f-SLP."""
    shape = random_term(random.Random(block), block, "a")
    names = iter(range(10**5, 10**5 + n))
    return "".join(f"'v{next(names)}'" if c == "a" else c for c in shape * (n // block))


def under_hash_seeds(call: str, seeds=("0", "1")) -> list:
    """``call``, an expression over one module of the tests (``"m.f(x)"``),
    evaluated in a fresh interpreter under each ``PYTHONHASHSEED`` value;
    returns the printed results."""
    path = [os.path.dirname(os.path.dirname(fslpenum.__file__)), os.path.dirname(__file__)]
    out = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
        code = f"import {call.split('.')[0]}; print({call})"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        out.append(ast.literal_eval(run.stdout))
    return out


def check_counts_double(counts: list, call: str) -> None:
    """Each doubling of the size doubles ``counts`` to within 5%, and
    ``call`` (see ``under_hash_seeds``), the counts at the first two sizes,
    gives the same two under every hash seed."""
    ratios = count_ratios(counts)
    assert all(1.9 <= r <= 2.1 for r in ratios), (ratios, counts)
    assert under_hash_seeds(call) == [counts[:2]] * 2


def cyclic_garbage(run) -> int:
    """How many objects ``run()`` leaves that only the cycle collector can
    free.  One unmeasured call comes first, so that what is built once per
    process (the CLI's parser) does not count; the measured call runs with
    the collector off from a collected heap, and its result is dropped."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20250810)
