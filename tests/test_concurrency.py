"""Concurrency contracts: shared indexes, concurrent sessions, memoized
automaton evaluation under threads."""

import random
import sys
import threading
from itertools import islice

from fslpenum import (
    compress_forest,
    AnswerStream,
    PathSession,
    ProductIndex,
    build_enum_structure,
    dbuta_run,
    nsta_to_dbuta,
    parse_term,
    preprocess,
    unfold,
)
from fslpenum.fixtures import (
    exactly_one_nsta,
    random_term,
    sample_weighted_dag,
    select_labels_nsta,
)
from fslpenum.oracle import canonical_form

from conftest import check_rigid_records, random_nsta


def test_concurrent_path_sessions_share_an_index():
    d = sample_weighted_dag()
    idx = preprocess(d)
    expected = sorted(PathSession(idx, 3))
    results = [None] * 8
    def worker(i):
        results[i] = sorted(PathSession(idx, 3))
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)


def test_concurrent_dbuta_runs_are_deterministic():
    a = exactly_one_nsta("ab")
    g = compress_forest(parse_term("a(bab)ab(aa)"))
    e = unfold(g, g.root)
    b = nsta_to_dbuta(a)
    want = b.value(dbuta_run(b, e, (1, 3)))
    values = [None] * 8
    def worker(i):
        fresh_sel = (i % 4,)
        bsel = b.value(dbuta_run(b, e, fresh_sel))  # populate memos concurrently
        values[i] = (b.value(dbuta_run(b, e, (1, 3))), bsel is not None)
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(v == want for v, _ in values)


def test_concurrent_answer_streams_on_one_product():
    a = exactly_one_nsta("ab")
    g = compress_forest(parse_term("a(bab)ab(aa)"))
    b = nsta_to_dbuta(a)
    idx = ProductIndex(g, b)
    expected = {frozenset(ans) for ans in AnswerStream(idx, g.root)}
    results = [None] * 6
    def worker(i):
        results[i] = {frozenset(ans) for ans in AnswerStream(idx, g.root)}
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)


def test_concurrent_builds_share_one_dbuta():
    # memo hits read without the lock; a miss fills its entry under it
    rng = random.Random(5)
    a = random_nsta(rng, 4)
    gs = [compress_forest(parse_term(random_term(rng, 400, "ab"))) for _ in range(8)]
    shared = nsta_to_dbuta(a)
    got = [None] * len(gs)

    def worker(i):
        got[i] = canonical_form(build_enum_structure(gs[i], shared))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(gs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    values = [shared.value(q) for q in range(shared.state_count)]
    assert len(set(values)) == len(values)  # no value interned twice
    # canonical forms list states in id order, so the single-threaded
    # reference gets the same ids: a fresh automaton, its states interned
    # in the shared one's order before any delta is evaluated
    fresh = nsta_to_dbuta(a)
    for v in values:
        fresh.intern(v)
    want = [canonical_form(build_enum_structure(g, fresh)) for g in gs]
    assert fresh.state_count == len(values)
    assert got == want


def test_concurrent_streams_fill_rigid_records_together():
    # rigid records and offsets are filled lazily by whichever stream
    # meets a pair first; concurrent fills and walks write equal values
    rng = random.Random(0)
    g = compress_forest(parse_term(random_term(rng, 1000, "abc")))
    queries = [select_labels_nsta({"b"}, "abc"), random_nsta(rng, 3, "abc")]

    def read(idx):
        stream = AnswerStream(idx, g.root, record_steps=True)
        return list(islice(stream, 20)), stream.step_log

    single = [ProductIndex(g, nsta_to_dbuta(a)) for a in queries]
    want = [read(idx) for idx in single]
    assert all(answers and max(map(len, answers)) > 100 for answers, _ in want)
    shared = [ProductIndex(g, nsta_to_dbuta(a)) for a in queries]
    assert not any(idx.rigid for idx in shared)
    got = [None] * 8
    start = threading.Barrier(len(got))

    def worker(i):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        start.wait(timeout=60)
        got[i] = {k: read(shared[k]) for k in order}

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert None not in got  # no thread raised
    for runs in got:
        assert [runs[0], runs[1]] == want
    assert all(any(r is not None for r in idx.rigid.values()) for idx in shared)
    assert single[0].offsets  # the select-b answers hold keyed records
    for idx, alone in zip(shared, single):
        check_rigid_records(idx, concurrent=True)
        assert idx.offsets == alone.offsets  # concurrent walks store equal tuples
