"""Concurrency contracts: shared indexes, concurrent sessions, memoized
automaton evaluation under threads."""

import threading

from fslpenum import (
    compress_forest,
    AnswerStream,
    PathSession,
    ProductIndex,
    dbuta_run,
    nsta_to_dbuta,
    parse_term,
    preprocess,
    unfold,
)
from fslpenum.fixtures import exactly_one_nsta, sample_weighted_dag


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
