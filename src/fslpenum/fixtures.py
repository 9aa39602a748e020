"""Shared worked examples: a small weighted DAG with a known path multiset,
an f-SLP with heavy subtree sharing, a random forest generator, standard
query automata, and an annotation-transducer product builder.  Used by the
test suite and the bench command.
"""

from __future__ import annotations

import operator
import random
from typing import Iterable, Optional, Sequence

from .automata import NSTA
from .dagenum import DecoratedDAG
from .effects import MonoidCategory
from .fslp import FSLP

INT_SUM = MonoidCategory(0, operator.add)


def sample_weighted_dag() -> DecoratedDAG:
    """Binary DAG over integer weights with 16 source-3-to-leaf pairs.

    Vertices 0, 1, 2 and 4 are intentionally isolated.  From vertex 3 the
    pair multiset is {(11, w) : w in 16,10,17,11} ∪ {(12, w) : w in
    13,7,12,6,13,15,18,20} ∪ {(13, w) : w in 11,13,16,18}; note (12, 13)
    occurs twice.
    """
    d = DecoratedDAG(INT_SUM)
    for v in range(14):
        d.add_vertex(None, target=v in (11, 12, 13))
    for u, w, v in [
        (3, 0, 5), (3, 8, 6),
        (5, 4, 7), (5, 3, 7),
        (6, 2, 8), (6, 7, 8),
        (7, 8, 9), (7, 2, 9),
        (8, 0, 10), (8, 2, 10),
        (9, 5, 11), (9, 1, 12),
        (10, 3, 12), (10, 1, 13),
    ]:
        d.add_edge(u, w, v)
    return d


SAMPLE_DAG_SOURCE = 3
SAMPLE_DAG_PAIRS = (
    [(11, w) for w in (16, 10, 17, 11)]
    + [(12, w) for w in (13, 7, 12, 6, 13, 15, 18, 20)]
    + [(13, w) for w in (11, 13, 16, 18)]
)


def shared_subtree_fslp() -> FSLP:
    """9-node f-SLP deriving the 16-vertex tree a(b^15), height 5.

    The path "rrrlr" from the root has total preorder effect x -> x+14
    and ends at the b-labelled leaf with preorder number 14.
    """
    g = FSLP()
    b = g.add_leaf("b")          # 0
    f2 = g.add_hc(b, b)          # 1: bb
    f4 = g.add_hc(f2, f2)        # 2: bbbb
    f8 = g.add_hc(f4, f4)        # 3: b^8
    f3 = g.add_hc(f2, b)         # 4: b^3
    f7 = g.add_hc(f4, f3)        # 5: b^7
    f15 = g.add_hc(f8, f7)       # 6: b^15
    actx = g.add_leafctx("a")    # 7
    g.root = g.add_vc(actx, f15)  # 8: a(b^15)
    return g


SHARED_FSLP_GREEN_PATH = "rrrlr"
SHARED_FSLP_GREEN_PREORDER = 14


def random_term(rng: random.Random, n: int, labels: str = "ab") -> str:
    """Term text of a random forest with exactly ``n`` vertices, in preorder.

    Each vertex after the first is, with equal odds, the first child of its
    predecessor or a sibling after closing a geometric number of subtrees.
    """
    if n < 1:
        raise ValueError("a random forest needs at least one vertex")
    out = [rng.choice(labels)]
    depth = 0
    for _ in range(n - 1):
        if rng.random() < 0.5:
            out.append("(")
            depth += 1
        else:
            while depth and rng.random() < 0.5:
                out.append(")")
                depth -= 1
        out.append(rng.choice(labels))
    out.append(")" * depth)
    return "".join(out)


def adversarial_path_dag(n: int) -> tuple[DecoratedDAG, int]:
    """Left chain of length n where every right edge hits a shared leaf.

    The source-to-leaf path words are l^n and l^i r (0 <= i < n); naive
    stack handling would pay n silent pops at the end, the bounded-delay
    loop never does.  Returns (dag, source).
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = DecoratedDAG(INT_SUM)
    chain = [d.add_vertex(None) for _ in range(n)]
    t = d.add_vertex(None, target=True)
    bottom = d.add_vertex(None, target=True)
    for i, v in enumerate(chain):
        d.add_edge(v, 1, chain[i + 1] if i + 1 < n else bottom)
        d.add_edge(v, 0, t)
    return d, chain[0]


# ---------------------------------------------------------------------------
# standard vertex-selecting automata
# ---------------------------------------------------------------------------

def select_labels_nsta(selected: Iterable[str], alphabet: Iterable[str]) -> NSTA:
    """Accepts (F, S) iff S is exactly the set of vertices labelled in ``selected``."""
    sel = set(selected)
    iota = {}
    for a in alphabet:
        iota[(a, 1)] = frozenset([0]) if a in sel else frozenset()
        iota[(a, 0)] = frozenset() if a in sel else frozenset([0])
    return NSTA(1, frozenset([(0, 0, 0)]), iota, 0, 0)


def exactly_one_nsta(alphabet: Iterable[str]) -> NSTA:
    """Accepts (F, S) iff |S| = 1; states count selected vertices."""
    iota = {}
    for a in alphabet:
        iota[(a, 0)] = frozenset([0])
        iota[(a, 1)] = frozenset([1])
    delta = frozenset([(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    return NSTA(2, delta, iota, 0, 1)


def at_least_one_nsta(alphabet: Iterable[str]) -> NSTA:
    iota = {}
    for a in alphabet:
        iota[(a, 0)] = frozenset([0])
        iota[(a, 1)] = frozenset([1])
    delta = frozenset([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    return NSTA(2, delta, iota, 0, 1)


def accept_all_nsta(alphabet: Iterable[str]) -> NSTA:
    iota = {(a, b): frozenset([0]) for a in alphabet for b in (0, 1)}
    return NSTA(1, frozenset([(0, 0, 0)]), iota, 0, 0)


def reject_all_nsta(alphabet: Iterable[str]) -> NSTA:
    iota = {(a, b): frozenset() for a in alphabet for b in (0, 1)}
    return NSTA(2, frozenset(), iota, 0, 1)


def only_empty_nsta(alphabet: Iterable[str]) -> NSTA:
    """Accepts (F, S) iff S is empty."""
    iota = {}
    for a in alphabet:
        iota[(a, 0)] = frozenset([0])
        iota[(a, 1)] = frozenset()
    return NSTA(1, frozenset([(0, 0, 0)]), iota, 0, 0)


# ---------------------------------------------------------------------------
# annotation transducers over strings
# ---------------------------------------------------------------------------

def annotation_product(
    transitions: Sequence[tuple[int, str, Optional[str], int]],
    initial: int,
    finals: Iterable[int],
    word: str,
) -> tuple[DecoratedDAG, int]:
    """Product of an annotation transducer with an input word.

    Transitions are (state, symbol, marker-or-None, state); the DAG's
    source-to-target path labels are the output words, whose symbols are
    (1-based position, marker) pairs.  Returns (dag, source vertex).
    """
    n = len(word)
    states = sorted({q for q, _, _, _ in transitions} | {p for _, _, _, p in transitions} | {initial} | set(finals))
    index = {q: i for i, q in enumerate(states)}
    fin = set(finals)
    d = DecoratedDAG()  # labels, no category

    def vid(q: int, i: int) -> int:
        return index[q] * (n + 1) + i

    for q in states:
        for i in range(n + 1):
            d.add_vertex(None, target=(q in fin and i == n))
    for q, sym, marker, p in transitions:
        for i in range(n):
            if word[i] == sym:
                lab = None if marker is None else (i + 1, marker)
                d.add_edge(vid(q, i), lab, vid(p, i + 1))
    return d, vid(initial, 0)


def sample_annotation_case() -> tuple[DecoratedDAG, int, set[tuple]]:
    """Transducer with two accepting runs on "ababba".

    The output words are (2,y)(5,x) and (2,y)(3,x)(6,y).
    """
    run1 = [None, "y", None, None, "x", None]
    run2 = [None, "y", "x", None, None, "y"]
    word = "ababba"
    transitions = []
    for base, run in ((10, run1), (20, run2)):
        cur = 0
        for i, marker in enumerate(run):
            nxt = base + i + 1
            transitions.append((cur, word[i], marker, nxt))
            cur = nxt
    dag, source = annotation_product(transitions, 0, {16, 26}, word)
    expected = {
        ((2, "y"), (5, "x")),
        ((2, "y"), (3, "x"), (6, "y")),
    }
    return dag, source, expected
