"""Query automata: nondeterministic stepwise tree automata over annotated
forests, and deterministic bottom-up tree automata over expressions with
lazily materialized states.

An nSTA reads each sibling sequence as a string over states: a vertex
contributes the state its subtree evaluated to, sequences start from the
parent label's initial states, and a forest is accepted when the root
sequence takes the global initial state to the global final state.
Automata are vertex-selecting: the alphabet is Sigma x {0,1} and the bit
marks selected vertices.

The determinization turns an nSTA into a dBUTA over expression trees
whose states are relations on nSTA states, kept as the sorted tuple of
their nonzero rows: a forest maps each of its run pairs (p, q) to 1, a
context maps each run pair to the bitset of hole runs that give it.
States are built only on demand and interned to dense ids.  The engine
runs it over f-SLP nodes; running it on an explicit expression
(``dbuta_run``) is an oracle helper in ``oracle``, as is the reference
acceptance test ``nsta_accepts``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .fslp import FSLP, HC, LEAF, LEAFCTX, VC, _int_field, env_int

FAILURE = ("fail",)


class StateLimitExceeded(RuntimeError):
    """Interning one more dBUTA state would break the automaton's cap."""


def default_max_states() -> int:
    """State cap: ``FSLPENUM_MAX_STATES`` if set, else 10**6."""
    return env_int("FSLPENUM_MAX_STATES", 10**6, positive=True)


@dataclass(frozen=True)
class NSTA:
    """Stepwise tree automaton: δ ⊆ Q³, per-(label, bit) initial state sets."""

    m: int
    delta: frozenset
    iota: dict
    q0: int
    qf: int

    def __post_init__(self):
        for t in self.delta:
            if len(t) != 3 or any(not (0 <= q < self.m) for q in t):
                raise ValueError(f"bad transition {t}")
        for key, states in self.iota.items():
            label, bit = key
            if bit not in (0, 1):
                raise ValueError(f"bad iota key {key}")
            if any(not (0 <= q < self.m) for q in states):
                raise ValueError(f"iota[{key}] references unknown states")
        for q in (self.q0, self.qf):
            if not (0 <= q < self.m):
                raise ValueError("q0/qf out of range")

    def iota_set(self, label: str, bit: int) -> frozenset:
        return self.iota.get((label, bit), frozenset())


class DBUTA:
    """Deterministic bottom-up automaton over expression trees, lazy states.

    States are opaque hashable values interned to dense ids on first use;
    δ0 takes (label, is_context, selection bit), δ2 takes two state ids
    and an operator (hc/vc).  A memo hit is one unlocked dict read; a miss
    takes the lock, looks again and fills the entry, so concurrent
    evaluation is allowed and no value is interned twice.  An entry is
    stored only once its state is interned, so an unlocked read sees either
    no entry or a complete one.  Interned values (not ids) are canonical.
    ``state_bound`` is the construction's worst-case state count, an
    invariant, or None where it would be 2**128 or more: a state id is a
    list index, below 2**63, so such a bound could never trip, and its
    int alone would take memory exponential in the NSTA's states;
    ``max_states`` is a resource cap: interning a state past it raises
    ``StateLimitExceeded`` and leaves the automaton unchanged.
    """

    def __init__(
        self,
        delta0: Callable[[str, bool, int], object],
        delta2: Callable[[object, object, str], object],
        final: Callable[[object], bool],
        state_bound: Optional[int] = None,
        max_states: Optional[int] = None,
    ):
        self._delta0 = delta0
        self._delta2 = delta2
        self._final = final
        self.state_bound = state_bound
        self.max_states = max_states
        self._values: list = []
        self._ids: dict = {}
        self._memo0: dict = {}
        self._memo2: dict = {}
        self._finals: dict = {}
        self._lock = threading.RLock()

    def intern(self, value) -> int:
        with self._lock:
            qid = self._ids.get(value)
            if qid is None:
                qid = len(self._values)
                if self.state_bound is not None and qid >= self.state_bound:
                    raise AssertionError("materialized states exceed the state bound")
                if self.max_states is not None and qid >= self.max_states:
                    raise StateLimitExceeded(
                        f"the query automaton needs more than {self.max_states} states "
                        "(raise FSLPENUM_MAX_STATES to allow more)"
                    )
                self._values.append(value)
                self._ids[value] = qid
            return qid

    def value(self, qid: int):
        return self._values[qid]

    @property
    def state_count(self) -> int:
        return len(self._values)

    def delta0(self, label: str, ctx: bool, bit: int) -> int:
        key = (label, ctx, bit)
        qid = self._memo0.get(key)
        if qid is None:
            with self._lock:
                qid = self._memo0.get(key)
                if qid is None:
                    qid = self.intern(self._delta0(label, ctx, bit))
                    self._memo0[key] = qid
        return qid

    def delta2(self, q1: int, q2: int, op: str) -> int:
        key = (q1, q2, op)
        qid = self._memo2.get(key)
        if qid is None:
            with self._lock:
                qid = self._memo2.get(key)
                if qid is None:
                    qid = self.intern(self._delta2(self._values[q1], self._values[q2], op))
                    self._memo2[key] = qid
        return qid

    def is_final(self, qid: int) -> bool:
        out = self._finals.get(qid)
        if out is None:
            with self._lock:
                out = self._finals.get(qid)
                if out is None:
                    out = self._finals[qid] = bool(self._final(self._values[qid]))
        return out


def build_btau() -> DBUTA:
    """The validity automaton: accepts exactly the valid expressions."""
    table = {
        (0, 0, HC): 0,
        (0, 1, HC): 1,
        (1, 0, HC): 1,
        (1, 1, HC): FAILURE,
        (1, 0, VC): 0,
        (1, 1, VC): 1,
        (0, 0, VC): FAILURE,
        (0, 1, VC): FAILURE,
    }

    def delta0(label: str, ctx: bool, bit: int):
        return 1 if ctx else 0

    def delta2(v1, v2, op: str):
        if v1 == FAILURE or v2 == FAILURE:
            return FAILURE
        return table[(v1, v2, op)]

    return DBUTA(delta0, delta2, lambda v: v in (0, 1), state_bound=3)


def nsta_to_dbuta(a: NSTA) -> DBUTA:
    """Subset construction over state-pair relations.

    A state is a kind and the sorted tuple of its nonzero rows, the pair
    (p, q) keyed as the int ``p*m + q``.  A forest ("p") has the row value
    1 for each (p, q) such that the automaton has a (p, q)-run on it.  A
    context ("q") has for each (p, q) the bitset of hole pairs (p', q')
    under which it has a (p, q)-run, the hole's forest read from p' to q'.
    ``bit_of`` numbers the hole pairs that a leaf context can name (p'
    initial, q' read by a transition), sorted by q' and then p'.  So a
    bitset is as wide as those pairs, not m*m, a leaf context's row only
    as wide as its read state's block, and one relation has one value in
    every automaton built from the nSTA; the table is built before any δ
    call and only read after.  ``hc`` joins two relations on their middle
    state, ``vc`` composes the outer context with the inner expression,
    and the final state demand is the forest row (q0, qf).  The
    materialized states are capped at ``default_max_states()``.
    """
    m = a.m
    by_read: dict[int, list[int]] = {}  # read state r -> pairs (p, q) of δ(p, r, q)
    for p, r, q in a.delta:
        by_read.setdefault(r, []).append(p * m + q)
    starts = sorted(set().union(*a.iota.values()))
    holes = [p * m + r for r in sorted(by_read) for p in starts]
    bit_of = {hole: i for i, hole in enumerate(holes)}  # hole pair -> its bit index

    def delta0(label: str, ctx: bool, bit: int):
        init = a.iota_set(label, bit)
        rows: dict[int, int] = {}
        for r, pairs in by_read.items():
            # a context's hole is read from an initial state p to r
            hole = sum(1 << bit_of[p * m + r] for p in init) if ctx else int(r in init)
            if hole:
                for pair in pairs:
                    rows[pair] = rows.get(pair, 0) | hole
        return ("q" if ctx else "p", tuple(sorted(rows.items())))

    def join(x, y):
        by_first: dict[int, list[tuple[int, int]]] = {}
        for pair, r in y[1]:
            by_first.setdefault(pair // m, []).append((pair % m, r))
        rows: dict[int, int] = {}
        for pair, l in x[1]:
            first = pair - pair % m
            for q, r in by_first.get(pair % m, ()):
                rows[first + q] = rows.get(first + q, 0) | l * r
        return (x[0] if y[0] == "p" else "q", tuple(sorted(rows.items())))

    def compose(x, y):
        inner = {1 << bit_of[pair]: v for pair, v in y[1] if pair in bit_of}
        mask = sum(inner)
        rows = []
        for pair, bits in x[1]:
            bits &= mask
            v = 0
            while bits:
                low = bits & -bits
                v |= inner[low]
                bits ^= low
            if v:
                rows.append((pair, v))
        return (y[0], tuple(rows))

    def delta2(x, y, op: str):
        if FAILURE not in (x, y):
            if op == VC and x[0] == "q":
                return compose(x, y)
            if op == HC and "p" in (x[0], y[0]):
                return join(x, y)
        return FAILURE

    target = (a.q0 * m + a.qf, 1)

    def final(v) -> bool:
        return v[0] == "p" and target in v[1]

    # 2**(m**4) has m**4 bits: built only while it is below 2**128
    bound = 2 ** (a.m * a.m) + 2 ** (a.m**4) + 1 if a.m**4 < 128 else None
    cap = default_max_states()
    return DBUTA(delta0, delta2, final, state_bound=bound, max_states=cap)


# ---------------------------------------------------------------------------
# multi-variable reduction
# ---------------------------------------------------------------------------

@dataclass
class MultivarReduction:
    """k-variable query support: transformed f-SLP plus the tuple decoder."""

    fslp: FSLP
    node_map: dict[int, int]
    k: int

    def decode(self, answer: Iterable[int]) -> tuple[frozenset, ...]:
        sets: list[set[int]] = [set() for _ in range(self.k)]
        for m in answer:
            sets[m % self.k].add(m // self.k)
        return tuple(frozenset(s) for s in sets)


def multivar_label(label: str, i: int) -> str:
    return f"{label}~{i}"


def multivar_reduce(g: FSLP, k: int) -> MultivarReduction:
    """Give every vertex k-1 left siblings tagged 1..k-1 (itself tagged k).

    Answers over the transformed forest encode k-tuples: vertex m selects
    variable m mod k at original vertex m div k (see ``decode``).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    alphabet = sorted(g.alphabet())
    for label in alphabet:
        for i in range(1, k + 1):
            if multivar_label(label, i) in alphabet:
                raise ValueError(f"label {multivar_label(label, i)!r} already in use")
    out = FSLP()
    prefix: dict[str, int] = {}
    lastleaf: dict[str, int] = {}
    lastctx: dict[str, int] = {}
    for label in alphabet:
        row = out.add_leaf(multivar_label(label, 1))
        for i in range(2, k):
            row = out.add_hc(row, out.add_leaf(multivar_label(label, i)))
        prefix[label] = row
        lastleaf[label] = out.add_leaf(multivar_label(label, k))
        lastctx[label] = out.add_leafctx(multivar_label(label, k))
    node_map: dict[int, int] = {}
    for i in range(len(g)):
        kind = g.kinds[i]
        if kind == LEAF:
            node_map[i] = out.add_hc(prefix[g.labels[i]], lastleaf[g.labels[i]])
        elif kind == LEAFCTX:
            node_map[i] = out.add_hc(prefix[g.labels[i]], lastctx[g.labels[i]])
        elif kind == HC:
            node_map[i] = out.add_hc(node_map[g.lefts[i]], node_map[g.rights[i]])
        else:
            node_map[i] = out.add_vc(node_map[g.lefts[i]], node_map[g.rights[i]])
    if g.root is not None:
        out.root = node_map[g.root]
    return MultivarReduction(out, node_map, k)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def dumps(a: NSTA) -> str:
    lines = ["nsta v1", f"states {a.m}"]
    for (label, bit), states in sorted(a.iota.items()):
        if states:
            lines.append(f"iota {label} {bit} " + " ".join(str(q) for q in sorted(states)))
    for p, r, q in sorted(a.delta):
        lines.append(f"trans {p} {r} {q}")
    lines.append(f"init {a.q0}")
    lines.append(f"final {a.qf}")
    return "\n".join(lines) + "\n"


_FIELDS = {"states": 1, "trans": 3, "init": 1, "final": 1}
"""Field count of each fixed-width directive line, after the directive."""


def loads(text: str) -> NSTA:
    lines = text.splitlines()
    if not lines or lines[0].split("#", 1)[0].strip() != "nsta v1":
        raise ValueError("missing 'nsta v1' header")
    m: Optional[int] = None
    delta: set = set()
    iota: dict = {}
    q0: Optional[int] = None
    qf: Optional[int] = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, nfields = parts[0], len(parts) - 1
        if kind == "iota":
            if nfields < 2:
                raise ValueError(f"line {lineno}: iota takes at least 2 field(s), got {nfields}")
        elif kind not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")
        elif nfields != _FIELDS[kind]:
            raise ValueError(f"line {lineno}: {kind} takes {_FIELDS[kind]} field(s), got {nfields}")
        if kind == "states":
            m = _int_field(parts[1], lineno, "states")
        elif kind == "iota":
            key = (parts[1], _int_field(parts[2], lineno, "iota bit"))
            iota.setdefault(key, set()).update(_int_field(x, lineno, "iota state") for x in parts[3:])
        elif kind == "trans":
            delta.add(tuple(_int_field(x, lineno, "trans state") for x in parts[1:]))
        elif kind == "init":
            q0 = _int_field(parts[1], lineno, "init")
        else:
            qf = _int_field(parts[1], lineno, "final")
    if m is None or q0 is None or qf is None:
        raise ValueError("nsta file needs states/init/final lines")
    return NSTA(m, frozenset(delta), {key: frozenset(qs) for key, qs in iota.items()}, q0, qf)
