"""Span tracing and call counting around the library's public entry points.

The tracer replaces each entry point by a wrapper while it is installed and
puts the originals back afterwards, so untraced runs execute the library
unchanged.  Spans (name, phase, parent, start, end) stay in memory in flat
arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import fslpenum as fe
import fslpenum.cli  # noqa: F401  (loaded so its imported names get wrapped too)
from fslpenum import automata, dagenum, fslp, msoenum, updates

# (owner, attribute, span name); a module owner means a function that is
# rebound in every fslpenum module that imported it.
ENTRY_POINTS = [
    (fe, "parse_term", "parse_term"),
    (fslp, "loads", "fslp.loads"),
    (fe, "compress_forest", "compress_forest"),
    (fe, "compute_stats", "compute_stats"),
    (automata, "loads", "automata.loads"),
    (fe, "nsta_to_dbuta", "nsta_to_dbuta"),
    (fe, "build_conf_sets", "build_conf_sets"),
    (msoenum.ProductIndex, "__init__", "ProductIndex"),
    (fe, "build_enum_structure", "build_enum_structure"),
    (updates.EnumDataStructure, "enumerate", "EnumDataStructure.enumerate"),
    (fe, "relabel", "relabel"),
    (fe, "preorder_to_path", "preorder_to_path"),
    (fe, "extend", "extend"),
    (fslpenum.cli, "main", "cli.main"),
    (automata.DBUTA, "delta2", "DBUTA.delta2"),
    (dagenum.Normalizer, "add_original", "Normalizer.add_original"),
    (dagenum.PathSession, "next", "PathSession.next"),
    (msoenum.AnswerStream, "next", "AnswerStream.next"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.phases: list[str] = []
        self.span_name = array("i")
        self.span_phase = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self._phase = 0
        self.counts: Counter = Counter()  # (counter, phase name) -> count
        self.delta2_keys: set = set()
        self._automata: dict[int, tuple[int, object]] = {}  # id -> (serial, instance kept alive)
        self._saved: list[tuple[object, str, object]] = []

    def phase(self, name: str) -> None:
        if name not in self.phases:
            self.phases.append(name)
        self._phase = self.phases.index(name)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._open

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_phase.append(self._phase)
            self.span_parent.append(stack[-1])
            self.span_end.append(0.0)
            stack.append(sid)
            self.span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _after_delta2(self, args, out) -> None:
        b = args[0]
        entry = self._automata.get(id(b))
        if entry is None:
            entry = self._automata[id(b)] = (len(self._automata), b)
        self.delta2_keys.add((entry[0],) + tuple(args[1:]))

    def _after_path_next(self, args, out) -> None:
        phase = self.phases[self._phase]
        self.counts["path_next", phase] += 1
        self.counts["path_steps", phase] += args[0].last_steps

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {"DBUTA.delta2": self._after_delta2, "PathSession.next": self._after_path_next}
        modules = [m for n, m in sys.modules.items() if n == "fslpenum" or n.startswith("fslpenum.")]
        for owner, attr, name in ENTRY_POINTS:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hooks.get(name))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        self._automata.clear()

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, overall and per phase."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "by_phase": defaultdict(float)})
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["by_phase"][self.phases[self.span_phase[i]]] += dur[i]
        return out

    def write(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["names"] = self.names
        doc["phases"] = self.phases
        doc["columns"] = ["name", "phase", "parent", "start", "end"]
        doc["spans"] = {
            "name": self.span_name.tolist(),
            "phase": self.span_phase.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def count_calls(fn):
    """Run ``fn()`` under a profile hook; returns (its result, calls per code object)."""
    counts: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    counts.pop(fn.__code__, None)
    return out, counts
