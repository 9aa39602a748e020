"""Command-line surface: compress, decompress, stats, enumerate, relabel,
bench, oracle and validate.

Data goes to stdout, diagnostics (including timings) to stderr; given the
same inputs, flags and seed, stdout is byte-for-byte deterministic.  Exit
code 0 means full success.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from typing import Optional

from . import automata, fixtures, fslp
from .automata import StateLimitExceeded
from .dagenum import PathSession, preprocess
from .forest import ParseError, parse_term, serialize_term
from .fslp import (
    FSLP,
    BudgetExceeded,
    InvalidFSLP,
    compress_forest,
    compute_stats,
    evaluate,
    row_fslp,
)
from .oracle import OracleBudget, brute_select
from .updates import build_enum_structure

MAX_WIDE_SIZE = 4096  # bench --family wide builds 2**size siblings: nodes hold size-bit counts
MAX_ORACLE_VERTICES = 24  # oracle checks all 2**max-vertices subsets


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_fslp(path: str) -> FSLP:
    g = fslp.loads(_read(path))
    if len(g) == 0:
        raise ValueError("empty f-SLP")
    return g


def _pick_vertex(g: FSLP, vertex: Optional[int]) -> int:
    if vertex is not None:
        if not (0 <= vertex < len(g)):
            raise ValueError(f"vertex {vertex} out of range [0, {len(g)})")
        return vertex
    if g.root is None:
        raise ValueError("f-SLP has no root line; pass --vertex")
    return g.root


def cmd_compress(args) -> int:
    try:
        forest = parse_term(_read(args.input))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    if len(forest) == 0:
        print("cannot compress the empty forest", file=sys.stderr)
        return 1
    g = compress_forest(forest)
    _write_out(fslp.dumps(g), args.output)
    print(f"nodes={len(g)} N={len(forest)} height={_height(g, g.root)}", file=sys.stderr)
    return 0


def _height(g: FSLP, node: int) -> int:
    """Height of ``node``, from one pass over the child lists up to it."""
    lefts, rights = g.lefts, g.rights
    height = [0] * (node + 1)
    for i in range(node + 1):
        l = lefts[i]
        if l is not None:
            hl, hr = height[l], height[rights[i]]
            height[i] = 1 + (hl if hl > hr else hr)
    return height[node]


def cmd_decompress(args) -> int:
    g = _load_fslp(args.input)
    v = _pick_vertex(g, args.vertex)
    forest = evaluate(g, v, budget=args.budget)
    _write_out(serialize_term(forest) + "\n", args.output)
    return 0


def cmd_stats(args) -> int:
    g = _load_fslp(args.input)
    stats = compute_stats(g)
    for i in range(len(g)):
        kind = g.kinds[i]
        detail = g.labels[i] if g.is_leaf_node(i) else f"{g.lefts[i]} {g.rights[i]}"
        ell = "-" if stats.ell[i] is None else stats.ell[i]
        print(
            f"node {i} {kind} {detail} tau={stats.tau[i]} s={stats.s[i]} "
            f"l={ell} N={stats.nverts[i]} height={stats.height[i]}"
        )
    if g.root is not None:
        print(f"root {g.root}")
    return 0


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        print("--limit must be non-negative", file=sys.stderr)
        return 1
    g = _load_fslp(args.fslp)
    query = automata.loads(_read(args.nsta))
    v = _pick_vertex(g, args.vertex)
    eds = build_enum_structure(g, query)
    if eds.stats.tau[v] != 0:
        print(f"vertex {v} is a context (type 1); enumeration needs a forest vertex", file=sys.stderr)
        return 1
    stream = eds.enumerate(v)
    emitted = 0
    if args.format == "json":
        sys.stdout.write("[")
    while args.limit is None or emitted < args.limit:
        ans = stream.next()  # the limit is checked first: no answer is drawn past it
        if ans is None:
            break
        row = sorted(ans)
        if args.format == "lines":
            print("-" if not row else " ".join(map(str, row)))
        else:
            sys.stdout.write(("" if emitted == 0 else ", ") + json.dumps(row))
        if args.instrument:
            print(f"answer {emitted} steps {stream.last_steps}", file=sys.stderr)
        emitted += 1
    if args.format == "lines":
        print("EOE")
    else:
        sys.stdout.write("]\n")
    return 0


def cmd_relabel(args) -> int:
    g = _load_fslp(args.input)
    v = _pick_vertex(g, args.vertex)
    stats = compute_stats(g)
    if stats.tau[v] != 0:
        print(f"vertex {v} is a context (type 1)", file=sys.stderr)
        return 1
    n = stats.nverts[v]
    if not (0 <= args.preorder < n):
        print(f"preorder {args.preorder} out of the valid range [0, {n})", file=sys.stderr)
        return 1
    new_root, added = fslp.relabel_path(g, stats, v, args.preorder, args.symbol)
    g.root = new_root
    if args.gc:
        g, remap = fslp.gc(g, [new_root])
        new_root = remap[new_root]
    _write_out(fslp.dumps(g), args.output)
    print(f"added={added} root={new_root}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    g = _load_fslp(args.input)
    try:
        compute_stats(g)
    except InvalidFSLP as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    if args.via_btau:
        # one bottom-up run over the DAG: node i's state is the automaton's
        # state on its unfolded expression, at one transition per node
        btau = automata.build_btau()
        state: list[int] = []
        for i in range(len(g)):
            if g.is_leaf_node(i):
                q = btau.delta0(g.labels[i], g.kinds[i] == fslp.LEAFCTX, 0)
            else:
                q = btau.delta2(state[g.lefts[i]], state[g.rights[i]], g.kinds[i])
            if not btau.is_final(q):
                print(f"invalid: node {i} rejected by the validity automaton", file=sys.stderr)
                return 1
            state.append(q)
    print(f"valid nodes={len(g)}")
    return 0


def cmd_oracle(args) -> int:
    if args.max_vertices > MAX_ORACLE_VERTICES:
        print(f"--max-vertices must be at most {MAX_ORACLE_VERTICES}", file=sys.stderr)
        return 1
    forest = parse_term(_read(args.term))
    query = automata.loads(_read(args.nsta))
    family = brute_select(query, forest, OracleBudget(max_vertices=args.max_vertices))
    for row in sorted(sorted(s) for s in family):
        print("-" if not row else " ".join(map(str, row)))
    print("EOE")
    return 0


def cmd_bench(args) -> int:
    if args.limit < 0:
        print("--limit must be non-negative", file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    if args.family == "fig2":
        d = fixtures.sample_weighted_dag()
        t0 = time.perf_counter()
        idx = preprocess(d)
        t1 = time.perf_counter()
        sess = PathSession(idx, fixtures.SAMPLE_DAG_SOURCE)
        outputs = 0
        max_steps = 0
        while outputs < args.limit and sess.next() is not None:  # no pair is drawn past the limit
            outputs += 1
            max_steps = max(max_steps, sess.last_steps)
        t2 = time.perf_counter()
        print(f"family=fig2 dag_vertices={len(d)} outputs={outputs} max_steps={max_steps}")
        print(f"preprocess={t1-t0:.6f}s enumerate={t2-t1:.6f}s", file=sys.stderr)
        return 0
    if args.family == "chain":
        # left-deep sibling row: f-SLP size grows linearly with --size
        if args.size < 1:
            print("--size must be at least 1 for the chain family", file=sys.stderr)
            return 1
        g = FSLP()
        node = g.add_leaf("a")
        leaf = node
        for _ in range(args.size - 1):
            node = g.add_hc(node, leaf)
        g.root = node
    elif args.family == "wide":
        if not 0 <= args.size <= MAX_WIDE_SIZE:
            bound = "non-negative" if args.size < 0 else f"at most {MAX_WIDE_SIZE}"
            print(f"--size must be {bound} for the wide family", file=sys.stderr)
            return 1
        g = row_fslp("a", 2 ** args.size)
    elif args.family == "random":
        term = fixtures.random_term(rng, args.size, "ab")
        g = compress_forest(parse_term(term))
    else:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return 1
    query = fixtures.exactly_one_nsta({"a", "b"})
    t0 = time.perf_counter()
    eds = build_enum_structure(g, query)
    t1 = time.perf_counter()
    stream = eds.enumerate(g.root)
    answers = 0
    max_steps = 0
    while answers < args.limit:  # checked first: no answer is drawn past the limit
        if stream.next() is None:
            break
        answers += 1
        max_steps = max(max_steps, stream.last_steps)
    t2 = time.perf_counter()
    n = eds.stats.nverts[g.root]
    print(
        f"family={args.family} fslp_nodes={len(g)} decompressed={n} "
        f"answers={answers} max_steps={max_steps}"
    )
    rate = answers / (t2 - t1) if t2 > t1 else float("inf")
    print(
        f"preprocess={t1-t0:.6f}s enumerate={t2-t1:.6f}s throughput={rate:.0f}/s",
        file=sys.stderr,
    )
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse's objects refer to
    each other, so a parser built per call would be cyclic garbage."""
    p = argparse.ArgumentParser(
        prog="fslpenum",
        description="Query enumeration over grammar-compressed forests.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="term file -> f-SLP file")
    c.add_argument("input")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_compress)

    c = sub.add_parser("decompress", help="f-SLP file -> term file")
    c.add_argument("input")
    c.add_argument("-o", "--output")
    c.add_argument("--vertex", type=int)
    c.add_argument("--budget", type=int)
    c.set_defaults(func=cmd_decompress)

    c = sub.add_parser("stats", help="dump per-node statistics")
    c.add_argument("input")
    c.set_defaults(func=cmd_stats)

    c = sub.add_parser("enumerate", help="enumerate answer sets")
    c.add_argument("fslp")
    c.add_argument("nsta")
    c.add_argument("--vertex", type=int)
    c.add_argument("--limit", type=int)
    c.add_argument("--format", choices=("lines", "json"), default="lines")
    c.add_argument("--instrument", action="store_true")
    c.set_defaults(func=cmd_enumerate)

    c = sub.add_parser("relabel", help="relabel one vertex, append-only")
    c.add_argument("input")
    c.add_argument("-o", "--output")
    c.add_argument("--vertex", type=int)
    c.add_argument("--preorder", type=int, required=True)
    c.add_argument("--symbol", required=True)
    c.add_argument("--gc", action="store_true", help="drop nodes unreachable from the new root")
    c.set_defaults(func=cmd_relabel)

    c = sub.add_parser("bench", help="generate a family and measure")
    c.add_argument("--family", choices=("chain", "wide", "fig2", "random"), required=True)
    c.add_argument("--size", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--limit", type=int, default=1000)
    c.set_defaults(func=cmd_bench)

    c = sub.add_parser("oracle", help="brute-force answer family of a term file")
    c.add_argument("term")
    c.add_argument("nsta")
    c.add_argument("--max-vertices", type=int, default=16)
    c.set_defaults(func=cmd_oracle)

    c = sub.add_parser("validate", help="check f-SLP well-formedness")
    c.add_argument("input")
    c.add_argument("--via-btau", action="store_true")
    c.set_defaults(func=cmd_validate)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # sizes are exact integers of any length: print them whole
    try:
        return args.func(args)
    except (ValueError, InvalidFSLP, BudgetExceeded, StateLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
