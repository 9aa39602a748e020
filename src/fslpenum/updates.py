"""Maintenance of the enumeration structure under f-SLP extensions and
vertex relabelling.

An extension appends nodes whose children are existing nodes; old nodes
keep their definitions, so every table (stats, configuration rows, the
normalized product DAG) grows strictly append-only and existing queries
stay valid.  Relabelling (``fslp.relabel_path``) first brings the stats
up to the f-SLP, locates the root-to-leaf path of the target vertex by
preorder arithmetic and copies the path's nodes bottom-up with the leaf
copy relabelled: a copy whose definition some node already has is that
node (hash-consing), so a relabel appends at most height+1 nodes, and
none when the vertex keeps its label; it may return an existing node as
the new root.  Every ancestor of the first appended copy is new, so it
is appended without a lookup, and each copy carries the stats of the
node it copies.  The CLI ``relabel`` appends the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .automata import DBUTA, NSTA, nsta_to_dbuta
from .fslp import FSLP, VertexStats, check_leaf_def, check_node, node_type, relabel_path
from .msoenum import AnswerStream, ProductIndex


@dataclass
class EnumDataStructure:
    """Everything the enumeration needs; every table lives in ``product``."""

    product: ProductIndex

    @property
    def fslp(self) -> FSLP:
        return self.product.g

    @property
    def dbuta(self) -> DBUTA:
        return self.product.b

    @property
    def stats(self) -> VertexStats:
        return self.product.stats

    @property
    def ops(self) -> int:
        """Instrumented build and maintenance work (per-pair/per-edge units)."""
        return self.product.work

    def enumerate(self, node: int, record_steps: bool = False) -> AnswerStream:
        return AnswerStream(self.product, node, record_steps=record_steps)


NodeDef = tuple


def build_enum_structure(g: FSLP, query: Union[NSTA, DBUTA]) -> EnumDataStructure:
    """Full preprocessing for an f-SLP and a query automaton."""
    b = query if isinstance(query, DBUTA) else nsta_to_dbuta(query)
    return EnumDataStructure(ProductIndex(g, b))


def extend(eds: EnumDataStructure, defs: Iterable[NodeDef]) -> tuple[EnumDataStructure, list[int]]:
    """Append new nodes and maintain every table; returns (eds, new ids).

    Each definition is ("leaf", label), ("leafctx", label), ("hc", i, j)
    or ("vc", i, j) referencing old or earlier-new nodes.  Old nodes are
    never touched, and a rejected batch changes nothing.
    """
    g = eds.fslp
    before = len(g)
    defs = [tuple(d) for d in defs]
    tau, new_tau = eds.stats.tau, []
    for offset, d in enumerate(defs):  # validate and type before touching the structure
        kind = d[0] if d else None
        if kind in ("hc", "vc") and len(d) == 3:
            if not all(isinstance(c, int) and 0 <= c < before + offset for c in d[1:]):
                raise ValueError(f"definition {offset} references an undeclared node")
            tl, tr = (tau[c] if c < before else new_tau[c - before] for c in d[1:])
            new_tau.append(node_type(before + offset, kind, tl, tr))
        elif kind in ("leaf", "leafctx") and len(d) == 2:
            check_leaf_def(offset, d)
            new_tau.append(int(kind == "leafctx"))
        else:
            raise ValueError(f"definition {offset} is not a node definition: {d!r}")
    new_ids = [g.add_node(d) for d in defs]
    eds.product.extend_for(len(g))
    return eds, new_ids


def relabel(
    eds: EnumDataStructure, node: int, preorder: int, label: str
) -> tuple[EnumDataStructure, int, int]:
    """Relabel the vertex with the given preorder number in ⟦node⟧.

    Returns (eds, new root node, number of nodes appended).  The new root
    derives the relabelled forest; the original node still derives the old
    one.  ``relabel_path`` appends only the path copies that no node of
    the f-SLP defines yet (at most height(node)+1, none if the label is
    unchanged), so the new root may be an existing node and height never
    grows; the index then feeds the appended nodes.
    """
    check_node(node, eds.product.built)
    stats = eds.stats
    new_root, added = relabel_path(eds.fslp, stats, node, preorder, label)
    eds.product.extend_for(len(eds.fslp))
    assert added <= stats.height[node] + 1
    assert stats.height[new_root] <= stats.height[node]
    return eds, new_root, added
