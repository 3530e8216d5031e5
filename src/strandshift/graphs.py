"""Finite colored graphs, multi-initial bases and the language of finite paths.

A :class:`ShiftGraph` is a finite directed graph whose vertices double as
colors.  Each vertex carries a fixed linear order of its outgoing edges; that
order is input data, not something derived, and every diagram-level slot
convention in this package refers back to it.  A base is a linear order of a
multiset of vertices, stored as a plain tuple.  Finite paths from a base entry
are :class:`PathWord` values (root position plus edge-id sequence).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

BaseTuple = tuple  # tuple[str, ...]; entries are vertex ids, repeats allowed


class PathWord(NamedTuple):
    """A finite path: index into the base plus the edge ids traversed."""

    root: int
    edges: tuple = ()

    def child(self, edge) -> "PathWord":
        return PathWord(self.root, self.edges + (edge,))

    def is_prefix_of(self, other: "PathWord") -> bool:
        return (
            self.root == other.root
            and len(self.edges) <= len(other.edges)
            and other.edges[: len(self.edges)] == self.edges
        )


class ShiftGraph:
    """Finite graph with per-vertex ordered out-stars.

    `edges` maps edge id -> (initial vertex, terminal vertex); `out_order`
    maps vertex -> ordered tuple of its outgoing edge ids.  Structural
    consistency (orders list exactly the out-star, endpoints exist) is
    enforced here; the two shift-space assumptions (no dead ends, no
    redundant edges) are *reported* by :func:`validate_graph` instead, so
    broken graphs can be loaded and then repaired by :func:`normalize_graph`.
    """

    def __init__(self, vertices: Iterable[str], edges: dict, out_order: dict):
        self.vertices = tuple(vertices)
        self.edges = {e: (str(a), str(b)) for e, (a, b) in edges.items()}
        for _, message in _structure_faults(self.vertices, self.edges, out_order):
            raise ValueError(message)
        self.out_order = {v: tuple(out_order.get(v, ())) for v in self.vertices}

    def init(self, edge) -> str:
        return self.edges[edge][0]

    def term(self, edge) -> str:
        return self.edges[edge][1]

    def child_colors(self, v: str) -> tuple:
        """Colors of the out-star targets, in the fixed edge order."""
        return tuple(self.term(e) for e in self.out_order[v])

    def is_isolated_color(self, v: str) -> bool:
        """True iff the out-star of v is a single self-loop."""
        order = self.out_order[v]
        return len(order) == 1 and self.term(order[0]) == v

    def __eq__(self, other):
        return (
            isinstance(other, ShiftGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.out_order == other.out_order
        )

    def __repr__(self):
        return f"ShiftGraph(vertices={self.vertices!r}, edges={len(self.edges)})"


def _structure_faults(vertices, edges: dict, out_order: dict):
    """Structural faults in check order: (statement, message), the statement
    being ("vertex", v), ("edge", e) or ("order", v)."""
    seen = set()
    for v in vertices:
        if v in seen:
            yield ("vertex", v), "duplicate vertex ids"
        seen.add(v)
    for e, (a, b) in edges.items():
        if a not in seen or b not in seen:
            yield ("edge", e), f"edge {e}: endpoint not a vertex"
    for v in out_order:
        if v not in seen:
            yield ("order", v), "out_order mentions unknown vertices"
    for v in vertices:
        listed = tuple(out_order.get(v, ()))
        actual = {e for e, (a, _) in edges.items() if a == v}
        if len(set(listed)) != len(listed) or set(listed) != actual:
            yield ("order", v), f"out_order[{v}] must list each outgoing edge exactly once"


@dataclass
class GraphViolation:
    vertex: str
    rule: str  # "dead-end" or "redundant-edge"
    detail: str

    def __str__(self):
        return f"{self.rule} at vertex {self.vertex}: {self.detail}"


def validate_graph(g: ShiftGraph) -> list:
    """Report every violated shift-space assumption, one entry per vertex.

    Empty report iff the graph has no dead ends (out-degree 0 vertices) and
    no redundant edges (out-degree-1 vertices whose edge is not a self-loop).
    """
    report = []
    for v in g.vertices:
        order = g.out_order[v]
        if len(order) == 0:
            report.append(GraphViolation(v, "dead-end", "out-degree 0"))
        elif len(order) == 1 and g.term(order[0]) != v:
            report.append(
                GraphViolation(
                    v, "redundant-edge", f"single outgoing edge {order[0]} is not a self-loop"
                )
            )
    return report


def color_of_word(g: ShiftGraph, base: BaseTuple, w: PathWord) -> str:
    """Terminal vertex of the path; the root vertex for an empty word."""
    if w.edges:
        return g.term(w.edges[-1])
    return base[w.root]


def written_roots(base: BaseTuple) -> list:
    """Each base entry as the element format writes a root: `B`, or `B#k`
    for the k-th occurrence of a B that the base repeats."""
    counts = Counter(base)
    seen = Counter()
    names = []
    for y in base:
        seen[y] += 1
        names.append(y if counts[y] == 1 else f"{y}#{seen[y]}")
    return names


def format_word(w: PathWord, base: BaseTuple) -> str:
    """The word as the element format writes it: `B.1.4`, or `B#2.1` when
    the base repeats B."""
    return ".".join([written_roots(base)[w.root], *w.edges])


def is_isolated_cylinder(g: ShiftGraph, base: BaseTuple, w: PathWord) -> bool:
    """True iff the cylinder of w is a single eventually-constant point.

    Equivalent to the color of w having a single self-loop as its out-star,
    in which case the cylinder equals the cylinder of its unique extension.
    """
    return g.is_isolated_color(color_of_word(g, base, w))


def normalize_graph(g: ShiftGraph, base: BaseTuple):
    """Repair a graph to satisfy both shift-space assumptions.

    Dead ends are removed to a fixpoint first (removal can enable
    contractions but contraction never creates dead ends), then every
    out-degree-1 non-loop edge is contracted, identifying its endpoints.
    Returns `(graph, base, rename)` where `rename` maps each original vertex
    to its surviving representative, or to None if it was removed outright.
    Raises ValueError when nothing survives (the shift space is empty).
    """
    vertices = list(g.vertices)
    edges = dict(g.edges)
    removed = set()

    # Dead-end removal to fixpoint.
    while True:
        dead = [
            v
            for v in vertices
            if v not in removed and not any(a == v for (a, _) in edges.values())
        ]
        if not dead:
            break
        for v in dead:
            removed.add(v)
        edges = {e: (a, b) for e, (a, b) in edges.items() if b not in removed}
    vertices = [v for v in vertices if v not in removed]
    if not vertices:
        raise ValueError("normalization removed every vertex; the shift space is empty")

    # Contract out-degree-1 non-loop edges to fixpoint (union-find on vertices).
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    while True:
        out = {v: [] for v in vertices if find(v) == v}
        for e, (a, b) in edges.items():
            out[find(a)].append(e)
        target = None
        for v, es in out.items():
            if len(es) == 1 and find(edges[es[0]][1]) != v:
                target = (v, es[0])
                break
        if target is None:
            break
        v, e = target
        w = find(edges[e][1])
        parent[v] = w
        del edges[e]
        edges = {f: (find(a), find(b)) for f, (a, b) in edges.items()}

    survivors = [v for v in vertices if find(v) == v]
    new_edges = {e: (find(a), find(b)) for e, (a, b) in edges.items()}
    # Keep the original relative edge order within each merged out-star:
    # surviving vertex order, then the source graph's own out_order.
    new_order = {}
    for v in survivors:
        es = []
        for u in g.vertices:
            if u not in removed and find(u) == v:
                es.extend(e for e in g.out_order[u] if e in new_edges)
        new_order[v] = tuple(es)

    rename = {}
    for v in g.vertices:
        rename[v] = None if v in removed else find(v)
    renamed_base = tuple(rename[y] for y in base if rename[y] is not None)
    return ShiftGraph(survivors, new_edges, new_order), renamed_base, rename
