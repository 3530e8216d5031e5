"""DOT export for open and closed strand diagrams. Presentation only.

One rule shapes every point by its degrees: a base point is a filled square,
no in-strand an inverted triangle, no out-strand a triangle, two or more
strands on either side a circle, and anything else a diamond.
"""

from __future__ import annotations

from .closed import ClosedDiagram
from .diagrams import StrandDiagram

_PALETTE = (
    "red",
    "blue",
    "green",
    "orange",
    "purple",
    "brown",
    "cyan",
    "magenta",
    "gold",
    "gray",
)

_LITERAL = {"R": "red", "B": "blue", "G": "green"}


def _colors(vertex_ids):
    table = {}
    spare = [c for c in _PALETTE if c not in _LITERAL.values()]
    for i, v in enumerate(sorted(vertex_ids)):
        table[v] = _LITERAL.get(v, spare[i % len(spare)])
    return table


def _dot(d, name, base=frozenset(), footer=()) -> str:
    """DOT text of a table object: points sorted by id, shaped by the one
    rule with `base` as the base points, then strands sorted by id."""
    table = _colors(set(d.point_color.values()) | set(d.strand_color.values()))
    lines = [f"digraph {name} {{", '  rankdir="TB";']
    for p in sorted(d.point_color):
        ind, outd = len(d.in_slots[p]), len(d.out_slots[p])
        style = ""
        if p in base:
            shape, style = "square", ', style="filled", fillcolor="lightgray"'
        elif ind == 0:
            shape = "invtriangle"
        elif outd == 0:
            shape = "triangle"
        else:
            shape = "circle" if ind >= 2 or outd >= 2 else "diamond"
        lines.append(
            f'  p{p} [shape={shape}, ordering="out", label="{d.point_color[p]}",'
            f" color={table[d.point_color[p]]}{style}];"
        )
    for s in sorted(d.strand_color):
        p, q = d.strand_from[s], d.strand_to[s]
        attrs = [f"color={table[d.strand_color[s]]}"]
        if len(d.out_slots[p]) > 1:
            attrs.append(f'taillabel="{d.out_slots[p].index(s)}"')
        if len(d.in_slots[q]) > 1:
            attrs.append(f'headlabel="{d.in_slots[q].index(s)}"')
        lines.append(f"  p{p} -> p{q} [{', '.join(attrs)}];")
    lines.extend(footer)
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_dot(d: StrandDiagram, name: str = "strand_diagram") -> str:
    """DOT text; rotation order is carried by out-slot labels and ordering."""
    return _dot(d, name)


def closed_dot(c: ClosedDiagram, name: str = "closed_diagram") -> str:
    """DOT text; the base line is drawn as a dashed chain through the base points."""
    footer = [
        f'  p{a} -> p{b} [style="dashed", color="gray", constraint=false, arrowhead=none];'
        for a, b in zip(c.base_line, c.base_line[1:])
    ]
    return _dot(c, name, c.base_set, footer)
