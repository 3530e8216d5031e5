"""Parsing and printing of the graph, element and loop text formats.

Graph files:

    graph
      vertex R; vertex B; vertex G
      edge 0: R -> R; edge 1: B -> G; edge 2: B -> R; edge 3: G -> G; edge 4: G -> B
      order R: [0]; order B: [1, 2]; order G: [3, 4]
    base [B, G]

Element files:

    element
      domain [B.1, B.2, G.3, G.4]
      range  [G.3, G.4.2, G.4.1, B]

Whitespace (including newlines) is insignificant and semicolons are optional
statement separators.  A path word is `root` or `root.e1.e2...`; when the
base repeats a vertex, its k-th occurrence is addressed as `Name#k`.
Loop multisets for the semigroup commands are sums like `L(R,1)+2*L(B,2)`.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .forest import ForestPair, LeafFault, validate_forest_pair
from .graphs import PathWord, ShiftGraph, _structure_faults, format_word

_PUNCT = ("->", ";", ":", ",", "[", "]", "(", ")", "+", "*", "#", ".")
# A token is a punctuation mark or a run of \w, which is str.isalnum() or "_".
# finditer skips whitespace; group 1 catches any other character.
_TOKEN = re.compile("|".join(map(re.escape, _PUNCT)) + r"|\w+|(\S)")


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        for line, chars in enumerate(text.split("\n"), 1):
            for m in _TOKEN.finditer(chars):
                if m.lastindex:
                    raise ParseError(f"unexpected character {m[1]!r}", line, m.start() + 1)
                self.toks.append((m[0], line, m.start() + 1))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def where(self):
        if self.pos < len(self.toks):
            _, line, col = self.toks[self.pos]
            return line, col
        if self.toks:
            _, line, col = self.toks[-1]
            return line, col
        return 1, 1

    def next(self, expect=None):
        if self.pos >= len(self.toks):
            line, col = self.where()
            raise ParseError(f"unexpected end of input (expected {expect or 'a token'})", line, col)
        tok, line, col = self.toks[self.pos]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}", line, col)
        self.pos += 1
        return tok

    def error(self, message, at=None):
        """Raise at token index `at`, by default at the current token."""
        if at is None:
            line, col = self.where()
        else:
            _, line, col = self.toks[at]
        raise ParseError(message, line, col)

    def skip_separators(self):
        while self.peek() == ";":
            self.next()


def _name(ts: _Tokens, what: str) -> str:
    tok = ts.peek()
    if tok is None or tok in _PUNCT:
        ts.error(f"expected {what}")
    return ts.next()


def _bracketed(ts: _Tokens, read) -> tuple:
    """Read `[item, ...]`, commas optional, calling read() for each item."""
    ts.next("[")
    items = []
    while ts.peek() != "]":
        items.append(read())
        if ts.peek() == ",":
            ts.next()
    ts.next("]")
    return tuple(items)


def parse_graph(text: str):
    """Parse a graph file into (ShiftGraph, base tuple).

    A fault is reported at the statement it concerns, a base entry that is
    not a vertex at that entry.
    """
    ts = _Tokens(text)
    ts.next("graph")
    vertices = []
    edges = {}
    order = {}
    base = None
    at = {}  # ("vertex" | "edge" | "order", name) -> position of its statement
    ts.skip_separators()
    while ts.peek() is not None:
        tok, here = ts.peek(), ts.where()
        if tok == "vertex":
            ts.next()
            vertices.append(_name(ts, "a vertex name"))
            at["vertex", vertices[-1]] = here
        elif tok == "edge":
            ts.next()
            eid = _name(ts, "an edge id")
            ts.next(":")
            a = _name(ts, "a vertex name")
            ts.next("->")
            b = _name(ts, "a vertex name")
            if eid in edges:
                raise ParseError(f"edge {eid} defined twice", *here)
            edges[eid] = (a, b)
            at["edge", eid] = here
        elif tok == "order":
            ts.next()
            v = _name(ts, "a vertex name")
            ts.next(":")
            ids = _bracketed(ts, lambda: _name(ts, "an edge id"))
            if v in order:
                raise ParseError(f"order for {v} given twice", *here)
            order[v] = ids
            at["order", v] = here
        elif tok == "base":
            if base is not None:
                raise ParseError("base given twice", *here)
            ts.next()
            base = _bracketed(ts, lambda: (ts.where(), _name(ts, "a vertex name")))
        else:
            ts.error(f"unknown statement {tok!r}")
        ts.skip_separators()
    if base is None:
        ts.error("missing base [...] statement")
    for v in vertices:
        if v not in order:
            raise ParseError(f"missing mandatory order line for vertex {v}", *at["vertex", v])
    for here, y in base:
        if y not in vertices:
            raise ParseError(f"base entry {y} is not a vertex", *here)
    for statement, message in _structure_faults(vertices, edges, order):
        raise ParseError(message, *at[statement])
    return ShiftGraph(vertices, edges, order), tuple(y for _, y in base)


def _parse_word(ts: _Tokens, g: ShiftGraph, base, roots: dict) -> PathWord:
    """Read one path word; `roots` maps each base name to its positions.

    A fault is reported at the root name, occurrence or edge it concerns.
    """
    at_name = ts.pos
    name = _name(ts, "a root vertex name")
    occurrence = None
    if ts.peek() == "#":
        ts.next()
        at_k = ts.pos
        k = _name(ts, "an occurrence number")
        if not k.isdecimal():
            ts.error("occurrence must be a positive integer", at_k)
        occurrence = int(k)
    positions = roots.get(name)
    if positions is None:
        ts.error(f"{name} is not an entry of the base {list(base)}", at_name)
    if occurrence is None:
        if len(positions) > 1:
            ts.error(f"base repeats {name}; disambiguate with {name}#k", at_name)
        root = positions[0]
    else:
        if not (1 <= occurrence <= len(positions)):
            ts.error(f"{name}#{occurrence}: only {len(positions)} occurrence(s)", at_k)
        root = positions[occurrence - 1]
    edges = []
    at = name
    while ts.peek() == ".":
        ts.next()
        e = _name(ts, "an edge id")
        ends = g.edges.get(e)
        if ends is None or ends[0] != at:
            ts.error(f"edge {e} does not continue a path at {at}", ts.pos - 1)
        edges.append(e)
        at = ends[1]
    return PathWord(root, tuple(edges))


def parse_element(text: str, g: ShiftGraph, base) -> ForestPair:
    """Parse an element file against a graph and base; validates the pair.

    A fault of the pair at one leaf is reported at that leaf's first token;
    one that concerns no single leaf, at the end of the element.
    """
    ts = _Tokens(text)
    roots = {}
    for i, y in enumerate(base):
        roots.setdefault(y, []).append(i)
    ts.next("element")
    ts.skip_separators()
    starts = {}  # side -> token index of each leaf's first token
    leaves = {}
    for side in ("domain", "range"):
        ts.next(side)
        read = _bracketed(ts, lambda: (ts.pos, _parse_word(ts, g, base, roots)))
        starts[side] = [at for at, _ in read]
        leaves[side] = tuple(w for _, w in read)
        ts.skip_separators()
    if ts.peek() is not None:
        ts.error("trailing input after element")
    fp = ForestPair(leaves["domain"], leaves["range"], tuple(base))
    line, col = ts.where()
    try:
        validate_forest_pair(g, fp)
    except ValueError as exc:
        if isinstance(exc, LeafFault):
            _, line, col = ts.toks[starts[exc.side][exc.index]]
        raise ParseError(str(exc), line, col) from exc
    return fp


def parse_loops(text: str, vertices) -> dict:
    """Parse a loop multiset `L(c,n)` sum into {(color, winding): count}."""
    ts = _Tokens(text)
    loops = {}
    while True:
        count = 1
        tok = _name(ts, "L or a multiplier")
        if tok.isdecimal():
            count = int(tok)
            if count < 1:
                ts.error("multiplier must be a positive integer", ts.pos - 1)
            ts.next("*")
            tok = ts.next("L")
        if tok != "L":
            ts.error(f"expected L(color,winding), found {tok!r}")
        ts.next("(")
        color = _name(ts, "a color")
        if color not in vertices:
            ts.error(f"{color} is not a vertex")
        ts.next(",")
        winding = _name(ts, "a winding number")
        if not winding.isdecimal() or int(winding) < 1:
            ts.error("winding must be a positive integer")
        ts.next(")")
        key = (color, int(winding))
        loops[key] = loops.get(key, 0) + count
        if ts.peek() is None:
            return loops
        ts.next("+")


# ---------------------------------------------------------------------------
# printing

def format_graph(g: ShiftGraph, base) -> str:
    lines = ["graph"]
    lines.append("  " + "; ".join(f"vertex {v}" for v in g.vertices))
    if g.edges:
        lines.append(
            "  " + "; ".join(f"edge {e}: {a} -> {b}" for e, (a, b) in sorted(g.edges.items()))
        )
    lines.append(
        "  " + "; ".join(f"order {v}: [{', '.join(g.out_order[v])}]" for v in g.vertices)
    )
    lines.append(f"base [{', '.join(base)}]")
    return "\n".join(lines) + "\n"


def format_element(fp: ForestPair) -> str:
    dom = ", ".join(format_word(w, fp.base) for w in fp.domain_leaves)
    rng = ", ".join(format_word(w, fp.base) for w in fp.range_leaves)
    return f"element\n  domain [{dom}]\n  range  [{rng}]\n"


def format_loops(loops: dict) -> str:
    if not loops:
        return "(empty)"
    terms = []
    for (color, winding), count in sorted(loops.items()):
        prefix = f"{count}*" if count > 1 else ""
        terms.append(f"{prefix}L({color},{winding})")
    return "+".join(terms)
