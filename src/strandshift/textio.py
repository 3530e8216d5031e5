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

A text is read as a list of token strings, and the readers address tokens
by their index in it.  A token is a punctuation mark or a run of word
characters (`str.isalnum()` or `_`).  A text with no stray character holds
nothing else but whitespace, so spacing out every punctuation mark with
`str.replace` and splitting with `str.split` yields its tokens exactly: the
whitespace of regular expressions is `str.isspace` on every code point.  A
token's line and column are worked out from the text only when a
:class:`ParseError` is raised at it.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .forest import ForestPair, LeafFault, validate_forest_pair
from .graphs import PathWord, ShiftGraph, _structure_faults, written_roots

_PUNCT = ("->", ";", ":", ",", "[", "]", "(", ")", "+", "*", "#", ".")
_SPACED = tuple((p, f" {p} ") for p in _PUNCT)
# A character no token takes: not \w (str.isalnum() or "_"), whitespace or
# punctuation, or a "-" that does not start "->", or a ">" that does not
# end it.  It places a fault; _OUTSIDE finds whether there is one.
_STRAY = re.compile(r"[^\w\s;:,\[\]()+*#.>-]|-(?!>)|(?<!-)>")
# A character outside every token once each "->" is removed: the removal
# leaves a "-" or ">" exactly where the text has a stray one.
_OUTSIDE = re.compile(r"[^\w\s;:,\[\]()+*#.]")
# What a name cannot be: a punctuation mark, or the end of the tokens.
_NOT_NAME = frozenset(_PUNCT) | {None}


def _line_col(text: str, offset: int):
    """1-based line and column of `offset`; lines end at "\n" only."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Tokens:
    """The tokens of a text: `toks` lists them as strings and ends with None.
    A text with a stray character fails at the first one."""

    def __init__(self, text: str):
        if _OUTSIDE.search(text.replace("->", "")):
            stray = _STRAY.search(text)
            raise ParseError(f"unexpected character {stray[0]!r}", *_line_col(text, stray.start()))
        self.text = text
        for p, spaced in _SPACED:
            text = text.replace(p, spaced)
        self.toks = text.split()
        self.toks.append(None)

    def where(self, i):
        """Line and column of token i, or of the last token when i is the end.
        Only whitespace lies between two tokens, so each is found by one
        `str.index` from the end of the one before."""
        last = len(self.toks) - 2
        if last < 0:
            return 1, 1
        at = end = 0
        for tok in self.toks[: min(i, last) + 1]:
            at = self.text.index(tok, end)
            end = at + len(tok)
        return _line_col(self.text, at)

    def fail(self, message, i):
        raise ParseError(message, *self.where(i))

    def expect(self, i, tok):
        """The index after token i, which must be `tok`."""
        found = self.toks[i]
        if found != tok:
            if found is None:
                self.fail(f"unexpected end of input (expected {tok})", i)
            self.fail(f"expected {tok!r}, found {found!r}", i)
        return i + 1

    def name(self, i, what):
        tok = self.toks[i]
        if tok in _NOT_NAME:
            self.fail(f"expected {what}", i)
        return tok

    def integer(self, i, what):
        """Decimal token i as an int; `what` names it in the fault raised
        when it has more digits than Python converts."""
        tok = self.toks[i]
        try:
            return int(tok)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            self.fail(f"{what} has {len(tok)} digits; integers of at most {limit} digits are read", i)

    def skip_separators(self, i):
        while self.toks[i] == ";":
            i += 1
        return i

    def names(self, i, what):
        """Read `[name, ...]` from token i, commas optional: the names' token
        indices and the index after the closing bracket."""
        toks = self.toks
        i = self.expect(i, "[")
        at = []
        while toks[i] != "]":
            self.name(i, what)
            at.append(i)
            i += 1
            if toks[i] == ",":
                i += 1
        return at, i + 1


def parse_graph(text: str):
    """Parse a graph file into (ShiftGraph, base tuple).

    A fault is reported at the statement it concerns, a base entry that is
    not a vertex at that entry.  The graph checks its own structure when it
    is built; only when it refuses are its structural faults listed again,
    to find the statement of the first.
    """
    ts = _Tokens(text)
    toks = ts.toks
    vertices = []
    edges = {}
    order = {}
    base = None
    at = {}  # ("vertex" | "edge" | "order", name) -> token index of its statement
    i = ts.skip_separators(ts.expect(0, "graph"))
    while toks[i] is not None:
        tok, here = toks[i], i
        if tok == "vertex":
            vertices.append(ts.name(i + 1, "a vertex name"))
            at["vertex", vertices[-1]] = here
            i += 2
        elif tok == "edge":
            eid = ts.name(i + 1, "an edge id")
            i = ts.expect(i + 2, ":")
            a = ts.name(i, "a vertex name")
            i = ts.expect(i + 1, "->")
            b = ts.name(i, "a vertex name")
            i += 1
            if eid in edges:
                ts.fail(f"edge {eid} defined twice", here)
            edges[eid] = (a, b)
            at["edge", eid] = here
        elif tok == "order":
            v = ts.name(i + 1, "a vertex name")
            ids, i = ts.names(ts.expect(i + 2, ":"), "an edge id")
            if v in order:
                ts.fail(f"order for {v} given twice", here)
            order[v] = tuple(toks[j] for j in ids)
            at["order", v] = here
        elif tok == "base":
            if base is not None:
                ts.fail("base given twice", here)
            base, i = ts.names(i + 1, "a vertex name")
        else:
            ts.fail(f"unknown statement {tok!r}", i)
        i = ts.skip_separators(i)
    if base is None:
        ts.fail("missing base [...] statement", i)
    for v in vertices:
        if v not in order:
            ts.fail(f"missing mandatory order line for vertex {v}", at["vertex", v])
    for j in base:
        if toks[j] not in vertices:
            ts.fail(f"base entry {toks[j]} is not a vertex", j)
    try:
        g = ShiftGraph(vertices, edges, order)
    except ValueError:
        for statement, message in _structure_faults(vertices, edges, order):
            ts.fail(message, at[statement])
        raise
    return g, tuple(toks[j] for j in base)


def parse_element(text: str, g: ShiftGraph, base) -> ForestPair:
    """Parse an element file against a graph and base; validates the pair.

    A word fault is reported at the root name, occurrence or edge it
    concerns.  A fault of the pair at one leaf is reported at that leaf's
    first token; one that concerns no single leaf, at the end of the element.
    """
    ts = _Tokens(text)
    toks = ts.toks
    table = g.edges
    roots = {}  # base name -> its positions
    for r, y in enumerate(base):
        roots.setdefault(y, []).append(r)
    i = ts.skip_separators(ts.expect(0, "element"))
    starts = {}  # side -> token index of each leaf's first token
    leaves = {}
    for side in ("domain", "range"):
        i = ts.expect(ts.expect(i, side), "[")
        starts[side] = first = []
        leaves[side] = words = []
        tok = toks[i]
        while tok != "]":
            if tok in _NOT_NAME:
                ts.fail("expected a root vertex name", i)
            name = tok
            first.append(i)
            i += 1
            if toks[i] == "#":
                k = ts.name(i + 1, "an occurrence number")
                if not k.isdecimal():
                    ts.fail("occurrence must be a positive integer", i + 1)
                i += 2
            else:
                k = None
            positions = roots.get(name)
            if positions is None:
                ts.fail(f"{name} is not an entry of the base {list(base)}", first[-1])
            if k is None:
                if len(positions) > 1:
                    ts.fail(f"base repeats {name}; disambiguate with {name}#k", first[-1])
                root = positions[0]
            else:
                occurrence = ts.integer(i - 1, "occurrence")
                if not 1 <= occurrence <= len(positions):
                    ts.fail(f"{name}#{occurrence}: only {len(positions)} occurrence(s)", i - 1)
                root = positions[occurrence - 1]
            edges = []
            at = name
            tok = toks[i]
            while tok == ".":
                e = toks[i + 1]
                if e in _NOT_NAME:
                    ts.fail("expected an edge id", i + 1)
                ends = table.get(e)
                if ends is None or ends[0] != at:
                    ts.fail(f"edge {e} does not continue a path at {at}", i + 1)
                edges.append(e)
                at = ends[1]
                i += 2
                tok = toks[i]
            words.append(PathWord(root, tuple(edges)))
            if tok == ",":
                i += 1
                tok = toks[i]
        i = ts.skip_separators(i + 1)
    if toks[i] is not None:
        ts.fail("trailing input after element", i)
    fp = ForestPair(tuple(leaves["domain"]), tuple(leaves["range"]), tuple(base))
    try:
        validate_forest_pair(g, fp)
    except ValueError as exc:
        at = starts[exc.side][exc.index] if isinstance(exc, LeafFault) else i
        raise ParseError(str(exc), *ts.where(at)) from exc
    return fp


def parse_loops(text: str, vertices) -> dict:
    """Parse a loop multiset `L(c,n)` sum into {(color, winding): count}; a
    term that takes a count past the digits Python prints is refused."""
    ts = _Tokens(text)
    toks = ts.toks
    limit = sys.get_int_max_str_digits()
    loops = {}
    i = 0
    while True:
        term = i
        count = 1
        tok = ts.name(i, "L or a multiplier")
        i += 1
        if tok.isdecimal():
            count = ts.integer(i - 1, "multiplier")
            if count < 1:
                ts.fail("multiplier must be a positive integer", i - 1)
            i = ts.expect(ts.expect(i, "*"), "L")
            tok = "L"
        if tok != "L":
            ts.fail(f"expected L(color,winding), found {tok!r}", i - 1)
        color = ts.name(ts.expect(i, "("), "a color")
        i += 2
        if color not in vertices:
            ts.fail(f"{color} is not a vertex", i - 1)
        tok = ts.name(ts.expect(i, ","), "a winding number")
        i += 2
        winding = ts.integer(i - 1, "winding") if tok.isdecimal() else 0
        if winding < 1:
            ts.fail("winding must be a positive integer", i - 1)
        i = ts.expect(i, ")")
        key = (color, winding)
        total = loops[key] = loops.get(key, 0) + count
        # 2**(3 * limit) < 10**limit: only a count that long is measured
        if limit and total.bit_length() > 3 * limit and total >= 10**limit:
            ts.fail(f"count of L({color},{winding}) has {limit + 1} digits; at most {limit} are printed", term)
        if toks[i] is None:
            return loops
        i = ts.expect(i, "+")


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
    roots = written_roots(fp.base)
    dom = ", ".join(".".join([roots[w.root], *w.edges]) for w in fp.domain_leaves)
    rng = ", ".join(".".join([roots[w.root], *w.edges]) for w in fp.range_leaves)
    return f"element\n  domain [{dom}]\n  range  [{rng}]\n"


def format_loops(loops: dict) -> str:
    if not loops:
        return "(empty)"
    terms = []
    for (color, winding), count in sorted(loops.items()):
        prefix = f"{count}*" if count > 1 else ""
        terms.append(f"{prefix}L({color},{winding})")
    return "+".join(terms)
