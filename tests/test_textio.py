"""The reader against the reference reader in testkit, on mutated texts."""

import random
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from strandshift.errors import ParseError
from strandshift.graphs import written_roots
from strandshift.testkit import (
    GeneratorConfig,
    random_element,
    random_graph,
    reference_parse_element,
    reference_parse_graph,
)
from strandshift.textio import format_element, format_graph, parse_element, parse_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# A piece is a run of whitespace or one token; any other character stands alone.
_PIECE = re.compile(r"\s+|->|\w+|\S")
# A whole word, such as a leaf `B#2.1.4`.
_WORD = re.compile(r"\w+(?:[.#]\w+)*")


def _graph_cases():
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.graph"))]
    rng = random.Random(5)
    for _ in range(6):
        texts.append(format_graph(*random_graph(GeneratorConfig(max_vertices=3), rng)))
    return texts


def _element_cases():
    """(graph text, element text) pairs: the fixtures, and random elements
    over random graphs, whose bases may repeat a vertex."""
    three = (FIXTURES / "three_color.graph").read_text()
    cases = [(three, (FIXTURES / name).read_text()) for name in ("sigma.elem", "identity.elem")]
    graph3 = (FIXTURES / "graph3.graph").read_text()
    cases += [(graph3, path.read_text()) for path in sorted(FIXTURES.glob("graph3_*.elem"))]
    rng = random.Random(6)
    for seed in range(8):
        g, base = random_graph(GeneratorConfig(max_vertices=3), rng)
        fp = random_element(g, base, GeneratorConfig(seed=seed, growth_steps=3))
        cases.append((format_graph(g, base), format_element(fp)))
    return cases


GRAPHS = _graph_cases()
ELEMENTS = _element_cases()
_STRAYS = ["$", "-", ">", "-->", " - ", "- >"]


def _leaf_edit(data, text, g, base):
    """Re-root a leaf, extend it by one edge that continues it in g (any
    edge if it is no path), truncate it, or swap it with another leaf: a
    range leaf, or one of its own side, which re-pairs the two."""
    spans = [m.span() for m in _WORD.finditer(text) if m.group() not in ("element", "domain", "range")]
    if not spans:
        return text
    a, b = data.draw(st.sampled_from(spans))
    root, *edges = text[a:b].split(".")
    edit = data.draw(st.sampled_from(["reroot", "extend", "truncate", "swap"]))
    if edit == "reroot":
        root = data.draw(st.sampled_from(written_roots(base)))
    elif edit == "extend":
        color = root.partition("#")[0]
        for e in edges:
            color = g.edges[e][1] if e in g.edges and g.edges[e][0] == color else None
        edges.append(data.draw(st.sampled_from(g.out_order.get(color) or sorted(g.edges))))
    elif edit == "truncate":
        edges = edges[:-1]
    else:
        (a, b), (c, d) = sorted([(a, b), data.draw(st.sampled_from(spans))])
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:] if b <= c else text
    return text[:a] + ".".join([root, *edges]) + text[b:]


def _mutate(data, text, g=None, base=None):
    """Apply one to three mutations: drop, duplicate or swap tokens or whole
    words, insert a stray character, space out the `.` and `#` of words,
    drop commas, or end lines with \\r\\n.  With the graph g and its base,
    half the texts get only leaf edits (:func:`_leaf_edit`), which reach the
    forest checks, and the rest may get them among the others."""
    pieces = _PIECE.findall(text)
    kinds = ["drop", "duplicate", "swap", "word", "stray", "spaced", "commas", "crlf"]
    if g is not None:
        kinds = data.draw(st.sampled_from([["leaf"], kinds + ["leaf"]]))
    for _ in range(data.draw(st.integers(1, 3))):
        toks = [i for i, p in enumerate(pieces) if not p.isspace()]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "leaf":
            pieces = _PIECE.findall(_leaf_edit(data, "".join(pieces), g, base))
        elif kind == "word":
            text = "".join(pieces)
            words = [m.span() for m in _WORD.finditer(text)]
            (a, b), (c, d) = sorted([data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words))])
            edit = data.draw(st.sampled_from(["drop", "duplicate", "swap"]))
            if edit == "drop":
                text = text[:a] + text[b:]
            elif edit == "duplicate":
                text = text[:b] + ", " + text[a:]
            elif b <= c:
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
            pieces = _PIECE.findall(text)
        elif kind == "stray":
            at = data.draw(st.integers(0, len(pieces)))
            pieces.insert(at, data.draw(st.sampled_from(_STRAYS)))
        elif kind == "spaced":
            pieces = [f" {p} " if p in (".", "#") else p for p in pieces]
        elif kind == "commas":
            pieces = [p for p in pieces if p != ","]
        elif kind == "crlf":
            pieces = [p.replace("\n", "\r\n") for p in pieces]
        elif toks:
            i = data.draw(st.sampled_from(toks))
            if kind == "drop":
                del pieces[i]
            elif kind == "duplicate":
                pieces.insert(i, pieces[i] + data.draw(st.sampled_from(["", " "])))
            else:
                j = data.draw(st.sampled_from(toks))
                pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


def _outcome(read, *args):
    try:
        return "read", read(*args)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_reader_matches_the_reference(data):
    text = _mutate(data, data.draw(st.sampled_from(GRAPHS)))
    assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_element_reader_matches_the_reference(data):
    graph_text, element_text = data.draw(st.sampled_from(ELEMENTS))
    g, base = parse_graph(graph_text)
    text = _mutate(data, element_text, g, base)
    assert _outcome(parse_element, text, g, base) == _outcome(reference_parse_element, text, g, base)


def test_unmutated_cases_read():
    """Both readers read every case as it is, and some case writes `#k`."""
    for text in GRAPHS:
        assert parse_graph(text) == reference_parse_graph(text)
    for graph_text, text in ELEMENTS:
        g, base = parse_graph(graph_text)
        assert parse_element(text, g, base) == reference_parse_element(text, g, base)
    assert any("#" in text for _, text in ELEMENTS)
