import pytest

from strandshift.graphs import (
    PathWord,
    ShiftGraph,
    color_of_word,
    is_isolated_cylinder,
    normalize_graph,
    validate_graph,
)
from strandshift.testkit import children, enumerate_words, is_valid_word


def test_fig1_is_valid(fig1):
    assert validate_graph(fig1) == []


def test_dead_end_detected():
    g = ShiftGraph(["a"], {}, {"a": ()})
    report = validate_graph(g)
    assert len(report) == 1 and report[0].rule == "dead-end" and report[0].vertex == "a"


def test_single_cross_edge_violates_both_assumptions():
    g = ShiftGraph(["a", "b"], {"e": ("a", "b")}, {"a": ("e",), "b": ()})
    report = validate_graph(g)
    assert sorted((v.vertex, v.rule) for v in report) == [
        ("a", "redundant-edge"),
        ("b", "dead-end"),
    ]


def test_constructor_rejects_broken_order():
    with pytest.raises(ValueError):
        ShiftGraph(["a"], {"e": ("a", "a")}, {"a": ()})
    with pytest.raises(ValueError):
        ShiftGraph(["a"], {"e": ("a", "a")}, {"a": ("e", "e")})


def test_normalize_keeps_valid_graph(fig1, base_bg):
    g, base, rename = normalize_graph(fig1, base_bg)
    assert g == fig1
    assert base == base_bg
    assert rename == {"R": "R", "B": "B", "G": "G"}


def test_normalize_contracts_chain():
    # a -> b, b self-loop: contracting the single non-loop edge identifies a with b
    g = ShiftGraph(["a", "b"], {"e": ("a", "b"), "f": ("b", "b")}, {"a": ("e",), "b": ("f",)})
    g2, base2, rename = normalize_graph(g, ("a", "b"))
    assert g2.vertices == ("b",)
    assert list(g2.edges.values()) == [("b", "b")]
    assert rename == {"a": "b", "b": "b"}
    assert base2 == ("b", "b")


def test_normalize_removes_sink_chain():
    # s is a sink; u feeds only s, so removal must cascade to u as well
    g = ShiftGraph(
        ["ok", "u", "s"],
        {"l1": ("ok", "ok"), "l2": ("ok", "ok"), "e": ("u", "s"), "x": ("ok", "u")},
        {"ok": ("l1", "l2", "x"), "u": ("e",), "s": ()},
    )
    g2, base2, rename = normalize_graph(g, ("ok", "s", "u"))
    assert set(g2.vertices) == {"ok"}
    assert rename["s"] is None and rename["u"] is None
    assert base2 == ("ok",)
    assert validate_graph(g2) == []


def test_normalize_collapses_inescapable_cycle():
    g = ShiftGraph(
        ["x", "y", "z"],
        {"e": ("x", "y"), "f": ("y", "z"), "h": ("z", "x")},
        {"x": ("e",), "y": ("f",), "z": ("h",)},
    )
    g2, _, rename = normalize_graph(g, ("x",))
    assert len(g2.vertices) == 1
    assert validate_graph(g2) == []
    assert len(set(rename.values())) == 1


def test_normalize_output_is_pinned():
    """A two-hop contraction (A -> B -> C), a dead-end cascade (S, then D)
    and an out-star whose order survives (P keeps p1, p2, p3, with p1 now
    ending at C): the exact graph, base and rename."""
    edges = {
        "p1": ("P", "A"), "p2": ("P", "P"), "p3": ("P", "C"), "q1": ("Q", "D"), "q2": ("Q", "Q"),
        "a1": ("A", "B"), "b1": ("B", "C"), "c1": ("C", "C"), "c2": ("C", "P"), "d1": ("D", "S"),
    }
    order = {"P": ("p1", "p2", "p3"), "Q": ("q1", "q2"), "A": ("a1",), "B": ("b1",), "C": ("c1", "c2"), "D": ("d1",)}
    g = ShiftGraph(["P", "Q", "A", "B", "C", "D", "S"], edges, order)
    g2, base2, rename = normalize_graph(g, ("A", "D", "Q", "P"))
    assert g2.vertices == ("P", "Q", "C")
    assert list(g2.edges.items()) == [
        ("p1", ("P", "C")), ("p2", ("P", "P")), ("p3", ("P", "C")),
        ("q2", ("Q", "Q")), ("c1", ("C", "C")), ("c2", ("C", "P")),
    ]
    assert g2.out_order == {"P": ("p1", "p2", "p3"), "Q": ("q2",), "C": ("c1", "c2")}
    assert base2 == ("C", "Q", "P")
    assert rename == {"P": "P", "Q": "Q", "A": "C", "B": "C", "C": "C", "D": None, "S": None}


def test_normalize_errors_on_empty_result():
    g = ShiftGraph(["a", "b"], {"e": ("a", "b")}, {"a": ("e",), "b": ()})
    with pytest.raises(ValueError):
        normalize_graph(g, ("a",))


def test_normalize_idempotent_on_fuzzed_graphs():
    import random

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        vertices = [f"v{i}" for i in range(n)]
        edges = {}
        order = {v: [] for v in vertices}
        for i, v in enumerate(vertices):
            for j in range(rng.randint(0, 2)):
                e = f"e{i}_{j}"
                edges[e] = (v, rng.choice(vertices))
                order[v].append(e)
        g = ShiftGraph(vertices, edges, order)
        base = tuple(rng.choice(vertices) for _ in range(2))
        try:
            g1, b1, _ = normalize_graph(g, base)
        except ValueError:
            continue
        assert validate_graph(g1) == []
        g2, b2, rename2 = normalize_graph(g1, b1)
        assert g2 == g1 and b2 == b1
        assert all(rename2[v] == v for v in g1.vertices)


def test_children_of_roots_and_words(fig1, base_bg):
    b_root = PathWord(0)
    assert children(fig1, base_bg, b_root) == [PathWord(0, ("1",)), PathWord(0, ("2",))]
    assert children(fig1, base_bg, PathWord(0, ("1",))) == [
        PathWord(0, ("1", "3")),
        PathWord(0, ("1", "4")),
    ]


def test_children_single_loop():
    g = ShiftGraph(["R"], {"0": ("R", "R")}, {"R": ("0",)})
    assert children(g, ("R",), PathWord(0)) == [PathWord(0, ("0",))]


def test_isolated_cylinder(fig1, base_bg, full_shift2):
    assert is_isolated_cylinder(fig1, base_bg, PathWord(0, ("2",)))  # color R
    assert not is_isolated_cylinder(fig1, base_bg, PathWord(0, ("1",)))  # color G
    assert not is_isolated_cylinder(full_shift2, ("v",), PathWord(0, ("a", "b")))


def test_enumerate_words_levels(fig1, base_bg):
    assert enumerate_words(fig1, base_bg, 0) == [PathWord(0), PathWord(1)]
    assert enumerate_words(fig1, base_bg, 1) == [
        PathWord(0),
        PathWord(0, ("1",)),
        PathWord(0, ("2",)),
        PathWord(1),
        PathWord(1, ("3",)),
        PathWord(1, ("4",)),
    ]
    depth2 = enumerate_words(fig1, base_bg, 2)
    assert PathWord(0, ("1", "3")) in depth2
    assert PathWord(1, ("4", "2")) in depth2
    assert PathWord(1, ("3", "2")) not in depth2


def test_enumerate_words_language_membership(fig1, base_bg):
    words = {(base_bg[w.root], w.edges) for w in enumerate_words(fig1, base_bg, 4)}
    assert ("B", ("1", "3", "3", "4")) in words  # B1334
    assert ("G", ("4", "2", "0", "0")) in words  # G4200
    assert ("G", ("3", "2")) not in words  # G32 is not a path
    assert ("B", ("2", "2")) not in words  # B22 is not a path


def test_enumerate_restriction_property(fig1, base_bg):
    for depth in range(4):
        full = enumerate_words(fig1, base_bg, depth + 1)
        assert [w for w in full if len(w.edges) <= depth] == enumerate_words(
            fig1, base_bg, depth
        )


def test_children_produce_valid_words(fig1, base_bg):
    for w in enumerate_words(fig1, base_bg, 3):
        for c in children(fig1, base_bg, w):
            assert is_valid_word(fig1, base_bg, c)
            assert fig1.init(c.edges[-1]) == color_of_word(fig1, base_bg, w)
