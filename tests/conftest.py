import pytest

from strandshift.closed import ClosedDiagram
from strandshift.forest import ForestPair
from strandshift.graphs import PathWord, ShiftGraph


@pytest.fixture
def fig1():
    """Three-color graph used throughout: R with a self-loop, B -> {G, R}, G -> {G, B}."""
    return ShiftGraph(
        ["R", "B", "G"],
        {"0": ("R", "R"), "1": ("B", "G"), "2": ("B", "R"), "3": ("G", "G"), "4": ("G", "B")},
        {"R": ("0",), "B": ("1", "2"), "G": ("3", "4")},
    )


@pytest.fixture
def base_bg():
    return ("B", "G")


@pytest.fixture
def sigma(base_bg):
    """The worked example element: B1->G3, B2->G42, G3->G41, G4->B.

    A tempting hand-drawn pairing sends G3 to B1, but B1 is not a leaf of
    this range forest; with these two forests the only color-preserving
    option for G3 is G41, which is what this fixture encodes.
    """
    return ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1, ("3",)), PathWord(1, ("4",))),
        (PathWord(1, ("3",)), PathWord(1, ("4", "2")), PathWord(1, ("4", "1")), PathWord(0, ())),
        base_bg,
    )


@pytest.fixture
def nonconfluent_left():
    """Two vertices, each with a self-loop and an edge to the other."""
    return ShiftGraph(
        ["R", "B"],
        {"rb": ("R", "B"), "rr": ("R", "R"), "br": ("B", "R"), "bb": ("B", "B")},
        {"R": ("rb", "rr"), "B": ("br", "bb")},
    )


@pytest.fixture
def nonconfluent_right():
    """Two vertices, three self-loops each plus one crossing edge each."""
    return ShiftGraph(
        ["R", "B"],
        {
            "r0": ("R", "B"),
            "r1": ("R", "R"),
            "r2": ("R", "R"),
            "r3": ("R", "R"),
            "b0": ("B", "R"),
            "b1": ("B", "B"),
            "b2": ("B", "B"),
            "b3": ("B", "B"),
        },
        {"R": ("r0", "r1", "r2", "r3"), "B": ("b0", "b1", "b2", "b3")},
    )


@pytest.fixture
def full_shift2():
    """One vertex with two self-loops: the binary full shift."""
    return ShiftGraph(["v"], {"a": ("v", "v"), "b": ("v", "v")}, {"v": ("a", "b")})


@pytest.fixture
def thompson_x0(full_shift2):
    """Infinite-order element of the binary full-shift group: 00->0, 01->10, 1->11."""
    return ForestPair(
        (PathWord(0, ("a", "a")), PathWord(0, ("a", "b")), PathWord(0, ("b",))),
        (PathWord(0, ("a",)), PathWord(0, ("b", "a")), PathWord(0, ("b", "b"))),
        ("v",),
    )


def loops_closed(loop_specs, order=None):
    """Closed diagram made of pure loops.

    loop_specs: list of (color, winding); loop i gets points (i, 0..w-1) with
    strands step t -> t+1 cyclically.  `order` lists (loop, step) pairs for
    the base line; default is loop by loop, steps in order.
    """
    pc, sc, sf, st, ins, outs = {}, {}, {}, {}, {}, {}
    ids = {}
    n = 0
    for i, (color, w) in enumerate(loop_specs):
        for t in range(w):
            ids[(i, t)] = n
            pc[n] = color
            ins[n] = []
            outs[n] = []
            n += 1
    for i, (color, w) in enumerate(loop_specs):
        for t in range(w):
            s = n
            n += 1
            a, b = ids[(i, t)], ids[(i, (t + 1) % w)]
            sc[s] = color
            sf[s] = a
            st[s] = b
            outs[a].append(s)
            ins[b].append(s)
    if order is None:
        order = [(i, t) for i, (_, w) in enumerate(loop_specs) for t in range(w)]
    return ClosedDiagram(pc, sc, sf, st, ins, outs, [ids[key] for key in order])


def loops_of(p, vec) -> dict:
    """The loop multiset {(color, winding): count} of a block vector {winding: block} of presentation p."""
    return {(c, n): x for n, block in vec.items() for c, x in zip(p.graph.vertices, block) if x}


def blocks_of(p, flat) -> dict:
    """The block vector of a winding-major list of counts, one per color and winding of stage p.max_winding."""
    k = len(p.graph.vertices)
    assert len(flat) == k * p.max_winding
    blocks = {n + 1: tuple(flat[n * k : (n + 1) * k]) for n in range(p.max_winding)}
    return {n: block for n, block in blocks.items() if any(block)}
