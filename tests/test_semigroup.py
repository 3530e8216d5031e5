import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandshift.semigroup import (
    _divides,
    _normal_form,
    bfs_equal,
    bfs_path,
    completed_rules,
    decide_equal,
    dump_presentation,
    max_winding,
    presentation_from_graph,
)
from strandshift.testkit import GeneratorConfig, enumerate_class, random_graph
from strandshift.textio import parse_graph

from conftest import loops_of

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def vec(p, **loops):
    """Convenience: vec(p, R1=2, B2=1) -> exponent vector."""
    d = {}
    for key, count in loops.items():
        d[(key[:-1], int(key[-1]))] = count
    return p.vector(d)


def test_presentation_fig1(fig1):
    p = presentation_from_graph(fig1, 1)
    assert len(p.gens) == 3
    # R's out-star is a single self-loop: its trivial relation is dropped
    assert len(p.relations) == 2
    rels = {(tuple(u), tuple(v)) for u, v in p.relations}
    assert (vec(p, G1=1, R1=1), vec(p, B1=1)) in rels
    assert (vec(p, G1=1, B1=1), vec(p, G1=1)) in rels


def test_presentation_nonconfluent_left(nonconfluent_left):
    p = presentation_from_graph(nonconfluent_left, 1)
    rels = {(tuple(u), tuple(v)) for u, v in p.relations}
    assert (vec(p, B1=1, R1=1), vec(p, R1=1)) in rels
    assert (vec(p, R1=1, B1=1), vec(p, B1=1)) in rels


def test_presentation_counts(fig1):
    p = presentation_from_graph(fig1, 3)
    assert len(p.gens) == 9
    assert len(p.relations) == 6  # two non-trivial vertices, three windings


def test_presentation_rejects_zero_stage(fig1):
    with pytest.raises(ValueError):
        presentation_from_graph(fig1, 0)


def test_decide_equal_nonconfluent_left(nonconfluent_left):
    p = presentation_from_graph(nonconfluent_left, 1)
    assert decide_equal(vec(p, R1=1), vec(p, B1=1), p)


def test_decide_equal_nonconfluent_right(nonconfluent_right):
    p = presentation_from_graph(nonconfluent_right, 1)
    reduced = [vec(p, R1=1), vec(p, B1=1), vec(p, R1=2, B1=2)]
    for a in reduced:
        for b in reduced:
            assert decide_equal(a, b, p)
    start = vec(p, R1=5, B1=5)
    for a in reduced:
        assert decide_equal(start, a, p)


def test_decide_equal_reflexive_and_fig1_negative(fig1):
    p = presentation_from_graph(fig1, 1)
    r1, g1 = vec(p, R1=1), vec(p, G1=1)
    assert decide_equal(r1, r1, p)
    assert not decide_equal(r1, g1, p)
    # the negative is exact: no relation applies to a bare R loop at all
    assert enumerate_class(r1, p, cap=12) == {r1}


def test_decide_equal_rejects_zero_vector(fig1):
    p = presentation_from_graph(fig1, 1)
    with pytest.raises(ValueError):
        decide_equal(tuple([0] * 3), vec(p, B1=1), p)


def test_decide_equal_rejects_negative_entries():
    g, _ = parse_graph((FIXTURES / "two_vertex.graph").read_text())
    p = presentation_from_graph(g, 1)
    for a, b in (((-1, 2), (-1, 2)), ((1, 0), (2, -1))):
        with pytest.raises(ValueError, match="negative loop count"):
            decide_equal(a, b, p)


def test_bfs_oracle_agrees(nonconfluent_left, nonconfluent_right, fig1):
    p = presentation_from_graph(nonconfluent_left, 1)
    assert bfs_equal(vec(p, R1=1), vec(p, B1=1), p, 12) == "equal"
    q = presentation_from_graph(nonconfluent_right, 1)
    assert bfs_equal(vec(q, R1=5, B1=5), vec(q, R1=1), q, 12) == "equal"
    assert bfs_equal(vec(q, R1=5, B1=5), vec(q, B1=1), q, 12) == "equal"
    assert bfs_equal(vec(q, R1=5, B1=5), vec(q, R1=2, B1=2), q, 12) == "equal"
    f = presentation_from_graph(fig1, 1)
    assert bfs_equal(vec(f, R1=1), vec(f, G1=1), f, 12) == "not-equal-within-cap"


def test_bfs_equal_cap_and_reflexivity(fig1):
    p = presentation_from_graph(fig1, 1)
    a = vec(p, B1=2)
    assert bfs_equal(a, a, p, 2) == "equal"
    with pytest.raises(ValueError):
        bfs_equal(a, vec(p, B1=1), p, 1)


def _walk(path, a, p, cap):
    """The end of a relation path from a; every step must apply within the cap."""
    for ridx, sign in path:
        u, v = p.relations[ridx]
        lhs, rhs = (u, v) if sign > 0 else (v, u)
        assert _divides(lhs, a)
        a = tuple(x - c + d for x, c, d in zip(a, lhs, rhs))
        assert sum(a) <= cap
    return a


def test_bfs_path_roundtrip(nonconfluent_left, nonconfluent_right):
    p = presentation_from_graph(nonconfluent_right, 1)
    a, b = vec(p, R1=5, B1=5), vec(p, R1=1)
    assert _walk(bfs_path(a, b, p, 12), a, p, 12) == b
    # no moves fit under a cap equal to the input degree, so no path is found
    assert bfs_path(vec(p, R1=1), vec(p, B1=1), p, 1) is None
    # both directions of the fuzz pairs, so paths end in a half met from the
    # target's side, read backwards with flipped signs
    q = presentation_from_graph(nonconfluent_left, 2)
    found = 0
    for a, b in _fuzz_pairs(q):
        cap = max(sum(a), sum(b)) + 4
        for x, y in ((a, b), (b, a)):
            path = bfs_path(x, y, q, cap)
            assert (path is not None) == (bfs_equal(x, y, q, cap) == "equal")
            if path is not None:
                assert _walk(path, x, q, cap) == y
                found += 1
    assert found == 30


def _random_vector(p, rng, max_count=3):
    v = [0] * len(p.gens)
    while not any(v):
        v = [rng.randint(0, max_count) if rng.random() < 0.6 else 0 for _ in p.gens]
    return tuple(v)


def _embed(p_small, p_big, v):
    return p_big.vector(loops_of(p_small, v))


def test_filtration_consistency(fig1, nonconfluent_left):
    rng = random.Random(2)
    for graph in (fig1, nonconfluent_left):
        for n in (1, 2):
            small = presentation_from_graph(graph, n)
            big = presentation_from_graph(graph, n + 2)
            for _ in range(25):
                a = _random_vector(small, rng)
                b = _random_vector(small, rng)
                assert decide_equal(a, b, small) == decide_equal(
                    _embed(small, big, a), _embed(small, big, b), big
                )


def test_winding_set_invariance(nonconfluent_left):
    rng = random.Random(3)
    p = presentation_from_graph(nonconfluent_left, 3)

    def winding_set(v):
        return {n for (c, n), count in loops_of(p, v).items() if count}

    pairs = 0
    while pairs < 30:
        a = _random_vector(p, rng)
        b = _random_vector(p, rng)
        if decide_equal(a, b, p):
            assert winding_set(a) == winding_set(b)
            pairs += 1


def test_congruence_laws(nonconfluent_right):
    rng = random.Random(4)
    p = presentation_from_graph(nonconfluent_right, 2)
    vs = [_random_vector(p, rng) for _ in range(12)]
    for a in vs:
        assert decide_equal(a, a, p)
    for a in vs[:6]:
        for b in vs[:6]:
            assert decide_equal(a, b, p) == decide_equal(b, a, p)
    # transitivity and additivity on random triples
    for _ in range(40):
        a, b, c, d = (rng.choice(vs) for _ in range(4))
        if decide_equal(a, b, p) and decide_equal(b, c, p):
            assert decide_equal(a, c, p)
        if decide_equal(a, b, p) and decide_equal(c, d, p):
            s1 = tuple(x + y for x, y in zip(a, c))
            s2 = tuple(x + y for x, y in zip(b, d))
            assert decide_equal(s1, s2, p)


def _fuzz_pairs(p):
    """Forty seeded pairs of random vectors of p, entries at most 2."""
    rng = random.Random(6)
    return [(_random_vector(p, rng, max_count=2), _random_vector(p, rng, max_count=2)) for _ in range(40)]


def test_oracle_vs_decide_on_fuzz(nonconfluent_left):
    p = presentation_from_graph(nonconfluent_left, 2)
    for a, b in _fuzz_pairs(p):
        verdict = bfs_equal(a, b, p, cap=max(sum(a), sum(b)) + 4)
        if verdict == "equal":
            assert decide_equal(a, b, p)


def test_max_winding(fig1):
    assert max_winding({("B", 2): 1}) == 2
    assert max_winding({("G", 2): 1, ("R", 2): 1}) == 2
    with pytest.raises(ValueError):
        max_winding({})


def test_dump_format(nonconfluent_left):
    # summands print in generator order (the sums are commutative)
    p = presentation_from_graph(nonconfluent_left, 1)
    lines = dump_presentation(p).splitlines()
    assert lines == ["L(R,1)+L(B,1)=L(R,1)", "L(R,1)+L(B,1)=L(B,1)"]


def test_completion_confluence_under_random_rewrites(fig1, nonconfluent_left, nonconfluent_right):
    from strandshift.semigroup import _divides, _normal_form, completed_rules

    rng = random.Random(8)
    for g in (fig1, nonconfluent_left, nonconfluent_right):
        p = presentation_from_graph(g, 2)
        rules = completed_rules(p)
        for _ in range(40):
            start = _random_vector(p, rng)
            expected = _normal_form(start, rules)
            for _ in range(5):
                m = start
                while True:
                    applicable = [(u, v) for u, v in rules if _divides(u, m)]
                    if not applicable:
                        break
                    u, v = applicable[rng.randrange(len(applicable))]
                    m = tuple(x - a + b for x, a, b in zip(m, u, v))
                assert m == expected


def test_completed_rules_stay_in_congruence(nonconfluent_left, nonconfluent_right):
    # every derived rule must itself be a consequence of the presentation,
    # which the independent search confirms on these small stages
    from strandshift.semigroup import completed_rules

    for g in (nonconfluent_left, nonconfluent_right):
        p = presentation_from_graph(g, 1)
        for u, v in completed_rules(p):
            cap = max(sum(u), sum(v)) + 6
            assert bfs_equal(u, v, p, cap) == "equal"


# ---------------------------------------------------------------------------
# stage N is the direct sum of N copies of the winding-1 block

BLOCK_GRAPHS = [random_graph(GeneratorConfig(seed=s, max_vertices=3))[0] for s in range(40)]


def _lifted(rules, block, n):
    """The N copies of winding-1 block rules, one per winding's coordinates."""
    zero = (0,) * block
    return [
        (zero * w + u + zero * (n - 1 - w), zero * w + v + zero * (n - 1 - w))
        for w in range(n)
        for u, v in rules
    ]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_completed_rules_are_lifted_winding_one_rules(n):
    for g in BLOCK_GRAPHS:
        block = completed_rules(presentation_from_graph(g, 1))
        stage = completed_rules(presentation_from_graph(g, n))
        assert len(stage) == n * len(block)
        assert set(stage) == set(_lifted(block, len(g.vertices), n))


@st.composite
def _block_pairs(draw):
    """Two nonzero stage vectors; each block of the second is zero, random or the first's."""
    g = draw(st.sampled_from(BLOCK_GRAPHS))
    n = draw(st.integers(1, 4))
    k = len(g.vertices)
    zero, random_block = st.just([0] * k), st.lists(st.integers(0, 3), min_size=k, max_size=k)
    a_blocks = [draw(zero | random_block) for _ in range(n)]
    b_blocks = [draw(zero | random_block | st.just(blk)) for blk in a_blocks]
    vecs = []
    for blocks in (a_blocks, b_blocks):
        vec = [x for blk in blocks for x in blk]
        if not any(vec):
            vec[draw(st.integers(0, len(vec) - 1))] = 1
        vecs.append(tuple(vec))
    return g, n, vecs[0], vecs[1]


@settings(max_examples=300, deadline=None)
@given(_block_pairs())
def test_block_decision_matches_full_vector_normal_forms(case):
    g, n, a, b = case
    p = presentation_from_graph(g, n)
    rules = _lifted(completed_rules(presentation_from_graph(g, 1)), len(g.vertices), n)
    assert decide_equal(a, b, p) == (_normal_form(a, rules) == _normal_form(b, rules))
