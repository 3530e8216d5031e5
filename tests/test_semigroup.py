import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandshift.semigroup import (
    Presentation,
    _divides,
    _key,
    _normal_form,
    _orient,
    bfs_equal,
    bfs_path,
    completed_rules,
    decide_equal,
    degree,
    dump_presentation,
    max_winding,
    presentation_from_graph,
)
from strandshift.testkit import (
    GeneratorConfig,
    enumerate_class,
    random_graph,
    reduced_rules,
    stage_bfs_path,
    stage_completed_rules,
    stage_decide_equal,
    stage_presentation,
)
from strandshift.textio import parse_graph

from conftest import blocks_of, loops_of

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def vec(p, **loops):
    """Convenience: vec(p, R1=2, B2=1) -> block vector {winding: block}."""
    d = {}
    for key, count in loops.items():
        d[(key[:-1], int(key[-1]))] = count
    return p.vector(d)


def test_presentation_fig1(fig1):
    p = presentation_from_graph(fig1, 1)
    assert fig1.vertices == ("R", "B", "G")
    # R's out-star is a single self-loop: its trivial relation is dropped
    assert p.relations == (("B", (1, 0, 1), (0, 1, 0)), ("G", (0, 1, 1), (0, 0, 1)))
    assert vec(p, G1=1, R1=1) == {1: (1, 0, 1)}


def test_presentation_nonconfluent_left(nonconfluent_left):
    p = presentation_from_graph(nonconfluent_left, 1)
    rels = {(vtx, u, v) for vtx, u, v in p.relations}
    assert ("R", vec(p, B1=1, R1=1)[1], vec(p, R1=1)[1]) in rels
    assert ("B", vec(p, R1=1, B1=1)[1], vec(p, B1=1)[1]) in rels


def test_presentation_counts(fig1):
    p = presentation_from_graph(fig1, 3)
    assert p.max_winding == 3
    assert len(p.relations) == 2  # two non-trivial vertices; the block serves every winding
    assert vec(p, B3=2, R1=1, G3=1) == {1: (1, 0, 0), 3: (0, 2, 1)}


def test_vector_rejects_unknown_color_winding_and_negative_count(fig1):
    p = presentation_from_graph(fig1, 3)
    for loops, message in (
        ({("Y", 1): 1}, "L(Y,1) is not a generator of stage 3"),
        ({("R", 4): 1}, "L(R,4) is not a generator of stage 3"),
        ({("R", 0): 1}, "L(R,0) is not a generator of stage 3"),
        ({("R", 1): 1, ("B", 2): -1}, "negative loop count"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            p.vector(loops)
    assert p.vector({("R", 1): 0, ("B", 2): 1}) == {2: (0, 1, 0)}


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
    assert enumerate_class(r1[1], p, cap=12) == {r1[1]}


def test_decide_equal_rejects_zero_vector(fig1):
    p = presentation_from_graph(fig1, 1)
    with pytest.raises(ValueError, match="vectors must be nonzero"):
        decide_equal({}, vec(p, B1=1), p)
    with pytest.raises(ValueError, match="zero blocks are left out"):
        decide_equal({1: (0, 0, 0)}, vec(p, B1=1), p)


def test_decide_equal_rejects_negative_entries():
    g, _ = parse_graph((FIXTURES / "two_vertex.graph").read_text())
    p = presentation_from_graph(g, 1)
    for a, b in (({1: (-1, 2)}, {1: (-1, 2)}), ({1: (1, 0)}, {1: (2, -1)})):
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


def _walk(path, a, b, p, cap):
    """The end of a path of (vertex, winding, sign) steps from a; every step
    must apply, and keep its winding's block within that winding's degree
    cap: its larger degree in a and b plus the slack cap - max(|a|, |b|)."""
    slack = cap - max(degree(a), degree(b))
    relation = {vtx: (u, v) for vtx, u, v in p.relations}
    zero = (0,) * len(p.graph.vertices)
    end = dict(a)
    for vtx, n, sign in path:
        u, v = relation[vtx]
        lhs, rhs = (u, v) if sign > 0 else (v, u)
        block = end.get(n, zero)
        assert _divides(lhs, block)
        end[n] = tuple(x - c + d for x, c, d in zip(block, lhs, rhs))
        assert sum(end[n]) <= max(sum(a.get(n, zero)), sum(b.get(n, zero))) + slack
    return end


def test_bfs_path_roundtrip(nonconfluent_left, nonconfluent_right):
    p = presentation_from_graph(nonconfluent_right, 1)
    a, b = vec(p, R1=5, B1=5), vec(p, R1=1)
    assert _walk(bfs_path(a, b, p, 12), a, b, p, 12) == b
    # no moves fit under a cap equal to the input degree, so no path is found
    assert bfs_path(vec(p, R1=1), vec(p, B1=1), p, 1) is None
    # both directions of the fuzz pairs, so paths end in a half met from the
    # target's side, read backwards with flipped signs
    q = presentation_from_graph(nonconfluent_left, 2)
    found = 0
    for a, b in _fuzz_pairs(q):
        cap = max(degree(a), degree(b)) + 4
        for x, y in ((a, b), (b, a)):
            path = bfs_path(x, y, q, cap)
            assert (path is not None) == (bfs_equal(x, y, q, cap) == "equal")
            if path is not None:
                assert _walk(path, x, y, q, cap) == y
                found += 1
    assert found == 30


def _random_vector(p, rng, max_count=3):
    v = [0] * (p.max_winding * len(p.graph.vertices))
    while not any(v):
        v = [rng.randint(0, max_count) if rng.random() < 0.6 else 0 for _ in v]
    return blocks_of(p, v)


def _add(a, b):
    """The sum of two block vectors."""
    zero = (0,) * len(next(iter(a.values())))
    return {n: tuple(x + y for x, y in zip(a.get(n, zero), b.get(n, zero))) for n in sorted(a.keys() | b.keys())}


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
            assert decide_equal(_add(a, c), _add(b, d), p)


def _fuzz_pairs(p):
    """Forty seeded pairs of random vectors of p, entries at most 2."""
    rng = random.Random(6)
    return [(_random_vector(p, rng, max_count=2), _random_vector(p, rng, max_count=2)) for _ in range(40)]


def test_oracle_vs_decide_on_fuzz(nonconfluent_left):
    p = presentation_from_graph(nonconfluent_left, 2)
    for a, b in _fuzz_pairs(p):
        verdict = bfs_equal(a, b, p, cap=max(degree(a), degree(b)) + 4)
        if verdict == "equal":
            assert decide_equal(a, b, p)


def test_max_winding(fig1):
    assert max_winding({("B", 2): 1}) == 2
    assert max_winding({("G", 2): 1, ("R", 2): 1}) == 2
    with pytest.raises(ValueError):
        max_winding({})


def test_dump_format(nonconfluent_left, fig1):
    # the block once, for every winding; summands print in vertex order
    # (the sums are commutative)
    p = presentation_from_graph(nonconfluent_left, 1)
    lines = dump_presentation(p).splitlines()
    assert lines == ["for every winding n from 1 to 1:", "L(R,n)+L(B,n)=L(R,n)", "L(R,n)+L(B,n)=L(B,n)"]
    assert dump_presentation(presentation_from_graph(fig1, 5)).splitlines() == [
        "for every winding n from 1 to 5:",
        "L(R,n)+L(G,n)=L(B,n)",
        "L(B,n)+L(G,n)=L(G,n)",
    ]


def test_completion_confluence_under_random_rewrites(fig1, nonconfluent_left, nonconfluent_right):
    # the rules act on one block at a time, so each block of a random
    # vector is a start
    rng = random.Random(8)
    for g in (fig1, nonconfluent_left, nonconfluent_right):
        p = presentation_from_graph(g, 2)
        rules = completed_rules(p)
        for _ in range(40):
            for start in _random_vector(p, rng).values():
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
    for g in (nonconfluent_left, nonconfluent_right):
        p = presentation_from_graph(g, 1)
        for u, v in completed_rules(p):
            cap = max(sum(u), sum(v)) + 6
            assert bfs_equal({1: u}, {1: v}, p, cap) == "equal"




# ---------------------------------------------------------------------------
# the block decision against the stage presentation built whole (testkit)

BLOCK_GRAPHS = [random_graph(GeneratorConfig(seed=s, max_vertices=3))[0] for s in range(40)]
FIXTURE_GRAPHS = [
    parse_graph((FIXTURES / name).read_text())[0] for name in ("three_color.graph", "two_vertex.graph", "graph3.graph")
]


def _lifted(rules, block, n):
    """The N copies of block rules, one per winding's coordinates."""
    zero = (0,) * block
    return [
        (zero * w + u + zero * (n - 1 - w), zero * w + v + zero * (n - 1 - w))
        for w in range(n)
        for u, v in rules
    ]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_completed_rules_are_lifted_winding_one_rules(n):
    """Completing the whole stage at once, with nothing told of windings,
    gives N copies of the block completion once both are reduced: no rule
    mixes windings.  The stage completion keeps every rule it derives, so
    its rules are reduced here; the reduced basis is unique, so the two
    sets are equal."""
    for g in BLOCK_GRAPHS:
        block = completed_rules(presentation_from_graph(g, n))
        stage = reduced_rules(stage_completed_rules(stage_presentation(g, n)))
        assert len(stage) == n * len(block)
        assert stage == set(_lifted(block, len(g.vertices), n))


SEED12_GRAPH = parse_graph((FIXTURES / "random_v8_seed12.graph").read_text())[0]


def test_completed_rules_are_the_reduced_basis():
    """No lead divides another lead or any tail, every rule points down the
    graded order, and the rules are sorted by lead."""
    for g in BLOCK_GRAPHS + FIXTURE_GRAPHS + [SEED12_GRAPH]:
        rules = completed_rules(presentation_from_graph(g, 1))
        for u, v in rules:
            assert _orient(u, v) == (u, v)
            assert not any(_divides(w, v) for w, _ in rules)
            assert [w for w, _ in rules if _divides(w, u)] == [u]
        assert rules == sorted(rules, key=lambda rule: _key(rule[0]))


def test_completed_rules_do_not_depend_on_the_order_of_the_relations():
    rng = random.Random(36)
    for g in BLOCK_GRAPHS + FIXTURE_GRAPHS + [SEED12_GRAPH]:
        p = presentation_from_graph(g, 1)
        rules = completed_rules(p)
        shuffled = list(p.relations)
        rng.shuffle(shuffled)
        for relations in (p.relations[::-1], tuple(shuffled)):
            assert completed_rules(Presentation(g, 1, relations)) == rules


@st.composite
def _block_pairs(draw):
    """Two nonzero stage vectors as winding-major lists; each block of the second is zero, random or the first's."""
    g = draw(st.sampled_from(BLOCK_GRAPHS + FIXTURE_GRAPHS))
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
        vecs.append(vec)
    return g, n, vecs[0], vecs[1]


def _check_against_stage(g, n, a, b, stage_rules, slack):
    """Check decide_equal against normal forms under the whole stage's
    completion, and walk bfs_path's path, when it finds one, within its
    caps.  Returns the verdict and the path, or None."""
    p, sp = presentation_from_graph(g, n), stage_presentation(g, n)
    equal = decide_equal(a, b, p)
    assert equal == stage_decide_equal(sp.vector(a), sp.vector(b), stage_rules)
    cap = max(degree(a), degree(b)) + slack
    path = bfs_path(a, b, p, cap)
    if path is not None:
        assert equal and _walk(path, a, b, p, cap) == b
    return equal, path


@settings(max_examples=300, deadline=None)
@given(_block_pairs())
def test_block_decision_matches_full_vector_normal_forms(case):
    g, n, a, b = case
    p = presentation_from_graph(g, n)
    a, b = blocks_of(p, a), blocks_of(p, b)
    _check_against_stage(g, n, a, b, stage_completed_rules(stage_presentation(g, n)), 2)


def _relation_moves(g, loops, moves, rng):
    """Random relation applications (children's loops <-> the parent's loop,
    in one winding) to a loop multiset, done by hand."""
    loops = dict(loops)
    for _ in range(moves):
        options = []
        for v in g.vertices:
            if g.is_isolated_color(v):
                continue
            for w in sorted({w for (_, w), x in loops.items() if x}):
                need = {}
                for c in g.child_colors(v):
                    need[(c, w)] = need.get((c, w), 0) + 1
                if all(loops.get(key, 0) >= x for key, x in need.items()):
                    options.append((need, {(v, w): 1}))
                if loops.get((v, w), 0):
                    options.append(({(v, w): 1}, need))
        if not options:
            break
        take, give = rng.choice(options)
        for key, x in take.items():
            loops[key] -= x
        for key, x in give.items():
            loops[key] = loops.get(key, 0) + x
    return {key: x for key, x in loops.items() if x}


def test_block_decision_on_loops_eq_pairs():
    """Pairs built as the loops-eq benchmark builds them, at top windings
    8-16: loops at the top winding and two lower ones, a planted equal
    right side by relation moves, and for half of them one lower winding
    dropped from it.  The verdict is the planted one and the stage
    reference's.  The search per winding finds every equal pair's path,
    each walks within its caps, and each is as long as the joint search's
    over the whole stage."""
    graphs = [g for g in BLOCK_GRAPHS if sum(not g.is_isolated_color(v) for v in g.vertices) >= 2][:15]
    rng = random.Random(16)
    equal_pairs = 0
    for i in range(18):
        g = graphs[i % len(graphs)]
        top = 8 + i // 2
        windings = sorted({top} | set(rng.sample(range(1, top), 2)))
        lhs = {}
        for w in windings:
            for _ in range(rng.randint(1, 3)):
                key = (rng.choice(g.vertices), w)
                lhs[key] = lhs.get(key, 0) + 1
        rhs = _relation_moves(g, lhs, rng.randint(1, 6), rng)
        answer = rng.random() < 0.5
        if not answer:
            dropped = rng.choice(windings[:-1])
            rhs = {key: x for key, x in rhs.items() if key[1] != dropped}
        p, sp = presentation_from_graph(g, top), stage_presentation(g, top)
        a, b = p.vector(lhs), p.vector(rhs)
        equal, path = _check_against_stage(g, top, a, b, stage_completed_rules(sp), 2)
        assert equal == answer
        joint = stage_bfs_path(sp.vector(a), sp.vector(b), sp, max(degree(a), degree(b)) + 2)
        assert (path is None) == (joint is None) == (not equal)
        assert path is None or len(path) == len(joint)
        equal_pairs += equal
    assert equal_pairs == 9
