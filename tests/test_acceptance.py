"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import random
import time

from strandshift.closed import (
    _loops,
    close,
    decompose_parts,
    permute_base,
    semi_reduce,
    shift_directions,
    shift_expand,
    skeleton,
    type3_reduce,
)
from strandshift.conjugacy import compare_split_merge, is_conjugate
from strandshift.diagrams import (
    canonical_key,
    compose,
    equal,
    from_forest_pair,
    identity_diagram,
    invert,
    reduce,
    reduce_with_log,
)
from strandshift.forest import ForestPair
from strandshift.graphs import PathWord, ShiftGraph
from strandshift.semigroup import bfs_equal, decide_equal, presentation_from_graph
from strandshift.testkit import (
    GeneratorConfig,
    compose_pairs,
    identity_pair,
    invert_pair,
    random_element,
    random_graph,
    reference_reduce_with_log,
    reference_semi_reduce,
    semantic_equal,
    similar_by_search,
)

from conftest import loops_closed


def report(n, message):
    print(f"\ncriterion {n}: PASS - {message}")


def fig1_graph():
    return ShiftGraph(
        ["R", "B", "G"],
        {"0": ("R", "R"), "1": ("B", "G"), "2": ("B", "R"), "3": ("G", "G"), "4": ("G", "B")},
        {"R": ("0",), "B": ("1", "2"), "G": ("3", "4")},
    )


def sigma_pair():
    return ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1, ("3",)), PathWord(1, ("4",))),
        (PathWord(1, ("3",)), PathWord(1, ("4", "2")), PathWord(1, ("4", "1")), PathWord(0, ())),
        ("B", "G"),
    )


def element(g, base, seed, steps=2):
    return from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=seed, growth_steps=steps)))


def reduce_loops_at(c, g, vertex):
    """Collapse one set of unit-winding child loops of `vertex` into one loop."""
    kids = g.child_colors(vertex)
    chosen = []
    taken = set()
    for color in kids:
        pick = next(
            points
            for loop_color, points in _loops(c)
            if loop_color == color and len(points) == 1 and points[0] not in taken
        )
        taken.add(pick[0])
        chosen.append(pick)
    block = [points[0] for points in chosen]
    rest = [p for p in c.base_line if p not in set(block)]
    perm = tuple(c.base_line.index(p) for p in block + rest)
    c, _ = permute_base(c, perm)
    c, _ = type3_reduce(c, g, 0, len(kids), 1, vertex=vertex)
    return c


def test_criterion_1_square_reproduction(fig1, sigma):
    from test_diagrams import build_sigma_squared_expected

    d = from_forest_pair(fig1, sigma)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        red, log = reduce_with_log(compose(d, d))
        best = min(best, time.perf_counter() - t0)
    assert log == [2], "exactly one type 2 reduction must be logged"
    assert canonical_key(red) == canonical_key(build_sigma_squared_expected())
    assert best < 0.010, f"took {best*1000:.2f} ms"
    report(1, f"square reduces to the pictured diagram via one type 2 step in {best*1000:.2f} ms")


def test_criterion_2_interleaved_loop_collapse(fig1):
    best = float("inf")
    for _ in range(5):
        c = loops_closed([("G", 2), ("R", 2)])  # base (G, G, R, R)
        t0 = time.perf_counter()
        c, _ = permute_base(c, (0, 2, 1, 3))  # interleave to (G, R, G, R)
        c, _ = type3_reduce(c, fig1, 0, 2, 2)
        best = min(best, time.perf_counter() - t0)
    part, loops = decompose_parts(c)
    assert len(part.point_color) == 0
    assert loops == {("B", 2): 1}, "winding 2 must be preserved exactly"
    assert best < 0.010, f"took {best*1000:.2f} ms"
    report(2, f"{{L(G,2), L(R,2)}} collapses to {{L(B,2)}} in {best*1000:.2f} ms")


def test_criterion_3_nonconfluence_left(nonconfluent_left):
    g = nonconfluent_left
    t0 = time.perf_counter()
    start = loops_closed([("R", 1), ("B", 1)])  # base (R, B)
    direct, _ = type3_reduce(start, g, 0, 2, 1)  # pattern (R, B) is B's out-star
    assert decompose_parts(direct)[1] == {("B", 1): 1}
    permuted, _ = permute_base(start, (1, 0))
    other, _ = type3_reduce(permuted, g, 0, 2, 1)  # pattern (B, R) is R's out-star
    assert decompose_parts(other)[1] == {("R", 1): 1}
    p = presentation_from_graph(g, 1)
    r1 = p.vector({("R", 1): 1})
    b1 = p.vector({("B", 1): 1})
    assert decide_equal(r1, b1, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010, f"took {elapsed*1000:.2f} ms"
    report(3, f"two single-step reducts {{L(R,1)}} and {{L(B,1)}}, equal in the semigroup, {elapsed*1000:.2f} ms")


def test_criterion_4_nonconfluence_right(nonconfluent_right):
    g = nonconfluent_right
    t0 = time.perf_counter()
    p = presentation_from_graph(g, 1)

    def start():
        return loops_closed([("R", 1)] * 5 + [("B", 1)] * 5)

    outcomes = []
    for sequence in (("B", "B", "R"), ("R", "R", "B"), ("B", "R")):
        c = start()
        for vertex in sequence:
            c = reduce_loops_at(c, g, vertex)
        outcomes.append(decompose_parts(c)[1])
    assert outcomes[0] == {("R", 1): 1}
    assert outcomes[1] == {("B", 1): 1}
    assert outcomes[2] == {("R", 1): 2, ("B", 1): 2}
    vectors = [p.vector(loops) for loops in outcomes]
    for a in vectors:
        for b in vectors:
            assert decide_equal(a, b, p)
            assert bfs_equal(a, b, p, 12) == "equal"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed*1000:.0f} ms"
    report(4, f"three reduced objects reached and pairwise equal (bfs cap 12 agrees), {elapsed*1000:.0f} ms")


def test_criterion_5_conjugation_soundness_fuzz(fig1):
    base = ("B", "G")
    wrong = 0
    times = []

    def run_instance(g, b, seed, steps):
        nonlocal wrong
        f = element(g, b, seed, steps)
        h = element(g, b, seed + 77777, steps)
        conj = reduce(compose(compose(h, f), invert(h)))
        t0 = time.perf_counter()
        if not is_conjugate(f, conj, g).conjugate:
            wrong += 1
        times.append(time.perf_counter() - t0)

    for seed in range(300):
        run_instance(fig1, base, seed, 2)
    for seed in range(100):
        run_instance(fig1, base, 20000 + seed, 3)
    graphs = 0
    gseed = 0
    while graphs < 3:
        g, b = random_graph(GeneratorConfig(seed=gseed, max_vertices=5))
        gseed += 1
        if len(g.vertices) < 2:
            continue
        graphs += 1
        for seed in range(40):
            run_instance(g, b, 500 + seed, 2)

    assert len(times) >= 500
    assert wrong == 0
    times.sort()
    median = times[len(times) // 2]
    assert median < 2.0, f"median {median:.3f} s"
    report(
        5,
        f"{len(times)} instances, zero wrong verdicts and no refusal, median {median*1000:.1f} ms",
    )


def test_criterion_6_negative_control(fig1):
    base = ("B", "G")
    ident = identity_diagram(base)
    ident_pair = identity_pair(fig1, base)
    false_positives = 0
    nontrivial = 0
    for seed in range(250):
        fp = random_element(fig1, base, GeneratorConfig(seed=seed, growth_steps=2))
        depth = max(len(w.edges) for w in fp.domain_leaves) + 1
        if semantic_equal(fig1, fp, ident_pair, depth=depth):
            continue
        nontrivial += 1
        if is_conjugate(ident, from_forest_pair(fig1, fp), fig1).conjugate:
            false_positives += 1
    assert nontrivial >= 100
    assert false_positives == 0
    report(6, f"{nontrivial} nontrivial elements, zero false conjugacies with the identity")


def test_criterion_7_normal_form_uniqueness(fig1, nonconfluent_left, full_shift2, monkeypatch):
    cases = [
        (fig1, ("B", "G"), 500),
        (nonconfluent_left, ("R", "B"), 250),
        (full_shift2, ("v",), 250),
    ]
    checked = 0
    for g, base, count in cases:
        for seed in range(count):
            f = element(g, base, seed)
            h = element(g, base, seed + 31337)
            d = compose(f, h)
            baseline = canonical_key(reduce(d))
            for order_seed in range(10):
                rng = random.Random(order_seed)
                assert canonical_key(reference_reduce_with_log(d, rng)[0]) == baseline
            checked += 1
    assert checked == 1000

    # closed side: steps 2+3 verdicts do not depend on the redex order used
    # while semi-reducing, which the seeded reference semi-reduction varies
    stable = 0
    for seed in range(20):
        f = element(fig1, ("B", "G"), seed, steps=3)
        h = element(fig1, ("B", "G"), seed + 41000, steps=2)
        g2 = reduce(compose(compose(h, f), invert(h)))
        verdicts = set()
        for order_seed in range(5):
            seeded = functools.partial(reference_semi_reduce, rng=random.Random(order_seed))
            monkeypatch.setattr("strandshift.conjugacy.semi_reduce", seeded)
            verdicts.add(is_conjugate(f, g2, fig1).conjugate)
        assert verdicts == {True}
        stable += 1
    report(7, f"1000 diagrams x 10 orders share one normal form; {stable} closed verdicts order-independent")


def test_criterion_8_step2_oracle_equivalence(fig1, full_shift2, nonconfluent_left):
    rng = random.Random(99)
    agreements = 0
    graphs = [(fig1, ("B", "G")), (full_shift2, ("v",)), (nonconfluent_left, ("R", "B"))]
    seed = 0
    while agreements < 200:
        g, base = graphs[seed % len(graphs)]
        f = element(g, base, 60000 + seed, steps=2)
        seed += 1
        semi, _ = semi_reduce(close(f))
        part, _ = decompose_parts(semi)
        if not part.point_color or len(part.base_line) > 6:
            continue
        # a similar copy: random similarity moves applied to the part
        other = part
        for _ in range(rng.randint(0, 2)):
            moves = [
                (i, d)
                for i in range(len(other.base_line))
                for d in shift_directions(other, i)
            ]
            if not moves:
                break
            i, d = moves[rng.randrange(len(moves))]
            other, _ = shift_expand(other, i, d)
        fast = compare_split_merge(skeleton(part), skeleton(other)) is not None
        slow = similar_by_search(part, other, depth=6)
        assert fast == slow, "cocycle decision and brute-force search disagree"
        assert fast is True
        agreements += 1

        # also a negative: compare against the part of a different element
        f2 = element(g, base, 70000 + seed, steps=2)
        semi2, _ = semi_reduce(close(f2))
        part2, _ = decompose_parts(semi2)
        if part2.point_color and len(part2.base_line) <= 6:
            fast2 = compare_split_merge(skeleton(part), skeleton(part2)) is not None
            slow2 = similar_by_search(part, part2, depth=6)
            if fast2 != slow2:
                # the bounded search can only miss positives, never invent them
                assert fast2 and not slow2
                assert similar_by_search(part, part2, depth=10)
            agreements += 1
    report(8, f"{agreements} instances: integer-coboundary decision matches depth-6 search")


def test_criterion_9_filtration_consistency(fig1, nonconfluent_left):
    rng = random.Random(123)
    checked = 0
    for g in (fig1, nonconfluent_left):
        n = 2
        small = presentation_from_graph(g, n)
        big = presentation_from_graph(g, n + 2)
        for _ in range(100):
            def rand_vec(p):
                v = [0] * len(p.gens)
                while not any(v):
                    v = [rng.randint(0, 3) if rng.random() < 0.5 else 0 for _ in p.gens]
                return tuple(v)

            a, b = rand_vec(small), rand_vec(small)
            lifted = decide_equal(
                big.vector(small.loops(a)), big.vector(small.loops(b)), big
            )
            assert decide_equal(a, b, small) == lifted
            checked += 1
    assert checked == 200
    report(9, f"{checked} pairs: stage-N and stage-N+2 verdicts coincide exactly")


def test_criterion_10_semantic_grounding(fig1, nonconfluent_left, full_shift2):
    cases = [
        (fig1, ("B", "G")),
        (nonconfluent_left, ("R", "B")),
        (full_shift2, ("v",)),
    ]
    total = 0
    for g, base in cases:
        agree = 0
        for seed in range(1000):
            f = random_element(g, base, GeneratorConfig(seed=seed, growth_steps=2))
            if seed % 3 == 0:
                # planted equal pair written differently
                h = random_element(g, base, GeneratorConfig(seed=seed + 90000, growth_steps=1))
                other = compose_pairs(g, compose_pairs(g, f, h), invert_pair(h))
            else:
                other = random_element(g, base, GeneratorConfig(seed=seed + 90000, growth_steps=2))
            depth = max(
                len(w.edges) for w in f.domain_leaves + other.domain_leaves
            )
            syntactic = equal(from_forest_pair(g, f), from_forest_pair(g, other))
            semantic = semantic_equal(g, f, other, depth=depth)
            assert syntactic == semantic
            agree += 1
        assert agree == 1000
        total += agree
    report(10, f"{total} pairs: diagram equality matches word-by-word evaluation exactly")
