import hashlib
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandshift import conjugacy
from strandshift.closed import (
    ClosedDiagram,
    _edited,
    _loops,
    _push_coboundary,
    _Stack,
    close,
    components,
    decompose_parts,
    permute_base,
    replay,
    semi_reduce,
    shift_directions,
    shift_expand,
    skeleton,
    type3_expand,
    type3_reduce,
)
from strandshift.conjugacy import (
    _class_key,
    _moves_onto,
    _reduced_cocycle,
    analyze,
    compare_split_merge,
    conjugator_witness,
    is_conjugate,
    solve_integer,
)
from strandshift.diagrams import (
    _least_serialization,
    canonical_key,
    compose,
    equal,
    from_forest_pair,
    identity_diagram,
    invert,
    reduce,
)
from strandshift.errors import LimitExceeded, SignatureMismatch
from strandshift.forest import ForestPair
from strandshift.graphs import PathWord
from strandshift.testkit import (
    GeneratorConfig,
    _color_bijections,
    base_colors,
    brute_conjugate,
    coboundary_solution,
    conjugator_of,
    enumerate_forests,
    juxtapose,
    random_element,
    random_graph,
    reference_compare_split_merge,
    reference_fold_conjugators,
    reference_similarity,
    similar_by_search,
    split_diagram,
)
from strandshift.textio import parse_graph

from test_closed import apply_moves, record, renumbered

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def caret_loop(fig1, color="B", edges=("1", "2")):
    leaves = tuple(PathWord(0, (e,)) for e in edges)
    return close(from_forest_pair(fig1, ForestPair(leaves, leaves, (color,))))


def disjoint_union(*parts):
    """One closed diagram holding relabeled copies of `parts`, the first part's ids least."""
    pc, sc, sf, st, ins, outs = {}, {}, {}, {}, {}, {}
    base = []
    off = 0
    for c in parts:
        pc.update({p + off: color for p, color in c.point_color.items()})
        sc.update({s + off: color for s, color in c.strand_color.items()})
        sf.update({s + off: p + off for s, p in c.strand_from.items()})
        st.update({s + off: p + off for s, p in c.strand_to.items()})
        ins.update({p + off: [s + off for s in slots] for p, slots in c.in_slots.items()})
        outs.update({p + off: [s + off for s in slots] for p, slots in c.out_slots.items()})
        base += [b + off for b in c.base_line]
        off += 1 + max([*c.point_color, *c.strand_color])
    return ClosedDiagram(pc, sc, sf, st, ins, outs, base)


def element(g, base, seed, steps=2):
    return from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=seed, growth_steps=steps)))


def conjugate_by(h, f):
    return reduce(compose(compose(h, f), invert(h)))


def test_skeleton_counts(fig1):
    # split feeding a merge through two strands, with the single base point on
    # the return strand; after a shift the base points sit on the child strands
    c = caret_loop(fig1)
    sk = skeleton(c)
    assert sorted(sk.cocycle.values()) == [0, 0, 1]
    shifted, _ = shift_expand(c, 0, "down")
    sk2 = skeleton(shifted)
    assert sorted(sk2.cocycle.values()) == [0, 1, 1]


def test_skeleton_empty_part(fig1, base_bg):
    part, _ = decompose_parts(close(identity_diagram(base_bg)))
    sk = skeleton(part)
    assert sk.point_color == {}


def test_compare_split_merge_identity_witness(fig1):
    sk = skeleton(caret_loop(fig1))
    ((comp_a, comp_b, phi, x),) = compare_split_merge(sk, sk)
    assert phi == {p: p for p in comp_a}
    assert set(x.values()) <= {0}


def test_compare_split_merge_shifted_copy(fig1):
    c = caret_loop(fig1)
    shifted, _ = shift_expand(c, 0, "down")
    a, b = skeleton(c), skeleton(shifted)
    ((comp_a, _, phi, x),) = compare_split_merge(a, b)
    # the coboundary solution moves one base point through one point
    rows = {}
    for p in comp_a:
        for s in a.out_slots[p]:
            diff = a.cocycle[s] - b.cocycle[b.out_slots[phi[p]][a.out_slots[p].index(s)]]
            rows[s] = diff
    for s, diff in rows.items():
        assert diff == x[a.strand_from[s]] - x[a.strand_to[s]]


def satisfies(x, edges, d):
    return all(x[u] - x[v] == di for (u, v), di in zip(edges, d))


def random_edges(rng, n, max_edges):
    # any pairs of points: self-loops, parallel edges and isolated points allowed
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, max_edges))]


def closed_trail_sums(edges, d):
    """Signed d-sums of every closed trail; traversing (u, v) backwards counts -d."""
    sums = set()

    def walk(start, at, used, total):
        for i, (u, v) in enumerate(edges):
            if i in used:
                continue
            for a, b, sign in ((u, v, 1), (v, u, -1)):
                if a == at:
                    if b == start:
                        sums.add(total + sign * d[i])
                    walk(start, b, used | {i}, total + sign * d[i])

    for start in {p for e in edges for p in e}:
        walk(start, start, frozenset(), 0)
    return sums


def test_solve_integer_hand_example():
    # a triangle: consistent exactly when the detour 0 -> 1 -> 2 matches 0 -> 2
    edges = [(0, 1), (1, 2), (0, 2)]
    assert solve_integer(edges, [2, 3, 5]) == {0: 0, 1: -2, 2: -5}
    assert solve_integer(edges, [2, 3, 4]) is None
    assert solve_integer([("a", "a")], [0]) == {"a": 0}
    assert solve_integer([("a", "a")], [1]) is None
    assert solve_integer([], []) == {}


def test_solve_integer_planted_solution():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        edges = random_edges(rng, n, 9)
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        d = [x0[u] - x0[v] for u, v in edges]
        x = solve_integer(edges, d)
        assert x is not None and satisfies(x, edges, d)
        assert set(x) == {p for e in edges for p in e}


def test_solve_integer_none_exactly_when_a_cycle_sum_is_nonzero():
    # with |d| <= 1 on at most 4 points, a solution that is 0 at one point of
    # each connected piece lies in [-3, 3], so the box search is exhaustive
    rng = random.Random(9)
    counts = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 4)
        edges = random_edges(rng, n, 5)
        d = [rng.randint(-1, 1) for _ in edges]
        x = solve_integer(edges, d)
        solvable = x is not None
        assert solvable == all(total == 0 for total in closed_trail_sums(edges, d))
        box = any(satisfies(y, edges, d) for y in itertools.product(range(-3, 4), repeat=n))
        assert solvable == box
        if solvable:
            assert satisfies(x, edges, d)
        counts[solvable] += 1
    assert min(counts.values()) >= 30


def test_compare_split_merge_distinguishes_colors(fig1):
    # same shape over different colors: B-caret loop vs G-caret loop
    a = skeleton(caret_loop(fig1))
    b = skeleton(caret_loop(fig1, "G", ("3", "4")))
    assert compare_split_merge(a, b) is None


def assert_similarity_witness(a, b, pairs):
    """Each phi that step 2 matched between skeletons a and b is a color-
    and slot-preserving isomorphism of its components, and each x solves
    its coboundary rows."""
    assert sorted(ca for ca, _, _, _ in pairs) == components(a)
    assert sorted(cb for _, cb, _, _ in pairs) == components(b)
    for comp_a, comp_b, phi, x in pairs:
        assert sorted(phi) == list(comp_a) and sorted(phi.values()) == list(comp_b)
        for p in comp_a:
            q = phi[p]
            assert a.point_color[p] == b.point_color[q]
            assert (len(a.in_slots[p]), len(a.out_slots[p])) == (len(b.in_slots[q]), len(b.out_slots[q]))
            for s, t in zip(a.out_slots[p], b.out_slots[q]):
                assert a.strand_color[s] == b.strand_color[t]
                assert phi[a.strand_to[s]] == b.strand_to[t]
                assert a.in_slots[a.strand_to[s]].index(s) == b.in_slots[b.strand_to[t]].index(t)
                assert a.cocycle[s] - b.cocycle[t] == x[p] - x[a.strand_to[s]]


def test_compare_split_merge_matches_crosswise(fig1):
    # A + B against B' + A': A's first partner in id order is B', which is not
    # similar to A, so A takes A' and B takes B'
    a, b = caret_loop(fig1), caret_loop(fig1, "G", ("3", "4"))
    a2, b2 = shift_expand(a, 0, "down")[0], shift_expand(b, 0, "down")[0]
    assert compare_split_merge(skeleton(a), skeleton(b2)) is None
    left, right = skeleton(disjoint_union(a, b)), skeleton(disjoint_union(b2, a2))
    match = compare_split_merge(left, right)
    assert match is not None
    (comp_a, comp_b), (comp_b2, comp_a2) = components(left), components(right)
    assert [pair[:2] for pair in match] == [(comp_a, comp_a2), (comp_b, comp_b2)]
    assert_similarity_witness(left, right, match)


def test_compare_split_merge_needs_a_partner_for_every_component(fig1):
    # A + A against A + B, with B not similar to A
    a, b = caret_loop(fig1), caret_loop(fig1, "G", ("3", "4"))
    assert compare_split_merge(skeleton(disjoint_union(a, a)), skeleton(disjoint_union(a, b))) is None
    assert compare_split_merge(skeleton(disjoint_union(a, b)), skeleton(disjoint_union(a, b))) is not None


def test_is_conjugate_reflexive_and_negative(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    assert is_conjugate(d, d, fig1).conjugate
    res = is_conjugate(identity_diagram(base_bg), d, fig1)
    assert not res.conjugate
    assert res.step_failed == 3  # both split-merge parts are empty; loops differ


def test_is_conjugate_signature_mismatch(fig1):
    res = is_conjugate(identity_diagram(("B",)), identity_diagram(("G",)), fig1)
    assert not res.conjugate and res.step_failed == 0
    with pytest.raises(SignatureMismatch):
        is_conjugate(identity_diagram(("B",)), split_diagram(("B",), 0, ("G", "R")), fig1)


def test_is_conjugate_step2_failure(full_shift2, thompson_x0):
    d = from_forest_pair(full_shift2, thompson_x0)
    res = is_conjugate(d, identity_diagram(("v",)), full_shift2)
    assert not res.conjugate and res.step_failed == 2


def test_is_conjugate_soundness_fuzz(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    for seed in range(25):
        h = element(fig1, base_bg, seed + 3000)
        res = is_conjugate(d, conjugate_by(h, d), fig1)
        assert res.conjugate, seed


def test_is_conjugate_symmetric(fig1, base_bg):
    for seed in range(12):
        f = element(fig1, base_bg, seed)
        g = element(fig1, base_bg, seed + 4000)
        assert is_conjugate(f, g, fig1).conjugate == is_conjugate(g, f, fig1).conjugate


def test_is_conjugate_invariant_under_prereduction(fig1, base_bg):
    for seed in range(8):
        f = element(fig1, base_bg, seed)
        g = element(fig1, base_bg, seed + 5000)
        unreduced = compose(compose(f, g), invert(g))  # equals f, but carries junk
        assert (
            is_conjugate(unreduced, g, fig1).conjugate
            == is_conjugate(reduce(unreduced), g, fig1).conjugate
        )


def test_verdict_record_schema(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    rec = is_conjugate(d, identity_diagram(base_bg), fig1).record()
    assert rec["schema_version"] == 1
    assert set(rec) == {
        "schema_version",
        "verdict",
        "step_failed",
        "reason",
        "semi_reduced_sizes",
        "loop_multisets",
        "witness_available",
    }
    assert rec["verdict"] == "not-conjugate"


def test_step2_matches_bruteforce_on_shifted_parts(fig1, base_bg):
    # positive and negative instances for the similarity search oracle
    for seed in range(6):
        f = element(fig1, base_bg, seed, steps=2)
        semi, _ = semi_reduce(close(f))
        part, _ = decompose_parts(semi)
        if not part.point_color:
            continue
        shifted = part
        for i in range(len(part.base_line)):
            dirs = shift_directions(part, i)
            if dirs:
                shifted, _ = shift_expand(part, i, dirs[0])
                break
        assert (compare_split_merge(skeleton(part), skeleton(shifted)) is not None) == (
            similar_by_search(part, shifted) is True
        )


def shifted_parts(g, base, steps, seeds, rng):
    """Semi-reduced split-merge parts and copies moved by 1-3 random expanding shifts."""
    for seed in seeds:
        semi, _ = semi_reduce(close(element(g, base, seed, steps)))
        part, _ = decompose_parts(semi)
        if not part.point_color or len(part.base_line) > 6:
            continue
        other = part
        for _ in range(rng.randint(1, 3)):
            moves = [(i, d) for i in range(len(other.base_line)) for d in shift_directions(other, i)]
            if not moves:
                break
            other, _ = shift_expand(other, *moves[rng.randrange(len(moves))])
        yield part, other


def has_perfect_matching(a, b):
    """Exhaustive step 2: some bijection of components pairs only components
    the reference isomorphism search finds similar."""
    comps_a, comps_b = components(a), components(b)
    if len(comps_a) != len(comps_b):
        return False
    similar = [[reference_similarity(a, ca, b, cb) is not None for cb in comps_b] for ca in comps_a]
    return any(
        all(similar[i][j] for i, j in enumerate(perm)) for perm in itertools.permutations(range(len(comps_b)))
    )


def similarity_pool(fig1, base_bg):
    """Skeletons of parts, each with two independently shifted copies, then
    unions of two parts: A + B, B' + A'' (similar to it, matched crosswise)
    and A' + A''.  Random parts are connected; only the unions are not."""
    graphs = [(*random_graph(GeneratorConfig(seed=s)), 3) for s in (1, 3)] + [(fig1, base_bg, 4)]
    triples = []
    for g, base, steps in graphs:
        copies = zip(
            shifted_parts(g, base, steps, range(12), random.Random(23)),
            shifted_parts(g, base, steps, range(12), random.Random(29)),
        )
        triples += [(part, first, second) for (part, first), (_, second) in copies]
    unions = []
    for (a, a1, a2), (b, b1, _) in zip(triples[:8], triples[1:9]):
        unions += [disjoint_union(a, b), disjoint_union(b1, a2), disjoint_union(a1, a2)]
    return [skeleton(c) for c in [*itertools.chain(*triples), *unions]]


def test_key_matching_is_an_exact_equivalence(fig1, base_bg):
    """Matching components by class key finds a perfect matching of
    similar components exactly when one exists, similarity taken from the
    reference isomorphism search."""
    pool = similarity_pool(fig1, base_bg)
    n = len(pool)
    similar = {(i, j): compare_split_merge(pool[i], pool[j]) is not None for i in range(n) for j in range(n)}
    for (i, j), sim in similar.items():
        assert sim == similar[j, i]
        assert sim == has_perfect_matching(pool[i], pool[j])
    for i, j, k in itertools.product(range(n), repeat=3):
        assert not (similar[i, j] and similar[j, k]) or similar[i, k]
    assert n >= 60 and sum(len(components(sk)) > 1 for sk in pool) >= 20
    assert 100 <= sum(similar.values()) - n < n * (n - 1) // 2


def test_compare_split_merge_agrees_with_the_reference_search(fig1, base_bg):
    """Class keys against the isomorphism search on every pair of
    :func:`similarity_pool` and on the pairs behind the step-2 digest."""
    pool = similarity_pool(fig1, base_bg)
    cases = list(itertools.product(pool, repeat=2))
    for _, f, rhs in digest_pairs():
        cases.append((skeleton(analyze(f).part), skeleton(analyze(rhs).part)))
    similar = 0
    for a, b in cases:
        match = compare_split_merge(a, b)
        assert (match is None) == (reference_compare_split_merge(a, b) is None)
        if match is not None:
            assert_similarity_witness(a, b, match)
            similar += 1
    assert similar >= 150 and len(cases) - similar >= 1000


def keys(part):
    """The sorted class keys of the components of a part's skeleton."""
    sk = skeleton(part)
    return sorted(_class_key(sk, comp)[0] for comp in components(sk))


def test_class_keys_ignore_ids_shifts_and_base_order(fig1, base_bg):
    rng = random.Random(41)
    graphs = [(*random_graph(GeneratorConfig(seed=s)), 3) for s in (1, 2, 3)] + [(fig1, base_bg, 4)]
    checked = 0
    for g, base, steps in graphs:
        for part, shifted in shifted_parts(g, base, steps, range(20), rng):
            key = keys(part)
            perm = list(range(len(part.base_line)))
            rng.shuffle(perm)
            assert keys(renumbered(part, rng)) == key
            assert keys(shifted) == key
            assert keys(permute_base(part, perm)[0]) == key
            checked += 1
    assert checked >= 20


def caret_cycle(marked):
    """Two carets of the full shift in a directed cycle, split -> merge ->
    split -> merge, with one base point on the chain back to the first split
    and one on caret strand `marked` (0 and 1 the first caret's, 2 and 3 the
    second's).  Swapping the carets is an automorphism of the skeleton, so
    the two merges tie on serialization; the base point on one caret tells
    their reduced cocycles apart."""
    pc = dict.fromkeys(range(6), "v")
    sc, sf, st = {}, {}, {}
    ins, outs = {p: [] for p in pc}, {p: [] for p in pc}

    def strand(u, v):
        s = 10 + len(sc)
        sc[s], sf[s], st[s] = "v", u, v
        outs[u].append(s)
        ins[v].append(s)

    for k, (split, merge) in enumerate(((0, 1), (2, 3))):
        for j in range(2):
            if 2 * k + j == marked:
                strand(split, 5)
                strand(5, merge)
            else:
                strand(split, merge)
    strand(1, 2)
    strand(3, 4)
    strand(4, 0)
    return ClosedDiagram(pc, sc, sf, st, ins, outs, [4, 5])


def test_reduced_cocycle_breaks_ties_between_automorphic_anchors():
    parts = [caret_cycle(marked) for marked in range(4)]
    for part in parts:
        sk = skeleton(part)
        ((comp,),) = [components(sk)]
        _, orders = _least_serialization(sk, [(p,) for p in comp])
        assert len({_reduced_cocycle(sk, order)[0] for order in orders}) == 2
    # the first tied anchors of parts 0 and 2 pair the marked caret with the unmarked one
    a, b = skeleton(parts[0]), skeleton(parts[2])
    first = [_least_serialization(sk, [(p,) for p in components(sk)[0]])[1][0] for sk in (a, b)]
    assert coboundary_solution(a, components(a)[0], b, dict(zip(*first))) is None
    shifted = [shift_expand(part, 0, "down")[0] for part in parts]
    # the carets' cycle sums: base points on strand 0 or 2 against 1 or 3
    expected = {(i, j): i % 2 == j % 2 for i in range(4) for j in range(4)}
    for (i, j), similar in expected.items():
        for a, b in ((parts[i], parts[j]), (parts[i], shifted[j])):
            match = compare_split_merge(skeleton(a), skeleton(b))
            assert (match is not None) == similar
            assert (reference_compare_split_merge(skeleton(a), skeleton(b)) is not None) == similar
            if similar:
                assert_similarity_witness(skeleton(a), skeleton(b), match)
                assert similar_by_search(a, b)


def test_skeleton_drops_loop_components(fig1, base_bg):
    tables = ("point_color", "strand_color", "strand_from", "strand_to", "in_slots", "out_slots", "cocycle")
    with_loops = 0
    for seed in range(30):
        c = close(element(fig1, base_bg, seed, steps=2 + seed % 3))
        for d in (c, semi_reduce(c)[0]):
            part, loops = decompose_parts(d)
            with_loops += bool(loops and part.point_color)
            sk, expected = skeleton(d), skeleton(part)
            assert [getattr(sk, t) for t in tables] == [getattr(expected, t) for t in tables]
    assert with_loops >= 5


def digest_pairs():
    """(graph, f, rhs) on random graphs 1-5: each element with a planted
    conjugate, itself and another element."""
    out = []
    for gseed in range(1, 6):
        g, base = random_graph(GeneratorConfig(seed=gseed))
        for e in range(6):
            f, h, other = (element(g, base, s, steps=2 + e % 5) for s in (e, e + 500, e + 1000))
            out += [(g, f, rhs) for rhs in (reduce(compose(compose(invert(h), f), h)), f, other)]
    return out


def test_step2_pairs_match_recorded_digest(fig1, base_bg):
    """Pins step 2's matched components, isomorphisms and coboundary solutions.

    On random graphs 1-5, each element is paired with a planted conjugate,
    itself and another element; then every pair of the multi-component
    skeletons of :func:`similarity_pool` is matched.  A solution is fixed
    only up to a constant on its component, so the digest holds it as
    x[p] - x[least point].
    """

    def pairs(match):
        return match and [
            (ca, cb, sorted(phi.items()), sorted((p, x[p] - x[min(ca)]) for p in x)) for ca, cb, phi, x in match
        ]

    records = []
    for g, f, rhs in digest_pairs():
        res = is_conjugate(f, rhs, g)
        records.append((res.conjugate, res.step_failed, pairs(res.match)))
    unions = [sk for sk in similarity_pool(fig1, base_bg) if len(components(sk)) > 1]
    records += [pairs(compare_split_merge(a, b)) for a in unions for b in unions]
    assert sum(r is not None for r in records[-len(unions) ** 2 :]) >= 40
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "2aea0995fd48cb2e"


def test_move_records_match_recorded_digest(fig1, base_bg):
    """Pins every move's kind, data and conjugator: both sides' Step 1 traces
    and the witness's moves onto the second side, for sixty fig1 elements f
    at growth 3-8 and g = h^-1 f h with h at growth 2.  Replaying checks a
    trace only up to the diagram it rebuilds; this also fixes the positions
    and layers that witness assembly reads."""
    records, kinds = [], Counter()
    for e in range(60):
        f, h = element(fig1, base_bg, e, steps=3 + e % 6), element(fig1, base_bg, 500 + e)
        res = is_conjugate(f, reduce(compose(compose(invert(h), f), h)), fig1)
        a, b = res.analyses
        for moves in (a.trace, b.trace, _moves_onto(res, fig1, None)):
            records.append([(m.kind, m.data, m.conj) for m in moves])
            kinds.update(m.kind for m in moves)
    assert kinds == {"shift-expand": 605, "shift-reduce": 11, "permute": 45, "type3-expand": 5, "reduce": 965}
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "94711ba0c70fae94"


def test_step2_coboundary_is_the_spanning_tree_solution_up_to_a_constant(fig1, base_bg):
    """On every matched pair of the step-2 digest's matches, the coboundary
    that step 2 reads off the class keys' tree potentials differs from the
    spanning-tree solution of the incidence system by one constant."""
    cases = []
    for g, f, rhs in digest_pairs():
        res = is_conjugate(f, rhs, g)
        cases.append((*(skeleton(side.part) for side in res.analyses), res.match))
    unions = [sk for sk in similarity_pool(fig1, base_bg) if len(components(sk)) > 1]
    cases += [(a, b, compare_split_merge(a, b)) for a in unions for b in unions]
    checked = shifted = 0
    for a, b, match in cases:
        for comp_a, _, phi, x in match or ():
            ref = coboundary_solution(a, comp_a, b, phi)
            assert set(x) == set(comp_a) and len({x[p] - ref[p] for p in comp_a}) == 1
            checked += 1
            shifted += len(set(x.values())) > 1
    assert checked >= 90 and shifted >= 30


def test_push_coboundary_is_a_shortest_realization(fig1, base_bg):
    """The pushes carry each matched component's cocycle onto its image's,
    by the fewest pushes that any constant allows.  A push is one shift
    move, with a permutation before it when it gathers base points: forward
    pushes shift down and backward ones up, and some plan takes both."""
    rng = random.Random(17)
    graphs = [(*random_graph(GeneratorConfig(seed=s)), 3) for s in (1, 3)] + [(fig1, base_bg, 4)]
    plans = mixed = 0
    for g, base, steps in graphs:
        for part, other in shifted_parts(g, base, steps, range(30), rng):
            for a, b in ((part, other), (other, part)):
                sk_a, sk_b = skeleton(a), skeleton(b)
                match = compare_split_merge(sk_a, sk_b)
                assert match is not None
                cur = a
                for comp_a, _, phi, x in match:
                    cur, moves = _edited(cur, _push_coboundary, comp_a, x)
                    shifts = [mv for mv in moves if mv.kind != "permute"]
                    assert len(shifts) == min(sum(abs(m - x[p]) for p in comp_a) for m in x.values())
                    mixed += {mv.data[1] for mv in shifts} == {"down", "up"}
                    target = {
                        s: sk_b.cocycle[sk_b.out_slots[phi[p]][j]]
                        for p in comp_a
                        for j, s in enumerate(sk_a.out_slots[p])
                    }
                    counts = skeleton(cur).cocycle
                    assert {s: counts[s] for s in target} == target
                    plans += bool(shifts)
    assert plans >= 60
    assert mixed >= 1


def direct_summands(fig1):
    """fig1 elements on [B], growth 7-8, whose semi-reduced split-merge part is not empty."""
    summands = []
    for seed in range(40):
        fp = random_element(fig1, ("B",), GeneratorConfig(seed=seed, growth_steps=7 + seed % 2))
        if analyze(from_forest_pair(fig1, fp)).part.point_color:
            summands.append(fp)
    return summands


def test_direct_sums_match_two_components_with_verified_witnesses(fig1):
    """Step 2's matching between components, and the witness over it.

    On base [B, B], f1 + f2 is conjugate to f2 + f1 (by the block swap) and
    to a planted conjugate.  The summands are fig1 elements on [B] whose own
    semi-reduced split-merge part is not empty, so each sum's skeleton has
    two components.
    """
    summands = direct_summands(fig1)
    two = 0
    for i, (f1, f2) in enumerate(zip(summands[::2], summands[1::2])):
        f = from_forest_pair(fig1, juxtapose(f1, f2))
        h = element(fig1, ("B", "B"), 500 + i)
        for g in (from_forest_pair(fig1, juxtapose(f2, f1)), conjugate_by(invert(h), f)):
            res = is_conjugate(f, g, fig1)
            assert res.conjugate
            two += len(res.match) == 2
            w = conjugator_witness(f, g, res, fig1)
            assert w is not None and equal(compose(compose(w, g), invert(w)), f)
    assert two >= 10


def test_direct_sums_with_dissimilar_summands_fail_at_step_2(fig1):
    """f1 + f2 against f1 + f3 and f3 + f1, where f2 and f3 alone fail at step 2.

    A sum's split-merge part is the disjoint union of its summands' parts,
    and a multiset of similarity classes cancels, so the sums must fail at
    step 2 as well: the matching may not pair a component of f1 with f3's.
    """
    summands = direct_summands(fig1)
    checked = 0
    for f1, f2, f3 in zip(summands, summands[1:], summands[2:]):
        if is_conjugate(from_forest_pair(fig1, f2), from_forest_pair(fig1, f3), fig1).step_failed != 2:
            continue
        lhs = from_forest_pair(fig1, juxtapose(f1, f2))
        for rhs in (juxtapose(f1, f3), juxtapose(f3, f1)):
            res = is_conjugate(lhs, from_forest_pair(fig1, rhs), fig1)
            assert not res.conjugate and res.step_failed == 2
            checked += 1
    assert checked >= 10


def test_witness_builds_no_conjugator_diagram_and_reduces_once(fig1, base_bg, monkeypatch):
    """The witness stacks every move's layer in place and the stack is
    reduced once.  It cannot build a conjugator diagram, since
    `conjugator_of` lives in `testkit`, which no pipeline module imports
    (see tests/test_testkit.py)."""
    reduced = []

    def recording_reduce(d):
        reduced.append(d)
        return reduce(d)

    monkeypatch.setattr("strandshift.conjugacy.reduce", recording_reduce)
    reductions = 0
    for seed in range(10):
        f, h = element(fig1, base_bg, seed, steps=4), element(fig1, base_bg, seed + 500)
        g = conjugate_by(invert(h), f)
        res = is_conjugate(f, g, fig1)
        reduced.clear()
        assert conjugator_witness(f, g, res, fig1) is not None
        assert len(reduced) == 1
        reductions += sum(mv.kind == "reduce" for a in res.analyses for mv in a.trace)
    assert reductions >= 10


def planted_pairs(fig1, base_bg):
    """(graph, f, g, result) for planted conjugates: fig1 at growth 4, the
    seed 8/1008 fig1 pair whose loop parts differ, and random graphs 0-2."""
    pairs = []
    for seed in range(10):
        f, h = element(fig1, base_bg, seed, steps=4), element(fig1, base_bg, seed + 500)
        pairs.append((fig1, f, conjugate_by(invert(h), f)))
    f, h = element(fig1, base_bg, 8, steps=3), element(fig1, base_bg, 1008, steps=3)
    pairs.append((fig1, f, conjugate_by(h, f)))
    for gseed in range(3):
        g, base = random_graph(GeneratorConfig(seed=gseed, max_vertices=4))
        for seed in range(5):
            f = element(g, base, seed)
            pairs.append((g, f, conjugate_by(element(g, base, seed + 31000), f)))
    return [(g, f, target, is_conjugate(f, target, g)) for g, f, target in pairs]


def type3_pair(fig1, semi):
    """(semi, moves): the permutation that brings the first G loop of winding
    2 of `semi` to the front, type3-expand splitting it into two blocks, and
    type3 merging them back."""
    points = next(pts for color, pts in _loops(semi) if color == "G" and len(pts) == 2)
    front = [semi.base_line.index(p) for p in points]
    c, to_front = permute_base(semi, front + [i for i in range(len(semi.base_line)) if i not in front])
    c, expand = type3_expand(c, fig1, 0, 2, "G")
    _, merge = type3_reduce(c, fig1, 0, 2, 2)
    return semi, [to_front, expand, merge]


def test_stack_layer_is_the_conjugator_of_its_move(fig1, base_bg):
    """One glued layer equals conjugator_of(move), and its inverse layer the
    inverse diagram, for real moves of all six kinds: the traces and the
    moves onto b of planted pairs, and the seed 8/1008 pair's G loop of
    winding 2 split into two blocks by type3-expand and merged back."""
    pairs = planted_pairs(fig1, base_bg)
    runs = []  # (diagram, moves from it, graph)
    for g, _, _, res in pairs:
        a, b = res.analyses
        runs += [(a.closed, _moves_onto(res, g, None), g), (b.closed, b.trace, g)]
    runs.append((*type3_pair(fig1, pairs[10][3].analyses[0].semi), fig1))
    layers = []  # (move, base colors before it, after it)
    for c, moves, g in runs:
        states = apply_moves(c, moves, g)
        layers += [(mv, base_colors(s), base_colors(t)) for s, t, mv in zip(states, states[1:], moves)]

    assert {mv.kind for mv, _, _ in layers} == {"shift-expand", "shift-reduce", "permute", "reduce", "type3", "type3-expand"}
    # a permutation that is not its own inverse tells the two directions apart
    assert any(mv.kind == "permute" and any(mv.conj[0][j] != i for i, j in enumerate(mv.conj[0])) for mv, _, _ in layers)
    for mv, before, after in layers:
        up = _Stack(before)
        up.glue(mv)
        assert equal(up.diagram(), conjugator_of(mv, before, after)), mv
        down = _Stack(after)
        down.glue(mv, inverse=True)
        assert equal(down.diagram(), invert(conjugator_of(mv, before, after))), mv


def test_moves_take_new_ids_above_every_id_in_use(fig1, base_bg):
    """Every id comes from the one allocator, `_Builder.fresh`.  Replayed
    on one copy, as Step 1 and the witness run them, through the traces and
    the moves onto b of the planted fig1 pairs and the type3-expand/type3
    pair: no id names both a point and a strand, the ids a move adds are
    the consecutive run from 1 + the largest id of the diagram before it,
    and the move adds the same ids when replayed alone on that diagram.  A
    type 3 edit's run is its new points in base order, then its strands
    loop by loop.  A new builder numbers from 0, and compose moves b's ids
    up by 1 + the largest id of a."""
    pairs = planted_pairs(fig1, base_bg)[:11]
    runs = [type3_pair(fig1, pairs[10][3].analyses[0].semi)]
    for g, _, _, res in pairs:
        a, b = res.analyses
        runs += [(a.closed, _moves_onto(res, g, None)), (b.closed, b.trace)]
    adding = set()
    for c, moves in runs:
        before = c
        for i, mv in enumerate(moves, 1):
            after = replay(c, moves[:i], fig1)
            assert not set(after.point_color) & set(after.strand_color), mv
            first = 1 + max([*before.point_color, *before.strand_color])
            new = {*after.point_color, *after.strand_color}.difference(before.point_color, before.strand_color)
            assert sorted(new) == list(range(first, first + len(new))), mv
            if mv.kind in ("type3", "type3-expand"):
                start, _, kids, k = mv.conj
                d = 1 if mv.kind == "type3" else len(kids)
                block = list(after.base_line[start : start + k * d])
                assert block == list(range(first, first + k * d)), mv
                strands = [after.out_slots[p][0] for j in range(d) for p in block[j::d]]
                assert strands == list(range(first + k * d, first + 2 * k * d)), mv
            assert record(replay(before, [mv], fig1)) == record(after), mv
            if new:
                adding.add(mv.kind)
            before = after
    assert adding == {"shift-expand", "shift-reduce", "type3", "type3-expand"}

    for colors in (("B", "G"), ("R", "B", "G", "G")):
        for d in (identity_diagram(colors), _Stack(colors).diagram()):
            assert sorted([*d.point_color, *d.strand_color]) == list(range(3 * len(colors)))
    for _, f, g, _ in pairs:
        offset = 1 + max([*f.point_color, *f.strand_color])
        glued = compose(f, g)
        assert glued.sinks == tuple(p + offset for p in g.sinks)
        kept_b = {p + offset for p in g.point_color}.difference(p + offset for p in g.sources)
        assert set(glued.point_color) == set(f.point_color).difference(f.sinks) | kept_b


def test_witness_stack_matches_the_reference_fold(fig1, base_bg):
    """The witness is h_a^-1 . h_b for the folded conjugators of a's moves
    onto b and of b's trace."""
    for g, f, target, res in planted_pairs(fig1, base_bg):
        a, b = res.analyses
        ref_a = reference_fold_conjugators(a.closed, _moves_onto(res, g, None), g)
        ref_b = reference_fold_conjugators(b.closed, b.trace, g)
        h = conjugator_witness(f, target, res, g)
        assert h is not None
        assert canonical_key(h) == canonical_key(reduce(compose(invert(ref_a), ref_b)))


def test_witness_for_equal_elements_is_identity_class(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    res = is_conjugate(d, d, fig1)
    w = conjugator_witness(d, d, res, fig1)
    assert w is not None
    assert equal(compose(compose(w, d), invert(w)), d)


def test_witness_is_none_without_a_verdict_or_past_its_check(fig1, sigma, monkeypatch):
    """The witness's guards: a result that is not conjugate gets no witness,
    and neither does a conjugate pair whose one check, h g h^-1 = f, fails
    (forced here)."""
    d = from_forest_pair(fig1, sigma)
    e = identity_diagram(d.domain())
    res = is_conjugate(d, e, fig1)
    assert not res.conjugate and res.analyses
    assert conjugator_witness(d, e, res, fig1) is None
    res = is_conjugate(d, d, fig1)
    assert conjugator_witness(d, d, res, fig1) is not None
    monkeypatch.setattr(conjugacy, "equal", lambda a, b: False)
    assert conjugator_witness(d, d, res, fig1) is None


def test_witness_verifies_on_fuzz(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    for seed in range(15):
        h = element(fig1, base_bg, seed + 8000)
        g = conjugate_by(h, d)
        res = is_conjugate(d, g, fig1)
        assert res.conjugate
        w = conjugator_witness(d, g, res, fig1)
        assert w is not None
        assert equal(compose(compose(w, g), invert(w)), d)


def test_witness_realizes_type3_moves(fig1, base_bg):
    # this planted pair semi-reduces to different loop multisets related by the
    # child-sum relation, so the witness must replay an actual type 3 move
    f = element(fig1, base_bg, 0, steps=3)
    h = element(fig1, base_bg, 1000, steps=3)
    g = conjugate_by(h, f)
    la = decompose_parts(semi_reduce(close(f))[0])[1]
    lb = decompose_parts(semi_reduce(close(g))[0])[1]
    assert la != lb
    res = is_conjugate(f, g, fig1)
    assert res.conjugate
    w = conjugator_witness(f, g, res, fig1)
    assert w is not None
    assert equal(compose(compose(w, g), invert(w)), f)


def test_witness_cap_is_best_effort(nonconfluent_left):
    # this pair's semi-reduced loop parts are congruent, but every relation
    # path between them passes through degree 4; with the cap clamped at the
    # input degree 3 the witness search gives up, with headroom it succeeds
    g = nonconfluent_left
    base = ("R", "B")
    f = element(g, base, 36)
    h = element(g, base, 36 + 5555)
    target = conjugate_by(h, f)
    la = decompose_parts(semi_reduce(close(f))[0])[1]
    lb = decompose_parts(semi_reduce(close(target))[0])[1]
    assert la != lb and sum(la.values()) == 3 and sum(lb.values()) == 3
    res = is_conjugate(f, target, g)
    assert res.conjugate
    assert conjugator_witness(f, target, res, g, semigroup_cap=3) is None
    w = conjugator_witness(f, target, res, g)
    assert w is not None
    assert equal(compose(compose(w, target), invert(w)), f)


def test_witness_fuzz_over_random_graphs():
    verified = 0
    for gseed in range(3):
        g, base = random_graph(GeneratorConfig(seed=gseed, max_vertices=4))
        for seed in range(10):
            f = element(g, base, seed)
            h = element(g, base, seed + 31000)
            target = conjugate_by(h, f)
            res = is_conjugate(f, target, g)
            assert res.conjugate
            w = conjugator_witness(f, target, res, g)
            assert w is not None
            assert equal(compose(compose(w, target), invert(w)), f)
            verified += 1
    assert verified == 30


# fig1 and the binary full shift, then random graphs by generator seed
_PLANTED_GRAPHS = st.one_of(
    st.sampled_from([parse_graph((FIXTURES / f"{name}.graph").read_text()) for name in ("three_color", "full_shift2")]),
    st.integers(0, 40).map(lambda seed: random_graph(GeneratorConfig(seed=seed))),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_PLANTED_GRAPHS, st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 3))
def test_planted_pairs_are_conjugate_or_refused_by_name(graph, rng, f_steps, h_steps):
    """A slice of the planted-conjugacy gate that shrinks: f and h come from
    hypothesis's own random stream, so a failing pair shrinks through its
    choices.  A planted pair is "conjugate" or refused at the named
    completion bound, never "not conjugate", and any witness verifies."""
    g, base = graph
    f, h = (from_forest_pair(g, random_element(g, base, GeneratorConfig(growth_steps=n), rng)) for n in (f_steps, h_steps))
    target = conjugate_by(h, f)
    try:
        res = is_conjugate(f, target, g)
    except LimitExceeded as exc:
        assert exc.limit == "semigroup-completion"
        return
    assert res.conjugate, (res.step_failed, res.reason)
    w = conjugator_witness(f, target, res, g)
    if w is not None:
        assert equal(compose(compose(w, target), invert(w)), f)


def test_pipeline_negatives_survive_exhaustive_search(fig1, base_bg):
    # a "not conjugate" verdict is falsified if any bounded conjugator works
    negatives = 0
    for seed in range(25):
        f = element(fig1, base_bg, seed, steps=1)
        g2 = element(fig1, base_bg, seed + 123, steps=1)
        res = is_conjugate(f, g2, fig1)
        if not res.conjugate:
            negatives += 1
            assert brute_conjugate(fig1, f, g2, size_bound=2) is None
    assert negatives >= 10


def small_elements(g, base, expansions):
    """Every element whose two forests take at most `expansions` expansions each, reduced, without repeats."""
    forests = enumerate_forests(g, base, expansions)
    found = {}
    for fd, fr in itertools.product(forests, repeat=2):
        for paired in _color_bijections(g, base, fd, fr):
            d = reduce(from_forest_pair(g, ForestPair(fd, paired, base)))
            found.setdefault(canonical_key(d), d)
    return list(found.values())


@pytest.mark.parametrize("graph, base", [("fig1", ("B", "G")), ("full_shift2", ("v",))], ids=["fig1", "full-shift"])
def test_small_negatives_have_no_brute_force_conjugator(graph, base, request):
    """Every pair of enumerated small elements: a "not conjugate" must survive
    the exhaustive conjugator search, and a "conjugate" must come with a
    verified witness."""
    g = request.getfixturevalue(graph)
    negatives = 0
    for f, target in itertools.combinations(small_elements(g, base, 2), 2):
        res = is_conjugate(f, target, g)
        if res.conjugate:
            w = conjugator_witness(f, target, res, g)
            assert w is not None and equal(compose(compose(w, target), invert(w)), f)
        else:
            negatives += 1
            assert brute_conjugate(g, f, target, size_bound=2) is None
    assert negatives >= 100


def test_planted_conjugates_at_growth_40_have_verified_witnesses(fig1, base_bg):
    """Large elements: f and its conjugate by h, both of growth 40, on fig1
    and random graphs 1-4."""
    cases = [(fig1, base_bg, e) for e in range(6)]
    cases += [(*random_graph(GeneratorConfig(seed=gs)), 0) for gs in range(1, 5)]
    for g, base, e in cases:
        f, h = element(g, base, e, steps=40), element(g, base, e + 500, steps=40)
        target = conjugate_by(invert(h), f)
        res = is_conjugate(f, target, g)
        assert res.conjugate
        w = conjugator_witness(f, target, res, g)
        assert w is not None and equal(compose(compose(w, target), invert(w)), f)


# Planted conjugates f, h^-1 f h that the budget-2 similarity search called
# "not conjugate" at step 2.  Conjugator seed e + 500, same growth as f.
FALSE_NEGATIVES = [
    pytest.param(dict(seed=3), 9, 2 + 9 % 5, id="graph3-e9"),
    pytest.param(dict(seed=136, max_vertices=3), 5, 3 + 5 % 6, id="graph136-e5"),
    pytest.param(dict(seed=150, max_vertices=3), 3, 3 + 3 % 6, id="graph150-e3"),
    pytest.param(dict(seed=208, max_vertices=4), 1, 3 + 1 % 6, id="graph208-e1"),
]


def planted_conjugates(graph_cfg, e, growth):
    g, base = random_graph(GeneratorConfig(**graph_cfg))
    f = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=e, growth_steps=growth)))
    h = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=e + 500, growth_steps=growth)))
    return g, f, reduce(compose(compose(invert(h), f), h))


@pytest.mark.parametrize("graph_cfg, e, growth", FALSE_NEGATIVES)
def test_planted_conjugates_are_conjugate(graph_cfg, e, growth):
    g, f, target = planted_conjugates(graph_cfg, e, growth)
    assert is_conjugate(f, target, g).conjugate


@pytest.mark.parametrize("graph_cfg, e, growth", FALSE_NEGATIVES)
def test_planted_conjugates_get_a_verified_witness(graph_cfg, e, growth):
    """These pairs were refused or denied by the retired search budget; they
    run at default settings, allow no refusal and verify the witness."""
    g, f, target = planted_conjugates(graph_cfg, e, growth)
    res = is_conjugate(f, target, g)
    assert res.conjugate
    w = conjugator_witness(f, target, res, g)
    assert w is not None and equal(compose(compose(w, target), invert(w)), f)


def test_planted_conjugacy_fuzz_never_denies():
    """ROADMAP item 1's gate, the slice that fits tier-1: f against its
    planted conjugate on random graphs 1-20, element seeds 0-5, at default
    settings.  Neither a refusal nor "not conjugate" is allowed."""
    denied = []
    for seed in range(1, 21):
        for e in range(6):
            g, f, target = planted_conjugates(dict(seed=seed), e, 2 + e % 5)
            res = is_conjugate(f, target, g)
            if not res.conjugate:
                denied.append((seed, e, res.step_failed))
    assert not denied, f"'not conjugate' on planted pairs {denied}"


@pytest.mark.parametrize("seed", [9, 11, 12, 40, 41, 50, 61, 63, 64, 65])
def test_planted_conjugates_on_graphs_whose_completion_once_ran_on(seed):
    """Random graphs of up to 8 vertices whose loops-semigroup completion
    once ran past the S-pair bound, so that their planted pairs were
    refused.  Each of six planted pairs must now be "conjugate" with a
    verified witness; no refusal is allowed."""
    for e in range(6):
        g, f, target = planted_conjugates(dict(seed=seed, max_vertices=8), e, 2 + e % 5)
        res = is_conjugate(f, target, g)
        assert res.conjugate, (e, res.step_failed, res.reason)
        w = conjugator_witness(f, target, res, g)
        assert w is not None and equal(compose(compose(w, target), invert(w)), f)
