import copy
import hashlib
import random
from collections import Counter

import pytest

from strandshift import closed, diagrams, testkit
from strandshift.closed import (
    ClosedDiagram,
    _loops,
    close,
    closed_key,
    decompose_parts,
    permute_base,
    replay,
    semi_reduce,
    shift_directions,
    shift_expand,
    shift_reduce,
    skeleton,
    type3_expand,
    type3_reduce,
    unordered_key,
)
from strandshift.conjugacy import compare_split_merge, conjugator_witness, is_conjugate
from strandshift.diagrams import (
    canonical_key,
    compose,
    equal,
    from_forest_pair,
    identity_diagram,
    invert,
    reduce,
)
from strandshift.errors import LimitExceeded, PreconditionError, SignatureMismatch
from strandshift.forest import ForestPair
from strandshift.graphs import PathWord
from strandshift.semigroup import decide_equal, max_winding, presentation_from_graph
from strandshift.testkit import (
    GeneratorConfig,
    base_colors,
    conjugator_of,
    cut,
    permutation_diagram,
    random_element,
    random_graph,
    reduce_closed_step,
    reference_semi_reduce,
    search_semi_reduce,
    split_diagram,
)

from conftest import loops_closed


def no_baseless_cycle(c):
    """Every directed cycle must pass through a base point."""
    indeg = {p: len(c.in_slots[p]) for p in c.point_color if p not in c.base_set}
    for p in c.base_set:
        for s in c.out_slots[p]:
            q = c.strand_to[s]
            if q in indeg:
                indeg[q] -= 1
    queue = [p for p, k in indeg.items() if k == 0]
    seen = 0
    while queue:
        p = queue.pop()
        seen += 1
        for s in c.out_slots[p]:
            q = c.strand_to[s]
            if q in indeg:
                indeg[q] -= 1
                if indeg[q] == 0:
                    queue.append(q)
    return seen == len(indeg)


def expansion_caret(fig1):
    """The expanded identity over base (B,): a split feeding a merge, closed into a loop."""
    fp = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2",))),
        (PathWord(0, ("1",)), PathWord(0, ("2",))),
        ("B",),
    )
    return close(from_forest_pair(fig1, fp))


def apply_moves(c, moves, g):
    states = [c]
    for mv in moves:
        c = replay(c, [mv], g)
        states.append(c)
    return states


def test_close_structure_and_round_trip(fig1, sigma, base_bg):
    d = from_forest_pair(fig1, sigma)
    c = close(d)
    assert base_colors(c) == base_bg
    assert len(c.point_color) == 6  # two base points, two splits, two merges
    assert no_baseless_cycle(c)
    assert canonical_key(cut(c)) == canonical_key(d)
    assert closed_key(close(cut(c))) == closed_key(c)


def test_close_requires_equal_signature(fig1):
    with pytest.raises(SignatureMismatch):
        close(split_diagram(("B",), 0, ("G", "R")))


def test_close_identity_gives_unit_loops(fig1, base_bg):
    c = close(identity_diagram(base_bg))
    part, loops = decompose_parts(c)
    assert len(part.point_color) == 0
    assert loops == {("B", 1): 1, ("G", 1): 1}


def test_close_transposition_gives_winding_two(fig1):
    c = close(permutation_diagram(("G", "G"), [1, 0]))
    _, loops = decompose_parts(c)
    assert loops == {("G", 2): 1}


def test_cut_close_round_trip_fuzz(fig1, base_bg):
    for seed in range(20):
        d = from_forest_pair(
            fig1, random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=2))
        )
        assert canonical_key(cut(close(d))) == canonical_key(d)


def test_shift_expand_through_split(fig1, sigma):
    c = close(from_forest_pair(fig1, sigma))
    c2, mv = shift_expand(c, 1, "down")
    assert base_colors(c2) == ("B", "G", "B")
    assert no_baseless_cycle(c2)
    g = conjugator_of(mv, base_colors(c), base_colors(c2))
    assert equal(compose(compose(g, cut(c)), invert(g)), cut(c2))


def test_shift_expand_caret_example(fig1):
    c = expansion_caret(fig1)
    c2, mv = shift_expand(c, 0, "down")
    assert base_colors(c2) == ("G", "R")
    g = conjugator_of(mv, base_colors(c), base_colors(c2))
    assert equal(compose(compose(g, cut(c)), invert(g)), cut(c2))
    # the reducing shift through the merge brings the base line back
    c3, mv3 = shift_reduce(c2, (0, 1), "down")
    assert base_colors(c3) == ("B",)
    assert closed_key(c3) == closed_key(c)
    g3 = conjugator_of(mv3, base_colors(c2), base_colors(c3))
    assert equal(compose(compose(g3, cut(c2)), invert(g3)), cut(c3))


def test_shift_round_trip(fig1, sigma):
    c = close(from_forest_pair(fig1, sigma))
    c2, _ = shift_expand(c, 1, "down")
    back, _ = shift_reduce(c2, (1, 2), "up")
    assert closed_key(back) == closed_key(c)


def test_shift_reduce_preconditions(fig1):
    c = expansion_caret(fig1)
    c2, _ = shift_expand(c, 0, "down")
    with pytest.raises(PreconditionError):
        shift_reduce(c2, (0,), "down")  # not all predecessors listed
    with pytest.raises(PreconditionError):
        shift_reduce(c2, (1, 0))  # not consecutive ascending


def test_shift_reduce_rejects_unknown_direction(fig1):
    c2, _ = shift_expand(expansion_caret(fig1), 0, "down")
    with pytest.raises(PreconditionError, match="direction"):
        shift_reduce(c2, (0, 1), "sideways")


def test_shift_reduce_rejects_empty_positions(fig1):
    c2, _ = shift_expand(expansion_caret(fig1), 0, "down")
    with pytest.raises(PreconditionError):
        shift_reduce(c2, ())
    for outside in [(1, 2), (-1, 0)]:
        with pytest.raises(PreconditionError, match="out of range"):
            shift_reduce(c2, outside)


def test_shift_expand_rejects_bad_base_positions(fig1, sigma):
    c = close(from_forest_pair(fig1, sigma))
    assert shift_expand(c, 1, "down")  # the last base point has a split below
    for index in (-1, len(c.base_line)):
        for direction in ("down", None):
            with pytest.raises(PreconditionError, match=f"base position {index} out of range"):
                shift_expand(c, index, direction)


def test_shift_directions_rejects_bad_base_positions(fig1, sigma):
    c = close(from_forest_pair(fig1, sigma))
    assert shift_directions(c, len(c.base_line) - 1) == ["down", "up"]
    for index in (-1, len(c.base_line)):
        with pytest.raises(PreconditionError, match=f"base position {index} out of range"):
            shift_directions(c, index)


def test_permute_base(fig1):
    left = loops_closed([("G", 2), ("R", 2)])  # base (G, G, R, R)
    right, mv = permute_base(left, (0, 2, 1, 3))
    assert base_colors(right) == ("G", "R", "G", "R")
    assert closed_key(right) == closed_key(
        loops_closed([("G", 2), ("R", 2)], order=[(0, 0), (1, 0), (0, 1), (1, 1)])
    )
    g = conjugator_of(mv, base_colors(left), base_colors(right))
    assert equal(compose(compose(g, cut(left)), invert(g)), cut(right))
    same, _ = permute_base(left, (0, 1, 2, 3))
    assert closed_key(same) == closed_key(left)
    back, _ = permute_base(right, (0, 2, 1, 3))
    assert closed_key(back) == closed_key(left)


def test_reduce_closed_step_cases(fig1, sigma, base_bg):
    shifted, _ = shift_expand(close(from_forest_pair(fig1, sigma)), 1, "down")
    step = reduce_closed_step(shifted)
    assert step is not None and step[1].data[0] == 2  # the unlocked redex is type 2
    assert reduce_closed_step(close(identity_diagram(base_bg))) is None
    # a unary forest node closes into a degenerate point: type 0 applies directly
    deeper = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2", "0")), PathWord(1, ("3",)), PathWord(1, ("4",))),
        sigma.range_leaves,
        base_bg,
    )
    step0 = reduce_closed_step(close(from_forest_pair(fig1, deeper)))
    assert step0 is not None and step0[1].data[0] == 0


def test_type3_interleaved_loops(fig1):
    c = loops_closed([("G", 2), ("R", 2)], order=[(0, 0), (1, 0), (0, 1), (1, 1)])
    c2, mv = type3_reduce(c, fig1, 0, 2, 2)
    _, loops = decompose_parts(c2)
    assert loops == {("B", 2): 1}
    assert base_colors(c2) == ("B", "B")
    g = conjugator_of(mv, base_colors(c), base_colors(c2))
    assert equal(compose(compose(g, cut(c)), invert(g)), cut(c2))


def test_type3_nonconfluent_choices(nonconfluent_left):
    # one B-loop and one R-loop; (B, R) collapses to R, (R, B) collapses to B
    c = loops_closed([("B", 1), ("R", 1)])
    r1, _ = type3_reduce(c, nonconfluent_left, 0, 2, 1)
    assert decompose_parts(r1)[1] == {("R", 1): 1}
    c2 = loops_closed([("R", 1), ("B", 1)])
    r2, _ = type3_reduce(c2, nonconfluent_left, 0, 2, 1)
    assert decompose_parts(r2)[1] == {("B", 1): 1}


def test_type3_preconditions(fig1):
    c = loops_closed([("G", 2), ("R", 2)])  # (G, G, R, R): wrong interleaving
    with pytest.raises(PreconditionError):
        type3_reduce(c, fig1, 0, 2, 2)
    c2 = loops_closed([("B", 1), ("B", 1)])
    with pytest.raises(PreconditionError):
        type3_reduce(c2, fig1, 0, 2, 1)  # no vertex has children (B, B)


def test_type3_rejects_bad_blocks(fig1):
    c = loops_closed([("B", 2), ("B", 1)])  # the last position is a loop of winding 1
    for start, k in [(-1, 1), (3, 1), (2, 2), (-2, 2)]:
        with pytest.raises(PreconditionError, match="block out of range"):
            type3_expand(c, fig1, start, k, "B")
    with pytest.raises(PreconditionError, match="k=0 must be positive"):
        type3_expand(c, fig1, 0, 0, "B")
    pair = loops_closed([("G", 1), ("R", 1)])
    for d, k in [(2, 0), (0, 1), (0, 0)]:
        with pytest.raises(PreconditionError, match="must be positive"):
            type3_reduce(pair, fig1, 0, d, k)


def test_type3_expand_round_trip(fig1):
    c = loops_closed([("B", 2)])
    c2, mv = type3_expand(c, fig1, 0, 2, "B")
    _, loops = decompose_parts(c2)
    assert loops == {("G", 2): 1, ("R", 2): 1}
    g = conjugator_of(mv, base_colors(c), base_colors(c2))
    assert equal(compose(compose(g, cut(c)), invert(g)), cut(c2))
    back, _ = type3_reduce(c2, fig1, 0, 2, 2, vertex="B")
    assert decompose_parts(back)[1] == {("B", 2): 1}


def test_semi_reduce_worked_element(fig1, sigma):
    # the element permutes five cylinders in a 3-cycle of G's and a 2-cycle of
    # R's (it has order 6), so everything cancels into pure loops
    c = close(from_forest_pair(fig1, sigma))
    semi, trace = semi_reduce(c)
    part, loops = decompose_parts(semi)
    assert len(part.point_color) == 0
    assert loops == {("G", 3): 1, ("R", 2): 1}
    assert closed_key(replay(c, trace, fig1)) == closed_key(semi)
    # every intermediate state keeps cycles covered by base points
    state = c
    for mv in trace:
        state = replay(state, [mv], fig1)
        assert no_baseless_cycle(state)


def test_semi_reduce_identity_fixpoint(fig1, base_bg):
    c = close(identity_diagram(base_bg))
    semi, trace = semi_reduce(c)
    assert trace == [] and closed_key(semi) == closed_key(c)


def test_semi_reduce_nonperiodic_has_split_merge_part(full_shift2, thompson_x0):
    c = close(from_forest_pair(full_shift2, thompson_x0))
    semi, _ = semi_reduce(c)
    part, loops = decompose_parts(semi)
    assert len(part.point_color) > 0


def test_semi_reduce_budget_limit(fig1, sigma):
    c = close(from_forest_pair(fig1, sigma))
    with pytest.raises(LimitExceeded):
        search_semi_reduce(c, budget=1)
    semi, _ = search_semi_reduce(c, budget=2)
    assert decompose_parts(semi)[1] == {("G", 3): 1, ("R", 2): 1}


def test_semi_reduce_trace_conjugation(fig1, base_bg):
    for seed in range(8):
        fp = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=2))
        d = from_forest_pair(fig1, fp)
        c = close(d)
        semi, trace = semi_reduce(c)
        h = testkit.reference_fold_conjugators(c, trace, fig1)
        assert equal(compose(compose(h, cut(c)), invert(h)), cut(semi))
        # per-move soundness along the realized chain
        states = apply_moves(c, trace, fig1)
        for before, after, mv in zip(states, states[1:], trace):
            g = conjugator_of(mv, base_colors(before), base_colors(after))
            assert equal(compose(compose(g, cut(before)), invert(g)), cut(after))


def test_loop_multiset_stable_under_shifts_and_permutes(fig1):
    c = loops_closed([("G", 2), ("R", 2)])
    c2, _ = permute_base(c, (3, 0, 2, 1))
    assert decompose_parts(c2)[1] == decompose_parts(c)[1]


def test_decompose_parts_examples(fig1, base_bg):
    c = loops_closed([("G", 2), ("R", 2)])
    part, loops = decompose_parts(c)
    assert len(part.point_color) == 0 and loops == {("G", 2): 1, ("R", 2): 1}


def test_unordered_key_ignores_base_order(fig1):
    c = loops_closed([("G", 2), ("R", 2)])
    c2, _ = permute_base(c, (2, 0, 3, 1))
    assert closed_key(c2) != closed_key(c)
    assert unordered_key(c2) == unordered_key(c)


def test_semi_reduce_reduction_count_invariant(fig1, base_bg):
    # degenerate points are only ever removed by type 0 and split/merge pairs
    # by types 1/2, and similarities preserve all three counts, so the number
    # of reductions performed cannot depend on the order they are found in
    for seed in range(6):
        f = from_forest_pair(
            fig1, random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=3))
        )
        h = from_forest_pair(
            fig1, random_element(fig1, base_bg, GeneratorConfig(seed=seed + 50, growth_steps=2))
        )
        d = compose(compose(h, f), invert(h))
        traces = [semi_reduce(close(d))[1]]
        traces += [reference_semi_reduce(close(d), random.Random(rseed))[1] for rseed in range(4)]
        assert len({sum(1 for m in trace if m.kind == "reduce") for trace in traces}) == 1


def test_semi_reduce_state_cap_surfaces(fig1, sigma):
    c = close(from_forest_pair(fig1, sigma))
    with pytest.raises(LimitExceeded) as exc:
        search_semi_reduce(c, max_states=2)
    assert exc.value.limit == "similarity-states"


def reference_unordered_key(c):
    """Serialize every component from every base-point seed and keep the least."""
    comp_keys = []
    for comp in closed.components(c):
        seeds = [p for p in comp if p in c.base_set]
        comp_keys.append(min(closed._serialize(c, closed._bidirectional_order(c, [s])) for s in seeds))
    return tuple(sorted(comp_keys))


def renumbered(c, rng):
    """The same closed diagram with fresh, shuffled point and strand ids."""
    old = [*c.point_color, *c.strand_color]
    new = rng.sample(range(1000, 1000 + 10 * len(old)), len(old))
    m = dict(zip(old, new))
    return ClosedDiagram(
        {m[p]: v for p, v in c.point_color.items()},
        {m[s]: v for s, v in c.strand_color.items()},
        {m[s]: m[p] for s, p in c.strand_from.items()},
        {m[s]: m[p] for s, p in c.strand_to.items()},
        {m[p]: [m[s] for s in v] for p, v in c.in_slots.items()},
        {m[p]: [m[s] for s in v] for p, v in c.out_slots.items()},
        [m[b] for b in c.base_line],
    )


def fig1_element(fig1, base_bg, seed):
    """Element seed `seed` of the fig1 suite: growth 8, 9 or 10."""
    fp = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=8 + seed % 3))
    return close(from_forest_pair(fig1, fp))


def test_unordered_key_matches_all_seeds_reference(fig1, base_bg, monkeypatch):
    elements = [fig1_element(fig1, base_bg, seed) for seed in (0, 4, 10)]
    for gs in (1, 2, 3):
        g, base = random_graph(GeneratorConfig(seed=gs))
        for e in (0, 4):
            fp = random_element(g, base, GeneratorConfig(seed=e, growth_steps=2 + e % 5))
            elements.append(close(from_forest_pair(g, fp)))
    keyed = []
    search_key = testkit.unordered_key

    def recording_key(c):
        keyed.append(c)
        return search_key(c)

    # the search looks the key up as a module global, so this records every state it keys
    monkeypatch.setattr(testkit, "unordered_key", recording_key)
    for c in elements:
        search_semi_reduce(c, budget=2, probe=False)
    monkeypatch.undo()
    assert len(keyed) > 300
    rng = random.Random(0)
    for c in keyed:
        key = unordered_key(c)
        assert key == reference_unordered_key(c)
        assert unordered_key(renumbered(c, rng)) == key
        perm = list(range(len(c.base_line)))
        rng.shuffle(perm)
        assert unordered_key(permute_base(c, perm)[0]) == key


@pytest.mark.parametrize("seed", [10, 21, 30, 0, 1, 2, 3, 4, 5])
def test_probe_refuses_exactly_when_a_fresh_deeper_search_reduces(fig1, base_bg, seed):
    c = fig1_element(fig1, base_bg, seed)
    for budget in (1, 2, 3):
        semi, trace = search_semi_reduce(c, budget, probe=False)
        deeper = bool(search_semi_reduce(semi, budget + 1, probe=False)[1])
        try:
            probed = search_semi_reduce(c, budget)
        except LimitExceeded as exc:
            assert exc.limit == "similarity-budget"
            assert deeper
        else:
            assert not deeper
            assert probed[1] == trace and closed_key(probed[0]) == closed_key(semi)


def test_probe_counts_resumed_states_against_the_cap(fig1, base_bg):
    c = fig1_element(fig1, base_bg, 0)

    def fits(cap):
        try:
            search_semi_reduce(c, 2, probe=False, max_states=cap)
        except LimitExceeded:
            return False
        return True

    lo, hi = 1, 200000  # fits(hi), not fits(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    # the cap holds every search without the probe, so only the resumed part exceeds it
    with pytest.raises(LimitExceeded) as exc:
        search_semi_reduce(c, 2, max_states=hi)
    assert exc.value.limit == "similarity-states"


def test_skeleton_criterion_agrees_with_the_similarity_search(fig1, base_bg):
    """semi_reduce's skeleton criterion against the budgeted search.

    The forms are unreduced closed diagrams, their budget-2 search
    semi-reductions and their semi_reduce results, over fig1 elements at
    growth 8-10 and planted conjugates h^-1 f h on random graphs 2-12, where
    unlocking a split feeding a merge is common (conjugator seed e + 500;
    graph 1 is left out because its budget-5 searches alone take seconds).
    A form passes as semi-reduced when semi_reduce performs no move on it;
    then the search finds no redex at budget 5.  A form that fails has a
    redex the search reaches at budget 6 at most, and some of them lie beyond
    budget 2.  A second semi_reduce never moves: the tracer's probe relies
    on it.
    """
    elements = [fig1_element(fig1, base_bg, seed) for seed in range(24)]
    for gs in range(2, 13):
        g, base = random_graph(GeneratorConfig(seed=gs))
        for e in range(6):
            f, h = (
                from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=s, growth_steps=2 + e % 5)))
                for s in (e, e + 500)
            )
            elements.append(close(reduce(compose(compose(invert(h), f), h))))
    passed, depths = 0, []
    for c in elements:
        forms = [c, semi_reduce(c)[0]]
        try:
            forms.append(search_semi_reduce(c, 2, probe=False)[0])
        except LimitExceeded:
            pass
        for d in forms:
            semi, trace = semi_reduce(d)
            assert semi_reduce(semi)[1] == []
            if not trace:
                passed += 1
                assert search_semi_reduce(d, 5, probe=False)[1] == []
            else:
                depths.append(next(k for k in range(1, 7) if search_semi_reduce(d, k, probe=False)[1]))
    assert passed >= 100 and len(depths) >= 50
    assert sum(k > 2 for k in depths) >= 3


TABLES = ("point_color", "strand_color", "strand_from", "strand_to", "in_slots", "out_slots")


def record(c):
    """A closed diagram's tables in insertion order, slot lists included, and its base line."""
    return [list(getattr(c, t).items()) for t in TABLES], c.base_line


def test_move_traces_and_normal_forms_match_recorded_digest(fig1, base_bg, full_shift2, thompson_x0):
    """Pins the open normal forms, which no reduction order changes, and
    checks the closed traces by replaying them.

    The digest covers the canonical keys of thirty reduced fig1 elements,
    of their reduced squares and of the reduced product of sixteen copies
    of x0.  A change to the reduction calculus, to the forest pair builder
    or to canonical keys changes it; a change of redex order does not.  A
    semi-reduced form is fixed only up to similarity, so each element's
    trace is replayed on its closed diagram instead, and must rebuild the
    returned form table for table.
    """
    keys = []
    for e in range(30):
        d = from_forest_pair(fig1, random_element(fig1, base_bg, GeneratorConfig(seed=e, growth_steps=2 + e % 5)))
        keys += [canonical_key(reduce(d)), canonical_key(reduce(compose(d, d)))]
        c = close(d)
        semi, trace = semi_reduce(c)
        assert record(replay(c, trace)) == record(semi), e
    x0 = from_forest_pair(full_shift2, thompson_x0)
    power = x0
    for _ in range(15):
        power = compose(power, x0)
    keys.append(canonical_key(reduce(power)))
    assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == "4934907348f0e501"


def test_semi_reduce_replays_and_agrees_with_the_reference_loop(fig1, base_bg, monkeypatch):
    """The worklist semi-reduction against the loop that rescans, reorders
    and rebuilds the diagram before every step.  The two may take moves in
    other orders and stop at other forms, so on every form: replaying the
    trace gives the returned form table for table (insertion order and slot
    lists included) with its base line; a second semi-reduction makes no
    move and finds nothing to free; step 2 pairs its skeleton with the
    reference form's; and the loop vectors are equal in the loops
    semigroup.  The forms are fig1 elements at growth 8-10, random graphs
    1-25 at element seeds 0-11, and planted conjugates at growth 40 (f and
    h f h^-1, on fig1 and random graphs 1-4).

    The freeing cases are counted on the reference loop's skeleton: a split
    or a merge primary, alone with its partner in its skeleton component or
    in a wider one.  `semi_reduce` plans each case in closed form, so the
    forms must reach all four.  Every freeing round of the reference loop
    also checks the closed-form plan against the push planner on every
    freeable redex, not only on the one it frees."""
    freed = Counter()
    plan, build_skeleton = testkit._plan_cocycle_moves, testkit.skeleton
    checked = 0

    def counting_plan(sk, comp, x):
        (v,) = [p for p in comp if x[p]]
        freed["split" if len(sk.out_slots[v]) >= 2 else "merge", "pair" if len(comp) == 2 else "wide"] += 1
        return plan(sk, comp, x)

    def checking_skeleton(c):
        nonlocal checked
        sk = build_skeleton(c)
        for _, v, (_, w) in testkit._freeable(sk):
            comp = closed._bidirectional_order(sk, [v])
            x = dict.fromkeys(comp, 0)
            x[v] = sk.cocycle[sk.out_slots[v][0]]
            assert closed._freeing_plan(c, v, w, x[v]) == plan(sk, comp, x), v
            checked += 1
        return sk

    monkeypatch.setattr(testkit, "_plan_cocycle_moves", counting_plan)
    monkeypatch.setattr(testkit, "skeleton", checking_skeleton)

    def element(g, base, seed, steps):
        return from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=seed, growth_steps=steps)))

    def loop_vectors(g, a, b):
        pres = presentation_from_graph(g, max(max_winding(a), max_winding(b)))
        return pres.vector(a), pres.vector(b), pres

    forms = [(fig1, fig1_element(fig1, base_bg, seed)) for seed in range(60)]
    for gs in range(1, 26):
        g, base = random_graph(GeneratorConfig(seed=gs))
        forms += [(g, close(element(g, base, e, 2 + e % 5))) for e in range(12)]
    cases = [(fig1, base_bg, e) for e in range(6)] + [(*random_graph(GeneratorConfig(seed=gs)), 0) for gs in range(1, 5)]
    for g, base, e in cases:
        f, h = element(g, base, e, 40), element(g, base, e + 500, 40)
        forms += [(g, close(f)), (g, close(reduce(compose(compose(h, f), invert(h)))))]
    moved = 0
    for k, (g, c) in enumerate(forms):
        (got, trace), (want, want_trace) = semi_reduce(c), reference_semi_reduce(c)
        assert record(replay(c, trace)) == record(got), k
        assert semi_reduce(got)[1] == [] and closed._freeable(got) is None, k
        (part, loops), (want_part, want_loops) = decompose_parts(got), decompose_parts(want)
        assert compare_split_merge(skeleton(part), skeleton(want_part)) is not None, k
        assert bool(loops) == bool(want_loops), k
        if loops:
            assert decide_equal(*loop_vectors(g, loops, want_loops)), k
        moved += bool(want_trace)
    assert len(forms) == 380 and moved > 250
    assert checked > sum(freed.values())  # redexes the default order does not pick
    assert {(kind, width) for kind in ("split", "merge") for width in ("pair", "wide")} <= set(freed), freed


def test_semi_reduce_reduces_through_the_shared_worklist(fig1, base_bg, monkeypatch):
    """Step 1 applies every type 0/1/2 reduction through the open reducer's
    worklist, which looks `apply_redex` up on `diagrams`: on the fig1 forms
    of the test above, the rewrites counted there are the `reduce` moves of
    the traces, and some form takes one."""
    applied = 0
    apply_redex = diagrams.apply_redex

    def counting(tabs, redex):
        nonlocal applied
        applied += 1
        apply_redex(tabs, redex)

    monkeypatch.setattr(diagrams, "apply_redex", counting)
    reductions = 0
    for seed in range(60):
        _, trace = semi_reduce(fig1_element(fig1, base_bg, seed))
        reductions += sum(move.kind == "reduce" for move in trace)
    assert applied == reductions > 0


def snapshot(c):
    return copy.deepcopy([getattr(c, t) for t in TABLES]), c.base_line


def test_moves_leave_their_input_tables_unchanged(fig1, base_bg):
    """Every move builds its result from one copy, and so does a replay; the
    input's tables never change.  The witness edits one copy of the first
    semi-reduced diagram in place, and the analyses keep theirs."""

    def unchanged(move, c, *args):
        before = snapshot(c)
        result = move(c, *args)
        assert snapshot(c) == before, move.__name__
        return result

    fp = random_element(fig1, base_bg, GeneratorConfig(seed=44, growth_steps=3))
    c = close(from_forest_pair(fig1, fp))
    semi, trace = unchanged(semi_reduce, c)
    assert {m.kind for m in trace} == {"shift-expand", "shift-reduce", "permute", "reduce"}
    moves = {"shift-expand": shift_expand, "shift-reduce": shift_reduce, "permute": permute_base}
    cur = c
    for mv in trace:
        if mv.kind == "reduce":
            cur, again = unchanged(reduce_closed_step, cur)
        else:
            cur, again = unchanged(moves[mv.kind], cur, *mv.data)
        assert again == mv
    assert closed_key(cur) == closed_key(semi)

    loops = loops_closed([("G", 2), ("R", 2)], order=[(0, 0), (1, 0), (0, 1), (1, 1)])
    merged, _ = unchanged(type3_reduce, loops, fig1, 0, 2, 2)
    split, _ = unchanged(type3_expand, merged, fig1, 0, 2, "B")
    assert unordered_key(split) == unordered_key(loops)

    # one replay through all six kinds: the trace, then semi's G loop brought
    # to the front, split into interleaved (G, B) loops and merged back
    points = next(pts for color, pts in _loops(semi) if color == "G")
    front = [semi.base_line.index(p) for p in points]
    to_front = unchanged(permute_base, semi, front + [i for i in range(len(semi.base_line)) if i not in front])
    expand = unchanged(type3_expand, to_front[0], fig1, 0, len(points), "G")
    contract = unchanged(type3_reduce, expand[0], fig1, 0, 2, len(points))
    moves = trace + [to_front[1], expand[1], contract[1]]
    assert {m.kind for m in moves} == {"shift-expand", "shift-reduce", "permute", "reduce", "type3", "type3-expand"}
    assert snapshot(unchanged(replay, c, moves, fig1)) == snapshot(contract[0])

    def element(seed):
        return from_forest_pair(fig1, random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=3)))

    f, h = element(8), element(1008)
    g = reduce(compose(compose(h, f), invert(h)))
    result = is_conjugate(f, g, fig1)
    assert result.conjugate and all(a.loops for a in result.analyses)
    before = [snapshot(a.semi) for a in result.analyses]
    assert conjugator_witness(f, g, result, fig1) is not None
    assert [snapshot(a.semi) for a in result.analyses] == before
