"""The conjugacy decision procedure and conjugator assembly.

Two group elements are conjugate iff their closed diagrams are equivalent.
Step 1 semi-reduces both closed diagrams.  Step 2 compares split-merge parts
up to similarity: base points are spliced out into per-strand counts (a
cocycle on the skeleton) and two parts are similar iff some color- and
slot-preserving skeleton isomorphism makes the cocycle difference an integer
coboundary, since base line shifts change the cocycle by exactly +-(point
coboundary) and permutations change nothing.  Similarity of components is an
equivalence relation, so components are matched greedily, without
backtracking.  Step 3 compares loop parts in the loops semigroup.  Every
move carries a conjugating diagram, so a positive verdict can be upgraded to
an explicit conjugator by replaying the moves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .closed import (
    ClosedDiagram,
    _bidirectional_order,
    _consolidate,
    _loop_points,
    _serialize,
    close,
    components,
    conjugator_of,
    closed_key,
    decompose_parts,
    permute_base,
    semi_reduce,
    shift_expand,
    type3_expand,
    type3_reduce,
)
from .diagrams import (
    StrandDiagram,
    _copy_tables,
    _drop_point,
    _drop_strand,
    _splice_out,
    compose,
    equal,
    identity_diagram,
    invert,
    reduce,
)
from .errors import SignatureMismatch
from .graphs import ShiftGraph
from .semigroup import bfs_path, decide_equal, max_winding, presentation_from_graph


# ---------------------------------------------------------------------------
# skeletons

class SplitMergeSkeleton(ClosedDiagram):
    """Split-merge part with its base points spliced out, on the table core.

    Splicing keeps the incoming strand's id, so a skeleton strand is the
    first strand of its base-point chain, and `cocycle` maps it to the number
    of base points spliced out of that chain.  The base line is empty.
    """

    __slots__ = ("cocycle",)

    def __init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots, cocycle):
        ClosedDiagram.__init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots, ())
        self.cocycle = cocycle


def skeleton(part: ClosedDiagram) -> SplitMergeSkeleton:
    """Splice out every base point of `part`; loop components vanish."""
    tabs = _copy_tables(part)
    ins, outs = tabs[4], tabs[5]
    cocycle = dict.fromkeys(tabs[1], 0)
    for b in part.base_line:
        s_in, s_out = ins[b][0], outs[b][0]
        if s_in == s_out:  # the last point of a loop component
            _drop_point(tabs, b)
            _drop_strand(tabs, s_in)
            del cocycle[s_in]
        else:
            _splice_out(tabs, b)
            cocycle[s_in] += 1 + cocycle.pop(s_out)
    return SplitMergeSkeleton(*tabs, cocycle)


def _point_sig(sk, p):
    return (sk.point_color[p], len(sk.in_slots[p]), len(sk.out_slots[p]))


def _component_isos(a: SplitMergeSkeleton, comp_a, b: SplitMergeSkeleton, comp_b):
    """Color- and slot-preserving isomorphisms comp_a -> comp_b.

    An isomorphism is fixed by the image of one anchor point, and one with
    anchor -> cand exists exactly when both components serialize alike from
    there; it then pairs the points of equal breadth-first rank.  So at most
    |comp_b| candidates are tried, each in linear time.
    """
    count = Counter(_point_sig(a, p) for p in comp_a)
    anchor = min(comp_a, key=lambda p: count[_point_sig(a, p)])
    order_a = _bidirectional_order(a, [anchor])
    key_a = _serialize(a, order_a)
    for cand in comp_b:
        if _point_sig(b, cand) == _point_sig(a, anchor):
            order_b = _bidirectional_order(b, [cand])
            if _serialize(b, order_b) == key_a:
                yield dict(zip(order_a, order_b))


def solve_integer(edges, d):
    """Integer x with x[u] - x[v] = d[i] for every edges[i] = (u, v), or None.

    This is the incidence system of a directed graph: a solution is fixed up
    to one constant per connected piece, so setting x = 0 at one point per
    piece and propagating along a spanning tree finds it, and the system is
    solvable exactly when every edge then checks.
    """
    nbrs = {}
    for (u, v), di in zip(edges, d):
        nbrs.setdefault(u, []).append((v, -di))
        nbrs.setdefault(v, []).append((u, di))
    x = {}
    for root in nbrs:
        if root in x:
            continue
        x[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, delta in nbrs[u]:
                if v not in x:
                    x[v] = x[u] + delta
                    stack.append(v)
    if any(x[u] - x[v] != di for (u, v), di in zip(edges, d)):
        return None
    return x


def _coboundary_solution(a, comp_a, b, phi):
    """Integer x over comp points with (coboundary of x) = cocycle_a - phi*cocycle_b."""
    images = [(s, b.out_slots[phi[p]][j]) for p in sorted(comp_a) for j, s in enumerate(a.out_slots[p])]
    return solve_integer(
        [(a.strand_from[s], a.strand_to[s]) for s, _ in images],
        [a.cocycle[s] - b.cocycle[t] for s, t in images],
    )


@dataclass
class SkeletonMatch:
    """Witness for step 2: matched components with isomorphism and coboundary."""

    pairs: list  # (comp_a, comp_b, phi, x)


def _similarity(a, comp_a, b, comp_b):
    """(phi, x) for the first isomorphism comp_a -> comp_b with a coboundary solution x, or None."""
    for phi in _component_isos(a, comp_a, b, comp_b):
        x = _coboundary_solution(a, comp_a, b, phi)
        if x is not None:
            return phi, x
    return None


def compare_split_merge(a: SplitMergeSkeleton, b: SplitMergeSkeleton):
    """A similarity witness between two split-merge skeletons, or None.

    Components are matched one to one; a pair is similar when some
    slot-preserving isomorphism makes the cocycle difference solvable over
    the integers.  Shifts realize exactly these coboundaries and base
    permutations are free, so a perfect matching of similar pairs decides
    step 2.  Similarity is an equivalence relation (isomorphisms compose,
    coboundaries add), so giving each component its first free similar
    partner never blocks a perfect matching: greedy matching is exact.
    """
    comps_a = components(a)
    free = components(b)
    if len(comps_a) != len(free):
        return None
    pairs = []
    for comp_a in comps_a:
        for j, comp_b in enumerate(free):
            witness = _similarity(a, comp_a, b, comp_b)
            if witness is not None:
                pairs.append((comp_a, comp_b, *witness))
                del free[j]
                break
        else:
            return None
    return SkeletonMatch(pairs)


# ---------------------------------------------------------------------------
# the decision procedure

@dataclass
class Analysis:
    closed: ClosedDiagram
    semi: ClosedDiagram
    trace: list
    part: ClosedDiagram
    loops: dict


def analyze(f: StrandDiagram, budget: int = 2, rng=None) -> Analysis:
    c = close(f)
    semi, trace = semi_reduce(c, budget=budget, rng=rng)
    part, loops = decompose_parts(semi)
    return Analysis(c, semi, trace, part, loops)


@dataclass
class ConjugacyResult:
    conjugate: bool
    step_failed: object  # None, 0 (signatures), 2 or 3
    reason: str
    semi_reduced_sizes: tuple = ()
    loop_multisets: tuple = ()
    witness_available: bool = False
    analyses: tuple = field(default=None, repr=False)
    match: object = field(default=None, repr=False)

    def record(self) -> dict:
        """Machine-readable verdict, schema version 1."""
        return {
            "schema_version": 1,
            "verdict": "conjugate" if self.conjugate else "not-conjugate",
            "step_failed": self.step_failed,
            "reason": self.reason,
            "semi_reduced_sizes": list(self.semi_reduced_sizes),
            "loop_multisets": [
                sorted([c, n, count] for (c, n), count in side.items())
                for side in self.loop_multisets
            ],
            "witness_available": self.witness_available,
        }


def is_conjugate(
    f: StrandDiagram,
    g: StrandDiagram,
    graph: ShiftGraph,
    budget: int = 2,
    rng=None,
) -> ConjugacyResult:
    """Decide conjugacy of two group elements over the same graph.

    Semi-reduce both closed diagrams, compare split-merge parts through the
    cocycle cohomology check, compare loop parts in the loops semigroup.
    """
    if f.domain() != f.range() or g.domain() != g.range():
        raise SignatureMismatch("both inputs must have equal domain and range")
    if f.domain() != g.domain():
        return ConjugacyResult(
            False, 0, "domain/range signatures differ; no conjugator can exist"
        )
    a = analyze(f, budget=budget, rng=rng)
    b = analyze(g, budget=budget, rng=rng)
    sizes = (
        (a.semi.splits_merges_degens(), len(a.semi.base_line)),
        (b.semi.splits_merges_degens(), len(b.semi.base_line)),
    )
    loopsets = (dict(a.loops), dict(b.loops))
    match = compare_split_merge(skeleton(a.part), skeleton(b.part))
    if match is None:
        return ConjugacyResult(
            False, 2, "split-merge parts are not similar", sizes, loopsets, False, (a, b), None
        )
    if bool(a.loops) != bool(b.loops):
        return ConjugacyResult(
            False, 3, "one loop part is empty and the other is not", sizes, loopsets, False, (a, b), match
        )
    if a.loops:
        n = max(max_winding(a.loops), max_winding(b.loops))
        pres = presentation_from_graph(graph, n)
        if not decide_equal(pres.vector(a.loops), pres.vector(b.loops), pres):
            return ConjugacyResult(
                False, 3, "loop parts differ in the loops semigroup", sizes, loopsets, False, (a, b), match
            )
    return ConjugacyResult(True, None, "equivalent closed diagrams", sizes, loopsets, False, (a, b), match)


# ---------------------------------------------------------------------------
# witness assembly

def _fold_conjugators(moves, base_colors) -> StrandDiagram:
    h = identity_diagram(base_colors)
    for mv in moves:
        h = reduce(compose(conjugator_of(mv), h))
    return h


def _chain(c: ClosedDiagram, s):
    """Walk forward from strand s: (base points passed, strand entering the next non-base point)."""
    passed = []
    while c.strand_to[s] in c.base_set:
        passed.append(c.strand_to[s])
        s = c.out_slots[passed[-1]][0]
    return passed, s


def _chain_counts(c: ClosedDiagram, pts) -> dict:
    """(point, out-slot) -> number of base points on that chain."""
    return {(p, j): len(_chain(c, s)[0]) for p in pts for j, s in enumerate(c.out_slots[p])}


def _plan_cocycle_moves(c: ClosedDiagram, pts, x: dict) -> list:
    """Shift plan carrying the chain counts of `pts` onto the matched part.

    `x` is step 2's solution: x[from s] - x[to s] is how many more base
    points chain s holds than its image.  A forward push through p takes one
    base point off each chain into p and puts one on each chain out of p (a
    backward push undoes it), so pushing every p net m - x[p] times realizes
    the difference for any constant m; a median m gives the fewest pushes.
    A push is legal when its source chains all hold a base point.  While
    pushes remain some push is legal, because every directed cycle crosses
    the base line and pushes never change cycle sums.
    """
    counts = _chain_counts(c, pts)
    outs = {p: [(p, j) for j in range(len(c.out_slots[p]))] for p in pts}
    ins = {p: [] for p in pts}
    for q in pts:
        for j, s in enumerate(c.out_slots[q]):
            ins[c.strand_to[_chain(c, s)[1]]].append((q, j))
    m = sorted(x[p] for p in pts)[len(pts) // 2]
    left = {p: m - x[p] for p in sorted(pts) if x[p] != m}

    def legal(p):
        return all(counts[ch] for ch in (ins[p] if left[p] > 0 else outs[p]))

    plan = []
    while left:
        p = next(filter(legal, left), None)
        assert p is not None, "no legal push: a directed cycle misses the base line"
        step = 1 if left[p] > 0 else -1
        for ch in ins[p]:
            counts[ch] -= step
        for ch in outs[p]:
            counts[ch] += step
        plan.append((p, "expand" if (step > 0) == (len(c.out_slots[p]) >= 2) else "reduce"))
        left[p] -= step
        if not left[p]:
            del left[p]
    return plan


def _execute_cocycle_plan(c: ClosedDiagram, plan):
    moves = []
    for p, action in plan:
        is_split = len(c.out_slots[p]) >= 2
        if action == "expand":
            if is_split:
                b = c.strand_from[c.in_slots[p][0]]
                c, mv = shift_expand(c, c.base_line.index(b), "down")
            else:
                b = c.strand_to[c.out_slots[p][0]]
                c, mv = shift_expand(c, c.base_line.index(b), "up")
            moves.append(mv)
        else:
            if is_split:
                succs = [c.strand_to[s] for s in c.out_slots[p]]
                c, mvs = _consolidate(c, "up", succs)
            else:
                preds = [c.strand_from[s] for s in c.in_slots[p]]
                c, mvs = _consolidate(c, "down", preds)
            moves.extend(mvs)
    return c, moves


def _loop_components(c: ClosedDiagram):
    out = []
    for comp in components(c):
        if all(p in c.base_set for p in comp):
            pts = _loop_points(c, comp[0])
            out.append((c.point_color[comp[0]], len(comp), pts))
    return out


def _bring_to_front(c: ClosedDiagram, block):
    """Permute the base line so `block` occupies the leading positions."""
    rest = [p for p in c.base_line if p not in set(block)]
    new_line = list(block) + rest
    if list(c.base_line) == new_line:
        return c, []
    perm = tuple(c.base_line.index(p) for p in new_line)
    c, mv = permute_base(c, perm)
    return c, [mv]


def _realize_semigroup_path(c: ClosedDiagram, graph: ShiftGraph, pres, path):
    moves = []
    for ridx, sign in path:
        vtx, k = pres.relation_info[ridx]
        kids = graph.child_colors(vtx)
        d = len(kids)
        if sign > 0:
            chosen = []
            for color in kids:
                fits = (comp for comp in _loop_components(c) if comp[0] == color and comp[1] == k)
                chosen.append(next(comp for comp in fits if comp not in chosen))
            block = []
            for t in range(k):
                for comp in chosen:
                    block.append(comp[2][t])
            c, mvs = _bring_to_front(c, block)
            moves.extend(mvs)
            c, mv = type3_reduce(c, graph, 0, d, k, vertex=vtx)
            moves.append(mv)
        else:
            comp = next(
                comp for comp in _loop_components(c) if comp[0] == vtx and comp[1] == k
            )
            c, mvs = _bring_to_front(c, comp[2])
            moves.extend(mvs)
            c, mv = type3_expand(c, graph, 0, k, vtx)
            moves.append(mv)
    return c, moves


def _alignment_permutation(c: ClosedDiagram, target: ClosedDiagram, match: SkeletonMatch):
    """Point bijection c -> target extending the skeleton match, as a base permutation.

    Chains carry equal base counts after realization, loops are matched by
    (color, winding); returns the permutation making the base orders agree,
    or None when the loop inventories cannot be aligned.
    """
    psi = {}
    for comp_a, comp_b, phi, _ in match.pairs:
        for p in comp_a:
            psi[p] = phi[p]
            for j, s in enumerate(c.out_slots[p]):
                chain_a = _chain(c, s)[0]
                chain_b = _chain(target, target.out_slots[phi[p]][j])[0]
                if len(chain_a) != len(chain_b):
                    return None
                psi.update(zip(chain_a, chain_b))
    loops_a = sorted(_loop_components(c), key=lambda t: (t[0], t[1], min(t[2])))
    loops_b = sorted(_loop_components(target), key=lambda t: (t[0], t[1], min(t[2])))
    if [(t[0], t[1]) for t in loops_a] != [(t[0], t[1]) for t in loops_b]:
        return None
    for (_, _, pa), (_, _, pb) in zip(loops_a, loops_b):
        psi.update(zip(pa, pb))
    inv = {v: k for k, v in psi.items()}
    new_line = [inv[bp] for bp in target.base_line]
    return tuple(c.base_line.index(p) for p in new_line)


def conjugator_witness(
    f: StrandDiagram,
    g: StrandDiagram,
    result: ConjugacyResult,
    graph: ShiftGraph,
    semigroup_cap: int = None,
) -> StrandDiagram | None:
    """An explicit h with h g h^-1 = f, or None when realization fails.

    The step 2 coboundary is always realized by legal shifts.  The witness is
    best-effort only through step 3: the loop-part equality must be
    witnessed by a bounded relation path.  The returned diagram is verified
    by diagram algebra before returning.
    """
    if not (result.conjugate and result.analyses):
        return None
    a, b = result.analyses
    moves_a = list(a.trace)
    cur = a.semi

    for comp_a, _, _, x in result.match.pairs:
        cur, mvs = _execute_cocycle_plan(cur, _plan_cocycle_moves(cur, comp_a, x))
        moves_a.extend(mvs)

    if a.loops or b.loops:
        n = max(max_winding(a.loops), max_winding(b.loops))
        pres = presentation_from_graph(graph, n)
        va, vb = pres.vector(a.loops), pres.vector(b.loops)
        need = max(sum(va), sum(vb))
        cap = need + 8 if semigroup_cap is None else max(semigroup_cap, need)
        path = bfs_path(va, vb, pres, cap)
        if path is None:
            return None
        cur, mvs = _realize_semigroup_path(cur, graph, pres, path)
        moves_a.extend(mvs)

    perm = _alignment_permutation(cur, b.semi, result.match)
    if perm is None:
        return None
    if list(perm) != list(range(len(perm))):
        cur, mv = permute_base(cur, perm)
        moves_a.append(mv)
    if closed_key(cur) != closed_key(b.semi):
        return None

    h_a = _fold_conjugators(moves_a, f.domain())
    h_b = _fold_conjugators(b.trace, g.domain())
    h = reduce(compose(invert(h_a), h_b))
    if not equal(compose(compose(h, g), invert(h)), f):
        return None
    return h
