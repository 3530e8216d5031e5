"""The conjugacy decision procedure and conjugator assembly.

Two group elements are conjugate iff their closed diagrams are equivalent.
Step 1 semi-reduces both closed diagrams.  Step 2 compares split-merge parts
up to similarity on their skeletons (built in :mod:`closed`, base points
spliced out into a cocycle): two parts are similar iff some color- and
slot-preserving skeleton isomorphism makes the cocycle difference an integer
coboundary, since base line shifts change the cocycle by exactly +-(point
coboundary) and permutations change nothing.  Each component gets a class
key, its least breadth-first serialization and then its least cocycle
reduced to 0 on the breadth-first tree, so components are similar exactly
when their keys are equal and step 2 pairs them by key, without a search.
Step 3 compares loop parts in the loops semigroup.  Every move carries a
conjugating diagram, so a positive verdict can be upgraded to an explicit
conjugator: the witness pushes the base line of a copy of the first
semi-reduced diagram by step 2's coboundary (:func:`closed._push_coboundary`,
each push legal as read off that copy), realizes the loop part by type 3
moves and aligns the base lines, then stacks the moves' conjugators as one
diagram, layer by layer, reduces it once and checks h g h^-1 = f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closed import (
    ClosedDiagram,
    SplitMergeSkeleton,
    _ClosedTables,
    _loops,
    _push_coboundary,
    _reorder,
    _Stack,
    _type3_expand,
    _type3_reduce,
    close,
    components,
    decompose_parts,
    semi_reduce,
    skeleton,
)
from .diagrams import StrandDiagram, _least_serialization, compose, equal, invert, reduce
from .errors import SignatureMismatch
from .graphs import ShiftGraph
from .semigroup import bfs_path, decide_equal, degree, max_winding, presentation_from_graph


# ---------------------------------------------------------------------------
# step 2

def solve_integer(edges, d):
    """Integer x with x[u] - x[v] = d[i] for every edges[i] = (u, v), or None.

    This is the incidence system of a directed graph: a solution is fixed up
    to one constant per connected piece, so setting x = 0 at one point per
    piece and propagating along a spanning tree finds it, and the system is
    solvable exactly when every edge then checks.  Step 2 reads x off its
    class keys instead; this stays for the benchmark's tracer, which wraps
    it by name, and for the reference step 2 in :mod:`strandshift.testkit`.
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


def _reduced_cocycle(sk: SplitMergeSkeleton, order: dict) -> tuple:
    """(reduced, y): the cocycle of sk on the component that `order` ranks,
    shifted by the coboundary of the potentials y that makes it vanish on
    the breadth-first tree of `order`, one value per strand, points by rank
    and strands by out-slot, as :func:`diagrams._least_serialization` lists
    them; a skeleton has no base points, so it marks none.

    The tree is the one the breadth-first search grows: replaying the search
    in rank order, each point's potential is set over the strand that first
    reaches it, with the anchor at 0.
    """
    y = {}
    for p in order:
        y.setdefault(p, 0)
        for s in sk.out_slots[p]:
            y.setdefault(sk.strand_to[s], y[p] - sk.cocycle[s])
        for s in sk.in_slots[p]:
            y.setdefault(sk.strand_from[s], y[p] + sk.cocycle[s])
    return tuple(sk.cocycle[s] - y[p] + y[sk.strand_to[s]] for p in order for s in sk.out_slots[p]), y


def _class_key(sk: SplitMergeSkeleton, comp) -> tuple:
    """(key, order, y): the similarity class key of a skeleton component,
    the breadth-first order of an anchor that attains it, and that order's
    tree potentials.

    The key is the least serialization over all anchors in `comp`, then the
    least reduced cocycle over the anchors that tie on it.
    """
    records, orders = _least_serialization(sk, [(p,) for p in comp])
    (least, y), order = min(((_reduced_cocycle(sk, order), order) for order in orders), key=lambda t: t[0][0])
    return (records, least), order, y


def compare_split_merge(a: SplitMergeSkeleton, b: SplitMergeSkeleton) -> list | None:
    """A similarity witness between two split-merge skeletons, or None: one
    (comp_a, comp_b, phi, x) per component of a, with its partner in b, the
    isomorphism and the coboundary solution.

    Two parts are similar exactly when their components can be paired one
    to one so that in each pair some color- and slot-preserving isomorphism
    phi makes cocycle_a - phi*cocycle_b an integer coboundary: shifts
    realize exactly these coboundaries and base permutations are free.

    That is a question about canonical forms.  An isomorphism phi maps the
    breadth-first order from an anchor p onto the one from phi(p), so the
    two serialize alike, and it maps the breadth-first tree from p onto the
    tree from phi(p).  Each cohomology class on a connected graph has
    exactly one representative that vanishes on a given spanning tree, so
    cocycle_a differs from phi*cocycle_b by a coboundary exactly when their
    representatives reduced on those two trees agree strand for strand.
    Hence the pairs (serialization, reduced cocycle) over the anchors of a
    similar component are the same as over its partner's, and so is their
    least one, the component's class key (:func:`_class_key`).  Conversely,
    equal keys pair the points of equal rank in the two attaining orders
    into an isomorphism phi under which the reduced cocycles agree, so the
    difference is a coboundary.  Components are therefore similar exactly
    when their keys are equal, and each component of a takes the first free
    component of b with its key.  A reduced cocycle is the cocycle minus
    the coboundary of its tree potentials y, so x[p] = y_a[p] - y_b[phi[p]]
    solves the coboundary system of the pair.
    """
    comps_a, comps_b = components(a), components(b)
    if len(comps_a) != len(comps_b):
        return None
    free = [(comp, *_class_key(b, comp)) for comp in comps_b]
    pairs = []
    for comp_a in comps_a:
        key, order_a, y_a = _class_key(a, comp_a)
        j = next((j for j, (_, key_b, _, _) in enumerate(free) if key_b == key), None)
        if j is None:
            return None
        comp_b, _, order_b, y_b = free.pop(j)
        phi = dict(zip(order_a, order_b))
        pairs.append((comp_a, comp_b, phi, {p: y_a[p] - y_b[phi[p]] for p in order_a}))
    return pairs


# ---------------------------------------------------------------------------
# the decision procedure

@dataclass
class Analysis:
    closed: ClosedDiagram
    semi: ClosedDiagram
    trace: list
    part: ClosedDiagram
    loops: dict


def analyze(f: StrandDiagram) -> Analysis:
    c = close(f)
    semi, trace = semi_reduce(c)
    part, loops = decompose_parts(semi)
    return Analysis(c, semi, trace, part, loops)


@dataclass
class ConjugacyResult:
    conjugate: bool
    step_failed: object  # None, 0 (signatures), 2 or 3
    reason: str
    analyses: tuple = field(default=None, repr=False)
    match: object = field(default=None, repr=False)

    def record(self, witness: str = None) -> dict:
        """Machine-readable verdict, schema version 1, read off the two
        analyses; with a witness's text, also that text.

        The semi-reduced sizes and loop multisets describe the forms this
        run's Step 1 found, not invariants of the conjugacy classes: another
        reduction order can stop at a similar form whose loops pass more or
        fewer base points.  So do the Step 1 moves that `conj` reports as
        `steps`.  The verdict does not depend on any of them."""
        sides = self.analyses or ()
        record = {
            "schema_version": 1,
            "verdict": "conjugate" if self.conjugate else "not-conjugate",
            "step_failed": self.step_failed,
            "reason": self.reason,
            "semi_reduced_sizes": [
                [len(a.semi.point_color) - len(a.semi.base_line), len(a.semi.base_line)] for a in sides
            ],
            "loop_multisets": [sorted([c, n, count] for (c, n), count in a.loops.items()) for a in sides],
            "witness_available": witness is not None,
        }
        if witness is not None:
            record["witness"] = witness
        return record


def is_conjugate(f: StrandDiagram, g: StrandDiagram, graph: ShiftGraph) -> ConjugacyResult:
    """Decide conjugacy of two group elements over the same graph.

    Semi-reduce both closed diagrams, compare split-merge parts through the
    cocycle cohomology check, compare loop parts in the loops semigroup.
    """
    if f.domain() != f.range() or g.domain() != g.range():
        raise SignatureMismatch("both inputs must have equal domain and range")
    if f.domain() != g.domain():
        return ConjugacyResult(False, 0, "domain/range signatures differ; no conjugator can exist")
    a = analyze(f)
    b = analyze(g)
    match = compare_split_merge(skeleton(a.part), skeleton(b.part))
    if match is None:
        return ConjugacyResult(False, 2, "split-merge parts are not similar", (a, b))
    if bool(a.loops) != bool(b.loops):
        return ConjugacyResult(False, 3, "one loop part is empty and the other is not", (a, b), match)
    if a.loops:
        n = max(max_winding(a.loops), max_winding(b.loops))
        pres = presentation_from_graph(graph, n)
        if not decide_equal(pres.vector(a.loops), pres.vector(b.loops), pres):
            return ConjugacyResult(False, 3, "loop parts differ in the loops semigroup", (a, b), match)
    return ConjugacyResult(True, None, "equivalent closed diagrams", (a, b), match)


# ---------------------------------------------------------------------------
# witness assembly

def _realize_semigroup_path(c: _ClosedTables, graph: ShiftGraph, path) -> list:
    """Apply a loops-semigroup relation path to c in place by type 3 moves,
    each on a loop block first brought to the front of the base line: the
    moves."""
    moves = []
    for vtx, k, sign in path:
        kids = graph.child_colors(vtx)
        loops = [loop for loop in _loops(c) if len(loop[1]) == k]
        if sign > 0:
            chosen = []
            for color in kids:
                chosen.append(next(loop for loop in loops if loop[0] == color and loop not in chosen))
            block = [points[t] for t in range(k) for _, points in chosen]
        else:
            block = next(points for color, points in loops if color == vtx)
        front = set(block)
        moves.extend(_reorder(c, block + [p for p in c.base_line if p not in front]))
        if sign > 0:
            moves.append(_type3_reduce(c, graph, 0, len(kids), k, vertex=vtx))
        else:
            moves.append(_type3_expand(c, graph, 0, k, vtx))
    return moves


def _aligned_base_line(c: _ClosedTables, target: ClosedDiagram, pairs) -> list:
    """c's base line ordered as target's under the point bijection extending
    step 2's `pairs`.

    Realization leaves no base point unpaired.  The pushes carry each
    matched component's cocycle onto its partner's exactly, so every chain
    of c passes as many base points as its image under phi, and the
    component, base points included, is isomorphic to its partner: the
    breadth-first orders from an anchor and its image pair all their
    points.  The relation path ends at b's loop vector, so the loops of c
    and target have equal (color, winding) multisets, and sorting pairs
    each loop with one of its own color and winding, point for point.  The
    bijection thus maps c's base points onto target's.
    """
    psi = {}
    for comp_a, _, phi, _ in pairs:
        _, (order_a,) = _least_serialization(c, [comp_a[:1]])
        _, (order_b,) = _least_serialization(target, [(phi[comp_a[0]],)])
        psi.update(zip(order_a, order_b))
    loops_a, loops_b = (sorted(_loops(d), key=lambda t: (t[0], len(t[1]))) for d in (c, target))
    for (_, pa), (_, pb) in zip(loops_a, loops_b):
        psi.update(zip(pa, pb))
    inv = {v: k for k, v in psi.items()}
    return [inv[bp] for bp in target.base_line]


def _moves_onto(result: ConjugacyResult, graph: ShiftGraph, semigroup_cap) -> list | None:
    """Moves from f's closed diagram to b's semi-reduced one, or None when
    the relation search gives up: a's trace, then the pushes that realize
    step 2's pairs, the type 3 moves that realize the loop-part equality and
    the permutation that aligns the base lines, which edit one copy of a's
    semi-reduced diagram in place."""
    a, b = result.analyses
    moves_a = list(a.trace)
    cur = _ClosedTables(a.semi)
    for comp_a, _, _, x in result.match:
        moves_a.extend(_push_coboundary(cur, comp_a, x))

    if a.loops or b.loops:
        n = max(max_winding(a.loops), max_winding(b.loops))
        pres = presentation_from_graph(graph, n)
        va, vb = pres.vector(a.loops), pres.vector(b.loops)
        need = max(degree(va), degree(vb))
        cap = need + 8 if semigroup_cap is None else max(semigroup_cap, need)
        path = bfs_path(va, vb, pres, cap)
        if path is None:
            return None
        moves_a.extend(_realize_semigroup_path(cur, graph, path))

    moves_a.extend(_reorder(cur, _aligned_base_line(cur, b.semi, result.match)))
    return moves_a


def conjugator_witness(
    f: StrandDiagram,
    g: StrandDiagram,
    result: ConjugacyResult,
    graph: ShiftGraph,
    semigroup_cap: int = None,
) -> StrandDiagram | None:
    """An explicit reduced h with h g h^-1 = f, or None: for a result that
    is not conjugate, when realization gives up, or when the check fails.

    The step 2 coboundary is always realized by legal shifts.  The witness is
    best-effort only through step 3: the loop-part equality must be
    witnessed by a bounded relation path.  With h_a the product of the
    conjugators of the moves from f's closed diagram to b's semi-reduced one
    and h_b that of b's trace, h = h_a^-1 . h_b: one stack of layers, b's
    trace in order on the identity and then a's moves inverted in reverse,
    reduced once.  The witness's one check is diagram algebra: h g h^-1 = f,
    which rejects every wrong h, before it is returned.
    """
    if not (result.conjugate and result.analyses):
        return None
    moves_a = _moves_onto(result, graph, semigroup_cap)
    if moves_a is None:
        return None
    stack = _Stack(g.domain())
    for mv in result.analyses[1].trace:
        stack.glue(mv)
    for mv in reversed(moves_a):
        stack.glue(mv, inverse=True)
    h = reduce(stack.diagram())
    if not equal(compose(compose(h, g), invert(h)), f):
        return None
    return h
