"""Independent oracles and seeded generators grounding the test suite.

Nothing here reuses the reduction or conjugacy machinery it is meant to
check: semantic equality evaluates homeomorphisms word by word, conjugator
search enumerates candidate elements outright, and the generators build
forest pairs directly.  The similarity searches reuse the closed moves but
neither step 2's skeleton comparison nor semi-reduction's skeleton
criterion, which are what they check.  The reference step 2 searches
component isomorphisms anchor by anchor instead of comparing class keys,
and solves each coboundary along a spanning tree instead of reading it
off the tree potentials of the keys.  The class enumeration
applies the loop relations one at a time instead of the completed
rewriting system.  The stage presentation builds stage N whole, one
generator per color and winding and one relation per vertex and winding,
completes all of it at once, taking S-pairs last in, first out and keeping
every rule, and searches all windings jointly; the pipeline completes one
winding's block to its reduced basis, least lcm first, and searches one
block at a time.
The reference reducer and the reference semi-reduction reuse the redex
scan and the moves, but rescan and reorder the whole diagram before every
step instead of keeping a worklist, and the semi-reduction builds a new
diagram at every move and a skeleton in every freeing round, which it
frees by the witness's pushes on the redex's component.  They keep the
canonical order, least type and then breadth-first rank, and hold the
only random reduction orders: given `rng`, each picks
uniformly among the current redexes, so the tests can check that neither
the normal form nor the conjugacy verdict depends on the order.  The
pipeline takes redexes in the order its worklists found them.  The reference conjugator fold builds each
move's conjugator as a diagram and composes and reduces after every move.
The reference forest check rebuilds every prefix of every leaf and tests
each internal node's children one by one.  The reference reader keeps each
token's line and column from the start and reads the tokens through one
method call each.  The reference serializations build one breadth-first
order first and write the records from it; the open one walks out-slots
only, so its key is the forward-order key, and the closed one keys a
component by trying every seed in turn.  The pipeline's serializer writes
records as it walks, in both directions, and runs its seeds in lockstep.

The references that the command line never needs live here too: the word
enumerator and the forest-pair group operations, which compose and invert
elements without diagrams; the diagram validator with its point kinds
(:func:`kind_of`); the one-layer split and permutation diagrams; cutting a
closed diagram at its base line and keying it with its base line order
(:func:`closed_key`); and
:func:`conjugator_of`, the meaning of a move as a diagram, which the
witness stack in :mod:`strandshift.closed` is tested against, built from
the base colors (:func:`base_colors`) on either side of the move.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter, deque
from dataclasses import dataclass

from .closed import (
    ClosedDiagram,
    Move,
    SplitMergeSkeleton,
    _edited,
    _near,
    _push,
    _push_coboundary,
    _reduce,
    components,
    replay,
    shift_directions,
    shift_expand,
    skeleton,
    unordered_key,
)
from .conjugacy import solve_integer
from .diagrams import (
    StrandDiagram,
    _Builder,
    _least_serialization,
    apply_redex,
    compose,
    equal,
    find_redexes,
    from_forest_pair,
    identity_diagram,
    invert,
    reduce,
)
from .errors import LimitExceeded, ParseError
from .forest import ForestPair, LeafFault, apply_to_word, expand_regular, validate_forest_pair
from .graphs import (
    BaseTuple,
    PathWord,
    ShiftGraph,
    _structure_faults,
    color_of_word,
    format_word,
    normalize_graph,
    validate_graph,
)
from .semigroup import Presentation, _block_path, _divides, _key, _normal_form, _orient


@dataclass
class GeneratorConfig:
    seed: int = 0
    growth_steps: int = 3
    max_vertices: int = 4
    max_out_degree: int = 3


def point_form(g: ShiftGraph, w: PathWord) -> PathWord:
    """Shortest word denoting the same point set as w.

    A trailing self-loop edge at a color whose out-star is that single loop
    pins the same isolated point as its prefix, so such edges carry no
    information and are stripped.  Words over branching colors are returned
    unchanged.
    """
    edges = list(w.edges)
    while edges:
        e = edges[-1]
        c = g.term(e)
        if g.init(e) == c and g.is_isolated_color(c):
            edges.pop()
        else:
            break
    return PathWord(w.root, tuple(edges))


def semantic_equal(g: ShiftGraph, f1: ForestPair, f2: ForestPair, depth: int) -> bool:
    """Compare the represented homeomorphisms on every word of the given length.

    At depth at least both maximum leaf lengths, prefix replacement is fully
    determined on length-`depth` words, so agreement there is agreement
    everywhere.  Image words are compared as points: two images that differ
    only by trailing steps around an isolated cylinder's loop denote the same
    point and must not count as a difference.
    """
    need = max(
        [len(w.edges) for w in f1.domain_leaves + f2.domain_leaves] or [0]
    )
    if depth < need:
        raise ValueError(f"depth {depth} below maximum leaf length {need}")
    if f1.base != f2.base:
        return False
    for w in enumerate_words(g, f1.base, depth):
        if len(w.edges) < depth:
            continue
        u = point_form(g, apply_to_word(g, f1, w))
        v = point_form(g, apply_to_word(g, f2, w))
        if u != v:
            return False
    return True


# ---------------------------------------------------------------------------
# words, and the group operations on forest pairs, which the pipeline does
# on diagrams instead

def is_valid_word(g: ShiftGraph, base: BaseTuple, w: PathWord) -> bool:
    if not (0 <= w.root < len(base)):
        return False
    at = base[w.root]
    for e in w.edges:
        if e not in g.edges or g.init(e) != at:
            return False
        at = g.term(e)
    return True


def children(g: ShiftGraph, base: BaseTuple, w: PathWord) -> list:
    """One-edge extensions of w, in the out-star order of its color."""
    c = color_of_word(g, base, w)
    return [w.child(e) for e in g.out_order[c]]


def enumerate_words(g: ShiftGraph, base: BaseTuple, depth: int) -> list:
    """All words of length <= depth, in (root, slot-sequence) lexicographic order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    out = []

    def visit(w: PathWord):
        out.append(w)
        if len(w.edges) < depth:
            for c in children(g, base, w):
                visit(c)

    for i in range(len(base)):
        visit(PathWord(i))
    return out


def identity_pair(g: ShiftGraph, base: BaseTuple) -> ForestPair:
    roots = tuple(PathWord(i) for i in range(len(base)))
    return ForestPair(roots, roots, base)


def invert_pair(fp: ForestPair) -> ForestPair:
    return ForestPair(fp.range_leaves, fp.domain_leaves, fp.base)


def _forest_union(g: ShiftGraph, base: BaseTuple, a, b) -> list:
    """Leaves of the union-closure of two complete rooted subforests.

    The union of the node sets is again complete and rooted; its leaves are
    the nodes with no child in the union.
    """
    nodes = set()
    for leaves in (a, b):
        for w in leaves:
            for p_len in range(len(w.edges) + 1):
                nodes.add(PathWord(w.root, w.edges[:p_len]))
    leaves = [w for w in nodes if not any(c in nodes for c in children(g, base, w))]
    leaves.sort(key=lambda w: (w.root, w.edges))
    return leaves


def _expand_side_to(g: ShiftGraph, fp: ForestPair, target_leaves, side: str) -> ForestPair:
    """Regular-expand fp until the given side's forest contains the target forest."""
    target = set(target_leaves)
    while True:
        leaves = fp.range_leaves if side == "range" else fp.domain_leaves
        todo = None
        for i, w in enumerate(leaves):
            if w not in target:
                todo = i  # a proper prefix of some target leaf; expand it
                break
        if todo is None:
            return fp
        fp = expand_regular(g, fp, todo)


def compose_pairs(g: ShiftGraph, f: ForestPair, h: ForestPair) -> ForestPair:
    """Composite pair: f applied first, then h.

    Both pairs are expanded until f's range forest and h's domain forest agree
    with their union-closure E, then leaves are matched through E by word.
    """
    if f.base != h.base:
        raise ValueError("pairs over different bases")
    common = _forest_union(g, f.base, f.range_leaves, h.domain_leaves)
    f2 = _expand_side_to(g, f, common, "range")
    h2 = _expand_side_to(g, h, common, "domain")
    h_map = dict(zip(h2.domain_leaves, h2.range_leaves))
    return ForestPair(
        f2.domain_leaves,
        tuple(h_map[w] for w in f2.range_leaves),
        f.base,
    )


# ---------------------------------------------------------------------------
# diagrams: the validator, one-layer generators, cutting, and the meaning
# of a move

def kind_of(d, p) -> str:
    ind = len(d.in_slots[p])
    outd = len(d.out_slots[p])
    if ind == 0 and outd == 1:
        return "source"
    if ind == 1 and outd == 0:
        return "sink"
    if ind == 0 and outd >= 2:
        return "split-source"
    if ind >= 2 and outd == 0:
        return "merge-sink"
    if ind == 1 and outd >= 2:
        return "split"
    if ind >= 2 and outd == 1:
        return "merge"
    if ind == 1 and outd == 1:
        return "degenerate"
    return "invalid"


def validate_strand_diagram(d: StrandDiagram, g: ShiftGraph) -> list:
    """Report every violated diagram condition; empty report iff valid.

    Checks acyclicity, the split/merge/degenerate local color conditions
    against the graph's ordered out-stars, the degree classification of every
    point, agreement of univalent endpoints with their strand color, and that
    the source/sink orders list exactly the in-degree-0/out-degree-0 points.
    """
    report = []
    # Kahn's algorithm for acyclicity.
    indeg = {p: len(d.in_slots[p]) for p in d.point_color}
    queue = deque(p for p, k in indeg.items() if k == 0)
    seen = 0
    while queue:
        p = queue.popleft()
        seen += 1
        for s in d.out_slots[p]:
            q = d.strand_to[s]
            indeg[q] -= 1
            if indeg[q] == 0:
                queue.append(q)
    if seen != len(d.point_color):
        report.append("diagram contains a directed cycle")

    for p in sorted(d.point_color):
        color = d.point_color[p]
        kind = kind_of(d, p)
        if color not in g.out_order:
            report.append(f"point {p}: color {color} is not a vertex")
            continue
        if kind == "invalid":
            report.append(
                f"point {p}: degrees ({len(d.in_slots[p])},{len(d.out_slots[p])}) match no kind"
            )
            continue
        if kind in ("split", "split-source"):
            want = g.child_colors(color)
            got = tuple(d.strand_color[s] for s in d.out_slots[p])
            if got != want:
                report.append(f"point {p}: split out-colors {got}, expected {want}")
            if kind == "split" and d.strand_color[d.in_slots[p][0]] != color:
                report.append(f"point {p}: split in-strand color differs from point color")
        elif kind in ("merge", "merge-sink"):
            want = g.child_colors(color)
            got = tuple(d.strand_color[s] for s in d.in_slots[p])
            if got != want:
                report.append(f"point {p}: merge in-colors {got}, expected {want}")
            if kind == "merge" and d.strand_color[d.out_slots[p][0]] != color:
                report.append(f"point {p}: merge out-strand color differs from point color")
        elif kind == "degenerate":
            sin = d.strand_color[d.in_slots[p][0]]
            sout = d.strand_color[d.out_slots[p][0]]
            if not (sin == sout == color):
                report.append(f"point {p}: degenerate colors disagree")
            if not g.is_isolated_color(color):
                report.append(f"point {p}: degenerate color {color} has no single self-loop")
        elif kind == "source":
            if d.strand_color[d.out_slots[p][0]] != color:
                report.append(f"point {p}: source color differs from its strand")
        elif kind == "sink":
            if d.strand_color[d.in_slots[p][0]] != color:
                report.append(f"point {p}: sink color differs from its strand")

    real_sources = {p for p in d.point_color if not d.in_slots[p]}
    real_sinks = {p for p in d.point_color if not d.out_slots[p]}
    if set(d.sources) != real_sources or len(set(d.sources)) != len(d.sources):
        report.append("source order does not list exactly the in-degree-0 points")
    if set(d.sinks) != real_sinks or len(set(d.sinks)) != len(d.sinks):
        report.append("sink order does not list exactly the out-degree-0 points")
    return report


def permutation_diagram(domain_colors, mapping) -> StrandDiagram:
    """Straight strands only: source j is wired to sink mapping[j]."""
    n = len(domain_colors)
    if sorted(mapping) != list(range(n)):
        raise ValueError("mapping is not a permutation")
    b = _Builder()
    sources = [b.point(c) for c in domain_colors]
    range_colors = [None] * n
    for j in range(n):
        range_colors[mapping[j]] = domain_colors[j]
    sinks = [b.point(c) for c in range_colors]
    for j in range(n):
        b.strand(domain_colors[j], sources[j], sinks[mapping[j]])
    return b.build(sources, sinks)


def multi_split_diagram(domain_colors, splits: dict) -> StrandDiagram:
    """One layer of splits: `splits` maps position -> tuple of child colors.

    Positions not mentioned pass straight through.  The range is the domain
    with each split position replaced by its children, in order.
    """
    b = _Builder()
    sources = [b.point(c) for c in domain_colors]
    sinks = []
    for j, c in enumerate(domain_colors):
        if j in splits:
            kids = splits[j]
            v = b.point(c)
            b.strand(c, sources[j], v)
            for kc in kids:
                snk = b.point(kc)
                b.strand(kc, v, snk)
                sinks.append(snk)
        else:
            snk = b.point(c)
            b.strand(c, sources[j], snk)
            sinks.append(snk)
    return b.build(sources, sinks)


def split_diagram(domain_colors, position, child_colors) -> StrandDiagram:
    return multi_split_diagram(domain_colors, {position: tuple(child_colors)})


def base_colors(c: ClosedDiagram) -> tuple:
    """The colors of c's base points, in base line order."""
    return tuple(c.point_color[b] for b in c.base_line)


def cut(c: ClosedDiagram) -> StrandDiagram:
    """Split every base point into a source/sink pair, ordered by the base line."""
    w = _Builder(c)
    sinks = []
    for b in c.base_line:
        snk = w.point(c.point_color[b])
        w.attach_target(w.in_slots[b].pop(), snk)
        sinks.append(snk)
    return w.build(c.base_line, sinks)


def conjugator_of(move: Move, before: tuple, after: tuple) -> StrandDiagram:
    """The diagram G with cut(after) = G . cut(before) . G^-1, where
    `before` and `after` are the base colors of the diagrams on either side
    of the move: the reference meaning of a move, which
    :class:`strandshift.closed._Stack` glues on as one in-place layer.

    G runs from the new base to the old base; expanding shifts yield merge
    diagrams, reducing shifts split diagrams, permutations permutation
    diagrams, type 0/1/2 reductions the identity, and type 3 moves one-layer
    diagrams with one split (or merge) per unit of winding.  The layer is
    built from the base colors and the kids, not from the parent color the
    move records.
    """
    if move.kind == "permute":
        (perm,) = move.conj
        return permutation_diagram(after, list(perm))
    if move.kind == "reduce":
        return identity_diagram(before)
    if move.kind not in ("shift-expand", "shift-reduce", "type3", "type3-expand"):
        raise ValueError(f"unknown move kind {move.kind}")
    start, _, kids, k = move.conj
    splits = {start + j: kids for j in range(k)}
    if move.kind in ("shift-reduce", "type3"):
        return multi_split_diagram(after, splits)
    return invert(multi_split_diagram(before, splits))


# ---------------------------------------------------------------------------
# reference serializations: one breadth-first order first, then the records

def _forward_order(d, sources) -> dict:
    order = {}
    queue = deque()
    for p in sources:
        order[p] = len(order)
        queue.append(p)
    while queue:
        p = queue.popleft()
        for s in d.out_slots[p]:
            q = d.strand_to[s]
            if q not in order:
                order[q] = len(order)
                queue.append(q)
    if len(order) != len(d.point_color):
        raise ValueError("diagram has points unreachable from its sources")
    return order


def reference_canonical_key(d: StrandDiagram) -> tuple:
    """The forward-order key of an open diagram: points ranked breadth
    first from the sources in order along out-slots only, then one record
    per point.  Equal exactly when `diagrams.canonical_key` is equal."""
    order = _forward_order(d, d.sources)
    by_rank = sorted(d.point_color, key=order.__getitem__)
    records = []
    for p in by_rank:
        outs = []
        for s in d.out_slots[p]:
            q = d.strand_to[s]
            outs.append((d.strand_color[s], order[q], d.in_slots[q].index(s)))
        records.append((d.point_color[p], tuple(outs)))
    return (len(d.sources), tuple(records), tuple(order[p] for p in d.sinks))


def closed_key(c: ClosedDiagram) -> tuple:
    """Canonical key including the base line order: the pipeline's
    serialization from one run of the base line, base points marked, and
    the base ranks.  The tests compare closed diagrams base line and all
    by it; no pipeline step needs the order kept."""
    records, (order,) = _least_serialization(c, [c.base_line], c.base_set)
    assert len(order) == len(c.point_color), "component without a base point"
    return records, tuple(order[b] for b in c.base_line)


def _bidirectional_order(c, seeds) -> dict:
    order = {}
    queue = deque()
    for p in seeds:
        if p not in order:
            order[p] = len(order)
            queue.append(p)
    while queue:
        p = queue.popleft()
        for s in c.out_slots[p]:
            q = c.strand_to[s]
            if q not in order:
                order[q] = len(order)
                queue.append(q)
        for s in c.in_slots[p]:
            q = c.strand_from[s]
            if q not in order:
                order[q] = len(order)
                queue.append(q)
    return order


def _serialize(c, order: dict, marked=frozenset()) -> tuple:
    by_rank = sorted(order, key=order.__getitem__)
    records = []
    for p in by_rank:
        outs = []
        for s in c.out_slots[p]:
            q = c.strand_to[s]
            outs.append((c.strand_color[s], order[q], c.in_slots[q].index(s)))
        records.append((c.point_color[p], p in marked, tuple(outs)))
    return tuple(records)


def reference_components(c) -> list:
    """Weakly connected components, each the sorted points of one breadth-first order."""
    seen = set()
    comps = []
    for p in sorted(c.point_color):
        if p in seen:
            continue
        order = _bidirectional_order(c, [p])
        seen.update(order)
        comps.append(tuple(sorted(order)))
    return comps


def reference_unordered_key(c: ClosedDiagram) -> tuple:
    """Serialize every component from every base-point seed and keep the least."""
    comp_keys = []
    for comp in components(c):
        seeds = [p for p in comp if p in c.base_set]
        comp_keys.append(min(_serialize(c, _bidirectional_order(c, [s]), c.base_set) for s in seeds))
    return tuple(sorted(comp_keys))


def _choose_redex(redexes, rng, order_of):
    """The default redex order: least (type, order[primary point]) with
    order = order_of(), or a uniform pick when `rng` is given."""
    if rng is not None:
        return redexes[rng.randrange(len(redexes))]
    order = order_of()
    return min(redexes, key=lambda r: (r[0], order[r[1]]))


def reference_reduce_with_log(d: StrandDiagram, rng=None):
    """The full-scan reducer whose normal form `diagrams.reduce_with_log`
    must match by canonical key: before every rewrite it scans the whole
    diagram for redexes and recomputes the whole canonical order."""
    log = []
    work = _Builder(d)
    while redexes := find_redexes(work):
        chosen = _choose_redex(redexes, rng, lambda: _forward_order(work, d.sources))
        log.append(chosen[0])
        apply_redex(work, chosen)
    return (work.build(d.sources, d.sinks) if log else d), log


def reduce_closed_step(c: ClosedDiagram, rng=None):
    """One type 0/1/2 reduction away from the base line, chosen after a full
    scan and a full order: (new diagram, move), or None when there is none."""
    redexes = find_redexes(c, skip=c.base_set)
    if not redexes:
        return None
    chosen = _choose_redex(redexes, rng, lambda: _bidirectional_order(c, c.base_line))
    return _edited(c, _reduce, chosen[0], chosen[2])


def _freeable(sk: SplitMergeSkeleton) -> list:
    """The type 1/2 redexes of a skeleton whose strands carry one count of base points."""
    return [r for r in find_redexes(sk) if r[0] and len({sk.cocycle[s] for s in sk.out_slots[r[1]]}) == 1]


def reference_semi_reduce(c: ClosedDiagram, rng=None):
    """The from-scratch loop whose forms `closed.semi_reduce` must match up
    to similarity: before every step it scans the whole diagram for
    redexes and recomputes the whole order, every move builds a new
    diagram, and every freeing round builds the skeleton, tests it with
    :func:`_freeable` and frees the redex by the witness's pushes,
    :func:`strandshift.closed._push_coboundary`, on its component."""
    trace = []
    while True:
        step = reduce_closed_step(c, rng)
        if step is not None:
            c, mv = step
            trace.append(mv)
            continue
        sk = skeleton(c)
        freeable = _freeable(sk)
        if not freeable:
            return c, trace
        _, v, _ = _choose_redex(freeable, rng, lambda: _bidirectional_order(c, c.base_line))
        comp = _bidirectional_order(sk, [v])
        x = dict.fromkeys(comp, 0)
        x[v] = sk.cocycle[sk.out_slots[v][0]]
        c, moves = _edited(c, _push_coboundary, comp, x)
        trace.extend(moves)


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


def coboundary_solution(a: SplitMergeSkeleton, comp_a, b: SplitMergeSkeleton, phi):
    """Integer x over comp_a's points with (coboundary of x) = cocycle_a -
    phi*cocycle_b, or None: the incidence system solved along a spanning
    tree by :func:`strandshift.conjugacy.solve_integer`."""
    images = [(s, b.out_slots[phi[p]][j]) for p in sorted(comp_a) for j, s in enumerate(a.out_slots[p])]
    return solve_integer(
        [(a.strand_from[s], a.strand_to[s]) for s, _ in images],
        [a.cocycle[s] - b.cocycle[t] for s, t in images],
    )


def reference_similarity(a: SplitMergeSkeleton, comp_a, b: SplitMergeSkeleton, comp_b):
    """(phi, x) for the first isomorphism comp_a -> comp_b with a coboundary
    solution x, or None: the search over isomorphisms that step 2's class
    keys replace."""
    for phi in _component_isos(a, comp_a, b, comp_b):
        x = coboundary_solution(a, comp_a, b, phi)
        if x is not None:
            return phi, x
    return None


def reference_compare_split_merge(a: SplitMergeSkeleton, b: SplitMergeSkeleton):
    """The isomorphism search that `conjugacy.compare_split_merge` must agree
    with: each component of a takes the first free component of b that
    :func:`reference_similarity` finds similar.  Similarity is an equivalence
    relation (isomorphisms compose, coboundaries add), so this greedy choice
    never blocks a perfect matching."""
    comps_a = components(a)
    free = components(b)
    if len(comps_a) != len(free):
        return None
    pairs = []
    for comp_a in comps_a:
        for j, comp_b in enumerate(free):
            witness = reference_similarity(a, comp_a, b, comp_b)
            if witness is not None:
                pairs.append((comp_a, comp_b, *witness))
                del free[j]
                break
        else:
            return None
    return pairs


def reference_fold_conjugators(c: ClosedDiagram, moves, g: ShiftGraph) -> StrandDiagram:
    """Product of the conjugators of `moves`, replayed one at a time from c
    for the base colors on either side of each; a type 0/1/2 reduction's
    is the identity."""
    h = identity_diagram(base_colors(c))
    for mv in moves:
        after = replay(c, [mv], g)
        if mv.kind != "reduce":
            h = reduce(compose(conjugator_of(mv, base_colors(c), base_colors(after)), h))
        c = after
    return h


def reference_check_leaf_forest(g: ShiftGraph, base, leaves, side: str) -> None:
    """The prefix-by-prefix leaf check that `forest._check_leaf_forest` must
    match message for message, except which missing child an incomplete
    forest names: this one takes the first its set of prefixes yields."""
    seen = set()
    for w in leaves:
        if not is_valid_word(g, base, w):
            raise ValueError(f"{side} leaf {w} is not a path of the graph")
        if w in seen:
            raise ValueError(f"{side} leaf {format_word(w, base)} repeated")
        seen.add(w)
    for w in leaves:
        for p_len in range(len(w.edges)):
            if PathWord(w.root, w.edges[:p_len]) in seen:
                raise ValueError(f"{side} leaves are not an antichain at {format_word(w, base)}")
    prefixes = set()
    for w in leaves:
        for p_len in range(len(w.edges)):
            prefixes.add(PathWord(w.root, w.edges[:p_len]))
    covered = prefixes | seen
    for p in prefixes:
        for c in children(g, base, p):
            if c not in covered:
                raise ValueError(
                    f"{side} forest incomplete below {format_word(p, base)}: missing child {format_word(c, base)}"
                )
    if {w.root for w in leaves} != set(range(len(base))):
        raise ValueError(f"{side} forest does not cover every root")


def enumerate_forests(g: ShiftGraph, base, max_expansions: int):
    """All complete rooted subforest leaf tuples with at most the given expansions."""
    roots = tuple(PathWord(i) for i in range(len(base)))
    seen = {roots}
    frontier = [roots]
    out = [roots]
    for _ in range(max_expansions):
        nxt = []
        for leaves in frontier:
            for i, w in enumerate(leaves):
                color = color_of_word(g, base, w)
                kids = tuple(w.child(e) for e in g.out_order[color])
                expanded = leaves[:i] + kids + leaves[i + 1 :]
                key = tuple(sorted(expanded, key=lambda x: (x.root, x.edges)))
                if key not in seen:
                    seen.add(key)
                    nxt.append(expanded)
                    out.append(expanded)
        frontier = nxt
    return out


def _color_bijections(g, base, domain_leaves, range_leaves):
    """Pairings of range leaves matching domain colors positionally."""
    by_color = {}
    for i, w in enumerate(range_leaves):
        by_color.setdefault(color_of_word(g, base, w), []).append(i)
    slots = [color_of_word(g, base, w) for w in domain_leaves]
    counts = {}
    for c in slots:
        counts[c] = counts.get(c, 0) + 1
    if any(len(by_color.get(c, [])) != n for c, n in counts.items()) or len(
        domain_leaves
    ) != len(range_leaves):
        return
    perms = [itertools.permutations(by_color[c]) for c in sorted(counts)]
    order = sorted(counts)
    for combo in itertools.product(*perms):
        assign = {c: list(p) for c, p in zip(order, combo)}
        used = {c: 0 for c in order}
        result = []
        for c in slots:
            result.append(range_leaves[assign[c][used[c]]])
            used[c] += 1
        yield tuple(result)


def brute_conjugate(g: ShiftGraph, f, target, size_bound: int = 2):
    """First forest pair h with h target h^-1 = f, by exhaustive enumeration.

    Sound for yes; a None only says no conjugator exists within the bound.
    """
    base = f.domain()
    forests = enumerate_forests(g, base, size_bound)
    for fd in forests:
        for fr in forests:
            for paired in _color_bijections(g, base, fd, fr):
                h = from_forest_pair(g, ForestPair(fd, paired, base))
                if equal(compose(compose(h, target), invert(h)), f):
                    return h
    return None


# ---------------------------------------------------------------------------
# the budgeted similarity search

def _consolidations(c: ClosedDiagram):
    """Consolidation opportunities: (point, step) for a reducing push.

    A merge all of whose immediate predecessors are base points (or a split
    all of whose immediate successors are) can absorb them, pushed forward
    (backward) through it after a base permutation brings them together
    in slot order (:func:`strandshift.closed._push`).
    """
    out = []
    for p in sorted(c.point_color):
        if p in c.base_set:
            continue
        ind, outd = len(c.in_slots[p]), len(c.out_slots[p])
        if ind >= 2 and outd == 1:
            step = 1
        elif outd >= 2 and ind == 1:
            step = -1
        else:
            continue
        if all(q in c.base_set for q in _near(c, p, step)):
            out.append((p, step))
    return out


def search_semi_reduce(c: ClosedDiagram, budget: int = 2, rng=None, probe: bool = True, max_states: int = 200000):
    """Semi-reduction by budgeted similarity search, the oracle for
    :func:`strandshift.closed.semi_reduce`'s exact skeleton criterion.

    Between reductions, a 0/1-cost breadth-first search explores reducing
    shifts (with their enabling permutations) freely and expanding shifts up
    to `budget` per reduction attempt.  Each reduction strictly decreases the
    number of non-base points, so this terminates.  With `probe`, the final
    search, once it runs dry, is resumed one expanding shift deeper, and
    LimitExceeded is raised if that finds a redex the configured budget
    missed; this refuses exactly when a fresh search at budget+1 would, but
    does not revisit the states the final search already ruled out.
    `max_states` bounds each search's state set, the resumed part included;
    exceeding it raises rather than churning.

    Returns (semi-reduced diagram, trace of moves performed).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    trace = []
    while True:
        search = _find_unlockable(c, budget, rng, max_states)
        found = next(search)
        if found is None:
            break
        c, moves = found
        trace.extend(moves)
    if probe and next(search) is not None:
        raise LimitExceeded(
            "similarity-budget",
            f"a redex is reachable at depth {budget + 1} but not {budget}; raise the budget",
        )
    return c, trace


def _find_unlockable(c: ClosedDiagram, budget: int, rng=None, max_states: int = 200000):
    """0/1-cost BFS over similarity moves for a state admitting a reduction.

    A generator.  It first yields (reduced diagram, moves) for the first
    reducible state within `budget` expanding shifts, or None when there is
    none.  Resumed after None, it takes one more expanding shift from each
    state it popped at cost `budget`, closes the results under 0-cost moves
    with the same `seen` map, and yields once more.  States pop in
    nondecreasing cost and none of cost <= budget is reducible, so this
    second answer is None exactly when a fresh search at budget+1 finds
    nothing.
    """
    start_key = unordered_key(c)
    queue = deque([(c, [], 0)])
    seen = {start_key: 0}
    frontier = []
    for limit in (budget, budget + 1):
        while queue:
            state, path, cost = queue.popleft()
            nbrs = []
            if limit == budget or cost == limit:  # frontier states were checked before the resume
                step = reduce_closed_step(state, rng)
                if step is not None:
                    new, mv = step
                    yield new, path + [mv]
                    return
                for p, step in _consolidations(state):
                    nbrs.append((0, ("cons", p, step)))
            if cost < limit:
                for i in range(len(state.base_line)):
                    for direction in shift_directions(state, i):
                        nbrs.append((1, ("exp", i, direction)))
            elif limit == budget:
                frontier.append((state, path, cost))
            if rng is not None:
                rng.shuffle(nbrs)
                nbrs.sort(key=lambda t: t[0])
            for extra, action in nbrs:
                if action[0] == "cons":
                    nstate, mvs = _edited(state, _push, action[1], action[2])
                else:
                    nstate, mv = shift_expand(state, action[1], action[2])
                    mvs = [mv]
                ncost = cost + extra
                key = unordered_key(nstate)
                if key in seen and seen[key] <= ncost:
                    continue
                seen[key] = ncost
                if len(seen) > max_states:
                    raise LimitExceeded(
                        "similarity-states", f"more than {max_states} similarity states explored"
                    )
                entry = (nstate, path + mvs, ncost)
                if extra == 0:
                    queue.appendleft(entry)
                else:
                    queue.append(entry)
        yield None
        queue.extend(frontier)


def _similarity_neighbors(c: ClosedDiagram):
    for p, step in _consolidations(c):
        yield _edited(c, _push, p, step)[0]
    for i in range(len(c.base_line)):
        for direction in shift_directions(c, i):
            yield shift_expand(c, i, direction)[0]


def similar_by_search(a: ClosedDiagram, b: ClosedDiagram, depth: int = 6) -> bool:
    """Bounded bidirectional search over similarity moves, base order free.

    Sound both ways on success; a False is only a statement about the depth.
    """
    keys = {0: {unordered_key(a)}, 1: {unordered_key(b)}}
    if keys[0] & keys[1]:
        return True
    frontiers = {0: [a], 1: [b]}
    for step in range(depth):
        side = 0 if len(keys[0]) <= len(keys[1]) else 1
        nxt = []
        for state in frontiers[side]:
            for nb in _similarity_neighbors(state):
                k = unordered_key(nb)
                if k in keys[1 - side]:
                    return True
                if k not in keys[side]:
                    keys[side].add(k)
                    nxt.append(nb)
        frontiers[side] = nxt
        if not nxt:
            break
    return False


def enumerate_class(a: tuple, p: Presentation, cap: int, limit: int = 100000) -> set:
    """Every block congruent to block `a` reachable without exceeding degree `cap`.

    When the true congruence class has all degrees <= cap this is the exact
    class, which upgrades "not-equal-within-cap" to a proof of inequality.
    """
    steps = []
    for _, u, v in p.relations:
        steps.append((u, v))
        steps.append((v, u))
    seen = {a}
    frontier = [a]
    while frontier:
        m = frontier.pop()
        for u, v in steps:
            if _divides(u, m):
                n = tuple(x - c + d for x, c, d in zip(m, u, v))
                if sum(n) <= cap and n not in seen:
                    seen.add(n)
                    frontier.append(n)
                    if len(seen) > limit:
                        raise LimitExceeded("class-enumeration", "class too large")
    return seen


# ---------------------------------------------------------------------------
# the stage presentation, built whole: the reference for the block decision

@dataclass
class StagePresentation:
    """Stage N over all N|V| generators, winding-major, with one relation per
    vertex and winding; nothing here assumes that windings do not mix."""

    graph: ShiftGraph
    gens: tuple  # ((color, n), ...) winding-major
    relations: tuple  # (((vertex, winding), u, v), ...) full-stage vector pairs, both sides nonzero

    def vector(self, blocks: dict) -> tuple:
        """The full-stage vector of a block vector {winding: block}."""
        k = len(self.graph.vertices)
        vec = [0] * len(self.gens)
        for n, block in blocks.items():
            vec[(n - 1) * k : n * k] = block
        return tuple(vec)


def stage_presentation(g: ShiftGraph, n_max: int) -> StagePresentation:
    gens = tuple((c, n) for n in range(1, n_max + 1) for c in g.vertices)
    pos = {cn: i for i, cn in enumerate(gens)}
    relations = []
    for v in g.vertices:
        if g.is_isolated_color(v):
            continue
        for n in range(1, n_max + 1):
            u = [0] * len(gens)
            for c in g.child_colors(v):
                u[pos[(c, n)]] += 1
            w = [0] * len(gens)
            w[pos[(v, n)]] = 1
            relations.append(((v, n), tuple(u), tuple(w)))
    return StagePresentation(g, gens, tuple(relations))


def stage_completed_rules(sp: StagePresentation) -> list:
    """Buchberger completion of all the stage's relations at once, unbounded:
    S-pairs taken last in, first out, and those with disjoint leads skipped."""
    rules = [_orient(u, v) for _, u, v in sp.relations]
    pending = list(itertools.combinations(range(len(rules)), 2))
    while pending:
        i, j = pending.pop()
        (u1, v1), (u2, v2) = rules[i], rules[j]
        lcm = tuple(map(max, u1, u2))
        if all(a + b == c for a, b, c in zip(u1, u2, lcm)):
            continue
        s1 = _normal_form(tuple(c - a + b for c, a, b in zip(lcm, u1, v1)), rules)
        s2 = _normal_form(tuple(c - a + b for c, a, b in zip(lcm, u2, v2)), rules)
        if s1 != s2:
            rules.append(_orient(s1, s2))
            pending.extend((t, len(rules) - 1) for t in range(len(rules) - 1))
    return rules


def reduced_rules(rules) -> set:
    """The reduced basis of a confluent rule set: a rule leaves when the lead
    of a rule kept before it divides its lead, least lead first, and every
    kept tail is rewritten to its normal form."""
    kept = []
    for u, v in sorted(rules, key=lambda rule: _key(rule[0])):
        if not any(_divides(w, u) for w, _ in kept):
            kept.append((u, v))
    return {(u, _normal_form(v, kept)) for u, v in kept}


def stage_decide_equal(a: tuple, b: tuple, rules) -> bool:
    """Whether two full-stage vectors have the same normal form under the stage's completed rules."""
    return _normal_form(a, rules) == _normal_form(b, rules)


def stage_bfs_path(a: tuple, b: tuple, sp: StagePresentation, cap: int):
    """A path of ((vertex, winding), sign) steps from a to b whose every
    vector has total degree <= cap, or None: the bidirectional search run
    once over whole-stage vectors, all windings jointly."""
    return _block_path(a, b, sp, cap)


def random_element(g: ShiftGraph, base, cfg: GeneratorConfig = None, rng=None) -> ForestPair:
    """Seeded random forest pair with a random color-preserving leaf bijection.

    Both forests grow by expanding a random leaf of the same color, which
    keeps the leaf color multisets equal by construction; the bijection then
    shuffles within color classes.
    """
    cfg = cfg or GeneratorConfig()
    rng = rng or random.Random(cfg.seed)
    dom = [PathWord(i) for i in range(len(base))]
    ran = [PathWord(i) for i in range(len(base))]
    for _ in range(cfg.growth_steps):
        colors = sorted({color_of_word(g, base, w) for w in dom})
        color = rng.choice(colors)
        for side in (dom, ran):
            idxs = [i for i, w in enumerate(side) if color_of_word(g, base, w) == color]
            i = rng.choice(idxs)
            w = side[i]
            side[i : i + 1] = [w.child(e) for e in g.out_order[color]]
    by_color = {}
    for i, w in enumerate(ran):
        by_color.setdefault(color_of_word(g, base, w), []).append(i)
    for idxs in by_color.values():
        rng.shuffle(idxs)
    used = {c: 0 for c in by_color}
    paired = []
    for w in dom:
        c = color_of_word(g, base, w)
        paired.append(ran[by_color[c][used[c]]])
        used[c] += 1
    return ForestPair(tuple(dom), tuple(paired), tuple(base))


def juxtapose(*pairs: ForestPair) -> ForestPair:
    """The direct sum f1 + f2 + ...: each pair, re-rooted, acts on its own
    block of the concatenated base."""
    dom, ran, base = [], [], ()
    for fp in pairs:
        dom += [PathWord(w.root + len(base), w.edges) for w in fp.domain_leaves]
        ran += [PathWord(w.root + len(base), w.edges) for w in fp.range_leaves]
        base += fp.base
    return ForestPair(tuple(dom), tuple(ran), base)


def random_graph(cfg: GeneratorConfig = None, rng=None):
    """Seeded random normalized graph plus a random nonempty base."""
    cfg = cfg or GeneratorConfig()
    rng = rng or random.Random(cfg.seed)
    while True:
        n = rng.randint(1, cfg.max_vertices)
        vertices = [f"V{i}" for i in range(n)]
        edges = {}
        order = {v: [] for v in vertices}
        eid = 0
        for v in vertices:
            degree = rng.randint(1, cfg.max_out_degree)
            if degree == 1:
                targets = [v]  # out-degree 1 forces a self-loop
            else:
                targets = [rng.choice(vertices) for _ in range(degree)]
            for t in targets:
                edges[f"e{eid}"] = (v, t)
                order[v].append(f"e{eid}")
                eid += 1
        g = ShiftGraph(vertices, edges, order)
        if validate_graph(g):
            continue
        g, _, _ = normalize_graph(g, ())
        if validate_graph(g):
            continue
        base = tuple(rng.choice(g.vertices) for _ in range(rng.randint(1, 3)))
        return g, base


# ---------------------------------------------------------------------------
# the reference reader: a token list of (token, line, column) triples, read
# one method call per token

_PUNCT = ("->", ";", ":", ",", "[", "]", "(", ")", "+", "*", "#", ".")
# A token is a punctuation mark or a run of \w, which is str.isalnum() or "_".
# finditer skips whitespace; group 1 catches any other character.
_TOKEN = re.compile("|".join(map(re.escape, _PUNCT)) + r"|\w+|(\S)")


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        for line, chars in enumerate(text.split("\n"), 1):
            for m in _TOKEN.finditer(chars):
                if m.lastindex:
                    raise ParseError(f"unexpected character {m[1]!r}", line, m.start() + 1)
                self.toks.append((m[0], line, m.start() + 1))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def where(self):
        if self.pos < len(self.toks):
            _, line, col = self.toks[self.pos]
            return line, col
        if self.toks:
            _, line, col = self.toks[-1]
            return line, col
        return 1, 1

    def next(self, expect=None):
        if self.pos >= len(self.toks):
            line, col = self.where()
            raise ParseError(f"unexpected end of input (expected {expect or 'a token'})", line, col)
        tok, line, col = self.toks[self.pos]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}", line, col)
        self.pos += 1
        return tok

    def error(self, message, at=None):
        """Raise at token index `at`, by default at the current token."""
        if at is None:
            line, col = self.where()
        else:
            _, line, col = self.toks[at]
        raise ParseError(message, line, col)

    def skip_separators(self):
        while self.peek() == ";":
            self.next()


def _name(ts: _Tokens, what: str) -> str:
    tok = ts.peek()
    if tok is None or tok in _PUNCT:
        ts.error(f"expected {what}")
    return ts.next()


def _bracketed(ts: _Tokens, read) -> tuple:
    """Read `[item, ...]`, commas optional, calling read() for each item."""
    ts.next("[")
    items = []
    while ts.peek() != "]":
        items.append(read())
        if ts.peek() == ",":
            ts.next()
    ts.next("]")
    return tuple(items)


def reference_parse_graph(text: str):
    """Parse a graph file into (ShiftGraph, base tuple).

    A fault is reported at the statement it concerns, a base entry that is
    not a vertex at that entry.
    """
    ts = _Tokens(text)
    ts.next("graph")
    vertices = []
    edges = {}
    order = {}
    base = None
    at = {}  # ("vertex" | "edge" | "order", name) -> position of its statement
    ts.skip_separators()
    while ts.peek() is not None:
        tok, here = ts.peek(), ts.where()
        if tok == "vertex":
            ts.next()
            vertices.append(_name(ts, "a vertex name"))
            at["vertex", vertices[-1]] = here
        elif tok == "edge":
            ts.next()
            eid = _name(ts, "an edge id")
            ts.next(":")
            a = _name(ts, "a vertex name")
            ts.next("->")
            b = _name(ts, "a vertex name")
            if eid in edges:
                raise ParseError(f"edge {eid} defined twice", *here)
            edges[eid] = (a, b)
            at["edge", eid] = here
        elif tok == "order":
            ts.next()
            v = _name(ts, "a vertex name")
            ts.next(":")
            ids = _bracketed(ts, lambda: _name(ts, "an edge id"))
            if v in order:
                raise ParseError(f"order for {v} given twice", *here)
            order[v] = ids
            at["order", v] = here
        elif tok == "base":
            if base is not None:
                raise ParseError("base given twice", *here)
            ts.next()
            base = _bracketed(ts, lambda: (ts.where(), _name(ts, "a vertex name")))
        else:
            ts.error(f"unknown statement {tok!r}")
        ts.skip_separators()
    if base is None:
        ts.error("missing base [...] statement")
    for v in vertices:
        if v not in order:
            raise ParseError(f"missing mandatory order line for vertex {v}", *at["vertex", v])
    for here, y in base:
        if y not in vertices:
            raise ParseError(f"base entry {y} is not a vertex", *here)
    for statement, message in _structure_faults(vertices, edges, order):
        raise ParseError(message, *at[statement])
    return ShiftGraph(vertices, edges, order), tuple(y for _, y in base)


def _parse_word(ts: _Tokens, g: ShiftGraph, base, roots: dict) -> PathWord:
    """Read one path word; `roots` maps each base name to its positions.

    A fault is reported at the root name, occurrence or edge it concerns.
    """
    at_name = ts.pos
    name = _name(ts, "a root vertex name")
    occurrence = None
    if ts.peek() == "#":
        ts.next()
        at_k = ts.pos
        k = _name(ts, "an occurrence number")
        if not k.isdecimal():
            ts.error("occurrence must be a positive integer", at_k)
        occurrence = int(k)
    positions = roots.get(name)
    if positions is None:
        ts.error(f"{name} is not an entry of the base {list(base)}", at_name)
    if occurrence is None:
        if len(positions) > 1:
            ts.error(f"base repeats {name}; disambiguate with {name}#k", at_name)
        root = positions[0]
    else:
        if not (1 <= occurrence <= len(positions)):
            ts.error(f"{name}#{occurrence}: only {len(positions)} occurrence(s)", at_k)
        root = positions[occurrence - 1]
    edges = []
    at = name
    while ts.peek() == ".":
        ts.next()
        e = _name(ts, "an edge id")
        ends = g.edges.get(e)
        if ends is None or ends[0] != at:
            ts.error(f"edge {e} does not continue a path at {at}", ts.pos - 1)
        edges.append(e)
        at = ends[1]
    return PathWord(root, tuple(edges))


def reference_parse_element(text: str, g: ShiftGraph, base) -> ForestPair:
    """Parse an element file against a graph and base; validates the pair.

    A fault of the pair at one leaf is reported at that leaf's first token;
    one that concerns no single leaf, at the end of the element.
    """
    ts = _Tokens(text)
    roots = {}
    for i, y in enumerate(base):
        roots.setdefault(y, []).append(i)
    ts.next("element")
    ts.skip_separators()
    starts = {}  # side -> token index of each leaf's first token
    leaves = {}
    for side in ("domain", "range"):
        ts.next(side)
        read = _bracketed(ts, lambda: (ts.pos, _parse_word(ts, g, base, roots)))
        starts[side] = [at for at, _ in read]
        leaves[side] = tuple(w for _, w in read)
        ts.skip_separators()
    if ts.peek() is not None:
        ts.error("trailing input after element")
    fp = ForestPair(leaves["domain"], leaves["range"], tuple(base))
    line, col = ts.where()
    try:
        validate_forest_pair(g, fp)
    except ValueError as exc:
        if isinstance(exc, LeafFault):
            _, line, col = ts.toks[starts[exc.side][exc.index]]
        raise ParseError(str(exc), line, col) from exc
    return fp
