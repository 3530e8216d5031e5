"""Closed strand diagrams: base lines, similarities, reductions, semi-reduction.

Closing a diagram with equal domain and range glues source i to sink i; each
gluing leaves one base point of in- and out-degree 1 on the resulting cycle
structure.  Cutting at the base points is the inverse bijection
(:func:`strandshift.testkit.cut`, which only the tests need).  Base line
shifts move a split or merge through the base line, base line permutations
reorder it; both are similarities and conjugate the cut element.  Type 0/1/2
reductions act away from the base line; type 3 reductions collapse interleaved
loops whose colors form the out-star of a common vertex.

Each move kind is one in-place edit of a :class:`_ClosedTables` copy that
returns a :class:`Move` record, with enough data to replay the move and to
stack its conjugating diagram (:class:`_Stack`).  Its public name runs the
edit on a fresh copy and returns (new diagram, move).

The skeleton of a split-merge part splices its base points out into a
cocycle that counts the base points on each chain between split, merge and
degenerate points.  A base line shift pushes that cocycle by a point
coboundary and a permutation leaves it alone, so step 2 compares skeletons,
and the push planner turns step 2's coboundary back into legal shifts.
Semi-reduction tests the same chains without building a skeleton: it follows
them through the base points of its working tables.  A split-merge redex can
be freed of base points by similarities exactly when its strands carry one
count t, and then the push planner's plan is t pushes at one point of the
redex, which semi-reduction writes down directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .diagrams import (
    StrandDiagram,
    _Builder,
    _copy_tables,
    _drop_point,
    _drop_strand,
    _redexes_at,
    _reduce_in_place,
    _retarget,
    _splice_out,
    _Tables,
    apply_redex,
    find_redexes,
)
from .errors import PreconditionError, SignatureMismatch
from .graphs import ShiftGraph


class ClosedDiagram(_Tables):
    """The six adopted diagram tables plus the base line, an ordered tuple of
    base point ids, each of in- and out-degree 1.  Moves never edit them:
    a move's public name runs its in-place edit on a :class:`_ClosedTables`
    copy and builds a new diagram from it."""

    __slots__ = ("base_line", "base_set", "_ukey")

    def __init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots, base_line):
        _Tables.__init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots)
        self.base_line = tuple(base_line)
        self.base_set = frozenset(base_line)
        self._ukey = None
        for b in self.base_line:
            assert len(self.in_slots[b]) == 1 and len(self.out_slots[b]) == 1, "base points have degree (1,1)"

    def splits_merges_degens(self) -> int:
        return len(self.point_color) - len(self.base_line)

    def __repr__(self):
        colors = tuple(self.point_color[b] for b in self.base_line)
        return f"ClosedDiagram({len(self.point_color)} points, base {colors})"


class _ClosedTables(_Tables):
    """A copy of a closed diagram's tables and base line that the in-place
    moves edit.

    `base_line` is a list and `base_set` its set.  Each shift appends to
    `moved` the origin of every strand whose target it changes, at the time
    of the change: those are the only points whose redex predicate it can
    change (see :func:`semi_reduce`).
    """

    __slots__ = ("base_line", "base_set", "moved", "_next")

    def __init__(self, c: ClosedDiagram):
        _Tables.__init__(self, *_copy_tables(c))
        self.base_line = list(c.base_line)
        self.base_set = set(c.base_line)
        self.moved = []
        self._next = None

    def fresh(self, n: int) -> int:
        """The first of n new consecutive ids.  The largest id in use is
        scanned for on the first call only.  Each move takes its ids before
        it removes any, and no reduction removes the last strand a move
        adds, which leaves a base point, so this is 1 + the largest live id,
        as on a fresh copy."""
        if self._next is None:
            self._next = 1 + max([*self.point_color, *self.strand_color], default=0)
        first = self._next
        self._next += n
        return first

    def freeze(self) -> ClosedDiagram:
        """The diagram of the tables and base line; edit them no further."""
        return ClosedDiagram(*self.tables(), self.base_line)


def _edited(c: ClosedDiagram, edit, *args):
    """Run the in-place move `edit` on a copy of c: (new diagram, what the edit returns)."""
    w = _ClosedTables(c)
    out = edit(w, *args)
    return w.freeze(), out


@dataclass(frozen=True)
class Move:
    """One similarity or reduction step.

    `data` replays the move, and :meth:`_Stack.glue` stacks `conj` as its
    conjugator: (perm,) for a permutation, () for a type 0/1/2 reduction,
    and for a shift or type 3 move (start, parent, kids, k), a layer of one
    `parent`-colored split or merge per unit of winding k (1 for a shift)
    from base position `start` on.
    """

    kind: str  # shift-expand | shift-reduce | permute | reduce | type3 | type3-expand
    data: tuple
    conj: tuple = ()


class _Stack(_Builder):
    """An open diagram built from the bottom up: the identity on `colors`,
    then conjugator layers glued on top, onto its sources, in place.

    `glue(move)` stacks the move's conjugator G, the diagram with
    cut(after) = G . cut(before) . G^-1, and `glue(move, inverse=True)` its
    inverse, so the stack reads G_n ... G_1 . identity.  The tests hold each
    layer to the reference diagram :func:`strandshift.testkit.conjugator_of`.
    A layer is a split or a merge at one position per unit of winding, or a
    reordering of the sources; a type 0/1/2 reduction adds nothing.
    """

    def __init__(self, colors):
        super().__init__()
        self.sinks = [self.point(c) for c in colors]
        self.sources = [self.point(c) for c in colors]
        for c, src, snk in zip(colors, self.sources, self.sinks):
            self.strand(c, src, snk)

    def _split(self, pos, color, d):
        """Sources pos..pos+d-1 become the children of a new split of `color`
        under one new source."""
        v = self.point(color)
        for p in self.sources[pos : pos + d]:
            self.attach_origin(self.out_slots[p][0], v)
            del self.point_color[p], self.in_slots[p], self.out_slots[p]
        self.sources[pos : pos + d] = [self.point(color)]
        self.strand(color, self.sources[pos], v)

    def _merge(self, pos, kids):
        """Source pos becomes a merge of one new source per color in `kids`."""
        m = self.sources[pos]
        new = [self.point(c) for c in kids]
        for c, q in zip(kids, new):
            self.strand(c, q, m)
        self.sources[pos : pos + 1] = new

    def glue(self, move: Move, inverse: bool = False) -> None:
        if move.kind == "reduce":
            return
        if move.kind == "permute":
            (perm,) = move.conj
            old = list(self.sources)
            if inverse:
                for j, i in enumerate(perm):
                    self.sources[i] = old[j]
            else:
                self.sources[:] = [old[i] for i in perm]
            return
        start, parent, kids, k = move.conj
        splits = (move.kind in ("shift-reduce", "type3")) != inverse
        d = len(kids)
        for j in reversed(range(k)):
            if splits:
                self._split(start + j * d, parent, d)
            else:
                self._merge(start + j, kids)

    def diagram(self) -> StrandDiagram:
        return self.build(self.sources, self.sinks)


# ---------------------------------------------------------------------------
# closing

def close(d: StrandDiagram) -> ClosedDiagram:
    """Glue source i to sink i; each gluing becomes a base point."""
    if d.domain() != d.range():
        raise SignatureMismatch("only diagrams with equal domain and range close")
    for p in d.sources:
        if len(d.out_slots[p]) != 1:
            raise ValueError("sources must be univalent to close; normalize the diagram")
    for p in d.sinks:
        if len(d.in_slots[p]) != 1:
            raise ValueError("sinks must be univalent to close; normalize the diagram")
    pc, sc, sf, st, ins, outs = _copy_tables(d)
    base = []
    for src, snk in zip(d.sources, d.sinks):
        s_in = ins[snk][0]
        st[s_in] = src
        ins[src] = [s_in]
        del pc[snk], ins[snk], outs[snk]
        base.append(src)
    return ClosedDiagram(pc, sc, sf, st, ins, outs, base)


# ---------------------------------------------------------------------------
# canonical forms

def _bidirectional_order(c: ClosedDiagram, seeds) -> dict:
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


def _serialize(c: ClosedDiagram, order: dict) -> tuple:
    by_rank = sorted(order, key=order.__getitem__)
    records = []
    for p in by_rank:
        outs = []
        for s in c.out_slots[p]:
            q = c.strand_to[s]
            outs.append((c.strand_color[s], order[q], c.in_slots[q].index(s)))
        records.append((c.point_color[p], p in c.base_set, tuple(outs)))
    return tuple(records)


def closed_key(c: ClosedDiagram) -> tuple:
    """Canonical key including the base line order."""
    order = _bidirectional_order(c, c.base_line)
    assert len(order) == len(c.point_color), "component without a base point"
    return (_serialize(c, order), tuple(order[b] for b in c.base_line))


def components(c) -> list:
    """Weakly connected components of any table object, each a sorted tuple of point ids."""
    seen = set()
    comps = []
    for p in sorted(c.point_color):
        if p in seen:
            continue
        order = _bidirectional_order(c, [p])
        seen.update(order)
        comps.append(tuple(sorted(order)))
    return comps


def _least_serialization(c: ClosedDiagram, seeds) -> tuple:
    """(records, orders): records = min(_serialize(c, _bidirectional_order(c,
    [s])) for s in seeds), seeds of one component, and orders the
    breadth-first orders of the seeds that attain it, in seed order.

    Record r of a seed's serialization is fixed once the r-th point leaves
    its breadth-first queue, so the seeds run in lockstep, one record per
    round, and a seed whose record exceeds the round's least one is dropped:
    its serialization can no longer be the minimum.  Seeds that tie to the
    end serialize identically, so pairing the points of equal rank in two
    of their orders is an automorphism of the component.
    """
    point_color, strand_color, base_set = c.point_color, c.strand_color, c.base_set
    strand_from, strand_to, in_slots, out_slots = c.strand_from, c.strand_to, c.in_slots, c.out_slots
    runs = [({s: 0}, deque([s])) for s in seeds]
    records = []
    while runs[0][1]:
        best, kept = None, []
        for run in runs:
            order, queue = run
            p = queue.popleft()
            outs = []
            for s in out_slots[p]:
                q = strand_to[s]
                if q not in order:
                    order[q] = len(order)
                    queue.append(q)
                outs.append((strand_color[s], order[q], in_slots[q].index(s)))
            for s in in_slots[p]:
                q = strand_from[s]
                if q not in order:
                    order[q] = len(order)
                    queue.append(q)
            rec = (point_color[p], p in base_set, tuple(outs))
            if best is None or rec < best:
                best, kept = rec, [run]
            elif rec == best:
                kept.append(run)
        records.append(best)
        runs = kept
    return tuple(records), [order for order, _ in runs]


def unordered_key(c: ClosedDiagram) -> tuple:
    """Canonical key modulo base line permutations.

    Each component is serialized from its best base-point seed, the one whose
    serialization is least; the diagram key is the sorted tuple of component
    keys.  The similarity searches of :mod:`testkit` dedupe their states by
    it, since base order is free.
    The least serialization is found by seed pruning
    (:func:`_least_serialization`), which gives the same key as serializing
    from every seed.
    """
    if c._ukey is not None:
        return c._ukey
    comp_keys = []
    covered = set()
    for b in c.base_line:
        if b in covered:
            continue
        comp = _bidirectional_order(c, [b])
        covered.update(comp)
        comp_keys.append(_least_serialization(c, [p for p in comp if p in c.base_set])[0])
    assert len(covered) == len(c.point_color), "component without a base point"
    key = tuple(sorted(comp_keys))
    c._ukey = key
    return key


# ---------------------------------------------------------------------------
# base point helpers

def _subdivide(c: _ClosedTables, strand):
    """Insert a new base-point-shaped point in the middle of `strand`.

    The original strand keeps its origin and now ends at the new point; a new
    strand continues to the original target in the same in-slot.
    """
    pc, sc, sf, st, ins, outs = c.tables()
    b = c.fresh(2)
    n = b + 1
    color = sc[strand]
    pc[b] = color
    sc[n] = color
    sf[n] = b
    _retarget(st, ins, n, strand)
    st[strand] = b
    ins[b] = [strand]
    outs[b] = [n]
    return b


# ---------------------------------------------------------------------------
# similarities

def shift_directions(c: ClosedDiagram, index: int) -> list:
    """Expanding shift directions available at a base point: "down", "up" or both."""
    if not 0 <= index < len(c.base_line):
        raise PreconditionError(f"base position {index} out of range")
    b = c.base_line[index]
    dirs = []
    v = c.strand_to[c.out_slots[b][0]]
    if v not in c.base_set and len(c.out_slots[v]) >= 2:
        dirs.append("down")
    u = c.strand_from[c.in_slots[b][0]]
    if u not in c.base_set and len(c.in_slots[u]) >= 2:
        dirs.append("up")
    return dirs


def shift_expand(c: ClosedDiagram, index: int, direction=None):
    """Move the split below (or merge above) base point `index` through the line.

    The base point is replaced by one base point per child strand, inserted
    contiguously at its position in edge order.  Returns (new diagram, move).
    """
    return _edited(c, _shift_expand, index, direction)


def _shift_expand(c: _ClosedTables, index: int, direction):
    """:func:`shift_expand` in place: the move."""
    avail = shift_directions(c, index)
    if direction is None:
        if len(avail) != 1:
            raise PreconditionError(
                f"base point {index}: directions {avail or 'none'}; specify one"
            )
        direction = avail[0]
    if direction not in avail:
        raise PreconditionError(f"base point {index}: no movable point {direction}")
    b = c.base_line[index]
    parent = c.point_color[b]
    u = c.strand_from[c.in_slots[b][0]]
    if direction == "down":
        v = c.strand_to[c.out_slots[b][0]]
        c.moved.append(v)
        new_points = [_subdivide(c, s) for s in list(c.out_slots[v])]
    else:
        c.moved.extend(c.strand_from[s] for s in c.in_slots[u])
        new_points = [_subdivide(c, s) for s in list(c.in_slots[u])]
    c.moved.append(u)
    _splice_out(c.tables(), b)
    c.base_line[index : index + 1] = new_points
    c.base_set.remove(b)
    c.base_set.update(new_points)
    kids = tuple(c.point_color[p] for p in new_points)
    return Move("shift-expand", (index, direction), (index, parent, kids, 1))


def shift_reduce(c: ClosedDiagram, positions, direction=None):
    """Consolidate consecutive base points through the merge below / split above.

    `positions` must be consecutive ascending base-line indices whose points
    are, in this order, exactly the slot-order predecessors of one merge
    (direction "down") or successors of one split (direction "up").
    Returns (new diagram, move).
    """
    return _edited(c, _shift_reduce, positions, direction)


def _shift_reduce(c: _ClosedTables, positions, direction):
    """:func:`shift_reduce` in place: the move."""
    positions = tuple(positions)
    if not positions or positions != tuple(range(positions[0], positions[0] + len(positions))):
        raise PreconditionError("positions must be nonempty, consecutive and ascending")
    if not 0 <= positions[0] <= positions[-1] < len(c.base_line):
        raise PreconditionError("positions out of range")
    if direction not in (None, "down", "up"):
        raise PreconditionError(f"unknown direction {direction!r}; use 'down' or 'up'")
    points = [c.base_line[i] for i in positions]

    down_ok = False
    w = c.strand_to[c.out_slots[points[0]][0]]
    if w not in c.base_set and len(c.in_slots[w]) == len(points):
        down_ok = all(c.out_slots[points[j]][0] == c.in_slots[w][j] for j in range(len(points)))
    up_ok = False
    v = c.strand_from[c.in_slots[points[0]][0]]
    if v not in c.base_set and len(c.out_slots[v]) == len(points):
        up_ok = all(c.in_slots[points[j]][0] == c.out_slots[v][j] for j in range(len(points)))
    if direction is None:
        direction = "down" if down_ok else "up"
    if not (down_ok if direction == "down" else up_ok):
        raise PreconditionError("points are not the full ordered boundary of one split/merge")

    kids = tuple(c.point_color[p] for p in points)
    c.moved.extend(c.strand_from[c.in_slots[p][0]] for p in points)
    # the new point first: its ids are taken before any is removed
    nb = _subdivide(c, c.out_slots[w][0] if direction == "down" else c.in_slots[v][0])
    tabs = c.tables()
    for p in points:
        _splice_out(tabs, p)
    c.moved.append(c.strand_from[c.in_slots[nb][0]])
    gone = set(points)
    c.base_line[:] = [p for p in c.base_line if p not in gone]
    c.base_line.insert(positions[0], nb)
    c.base_set -= gone
    c.base_set.add(nb)
    return Move("shift-reduce", (positions, direction), (positions[0], c.point_color[nb], kids, 1))


def permute_base(c: ClosedDiagram, perm):
    """Reorder the base line: new position j holds the old base point perm[j].
    Like every move, it edits a copy of c.  Returns (new diagram, move)."""
    return _edited(c, _permute_base, perm)


def _permute_base(c: _ClosedTables, perm):
    """:func:`permute_base` in place: the move."""
    perm = tuple(perm)
    if sorted(perm) != list(range(len(c.base_line))):
        raise PreconditionError("not a permutation of base positions")
    c.base_line[:] = [c.base_line[j] for j in perm]
    return Move("permute", (perm,), (perm,))


# ---------------------------------------------------------------------------
# reductions

def _reduce(c: _ClosedTables, rtype, payload):
    """Apply the type 0/1/2 redex with this payload (as in
    :func:`strandshift.diagrams.find_redexes`) to c in place: the move."""
    apply_redex(c.tables(), (rtype, payload if rtype == 0 else payload[0], payload))
    return Move("reduce", (rtype, payload))


def _replace_loops(c: _ClosedTables, start, block, colors, k):
    """Replace the loop points `block`, at base positions from `start` on,
    by d = len(colors) interleaved loops of winding k, in place.

    Loop j has color colors[j] and visits the new base positions start+j,
    start+j+d, ...  The new ids, taken before the drops, are the points in
    base order, then the strands loop by loop.
    """
    tabs = pc, sc, sf, st, ins, outs = c.tables()
    d = len(colors)
    first = c.fresh(2 * k * d)
    for b in block:
        _drop_strand(tabs, outs[b][0])
        _drop_point(tabs, b)
    new_points = list(range(first, first + k * d))
    for p in new_points:
        ins[p] = []
        outs[p] = []
    loops = [new_points[j::d] for j in range(d)]
    for color, loop in zip(colors, loops):
        for p in loop:
            pc[p] = color
    s = first + k * d
    for color, loop in zip(colors, loops):
        for t in range(k):
            a, b = loop[t], loop[(t + 1) % k]
            sc[s] = color
            sf[s] = a
            st[s] = b
            outs[a].append(s)
            ins[b].append(s)
            s += 1
    c.base_line[start : start + len(block)] = new_points
    c.base_set.difference_update(block)
    c.base_set.update(new_points)


def type3_reduce(c: ClosedDiagram, g: ShiftGraph, start: int, d: int, k: int, vertex=None):
    """Collapse d interleaved loops of winding k into one loop of winding k.

    Base positions start..start+k*d-1 must hold, in this order, the points of
    d loops: loop j visits positions start+j, start+j+d, ... and the loop
    colors v_1..v_d must be the ordered child colors of a common vertex.  The
    replacement is a single loop of that vertex's color with k base points.
    Returns (new diagram, move).
    """
    return _edited(c, _type3_reduce, g, start, d, k, vertex)


def _type3_reduce(c: _ClosedTables, g: ShiftGraph, start: int, d: int, k: int, vertex):
    """:func:`type3_reduce` in place: the move."""
    if k < 1 or d < 1:
        raise PreconditionError(f"winding k={k} and loop count d={d} must be positive")
    n = k * d
    if not (0 <= start and start + n <= len(c.base_line)):
        raise PreconditionError("block out of range")
    block = [c.base_line[start + t] for t in range(n)]
    for j in range(d):
        for t in range(k):
            a = block[j + t * d]
            nxt = block[j + ((t + 1) % k) * d]
            if c.strand_to[c.out_slots[a][0]] != nxt:
                raise PreconditionError("positions do not interleave into loops")
    kids = tuple(c.point_color[b] for b in block[:d])
    candidates = [v for v in g.vertices if g.child_colors(v) == kids]
    if vertex is None:
        if not candidates:
            raise PreconditionError(f"no vertex has ordered children {kids}")
        vertex = candidates[0]
    elif vertex not in candidates:
        raise PreconditionError(f"vertex {vertex} does not have ordered children {kids}")

    _replace_loops(c, start, block, (vertex,), k)
    return Move("type3", (start, d, k, vertex), (start, vertex, kids, k))


def type3_expand(c: ClosedDiagram, g: ShiftGraph, start: int, k: int, vertex):
    """Inverse of :func:`type3_reduce` at a consecutive loop block.

    Base positions start..start+k-1 must hold one `vertex`-colored loop of
    winding k, visited in this order; it becomes d interleaved child loops.
    Returns (new diagram, move).
    """
    return _edited(c, _type3_expand, g, start, k, vertex)


def _type3_expand(c: _ClosedTables, g: ShiftGraph, start: int, k: int, vertex):
    """:func:`type3_expand` in place: the move."""
    if k < 1:
        raise PreconditionError(f"winding k={k} must be positive")
    if not (0 <= start and start + k <= len(c.base_line)):
        raise PreconditionError("block out of range")
    block = [c.base_line[start + t] for t in range(k)]
    for t in range(k):
        if c.strand_to[c.out_slots[block[t]][0]] != block[(t + 1) % k]:
            raise PreconditionError("positions do not form one loop in order")
    if c.point_color[block[0]] != vertex:
        raise PreconditionError("loop color differs from vertex")
    kids = g.child_colors(vertex)
    _replace_loops(c, start, block, kids, k)
    return Move("type3-expand", (start, k, vertex), (start, vertex, kids, k))


# ---------------------------------------------------------------------------
# consolidation

def _reorder(c: _ClosedTables, new_line) -> list:
    """Permute the base line in place so it reads `new_line`: the moves, none
    if it already does."""
    if list(new_line) == c.base_line:
        return []
    at = {p: i for i, p in enumerate(c.base_line)}
    return [_permute_base(c, tuple(at[p] for p in new_line))]


def _consolidate(c: _ClosedTables, mode, slot_points) -> list:
    """Permute the given base points together (if needed), then shift-reduce
    them, in place: the moves."""
    first = min(c.base_line.index(p) for p in slot_points)
    rest = [p for p in c.base_line if p not in set(slot_points)]
    moves = _reorder(c, rest[:first] + list(slot_points) + rest[first:])
    moves.append(_shift_reduce(c, range(first, first + len(slot_points)), mode))
    return moves


# ---------------------------------------------------------------------------
# parts

def _loops(c: ClosedDiagram) -> list:
    """Components made of base points only, by least point: (color, points in
    cycle order from the least); the winding is the number of points."""
    loops = []
    for comp in components(c):
        if all(p in c.base_set for p in comp):
            cycle = [comp[0]]
            while len(cycle) < len(comp):
                cycle.append(c.strand_to[c.out_slots[cycle[-1]][0]])
            loops.append((c.point_color[comp[0]], cycle))
    return loops


def decompose_parts(c: ClosedDiagram):
    """Split a semi-reduced diagram into its split-merge part and loop part.

    Components made of base points only are summarized as a multiset
    {(color, winding): count}; the remaining components form a closed diagram
    whose base line keeps the original order.
    """
    loops = {}
    looped = set()
    for color, points in _loops(c):
        key = (color, len(points))
        loops[key] = loops.get(key, 0) + 1
        looped.update(points)
    keep = [p for p in c.point_color if p not in looped]
    part = ClosedDiagram(
        {p: c.point_color[p] for p in keep},
        {s: c.strand_color[s] for s in c.strand_color if c.strand_from[s] not in looped},
        {s: p for s, p in c.strand_from.items() if p not in looped},
        {s: p for s, p in c.strand_to.items() if p not in looped},
        {p: c.in_slots[p] for p in keep},
        {p: c.out_slots[p] for p in keep},
        [b for b in c.base_line if b not in looped],
    )
    return part, loops


# ---------------------------------------------------------------------------
# the skeleton and its pushes

class SplitMergeSkeleton(ClosedDiagram):
    """Split-merge part with its base points spliced out, on the table core.

    Splicing keeps the incoming strand's id, so a skeleton strand is the
    first strand of its base-point chain, the out-strand of a split, merge or
    degenerate point, and `cocycle` maps it to the number of base points
    spliced out of that chain.  The base line is empty.
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


def _plan_cocycle_moves(sk: SplitMergeSkeleton, comp, x: dict) -> list:
    """Push plan carrying the cocycle of `sk` on component `comp` onto its match.

    `x` is step 2's solution: x[from s] - x[to s] is how many more base
    points skeleton strand s carries than its image.  A forward push through
    p takes one base point off each strand into p and puts one on each strand
    out of p (a backward push undoes it), so pushing every p net m - x[p]
    times realizes the difference for any constant m; a median m gives the
    fewest pushes.  A push is legal when its source strands all carry a base
    point.  While pushes remain some push is legal, because every directed
    cycle crosses the base line and pushes never change cycle sums.  Shifts
    keep the ids of strands leaving non-base points and never touch another
    component, so one skeleton serves the plans of all its components in turn.
    """
    counts = dict(sk.cocycle)
    m = sorted(x[p] for p in comp)[len(comp) // 2]
    left = {p: m - x[p] for p in sorted(comp) if x[p] != m}

    def legal(p):
        return all(counts[s] for s in (sk.in_slots[p] if left[p] > 0 else sk.out_slots[p]))

    plan = []
    while left:
        p = next(filter(legal, left), None)
        assert p is not None, "no legal push: a directed cycle misses the base line"
        step = 1 if left[p] > 0 else -1
        for s in sk.in_slots[p]:
            counts[s] -= step
        for s in sk.out_slots[p]:
            counts[s] += step
        plan.append((p, "expand" if (step > 0) == (len(sk.out_slots[p]) >= 2) else "reduce"))
        left[p] -= step
        if not left[p]:
            del left[p]
    return plan


def _push(c: _ClosedTables, plan) -> list:
    """Carry out a push plan of :func:`_plan_cocycle_moves` by shifts, in
    place: the moves."""
    moves = []
    for p, action in plan:
        is_split = len(c.out_slots[p]) >= 2
        if action == "expand":
            b = c.strand_from[c.in_slots[p][0]] if is_split else c.strand_to[c.out_slots[p][0]]
            moves.append(_shift_expand(c, c.base_line.index(b), "down" if is_split else "up"))
        elif is_split:
            moves.extend(_consolidate(c, "up", [c.strand_to[s] for s in c.out_slots[p]]))
        else:
            moves.extend(_consolidate(c, "down", [c.strand_from[s] for s in c.in_slots[p]]))
    return moves


# ---------------------------------------------------------------------------
# semi-reduction

def _chain(c, s) -> tuple:
    """Follow strand s through base points: (the point off the base line it
    reaches, the last strand, the number of base points passed)."""
    st, outs, base = c.strand_to, c.out_slots, c.base_set
    t = 0
    q = st[s]
    while q in base:
        t += 1
        s = outs[q][0]
        q = st[s]
    return q, s, t


def _freeable(c) -> tuple | None:
    """The first type 1/2 redex of c's skeleton, in `point_color` order,
    whose strands carry one count of base points, read on c itself:
    (type, point, partner, count), or None.  The tests are those of the
    skeleton's redex predicate on the chains, a chain's last strand
    standing for the skeleton strand in its in-slot."""
    pc, ins, outs, base = c.point_color, c.in_slots, c.out_slots, c.base_set
    for v in pc:
        if v in base:
            continue
        o = outs[v]
        split = len(o) >= 2
        if split != (len(ins[v]) == 1):
            continue  # neither a split nor a merge
        w, s, t = _chain(c, o[0])
        if pc[w] != pc[v]:
            continue
        if not split:
            if len(ins[w]) == 1 and len(outs[w]) >= 2:
                return 2, v, w, t
        elif len(outs[w]) == 1 and len(ins[w]) == len(o) and ins[w][0] == s:
            if all(_chain(c, s_out)[1:] == (s_in, t) for s_out, s_in in zip(o[1:], ins[w][1:])):
                return 1, v, w, t
    return None


def _freeing_plan(c, v, w, t) -> list:
    """The push plan of :func:`_plan_cocycle_moves` on x = t at v, 0
    elsewhere in v's skeleton component (see :func:`semi_reduce`): t forward
    pushes at w when the component is {v, w}, else t backward pushes at v.

    The chains out of v end at w, so the component is {v, w} exactly when
    those out of w end at v or w, as v and w have as many in-slots as
    out-slots: for type 1, ins[w] = outs[v] and ins[v] = outs[w] = 1; for
    type 2, ins[w] = outs[v] = 1, and v and w, of one colour, have a slot
    per child on their other sides."""
    pair = all(_chain(c, s)[0] in (v, w) for s in c.out_slots[w])
    p, forward = (w, True) if pair else (v, False)
    return [(p, "expand" if forward == (len(c.out_slots[p]) >= 2) else "reduce")] * t


def semi_reduce(c: ClosedDiagram, budget=None, rng=None, probe=None):
    """Apply type 0/1/2 reductions until no similar diagram admits one.

    Returns (semi-reduced diagram, trace of moves performed).  `budget`,
    `rng` and `probe` are ignored; they stay only until the benchmark's
    tracer stops passing them.

    Reductions that avoid the base line are taken as they come: the first
    live redex of the least type present, in the order the worklist holds
    them.  When none is left, the test for one that similarities can reach
    reads the :func:`skeleton` of the working tables without building it:
    similarities keep every split, merge and chain between them, so a
    reduction of a similar diagram is a type 1/2 skeleton redex (split or
    merge v, partner w) whose strands carry no base point there.
    :func:`_freeable` follows each strand out of a split or merge through
    the base points to the next point off the base line, which gives the
    skeleton strand and its count, and tests the chains.

    "=>": a shift through p adds the coboundary of p to the cocycle c (one
    off each chain into p, one on each chain out of p, or the reverse) and a
    permutation leaves it alone.  So a similar diagram has the cocycle
    c[s] + y(from s) - y(to s) for an integer y, and its counts are
    non-negative: y(to s) - y(from s) <= c[s] on every strand s.  If it
    frees the redex, y(w) - y(v) = c[s] holds on the redex's strands.
    These difference constraints are feasible exactly when the graph
    weighted by c, plus each redex strand reversed with weight -c[s], has no
    negative cycle (Cormen-Leiserson-Rivest-Stein, Introduction to
    Algorithms, 24.4), that is when the cheapest path v ~> w weighs c[s]
    for every redex strand s.  Every out-strand of v is a redex strand
    ending at w, so every path out of v begins with one and the cheapest
    path v ~> w is the lightest redex strand: the system is feasible exactly
    when the redex strands carry one count t.  A type 2 redex has one strand
    and always passes; a type 1 redex passes when its strands agree.

    "<=": the shortest-path potentials from a virtual source are then
    y = -t at v and 0 elsewhere, since every path from v to another point
    passes w at cost t.  The target cocycle c[s] + y(from s) - y(to s) is
    non-negative and zero on the redex strands, and
    :func:`_plan_cocycle_moves` reaches every non-negative cocycle of the
    class by legal shifts, because every directed cycle crosses the base
    line and pushes never change cycle sums.  So its plan on x = -y, which
    is t at v and 0 elsewhere on v's skeleton component, frees the redex,
    and the next round reduces it.

    That plan has a closed form.  It pushes each point p of the component
    net m - x[p] times, where m is entry len // 2 of the sorted values of x.
    A component of n >= 3 points sorts to n - 1 zeros and then t, and
    n // 2 <= n - 2, so m = 0: the plan is t backward pushes at v.  The
    component {v, w} sorts to [0, t], so m = t: the plan is t forward
    pushes at w.  (Pushing every point of a component once changes no
    count, so both give the same cocycle.)  A forward push through a split
    and a backward push through a merge are expanding shifts, the other two
    reducing shifts.  :func:`_freeing_plan` writes the plan down.

    Each reduction removes points, so this terminates, and a diagram it
    returns is semi-reduced: a second call performs no move.

    Every move edits one copy of c's tables and base line in place, and one
    diagram is built at the end; when no move applies, c itself is
    returned.  Reductions run on the worklist of
    :func:`strandshift.diagrams.reduce_with_log`, base points skipped, and
    a freeing round runs when none is left.  The redex test at q reads the
    degrees of q and of the target w of its out-strands, w's color,
    in-slots and base membership.  No shift changes the degrees of a point
    it keeps, so it changes the test only at the origins of the strands
    whose target it changes (a point that fed w by another strand before
    and after fails the type 1 test both times), and only those are tested
    again: of the strands into the base points it removes and of those its
    new base points cut.

    A freeing round frees the first freeable redex in table order, so it
    reads the working tables at most once, copies nothing, and stops early
    when it finds one.  New ids come from :meth:`_ClosedTables.fresh`.

    Another order of moves can stop at another form: its split-merge part
    is similar to this one's, and its loops are equal in the loops
    semigroup, though they may pass more or fewer base points.  That is all
    the conjugacy test compares, so no verdict depends on the order.  The
    order is fixed by the tables and their insertion order, and by nothing
    else.  The canonical and random orders live on
    :func:`strandshift.testkit.reference_semi_reduce`.
    """
    redexes = find_redexes(c, skip=c.base_set)
    if not redexes and _freeable(c) is None:
        return c, []
    w = _ClosedTables(c)
    trace = []
    while True:
        for rtype, _, payload in _reduce_in_place(w.tables(), redexes, w.base_set):
            trace.append(Move("reduce", (rtype, payload)))
        freeable = _freeable(w)
        if freeable is None:
            break
        _, v, partner, t = freeable
        assert t > 0, "a free redex is missing from the worklist"
        trace.extend(_push(w, _freeing_plan(w, v, partner, t)))
        redexes = _redexes_at(w, [q for q in w.moved if q in w.point_color], w.base_set)
        w.moved.clear()
    return w.freeze(), trace


# ---------------------------------------------------------------------------
# replay

def replay(c: ClosedDiagram, moves, g: ShiftGraph = None) -> ClosedDiagram:
    """Re-apply a recorded move sequence to one copy of c; returns the final diagram."""
    edits = {
        "shift-expand": _shift_expand,
        "shift-reduce": _shift_reduce,
        "permute": _permute_base,
        "reduce": _reduce,
        "type3": lambda w, *data: _type3_reduce(w, g, *data),
        "type3-expand": lambda w, *data: _type3_expand(w, g, *data),
    }
    w = _ClosedTables(c)
    for mv in moves:
        if mv.kind not in edits:
            raise ValueError(f"unknown move {mv.kind}")
        edits[mv.kind](w, *mv.data)
    return w.freeze()
