"""Closed strand diagrams: base lines, similarities, reductions, semi-reduction.

Closing a diagram with equal domain and range glues source i to sink i; each
gluing leaves one base point of in- and out-degree 1 on the resulting cycle
structure.  Cutting at the base points is the inverse bijection
(:func:`strandshift.testkit.cut`, which only the tests need).  Base line
shifts move a split or merge through the base line, base line permutations
reorder it; both are similarities and conjugate the cut element.  Type 0/1/2
reductions act away from the base line; type 3 reductions collapse interleaved
loops whose colors form the out-star of a common vertex.  The keys come
from the one serializer, :func:`strandshift.diagrams._least_serialization`,
with the base points as its `marked` points.

Each move kind is one in-place edit of a :class:`_ClosedTables` copy that
returns a :class:`Move` record, with enough data to replay the move and to
stack its conjugating diagram (:class:`_Stack`).  Its public name runs the
edit on a fresh copy and returns (new diagram, move).  The copy and the
stack are working copies of the diagram core
(:class:`strandshift.diagrams._Builder`), whose one allocator gives every
new point, strand and id.  Every shift and push is one edit, :func:`_shift`,
through one split or merge p: it subdivides p's far strands and splices out
the base points next to p (:func:`_near`).

The skeleton of a split-merge part splices its base points out into a
cocycle that counts the base points on each chain between split, merge and
degenerate points.  A base line shift pushes that cocycle by a point
coboundary and a permutation leaves it alone, so step 2 compares skeletons,
and the witness realizes step 2's coboundary by :func:`_push_coboundary`.
Semi-reduction tests the same chains without building a skeleton: it follows
them through the base points of its working tables.  A split-merge redex can
be freed of base points by similarities exactly when its strands carry one
count t, and then t backward pushes at its split or merge free it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (
    StrandDiagram,
    _Builder,
    _drop_point,
    _drop_strand,
    _least_serialization,
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

    __slots__ = ("base_line", "base_set")

    def __init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots, base_line):
        _Tables.__init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots)
        self.base_line = tuple(base_line)
        self.base_set = frozenset(base_line)
        for b in self.base_line:
            assert len(self.in_slots[b]) == 1 and len(self.out_slots[b]) == 1, "base points have degree (1,1)"

    def __repr__(self):
        colors = tuple(self.point_color[b] for b in self.base_line)
        return f"ClosedDiagram({len(self.point_color)} points, base {colors})"


class _ClosedTables(_Builder):
    """A working copy of a closed diagram's tables, with its base line,
    that the in-place moves edit.

    `base_line` is a list and `base_set` its set.
    """

    __slots__ = ("base_line", "base_set")

    def __init__(self, c: ClosedDiagram):
        _Builder.__init__(self, c)
        self.base_line = list(c.base_line)
        self.base_set = set(c.base_line)

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
            _drop_point(self, p)
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
    w = _Builder(d)
    st, ins = w.strand_to, w.in_slots
    for src, snk in zip(d.sources, d.sinks):
        s_in = ins[snk][0]
        st[s_in] = src
        ins[src] = [s_in]
        _drop_point(w, snk)
    return ClosedDiagram(*w.tables(), d.sources)


# ---------------------------------------------------------------------------
# canonical forms

def components(c) -> list:
    """Weakly connected components of any table object, each a sorted tuple of point ids."""
    strand_from, strand_to, in_slots, out_slots = c.strand_from, c.strand_to, c.in_slots, c.out_slots
    seen = set()
    comps = []
    for p in sorted(c.point_color):
        if p in seen:
            continue
        seen.add(p)
        comp = [p]
        for q in comp:
            for s in out_slots[q]:
                r = strand_to[s]
                if r not in seen:
                    seen.add(r)
                    comp.append(r)
            for s in in_slots[q]:
                r = strand_from[s]
                if r not in seen:
                    seen.add(r)
                    comp.append(r)
        comps.append(tuple(sorted(comp)))
    return comps


def unordered_key(c: ClosedDiagram) -> tuple:
    """Canonical key modulo base line permutations: the sorted keys of the
    components, each its least serialization over one run per base point.
    The similarity searches of :mod:`testkit` dedupe their states by it."""
    comp_keys = []
    for comp in components(c):
        runs = [(p,) for p in comp if p in c.base_set]
        assert runs, "component without a base point"
        comp_keys.append(_least_serialization(c, runs, c.base_set)[0])
    return tuple(sorted(comp_keys))


# ---------------------------------------------------------------------------
# base point helpers

def _subdivide(c: _ClosedTables, strand):
    """Insert a new base-point-shaped point in the middle of `strand`.

    The original strand keeps its origin and now ends at the new point; a new
    strand continues to the original target in the same in-slot.
    """
    color = c.strand_color[strand]
    b = c.point(color)
    _retarget(c.strand_to, c.in_slots, c.strand(color, b), strand)
    c.attach_target(strand, b)
    return b


# ---------------------------------------------------------------------------
# similarities

def _near(c, p, step: int) -> list:
    """The base points that a push through p moves, in slot order: going
    forward (step > 0) the origins of p's in-strands, going backward the
    targets of its out-strands."""
    if step > 0:
        return [c.strand_from[s] for s in c.in_slots[p]]
    return [c.strand_to[s] for s in c.out_slots[p]]


def _shift(c: _ClosedTables, p, step: int, start: int) -> Move:
    """Push the base line once through the split or merge p, in place: the
    move.  Every shift is this edit.  The near points (:func:`_near`) must
    stand together, in slot order, from base position `start` on.

    Each of p's far strands (its out-strands going forward, its in-strands
    going backward) is subdivided by a new base point, whose ids are taken
    first, and the near points are spliced out.  One near point meeting two
    or more far strands is an expanding shift, anything else a reducing one.
    """
    near = _near(c, p, step)
    far = list(c.out_slots[p] if step > 0 else c.in_slots[p])
    expand = len(near) == 1 and len(far) >= 2
    new = [_subdivide(c, s) for s in far]
    kids = tuple(c.point_color[b] for b in (new if expand else near))
    for b in near:
        _splice_out(c, b)
    c.base_line[start : start + len(near)] = new
    c.base_set.difference_update(near)
    c.base_set.update(new)
    direction = "down" if step > 0 else "up"
    conj = (start, c.point_color[p], kids, 1)
    if expand:
        return Move("shift-expand", (start, direction), conj)
    return Move("shift-reduce", (tuple(range(start, start + len(near))), direction), conj)


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
    if direction == "down":
        return _shift(c, c.strand_to[c.out_slots[b][0]], 1, index)
    return _shift(c, c.strand_from[c.in_slots[b][0]], -1, index)


def shift_reduce(c: ClosedDiagram, positions, direction=None):
    """Consolidate consecutive base points through the merge below / split above.

    `positions` must be consecutive ascending base-line indices whose points
    are, in this order, exactly the slot-order predecessors of one merge
    (direction "down") or successors of one split (direction "up").  One
    point with a split below it (or a merge above it) makes the expanding
    shift through it, and its move says so.  Returns (new diagram, move).
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
    w = c.strand_to[c.out_slots[points[0]][0]]
    v = c.strand_from[c.in_slots[points[0]][0]]
    down_ok = w not in c.base_set and _near(c, w, 1) == points
    up_ok = v not in c.base_set and _near(c, v, -1) == points
    if direction is None:
        direction = "down" if down_ok else "up"
    if not (down_ok if direction == "down" else up_ok):
        raise PreconditionError("points are not the full ordered boundary of one split/merge")
    if direction == "down":
        return _shift(c, w, 1, positions[0])
    return _shift(c, v, -1, positions[0])


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


def _reorder(c: _ClosedTables, new_line) -> list:
    """Permute the base line in place so it reads `new_line`: the moves, none
    if it already does."""
    if list(new_line) == c.base_line:
        return []
    at = {p: i for i, p in enumerate(c.base_line)}
    return [_permute_base(c, tuple(at[p] for p in new_line))]


# ---------------------------------------------------------------------------
# reductions

def _reduce(c: _ClosedTables, rtype, payload):
    """Apply the type 0/1/2 redex with this payload (as in
    :func:`strandshift.diagrams.find_redexes`) to c in place: the move."""
    apply_redex(c, (rtype, payload if rtype == 0 else payload[0], payload))
    return Move("reduce", (rtype, payload))


def _replace_loops(c: _ClosedTables, start, block, colors, k):
    """Replace the loop points `block`, at base positions from `start` on,
    by d = len(colors) interleaved loops of winding k, in place.

    Loop j has color colors[j] and visits the new base positions start+j,
    start+j+d, ...  The new ids, taken before the drops, are the points in
    base order, then the strands loop by loop.
    """
    d = len(colors)
    new_points = [c.point(colors[i % d]) for i in range(k * d)]
    for j, color in enumerate(colors):
        loop = new_points[j::d]
        for t in range(k):
            c.strand(color, loop[t], loop[(t + 1) % k])
    for b in block:
        _drop_strand(c, c.out_slots[b][0])
        _drop_point(c, b)
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
# the skeleton, and pushes

class SplitMergeSkeleton(_Tables):
    """Split-merge part with its base points spliced out: tables plus `cocycle`.

    Splicing keeps the incoming strand's id, so a skeleton strand is the
    first strand of its base-point chain, the out-strand of a split, merge or
    degenerate point, and `cocycle` maps it to the number of base points
    spliced out of that chain.
    """

    __slots__ = ("cocycle",)

    def __init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots, cocycle):
        _Tables.__init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots)
        self.cocycle = cocycle


def skeleton(part: ClosedDiagram) -> SplitMergeSkeleton:
    """Splice out every base point of `part`; loop components vanish."""
    w = _Builder(part)
    ins, outs = w.in_slots, w.out_slots
    cocycle = dict.fromkeys(w.strand_color, 0)
    for b in part.base_line:
        s_in, s_out = ins[b][0], outs[b][0]
        if s_in == s_out:  # the last point of a loop component
            _drop_point(w, b)
            _drop_strand(w, s_in)
            del cocycle[s_in]
        else:
            _splice_out(w, b)
            cocycle[s_in] += 1 + cocycle.pop(s_out)
    return SplitMergeSkeleton(*w.tables(), cocycle)


def _push(c: _ClosedTables, p, step: int) -> list:
    """Push the base line once through the split or merge p, in place, as
    :func:`_shift` does, forward (step 1) or backward (step -1): the moves.
    Several near points are first permuted together, in slot order, at the
    position of the first of them."""
    near = _near(c, p, step)
    line = c.base_line
    if len(near) == 1:
        return [_shift(c, p, step, line.index(near[0]))]
    first = min(map(line.index, near))
    moved = set(near)
    rest = [q for q in line if q not in moved]
    moves = _reorder(c, rest[:first] + near + rest[first:])
    moves.append(_shift(c, p, step, first))
    return moves


def _push_coboundary(c: _ClosedTables, comp, x: dict) -> list:
    """Carry the cocycle of c on skeleton component `comp` onto its match, in place: the moves.

    `x` is step 2's solution: x[from s] - x[to s] is how many more base
    points skeleton strand s carries than its image.  A forward push through
    p takes one base point off each chain into p and puts one on each chain
    out of p (a backward push undoes it), so pushing every p net m - x[p]
    times realizes the difference for any constant m; a median m gives the
    fewest pushes.  A push is legal when every chain it takes from carries
    a base point, read off c as it stands: going forward every in-strand of
    p starts at a base point, going backward every out-strand ends at one.
    While pushes remain some push is legal, because every directed cycle
    crosses the base line and pushes never change cycle sums.  Shifts keep
    the ids of the points off the base line and never touch another
    component, so the components of one match are pushed in turn.
    """
    m = sorted(x[p] for p in comp)[len(comp) // 2]
    left = {p: m - x[p] for p in sorted(comp) if x[p] != m}

    def legal(p):
        return all(q in c.base_set for q in _near(c, p, left[p]))

    moves = []
    while left:
        p = next(filter(legal, left), None)
        assert p is not None, "no legal push: a directed cycle misses the base line"
        step = 1 if left[p] > 0 else -1
        moves.extend(_push(c, p, step))
        left[p] -= step
        if not left[p]:
            del left[p]
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
    (primary point, count), or None.  The tests are those of the
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
                return v, t
        elif len(outs[w]) == 1 and len(ins[w]) == len(o) and ins[w][0] == s:
            if all(_chain(c, s_out)[1:] == (s_in, t) for s_out, s_in in zip(o[1:], ins[w][1:])):
                return v, t
    return None


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

    "<=": a backward push through v takes one base point off each of v's
    out-chains and puts one on each of its in-chains.  Those out-chains
    carry t, so all t pushes are legal.  A backward push through a split is
    a reducing shift, through a merge an expanding one.  The pushes leave 0
    on the redex strands and only add base points to v's in-chains, so they
    free this redex and no other, and the next round reduces it.

    Each reduction removes points, so this terminates, and a diagram it
    returns is semi-reduced: a second call performs no move.

    Every move edits one copy of c's tables and base line in place, and one
    diagram is built at the end; when no move applies, c itself is
    returned.  Reductions run on the worklist of
    :func:`strandshift.diagrams.reduce_with_log`, base points skipped, and
    a freeing round runs when none is left.  After the round only v is
    tested again.  The redex test at a point reads its degrees, the target
    of its out-strands and that target's in-slots.  No shift changes the
    degrees of a point it keeps, and w's in-strands come from v alone, so
    the pushes change the test only at v and at the in-neighbours of v
    whose out-chains into v now pass a base point.  A redex at such an
    in-neighbour would have been plain before the round, when the worklist
    was empty.

    A freeing round frees the first freeable redex in table order, so it
    reads the working tables at most once, copies nothing, and stops early
    when it finds one.  New ids come from the working copy's
    :meth:`strandshift.diagrams._Builder.fresh`.

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
        for rtype, _, payload in _reduce_in_place(w, redexes, w.base_set):
            trace.append(Move("reduce", (rtype, payload)))
        freeable = _freeable(w)
        if freeable is None:
            break
        v, t = freeable
        assert t > 0, "a free redex is missing from the worklist"
        for _ in range(t):
            trace.extend(_push(w, v, -1))
        redexes = _redexes_at(w, [v], w.base_set)
        assert redexes, "the pushes left the redex at v unfreed"
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
        if g is None and mv.kind.startswith("type3"):
            raise PreconditionError(f"replaying a {mv.kind} move needs the graph g")
        edits[mv.kind](w, *mv.data)
    return w.freeze()
