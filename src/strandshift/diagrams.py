"""Strand diagrams: acyclic colored multigraphs with slot orders, and their calculus.

A diagram is a finite acyclic graph whose points are univalent sources,
univalent sinks, splits, merges or degenerate points.  The rotation system is
stored as ordered slot lists: out-slot j of a c-colored split carries the
color of the j-th outgoing edge of c (in the graph's fixed edge order), and
in-slot j of a c-colored merge mirrors that.  Given the point kinds, the slot
lists are equivalent to cyclic rotations (split: (in, out_1..out_k), merge:
(out, in_k..in_1)).

Every diagram produced by this module carries one univalent source per domain
position and one univalent sink per range position.  The validator in
:mod:`strandshift.testkit` still accepts split-sources and merge-sinks (they
are legitimate diagrams), but the normalized form is what makes closing along
a base line a bijection, so the constructors never emit them.

The core that closed diagrams (closed.py) share is the six tables, one
working copy of them, :class:`_Builder`, whose :meth:`_Builder.fresh` hands
out every new id, the edits on that copy (retarget, splice, drop, apply a
redex), and the one serializer, :func:`_least_serialization`, a
breadth-first walk in both directions from runs of seed points whose
records flag the points in `marked` (a closed diagram's base points): it
writes every open, closed and skeleton key.  A closed diagram trades the
source and sink orders for a base line.

Constructors adopt, and every edit copies at most once: a diagram keeps the
six dicts it is given and never changes them, so an inverse shares its
input's tables, and an edit rewrites one working copy, ``_Builder(d)``, in
place and builds one diagram from it.  Gluing is one such edit,
:func:`_glue`, which glues a diagram's tables, or a working copy's own,
onto a working copy in place; :func:`compose`, :func:`product` and
:func:`power` all glue through it.  A product of reduced diagrams
(:func:`product`) glues b onto one copy of a, reduces only the seam where
they meet and builds one diagram.  A power (:func:`power`) keeps two
working copies, the square and the result, glues onto them in place and
builds one diagram at the end.  A working copy holds slot sequences as
lists; a hand-built diagram may use tuples, but not both, since type 1
redexes compare whole slot sequences.
"""

from __future__ import annotations

import itertools
from collections import deque

from .errors import SignatureMismatch
from .forest import ForestPair, validate_forest_pair
from .graphs import PathWord, ShiftGraph


class _Tables:
    """The six tables of a diagram, shared by open and closed diagrams.

    point_color/strand_color: id -> vertex id; strand_from/strand_to:
    strand id -> point id; in_slots/out_slots: point id -> sequence of
    strand ids.  Points and strands share one id space.  The dicts are
    adopted as given, not copied.
    """

    __slots__ = ("point_color", "strand_color", "strand_from", "strand_to", "in_slots", "out_slots")

    def __init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots):
        self.point_color = point_color
        self.strand_color = strand_color
        self.strand_from = strand_from
        self.strand_to = strand_to
        self.in_slots = in_slots
        self.out_slots = out_slots

    def tables(self) -> tuple:
        """The six dicts themselves, in constructor order."""
        return (self.point_color, self.strand_color, self.strand_from, self.strand_to, self.in_slots, self.out_slots)


class StrandDiagram(_Tables):
    """Diagram value: the six adopted tables, never edited after
    construction, plus ordered sources/sinks point id tuples."""

    __slots__ = ("sources", "sinks")

    def __init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots, sources, sinks):
        _Tables.__init__(self, point_color, strand_color, strand_from, strand_to, in_slots, out_slots)
        self.sources = tuple(sources)
        self.sinks = tuple(sinks)
        _check_structure(self)

    def domain(self) -> tuple:
        return tuple(self.point_color[p] for p in self.sources)

    def range(self) -> tuple:
        return tuple(self.point_color[p] for p in self.sinks)

    def __repr__(self):
        return (
            f"StrandDiagram({len(self.point_color)} points, "
            f"{len(self.strand_color)} strands, {self.domain()}->{self.range()})"
        )


def _check_structure(d) -> None:
    """Cheap internal consistency checks of an open diagram's tables and
    end points: the end points are distinct points, no source has an
    in-strand and no sink an out-strand."""
    ends = d.sources + d.sinks
    assert len(set(ends)) == len(ends), "repeated end point"
    for p in d.sources:
        assert p in d.point_color and not d.in_slots[p], f"source {p} broken"
    for p in d.sinks:
        assert p in d.point_color and not d.out_slots[p], f"sink {p} broken"
    for s, p in d.strand_from.items():
        assert p in d.point_color and s in d.out_slots[p], f"strand {s} origin broken"
    for s, p in d.strand_to.items():
        assert p in d.point_color and s in d.in_slots[p], f"strand {s} target broken"
    for p in d.point_color:
        for s in d.out_slots[p]:
            assert d.strand_from[s] == p
        for s in d.in_slots[p]:
            assert d.strand_to[s] == p


# ---------------------------------------------------------------------------
# table edits, shared by open and closed diagrams

def _retarget(strand_to, in_slots, s, replacing):
    """Strand s now ends where strand `replacing` ended, in the same in-slot."""
    target = strand_to[replacing]
    strand_to[s] = target
    slots = in_slots[target]
    slots[slots.index(replacing)] = s


def _drop_point(w, p):
    del w.point_color[p], w.in_slots[p], w.out_slots[p]


def _drop_strand(w, s):
    del w.strand_color[s], w.strand_from[s], w.strand_to[s]


def _splice_out(w, p):
    """Remove a degree-(1,1) point, fusing its strands (the incoming id survives)."""
    ins, outs, st = w.in_slots, w.out_slots, w.strand_to
    s_in, s_out = ins[p][0], outs[p][0]
    assert s_in != s_out, "cannot splice a point on a one-strand loop"
    _retarget(st, ins, s_in, s_out)
    del w.point_color[p], ins[p], outs[p]
    del w.strand_color[s_out], w.strand_from[s_out], st[s_out]


# ---------------------------------------------------------------------------
# canonical serialization

def _least_serialization(d, runs, marked=frozenset()) -> tuple:
    """(records, orders): the least serialization of d over `runs`, and the
    orders of the runs that attain it, in run order.

    A run is a sequence of distinct seed points, ranked first; then each
    point leaving its breadth-first queue ranks the targets of its
    out-slots and the origins of its in-slots, in slot order.  The record
    of point p is (color, p in `marked`, and per out-strand its color, its
    target's rank and its in-slot there); `marked` holds a closed diagram's
    base points.  The runs must cover the same points.

    Record r of a run is fixed once its r-th point leaves the queue, so the
    runs go in lockstep, one record per round, and a run whose record
    exceeds the round's least one is dropped.  Runs that tie to the end
    serialize identically, so pairing the points of equal rank in two of
    their orders is an automorphism.
    """
    point_color, strand_color, strand_from, strand_to, in_slots, out_slots = d.tables()
    states = [({p: rank for rank, p in enumerate(seeds)}, deque(seeds)) for seeds in runs]
    records = []
    while states[0][1]:
        best, kept = None, []
        for state in states:
            order, queue = state
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
            rec = (point_color[p], p in marked, tuple(outs))
            if best is None or rec < best:
                best, kept = rec, [state]
            elif rec == best:
                kept.append(state)
        records.append(best)
        states = kept
    return tuple(records), [order for order, _ in states]


def canonical_key(d: StrandDiagram) -> tuple:
    """Total invariant of the diagram up to relabeling: its serialization
    from one run of the sources (:func:`_least_serialization`) and the
    ranks of its sinks.

    Two diagrams are isomorphic by a color-, slot- and endpoint-order-
    preserving isomorphism iff their keys are equal.
    """
    records, (order,) = _least_serialization(d, [d.sources])
    if len(order) != len(d.point_color):
        raise ValueError("diagram has points not connected to its sources")
    return len(d.sources), records, tuple(order[p] for p in d.sinks)


# ---------------------------------------------------------------------------
# constructors

class _Builder(_Tables):
    """The one working copy that every table edit edits: ``_Builder(d)``
    copies d's six tables, slot sequences as lists, and ``_Builder()``
    starts six empty ones.  `fresh` is the pipeline's one id allocator;
    only a glued factor's ids are not its, which :func:`_glue` moves past
    the live ones."""

    __slots__ = ("_next",)

    def __init__(self, d=None):
        if d is None:
            _Tables.__init__(self, {}, {}, {}, {}, {}, {})
        else:
            pc, sc, sf, st, ins, outs = d.tables()
            slots = ({p: list(v) for p, v in ins.items()}, {p: list(v) for p, v in outs.items()})
            _Tables.__init__(self, dict(pc), dict(sc), dict(sf), dict(st), *slots)
        self._next = None

    def fresh(self, n: int = 1) -> int:
        """The first of n new consecutive ids: 1 + the largest id in use,
        scanned for on the first call only (0 on empty tables), and on from
        there.  Each closed move takes its ids before it removes any, and no
        reduction removes the last strand a move adds, which leaves a base
        point, so on a closed copy this is 1 + the largest live id."""
        if self._next is None:
            self._next = 1 + max(itertools.chain(self.point_color, self.strand_color, (-1,)))
        first = self._next
        self._next += n
        return first

    def point(self, color):
        p = self.fresh()
        self.point_color[p] = color
        self.in_slots[p] = []
        self.out_slots[p] = []
        return p

    def strand(self, color, origin=None, target=None):
        s = self.fresh()
        self.strand_color[s] = color
        if origin is not None:
            self.attach_origin(s, origin)
        if target is not None:
            self.attach_target(s, target)
        return s

    def attach_origin(self, s, p):
        self.strand_from[s] = p
        self.out_slots[p].append(s)

    def attach_target(self, s, p):
        self.strand_to[s] = p
        self.in_slots[p].append(s)

    def build(self, sources, sinks) -> StrandDiagram:
        return StrandDiagram(*self.tables(), sources, sinks)


def identity_diagram(colors) -> StrandDiagram:
    b = _Builder()
    sources, sinks = [], []
    for c in colors:
        src = b.point(c)
        snk = b.point(c)
        b.strand(c, src, snk)
        sources.append(src)
        sinks.append(snk)
    return b.build(sources, sinks)


def from_forest_pair(g: ShiftGraph, fp: ForestPair) -> StrandDiagram:
    """Glue the range forest upside-down under the domain forest.

    Internal forest nodes with k >= 2 children become splits (merges on the
    range side); nodes with a single child become degenerate points; leaf i
    of the domain forest is glued to leaf i of the range forest.

    The pair is checked against `g` unless `fp.checked` holds that check's
    tries for `g` itself.  The tries give the number of ids in advance, per
    forest one per root, node and internal node, so one builder's `fresh`
    hands them out as one block, the same ids as one call per id, and they
    are counted off depth first, domain forest first: per root its end
    point, then per node its strand and, for an internal node, its point.
    Each forest grows from an explicit stack, not by recursion, so the
    depth of a forest is not limited.
    """
    if fp.checked is None or fp.checked[0] is not g:
        validate_forest_pair(g, fp)
    _, domain_tries, range_tries, internal = fp.checked
    b = _Builder()
    first = b.fresh(2 * (len(fp.base) + len(fp) + internal))
    point_color, strand_color, strand_from, strand_to, in_slots, out_slots = b.tables()
    kids = {v: [(e, g.edges[e][1]) for e in reversed(es)] for v, es in g.out_order.items()}

    def grow(tries, nid, head, heads, tail, tails):
        """One forest, from id `nid` on.  A node's strand meets the node's
        own point, for an internal node, through `head`/`heads` and its
        parent's point, or a root's new end point, through `tail`/`tails`.
        Returns the end points and the leaves' strands, both in order, and
        the next id."""
        leaf_strands = [None] * len(fp)
        ends = []
        for root, color in enumerate(fp.base):
            p = nid
            nid += 1
            point_color[p] = color
            heads[p] = []
            tails[p] = []
            ends.append(p)
            # (node, color, parent point) for a node to grow, and (None,
            # strand, parent point) for an internal node's strand, which
            # meets its parent once every node below it has grown
            stack = [(tries[root], color, p)]
            push = stack.append
            while stack:
                node, x, parent = stack.pop()
                if node is None:
                    s = x
                else:
                    s = nid
                    strand_color[s] = x
                    if type(node) is dict:
                        q = s + 1
                        nid += 2
                        point_color[q] = x
                        head[s] = q
                        heads[q] = [s]
                        tails[q] = []
                        push((None, s, parent))
                        for e, c in kids[x]:
                            push((node[e], c, q))
                        continue
                    nid += 1
                    leaf_strands[node] = s
                tail[s] = parent
                tails[parent].append(s)
        return ends, leaf_strands, nid

    sources, domain_leaves, nid = grow(domain_tries, first, strand_to, in_slots, strand_from, out_slots)
    sinks, range_leaves, _ = grow(range_tries, nid, strand_from, out_slots, strand_to, in_slots)
    # Glue leaf i of the domain forest to leaf i of the range forest: the two
    # dangling strands fuse, keeping the domain-side id.
    for s, t in zip(domain_leaves, range_leaves):
        _retarget(strand_to, in_slots, s, t)
        del strand_to[t], strand_color[t]
    return b.build(sources, sinks)


# ---------------------------------------------------------------------------
# groupoid operations

def _glue(w, w_sinks, b, b_sources, b_sinks):
    """Glue b's tables onto the working copy w in place: w's i-th sink (of
    `w_sinks`) is spliced onto b's i-th source, and the glued strand keeps
    w's id.  b's ids move past w's by 1 + the largest live id of w, the
    offset ``_Builder(a).fresh()`` gives on a diagram a with w's tables.  It
    is scanned for, not read off w's `fresh` counter, which runs past the
    live ids once a reduction removes the largest; the counter is reset, so
    `fresh` scans anew after a glue.

    b may be w itself: its point and strand items are walked from
    snapshots, and its slot lists need no copy, since the remap only adds
    keys.  Returns b's sinks, moved, and the seam, the origins of the glued
    strands, in w's table order.
    """
    pc, sc, sf, st, ins, outs = w.tables()
    rng, dom = tuple(pc[p] for p in w_sinks), tuple(b.point_color[p] for p in b_sources)
    if rng != dom:
        raise SignatureMismatch(f"range {rng} != domain {dom}")
    origins = {sf[ins[p][0]] for p in w_sinks}
    # in table order, stopping at the last one
    seam = list(itertools.islice(filter(origins.__contains__, pc), len(origins)))
    offset = 1 + max(itertools.chain(pc, sc, (-1,)))
    b_ins, b_outs, b_sf, b_st = b.in_slots, b.out_slots, b.strand_from, b.strand_to
    points, strands = list(b.point_color.items()), list(b.strand_color.items())
    pc.update({p + offset: c for p, c in points})
    ins.update({p + offset: [s + offset for s in b_ins[p]] for p, _ in points})
    outs.update({p + offset: [s + offset for s in b_outs[p]] for p, _ in points})
    sc.update({s + offset: c for s, c in strands})
    sf.update({s + offset: b_sf[s] + offset for s, _ in strands})
    st.update({s + offset: b_st[s] + offset for s, _ in strands})

    for snk, src in zip(w_sinks, b_sources):
        s_a, s_b = ins[snk][0], outs[src + offset][0]
        _retarget(st, ins, s_a, s_b)
        _drop_point(w, snk)
        _drop_point(w, src + offset)
        _drop_strand(w, s_b)
    w._next = None
    return tuple(p + offset for p in b_sinks), seam


def _times(w, w_sinks, b, b_sources, b_sinks):
    """w := w b in place, for reduced w and b: glue, then reduce at the seam
    only (see :func:`product`).  Returns the new sinks."""
    sinks, seam = _glue(w, w_sinks, b, b_sources, b_sinks)
    _reduce_in_place(w, _redexes_at(w, seam))
    return sinks


def compose(a: StrandDiagram, b: StrandDiagram) -> StrandDiagram:
    """Concatenate: a's i-th sink is spliced onto b's i-th source. Not reduced."""
    w = _Builder(a)
    sinks, _ = _glue(w, a.sinks, b, b.sources, b.sinks)
    return w.build(a.sources, sinks)


def product(a: StrandDiagram, b: StrandDiagram) -> StrandDiagram:
    """The reduced product of reduced a and b: ``reduce(compose(a, b))``,
    tables and ids included, with one copy and one built diagram.

    a and b must be reduced; this is not checked, and on an unreduced factor
    the result may keep that factor's redexes.  Gluing keeps the degrees and
    colours of every surviving point, so it creates no degenerate point, and
    it moves only the targets of the glued strands.  A redex test reads its
    primary point's out-strands, their targets and those targets' slots.  A
    glued strand takes the in-slot of b's source strand, and neither is an
    out-strand of a point off the seam, so off the seam every test comes out
    as it did in a or b, where it found no redex.  So the redexes at the
    seam are all the composite's.  Taken in a's table order, they are the
    list :func:`find_redexes` gives on the composite, so from there the
    reduction runs step for step as :func:`reduce_with_log` runs on the
    same tables.
    """
    w = _Builder(a)
    return w.build(a.sources, _times(w, a.sinks, b, b.sources, b.sinks))


def power(d: StrandDiagram, n: int) -> StrandDiagram:
    """d to the n-th power, reduced: the identity on d's domain for n = 0,
    and d^-1 raised to |n| for n < 0.

    Right-to-left binary exponentiation (Knuth, TAOCP vol. 2, 4.6.3) on two
    working copies, the square S and the result R.  d is reduced once and
    copied into S, flipped in the copy for n < 0, so no inverse is built.
    Going through the bits of |n|, lowest first, the first
    set bit makes R a copy of S, and each later one glues S onto R in place;
    after every bit but the top one, S is glued onto itself in place.  So at
    most 2*floor(log2 |n|) glues, each of reduced factors and so reduced at
    its seam only (see :func:`product`), and R is built, and checked, once.
    When no squaring follows the first set bit (|n| a power of 2), R adopts
    S itself rather than a copy of the largest square.

    Each glue offsets the right factor's ids by 1 + the largest live id of
    the left, and tests its seam in the left's table order, just as
    :func:`product` does on a built diagram with the same tables.  So the
    result has the tables and ids, items in order, of the chain of
    products ``R = S`` at the first set bit, ``R = product(R, S)`` at each
    later one and ``S = product(S, S)`` between bits, and so the same
    `--dot` drawing.  The product is associative and the reduced form is
    unique, so the element is the one the factor-at-a-time product gives;
    only the ids follow the order of the products.
    """
    d = reduce(d)
    k = abs(n)
    if not k:
        return identity_diagram(d.domain())
    square = _Builder(d)
    sources, s_sinks = d.sources, d.sinks
    if n < 0:
        square.strand_from, square.strand_to = square.strand_to, square.strand_from
        square.in_slots, square.out_slots = square.out_slots, square.in_slots
        sources, s_sinks = s_sinks, sources
    result = None
    while True:
        if k & 1:
            if result is None:
                result, r_sinks = (square if k == 1 else _Builder(square)), s_sinks
            else:
                r_sinks = _times(result, r_sinks, square, sources, s_sinks)
        k >>= 1
        if not k:
            return result.build(sources, r_sinks)
        s_sinks = _times(square, s_sinks, square, sources, s_sinks)


def invert(d: StrandDiagram) -> StrandDiagram:
    """Flip upside-down: strand directions reverse, splits become merges."""
    return StrandDiagram(
        d.point_color,
        d.strand_color,
        d.strand_to,
        d.strand_from,
        d.out_slots,
        d.in_slots,
        d.sinks,
        d.sources,
    )


# ---------------------------------------------------------------------------
# reductions

def find_redexes(d, skip=frozenset()) -> list:
    """All type 0/1/2 redexes; points in `skip` (base points) never participate.

    Returns (type, primary point, payload) triples:
      type 0 -- payload is the degenerate point,
      type 1 -- payload (v, w): split v whose out-strands are exactly the
                in-strands of merge w, slot by slot,
      type 2 -- payload (v, w): merge v whose out-strand feeds split w.
    """
    return _redexes_at(d, d.point_color, skip)


def _redexes_at(d, points, skip=frozenset()) -> list:
    """The redex predicate: the redexes whose primary point is in `points`,
    in that order; a point is the primary of at most one redex."""
    pc, st, ins, outs = d.point_color, d.strand_to, d.in_slots, d.out_slots
    redexes = []
    for p in points:
        if p in skip:
            continue
        ind = len(ins[p])
        outd = len(outs[p])
        if ind == 1 and outd == 1:
            redexes.append((0, p, p))
        elif ind == 1 and outd >= 2:  # split: candidate type 1
            w = st[outs[p][0]]
            if (
                w not in skip
                and len(ins[w]) == outd
                and len(outs[w]) == 1
                and pc[w] == pc[p]
                and outs[p] == ins[w]
            ):
                redexes.append((1, p, (p, w)))
        elif ind >= 2 and outd == 1:  # merge: candidate type 2
            w = st[outs[p][0]]
            if (
                w not in skip
                and len(ins[w]) == 1
                and len(outs[w]) >= 2
                and pc[w] == pc[p]
            ):
                redexes.append((2, p, (p, w)))
    return redexes


def apply_redex(work, redex):
    """Apply one redex to the working copy `work` in place; shared by open
    and closed diagrams."""
    rtype, _, payload = redex
    if rtype == 0:
        _splice_out(work, payload)
        return
    st, ins, outs = work.strand_to, work.in_slots, work.out_slots
    v, w = payload
    if rtype == 1:
        s_out = outs[w][0]
        for s in outs[v]:
            _drop_strand(work, s)
        _retarget(st, ins, ins[v][0], s_out)
        _drop_strand(work, s_out)
        _drop_point(work, v)
        _drop_point(work, w)
    else:
        pairs = list(zip(ins[v], outs[w]))
        _drop_strand(work, outs[v][0])
        _drop_point(work, v)
        _drop_point(work, w)
        for s_j, t_j in pairs:
            _retarget(st, ins, s_j, t_j)
            _drop_strand(work, t_j)


def reduce_with_log(d: StrandDiagram):
    """Reduce to the unique irreducible form, logging each step's type.

    Each step applies the first live redex of the least type present, in
    the order the worklist holds them.  Reduction terminates, since every
    rewrite removes points, and it is locally confluent, so every order
    reaches the same irreducible form up to ids (BM14; Newman's lemma).
    The canonical and random orders that check this live on
    :func:`strandshift.testkit.reference_reduce_with_log`.  All redexes are
    applied to one copy of d's tables, and one diagram is built at the end;
    an irreducible d is returned as it is.

    The redexes are found once and then kept per type, keyed by primary
    point.  A rewrite removes its payload points and moves the targets of
    the in-strands of its primary and nothing else, so only the origins of
    those strands are examined again.

    Which ids survive can depend on the order of the type 2 rewrites, so
    the run is fixed by the tables and the order of the initial redexes,
    and by nothing else: no step iterates a set.  Every edit deletes
    entries or overwrites existing ones, so the tables keep their
    insertion order.
    """
    redexes = find_redexes(d)
    if not redexes:
        return d, []
    work = _Builder(d)
    applied = _reduce_in_place(work, redexes)
    return work.build(d.sources, d.sinks), [r[0] for r in applied]


def _reduce_in_place(work, redexes, skip=frozenset()) -> list:
    """Apply redexes to the working copy `work` until none is left, starting
    from `redexes`, which must hold every redex that avoids the points in
    `skip` (a closed diagram's base points); returns the redexes applied, in
    the order :func:`reduce_with_log` describes.  No origin tested again is a
    point the rewrite removed: it would close a directed cycle through the
    payload, off the base line, which neither an open diagram nor a closed
    one (whose cycles all cross its base line) has."""
    strand_from, in_slots = work.strand_from, work.in_slots
    live = ({}, {}, {})
    for r in redexes:
        live[r[0]][r[1]] = r
    applied = []
    while any(live):
        chosen = next(iter((live[0] or live[1] or live[2]).values()))
        rtype, p, payload = chosen
        origins = [strand_from[s] for s in in_slots[p]]
        apply_redex(work, chosen)
        applied.append(chosen)
        for x in itertools.chain((p,) if rtype == 0 else payload, origins):
            for t in live:
                t.pop(x, None)
        for r in _redexes_at(work, origins, skip):
            live[r[0]][r[1]] = r
    return applied


def reduce(d: StrandDiagram) -> StrandDiagram:
    return reduce_with_log(d)[0]


def is_reduced(d: StrandDiagram) -> bool:
    return not find_redexes(d)


def equal(a: StrandDiagram, b: StrandDiagram) -> bool:
    """Equality of the represented groupoid elements."""
    if a.domain() != b.domain() or a.range() != b.range():
        return False
    return canonical_key(reduce(a)) == canonical_key(reduce(b))


# ---------------------------------------------------------------------------
# cutting a reduced diagram back into a forest pair

def to_forest_pair(g: ShiftGraph, d: StrandDiagram) -> ForestPair:
    """Cut a reduced diagram with equal domain and range into its forest pair.

    In a reduced diagram no strand runs from a merge to a split, so the
    splits form the domain forest, the merges form the range forest, and the
    strands between the two layers are the glued leaves.  Leaves are listed
    in the planar (slot-lexicographic) order of the domain forest: each
    forest is walked depth first, the end points in order and each split's
    out-slots in edge order, and the leaves of a complete forest are
    prefix-free, so the order in which the walk reaches them is already that
    order.  The walk keeps an explicit stack and one edge path, which it
    copies into a word at a leaf only; it does not recurse, so the depth of
    a forest is not limited.
    """
    if d.domain() != d.range():
        raise SignatureMismatch("domain and range differ; not a group element")
    if not is_reduced(d):
        raise ValueError("diagram is not reduced; reduce() it first")
    base = d.domain()
    point_color = d.point_color
    # per color, its out-edges last to first, each as a 1-tuple
    edges_back = {v: [(e,) for e in reversed(es)] for v, es in g.out_order.items()}

    def glue_words(ends, head, ahead, behind):
        """Glue strand -> word, walking one forest away from its end points:
        `head` maps a strand to the point it leads to, `ahead` and `behind`
        a point to its strands away from and towards the end points."""
        glue = {}
        path = []
        for i, end in enumerate(ends):
            # (strand, length of its parent's word, its edge as a 1-tuple,
            # or () for an end point's strand)
            stack = [(ahead[end][0], 0, ())]
            push = stack.append
            while stack:
                strand, depth, edge = stack.pop()
                path[depth:] = edge
                q = head[strand]
                strands = ahead[q]
                if len(strands) >= 2 and len(behind[q]) == 1:
                    depth = len(path)
                    for s, e in zip(reversed(strands), edges_back[point_color[q]]):
                        push((s, depth, e))
                else:
                    glue[strand] = PathWord(i, tuple(path))
        return glue

    # the splits below the sources form the domain forest, the merges above
    # the sinks the range forest
    glue_domain = glue_words(d.sources, d.strand_to, d.out_slots, d.in_slots)
    glue_range = glue_words(d.sinks, d.strand_from, d.in_slots, d.out_slots)
    assert set(glue_domain) == set(glue_range), "cut layers disagree"

    strands = list(glue_domain)
    return ForestPair(
        tuple(glue_domain[s] for s in strands),
        tuple(glue_range[s] for s in strands),
        tuple(base),
    )
