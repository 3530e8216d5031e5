"""The loops semigroup: finitely presented stages and their word problem.

Loops are generators L(c, n) for a color c and winding n; every vertex whose
out-star is not a single self-loop contributes, per winding, one relation
equating the sum of its ordered children's loops with its own loop.  Stage N
keeps the generators with winding <= N; relations never mix windings, so the
stages filter the full semigroup.

The word problem is decided through the free commutative monoid: both sides
of every relation are nonzero, so the monoid congruence restricted to nonzero
vectors is the semigroup congruence.  Congruence equality is decided by
comparing normal forms under the reduced basis of the pure-difference
binomial rewriting system, under a graded lexicographic order: Buchberger
completion, least lcm first, with the basis inter-reduced as it grows.  The
reduced basis is unique, so the rules do not depend on the order of the
relations.  An independent bidirectional search over relation applications
cross-checks the decision and gives the relation paths that witnesses
realize.

Because no relation mixes windings, stage N is the direct sum of N copies of
one block: the generators L(c, n) of one winding n, counted in vertex order.
A :class:`Presentation` holds the block relations once, and a loop multiset
is a vector {winding: block}.  A zero block stays zero, since every relation
side is nonzero, so zero blocks are left out: two vectors are congruent iff
they have the same windings and each winding's blocks are congruent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import le

from .errors import LimitExceeded
from .graphs import ShiftGraph

# S-pairs one block completion may examine; a pair is examined when it is
# taken from the queue while both its rules are still in the basis.  The
# largest completion in the test suite and the benchmark workloads examines
# 24.  On 500 random graphs (max_vertices 3, 5, 8, 10 and 12, seeds 0-99
# each), all 468 completions end: 464 examine at most 508 pairs, and the
# other four at most 1,171.  The completion of fixtures/random_v14_seed56.graph
# passes the bound.  Each examined pair adds at most one rule, net, so this
# bounds the rules too.
MAX_SPAIRS = 1500


@dataclass
class Presentation:
    graph: ShiftGraph
    max_winding: int
    relations: tuple  # ((vertex, children's loops, vertex's loop), ...) as nonzero blocks
    _rules: list = field(default=None, repr=False, compare=False)  # the reduced block basis, once completed

    def vector(self, loops: dict) -> dict:
        """The loop multiset {(color, winding): count} as {winding: block}, zero blocks left out."""
        pos = {c: i for i, c in enumerate(self.graph.vertices)}
        blocks = {}
        for (color, n), count in loops.items():
            if count < 0:
                raise ValueError("negative loop count")
            if color not in pos or not 1 <= n <= self.max_winding:
                raise ValueError(f"L({color},{n}) is not a generator of stage {self.max_winding}")
            if count:
                blocks.setdefault(n, [0] * len(pos))[pos[color]] += count
        return {n: tuple(blocks[n]) for n in sorted(blocks)}


def presentation_from_graph(g: ShiftGraph, n_max: int) -> Presentation:
    """Stage-N presentation: the block relation of every vertex, for every winding up to N.

    Vertices whose out-star is a single self-loop would contribute the trivial
    relation L(c,n) = L(c,n); those are dropped.
    """
    if n_max < 1:
        raise ValueError("the filtration starts at winding 1")
    pos = {c: i for i, c in enumerate(g.vertices)}
    relations = []
    for v in g.vertices:
        if g.is_isolated_color(v):
            continue
        u = [0] * len(pos)
        for c in g.child_colors(v):
            u[pos[c]] += 1
        w = [0] * len(pos)
        w[pos[v]] = 1
        relations.append((v, tuple(u), tuple(w)))
    return Presentation(g, n_max, tuple(relations))


def max_winding(loops: dict) -> int:
    """Largest winding with a positive count; loop parts are never empty here."""
    windings = [n for (_, n), count in loops.items() if count > 0]
    if not windings:
        raise ValueError("empty loop multiset has no winding")
    return max(windings)


def degree(vec: dict) -> int:
    """The number of loops of a vector {winding: block}."""
    return sum(map(sum, vec.values()))


# ---------------------------------------------------------------------------
# binomial completion

def _key(m: tuple):
    return (sum(m), m)


def _orient(a: tuple, b: tuple):
    ka, kb = _key(a), _key(b)
    if ka > kb:
        return (a, b)
    if kb > ka:
        return (b, a)
    return None


def _divides(u: tuple, m: tuple) -> bool:
    return all(map(le, u, m))


def _normal_form(m: tuple, rules) -> tuple:
    """m rewritten until no rule applies.  Each rule u -> v that applies is
    applied k times at once, k the largest with k*u dividing m, so the work
    does not grow with the counts in m."""
    changed = True
    while changed:
        changed = False
        for u, v in rules:
            if all(map(le, u, m)):
                k = min([x // a for x, a in zip(m, u) if a])
                m = tuple([x + k * (b - a) for x, a, b in zip(m, u, v)])
                changed = True
    return m


def completed_rules(p: Presentation) -> list:
    """The reduced basis of the block congruence over |V| coordinates, cached.

    A rule u -> v stands for the binomial u - v, u the larger side under
    :func:`_key`'s graded order.  Completion is Buchberger's algorithm on
    these pure-difference binomials with the normal selection strategy:
    S-pairs wait in a heap, least lcm first.  The S-pair of two rules
    rewrites lcm - u1 + v1 and lcm - u2 + v2 to normal forms, and their
    oriented difference, when nonzero, is a new rule.  Two leads with
    disjoint supports resolve by themselves (Buchberger's first criterion),
    so their pair is never queued.

    The basis stays inter-reduced: no lead divides another lead or any tail.
    A new rule's sides are in normal form, so no older lead divides its
    lead.  An older rule whose lead the new lead divides leaves the basis;
    its two sides, rewritten by the rules that remain, come back as a rule
    unless they have met, and its queued pairs are skipped.  A tail that the
    new lead divides is rewritten.

    Why the rules are right and depend on no order: every pair of the final
    rules either has disjoint leads or was examined, and its two sides met.
    A rule that left, like a tail that was rewritten, rewrites to zero
    through terms below its lead, so the pairs examined with it stay
    resolved.  By Buchberger's criterion the rules are confluent: a Gröbner
    basis of the block's binomial ideal.  Inter-reduced, it is the reduced
    basis, which is unique for the term order (Becker-Weispfenning, *Gröbner
    Bases*, 1993).  So the list, sorted by lead, is the same whatever the
    order of ``p.relations`` or of the pairs.

    One examined S-pair is one taken from the heap while both its rules are
    still in the basis; pairs of rules that left, and pairs never queued,
    do not count.  The completion refuses (``semigroup-completion``) after
    :data:`MAX_SPAIRS` examined pairs, which bounds its work and its rules,
    since each adds at most one rule, net.  Neither depends on the winding.
    """
    if p._rules is None:
        basis = {}  # lead -> tail; no lead divides another lead or any tail
        rules = basis.items()  # the basis as _normal_form reads it, kept current
        queue = []  # S-pairs (degree of lcm, lcm, lead, lead), least lcm first
        examined = 0

        def add(u, v):
            """Add u = v, rewritten, as a rule, and the rules it evicts back."""
            todo = [(u, v)]
            while todo:
                u, v = todo.pop()
                u, v = _normal_form(u, rules), _normal_form(v, rules)
                if u == v:
                    continue
                lead, tail = _orient(u, v)
                for w in [w for w in basis if _divides(lead, w)]:
                    todo.append((w, basis.pop(w)))
                for w in basis:
                    if any(map(min, lead, w)):
                        lcm = tuple(map(max, lead, w))
                        heapq.heappush(queue, (sum(lcm), lcm, lead, w))
                basis[lead] = tail
                for w in [w for w, t in rules if _divides(lead, t)]:
                    basis[w] = _normal_form(basis[w], rules)

        for _, u, v in p.relations:
            add(u, v)
        while queue:
            _, lcm, u1, u2 = heapq.heappop(queue)
            if u1 not in basis or u2 not in basis:
                continue
            examined += 1
            if examined > MAX_SPAIRS:
                raise LimitExceeded("semigroup-completion", f"more than {MAX_SPAIRS} S-pairs examined")
            add(
                tuple([c - a + b for c, a, b in zip(lcm, u1, basis[u1])]),
                tuple([c - a + b for c, a, b in zip(lcm, u2, basis[u2])]),
            )
        p._rules = sorted(rules, key=lambda rule: _key(rule[0]))
    return p._rules


def decide_equal(a: dict, b: dict, p: Presentation) -> bool:
    """Whether two nonzero vectors are congruent in stage max_winding.

    They must have the same windings, and each winding's two blocks the
    same normal form under the completed block rules.
    """
    for vec in (a, b):
        if not vec:
            raise ValueError("the semigroup has no identity; vectors must be nonzero")
        for block in vec.values():
            if len(block) != len(p.graph.vertices):
                raise ValueError("block length does not match the presentation")
            if min(block) < 0:
                raise ValueError("negative loop count")
            if not any(block):
                raise ValueError("zero blocks are left out of a vector")
    if a.keys() != b.keys():
        return False
    rules = completed_rules(p)
    return all(a[n] == b[n] or _normal_form(a[n], rules) == _normal_form(b[n], rules) for n in a)


# ---------------------------------------------------------------------------
# independent oracle

def bfs_equal(a: dict, b: dict, p: Presentation, cap: int) -> str:
    """:func:`bfs_path`'s verdict: "equal" (always sound) or
    "not-equal-within-cap" (sound only as a statement about derivations
    whose intermediate degrees stay within :func:`bfs_path`'s caps)."""
    return "equal" if bfs_path(a, b, p, cap) is not None else "not-equal-within-cap"


def bfs_path(a: dict, b: dict, p: Presentation, cap: int):
    """A relation-application path from a to b within the degree caps, or None.

    One search runs per winding, in increasing order; winding n's block
    stays within max(|a_n|, |b_n|) plus the slack cap - max(|a|, |b|) that
    all windings share.  Each step is (vertex, winding, +1 | -1): +1
    rewrites the vertex's children-sum to its loop (a type 3 reduction on
    the diagram side), -1 the inverse expansion.
    """
    slack = cap - max(degree(a), degree(b))
    if slack < 0:
        raise ValueError("cap below the degree of an input")
    if a.keys() != b.keys():
        return None
    path = []
    for n in sorted(a):
        steps = _block_path(a[n], b[n], p, max(sum(a[n]), sum(b[n])) + slack)
        if steps is None:
            return None
        path.extend((vertex, n, sign) for vertex, sign in steps)
    return path


def _block_path(a: tuple, b: tuple, p: Presentation, cap: int):
    """A path of (vertex, sign) steps from block a to block b within the cap,
    or None, by bidirectional search: it grows the smaller frontier by one
    level and keeps a parent map per side.  Relations apply both ways, so the
    half found from b's side is read backwards with its signs flipped."""
    if a == b:
        return []
    steps = []
    for vertex, u, v in p.relations:
        steps.append((vertex, u, v, +1))
        steps.append((vertex, v, u, -1))

    def walk(parents, m):
        """The steps that led to m, last first."""
        out = []
        while parents[m] is not None:
            m, vertex, sign = parents[m]
            out.append((vertex, sign))
        return out

    parents = ({a: None}, {b: None})
    fronts = [[a], [b]]
    while fronts[0] and fronts[1]:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        mine, other = parents[side], parents[1 - side]
        nxt = []
        for m in fronts[side]:
            for vertex, lhs, rhs, sign in steps:
                if _divides(lhs, m):
                    n = tuple(x - c + d for x, c, d in zip(m, lhs, rhs))
                    if sum(n) <= cap and n not in mine:
                        mine[n] = (m, vertex, sign)
                        if n in other:
                            return walk(parents[0], n)[::-1] + [(v, -s) for v, s in walk(parents[1], n)]
                        nxt.append(n)
        fronts[side] = nxt
    return None


def dump_presentation(p: Presentation) -> str:
    """The block relations once, for every winding n, generators printed L(color,n)."""
    if not p.relations:
        return "no relations: every vertex's out-star is a single self-loop"

    def side(m):
        return "+".join(f"L({c},n)" for c, x in zip(p.graph.vertices, m) for _ in range(x))

    lines = [f"for every winding n from 1 to {p.max_winding}:"]
    lines += [f"{side(u)}={side(v)}" for _, u, v in p.relations]
    return "\n".join(lines)
