"""The loops semigroup: finitely presented stages and their word problem.

Loops are generators L(c, n) for a color c and winding n; every vertex whose
out-star is not a single self-loop contributes, per winding, one relation
equating the sum of its ordered children's loops with its own loop.  Stage N
keeps the generators with winding <= N; relations never mix windings, so the
stages filter the full semigroup.

The word problem is decided through the free commutative monoid: both sides
of every relation are nonzero, so the monoid congruence restricted to nonzero
vectors is the semigroup congruence.  Congruence equality is decided by
completing the pure-difference binomial rewriting system (Buchberger on
binomials under a graded lexicographic order) and comparing normal forms; an
independent bidirectional search over relation applications cross-checks it
and gives the relation paths that witnesses realize.

Because no relation mixes windings, stage N is the direct sum of N copies of
one block: the generators L(c, n) of one winding n, counted in vertex order.
A :class:`Presentation` holds the block relations once, and a loop multiset
is a vector {winding: block}.  A zero block stays zero, since every relation
side is nonzero, so zero blocks are left out: two vectors are congruent iff
they have the same windings and each winding's blocks are congruent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import LimitExceeded
from .graphs import ShiftGraph

# S-pairs one block completion may examine.  The largest completion in the
# test suite and the benchmark workloads examines 66.  Among random graphs of
# 6 to 10 vertices (seeds 0-119), 315 of the 322 completions that ended
# examined at most 1,035 (the other seven 1,891 to 6,903), and the 38 that
# ran on all passed the bound.  Each S-pair adds at most one rule, so this
# bounds the rules too.
MAX_SPAIRS = 1500


@dataclass
class Presentation:
    graph: ShiftGraph
    max_winding: int
    relations: tuple  # ((vertex, children's loops, vertex's loop), ...) as nonzero blocks
    _rules: list = field(default=None, repr=False, compare=False)  # completed block rules

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
    if _key(a) > _key(b):
        return (a, b)
    if _key(b) > _key(a):
        return (b, a)
    return None


def _divides(u: tuple, m: tuple) -> bool:
    return all(x <= y for x, y in zip(u, m))


def _normal_form(m: tuple, rules) -> tuple:
    changed = True
    while changed:
        changed = False
        for u, v in rules:
            if _divides(u, m):
                m = tuple(x - a + b for x, a, b in zip(m, u, v))
                changed = True
    return m


def completed_rules(p: Presentation) -> list:
    """Confluent rewriting rules of the block congruence over |V| coordinates, cached.

    Buchberger completion stays inside pure-difference binomials: the S-pair
    of two rules at the lcm of their leads reduces to two normal forms whose
    oriented difference, when nonzero, is a new rule.  Pairs with disjoint
    lead supports resolve automatically and are skipped.  The completion
    stops after examining :data:`MAX_SPAIRS` S-pairs, skipped ones included,
    which bounds its work and its rule count; neither depends on the
    winding.
    """
    rules = p._rules
    if rules is None:
        rules = [_orient(u, v) for _, u, v in p.relations]  # u != v: isolated vertices have no relation
        pending = list(itertools.combinations(range(len(rules)), 2))
        examined = 0
        while pending:
            examined += 1
            if examined > MAX_SPAIRS:
                raise LimitExceeded("semigroup-completion", f"more than {MAX_SPAIRS} S-pairs examined")
            i, j = pending.pop()
            u1, v1 = rules[i]
            u2, v2 = rules[j]
            lcm = tuple(max(a, b) for a, b in zip(u1, u2))
            if all(a + b == c for a, b, c in zip(u1, u2, lcm)):
                continue  # disjoint leads resolve trivially
            s1 = _normal_form(tuple(c - a + b for c, a, b in zip(lcm, u1, v1)), rules)
            s2 = _normal_form(tuple(c - a + b for c, a, b in zip(lcm, u2, v2)), rules)
            if s1 == s2:
                continue
            o = _orient(s1, s2)
            assert o is not None
            rules.append(o)
            pending.extend((t, len(rules) - 1) for t in range(len(rules) - 1))
        p._rules = rules
    return rules


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
