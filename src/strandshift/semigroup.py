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
the winding-1 presentation.  Generators are ordered winding-major, so winding
k owns the block of coordinates [(k-1)|V|, k|V|).  Only the winding-1 block is
completed; two vectors are congruent iff every block of one is congruent to
the same block of the other.  A zero block stays zero, since every relation
side is nonzero, so it matches only a zero block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import LimitExceeded
from .graphs import ShiftGraph

DEFAULT_MAX_RULES = 20000
# S-pairs one block completion may examine.  The largest completion in the
# test suite and the benchmark workloads examines 66.  Among random graphs of
# 6 to 10 vertices (seeds 0-119), 315 of the 322 completions that ended
# examined at most 1,035 (the other seven 1,891 to 6,903), and the 38 that
# ran on, which the rule limit did not stop, all passed the bound.
MAX_SPAIRS = 1500


@dataclass
class Presentation:
    graph: ShiftGraph
    max_winding: int
    gens: tuple  # ordered ((color, n), ...), grading ties broken by (n, vertex position)
    relations: tuple  # ((u, v), ...) exponent-vector pairs, both sides nonzero
    relation_info: tuple = ()  # (vertex, winding) per relation
    _rules: list = field(default=None, repr=False, compare=False)  # completed winding-1 block

    def index(self, color, n) -> int:
        return self.gens.index((color, n))

    def vector(self, loops: dict) -> tuple:
        """Exponent vector of a loop multiset {(color, winding): count}."""
        vec = [0] * len(self.gens)
        for (color, n), count in loops.items():
            if count < 0:
                raise ValueError("negative loop count")
            if count:
                vec[self.index(color, n)] += count
        return tuple(vec)

    def loops(self, vec) -> dict:
        return {self.gens[i]: x for i, x in enumerate(vec) if x}


def presentation_from_graph(g: ShiftGraph, n_max: int) -> Presentation:
    """Stage-N presentation: one generator and at most one relation per (color, winding).

    Vertices whose out-star is a single self-loop would contribute the trivial
    relation L(c,n) = L(c,n); those are dropped.
    """
    if n_max < 1:
        raise ValueError("the filtration starts at winding 1")
    gens = tuple((c, n) for n in range(1, n_max + 1) for c in g.vertices)
    pos = {cn: i for i, cn in enumerate(gens)}
    relations = []
    info = []
    for v in g.vertices:
        if g.is_isolated_color(v):
            continue
        kids = g.child_colors(v)
        for n in range(1, n_max + 1):
            u = [0] * len(gens)
            for c in kids:
                u[pos[(c, n)]] += 1
            w = [0] * len(gens)
            w[pos[(v, n)]] = 1
            relations.append((tuple(u), tuple(w)))
            info.append((v, n))
    return Presentation(g, n_max, gens, tuple(relations), tuple(info))


def max_winding(loops: dict) -> int:
    """Largest winding with a positive count; loop parts are never empty here."""
    windings = [n for (_, n), count in loops.items() if count > 0]
    if not windings:
        raise ValueError("empty loop multiset has no winding")
    return max(windings)


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


def _block_rules(p: Presentation, max_rules: int) -> list:
    """Completed rules of the winding-1 block over its |V| coordinates, cached.

    Buchberger completion stays inside pure-difference binomials: the S-pair
    of two rules at the lcm of their leads reduces to two normal forms whose
    oriented difference, when nonzero, is a new rule.  Pairs with disjoint
    lead supports resolve automatically and are skipped.  The limit counts
    stage rules, one copy of the block per winding; it is checked while the
    block completes and again on every call, so a cached completion answers
    each limit as a fresh one would.  The completion also stops after
    examining :data:`MAX_SPAIRS` S-pairs, skipped ones included, so that its
    work is bounded and not only its rule count.
    """
    rules = p._rules
    if rules is None:
        k = len(p.graph.vertices)
        rules = []
        for (a, b), (_, n) in zip(p.relations, p.relation_info):
            if n == 1:
                o = _orient(a[:k], b[:k])
                if o:
                    rules.append(o)
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
            if len(rules) * p.max_winding > max_rules:
                raise LimitExceeded("semigroup-completion", f"more than {max_rules} rules")
            pending.extend((t, len(rules) - 1) for t in range(len(rules) - 1))
        p._rules = rules
    if len(rules) * p.max_winding > max_rules:
        raise LimitExceeded("semigroup-completion", f"more than {max_rules} rules")
    return rules


def completed_rules(p: Presentation, max_rules: int = DEFAULT_MAX_RULES) -> list:
    """Confluent rewriting rules for the stage congruence over full-stage vectors.

    These are the completed winding-1 block rules lifted into each winding's
    block, so there are max_winding times as many as in the block.  Leads in
    different blocks are disjoint, so the lifted copies never interact.
    """
    rules = _block_rules(p, max_rules)
    zero = (0,) * len(p.graph.vertices)
    n = p.max_winding
    return [
        (zero * w + u + zero * (n - 1 - w), zero * w + v + zero * (n - 1 - w))
        for w in range(n)
        for u, v in rules
    ]


def decide_equal(a: tuple, b: tuple, p: Presentation, max_rules: int = DEFAULT_MAX_RULES) -> bool:
    """Whether two nonzero vectors are congruent in stage max_winding.

    The vectors are compared block by block, one block per winding, by their
    normal forms under the completed winding-1 block rules.
    """
    for vec in (a, b):
        if len(vec) != len(p.gens):
            raise ValueError("vector length does not match the presentation")
        if min(vec) < 0:
            raise ValueError("negative loop count")
        if not any(vec):
            raise ValueError("the semigroup has no identity; vectors must be nonzero")
    rules = _block_rules(p, max_rules)
    k = len(p.graph.vertices)
    for i in range(0, len(a), k):
        x, y = a[i : i + k], b[i : i + k]
        if x != y and _normal_form(x, rules) != _normal_form(y, rules):
            return False
    return True


# ---------------------------------------------------------------------------
# independent oracle

def bfs_equal(a: tuple, b: tuple, p: Presentation, cap: int) -> str:
    """:func:`bfs_path`'s verdict: "equal" (always sound) or
    "not-equal-within-cap" (sound only as a statement about derivations
    whose intermediate degrees stay <= cap)."""
    return "equal" if bfs_path(a, b, p, cap) is not None else "not-equal-within-cap"


def bfs_path(a: tuple, b: tuple, p: Presentation, cap: int):
    """A relation-application path from a to b within the degree cap, or None.

    Each step is (relation index, +1 | -1): +1 rewrites children-sum to parent
    (a type 3 reduction on the diagram side), -1 the inverse expansion.  The
    search is bidirectional: it grows the smaller frontier by one level and
    keeps a parent map per side.  Relations apply both ways, so the half of
    the path found from b's side is read backwards with its signs flipped.
    """
    if cap < max(sum(a), sum(b)):
        raise ValueError("cap below the degree of an input")
    if a == b:
        return []
    steps = []
    for ridx, (u, v) in enumerate(p.relations):
        steps.append((ridx, u, v, +1))
        steps.append((ridx, v, u, -1))

    def walk(parents, m):
        """The steps that led to m, last first."""
        out = []
        while parents[m] is not None:
            m, ridx, sign = parents[m]
            out.append((ridx, sign))
        return out

    parents = ({a: None}, {b: None})
    fronts = [[a], [b]]
    while fronts[0] and fronts[1]:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        mine, other = parents[side], parents[1 - side]
        nxt = []
        for m in fronts[side]:
            for ridx, lhs, rhs, sign in steps:
                if _divides(lhs, m):
                    n = tuple(x - c + d for x, c, d in zip(m, lhs, rhs))
                    if sum(n) <= cap and n not in mine:
                        mine[n] = (m, ridx, sign)
                        if n in other:
                            return walk(parents[0], n)[::-1] + [(r, -s) for r, s in walk(parents[1], n)]
                        nxt.append(n)
        fronts[side] = nxt
    return None


def dump_presentation(p: Presentation) -> str:
    """One relation per line, generators printed L(color,n)."""
    lines = []
    for u, v in p.relations:
        left = "+".join(
            "+".join([f"L({c},{n})"] * u[i]) for i, (c, n) in enumerate(p.gens) if u[i]
        )
        right = "+".join(
            "+".join([f"L({c},{n})"] * v[i]) for i, (c, n) in enumerate(p.gens) if v[i]
        )
        lines.append(f"{left}={right}")
    return "\n".join(lines)
