"""Forest pair diagrams: pairs of complete rooted subforests with a leaf bijection.

A group element is a triple (domain forest, bijection, range forest); both
forests are finite complete rooted subforests of the forest of paths and the
bijection pairs leaves of equal color.  We store only the two leaf sequences:
index i of the domain sequence is paired with index i of the range sequence,
and each sequence determines its forest (the prefix closure).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    BaseTuple,
    PathWord,
    ShiftGraph,
    color_of_word,
    format_word,
    is_isolated_cylinder,
)


@dataclass(frozen=True)
class ForestPair:
    """The two leaf sequences over a base.

    `checked` is set by :func:`validate_forest_pair` once the pair passes:
    (graph, domain tries, range tries, internal nodes of both forests), so
    that a builder given the same graph need not check the pair again, and
    grows each forest from its tries and takes its ids in one block.
    """

    domain_leaves: tuple  # tuple[PathWord, ...]
    range_leaves: tuple
    base: BaseTuple
    checked: tuple = field(default=None, init=False, compare=False, repr=False)

    def __len__(self):
        return len(self.domain_leaves)


class LeafFault(ValueError):
    """A forest pair fault at one leaf: leaf `index` of the `side` sequence."""

    def __init__(self, message: str, side: str, index: int):
        super().__init__(message)
        self.side = side
        self.index = index


def _check_leaf_forest(g: ShiftGraph, base: BaseTuple, leaves, side: str):
    """Check that `leaves` is the leaf set of a complete rooted subforest.

    One pass over the leaves checks each edge against the edge table and
    files the leaf in a trie: `tries` maps each root to its node, an
    internal node is a dict from edge id to child, and leaf i is the int i.
    A leaf that passes through a leaf or ends on a node already filed
    repeats a leaf or breaks the antichain; only then are the leaves walked
    again (:func:`_first_leaf_fault`) to name the first fault in leaf order.

    Completeness is a count, kept as the trie grows.  Once the leaves are
    distinct paths and none is internal, every node but a root fills one
    child slot of its parent, an internal node, and no two fill the same
    slot, so the forest is complete exactly when the nodes that are not
    roots number as many as the internal nodes' child slots.  Only a failed
    count looks for the missing child (:func:`_first_missing_child`).

    Returns (tries, internal, colors): `internal` counts the internal nodes
    and `colors` lists the leaf colors in leaf order.

    A fault is a :class:`LeafFault` at the leaf it names, or for an
    incomplete forest at the first leaf below the node missing a child.
    Words are named as the element format writes them, except a leaf that
    is not a path of the graph, which may have no written form.
    """
    table, out_order = g.edges, g.out_order
    tries = {}
    internal = slots = 0
    colors = []
    for i, w in enumerate(leaves):
        root, edges = w
        if not 0 <= root < len(base):
            raise LeafFault(f"{side} leaf {w} is not a path of the graph", side, i)
        at = base[root]
        parent, key = tries, root  # the leaf's node is parent[key]
        for e in edges:
            ends = table.get(e)
            if ends is None or ends[0] != at:
                raise LeafFault(f"{side} leaf {w} is not a path of the graph", side, i)
            node = parent.get(key)
            if node is None:
                node = parent[key] = {}
                internal += 1
                slots += len(out_order[at])
            elif type(node) is int:
                _first_leaf_fault(g, base, leaves, side)
            parent, key, at = node, e, ends[1]
        if key in parent:
            _first_leaf_fault(g, base, leaves, side)
        parent[key] = i
        colors.append(at)
    if len(leaves) + internal - len(tries) != slots:
        _first_missing_child(g, base, leaves, side, tries)
    if len(tries) != len(base):
        raise ValueError(f"{side} forest does not cover every root")
    return tries, internal, colors


def _first_leaf_fault(g: ShiftGraph, base: BaseTuple, leaves, side: str):
    """Raise the first fault of leaves that are not distinct paths or not an
    antichain: in leaf order a leaf that is no path or repeats an earlier
    one, and only if there is none the first leaf below another."""
    seen = set()
    for i, w in enumerate(leaves):
        at = base[w.root] if 0 <= w.root < len(base) else None
        for e in w.edges:
            ends = g.edges.get(e)
            at = ends[1] if ends is not None and ends[0] == at else None
        if at is None:
            raise LeafFault(f"{side} leaf {w} is not a path of the graph", side, i)
        if w in seen:
            raise LeafFault(f"{side} leaf {format_word(w, base)} repeated", side, i)
        seen.add(w)
    for i, w in enumerate(leaves):
        if any((w.root, w.edges[:n]) in seen for n in range(len(w.edges))):
            raise LeafFault(f"{side} leaves are not an antichain at {format_word(w, base)}", side, i)


def _first_missing_child(g: ShiftGraph, base: BaseTuple, leaves, side: str, tries):
    """Raise the fault of the first internal node that misses a child, in
    the order the leaves reach the nodes (each leaf's new nodes deepest
    first), at the first leaf below it."""
    reached = set()
    for i, (root, edges) in enumerate(leaves):
        node, at, new = tries[root], base[root], []
        for n, e in enumerate(edges):
            if (root, edges[:n]) not in reached:
                reached.add((root, edges[:n]))
                new.append((PathWord(root, edges[:n]), node, at))
            node, at = node[e], g.edges[e][1]
        for p, node, at in reversed(new):
            for e in g.out_order[at]:
                if e not in node:
                    raise LeafFault(
                        f"{side} forest incomplete below {format_word(p, base)}: "
                        f"missing child {format_word(p.child(e), base)}",
                        side,
                        i,
                    )


def validate_forest_pair(g: ShiftGraph, fp: ForestPair):
    """Raise ValueError unless fp is a well-formed color-preserving pair; a
    :class:`LeafFault` names the leaf at fault, a colour fault the range leaf.

    Records the domain and the range tries, as :func:`_check_leaf_forest`
    gives them, in `fp.checked` with `g` and the number of internal nodes
    of both forests, and returns the two tries.
    """
    if len(fp.domain_leaves) != len(fp.range_leaves):
        raise ValueError("leaf sequences differ in length")
    domain, domain_internal, domain_colors = _check_leaf_forest(g, fp.base, fp.domain_leaves, "domain")
    rng, range_internal, range_colors = _check_leaf_forest(g, fp.base, fp.range_leaves, "range")
    if domain_colors != range_colors:
        for i, (cd, cr) in enumerate(zip(domain_colors, range_colors)):
            if cd != cr:
                raise LeafFault(f"pairing not color-preserving at leaf {i}: {cd} vs {cr}", "range", i)
    object.__setattr__(fp, "checked", (g, domain, rng, domain_internal + range_internal))
    return domain, rng


def apply_to_word(g: ShiftGraph, fp: ForestPair, w: PathWord) -> PathWord:
    """Apply the represented homeomorphism to a finite path.

    Replaces the unique domain-leaf prefix of w by its paired range leaf.
    Raises KeyError when w is too short to have a leaf prefix; callers extend
    the word and retry.
    """
    for d, r in zip(fp.domain_leaves, fp.range_leaves):
        if d.is_prefix_of(w):
            return PathWord(r.root, r.edges + w.edges[len(d.edges) :])
    raise KeyError(f"no domain leaf is a prefix of {w}; extend the word")


def expand_regular(g: ShiftGraph, fp: ForestPair, index: int) -> ForestPair:
    """Replace domain leaf `index` and its partner by their full carets.

    The caret shape is forced by the leaf color; the new child leaves are
    paired edge-for-edge, so the represented homeomorphism is unchanged.
    """
    if not (0 <= index < len(fp.domain_leaves)):
        raise IndexError("leaf index out of range")
    d = fp.domain_leaves[index]
    r = fp.range_leaves[index]
    color = color_of_word(g, fp.base, d)
    new_d = list(fp.domain_leaves[:index])
    new_r = list(fp.range_leaves[:index])
    for e in g.out_order[color]:
        new_d.append(d.child(e))
        new_r.append(r.child(e))
    new_d.extend(fp.domain_leaves[index + 1 :])
    new_r.extend(fp.range_leaves[index + 1 :])
    return ForestPair(tuple(new_d), tuple(new_r), fp.base)


def expand_degenerate(g: ShiftGraph, fp: ForestPair, side: str, index: int) -> ForestPair:
    """Shorten one leaf `pe` to `p` on one side only.

    Legal exactly when the cylinder at p is an isolated point (p's color has a
    single self-loop), in which case the cylinders of p and pe coincide and
    the represented homeomorphism is unchanged.
    """
    leaves = {"domain": fp.domain_leaves, "range": fp.range_leaves}[side]
    if not (0 <= index < len(leaves)):
        raise IndexError("leaf index out of range")
    w = leaves[index]
    if not w.edges:
        raise ValueError("root leaf cannot be shortened")
    p = PathWord(w.root, w.edges[:-1])
    if not is_isolated_cylinder(g, fp.base, p):
        raise ValueError(f"cylinder at {p} is not an isolated point")
    new = leaves[:index] + (p,) + leaves[index + 1 :]
    if side == "domain":
        return ForestPair(new, fp.range_leaves, fp.base)
    return ForestPair(fp.domain_leaves, new, fp.base)
