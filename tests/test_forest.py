import random

import pytest

from strandshift.forest import (
    ForestPair,
    _check_leaf_forest,
    apply_to_word,
    expand_degenerate,
    expand_regular,
    validate_forest_pair,
)
from strandshift.diagrams import canonical_key, from_forest_pair
from strandshift.graphs import PathWord, ShiftGraph, color_of_word, format_word
from strandshift.testkit import (
    children,
    compose_pairs,
    enumerate_words,
    identity_pair,
    invert_pair,
    GeneratorConfig,
    random_element,
    random_graph,
    reference_check_leaf_forest,
)
from strandshift.textio import format_element, parse_element


def test_sigma_validates(fig1, sigma):
    validate_forest_pair(fig1, sigma)


def test_color_violation_names_leaf(fig1, base_bg):
    bad = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1)),
        (PathWord(0, ("2",)), PathWord(0, ("1",)), PathWord(1)),  # G leaf paired with R leaf
        base_bg,
    )
    with pytest.raises(ValueError, match="leaf 0"):
        validate_forest_pair(fig1, bad)


def test_incomplete_forest_rejected(fig1, base_bg):
    bad = ForestPair(
        (PathWord(0, ("1",)), PathWord(1)),  # missing sibling B2
        (PathWord(0, ("1",)), PathWord(1)),
        base_bg,
    )
    with pytest.raises(ValueError, match="incomplete"):
        validate_forest_pair(fig1, bad)


def test_builder_checks_a_pair_that_was_never_checked(fig1, base_bg):
    bad = ForestPair((PathWord(0, ("1",)), PathWord(1)), (PathWord(0, ("1",)), PathWord(1)), base_bg)
    assert bad.checked is None
    with pytest.raises(ValueError, match="incomplete"):
        from_forest_pair(fig1, bad)


def test_builder_checks_again_against_another_graph(fig1, base_bg, sigma):
    """A pair checked against one graph is checked again when built against
    another, here one where G's edge 4 leads to R, so that G.4.2 is no path."""
    fp = parse_element(format_element(sigma), fig1, base_bg)
    assert fp.checked[0] is fig1 and fp == sigma
    other = ShiftGraph(fig1.vertices, {**fig1.edges, "4": ("G", "R")}, fig1.out_order)
    with pytest.raises(ValueError, match="range leaf .* is not a path of the graph"):
        from_forest_pair(other, fp)
    assert canonical_key(from_forest_pair(fig1, fp)) == canonical_key(from_forest_pair(fig1, sigma))


def _single_mutations(g, base, leaves):
    """Drop, duplicate, extend (in place or beside itself, by any edge of the
    graph) or re-root one leaf, or swap two."""
    for i, w in enumerate(leaves):
        before, after = leaves[:i], leaves[i + 1 :]
        yield before + after
        yield before + (w, w) + after
        for e in g.edges:
            yield before + (w.child(e),) + after
            yield before + (w, w.child(e)) + after
        for r in range(-1, len(base) + 1):
            if r != w.root:
                yield before + (PathWord(r, w.edges),) + after
        for j in range(i + 1, len(leaves)):
            swapped = list(leaves)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield tuple(swapped)


def _fault(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def _missing_children(g, base, leaves):
    """Every (internal node, missing child) pair of a leaf tuple."""
    prefixes = {PathWord(w.root, w.edges[:n]) for w in leaves for n in range(len(w.edges))}
    covered = prefixes | set(leaves)
    return {(p, c) for p in prefixes for c in children(g, base, p) if c not in covered}


def _trie_nodes(tries):
    """(path, node) for every node of the tries: an internal node is the
    dict of its children, a leaf the int of its index."""
    stack = [((root, ()), node) for root, node in tries.items()]
    while stack:
        (root, edges), node = stack.pop()
        yield (root, edges), node
        if isinstance(node, dict):
            stack.extend(((root, edges + (e,)), child) for e, child in node.items())


def test_forest_check_matches_the_reference():
    """The one-pass check accepts and rejects what the prefix-by-prefix
    reference does, with the same message, on random elements and on every
    single mutation of them.  For an incomplete forest the reference names
    whichever missing child its set yields first, so there the node and
    child named need only be missing.  An accepted forest's tries file
    every leaf at its path, and their internal nodes are exactly the proper
    prefixes of the leaves, each with a child per out-edge of its colour."""
    checked = incomplete = 0
    for graph_seed in range(1, 21):
        g, base = random_graph(GeneratorConfig(seed=graph_seed))
        for e in range(3):
            fp = random_element(g, base, GeneratorConfig(seed=e, growth_steps=e + 1))
            for side, leaves in (("domain", fp.domain_leaves), ("range", fp.range_leaves)):
                for mutant in (leaves, *_single_mutations(g, base, leaves)):
                    want = _fault(reference_check_leaf_forest, g, base, mutant, side)
                    got = _fault(_check_leaf_forest, g, base, mutant, side)
                    checked += 1
                    if want is None:
                        assert not isinstance(got, str), got
                        tries, count, colors = got
                        nodes = dict(_trie_nodes(tries))
                        internal = {p: node for p, node in nodes.items() if isinstance(node, dict)}
                        prefixes = {(w.root, w.edges[:n]) for w in mutant for n in range(len(w.edges))}
                        assert set(internal) == prefixes and count == len(internal)
                        for p, node in internal.items():
                            assert set(node) == set(g.out_order[color_of_word(g, base, PathWord(*p))])
                        assert {p: i for p, i in nodes.items() if p not in internal} == {
                            tuple(w): i for i, w in enumerate(mutant)
                        }
                        assert colors == [color_of_word(g, base, w) for w in mutant]
                    elif "incomplete" in want:
                        incomplete += 1
                        named = {
                            f"{side} forest incomplete below {format_word(p, base)}: missing child {format_word(c, base)}"
                            for p, c in _missing_children(g, base, mutant)
                        }
                        assert got in named, (graph_seed, e, mutant)
                    else:
                        assert got == want, (graph_seed, e, mutant)
    assert checked > 5000 and incomplete > 500


def test_apply_to_word_examples(fig1, sigma, base_bg):
    assert apply_to_word(fig1, sigma, PathWord(0, ("1", "3"))) == PathWord(1, ("3", "3"))
    assert apply_to_word(fig1, sigma, PathWord(0, ("2", "0"))) == PathWord(1, ("4", "2", "0"))
    ident = identity_pair(fig1, base_bg)
    for w in enumerate_words(fig1, base_bg, 3):
        assert apply_to_word(fig1, ident, w) == w


def test_apply_to_word_too_short(fig1, sigma):
    with pytest.raises(KeyError):
        apply_to_word(fig1, sigma, PathWord(0))


def test_regular_expansion_of_identity(fig1, base_bg):
    fp = expand_regular(fig1, identity_pair(fig1, base_bg), 0)
    assert fp.domain_leaves == (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1))
    assert fp.range_leaves == fp.domain_leaves


def test_regular_expansions_commute(fig1, base_bg, sigma):
    # expanding two distinct leaves in either order gives the same pair
    a = expand_regular(fig1, expand_regular(fig1, sigma, 0), 3)
    b = expand_regular(fig1, expand_regular(fig1, sigma, 2), 0)
    # order the leaf pairs to compare as sets
    assert sorted(zip(a.domain_leaves, a.range_leaves)) == sorted(
        zip(b.domain_leaves, b.range_leaves)
    )


def test_degenerate_expansion_shortens_isolated_leaf(fig1, base_bg):
    # B2 is R-colored with a single self-loop, so leaf B2.0 can shorten to B2
    fp = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2", "0")), PathWord(1)),
        (PathWord(0, ("1",)), PathWord(0, ("2", "0")), PathWord(1)),
        base_bg,
    )
    validate_forest_pair(fig1, fp)
    out = expand_degenerate(fig1, fp, "domain", 1)
    assert out.domain_leaves[1] == PathWord(0, ("2",))
    assert out.range_leaves[1] == PathWord(0, ("2", "0"))


def test_degenerate_expansion_requires_isolated(fig1, base_bg, sigma):
    with pytest.raises(ValueError):
        expand_degenerate(fig1, sigma, "domain", 0)  # B1's parent B is not isolated


def test_expansion_preserves_semantics(fig1, base_bg):
    rng = random.Random(3)
    for seed in range(30):
        fp = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=2))
        index = rng.randrange(len(fp.domain_leaves))
        fp2 = expand_regular(fig1, fp, index)
        depth = max(len(w.edges) for w in fp2.domain_leaves)
        for w in enumerate_words(fig1, base_bg, depth + 1):
            if len(w.edges) < depth:
                continue
            assert apply_to_word(fig1, fp, w) == apply_to_word(fig1, fp2, w)


def test_compose_with_inverse_is_identity_semantically(fig1, base_bg, sigma):
    from strandshift.testkit import semantic_equal

    prod = compose_pairs(fig1, sigma, invert_pair(sigma))
    assert semantic_equal(fig1, prod, identity_pair(fig1, base_bg), depth=5)


def test_compose_matches_word_application(fig1, base_bg):
    for seed in range(20):
        f = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=2))
        h = random_element(fig1, base_bg, GeneratorConfig(seed=seed + 500, growth_steps=2))
        prod = compose_pairs(fig1, f, h)
        depth = 6
        for w in enumerate_words(fig1, base_bg, depth):
            if len(w.edges) != depth:
                continue
            assert apply_to_word(fig1, prod, w) == apply_to_word(
                fig1, h, apply_to_word(fig1, f, w)
            )


def test_compose_through_isolated_cylinder(fig1, base_bg):
    # range leaf stops at B2 while the other factor's domain needs B2.0;
    # the common refinement forces a 1-ary caret through the isolated cylinder
    f = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1)),
        (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1)),
        base_bg,
    )
    h = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2", "0")), PathWord(1)),
        (PathWord(0, ("1",)), PathWord(0, ("2", "0")), PathWord(1)),
        base_bg,
    )
    prod = compose_pairs(fig1, f, h)
    from strandshift.testkit import semantic_equal

    assert semantic_equal(fig1, prod, identity_pair(fig1, base_bg), depth=4)
