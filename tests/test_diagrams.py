import copy
import hashlib
import random
from pathlib import Path

import pytest

from strandshift import diagrams
from strandshift.closed import close, components, decompose_parts, semi_reduce, skeleton
from strandshift.diagrams import (
    StrandDiagram,
    _Builder,
    canonical_key,
    compose,
    equal,
    from_forest_pair,
    identity_diagram,
    invert,
    is_reduced,
    power,
    product,
    reduce,
    reduce_with_log,
    to_forest_pair,
)
from strandshift.errors import ParseError, SignatureMismatch
from strandshift.forest import ForestPair
from strandshift.graphs import PathWord
from strandshift.testkit import (
    GeneratorConfig,
    _bidirectional_order,
    _serialize,
    closed_key,
    identity_pair,
    permutation_diagram,
    random_element,
    random_graph,
    reference_canonical_key,
    reference_components,
    reference_reduce_with_log,
    split_diagram,
    validate_strand_diagram,
)
from strandshift.textio import parse_element, parse_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def build_sigma_expected():
    """The worked-example diagram, wired point by point."""
    b = _Builder()
    u1, u2 = b.point("B"), b.point("G")
    sB, sG = b.point("B"), b.point("G")
    mG4, mG = b.point("B"), b.point("G")
    w1, w2 = b.point("B"), b.point("G")
    b.strand("B", u1, sB)
    b.strand("G", u2, sG)
    b.strand("G", sB, mG)  # B1 -> G3: first in-slot of the G merge
    b.strand("G", sG, mG4)  # G3 -> G41
    b.strand("R", sB, mG4)  # B2 -> G42
    b.strand("B", sG, w1)  # G4 -> B
    b.strand("B", mG4, mG)
    b.strand("G", mG, w2)
    return b.build([u1, u2], [w1, w2])


def build_sigma_split_sources():
    """Same element drawn with split-sources and a merge-sink instead of univalent endpoints."""
    b = _Builder()
    sB, sG = b.point("B"), b.point("G")
    mG4, mG = b.point("B"), b.point("G")
    tB = b.point("B")
    b.strand("G", sB, mG)
    b.strand("G", sG, mG4)
    b.strand("R", sB, mG4)
    b.strand("B", sG, tB)
    b.strand("B", mG4, mG)
    return b.build([sB, sG], [tB, mG])


def build_sigma_squared_expected():
    """Reduced square of the worked element, wired point by point."""
    b = _Builder()
    u1, u2 = b.point("B"), b.point("G")
    sB, sG, sB2 = b.point("B"), b.point("G"), b.point("B")
    mG4, mG4b, mGp = b.point("B"), b.point("B"), b.point("G")
    w1, w2 = b.point("B"), b.point("G")
    b.strand("B", u1, sB)
    b.strand("G", u2, sG)
    b.strand("G", sB, mG4b)
    b.strand("G", sG, mG4)
    b.strand("R", sB, mG4)
    b.strand("B", sG, sB2)
    b.strand("G", sB2, mGp)
    b.strand("R", sB2, mG4b)
    b.strand("B", mG4, w1)
    b.strand("B", mG4b, mGp)
    b.strand("G", mGp, w2)
    return b.build([u1, u2], [w1, w2])


def test_validate_paper_style_diagram(fig1):
    assert validate_strand_diagram(build_sigma_split_sources(), fig1) == []


def test_validate_single_strand(fig1):
    assert validate_strand_diagram(identity_diagram(("B",)), fig1) == []


def test_validate_rejects_swapped_split_colors(fig1):
    b = _Builder()
    src, v = b.point("B"), b.point("B")
    t1, t2 = b.point("R"), b.point("G")
    b.strand("B", src, v)
    b.strand("R", v, t1)  # out-slot order must be (G, R) for a B split
    b.strand("G", v, t2)
    d = b.build([src], [t1, t2])
    report = validate_strand_diagram(d, fig1)
    assert any("split out-colors" in line for line in report)


def test_validate_rejects_bad_degrees(fig1):
    b = _Builder()
    p, q = b.point("B"), b.point("B")
    r, s = b.point("G"), b.point("G")
    b.strand("B", p, q)
    b.strand("B", p, q)  # q has in-degree 2 and out-degree 2: no kind
    b.strand("G", q, r)
    b.strand("G", q, s)
    d = b.build([p], [r, s])
    report = validate_strand_diagram(d, fig1)
    assert any("match no kind" in line for line in report)


def test_validate_detects_cycle(fig1):
    b = _Builder()
    p, q = b.point("R"), b.point("R")
    b.strand("R", p, q)
    b.strand("R", q, p)
    d = b.build([], [])
    assert any("cycle" in line for line in validate_strand_diagram(d, fig1))


def test_from_forest_pair_matches_picture(fig1, sigma):
    assert canonical_key(from_forest_pair(fig1, sigma)) == canonical_key(build_sigma_expected())


def test_from_forest_pair_identity_and_permutation(fig1, base_bg):
    assert canonical_key(from_forest_pair(fig1, identity_pair(fig1, base_bg))) == canonical_key(
        identity_diagram(base_bg)
    )
    swap = ForestPair((PathWord(0), PathWord(1)), (PathWord(1), PathWord(0)), ("G", "G"))
    assert canonical_key(from_forest_pair(fig1, swap)) == canonical_key(
        permutation_diagram(("G", "G"), [1, 0])
    )


def test_from_forest_pair_ids_match_recorded_digest():
    """Pins every point and strand id the builder allocates, and the order in
    which it fills each table, on random graphs 1-10 (repeated base colors,
    one-child nodes that become degenerate points) with four elements each."""
    records = []
    for gs in range(1, 11):
        g, base = random_graph(GeneratorConfig(seed=gs))
        for e in range(4):
            d = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=e, growth_steps=2 + e % 5)))
            records.append(([list(getattr(d, t).items()) for t in TABLES], d.sources, d.sinks))
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "83df3d6350c89809"


def test_from_forest_pair_tables_match_recorded_digest(fig1, base_bg, full_shift2):
    """Pins the six tables (items in order), sources and sinks that the
    builder makes from every fixture element read against every fixture
    graph that accepts it, and from 210 random elements at growth 1-8 on
    fig1, the binary full shift and random graphs 1-70."""
    records = []
    graphs = [parse_graph(path.read_text()) for path in sorted(FIXTURES.glob("*.graph"))]
    for path in sorted(FIXTURES.glob("*.elem")):
        for g, base in graphs:
            try:
                fp = parse_element(path.read_text(), g, base)
            except ParseError:
                continue
            records.append(path.name)
            d = from_forest_pair(g, fp)
            records.append(([list(getattr(d, t).items()) for t in TABLES], d.sources, d.sinks))
    assert len(records) == 2 * 23
    for seed in range(70):
        steps = 1 + seed % 8
        cases = [(fig1, base_bg), (full_shift2, ("v",)), random_graph(GeneratorConfig(seed=1 + seed))]
        for g, base in cases:
            d = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=seed, growth_steps=steps)))
            records.append(([list(getattr(d, t).items()) for t in TABLES], d.sources, d.sinks))
    assert hashlib.sha256(repr(records).encode()).hexdigest()[:16] == "fc281b9dc26e4d0c"


def test_to_forest_pair_round_trips(fig1, base_bg, sigma):
    for fp in (
        sigma,
        identity_pair(fig1, base_bg),
        ForestPair((PathWord(0), PathWord(1)), (PathWord(1), PathWord(0)), ("G", "G")),
    ):
        d = from_forest_pair(fig1, fp)
        back = to_forest_pair(fig1, d)
        assert sorted(zip(back.domain_leaves, back.range_leaves)) == sorted(
            zip(fp.domain_leaves, fp.range_leaves)
        )
        assert canonical_key(from_forest_pair(fig1, back)) == canonical_key(d)


def _slot_key(g, base, w):  # (root, edge indices): the planar order of leaves
    eidx, at = [], base[w.root]
    for e in w.edges:
        eidx.append(g.out_order[at].index(e))
        at = g.term(e)
    return (w.root, tuple(eidx))


def test_to_forest_pair_lists_leaves_in_slot_order(fig1, base_bg, full_shift2):
    graphs = [(fig1, base_bg), (full_shift2, ("v",))]
    graphs += [random_graph(GeneratorConfig(seed=s)) for s in range(1, 11)]
    for g, base in graphs:
        for seed in range(6):
            f = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=seed, growth_steps=2 + seed % 4)))
            h = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=seed + 100, growth_steps=3)))
            for d in (reduce(f), reduce(compose(f, h)), reduce(compose(invert(h), f))):
                fp = to_forest_pair(g, d)
                pairs = list(zip(fp.domain_leaves, fp.range_leaves))
                assert pairs == sorted(pairs, key=lambda p: _slot_key(g, base, p[0]))
                assert equal(from_forest_pair(g, fp), d)


def test_to_forest_pair_rejects_unreduced_and_mismatched(fig1, sigma):
    d = from_forest_pair(fig1, sigma)
    with pytest.raises(ValueError):
        to_forest_pair(fig1, compose(d, d))  # composite has a type 2 redex
    caret = split_diagram(("B",), 0, ("G", "R"))
    with pytest.raises(SignatureMismatch):
        to_forest_pair(fig1, caret)


def test_composition_square_reduces_to_picture(fig1, sigma):
    d = from_forest_pair(fig1, sigma)
    square = compose(d, d)
    red, log = reduce_with_log(square)
    assert log == [2]
    assert canonical_key(red) == canonical_key(build_sigma_squared_expected())


def test_compose_signature_mismatch(fig1):
    with pytest.raises(SignatureMismatch):
        compose(identity_diagram(("B",)), identity_diagram(("G",)))


def test_identity_and_inverse_laws(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    ident = identity_diagram(base_bg)
    assert equal(compose(d, ident), d)
    assert equal(compose(ident, d), d)
    assert equal(compose(d, invert(d)), ident)
    assert equal(compose(invert(d), d), ident)


def test_invert_is_involution(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    assert canonical_key(invert(invert(d))) == canonical_key(d)
    ident = identity_diagram(base_bg)
    assert canonical_key(invert(ident)) == canonical_key(ident)


def test_type0_reduction_from_unary_caret(fig1, base_bg, sigma):
    # same element with the isolated R cylinder written one level deeper:
    # the unary node becomes a degenerate point, removed by a type 0 step
    deeper = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2", "0")), PathWord(1, ("3",)), PathWord(1, ("4",))),
        sigma.range_leaves,
        base_bg,
    )
    d = from_forest_pair(fig1, deeper)
    red, log = reduce_with_log(d)
    assert log == [0]
    assert canonical_key(red) == canonical_key(from_forest_pair(fig1, sigma))


def test_reduce_is_fixpoint_on_reduced(fig1, sigma):
    d = from_forest_pair(fig1, sigma)
    assert is_reduced(d)
    red, log = reduce_with_log(d)
    assert log == [] and canonical_key(red) == canonical_key(d)


def test_equal_examples(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    assert equal(d, reduce(compose(d, identity_diagram(base_bg))))
    assert equal(compose(d, invert(d)), identity_diagram(base_bg))
    assert not equal(d, identity_diagram(base_bg))


def test_normal_form_unique_under_random_orders(fig1, base_bg):
    rngs = [random.Random(s) for s in range(5)]
    for seed in range(40):
        f = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=2))
        h = random_element(fig1, base_bg, GeneratorConfig(seed=seed + 700, growth_steps=2))
        d = compose(from_forest_pair(fig1, f), from_forest_pair(fig1, h))
        baseline = canonical_key(reduce(d))
        for rng in rngs:
            assert canonical_key(reference_reduce_with_log(d, rng)[0]) == baseline


def test_reductions_preserve_signature(fig1, base_bg):
    for seed in range(20):
        f = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=2))
        h = random_element(fig1, base_bg, GeneratorConfig(seed=seed + 900, growth_steps=2))
        d = compose(from_forest_pair(fig1, f), invert(from_forest_pair(fig1, h)))
        r = reduce(d)
        assert r.domain() == d.domain() and r.range() == d.range()


def test_associativity_up_to_equivalence(fig1, base_bg):
    for seed in range(10):
        a, b, c = (
            from_forest_pair(
                fig1, random_element(fig1, base_bg, GeneratorConfig(seed=seed + off, growth_steps=2))
            )
            for off in (0, 100, 200)
        )
        assert equal(compose(compose(a, b), c), compose(a, compose(b, c)))


TABLES = ("point_color", "strand_color", "strand_from", "strand_to", "in_slots", "out_slots")


def snapshot(d):
    return copy.deepcopy([getattr(d, t) for t in TABLES])


def table_record(d):
    """The tables with their items in order, the sources and the sinks."""
    return [list(getattr(d, t).items()) for t in TABLES], d.sources, d.sinks


def unreduced(fig1, base_bg, sigma):
    """Diagrams with type 0, 1 and 2 redexes."""
    s = from_forest_pair(fig1, sigma)
    out = [compose(s, invert(s)), compose(invert(s), s), compose(compose(s, s), invert(s))]
    for seed in range(6):
        fp = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=4))
        f = from_forest_pair(fig1, fp)
        out.append(compose(compose(f, s), invert(f)))
    return out


def test_constructors_adopt_their_tables(fig1, sigma):
    d = from_forest_pair(fig1, sigma)
    tabs = _Builder(d).tables()
    e = StrandDiagram(*tabs, d.sources, d.sinks)
    assert all(getattr(e, t) is tab for t, tab in zip(TABLES, tabs))
    inv = invert(e)
    assert (inv.point_color, inv.strand_from, inv.in_slots) == (e.point_color, e.strand_to, e.out_slots)
    assert inv.in_slots is e.out_slots and inv.strand_color is e.strand_color


def test_reduce_leaves_its_input_unchanged(fig1, base_bg, sigma):
    for d in unreduced(fig1, base_bg, sigma):
        before = snapshot(d)
        red, log = reduce_with_log(d)
        assert log and snapshot(d) == before
        seeded, _ = reference_reduce_with_log(d, random.Random(len(log)))
        assert snapshot(d) == before and canonical_key(seeded) == canonical_key(red)
        assert reduce(red) is red  # an irreducible diagram comes back as it is


def test_reduce_checks_structure_once(full_shift2, thompson_x0, monkeypatch):
    x0 = from_forest_pair(full_shift2, thompson_x0)
    power = x0
    for _ in range(15):
        power = compose(power, x0)
    checked = []
    real = diagrams._check_structure
    monkeypatch.setattr(diagrams, "_check_structure", lambda d: checked.append(d) or real(d))
    red, log = reduce_with_log(power)
    assert len(log) > 1 and checked == [red]


def with_tuple_slots(d):
    pc, sc, sf, st, ins, outs = _Builder(d).tables()
    tuples = ({p: tuple(v) for p, v in ins.items()}, {p: tuple(v) for p, v in outs.items()})
    return StrandDiagram(pc, sc, sf, st, *tuples, d.sources, d.sinks)


def test_tuple_and_list_slots_reduce_alike(fig1, base_bg, sigma):
    for d in unreduced(fig1, base_bg, sigma):
        as_tuples = with_tuple_slots(d)
        as_lists = _Builder(d).build(d.sources, d.sinks)
        (rt, log_t), (rl, log_l) = reduce_with_log(as_tuples), reduce_with_log(as_lists)
        assert log_t == log_l and canonical_key(rt) == canonical_key(rl) == canonical_key(reduce(d))
    assert 1 in reduce_with_log(unreduced(fig1, base_bg, sigma)[0])[1]  # type 1 compares whole slot sequences


def x0_power(full_shift2, thompson_x0, n):
    """The unreduced product of n copies of x0."""
    x0 = from_forest_pair(full_shift2, thompson_x0)
    power = x0
    for _ in range(n - 1):
        power = compose(power, x0)
    return power


def reduction_corpus(full_shift2, thompson_x0):
    """Unreduced products on random graphs 1-8 (f h, h^-1 f h, f f^-1, a
    ten-factor product and a chain of ten reduced powers) and x0^n."""
    for gs in range(1, 9):
        g, base = random_graph(GeneratorConfig(seed=gs))
        for e in range(6):
            growth = 2 + e % 5
            f = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=e, growth_steps=growth)))
            h = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=e + 500, growth_steps=growth)))
            yield compose(f, h)
            yield compose(compose(invert(h), f), h)
            yield compose(f, invert(f))
            product = f
            for k in range(9):
                product = compose(product, h if k % 2 else f)
            yield product
            power = f
            for _ in range(10):
                power = compose(power, f)
                yield power
                power = reduce(power)
    for n in (2, 3, 5, 8, 16, 33):
        yield x0_power(full_shift2, thompson_x0, n)


def test_reduce_matches_the_full_scan_reference(full_shift2, thompson_x0):
    """The worklist reducer against the full-scan reducer, in its canonical
    order and in three seeded random orders: the same normal form by
    canonical key, the same source and sink colours, and irreducible.  Which
    ids survive depends on the order of the type 2 rewrites, so ids are not
    compared."""

    def record(d):
        return canonical_key(d), d.domain(), d.range(), is_reduced(d)

    for i, d in enumerate(reduction_corpus(full_shift2, thompson_x0)):
        want = record(reduce_with_log(d)[0])
        assert want[3], i
        assert record(reference_reduce_with_log(d)[0]) == want, i
        for seed in range(3):
            assert record(reference_reduce_with_log(d, random.Random(seed))[0]) == want, (i, seed)


def renumbered_open(d, rng):
    """The same diagram with fresh, shuffled point and strand ids."""
    old = [*d.point_color, *d.strand_color]
    m = dict(zip(old, rng.sample(range(1000, 1000 + 10 * len(old)), len(old))))
    return StrandDiagram(
        {m[p]: v for p, v in d.point_color.items()},
        {m[s]: v for s, v in d.strand_color.items()},
        {m[s]: m[p] for s, p in d.strand_from.items()},
        {m[s]: m[p] for s, p in d.strand_to.items()},
        {m[p]: [m[s] for s in v] for p, v in d.in_slots.items()},
        {m[p]: [m[s] for s in v] for p, v in d.out_slots.items()},
        [m[p] for p in d.sources],
        [m[p] for p in d.sinks],
    )


def test_serializer_matches_the_reference_serializations(fig1, base_bg, full_shift2, thompson_x0):
    """The one serializer against the reference orders and records of
    `testkit`.  Open keys: on the reduction corpus and on random elements,
    their inverses, products and reduced forms, with id-renumbered and
    tuple-slot copies of each, two canonical keys are equal exactly when
    the reference forward-order keys are.  Closed keys: on fig1 and random
    closed diagrams and their semi-reduced forms, `closed_key` is the
    reference serialization from the base line, record for record.
    Components: the same as the reference breadth-first ones on those
    forms, their split-merge parts and their skeletons."""
    rng = random.Random(0)
    corpus = list(reduction_corpus(full_shift2, thompson_x0))
    graphs = [(fig1, base_bg)] + [random_graph(GeneratorConfig(seed=gs)) for gs in range(1, 9)]
    elements = []
    for g, base in graphs:
        for e in range(6):
            cfg = GeneratorConfig(seed=e, growth_steps=2 + e % 5)
            elements.append(from_forest_pair(g, random_element(g, base, cfg)))
    for f, h in zip(elements, elements[1:] + elements[:1]):
        corpus += [f, invert(f), reduce(f), compose(f, invert(f))]
        if f.range() == h.domain():
            corpus += [compose(f, h), product(reduce(f), reduce(h))]
    corpus += [reduce(d) for d in corpus]
    corpus += [renumbered_open(d, rng) for d in corpus] + [with_tuple_slots(d) for d in corpus]
    pairs = {(canonical_key(d), reference_canonical_key(d)) for d in corpus}
    keys, references = {k for k, _ in pairs}, {r for _, r in pairs}
    assert len(pairs) == len(keys) == len(references)
    assert len(corpus) > 4 * len(pairs) and len(pairs) > 500

    closed_forms = []
    for f in elements:
        c = close(f)
        closed_forms += [c, semi_reduce(c)[0]]
    for g, base in graphs[:1]:
        for seed in range(20):
            fp = random_element(g, base, GeneratorConfig(seed=seed, growth_steps=8 + seed % 3))
            c = close(from_forest_pair(g, fp))
            closed_forms += [c, semi_reduce(c)[0]]
    for c in closed_forms:
        order = _bidirectional_order(c, c.base_line)
        assert closed_key(c) == (_serialize(c, order, c.base_set), tuple(order[b] for b in c.base_line))
        part = decompose_parts(c)[0]
        for x in (c, part, skeleton(part)):
            assert components(x) == reference_components(x)


class _CountingDict(dict):
    reads = 0

    def __getitem__(self, key):
        _CountingDict.reads += 1
        return dict.__getitem__(self, key)


class _CountingBuilder(diagrams._Builder):
    """A working copy whose out-slot table counts its reads."""

    __slots__ = ()

    def __init__(self, d=None):
        super().__init__(d)
        self.out_slots = _CountingDict(self.out_slots)


def test_reduce_does_linear_work_on_x0_powers(full_shift2, thompson_x0, monkeypatch):
    """The work is counted as reads of the working copy's out-slot table: a
    few per point the redex predicate examines or a rewrite touches.  No
    breadth-first order is built."""

    def forbidden(*args):
        raise AssertionError("the per-redex BFS ran")

    powers = {n: x0_power(full_shift2, thompson_x0, n) for n in (64, 128)}
    monkeypatch.setattr(diagrams, "_least_serialization", forbidden)
    monkeypatch.setattr(diagrams, "_Builder", _CountingBuilder)
    reads = {}
    for n, power in powers.items():
        _CountingDict.reads = 0
        red, log = reduce_with_log(power)
        reads[n] = _CountingDict.reads
        assert 2 in log and len(red.point_color) < 4 * n
    assert 0 < reads[128] <= 2.2 * reads[64], reads


def test_product_is_the_reduced_composite(full_shift2, thompson_x0):
    """On reduced factors (random elements, their inverses, f f^-1, reduced
    products and the identity), product(a, b) has the tables of
    reduce(compose(a, b)), ids and table order included.  The composite is
    built as a StrandDiagram, so its structure is checked too."""
    pairs = 0
    for gs in range(1, 21):
        g, base = random_graph(GeneratorConfig(seed=gs))
        elements = [
            reduce(from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=e, growth_steps=2 + e % 4))))
            for e in range(4)
        ]
        factors = [identity_diagram(base)] + elements + [invert(f) for f in elements]
        factors += [reduce(compose(elements[0], invert(elements[0]))), reduce(compose(elements[1], elements[2]))]
        for a in factors:
            for b in factors:
                assert table_record(product(a, b)) == table_record(reduce(compose(a, b))), (gs, pairs)
                pairs += 1
    x0 = reduce(from_forest_pair(full_shift2, thompson_x0))
    for a, b in ((x0, x0), (x0, invert(x0)), (invert(x0), x0)):
        assert table_record(product(a, b)) == table_record(reduce(compose(a, b)))
    assert pairs == 20 * 11 * 11


def test_product_scans_the_seam_and_builds_one_diagram(full_shift2, thompson_x0, monkeypatch):
    x0 = reduce(from_forest_pair(full_shift2, thompson_x0))
    square = x0
    for _ in range(5):
        square = product(square, square)
    expected = canonical_key(reduce(x0_power(full_shift2, thompson_x0, 33)))
    checked = []
    real = diagrams._check_structure
    monkeypatch.setattr(diagrams, "find_redexes", lambda *args: pytest.fail("the full redex scan ran"))
    monkeypatch.setattr(diagrams, "_check_structure", lambda d: checked.append(d) or real(d))
    result = product(square, x0)
    assert checked == [result] and canonical_key(result) == expected


POWER_EXPONENTS = list(range(-9, 18)) + [31, 32, 33, 64, 100]


def product_chain(d, n):
    """d^n as the chain of built products that `power` runs in place:
    right-to-left binary exponentiation, the first set bit adopting the
    square."""
    d = reduce(d)
    result, square = None, d if n >= 0 else invert(d)
    k = abs(n)
    while k:
        if k & 1:
            result = square if result is None else product(result, square)
        k >>= 1
        if k:
            square = product(square, square)
    return identity_diagram(d.domain()) if result is None else result


def power_inputs(fig1, sigma, full_shift2, thompson_x0):
    g, base = parse_graph((FIXTURES / "houghton2.graph").read_text())
    yield from_forest_pair(g, parse_element((FIXTURES / "houghton2_t.elem").read_text(), g, base))
    yield from_forest_pair(fig1, sigma)
    yield from_forest_pair(full_shift2, thompson_x0)
    for gs in range(1, 7):
        g, base = random_graph(GeneratorConfig(seed=gs))
        for e in range(3):
            yield from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=e, growth_steps=2 + e)))


def test_power_is_the_product_chain(fig1, sigma, full_shift2, thompson_x0):
    """On the fixtures and random elements, unreduced as built, power(d, n)
    has the tables (items in order), ids, sources and sinks of the chain of
    built products, and leaves d as it was."""
    cases = 0
    for i, d in enumerate(power_inputs(fig1, sigma, full_shift2, thompson_x0)):
        before = snapshot(d), d.sources, d.sinks
        for n in POWER_EXPONENTS:
            assert table_record(power(d, n)) == table_record(product_chain(d, n)), (i, n)
            cases += 1
        assert (snapshot(d), d.sources, d.sinks) == before, i
    assert cases == 21 * len(POWER_EXPONENTS)


def test_power_builds_and_checks_one_diagram(fig1, sigma, full_shift2, thompson_x0, monkeypatch):
    inputs = [reduce(d) for d in power_inputs(fig1, sigma, full_shift2, thompson_x0)]
    checked = []
    real = diagrams._check_structure
    monkeypatch.setattr(diagrams, "_check_structure", lambda d: checked.append(d) or real(d))
    for d in inputs:
        for n in (0, 1, -1, 2, 3, -7, 32, 33, -100):
            checked.clear()
            result = power(d, n)
            assert checked == [result], n


def test_build_refuses_bad_end_points():
    """A chain of two strands 0 -> 1 -> 3 and a point 5 on its own."""
    tables = ({0: "v", 1: "v", 3: "v", 5: "v"}, {2: "v", 4: "v"}, {2: 0, 4: 1}, {2: 1, 4: 3})
    slots = ({0: [], 1: [2], 3: [4], 5: []}, {0: [2], 1: [4], 3: [], 5: []})
    StrandDiagram(*tables, *slots, [0, 5], [3])
    for sources, sinks, fault in (
        ([0], [6], "sink 6 broken"),  # not a point
        ([1], [3], "source 1 broken"),  # has an in-strand
        ([0, 5], [3, 5], "repeated end point"),  # 5 is a source and a sink
    ):
        with pytest.raises(AssertionError, match=fault):
            StrandDiagram(*tables, *slots, sources, sinks)
