import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strandshift import closed
from strandshift.closed import close
from strandshift.diagrams import (
    compose,
    equal,
    from_forest_pair,
    identity_diagram,
    invert,
    reduce,
)
from strandshift.forest import expand_regular, validate_forest_pair
from strandshift.graphs import validate_graph
from strandshift.testkit import (
    GeneratorConfig,
    brute_conjugate,
    compose_pairs,
    enumerate_forests,
    identity_pair,
    invert_pair,
    random_element,
    random_graph,
    semantic_equal,
    validate_strand_diagram,
)


def test_semantic_equal_expansion_invariant(fig1, base_bg, sigma):
    expanded = expand_regular(fig1, sigma, 2)
    assert semantic_equal(fig1, sigma, expanded, depth=4)


def test_semantic_equal_detects_sigma(fig1, base_bg, sigma):
    assert not semantic_equal(fig1, sigma, identity_pair(fig1, base_bg), depth=3)


def test_semantic_equal_inverse_product(fig1, base_bg, sigma):
    prod = compose_pairs(fig1, sigma, invert_pair(sigma))
    assert semantic_equal(fig1, prod, identity_pair(fig1, base_bg), depth=5)


def test_semantic_equal_depth_precondition(fig1, base_bg, sigma):
    with pytest.raises(ValueError):
        semantic_equal(fig1, sigma, identity_pair(fig1, base_bg), depth=0)


def test_random_element_deterministic_and_valid(fig1, base_bg):
    a = random_element(fig1, base_bg, GeneratorConfig(seed=42))
    b = random_element(fig1, base_bg, GeneratorConfig(seed=42))
    assert a == b
    for seed in range(50):
        fp = random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=3))
        validate_forest_pair(fig1, fp)
        d = reduce(from_forest_pair(fig1, fp))
        assert validate_strand_diagram(d, fig1) == []


def test_enumerate_forests_counts(fig1, base_bg):
    forests = enumerate_forests(fig1, base_bg, 1)
    # trivial forest plus one expansion at either root
    assert len(forests) == 3


def test_brute_conjugate_finds_identity(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    h = brute_conjugate(fig1, d, d, size_bound=0)
    assert h is not None
    assert equal(compose(compose(h, d), invert(h)), d)


def test_brute_conjugate_finds_planted(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    planted = from_forest_pair(
        fig1, random_element(fig1, base_bg, GeneratorConfig(seed=5, growth_steps=1))
    )
    g = reduce(compose(compose(planted, d), invert(planted)))
    h = brute_conjugate(fig1, d, g, size_bound=1)
    assert h is not None
    assert equal(compose(compose(h, g), invert(h)), d)


def test_brute_conjugate_bounded_no(fig1, base_bg, sigma):
    d = from_forest_pair(fig1, sigma)
    assert brute_conjugate(fig1, identity_diagram(base_bg), d, size_bound=1) is None


def test_brute_conjugate_agrees_with_pipeline(fig1, base_bg):
    from strandshift.conjugacy import is_conjugate

    for seed in range(6):
        f = from_forest_pair(
            fig1, random_element(fig1, base_bg, GeneratorConfig(seed=seed, growth_steps=1))
        )
        g = from_forest_pair(
            fig1, random_element(fig1, base_bg, GeneratorConfig(seed=seed + 60, growth_steps=1))
        )
        h = brute_conjugate(fig1, f, g, size_bound=1)
        if h is not None:
            assert is_conjugate(f, g, fig1).conjugate


def test_random_graph_normalized(fig1):
    for seed in range(30):
        g, base = random_graph(GeneratorConfig(seed=seed, max_vertices=5))
        assert validate_graph(g) == []
        assert base and all(y in g.vertices for y in base)


def test_semantic_grounding_on_random_graphs():
    from strandshift.diagrams import equal as diagram_equal

    for gseed in range(5):
        g, base = random_graph(GeneratorConfig(seed=gseed, max_vertices=4))
        for seed in range(40):
            f = random_element(g, base, GeneratorConfig(seed=seed, growth_steps=2))
            other = random_element(g, base, GeneratorConfig(seed=seed + 800, growth_steps=2))
            depth = max(len(w.edges) for w in f.domain_leaves + other.domain_leaves)
            assert diagram_equal(
                from_forest_pair(g, f), from_forest_pair(g, other)
            ) == semantic_equal(g, f, other, depth=depth)


def test_semantic_equal_respects_isolated_points(fig1, base_bg):
    # over an isolated color, deeper range words pin the same point: the
    # element sending the isolated cylinder one loop-step deeper is trivial
    from strandshift.forest import ForestPair
    from strandshift.graphs import PathWord
    from strandshift.diagrams import identity_diagram

    fp = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1)),
        (PathWord(0, ("1",)), PathWord(0, ("2", "0")), PathWord(1)),
        base_bg,
    )
    assert semantic_equal(fig1, fp, identity_pair(fig1, base_bg), depth=3)
    assert equal(from_forest_pair(fig1, fp), identity_diagram(base_bg))
    # and a genuinely deeper map on a branching color is still caught
    swap = ForestPair(
        (PathWord(0, ("1",)), PathWord(0, ("2",)), PathWord(1)),
        (PathWord(1), PathWord(0, ("2",)), PathWord(0, ("1",))),
        base_bg,
    )
    assert not semantic_equal(fig1, swap, identity_pair(fig1, base_bg), depth=3)


SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_testkit():
    """The command line runs without the oracles: importing it in a fresh
    interpreter loads no `strandshift.testkit`."""
    code = "import sys, strandshift.cli; print(sorted(m for m in sys.modules if m.startswith('strandshift')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    loaded = ast.literal_eval(proc.stdout)
    assert "strandshift.cli" in loaded and "strandshift.testkit" not in loaded


def test_no_pipeline_module_imports_testkit():
    """No module but `testkit` itself imports `testkit`, not even inside a
    function."""
    pipeline = [p for p in (SRC / "strandshift").glob("*.py") if p.name != "testkit.py"]
    assert len(pipeline) >= 10
    for path in pipeline:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
        assert not any("testkit" in name.split(".") for name in imported), path.name


def test_the_benchmark_tracer_finds_every_name_it_pins(fig1, base_bg, monkeypatch):
    """bench/tracer.py wraps pipeline functions by module attribute and calls
    `semi_reduce` with keywords that it ignores, so renaming either breaks
    the benchmark.  Every (module, attribute) in its NESTED and COUNTED
    resolves to a function, and its Step 1 call and probe still run: the
    keywords change no move, and a second call finds nothing to unlock."""
    path = SRC.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    pinned = tracer.NESTED + tracer.COUNTED
    assert len(pinned) >= 7
    for mod, attr, _ in pinned:
        assert callable(getattr(mod, attr, None)), (mod.__name__, attr)
    c = close(from_forest_pair(fig1, random_element(fig1, base_bg, GeneratorConfig(seed=168, growth_steps=8))))
    semi, moves = closed.semi_reduce(c, budget=2, rng=None, probe=False)
    assert moves and moves == closed.semi_reduce(c)[1]
    assert closed.semi_reduce(semi, budget=3, rng=None, probe=False)[1] == []
