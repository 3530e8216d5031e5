import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandshift import cli, closed, conjugacy, testkit
from strandshift.cli import build_parser, main
from strandshift.diagrams import (
    canonical_key,
    compose,
    from_forest_pair,
    identity_diagram,
    invert,
    product,
    reduce,
    to_forest_pair,
)
from strandshift.dot import diagram_dot
from strandshift.graphs import PathWord
from strandshift.testkit import GeneratorConfig, identity_pair, random_element, random_graph
from strandshift.textio import (
    _PUNCT,
    _Tokens,
    format_element,
    format_graph,
    format_loops,
    parse_element,
    parse_graph,
    parse_loops,
)
from strandshift.errors import ParseError

FIG1 = """
graph
  vertex R; vertex B; vertex G
  edge 0: R -> R; edge 1: B -> G; edge 2: B -> R; edge 3: G -> G; edge 4: G -> B
  order R: [0]; order B: [1, 2]; order G: [3, 4]
base [B, G]
"""

SIGMA = """
element
  domain [B.1, B.2, G.3, G.4]
  range  [G.3, G.4.2, G.4.1, B]
"""

IDENTITY = """
element
  domain [B, G]
  range  [B, G]
"""

DEAD_END = """
graph
  vertex ok; vertex s; vertex u
  edge l1: ok -> ok; edge l2: ok -> ok; edge e: ok -> s; edge f: u -> ok
  order ok: [l1, l2, e]; order s: []; order u: [f]
base [ok, u]
"""

REDUNDANT_EDGE = """
graph
  vertex R; vertex B
  edge rr: R -> R; edge rb: R -> B; edge br: B -> R
  order R: [rr, rb]; order B: [br]
base [R]
"""

NONCONFLUENT_LEFT = """
graph
  vertex R; vertex B
  edge rb: R -> B; edge rr: R -> R; edge br: B -> R; edge bb: B -> B
  order R: [rb, rr]; order B: [br, bb]
base [R, B]
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("fig1.graph", FIG1),
        ("sigma.elem", SIGMA),
        ("identity.elem", IDENTITY),
        ("dead_end.graph", DEAD_END),
        ("redundant.graph", REDUNDANT_EDGE),
        ("left.graph", NONCONFLUENT_LEFT),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_round_trips():
    g, base = parse_graph(FIG1)
    assert parse_graph(format_graph(g, base)) == (g, base)
    fp = parse_element(SIGMA, g, base)
    assert parse_element(format_element(fp), g, base) == fp
    loops = parse_loops("L(R,1)+2*L(B,2)", g.vertices)
    assert loops == {("R", 1): 1, ("B", 2): 2}
    assert parse_loops(format_loops(loops), g.vertices) == loops


def test_parse_element_repeated_roots():
    g, _ = parse_graph(FIG1)
    base = ("B", "B")
    fp = parse_element("element domain [B#1, B#2] range [B#2, B#1]", g, base)
    assert fp.domain_leaves == (PathWord(0), PathWord(1))
    assert fp.range_leaves == (PathWord(1), PathWord(0))
    with pytest.raises(ParseError, match="disambiguate"):
        parse_element("element domain [B, B#2] range [B#2, B]", g, base)
    assert parse_element(format_element(fp), g, base) == fp


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_graph("")
    assert exc.value.line == 1
    g, base = parse_graph(FIG1)
    with pytest.raises(ParseError) as exc:
        parse_element("element\n  domain [B.3]\n  range [B.3]", g, base)
    assert exc.value.line == 2
    # a color-breaking pairing is rejected with the offending leaf index
    with pytest.raises(ParseError, match="leaf 0"):
        parse_element(
            "element domain [B.1, B.2, G] range [B.2, B.1, G]", g, base
        )


_ONE_LOOP = "graph vertex R; edge 0: R -> R; order R: [0]; "


@pytest.mark.parametrize(
    "text, message, where",
    [
        # a repeated statement fails at its own keyword
        (_ONE_LOOP + "base [R]; base [R, R]", "base given twice", (1, 57)),
        (_ONE_LOOP + "\n  order R: [0]; base [R]", "order for R given twice", (2, 3)),
        ("graph vertex R; edge 0: R -> R; edge 0: R -> R", "edge 0 defined twice", (1, 33)),
        # faults found after the statement loop point at their statement
        (_ONE_LOOP + "order Q: [0]; base [R]", "out_order mentions unknown vertices", (1, 47)),
        ("graph vertex R; vertex R; edge 0: R -> R; order R: [0]; base [R]", "duplicate vertex ids", (1, 17)),
        (_ONE_LOOP + "base [R, Q]", "base entry Q is not a vertex", (1, 56)),
        ("graph vertex R\n vertex B; edge 0: R -> R; order R: [0]; base [R]", "order line for vertex B", (2, 2)),
        (_ONE_LOOP + "\n  edge 1: R -> Q; base [R]", "edge 1: endpoint not a vertex", (2, 3)),
    ],
)
def test_graph_faults_point_at_their_statement(text, message, where):
    with pytest.raises(ParseError, match=message) as exc:
        parse_graph(text)
    assert (exc.value.line, exc.value.column) == where


_SCANNER_PIECES = [*_PUNCT, "a", "Z", "7", "_", "\u00e9", " ", "\t", "\n", "\r", "$"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SCANNER_PIECES), max_size=40).map("".join))
def test_scanner_positions(text):
    """Tokens sit at the line and column the scanner gives them (lines end
    at "\n" only) and cover every non-space character in order; a stray
    character fails at its own position."""
    if "$" in text:
        i = text.index("$")
        line = text.count("\n", 0, i) + 1
        with pytest.raises(ParseError, match="unexpected character '\\$'") as exc:
            _Tokens(text)
        assert (exc.value.line, exc.value.column) == (line, i - text.rfind("\n", 0, i))
        return
    ts = _Tokens(text)
    assert ts.toks[-1] is None
    toks = [(tok, *ts.where(i)) for i, tok in enumerate(ts.toks[:-1])]
    lines = text.split("\n")
    for tok, line, col in toks:
        assert lines[line - 1][col - 1 : col - 1 + len(tok)] == tok
    assert [(line, col) for _, line, col in toks] == sorted((line, col) for _, line, col in toks)
    assert "".join(tok for tok, _, _ in toks) == "".join(text.split())


def test_non_numeric_occurrence_fails_at_its_token(files, tmp_path, capsys):
    g, base = parse_graph(FIG1)
    for text in ("element\n  domain [B#x, G]\n  range [B, G]", "element\n  domain [B#1x, G]\n  range [B, G]"):
        with pytest.raises(ParseError, match="occurrence must be a positive integer") as exc:
            parse_element(text, g, base)
        assert (exc.value.line, exc.value.column) == (2, 13)
    elem = tmp_path / "bad.elem"
    elem.write_text("element domain [B#x, G] range [B, G]")
    code, out, err = run(capsys, ["reduce", "--graph", files["fig1.graph"], "--elem", str(elem)])
    assert (code, out) == (1, "")
    assert err == "error: 1:19: occurrence must be a positive integer\n"


@pytest.mark.parametrize(
    "base, text, message, where",
    [
        (("B", "G"), "element\n  domain [B.1, R]\n  range [B.1, B.2]", "R is not an entry of the base", (2, 16)),
        (("B", "B"), "element domain [B#1, B] range [B#2, B#1]", "base repeats B; disambiguate", (1, 22)),
        (("B", "B"), "element domain [B#1, B#3] range [B#2, B#1]", "B#3: only 2 occurrence", (1, 24)),
        (("B", "G"), "element domain [B.1, B.9] range [B.1, B.2]", "edge 9 does not continue a path at B", (1, 24)),
        (("B", "G"), "element domain [B.1, B.2.0, G]\n range [B.1, B.2.0.3, G]", "edge 3 does not continue a path at R", (2, 20)),
    ],
    ids=["root", "repeated-base", "occurrence", "edge", "edge-on-line-2"],
)
def test_word_faults_point_at_their_token(base, text, message, where):
    g, _ = parse_graph(FIG1)
    with pytest.raises(ParseError, match=message) as exc:
        parse_element(text, g, base)
    assert (exc.value.line, exc.value.column) == where


def test_incomplete_forest_fault_is_the_same_under_every_hash_seed(tmp_path):
    """The missing child named is the first in leaf order, not the first a
    set of words happens to yield under the interpreter's hash seed."""
    root = Path(__file__).resolve().parents[1]
    elem = tmp_path / "incomplete.elem"
    elem.write_text("element domain [B.1.3, G.3, G.4] range [B.1.3, G.3, G.4]\n")
    graph = root / "fixtures" / "three_color.graph"
    argv = [sys.executable, "-m", "strandshift.cli", "reduce", "--graph", str(graph), "--elem", str(elem)]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    errs = []
    for seed in ("1", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert errs[0] == "error: 1:17: domain forest incomplete below B.1: missing child B.1.4\n"


@pytest.mark.parametrize(
    "base, text, message, where",
    [
        (("B", "G"), "element\n  domain [B.1, B.1, B.2, G]\n  range [B.1, B.2, G.3, G.4]", "domain leaf B.1 repeated", (2, 16)),
        (("B", "G"), "element domain [B.1, B.2, G.3, G.4]\n  range [B.1.3, B.1, B.2, G]", "range leaves are not an antichain at B.1.3", (2, 10)),
        (("B", "G"), "element domain [B.1, B.2, G.3, G.4]\n  range [B.1, B.2.0, G.3.3, G.3.4]", "range forest incomplete below G: missing child G.4", (2, 22)),
        (("B", "B"), "element domain [B#1.1, B#1.2, B#2] range [B#1, B#2.1.3, B#2.2]", "range forest incomplete below B#2.1: missing child B#2.1.4", (1, 48)),
        (("B", "G"), "element domain [B.1, B.2, G]\n  range [B.2, B.1, G]", "not color-preserving at leaf 0: G vs R", (2, 10)),
    ],
    ids=["repeated", "antichain", "incomplete", "incomplete-repeated-base", "colour"],
)
def test_forest_faults_point_at_their_leaf(base, text, message, where):
    """A fault of the forest check is reported at the first token of the leaf
    it concerns, with words named as written."""
    g, _ = parse_graph(FIG1)
    with pytest.raises(ParseError, match=message) as exc:
        parse_element(text, g, base)
    assert (exc.value.line, exc.value.column) == where


def test_check_graph(files, capsys):
    code, out, _ = run(capsys, ["check-graph", "--graph", files["fig1.graph"]])
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, ["check-graph", "--graph", files["dead_end.graph"], "--fix"])
    assert code == 0
    assert "dead-end" in out and "redundant-edge" in out and "normalized:" in out


def test_check_graph_json(files, capsys):
    code, out, _ = run(capsys, ["--json", "check-graph", "--graph", files["fig1.graph"]])
    rec = json.loads(out)
    assert rec["valid"] is True and rec["schema_version"] == 1
    code, out2, _ = run(capsys, ["--json", "check-graph", "--graph", files["fig1.graph"]])
    assert out == out2  # byte-stable across runs


def test_eq_command(files, capsys):
    code, out, _ = run(
        capsys,
        ["eq", "--graph", files["fig1.graph"], "--lhs", files["sigma.elem"], "--rhs", files["sigma.elem"]],
    )
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(
        capsys,
        ["eq", "--graph", files["fig1.graph"], "--lhs", files["sigma.elem"], "--rhs", files["identity.elem"]],
    )
    assert code == 0 and out.strip() == "not equal"


def test_compose_invert_power(files, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["invert", "--graph", files["fig1.graph"], "--elem", files["sigma.elem"]],
    )
    assert code == 0 and out.startswith("element")
    inv = tmp_path / "sigma_inv.elem"
    inv.write_text(out)
    code, out, _ = run(
        capsys,
        ["compose", "--graph", files["fig1.graph"], "--lhs", files["sigma.elem"], "--rhs", str(inv)],
    )
    assert code == 0
    composed = tmp_path / "prod.elem"
    composed.write_text(out)
    code, out, _ = run(
        capsys,
        ["eq", "--graph", files["fig1.graph"], "--lhs", str(composed), "--rhs", files["identity.elem"]],
    )
    assert out.strip() == "equal"
    # the element has order six
    code, out, _ = run(
        capsys,
        ["power", "--graph", files["fig1.graph"], "--elem", files["sigma.elem"], "-n", "6"],
    )
    p6 = tmp_path / "p6.elem"
    p6.write_text(out)
    code, out, _ = run(
        capsys,
        ["eq", "--graph", files["fig1.graph"], "--lhs", str(p6), "--rhs", files["identity.elem"]],
    )
    assert out.strip() == "equal"


def test_conj_command(files, tmp_path, capsys):
    # conjugate of the worked element by its own square
    code, out, _ = run(
        capsys,
        ["power", "--graph", files["fig1.graph"], "--elem", files["sigma.elem"], "-n", "2"],
    )
    h = tmp_path / "h.elem"
    h.write_text(out)
    code, out, _ = run(
        capsys,
        [
            "--json",
            "conj",
            "--graph",
            files["fig1.graph"],
            "--lhs",
            files["sigma.elem"],
            "--rhs",
            files["sigma.elem"],
            "--witness",
        ],
    )
    rec = json.loads(out)
    assert code == 0 and rec["verdict"] == "conjugate"
    assert rec["witness_available"] is True
    assert set(rec) >= {"verdict", "step_failed", "semi_reduced_sizes", "loop_multisets", "witness_available"}

    code, out, _ = run(
        capsys,
        [
            "conj",
            "--graph",
            files["fig1.graph"],
            "--lhs",
            files["identity.elem"],
            "--rhs",
            files["sigma.elem"],
        ],
    )
    assert code == 0 and "not-conjugate" in out


def test_conj_budget_is_accepted_and_ignored(files, capsys):
    argv = ["--json", "conj", "--graph", files["fig1.graph"], "--lhs", files["sigma.elem"]]
    argv += ["--rhs", files["sigma.elem"], "--witness"]
    plain = run(capsys, argv)
    assert plain[0] == 0 and json.loads(plain[1])["verdict"] == "conjugate"
    assert run(capsys, argv + ["--budget", "1"]) == plain


def test_semigroup_eq_command(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "semigroup-eq",
            "--graph",
            files["left.graph"],
            "--lhs",
            "L(R,1)",
            "--rhs",
            "L(B,1)",
            "--explain",
            "--semigroup-cap",
            "12",
        ],
    )
    assert code == 0
    assert out.startswith("equal in stage 1")
    assert "bfs oracle (cap 12): equal" in out
    assert "L(R,n)+L(B,n)=L(R,n)" in out
    code, out, _ = run(
        capsys,
        ["semigroup-eq", "--graph", files["fig1.graph"], "--lhs", "L(R,1)", "--rhs", "L(G,1)"],
    )
    assert code == 0 and out.startswith("not equal")


ISOLATED = """
graph
  vertex R; vertex B
  edge rr: R -> R; edge bb: B -> B
  order R: [rr]; order B: [bb]
base [R, B]
"""


def test_semigroup_eq_explain_prints_the_block_once(files, tmp_path, capsys):
    """--explain prints the block relations once, for every winding up to
    the stage, as text and as the report's `presentation`; a graph whose
    every vertex is a single self-loop has no relations and says so."""
    isolated = tmp_path / "isolated.graph"
    isolated.write_text(ISOLATED)
    block = "for every winding n from 1 to 3:\nL(R,n)+L(B,n)=L(R,n)\nL(R,n)+L(B,n)=L(B,n)"
    none = "no relations: every vertex's out-star is a single self-loop"
    for graph, lhs, rhs, verdict, dump in (
        (files["left.graph"], "L(R,3)+L(B,1)", "L(B,3)+L(R,1)", "equal in stage 3", block),
        (str(isolated), "L(R,2)", "L(B,2)", "not equal in stage 2", none),
    ):
        argv = ["semigroup-eq", "--graph", graph, "--lhs", lhs, "--rhs", rhs, "--explain"]
        assert run(capsys, argv) == (0, f"{verdict}\n{dump}\n", "")
        code, out, err = run(capsys, ["--json", *argv])
        assert (code, err) == (0, "")
        assert json.loads(out)["presentation"] == dump


@pytest.mark.parametrize("lhs, col", [("0*L(R,1)", 1), ("00*L(R,1)", 1), ("L(R,1)+0*L(B,1)", 8)])
def test_semigroup_eq_rejects_zero_multiplier(files, capsys, lhs, col):
    code, out, err = run(
        capsys,
        ["semigroup-eq", "--graph", files["left.graph"], "--lhs", lhs, "--rhs", "L(B,1)"],
    )
    assert code == 1
    assert out == ""
    assert f"1:{col}: multiplier must be a positive integer" in err


@pytest.mark.parametrize(
    "lhs, message",
    [
        ("L(R,\u00b2)", "1:5: winding must be a positive integer"),
        ("L(R,1)+\u2460*L(B,1)", "1:8: expected L(color,winding), found '\u2460'"),
    ],
)
def test_semigroup_eq_rejects_non_decimal_digits(files, capsys, lhs, message):
    # superscript two and circled one are digits to str.isdigit(), not decimals
    code, out, err = run(
        capsys,
        ["semigroup-eq", "--graph", files["left.graph"], "--lhs", lhs, "--rhs", "L(B,1)"],
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, text, where, what",
    [
        ("semigroup-eq", "{big}*L(R,1)", "1:1", "multiplier"),
        ("semigroup-eq", "L(R,{big})", "1:5", "winding"),
        ("reduce", "element domain [B#{big}, G] range [B, G]", "1:19", "occurrence"),
    ],
    ids=["multiplier", "winding", "occurrence"],
)
def test_an_integer_past_the_string_conversion_limit_fails_at_its_token(files, tmp_path, capsys, command, text, where, what):
    # Python converts strings of at most 4,300 digits to int by default
    text = text.format(big="1" * 5000)
    argv = [command, "--graph", files["fig1.graph"]]
    if command == "reduce":
        elem = tmp_path / "big.elem"
        elem.write_text(text)
        argv += ["--elem", str(elem)]
    else:
        argv += ["--lhs", text, "--rhs", "L(B,1)"]
    limit = sys.get_int_max_str_digits()
    message = f"error: {where}: {what} has 5000 digits; integers of at most {limit} digits are read\n"
    assert run(capsys, argv) == (1, "", message)


@pytest.mark.parametrize("limit, code, err", [
    (4300, 1, "error: 1:4309: count of L(B,1) has 4301 digits; at most 4300 are printed\n"),
    (0, 0, ""),
], ids=["default-limit", "no-limit"])
def test_a_loop_count_past_the_string_conversion_limit_fails_at_its_term(capsys, limit, code, err):
    """Two counts of 4,300 digits, Python's default limit, add up to 4,301
    digits, which the report could not print: the second term is refused at
    its position.  With the limit off (0) the sum is read and printed.  The
    CI workflow runs the same command at the default limit."""
    nines = "9" * 4300
    argv = ["semigroup-eq", "--graph", str(FIXTURES / "three_color.graph")]
    argv += ["--lhs", f"{nines}*L(B,1)+{nines}*L(B,1)", "--rhs", "L(B,1)"]
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        got, _, got_err = run(capsys, argv)
    finally:
        sys.set_int_max_str_digits(default)
    assert (got, got_err) == (code, err)


@pytest.mark.parametrize(
    "lhs, message",
    [
        ("L(X,1)", "1:3: X is not a vertex"),
        ("L(R,0)", "1:5: winding must be a positive integer"),
    ],
)
def test_semigroup_eq_reports_a_loop_error_at_its_token(files, capsys, lhs, message):
    code, out, err = run(
        capsys,
        ["semigroup-eq", "--graph", files["left.graph"], "--lhs", lhs, "--rhs", "L(B,1)"],
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_semigroup_eq_cap_below_input_degree(files, capsys, cap):
    # a cap of 0 is a cap like any other, not "no oracle"
    code, out, err = run(
        capsys,
        [
            "semigroup-eq",
            "--graph",
            files["left.graph"],
            "--lhs",
            "L(R,1)",
            "--rhs",
            "L(B,1)",
            "--semigroup-cap",
            cap,
        ],
    )
    assert (code, out) == (1, "")
    assert err == f"error: --semigroup-cap {cap}: cap below the degree of an input; the least cap is 1\n"


@pytest.mark.parametrize("lhs, rhs, cap, least", [("2*L(B,1)+L(G,2)", "L(R,1)", "2", 3), ("L(B,1)", "L(G,1)+L(R,1)", "-1", 2)])
def test_semigroup_eq_cap_below_input_degree_names_the_flag_and_least_cap(capsys, lhs, rhs, cap, least):
    """The least cap that --semigroup-cap accepts is the larger degree of
    the two inputs, and the error says so."""
    graph = str(FIXTURES / "three_color.graph")
    code, out, err = run(capsys, ["semigroup-eq", "--graph", graph, "--lhs", lhs, "--rhs", rhs, "--semigroup-cap", cap])
    message = f"--semigroup-cap {cap}: cap below the degree of an input; the least cap is {least}"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_export_dot(files, tmp_path, capsys):
    out_path = tmp_path / "sigma.dot"
    code, out, _ = run(
        capsys,
        [
            "export-dot",
            "--graph",
            files["fig1.graph"],
            "--elem",
            files["sigma.elem"],
            "--dot",
            str(out_path),
        ],
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph") and "->" in text
    code, _, _ = run(
        capsys,
        [
            "export-dot",
            "--graph",
            files["fig1.graph"],
            "--elem",
            files["sigma.elem"],
            "--dot",
            str(out_path),
            "--closed",
        ],
    )
    assert code == 0
    assert "dashed" in out_path.read_text()


def test_invalid_input_exit_code(files, tmp_path, capsys):
    empty = tmp_path / "empty.elem"
    empty.write_text("")
    code, _, err = run(
        capsys,
        ["reduce", "--graph", files["fig1.graph"], "--elem", str(empty)],
    )
    assert code == 1 and "error" in err


def test_conj_json_schema(files, capsys):
    argv = ["--json", "conj", "--graph", files["fig1.graph"], "--lhs", files["sigma.elem"]]
    code, out, _ = run(capsys, argv + ["--rhs", files["identity.elem"]])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == [
        "command",
        "loop_multisets",
        "reason",
        "schema_version",
        "semi_reduced_sizes",
        "step_failed",
        "steps",
        "verdict",
        "witness_available",
    ]
    assert report["schema_version"] == 1 and report["verdict"] == "not-conjugate"


def test_conj_reports_no_witness_when_its_check_fails(files, capsys, monkeypatch):
    """The witness's one check, h g h^-1 = f, failing (forced here) leaves
    the verdict standing with no witness."""
    monkeypatch.setattr(conjugacy, "equal", lambda a, b: False)
    argv = ["--json", "conj", "--graph", files["fig1.graph"], "--lhs", files["sigma.elem"]]
    code, out, err = run(capsys, argv + ["--rhs", files["sigma.elem"], "--witness"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "conjugate" and report["witness_available"] is False and "witness" not in report


@pytest.mark.parametrize(
    "graph, leaves, loop, violation",
    [
        ("dead_end.graph", "ok, u", "L(ok,1)", "dead-end at vertex s: out-degree 0"),
        ("redundant.graph", "R", "L(R,1)", "redundant-edge at vertex B: single outgoing edge br is not a self-loop"),
    ],
    ids=["dead-end", "redundant-edge"],
)
@pytest.mark.parametrize("command", ["eq", "conj", "semigroup-eq", "reduce"])
def test_commands_refuse_a_graph_that_breaks_the_shift_assumptions(
    files, tmp_path, capsys, graph, leaves, loop, violation, command
):
    """Only check-graph and normalize take such a graph; every other command
    exits 1 with its first violation, where it would otherwise answer."""
    elem = tmp_path / "identity.elem"
    elem.write_text(f"element domain [{leaves}] range [{leaves}]\n")
    args = {
        "reduce": ["--elem", str(elem)],
        "semigroup-eq": ["--lhs", loop, "--rhs", loop],
    }.get(command, ["--lhs", str(elem), "--rhs", str(elem)])
    code, out, err = run(capsys, [command, "--graph", files[graph], *args])
    assert (code, out, err) == (1, "", f"error: {violation}\n")


def test_power_negative_exponent(files, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["power", "--graph", files["fig1.graph"], "--elem", files["sigma.elem"], "-n", "-1"],
    )
    assert code == 0
    inv = tmp_path / "inv.elem"
    inv.write_text(out)
    code, out, _ = run(
        capsys,
        ["compose", "--graph", files["fig1.graph"], "--lhs", files["sigma.elem"], "--rhs", str(inv)],
    )
    prod = tmp_path / "prod2.elem"
    prod.write_text(out)
    code, out, _ = run(
        capsys,
        ["eq", "--graph", files["fig1.graph"], "--lhs", str(prod), "--rhs", files["identity.elem"]],
    )
    assert out.strip() == "equal"


def test_main_reuses_one_parser_across_calls(files, capsys, monkeypatch):
    fig1, sigma = files["fig1.graph"], files["sigma.elem"]
    sequence = [
        ["--json", "conj", "--graph", fig1, "--lhs", sigma, "--rhs", sigma, "--witness"],
        ["conj", "--graph", fig1, "--lhs", files["identity.elem"], "--rhs", sigma],
        ["semigroup-eq", "--graph", files["left.graph"], "--lhs", "L(R,1)", "--rhs", "L(B,1)", "--explain"],
    ]
    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(capsys, argv))
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [run(capsys, argv) for argv in sequence + sequence[:1]]
    assert reused == fresh + fresh[:1]
    assert len(built) == 1
    parser = built[0]
    assert fresh[0][1].startswith("{") and '"witness"' in fresh[0][1]
    assert fresh[1][1].startswith("verdict: not-conjugate")
    assert "L(R,n)+L(B,n)=L(R,n)" in fresh[2][1]
    for argv in sequence:  # no flag of an earlier call leaks into a later one
        assert vars(parser.parse_args(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conj", "--graph", "fixtures/three_color.graph"], "conj: error: the following arguments are required: --lhs, --rhs"),
        (["conj", "--graph", "fixtures/three_color.graph", "--lhs", "x.elem"], "conj: error: the following arguments are required: --rhs"),
        (["frobnicate", "--graph", "fixtures/three_color.graph"], "error: argument command: invalid choice: 'frobnicate'"),
        ([], "error: the following arguments are required: command"),
        (["power", "--graph", "g", "--elem", "e", "-n", "two"], "power: error: argument -n: invalid int value: 'two'"),
        (
            ["--seed", "1", "conj", "--graph", "fixtures/three_color.graph", "--lhs", "x.elem", "--rhs", "x.elem"],
            "strandshift: error: unrecognized arguments: --seed",
        ),
        (["--bogus", "conj", "--graph", "fixtures/three_color.graph"], "strandshift: error: unrecognized arguments: --bogus"),
    ],
    ids=["missing-lhs-rhs", "missing-rhs", "unknown-subcommand", "no-subcommand", "bad-int", "seed-flag", "unknown-flag"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 means a named limit was hit; a usage error is invalid input
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: strandshift") and message in err.splitlines()[-1]


@pytest.mark.parametrize("argv", [["--help"], ["conj", "--help"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: strandshift")


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# stdout and the SHA-256 prefix of the DOT file on fixtures/three_color.graph,
# recorded while `_element_out` still reduced a second time for the DOT file,
# and the reductions, each `reduce` or reduced `product` one: `power -n 3`
# reduces its input and takes two products, whose result is already reduced;
# its first set bit adopts the square f itself.
ELEMENT_DOT_OUTPUT = [
    pytest.param(
        ["reduce", "--elem", "sigma.elem"], 1,
        "element\n  domain [B.1, B.2, G.3, G.4]\n  range  [G.3, G.4.2, G.4.1, B]\n", "88f91349bde9c28d",
        id="reduce-sigma",
    ),
    pytest.param(
        ["reduce", "--elem", "identity.elem"], 1,
        "element\n  domain [B, G]\n  range  [B, G]\n", "767d4351e39c8e12",
        id="reduce-identity",
    ),
    pytest.param(
        ["compose", "--lhs", "sigma.elem", "--rhs", "sigma.elem"], 1,
        "element\n  domain [B.1, B.2, G.3, G.4.1, G.4.2]\n  range  [G.4.1, B.2, B.1, G.3, G.4.2]\n",
        "8f67e2b55e66215c",
        id="compose-sigma-sigma",
    ),
    pytest.param(
        ["power", "--elem", "sigma.elem", "-n", "3"], 1 + 2,
        "element\n  domain [B.1, B.2, G.3, G.4.1, G.4.2]\n  range  [B.1, G.4.2, G.3, G.4.1, B.2]\n",
        "9f2647d2b6265f48",
        id="power-sigma-3",
    ),
]


@pytest.mark.parametrize("args, reductions, stdout, dot_digest", ELEMENT_DOT_OUTPUT)
def test_dot_output_reuses_the_reduction(args, reductions, stdout, dot_digest, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "reduce", lambda d: calls.append(d) or reduce(d))
    monkeypatch.setattr(cli, "product", lambda a, b: calls.append((a, b)) or product(a, b))
    dot = tmp_path / "out.dot"
    argv = [args[0], "--graph", str(FIXTURES / "three_color.graph")]
    argv += [str(FIXTURES / a) if a.endswith(".elem") else a for a in args[1:]]
    code, out, _ = run(capsys, argv + ["--dot", str(dot)])
    assert code == 0 and out == stdout
    assert hashlib.sha256(dot.read_bytes()).hexdigest()[:16] == dot_digest
    assert len(calls) == reductions


def test_conj_former_false_negative_is_conjugate(capsys):
    """graph3-e9: random graph 3, element seed 9 and its conjugate by element
    seed 509, which the budget-2 similarity search called "not conjugate".
    The CI workflow runs the same command."""
    argv = ["conj", "--graph", str(FIXTURES / "graph3.graph"), "--lhs", str(FIXTURES / "graph3_e9.elem")]
    argv += ["--rhs", str(FIXTURES / "graph3_e9_conj509.elem"), "--witness"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out.startswith("verdict: conjugate\n")
    g, base = parse_graph((FIXTURES / "graph3.graph").read_text())
    texts = [(FIXTURES / name).read_text() for name in ("graph3_e9.elem", "graph3_e9_conj509.elem")]
    f, target, w = (from_forest_pair(g, parse_element(t, g, base)) for t in texts + [out.split("witness:\n", 1)[1]])
    assert canonical_key(reduce(compose(compose(w, target), invert(w)))) == canonical_key(reduce(f))


def _record_frees(monkeypatch) -> list:
    """Record the freeing rounds of each side's Step 1, one list per side.
    A round is recorded as (the primary is a split, the primary is alone
    with its partner in its skeleton component), after checking that it
    pushes t times backward at the primary v of the redex `_freeable`
    picks: a reducing shift through a split, an expanding shift through a
    merge.  The witness's pushes, which come after both sides' Step 1, are
    not recorded."""
    sides, due = [], []
    stepping = False
    push, semi_reduce = closed._push, conjugacy.semi_reduce

    def recording_push(c, p, step):
        if stepping:
            if not due:
                v, t = closed._freeable(c)
                due.extend([(v, -1)] * t)
                pair = len(testkit._bidirectional_order(closed.skeleton(c), [v])) == 2
                sides[-1].append((len(c.out_slots[v]) >= 2, pair))
            assert (p, step) == due.pop()
        return push(c, p, step)

    def recording_semi_reduce(c):
        nonlocal stepping
        sides.append([])
        stepping = True
        out = semi_reduce(c)
        stepping = False
        assert not due
        return out

    monkeypatch.setattr(closed, "_push", recording_push)
    monkeypatch.setattr(conjugacy, "semi_reduce", recording_semi_reduce)
    return sides


def test_conj_fig1_pair_that_frees_a_split(capsys, monkeypatch):
    """fig1-conj suite element 168 (growth 8) as two forest pairs; the fig1
    graph is fixtures/three_color.graph.  Step 1 frees a split-merge (type
    1) redex on both sides, by reducing shifts through its split, which no
    other fixture does.  The CI workflow runs the same command."""
    sides = _record_frees(monkeypatch)
    names = ("fig1_e168.elem", "fig1_e168_expanded.elem")
    argv = ["conj", "--graph", str(FIXTURES / "three_color.graph"), "--lhs", str(FIXTURES / names[0])]
    code, out, err = run(capsys, argv + ["--rhs", str(FIXTURES / names[1]), "--witness"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: conjugate\n")
    assert len(sides) == 2 and all(any(split for split, _ in frees) for frees in sides)
    g, base = parse_graph((FIXTURES / "three_color.graph").read_text())
    texts = [(FIXTURES / name).read_text() for name in names]
    f, target, w = (from_forest_pair(g, parse_element(t, g, base)) for t in texts + [out.split("witness:\n", 1)[1]])
    assert canonical_key(reduce(compose(compose(w, target), invert(w)))) == canonical_key(reduce(f))


def test_conj_fig1_pair_that_frees_a_two_point_component(capsys, monkeypatch):
    """fig1 element seed 37 (growth 9) and its conjugate by the growth-2
    element of seed 500; the fig1 graph is fixtures/three_color.graph.  On
    both sides Step 1 frees a redex that is alone in its skeleton
    component, and frees it by pushes at its primary, as every other.  The
    CI workflow runs the same command."""
    sides = _record_frees(monkeypatch)
    names = ("fig1_e37.elem", "fig1_e37_conj500.elem")
    argv = ["conj", "--graph", str(FIXTURES / "three_color.graph"), "--lhs", str(FIXTURES / names[0])]
    code, out, err = run(capsys, argv + ["--rhs", str(FIXTURES / names[1]), "--witness"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: conjugate\n")
    assert [[pair for _, pair in frees].count(True) for frees in sides] == [1, 1]
    g, base = parse_graph((FIXTURES / "three_color.graph").read_text())
    texts = [(FIXTURES / name).read_text() for name in names]
    f, target, w = (from_forest_pair(g, parse_element(t, g, base)) for t in texts + [out.split("witness:\n", 1)[1]])
    assert canonical_key(reduce(compose(compose(w, target), invert(w)))) == canonical_key(reduce(f))


def test_conj_fig1_pair_whose_witness_needs_type3_layers(capsys, monkeypatch):
    """fig1 element seed 0 (growth 3) and its conjugate by the growth-3
    element of seed 1000, the pair of
    tests/test_conjugacy.py::test_witness_realizes_type3_moves; the fig1
    graph is fixtures/three_color.graph.  Their semi-reduced loop parts
    differ, so the witness stacks type 3 layers, whose parent color the
    stack reads off the move.  The CI workflow runs the same command."""
    kinds = []
    glue = closed._Stack.glue
    monkeypatch.setattr(closed._Stack, "glue", lambda stack, mv, inverse=False: kinds.append(mv.kind) or glue(stack, mv, inverse))
    names = ("fig1_e0.elem", "fig1_e0_conj1000.elem")
    g, base = parse_graph((FIXTURES / "three_color.graph").read_text())
    f, h = (from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=s, growth_steps=3))) for s in (0, 1000))
    texts = [(FIXTURES / name).read_text() for name in names]
    assert texts == [format_element(to_forest_pair(g, d)) for d in (f, reduce(compose(compose(h, f), invert(h))))]
    argv = ["conj", "--graph", str(FIXTURES / "three_color.graph"), "--lhs", str(FIXTURES / names[0])]
    code, out, err = run(capsys, argv + ["--rhs", str(FIXTURES / names[1]), "--witness"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: conjugate\n")
    assert {"type3", "type3-expand"} & set(kinds)
    f, target, w = (from_forest_pair(g, parse_element(t, g, base)) for t in texts + [out.split("witness:\n", 1)[1]])
    assert canonical_key(reduce(compose(compose(w, target), invert(w)))) == canonical_key(reduce(f))


def test_conj_fig1_pair_whose_witness_pushes(capsys, monkeypatch):
    """fig1 element seed 189 (growth 6) and its conjugate h^-1 f h by the
    growth-2 element h of seed 689; the fig1 graph is
    fixtures/three_color.graph.  Their split-merge parts differ by a
    coboundary that is not constant, so the witness pushes the base line
    twice, which no other fixture's witness does.  The CI workflow runs the
    same command."""
    pushes = []
    push_coboundary = conjugacy._push_coboundary

    def counting(c, comp, x):
        moves = push_coboundary(c, comp, x)
        pushes.append(sum(mv.kind != "permute" for mv in moves))
        return moves

    monkeypatch.setattr(conjugacy, "_push_coboundary", counting)
    names = ("fig1_e189.elem", "fig1_e189_conj689.elem")
    g, base = parse_graph((FIXTURES / "three_color.graph").read_text())
    fp = random_element(g, base, GeneratorConfig(seed=189, growth_steps=6))
    f = from_forest_pair(g, fp)
    h = from_forest_pair(g, random_element(g, base, GeneratorConfig(seed=689, growth_steps=2)))
    texts = [(FIXTURES / name).read_text() for name in names]
    assert texts == [format_element(fp), format_element(to_forest_pair(g, reduce(compose(compose(invert(h), f), h))))]
    argv = ["conj", "--graph", str(FIXTURES / "three_color.graph"), "--lhs", str(FIXTURES / names[0])]
    code, out, err = run(capsys, argv + ["--rhs", str(FIXTURES / names[1]), "--witness"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: conjugate\n")
    assert pushes == [2]
    f, target, w = (from_forest_pair(g, parse_element(t, g, base)) for t in texts + [out.split("witness:\n", 1)[1]])
    assert canonical_key(reduce(compose(compose(w, target), invert(w)))) == canonical_key(reduce(f))


def test_conj_step2_negative(capsys):
    """Random graph 3, element seeds 2 and 9 at growth 3: the skeletons of
    their split-merge parts have the same shape, but the cocycles lie in
    different classes, so step 2 fails on the reduced cocycles of the class
    keys.  The CI workflow runs the same command."""
    argv = ["conj", "--graph", str(FIXTURES / "graph3.graph"), "--lhs", str(FIXTURES / "graph3_step2_lhs.elem")]
    code, out, err = run(capsys, argv + ["--rhs", str(FIXTURES / "graph3_step2_rhs.elem")])
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["verdict: not-conjugate", "step failed: 2 (split-merge parts are not similar)"]


def _conj_report(step_failed, reason, sizes, loops, steps, witness=None):
    """The `conj --json` report of a run, as `json.dumps` prints it."""
    report = {
        "command": "conj",
        "loop_multisets": loops,
        "reason": reason,
        "schema_version": 1,
        "semi_reduced_sizes": sizes,
        "step_failed": step_failed,
        "steps": steps,
        "verdict": "conjugate" if step_failed is None else "not-conjugate",
        "witness_available": witness is not None,
    }
    if witness is not None:
        report["witness"] = witness
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


FIG1_E0_WITNESS = "element\n  domain [B, G.3.3, G.3.4.1, G.3.4.2, G.4]\n  range  [B, G.3, G.4.1.3, G.4.2, G.4.1.4]\n"
FIG1_E189_WITNESS = "element\n  domain [B, G.3, G.4]\n  range  [G.4, G.3, B]\n"
H2_RAY_SWAP = "element\n  domain [A#1, A#2]\n  range  [A#2, A#1]\n"
STEP2_STEPS = ["shift-expand", "reduce"] * 4
SIGMA_STEPS = ["shift-expand", "reduce", "shift-expand", "shift-expand", "reduce"]
E0_STEPS = ["shift-expand", "reduce"] * 7
EMPTY_LOOPS_STEPS = ["reduce"] + ["shift-expand", "reduce"] * 3
CAPPED_STEPS = ["shift-expand", "reduce"] * 4
E189_STEPS = ["reduce"] * 6

# the exact stdout of `conj`, plain and --json, for two step-3 refusals, a
# step-2 refusal, a pair whose witness stacks type 3 layers, a pair whose
# witness pushes the base line, a pair whose witness the relation-search
# cap gives up on, and the Houghton group H2's translation against its
# inverse and its square
CONJ_OUTPUT = [
    pytest.param(
        ["three_color", "sigma", "identity"],
        "verdict: not-conjugate\nstep failed: 3 (loop parts differ in the loops semigroup)\n"
        f"steps: {' '.join(SIGMA_STEPS)}\n",
        _conj_report(
            3, "loop parts differ in the loops semigroup", [[0, 5], [0, 2]],
            [[["G", 3, 1], ["R", 2, 1]], [["B", 1, 1], ["G", 1, 1]]], SIGMA_STEPS,
        ),
        id="sigma-identity-step3",
    ),
    pytest.param(
        ["graph3", "graph3_step2_lhs", "graph3_step2_rhs"],
        f"verdict: not-conjugate\nstep failed: 2 (split-merge parts are not similar)\nsteps: {' '.join(STEP2_STEPS)}\n",
        _conj_report(
            2, "split-merge parts are not similar", [[2, 6], [2, 6]], [[["V0", 1, 2]], [["V1", 1, 1]]], STEP2_STEPS
        ),
        id="graph3-step2",
    ),
    pytest.param(
        ["three_color", "fig1_e0", "fig1_e0_conj1000", "--witness"],
        f"verdict: conjugate\nsteps: {' '.join(E0_STEPS)}\nwitness:\n{FIG1_E0_WITNESS}",
        _conj_report(
            None, "equivalent closed diagrams", [[0, 5], [0, 6]],
            [[["B", 1, 1], ["B", 3, 1], ["G", 1, 1]], [["B", 3, 1], ["G", 1, 2], ["R", 1, 1]]],
            E0_STEPS, FIG1_E0_WITNESS,
        ),
        id="fig1-e0-witness",
    ),
    pytest.param(
        ["three_color", "fig1_e189", "fig1_e189_conj689", "--witness"],
        f"verdict: conjugate\nsteps: {' '.join(E189_STEPS)}\nwitness:\n{FIG1_E189_WITNESS}",
        _conj_report(None, "equivalent closed diagrams", [[4, 2], [4, 2]], [[], []], E189_STEPS, FIG1_E189_WITNESS),
        id="fig1-e189-pushed-witness",
    ),
    pytest.param(
        ["full_shift2", "full_shift2_step3_lhs", "full_shift2_step3_rhs"],
        "verdict: not-conjugate\nstep failed: 3 (one loop part is empty and the other is not)\n"
        f"steps: {' '.join(EMPTY_LOOPS_STEPS)}\n",
        _conj_report(
            3, "one loop part is empty and the other is not", [[2, 2], [2, 3]], [[], [["V0", 1, 1]]],
            EMPTY_LOOPS_STEPS,
        ),
        id="full-shift-empty-loops-step3",
    ),
    pytest.param(
        ["two_vertex", "two_vertex_e36", "two_vertex_e36_conj5591", "--witness", "--semigroup-cap", "3"],
        f"verdict: conjugate\nsteps: {' '.join(CAPPED_STEPS)}\n",
        _conj_report(
            None, "equivalent closed diagrams", [[0, 4], [0, 4]],
            [[["B", 1, 1], ["B", 2, 1], ["R", 1, 1]], [["B", 2, 1], ["R", 1, 2]]], CAPPED_STEPS,
        ),
        id="two-vertex-capped-witness",
    ),
    pytest.param(
        ["houghton2", "houghton2_t", "houghton2_t_inv", "--witness"],
        f"verdict: conjugate\nsteps: (none)\nwitness:\n{H2_RAY_SWAP}",
        _conj_report(None, "equivalent closed diagrams", [[2, 2], [2, 2]], [[], []], [], H2_RAY_SWAP),
        id="houghton2-t-inverse-witness",
    ),
    pytest.param(
        ["houghton2", "houghton2_t", "houghton2_t2"],
        "verdict: not-conjugate\nstep failed: 2 (split-merge parts are not similar)\nsteps: (none)\n",
        _conj_report(2, "split-merge parts are not similar", [[2, 2], [4, 2]], [[], []], []),
        id="houghton2-t-square-step2",
    ),
]


@pytest.mark.parametrize("args, plain, report", CONJ_OUTPUT)
def test_conj_output_is_pinned(args, plain, report, capsys):
    """The full-shift pair is not conjugate for a reason apart from the
    calculus: the rhs fixes the cylinder V0.e0.e0 pointwise, the lhs fixes
    only 0^inf and 1^inf, and conjugate homeomorphisms have homeomorphic
    fixed-point sets.  The two-vertex pair is the planted pair of
    test_witness_cap_is_best_effort, element seeds 36 and 36 + 5555: at cap
    3 every relation path between its loop parts is out of reach, so the
    verdict stands with no witness.

    fixtures/houghton2.graph presents the Houghton group H2, outside the
    irreducible case: each root's shift space is a ray of isolated points
    A.a^n.p... closed by its limit A.a.a...  t translates the line that the
    two rays form by one point.  t^-1 is conjugate to it by the swap of the
    two rays, which is the witness, and t^2, which translates by two, is
    not."""
    graph, lhs, rhs, *flags = args
    argv = ["conj", "--graph", str(FIXTURES / f"{graph}.graph"), "--lhs", str(FIXTURES / f"{lhs}.elem")]
    argv += ["--rhs", str(FIXTURES / f"{rhs}.elem"), *flags]
    assert run(capsys, argv) == (0, plain, "")
    assert run(capsys, ["--json", *argv]) == (0, report, "")


def _report(command, **fields) -> str:
    return json.dumps({"schema_version": 1, "command": command, **fields}, indent=2, sort_keys=True) + "\n"


SIGMA_TEXT = "element\n  domain [B.1, B.2, G.3, G.4]\n  range  [G.3, G.4.2, G.4.1, B]\n"
SIGMA_SQUARE = "element\n  domain [B.1, B.2, G.3, G.4.1, G.4.2]\n  range  [G.4.1, B.2, B.1, G.3, G.4.2]\n"
SIGMA_MINUS_2 = "element\n  domain [B.1, B.2, G.3, G.4.1, G.4.2]\n  range  [G.3, B.2, G.4.1, B.1, G.4.2]\n"
SIGMA_INVERSE = "element\n  domain [B, G.3, G.4.1, G.4.2]\n  range  [G.4, B.1, G.3, B.2]\n"
DEAD_END_VIOLATIONS = [
    "dead-end at vertex s: out-degree 0",
    "redundant-edge at vertex u: single outgoing edge f is not a self-loop",
]
DEAD_END_NORMALIZED = "graph\n  vertex ok\n  edge l1: ok -> ok; edge l2: ok -> ok\n  order ok: [l1, l2]\nbase [ok, ok]\n"
DEAD_END_RENAME = {"ok": "ok", "s": None, "u": "ok"}
FIG1_BLOCK = "for every winding n from 1 to 1:\nL(R,n)+L(G,n)=L(B,n)\nL(B,n)+L(G,n)=L(G,n)"

# the exact stdout, plain and --json, of every subcommand and option that
# the benchmark never runs; "dead_end.graph" is DEAD_END, every other file
# is in fixtures/, and a --dot file is written to the working directory
OTHER_COMMAND_OUTPUT = [
    pytest.param(
        ["check-graph", "--graph", "three_color.graph"], "valid\n",
        _report("check-graph", valid=True, violations=[]),
        id="check-graph-valid",
    ),
    pytest.param(
        ["check-graph", "--graph", "dead_end.graph", "--fix"],
        "\n".join(["invalid", *DEAD_END_VIOLATIONS, "normalized:", DEAD_END_NORMALIZED]),
        _report(
            "check-graph", valid=False, violations=DEAD_END_VIOLATIONS, normalized=DEAD_END_NORMALIZED,
            rename=DEAD_END_RENAME,
        ),
        id="check-graph-fix",
    ),
    pytest.param(
        ["normalize", "--graph", "dead_end.graph"],
        DEAD_END_NORMALIZED + '\nrename: {"ok": "ok", "s": null, "u": "ok"}\n',
        _report("normalize", graph=DEAD_END_NORMALIZED, rename=DEAD_END_RENAME),
        id="normalize",
    ),
    pytest.param(
        ["reduce", "--graph", "three_color.graph", "--elem", "sigma.elem", "--dot", "out.dot"], SIGMA_TEXT,
        _report("reduce", element=SIGMA_TEXT, dot="out.dot"),
        id="reduce-dot",
    ),
    pytest.param(
        ["power", "--graph", "three_color.graph", "--elem", "sigma.elem", "-n", "-2", "--dot", "out.dot"],
        SIGMA_MINUS_2,
        _report("power", n=-2, element=SIGMA_MINUS_2, dot="out.dot"),
        id="power-dot",
    ),
    pytest.param(
        ["compose", "--graph", "three_color.graph", "--lhs", "sigma.elem", "--rhs", "sigma.elem"], SIGMA_SQUARE,
        _report("compose", element=SIGMA_SQUARE),
        id="compose",
    ),
    pytest.param(
        ["invert", "--graph", "three_color.graph", "--elem", "sigma.elem"], SIGMA_INVERSE,
        _report("invert", element=SIGMA_INVERSE),
        id="invert",
    ),
    pytest.param(
        ["export-dot", "--graph", "three_color.graph", "--elem", "sigma.elem", "--dot", "out.dot"], "wrote out.dot\n",
        _report("export-dot", dot="out.dot"),
        id="export-dot",
    ),
    pytest.param(
        ["export-dot", "--graph", "three_color.graph", "--elem", "sigma.elem", "--dot", "out.dot", "--closed"],
        "wrote out.dot\n",
        _report("export-dot", dot="out.dot"),
        id="export-dot-closed",
    ),
    pytest.param(
        [
            "semigroup-eq", "--graph", "three_color.graph", "--lhs", "L(G,1)+L(R,1)", "--rhs", "L(B,1)",
            "--explain", "--semigroup-cap", "4",
        ],
        f"equal in stage 1\nbfs oracle (cap 4): equal\n{FIG1_BLOCK}\n",
        _report(
            "semigroup-eq", equal=True, stage=1, lhs="L(G,1)+L(R,1)", rhs="L(B,1)", bfs_oracle="equal",
            presentation=FIG1_BLOCK,
        ),
        id="semigroup-eq-explain-cap",
    ),
]


@pytest.mark.parametrize("argv, plain, report", OTHER_COMMAND_OUTPUT)
def test_other_command_output_is_pinned(argv, plain, report, files, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [files[a] if a in files else str(FIXTURES / a) if a.endswith((".graph", ".elem")) else a for a in argv]
    for flags, stdout in [([], plain), (["--json"], report)]:
        dot = tmp_path / "out.dot"
        dot.unlink(missing_ok=True)
        assert run(capsys, [*flags, *argv]) == (0, stdout, "")
        assert dot.is_file() == ("--dot" in argv)


# a graph whose shift space is empty: D is a dead end, and removing it
# leaves R with no edge
EMPTY_SHIFT = "graph vertex D; vertex R; edge 0: R -> D; order D: []; order R: [0]; base [D]\n"
EMPTY_SHIFT_VIOLATIONS = [
    "dead-end at vertex D: out-degree 0",
    "redundant-edge at vertex R: single outgoing edge 0 is not a self-loop",
]


def test_check_graph_fix_on_an_empty_shift_space(tmp_path, capsys):
    """check-graph --fix reports the violations as plain check-graph does,
    then says that no vertex survives normalization."""
    graph = tmp_path / "empty.graph"
    graph.write_text(EMPTY_SHIFT)
    argv = ["check-graph", "--graph", str(graph)]
    plain = "\n".join(["invalid", *EMPTY_SHIFT_VIOLATIONS]) + "\n"
    assert run(capsys, argv) == (0, plain, "")
    fixed = plain + "normalized: none; normalization leaves no vertex\n"
    assert run(capsys, [*argv, "--fix"]) == (0, fixed, "")
    report = _report("check-graph", valid=False, violations=EMPTY_SHIFT_VIOLATIONS, normalized=None, rename=None)
    assert run(capsys, ["--json", *argv, "--fix"]) == (0, report, "")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_normalize_refuses_an_empty_shift_space(flags, tmp_path, capsys):
    graph = tmp_path / "empty.graph"
    graph.write_text(EMPTY_SHIFT)
    error = "error: normalization removed every vertex; the shift space is empty\n"
    assert run(capsys, [*flags, "normalize", "--graph", str(graph)]) == (1, "", error)


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("command", ["reduce", "export-dot"])
def test_an_unwritable_dot_file_prints_no_report(command, flags, tmp_path, capsys):
    """A --dot path that is a directory fails the command before its report
    is printed."""
    argv = [command, "--graph", str(FIXTURES / "three_color.graph"), "--elem", str(FIXTURES / "sigma.elem")]
    code, out, err = run(capsys, [*flags, *argv, "--dot", str(tmp_path)])
    assert (code, out) == (1, "") and err.startswith("error: ")


def _run_python(code, *argv, timeout=30):
    """A child interpreter running `code` with argv, on this checkout's src/."""
    path = os.pathsep.join([str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _run_cli(*argv, timeout=30):
    return _run_python("import sys; from strandshift.cli import main; sys.exit(main())", *argv, timeout=timeout)


def test_semigroup_eq_whose_completion_runs_on_is_refused():
    """fixtures/random_v14_seed56.graph is the random graph of seed 56 at
    max_vertices=14, with 14 vertices.  The completion of its loops
    semigroup runs on, so the S-pair bound refuses the query: exit 2, with
    the limit named.  The CI workflow runs the same command."""
    text = (FIXTURES / "random_v14_seed56.graph").read_text()
    assert text == format_graph(*random_graph(GeneratorConfig(seed=56, max_vertices=14)))
    graph = str(FIXTURES / "random_v14_seed56.graph")
    proc = _run_cli("semigroup-eq", "--graph", graph, "--lhs", "L(V0,1)", "--rhs", "L(V1,1)")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "limit exceeded: semigroup-completion" in proc.stderr


def test_semigroup_eq_on_random_graph_seed_12_is_not_equal():
    """fixtures/random_v8_seed12.graph is the random graph of seed 12 at
    max_vertices=8, whose completion once ran past the S-pair bound.  It
    now answers "not equal", and a character certifies that answer without
    completion: chi = (1,0,2,1,1,2,0,1) mod 3 over V0-V7 is 0 on every
    relation vector (children minus vertex), so it is a monoid map to Z/3,
    and it sends L(V0,1) to 1 and L(V1,1) to 0.  The CI workflow runs the
    same command."""
    text = (FIXTURES / "random_v8_seed12.graph").read_text()
    assert text == format_graph(*random_graph(GeneratorConfig(seed=12, max_vertices=8)))
    g = parse_graph(text)[0]
    chi = dict(zip(g.vertices, (1, 0, 2, 1, 1, 2, 0, 1)))
    assert g.vertices == tuple(f"V{i}" for i in range(8))
    for v in g.vertices:
        if not g.is_isolated_color(v):
            assert (sum(chi[c] for c in g.child_colors(v)) - chi[v]) % 3 == 0
    assert (chi["V0"], chi["V1"]) == (1, 0)
    graph = str(FIXTURES / "random_v8_seed12.graph")
    proc = _run_cli("semigroup-eq", "--graph", graph, "--lhs", "L(V0,1)", "--rhs", "L(V1,1)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "not equal in stage 1\n", "")


def _three_color_query(n):
    graph = str(FIXTURES / "three_color.graph")
    return ["semigroup-eq", "--graph", graph, "--lhs", f"L(B,{n})", "--rhs", f"L(G,{n})+L(R,{n})"]


def test_semigroup_eq_at_a_huge_winding_answers_at_once():
    """Stage N is N copies of one block, and only the windings present are
    looked at, so a winding of 100000 costs what winding 1 does.  The CI
    workflow runs the same command."""
    proc = _run_cli(*_three_color_query(100000))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "equal in stage 100000\n", "")


def test_semigroup_eq_with_huge_loop_counts_answers_at_once():
    """Each rewriting rule applies by its largest multiple at once, so a
    count of 10**7 costs what a count of 1 does; applied once per pass, the
    equal query took over a minute.  The CI workflow runs it at 10**12."""
    graph = str(FIXTURES / "three_color.graph")
    n = 10**7
    for rhs, verdict in ((f"{n}*L(G,1)+{n}*L(R,1)", "equal"), (f"{n}*L(G,1)+{n}*L(B,1)", "not equal")):
        proc = _run_cli("semigroup-eq", "--graph", graph, "--lhs", f"{n}*L(B,1)", "--rhs", rhs)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{verdict} in stage 1\n", "")


def test_semigroup_eq_memory_does_not_grow_with_the_winding():
    """Peak memory (ru_maxrss) of the same query at winding 800 stays
    within 2 MB of winding 1; a dense stage presentation takes 75 MB there,
    against 16.5 MB at winding 1.  A process started from this one would
    begin with this one's peak as its own, so the query runs in a fork of a
    small fresh interpreter, which begins with that interpreter's size."""
    code = "\n".join(
        [
            "import os, resource, sys",
            "if os.fork() == 0:",
            "    from strandshift.cli import main",
            "    code = main()",
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr, flush=True)",
            "    sys.stdout.flush()",
            "    os._exit(code)",
            "sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))",
        ]
    )
    unit = 1 if sys.platform == "darwin" else 1024  # bytes per ru_maxrss unit
    peak = {}
    for n in (1, 800):
        proc = _run_python(code, *_three_color_query(n))
        assert (proc.returncode, proc.stdout) == (0, f"equal in stage {n}\n")
        peak[n] = int(proc.stderr) * unit
    assert peak[800] - peak[1] <= 2 * 2**20, peak


def _power_inputs(name, tmp_path, full_shift2):
    """(graph file, element file) for sigma and for seeded small elements."""
    if name == "sigma":
        return FIXTURES / "three_color.graph", FIXTURES / "sigma.elem"
    if name == "full-shift":
        g, base = full_shift2, ("v",)
    else:
        g, base = random_graph(GeneratorConfig(seed=int(name.split("-")[1])))
    graph, elem = tmp_path / "g.graph", tmp_path / "f.elem"
    graph.write_text(format_graph(g, base))
    elem.write_text(format_element(random_element(g, base, GeneratorConfig(seed=7, growth_steps=3))))
    return graph, elem


POWER_EXPONENTS = list(range(-9, 18)) + [31, 32, 33, 64]


@pytest.mark.parametrize("name", ["sigma", "full-shift", "random-1", "random-2", "random-3"])
def test_power_equals_the_factor_at_a_time_product(name, full_shift2, tmp_path, capsys, monkeypatch):
    graph, elem = _power_inputs(name, tmp_path, full_shift2)
    g, base = parse_graph(graph.read_text())
    d = from_forest_pair(g, parse_element(elem.read_text(), g, base))
    expected = {}  # n -> (stdout, canonical key), one factor at a time
    for step, sign in ((d, 1), (invert(d), -1)):
        power = identity_diagram(d.domain())
        for k in range(max(abs(n) for n in POWER_EXPONENTS) + 1):
            expected[sign * k] = format_element(to_forest_pair(g, power)), canonical_key(power)
            power = reduce(compose(power, step))
    assert expected[0][0] == format_element(identity_pair(g, base))

    drawn = []
    monkeypatch.setattr(cli, "diagram_dot", lambda x: drawn.append(x) or diagram_dot(x))
    dot = tmp_path / "out.dot"
    for n in POWER_EXPONENTS:
        code, out, _ = run(capsys, ["power", "--graph", str(graph), "--elem", str(elem), "-n", str(n), "--dot", str(dot)])
        assert (code, out) == (0, expected[n][0]), n
        assert canonical_key(drawn[-1]) == expected[n][1], n


@pytest.mark.parametrize("n", [64, -100, 7, -255])
def test_power_takes_logarithmically_many_products(n, capsys, monkeypatch):
    # at |n| = 2^k - 1 every bit is set: a product into an identity would break the bound
    calls = []
    monkeypatch.setattr(cli, "product", lambda a, b: calls.append(1) or product(a, b))
    argv = ["power", "--graph", str(FIXTURES / "three_color.graph"), "--elem", str(FIXTURES / "sigma.elem")]
    code, _, _ = run(capsys, argv + ["-n", str(n)])
    assert code == 0
    assert len(calls) <= 2 * (abs(n).bit_length() - 1)


def test_power_of_a_huge_exponent(tmp_path, capsys):
    # sigma has order 6 and 1000003 = 6 * 166667 + 1
    graph, sigma = str(FIXTURES / "three_color.graph"), str(FIXTURES / "sigma.elem")
    code, out, _ = run(capsys, ["power", "--graph", graph, "--elem", sigma, "-n", "1000003"])
    assert code == 0
    p = tmp_path / "p.elem"
    p.write_text(out)
    code, out, _ = run(capsys, ["eq", "--graph", graph, "--lhs", str(p), "--rhs", sigma])
    assert (code, out) == (0, "equal\n")


def test_power_with_an_output_deeper_than_the_recursion_limit(capsys):
    """Thompson's x0 on the binary full shift: x0^1100 has 1,102 leaf pairs,
    the deepest 1,101 edges down, past Python's default recursion limit.
    The cut walks each forest from a stack.  The CI workflow runs the same
    command."""
    n = 1100
    argv = ["power", "--graph", str(FIXTURES / "full_shift2.graph"), "--elem", str(FIXTURES / "x0.elem"), "-n", str(n)]
    domain = ["V0" + ".e0" * (n + 1)] + ["V0" + ".e0" * k + ".e1" for k in range(n, -1, -1)]
    rng = ["V0" + ".e1" * k + ".e0" for k in range(n + 1)] + ["V0" + ".e1" * (n + 1)]
    assert len(domain) == len(rng) == 1102
    assert max(w.count(".") for w in domain + rng) == 1101
    expected = f"element\n  domain [{', '.join(domain)}]\n  range  [{', '.join(rng)}]\n"
    assert run(capsys, argv) == (0, expected, "")


def test_an_input_deeper_than_the_recursion_limit(capsys):
    """fixtures/fig1_deep1500.elem has a leaf B.2.0...0 1,500 edges down, a
    chain of degenerate points that reduction removes.  The builder grows
    each forest from a stack.  The CI workflow runs the same reduce."""
    graph, deep = str(FIXTURES / "three_color.graph"), str(FIXTURES / "fig1_deep1500.elem")
    leaf = "B.2" + ".0" * 1499
    assert (FIXTURES / "fig1_deep1500.elem").read_text() == f"element\n  domain [B.1, {leaf}, G.3, G.4]\n  range  [B.1, B.2, G.3, G.4]\n"
    assert run(capsys, ["reduce", "--graph", graph, "--elem", deep]) == (0, IDENTITY.lstrip("\n"), "")
    code, out, err = run(capsys, ["conj", "--graph", graph, "--lhs", deep, "--rhs", str(FIXTURES / "identity.elem")])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: conjugate\n")


EMPTY_ELEMENT = "element\n  domain []\n  range  []\n"
EMPTY_DOT = 'digraph strand_diagram {\n  rankdir="TB";\n}\n'


def test_commands_on_an_empty_base(tmp_path, capsys):
    """On a `base []` graph every command answers for the empty element:
    gluing, closing and the witness stack all start from empty tables."""
    graph = tmp_path / "empty.graph"
    graph.write_text(FIG1.replace("base [B, G]", "base []"))
    elem = tmp_path / "empty.elem"
    elem.write_text(EMPTY_ELEMENT)
    dot = tmp_path / "out.dot"
    g, e = ["--graph", str(graph)], str(elem)

    assert run(capsys, ["reduce", *g, "--elem", e]) == (0, EMPTY_ELEMENT, "")
    assert run(capsys, ["power", *g, "--elem", e, "-n", "3", "--dot", str(dot)]) == (0, EMPTY_ELEMENT, "")
    assert dot.read_text() == EMPTY_DOT
    assert run(capsys, ["eq", *g, "--lhs", e, "--rhs", e]) == (0, "equal\n", "")
    conj = ["conj", "--witness", *g, "--lhs", e, "--rhs", e]
    text = "verdict: conjugate\nsteps: (none)\nwitness:\n" + EMPTY_ELEMENT
    assert run(capsys, conj) == (0, text, "")
    report = {
        "command": "conj",
        "loop_multisets": [[], []],
        "reason": "equivalent closed diagrams",
        "schema_version": 1,
        "semi_reduced_sizes": [[0, 0], [0, 0]],
        "step_failed": None,
        "steps": [],
        "verdict": "conjugate",
        "witness": EMPTY_ELEMENT,
        "witness_available": True,
    }
    assert run(capsys, ["--json", *conj]) == (0, json.dumps(report, indent=2, sort_keys=True) + "\n", "")
    dot.unlink()
    assert run(capsys, ["export-dot", *g, "--elem", e, "--dot", str(dot)]) == (0, f"wrote {dot}\n", "")
    assert dot.read_text() == EMPTY_DOT
