"""Command-line surface: file parsing, verdicts, DOT export.

Exit codes: 0 a verdict was computed (the verdict itself, including
"not conjugate" or "not equal", is in the report); 1 invalid input;
2 an internal limit was hit (the limit is named in the report).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .closed import close
from .conjugacy import conjugator_witness, is_conjugate
from .diagrams import compose, equal, from_forest_pair, identity_diagram, invert, product, reduce, to_forest_pair
from .dot import closed_dot, diagram_dot
from .errors import LimitExceeded, ParseError, SignatureMismatch
from .graphs import normalize_graph, validate_graph
from .semigroup import bfs_equal, decide_equal, dump_presentation, max_winding, presentation_from_graph
from .textio import format_element, format_graph, format_loops, parse_element, parse_graph, parse_loops


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args):
    """The graph and base of `--graph`, refused at its first violation of
    the shift assumptions (see `check-graph`)."""
    g, base = parse_graph(_read(args.graph))
    violations = validate_graph(g)
    if violations:
        raise ValueError(str(violations[0]))
    return g, base


def _load_element(path, g, base):
    return parse_element(_read(path), g, base)


def _emit(args, report: dict, human: str):
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(human.rstrip("\n"))


def cmd_check_graph(args):
    g, base = parse_graph(_read(args.graph))
    violations = validate_graph(g)
    report = {
        "schema_version": 1,
        "command": "check-graph",
        "valid": not violations,
        "violations": [str(v) for v in violations],
    }
    human = "\n".join(["valid" if not violations else "invalid"] + [str(v) for v in violations])
    if violations and args.fix:
        g2, base2, rename = normalize_graph(g, base)
        fixed = format_graph(g2, base2)
        report["normalized"] = fixed
        report["rename"] = {k: v for k, v in rename.items()}
        human += "\nnormalized:\n" + fixed
    _emit(args, report, human)
    return 0


def cmd_normalize(args):
    g, base = parse_graph(_read(args.graph))
    g2, base2, rename = normalize_graph(g, base)
    text = format_graph(g2, base2)
    report = {
        "schema_version": 1,
        "command": "normalize",
        "graph": text,
        "rename": {k: v for k, v in rename.items()},
    }
    _emit(args, report, text + "\nrename: " + json.dumps(rename, sort_keys=True))
    return 0


def _element_out(args, g, reduced, report):
    """Print a reduced diagram as an element, and draw it when asked."""
    text = format_element(to_forest_pair(g, reduced))
    report["element"] = text
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(diagram_dot(reduced))
        report["dot"] = args.dot
    _emit(args, report, text)
    return 0


def cmd_reduce(args):
    g, base = _load_graph(args)
    d = from_forest_pair(g, _load_element(args.elem, g, base))
    return _element_out(args, g, reduce(d), {"schema_version": 1, "command": "reduce"})


def cmd_compose(args):
    g, base = _load_graph(args)
    lhs = from_forest_pair(g, _load_element(args.lhs, g, base))
    rhs = from_forest_pair(g, _load_element(args.rhs, g, base))
    return _element_out(args, g, reduce(compose(lhs, rhs)), {"schema_version": 1, "command": "compose"})


def cmd_invert(args):
    g, base = _load_graph(args)
    d = from_forest_pair(g, _load_element(args.elem, g, base))
    return _element_out(args, g, reduce(invert(d)), {"schema_version": 1, "command": "invert"})


def cmd_power(args):
    g, base = _load_graph(args)
    d = reduce(from_forest_pair(g, _load_element(args.elem, g, base)))
    n = args.n
    result = identity_diagram(d.domain())
    square = d if n >= 0 else invert(d)
    # Binary exponentiation: at most 2*floor(log2 |n|) + 1 products, each of
    # reduced factors, so each is reduced at its seam only.  The product is
    # associative and the reduced form is unique, so the printed element is
    # the one the factor-at-a-time product gives; only point ids in the DOT
    # drawing follow the order of the products.
    k = abs(n)
    while k:
        if k & 1:
            result = product(result, square)
        k >>= 1
        if k:
            square = product(square, square)
    return _element_out(args, g, result, {"schema_version": 1, "command": "power", "n": n})


def cmd_eq(args):
    g, base = _load_graph(args)
    lhs = from_forest_pair(g, _load_element(args.lhs, g, base))
    rhs = from_forest_pair(g, _load_element(args.rhs, g, base))
    verdict = equal(lhs, rhs)
    report = {"schema_version": 1, "command": "eq", "equal": verdict}
    _emit(args, report, "equal" if verdict else "not equal")
    return 0


def cmd_conj(args):
    g, base = _load_graph(args)
    lhs = from_forest_pair(g, _load_element(args.lhs, g, base))
    rhs = from_forest_pair(g, _load_element(args.rhs, g, base))
    result = is_conjugate(lhs, rhs, g)
    witness_text = None
    if result.conjugate and args.witness:
        w = conjugator_witness(lhs, rhs, result, g, semigroup_cap=args.semigroup_cap)
        if w is not None:
            result.witness_available = True
            witness_text = format_element(to_forest_pair(g, w))
    report = result.record()
    report["command"] = "conj"
    if witness_text:
        report["witness"] = witness_text
    steps = [m.kind for a in (result.analyses or ()) for m in a.trace]
    report["steps"] = steps
    lines = [f"verdict: {report['verdict']}"]
    if not result.conjugate:
        lines.append(f"step failed: {result.step_failed} ({result.reason})")
    lines.append(f"steps: {' '.join(steps) if steps else '(none)'}")
    if witness_text:
        lines.append("witness:\n" + witness_text)
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_semigroup_eq(args):
    g, base = _load_graph(args)
    lhs = parse_loops(args.lhs, g.vertices)
    rhs = parse_loops(args.rhs, g.vertices)
    n = max(max_winding(lhs), max_winding(rhs))
    pres = presentation_from_graph(g, n)
    va, vb = pres.vector(lhs), pres.vector(rhs)
    verdict = decide_equal(va, vb, pres)
    report = {
        "schema_version": 1,
        "command": "semigroup-eq",
        "equal": verdict,
        "stage": n,
        "lhs": format_loops(lhs),
        "rhs": format_loops(rhs),
    }
    lines = [f"{'equal' if verdict else 'not equal'} in stage {n}"]
    if args.semigroup_cap is not None:
        oracle = bfs_equal(va, vb, pres, args.semigroup_cap)
        report["bfs_oracle"] = oracle
        lines.append(f"bfs oracle (cap {args.semigroup_cap}): {oracle}")
    if args.explain:
        dump = dump_presentation(pres)
        report["presentation"] = dump
        lines.append(dump)
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_export_dot(args):
    g, base = _load_graph(args)
    d = from_forest_pair(g, _load_element(args.elem, g, base))
    text = closed_dot(close(d)) if args.closed else diagram_dot(d)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(text)
    report = {"schema_version": 1, "command": "export-dot", "dot": args.dot}
    _emit(args, report, f"wrote {args.dot}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="strandshift",
        description="Strand diagram calculus and conjugacy for piecewise-canonical homeomorphism groups of edge shifts",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **arguments):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--graph", required=True, help="graph file")
        for flag, kwargs in arguments.items():
            p.add_argument(flag, **kwargs)
        return p

    per_winding = ": one search per winding, within its larger input degree plus the cap minus the larger total input degree"
    add("check-graph", cmd_check_graph, **{"--fix": dict(action="store_true", help="show the normalized graph")})
    add("normalize", cmd_normalize)
    add("reduce", cmd_reduce, **{"--elem": dict(required=True), "--dot": dict(default=None)})
    add(
        "compose",
        cmd_compose,
        **{"--lhs": dict(required=True), "--rhs": dict(required=True), "--dot": dict(default=None)},
    )
    add("invert", cmd_invert, **{"--elem": dict(required=True), "--dot": dict(default=None)})
    add(
        "power",
        cmd_power,
        **{"--elem": dict(required=True), "-n": dict(type=int, required=True), "--dot": dict(default=None)},
    )
    add("eq", cmd_eq, **{"--lhs": dict(required=True), "--rhs": dict(required=True)})
    add(
        "conj",
        cmd_conj,
        **{
            "--lhs": dict(required=True),
            "--rhs": dict(required=True),
            "--budget": dict(type=int, default=2, help="ignored: semi-reduction is exact and needs no search depth"),
            "--witness": dict(action="store_true", help="attempt conjugator assembly"),
            "--semigroup-cap": dict(type=int, default=None, help="degree cap of the loop-part witness search" + per_winding),
        },
    )
    add(
        "semigroup-eq",
        cmd_semigroup_eq,
        **{
            "--lhs": dict(required=True, help="loop sum, e.g. 'L(R,1)+2*L(B,1)'"),
            "--rhs": dict(required=True),
            "--semigroup-cap": dict(type=int, default=None, help="also run the BFS oracle at this cap" + per_winding),
            "--explain": dict(action="store_true", help="dump the block relations, which hold for every winding"),
        },
    )
    add(
        "export-dot",
        cmd_export_dot,
        **{
            "--elem": dict(required=True),
            "--dot": dict(required=True, help="output DOT file"),
            "--closed": dict(action="store_true", help="export the closed diagram"),
        },
    )
    return parser


_PARSER = None  # built on the first call of main, then reused


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse would read the value of an unknown flag before the
        # subcommand as the subcommand, and name that value instead
        for token in itertools.takewhile(lambda t: t.startswith("-"), argv):
            if not any(flag.startswith(token.split("=", 1)[0]) for flag in _PARSER._option_string_actions):
                _PARSER.error(f"unrecognized arguments: {token}")
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc.limit}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, SignatureMismatch, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
