"""Traced re-drive of the CLI commands, one span per layer call.

Each operation is driven through the same public calls `strandshift.cli`
makes, in the same order, with a span around each call.  Calls nested inside
one stage (`unordered_key` inside the similarity search, `solve_integer`
inside step 2, `reduce` inside the witness fold and inside `equal`, ...) are
timed by wrapping the function at the module attribute its caller looks it
up under; the wrappers are installed only for the traced pass and removed
afterwards.  Spans stay in memory as (name, start_ns, end_ns, parent, op)
and are summarized into per-layer self times and counts at the end.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from strandshift import closed, conjugacy, diagrams, semigroup
from strandshift.cli import build_parser
from strandshift.errors import LimitExceeded
from strandshift.textio import format_element, parse_element, parse_graph, parse_loops

# (module, attribute, span name): nested calls timed where their caller finds them
NESTED = [
    (closed, "unordered_key", "closed.unordered_key"),
    (conjugacy, "solve_integer", "intlinalg.solve"),
    (conjugacy, "bfs_path", "semigroup.bfs_path"),
    (conjugacy, "reduce", "diagrams.reduce"),
    (diagrams, "reduce", "diagrams.reduce"),
    (diagrams, "canonical_key", "diagrams.canonical_key"),
]
# (module, attribute, counter name): calls counted without a span
COUNTED = [(diagrams, "apply_redex", "diagrams.redexes")]

SPAN_MS = [
    "closed.close", "closed.semi_reduce", "closed.probe", "closed.unordered_key",
    "diagrams.from_forest_pair", "diagrams.reduce", "diagrams.compose", "diagrams.canonical_key",
    "diagrams.to_forest_pair", "textio.parse", "textio.format", "conjugacy.step2",
    "intlinalg.solve", "semigroup.complete", "semigroup.decide", "semigroup.bfs_path",
    "conjugacy.witness",
]
# work counts; each repeats exactly between two traced runs of the same code
COUNTS = [
    "closed.similarity_states", "closed.semi_points", "closed.moves.shift-expand",
    "closed.moves.shift-reduce", "closed.moves.permute", "closed.moves.reduce",
    "diagrams.reduce_calls", "diagrams.redexes", "intlinalg.solve_calls", "semigroup.rules",
]
SPAN_COUNTS = {
    "closed.unordered_key": "closed.similarity_states",
    "diagrams.reduce": "diagrams.reduce_calls",
    "intlinalg.solve": "intlinalg.solve_calls",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None

    @contextmanager
    def span(self, name):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(i)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[i][2] = time.perf_counter_ns()

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counter(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in NESTED + COUNTED]
        for mod, attr, name in NESTED:
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))
        for mod, attr, name in COUNTED:
            setattr(mod, attr, self.counter(getattr(mod, attr), name))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_ms(self) -> Counter:
        """Summed self time per span name: duration minus time covered by children."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()
        for (name, start, end, _, _), c in zip(self.spans, child):
            total[name] += (end - start - c) / 1e6
        return total

    def op_ms(self) -> list:
        return [(end - start) / 1e6 for name, start, end, _, _ in self.spans if name == "op"]


# ---------------------------------------------------------------------------
# stage-by-stage commands; each returns the summary the CLI report is reduced to

def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _graph(t, args):
    with t.span("textio.parse"):
        return parse_graph(_read(args.graph))


def _element(t, g, base, path):
    with t.span("textio.parse"):
        fp = parse_element(_read(path), g, base)
    with t.span("diagrams.from_forest_pair"):
        return diagrams.from_forest_pair(g, fp)


def _element_out(t, g, d):
    r = diagrams.reduce(d)
    with t.span("diagrams.to_forest_pair"):
        fp = diagrams.to_forest_pair(g, r)
    with t.span("textio.format"):
        return format_element(fp)


def _analyze(t, d, budget):
    with t.span("closed.close"):
        c = closed.close(d)
    with t.span("closed.semi_reduce"):
        semi, moves = closed.semi_reduce(c, budget=budget, rng=None, probe=False)
    # the probe: one search at budget + 1; finding any reduction is the refusal
    with t.span("closed.probe"):
        _, unlocked = closed.semi_reduce(semi, budget=budget + 1, rng=None, probe=False)
    if unlocked:
        raise LimitExceeded("similarity-budget")
    part, loops = closed.decompose_parts(semi)
    t.counts["closed.semi_points"] += len(semi.point_color)
    t.counts.update(f"closed.moves.{m.kind}" for m in moves)
    return conjugacy.Analysis(c, semi, moves, part, loops)


def _is_conjugate(t, f, other, g, budget):
    if f.domain() != other.domain():
        return conjugacy.ConjugacyResult(False, 0, "signatures differ")
    a = _analyze(t, f, budget)
    b = _analyze(t, other, budget)
    with t.span("conjugacy.step2"):
        match = conjugacy.compare_split_merge(conjugacy.skeleton(a.part), conjugacy.skeleton(b.part))
    if match is None:
        return conjugacy.ConjugacyResult(False, 2, "", analyses=(a, b))
    if bool(a.loops) != bool(b.loops):
        return conjugacy.ConjugacyResult(False, 3, "", analyses=(a, b), match=match)
    if a.loops:
        n = max(semigroup.max_winding(a.loops), semigroup.max_winding(b.loops))
        pres = semigroup.presentation_from_graph(g, n)
        with t.span("semigroup.complete"):
            t.counts["semigroup.rules"] += len(semigroup.completed_rules(pres))
        with t.span("semigroup.decide"):
            same = semigroup.decide_equal(pres.vector(a.loops), pres.vector(b.loops), pres)
        if not same:
            return conjugacy.ConjugacyResult(False, 3, "", analyses=(a, b), match=match)
    return conjugacy.ConjugacyResult(True, None, "", analyses=(a, b), match=match)


def drive_conj(t, args):
    g, base = _graph(t, args)
    lhs = _element(t, g, base, args.lhs)
    rhs = _element(t, g, base, args.rhs)
    result = _is_conjugate(t, lhs, rhs, g, args.budget)
    witness = None
    if result.conjugate and args.witness:
        with t.span("conjugacy.witness"):
            w = conjugacy.conjugator_witness(lhs, rhs, result, g, semigroup_cap=args.semigroup_cap)
        if w is not None:
            witness = _element_out(t, g, w)
    steps = [m.kind for a in (result.analyses or ()) for m in a.trace]
    return ("conjugate" if result.conjugate else "not-conjugate", result.step_failed, witness, steps)


def drive_power(t, args):
    g, base = _graph(t, args)
    d = _element(t, g, base, args.elem)
    result = diagrams.identity_diagram(d.domain())
    step = d if args.n >= 0 else diagrams.invert(d)
    for _ in range(abs(args.n)):
        with t.span("diagrams.compose"):
            product = diagrams.compose(result, step)
        result = diagrams.reduce(product)
    return _element_out(t, g, result)


def drive_eq(t, args):
    g, base = _graph(t, args)
    lhs = _element(t, g, base, args.lhs)
    rhs = _element(t, g, base, args.rhs)
    with t.span("diagrams.equal"):
        return diagrams.equal(lhs, rhs)


def drive_semigroup_eq(t, args):
    g, _ = _graph(t, args)
    with t.span("textio.parse"):
        lhs, rhs = parse_loops(args.lhs, g.vertices), parse_loops(args.rhs, g.vertices)
    n = max(semigroup.max_winding(lhs), semigroup.max_winding(rhs))
    pres = semigroup.presentation_from_graph(g, n)
    with t.span("semigroup.complete"):
        t.counts["semigroup.rules"] += len(semigroup.completed_rules(pres))
    with t.span("semigroup.decide"):
        return semigroup.decide_equal(pres.vector(lhs), pres.vector(rhs), pres)


STAGED = {"conj": drive_conj, "power": drive_power, "eq": drive_eq, "semigroup-eq": drive_semigroup_eq}


def summarize(command, report):
    """The verdict-bearing part of a CLI `--json` report, comparable with a staged command's return."""
    if command == "conj":
        return (report["verdict"], report["step_failed"], report.get("witness"), report["steps"])
    if command == "power":
        return report["element"]
    return report["equal"]


def drive(t, op_id, argv):
    """Run one operation traced; returns ("ok", summary), ("refused", limit) or ("error", None)."""
    t.op = op_id
    try:
        with t.span("op"):
            args = build_parser().parse_args(argv)
            return "ok", STAGED[args.command](t, args)
    except LimitExceeded as exc:
        return "refused", exc.limit
    except Exception:  # compared with the CLI's exit 1 or escaped exception
        return "error", None
