"""Command-line front end.

Verbs: compute, trace, verify, enumerate, families.  Graphs come from a
DSL term (positional argument) or an edge-list file via --file (use '-'
for stdin).  Exit codes: 0 success, 1 violated hard claims, 2 input
errors, 3 budget exhaustion.  Every input error, malformed flags
included, goes to stderr as a JSON object ``{"error": ..., "message": ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dsl import ParseError, parse_graph_dsl
from .forcing import is_czfs, is_zfs, propagation_trace
from .graphs import Graph, GraphError, parse_edge_list, vertices_of
from .solver import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    SolverLimits,
    enumerate_min_czfs,
    enumerate_min_zfs,
    solve_report,
)
from .verify import csv_summary, has_hard_violations, run_suites

EXIT_OK = 0
EXIT_HARD_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


class SettingError(ValueError):
    """A flag or environment setting is malformed or out of range."""


class _Parser(argparse.ArgumentParser):
    """Raises SettingError where argparse would print usage and exit 2."""

    def error(self, message):
        raise SettingError(f"{self.prog}: {message}")


_FAMILY_HELP = [
    ("path(n)", "vertices 0..n-1 in path order (n >= 1)"),
    ("cycle(n)", "cyclic order 0..n-1, closing (n-1, 0) (n >= 3)"),
    ("complete(n)", "K_n (n >= 1)"),
    ("star(n)", "order n, vertex 0 is the center (n >= 2)"),
    ("wheel(n)", "order n, vertex 0 is the hub, 1..n-1 the rim (n >= 4)"),
    ("supertriangle(n)", "triangular grid, rows of 1..n vertices, row-major ids"),
    ("multipartite(s1,s2,...)", "complete multipartite, parts in consecutive blocks"),
    ("cartesian(A,B)", "Cartesian product, (u,v) -> u*|B|+v"),
    ("strong(A,B)", "strong product, (u,v) -> u*|B|+v"),
    ("corona(A,B)", "A's ids first, then one copy of B per vertex of A"),
    ("gencorona(A;B1,B2,...)", "per-vertex attachments, blocks in order"),
    ("pc(n1,...,nk)", "path v1..v_{k+2} (ids 0..k+1) plus k cycles; fresh u ids follow"),
    ("pc(...)[chords:c@j,...]", "extra edge u^c_j to v_{c+1} on cycle c"),
    ("vsum(A,v,B,w)", "identify vertex v of A with vertex w of B; A keeps its ids"),
]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(_json_text({"error": kind, "message": message}))
    return EXIT_INPUT_ERROR


def _load_graph(args) -> Graph:
    sources = [s for s in (args.graph, args.file) if s]
    if len(sources) != 1:
        raise GraphError("give exactly one input: a DSL term or --file PATH")
    if args.file == "-":
        return parse_edge_list(sys.stdin.read())
    if args.file:
        with open(args.file) as fh:
            return parse_edge_list(fh.read())
    return parse_graph_dsl(args.graph)


def _at_least(name: str, value: int, low: int) -> int:
    if value < low:
        raise SettingError(f"{name} must be at least {low}, got {value}")
    return value


def _budget(args) -> int:
    """``--budget`` if given, else ``ZF_BUDGET``, else the default."""
    if args.budget is not None:
        return _at_least("--budget", args.budget, 0)
    env = os.environ.get("ZF_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise SettingError(f"ZF_BUDGET must be an integer, got {env!r}") from None
    return _at_least("ZF_BUDGET", value, 0)


def _add_graph_input(sub):
    sub.add_argument("graph", nargs="?", help="family DSL term")
    sub.add_argument("--file", help="edge-list file path, '-' for stdin")
    sub.add_argument("--out", help="write the report to this path")


def _trace_table(g: Graph, trace) -> str:
    def names(mask):
        ids = vertices_of(mask)
        if g.labels:
            return ", ".join(g.labels[v] for v in ids)
        return ", ".join(str(v) for v in ids)

    lines = ["  t | newly black", f"  0 | {names(trace.initial)}"]
    for t, m in enumerate(trace.forced_masks(), start=1):
        lines.append(f"  {t} | {names(m)}")
    lines.append(f"pt = {trace.pt}" if trace.pt is not None else "pt = undefined (not a forcing set)")
    return "\n".join(lines) + "\n"


def _report_table(rep) -> str:
    d = rep.to_json_dict()
    lines = [f"n = {d['n']}", f"m = {d['m']}"]
    for key in ("z", "z_c", "pt", "PT", "pt_c", "PT_c"):
        lines.append(f"{key} = {d[key]}")
    lines.append(f"min ZFS count = {d['counts']['min_zfs']}")
    lines.append(f"min CZFS count = {d['counts']['min_czfs']}")
    return "\n".join(lines) + "\n"


def _cmd_compute(args) -> int:
    g = _load_graph(args)
    limits = SolverLimits(max_closures=_budget(args))
    # the solver runs in this process: --jobs is checked, then has no effect
    _at_least("--jobs", args.jobs, 1)
    rep = solve_report(g, limits=limits)
    if args.format == "table":
        _emit(_report_table(rep), args.out)
    else:
        _emit(_json_text(rep.to_json_dict()), args.out)
    return EXIT_BUDGET if rep.budget_exceeded else EXIT_OK


def _cmd_trace(args) -> int:
    g = _load_graph(args)
    try:
        seed = [int(tok) for tok in args.seed.split(",") if tok != ""]
    except ValueError:
        raise GraphError("--seed must be a comma-separated list of vertex ids") from None
    mask = 0
    for v in seed:
        if not 0 <= v < g.n:
            raise GraphError(f"seed vertex {v} outside 0..{g.n - 1}")
        mask |= 1 << v
    trace = propagation_trace(g, mask)
    if args.format == "table":
        _emit(_trace_table(g, trace), args.out)
    else:
        doc = {"n": g.n}
        doc.update(trace.to_json_dict())
        doc["is_zfs"] = is_zfs(g, mask)
        doc["is_czfs"] = is_czfs(g, mask)
        _emit(_json_text(doc), args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    g = _load_graph(args)
    limits = SolverLimits(max_closures=_budget(args))
    enumerate_min = enumerate_min_czfs if args.connected else enumerate_min_zfs
    lines = [",".join(map(str, vertices_of(m))) for m in enumerate_min(g, limits=limits)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suites(suite=args.suite, nmax=_at_least("--nmax", args.nmax, 1))
    if args.format == "csv":
        _emit(csv_summary(results), args.out)
    else:
        _emit(_json_text([r.to_json_dict() for r in results]), args.out)
    if any(r.verdict == "budget-exceeded" for r in results):
        return EXIT_BUDGET
    return EXIT_HARD_VIOLATION if has_hard_violations(results) else EXIT_OK


def _cmd_families(args) -> int:
    if args.format == "json":
        _emit(
            _json_text([{"form": f, "labeling": d} for f, d in _FAMILY_HELP]),
            args.out,
        )
    else:
        width = max(len(f) for f, _ in _FAMILY_HELP)
        lines = [f"{f.ljust(width)}  {d}" for f, d in _FAMILY_HELP]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zf", description="exact zero forcing toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute", help="compute all parameters of a graph")
    _add_graph_input(p)
    p.add_argument("--budget", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("trace", help="propagate from a seed set and print rounds")
    _add_graph_input(p)
    p.add_argument("--seed", required=True, help="comma-separated vertex ids")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("enumerate", help="stream all minimum (connected) forcing sets")
    _add_graph_input(p)
    p.add_argument("--connected", action="store_true", help="minimum connected sets")
    p.add_argument("--budget", type=int)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="machine-check the bundled claims")
    p.add_argument("--suite", choices=("named", "products", "exhaustive", "all"), default="all")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("families", help="list the DSL grammar and labeling contracts")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_families)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ParseError, GraphError, SettingError) as exc:
        return _fail(type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail("IOError", str(exc))
    except BudgetExceeded as exc:
        sys.stderr.write(
            _json_text(
                {"error": "BudgetExceeded", "message": str(exc), "closures": exc.closures}
            )
        )
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
