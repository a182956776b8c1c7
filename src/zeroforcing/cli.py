"""Command-line front end.

Verbs: compute, trace, verify, enumerate, families.  Graphs come from a
DSL term (positional argument) or an edge-list file via --file (use '-'
for stdin).  Exit codes: 0 success, 1 violated hard claims, 2 input
errors, 3 budget exhaustion.  Every input error, malformed flags
included, goes to stderr as a JSON object ``{"error": ..., "message": ...}``.
So does an exhausted ``enumerate``, whose object also carries ``closures``
and the search's lower bound; ``compute`` says so in its report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import cache
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .dsl import FAMILIES, ParseError, parse_graph_dsl
from .forcing import propagation_trace
from .graphs import Graph, GraphError, ascii_int, parse_edge_list, vertices_of
from .graphs import is_connected_in_components
from .solver import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    enumerate_min_czfs,
    enumerate_min_zfs,
    solve_report,
)
from .verify import _NMAX_LIMIT, SUITES, csv_summary, has_hard_violations, run_suites

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


def _dumps(obj, newline: str = "\n") -> str:
    """A verify row template as ``json.dumps(obj, indent=2)`` writes it, byte
    for byte, nested where ``newline`` (a newline and the indent) starts a line.

    It serves the row templates only: string-keyed dicts, lists, str, int,
    bool, None and ``_Slot``, which ``json`` cannot write.  It writes each
    value with one call; ``json`` with an indent takes one step per token.
    """
    return _WRITERS[type(obj)](obj, newline)


def _dumps_list(items, newline: str) -> str:
    inner = newline + "  "
    parts = [_dumps(item, inner) for item in items]
    return "[" + inner + ("," + inner).join(parts) + newline + "]" if parts else "[]"


def _dumps_dict(obj, newline: str) -> str:
    inner = newline + "  "
    parts = [_encode_str(key) + ": " + _dumps(value, inner) for key, value in obj.items()]
    return "{" + inner + ("," + inner).join(parts) + newline + "}" if parts else "{}"


class _Slot:
    """Stands for a row's own instance in the text its group shares.  It is
    written as a raw NUL, which no written value holds: every string is
    written escaped to ASCII."""


# writer by exact type
_WRITERS = {
    _Slot: lambda _, __: "\0",
    str: lambda text, _: _encode_str(text),
    int: lambda number, _: int.__repr__(number),
    bool: lambda flag, _: "true" if flag else "false",
    type(None): lambda _, __: "null",
    list: _dumps_list,
    dict: _dumps_dict,
}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text, out_path: str | None):
    """Write ``text``, a string or an iterable of strings, to ``out_path`` or
    stdout.  A reader that closes stdout early ends the writing quietly."""
    chunks = (text,) if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output is unwanted; stdout's buffer still holds
        # some, so point it at devnull for the flush at interpreter shutdown
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_rows(rows):
    """``_json_text`` of the rows' JSON dicts, written one row at a time.

    Rows that differ only in ``instance`` form a group, which is encoded
    once: its first row builds the group's text with a ``_Slot`` for the
    instance, and every row puts its own encoded instance into each slot.
    A group compares ``expected`` and ``computed`` by identity, as the
    exhaustive suite's findings share their claim's ``expected`` dict and
    their class's ``computed`` dict; ``rows`` keeps every dict alive while
    the rows are written, so no two of them share an ``id``.
    """
    if not rows:
        yield _json_text([])
        return
    templates = {}
    yield "[\n  "
    sep = ""
    for row in rows:
        key = row.claim, row.relation, id(row.expected), id(row.computed), row.verdict, row.hard
        template = templates.get(key)
        if template is None:
            slotted = replace(row, instance=_Slot()).to_json_dict()
            template = templates[key] = _dumps(slotted, "\n  ").split("\0")
        yield sep + _dumps(row.instance).join(template)
        sep = ",\n  "
    yield "\n]\n"


def _fail(kind: str, message: str, code: int = EXIT_INPUT_ERROR, **fields) -> int:
    """Write the one error object of this run to stderr; return ``code``."""
    sys.stderr.write(_json_text({"error": kind, "message": message, **fields}))
    return code


def _load_graph(args) -> Graph:
    sources = [s for s in (args.graph, args.file) if s]
    if len(sources) != 1:
        raise GraphError("give exactly one input: a DSL term or --file PATH")
    if not args.file:
        return parse_graph_dsl(args.graph)
    try:
        text = sys.stdin.read() if args.file == "-" else Path(args.file).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"{args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_edge_list(text)


def _in_range(name: str, value: int, low: int, high: int | None = None) -> int:
    if value < low:
        raise SettingError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise SettingError(f"{name} must be at most {high}, got {value}")
    return value


def _budget(args) -> int:
    """``--budget`` if given, else ``ZF_BUDGET``, else the default."""
    if args.budget is not None:
        return _in_range("--budget", args.budget, 0)
    env = os.environ.get("ZF_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = ascii_int(env)
    except ValueError:
        raise SettingError(f"ZF_BUDGET must be an integer, got {env!r}") from None
    return _in_range("ZF_BUDGET", value, 0)


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
    """The report's values, "unknown" where null; an exhausted budget adds
    the closures spent and the lower bounds it reached."""
    d = rep.to_json_dict()
    rows = [(key, d[key]) for key in ("n", "m", "z", "z_c", "pt", "PT", "pt_c", "PT_c")]
    rows += [("min ZFS count", d["counts"]["min_zfs"]), ("min CZFS count", d["counts"]["min_czfs"])]
    lines = [f"{name} = {'unknown' if value is None else value}" for name, value in rows]
    if rep.budget_exceeded:
        lines.append(f"budget exhausted after {rep.closures} closures")
        lines += [f"{key.removesuffix('_lower_bound')} >= {k}" for key, k in rep.lower_bounds.items()]
    return "\n".join(lines) + "\n"


def _cmd_compute(args) -> int:
    g = _load_graph(args)
    budget = _budget(args)
    # the solver runs in this process: --jobs is checked, then has no effect
    _in_range("--jobs", args.jobs, 1)
    rep = solve_report(g, budget)
    if args.format == "table":
        _emit(_report_table(rep), args.out)
    else:
        _emit(_json_text(rep.to_json_dict()), args.out)
    return EXIT_BUDGET if rep.budget_exceeded else EXIT_OK


def _cmd_trace(args) -> int:
    g = _load_graph(args)
    try:
        seed = [ascii_int(tok) for tok in args.seed.split(",")]
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
        doc["is_zfs"] = trace.pt is not None
        doc["is_czfs"] = doc["is_zfs"] and is_connected_in_components(g, mask)
        _emit(_json_text(doc), args.out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    g = _load_graph(args)
    enumerate_min = enumerate_min_czfs if args.connected else enumerate_min_zfs
    # the search runs at the call, so an exhausted budget opens no --out file
    sets = enumerate_min(g, budget=_budget(args))
    _emit((",".join(map(str, vertices_of(m))) + "\n" for m in sets), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suites(suite=args.suite, nmax=_in_range("--nmax", args.nmax, 1, _NMAX_LIMIT))
    if args.format == "csv":
        _emit(csv_summary(results), args.out)
    else:
        _emit(_json_rows(results), args.out)
    if any(r.verdict == "budget-exceeded" for r in results):
        return EXIT_BUDGET
    return EXIT_HARD_VIOLATION if has_hard_violations(results) else EXIT_OK


def _cmd_families(args) -> int:
    rows = [row for _, _, help_rows in FAMILIES.values() for row in help_rows]
    if args.format == "json":
        _emit(_json_text([{"form": f, "labeling": d} for f, d in rows]), args.out)
    else:
        width = max(len(f) for f, _ in rows)
        _emit("".join(f"{f.ljust(width)}  {d}\n" for f, d in rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zf", description="exact zero forcing toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute", help="compute all parameters of a graph")
    _add_graph_input(p)
    p.add_argument("--budget", type=ascii_int)
    p.add_argument("--jobs", type=ascii_int, default=1)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("trace", help="propagate from a seed set and print rounds")
    _add_graph_input(p)
    p.add_argument("--seed", required=True, help="one or more comma-separated vertex ids")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("enumerate", help="stream all minimum (connected) forcing sets")
    _add_graph_input(p)
    p.add_argument("--connected", action="store_true", help="minimum connected sets")
    p.add_argument("--budget", type=ascii_int)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="machine-check the bundled claims")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--nmax", type=ascii_int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("families", help="list the DSL grammar and labeling contracts")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_families)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` keeps no state in it,
    and building it costs about twenty times a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except (ParseError, GraphError, SettingError) as exc:
        return _fail(type(exc).__name__, str(exc))
    except OSError as exc:
        return _fail("IOError", str(exc))
    except BudgetExceeded as exc:
        return _fail("BudgetExceeded", str(exc), EXIT_BUDGET, closures=exc.closures, **exc.best_known)


if __name__ == "__main__":
    raise SystemExit(main())
