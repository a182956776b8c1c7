"""One pass of one workload, in a fresh process; prints one JSON line.

Started by ``run.py``; the modes are

- ``setup``: import the package, build the inputs, load the goldens, stop;
- ``pass``: set up, then run the workload's operations untraced;
- ``traced``: set up, wrap the package's entry points in spans, run the
  operations, then the workload's layer probes.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute, span name) of every entry point the traced run wraps
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("verify", "run_suites", "verify.run_suites"),
    ("dsl", "parse_graph_dsl", "dsl.parse_graph_dsl"),
    ("graphs", "parse_edge_list", "graphs.parse_edge_list"),
    ("graphs", "new_graph", "graphs.new_graph"),
    ("graphs", "are_isomorphic", "graphs.are_isomorphic"),
    ("solver", "solve_report", "solver.solve_report"),
    ("solver", "zero_forcing_number", "solver.zero_forcing_number"),
    ("solver", "connected_zero_forcing_number", "solver.connected_zero_forcing_number"),
    ("recognize", "recognize_extremal_form", "recognize.recognize_extremal_form"),
    ("recognize", "min_extremal_spec", "recognize.min_extremal_spec"),
)

# Per-layer metrics read straight off the spans of one workload's traced
# pass: metric -> (span name, summary field).
SPAN_METRICS = {
    "catalog": {
        "solver.zero_forcing_number.calls": ("solver.zero_forcing_number", "calls"),
        "solver.zero_forcing_number.s": ("solver.zero_forcing_number", "s"),
        "solver.connected_zero_forcing_number.calls": ("solver.connected_zero_forcing_number", "calls"),
        "solver.connected_zero_forcing_number.s": ("solver.connected_zero_forcing_number", "s"),
        "dsl.parse_graph_dsl.calls": ("dsl.parse_graph_dsl", "calls"),
        "dsl.parse_graph_dsl.s": ("dsl.parse_graph_dsl", "s"),
    },
    "exhaustive": {
        "solver.solve_report.calls": ("solver.solve_report", "calls"),
        "solver.solve_report.s": ("solver.solve_report", "s"),
        "graphs.are_isomorphic.calls": ("graphs.are_isomorphic", "calls"),
        "graphs.are_isomorphic.s": ("graphs.are_isomorphic", "s"),
        "recognize.recognize_extremal_form.calls": ("recognize.recognize_extremal_form", "calls"),
        "recognize.recognize_extremal_form.self_s": ("recognize.recognize_extremal_form", "self_s"),
        "recognize.min_extremal_spec.calls": ("recognize.min_extremal_spec", "calls"),
        "recognize.min_extremal_spec.self_s": ("recognize.min_extremal_spec", "self_s"),
        "graphs.new_graph.calls": ("graphs.new_graph", "calls"),
        "graphs.new_graph.s": ("graphs.new_graph", "s"),
        "verify.self_s": ("verify.run_suites", "self_s"),
    },
}

KERNEL_SAMPLE = 3000  # level-Z masks per compute instance for the closure rate


def import_package():
    """Import the checkout's package, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import zeroforcing
    import zeroforcing.cli

    if not Path(zeroforcing.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"zeroforcing was imported from {zeroforcing.__file__}, not {SRC}")
    return zeroforcing


def cpu_times() -> tuple[float, float]:
    """(this process, its waited-for children) user plus system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def run_ops(main, ops):
    """Run the operations back to back through ``main``.

    Returns ([(exit code or error text, stdout)], wall s, own CPU s, worker CPU s).
    """
    outputs = []
    own0, kids0 = cpu_times()
    start = time.perf_counter()
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(list(op.argv))
            except (Exception, SystemExit) as exc:
                rc = f"raised {type(exc).__name__}: {exc}"
        outputs.append((rc, out.getvalue()))
    wall = time.perf_counter() - start
    own1, kids1 = cpu_times()
    return outputs, wall, own1 - own0, kids1 - kids0


def check_ops(ops, outputs) -> list[str]:
    failures = []
    for op, (rc, out) in zip(ops, outputs):
        if isinstance(rc, str):
            err = rc
        else:
            try:
                err = op.check(rc, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"{op.id}: {err}")
    return failures


def span_metrics(tracer: Tracer, table: dict) -> dict:
    """Metrics read off the spans; None where the entry point is missing."""
    summary = tracer.summary()
    out = {}
    for metric, (span, field) in table.items():
        if span in tracer.missing:
            out[metric] = None
        else:
            out[metric] = summary.get(span, {}).get(field, 0)
    return out


def _graph(zf, op):
    if "--file" in op.argv:
        return zf.parse_edge_list(Path(op.argv[op.argv.index("--file") + 1]).read_text())
    return zf.dsl.parse_graph_dsl(op.argv[1])


PHASE_METRICS = tuple(
    f"solver.phase.{p}"
    for p in ("z_s", "z_level_s", "pt_s", "pt_evals", "zc_s", "zc_level_s", "ptc_s", "ptc_evals")
) + (
    "solver.candidates_connected.sets",
    "solver.candidates_connected.s",
    "forcing.derived_coloring.per_s",
    "forcing.propagation_time.per_s",
)


def compute_probes(zf, tracer: Tracer, ops, outputs, seed: int):
    """Phase decomposition, connected candidates and closure-kernel rate on
    every compute instance, cross-checked against the reports of the pass.

    One public call per phase: the value (``z``), draining the minimum-set
    enumeration (``z_level``, whose inner value call is a child span) and
    propagation time over every minimum set (``pt``); then the same for
    connected sets.  Returns (metrics, failures).
    """
    solver, forcing = zf.solver, zf.forcing
    kinds = (
        ("z", "zero_forcing_number", "enumerate_min_zfs", "min_zfs", "pt", "PT"),
        ("zc", "connected_zero_forcing_number", "enumerate_min_czfs", "min_czfs", "pt_c", "PT_c"),
    )
    needed = [(solver, k[1]) for k in kinds] + [(solver, k[2]) for k in kinds] + [
        (solver, "connected_in_components_sets"),
        (forcing, "propagation_time"),
        (forcing, "derived_coloring"),
    ]
    absent = [
        f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}" for mod, attr in needed if not hasattr(mod, attr)
    ]
    if absent:
        tracer.missing.extend(absent)
        return dict.fromkeys(PHASE_METRICS), []
    rng = random.Random(seed)
    failures = []
    evals = {"z": 0, "zc": 0}
    sets = kernel_calls = 0
    for op, (_, out) in zip(ops, outputs):
        rep = json.loads(out)
        g = _graph(zf, op)
        for kind, number, enumerate_, count_key, lo_key, hi_key in kinds:
            with tracer.span(f"solver.phase.{kind}"):
                k, _ = getattr(solver, number)(g)
            with tracer.span(f"solver.phase.{kind}_level"):
                minimum = list(getattr(solver, enumerate_)(g, k))
            with tracer.span(f"solver.phase.pt{kind[1:]}"):
                pts = [forcing.propagation_time(g, m) for m in minimum]
            evals[kind] += len(minimum)
            seen = (len(minimum), min(pts), max(pts))
            want = (rep["counts"][count_key], rep[lo_key], rep[hi_key])
            if seen != want:
                failures.append(
                    f"{op.id}: enumerated {kind} sets give (count, min pt, max pt) "
                    f"{seen}, the report {want}"
                )
        with tracer.span("solver.candidates_connected"):
            sets += len(solver.connected_in_components_sets(g, rep["z_c"]))
        masks = []
        for _ in range(KERNEL_SAMPLE):
            m = 0
            for v in rng.sample(range(g.n), rep["z"]):
                m |= 1 << v
            masks.append(m)
        with tracer.span("forcing.derived_coloring"):
            for m in masks:
                forcing.derived_coloring(g, m)
        kernel_calls += len(masks)
    s = tracer.summary()
    metrics = {}
    for kind in evals:
        metrics[f"solver.phase.{kind}_s"] = s[f"solver.phase.{kind}"]["s"]
        metrics[f"solver.phase.{kind}_level_s"] = s[f"solver.phase.{kind}_level"]["self_s"]
        metrics[f"solver.phase.pt{kind[1:]}_s"] = s[f"solver.phase.pt{kind[1:]}"]["s"]
        metrics[f"solver.phase.pt{kind[1:]}_evals"] = evals[kind]
    metrics["solver.candidates_connected.sets"] = sets
    metrics["solver.candidates_connected.s"] = s["solver.candidates_connected"]["s"]
    metrics["forcing.derived_coloring.per_s"] = kernel_calls / s["forcing.derived_coloring"]["s"]
    metrics["forcing.propagation_time.per_s"] = (evals["z"] + evals["zc"]) / (
        s["solver.phase.pt"]["s"] + s["solver.phase.ptc"]["s"]
    )
    return metrics, failures


def traced_layers(zf, tracer, workload, seed, ops, outputs, wall, own_cpu, worker_cpu):
    """Per-layer metrics of one workload's traced pass and its probes.

    Returns (metrics, probe operations attempted, probe failures); a metric
    is None when an entry point it needs no longer exists.
    """
    metrics = span_metrics(tracer, SPAN_METRICS.get(workload, {}))
    attempted, failures = 0, []
    if workload == "compute":
        for op, t in zip(ops, tracer.durations("cli.main")):
            metrics[f"cli.compute.{op.id}_s"] = t
        closures = sum(json.loads(out)["budget"]["closures"] for _, out in outputs)
        report_s = tracer.summary().get("solver.solve_report", {}).get("s")
        metrics["solver.closures"] = closures
        metrics["solver.closures_per_s"] = closures / report_s if report_s else None
        probe, failures = compute_probes(zf, tracer, ops, outputs, seed)
        metrics.update(probe)
        attempted = len(ops)
    elif workload == "exhaustive":
        walls = tracer.durations("solver.solve_report")
        known = "solver.solve_report" not in tracer.missing
        metrics["solver.solve_report.p50_ms"] = statistics.median(walls) * 1e3 if known else None
        metrics["solver.solve_report.p99_ms"] = (
            statistics.quantiles(walls, n=100)[98] * 1e3 if known else None
        )
        metrics["verify.rows"] = sum(len(json.loads(out)) for _, out in outputs)
    elif workload == "compute-jobs2":
        serial = workloads.compute_ops(workloads.POOL_INSTANCES, jobs=1)
        serial_out, serial_wall, _, _ = run_ops(zf.cli.main, serial)
        failures = check_ops(serial, serial_out)
        attempted = len(serial)
        metrics["solver.pool.speedup"] = serial_wall / wall
        metrics["solver.pool.parent_cpu_s"] = own_cpu
        metrics["solver.pool.worker_cpu_s"] = worker_cpu
    return metrics, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    zf = import_package()
    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build_ops(args.workload, args.seed, args.workdir, zf)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode != "setup":
        tracer = Tracer() if args.mode == "traced" else None
        if tracer is not None:
            for module, attr, span in ENTRY_POINTS:
                tracer.instrument(getattr(zf, module), attr, span)
        outputs, wall, own_cpu, worker_cpu = run_ops(zf.cli.main, ops)
        result["peak_rss_mb"] = peak_rss_mb()
        failures = check_ops(ops, outputs)
        result.update(wall_s=wall, cpu_s=own_cpu + worker_cpu, attempted=len(ops))
        if tracer is not None:
            layers, attempted, more = {}, 0, []
            if not failures:  # probes read the reports, so they need a clean pass
                layers, attempted, more = traced_layers(
                    zf, tracer, args.workload, args.seed, ops, outputs, wall, own_cpu, worker_cpu
                )
            result["attempted"] += attempted
            failures += more
            result["cli_self_s"] = tracer.summary().get("cli.main", {}).get("self_s")
            result["layers"] = {k: v for k, v in layers.items() if v is not None}
            result["missing"] = sorted(
                set(tracer.missing) | {k for k, v in layers.items() if v is None}
            )
        result["failures"] = failures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
