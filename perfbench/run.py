"""Benchmark of the zeroforcing package.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 25 --trace 0

Runs one workload (or ``all``) from the root of a checkout.  Every pass runs
in a fresh Python process (``passrun.py``) and is checked against the
committed goldens or by witness replay.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  Exits with 2, without
a result, when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "zeroforcing"
WORKLOADS = ("compute", "catalog", "exhaustive", "compute-jobs2")

SETUP_PROBES = 5  # set-up-only processes per run, on top of one set-up per pass
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
           "--spawned"]
    cmd.append(repr(time.monotonic()))
    # a session of its own, so a timeout also stops the pass's pool workers
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} pass of {workload} took over {CHILD_TIMEOUT_S} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} pass of {workload} exited with {proc.returncode}:\n{stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.startswith("loc."):
        return "lines"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("speedup", "overhead_frac")):
        return "ratio"
    return "count"


def loc_metrics() -> dict:
    """Non-blank lines of each package module and in total."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        out[f"loc.{path.stem}"] = sum(1 for line in path.read_text().splitlines() if line.strip())
    out["loc.total"] = sum(out.values())
    return out


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced run: set-up probes, then passes until ``seconds`` have passed."""
    setups = [spawn("setup", workload, seed, workdir)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(spawn("pass", workload, seed, workdir))
    setups += [p["setup_s"] for p in passes]
    metrics = {
        name: statistics.median(p[name] for p in passes)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"{workload} (seed {seed}): {len(passes)} passes, {len(setups)} set-ups")
    for name, unit in END_TO_END_UNITS.items():
        samples = setups if name == "setup_s" else [p[name] for p in passes]
        shown = ", ".join(f"{v:.4g}" for v in samples)
        print(f"  {name:<12} {metrics[name]:10.4f} {unit:<3} median of {shown}")
    print(f"  {'failed_frac':<12} {len(failures) / attempted:10.4f}     "
          f"{len(failures)} of {attempted} operations")
    for f in failures:
        print(f"  FAILED {f}")
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def traced(workload: str, seed: int, workdir: Path) -> dict:
    """Traced run: one traced pass of every workload, each scoping the
    per-layer metrics of the layers it exercises, plus one untraced pass
    of ``workload`` for the tracing overhead."""
    runs = {}
    for w in WORKLOADS:
        runs[w] = spawn("traced", w, seed, workdir)
        if w == workload:  # right after, so both see the same machine load
            plain = spawn("pass", workload, seed, workdir)
    layers, missing = {}, []
    for r in runs.values():
        layers.update(r["layers"])
        missing += r["missing"]
    if "cli.main" not in missing:
        layers["cli.self_s"] = sum(r["cli_self_s"] for r in runs.values())
    layers.update(loc_metrics())
    layers["trace.overhead_frac"] = runs[workload]["wall_s"] / plain["wall_s"]
    everything = list(runs.values()) + [plain]
    failures = [f for r in everything for f in r["failures"]]
    attempted = sum(r["attempted"] for r in everything)
    print(f"traced run (seed {seed}), overhead against an untraced {workload} pass")
    for name in sorted(layers):
        print(f"  {name:<48} {layers[name]:16.6f} {unit_of(name)}")
    for name in sorted(set(missing)):
        print(f"  MISSING {name}: its entry point no longer exists")
    for f in failures:
        print(f"  FAILED {f}")
    return {"attempted": attempted, "failed": len(failures), "metrics": layers}


def result_line(res: dict, units) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in res["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zeroforcing benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package to measure at {PACKAGE}", file=sys.stderr)
        return 2
    if args.trace and args.workload == "all":
        parser.error("--trace 1 needs one workload, whose untraced pass gives the overhead")
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        if args.trace:
            res = traced(args.workload, args.seed, workdir)
            print(result_line(res, unit_of))
            return 0
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: measure(w, args.seed, args.seconds, workdir) for w in chosen}
        if args.workload == "all":
            res = {
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
            print(result_line(res, lambda k: END_TO_END_UNITS[k.rsplit(".", 1)[1]]))
        else:
            print(result_line(results[args.workload], END_TO_END_UNITS.get))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
