"""Regenerate the benchmark's goldens from the package in this checkout.

    python3 perfbench/make_goldens.py

Writes the exact ``zf compute`` output of every frozen instance, the exact
``zf verify`` output of the catalog and exhaustive runs, and the
label-invariant fields of the random instances' reports.  Run it only in a
change that alters output on purpose, and commit the result as a change of
its own to the benchmark.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads
from passrun import import_package, run_ops


def main():
    zf = import_package()
    golden = workloads.GOLDEN
    (golden / "compute").mkdir(parents=True, exist_ok=True)
    jobs = [
        (f"compute/{i}.json", ("compute", term, "--jobs", "1")) for i, term in workloads.FROZEN
    ] + [
        (f"verify-{name}.json", argv)
        for runs in workloads.VERIFY_RUNS.values()
        for name, argv in runs
    ]
    scratch = golden.parent.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for i, edges in enumerate(workloads.random_base_graphs()):
            path = Path(tmp) / f"gnp20_{i}.txt"
            path.write_text(workloads.edge_list_text(workloads.RANDOM_N, edges))
            jobs.append((f"gnp20_{i}", ("compute", "--file", str(path), "--jobs", "1")))
        ops = [workloads.Op(name, argv, None) for name, argv in jobs]
        outputs, _, _, _ = run_ops(zf.cli.main, ops)
    invariants = {}
    for op, (rc, out) in zip(ops, outputs):
        if rc != 0:
            raise SystemExit(f"{op.id}: exit code {rc}")
        if op.id.startswith("gnp20_"):
            rep = json.loads(out)
            invariants[op.id] = {k: rep[k] for k in workloads.INVARIANT_KEYS}
        else:
            (golden / op.id).write_text(out)
        print(f"wrote {op.id}")
    (golden / "random.json").write_text(json.dumps(invariants, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
