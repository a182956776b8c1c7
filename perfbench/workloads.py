"""Workloads of the benchmark: their operations, inputs and output checks.

Every operation is one ``zf`` command line, run through
``zeroforcing.cli.main``.  Its check compares the output byte for byte with
a committed golden, or, for the seeded random instances, replays every
witness through the package's public calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("compute", "catalog", "exhaustive", "compute-jobs2")

# (instance id, DSL term).  strong(cycle(6),path(4)) is left out: its Z scan
# alone takes about 50 s.
FROZEN = (
    ("corona_c5_p3", "corona(cycle(5),path(3))"),
    ("cartesian_c4_c5", "cartesian(cycle(4),cycle(5))"),
    ("strong_c5_p4", "strong(cycle(5),path(4))"),
    ("supertriangle_5", "supertriangle(5)"),
    ("supertriangle_6", "supertriangle(6)"),
    ("corona_p4_c3", "corona(path(4),cycle(3))"),
    ("strong_c5_p3", "strong(cycle(5),path(3))"),
)
POOL_INSTANCES = ("strong_c5_p4", "cartesian_c4_c5")
VERIFY_RUNS = {
    "catalog": (
        ("named", ("verify", "--suite", "named")),
        ("products", ("verify", "--suite", "products")),
    ),
    "exhaustive": (("exhaustive-6", ("verify", "--suite", "exhaustive", "--nmax", "6")),),
}

# The random instances are four connected G(20, 0.25) graphs drawn once by
# rejection sampling from a fixed seed; the workload seed relabels their
# vertices.  Drawing fresh graphs per seed moves Z between 5 and 10 and the
# compute wall time by a quarter from seed to seed, while a relabeling keeps
# the work (every level is scanned in full) and changes every witness.
RANDOM_COUNT = 4
RANDOM_N = 20
RANDOM_P = 0.25
RANDOM_DRAW_SEED = 1702


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in nbrs[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def random_base_graphs() -> list[list[tuple[int, int]]]:
    rng = random.Random(RANDOM_DRAW_SEED)
    out = []
    while len(out) < RANDOM_COUNT:
        edges = [
            (u, v)
            for u in range(RANDOM_N)
            for v in range(u + 1, RANDOM_N)
            if rng.random() < RANDOM_P
        ]
        if _connected(RANDOM_N, edges):
            out.append(edges)
    return out


def random_instances(seed: int) -> list[tuple[str, list[tuple[int, int]]]]:
    """(instance id, edges) of each base graph under the seed's relabeling."""
    rng = random.Random(seed)
    out = []
    for i, edges in enumerate(random_base_graphs()):
        perm = list(range(RANDOM_N))
        rng.shuffle(perm)
        relabeled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        out.append((f"gnp20_{i}", relabeled))
    return out


def edge_list_text(n: int, edges) -> str:
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in edges])


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def golden_check(expected: str):
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if out != expected:
            return "output differs from the golden"
        return None

    return check


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


INVARIANT_KEYS = ("n", "m", "z", "z_c", "pt", "PT", "pt_c", "PT_c", "counts", "budget")


def replay_check(zf, n: int, edges, expected: dict):
    """Check a compute report by replaying its witnesses through public calls.

    ``expected`` holds the label-invariant fields of the report.
    """

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        rep = json.loads(out)
        for key in INVARIANT_KEYS:
            if rep[key] != expected[key]:
                return f"{key} is {rep[key]}, expected {expected[key]}"
        g = zf.new_graph(n, edges)
        wit = rep["witnesses"]
        for key, size, forcing_test in (
            ("z", rep["z"], zf.is_zfs),
            ("z_c", rep["z_c"], zf.is_czfs),
            ("pt", rep["z"], zf.is_zfs),
            ("PT", rep["z"], zf.is_zfs),
            ("pt_c", rep["z_c"], zf.is_czfs),
            ("PT_c", rep["z_c"], zf.is_czfs),
        ):
            m = _mask(wit[key])
            if len(wit[key]) != size or not forcing_test(g, m):
                return f"witness {key} is not a forcing set of size {size}"
            trace = zf.propagation_trace(g, m)
            if not zf.replay_trace(g, trace):
                return f"trace of witness {key} does not replay"
            if key not in ("z", "z_c") and zf.propagation_time(g, m) != rep[key]:
                return f"witness {key} re-measures to {zf.propagation_time(g, m)}"
        return None

    return check


def compute_ops(ids, jobs: int) -> list[Op]:
    terms = dict(FROZEN)
    return [
        Op(
            i,
            ("compute", terms[i], "--jobs", str(jobs)),
            golden_check(golden_text(f"compute/{i}.json")),
        )
        for i in ids
    ]


def build_ops(workload: str, seed: int, workdir: Path, zf) -> list[Op]:
    """The operations of one pass; writes the seeded edge-list files."""
    if workload == "compute":
        ops = compute_ops([i for i, _ in FROZEN], jobs=1)
        expected = json.loads(golden_text("random.json"))
        for inst, edges in random_instances(seed):
            path = workdir / f"{inst}.txt"
            path.write_text(edge_list_text(RANDOM_N, edges))
            ops.append(
                Op(
                    inst,
                    ("compute", "--file", str(path), "--jobs", "1"),
                    replay_check(zf, RANDOM_N, edges, expected[inst]),
                )
            )
        return ops
    if workload == "compute-jobs2":
        return compute_ops(POOL_INSTANCES, jobs=2)
    return [
        Op(name, argv, golden_check(golden_text(f"verify-{name}.json")))
        for name, argv in VERIFY_RUNS[workload]
    ]
