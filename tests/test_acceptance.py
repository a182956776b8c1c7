"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

from naive_oracle import closure as oracle_closure
from naive_oracle import derived_coloring_sequential, neighbor_sets, solve as oracle_solve
from zeroforcing.cli import main as cli_main
from zeroforcing.families import cycle, path, supertriangle
from zeroforcing.forcing import derived_coloring, propagation_trace
from zeroforcing.graphs import mask_of, new_graph, vertices_of
from zeroforcing.solver import solve_report
from zeroforcing.verify import (
    check_named_parameters,
    check_product_bounds,
    exhaustive_small_graphs,
    has_hard_violations,
    replay_claim,
)


def _report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status} in {elapsed:.2f}s{suffix}")


def test_criterion_1_golden_traces():
    start = time.monotonic()
    failures = []

    t4 = propagation_trace(supertriangle(4), mask_of([0, 1, 3, 6]))
    if t4.pt != 4 or [vertices_of(m) for m in t4.forced_masks()] != [
        (2, 7), (4,), (5, 8), (9,),
    ]:
        failures.append(f"triangular grid trace: {t4}")
    if t4.rounds[1] != ((1, 4),):
        failures.append("tie rule: round 2 forcer should be vertex 1")

    c8 = propagation_trace(cycle(8), mask_of([0, 1]))
    if c8.pt != 3 or [vertices_of(m) for m in c8.forced_masks()] != [
        (2, 7), (3, 6), (4, 5),
    ]:
        failures.append(f"8-cycle trace: {c8}")

    p6 = propagation_trace(path(6), mask_of([0]))
    if p6.pt != 5 or [vertices_of(m) for m in p6.forced_masks()] != [
        (1,), (2,), (3,), (4,), (5,),
    ]:
        failures.append(f"6-path trace: {p6}")

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    _report("1 golden-traces", ok, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


def test_criterion_2_named_parameters():
    start = time.monotonic()
    results = check_named_parameters()
    hard_bad = [r for r in results if r.hard and r.verdict != "holds"]

    # the multipartite closed form is required except where the partition
    # describes a complete graph or a star, whose own closed forms differ;
    # those overlaps must be flagged, and nothing else
    expected_overlap_violations = {
        "multipartite(" + ",".join(["1"] * t) + ")" for t in range(2, 9)
    } | {f"multipartite({m},1)" for m in range(3, 8)}
    overlap = {
        r.instance
        for r in results
        if r.claim == "multipartite/star-or-complete-as-stated"
        and r.verdict == "violated"
    }
    elapsed = time.monotonic() - start
    ok = not hard_bad and overlap == expected_overlap_violations and elapsed < 120
    _report(
        "2 named-parameters",
        ok,
        elapsed,
        f"{len(results)} instances, {len(overlap)} documented overlap findings",
    )
    assert not hard_bad, hard_bad
    assert overlap == expected_overlap_violations
    assert elapsed < 120


def test_criterion_3_products_and_coronas():
    start = time.monotonic()
    results = check_product_bounds()
    hard_bad = [r for r in results if r.hard and r.verdict != "holds"]

    by_key = {(r.claim, r.instance): r for r in results}
    corona_cp = by_key[("corona/cycle-path-values", "corona(cycle(5),path(3))")]
    corona_pc = by_key[("corona/path-cycle-values", "corona(path(3),cycle(6))")]
    strong_checks = [
        r for r in results if r.claim == "product/strong-cycle-path"
    ]
    grid_checks = [r for r in results if r.claim == "product/strong-grid"]
    equality_checks = [r for r in results if r.claim == "gencorona/zc-equality"]

    elapsed = time.monotonic() - start
    ok = (
        not hard_bad
        and corona_cp.computed == {"z": 7, "z_c": 10}
        and corona_pc.computed == {"z": 7, "z_c": 9}
        and len(strong_checks) == 6
        and len(grid_checks) == 16
        and len(equality_checks) >= 3
        and elapsed < 600
    )
    _report("3 products-coronas", ok, elapsed, f"{len(results)} instances")
    assert not hard_bad, hard_bad
    assert corona_cp.computed == {"z": 7, "z_c": 10}
    assert corona_pc.computed == {"z": 7, "z_c": 9}
    assert len(strong_checks) == 6
    assert len(grid_checks) == 16
    assert len(equality_checks) >= 3
    assert elapsed < 600


def test_criterion_4_exhaustive_small_graphs():
    start = time.monotonic()
    results = exhaustive_small_graphs(6)
    summaries = {
        (r.claim, r.instance): r for r in results if r.instance.startswith("all-labeled")
    }
    problems = []
    for claim in ("order/z-le-zc", "path/four-equivalence"):
        for n in range(1, 7):
            row = summaries[(claim, f"all-labeled(n={n})")]
            if row.verdict != "holds":
                problems.append(f"{claim} n={n}: {row.computed}")

    findings = [r for r in results if not r.instance.startswith("all-labeled")]
    replay_mismatches = 0
    for r in findings:
        again = replay_claim(r)
        if again.verdict != r.verdict or again.computed != r.computed:
            replay_mismatches += 1

    elapsed = time.monotonic() - start
    ok = not problems and replay_mismatches == 0 and elapsed < 900
    _report(
        "4 exhaustive-n6",
        ok,
        elapsed,
        f"{len(findings)} shape findings, all replayed",
    )
    assert not problems, problems
    assert replay_mismatches == 0
    assert elapsed < 900


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    rnd = random.Random(20250808)
    probs = [0.2, 0.5, 0.8]
    mismatches = []
    for i in range(200):
        n = rnd.randint(1, 8)
        p = probs[i % 3]
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p
        ]
        g = new_graph(n, edges)
        rep = solve_report(g)
        got = {
            "z": rep.z,
            "z_c": rep.z_c,
            "pt": rep.pt_min,
            "PT": rep.pt_max,
            "pt_c": rep.ptc_min,
            "PT_c": rep.ptc_max,
        }
        want = oracle_solve(g)
        if got != want:
            mismatches.append((g.edges(), got, want))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 300
    _report("5 oracle-equivalence", ok, elapsed, "200 random graphs")
    assert not mismatches, mismatches[:3]
    assert elapsed < 300


def test_criterion_6_closure_order_independence():
    start = time.monotonic()
    rnd = random.Random(42424242)
    bad = 0
    for _ in range(500):
        n = rnd.randint(1, 9)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.4
        ]
        g = new_graph(n, edges)
        b = rnd.randrange(1 << n)
        simultaneous = derived_coloring(g, b)
        oracle = oracle_closure(neighbor_sets(g), vertices_of(b))
        if set(vertices_of(simultaneous)) != oracle:
            bad += 1
        for _ in range(10):
            if derived_coloring_sequential(g, b, rnd) != simultaneous:
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 60
    _report("6 closure-order-independence", ok, elapsed, "500 pairs x 10 orders")
    assert bad == 0
    assert elapsed < 60


def test_criterion_7_parallel_determinism(tmp_path, capsys):
    start = time.monotonic()
    out1 = tmp_path / "jobs1.json"
    out8 = tmp_path / "jobs8.json"
    code1 = cli_main(
        ["compute", "corona(cycle(5),path(3))", "--jobs", "1", "--out", str(out1)]
    )
    code8 = cli_main(
        ["compute", "corona(cycle(5),path(3))", "--jobs", "8", "--out", str(out8)]
    )
    b1 = out1.read_bytes()
    b8 = out8.read_bytes()
    elapsed = time.monotonic() - start
    ok = code1 == code8 == 0 and b1 == b8
    _report("7 parallel-determinism", ok, elapsed, f"{len(b1)} bytes")
    assert code1 == code8 == 0
    assert b1 == b8
    doc = json.loads(b1)
    assert doc["z"] == 7 and doc["z_c"] == 10
