"""Gates of the drain proof: a search that drains its minimum all-sets level
closes the greedy level U first and proves U minimum from its own hits.

A (U - 1)-set that forces makes each of its one-vertex extensions force, so
only the (U - 1)-sets whose every extension is a hit of level U can force.
``_survivors`` finds them from level U's hit bitmap; it must equal a
brute-force comprehension, in stream order, on random bitmaps and on the
hits of real levels joined from runs of every width.  On a graph whose
greedy bound is exact, each draining query closes every run of level Z and
no set of any other all-sets level, and charges what the climbing search
charges.  Where the bound exceeds Z, a survivor forces, and the step falls
back to probing; the drain of level Z then resumes the probe's stream.
"""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zeroforcing.solver as solver
from test_level_stream import gnp, kernel_log, random_graph
from zeroforcing.dsl import parse_graph_dsl
from zeroforcing.forcing import is_zfs
from zeroforcing.graphs import mask_of
from zeroforcing.solver import enumerate_min_zfs, propagation_extrema, solve_report


def level(n, k):
    return [mask_of(c) for c in combinations(range(n), k)]


def brute_survivors(n, k, hit):
    """The k-sets of range(n), lexicographic, whose extensions are all in ``hit``."""
    return [m for m in level(n, k) if all(m | 1 << v in hit for v in range(n) if not m >> v & 1)]


@given(st.data())
def test_survivors_match_brute_force(data):
    """Random bitmaps over the (k + 1)-sets, from empty to full, for every
    k below n <= 9."""
    n = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(0, n - 1))
    density = data.draw(st.sampled_from([0.0, 0.5, 0.9, 0.98, 1.0]))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    above = level(n, k + 1)
    hits = sum(1 << i for i in range(len(above)) if rnd.random() < density)
    hit = {m for i, m in enumerate(above) if hits >> i & 1}
    assert list(solver._survivors(n, k, hits)) == brute_survivors(n, k, hit)


def test_survivors_of_real_levels(stream_setting):
    """Every level of seeded graphs of order 7-9: the hits joined from the
    stream's runs mark the forcing sets, and the survivors of the level
    below hold every forcing set there."""
    rnd = random.Random(31)
    for _ in range(5):
        g = random_graph(rnd, rnd.randint(7, 9))
        for k in range(1, g.n + 1):
            runs = [(run, done) for run, _, done in solver._level_stream(g, k)]
            hits = solver._joined([(solver._hits(done), run[3]) for run, done in runs])
            hit = {m for m in level(g.n, k) if is_zfs(g, m)}
            assert hits == sum(1 << i for i, m in enumerate(level(g.n, k)) if m in hit)
            survivors = list(solver._survivors(g.n, k - 1, hits))
            assert survivors == brute_survivors(g.n, k - 1, hit)
            assert {m for m in level(g.n, k - 1) if is_zfs(g, m)} <= set(survivors)


DRAINS = {
    "solve_report": lambda g: solve_report(g).to_json_dict(),
    "enumerate_min_zfs": lambda g: list(enumerate_min_zfs(g)),
    "propagation_extrema": propagation_extrema,
}


@pytest.mark.parametrize("query", DRAINS.values(), ids=DRAINS)
def test_exact_greedy_bound_closes_no_set_below_z(query, monkeypatch):
    """On cartesian(cycle(4),cycle(5)) the greedy bound is Z = 8.  The step
    closes the runs of level Z, in stream order, and its one charge covers
    the levels from the min-degree bound to Z - 1; nothing else closes an
    all-sets level.  The answer, closures included, is the climbing one."""
    g = parse_graph_dsl("cartesian(cycle(4),cycle(5))")
    z = solver.zero_forcing_number(g)[0]
    assert solver._greedy_set(g, False).bit_count() == z
    log = kernel_log(monkeypatch)
    log.climb = True
    climbed = query(g)
    log.climb = False
    log.clear()
    assert query(g) == climbed
    outside, [(start, k, exact, inside)] = log.split()
    assert (k, exact) == (z, True)
    runs = solver._level_runs(g.n, z, solver._LEVEL_WIDTH)
    charged = sum(comb(g.n, j) for j in range(start, z))
    assert [e for e in inside if e[0] == "close"] == [("close", (z, False), run[3]) for run in runs]
    assert [e for e in inside if e[0] == "charge"] == [("charge", inside[-1][1], charged)]
    assert not [e for e in outside if e[0] == "close" and not e[1][1]]


@pytest.mark.parametrize("seed, n", [(10, 11), (25, 12)])
def test_inexact_greedy_bound_falls_back_to_probing(seed, n, monkeypatch):
    """On these G(n, 0.3) graphs the greedy bound exceeds Z.  The step
    drains the greedy level, finds a survivor that forces, and probes down
    from there as before; the drain of level Z resumes the last probe's
    stream, so each run of level Z is closed once.  Narrow runs split each
    level into many."""
    monkeypatch.setattr(solver, "_LEVEL_WIDTH", 64)
    g = gnp(seed, n, 0.3)
    top = solver._greedy_set(g, False).bit_count()
    log = kernel_log(monkeypatch)
    log.climb = True
    climbed = solve_report(g).to_json_dict()
    log.climb = False
    log.clear()
    assert solve_report(g).to_json_dict() == climbed
    z = climbed["z"]
    assert top > z
    outside, [(_, k, exact, inside)] = log.split()
    assert (k, exact) == (z, True)
    closes = [e for e in inside if e[0] == "close"]
    drained = [("close", (top, False), run[3]) for run in solver._level_runs(g.n, top, 64)]
    assert closes[: len(drained)] == drained
    probed = [e[2] for e in closes if e[1] == (z, False)]
    resumed = [e[2] for e in outside if e[0] == "close" and e[1] == (z, False)]
    assert probed and probed + resumed == [run[3] for run in solver._level_runs(g.n, z, 64)]


def test_drain_needs_the_budget_to_cover_a_wasted_drain(monkeypatch):
    """The step drains first only when the budget left also covers the
    greedy level, which a failed proof drains for nothing; one charge less
    and it probes.  Either way it closes fewer sets than the budget, and
    solve_report gives the climbing report, closures included."""
    graphs = [parse_graph_dsl("cartesian(cycle(4),cycle(5))"), gnp(10, 11, 0.3), gnp(25, 12, 0.3)]
    log = kernel_log(monkeypatch)
    for g in graphs:
        top = solver._greedy_set(g, False).bit_count()
        lb = solver._zfs_lower_bound(g)
        need = sum(comb(g.n, j) for j in range(lb, top + 1)) + comb(g.n, top)
        for limit in (need - 1, need):
            log.climb = True
            climbed = solve_report(g, limit).to_json_dict()
            log.climb = False
            log.clear()
            assert solve_report(g, limit).to_json_dict() == climbed
            _, [(_, _, exact, inside)] = log.split()
            closes = [e for e in inside if e[0] == "close"]
            assert exact and sum(e[2] for e in closes) < limit
            assert any(e[1] == (top, False) for e in closes) == (limit == need)
