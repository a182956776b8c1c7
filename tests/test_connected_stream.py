"""Differential tests of the connected level stream.

The bit-sliced connectivity kernel is checked set by set against
``is_connected_in_components``.  The connected queries are checked against
the naive oracle at n <= 8 and, at n = 10-12, against a per-set reference
that walks the connected k-sets in lexicographic order with ``_rounds``.  Test graphs have one to three components with
interleaved vertex ids, so a set can meet several components.
"""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zeroforcing.solver as solver
from conftest import graphs
from naive_oracle import min_forcing_sets, neighbor_sets, rounds_to_fill
from test_level_stream import reference_level, reference_z
from zeroforcing.dsl import parse_graph_dsl
from zeroforcing.families import path
from zeroforcing.graphs import (
    components,
    connected_columns,
    is_connected_in_components,
    mask_of,
    new_graph,
)
from zeroforcing.solver import (
    BudgetExceeded,
    connected_in_components_sets,
    connected_zero_forcing_number,
    enumerate_min_czfs,
    solve_report,
)


def split_graph(rnd, n, parts):
    """Random graph with exactly ``parts`` components on shuffled ids."""
    order = list(range(n))
    rnd.shuffle(order)
    cuts = [0] + sorted(rnd.sample(range(1, n), parts - 1)) + [n]
    p = rnd.uniform(0.1, 0.4)
    edges = []
    for a, b in zip(cuts, cuts[1:]):
        block = order[a:b]
        edges += [(block[i], block[rnd.randrange(i)]) for i in range(1, len(block))]
        edges += [(u, v) for u, v in combinations(block, 2) if rnd.random() < p]
    return new_graph(n, edges)


def sample_graphs(seed, count, low, high):
    """``count`` graphs of order low..high with 1, 2, 3, 1, ... components."""
    rnd = random.Random(seed)
    out = []
    for i in range(count):
        n = rnd.randint(low, high)
        out.append(split_graph(rnd, n, min(1 + i % 3, n)))
    return out


def connected_level(g, k):
    """[(mask, pt or None)] for every connected k-set, lexicographic order."""
    return [(m, t) for m, t in reference_level(g, k) if is_connected_in_components(g, m)]


def reference_zc(g, start):
    """(z_c, hits with pt, connected sets charged from level ``start`` up
    to z_c, connected level z_c) from the per-set reference."""
    before = 0
    for k in range(start, g.n + 1):
        level = connected_level(g, k)
        hits = [(m, t) for m, t in level if t is not None]
        if hits:
            return k, hits, before, level
        before += len(level)
    raise AssertionError("unreachable")


def check_connected_queries(g, zc, masks, pts):
    rep = solve_report(g)
    assert (rep.z_c, rep.min_czfs_count) == (zc, len(masks))
    assert (rep.ptc_min, rep.ptc_max) == (min(pts), max(pts))
    # witnesses: the first set in stream order attaining each value
    assert rep.witnesses["z_c"] == masks[0]
    assert rep.witnesses["pt_c"] == masks[pts.index(min(pts))]
    assert rep.witnesses["PT_c"] == masks[pts.index(max(pts))]
    assert connected_zero_forcing_number(g) == (zc, masks[0])
    assert list(enumerate_min_czfs(g, zc)) == masks


def test_sample_graphs_have_one_to_three_components():
    counts = [len(components(g)) for g in sample_graphs(3, 4, 10, 12)]
    assert counts == [1, 2, 3, 1]


def test_connectivity_kernel_matches_per_set_check(stream_setting):
    for g in sample_graphs(3, 4, 10, 12):
        for k in range(1, g.n + 1):
            for run in solver._level_runs(g.n, k, solver._LEVEL_WIDTH):
                ones = solver._run_columns(g, run, connected=True)[1]
                assert ones >> run[3] == 0
                for j in range(run[3]):
                    m = solver._unrank(g.n, run, j)
                    assert bool(ones >> j & 1) == is_connected_in_components(g, m), (g, k, m)


@given(graphs(max_n=8), st.data())
def test_connectivity_kernel_ignores_bits_outside_ones(g, data):
    masks = data.draw(st.lists(st.integers(1, g.full_mask), min_size=1, max_size=40))
    ones = data.draw(st.integers(0, (1 << len(masks)) - 1))
    cols = [sum(1 << j for j, m in enumerate(masks) if m >> v & 1) for v in range(g.n)]
    nbrs, comps = g.shape
    got = connected_columns(nbrs, comps, cols, ones)
    assert got == connected_columns(nbrs, comps, [c & ones for c in cols], ones)
    expected = sum(
        1 << j for j, m in enumerate(masks) if ones >> j & 1 and is_connected_in_components(g, m)
    )
    assert got == expected


def test_connected_sets_are_lexicographic(stream_setting):
    for g in sample_graphs(4, 3, 10, 12):
        for k in range(0, g.n + 1):
            want = [
                mask_of(c)
                for c in combinations(range(g.n), k)
                if k and is_connected_in_components(g, mask_of(c))
            ]
            assert connected_in_components_sets(g, k) == want


def test_connected_sets_above_the_order_are_empty():
    assert connected_in_components_sets(path(4), 5) == []
    assert connected_in_components_sets(path(4), 4) == [mask_of(range(4))]


def test_matches_naive_oracle(stream_setting):
    for g in sample_graphs(31, 25, 1, 8):
        adj = neighbor_sets(g)
        zc, sets = min_forcing_sets(adj, connected=True)
        # the oracle tests combinations in order, so its hits are lexicographic
        check_connected_queries(
            g, zc, [mask_of(s) for s in sets], [rounds_to_fill(adj, s) for s in sets]
        )


def test_matches_per_set_reference(stream_setting):
    for g in sample_graphs(7, 6, 10, 12):
        zc, hits, _, _ = reference_zc(g, solver._zfs_lower_bound(g))
        check_connected_queries(g, zc, [m for m, _ in hits], [t for _, t in hits])


def test_connected_phase_reuses_level_z(stream_setting, monkeypatch):
    """solve_report closes no set of level Z in its connected phase: it
    masks the Z phase's bitmaps.  So when Z_c = Z the connected phase closes
    nothing, and the report still matches the per-set references.  The
    greedy bound of the Z phase's start-level step closes sets before any
    stream, at most 2n of them; its calls are tagged apart."""
    calls, where = [], [None]
    level_stream, batch_rounds, rounds = solver._level_stream, solver._batch_rounds, solver._rounds
    greedy_set = solver._greedy_set

    def tagged_stream(g, k, connected=False, *rest):
        where[0] = (k, connected)
        yield from level_stream(g, k, connected, *rest)

    def tagged_bound(g, connected):
        where[0] = ("bound", connected)
        return greedy_set(g, connected)

    def counted(kernel):
        def call(*args):
            calls.append(where[0])
            return kernel(*args)
        return call

    monkeypatch.setattr(solver, "_level_stream", tagged_stream)
    monkeypatch.setattr(solver, "_batch_rounds", counted(batch_rounds))
    monkeypatch.setattr(solver, "_rounds", counted(rounds))
    monkeypatch.setattr(solver, "_greedy_set", tagged_bound)
    equal = set()
    for g in sample_graphs(13, 12, 4, 11):
        z, zhits, zbefore, zlevel = reference_z(g)
        zc, hits, before, level = reference_zc(g, z)
        calls.clear()
        where[0] = None
        rep = solve_report(g)
        assert None not in calls
        bound = [c for c in calls if c[0] == "bound"]
        calls[:] = [c for c in calls if c[0] != "bound"]
        assert set(bound) <= {("bound", False)} and len(bound) <= 2 * g.n
        assert calls and (z, True) not in calls
        if zc == z:
            assert not [k for k, connected in calls if connected]
        equal.add(zc == z)
        zmasks, zpts = [m for m, _ in zhits], [t for _, t in zhits]
        masks, pts = [m for m, _ in hits], [t for _, t in hits]
        assert (rep.z, rep.min_zfs_count, rep.pt_min, rep.pt_max) == (
            z, len(zhits), min(zpts), max(zpts),
        )
        assert (rep.z_c, rep.min_czfs_count, rep.ptc_min, rep.ptc_max) == (
            zc, len(hits), min(pts), max(pts),
        )
        assert rep.witnesses == {
            "z": zmasks[0],
            "pt": zmasks[zpts.index(min(zpts))],
            "PT": zmasks[zpts.index(max(zpts))],
            "z_c": masks[0],
            "pt_c": masks[pts.index(min(pts))],
            "PT_c": masks[pts.index(max(pts))],
        }
        z_done = zbefore + len(zlevel) + len(zhits)
        assert rep.closures == z_done + before + len(level) + len(hits)
    assert equal == {True, False}


def test_first_hit_budget_edges(stream_setting):
    """The first hit exactly at the limit passes; one less raises with the
    limit charged, even when the limit falls inside a run.  Only connected
    sets are charged."""
    checked = inside = 0
    for g in sample_graphs(5, 8, 9, 11):
        start = solver._zfs_lower_bound(g)
        zc, hits, before, level = reference_zc(g, start)
        needed = before + [m for m, _ in level].index(hits[0][0]) + 1
        assert connected_zero_forcing_number(g, needed) == (zc, hits[0][0])
        sizes = {k: len(connected_level(g, k)) for k in range(start, zc + 1)}
        ends, total = set(), 0
        for k in range(start, zc + 1):
            for run in solver._level_runs(g.n, k, solver._LEVEL_WIDTH):
                total += solver._run_columns(g, run, connected=True)[1].bit_count()
                ends.add(total)
        for limit in (1, 2, 3, before, before + 1, needed - 1):
            if not 1 <= limit < needed:
                continue
            with pytest.raises(BudgetExceeded) as info:
                connected_zero_forcing_number(g, limit)
            assert info.value.closures == limit
            # the level that the (limit + 1)-th charge falls in
            k, left = start, limit
            while left >= sizes[k]:
                left -= sizes[k]
                k += 1
            assert info.value.best_known["z_c_lower_bound"] == k
            checked += 1
            inside += limit not in ends
    assert checked and inside


def test_drain_budget_edges(stream_setting):
    """solve_report charges the connected sets from level Z through level
    Z_c, then one per minimum CZFS pt, after the Z phase."""
    for g in sample_graphs(11, 6, 9, 11):
        z, zhits, zbefore, zlevel = reference_z(g)
        zc, hits, before, level = reference_zc(g, z)
        start = zbefore + len(zlevel) + len(zhits)
        zc_done = start + before + len(level)
        ptc_done = zc_done + len(hits)
        assert solve_report(g).closures == ptc_done
        for limit in (start, start + 1, zc_done - 1, zc_done, ptc_done - 1, ptc_done):
            rep = solve_report(g, budget=limit)
            assert rep.budget_exceeded == (limit < ptc_done)
            assert rep.closures == limit
            assert rep.pt_min is not None
            assert (rep.z_c is not None) == (limit >= zc_done)
            assert (rep.ptc_min is not None) == (limit >= ptc_done)
            if rep.z_c is not None:
                assert (rep.min_czfs_count, rep.witnesses["z_c"]) == (len(hits), hits[0][0])


def test_tiny_budget_bounds_the_connected_search():
    """strong(C6, C6) starts its connected search at level 8 of 36 vertices;
    a budget of 10 must stop within the first run, without building the
    connected sets of the level first."""
    g = parse_graph_dsl("strong(cycle(6),cycle(6))")
    began = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        connected_zero_forcing_number(g, 10)
    assert info.value.closures == 10
    assert info.value.best_known["z_c_lower_bound"] == 8
    with pytest.raises(BudgetExceeded):
        list(enumerate_min_czfs(g, 8, 10))
    assert time.perf_counter() - began < 5


def test_enumerate_charges_its_drain(stream_setting):
    """enumerate_min_czfs charges every connected set below level Z_c, then
    every connected set of level Z_c once, against one budget."""
    for g in sample_graphs(12, 6, 9, 11):
        zc, hits, before, level = reference_zc(g, solver._zfs_lower_bound(g))
        whole = before + len(level)
        assert list(enumerate_min_czfs(g, zc, whole)) == [m for m, _ in hits]
        with pytest.raises(BudgetExceeded) as info:
            list(enumerate_min_czfs(g, zc, whole - 1))
        assert info.value.closures == whole - 1
        assert info.value.best_known["z_c_lower_bound"] == zc


def test_enumerate_budget_bounds_the_whole_call():
    """On strong(C5, P4), 400,110 is the least budget under which the Z_c
    value query passes; the drain of level 11 (24,050 minimum sets among
    its connected sets) must not run on past it uncharged."""
    g = parse_graph_dsl("strong(cycle(5),path(4))")
    assert connected_zero_forcing_number(g, 400110)[0] == 11
    with pytest.raises(BudgetExceeded):
        connected_zero_forcing_number(g, 400109)
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_min_czfs(g, 11, 400110))
    assert info.value.closures == 400110
    whole = 400110 + len(connected_in_components_sets(g, 11))
    assert len(list(enumerate_min_czfs(g, 11, whole))) == 24050
