"""Gates of the start-level step: a search from a lower bound probes down
from a greedy bound instead of climbing.

It rests on one lemma, checked with the naive oracle on every class of
order at most 7: the levels that hold a zero forcing set, and those that
hold a forcing set connected in components, are upward closed.  The
first-hit witnesses stay lexicographically least: on those classes here,
and on random graphs of order at most 8 under every stream setting in the
oracle tests of ``test_level_stream`` and ``test_connected_stream``.  The
value query and ``_first_hit`` equal a climbing ``_min_level`` reference on
seeded graphs of order 10-20, disconnected, edgeless and relabeled ones
included, and raise as it does under every budget too small to descend.
"""

import random
from itertools import combinations
from math import comb

import pytest

import zeroforcing.solver as solver
from naive_oracle import closure, connected_in_components, neighbor_sets
from test_connected_stream import split_graph
from zeroforcing.forcing import is_czfs, is_zfs
from zeroforcing.graphs import mask_of, new_graph, relabel
from zeroforcing.solver import BudgetExceeded, _first_hit, _min_size, _zfs_lower_bound
from zeroforcing.verify import graph_classes


def oracle_levels(g):
    """Per kind (plain, connected): the sizes of the sets that force, and
    the lexicographically least forcing set of the smallest size."""
    adj = neighbor_sets(g)
    out = []
    for connected in (False, True):
        sizes, first = set(), None
        for k in range(1, g.n + 1):
            for combo in combinations(range(g.n), k):
                if connected and not connected_in_components(adj, combo):
                    continue
                if len(closure(adj, combo)) == g.n:
                    sizes.add(k)
                    first = first or mask_of(combo)
                    break
        out.append((sorted(sizes), first))
    return out


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def check_against_oracle(g):
    (levels, first), (clevels, cfirst) = oracle_levels(g)
    z, z_c = levels[0], clevels[0]
    # upward closure: every level from the minimum to n holds a hit
    assert levels == list(range(z, g.n + 1))
    assert clevels == list(range(z_c, g.n + 1))
    assert solver.zero_forcing_number(g) == (z, first)
    assert solver.connected_zero_forcing_number(g) == (z_c, cfirst)
    assert _first_hit(g, solver.DEFAULT_BUDGET, True, z) == (z_c, cfirst)
    assert _min_size(g, solver.DEFAULT_BUDGET, False, _zfs_lower_bound(g)) == z
    assert _min_size(g, solver.DEFAULT_BUDGET, True, z) == z_c


@pytest.mark.parametrize("climb", [solver._CLIMB_LEVEL, 0])
def test_levels_are_upward_closed_and_witnesses_least(climb, monkeypatch):
    """Every class of order at most 7; with no climb cutoff every graph of
    order at least 2 descends, at the shipped one those of order 7."""
    monkeypatch.setattr(solver, "_CLIMB_LEVEL", climb)
    for n in range(1, 8):
        for _, g in graph_classes(n):
            check_against_oracle(g)


def climbing(g, budget, connected, start):
    """(k, witness) of the climbing search from ``start``, or the
    (closures, best_known) of the BudgetExceeded it raises."""
    try:
        k, run, done = next(solver._min_level(g, solver._Meter(budget), start, connected))
    except BudgetExceeded as exc:
        return exc.closures, exc.best_known
    return k, solver._unrank(g.n, run, solver._lowest(solver._hits(done)))


def outcome(search, *args):
    try:
        return search(*args)
    except BudgetExceeded as exc:
        return exc.closures, exc.best_known


def gnp(rnd, n, p):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p])


def differential_graphs():
    """Edgeless and nearly edgeless graphs, seeded G(n, p) graphs and
    graphs of two or three components, n = 10-20, and relabeled copies."""
    rnd = random.Random(1020)
    out = [new_graph(12, []), new_graph(16, [(0, 1), (2, 3)])]
    for i, n in enumerate((10, 12, 14, 15, 17, 18, 20, 20)):
        out.append(gnp(rnd, n, rnd.uniform(0.2, 0.4)) if i % 2 else split_graph(rnd, n, 2 + i % 4 // 2))
    return out + [relabeled(g, seed) for seed, g in enumerate(out[5:])]


def test_value_query_and_first_hit_equal_climbing():
    """Both kinds, from the min-degree bound and, for Z_c, from Z; under
    the default budget, the covering threshold, one less, and a few small
    budgets.  Below the threshold the search climbs, so it raises what the
    climbing search raises; at and above it, it cannot run out."""
    descended = 0
    for g in differential_graphs():
        lb = _zfs_lower_bound(g)
        z = climbing(g, solver.DEFAULT_BUDGET, False, lb)[0]
        for connected, start in ((False, lb), (True, lb), (True, z)):
            top = solver._greedy_set(g, connected).bit_count()
            threshold = sum(comb(g.n, j) for j in range(start, top + 1))
            for budget in (solver.DEFAULT_BUDGET, threshold, threshold - 1, 1, 100, 5000):
                want = climbing(g, budget, connected, start)
                assert outcome(_first_hit, g, budget, connected, start) == want
                value = outcome(_min_size, g, budget, connected, start)
                assert value == (want[0] if isinstance(want[1], int) else want)
                descended += budget >= threshold
    assert descended


def test_greedy_bound_is_a_forcing_set():
    """The greedy set forces, and is connected in components with
    ``connected``; without it no single vertex can leave the set."""
    for g in [g for n in range(1, 7) for _, g in graph_classes(n)] + differential_graphs():
        plain, conn = solver._greedy_set(g, False), solver._greedy_set(g, True)
        assert is_zfs(g, plain) and is_czfs(g, conn)
        assert not any(is_zfs(g, plain ^ 1 << v) for v in range(g.n) if plain >> v & 1)


@pytest.mark.parametrize("width", [solver._LEVEL_WIDTH, 256])
def test_each_run_is_closed_once(width, monkeypatch):
    """On a graph whose greedy bound exceeds Z, the last probe of the
    start-level step closes level Z's runs through its first hit, and the
    drain of level Z resumes that stream: every query sends each run of
    each kind of stream through the kernel at most once, level Z's included."""
    g = gnp(random.Random(8), 16, 0.3)
    z = solver.zero_forcing_number(g)[0]
    assert solver._greedy_set(g, False).bit_count() > z
    monkeypatch.setattr(solver, "_LEVEL_WIDTH", width)
    calls, where = {}, [None]
    run_columns, batch_rounds = solver._run_columns, solver._batch_rounds

    def columns(g, run, connected):
        where[0] = run, connected
        return run_columns(g, run, connected)

    def close(nbrs, cols, ones):
        calls[where[0]] = calls.get(where[0], 0) + 1
        return batch_rounds(nbrs, cols, ones)

    monkeypatch.setattr(solver, "_run_columns", columns)
    monkeypatch.setattr(solver, "_batch_rounds", close)
    queries = (
        solver.zero_forcing_number,
        solver.connected_zero_forcing_number,
        lambda g: list(solver.enumerate_min_zfs(g)),
        lambda g: list(solver.enumerate_min_czfs(g)),
        solver.propagation_extrema,
        solver.solve_report,
    )
    for query in queries:
        calls.clear()
        query(g)
        assert any(run[0].bit_count() + run[2] == z for run, _ in calls)
        assert max(calls.values()) == 1
