"""Differential tests of the all-k-sets level stream.

The reference evaluates every k-subset on its own, in lexicographic order,
with the scalar round loop ``_rounds``.  The
stream must give the same hit list and the same pt for every hit, at every
run width, on random graphs and on every class of order at most 6.
"""

import random
import time
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

import zeroforcing.solver as solver
from naive_oracle import min_forcing_sets, neighbor_sets, rounds_to_fill
from zeroforcing.dsl import parse_graph_dsl
from zeroforcing.forcing import _rounds
from zeroforcing.graphs import components, mask_of, meets_connected, new_graph, relabel
from zeroforcing.solver import (
    BudgetExceeded,
    enumerate_min_zfs,
    propagation_extrema,
    solve_report,
    zero_forcing_number,
)
from zeroforcing.verify import graph_classes

def random_graph(rnd, n):
    p = rnd.uniform(0.15, 0.6)
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p])


def reference_level(g, k):
    """[(mask, pt or None)] for every k-set, lexicographic order."""
    out = []
    for combo in combinations(range(g.n), k):
        m = mask_of(combo)
        black, t = _rounds(g.adj, g.full_mask, m)
        out.append((m, t if black == g.full_mask else None))
    return out


def decoded(g, run, done):
    """[(mask, pt or None)] for each set of one run, in stream order."""
    count = run[3]
    pts = {}
    for t, bits in enumerate(done):
        while bits:
            low = bits & -bits
            bits ^= low
            pts[low.bit_length() - 1] = t
    assert max(pts, default=-1) < count
    return [(solver._unrank(g.n, run, j), pts.get(j)) for j in range(count)]


def stream_level(g, k):
    """The level stream decoded into the reference's shape."""
    return [item for run, _, done in solver._level_stream(g, k) for item in decoded(g, run, done)]


def reference_z(g):
    """(z, hits with pt, sets charged before level z, level z) from the
    scalar reference."""
    before = 0
    for k in range(solver._zfs_lower_bound(g), g.n + 1):
        level = reference_level(g, k)
        hits = [(m, t) for m, t in level if t is not None]
        if hits:
            return k, hits, before, level
        before += len(level)
    raise AssertionError("unreachable")


def level_running_out(g, limit):
    """The level whose sets the (limit + 1)-th charge falls in."""
    k = solver._zfs_lower_bound(g)
    while limit >= comb(g.n, k):
        limit -= comb(g.n, k)
        k += 1
    return k


def test_runs_tile_the_level():
    for n in range(1, 13):
        for k in range(0, n + 1):
            for width in (1, 2, 5, 64):
                runs = list(solver._level_runs(n, k, width))
                assert sum(r[3] for r in runs) == comb(n, k)
                assert all(1 <= r[3] <= width for r in runs)
                masks = [solver._unrank(n, r, j) for r in runs for j in range(r[3])]
                assert masks == [mask_of(c) for c in combinations(range(n), k)]


def test_pascal_row_matches_unrank():
    """A row is keyed by the size m of the range, not by where it starts:
    the r-subsets of range(s, s + m) are those of range(m) shifted by s.
    Widths 11 and 40 mix cached rows with rows rebuilt from them."""
    for m, r, width in [(7, 3, 100), (7, 3, 11), (12, 5, 64), (5, 0, 8), (10, 4, 40)]:
        row = solver._row(m, r, width)
        assert row == solver._pascal_row(m, r, width)
        for s in (0, 1, 3):
            subsets = list(combinations(range(s, s + m), r))[:width]
            for v in range(s, s + m):
                want = sum(1 << j for j, c in enumerate(subsets) if v in c)
                assert row[v - s] == want


def test_row_cache_keeps_quarter_runs_for_every_order(monkeypatch):
    """The row cache keeps only rows of at most a quarter run, builds each
    once, and serves graphs of every order: a level of order 21 builds no
    row that the same level of order 20 has built."""
    built = []

    def build(m, r, width):
        built.append((m, r, width))
        return solver._pascal_row(m, r, width)

    monkeypatch.setattr(solver, "_cached_row", lru_cache(maxsize=1024)(build))
    width = solver._LEVEL_WIDTH
    for n in (20, 21):
        g = new_graph(n, [])
        runs = list(solver._level_runs(n, 9, width))
        for run in runs:
            solver._run_columns(g, run, connected=False)
        assert len(runs) > 2
    assert built and len(set(built)) == len(built)
    assert all(4 * comb(m, r) <= width for m, r, _ in built)
    cached = [solver._cached_row(*key) for key in built]
    assert max(c.bit_length() for row in cached for c in row) <= width // 4
    again = len(built)
    for run in solver._level_runs(21, 9, width):
        solver._run_columns(new_graph(21, []), run, connected=False)
    assert len(built) == again


def test_level_stream_matches_scalar_reference(stream_setting):
    rnd = random.Random(20240611)
    for _ in range(6):
        g = random_graph(rnd, rnd.randint(10, 12))
        for k in range(1, g.n + 1):
            assert stream_level(g, k) == reference_level(g, k), (g, k)


def tiny_graphs():
    """Every class of order at most 6, disconnected ones included, each with
    one seeded relabeling."""
    rnd = random.Random(19)
    for n in range(1, 7):
        for _, g in graph_classes(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            yield g
            yield relabel(g, perm)


def test_tiny_graph_runs_match_scalar_reference():
    """On every level of a graph on at most 6 vertices the bit-sliced
    kernels give the reference's kept sets and bitmaps: all k-sets, the
    connected ones, and either restricted from a closed level."""
    for g in tiny_graphs():
        comps = components(g)
        for k in range(g.n + 1):
            reference = reference_level(g, k)
            kept = {
                False: [True] * len(reference),
                True: [meets_connected(g, comps, m) for m, _ in reference],
            }
            closed = {run: done for run, _, done in solver._level_stream(g, k) if done[-1]}
            for connected in (False, True):
                want = [(m, t if keep else None) for (m, t), keep in zip(reference, kept[connected])]
                for with_closed in (None, closed):
                    got, keeps = [], []
                    for run, ones, done in solver._level_stream(g, k, connected, with_closed):
                        keeps += [bool(ones >> j & 1) for j in range(run[3])]
                        got += decoded(g, run, done)
                    assert keeps == kept[connected] and got == want, (g, k, connected)


def test_queries_match_scalar_reference(stream_setting):
    rnd = random.Random(7)
    for _ in range(8):
        g = random_graph(rnd, rnd.randint(10, 12))
        z, hits, _, _ = reference_z(g)
        masks = [m for m, _ in hits]
        assert zero_forcing_number(g) == (z, masks[0])
        assert list(enumerate_min_zfs(g, z)) == masks
        rep = solve_report(g)
        pts = [t for _, t in hits]
        assert (rep.z, rep.min_zfs_count) == (z, len(hits))
        assert (rep.pt_min, rep.pt_max) == (min(pts), max(pts))
        # witnesses: the first set in stream order attaining each value
        assert rep.witnesses["z"] == masks[0]
        assert rep.witnesses["pt"] == masks[pts.index(min(pts))]
        assert rep.witnesses["PT"] == masks[pts.index(max(pts))]


def test_matches_naive_oracle(stream_setting):
    rnd = random.Random(99)
    for _ in range(25):
        g = random_graph(rnd, rnd.randint(1, 8))
        adj = neighbor_sets(g)
        z, sets = min_forcing_sets(adj)
        pts = [rounds_to_fill(adj, s) for s in sets]
        rep = solve_report(g)
        assert (rep.z, rep.min_zfs_count, rep.pt_min, rep.pt_max) == (
            z, len(sets), min(pts), max(pts),
        )
        assert sorted(enumerate_min_zfs(g, z)) == sorted(mask_of(s) for s in sets)
        # the oracle tests combinations in order, so its first hit is the
        # lexicographically least witness
        assert zero_forcing_number(g) == (z, mask_of(sets[0]))


def test_first_hit_budget_edges(stream_setting):
    """The first hit exactly at the limit passes; one less raises with the
    limit charged, even when the limit falls inside a run."""
    rnd = random.Random(5)
    checked = 0
    for _ in range(10):
        g = random_graph(rnd, rnd.randint(9, 11))
        z, hits, before, level = reference_z(g)
        needed = before + [m for m, _ in level].index(hits[0][0]) + 1
        assert zero_forcing_number(g, needed) == (z, hits[0][0])
        for limit in (1, 2, 3, before, before + 1, needed - 1):
            if 1 <= limit < needed:
                with pytest.raises(BudgetExceeded) as info:
                    zero_forcing_number(g, limit)
                assert info.value.closures == limit
                assert info.value.best_known["z_lower_bound"] == level_running_out(g, limit)
                checked += 1
    assert checked


def test_drain_budget_edges(stream_setting):
    """solve_report charges level Z in full, then one per pt, in that order."""
    rnd = random.Random(11)
    for _ in range(6):
        g = random_graph(rnd, rnd.randint(9, 11))
        z, hits, before, level = reference_z(g)
        z_done = before + len(level)
        pt_done = z_done + len(hits)
        for limit in (1, z_done - 1, z_done, z_done + 1, pt_done - 1, pt_done):
            if limit < 1:
                continue
            rep = solve_report(g, budget=limit)
            if limit < pt_done:
                assert rep.budget_exceeded and rep.closures == limit
            assert (rep.z is not None) == (limit >= z_done)
            assert (rep.pt_min is not None) == (limit >= pt_done)
            if rep.z is not None:
                assert rep.min_zfs_count == len(hits)


def test_enumerate_charges_its_drain(stream_setting):
    """enumerate_min_zfs charges every set below level Z, then every set of
    level Z once, against one budget."""
    rnd = random.Random(12)
    for _ in range(6):
        g = random_graph(rnd, rnd.randint(9, 11))
        z, hits, before, level = reference_z(g)
        whole = before + len(level)
        assert list(enumerate_min_zfs(g, z, whole)) == [m for m, _ in hits]
        with pytest.raises(BudgetExceeded) as info:
            list(enumerate_min_zfs(g, z, whole - 1))
        assert info.value.closures == whole - 1
        assert info.value.best_known["z_lower_bound"] == z


def test_propagation_extrema_runs_only_the_phases_it_needs():
    """propagation_extrema gives solve_report's values and witnesses and
    charges as solve_report does, up to the phase asked for: pt and PT need
    the Z phase alone."""
    rnd = random.Random(13)
    for _ in range(8):
        g = random_graph(rnd, rnd.randint(8, 12))
        rep = solve_report(g)
        w = rep.witnesses
        z, hits, before, level = reference_z(g)
        z_phase = before + len(level) + len(hits)
        plain = ((rep.pt_min, w["pt"]), (rep.pt_max, w["PT"]))
        assert propagation_extrema(g) == plain
        assert propagation_extrema(g, budget=z_phase) == plain
        for limit in (before + 1, z_phase - 1):
            with pytest.raises(BudgetExceeded) as info:
                propagation_extrema(g, budget=limit)
            assert info.value.closures == limit
        connected = ((rep.ptc_min, w["pt_c"]), (rep.ptc_max, w["PT_c"]))
        assert propagation_extrema(g, connected=True, budget=rep.closures) == connected
        with pytest.raises(BudgetExceeded):
            propagation_extrema(g, connected=True, budget=rep.closures - 1)


def test_tiny_budget_on_a_huge_level_returns_fast():
    """strong(C6, C6) starts at level 8 of 36 vertices (C(36, 8) ~ 30M sets);
    a budget of 10 must stop after one run, not after the whole level."""
    g = parse_graph_dsl("strong(cycle(6),cycle(6))")
    start = time.perf_counter()
    rep = solve_report(g, budget=10)
    assert rep.budget_exceeded and rep.closures == 10 and rep.z is None
    with pytest.raises(BudgetExceeded) as info:
        zero_forcing_number(g, 10)
    assert info.value.closures == 10
    assert info.value.best_known["z_lower_bound"] == 8
    assert time.perf_counter() - start < 10


def gnp(seed, n, p):
    """G(n, p): one ``random.Random(seed).random() < p`` coin per pair u < v."""
    rnd = random.Random(seed)
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p])


def run_ends(g, rep, width):
    """The charge totals at which solve_report's runs end, at ``width``:
    the Z phase's runs, then its pt charges, then the connected runs from
    level Z on."""
    ends, total = [], 0
    stages = [(k, False) for k in range(solver._zfs_lower_bound(g), rep.z + 1)]
    stages += [(k, True) for k in range(rep.z, rep.z_c + 1)]
    for k, connected in stages:
        if connected and k == rep.z:
            total += rep.min_zfs_count
        for run in solver._level_runs(g.n, k, width):
            total += solver._run_columns(g, run, connected)[1].bit_count()
            ends.append(total)
    return ends


WIDE_GRAPHS = {
    "strong(cycle(5),path(4))": parse_graph_dsl("strong(cycle(5),path(4))"),
    "corona(cycle(5),path(3))": parse_graph_dsl("corona(cycle(5),path(3))"),
    "G(20, 0.25; 4)": gnp(4, 20, 0.25),
}


@pytest.mark.parametrize("name", WIDE_GRAPHS)
def test_wide_runs_match_narrow_runs(name, monkeypatch):
    """solve_report gives the same report at width 16,384 and at the shipped
    width on levels that span several runs of both, also when the budget
    stops it at a run end of either width or one charge before one.
    Z_c > Z on the corona, so its connected phase reuses the bitmaps of
    level Z across wide runs."""
    g = WIDE_GRAPHS[name]
    shipped, narrow = solver._LEVEL_WIDTH, 16384
    full = {}
    for width in (shipped, narrow):
        monkeypatch.setattr(solver, "_LEVEL_WIDTH", width)
        full[width] = solve_report(g)
    rep = full[shipped]
    assert rep.to_json_dict() == full[narrow].to_json_dict()
    assert len(list(solver._level_runs(g.n, rep.z, shipped))) > 1
    # a seeded sample of the run ends of both widths and the charges just
    # before them
    ends = set()
    for width in (shipped, narrow):
        monkeypatch.setattr(solver, "_LEVEL_WIDTH", width)
        ends.update(b - d for b in run_ends(g, rep, width) for d in (0, 1))
    limits = sorted(random.Random(name).sample(sorted(ends), 12))
    bounded = {}
    for width in (shipped, narrow):
        monkeypatch.setattr(solver, "_LEVEL_WIDTH", width)
        bounded[width] = [solve_report(g, limit).to_json_dict() for limit in limits]
    assert bounded[shipped] == bounded[narrow]


def kernel_log(monkeypatch):
    """Log every ``_batch_rounds`` call ("close", level, sets) and every
    charge ("charge", level, count), in the order they happen.  A close's
    level is the (k, connected) of the level stream it runs in; a charge's
    is the (k, connected) of the meter's lower bound, or None.  Each
    start-level step is bracketed by ("step", start, None) and ("stepped",
    k, exact).  Setting ``log.climb`` makes every step climb from its lower
    bound, as the search did before it could descend."""
    log, where = StepLog(), [None]
    batch_rounds, charge = solver._batch_rounds, solver._Meter.charge
    level_stream, start_level = solver._level_stream, solver._start_level
    connected_key = solver._PHASES[True][1]

    def stream(g, k, connected=False, *rest):
        # a probe's stream may be resumed after another level's has run
        inner = level_stream(g, k, connected, *rest)
        while True:
            where[0] = (k, connected)
            item = next(inner, None)
            if item is None:
                return
            yield item

    def close(nbrs, cols, ones):
        log.append(("close", where[0], ones.bit_count()))
        return batch_rounds(nbrs, cols, ones)

    def charged(meter, count):
        level = next(((k, key == connected_key) for key, k in meter.bound.items()), None)
        log.append(("charge", level, count))
        charge(meter, count)

    def step(g, meter, start, connected, drain=False):
        log.append(("step", start, None))
        if log.climb:
            k, exact, probed = start, False, None
        else:
            k, exact, probed = start_level(g, meter, start, connected, drain)
        log.append(("stepped", k, exact))
        return k, exact, probed

    monkeypatch.setattr(solver, "_level_stream", stream)
    monkeypatch.setattr(solver, "_batch_rounds", close)
    monkeypatch.setattr(solver._Meter, "charge", charged)
    monkeypatch.setattr(solver, "_start_level", step)
    return log


class StepLog(list):
    climb = False

    def split(self):
        """(entries outside any step, [(start, k, exact, entries inside)])."""
        outside, steps, inside = [], [], None
        for kind, a, b in self:
            if kind == "step":
                start, inside = a, []
            elif kind == "stepped":
                steps.append((start, a, b, inside))
                inside = None
            else:
                (outside if inside is None else inside).append((kind, a, b))
        return outside, steps


def covering_threshold(g):
    """The least budget under which solve_report's Z phase descends: every
    set of the levels from the min-degree bound to the greedy bound."""
    top = solver._greedy_set(g, False).bit_count()
    return sum(comb(g.n, j) for j in range(solver._zfs_lower_bound(g), top + 1))


def check_stops_within_one_run(g, log, samples):
    """Under a sweep of budgets, solve_report gives the report of the search
    that climbs from the min-degree bound, closures and lower bounds
    included.  The climbing search makes the ``_batch_rounds`` calls of its
    unbounded run up to the charge that exhausts the budget and none after
    it, each call's run charged before the next call.  The descending search
    makes the same calls and charges, except that its start-level step
    replaces those of the levels below the level it returns by one charge of
    as many sets, and the runs of the level it returns that its last probe
    closed, through the first hit, are not closed again.  The step closes
    sets only under a budget that covers it, and fewer than that budget:
    the kernel closes at most one run of sets beyond what is charged, apart
    from the covered probes."""
    log.climb = True
    log.clear()
    solve_report(g)
    full, _ = log.split()
    assert all(full[i + 1][0] == "charge" for i, (kind, *_) in enumerate(full) if kind == "close")
    # budgets equal to the charge total at each kernel call, and one more,
    # plus the covering threshold of the descent and one less
    spent, starts = 0, set()
    for kind, _, count in full:
        if kind == "charge":
            spent += count
        else:
            starts.update((spent, spent + 1))
    picked = random.Random(g.n).sample(sorted(starts), min(samples, len(starts)))
    threshold = covering_threshold(g)
    descended = resumed = 0
    for limit in sorted(picked + [threshold - 1, threshold]):
        log.climb = True
        log.clear()
        climbed = solve_report(g, limit).to_json_dict()
        reference, _ = log.split()
        spent = end = 0
        while end < len(full) and spent <= limit:
            kind, _, count = full[end]
            spent += count if kind == "charge" else 0
            end += 1
        assert reference == full[:end]
        log.climb = False
        log.clear()
        assert solve_report(g, limit).to_json_dict() == climbed
        outside, [(start, k, exact, inside)] = log.split()
        skipped = {(j, False) for j in range(start, k)}
        # the probe's closes of level k are the first closes of the climb there
        probed = [e for e in inside if e[:2] == ("close", (k, False))]
        kept = [e for e in reference if e[1] not in skipped]
        first = [i for i, e in enumerate(kept) if e[:2] == ("close", (k, False))][: len(probed)]
        assert probed == [kept[i] for i in first]
        assert outside == [e for i, e in enumerate(kept) if i not in first]
        resumed += bool(probed)
        assert exact == (limit >= threshold) and comb(g.n, g.n // 2) > solver._CLIMB_LEVEL
        if exact:
            descended += 1
            charged = sum(c for kind, level, c in reference if kind == "charge" and level in skipped)
            assert [e for e in inside if e[0] == "charge"] == [("charge", inside[-1][1], charged)]
            assert sum(c for kind, _, c in inside if kind == "close") < limit
        else:
            assert inside == []
    assert descended
    return resumed


def test_budget_stops_within_one_run(stream_setting, monkeypatch):
    """Runs close their sets before those are charged, so a search may
    close uncharged sets past its budget, but at most one run of them.  On
    the two G(n, 0.3) graphs the greedy bound exceeds Z, so the drain of
    level Z resumes the stream that its probe left; the log shows that
    wherever the kernel closes runs."""
    log = kernel_log(monkeypatch)
    rnd = random.Random(31)
    for _ in range(3):
        check_stops_within_one_run(random_graph(rnd, rnd.randint(9, 11)), log, 10)
    for seed, n in ((10, 11), (25, 12)):
        g = gnp(seed, n, 0.3)
        assert solver._greedy_set(g, False).bit_count() > zero_forcing_number(g)[0]
        assert check_stops_within_one_run(g, log, 10)


def test_budget_stops_within_one_wide_run(monkeypatch):
    """The same at the shipped width, on levels of several runs."""
    g = WIDE_GRAPHS["G(20, 0.25; 4)"]
    assert len(list(solver._level_runs(g.n, 9, solver._LEVEL_WIDTH))) > 2
    check_stops_within_one_run(g, kernel_log(monkeypatch), 12)
