import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs
from naive_oracle import min_forcing_sets, neighbor_sets, solve
from zeroforcing.families import (
    PCSpec,
    complete,
    cycle,
    path,
    pc_graph,
    star,
    supertriangle,
    wheel,
)
from zeroforcing.forcing import is_czfs, is_zfs, propagation_time
from zeroforcing.graphs import mask_of, new_graph, vertices_of
from zeroforcing.solver import (
    BudgetExceeded,
    WrongSize,
    connected_in_components_sets,
    connected_zero_forcing_number,
    enumerate_min_czfs,
    enumerate_min_zfs,
    propagation_extrema,
    solve_report,
    zero_forcing_number,
)


def test_known_zero_forcing_numbers():
    assert zero_forcing_number(supertriangle(4))[0] == 4
    assert zero_forcing_number(cycle(8))[0] == 2
    assert zero_forcing_number(complete(5))[0] == 4
    assert zero_forcing_number(star(6))[0] == 4
    assert connected_zero_forcing_number(star(6))[0] == 5
    assert connected_zero_forcing_number(wheel(6))[0] == 3


def test_witnesses_verify_and_are_lex_least():
    g = supertriangle(4)
    z, w = zero_forcing_number(g)
    assert is_zfs(g, w)
    assert vertices_of(w) == (0, 1, 3, 6)
    zc, wc = connected_zero_forcing_number(g)
    assert is_czfs(g, wc)


def test_corona_values():
    from zeroforcing.families import corona

    g = corona(cycle(5), path(3))
    assert zero_forcing_number(g)[0] == 7
    assert connected_zero_forcing_number(g)[0] == 10


def test_enumerate_min_zfs_path():
    assert [vertices_of(m) for m in enumerate_min_zfs(path(5), 1)] == [(0,), (4,)]


def test_enumerate_min_zfs_cycle4():
    found = [vertices_of(m) for m in enumerate_min_zfs(cycle(4), 2)]
    assert found == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_enumerate_min_zfs_triangle():
    assert len(list(enumerate_min_zfs(complete(3), 2))) == 3


def test_enumerate_wrong_size():
    with pytest.raises(WrongSize):
        list(enumerate_min_zfs(path(5), 2))
    with pytest.raises(WrongSize):
        list(enumerate_min_czfs(cycle(4), 3))


def test_enumerate_at_the_minimum_level_by_default():
    for g in (path(5), cycle(4), star(6)):
        z, zc = zero_forcing_number(g)[0], connected_zero_forcing_number(g)[0]
        assert list(enumerate_min_zfs(g)) == list(enumerate_min_zfs(g, z))
        assert list(enumerate_min_czfs(g)) == list(enumerate_min_czfs(g, zc))


def test_enumerate_min_czfs_star():
    sets = [vertices_of(m) for m in enumerate_min_czfs(star(6), 5)]
    assert len(sets) == 5
    assert all(0 in s for s in sets)


def test_enumerate_min_czfs_chorded_pc3():
    g = pc_graph(PCSpec((3,), ((1, 3),)))
    got = [vertices_of(m) for m in enumerate_min_czfs(g, 2)]
    # cross-check against the unpruned subset scan
    _, oracle_sets = min_forcing_sets(neighbor_sets(g), connected=True)
    assert sorted(map(tuple, map(sorted, oracle_sets))) == got
    assert got == [(0, 1), (0, 5), (1, 2), (2, 3)]
    assert all(propagation_time(g, mask_of(s)) == 4 for s in got)


def test_connected_sets_enumeration_matches_filter():
    rnd = random.Random(11)
    for _ in range(20):
        n = rnd.randint(1, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.35
        ]
        g = new_graph(n, edges)
        for k in range(1, n + 1):
            fast = connected_in_components_sets(g, k)
            slow = []
            from zeroforcing.graphs import is_connected_in_components

            for combo in combinations(range(n), k):
                m = mask_of(combo)
                if is_connected_in_components(g, m):
                    slow.append(m)
            assert sorted(fast) == sorted(slow)
            assert len(set(fast)) == len(fast)


def test_propagation_extrema_supertriangle():
    (tmin, wmin), (tmax, wmax) = propagation_extrema(supertriangle(4))
    assert tmin == 4
    assert propagation_time(supertriangle(4), wmin) == tmin
    assert propagation_time(supertriangle(4), wmax) == tmax


def test_propagation_extrema_path_connected():
    (tmin, _), (tmax, _) = propagation_extrema(path(7), connected=True)
    assert (tmin, tmax) == (6, 6)


def test_chordless_pc3_extrema():
    # the chordless 6-cycle: every minimum connected set is an adjacent
    # pair and fills in ceil(4/2) = 2 rounds
    (tmin, _), (tmax, _) = propagation_extrema(pc_graph(PCSpec((3,))), connected=True)
    assert (tmin, tmax) == (2, 2)


def test_solve_report_k1():
    rep = solve_report(path(1))
    assert rep.z == rep.z_c == 1
    assert rep.pt_min == rep.pt_max == rep.ptc_min == rep.ptc_max == 0


def test_solve_report_isolated_plus_path():
    g = new_graph(5, [(1, 2), (2, 3), (3, 4)])
    rep = solve_report(g)
    assert rep.z_c == 2
    assert rep.ptc_max == 3


def test_solve_report_wheel():
    rep = solve_report(wheel(6))
    assert rep.z == rep.z_c == 3


def test_solve_report_json_shape():
    doc = solve_report(cycle(8)).to_json_dict()
    assert list(doc) == [
        "n", "m", "z", "z_c", "pt", "PT", "pt_c", "PT_c", "witnesses", "counts", "budget",
    ]
    assert doc["z"] == 2 and doc["z_c"] == 2
    assert doc["witnesses"]["z"] == [0, 1]
    assert doc["budget"]["exceeded"] is False


def test_budget_exhaustion():
    with pytest.raises(BudgetExceeded) as info:
        zero_forcing_number(supertriangle(4), 5)
    assert info.value.closures == 5
    assert info.value.best_known["z_lower_bound"] >= 2
    rep = solve_report(supertriangle(4), budget=5)
    assert rep.budget_exceeded
    assert rep.z is None
    assert rep.closures == 5


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_solver_matches_oracle(g):
    rep = solve_report(g)
    expected = solve(g)
    got = {
        "z": rep.z,
        "z_c": rep.z_c,
        "pt": rep.pt_min,
        "PT": rep.pt_max,
        "pt_c": rep.ptc_min,
        "PT_c": rep.ptc_max,
    }
    assert got == expected
    assert is_zfs(g, rep.witnesses["z"])
    assert is_czfs(g, rep.witnesses["z_c"])
    for key, t in (("pt", rep.pt_min), ("PT", rep.pt_max)):
        assert propagation_time(g, rep.witnesses[key]) == t
    for key, t in (("pt_c", rep.ptc_min), ("PT_c", rep.ptc_max)):
        assert propagation_time(g, rep.witnesses[key]) == t


@pytest.mark.parametrize(
    "bad",
    [
        {"z": 3, "z_c": 2},
        {"z": 2, "pt_min": 3, "pt_max": 2},
        {"z": 2, "pt_min": 1, "pt_max": 5},
        {"z_c": 2, "ptc_min": 1, "ptc_max": 5},
    ],
)
def test_report_invariants_hold_under_optimize(bad):
    """The SolveReport invariants are checks, not asserts: python -O keeps them."""
    import subprocess
    import sys

    fields = dict(
        n=6, m=5, z=None, z_c=None, pt_min=None, pt_max=None, ptc_min=None,
        ptc_max=None, witnesses={}, min_zfs_count=None, min_czfs_count=None,
        closures=0, budget_exceeded=False,
    )
    fields.update(bad)
    code = (
        "from zeroforcing.solver import SolveReport\n"
        "try:\n"
        f"    SolveReport(**{fields!r})\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('inconsistent report accepted')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("g", [star(6), cycle(6), wheel(6)], ids=["star6", "cycle6", "wheel6"])
def test_exceeded_report_carries_the_level_reached(g):
    """Under every budget that runs out, the report keeps the level its
    search reached as a lower bound on the first unknown value; a report
    that completes, or one with a budget of 0, carries no bound."""
    full = solve_report(g)
    for budget in range(full.closures + 1):
        rep = solve_report(g, budget=budget)
        bounds = rep.to_json_dict()["budget"]
        assert list(bounds)[:2] == ["closures", "exceeded"]
        if not rep.budget_exceeded or budget == 0:
            assert rep.lower_bounds == {} and len(bounds) == 2
        elif rep.z is None:
            assert rep.lower_bounds.keys() == {"z_lower_bound"}
            assert 1 <= bounds["z_lower_bound"] <= full.z
        elif rep.z_c is None:
            assert rep.lower_bounds.keys() == {"z_c_lower_bound"}
            assert full.z <= bounds["z_c_lower_bound"] <= full.z_c
        else:
            assert rep.lower_bounds == {}


@pytest.mark.parametrize(
    "g",
    [star(6), cycle(6), wheel(6), new_graph(5, [(0, 1)])],
    ids=["star6", "cycle6", "wheel6", "one_edge5"],
)
def test_every_entry_point_reports_the_bound_by_one_rule(g):
    """propagation_extrema runs out exactly where solve_report does, with
    the report's lower bounds as its best_known; pt and PT need only the Z
    phase, so the plain query stops raising once that phase is charged.
    A budget of 0 evaluates no set, so no entry point reports a bound."""
    full = solve_report(g)
    z_phase_done = False
    for budget in range(full.closures + 1):
        rep = solve_report(g, budget=budget)
        for connected in (False, True):
            try:
                propagation_extrema(g, connected, budget)
            except BudgetExceeded as exc:
                assert rep.budget_exceeded and exc.closures == budget
                assert exc.best_known == rep.lower_bounds
                assert connected or not z_phase_done
            else:
                assert not (connected and rep.budget_exceeded)
                z_phase_done = z_phase_done or not connected
    assert z_phase_done
    assert solve_report(g, budget=0).lower_bounds == {}
    for call in (
        lambda: zero_forcing_number(g, 0),
        lambda: connected_zero_forcing_number(g, 0),
        lambda: list(enumerate_min_zfs(g, budget=0)),
        lambda: list(enumerate_min_czfs(g, budget=0)),
        lambda: propagation_extrema(g, budget=0),
        lambda: propagation_extrema(g, True, 0),
    ):
        with pytest.raises(BudgetExceeded) as info:
            call()
        assert info.value.best_known == {} and info.value.closures == 0


# the six library entry points, each called with a budget
ENTRY_POINTS = {
    "zero_forcing_number": lambda g, budget: zero_forcing_number(g, budget),
    "connected_zero_forcing_number": lambda g, budget: connected_zero_forcing_number(g, budget),
    "enumerate_min_zfs": lambda g, budget: enumerate_min_zfs(g, budget=budget),
    "enumerate_min_czfs": lambda g, budget: enumerate_min_czfs(g, budget=budget),
    "propagation_extrema": lambda g, budget: propagation_extrema(g, budget=budget),
    "solve_report": lambda g, budget: solve_report(g, budget),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_negative_budget_is_a_value_error(entry):
    """A budget below 0 raises ValueError before any search; a budget of 0
    evaluates no set, reports no lower bound and is exhausted."""
    g = cycle(5)
    with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
        entry(g, -1)
    try:
        rep = entry(g, 0)
    except BudgetExceeded as exc:
        assert (exc.closures, exc.best_known) == (0, {})
    else:
        assert rep.budget_exceeded and (rep.closures, rep.lower_bounds) == (0, {})
