import random

import pytest
from conftest import connected_graphs
from hypothesis import given
from hypothesis import strategies as st
from writers import graph_to_instance
from zeroforcing.graphs import GraphError, certificate, is_connected, new_graph, relabel
from zeroforcing.solver import DEFAULT_BUDGET, solve_report
from zeroforcing.verify import (
    ClaimResult,
    check_named_parameters,
    check_product_bounds,
    csv_summary,
    exhaustive_small_graphs,
    graph_classes,
    graph_from_instance,
    has_hard_violations,
    replay_claim,
    run_suites,
)


def test_instance_descriptor_round_trip():
    g = new_graph(5, [(0, 4), (1, 2)])
    assert graph_from_instance(graph_to_instance(g)) == g
    assert graph_from_instance("cycle(8)").n == 8


def test_named_parameters_hard_claims_hold():
    res = check_named_parameters()
    assert not has_hard_violations(res)
    hard = [r for r in res if r.hard]
    assert all(r.verdict == "holds" for r in hard)


def test_named_parameters_surface_star_and_complete_findings():
    res = check_named_parameters()
    findings = [
        r for r in res
        if r.claim == "multipartite/star-or-complete-as-stated" and r.verdict == "violated"
    ]
    insts = {r.instance for r in findings}
    assert "multipartite(1,1,1)" in insts
    assert "multipartite(3,1)" in insts
    assert "multipartite(2,1)" not in insts


def test_product_bounds_hard_claims_hold():
    res = check_product_bounds()
    assert not has_hard_violations(res)


def test_product_bounds_expected_findings():
    res = check_product_bounds()
    layers = [
        r for r in res
        if r.claim == "product/cartesian-path-layers-as-stated" and r.verdict == "violated"
    ]
    assert any(r.instance == "cartesian(path(3),path(2))" for r in layers)
    zc_bound = [
        r for r in res
        if r.claim == "corona/zc-bound-as-stated" and r.verdict == "violated"
    ]
    assert any(r.instance == "corona(cycle(5),path(3))" for r in zc_bound)


def test_exhaustive_small_cases():
    res = exhaustive_small_graphs(4)
    summaries = {(r.claim, r.instance): r for r in res if r.instance.startswith("all-labeled")}
    for claim in ("order/z-le-zc", "path/four-equivalence",
                  "extremal/max-time-shape", "extremal/min-time-shape"):
        for n in range(1, 5):
            assert summaries[(claim, f"all-labeled(n={n})")].verdict == "holds"


def test_exhaustive_findings_replay():
    res = exhaustive_small_graphs(5)
    viol = [r for r in res if not r.instance.startswith("all-labeled")]
    assert viol, "the order-5 corner-pendant family should be reported"
    for r in viol[:5]:
        again = replay_claim(r)
        assert again.verdict == r.verdict == "violated"
        assert again.computed == r.computed


def test_finding_rows_describe_the_graph_they_checked():
    """A finding row's descriptor is written from its edge code and its
    computed fields are its class's; the descriptor must parse to a
    relabeling of a class that violates the row's claim, the rows must
    list every relabeling of such a class once, and each must replay."""
    from dataclasses import asdict
    from itertools import permutations

    import zeroforcing.verify as verify
    from zeroforcing.graphs import certificate, relabel

    rows = exhaustive_small_graphs(5)
    # (claim, certificate of a violating class) -> descriptors of its relabelings
    orbits = {}
    for n in range(1, 6):
        for cert, h in graph_classes(n):
            for c in verify._violated_claims(verify._Solved(), h, cert):
                orbit = {graph_to_instance(relabel(h, p)) for p in permutations(range(n))}
                orbits[(c, cert)] = orbit
    findings = [r for r in rows if not r.instance.startswith("all-labeled")]
    assert findings
    listed = {}
    for r in findings:
        g = graph_from_instance(r.instance)
        assert (r.claim, certificate(g)) in orbits, r.instance
        assert graph_to_instance(g) == r.instance
        assert asdict(replay_claim(r)) == asdict(r)
        listed.setdefault((r.claim, certificate(g)), set()).add(r.instance)
    assert listed == orbits
    assert len({(r.claim, r.instance) for r in findings}) == len(findings)


def test_summary_rows_replay_by_rerunning_their_order():
    rows = run_suites(suite="exhaustive", nmax=5)
    summaries = [r for r in rows if r.instance.startswith("all-labeled")]
    assert len(summaries) == 4 * 5
    assert any(r.verdict == "violated" for r in summaries)
    for r in summaries:
        assert replay_claim(r) == r
    r = summaries[0]
    for instance in ["all-labeled(n=0)", "all-labeled(n=8)", "all-labeled(n=x)",
                     "all-labeled(n=05)", "all-labeled(n=5"]:
        with pytest.raises(GraphError):
            replay_claim(ClaimResult(r.claim, instance, r.relation, {}, {}, "holds", r.hard))
    with pytest.raises(GraphError):
        replay_claim(ClaimResult("named/path", r.instance, r.relation, {}, {}, "holds", r.hard))


def test_replay_of_an_unknown_claim_is_a_graph_error():
    with pytest.raises(GraphError):
        replay_claim(ClaimResult("no/such-claim", "path(3)", "=", {}, {}, "holds", True))


def test_summary_replay_solves_only_its_own_order(monkeypatch):
    """An order-5 summary replays from one report per connected class of
    order 5, in class order, then one per part its unions use, each once."""
    row = next(r for r in exhaustive_small_graphs(5) if r.instance == "all-labeled(n=5)")
    calls = count_solves(monkeypatch)
    assert replay_claim(row) == row
    connected = [g for _, g in graph_classes(5) if is_connected(g)]
    parts = {part for cert, g in graph_classes(5) if not is_connected(g) for part in cert}
    assert calls[: len(connected)] == [(g, "report") for g in connected]
    rest = calls[len(connected) :]
    assert {key for _, key in rest} == {"report"}
    assert sorted(certificate(g) for g, _ in rest) == sorted(parts)
    assert (len(connected), len(parts), len(calls)) == (21, 10, 31)


def test_exhaustive_verdicts_relabeling_invariant():
    import random

    from zeroforcing.graphs import relabel
    from zeroforcing.verify import _check

    res = exhaustive_small_graphs(5)
    viol = [r for r in res if not r.instance.startswith("all-labeled")]
    rnd = random.Random(3)
    for r in rnd.sample(viol, 3):
        g = graph_from_instance(r.instance)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        permuted = graph_to_instance(relabel(g, perm))
        again = _check(r.claim, permuted, r.expected)
        assert again.verdict == "violated"


def test_run_suites_sorted_and_csv():
    res = run_suites(suite="exhaustive", nmax=3)
    keys = [(r.claim, r.instance) for r in res]
    assert keys == sorted(keys)
    text = csv_summary(res)
    lines = text.strip().splitlines()
    assert lines[0] == "claim,instances,holds,violated,budget_exceeded"
    assert len(lines) > 1


def test_csv_summary_counts_each_verdict_per_claim():
    """Claims in sorted order, whatever the row order; every verdict that is
    neither holds nor violated counts as budget-exceeded."""
    rows = [
        ClaimResult(claim, f"i{k}", "=", {}, {}, verdict, True)
        for k, (claim, verdict) in enumerate([
            ("b/claim", "holds"),
            ("a/claim", "violated"),
            ("b/claim", "budget-exceeded"),
            ("a/claim", "holds"),
            ("b/claim", "holds"),
            ("a/claim", "violated"),
        ])
    ]
    assert csv_summary(rows) == (
        "claim,instances,holds,violated,budget_exceeded\n"
        "a/claim,3,1,2,0\n"
        "b/claim,3,2,0,1\n"
    )
    assert csv_summary([]) == "claim,instances,holds,violated,budget_exceeded\n"


def test_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        run_suites("bogus")


def test_every_row_equals_its_replay_from_scratch():
    """The per-run table changes no row: each equals a fresh replay.  An
    exhaustive finding carries its class's computed fields, so its replay
    on its own labeled graph also tests that the claims are label
    invariant, for every finding of order at most 6."""
    from dataclasses import asdict

    for rows in (check_named_parameters(), check_product_bounds(), exhaustive_small_graphs(6)):
        for r in rows:
            if not r.instance.startswith("all-labeled"):
                assert asdict(replay_claim(r)) == asdict(r), r.instance


def count_solves(monkeypatch):
    """Record every (graph, search) that verify asks the solver for: a Z or
    Z_c value query ("z", "z_c") or a solve report ("report")."""
    import zeroforcing.verify as verify

    calls = []

    def recorder(name, key):
        real = getattr(verify, name)

        def wrapped(g, *args, **kwargs):
            calls.append((g, key(*args)))
            return real(g, *args, **kwargs)

        monkeypatch.setattr(verify, name, wrapped)

    recorder("_min_size", lambda budget, connected, start: "z_c" if connected else "z")
    recorder("solve_report", lambda *a: "report")
    return calls


def test_each_graph_parameter_is_solved_once_per_suite_call(monkeypatch):
    calls = count_solves(monkeypatch)
    for suite in (check_named_parameters, check_product_bounds):
        calls.clear()
        suite()
        assert calls and len(set(calls)) == len(calls), suite.__name__
    # the exhaustive suite asks for one report per connected class, in class
    # order, and nothing else: a union's numbers come from its parts, which
    # are connected classes of lower orders, and its finding rows carry their
    # class's computed fields
    calls.clear()
    rows = exhaustive_small_graphs(5)
    classes = [g for n in range(1, 6) for _, g in graph_classes(n) if is_connected(g)]
    assert len(classes) == 31
    assert calls == [(g, "report") for g in classes]
    assert any(not r.instance.startswith("all-labeled") for r in rows)


def test_exhaustive_suite_reads_one_carried_recognizer_entry_per_class(monkeypatch):
    """Each class's certificate travels with it from ``graph_classes``: the
    suite makes one recognizer lookup per class, with that certificate, and
    searches for certificates only to find the classes and to build the
    recognizer's catalog."""
    import sys

    import zeroforcing.graphs as graphs
    import zeroforcing.recognize as recognize
    import zeroforcing.verify as verify

    for cached in (verify.graph_classes, verify._connected_classes, recognize._catalog):
        cached.cache_clear()
    callers = []
    greatest_code = graphs._greatest_code

    def counted(adj, cells, queue):
        frame = sys._getframe(1)
        if frame.f_code.co_name != "_greatest_code":  # a search, not one of its branches
            names = set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names & {"_connected_classes", "_catalog"})
        return greatest_code(adj, cells, queue)

    lookups = []

    def lookup(g, cert=None):
        lookups.append((g, cert))
        return recognize._lookup(g, cert)

    monkeypatch.setattr(graphs, "_greatest_code", counted)
    monkeypatch.setattr(verify, "_lookup", lookup)
    exhaustive_small_graphs(6)
    assert lookups == [(g, cert) for n in range(1, 7) for cert, g in graph_classes(n)]
    assert {frozenset(names) for names in callers} == {
        frozenset({"_connected_classes"}),
        frozenset({"_catalog"}),
    }


def test_run_suites_keep_no_state_between_calls(monkeypatch):
    calls = count_solves(monkeypatch)
    first = run_suites("all", nmax=4)
    solved_first = list(calls)
    assert {key for _, key in solved_first} == {"z", "z_c", "report"}
    calls.clear()
    second = run_suites("all", nmax=4)
    assert second == first
    # nothing carried over: the second call solves exactly what the first did
    assert calls == solved_first


def record_starts(monkeypatch):
    """Record the start level of every Z_c value query that verify runs."""
    import zeroforcing.verify as verify

    min_size, starts = verify._min_size, []

    def recorded(g, budget, connected, start):
        if connected:
            starts.append(start)
        return min_size(g, budget, connected, start)

    monkeypatch.setattr(verify, "_min_size", recorded)
    return starts


def test_table_starts_z_c_at_a_known_z(monkeypatch):
    import zeroforcing.verify as verify
    from zeroforcing.families import corona, cycle, path

    g = corona(cycle(5), path(3))
    starts = record_starts(monkeypatch)
    solved = verify._Solved()
    assert (solved.value(g, "z"), solved.value(g, "z_c")) == (7, 10)
    assert starts == [7]


def test_table_finds_z_before_z_c(monkeypatch):
    """Asked for Z_c alone, the table finds Z (7) first and starts the Z_c
    search there, as solve_report does."""
    import zeroforcing.verify as verify
    from zeroforcing.families import corona, cycle, path

    g = corona(cycle(5), path(3))
    starts = record_starts(monkeypatch)
    calls = count_solves(monkeypatch)
    solved = verify._Solved()
    assert solved.value(g, "z_c") == 10
    assert calls == [(g, "z"), (g, "z_c")] and starts == [7]
    assert solved.value(g, "z") == 7 and len(calls) == 2


def test_table_reads_pt_c_from_one_report(monkeypatch):
    """pt_c or PT_c, asked for first, come with Z and Z_c from one solve
    report, also after Z and Z_c were found as first hits; a path row
    checked from scratch asks for that report alone."""
    import zeroforcing.verify as verify
    from zeroforcing.families import star

    g = star(6)  # Z = 4, Z_c = 5, pt_c = PT_c = 1
    calls = count_solves(monkeypatch)
    for known in ((), ("z",), ("z", "z_c")):
        solved = verify._Solved()
        for key in known:
            solved.value(g, key)
        calls.clear()
        values = [solved.value(g, key) for key in ("PT_c", "pt_c", "z_c", "z", "PT_c")]
        assert values == [1, 1, 5, 4, 1]
        assert calls == [(g, "report")]
    calls.clear()
    row = verify._check("path/four-equivalence", "star(6)", {})
    assert row.computed == {"n": 6, "z_c": 5, "pt_c": 1, "PT_c": 1, "is_path": False}
    assert calls == [(g, "report")]


def test_report_keeps_the_values_read_before_it(monkeypatch):
    """The report of pt_c merges its numbers into the graph's entry, so the
    recognizer entry read before it is not looked up again."""
    import zeroforcing.recognize as recognize
    import zeroforcing.verify as verify
    from zeroforcing.families import complete

    g = complete(3)  # the smallest max-time shape: pt_c = PT_c = 1
    lookups = []

    def lookup(h, cert=None):
        lookups.append(h)
        return recognize._lookup(h, cert)

    monkeypatch.setattr(verify, "_lookup", lookup)
    calls = count_solves(monkeypatch)
    solved = verify._Solved()
    shape = solved.value(g, "shape")
    assert shape[0].accepted and lookups == [g]
    assert solved.value(g, "pt_c") == 1 and calls == [(g, "report")]
    assert solved.value(g, "shape") is shape and lookups == [g]
    solved.solve_class(g, certificate(g))
    assert solved.value(g, "shape") is shape and lookups == [g]
    assert solved.value(g, "certificate") == certificate(g)


def report_numbers(g):
    rep = solve_report(g, DEFAULT_BUDGET)
    return {"z": rep.z, "z_c": rep.z_c, "pt_c": rep.ptc_min, "PT_c": rep.ptc_max}


def class_numbers(solved, g, cert):
    solved.solve_class(g, cert)
    return {key: solved.value(g, key) for key in ("z", "z_c", "pt_c", "PT_c")}


def test_union_rule_matches_a_report_of_every_disconnected_class(monkeypatch):
    """For every disconnected class of order at most 7, the numbers read off
    its parts equal a solve report of its representative, and the table
    solves parts only: each connected class once, never a union."""
    import zeroforcing.verify as verify

    calls = count_solves(monkeypatch)
    solved = verify._Solved()
    unions = [(cert, g) for n in range(2, 8) for cert, g in graph_classes(n) if not is_connected(g)]
    assert len(unions) == 256
    for cert, g in unions:
        assert class_numbers(solved, g, cert) == report_numbers(g), cert
    assert all(is_connected(h) and key == "report" for h, key in calls)
    assert len({certificate(h) for h, _ in calls}) == len(calls)


@st.composite
def relabeled_unions(draw, max_n=10):
    """A disjoint union of 2-3 connected graphs of total order at most
    ``max_n``, relabeled by a permutation from a drawn seed."""
    count = draw(st.integers(min_value=2, max_value=3))
    parts, order = [], 0
    for i in range(count):
        part = draw(connected_graphs(max_n=max_n - order - (count - 1 - i)))
        parts.append([(u + order, v + order) for u, v in part.edges()])
        order += part.n
    perm = list(range(order))
    random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1))).shuffle(perm)
    return relabel(new_graph(order, [e for edges in parts for e in edges]), perm)


@given(relabeled_unions())
def test_union_rule_matches_a_report_of_a_relabeled_union(g):
    """The parts are solved from graphs built off their certificates, so
    this also checks that a certificate rebuilds its component."""
    import zeroforcing.verify as verify

    cert = certificate(g)
    assert not is_connected(g) and len(cert) >= 2
    assert class_numbers(verify._Solved(), g, cert) == report_numbers(g)


def test_exceeded_row_carries_the_meters_bound(monkeypatch):
    """A row whose search runs out records the closures and the lower bound
    of the search's meter, as every solver entry point reports it."""
    import zeroforcing.solver as solver
    import zeroforcing.verify as verify

    inst = "strong(cycle(6),path(4))"
    g = graph_from_instance(inst)

    def tight(kind):
        """The value query, with a budget of 10 for the ``kind`` searches."""
        return lambda h, budget, connected, start: solver._min_size(
            h, 10 if connected == kind else budget, connected, start
        )

    monkeypatch.setattr(verify, "_min_size", tight(False))
    row = verify._check("product/strong-cycle-path", inst, {"bound": 12})
    assert row.verdict == "budget-exceeded"
    assert row.computed == {"closures": 10, "z_lower_bound": solver._zfs_lower_bound(g)}
    # Z is found, then Z_c's search runs out on level Z, its first
    monkeypatch.setattr(verify, "_min_size", tight(True))
    row = verify._check("product/strong-cycle-path", inst, {"bound": 12})
    assert row.verdict == "budget-exceeded"
    assert row.computed == {"closures": 10, "z_c_lower_bound": 12}


def test_exhausted_drain_is_a_budget_exceeded_row(monkeypatch):
    """A finding replayed, and a path row checked, under a budget that runs
    out in the solve report that serves them are budget-exceeded, with the
    report's closures and lower bounds, never a verdict read off an unknown
    value."""
    import zeroforcing.verify as verify
    from zeroforcing.solver import solve_report

    finding = next(
        r for r in exhaustive_small_graphs(5)
        if r.claim == "extremal/max-time-shape" and r.instance.startswith("edges:")
    )
    monkeypatch.setattr(verify, "DEFAULT_BUDGET", 3)
    path_row = verify._check("path/four-equivalence", "cycle(6)", {})
    for row in (replay_claim(finding), path_row):
        rep = solve_report(graph_from_instance(row.instance), 3)
        assert rep.budget_exceeded and rep.closures == 3 and rep.lower_bounds, row.instance
        assert row.verdict == "budget-exceeded", row.instance
        assert row.computed == {"closures": rep.closures, **rep.lower_bounds}


def test_exhausted_class_report_stops_the_suite(monkeypatch):
    """A class report that runs out leaves the table without the class's
    values and stops the exhaustive suite with the report's closures and
    lower bound, never a verdict read off an unknown value."""
    import zeroforcing.verify as verify
    from zeroforcing.solver import BudgetExceeded, solve_report

    monkeypatch.setattr(verify, "DEFAULT_BUDGET", 2)
    for n in range(1, 4):
        for _, g in graph_classes(n):
            rep = solve_report(g, 2)
            solved = verify._Solved()
            with pytest.raises(BudgetExceeded) as exc:
                solved.solve(g)
            assert rep.budget_exceeded and exc.value.closures == rep.closures
            assert exc.value.best_known == rep.lower_bounds
            assert g not in solved._values
    # the one-vertex class gets through its Z phase and runs out on Z_c
    with pytest.raises(BudgetExceeded) as exc:
        exhaustive_small_graphs(3)
    assert (exc.value.closures, exc.value.best_known) == (2, {"z_c_lower_bound": 1})


@pytest.mark.parametrize(
    "desc",
    [
        "edges:n=٣;0-1",  # Arabic-Indic three
        "edges:n=+3;0-1",
        "edges:n= 3;0-1",
        "edges:n=3;0- 1",
        "edges:n=12;1_0-1",
        "edges:n3;0-1",
        "edges:n=3;0-1,",
        "edges:n=3;0-1-2",
        "edges:n=3;0",
        "edges:m=3;0-1",
        "edges:n=3;-1-2",
        "edges:n=3",
        "edges:n=3;0-" + "1" * 5000,  # more digits than int() converts
    ],
)
def test_malformed_edges_descriptor_is_a_graph_error(desc):
    """The order and ids of an edges descriptor are ASCII digits only."""
    with pytest.raises(GraphError):
        graph_from_instance(desc)
    assert graph_from_instance("edges:n=12;10-1,0-11") == new_graph(12, [(10, 1), (0, 11)])
    assert graph_from_instance("edges:n=3;") == new_graph(3, [])
