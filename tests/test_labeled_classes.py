"""The isomorphism-class walk behind the exhaustive suite.

``labeled_classes`` is checked against OEIS A000088 and against
``are_isomorphic``.  ``exhaustive_small_graphs`` is checked against a
reference that evaluates every claim on every labeled graph on its own.
"""

from array import array
from collections import Counter
from itertools import combinations
from math import comb, factorial

import pytest

import zeroforcing.verify as verify
from zeroforcing.graphs import are_isomorphic, is_connected, is_path_graph, new_graph
from zeroforcing.recognize import min_extremal_spec, recognize_extremal_form
from zeroforcing.solver import solve_report
from zeroforcing.verify import (
    CLAIMS,
    ClaimResult,
    _check,
    exhaustive_small_graphs,
    graph_to_instance,
    labeled_classes,
)

# OEIS A000088: graphs on n unlabeled vertices, n = 0..8
A000088 = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]


def code_graph(n, code):
    pairs = list(combinations(range(n), 2))
    return new_graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])


@pytest.fixture(scope="module")
def classes():
    return {n: labeled_classes(n) for n in range(1, 7)}


def test_class_counts_match_a000088(classes):
    for n, (reps, ids) in classes.items():
        assert len(reps) == A000088[n]
        assert len(ids) == 1 << comb(n, 2)


def test_representative_is_the_least_code_of_its_class(classes):
    for reps, ids in classes.values():
        assert reps == sorted(reps)
        assert [ids[r] for r in reps] == list(range(len(reps)))
        assert all(reps[cid] <= code for code, cid in enumerate(ids))


def test_orbit_sizes_divide_n_factorial(classes):
    for n, (reps, ids) in classes.items():
        sizes = Counter(ids)
        # every code is marked with a real class
        assert set(sizes) == set(range(len(reps)))
        assert sum(sizes.values()) == 1 << comb(n, 2)
        assert all(factorial(n) % size == 0 for size in sizes.values())


def test_classes_are_isomorphism_classes(classes):
    for n in range(1, 6):
        reps, ids = classes[n]
        rep_graphs = [code_graph(n, r) for r in reps]
        for code, cid in enumerate(ids):
            assert are_isomorphic(code_graph(n, code), rep_graphs[cid]), (n, code)
        for a, b in combinations(rep_graphs, 2):
            assert not are_isomorphic(a, b)


def test_class_ids_hold_more_than_255_classes():
    """n = 7 has 1,044 classes and n = 8 has 12,346.  Their ids must fit the
    id array and stay apart from the unmarked sentinel; checked on the
    array type, since the n = 7 walk alone takes seconds."""
    _, ids = labeled_classes(3)
    top = A000088[8] - 1
    probe = array(ids.typecode, [top])
    assert probe[0] == top < verify._UNMARKED


def reference_violations(n, claims):
    """Per claim, every violating labeled graph on n vertices in code order,
    evaluating each labeled graph on its own."""
    violations = {c: [] for c in claims}
    for code in range(1 << comb(n, 2)):
        g = code_graph(n, code)
        rep = solve_report(g)
        connected = is_connected(g)
        inst = graph_to_instance(g)
        if "order/z-le-zc" in claims and not rep.z <= rep.z_c:
            violations["order/z-le-zc"].append(inst)
        if "path/four-equivalence" in claims and connected:
            flags = {
                rep.z_c == 1,
                rep.ptc_min == g.n - 1,
                rep.ptc_max == g.n - 1,
                is_path_graph(g),
            }
            if len(flags) != 1:
                violations["path/four-equivalence"].append(inst)
        if "extremal/max-time-shape" in claims:
            accepted = recognize_extremal_form(g).accepted
            if (rep.ptc_max == g.n - 2) != accepted:
                violations["extremal/max-time-shape"].append(inst)
        if "extremal/min-time-shape" in claims and connected:
            accepted = min_extremal_spec(g) is not None
            if (rep.ptc_min == g.n - 2) != accepted:
                violations["extremal/min-time-shape"].append(inst)
    return violations


@pytest.fixture(scope="module")
def reference5():
    return {n: reference_violations(n, verify._EXHAUSTIVE_CLAIMS) for n in range(1, 6)}


def reference_rows(reference, claims):
    out = []
    for n, violations in reference.items():
        for c in claims:
            _, _, relation, hard = CLAIMS[c]
            found = violations[c]
            out.append(
                ClaimResult(
                    claim=c,
                    instance=f"all-labeled(n={n})",
                    relation=relation,
                    expected={},
                    computed={"graphs": 1 << comb(n, 2), "violations": len(found)},
                    verdict="violated" if found else "holds",
                    hard=hard,
                )
            )
            out.extend(_check(c, inst, {}) for inst in found)
    return out


@pytest.mark.parametrize(
    "claims",
    [None] + [(c,) for c in verify._EXHAUSTIVE_CLAIMS],
    ids=lambda c: "all" if c is None else c[0],
)
def test_exhaustive_matches_per_labeled_reference(reference5, claims):
    want = reference_rows(reference5, claims or verify._EXHAUSTIVE_CLAIMS)
    assert exhaustive_small_graphs(5, claims=claims) == want


def test_reference_sees_the_order_5_findings(reference5):
    """Both extremal-shape claims have labeled findings at n = 5, so the
    comparison above covers violating classes."""
    assert len(reference5[5]["extremal/max-time-shape"]) == 60
    assert len(reference5[5]["extremal/min-time-shape"]) == 60
