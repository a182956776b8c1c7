"""Isomorphism classes and the certificate behind them.

``graph_classes`` is checked against OEIS A000088 and A001349, against the
generator it replaced, against the orbits of every labeled graph, and
against ``networkx``'s graph atlas.  ``certificate`` is checked for
invariance under relabeling, against brute-force permutation isomorphism,
against its definition on components, and for speed on symmetric graphs.
``exhaustive_small_graphs`` is checked against a reference that evaluates
every claim on every labeled graph on its own.
"""

import random
import time
from itertools import combinations, permutations
from math import comb, factorial

import naive_oracle
import pytest
from writers import graph_to_instance

import zeroforcing.verify as verify
from zeroforcing.families import cartesian, complete, complete_multipartite, cycle, star
from zeroforcing.graphs import (
    are_isomorphic,
    canonical_graph,
    certificate,
    components,
    induced_subgraph,
    is_connected,
    is_path_graph,
    new_graph,
    relabel,
)
from zeroforcing.recognize import min_extremal_spec, recognize_extremal_form
from zeroforcing.solver import solve_report
from zeroforcing.verify import (
    CLAIMS,
    ClaimResult,
    _check,
    _orbit_codes,
    exhaustive_small_graphs,
    graph_classes,
)

# OEIS A000088: graphs on n unlabeled vertices, n = 0..8
A000088 = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
# OEIS A001349: connected graphs on n unlabeled vertices, n = 0..7
A001349 = [1, 1, 1, 2, 6, 21, 112, 853]


def code_graph(n, code):
    pairs = list(combinations(range(n), 2))
    return new_graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])


def random_graph(rnd, n):
    p = rnd.random()
    return new_graph(n, [(u, v) for u, v in combinations(range(n), 2) if rnd.random() < p])


def shuffled(rnd, g):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return relabel(g, perm)


def disjoint_copies(g, count):
    return new_graph(
        g.n * count, [(u + i * g.n, v + i * g.n) for i in range(count) for u, v in g.edges()]
    )


def test_class_counts_match_a000088():
    for n in range(1, 8):
        classes = graph_classes(n)
        assert len(classes) == A000088[n]
        connected = [is_connected(g) for _, g in classes]
        assert connected.count(True) == A001349[n]
        # the connected classes come first
        assert connected == sorted(connected, reverse=True)


def test_classes_match_the_replaced_generator():
    """Augmentation plus unions finds the classes that all-candidates
    augmentation deduped by certificate found, and each class carries its
    representative's certificate."""
    for n in range(1, 8):
        classes = graph_classes(n)
        assert all(cert == certificate(g) for cert, g in classes)
        assert len({cert for cert, _ in classes}) == len(classes)
        assert {cert for cert, _ in classes} == {
            certificate(g) for g in naive_oracle.graph_classes(n)
        }


def test_orbit_sizes_divide_n_factorial():
    """The classes' relabelings partition the labeled graphs, so the classes
    are pairwise non-isomorphic and miss none."""
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        orbits = [_orbit_codes(g, pairs) for _, g in graph_classes(n)]
        assert all(factorial(n) % len(o) == 0 for o in orbits)
        assert sum(map(len, orbits)) == len(set().union(*orbits)) == 1 << comb(n, 2)


def test_classes_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if 1 <= n <= 7:
            atlas.setdefault(n, {})[certificate(new_graph(n, h.edges()))] = h
    for n in range(1, 8):
        classes = graph_classes(n)
        assert len(atlas[n]) == len(classes) == A000088[n]
        for cert, g in classes:
            mine = nx.empty_graph(n)
            mine.add_edges_from(g.edges())
            assert nx.is_isomorphic(mine, atlas[n][cert])


def test_certificate_invariant_under_relabeling():
    rnd = random.Random(88)
    for _ in range(300):
        g = random_graph(rnd, rnd.randint(1, 9))
        assert certificate(shuffled(rnd, g)) == certificate(g), g.edges()


def certificate_by_definition(g):
    """A disconnected graph's certificate as first defined: the sorted
    certificates of its components, each relabeled as its own graph."""
    comps = components(g)
    if len(comps) == 1:
        return certificate(g)
    return tuple(sorted(certificate(induced_subgraph(g, c)[0]) for c in comps))


def random_disconnected_graph(rnd, n):
    """Vertices dealt into 2..n groups, edges only inside a group, so some
    groups are isolated vertices and the components interleave their ids."""
    groups = rnd.randint(2, n)
    group = [rnd.randrange(groups) for _ in range(n)]
    group[:2] = rnd.sample(range(groups), 2)  # at least two groups are used
    rnd.shuffle(group)
    p = rnd.random()
    pairs = [(u, v) for u, v in combinations(range(n), 2) if group[u] == group[v]]
    return new_graph(n, [e for e in pairs if rnd.random() < p])


def test_certificate_of_components_in_place_matches_the_definition():
    for n in range(1, 6):
        for code in range(1 << comb(n, 2)):
            g = code_graph(n, code)
            assert certificate(g) == certificate_by_definition(g), g.edges()
    rnd = random.Random(26)
    isolated = 0
    for _ in range(300):
        g = random_disconnected_graph(rnd, rnd.randint(2, 12))
        assert len(components(g)) > 1
        isolated += 0 in map(g.degree, range(g.n))
        cert = certificate(g)
        assert cert == certificate_by_definition(g), g.edges()
        assert certificate(shuffled(rnd, g)) == cert, g.edges()
    assert isolated


def test_canonical_graph_writes_its_certificate():
    """A connected certificate rebuilds a graph of its class, the same graph
    from a seeded relabeling: every connected class to order 7 and 100 seeded
    connected graphs of order 8 to 12, each relabeled."""
    rnd = random.Random(35)
    graphs = [g for n in range(1, 8) for _, g in verify._connected_classes(n)]
    assert len(graphs) == 996
    while len(graphs) < 996 + 100:
        g = random_graph(rnd, rnd.randint(8, 12))
        if is_connected(g):
            graphs.append(g)
    for g in graphs:
        cert = certificate(g)
        h = canonical_graph(cert)
        assert certificate(h) == cert, g.edges()
        assert canonical_graph(certificate(shuffled(rnd, g))) == h, g.edges()


def brute_isomorphic(g, h):
    edges = set(h.edges())
    return g.n == h.n and any(
        {tuple(sorted((p[u], p[v]))) for u, v in g.edges()} == edges
        for p in permutations(range(g.n))
    )


def test_classes_are_isomorphism_classes():
    """Certificates agree with brute-force isomorphism on seeded pairs of
    equal order and size, half of them relabelings of each other."""
    rnd = random.Random(6)
    seen = set()
    for _ in range(400):
        n = rnd.randint(1, 6)
        g = random_graph(rnd, n)
        if rnd.random() < 0.5:
            h = shuffled(rnd, g)
        else:
            m = len(g.edges())
            h = new_graph(n, rnd.sample(list(combinations(range(n), 2)), m))
        same = brute_isomorphic(g, h)
        seen.add(same)
        assert (certificate(g) == certificate(h)) == same, (g.edges(), h.edges())
        assert are_isomorphic(g, h) == same
    assert seen == {True, False}


@pytest.mark.parametrize(
    "g",
    [
        complete(16),
        star(16),
        complete_multipartite([8, 8]),
        disjoint_copies(complete(2), 8),
        disjoint_copies(complete(3), 5),
        cartesian(cycle(4), cycle(4)),
    ],
    ids=["K16", "star16", "K8,8", "8K2", "5K3", "C4xC4"],
)
def test_isomorphism_of_symmetric_graphs_is_fast(g):
    """Twins and components are pruned; without that, K16 and 8 K2 take
    seconds or never finish."""
    h = shuffled(random.Random(g.n), g)
    began = time.perf_counter()
    assert are_isomorphic(g, h)
    assert time.perf_counter() - began < 0.1


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


@pytest.mark.parametrize("claims", [verify._EXHAUSTIVE_CLAIMS], ids=["all"])
def test_exhaustive_matches_per_labeled_reference(reference5, claims):
    assert exhaustive_small_graphs(5) == reference_rows(reference5, claims)


def test_reference_sees_the_order_5_findings(reference5):
    """Both extremal-shape claims have labeled findings at n = 5, so the
    comparison above covers violating classes."""
    assert len(reference5[5]["extremal/max-time-shape"]) == 60
    assert len(reference5[5]["extremal/min-time-shape"]) == 60
