from zeroforcing.graphs import new_graph
from zeroforcing.verify import (
    check_named_parameters,
    check_product_bounds,
    csv_summary,
    exhaustive_small_graphs,
    graph_from_instance,
    graph_to_instance,
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
