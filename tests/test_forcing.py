import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs, graphs_with_sets
from naive_oracle import closure as naive_closure
from naive_oracle import derived_coloring_sequential, forces_one_round, neighbor_sets
from zeroforcing.families import complete, cycle, path, star, supertriangle
from zeroforcing.forcing import (
    ForcingTrace,
    NotForcing,
    _batch_rounds,
    _rounds,
    derived_coloring,
    is_czfs,
    is_zfs,
    propagation_time,
    propagation_trace,
    replay_trace,
)
from zeroforcing.graphs import mask_of, new_graph, vertices_of


def test_forces_one_round_examples():
    assert forces_one_round(path(3), mask_of([0])) == [(0, 1)]
    assert forces_one_round(cycle(8), mask_of([0, 1])) == [(0, 7), (1, 2)]
    assert forces_one_round(complete(3), mask_of([0])) == []


def test_forces_one_round_reports_all_forcers():
    # both endpoints of P3 force the middle vertex
    assert forces_one_round(path(3), mask_of([0, 2])) == [(0, 1), (2, 1)]


def test_derived_coloring_examples():
    p6 = path(6)
    assert derived_coloring(p6, mask_of([0])) == p6.full_mask
    g = cycle(5)
    assert derived_coloring(g, g.full_mask) == g.full_mask
    assert derived_coloring(complete(3), mask_of([0])) == mask_of([0])
    assert derived_coloring(p6, 0) == 0


def test_zfs_predicates_on_star():
    s6 = star(6)
    four_leaves = mask_of([1, 2, 3, 4])
    assert is_zfs(s6, four_leaves)
    assert not is_czfs(s6, four_leaves)
    with_center = mask_of([0, 1, 2, 3, 4])
    assert is_zfs(s6, with_center) and is_czfs(s6, with_center)
    assert not is_zfs(s6, 0)


def test_antipodal_pair_stalls_on_cycle():
    c8 = cycle(8)
    b = mask_of([0, 4])
    assert derived_coloring(c8, b) == b
    assert not is_zfs(c8, b)


def test_trace_supertriangle_golden():
    t4 = supertriangle(4)
    trace = propagation_trace(t4, mask_of([0, 1, 3, 6]))
    assert trace.pt == 4
    assert [vertices_of(m) for m in trace.forced_masks()] == [
        (2, 7),
        (4,),
        (5, 8),
        (9,),
    ]
    # vertex 4 is forced by both 1 and 3; the smaller forcer is recorded
    assert trace.rounds[1] == ((1, 4),)


def test_trace_cycle_golden():
    trace = propagation_trace(cycle(8), mask_of([0, 1]))
    assert trace.pt == 3
    assert [vertices_of(m) for m in trace.forced_masks()] == [(2, 7), (3, 6), (4, 5)]


def test_trace_path_golden():
    trace = propagation_trace(path(6), mask_of([0]))
    assert trace.pt == 5
    assert [vertices_of(m) for m in trace.forced_masks()] == [
        (1,),
        (2,),
        (3,),
        (4,),
        (5,),
    ]


def test_trace_without_forcing_set():
    trace = propagation_trace(cycle(8), mask_of([0, 3]))
    assert trace.pt is None
    assert trace.final != cycle(8).full_mask
    assert replay_trace(cycle(8), trace)


def test_replay_rejects_ids_outside_the_graph():
    g = path(3)
    for forces in [((-1, 1),), ((1, -1),), ((0, 3),), ((3, 0),)]:
        assert not replay_trace(g, ForcingTrace(1, (forces,), 7, 2))
    assert replay_trace(g, ForcingTrace(1, (((0, 1),), ((1, 2),)), 7, 2))


def test_replay_rejects_rounds_that_are_not_the_rules():
    g = path(4)
    # {0, 3} forces 1 and 2 in one round: pt is 1, not 2
    assert not replay_trace(g, ForcingTrace(0b1001, (((0, 1),), ((3, 2),)), 0b1111, 2))
    assert replay_trace(g, ForcingTrace(0b1001, (((0, 1), (3, 2)),), 0b1111, 1))
    # {0} forces all of path(4): a trace that stops at once is no run of the rule
    assert not replay_trace(g, ForcingTrace(0b0001, (), 0b0001, None))


def test_propagation_time():
    g = path(7)
    assert propagation_time(g, mask_of([0])) == 6
    assert propagation_time(g, g.full_mask) == 0
    with pytest.raises(NotForcing):
        propagation_time(cycle(6), mask_of([0, 3]))


@given(graphs_with_sets())
def test_closure_matches_round_simulation(gm):
    g, b = gm
    assert derived_coloring(g, b) == propagation_trace(g, b).final


@given(graphs_with_sets())
def test_closure_matches_set_oracle(gm):
    g, b = gm
    expect = naive_closure(neighbor_sets(g), vertices_of(b))
    assert set(vertices_of(derived_coloring(g, b))) == expect


@given(graphs_with_sets(), st.integers(min_value=0, max_value=2**32 - 1))
def test_closure_order_independent(gm, seed):
    g, b = gm
    rng = random.Random(seed)
    assert derived_coloring_sequential(g, b, rng) == derived_coloring(g, b)


@given(graphs_with_sets(), st.data())
def test_closure_monotone(gm, data):
    g, b = gm
    extra = data.draw(st.integers(min_value=0, max_value=g.full_mask))
    small = derived_coloring(g, b)
    large = derived_coloring(g, b | extra)
    assert small & ~large == 0


@given(graphs_with_sets())
def test_trace_replays(gm):
    g, b = gm
    assert replay_trace(g, propagation_trace(g, b))


@given(graphs_with_sets(), st.data())
def test_replay_rejects_split_and_cut_rounds(gm, data):
    """A trace replays only with the rule's own rounds: a round split in two
    or a run cut before its fixpoint is rejected, while the order of the
    pairs within a round is free."""
    g, b = gm
    trace = propagation_trace(g, b)
    rounds = trace.rounds
    assert replay_trace(g, trace)
    if not rounds:
        return
    t = data.draw(st.integers(min_value=0, max_value=len(rounds) - 1))
    flipped = rounds[:t] + (rounds[t][::-1],) + rounds[t + 1:]
    assert replay_trace(g, replace(trace, rounds=flipped))
    cut = rounds[:-1]
    reached = b | mask_of(v for rnd in cut for _, v in rnd)
    assert not replay_trace(g, ForcingTrace(b, cut, reached, None))
    wide = [t for t, rnd in enumerate(rounds) if len(rnd) >= 2]
    if wide:
        t = data.draw(st.sampled_from(wide))
        j = data.draw(st.integers(min_value=1, max_value=len(rounds[t]) - 1))
        split = rounds[:t] + (rounds[t][:j], rounds[t][j:]) + rounds[t + 1:]
        pt = None if trace.pt is None else trace.pt + 1
        assert not replay_trace(g, replace(trace, rounds=split, pt=pt))


@given(graphs_with_sets())
def test_trace_rounds_match_oracle(gm):
    """Each traced round is the oracle's round from the same coloring, with
    the smallest forcer kept per forced vertex; after the last round no
    force is left."""
    g, b = gm
    trace = propagation_trace(g, b)
    black = b
    for rnd in trace.rounds:
        first = {}
        for u, v in forces_one_round(g, black):
            first.setdefault(v, u)
        assert rnd == tuple((first[v], v) for v in sorted(first))
        for _, v in rnd:
            black |= 1 << v
    assert forces_one_round(g, black) == []
    assert black == trace.final


@given(graphs_with_sets())
def test_round_count_bounds(gm):
    g, b = gm
    trace = propagation_trace(g, b)
    if trace.pt is not None:
        missing = g.n - bin(b).count("1")
        assert 0 <= trace.pt <= missing
    black = b
    for rnd in trace.rounds:
        # one forcer forces at most one vertex per round
        assert len(rnd) <= bin(black).count("1")
        for _, v in rnd:
            black |= 1 << v


@st.composite
def batch_colorings(draw):
    """A graph with trailing isolated vertices, a list of colorings of it
    (empty, full and arbitrary), and the colorings ``ones`` selects."""
    g = draw(graphs(max_n=8))
    isolated = draw(st.integers(min_value=0, max_value=2))
    n = g.n + isolated
    g = new_graph(n, [(u, v) for u in range(g.n) for v in vertices_of(g.adj[u]) if u < v])
    full = (1 << n) - 1
    coloring = st.one_of(st.just(0), st.just(full), st.integers(min_value=0, max_value=full))
    masks = draw(st.lists(coloring, min_size=1, max_size=40))
    ones = draw(st.integers(min_value=0, max_value=(1 << len(masks)) - 1))
    return g, masks, ones


@given(batch_colorings())
def test_batch_rounds_matches_per_coloring_rounds(gmo):
    """Bit j of done[t] iff coloring j is in ``ones`` and forces g in t
    rounds; a coloring outside ``ones`` never shows, whatever its bits."""
    g, masks, ones = gmo
    nbrs = [vertices_of(a) for a in g.adj]
    cols = [sum(1 << j for j, m in enumerate(masks) if m >> v & 1) for v in range(g.n)]
    want = [0]
    for j, m in enumerate(masks):
        if ones >> j & 1:
            black, t = _rounds(g.adj, g.full_mask, m)
            if black == g.full_mask:
                want.extend([0] * (t + 1 - len(want)))
                want[t] |= 1 << j
    assert _batch_rounds(nbrs, cols, ones) == want
