import random
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from zeroforcing.graphs import (
    CapacityExceeded,
    EmptySet,
    EmptyVertexSet,
    EndpointOutOfRange,
    SelfLoop,
    TooLarge,
    are_isomorphic,
    components,
    format_edge_list,
    induced_subgraph,
    is_connected_in_components,
    is_path_graph,
    iter_vertices,
    mask_of,
    new_graph,
    parse_edge_list,
    relabel,
    vertices_of,
)
from zeroforcing.families import complete, cycle, path, star


def test_new_graph_path():
    g = new_graph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_new_graph_single_vertex():
    g = new_graph(1, [])
    assert g.n == 1 and g.edge_count() == 0


def test_new_graph_deduplicates():
    g = new_graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g == new_graph(3, [(0, 1), (1, 2)])


def test_new_graph_errors():
    with pytest.raises(EmptyVertexSet):
        new_graph(0, [])
    with pytest.raises(SelfLoop):
        new_graph(2, [(1, 1)])
    with pytest.raises(EndpointOutOfRange):
        new_graph(2, [(0, 2)])
    with pytest.raises(CapacityExceeded):
        new_graph(129, [])


def test_components_order_and_content():
    g = new_graph(5, [(1, 2), (2, 3), (3, 4)])
    assert components(g) == [mask_of([0]), mask_of([1, 2, 3, 4])]
    assert components(cycle(8)) == [cycle(8).full_mask]
    assert components(new_graph(3, [])) == [1, 2, 4]


def test_connected_in_components():
    g = new_graph(5, [(1, 2), (2, 3), (3, 4)])
    assert is_connected_in_components(g, mask_of([0, 4]))
    p5 = path(5)
    assert not is_connected_in_components(p5, mask_of([0, 2]))
    assert is_connected_in_components(cycle(8), mask_of([2, 3, 4]))
    with pytest.raises(EmptySet):
        is_connected_in_components(p5, 0)


def test_induced_subgraph():
    sub, mapping = induced_subgraph(cycle(8), mask_of([2, 3, 4, 5]))
    assert mapping == [2, 3, 4, 5]
    assert are_isomorphic(sub, path(4))
    k3, _ = induced_subgraph(complete(5), mask_of([0, 2, 4]))
    assert are_isomorphic(k3, complete(3))
    leaves, _ = induced_subgraph(star(6), mask_of([1, 2, 3]))
    assert leaves.edge_count() == 0
    with pytest.raises(EmptySet):
        induced_subgraph(cycle(4), 0)


def test_mask_outside_the_graph():
    """Both helpers refuse a mask with ids outside 0..n-1, a negative one included."""
    for mask in (0b1000, 0b1101, 0b1001, -1):
        with pytest.raises(EndpointOutOfRange):
            is_connected_in_components(path(3), mask)
        with pytest.raises(EndpointOutOfRange):
            induced_subgraph(path(3), mask)


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 70), -0b1011])
def test_negative_mask_has_no_vertex_set(mask):
    """A negative mask holds every id from some point on, so both helpers
    raise where the bit walk never ended; at most 200 ids are asked for."""
    with pytest.raises(EndpointOutOfRange):
        list(islice(iter_vertices(mask), 200))
    with pytest.raises(EndpointOutOfRange):
        vertices_of(mask)


def test_is_path_graph():
    assert is_path_graph(path(6))
    assert not is_path_graph(cycle(6))
    assert is_path_graph(new_graph(1, []))
    assert is_path_graph(path(2))
    assert not is_path_graph(new_graph(4, [(0, 1), (2, 3)]))
    assert not is_path_graph(star(4))


def test_are_isomorphic_basic():
    c5 = cycle(5)
    shuffled = relabel(c5, [3, 0, 4, 1, 2])
    assert are_isomorphic(c5, shuffled)
    assert not are_isomorphic(path(4), star(4))
    with pytest.raises(TooLarge):
        are_isomorphic(path(17), path(17))


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert are_isomorphic(g, relabel(g, perm))


@given(graphs())
def test_components_partition(g):
    comps = components(g)
    union = 0
    for c in comps:
        assert union & c == 0
        union |= c
        for v in vertices_of(c):
            assert g.adj[v] & ~c == 0
    assert union == g.full_mask


@given(graphs(min_n=2), st.data())
def test_induced_subgraph_edge_count(g, data):
    s = data.draw(st.integers(min_value=1, max_value=g.full_mask))
    sub, mapping = induced_subgraph(g, s)
    expected = sum(1 for u, v in g.edges() if s >> u & 1 and s >> v & 1)
    assert sub.edge_count() == expected
    assert mapping == list(vertices_of(s))


def test_edge_list_round_trip():
    g = new_graph(6, [(0, 1), (2, 5), (3, 4)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parsing():
    g = parse_edge_list("# a comment\nn 4\n0 1\n1 2  # trailing\n")
    assert g == new_graph(4, [(0, 1), (1, 2)])
    inferred = parse_edge_list("0 1\n1 3\n")
    assert inferred.n == 4


def test_edge_list_random_round_trips():
    rnd = random.Random(7)
    for _ in range(25):
        n = rnd.randint(1, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rnd.random() < 0.4
        ]
        g = new_graph(n, edges)
        assert parse_edge_list(format_edge_list(g)) == g


def test_ascii_int_reads_ascii_digits_only():
    from zeroforcing.graphs import ascii_int

    assert [ascii_int(t) for t in ("0", "12", "-3", "007")] == [0, 12, -3, 7]
    # int() takes every one of these
    for text in ("١", "٣٠", " 1", "1 ", "+1", "1_0", "-١"):
        with pytest.raises(ValueError):
            ascii_int(text)
    for text in ("", "-", "--1", "1-", "x", "9" * 5000):
        with pytest.raises(ValueError):
            ascii_int(text)
