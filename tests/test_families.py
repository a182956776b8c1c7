import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from zeroforcing import families
from zeroforcing.families import (
    ArityMismatch,
    BadPartition,
    InvalidSpec,
    OrderTooSmall,
    PCSpec,
    cartesian,
    complete,
    complete_multipartite,
    corona,
    cycle,
    generalized_corona,
    path,
    pc_graph,
    star,
    strong,
    supertriangle,
    vertex_sum,
    wheel,
)
from zeroforcing.graphs import (
    CapacityExceeded,
    are_isomorphic,
    components,
    induced_subgraph,
    is_connected,
    mask_of,
    new_graph,
)


def test_basic_families():
    c8 = cycle(8)
    assert c8.n == 8 and c8.edge_count() == 8
    assert all(c8.degree(v) == 2 for v in range(8))
    s6 = star(6)
    assert [s6.degree(v) for v in range(6)] == [5, 1, 1, 1, 1, 1]
    w6 = wheel(6)
    assert w6.degree(0) == 5
    assert all(w6.degree(v) == 3 for v in range(1, 6))
    assert are_isomorphic(path(1), new_graph(1, []))


def test_family_order_errors():
    with pytest.raises(OrderTooSmall):
        path(0)
    with pytest.raises(OrderTooSmall):
        cycle(2)
    with pytest.raises(OrderTooSmall):
        star(1)
    with pytest.raises(OrderTooSmall):
        wheel(3)
    with pytest.raises(OrderTooSmall):
        supertriangle(0)


def test_supertriangle():
    t4 = supertriangle(4)
    assert t4.n == 10 and t4.edge_count() == 18
    corners = [v for v in range(10) if t4.degree(v) == 2]
    assert corners == [0, 6, 9]
    assert are_isomorphic(supertriangle(1), path(1))
    assert are_isomorphic(supertriangle(2), complete(3))


def test_complete_multipartite():
    k23 = complete_multipartite([2, 3])
    assert k23.n == 5 and k23.edge_count() == 6
    assert are_isomorphic(complete_multipartite([1, 1, 1]), complete(3))
    k222 = complete_multipartite([2, 2, 2])
    assert k222.edge_count() == 12
    assert all(k222.degree(v) == 4 for v in range(6))
    with pytest.raises(BadPartition):
        complete_multipartite([3])
    with pytest.raises(BadPartition):
        complete_multipartite([2, 0])


def test_products():
    assert are_isomorphic(cartesian(path(2), path(2)), cycle(4))
    assert are_isomorphic(strong(path(2), path(2)), complete(4))
    big = strong(cycle(5), path(3))
    assert big.n == 15
    assert big.labels is not None and big.labels[7] == "2,1"
    with pytest.raises(CapacityExceeded):
        cartesian(complete(12), complete(12))


def test_capacity_is_checked_before_any_edge(monkeypatch):
    k12, p120 = complete(12), path(120)

    def built(*args, **kwargs):
        raise AssertionError("new_graph called on an oversized order")

    monkeypatch.setattr(families, "new_graph", built)
    for make, order in (
        (lambda: path(129), 129),
        (lambda: cycle(200), 200),
        (lambda: complete(200), 200),
        (lambda: star(200), 200),
        (lambda: wheel(200), 200),
        (lambda: supertriangle(20), 210),
        (lambda: complete_multipartite([100, 100]), 200),
        (lambda: pc_graph(PCSpec((200,))), 203),
        (lambda: cartesian(k12, k12), 144),
        (lambda: strong(k12, k12), 144),
        (lambda: corona(k12, k12), 156),
        (lambda: vertex_sum(k12, 0, p120, 0), 131),
    ):
        with pytest.raises(CapacityExceeded, match=f"^{order} vertices exceeds capacity 128$"):
            make()


@given(graphs(max_n=4), graphs(max_n=4))
@settings(max_examples=40)
def test_product_structure(g, h):
    c = cartesian(g, h)
    s = strong(g, h)
    assert c.n == s.n == g.n * h.n
    for v in range(c.n):
        assert c.adj[v] & ~s.adj[v] == 0
    assert (
        s.edge_count()
        == g.n * h.edge_count()
        + h.n * g.edge_count()
        + 2 * g.edge_count() * h.edge_count()
    )


def test_corona():
    g = corona(cycle(5), path(3))
    assert g.n == 20
    assert g.degree(0) == 5
    assert are_isomorphic(corona(path(1), path(1)), path(2))
    assert corona(path(3), cycle(6)).n == 21


def test_generalized_corona():
    g = generalized_corona(path(2), [path(1), path(1)])
    assert are_isomorphic(g, path(4))
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]
    assert are_isomorphic(generalized_corona(path(1), [cycle(4)]), wheel(5))
    with pytest.raises(ArityMismatch):
        generalized_corona(path(2), [path(1)])


@given(graphs(max_n=3, min_n=1), graphs(max_n=3, min_n=1))
@settings(max_examples=30)
def test_generalized_corona_matches_corona(g, h):
    assert are_isomorphic(generalized_corona(g, [h] * g.n), corona(g, h))


def test_pc_graph_small():
    assert are_isomorphic(pc_graph(PCSpec((0,))), complete(3))
    pc3 = pc_graph(PCSpec((3,)))
    assert pc3.n == 6
    assert are_isomorphic(pc3, cycle(6))
    assert pc_graph(PCSpec((4, 3, 5, 0, 2))).n == 21


def test_pc_graph_numbering_and_chords():
    g = pc_graph(PCSpec((3,), ((1, 3),)))
    # path v1,v2,v3 = 0,1,2; u1,u2,u3 = 3,4,5; chords join u1 and u3 to v2
    assert g.has_edge(2, 3) and g.has_edge(3, 4) and g.has_edge(4, 5) and g.has_edge(5, 0)
    assert g.has_edge(3, 1) and g.has_edge(5, 1)
    assert g.labels[:3] == ("v1", "v2", "v3")
    assert g.labels[3:] == ("u1.1", "u1.2", "u1.3")


def test_pc_graph_tail():
    g = pc_graph(PCSpec((1,), tail=(2, 2)))
    # 4-cycle with one pendant vertex hanging at v2
    assert g.n == 5 and g.edge_count() == 5
    assert g.degree(1) == 3 and g.degree(4) == 1


def test_pc_spec_validation():
    with pytest.raises(InvalidSpec):
        PCSpec(())
    with pytest.raises(InvalidSpec):
        PCSpec((2,), ((3,),))
    with pytest.raises(InvalidSpec):
        PCSpec((2,), tail=(5, 2))
    with pytest.raises(InvalidSpec):
        PCSpec((2,), tail=(1, 1))


def _articulation_free(g):
    if not is_connected(g):
        return False
    for v in range(g.n):
        rest = g.full_mask & ~(1 << v)
        sub, _ = induced_subgraph(g, rest)
        if len(components(sub)) > 1:
            return False
    return True


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
@settings(max_examples=30)
def test_chordless_pc_two_connected(cycles):
    g = pc_graph(PCSpec(tuple(cycles)))
    assert g.n >= 3
    assert _articulation_free(g)


def test_vertex_sum():
    assert are_isomorphic(vertex_sum(path(3), 2, path(3), 0), path(5))
    paw = vertex_sum(complete(3), 0, path(2), 0)
    assert paw.n == 4 and paw.edge_count() == 4
    g = vertex_sum(pc_graph(PCSpec((2,))), 2, path(3), 0)
    assert g.n == 7


def test_order_formulas():
    for g, h in [(cycle(5), path(3)), (path(2), complete(3))]:
        assert corona(g, h).n == g.n * h.n + g.n
        assert cartesian(g, h).n == strong(g, h).n == g.n * h.n
    spec = PCSpec((4, 3, 5, 0, 2))
    assert pc_graph(spec).n == spec.k + 2 + sum(spec.cycles)
    assert vertex_sum(cycle(4), 0, path(5), 4).n == 4 + 5 - 1
