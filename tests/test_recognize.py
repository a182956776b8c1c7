import random

import pytest

from zeroforcing.families import PCSpec, complete, cycle, path, pc_graph, vertex_sum
from zeroforcing.graphs import (
    TooLarge,
    are_isomorphic,
    components,
    induced_subgraph,
    is_path_graph,
    new_graph,
    relabel,
)
from zeroforcing.recognize import (
    FormKind,
    _lookup,
    min_extremal_spec,
    recognize_extremal_form,
)
from zeroforcing.verify import graph_classes


def form(g):
    return recognize_extremal_form(g)


def test_triangle_is_smallest_pc_form():
    res = form(complete(3))
    assert res.kind is FormKind.PC_FORM
    assert res.spec == PCSpec((0,))


def test_paths_are_not_extremal():
    assert form(path(5)).kind is FormKind.NOT_EXTREMAL
    assert form(path(2)).kind is FormKind.NOT_EXTREMAL


def test_two_triangle_and_house_forms():
    diamond = new_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    res = form(diamond)
    assert res.kind is FormKind.PC_FORM and res.spec.cycles == (0, 0)
    house = pc_graph(PCSpec((1, 0)))
    assert form(house).kind is FormKind.PC_FORM


def test_banner_is_pc_plus_tail():
    banner = vertex_sum(cycle(4), 1, path(2), 0)
    res = form(banner)
    assert res.kind is FormKind.PC_PLUS_TAIL
    assert res.spec == PCSpec((1,), tail=(2, 2))


def test_plain_cycles_are_rejected():
    # C4 = PC(1) and C6 = PC(3), but a tail-less shape needs a triangle
    # as its last cycle, which these lack
    assert form(cycle(4)).kind is FormKind.NOT_EXTREMAL
    assert form(cycle(6)).kind is FormKind.NOT_EXTREMAL


def test_disconnected_case():
    assert form(new_graph(5, [(1, 2), (2, 3), (3, 4)])).kind is FormKind.DISCONNECTED_CASE
    assert form(new_graph(2, [])).kind is FormKind.DISCONNECTED_CASE
    assert form(new_graph(4, [(0, 1), (2, 3)])).kind is FormKind.NOT_EXTREMAL
    assert form(new_graph(4, [(1, 2), (1, 3), (2, 3)])).kind is FormKind.NOT_EXTREMAL


def test_recognizer_rebuild_soundness():
    for g in [
        complete(3),
        pc_graph(PCSpec((2, 0))),
        pc_graph(PCSpec((1,), ((1,),), tail=(2, 3))),
        vertex_sum(cycle(4), 1, path(2), 0),
    ]:
        res = form(g)
        assert res.accepted
        if res.spec is not None:
            assert are_isomorphic(pc_graph(res.spec), g)


def test_size_limit():
    """Recognition answers up to 12 vertices, where the largest catalog
    builds in about a second, and raises TooLarge above."""
    for g in (path(13), cycle(13), path(17)):
        with pytest.raises(TooLarge):
            recognize_extremal_form(g)
        with pytest.raises(TooLarge):
            min_extremal_spec(g)
    paw_tail = pc_graph(PCSpec((0,), tail=(2, 10)))
    assert paw_tail.n == 12
    assert recognize_extremal_form(paw_tail).kind is FormKind.PC_PLUS_TAIL
    assert min_extremal_spec(paw_tail) == PCSpec((0,), tail=(2, 10))
    assert not recognize_extremal_form(cycle(12)).accepted


def test_empty_catalog_searches_no_certificate(monkeypatch):
    """No shape has the order and size of K_6, so its lookup answers from
    the empty catalog without a certificate search."""
    import zeroforcing.recognize as recognize

    assert recognize._catalog(6, 15) == {}
    calls = []
    monkeypatch.setattr(recognize, "certificate", lambda g: calls.append(g))
    assert _lookup(complete(6)) == (recognize._NOT_EXTREMAL, None)
    assert calls == []


def test_min_conditions_require_first_cycle_chords():
    # chordless two-cycle shape: the v1-side end of the first u-run is
    # not joined to v2, so the minimum-time conditions fail
    assert min_extremal_spec(pc_graph(PCSpec((1, 0)))) is None
    assert min_extremal_spec(pc_graph(PCSpec((1, 0), ((1,), ())))) is not None


def test_min_conditions_single_cycle_needs_both_ends():
    chorded = pc_graph(PCSpec((3,), ((1, 3),)))
    assert min_extremal_spec(chorded) is not None
    one_end = pc_graph(PCSpec((3,), ((1,),)))
    assert min_extremal_spec(one_end) is None


def test_min_conditions_vacuous_on_triangle_first_cycle():
    assert min_extremal_spec(complete(3)) is not None
    paw = pc_graph(PCSpec((0,), tail=(2, 2)))
    assert min_extremal_spec(paw) is not None


def test_min_conditions_hold_over_every_representation():
    # matches PC(0,1) with a tail (vacuous condition) but also matches
    # PC(2)[one chord] with a tail, whose both-ends condition fails
    g = new_graph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3)])
    assert recognize_extremal_form(g).accepted
    assert min_extremal_spec(g) is None


def test_min_spec_of_chorded_pc3_uses_triangle_form():
    spec = min_extremal_spec(pc_graph(PCSpec((3,), ((1, 3),))))
    assert spec == PCSpec((2, 0), ((2,), ()))


def isolated_plus_path(g):
    """The disconnected case by its definition: two components, one a
    single vertex and the other a path."""
    comps = components(g)
    if len(comps) != 2 or min(c.bit_count() for c in comps) != 1:
        return False
    return is_path_graph(induced_subgraph(g, max(comps, key=int.bit_count))[0])


def test_every_class_to_order_7_and_a_relabeling():
    rng = random.Random(7)
    for n in range(1, 8):
        for cert, g in graph_classes(n):
            # the entry read with the class's carried certificate
            assert _lookup(g, cert) == _lookup(g), g
            perm = list(range(n))
            rng.shuffle(perm)
            seen = []
            for h in (g, relabel(g, perm)):
                res, min_spec = form(h), min_extremal_spec(h)
                assert (res.kind is FormKind.DISCONNECTED_CASE) == isolated_plus_path(h), h
                if len(components(h)) > 1:
                    assert min_spec is None, h
                for spec in (res.spec, min_spec):
                    if spec is not None:
                        assert are_isomorphic(pc_graph(spec), h), (h, spec)
                seen.append((res.kind, res.spec, min_spec))
            assert seen[0] == seen[1], g
