import sys

import pytest

from writers import spec_to_dsl
from zeroforcing.dsl import ParseError, parse_graph_dsl
from zeroforcing.families import PCSpec, corona, cycle, path, pc_graph
from zeroforcing.graphs import CapacityExceeded, are_isomorphic


def test_simple_terms():
    assert parse_graph_dsl("path(8)").n == 8
    assert parse_graph_dsl("cycle(8)") == cycle(8)
    assert parse_graph_dsl("multipartite(2,3)").edge_count() == 6
    assert parse_graph_dsl("supertriangle(4)").n == 10


def test_nested_terms():
    g = parse_graph_dsl("corona(cycle(5),path(3))")
    assert g == corona(cycle(5), path(3))
    assert g.n == 20
    assert parse_graph_dsl("strong(cycle(5),path(3))").n == 15
    assert parse_graph_dsl("cartesian(path(2),path(2))").edge_count() == 4


def test_gencorona_term():
    g = parse_graph_dsl("gencorona(path(2);path(1),path(1))")
    assert g.n == 4
    assert are_isomorphic(g, path(4))


def test_pc_terms():
    assert parse_graph_dsl("pc(4,3,5,0,2)").n == 21
    chorded = parse_graph_dsl("pc(3)[chords:1@1,1@3]")
    assert chorded == pc_graph(PCSpec((3,), ((1, 3),)))


def test_vsum_term():
    g = parse_graph_dsl("vsum(pc(3),1,path(4),0)")
    assert g.n == 9
    assert parse_graph_dsl(" vsum( path(3) , 2 , path(3) , 0 ) ").n == 5


def test_spec_to_dsl_round_trip():
    for spec in [
        PCSpec((3,), ((1, 3),)),
        PCSpec((2, 0)),
        PCSpec((1,), tail=(2, 2)),
        PCSpec((0, 1), tail=(3, 4)),
    ]:
        text = spec_to_dsl(spec)
        assert are_isomorphic(parse_graph_dsl(text), pc_graph(spec))


def test_parse_errors_carry_position():
    for text in ["", "path", "path(", "path(2", "path(x)", "frob(3)",
                 "path(3)junk", "pc(1)[chords:2@1]"]:
        with pytest.raises(ParseError):
            parse_graph_dsl(text)
    try:
        parse_graph_dsl("corona(path(2)path(2))")
    except ParseError as exc:
        assert exc.pos > 0


def test_semantic_errors_propagate():
    from zeroforcing.families import InvalidSpec, OrderTooSmall

    with pytest.raises(InvalidSpec):
        parse_graph_dsl("pc(2)[chords:1@5]")
    with pytest.raises(OrderTooSmall):
        parse_graph_dsl("cycle(2)")


# each term with the exact graph (n, adj, labels) it builds
_PINNED_GRAPHS = [
    ("path(3)", (3, (2, 5, 2), None)),
    ("cycle(4)", (4, (10, 5, 10, 5), None)),
    ("complete(3)", (3, (6, 5, 3), None)),
    ("star(4)", (4, (14, 1, 1, 1), None)),
    ("wheel(4)", (4, (14, 13, 11, 7), None)),
    ("supertriangle(2)", (3, (6, 5, 3), None)),
    ("multipartite(1,2)", (3, (6, 1, 1), None)),
    ("cartesian(path(2),path(2))", (4, (6, 9, 9, 6), ("0,0", "0,1", "1,0", "1,1"))),
    ("strong(path(2),path(2))", (4, (14, 13, 11, 7), ("0,0", "0,1", "1,0", "1,1"))),
    ("corona(path(2),path(1))", (4, (6, 9, 1, 2), None)),
    ("gencorona(path(2);path(1),complete(2))", (5, (6, 25, 1, 18, 10), None)),
    ("pc(1,0)", (5, (18, 13, 26, 6, 5), ("v1", "v2", "v3", "v4", "u1.1"))),
    ("pc(2)[chords:1@1]", (5, (18, 13, 10, 22, 9), ("v1", "v2", "v3", "u1.1", "u1.2"))),
    ("vsum(path(2),1,path(2),0)", (3, (2, 5, 2), None)),
    (" \tPATH ( 3 ) \n", (3, (2, 5, 2), None)),
    ("Corona(Path(2),PATH(1))", (4, (6, 9, 1, 2), None)),
    (
        "pc( 2 , 1 ) [ Chords : 1 @ 1 , 2@1 ]",
        (7, (34, 85, 90, 68, 38, 17, 14), ("v1", "v2", "v3", "v4", "u1.1", "u1.2", "u2.1")),
    ),
    # 200 levels below the top term is the deepest that parses
    ("vsum(" * 200 + "path(1)" + ",0,path(1),0)" * 200, (1, (0,), None)),
]

# each term with the exact str() of the ParseError it raises
_PINNED_ERRORS = [
    ("", "expected a family name (at position 0)"),
    ("frob(3)", "unknown family 'frob' (at position 0)"),
    ("corona(path(2);path(2))", "expected ',' (at position 14)"),
    ("gencorona(path(2),path(1))", "expected ';' (at position 17)"),
    ("multipartite(1;2)", "expected ')' (at position 14)"),
    ("path(3)junk", "trailing input (at position 7)"),
    ("path(²)", "expected an integer (at position 5)"),
    ("path(٣)", "expected an integer (at position 5)"),
    ("vsum(path(2),x,path(2),0)", "expected an integer (at position 13)"),
    ("pc(1)[chord:1@1]", "expected 'chords' (at position 11)"),
    ("pc(1)[chords 1@1]", "expected ':' (at position 13)"),
    ("pc(1)[chords:1]", "expected '@' (at position 14)"),
    ("pc(1)[chords:1@]", "expected an integer (at position 15)"),
    ("pc(1)[chords:2@1]", "no cycle 2 (at position 16)"),
    ("pc(1)[chords:0@1]", "no cycle 0 (at position 16)"),
    ("pc(1)[chords:1@1", "expected ']' (at position 16)"),
    ("pc(1)[]", "expected a family name (at position 6)"),
    ("path(3)[chords:1@1]", "trailing input (at position 7)"),
    ("vsum(" * 201 + "path(1)" + ",0,path(1),0)" * 201, "terms nest deeper than 200 (at position 1005)"),
]


@pytest.mark.parametrize("text, expected", _PINNED_GRAPHS, ids=lambda x: repr(x)[:40])
def test_pinned_graphs(text, expected):
    g = parse_graph_dsl(text)
    assert (g.n, g.adj, g.labels) == expected


@pytest.mark.parametrize("text, message", _PINNED_ERRORS, ids=lambda x: repr(x)[:40])
def test_pinned_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph_dsl(text)
    assert str(info.value) == message


def test_overlong_integer():
    text = "path(" + "9" * 5000 + ")"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < 5000:
        with pytest.raises(ParseError) as info:
            parse_graph_dsl(text)
        assert str(info.value) == "integer too long (at position 5)"
    else:  # an interpreter without a digit limit reads it, and path refuses the order
        with pytest.raises(CapacityExceeded):
            parse_graph_dsl(text)
