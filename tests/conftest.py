import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import zeroforcing.solver as solver
from zeroforcing.graphs import new_graph

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return new_graph(n, [p for p, keep in zip(pairs, picked) if keep])


@st.composite
def connected_graphs(draw, min_n=1, max_n=8):
    """A connected graph: each vertex after 0 joins an earlier one, plus
    any further edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return new_graph(n, tree + [p for p, keep in zip(pairs, picked) if keep])


@st.composite
def graphs_with_sets(draw, min_n=1, max_n=8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    mask = draw(st.integers(min_value=0, max_value=g.full_mask))
    return g, mask


# (run width, climb cutoff) of the search: narrow runs split a level into
# many runs; the cutoff is ``_CLIMB_LEVEL``, under which a graph climbs from
# its lower bound, so at 0 every graph runs the start-level step, at 7 those
# of order 5 and more, and at 20 those of order 7 and more; 16,384, the
# width before 65,536, is the narrow side of the wide-run differential tests
# in test_level_stream.py.  The ids still write the cutoff as "scalar{c}",
# after its old name ``_SCALAR_LEVEL``.
SETTINGS = [
    (3, 0), (7, 0), (7, 7), (64, 20), (16384, 20), (solver._LEVEL_WIDTH, solver._CLIMB_LEVEL),
]


@pytest.fixture(params=SETTINGS, ids=lambda p: f"width{p[0]}-scalar{p[1]}")
def stream_setting(request, monkeypatch):
    width, climb = request.param
    monkeypatch.setattr(solver, "_LEVEL_WIDTH", width)
    monkeypatch.setattr(solver, "_CLIMB_LEVEL", climb)
    return request.param
