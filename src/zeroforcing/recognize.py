"""Recognition of the extremal shapes for connected propagation time n-2.

A connected graph attains maximum connected propagation time n-2 only if it
is a path-cycle graph whose last cycle is a triangle, PC(n_1,...,n_{k-1},0),
or a path-cycle graph with a pendant path identified at v_{k+1},
PC(n_1,...,n_k) + tail of length m >= 2.  The disconnected case is an
isolated vertex next to a path.  Minimum connected propagation time n-2
additionally requires specific chords on the first cycle: both end vertices
of the u-run joined to v_2 when k = 1, the v_1-side end joined to v_2 when
k > 1 (vacuous when the first cycle is a triangle).

Recognition is one catalog lookup for every graph, connected or not: every
shape spec of the graph's order and edge count, and the disconnected case,
is built once into a catalog keyed by isomorphism certificate.  One lookup
answers both the maximum-time and the minimum-time question, and takes the
graph's certificate from a caller that has it.  Larger graphs than
``RECOGNIZER_LIMIT`` raise TooLarge; the largest catalog of that order
holds 7,680 specs, built in about a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .families import PCSpec, pc_graph
from .graphs import Graph, TooLarge, certificate, new_graph

RECOGNIZER_LIMIT = 12


class FormKind(Enum):
    NOT_EXTREMAL = "not-extremal"
    DISCONNECTED_CASE = "disconnected-case"
    PC_FORM = "pc-form"
    PC_PLUS_TAIL = "pc-plus-tail"


@dataclass(frozen=True)
class ExtremalForm:
    kind: FormKind
    spec: PCSpec | None = None

    @property
    def accepted(self) -> bool:
        return self.kind is not FormKind.NOT_EXTREMAL


_NOT_EXTREMAL = ExtremalForm(FormKind.NOT_EXTREMAL)
# the entry of a graph outside the catalog
_ABSENT = (_NOT_EXTREMAL, True)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _chorded_specs(cycles: tuple[int, ...], chord_count: int, tail):
    """Specs over all ways to place ``chord_count`` chords on ``cycles``."""
    positions = [(i, j) for i, ni in enumerate(cycles) for j in range(1, ni + 1)]
    if chord_count > len(positions):
        return
    for chosen in combinations(positions, chord_count):
        chords = [[] for _ in cycles]
        for i, j in chosen:
            chords[i].append(j)
        yield PCSpec(cycles, tuple(tuple(c) for c in chords), tail)


def _shape_specs(n: int, m: int):
    """Path-cycle specs with order n and edge count m, any last cycle,
    tail-less first, then tailed at v_{k+1} by tail length.

    A chordless path-cycle graph on k cycles has n+k-1 edges, whatever its
    cycle lengths and tail; each chord adds one.
    """
    for k in range(1, n - 1):
        chord_count = m - (n + k - 1)
        if chord_count < 0:
            break
        # a tail of length extra + 1 takes extra vertices off the cycles
        for extra in range(n - k - 1):
            tail = (k + 1, extra + 1) if extra else None
            for cycles in _compositions(n - (k + 2) - extra, k):
                yield from _chorded_specs(cycles, chord_count, tail)


def _meets_min_chord_conditions(spec: PCSpec) -> bool:
    n1 = spec.cycles[0]
    if n1 == 0:
        return True
    first = spec.chords[0]
    if spec.k == 1:
        return 1 in first and n1 in first
    return n1 in first


@lru_cache(maxsize=None)
def _catalog(n: int, m: int) -> dict:
    """certificate -> (ExtremalForm, whether some representation fails the
    minimum-time conditions), over ``_shape_specs(n, m)`` and, when
    m = n-2, the disconnected case.  The max shapes are the specs with a
    tail or a triangle last; the form keeps the first one in spec order.
    The minimum-time conditions speak of connected graphs, so the
    disconnected case fails them."""
    catalog = {}
    for spec in _shape_specs(n, m):
        cert = certificate(pc_graph(spec))
        form, fails = catalog.get(cert, (_NOT_EXTREMAL, False))
        if not form.accepted and (spec.tail is not None or spec.cycles[-1] == 0):
            kind = FormKind.PC_FORM if spec.tail is None else FormKind.PC_PLUS_TAIL
            form = ExtremalForm(kind, spec)
        catalog[cert] = (form, fails or not _meets_min_chord_conditions(spec))
    if m == n - 2:
        g = new_graph(n, [(v, v + 1) for v in range(n - 2)])
        catalog[certificate(g)] = (ExtremalForm(FormKind.DISCONNECTED_CASE), True)
    return catalog


def _lookup(g: Graph, cert: tuple | None = None) -> tuple[ExtremalForm, PCSpec | None]:
    """``g``'s maximum-time form and minimum-time spec from its catalog
    entry, ``(NOT_EXTREMAL form, None)`` if it has none.  ``cert`` is
    ``g``'s certificate when the caller already has it; otherwise it is
    searched for only if ``g``'s catalog is not empty."""
    if g.n > RECOGNIZER_LIMIT:
        raise TooLarge(f"recognition limited to {RECOGNIZER_LIMIT} vertices")
    catalog = _catalog(g.n, g.edge_count())
    form, fails = catalog.get(cert or certificate(g), _ABSENT) if catalog else _ABSENT
    return form, None if fails else form.spec


def recognize_extremal_form(g: Graph) -> ExtremalForm:
    """Classify ``g`` against the maximum-connected-propagation-time shapes."""
    return _lookup(g)[0]


def min_extremal_spec(g: Graph) -> PCSpec | None:
    """Shape spec witnessing the minimum-time-n-2 conditions, or None.

    Accepts a connected graph iff it matches one of the extremal shapes
    and every representation the chord conditions speak about satisfies
    them: both end vertices of the first u-run joined to v_2 when written
    with one cycle, the v_1-side end joined to v_2 when written with more.
    """
    return _lookup(g)[1]
