"""Recognition of the extremal shapes for connected propagation time n-2.

A connected graph attains maximum connected propagation time n-2 only if it
is a path-cycle graph whose last cycle is a triangle, PC(n_1,...,n_{k-1},0),
or a path-cycle graph with a pendant path identified at v_{k+1},
PC(n_1,...,n_k) + tail of length m >= 2.  The disconnected case is an
isolated vertex next to a path.  Minimum connected propagation time n-2
additionally requires specific chords on the first cycle: both end vertices
of the u-run joined to v_2 when k = 1, the v_1-side end joined to v_2 when
k > 1 (vacuous when the first cycle is a triangle).

Recognition is a lookup: every shape spec of the graph's order and edge
count is built once into a catalog keyed by degree sequence, then by
isomorphism certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .families import PCSpec, pc_graph
from .graphs import (
    Graph,
    TooLarge,
    certificate,
    components,
    induced_subgraph,
    is_path_graph,
)

RECOGNIZER_LIMIT = 16


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
    optionally tailed at v_{k+1}.

    A chordless path-cycle graph on cycles (n_1..n_k) has 2k+1+sum(n_i)
    edges; each chord adds one and a tail of length t adds t-1.
    """
    for k in range(1, n - 1):
        budget = n - (k + 2)
        if budget < 0:
            break
        # tail-less shapes
        for cycles in _compositions(budget, k):
            chord_count = m - (2 * k + 1 + sum(cycles))
            if chord_count < 0:
                continue
            yield from _chorded_specs(cycles, chord_count, None)
        # tailed shapes: pendant path of length tail_m at v_{k+1}
        for tail_m in range(2, budget + 2):
            rest = budget - (tail_m - 1)
            for cycles in _compositions(rest, k):
                chord_count = m - (2 * k + 1 + rest) - (tail_m - 1)
                if chord_count < 0:
                    continue
                yield from _chorded_specs(cycles, chord_count, (k + 1, tail_m))


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
    """degree sequence -> certificate -> (max-shape spec or None, whether
    some representation fails the minimum-time chord conditions), over
    ``_shape_specs(n, m)``.  The max shapes are the specs with a tail or a
    triangle last; the spec kept is the first one in spec order."""
    catalog = {}
    for spec in _shape_specs(n, m):
        g = pc_graph(spec)
        shapes = catalog.setdefault(g.degree_sequence(), {})
        cert = certificate(g)
        first, fails = shapes.get(cert, (None, False))
        if first is None and (spec.tail is not None or spec.cycles[-1] == 0):
            first = spec
        shapes[cert] = (first, fails or not _meets_min_chord_conditions(spec))
    return catalog


def _lookup(g: Graph) -> tuple:
    """Catalog entry of a connected graph, ``(None, False)`` if none."""
    shapes = _catalog(g.n, g.edge_count()).get(g.degree_sequence())
    return shapes.get(certificate(g), (None, False)) if shapes else (None, False)


def _is_isolated_plus_path(g: Graph) -> bool:
    comps = components(g)
    if len(comps) != 2:
        return False
    sizes = sorted(c.bit_count() for c in comps)
    if sizes[0] != 1:
        return False
    big = max(comps, key=lambda c: c.bit_count())
    sub, _ = induced_subgraph(g, big)
    return is_path_graph(sub)


def recognize_extremal_form(g: Graph) -> ExtremalForm:
    """Classify ``g`` against the maximum-connected-propagation-time shapes."""
    if g.n > RECOGNIZER_LIMIT:
        raise TooLarge(f"recognition limited to {RECOGNIZER_LIMIT} vertices")
    if len(components(g)) > 1:
        if _is_isolated_plus_path(g):
            return ExtremalForm(FormKind.DISCONNECTED_CASE)
        return ExtremalForm(FormKind.NOT_EXTREMAL)
    spec = _lookup(g)[0]
    if spec is None:
        return ExtremalForm(FormKind.NOT_EXTREMAL)
    kind = FormKind.PC_PLUS_TAIL if spec.tail is not None else FormKind.PC_FORM
    return ExtremalForm(kind, spec)


def min_extremal_spec(g: Graph) -> PCSpec | None:
    """Shape spec witnessing the minimum-time-n-2 conditions, or None.

    Accepts a connected graph iff it matches one of the extremal shapes
    and every representation the chord conditions speak about satisfies
    them: both end vertices of the first u-run joined to v_2 when written
    with one cycle, the v_1-side end joined to v_2 when written with more.
    """
    if g.n > RECOGNIZER_LIMIT:
        raise TooLarge(f"recognition limited to {RECOGNIZER_LIMIT} vertices")
    if len(components(g)) > 1:
        return None
    spec, fails = _lookup(g)
    return None if fails else spec
