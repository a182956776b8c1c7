"""Unpruned reference solver used to cross-check the packaged one.

Everything here works on plain Python sets and re-derives each parameter
from the definitions: closures by repeated full scans, or one force at a
time in a random order, connectivity by its own traversal, searches by
testing every subset of each size.  It shares no kernel code with the
package.
"""

from itertools import combinations


def neighbor_sets(g):
    from zeroforcing.graphs import vertices_of

    return [set(vertices_of(m)) for m in g.adj]


def closure(adj, black):
    black = set(black)
    while True:
        add = set()
        for u in black:
            white = adj[u] - black
            if len(white) == 1:
                add |= white
        if not add:
            return black
        black |= add


def _forces(adj, black):
    """Every (forcer, forced) pair available against the mask ``black``,
    forcer-ascending; a vertex with several forcers is listed once each."""
    out = []
    for u in range(len(adj)):
        if black >> u & 1:
            white = [w for w in sorted(adj[u]) if not black >> w & 1]
            if len(white) == 1:
                out.append((u, white[0]))
    return out


def forces_one_round(g, black):
    """All (forcer, forced) pairs of one simultaneous round from the mask
    ``black``."""
    return _forces(neighbor_sets(g), black)


def derived_coloring_sequential(g, black, rng):
    """Fixpoint mask reached from ``black`` by applying one rng-chosen force
    at a time; the closure does not depend on the order of the forces."""
    adj = neighbor_sets(g)
    while True:
        avail = _forces(adj, black)
        if not avail:
            return black
        black |= 1 << avail[rng.randrange(len(avail))][1]


def rounds_to_fill(adj, black):
    black = set(black)
    n = len(adj)
    steps = 0
    while len(black) < n:
        add = set()
        for u in black:
            white = adj[u] - black
            if len(white) == 1:
                add |= white
        if not add:
            return None
        black |= add
        steps += 1
    return steps


def component_sets(adj):
    n = len(adj)
    seen = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def connected_in_components(adj, s):
    s = set(s)
    for comp in component_sets(adj):
        part = comp & s
        if not part:
            continue
        start = next(iter(part))
        reach = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in part and y not in reach:
                    reach.add(y)
                    stack.append(y)
        if reach != part:
            return False
    return True


def min_forcing_sets(adj, connected=False):
    n = len(adj)
    for k in range(1, n + 1):
        hits = []
        for combo in combinations(range(n), k):
            if connected and not connected_in_components(adj, combo):
                continue
            if len(closure(adj, combo)) == n:
                hits.append(set(combo))
        if hits:
            return k, hits
    raise AssertionError("unreachable: the full set forces")


def solve(g):
    """All six parameters, straight from the definitions."""
    adj = neighbor_sets(g)
    z, min_zfs = min_forcing_sets(adj)
    z_c, min_czfs = min_forcing_sets(adj, connected=True)
    pts = [rounds_to_fill(adj, b) for b in min_zfs]
    cpts = [rounds_to_fill(adj, b) for b in min_czfs]
    return {
        "z": z,
        "z_c": z_c,
        "pt": min(pts),
        "PT": max(pts),
        "pt_c": min(cpts),
        "PT_c": max(cpts),
    }


def graph_classes(n):
    """One graph per isomorphism class of order n, by the generator that
    augmentation plus unions replaced: every class of order n - 1 gets a new
    vertex of greatest degree in every way, connected or not, and the
    candidates are deduped by ``graphs.certificate``.  Unlike the rest of
    this module it leans on the package's certificate, which has its own
    gates."""
    from zeroforcing.graphs import Graph, certificate

    if n == 1:
        return [Graph(1, (0,))]
    classes = {}
    for h in graph_classes(n - 1):
        for nb in range(1 << (n - 1)):
            d = nb.bit_count()
            if all(a.bit_count() + (nb >> u & 1) <= d for u, a in enumerate(h.adj)):
                adj = tuple(a | (nb >> u & 1) << (n - 1) for u, a in enumerate(h.adj))
                g = Graph(n, adj + (nb,))
                classes.setdefault(certificate(g), g)
    return list(classes.values())
