"""Constructors for named graph families, graph products, and path-cycle graphs.

Every constructor documents its vertex-labeling contract.  Tests, traces,
and the command-line tool address vertices through these contracts, so the
numbering is part of the public API and frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EndpointOutOfRange, Graph, GraphError, check_order, iter_vertices, new_graph


class OrderTooSmall(GraphError):
    """The requested order is below the family minimum."""


class BadPartition(GraphError):
    """A complete multipartite partition needs >= 2 parts, each >= 1."""


class ArityMismatch(GraphError):
    """A generalized corona needs one attachment per base vertex."""


class InvalidSpec(GraphError):
    """A PCSpec failed validation."""


def path(n: int) -> Graph:
    """Path P_n.  Vertices 0..n-1 in path order; n >= 1."""
    if n < 1:
        raise OrderTooSmall("path needs n >= 1")
    check_order(n)
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle C_n.  Vertices 0..n-1 in cyclic order, closing (n-1, 0); n >= 3."""
    if n < 3:
        raise OrderTooSmall("cycle needs n >= 3")
    check_order(n)
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Complete graph K_n; n >= 1."""
    if n < 1:
        raise OrderTooSmall("complete graph needs n >= 1")
    check_order(n)
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n: int) -> Graph:
    """Star S_n of order n (= K_{1,n-1}).  Vertex 0 is the center; n >= 2."""
    if n < 2:
        raise OrderTooSmall("star needs n >= 2")
    check_order(n)
    return new_graph(n, [(0, v) for v in range(1, n)])


def wheel(n: int) -> Graph:
    """Wheel W_n of order n.  Vertex 0 is the hub; 1..n-1 form the rim cycle."""
    if n < 4:
        raise OrderTooSmall("wheel needs n >= 4")
    check_order(n)
    edges = [(0, v) for v in range(1, n)]
    edges += [(v, v + 1) for v in range(1, n - 1)]
    edges.append((n - 1, 1))
    return new_graph(n, edges)


def supertriangle(n: int) -> Graph:
    """Triangular grid T_n with n vertices per side, order n(n+1)/2.

    Rows r = 0..n-1 hold r+1 vertices; vertex (r, i) has id r(r+1)/2 + i and
    is adjacent to (r, i+1), (r+1, i), and (r+1, i+1).
    """
    if n < 1:
        raise OrderTooSmall("supertriangle needs n >= 1")
    order = check_order(n * (n + 1) // 2)

    def vid(r, i):
        return r * (r + 1) // 2 + i

    edges = []
    for r in range(n):
        for i in range(r + 1):
            if i + 1 <= r:
                edges.append((vid(r, i), vid(r, i + 1)))
            if r + 1 < n:
                edges.append((vid(r, i), vid(r + 1, i)))
                edges.append((vid(r, i), vid(r + 1, i + 1)))
    return new_graph(order, edges)


def complete_multipartite(sizes) -> Graph:
    """Complete multipartite graph.  Parts occupy consecutive id blocks."""
    sizes = list(sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise BadPartition("need >= 2 parts, each of size >= 1")
    n = check_order(sum(sizes))
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    edges = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            for u in range(starts[a], starts[a + 1]):
                for v in range(starts[b], starts[b + 1]):
                    edges.append((u, v))
    return new_graph(n, edges)


def _product(g: Graph, h: Graph, diagonal: bool) -> Graph:
    """Cartesian product, plus the strong product's diagonal edges when
    ``diagonal``.  Vertex (u, v) gets id u*|h| + v and label "u,v"."""
    hn = h.n
    n = check_order(g.n * hn)
    edges = []
    for u in range(g.n):
        for v in range(hn):
            a = u * hn + v
            for v2 in iter_vertices(h.adj[v]):
                edges.append((a, u * hn + v2))
            for u2 in iter_vertices(g.adj[u]):
                edges.append((a, u2 * hn + v))
                if diagonal:
                    for v2 in iter_vertices(h.adj[v]):
                        edges.append((a, u2 * hn + v2))
    return new_graph(n, edges, labels=[f"{u},{v}" for u in range(g.n) for v in range(hn)])


def cartesian(g: Graph, h: Graph) -> Graph:
    """Cartesian product.  Vertex (u, v) gets id u*|h| + v.

    (u, v) ~ (u', v') iff u = u' and vv' is an edge of h, or v = v' and
    uu' is an edge of g.
    """
    return _product(g, h, diagonal=False)


def strong(g: Graph, h: Graph) -> Graph:
    """Strong product: the Cartesian edges plus the diagonal edges
    (u, v) ~ (u', v') for uu' in E(g) and vv' in E(h).  Same numbering."""
    return _product(g, h, diagonal=True)


def corona(g: Graph, h: Graph) -> Graph:
    """Corona of g with h, order |g||h| + |g|.

    Base vertices keep ids 0..|g|-1; copy i of h occupies the block starting
    at |g| + i*|h|, and each of its vertices is joined to base vertex i.
    """
    return generalized_corona(g, [h] * g.n)


def generalized_corona(g: Graph, hs) -> Graph:
    """Per-vertex corona: attachment hs[i] is fully joined to base vertex i.

    Base ids come first, then the attachment blocks in order.
    """
    hs = list(hs)
    if len(hs) != g.n:
        raise ArityMismatch(f"need {g.n} attachments, got {len(hs)}")
    n = check_order(g.n + sum(h.n for h in hs))
    edges = g.edges()
    base = g.n
    for i, h in enumerate(hs):
        for u, v in h.edges():
            edges.append((base + u, base + v))
        for u in range(h.n):
            edges.append((i, base + u))
        base += h.n
    return new_graph(n, edges)


@dataclass(frozen=True)
class PCSpec:
    """Parameters of a path-cycle graph.

    ``cycles`` holds (n_1, ..., n_k): the count of new vertices on each of
    the k cycles hung on the path v_1..v_{k+2}.  ``chords[i-1]`` lists the
    indices j for which u^i_j is additionally joined to v_{i+1}; an empty
    tuple of tuples means chordless.  ``tail`` is ``None`` or ``(t, m)``:
    a path on m >= 2 vertices identified with v_t at one endpoint.
    """

    cycles: tuple[int, ...]
    chords: tuple[tuple[int, ...], ...] = ()
    tail: tuple[int, int] | None = None

    def __post_init__(self):
        cycles = tuple(int(x) for x in self.cycles)
        object.__setattr__(self, "cycles", cycles)
        k = len(cycles)
        if k < 1:
            raise InvalidSpec("need at least one cycle")
        if any(c < 0 for c in cycles):
            raise InvalidSpec("cycle sizes must be nonnegative")
        chords = tuple(tuple(sorted(set(c))) for c in self.chords)
        if not chords:
            chords = tuple(() for _ in range(k))
        if len(chords) != k:
            raise InvalidSpec(f"need {k} chord lists, got {len(chords)}")
        for i, cl in enumerate(chords):
            for j in cl:
                if not 1 <= j <= cycles[i]:
                    raise InvalidSpec(f"chord index {j} outside 1..{cycles[i]} on cycle {i + 1}")
        object.__setattr__(self, "chords", chords)
        if self.tail is not None:
            t, m = self.tail
            if not 1 <= t <= k + 2:
                raise InvalidSpec(f"tail attachment v_{t} outside v_1..v_{k + 2}")
            if m < 2:
                raise InvalidSpec("tail length must be >= 2")
            object.__setattr__(self, "tail", (int(t), int(m)))

    @property
    def k(self) -> int:
        return len(self.cycles)

    def order(self) -> int:
        n = self.k + 2 + sum(self.cycles)
        if self.tail is not None:
            n += self.tail[1] - 1
        return n


def pc_graph(spec: PCSpec) -> Graph:
    """Build the path-cycle graph described by ``spec``.

    Numbering contract: path vertex v_t has id t-1 for t = 1..k+2.  The new
    vertices of cycle i are u^i_1..u^i_{n_i}, assigned fresh ids after the
    path in cycle order then index order, so u^i_j has id
    (k+2) + n_1 + ... + n_{i-1} + (j-1).  Cycle i is the closed walk
    (v_i, v_{i+1}, v_{i+2}, u^i_1, ..., u^i_{n_i}); for n_i = 0 it is the
    triangle on v_i, v_{i+1}, v_{i+2}.  Repeated path edges produced by the
    walks are deduplicated.  A tail (t, m) is realized by identifying v_t
    with one endpoint of a fresh path on m vertices.
    """
    check_order(spec.order())
    k = spec.k
    labels = [f"v{t}" for t in range(1, k + 3)]
    u_ids = []
    nxt = k + 2
    for i, ni in enumerate(spec.cycles, start=1):
        ids = list(range(nxt, nxt + ni))
        u_ids.append(ids)
        labels.extend(f"u{i}.{j}" for j in range(1, ni + 1))
        nxt += ni
    edges = [(t, t + 1) for t in range(k + 1)]
    for i in range(1, k + 1):
        walk = [i - 1, i, i + 1] + u_ids[i - 1]
        for a, b in zip(walk, walk[1:]):
            edges.append((a, b))
        edges.append((walk[-1], walk[0]))
        for j in spec.chords[i - 1]:
            edges.append((u_ids[i - 1][j - 1], i))
    g = new_graph(nxt, edges, labels=labels)
    if spec.tail is not None:
        t, m = spec.tail
        g = vertex_sum(g, t - 1, path(m), 0)
    return g


def vertex_sum(g: Graph, v: int, h: Graph, w: int) -> Graph:
    """Identify vertex ``v`` of g with vertex ``w`` of h; order |g|+|h|-1.

    g keeps its ids; the remaining vertices of h take fresh ids
    |g|, |g|+1, ... in increasing order of their h-ids.
    """
    if not 0 <= v < g.n:
        raise EndpointOutOfRange(f"vertex {v} outside 0..{g.n - 1}")
    if not 0 <= w < h.n:
        raise EndpointOutOfRange(f"vertex {w} outside 0..{h.n - 1}")
    n = check_order(g.n + h.n - 1)
    remap = {}
    nxt = g.n
    for x in range(h.n):
        if x == w:
            remap[x] = v
        else:
            remap[x] = nxt
            nxt += 1
    edges = g.edges()
    edges.extend((remap[a], remap[b]) for a, b in h.edges())
    labels = None
    if g.labels is not None:
        labels = list(g.labels)
        tail_labels = h.labels if h.labels is not None else [f"w{x}" for x in range(h.n)]
        labels.extend(tail_labels[x] for x in range(h.n) if x != w)
    return new_graph(n, edges, labels=labels)
