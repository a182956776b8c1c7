"""Immutable simple graphs over dense integer vertex ids with bitset adjacency.

Vertex sets throughout this package are plain Python ints used as bitsets:
bit ``v`` is set iff vertex ``v`` is in the set.  All kernels (closures,
subset searches) work directly on these masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_VERTICES = 128
ISO_DEFAULT_LIMIT = 16


class GraphError(ValueError):
    """Base class for graph construction and query errors."""


class EmptyVertexSet(GraphError):
    """A graph must have at least one vertex."""


class SelfLoop(GraphError):
    """Loops are rejected rather than dropped; a loop indicates caller error."""


class EndpointOutOfRange(GraphError):
    """A vertex id fell outside ``0..n-1``."""


class CapacityExceeded(GraphError):
    """The construction would exceed the fixed vertex capacity."""


class EmptySet(GraphError):
    """An operation required a nonempty vertex set."""


class TooLarge(GraphError):
    """The instance exceeds the configured size limit for this operation."""


def check_order(n: int) -> int:
    """Return ``n`` if a graph of that order fits: EmptyVertexSet below 1,
    CapacityExceeded above ``MAX_VERTICES``.  Constructors call it before
    building any edge."""
    if n < 1:
        raise EmptyVertexSet("graph needs at least one vertex")
    if n > MAX_VERTICES:
        raise CapacityExceeded(f"{n} vertices exceeds capacity {MAX_VERTICES}")
    return n


def mask_of(vertices) -> int:
    """Bitset mask for an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_vertices(mask: int):
    """Yield vertex ids of a mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of vertex ids in a bitset mask."""
    return tuple(iter_vertices(mask))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the bitset of the open neighborhood N(v).  Instances are
    immutable and safe to share between workers.  ``labels`` are optional
    display strings and do not participate in equality.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        check_order(self.n)
        if len(self.adj) != self.n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, nb in enumerate(self.adj):
            if nb >> v & 1:
                raise SelfLoop(f"vertex {v} is adjacent to itself")
            if nb & ~full:
                raise EndpointOutOfRange(f"adjacency of {v} mentions ids >= {self.n}")
        for v, nb in enumerate(self.adj):
            for u in iter_vertices(nb):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"adjacency is not symmetric at ({u}, {v})")
        if self.labels is not None and len(self.labels) != self.n:
            raise GraphError("label count does not match vertex count")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(nb.bit_count() for nb in self.adj))

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with ``u < v``, sorted."""
        out = []
        for u in range(self.n):
            nb = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_vertices(nb):
                out.append((u, v))
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def new_graph(n: int, edges, labels=None) -> Graph:
    """Build a graph from an edge list, deduplicating repeated edges.

    Raises EmptyVertexSet for n < 1, CapacityExceeded above
    ``MAX_VERTICES``, SelfLoop for u == v, and EndpointOutOfRange for ids
    outside 0..n-1.
    """
    adj = [0] * check_order(n)
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"edge ({u}, {v}) is a loop")
        if not (0 <= u < n and 0 <= v < n):
            raise EndpointOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), tuple(labels) if labels is not None else None)


def _reach(g: Graph, start: int, allowed: int) -> int:
    """Vertices reachable from mask ``start`` by paths inside mask ``allowed``."""
    reach = frontier = start
    while frontier:
        nxt = 0
        for u in iter_vertices(frontier):
            nxt |= g.adj[u]
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach


def components(g: Graph) -> list[int]:
    """Masks of the connected components, ordered by minimum vertex id."""
    out = []
    left = g.full_mask
    while left:
        out.append(_reach(g, left & -left, left))
        left &= ~out[-1]
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def induces_connected(g: Graph, s: int) -> bool:
    """True iff the subgraph induced on nonempty mask ``s`` is connected."""
    if not s:
        raise EmptySet("connectivity of the empty set is undefined")
    return _reach(g, s & -s, s) == s


def is_connected_in_components(g: Graph, s: int) -> bool:
    """True iff ``s`` meets every component it touches in a connected set.

    Components with empty intersection do not veto.
    """
    if not s:
        raise EmptySet("the empty set is not connected in components")
    for comp in components(g):
        part = comp & s
        if part and not induces_connected(g, part):
            return False
    return True


def connected_columns(nbrs, comps, cols: list[int], ones: int) -> int:
    """Bit-sliced ``is_connected_in_components`` over many sets at once.

    ``nbrs[v]`` lists the neighbors of v and ``comps`` the components as
    ascending vertex lists; bit j of ``cols[v]`` says v is in set j, for
    the sets j in ``ones``.  Returns the sets of ``ones`` that are
    connected in components.  Bits of ``cols`` outside ``ones`` are ignored.
    """
    # drop them first: sets outside ones would widen every sweep
    cols = [c & ones for c in cols]
    n = len(cols)
    # seed each set at its lowest member in every component it meets
    reach = [0] * n
    for comp in comps:
        seen = 0
        for v in comp:
            reach[v] = cols[v] & ~seen
            seen |= cols[v]
    # grow every seed's reach inside its set, in place, until a sweep adds
    # nothing; a sweep may carry reach several steps along ascending ids
    moved = True
    while moved:
        moved = False
        for v in range(n):
            left = cols[v] & ~reach[v]
            if left:
                near = 0
                for u in nbrs[v]:
                    near |= reach[u]
                if near & left:
                    reach[v] |= near & left
                    moved = True
    stray = 0
    for c, r in zip(cols, reach):
        stray |= c & ~r
    return ones & ~stray


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, list[int]]:
    """Subgraph induced on mask ``s``, relabeled to ``0..|s|-1``.

    Returns the new graph and the list mapping new ids to old ids.
    """
    if not s:
        raise EmptySet("cannot induce on the empty set")
    old = list(iter_vertices(s))
    pos = {v: i for i, v in enumerate(old)}
    adj = []
    for v in old:
        m = 0
        for u in iter_vertices(g.adj[v] & s):
            m |= 1 << pos[u]
        adj.append(m)
    labels = tuple(g.labels[v] for v in old) if g.labels is not None else None
    return Graph(len(old), tuple(adj), labels), old


def relabel(g: Graph, perm) -> Graph:
    """Image of ``g`` under the permutation ``perm`` (old id -> new id)."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise GraphError("not a permutation of the vertex ids")
    adj = [0] * g.n
    for v in range(g.n):
        m = 0
        for u in iter_vertices(g.adj[v]):
            m |= 1 << perm[u]
        adj[perm[v]] = m
    labels = None
    if g.labels is not None:
        labels = [""] * g.n
        for v in range(g.n):
            labels[perm[v]] = g.labels[v]
        labels = tuple(labels)
    return Graph(g.n, tuple(adj), labels)


def is_path_graph(g: Graph) -> bool:
    """True iff ``g`` is a path (P1 and P2 included)."""
    if not is_connected(g):
        return False
    if g.edge_count() != g.n - 1:
        return False
    return all(g.degree(v) <= 2 for v in range(g.n))


def _refine(adj, cells: list[int], queue: list[int]) -> list[int]:
    """Split the ordered partition ``cells`` (vertex masks) until it is
    equitable, taking the splitters in ``queue`` first in, first out.

    Splitting a cell by a splitter groups its vertices by their neighbor
    count in the splitter; the pieces take the cell's place in ascending
    count.  The caller queues every cell whose counts are not yet known to
    be uniform.  The order of the result does not depend on vertex labels.
    """
    for w in queue:
        near = 0
        for u in iter_vertices(w):
            near |= adj[u]
        out = []
        for c in cells:
            hit = c & near
            if hit and c & (c - 1):
                # vertices of c outside ``near`` have no neighbor in w
                groups = {0: c ^ hit} if hit != c else {}
                for v in iter_vertices(hit):
                    k = (adj[v] & w).bit_count()
                    groups[k] = groups.get(k, 0) | 1 << v
                if len(groups) > 1:
                    pieces = [groups[k] for k in sorted(groups)]
                    out += pieces
                    # counts into c are uniform or c is queued, so counts
                    # into its largest piece follow from the others
                    big = max(pieces, key=int.bit_count)
                    queue += [p for p in pieces if p != big]
                    continue
            out.append(c)
        cells = out
    return cells


def _greatest_code(adj, cells: list[int], queue: list[int]) -> int:
    """Greatest adjacency code over the leaves of the individualize-and-refine
    tree below ``cells``.  A leaf orders the vertices; its code is their
    adjacency rows in that order, written as positions and concatenated."""
    cells = _refine(adj, cells, queue)
    i = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
    if i is None:
        n = len(cells)
        order = [c.bit_length() - 1 for c in cells]
        bit = [0] * n
        for p, v in enumerate(order):
            bit[v] = 1 << p
        code = 0
        for v in order:
            code <<= n
            for u in iter_vertices(adj[v]):
                code |= bit[u]
        return code
    c, best, tried = cells[i], -1, 0
    for v in iter_vertices(c):
        # swapping twins is an automorphism that keeps every cell, so a twin
        # of a tried vertex roots a subtree with the same codes
        if any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in iter_vertices(tried)):
            continue
        tried |= 1 << v
        branch = cells[:i] + [1 << v, c ^ 1 << v] + cells[i + 1 :]
        best = max(best, _greatest_code(adj, branch, [1 << v]))
    return best


def certificate(g: Graph) -> tuple:
    """Isomorphism certificate: two graphs get equal certificates iff they
    are isomorphic.

    A connected graph gets ``(n, code)``, with the greatest adjacency code
    over the leaves of an individualize-and-refine search (McKay & Piperno,
    "Practical graph isomorphism, II", 2014) that branches on the first
    non-singleton cell of an equitable partition, on one vertex per twin
    class (N(u) - {v} = N(v) - {u}).  A disconnected graph gets the sorted
    certificates of its components.
    """
    comps = components(g)
    if len(comps) > 1:
        return tuple(sorted(certificate(induced_subgraph(g, c)[0]) for c in comps))
    return g.n, _greatest_code(g.adj, [g.full_mask], [g.full_mask])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by certificate, intended for small orders.

    Raises TooLarge when either graph exceeds ``ISO_DEFAULT_LIMIT`` vertices.
    """
    if g.n > ISO_DEFAULT_LIMIT or h.n > ISO_DEFAULT_LIMIT:
        raise TooLarge(f"isomorphism limited to {ISO_DEFAULT_LIMIT} vertices")
    return g.degree_sequence() == h.degree_sequence() and certificate(g) == certificate(h)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Optional header line ``n <N>``; one ``u v`` pair per subsequent line;
    ``#`` starts a comment; vertices are 0-indexed.  Without a header the
    order is inferred as the largest endpoint plus one.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None or edges:
                raise GraphError(f"line {lineno}: header must come first")
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphError(f"line {lineno}: malformed header")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: endpoints must be integers") from None
        if u < 0 or v < 0:
            raise EndpointOutOfRange(f"line {lineno}: negative vertex id")
        edges.append((u, v))
    if n is None:
        if not edges:
            raise EmptyVertexSet("no header and no edges")
        n = max(max(u, v) for u, v in edges) + 1
    return new_graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"

