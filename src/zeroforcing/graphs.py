"""Immutable simple graphs over dense integer vertex ids with bitset adjacency.

Vertex sets throughout this package are plain Python ints used as bitsets:
bit ``v`` is set iff vertex ``v`` is in the set.  All kernels (closures,
subset searches) work directly on these masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Yield vertex ids of a mask in increasing order; EndpointOutOfRange
    for a negative mask, which holds every id from some point on."""
    if mask < 0:
        raise EndpointOutOfRange(f"negative mask {mask} holds ids outside every graph")
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
    immutable.  ``labels`` are optional display strings and do not
    participate in equality.
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
            while nb:
                low = nb & -nb
                u = low.bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"adjacency is not symmetric at ({u}, {v})")
                nb ^= low
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

    @cached_property
    def shape(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Neighbor lists and ascending component vertex lists, the form the
        bit-sliced kernels read; built on first use and kept on the graph."""
        return tuple(map(vertices_of, self.adj)), tuple(map(vertices_of, components(self)))

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
    adj = g.adj
    reach = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
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


def check_mask(g: Graph, mask: int):
    """Raise EndpointOutOfRange unless ``mask`` holds only ids of ``g``."""
    if mask & ~g.full_mask:
        raise EndpointOutOfRange("vertex set mentions ids outside the graph")


def is_connected_in_components(g: Graph, s: int) -> bool:
    """True iff ``s`` meets every component it touches in a connected set.

    Components with empty intersection do not veto.
    """
    check_mask(g, s)
    if not s:
        raise EmptySet("the empty set is not connected in components")
    return meets_connected(g, components(g), s)


def meets_connected(g: Graph, comps, s: int) -> bool:
    """True iff ``s`` meets each of the component masks ``comps`` in a
    connected set or not at all."""
    for comp in comps:
        part = comp & s
        if part and _reach(g, part & -part, part) != part:
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
    # seed each set at its lowest member in every component it meets.  No
    # operand is negated: on wide runs ``a & ~b`` costs about ten times
    # ``a ^ b``, and reach[v] stays within cols[v]
    reach = [0] * n
    for comp in comps:
        seen = 0
        for v in comp:
            c = cols[v]
            reach[v] = c ^ (c & seen)
            seen |= c
    # grow every seed's reach inside its set, in place, until a sweep adds
    # nothing or leaves no member unreached; a sweep may carry reach several
    # steps along ascending ids
    while True:
        moved = stray = 0
        for v in range(n):
            left = cols[v] ^ reach[v]
            if left:
                near = 0
                for u in nbrs[v]:
                    near |= reach[u]
                grow = near & left
                if grow:
                    reach[v] |= grow
                    moved = 1
                    left ^= grow
                # the sets with a member still unreached; once a sweep moves
                # nothing, exactly the sets that are not connected
                stray |= left
        if not (moved and stray):
            return ones ^ stray


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, list[int]]:
    """Subgraph induced on mask ``s``, relabeled to ``0..|s|-1``.

    Returns the new graph and the list mapping new ids to old ids.
    """
    check_mask(g, s)
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
        near, left = 0, w
        while left:
            low = left & -left
            near |= adj[low.bit_length() - 1]
            left ^= low
        out = []
        for c in cells:
            hit = c & near
            if hit and c & (c - 1):
                # vertices of c outside ``near`` have no neighbor in w
                groups = {0: c ^ hit} if hit != c else {}
                left = hit
                while left:
                    low = left & -left
                    k = (adj[low.bit_length() - 1] & w).bit_count()
                    groups[k] = groups.get(k, 0) | low
                    left ^= low
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
        # the cells may cover one component of a larger graph
        bit = [0] * len(adj)
        for p, v in enumerate(order):
            bit[v] = 1 << p
        code = 0
        for v in order:
            code <<= n
            row = adj[v]
            while row:
                low = row & -row
                code |= bit[low.bit_length() - 1]
                row ^= low
        return code
    c, best, tried = cells[i], -1, []
    left = c
    while left:
        low = left & -left
        left ^= low
        v = low.bit_length() - 1
        # swapping twins is an automorphism that keeps every cell, so a twin
        # of a tried vertex roots a subtree with the same codes
        if any(adj[u] & ~low == adj[v] & ~(1 << u) for u in tried):
            continue
        tried.append(v)
        branch = cells[:i] + [low, c ^ low] + cells[i + 1 :]
        best = max(best, _greatest_code(adj, branch, [low]))
    return best


def connected_certificate(adj, comp: int) -> tuple:
    """Certificate of the component ``comp`` (a vertex mask) of the graph
    with adjacency rows ``adj``, computed in place: ``(|comp|, code)``, the
    same as the certificate of the induced subgraph relabeled in id order."""
    return comp.bit_count(), _greatest_code(adj, [comp], [comp])


def canonical_graph(cert: tuple) -> Graph:
    """The connected graph that the connected certificate ``cert`` writes:
    vertex p is the leaf's p-th vertex, so its certificate is ``cert``."""
    n, code = cert
    full = (1 << n) - 1
    # the leaf's rows in order, the first in the highest n bits
    return Graph(n, tuple(code >> n * (n - 1 - p) & full for p in range(n)))


def certificate(g: Graph) -> tuple:
    """Isomorphism certificate: two graphs get equal certificates iff they
    are isomorphic.

    A connected graph gets ``(n, code)``, with the greatest adjacency code
    over the leaves of an individualize-and-refine search (McKay & Piperno,
    "Practical graph isomorphism, II", 2014) that branches on the first
    non-singleton cell of an equitable partition, on one vertex per twin
    class (N(u) - {v} = N(v) - {u}).  A disconnected graph gets the sorted
    certificates of its components, each searched on ``g``'s own adjacency.
    """
    comps = components(g)
    if len(comps) > 1:
        return tuple(sorted(connected_certificate(g.adj, c) for c in comps))
    return connected_certificate(g.adj, g.full_mask)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by certificate, intended for small orders.

    Raises TooLarge when either graph exceeds ``ISO_DEFAULT_LIMIT`` vertices.
    """
    if g.n > ISO_DEFAULT_LIMIT or h.n > ISO_DEFAULT_LIMIT:
        raise TooLarge(f"isomorphism limited to {ISO_DEFAULT_LIMIT} vertices")
    return g.degree_sequence() == h.degree_sequence() and certificate(g) == certificate(h)


def ascii_int(text: str) -> int:
    """``text`` as an integer: ASCII digits with an optional leading '-'.

    ValueError on anything else, and on more digits than ``int()``
    converts.  ``int()`` alone also takes other scripts' digits,
    surrounding whitespace, '+' and underscores.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: malformed header")
            try:
                n = ascii_int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed header") from None
            continue
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v'")
        try:
            u, v = ascii_int(parts[0]), ascii_int(parts[1])
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

