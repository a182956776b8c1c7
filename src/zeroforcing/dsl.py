"""Text DSL for constructing family graphs, e.g. ``corona(cycle(5),path(3))``.

Grammar (whitespace-insensitive)::

    term    := NAME '(' args ')' chords?
    args    := the arguments that the family's signature in FAMILIES names
    chords  := '[' 'chords' ':' INT '@' INT (',' INT '@' INT)* ']'

NAME is a key of ``FAMILIES`` in any case.  The chord suffix is valid only
on ``pc``; a chord ``c@j`` joins u^c_j to v_{c+1} on cycle c.
"""

from __future__ import annotations

from . import families
from .graphs import Graph


class ParseError(ValueError):
    """Malformed DSL text; carries the character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def run(self, accepts, what: str) -> str:
        """The nonempty run of characters that ``accepts`` takes, after any space."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and accepts(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return self.text[start : self.pos]

    def name(self) -> str:
        return self.run(str.isalpha, "a family name")

    def integer(self) -> int:
        # ASCII digits only: str.isdigit also takes '²' and '٣'
        digits = self.run("0123456789".__contains__, "an integer")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise ParseError("integer too long", self.pos - len(digits)) from None


# name -> (argument signature, constructor, `zf families` rows as (form, labeling))
FAMILIES = {
    "path": ("n", families.path, [
        ("path(n)", "vertices 0..n-1 in path order (n >= 1)")]),
    "cycle": ("n", families.cycle, [
        ("cycle(n)", "cyclic order 0..n-1, closing (n-1, 0) (n >= 3)")]),
    "complete": ("n", families.complete, [
        ("complete(n)", "K_n (n >= 1)")]),
    "star": ("n", families.star, [
        ("star(n)", "order n, vertex 0 is the center (n >= 2)")]),
    "wheel": ("n", families.wheel, [
        ("wheel(n)", "order n, vertex 0 is the hub, 1..n-1 the rim (n >= 4)")]),
    "supertriangle": ("n", families.supertriangle, [
        ("supertriangle(n)", "triangular grid, rows of 1..n vertices, row-major ids")]),
    "multipartite": ("n+", families.complete_multipartite, [
        ("multipartite(s1,s2,...)", "complete multipartite, parts in consecutive blocks")]),
    "cartesian": ("G,G", families.cartesian, [
        ("cartesian(A,B)", "Cartesian product, (u,v) -> u*|B|+v")]),
    "strong": ("G,G", families.strong, [
        ("strong(A,B)", "strong product, (u,v) -> u*|B|+v")]),
    "corona": ("G,G", families.corona, [
        ("corona(A,B)", "A's ids first, then one copy of B per vertex of A")]),
    "gencorona": ("G;G+", families.generalized_corona, [
        ("gencorona(A;B1,B2,...)", "per-vertex attachments, blocks in order")]),
    "pc": ("n+", lambda sizes, chords: families.pc_graph(families.PCSpec(sizes, chords)), [
        ("pc(n1,...,nk)", "path v1..v_{k+2} (ids 0..k+1) plus k cycles; fresh u ids follow"),
        ("pc(...)[chords:c@j,...]", "extra edge u^c_j to v_{c+1} on cycle c")]),
    "vsum": ("G,n,G,n", families.vertex_sum, [
        ("vsum(A,v,B,w)", "identify vertex v of A with vertex w of B; A keeps its ids")]),
}


# deeper terms would exhaust the interpreter stack before any graph is built
MAX_DEPTH = 200


def _list(sc: _Scanner, read) -> list:
    """One or more ``read()`` items, separated by commas."""
    items = [read()]
    while sc.peek() == ",":
        sc.expect(",")
        items.append(read())
    return items


def _chords(sc: _Scanner, k: int) -> tuple[tuple[int, ...], ...]:
    """Per-cycle chord lists of pc's optional ``[chords:c@j,...]`` suffix."""
    if sc.peek() != "[":
        return ()  # chordless
    sc.expect("[")
    if sc.name().lower() != "chords":
        raise ParseError("expected 'chords'", sc.pos)
    sc.expect(":")

    def chord():
        c = sc.integer()
        sc.expect("@")
        j = sc.integer()
        if not 1 <= c <= k:
            raise ParseError(f"no cycle {c}", sc.pos)
        return c, j

    pairs = _list(sc, chord)
    sc.expect("]")
    return tuple(tuple(j for c, j in pairs if c == i) for i in range(1, k + 1))


def _parse_term(sc: _Scanner, depth: int = 0):
    at = sc.pos
    if depth > MAX_DEPTH:
        raise ParseError(f"terms nest deeper than {MAX_DEPTH}", at)
    name = sc.name().lower()
    sc.expect("(")
    if name not in FAMILIES:
        raise ParseError(f"unknown family '{name}'", at)
    signature, build, _ = FAMILIES[name]
    # n reads an integer and G a term, and a + after either a comma-separated
    # list of them; ',' and ';' stand for themselves
    args = []
    for i, ch in enumerate(signature):
        if ch in ",;":
            sc.expect(ch)
        elif ch != "+":
            read = sc.integer if ch == "n" else lambda: _parse_term(sc, depth + 1)
            args.append(_list(sc, read) if signature[i + 1 : i + 2] == "+" else read())
    sc.expect(")")
    if name == "pc":
        args.append(_chords(sc, len(args[0])))
    return build(*args)


def parse_graph_dsl(text: str) -> Graph:
    """Parse a family DSL term into a graph."""
    sc = _Scanner(text)
    g = _parse_term(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing input", sc.pos)
    return g
