"""Text DSL for constructing family graphs, e.g. ``corona(cycle(5),path(3))``.

Grammar (whitespace-insensitive)::

    term    := NAME '(' args ')' chords?
    args    := arg (',' arg)*              for most families
             | term ';' term (',' term)*   for gencorona(base; h1, h2, ...)
    arg     := INT | term
    chords  := '[' 'chords' ':' INT '@' INT (',' INT '@' INT)* ']'

The chord suffix is valid only on ``pc``; a chord ``c@j`` joins u^c_j to
v_{c+1} on cycle c.  Supported terms: path(n), cycle(n), complete(n),
star(n), wheel(n), supertriangle(n), multipartite(s1,s2,...),
cartesian(A,B), strong(A,B), corona(A,B), gencorona(A;B1,...),
pc(n1,...,nk), vsum(A,v,B,w).
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
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a family name", start)
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("integer too long", start) from None


_SINGLE_INT = {
    "path": families.path,
    "cycle": families.cycle,
    "complete": families.complete,
    "star": families.star,
    "wheel": families.wheel,
    "supertriangle": families.supertriangle,
}


# deeper terms would exhaust the interpreter stack before any graph is built
MAX_DEPTH = 200


def _parse_term(sc: _Scanner, depth: int = 0):
    at = sc.pos
    if depth > MAX_DEPTH:
        raise ParseError(f"terms nest deeper than {MAX_DEPTH}", at)
    name = sc.name().lower()
    sc.expect("(")
    if name in _SINGLE_INT:
        n = sc.integer()
        sc.expect(")")
        return _SINGLE_INT[name](n)
    if name == "multipartite":
        sizes = [sc.integer()]
        while sc.peek() == ",":
            sc.expect(",")
            sizes.append(sc.integer())
        sc.expect(")")
        return families.complete_multipartite(sizes)
    if name in ("cartesian", "strong", "corona"):
        a = _parse_term(sc, depth + 1)
        sc.expect(",")
        b = _parse_term(sc, depth + 1)
        sc.expect(")")
        return getattr(families, name)(a, b)
    if name == "gencorona":
        base = _parse_term(sc, depth + 1)
        sc.expect(";")
        hs = [_parse_term(sc, depth + 1)]
        while sc.peek() == ",":
            sc.expect(",")
            hs.append(_parse_term(sc, depth + 1))
        sc.expect(")")
        return families.generalized_corona(base, hs)
    if name == "vsum":
        a = _parse_term(sc, depth + 1)
        sc.expect(",")
        v = sc.integer()
        sc.expect(",")
        b = _parse_term(sc, depth + 1)
        sc.expect(",")
        w = sc.integer()
        sc.expect(")")
        return families.vertex_sum(a, v, b, w)
    if name == "pc":
        sizes = [sc.integer()]
        while sc.peek() == ",":
            sc.expect(",")
            sizes.append(sc.integer())
        sc.expect(")")
        chords = [[] for _ in sizes]
        if sc.peek() == "[":
            sc.expect("[")
            kw = sc.name().lower()
            if kw != "chords":
                raise ParseError("expected 'chords'", sc.pos)
            sc.expect(":")
            while True:
                c = sc.integer()
                sc.expect("@")
                j = sc.integer()
                if not 1 <= c <= len(sizes):
                    raise ParseError(f"no cycle {c}", sc.pos)
                chords[c - 1].append(j)
                if sc.peek() != ",":
                    break
                sc.expect(",")
            sc.expect("]")
        spec = families.PCSpec(tuple(sizes), tuple(tuple(c) for c in chords))
        return families.pc_graph(spec)
    raise ParseError(f"unknown family '{name}'", at)


def parse_graph_dsl(text: str) -> Graph:
    """Parse a family DSL term into a graph."""
    sc = _Scanner(text)
    g = _parse_term(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing input", sc.pos)
    return g


def spec_to_dsl(spec: families.PCSpec) -> str:
    """Render a PCSpec as a DSL term that re-parses to the same graph."""
    body = "pc(" + ",".join(str(c) for c in spec.cycles) + ")"
    chord_items = [
        f"{i + 1}@{j}" for i, cl in enumerate(spec.chords) for j in cl
    ]
    if chord_items:
        body += "[chords:" + ",".join(chord_items) + "]"
    if spec.tail is not None:
        t, m = spec.tail
        body = f"vsum({body},{t - 1},path({m}),0)"
    return body
