"""Machine checks of the closed forms, product bounds, and extremal
characterizations, over parameterized families and exhaustive labeled
small graphs.  ``SUITES`` maps each suite to the function that gives its
rows; the named and product suites each check one list of (claim,
instance, expected) rows against one value table.  Every suite's
instances are fixed tables in this module, so its rows depend only on its
name and, for the exhaustive suite, on the largest order.  ``zf verify``
is the command-line front end; ``--format csv`` prints verdict counts.

The exhaustive claims read isomorphism invariants only, so they are
evaluated once per isomorphism class (``graph_classes``): the connected
classes come from augmentation, deduped by certificate, and the
disconnected ones are built as unions of connected ones.  Each class
carries its certificate, which the extremal-shape recognizer reads instead
of searching again.  Only connected classes are solved, by the union rule:
no force crosses a component and a component with no black vertex stays
white, so a union's (connected) zero forcing sets are one of each part,
run side by side, and its Z and Z_c are its parts' sums and its pt_c and
PT_c their greatest.  The findings are the relabelings of each violating
class, and each carries its class's computed fields under its own
``edges:`` descriptor.
``replay_claim`` recomputes a finding from its own labeled graph, so label
invariance is tested, not assumed.  A suite call solves each distinct graph
at most once: a per-run table (``_Solved``) holds the values that every
claim row and expected value reads, by name (Z, Z_c, pt_c, PT_c and the
recognizer's entry).  A class representative's claims read one solve
report, or its parts' numbers, and one recognizer lookup, and the named
and product rows Z and Z_c value queries, which find no witness.

Each check produces ClaimResult rows.  Violations are first-class data:
they carry a standalone instance descriptor and replay deterministically
via ``replay_claim``; a summary row replays by re-running its order alone.
Claims marked hard are exact statements the suite requires; as-stated
claims reproduce a printed statement verbatim and may log findings without
failing the run (some printed statements carry unstated hypotheses, and
the findings document exactly where).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement, permutations, product

from .dsl import parse_graph_dsl
from .graphs import Graph, GraphError, canonical_graph, certificate, components
from .graphs import connected_certificate, is_path_graph, mask_of, new_graph
from .recognize import _lookup
from .solver import DEFAULT_BUDGET, BudgetExceeded, _min_size, _zfs_lower_bound, solve_report


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    instance: str
    relation: str
    expected: dict
    computed: dict
    verdict: str  # "holds" | "violated" | "budget-exceeded"
    hard: bool

    def to_json_dict(self) -> dict:
        d = {
            "claim": self.claim,
            "instance": self.instance,
            "relation": self.relation,
            "expected": self.expected,
            "computed": self.computed,
            "verdict": self.verdict,
            "hard": self.hard,
        }
        if self.verdict == "violated":
            d["counterexample"] = {"instance": self.instance, "computed": self.computed}
        return d


def graph_from_instance(desc: str) -> Graph:
    """Rebuild a graph from a ClaimResult instance descriptor; an ``edges:``
    one takes ASCII digits only, GraphError otherwise."""
    if not desc.startswith("edges:"):
        return parse_graph_dsl(desc)
    # one full match checks the whole descriptor, so int() sees ASCII digits only
    match = re.fullmatch(r"edges:n=(\d+);(\d+-\d+(?:,\d+-\d+)*)?", desc, re.ASCII)
    try:
        if match is None:
            raise ValueError(desc)
        ends = list(map(int, match[2].replace("-", ",").split(","))) if match[2] else []
        n = int(match[1])
    except ValueError:  # also more digits than int() converts
        raise GraphError(f"malformed instance descriptor {desc!r}") from None
    return new_graph(n, zip(ends[::2], ends[1::2]))


# the report's numbers that claims read, and how a union's follow from its parts'
_NUMBERS = ("z", "z_c", "pt_c", "PT_c")
_UNION_RULE = (sum, sum, max, max)


class _Solved:
    """The values that claim rows read, by name: Z ("z"), Z_c ("z_c"), pt_c
    ("pt_c"), PT_c ("PT_c") and the extremal-shape recognizer's entry
    ("shape"), of the graphs one suite call checks, with each graph's
    descriptors parsed once.  Each kind of row fills the table from its own
    search, at most once per graph and search:

    - ``solve`` merges all four numbers of g from one ``solve_report`` into
      g's entry;
    - ``solve_class`` merges an exhaustive class's four numbers and its
      certificate ("certificate") into its representative's entry.  It
      solves only connected classes, each once per ``classes`` table, a
      missing part on first use.  A union's Z and Z_c are its parts' sums
      and its pt_c and PT_c their greatest: its (connected) zero forcing
      sets are one of each part, and the parts force side by side;
    - Z is a value query (``solver._min_size``) from the min-degree bound,
      and Z_c one from Z: every connected zero forcing set forces, so
      Z <= Z_c.  Neither needs a witness;
    - pt_c and PT_c, which only rows checked from scratch ask the table
      for, come with Z and Z_c from ``solve``;
    - both extremal-shape claims read one ``recognize._lookup``, which
      takes the graph's certificate from the table if it is there.

    The table stores no unknown value: a search that runs out raises
    ``BudgetExceeded``.  The caller owns the table and drops it with the
    run; ``replay_claim`` starts from an empty one.  The exhaustive suite
    passes one ``classes`` table, connected certificate -> numbers, from
    order to order.
    """

    def __init__(self, classes: dict[tuple, tuple[int, ...]] | None = None):
        self._values: dict[Graph, dict[str, int]] = {}
        self._graphs: dict[str, Graph] = {}
        self._classes = {} if classes is None else classes

    def graph(self, instance: str) -> Graph:
        g = self._graphs.get(instance)
        if g is None:
            g = self._graphs[instance] = graph_from_instance(instance)
        return g

    def solve(self, g: Graph) -> tuple[int, ...]:
        """Merge g's four numbers from one ``solve_report`` into g's entry and
        return them; an exhausted report raises ``BudgetExceeded``."""
        rep = solve_report(g, DEFAULT_BUDGET)
        if rep.budget_exceeded:
            message = f"budget of {DEFAULT_BUDGET} closure evaluations exhausted"
            raise BudgetExceeded(message, rep.closures, rep.lower_bounds)
        numbers = rep.z, rep.z_c, rep.ptc_min, rep.ptc_max
        self._values.setdefault(g, {}).update(zip(_NUMBERS, numbers))
        return numbers

    def solve_class(self, g: Graph, cert: tuple):
        """Merge the four numbers of the class whose certificate is ``cert``,
        and ``cert``, into the entry of its representative g."""
        # a connected class's certificate is (n, code), a union's its parts'
        parts = (cert,) if isinstance(cert[0], int) else cert
        for part in parts:
            if part not in self._classes:
                self._classes[part] = self.solve(g if part is cert else canonical_graph(part))
        columns = zip(*(self._classes[part] for part in parts))
        numbers = [rule(column) for rule, column in zip(_UNION_RULE, columns)]
        self._values.setdefault(g, {}).update(zip(_NUMBERS, numbers), certificate=cert)

    def value(self, g: Graph, key: str):
        """The value named ``key`` of g, searched for on first use."""
        known = self._values.setdefault(g, {})
        if key not in known:
            if key == "z":
                known[key] = _min_size(g, DEFAULT_BUDGET, False, _zfs_lower_bound(g))
            elif key == "z_c":
                known[key] = _min_size(g, DEFAULT_BUDGET, True, self.value(g, "z"))
            elif key == "shape":
                known[key] = _lookup(g, known.get("certificate"))
            else:
                self.solve(g)
        return known[key]


def _path_equivalence(g: Graph, value) -> dict:
    # pt_c first: its report brings Z_c along
    pt_c = value("pt_c")
    return {
        "n": g.n,
        "z_c": value("z_c"),
        "pt_c": pt_c,
        "PT_c": value("PT_c"),
        "is_path": is_path_graph(g),
    }


def _max_shape(g: Graph, value) -> dict:
    form = value("shape")[0]
    return {
        "n": g.n,
        "PT_c": value("PT_c"),
        "accepted": form.accepted,
        "form": form.kind.value,
    }


def _min_shape(g: Graph, value) -> dict:
    return {
        "n": g.n,
        "pt_c": value("pt_c"),
        "accepted": value("shape")[1] is not None,
    }


_EXHAUSTIVE_CLAIMS = (
    "order/z-le-zc",
    "path/four-equivalence",
    "extremal/max-time-shape",
    "extremal/min-time-shape",
)
# exhaustive claims that speak of connected graphs only
_CONNECTED_ONLY = ("path/four-equivalence", "extremal/min-time-shape")


def _eval_equal(expected: dict, computed: dict) -> bool:
    return all(computed.get(k) == v for k, v in expected.items())


def _eval_at_most(expected: dict, computed: dict) -> bool:
    bound = expected["bound"]
    return all(v <= bound for k, v in computed.items() if k in ("z", "z_c"))


def _eval_grid(expected: dict, computed: dict) -> bool:
    return computed["z"] == computed["z_c"] and computed["z"] <= expected["bound"]


def _eval_order(expected: dict, computed: dict) -> bool:
    return computed["z"] <= computed["z_c"]


def _eval_path_equiv(expected: dict, computed: dict) -> bool:
    n = computed["n"]
    flags = {
        computed["z_c"] == 1,
        computed["pt_c"] == n - 1,
        computed["PT_c"] == n - 1,
        computed["is_path"],
    }
    return len(flags) == 1


def _eval_max_shape(expected: dict, computed: dict) -> bool:
    return (computed["PT_c"] == computed["n"] - 2) == computed["accepted"]


def _eval_min_shape(expected: dict, computed: dict) -> bool:
    return (computed["pt_c"] == computed["n"] - 2) == computed["accepted"]


_ZS = ("z", "z_c")

# claim -> (computed fields, evaluator, relation string, hard); the fields
# are the values ("z", "z_c") the claim reads, or a function of the graph
# and a getter of its values by name
CLAIMS = {
    "named/path": (_ZS, _eval_equal, "=", True),
    "named/cycle": (_ZS, _eval_equal, "=", True),
    "named/complete": (_ZS, _eval_equal, "=", True),
    "named/wheel": (_ZS, _eval_equal, "=", True),
    "named/star": (_ZS, _eval_equal, "=", True),
    "named/supertriangle": (_ZS, _eval_equal, "=", True),
    "multipartite/general": (_ZS, _eval_equal, "=", True),
    "multipartite/star-or-complete-as-stated": (_ZS, _eval_equal, "=", False),
    "product/strong-cycle-path": (_ZS, _eval_at_most, "<=", True),
    "product/cartesian-path-layers-as-stated": (_ZS, _eval_equal, "=", False),
    "product/cartesian-factor-bound": (("z_c",), _eval_at_most, "<=", True),
    "product/strong-grid": (_ZS, _eval_grid, "= and <=", True),
    "gencorona/zc-bound": (("z_c",), _eval_at_most, "<=", True),
    "gencorona/zc-equality": (("z_c",), _eval_equal, "=", True),
    "corona/z-bound": (("z",), _eval_at_most, "<=", True),
    "corona/zc-bound-as-stated": (("z_c",), _eval_at_most, "<=", False),
    "corona/cycle-path-values": (_ZS, _eval_equal, "=", True),
    "corona/path-cycle-values": (_ZS, _eval_equal, "=", True),
    "order/z-le-zc": (_ZS, _eval_order, "<=", True),
    "path/four-equivalence": (_path_equivalence, _eval_path_equiv, "iff", True),
    "extremal/max-time-shape": (_max_shape, _eval_max_shape, "iff", False),
    "extremal/min-time-shape": (_min_shape, _eval_min_shape, "iff", False),
}


def _computed(solved: _Solved, claim: str, g: Graph) -> dict:
    fields = CLAIMS[claim][0]
    if callable(fields):
        return fields(g, partial(solved.value, g))
    return {key: solved.value(g, key) for key in fields}


def _check(claim: str, instance: str, expected: dict, solved: _Solved | None = None) -> ClaimResult:
    """One claim row; ``solved`` is the run's table, None checks from
    scratch."""
    _, evaluate, relation, hard = CLAIMS[claim]
    solved = solved or _Solved()
    try:
        computed = _computed(solved, claim, solved.graph(instance))
    except BudgetExceeded as exc:
        computed, verdict = {"closures": exc.closures, **exc.best_known}, "budget-exceeded"
    else:
        verdict = "holds" if evaluate(expected, computed) else "violated"
    return ClaimResult(claim, instance, relation, expected, computed, verdict, hard)


def replay_claim(result: ClaimResult) -> ClaimResult:
    """Re-run a single claim instance from scratch; a summary row,
    ``all-labeled(n=N)``, re-runs order N alone (``_order_rows``).  A claim
    outside ``CLAIMS``, and a summary of another claim or of an order
    outside 1..``_NMAX_LIMIT``, raise GraphError."""
    if result.claim not in CLAIMS:
        raise GraphError(f"unknown claim {result.claim!r}")
    if not result.instance.startswith("all-labeled"):
        return _check(result.claim, result.instance, result.expected)
    orders = {f"all-labeled(n={n})": n for n in range(1, _NMAX_LIMIT + 1)}
    if result.instance not in orders or result.claim not in _EXHAUSTIVE_CLAIMS:
        raise GraphError(
            f"{result.instance!r} is no summary of {result.claim!r} of order 1..{_NMAX_LIMIT}"
        )
    rows = _order_rows(orders[result.instance])
    return next(r for r in rows if (r.claim, r.instance) == (result.claim, result.instance))


def _partitions(total: int, max_part: int | None = None):
    """Partitions of ``total`` into >= 2 parts, nonincreasing order."""
    max_part = max_part if max_part is not None else total - 1
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def check_named_parameters() -> list[ClaimResult]:
    """Closed-form values of Z and Z_c for the named families."""
    rows = [
        (f"named/{family}", f"{family}({n})", dict(zip(_ZS, closed_form(n))))
        for family, first, last, closed_form in _NAMED_FAMILIES
        for n in range(first, last + 1)
    ]
    for total in range(2, _MULTIPARTITE_TOTAL + 1):
        for parts in _partitions(total):
            # all-singleton partitions describe complete graphs and (m,1)
            # partitions describe stars; both graphs carry their own closed
            # forms (n-1 for Z_c), so the printed multipartite form is
            # checked on them as stated rather than required
            if parts[0] == 1 or len(parts) == 2 and parts[1] == 1:
                claim = "multipartite/star-or-complete-as-stated"
            else:
                claim = "multipartite/general"
            inst = "multipartite(" + ",".join(map(str, parts)) + ")"
            rows.append((claim, inst, {"z": total - 2, "z_c": total - 2}))
    solved = _Solved()
    return [_check(claim, inst, expected, solved) for claim, inst, expected in rows]


# named family, first and last order, and (Z, Z_c) as a function of the order
_NAMED_FAMILIES = (
    ("path", 3, 10, lambda n: (1, 1)),
    ("cycle", 3, 10, lambda n: (2, 2)),
    ("complete", 2, 8, lambda n: (n - 1, n - 1)),
    ("wheel", 4, 9, lambda n: (3, 3)),
    ("star", 4, 9, lambda n: (n - 2, n - 1)),
    ("supertriangle", 2, 4, lambda n: (n, n)),
)
# complete multipartite graphs of every order up to this one
_MULTIPARTITE_TOTAL = 8

_STRONG_CYCLE_PATH = [(n, m) for n in (3, 4, 5) for m in (2, 3)]
_CARTESIAN_LAYER_FACTORS = [
    "path(2)", "path(3)", "path(4)", "cycle(3)", "cycle(4)", "cycle(5)", "complete(3)",
]
_CARTESIAN_FACTOR_PAIRS = [
    ("path(3)", "cycle(3)"),
    ("cycle(3)", "cycle(3)"),
    ("complete(3)", "path(3)"),
    ("path(2)", "cycle(4)"),
    ("star(4)", "path(3)"),
]
# (base term, attachment terms); the first _GENCORONA_EQUALITY also check the value
_GENCORONAS = [
    ("path(2)", ("path(2)", "path(2)")),
    ("cycle(3)", ("path(2)", "path(2)", "path(2)")),
    ("path(3)", ("path(2)", "cycle(3)", "path(3)")),
    ("path(2)", ("complete(1)", "path(3)")),
]
_GENCORONA_EQUALITY = 3
_CORONA_BOUNDS = [("cycle(5)", "path(3)"), ("path(3)", "cycle(6)"),
                  ("cycle(3)", "path(2)"), ("path(2)", "cycle(3)")]
_CORONA_CYCLE_PATH = [(5, 3), (3, 2), (4, 2)]
_CORONA_PATH_CYCLE = [(3, 6), (2, 3)]


def check_product_bounds() -> list[ClaimResult]:
    """Bounds and values for strong/Cartesian products and coronas."""
    solved = _Solved()

    def order(term: str) -> int:
        return solved.graph(term).n

    def value(term: str, key: str) -> int:
        return solved.value(solved.graph(term), key)

    # gencorona(base; parts) and its bound |base| + sum of Z(part)
    gencoronas = [
        (f"gencorona({base};{','.join(parts)})", order(base) + sum(value(p, "z") for p in parts))
        for base, parts in _GENCORONAS
    ]
    rows = [
        ("product/strong-cycle-path", f"strong(cycle({n}),path({m}))", {"bound": n + 2 * m - 2})
        for n, m in _STRONG_CYCLE_PATH
    ]
    rows += [
        ("product/cartesian-path-layers-as-stated", f"cartesian({factor},path({t}))",
         {"z": order(factor), "z_c": order(factor)})
        for factor in _CARTESIAN_LAYER_FACTORS
        for t in (2, 3)
        if order(factor) * t <= 16
    ]
    rows += [
        ("product/cartesian-factor-bound", f"cartesian({a},{b})",
         {"bound": min(value(a, "z_c") * order(b), value(b, "z_c") * order(a))})
        for a, b in _CARTESIAN_FACTOR_PAIRS
    ]
    rows += [
        ("product/strong-grid", f"strong(path({n}),path({m}))", {"bound": n + m - 1})
        for n in range(1, 5) for m in range(1, 5)
    ]
    rows += [("gencorona/zc-bound", inst, {"bound": total}) for inst, total in gencoronas]
    rows += [
        ("gencorona/zc-equality", inst, {"z_c": total})
        for inst, total in gencoronas[:_GENCORONA_EQUALITY]
    ]
    rows += [
        (claim, f"corona({a},{b})", {"bound": value(a, key) + order(a) * value(b, "z")})
        for a, b in _CORONA_BOUNDS
        for claim, key in (("corona/z-bound", "z"), ("corona/zc-bound-as-stated", "z_c"))
    ]
    rows += [
        ("corona/cycle-path-values", f"corona(cycle({n}),path({m}))", {"z": n + 2, "z_c": 2 * n})
        for n, m in _CORONA_CYCLE_PATH
    ]
    rows += [
        ("corona/path-cycle-values", f"corona(path({n}),cycle({m}))",
         {"z": 2 * n + 1, "z_c": 3 * n})
        for n, m in _CORONA_PATH_CYCLE
    ]
    return [_check(claim, inst, expected, solved) for claim, inst, expected in rows]


@lru_cache(maxsize=None)
def _connected_classes(n: int) -> tuple[tuple[tuple, Graph], ...]:
    """(certificate, representative) of each connected class of order n.

    Deleting a vertex of greatest degree from a connected graph of order n
    leaves a graph of order n - 1, connected or not, so every connected
    class arises from a class of order n - 1 by adding a vertex of greatest
    degree with a neighbor in every component.  The new degree d is greatest
    iff it exceeds the class's top degree, or equals it and the new vertex
    misses every vertex of top degree.  Candidates are certified on their
    adjacency rows; only a new class becomes a ``Graph``.
    """
    if n == 1:
        g = Graph(1, (0,))
        return ((certificate(g), g),)
    full = (1 << n) - 1
    classes = {}
    for _, h in graph_classes(n - 1):
        top = max(a.bit_count() for a in h.adj)
        tops = mask_of(v for v, a in enumerate(h.adj) if a.bit_count() == top)
        comps = components(h)
        for nb in range(1, 1 << (n - 1)):
            d = nb.bit_count()
            if (d > top or d == top and not nb & tops) and all(nb & c for c in comps):
                adj = tuple(a | (nb >> u & 1) << (n - 1) for u, a in enumerate(h.adj)) + (nb,)
                cert = connected_certificate(adj, full)
                if cert not in classes:
                    classes[cert] = Graph(n, adj)
    return tuple(classes.items())


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[tuple[tuple, Graph], ...]:
    """(certificate, representative) of each isomorphism class of order n,
    the connected classes first.

    The connected classes come from augmentation (``_connected_classes``).
    A disconnected class is a disjoint union of a multiset of two or more
    connected classes of smaller order, so it is built as one, and its
    certificate is the sorted tuple of its parts' certificates, as
    ``certificate`` gives it.  The exhaustive suite hands each certificate
    to the extremal-shape recognizer, which then searches for none.
    """
    out = list(_connected_classes(n))
    for orders in _partitions(n):
        groups = [
            combinations_with_replacement(_connected_classes(m), orders.count(m))
            for m in dict.fromkeys(orders)
        ]
        for choice in product(*groups):
            parts = [part for group in choice for part in group]
            adj, offset = [], 0
            for _, h in parts:
                adj += [a << offset for a in h.adj]
                offset += h.n
            out.append((tuple(sorted(cert for cert, _ in parts)), Graph(n, tuple(adj))))
    return tuple(out)


def _orbit_codes(g: Graph, pairs) -> set[int]:
    """Edge-subset codes (bit i selects ``pairs[i]``) of g's relabelings."""
    bit = [[0] * g.n for _ in range(g.n)]
    for i, (u, v) in enumerate(pairs):
        bit[u][v] = bit[v][u] = 1 << i
    edges = g.edges()
    return {sum(bit[p[u]][p[v]] for u, v in edges) for p in permutations(range(g.n))}


def _violated_claims(solved: _Solved, g: Graph, cert: tuple) -> dict[str, dict]:
    """The computed fields of each exhaustive claim that g violates, read
    off the numbers of its class (``_Solved.solve_class``) and one
    recognizer entry of g, whose certificate is ``cert``."""
    solved.solve_class(g, cert)
    connected = isinstance(cert[0], int)  # (n, code); a union's lists its parts'
    out = {}
    for c in _EXHAUSTIVE_CLAIMS:
        if connected or c not in _CONNECTED_ONLY:
            computed = _computed(solved, c, g)
            if not CLAIMS[c][1]({}, computed):
                out[c] = computed
    return out


# largest order of the exhaustive suite: at n = 8 it writes 1,350,720 finding rows
_NMAX_LIMIT = 7


def _order_rows(n: int, classes: dict | None = None) -> list[ClaimResult]:
    """The exhaustive rows of order n, each class of ``graph_classes``
    evaluated once: per claim, a summary row, then the relabelings of its
    violating classes in code order, each with its class's computed fields.
    ``classes`` holds the numbers of the connected classes of lower orders."""
    solved = _Solved(classes)
    pairs = list(combinations(range(n), 2))
    violated = []
    for cert, g in graph_classes(n):
        bad = _violated_claims(solved, g, cert)
        if bad:
            violated.append((bad, _orbit_codes(g, pairs)))
    words = [f"{u}-{v}" for u, v in pairs]
    out = []
    for c in _EXHAUSTIVE_CLAIMS:
        _, _, relation, hard = CLAIMS[c]
        # edge code (bit i selects pairs[i]) -> its class's computed fields
        found = {}
        for bad, orbit in violated:
            if c in bad:
                found.update(dict.fromkeys(orbit, bad[c]))
        summary = {"graphs": 1 << len(pairs), "violations": len(found)}
        verdict = "violated" if found else "holds"
        # one dict for the claim's rows of order n: the row writer groups by identity
        expected = {}
        out.append(ClaimResult(
            c, f"all-labeled(n={n})", relation, expected, summary, verdict, hard
        ))
        for code in sorted(found):
            # the bits of code from bit 0 up
            edges = [word for word, bit in zip(words, bin(code)[:1:-1]) if bit == "1"]
            inst = f"edges:n={n};" + ",".join(edges)
            out.append(ClaimResult(c, inst, relation, expected, found[code], "violated", hard))
    return out


def exhaustive_small_graphs(n_max: int = 6) -> list[ClaimResult]:
    """Run the exhaustive checks over every labeled graph on 1..n_max
    vertices, order by order, each union reading its parts from the lower
    orders.  A class whose report runs out of budget leaves every summary
    open, so ``BudgetExceeded`` stops the suite."""
    classes = {}
    return [row for n in range(1, n_max + 1) for row in _order_rows(n, classes)]


# suite name -> its rows for a largest order ``nmax``, in run order
SUITES = {
    "named": lambda nmax: check_named_parameters(),
    "products": lambda nmax: check_product_bounds(),
    "exhaustive": exhaustive_small_graphs,
}


def run_suites(suite: str = "all", nmax: int = 6) -> list[ClaimResult]:
    """Run the requested suite, or every one of ``SUITES`` for "all", and
    return results sorted by claim then instance."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'")
    out = [row for name, rows in SUITES.items() if suite in (name, "all") for row in rows(nmax)]
    out.sort(key=lambda r: (r.claim, r.instance))
    return out


def has_hard_violations(results) -> bool:
    return any(r.hard and r.verdict == "violated" for r in results)


def csv_summary(results) -> str:
    """Count per claim: instances, holds, violated, budget-exceeded (the rest)."""
    instances = Counter(r.claim for r in results)
    verdicts = Counter((r.claim, r.verdict) for r in results)
    lines = ["claim,instances,holds,violated,budget_exceeded"]
    for claim in sorted(instances):
        n, holds, violated = instances[claim], verdicts[claim, "holds"], verdicts[claim, "violated"]
        lines.append(f"{claim},{n},{holds},{violated},{n - holds - violated}")
    return "\n".join(lines) + "\n"
