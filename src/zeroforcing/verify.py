"""Machine checks of the closed forms, product bounds, and extremal
characterizations, over parameterized families and exhaustive labeled
small graphs.  The instances of every suite are fixed tables in this
module, so a suite's rows depend only on its name and, for the exhaustive
suite, on the largest order.  ``zf verify`` is the command-line front end;
its ``--format csv`` prints the per-claim verdict counts.

The exhaustive claims are evaluated once per isomorphism class, found by
one-vertex augmentation and deduped by certificate (``graph_classes``);
the findings are the relabelings of each violating class, and each such
labeled graph is replayed on its own.

Each check produces ClaimResult rows.  Violations are first-class data:
they carry a standalone instance descriptor and replay deterministically
via ``replay_claim``.  Claims marked hard are exact statements the suite
requires; as-stated claims reproduce a printed statement verbatim and may
log findings without failing the run (some printed statements carry
unstated hypotheses, and the findings document exactly where).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from . import families
from .dsl import parse_graph_dsl
from .graphs import Graph, certificate, is_connected, is_path_graph, new_graph
from .recognize import min_extremal_spec, recognize_extremal_form
from .solver import (
    BudgetExceeded,
    SolverLimits,
    _first_hit,
    _Meter,
    connected_zero_forcing_number,
    solve_report,
    zero_forcing_number,
)


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
    """Rebuild a graph from a ClaimResult instance descriptor."""
    if desc.startswith("edges:"):
        body = desc[len("edges:") :]
        head, _, rest = body.partition(";")
        n = int(head.split("=", 1)[1])
        edges = []
        if rest:
            for token in rest.split(","):
                u, _, v = token.partition("-")
                edges.append((int(u), int(v)))
        return new_graph(n, edges)
    return parse_graph_dsl(desc)


def graph_to_instance(g: Graph) -> str:
    return f"edges:n={g.n};" + ",".join(f"{u}-{v}" for u, v in g.edges())


def _zs(g: Graph) -> dict:
    z, _ = zero_forcing_number(g)
    # every connected zero forcing set forces, so Z_c >= Z
    z_c, _ = _first_hit(g, _Meter(None), True, z)
    return {"z": z, "z_c": z_c}


def _z_only(g: Graph) -> dict:
    z, _ = zero_forcing_number(g)
    return {"z": z}


def _zc_only(g: Graph) -> dict:
    z_c, _ = connected_zero_forcing_number(g)
    return {"z_c": z_c}


def _on_report(fields):
    """Claim compute function that passes ``fields`` the graph's report."""
    return lambda g: fields(g, solve_report(g))


def _order_pair(g: Graph, rep) -> dict:
    return {"z": rep.z, "z_c": rep.z_c}


def _path_equivalence(g: Graph, rep) -> dict:
    return {
        "n": g.n,
        "z_c": rep.z_c,
        "pt_c": rep.ptc_min,
        "PT_c": rep.ptc_max,
        "is_path": is_path_graph(g),
    }


def _max_shape(g: Graph, rep) -> dict:
    form = recognize_extremal_form(g)
    return {
        "n": g.n,
        "PT_c": rep.ptc_max,
        "accepted": form.accepted,
        "form": form.kind.value,
    }


def _min_shape(g: Graph, rep) -> dict:
    return {
        "n": g.n,
        "pt_c": rep.ptc_min,
        "accepted": min_extremal_spec(g) is not None,
    }


# exhaustive claim -> its fields from a graph and its report
_EXHAUSTIVE_CLAIMS = {
    "order/z-le-zc": _order_pair,
    "path/four-equivalence": _path_equivalence,
    "extremal/max-time-shape": _max_shape,
    "extremal/min-time-shape": _min_shape,
}
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


# claim -> (compute fn of the instance's graph, evaluator, relation string, hard)
CLAIMS = {
    "named/path": (_zs, _eval_equal, "=", True),
    "named/cycle": (_zs, _eval_equal, "=", True),
    "named/complete": (_zs, _eval_equal, "=", True),
    "named/wheel": (_zs, _eval_equal, "=", True),
    "named/star": (_zs, _eval_equal, "=", True),
    "named/supertriangle": (_zs, _eval_equal, "=", True),
    "multipartite/general": (_zs, _eval_equal, "=", True),
    "multipartite/star-or-complete-as-stated": (_zs, _eval_equal, "=", False),
    "product/strong-cycle-path": (_zs, _eval_at_most, "<=", True),
    "product/cartesian-path-layers-as-stated": (_zs, _eval_equal, "=", False),
    "product/cartesian-factor-bound": (_zc_only, _eval_at_most, "<=", True),
    "product/strong-grid": (_zs, _eval_grid, "= and <=", True),
    "gencorona/zc-bound": (_zc_only, _eval_at_most, "<=", True),
    "gencorona/zc-equality": (_zc_only, _eval_equal, "=", True),
    "corona/z-bound": (_z_only, _eval_at_most, "<=", True),
    "corona/zc-bound-as-stated": (_zc_only, _eval_at_most, "<=", False),
    "corona/cycle-path-values": (_zs, _eval_equal, "=", True),
    "corona/path-cycle-values": (_zs, _eval_equal, "=", True),
    "order/z-le-zc": (_on_report(_order_pair), _eval_order, "<=", True),
    "path/four-equivalence": (_on_report(_path_equivalence), _eval_path_equiv, "iff", True),
    "extremal/max-time-shape": (_on_report(_max_shape), _eval_max_shape, "iff", False),
    "extremal/min-time-shape": (_on_report(_min_shape), _eval_min_shape, "iff", False),
}


def _check(claim: str, instance: str, expected: dict) -> ClaimResult:
    compute, evaluate, relation, hard = CLAIMS[claim]
    try:
        computed = compute(graph_from_instance(instance))
    except BudgetExceeded as exc:
        return ClaimResult(
            claim, instance, relation, expected, {"closures": exc.closures},
            "budget-exceeded", hard,
        )
    verdict = "holds" if evaluate(expected, computed) else "violated"
    return ClaimResult(claim, instance, relation, expected, computed, verdict, hard)


def replay_claim(result: ClaimResult) -> ClaimResult:
    """Re-run a single claim instance from scratch."""
    return _check(result.claim, result.instance, result.expected)


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
    out = []
    for family, first, last, closed_form in _NAMED_FAMILIES:
        for n in range(first, last + 1):
            z, z_c = closed_form(n)
            out.append(_check(f"named/{family}", f"{family}({n})", {"z": z, "z_c": z_c}))
    for total in range(2, _MULTIPARTITE_TOTAL + 1):
        for parts in _partitions(total):
            inst = "multipartite(" + ",".join(map(str, parts)) + ")"
            expected = {"z": total - 2, "z_c": total - 2}
            # all-singleton partitions describe complete graphs and (m,1)
            # partitions describe stars; both graphs carry their own closed
            # forms (n-1 for Z_c), so the printed multipartite form is
            # checked on them as stated rather than required
            is_complete = parts[0] == 1
            is_star = len(parts) == 2 and parts[1] == 1
            if is_complete or is_star:
                out.append(_check("multipartite/star-or-complete-as-stated", inst, expected))
            else:
                out.append(_check("multipartite/general", inst, expected))
    return out


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
# (base term, attachment terms)
_GENCORONA_BOUND = [
    ("path(2)", ("path(2)", "path(2)")),
    ("cycle(3)", ("path(2)", "path(2)", "path(2)")),
    ("path(3)", ("path(2)", "cycle(3)", "path(3)")),
    ("path(2)", ("complete(1)", "path(3)")),
]
_GENCORONA_EQUALITY = _GENCORONA_BOUND[:3]
_CORONA_BOUNDS = [("cycle(5)", "path(3)"), ("path(3)", "cycle(6)"),
                  ("cycle(3)", "path(2)"), ("path(2)", "cycle(3)")]
_CORONA_CYCLE_PATH = [(5, 3), (3, 2), (4, 2)]
_CORONA_PATH_CYCLE = [(3, 6), (2, 3)]


def check_product_bounds() -> list[ClaimResult]:
    """Bounds and values for strong/Cartesian products and coronas."""
    out = []
    for n, m in _STRONG_CYCLE_PATH:
        inst = f"strong(cycle({n}),path({m}))"
        out.append(_check("product/strong-cycle-path", inst, {"bound": n + 2 * m - 2}))
    for factor in _CARTESIAN_LAYER_FACTORS:
        base = parse_graph_dsl(factor)
        for t in (2, 3):
            if base.n * t > 16:
                continue
            inst = f"cartesian({factor},path({t}))"
            out.append(
                _check(
                    "product/cartesian-path-layers-as-stated",
                    inst,
                    {"z": base.n, "z_c": base.n},
                )
            )
    for a, b in _CARTESIAN_FACTOR_PAIRS:
        ga, gb = parse_graph_dsl(a), parse_graph_dsl(b)
        zca, _ = connected_zero_forcing_number(ga)
        zcb, _ = connected_zero_forcing_number(gb)
        bound = min(zca * gb.n, zcb * ga.n)
        out.append(_check("product/cartesian-factor-bound", f"cartesian({a},{b})", {"bound": bound}))
    for n in range(1, 5):
        for m in range(1, 5):
            inst = f"strong(path({n}),path({m}))"
            out.append(_check("product/strong-grid", inst, {"bound": n + m - 1}))
    for base, parts in _GENCORONA_BOUND:
        inst, bound = _gencorona_claim(base, parts)
        out.append(_check("gencorona/zc-bound", inst, {"bound": bound}))
    for base, parts in _GENCORONA_EQUALITY:
        inst, value = _gencorona_claim(base, parts)
        out.append(_check("gencorona/zc-equality", inst, {"z_c": value}))
    for a, b in _CORONA_BOUNDS:
        ga, gb = parse_graph_dsl(a), parse_graph_dsl(b)
        zh, _ = zero_forcing_number(gb)
        inst = f"corona({a},{b})"
        out.append(_check("corona/z-bound", inst, {"bound": zero_forcing_number(ga)[0] + ga.n * zh}))
        out.append(
            _check(
                "corona/zc-bound-as-stated",
                inst,
                {"bound": connected_zero_forcing_number(ga)[0] + ga.n * zh},
            )
        )
    for n, m in _CORONA_CYCLE_PATH:
        inst = f"corona(cycle({n}),path({m}))"
        out.append(_check("corona/cycle-path-values", inst, {"z": n + 2, "z_c": 2 * n}))
    for n, m in _CORONA_PATH_CYCLE:
        inst = f"corona(path({n}),cycle({m}))"
        out.append(_check("corona/path-cycle-values", inst, {"z": 2 * n + 1, "z_c": 3 * n}))
    return out


def _gencorona_claim(base: str, parts) -> tuple[str, int]:
    """Instance text of gencorona(base; parts) and |base| + sum of Z(part)."""
    value = parse_graph_dsl(base).n
    value += sum(zero_forcing_number(parse_graph_dsl(p))[0] for p in parts)
    return f"gencorona({base};{','.join(parts)})", value


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[Graph, ...]:
    """One graph per isomorphism class of order n.

    Deleting a vertex of greatest degree from a graph of order n leaves one
    of order n - 1, so every class arises from a class of order n - 1 by
    adding a vertex of greatest degree; the candidates are deduped by
    certificate.
    """
    if n == 1:
        return (Graph(1, (0,)),)
    classes = {}
    for h in graph_classes(n - 1):
        for nb in range(1 << (n - 1)):
            d = nb.bit_count()
            if all(a.bit_count() + (nb >> u & 1) <= d for u, a in enumerate(h.adj)):
                adj = tuple(a | (nb >> u & 1) << (n - 1) for u, a in enumerate(h.adj))
                g = Graph(n, adj + (nb,))
                classes.setdefault(certificate(g), g)
    return tuple(classes.values())


def _orbit_codes(g: Graph, pairs) -> set[int]:
    """Edge-subset codes (bit i selects ``pairs[i]``) of g's relabelings."""
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    edges = g.edges()
    return {
        sum(bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in edges)
        for p in permutations(range(g.n))
    }


def _violated_claims(g: Graph, claims) -> set[str]:
    """The exhaustive claims among ``claims`` that g violates."""
    rep = solve_report(g)
    connected = is_connected(g)
    return {
        c
        for c in claims
        if (connected or c not in _CONNECTED_ONLY)
        and not CLAIMS[c][1]({}, _EXHAUSTIVE_CLAIMS[c](g, rep))
    }


def exhaustive_small_graphs(n_max: int = 6, claims=None) -> list[ClaimResult]:
    """Run the exhaustive checks over every labeled graph on 1..n_max vertices.

    The claims read only isomorphism invariants, so each class of
    ``graph_classes`` is evaluated once.  Produces one summary row per
    (claim, n) plus one replayed violated row per labeled counterexample:
    the relabelings of the violating classes, in code order.
    """
    claims = tuple(claims) if claims is not None else tuple(_EXHAUSTIVE_CLAIMS)
    out = []
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        violated = [(g, _violated_claims(g, claims)) for g in graph_classes(n)]
        for c in claims:
            _, _, relation, hard = CLAIMS[c]
            codes = set()
            for g, bad in violated:
                if c in bad:
                    codes |= _orbit_codes(g, pairs)
            found = [
                f"edges:n={n};"
                + ",".join(f"{u}-{v}" for i, (u, v) in enumerate(pairs) if code >> i & 1)
                for code in sorted(codes)
            ]
            summary = {"graphs": 1 << len(pairs), "violations": len(found)}
            verdict = "violated" if found else "holds"
            out.append(ClaimResult(c, f"all-labeled(n={n})", relation, {}, summary, verdict, hard))
            out.extend(_check(c, inst, {}) for inst in found)
    return out


def run_suites(suite: str = "all", nmax: int = 6) -> list[ClaimResult]:
    """Run the requested suites and return results sorted by claim then
    instance."""
    if suite not in ("named", "products", "exhaustive", "all"):
        raise ValueError(f"unknown suite '{suite}'")
    out = []
    if suite in ("named", "all"):
        out.extend(check_named_parameters())
    if suite in ("products", "all"):
        out.extend(check_product_bounds())
    if suite in ("exhaustive", "all"):
        out.extend(exhaustive_small_graphs(nmax))
    out.sort(key=lambda r: (r.claim, r.instance))
    return out


def has_hard_violations(results) -> bool:
    return any(r.hard and r.verdict == "violated" for r in results)


def csv_summary(results) -> str:
    """Aggregate per claim: instances, holds, violated, budget-exceeded."""
    agg: dict[str, list[int]] = {}
    for r in results:
        row = agg.setdefault(r.claim, [0, 0, 0, 0])
        row[0] += 1
        if r.verdict == "holds":
            row[1] += 1
        elif r.verdict == "violated":
            row[2] += 1
        else:
            row[3] += 1
    lines = ["claim,instances,holds,violated,budget_exceeded"]
    for claim in sorted(agg):
        row = agg[claim]
        lines.append(f"{claim},{row[0]},{row[1]},{row[2]},{row[3]}")
    return "\n".join(lines) + "\n"
