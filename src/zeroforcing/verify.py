"""Machine checks of the closed forms, product bounds, and extremal
characterizations, over parameterized families and exhaustive labeled
small graphs.

The exhaustive claims are evaluated once per isomorphism class of labeled
graphs; each labeled graph of a violating class is replayed on its own.

Each check produces ClaimResult rows.  Violations are first-class data:
they carry a standalone instance descriptor and replay deterministically
via ``replay_claim``.  Claims marked hard are exact statements the suite
requires; as-stated claims reproduce a printed statement verbatim and may
log findings without failing the run (some printed statements carry
unstated hypotheses, and the findings document exactly where).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations

from . import families
from .dsl import parse_graph_dsl
from .graphs import Graph, is_connected, is_path_graph, new_graph
from .recognize import min_extremal_spec, recognize_extremal_form
from .solver import (
    BudgetExceeded,
    SolverLimits,
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
    z_c, _ = connected_zero_forcing_number(g)
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


@dataclass(frozen=True)
class NamedRanges:
    """Instance ranges for the closed-form parameter checks."""

    paths: tuple[int, int] = (3, 10)
    cycles: tuple[int, int] = (3, 10)
    completes: tuple[int, int] = (2, 8)
    wheels: tuple[int, int] = (4, 9)
    stars: tuple[int, int] = (4, 9)
    supertriangles: tuple[int, int] = (2, 4)
    multipartite_total: int = 8


def _partitions(total: int, max_part: int | None = None):
    """Partitions of ``total`` into >= 2 parts, nonincreasing order."""
    max_part = max_part if max_part is not None else total - 1
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def check_named_parameters(ranges: NamedRanges | None = None) -> list[ClaimResult]:
    """Closed-form values of Z and Z_c for the named families."""
    r = ranges or NamedRanges()
    out = []
    for n in range(r.paths[0], r.paths[1] + 1):
        out.append(_check("named/path", f"path({n})", {"z": 1, "z_c": 1}))
    for n in range(r.cycles[0], r.cycles[1] + 1):
        out.append(_check("named/cycle", f"cycle({n})", {"z": 2, "z_c": 2}))
    for n in range(r.completes[0], r.completes[1] + 1):
        out.append(_check("named/complete", f"complete({n})", {"z": n - 1, "z_c": n - 1}))
    for n in range(r.wheels[0], r.wheels[1] + 1):
        out.append(_check("named/wheel", f"wheel({n})", {"z": 3, "z_c": 3}))
    for n in range(r.stars[0], r.stars[1] + 1):
        out.append(_check("named/star", f"star({n})", {"z": n - 2, "z_c": n - 1}))
    for n in range(r.supertriangles[0], r.supertriangles[1] + 1):
        out.append(_check("named/supertriangle", f"supertriangle({n})", {"z": n, "z_c": n}))
    for total in range(2, r.multipartite_total + 1):
        for parts in _partitions(total):
            if len(parts) < 2:
                continue
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
_GENCORONA_BOUND = [
    "gencorona(path(2);path(2),path(2))",
    "gencorona(cycle(3);path(2),path(2),path(2))",
    "gencorona(path(3);path(2),cycle(3),path(3))",
    "gencorona(path(2);complete(1),path(3))",
]
_GENCORONA_EQUALITY = [
    "gencorona(path(2);path(2),path(2))",
    "gencorona(cycle(3);path(2),path(2),path(2))",
    "gencorona(path(3);path(2),cycle(3),path(3))",
]
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
    for inst in _GENCORONA_BOUND:
        g, hs = _gencorona_parts(inst)
        bound = g.n + sum(zero_forcing_number(h)[0] for h in hs)
        out.append(_check("gencorona/zc-bound", inst, {"bound": bound}))
    for inst in _GENCORONA_EQUALITY:
        g, hs = _gencorona_parts(inst)
        value = g.n + sum(zero_forcing_number(h)[0] for h in hs)
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


def _gencorona_parts(inst: str):
    body = inst[len("gencorona(") : -1]
    base_txt, _, rest = body.partition(";")
    base = parse_graph_dsl(base_txt)
    depth = 0
    parts = []
    cur = ""
    for ch in rest:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur += ch
    parts.append(cur)
    return base, [parse_graph_dsl(p) for p in parts]


def _code_graph(n: int, pairs, code: int) -> Graph:
    """Labeled graph of an edge-subset code: bit i selects ``pairs[i]``."""
    return new_graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])


_UNMARKED = 0xFFFF


def labeled_classes(n: int) -> tuple[list[int], array]:
    """``(reps, ids)``: ``ids[code]`` is the isomorphism class of each
    edge-subset code on n vertices (bit i selects the i-th pair of
    ``combinations(range(n), 2)``), and ``reps[c]`` is the least code of
    class c.  The walk ascends; each unmarked code starts a class, whose
    orbit under S_n is closed over the n - 1 adjacent transpositions,
    applied to a code through one 256-entry table per byte.
    """
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for t in range(n - 1):
        swap = {t: t + 1, t + 1: t}
        image = [index[tuple(sorted((swap.get(u, u), swap.get(v, v))))] for u, v in pairs]
        tables.append([
            [sum(1 << b for i, b in enumerate(image[lo : lo + 8]) if byte >> i & 1)
             for byte in range(256)]
            for lo in range(0, len(pairs), 8)
        ])
    # 16 bits hold the 12,346 classes of n = 8; n = 9 would need 2^36 codes
    ids = array("H", [_UNMARKED]) * (1 << len(pairs))
    reps = []
    for code in range(len(ids)):
        if ids[code] != _UNMARKED:
            continue
        ids[code] = cid = len(reps)
        reps.append(code)
        stack = [code]
        while stack:
            c = stack.pop()
            for table in tables:
                d, rest = 0, c
                for byte_table in table:
                    d |= byte_table[rest & 255]
                    rest >>= 8
                if ids[d] == _UNMARKED:
                    ids[d] = cid
                    stack.append(d)
    return reps, ids


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


def exhaustive_small_graphs(
    n_max: int = 6, claims=None, jobs: int = 1
) -> list[ClaimResult]:
    """Run the exhaustive checks over every labeled graph on 1..n_max vertices.

    The claims read only isomorphism invariants, so each class is evaluated
    once, on its least code.  Produces one summary row per (claim, n) plus
    one replayed violated row per labeled counterexample, in code order.
    ``jobs`` is accepted for compatibility and has no effect.
    """
    claims = tuple(claims) if claims is not None else tuple(_EXHAUSTIVE_CLAIMS)
    out = []
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        reps, ids = labeled_classes(n)
        violated = [_violated_claims(_code_graph(n, pairs, code), claims) for code in reps]
        for c in claims:
            _, _, relation, hard = CLAIMS[c]
            found = [
                graph_to_instance(_code_graph(n, pairs, code))
                for code, cid in enumerate(ids)
                if c in violated[cid]
            ]
            summary = {"graphs": len(ids), "violations": len(found)}
            verdict = "violated" if found else "holds"
            out.append(ClaimResult(c, f"all-labeled(n={n})", relation, {}, summary, verdict, hard))
            out.extend(_check(c, inst, {}) for inst in found)
    return out


def run_suites(
    suite: str = "all",
    nmax: int = 6,
    jobs: int = 1,
    ranges: NamedRanges | None = None,
) -> list[ClaimResult]:
    """Run the requested suites and return results sorted by claim then
    instance."""
    if suite not in ("named", "products", "exhaustive", "all"):
        raise ValueError(f"unknown suite '{suite}'")
    out = []
    if suite in ("named", "all"):
        out.extend(check_named_parameters(ranges))
    if suite in ("products", "all"):
        out.extend(check_product_bounds())
    if suite in ("exhaustive", "all"):
        out.extend(exhaustive_small_graphs(nmax, jobs=jobs))
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
