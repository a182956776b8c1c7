"""Exact search for zero forcing numbers and propagation-time extrema.

Candidates are scanned in increasing size; within a size level masks are
tested in lexicographic order of their sorted vertex tuples, which makes
every witness and count reproducible.  All k-sets of a level are closed
in runs of up to ``_LEVEL_WIDTH`` sets per call of the bit-sliced kernel,
which also yields every set's propagation time.  Connected candidates come
from a seed-and-frontier enumeration that emits each connected set exactly
once, and are closed one at a time.

Work is metered in candidate evaluations (one closure per candidate, one
per propagation-time measurement).  Charging follows the deterministic
stream order, so budgets and reported counts do not depend on how many
worker processes evaluated the stream.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .forcing import _batch_rounds, _closure, _propagation_steps
from .graphs import Graph, components, mask_of, vertices_of

DEFAULT_BUDGET = 10**8
_CHUNK = 4096
# sets per bit-sliced kernel call in the all-k-sets stream
_LEVEL_WIDTH = 16384
# levels this small skip the kernel and evaluate set by set
_SCALAR_LEVEL = 20


@dataclass(frozen=True)
class SolverLimits:
    """Resource limits for an exact solve."""

    max_closures: int = DEFAULT_BUDGET


class BudgetExceeded(RuntimeError):
    """The closure-evaluation budget ran out before an exact answer."""

    def __init__(self, message: str, closures: int, best_known: dict | None = None):
        super().__init__(message)
        self.closures = closures
        self.best_known = best_known or {}


class WrongSize(ValueError):
    """An enumeration was requested at a size other than the true minimum."""


class _Meter:
    __slots__ = ("limit", "used", "note")

    def __init__(self, limits: SolverLimits | None):
        self.limit = (limits or SolverLimits()).max_closures
        self.used = 0
        self.note = ""

    def charge(self, count: int = 1):
        """Charge ``count`` evaluations, as that many single charges would."""
        self.used += count
        if self.used > self.limit:
            self.used = self.limit
            raise BudgetExceeded(
                f"budget of {self.limit} closure evaluations exhausted ({self.note})",
                closures=self.limit,
            )


def _level_runs(n: int, k: int, width: int):
    """Cover the k-subsets of range(n), in lexicographic order, by runs.

    A run ``(prefix, start, r, count)`` is the first ``count`` r-subsets of
    range(start, n), each joined with the prefix mask: a union of whole
    adjacent prefix subtrees, at most ``width`` sets wide.
    """

    def walk(prefix, s, r):
        if comb(n - s, r) <= width:
            yield prefix, s, r, comb(n - s, r)
            return
        x = s
        while comb(n - x - 1, r - 1) > width:
            yield from walk(prefix | 1 << x, x + 1, r - 1)
            x += 1
        while x <= n - r:
            start, count = x, 0
            while x <= n - r and count + comb(n - x - 1, r - 1) <= width:
                count += comb(n - x - 1, r - 1)
                x += 1
            yield prefix, start, r, count

    return walk(0, 0, k)


@lru_cache(maxsize=1024)
def _pascal_row(n: int, r: int, s: int, width: int) -> tuple[int, ...]:
    """Bit-sliced first ``width`` r-subsets of range(s, n), lexicographic.

    Entry v - s has bit j set when vertex v lies in the j-th subset.  The
    subsets that take s come first, then those that skip it.
    """
    if r == 0:
        return (0,) * (n - s)
    taking = comb(n - s - 1, r - 1)
    head = _pascal_row(n, r - 1, s + 1, width)
    first = (1 << min(taking, width)) - 1
    if taking >= width or n - s - 1 < r:
        return (first,) + head
    keep = (1 << width) - 1
    tail = _pascal_row(n, r, s + 1, width)
    return (first,) + tuple((h | t << taking) & keep for h, t in zip(head, tail))


@lru_cache(maxsize=256)
def _small_level(n: int, k: int) -> tuple[int, ...]:
    """Masks of a small level, lexicographic; shared by every graph of order n."""
    return tuple(mask_of(c) for c in combinations(range(n), k))


def _unrank(n: int, run, j: int) -> int:
    """Mask of the j-th set of a run."""
    mask, x, r, _ = run
    while r:
        c = comb(n - x - 1, r - 1)
        if j < c:
            mask |= 1 << x
            r -= 1
        else:
            j -= c
        x += 1
    return mask


def _level_stream(g: Graph, k: int):
    """Yield ``(run, done)`` for each run of level k, in stream order.

    ``done`` is the per-round finished bitmap of ``_batch_rounds``: bit j
    of ``done[t]`` says the run's j-th set forces g in exactly t rounds.
    """
    n = g.n
    if comb(n, k) <= _SCALAR_LEVEL:
        # a kernel call costs more than these few sets: fill done set by set
        adj, full = g.adj, g.full_mask
        masks = _small_level(n, k)
        done = [0]
        for j, m in enumerate(masks):
            if _closure(adj, full, m) == full:
                t = _propagation_steps(adj, full, m)
                done.extend([0] * (t + 1 - len(done)))
                done[t] |= 1 << j
        yield (0, 0, k, len(masks)), done
        return
    nbrs = [vertices_of(a) for a in g.adj]
    for run in _level_runs(n, k, _LEVEL_WIDTH):
        prefix, s, r, count = run
        ones = (1 << count) - 1
        cols = [0] * s + [c & ones for c in _pascal_row(n, r, s, _LEVEL_WIDTH)]
        for v in vertices_of(prefix):
            cols[v] = ones
        yield run, _batch_rounds(nbrs, cols, ones)


def _hits(done: list[int]) -> int:
    out = 0
    for d in done:
        out |= d
    return out


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _zfs_chunk(args):
    adj, full, masks = args
    return [i for i, m in enumerate(masks) if _closure(adj, full, m) == full]


def _pt_chunk(args):
    adj, full, masks = args
    return [_propagation_steps(adj, full, m) for m in masks]


def _scan_masks(g: Graph, masks: list[int], meter: _Meter, pool) -> list[int]:
    """Masks whose closure covers g, in input order; charges one per mask."""
    adj, full = g.adj, g.full_mask
    hits = []
    if pool is None or len(masks) < 2 * _CHUNK:
        for m in masks:
            meter.charge()
            if _closure(adj, full, m) == full:
                hits.append(m)
        return hits
    batches = [masks[i : i + _CHUNK] for i in range(0, len(masks), _CHUNK)]
    results = pool.imap(_zfs_chunk, ((adj, full, b) for b in batches))
    for batch, hit_idx in zip(batches, results):
        idx = set(hit_idx)
        for i, m in enumerate(batch):
            meter.charge()
            if i in idx:
                hits.append(m)
    return hits


def _measure_pts(g: Graph, masks: list[int], meter: _Meter, pool) -> list[int]:
    adj, full = g.adj, g.full_mask
    if pool is None or len(masks) < 2 * _CHUNK:
        out = []
        for m in masks:
            meter.charge()
            out.append(_propagation_steps(adj, full, m))
        return out
    batches = [masks[i : i + _CHUNK] for i in range(0, len(masks), _CHUNK)]
    results = pool.imap(_pt_chunk, ((adj, full, b) for b in batches))
    out = []
    for batch, pts in zip(batches, results):
        for p in pts:
            meter.charge()
            out.append(p)
    return out


def connected_sets_by_size(g: Graph, cap: int) -> list[list[int]]:
    """All connected vertex sets of size 1..cap, grouped by size.

    Seed-and-frontier enumeration with an exclusive-extension rule: each
    connected set is generated exactly once, grown from its minimum vertex.
    """
    adj = g.adj
    out: list[list[int]] = [[] for _ in range(cap + 1)]

    def extend(sub: int, size: int, ext: int, nbhd: int, hi: int):
        out[size].append(sub)
        if size == cap:
            return
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            nb_w = adj[wbit.bit_length() - 1]
            extend(sub | wbit, size + 1, ext | (nb_w & hi & ~nbhd), nbhd | nb_w, hi)

    if cap >= 1:
        for v in range(g.n):
            hi = -1 << (v + 1)
            extend(1 << v, 1, adj[v] & hi, adj[v] | (1 << v), hi)
    return out


def connected_in_components_sets(g: Graph, k: int) -> list[int]:
    """Size-k sets connected in components, sorted by vertex tuple.

    A set qualifies when its intersection with every component it meets
    induces a connected subgraph; components it misses do not veto.
    """
    if k < 1:
        return []
    by_size = connected_sets_by_size(g, k)
    comps = components(g)
    if len(comps) == 1:
        level = by_size[k]
        level.sort(key=vertices_of)
        return level
    buckets: list[list[list[int]]] = [[[] for _ in range(k + 1)] for _ in comps]
    comp_index = {}
    for ci, comp in enumerate(comps):
        for v in vertices_of(comp):
            comp_index[v] = ci
    for size in range(1, k + 1):
        for m in by_size[size]:
            buckets[comp_index[(m & -m).bit_length() - 1]][size].append(m)
    out: list[int] = []

    def compose(ci: int, remaining: int, acc: int):
        if ci == len(comps):
            if remaining == 0 and acc:
                out.append(acc)
            return
        if remaining == 0:
            if acc:
                out.append(acc)
            return
        compose(ci + 1, remaining, acc)
        for size in range(1, remaining + 1):
            for m in buckets[ci][size]:
                compose(ci + 1, remaining - size, acc | m)

    compose(0, k, 0)
    out.sort(key=vertices_of)
    return out


def _zfs_lower_bound(g: Graph) -> int:
    return max(1, min(g.degree(v) for v in range(g.n)))


def zero_forcing_number(g: Graph, limits: SolverLimits | None = None) -> tuple[int, int]:
    """Smallest size of a zero forcing set, with its lexicographically
    least witness mask."""
    meter = _Meter(limits)
    meter.note = "zero forcing number"
    for k in range(_zfs_lower_bound(g), g.n + 1):
        try:
            for run, done in _level_stream(g, k):
                if done[-1]:
                    first = _lowest(_hits(done))
                    meter.charge(first + 1)
                    return k, _unrank(g.n, run, first)
                meter.charge(run[3])
        except BudgetExceeded as exc:
            exc.best_known["z_lower_bound"] = k
            raise
    raise AssertionError("the full vertex set always forces")


def connected_zero_forcing_number(
    g: Graph, limits: SolverLimits | None = None
) -> tuple[int, int]:
    """Smallest size of a connected zero forcing set, with the
    lexicographically least witness mask."""
    meter = _Meter(limits)
    meter.note = "connected zero forcing number"
    adj, full = g.adj, g.full_mask
    for k in range(_zfs_lower_bound(g), g.n + 1):
        try:
            for m in connected_in_components_sets(g, k):
                meter.charge()
                if _closure(adj, full, m) == full:
                    return k, m
        except BudgetExceeded as exc:
            exc.best_known["z_c_lower_bound"] = k
            raise
    raise AssertionError("the full vertex set always forces")


def enumerate_min_zfs(g: Graph, k: int, limits: SolverLimits | None = None):
    """Yield every minimum zero forcing set, lexicographic order.

    ``k`` must equal the zero forcing number; WrongSize otherwise.
    """
    z, _ = zero_forcing_number(g, limits)
    if k != z:
        raise WrongSize(f"minimum zero forcing sets have size {z}, not {k}")
    for run, done in _level_stream(g, k):
        hits = _hits(done)
        while hits:
            low = hits & -hits
            hits ^= low
            yield _unrank(g.n, run, low.bit_length() - 1)


def enumerate_min_czfs(g: Graph, k: int, limits: SolverLimits | None = None):
    """Yield every minimum connected zero forcing set, lexicographic order."""
    zc, _ = connected_zero_forcing_number(g, limits)
    if k != zc:
        raise WrongSize(f"minimum connected zero forcing sets have size {zc}, not {k}")
    adj, full = g.adj, g.full_mask
    for m in connected_in_components_sets(g, k):
        if _closure(adj, full, m) == full:
            yield m


def propagation_extrema(
    g: Graph, connected: bool = False, limits: SolverLimits | None = None
) -> tuple[tuple[int, int], tuple[int, int]]:
    """((min pt, witness), (max pt, witness)) over all minimum (connected)
    zero forcing sets; witnesses are the first attaining sets in stream order."""
    rep = solve_report(g, limits=limits)
    if rep.budget_exceeded:
        raise BudgetExceeded(
            "budget exhausted before the extrema were determined",
            closures=rep.closures,
        )
    if connected:
        return (
            (rep.ptc_min, rep.witnesses["pt_c"]),
            (rep.ptc_max, rep.witnesses["PT_c"]),
        )
    return (rep.pt_min, rep.witnesses["pt"]), (rep.pt_max, rep.witnesses["PT"])


@dataclass(frozen=True)
class SolveReport:
    """All six parameters with witnesses, counts, and metering stats.

    Fields are None when a budget ran out before they were determined.
    """

    n: int
    m: int
    z: int | None
    z_c: int | None
    pt_min: int | None
    pt_max: int | None
    ptc_min: int | None
    ptc_max: int | None
    witnesses: dict
    min_zfs_count: int | None
    min_czfs_count: int | None
    closures: int
    budget_exceeded: bool

    def __post_init__(self):
        # explicit checks, not asserts: they must also hold under python -O
        if self.z is not None and self.z_c is not None and not self.z <= self.z_c:
            raise ValueError(f"z = {self.z} exceeds z_c = {self.z_c}")
        if self.pt_min is not None and self.pt_max is not None:
            if not self.pt_min <= self.pt_max <= self.n - self.z:
                raise ValueError(
                    f"need pt <= PT <= n - z, got {self.pt_min}, {self.pt_max}, "
                    f"{self.n} - {self.z}"
                )
        if self.ptc_min is not None and self.ptc_max is not None:
            if not self.ptc_min <= self.ptc_max <= self.n - self.z_c:
                raise ValueError(
                    f"need pt_c <= PT_c <= n - z_c, got {self.ptc_min}, {self.ptc_max}, "
                    f"{self.n} - {self.z_c}"
                )

    def to_json_dict(self) -> dict:
        def wit(key):
            m = self.witnesses.get(key)
            return None if m is None else list(vertices_of(m))

        return {
            "n": self.n,
            "m": self.m,
            "z": self.z,
            "z_c": self.z_c,
            "pt": self.pt_min,
            "PT": self.pt_max,
            "pt_c": self.ptc_min,
            "PT_c": self.ptc_max,
            "witnesses": {
                "z": wit("z"),
                "z_c": wit("z_c"),
                "pt": wit("pt"),
                "PT": wit("PT"),
                "pt_c": wit("pt_c"),
                "PT_c": wit("PT_c"),
            },
            "counts": {
                "min_zfs": self.min_zfs_count,
                "min_czfs": self.min_czfs_count,
            },
            "budget": {"closures": self.closures, "exceeded": self.budget_exceeded},
        }


def _min_zfs_level(g: Graph, meter: _Meter):
    """Drain every level up to Z; returns Z and the ``(run, done)`` pairs
    of level Z that hold a zero forcing set.  Charges one per set."""
    for k in range(_zfs_lower_bound(g), g.n + 1):
        found = []
        for run, done in _level_stream(g, k):
            meter.charge(run[3])
            if done[-1]:
                found.append((run, done))
        if found:
            return k, found
    raise AssertionError("the full vertex set always forces")


def _min_czfs_level(g: Graph, meter: _Meter, pool, start: int):
    for k in range(start, g.n + 1):
        hits = _scan_masks(g, connected_in_components_sets(g, k), meter, pool)
        if hits:
            return k, hits
    raise AssertionError("the full vertex set always forces")


def _extrema(masks, pts):
    tmin = tmax = None
    wmin = wmax = None
    for m, t in zip(masks, pts):
        if tmin is None or t < tmin:
            tmin, wmin = t, m
        if tmax is None or t > tmax:
            tmax, wmax = t, m
    return tmin, wmin, tmax, wmax


def solve_report(
    g: Graph, limits: SolverLimits | None = None, jobs: int = 1
) -> SolveReport:
    """Compute Z, Z_c, and all four propagation-time extrema with witnesses.

    ``jobs`` > 1 evaluates the connected candidates in worker processes;
    chunk results are reduced in stream order, so the report is
    byte-identical to a single-process run.
    """
    meter = _Meter(limits)
    fields = {
        "z": None,
        "z_c": None,
        "pt_min": None,
        "pt_max": None,
        "ptc_min": None,
        "ptc_max": None,
        "min_zfs_count": None,
        "min_czfs_count": None,
    }
    witnesses = {k: None for k in ("z", "z_c", "pt", "PT", "pt_c", "PT_c")}
    exceeded = False
    pool = None
    try:
        if jobs > 1:
            pool = mp.get_context("fork").Pool(jobs)
        try:
            meter.note = "zero forcing number"
            z, found = _min_zfs_level(g, meter)
            count = 0
            tmin = tmax = None
            for run, done in found:
                count += _hits(done).bit_count()
                first = 0
                while not done[first]:
                    first += 1
                if tmin is None or first < tmin:
                    tmin, at_min = first, (run, done[first])
                if tmax is None or len(done) - 1 > tmax:
                    tmax, at_max = len(done) - 1, (run, done[-1])
            fields["z"] = z
            fields["min_zfs_count"] = count
            run, done = found[0]
            witnesses["z"] = _unrank(g.n, run, _lowest(_hits(done)))

            # pt of every minimum set came with its closure; charge one each
            meter.note = "propagation extrema"
            meter.charge(count)
            fields["pt_min"], fields["pt_max"] = tmin, tmax
            witnesses["pt"] = _unrank(g.n, at_min[0], _lowest(at_min[1]))
            witnesses["PT"] = _unrank(g.n, at_max[0], _lowest(at_max[1]))

            meter.note = "connected zero forcing number"
            z_c, zc_hits = _min_czfs_level(g, meter, pool, z)
            fields["z_c"] = z_c
            fields["min_czfs_count"] = len(zc_hits)
            witnesses["z_c"] = zc_hits[0]

            meter.note = "connected propagation extrema"
            pts = _measure_pts(g, zc_hits, meter, pool)
            tmin, wmin, tmax, wmax = _extrema(zc_hits, pts)
            fields["ptc_min"], fields["ptc_max"] = tmin, tmax
            witnesses["pt_c"], witnesses["PT_c"] = wmin, wmax
        except BudgetExceeded:
            exceeded = True
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return SolveReport(
        n=g.n,
        m=g.edge_count(),
        z=fields["z"],
        z_c=fields["z_c"],
        pt_min=fields["pt_min"],
        pt_max=fields["pt_max"],
        ptc_min=fields["ptc_min"],
        ptc_max=fields["ptc_max"],
        witnesses=witnesses,
        min_zfs_count=fields["min_zfs_count"],
        min_czfs_count=fields["min_czfs_count"],
        closures=meter.used,
        budget_exceeded=exceeded,
    )
