"""Exact search for zero forcing numbers and propagation-time extrema.

Candidates are scanned in increasing size; within a size level masks are
tested in lexicographic order of their sorted vertex tuples, which makes
every witness and count reproducible.  One level stream serves both kinds
of set: the k-sets of a level are closed in runs of up to ``_LEVEL_WIDTH``
sets per call of the bit-sliced kernel, which also yields every set's
propagation time.  For connected sets the stream first keeps, per run,
the sets that the bit-sliced connectivity kernel finds connected in
components, and closes only those.  A level of at most ``_SCALAR_LEVEL``
sets is a single run with the same layout (``_pascal_row`` columns,
``_unrank`` masks) and is evaluated set by set, since a kernel call costs
more than those few sets.  Every search runs in the calling process.
``solve_report`` closes level Z once: since Z <= Z_c, its connected phase
starts there and masks the Z phase's round bitmaps with each run's
connectivity mask instead of closing again.

Work is metered in candidate evaluations (one closure per candidate, one
per propagation-time measurement).  Charging follows the deterministic
stream order, and a connected stream charges only its connected sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .forcing import _batch_rounds, _propagation_steps
from .graphs import Graph, components, connected_columns, vertices_of

DEFAULT_BUDGET = 10**8
# sets per bit-sliced kernel call in the level stream
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

    def charge(self, count: int):
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


@lru_cache(maxsize=8)
def _shape(g: Graph):
    """Neighbor lists and ascending component vertex lists of g."""
    return tuple(map(vertices_of, g.adj)), tuple(map(vertices_of, components(g)))


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


def _unrank_bits(n: int, run, bits: int):
    """Masks of the run's sets whose bits are set, in stream order."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield _unrank(n, run, low.bit_length() - 1)


@lru_cache(maxsize=256)
def _small_level(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Masks of a small level, lexicographic, and their bit-sliced columns;
    shared by every graph of order n.  The level is one run of its own
    width, not ``_LEVEL_WIDTH``, so the cache never depends on that."""
    count = comb(n, k)
    masks = tuple(_unrank_bits(n, (0, 0, k, count), (1 << count) - 1))
    return masks, _pascal_row(n, k, 0, count)


def _level_columns(g: Graph, k: int, connected: bool):
    """Yield ``(run, cols, ones)`` for each kernel-sized run of level k, in
    stream order.

    Bit j of ``cols[v]`` says v lies in the run's j-th set.  ``ones`` holds
    the sets the stream keeps: all of them, or with ``connected`` those
    connected in components.  Bits of ``cols`` outside ``ones`` are
    meaningless; the kernels ignore them.
    """
    n = g.n
    for run in _level_runs(n, k, _LEVEL_WIDTH):
        prefix, s, r, count = run
        ones = (1 << count) - 1
        cols = [0] * s + list(_pascal_row(n, r, s, _LEVEL_WIDTH))
        for v in vertices_of(prefix):
            cols[v] = ones
        if connected:
            ones = connected_columns(*_shape(g), cols, ones)
        yield run, cols, ones


def _level_stream(g: Graph, k: int, connected: bool = False, closed=None):
    """Yield ``(run, ones, done)`` for each run of level k, in stream order.

    ``ones`` holds the run's sets in the stream (see ``_level_columns``);
    ``done`` is the per-round finished bitmap of ``_batch_rounds`` on them:
    bit j of ``done[t]`` says the run's j-th set forces g in exactly t rounds.
    ``closed`` maps the runs of level k that hold a zero forcing set to
    their ``done`` over all k-sets.  With it the stream closes nothing and
    restricts those bitmaps to ``ones``: every column of the kernel evolves
    on its own, so a set's rounds do not depend on the other sets of its run.
    """
    n = g.n
    if comb(n, k) > _SCALAR_LEVEL:
        nbrs = _shape(g)[0]
        for run, cols, ones in _level_columns(g, k, connected):
            if closed is not None:
                done = _restrict(closed.get(run, (0,)), ones)
            else:
                done = _batch_rounds(nbrs, cols, ones) if ones else [0]
            yield run, ones, done
        return
    masks, cols = _small_level(n, k)
    run = (0, 0, k, len(masks))
    ones = (1 << len(masks)) - 1
    if connected:
        ones = connected_columns(*_shape(g), cols, ones)
    if closed is not None:
        yield run, ones, _restrict(closed.get(run, (0,)), ones)
        return
    # a kernel call costs more than these few sets: fill done set by set
    adj, full = g.adj, g.full_mask
    done = [0]
    for j, m in enumerate(masks):
        t = _propagation_steps(adj, full, m) if ones >> j & 1 else None
        if t is not None:
            done.extend([0] * (t + 1 - len(done)))
            done[t] |= 1 << j
    yield run, ones, done


def _restrict(done, ones: int) -> list[int]:
    """A run's ``done`` bitmaps restricted to the sets in ``ones``."""
    out = [d & ones for d in done]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _hits(done: list[int]) -> int:
    out = 0
    for d in done:
        out |= d
    return out


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def connected_in_components_sets(g: Graph, k: int) -> list[int]:
    """Size-k sets connected in components, sorted by vertex tuple.

    A set qualifies when its intersection with every component it meets
    induces a connected subgraph; components it misses do not veto.
    """
    if not 1 <= k <= g.n:
        return []
    return [
        m
        for run, _, ones in _level_columns(g, k, connected=True)
        for m in _unrank_bits(g.n, run, ones)
    ]


def _zfs_lower_bound(g: Graph) -> int:
    return max(1, min(g.degree(v) for v in range(g.n)))


def _first_hit(g: Graph, meter: _Meter, connected: bool, start: int) -> tuple[int, int]:
    """Smallest level from ``start`` on holding a (connected) zero forcing
    set, with the first such set in stream order.  Charged through the hit;
    ``start`` must be at most that level."""
    meter.note = "connected zero forcing number" if connected else "zero forcing number"
    for k in range(start, g.n + 1):
        try:
            for run, ones, done in _level_stream(g, k, connected):
                if done[-1]:
                    first = _lowest(_hits(done))
                    meter.charge((ones & (2 << first) - 1).bit_count())
                    return k, _unrank(g.n, run, first)
                meter.charge(ones.bit_count())
        except BudgetExceeded as exc:
            exc.best_known["z_c_lower_bound" if connected else "z_lower_bound"] = k
            raise
    raise AssertionError("the full vertex set always forces")


def zero_forcing_number(g: Graph, limits: SolverLimits | None = None) -> tuple[int, int]:
    """Smallest size of a zero forcing set, with its lexicographically
    least witness mask."""
    return _first_hit(g, _Meter(limits), False, _zfs_lower_bound(g))


def connected_zero_forcing_number(
    g: Graph, limits: SolverLimits | None = None
) -> tuple[int, int]:
    """Smallest size of a connected zero forcing set, with the
    lexicographically least witness mask."""
    return _first_hit(g, _Meter(limits), True, _zfs_lower_bound(g))


def _enumerate_min(g: Graph, k: int | None, limits: SolverLimits | None, connected: bool):
    """Drain the levels up to the minimum one, charging one per set in
    stream order, then yield that level's hits; each set is closed once."""
    kind = "minimum connected zero forcing sets" if connected else "minimum zero forcing sets"
    meter = _Meter(limits)
    meter.note = kind
    z, found = _min_level(g, meter, _zfs_lower_bound(g), connected)
    if k is not None and k != z:
        raise WrongSize(f"{kind} have size {z}, not {k}")
    for run, done in found:
        yield from _unrank_bits(g.n, run, _hits(done))


def enumerate_min_zfs(g: Graph, k: int | None = None, limits: SolverLimits | None = None):
    """Yield every minimum zero forcing set, lexicographic order.

    ``k`` must equal the zero forcing number, WrongSize otherwise; None
    stands for it.  The budget bounds the drain of every level up to k.
    """
    return _enumerate_min(g, k, limits, connected=False)


def enumerate_min_czfs(g: Graph, k: int | None = None, limits: SolverLimits | None = None):
    """Yield every minimum connected zero forcing set, lexicographic order;
    ``k`` as for ``enumerate_min_zfs``."""
    return _enumerate_min(g, k, limits, connected=True)


def propagation_extrema(
    g: Graph, connected: bool = False, limits: SolverLimits | None = None
) -> tuple[tuple[int, int], tuple[int, int]]:
    """((min pt, witness), (max pt, witness)) over all minimum (connected)
    zero forcing sets; witnesses are the first attaining sets in stream order.

    Runs and charges the phases of ``solve_report`` up to the one asked for.
    """
    fields, witnesses = {}, {}
    _run_phases(g, _Meter(limits), _PHASES[: 1 + connected], fields, witnesses)
    if connected:
        return (
            (fields["ptc_min"], witnesses["pt_c"]),
            (fields["ptc_max"], witnesses["PT_c"]),
        )
    return (fields["pt_min"], witnesses["pt"]), (fields["pt_max"], witnesses["PT"])


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


def _min_level(g: Graph, meter: _Meter, start: int, connected: bool, closed=None):
    """Drain the levels from ``start`` up to the first one that holds a
    (connected) zero forcing set; returns its size and the ``(run, done)``
    pairs that hold one.  Charges one per set in the stream.  ``closed``,
    if given, holds the bitmaps of level ``start`` (see ``_level_stream``).
    """
    for k in range(start, g.n + 1):
        found = []
        for run, ones, done in _level_stream(g, k, connected, closed):
            meter.charge(ones.bit_count())
            if done[-1]:
                found.append((run, done))
        if found:
            return k, found
        closed = None
    raise AssertionError("the full vertex set always forces")


def _level_summary(n: int, found):
    """``(count, witness, (pt, witness), (PT, witness))`` of a level's hits;
    every witness is the first attaining set in stream order."""
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
    run, done = found[0]
    return (
        count,
        _unrank(n, run, _lowest(_hits(done))),
        (tmin, _unrank(n, at_min[0], _lowest(at_min[1]))),
        (tmax, _unrank(n, at_max[0], _lowest(at_max[1]))),
    )


# per phase: connected, value and count fields, pt fields, witness keys, meter notes
_PHASES = (
    (False, "z", "min_zfs_count", ("pt_min", "pt_max"), ("z", "pt", "PT"),
     ("zero forcing number", "propagation extrema")),
    (True, "z_c", "min_czfs_count", ("ptc_min", "ptc_max"), ("z_c", "pt_c", "PT_c"),
     ("connected zero forcing number", "connected propagation extrema")),
)


def _run_phases(g: Graph, meter: _Meter, phases, fields: dict, witnesses: dict):
    """Run ``phases`` of ``_PHASES`` in order, each from the level where the
    last one stopped, filling ``fields`` and ``witnesses`` as each value
    becomes known."""
    k, closed = _zfs_lower_bound(g), None
    for connected, value, count_key, (lo, hi), (wk, wlo, whi), notes in phases:
        meter.note = notes[0]
        # Z <= Z_c: the connected phase starts on the level that the Z phase
        # has just closed, and reuses its bitmaps
        k, found = _min_level(g, meter, k, connected, closed)
        closed = dict(found)
        count, witness, (tmin, wmin), (tmax, wmax) = _level_summary(g.n, found)
        fields[value], fields[count_key], witnesses[wk] = k, count, witness
        # pt of every minimum set came with its closure; charge one each
        meter.note = notes[1]
        meter.charge(count)
        fields[lo], fields[hi] = tmin, tmax
        witnesses[wlo], witnesses[whi] = wmin, wmax


def solve_report(g: Graph, limits: SolverLimits | None = None) -> SolveReport:
    """Compute Z, Z_c, and all four propagation-time extrema with witnesses."""
    meter = _Meter(limits)
    fields = dict.fromkeys(
        ("z", "z_c", "pt_min", "pt_max", "ptc_min", "ptc_max", "min_zfs_count", "min_czfs_count")
    )
    witnesses = dict.fromkeys(("z", "z_c", "pt", "PT", "pt_c", "PT_c"))
    exceeded = False
    try:
        _run_phases(g, meter, _PHASES, fields, witnesses)
    except BudgetExceeded:
        exceeded = True
    return SolveReport(
        n=g.n,
        m=g.edge_count(),
        witnesses=witnesses,
        closures=meter.used,
        budget_exceeded=exceeded,
        **fields,
    )
