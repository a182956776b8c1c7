"""Exact search for zero forcing numbers and propagation-time extrema.

Candidates are scanned in increasing size; within a size level masks are
tested in lexicographic order of their sorted vertex tuples, which makes
every witness and count reproducible.  One level stream serves both kinds
of set: the k-sets of a level are closed in runs of up to ``_LEVEL_WIDTH``
sets per call of the bit-sliced kernel, which also yields every set's
propagation time.  A run's columns are a row of ``_pascal_row``, which
depends only on the size of the range the run's subsets come from; one
row cache keeps the rows of at most a quarter run, and a small second
one the last few wider rows, built from them.  For connected sets the
stream first keeps, per run, the sets that the bit-sliced connectivity
kernel finds connected in components, and closes only those.
``_min_level`` is the one level search: first-hit queries stop at its
first hit, drains read the whole level.

A search from a known lower bound starts where ``_start_level`` says.
The levels that hold a (connected) zero forcing set are the levels from
the minimum to n, since every superset of a zero forcing set forces, and
a connected one grows by a neighbouring vertex into a connected one.  So
the step takes U, the size of a greedy such set.  An all-sets search that
drains its minimum level closes level U first: a (U - 1)-set that forces
makes each of its one-vertex extensions force, so only the ``_survivors``
of level U's hits can force, and if none of them does, U is the minimum
and the drained level is the answer.  Otherwise, and for every other
search, the step probes levels U - 1, U - 2, ... with first-hit scans,
and stops at the first level without a hit, whose full scan proves the
level above it minimum.  A search of that level resumes its probe's
stream, so no run is closed twice.  The value query ``_min_size`` returns
that level and scans no level for a witness.
``_run_phases`` is the one phase loop:
it runs the Z phase and then, if asked, the connected one, for
``solve_report`` and ``propagation_extrema``.
``solve_report`` closes level Z once: since Z <= Z_c, its connected phase
starts there and masks the Z phase's round bitmaps with each run's
connectivity mask instead of closing again.

Work is metered in candidate evaluations (one closure per candidate, one
per propagation-time measurement), at most ``budget`` of them per call.
Charging follows the deterministic stream order, and a connected stream
charges only its connected sets, and the meter keeps the lower bound that
an exhausted budget reports.  A run is closed before its sets are charged,
so a search stops within one run of the charge that exhausts its budget.
The start-level step descends only when the budget left covers every set
of the levels from the lower bound to U, and g has a level of more than
``_CLIMB_LEVEL`` sets; it drains level U first only when the budget also
covers the C(n, U) sets that a failed proof drains for nothing.  It
charges each level below the minimum all of its C(n, k) sets, as if
closed, and nothing for the greedy bound (at most 2n closures), the
survivors of a proof, a wasted drain and the probes above the minimum.
A covered search cannot run out, and a climbing all-sets search charges
exactly that, so closures and lower bounds are those of climbing from
the lower bound.
Every search runs in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import comb

from .forcing import _batch_rounds, _rounds
from .graphs import Graph, components, connected_columns, meets_connected, vertices_of

DEFAULT_BUDGET = 10**8
# sets per bit-sliced kernel call in the level stream
_LEVEL_WIDTH = 65536
# graphs whose widest level is this small climb, since the greedy bound and
# probes cost more there
_CLIMB_LEVEL = 20


class BudgetExceeded(RuntimeError):
    """The closure-evaluation budget ran out before an exact answer.

    ``best_known`` is the lower bound that the search's meter held then:
    the level k reached, as ``z_lower_bound`` or ``z_c_lower_bound`` (Z
    bounds Z_c).  It is empty once Z_c is known, and at budget 0.
    """

    def __init__(self, message: str, closures: int, best_known: dict | None = None):
        super().__init__(message)
        self.closures = closures
        self.best_known = best_known or {}


class WrongSize(ValueError):
    """An enumeration was requested at a size other than the true minimum."""


class _Meter:
    """The one record of a budgeted search: the budget, the evaluations
    charged, the work under way and the lower bound shown so far."""

    __slots__ = ("limit", "used", "note", "bound")

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError(f"budget must be at least 0, got {budget}")
        self.limit = budget
        self.used = 0
        self.note = ""
        self.bound = {}

    def charge(self, count: int):
        """Charge ``count`` evaluations, as that many single charges would."""
        self.used += count
        if self.used > self.limit:
            self.used = self.limit
            raise BudgetExceeded(
                f"budget of {self.limit} closure evaluations exhausted ({self.note})",
                closures=self.limit,
                best_known=self.bound if self.limit else {},
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


def _pascal_row(m: int, r: int, width: int) -> tuple[int, ...]:
    """Bit-sliced first ``width`` r-subsets of range(m), lexicographic.

    Entry v has bit j set when vertex v lies in the j-th subset.  The
    subsets that take 0 come first, then those that skip it.  The r-subsets
    of range(s, n) are those of range(n - s) shifted by s, so one row serves
    every order n.  Rows of at most a quarter run are kept in one cache,
    wider rows in a second one that holds the last 4 of them.
    """
    if r == 0:
        return (0,) * m
    taking = comb(m - 1, r - 1)
    head = _row(m - 1, r - 1, width)
    first = (1 << min(taking, width)) - 1
    if taking >= width or m - 1 < r:
        return (first,) + head
    keep = (1 << width) - 1
    tail = _row(m - 1, r, width)
    return (first,) + tuple((h | t << taking) & keep for h, t in zip(head, tail))


_cached_row = lru_cache(maxsize=1024)(_pascal_row)
# a wide row holds up to n words of a run; a solve builds the same few again
# on every level it scans, and graphs of one order share them
_wide_row = lru_cache(maxsize=4)(_pascal_row)


def _row(m: int, r: int, width: int) -> tuple[int, ...]:
    """``_pascal_row``, from the cache for its width."""
    return (_cached_row if 4 * comb(m, r) <= width else _wide_row)(m, r, width)


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
    # the bits, lowest first, as text: ``bits & -bits`` would negate a
    # whole run's int for every set
    text = bin(bits)[:1:-1]
    j = text.find("1")
    while j >= 0:
        yield _unrank(n, run, j)
        j = text.find("1", j + 1)


def _run_columns(g: Graph, run, connected: bool) -> tuple[list[int], int]:
    """``(cols, ones)`` of one run of the level stream.

    Bit j of ``cols[v]`` says v lies in the run's j-th set.  ``ones`` holds
    the sets the stream keeps: all of them, or with ``connected`` those
    connected in components.  Bits of ``cols`` outside ``ones`` are
    meaningless; the kernels ignore them.
    """
    prefix, s, r, count = run
    ones = (1 << count) - 1
    cols = [0] * s + list(_row(g.n - s, r, _LEVEL_WIDTH))
    for v in vertices_of(prefix):
        cols[v] = ones
    if connected:
        ones = connected_columns(*g.shape, cols, ones)
    return cols, ones


def _level_stream(g: Graph, k: int, connected: bool = False, closed=None):
    """Yield ``(run, ones, done)`` for each run of level k, in stream order.

    ``ones`` holds the run's sets in the stream (see ``_run_columns``);
    ``done`` is the per-round finished bitmap of the run's kept sets: bit j
    of ``done[t]`` says the run's j-th set forces g in exactly t rounds.
    ``closed`` maps the runs of level k that hold a zero forcing set to
    their ``done`` over all k-sets.  With it the stream closes nothing and
    restricts those bitmaps to ``ones``: every column of the kernel evolves
    on its own, so a set's rounds do not depend on the other sets of its run.
    """
    for run in _level_runs(g.n, k, _LEVEL_WIDTH):
        cols, ones = _run_columns(g, run, connected)
        if closed is not None:
            done = _restrict(closed.get(run, (0,)), ones)
        else:
            done = _batch_rounds(g.shape[0], cols, ones) if ones else [0]
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
    return (bits ^ (bits - 1)).bit_length() - 1


def _joined(parts) -> int:
    """One bitmap from ``(bits, width)`` parts, the first part lowest.  Parts
    are joined in pairs, so each bit moves about log2(len(parts)) times
    rather than once per part after it."""
    while len(parts) > 1:
        odd = parts[-1:] if len(parts) % 2 else []
        pairs = iter(parts)
        parts = [(a | b << w, w + v) for (a, w), (b, v) in zip(pairs, pairs)] + odd
    return parts[0][0] if parts else 0


def _survivors(n: int, k: int, hits: int):
    """The k-subsets of range(n) whose every one-vertex extension is a hit,
    as masks in stream order; bit i of ``hits`` marks the i-th (k + 1)-subset.

    The walk splits on one vertex s at a time.  A node holds the r-subsets
    of range(s, n) joined with a prefix: ``alive`` marks those whose
    extensions by the vertices below s are all hits, and ``above`` marks
    the hits among the (r + 1)-subsets of range(s, n) joined with the same
    prefix.  Both list the sets that take s first.  A set that skips s
    extends by s to the set at its own position among the take-s hits.
    """

    def walk(s, prefix, r, alive, above):
        if r == n - s:
            yield prefix | (1 << n) - (1 << s)
        elif not r:
            if above == (1 << n - s) - 1:
                yield prefix
        else:
            take, take_above = comb(n - s - 1, r - 1), comb(n - s - 1, r)
            low = (1 << take_above) - 1
            taking = alive & (1 << take) - 1
            if taking:
                yield from walk(s + 1, prefix | 1 << s, r - 1, taking, above & low)
            skipping = alive >> take & above & low
            if skipping:
                yield from walk(s + 1, prefix, r, skipping, above >> take_above)

    return walk(0, 0, k, (1 << comb(n, k)) - 1, hits)


def _drained_minimum(g: Graph, k: int):
    """Level k's closed ``_level_stream``, to replay, if level k - 1 holds
    no zero forcing set, else None.

    A (k - 1)-set that forces makes each of its extensions force, so only
    the ``_survivors`` of level k's hits can; each is closed on its own.
    The replay rebuilds ``ones``, all of a run's sets, from its count.
    """
    drained = [(run, done) for run, _, done in _level_stream(g, k)]
    hits = _joined([(_hits(done), run[3]) for run, done in drained])
    if any(_rounds(g.adj, g.full_mask, m)[0] == g.full_mask for m in _survivors(g.n, k - 1, hits)):
        return None
    return ((run, (1 << run[3]) - 1, done) for run, done in drained)


def connected_in_components_sets(g: Graph, k: int) -> list[int]:
    """Size-k sets connected in components, sorted by vertex tuple.

    A set qualifies when its intersection with every component it meets
    induces a connected subgraph; components it misses do not veto.
    """
    if not 1 <= k <= g.n:
        return []
    return [
        m
        for run in _level_runs(g.n, k, _LEVEL_WIDTH)
        for m in _unrank_bits(g.n, run, _run_columns(g, run, True)[1])
    ]


def _zfs_lower_bound(g: Graph) -> int:
    return max(1, min(g.degree(v) for v in range(g.n)))


def _greedy_set(g: Graph, connected: bool) -> int:
    """A (connected) zero forcing set: the smaller of the sets left by
    deleting vertices from V, in descending id and then in descending
    degree order, while the set still forces and, with ``connected``, stays
    connected in components.  Without ``connected`` it is inclusion-minimal,
    since every superset of a zero forcing set forces."""
    n, adj, full, comps = g.n, g.adj, g.full_mask, components(g)
    best = full
    for order in (range(n - 1, -1, -1), sorted(range(n), key=g.degree, reverse=True)):
        kept = full
        for v in order:
            m = kept ^ 1 << v
            if (not connected or meets_connected(g, comps, m)) and _rounds(adj, full, m)[0] == full:
                kept = m
        if kept.bit_count() < best.bit_count():
            best = kept
    return best


def _probe(g: Graph, k: int, connected: bool):
    """Level k's ``_level_stream`` if the level holds a (connected) zero
    forcing set, else None.  The runs through the first hit are closed
    here and replayed first; the rest of the stream is still open."""
    stream = _level_stream(g, k, connected)
    closed = []
    for item in stream:
        closed.append(item)
        if item[2][-1]:
            return chain(closed, stream)
    return None


def _start_level(g: Graph, meter: _Meter, start: int, connected: bool, drain: bool = False):
    """``(k, exact, stream)``: the level that a search from the lower bound
    ``start`` begins at, whether it is the minimum, and the stream of level
    k that the step left (see ``_probe`` and ``_drained_minimum``), or None.
    Under the covering rule (see the module docstring) it descends from the
    greedy bound and charges the C(n, j) sets of each level j below the
    minimum, as a climbing all-sets search does (a connected one charges
    fewer); else it returns ``(start, False, None)`` and charges nothing.
    With ``drain``, the caller drains level k, and an all-sets search first
    tries to prove the greedy bound minimum from that level's own hits.
    """
    n = g.n
    if comb(n, n // 2) <= _CLIMB_LEVEL:
        return start, False, None
    top = _greedy_set(g, connected).bit_count()
    covering = sum(comb(n, j) for j in range(start, top + 1))
    left = meter.limit - meter.used
    if covering > left:
        return start, False, None
    # a failed proof wastes the drain of level top, so the budget must
    # cover it on top of the descent
    if drain and not connected and top > start and covering + comb(n, top) <= left:
        stream = _drained_minimum(g, top)
        if stream is not None:
            meter.charge(covering - comb(n, top))
            return top, True, stream
    k, stream = top, None
    while k > start and (probe := _probe(g, k - 1, connected)):
        k, stream = k - 1, probe
    meter.charge(sum(comb(n, j) for j in range(start, k)))
    return k, True, stream


def _min_size(g: Graph, budget: int, connected: bool, start: int) -> int:
    """Smallest level from ``start`` on holding a (connected) zero forcing
    set.  It raises as ``_first_hit`` does; when the start-level step
    descends, no level is scanned for a witness."""
    meter = _Meter(budget)
    k, exact, _ = _start_level(g, meter, start, connected)
    return k if exact else next(_min_level(g, meter, k, connected))[0]


def _first_hit(g: Graph, budget: int, connected: bool, start: int) -> tuple[int, int]:
    """Smallest level from ``start`` on holding a (connected) zero forcing
    set, with the first such set in stream order.  Charged through the hit,
    as if climbing from ``start``; ``start`` must be at most that level."""
    meter = _Meter(budget)
    k, _, stream = _start_level(g, meter, start, connected)
    k, run, done = next(_min_level(g, meter, k, connected, stream))
    return k, _unrank(g.n, run, _lowest(_hits(done)))


def zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Smallest size of a zero forcing set, with its lexicographically
    least witness mask."""
    return _first_hit(g, budget, False, _zfs_lower_bound(g))


def connected_zero_forcing_number(g: Graph, budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """Smallest size of a connected zero forcing set, with the
    lexicographically least witness mask."""
    return _first_hit(g, budget, True, _zfs_lower_bound(g))


def _enumerate_min(g: Graph, k: int | None, budget: int, connected: bool):
    """Drain the minimum level now, charged one per set in stream order
    from the lower bound on; return an iterator over that level's hits."""
    meter = _Meter(budget)
    start, _, stream = _start_level(g, meter, _zfs_lower_bound(g), connected, drain=True)
    found = list(_min_level(g, meter, start, connected, stream))
    z = found[0][0]
    if k is not None and k != z:
        raise WrongSize(f"minimum {_PHASES[connected][0]} sets have size {z}, not {k}")
    return (m for _, run, done in found for m in _unrank_bits(g.n, run, _hits(done)))


def enumerate_min_zfs(g: Graph, k: int | None = None, budget: int = DEFAULT_BUDGET):
    """An iterator over every minimum zero forcing set, lexicographic order.

    ``k`` must equal the zero forcing number, WrongSize otherwise; None
    stands for it.  The budget is charged as for a drain of every level up
    to k, which runs at the call: BudgetExceeded and WrongSize raise there,
    before any set is yielded.
    """
    return _enumerate_min(g, k, budget, connected=False)


def enumerate_min_czfs(g: Graph, k: int | None = None, budget: int = DEFAULT_BUDGET):
    """An iterator over every minimum connected zero forcing set,
    lexicographic order; ``k``, the budget and the errors as for
    ``enumerate_min_zfs``."""
    return _enumerate_min(g, k, budget, connected=True)


def propagation_extrema(
    g: Graph, connected: bool = False, budget: int = DEFAULT_BUDGET
) -> tuple[tuple[int, int], tuple[int, int]]:
    """((min pt, witness), (max pt, witness)) over all minimum (connected)
    zero forcing sets; witnesses are the first attaining sets in stream order.

    Runs and charges the phases of ``solve_report`` up to the one asked for.
    """
    fields, witnesses = {}, {}
    _run_phases(g, _Meter(budget), connected, fields, witnesses)
    *_, (lo, hi), (_, wlo, whi) = _PHASES[connected]
    return (fields[lo], witnesses[wlo]), (fields[hi], witnesses[whi])


@dataclass(frozen=True)
class SolveReport:
    """All six parameters with witnesses, counts, and metering stats.

    Fields are None when a budget ran out before they were determined;
    ``lower_bounds`` is then the ``best_known`` of the ``BudgetExceeded``
    that stopped the search: the meter's lower bound on the first unknown
    value, by the same rule as every other entry point.
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
    lower_bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        # explicit checks, not asserts: they must also hold under python -O
        if self.z is not None and self.z_c is not None and not self.z <= self.z_c:
            raise ValueError(f"z = {self.z} exceeds z_c = {self.z_c}")
        for _, _, value, _, (lo, hi), _ in _PHASES:
            k, tmin, tmax = getattr(self, value), getattr(self, lo), getattr(self, hi)
            if tmin is not None and tmax is not None and not tmin <= tmax <= self.n - k:
                raise ValueError(
                    f"need {lo} <= {hi} <= n - {value}, got {tmin}, {tmax}, {self.n} - {k}"
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
            "witnesses": {key: wit(key) for key in ("z", "z_c", "pt", "PT", "pt_c", "PT_c")},
            "counts": {"min_zfs": self.min_zfs_count, "min_czfs": self.min_czfs_count},
            "budget": {
                "closures": self.closures,
                "exceeded": self.budget_exceeded,
                **self.lower_bounds,
            },
        }


def _min_level(g: Graph, meter: _Meter, start: int, connected: bool, stream=None):
    """Yield ``(k, run, done)`` for each run holding a (connected) zero
    forcing set, on the first level k from ``start`` on that has one.

    Charges one per set in the stream: a run's sets through its first hit
    before the run is yielded, the rest when the caller resumes.  Each
    level's k goes on the meter as a lower bound.  ``stream``, if given,
    is the ``_level_stream`` of level ``start``, some of it already closed.
    """
    name, key = _PHASES[connected][:2]
    for k in range(start, g.n + 1):
        meter.note, meter.bound = f"{name} sets of size {k}", {key: k}
        hit = False
        if stream is None:
            stream = _level_stream(g, k, connected)
        for run, ones, done in stream:
            if not done[-1]:
                meter.charge(ones.bit_count())
                continue
            hit = True
            through = ones & (2 << _lowest(_hits(done))) - 1
            meter.charge(through.bit_count())
            yield k, run, done
            meter.charge((ones ^ through).bit_count())
        if hit:
            return
        stream = None
    raise AssertionError("the full vertex set always forces")


def _level_summary(n: int, found):
    """``(count, witness, (pt, witness), (PT, witness))`` of a level's hits;
    every witness is the first attaining set in stream order."""
    count = 0
    tmin = tmax = None
    for _, run, done in found:
        count += _hits(done).bit_count()
        first = 0
        while not done[first]:
            first += 1
        if tmin is None or first < tmin:
            tmin, at_min = first, (run, done[first])
        if tmax is None or len(done) - 1 > tmax:
            tmax, at_max = len(done) - 1, (run, done[-1])
    _, run, done = found[0]
    return (
        count,
        _unrank(n, run, _lowest(_hits(done))),
        (tmin, _unrank(n, at_min[0], _lowest(at_min[1]))),
        (tmax, _unrank(n, at_max[0], _lowest(at_max[1]))),
    )


# per search kind, indexed by ``connected``: name, lower-bound key, value
# and count fields, pt fields, witness keys
_PHASES = (
    ("zero forcing", "z_lower_bound", "z", "min_zfs_count",
     ("pt_min", "pt_max"), ("z", "pt", "PT")),
    ("connected zero forcing", "z_c_lower_bound", "z_c", "min_czfs_count",
     ("ptc_min", "ptc_max"), ("z_c", "pt_c", "PT_c")),
)


def _run_phases(g: Graph, meter: _Meter, connected: bool, fields: dict, witnesses: dict):
    """Run the Z phase and then, with ``connected``, the connected phase
    (see ``_PHASES``), filling ``fields`` and ``witnesses`` as each value
    becomes known.  The Z phase starts at the start level from the
    min-degree bound; the connected phase climbs from the level where the
    Z phase stopped, since Z <= Z_c, charging every connected set it
    passes."""
    k, _, stream = _start_level(g, meter, _zfs_lower_bound(g), False, drain=True)
    for phase in (False, True)[: 1 + connected]:
        name, _, value, count_key, (lo, hi), (wk, wlo, whi) = _PHASES[phase]
        found = list(_min_level(g, meter, k, phase, stream))
        k = found[0][0]
        # the connected phase starts on the level that the Z phase has just
        # closed, and reuses its bitmaps
        stream = _level_stream(g, k, True, {run: done for _, run, done in found})
        count, witness, (tmin, wmin), (tmax, wmax) = _level_summary(g.n, found)
        fields[value], fields[count_key], witnesses[wk] = k, count, witness
        # pt of every minimum set came with its closure; charge one each.
        # Z <= Z_c again: the Z phase leaves Z as a lower bound on Z_c
        meter.note = f"propagation times of the minimum {name} sets"
        meter.bound = {} if phase else {_PHASES[True][1]: k}
        meter.charge(count)
        fields[lo], fields[hi] = tmin, tmax
        witnesses[wlo], witnesses[whi] = wmin, wmax


def solve_report(g: Graph, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Compute Z, Z_c, and all four propagation-time extrema with witnesses."""
    meter = _Meter(budget)
    fields = dict.fromkeys(
        ("z", "z_c", "pt_min", "pt_max", "ptc_min", "ptc_max", "min_zfs_count", "min_czfs_count")
    )
    witnesses = dict.fromkeys(("z", "z_c", "pt", "PT", "pt_c", "PT_c"))
    exceeded, lower_bounds = False, {}
    try:
        _run_phases(g, meter, True, fields, witnesses)
    except BudgetExceeded as exc:
        exceeded, lower_bounds = True, exc.best_known
    return SolveReport(
        n=g.n,
        m=g.edge_count(),
        witnesses=witnesses,
        closures=meter.used,
        budget_exceeded=exceeded,
        lower_bounds=lower_bounds,
        **fields,
    )
