"""The color-change rule: closures, propagation times and round traces.

A black vertex with exactly one white neighbor forces that neighbor black.
Two loops run the rule in simultaneous rounds: ``_rounds`` on one coloring
to its (unique) fixpoint, and ``_batch_rounds`` on many colorings at once,
bit-sliced.  Traces name each round's forcers from ``_rounds``' record of
the vertices it turned black, and ``replay_trace`` checks a trace against
that record.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, check_mask, is_connected_in_components, iter_vertices, mask_of


class NotForcing(ValueError):
    """The given set does not force the whole graph."""


def _rounds(adj, full: int, black: int, added=None) -> tuple[int, int]:
    """``(fixpoint, rounds)`` of simultaneous rounds from ``black``; the
    rounds are the propagation time when the fixpoint is ``full``.  A list
    ``added`` gets each round's mask of newly black vertices appended."""
    rounds = 0
    todo = black
    while black != full:
        add = near = 0
        while todo:
            ubit = todo & -todo
            todo ^= ubit
            white = adj[ubit.bit_length() - 1] & ~black
            if white and not white & (white - 1):
                add |= white
                near |= adj[white.bit_length() - 1]
        if not add:
            break
        black |= add
        rounds += 1
        if added is not None:
            added.append(add)
        # only a vertex whose closed neighborhood just changed can force next
        todo = (add | near) & black
    return black, rounds


def _batch_rounds(nbrs, cols: list[int], ones: int) -> list[int]:
    """Simultaneous rounds on many colorings at once (bit-sliced).

    ``nbrs[v]`` lists the neighbors of v; bit j of ``cols[v]`` says v is
    black in coloring j, for the colorings j whose bits are set in ``ones``.
    Returns ``done`` where ``done[t]`` holds the colorings that turn all
    black after exactly t rounds; a coloring in no entry gets stuck.  The
    list stops at its last nonempty entry, so ``done[-1]`` is nonzero iff
    some coloring forces.  Bits of ``cols`` outside ``ones`` are ignored.
    """
    # cols is kept beside white, and no operand is ever negated: on a wide
    # run, pending & ~white[u] costs about ten times cols[u] & pending
    cols = [c & ones for c in cols]
    white = [ones ^ c for c in cols]
    verts = range(len(cols))
    pending = 0
    for w in white:
        pending |= w
    done = [ones ^ pending]
    force = [0] * len(cols)
    while pending:
        # force[u]: the colorings where u is black with exactly one white
        # neighbor, by a saturating count (at least one, at least two)
        for u in verts:
            bu = cols[u] & pending
            if bu:
                one = two = 0
                for w in nbrs[u]:
                    x = white[w]
                    two |= one & x
                    one |= x
                # two is within one, so this is one & ~two
                bu &= one ^ two
            force[u] = bu
        # a white vertex turns black where a neighbor forces: it is that
        # neighbor's one white neighbor
        moved = still = 0
        for v in verts:
            w = white[v]
            if w:
                pull = 0
                for u in nbrs[v]:
                    pull |= force[u]
                pull &= w
                if pull:
                    w ^= pull
                    white[v] = w
                    cols[v] |= pull
                    moved |= pull
                still |= w
        done.append(pending ^ (pending & still))
        # a coloring that gained nothing this round is at its fixpoint
        pending = still & moved
    while len(done) > 1 and not done[-1]:
        done.pop()
    return done


def derived_coloring(g: Graph, black: int) -> int:
    """The unique fixpoint der(B) reached from the mask ``black``."""
    check_mask(g, black)
    return _rounds(g.adj, g.full_mask, black)[0]


def is_zfs(g: Graph, black: int) -> bool:
    """True iff ``black`` is a zero forcing set of g."""
    check_mask(g, black)
    return _rounds(g.adj, g.full_mask, black)[0] == g.full_mask


def is_czfs(g: Graph, black: int) -> bool:
    """True iff ``black`` is a zero forcing set that is connected in components."""
    # is_zfs checks the mask, and is_zfs(g, 0) is False: the empty set stops there
    return is_zfs(g, black) and is_connected_in_components(g, black)


@dataclass(frozen=True)
class ForcingTrace:
    """Round-structured record of a forcing run.

    ``rounds[t]`` holds the forces applied in round t+1, each a
    (forcer, forced) pair, sorted by forced vertex; when several black
    vertices could force the same vertex the smallest forcer id is kept.
    ``pt`` is the round count when ``final`` covers the graph, else None.
    """

    initial: int
    rounds: tuple[tuple[tuple[int, int], ...], ...]
    final: int
    pt: int | None

    def forced_masks(self) -> list[int]:
        """Mask of newly forced vertices per round."""
        return [mask_of(v for _, v in rnd) for rnd in self.rounds]

    def to_json_dict(self) -> dict:
        return {
            "initial": list(iter_vertices(self.initial)),
            "rounds": [
                [{"forcer": u, "forced": v} for u, v in rnd] for rnd in self.rounds
            ],
            "final": list(iter_vertices(self.final)),
            "pt": self.pt,
        }


def propagation_trace(g: Graph, black: int) -> ForcingTrace:
    """Simultaneous-round propagation from ``black`` until fixpoint."""
    check_mask(g, black)
    adj = g.adj
    initial = black
    added: list[int] = []
    final = _rounds(adj, g.full_mask, black, added)[0]
    rounds = []
    for add in added:
        rnd = []
        for v in iter_vertices(add):
            # the smallest black neighbor whose one white neighbor is v
            u = next(u for u in iter_vertices(adj[v] & black) if adj[u] & ~black == 1 << v)
            rnd.append((u, v))
        rounds.append(tuple(rnd))
        black |= add
    pt = len(rounds) if final == g.full_mask else None
    return ForcingTrace(initial, tuple(rounds), final, pt)


def propagation_time(g: Graph, black: int) -> int:
    """Rounds needed for the zero forcing set ``black`` to cover g."""
    check_mask(g, black)
    black, rounds = _rounds(g.adj, g.full_mask, black)
    if black != g.full_mask:
        raise NotForcing("the set does not force the whole graph")
    return rounds


def replay_trace(g: Graph, trace: ForcingTrace) -> bool:
    """Check a trace against the rounds ``_rounds`` runs from its initial
    set: as many rounds, each listing every vertex that round turns black
    once, each forced by a black vertex whose one white neighbor it is, and
    the run's ``final`` and ``pt``."""
    if trace.initial & ~g.full_mask:
        return False
    added: list[int] = []
    final, rounds = _rounds(g.adj, g.full_mask, trace.initial, added)
    pt = rounds if final == g.full_mask else None
    if (trace.final, trace.pt, len(trace.rounds)) != (final, pt, len(added)):
        return False
    black = trace.initial
    for rnd, add in zip(trace.rounds, added):
        if sorted(v for _, v in rnd) != list(iter_vertices(add)):
            return False
        for u, v in rnd:
            if not (0 <= u < g.n and black >> u & 1 and g.adj[u] & ~black == 1 << v):
                return False
        black |= add
    return True
