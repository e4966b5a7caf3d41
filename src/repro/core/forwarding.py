"""The forwarding kernel: one array pass over every node's routed hops.

A_ROUTING's per-round step is the same for every holder of a hop: look up
the swarm window of the hop's next point in the holder's neighbourhood, then
either pick ``r`` random members (mid-route) or multicast to the whole
window (final step), and test final deliveries against the holder's own
position and window rank.  Only two things are order-bound per node — the
``rng`` draws for the picks and the ``_deliver`` calls that touch node
state — everything else is arithmetic over ``(receiver, row)`` pairs.

:class:`HopPlan` does that arithmetic for a *band* of nodes at once:

* per **logical hop** (one plane row, shared by all its receivers): the
  classification columns of :func:`hop_columns` and the ring arithmetic of
  the window — ``lo``, ``hi``, ``wrapped`` and, for each live epoch slab, the
  two ``searchsorted`` bounds against the slab (:func:`_slab_bounds`), all
  memoised on ``HopDelivery.cache`` for the round;
* per **pair**: a node's own window bounds are its neighbourhood's
  *membership prefix counts* at the slab bounds (:func:`prefix_counts`) —
  exact, because an interned index is a position-sorted subset of its epoch
  slab.  An index with no live slab (a private ``PositionIndex``, or a
  bootstrap neighbourhood whose epoch was pruned) is searched directly;
* window sizes, the holder's rank in each final window, the "does this
  delivery touch the node" predicates, the filed ``lens`` and every
  final-multicast receiver copy.

What is left for the node (``MaintenanceNode._forward``) is to draw its
uniforms into a view of the plan's buffer, in row order around its delivery
events, and to file views of the plan's columns; :meth:`HopPlan.close` then
turns all the band's uniforms into picks in one pass.

Launches take the same route in: a node records each request it launches as
a :class:`Launch`, and :func:`launch_chunks` turns a band's pending launches
into plane rows — one :func:`~repro.overlay.trajectory.trajectories` pass —
and into each launcher's initial-multicast chunk.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.messages import JoinRecord
from repro.overlay.positions import PositionIndex
from repro.overlay.trajectory import trajectories
from repro.routing.messages import JOIN as JOIN_CLASS
from repro.routing.messages import RANKED, RECORD, RoutedMessage, classify_payload, launch_key
from repro.sim.hopplane import HopDelivery, HopRows

__all__ = [
    "HopPlan",
    "Launch",
    "NodePlan",
    "hop_columns",
    "ids32",
    "launch_chunks",
    "membership",
    "prefix_counts",
    "slot_of_id",
]

#: Row kinds of :func:`hop_columns`.
SKIP, JOIN, FINAL, MID = 0, 1, 2, 3

#: One holder's share of a plan: ``(join_recs, events, u, rows, lens, flat)``
#: — arrived join records, ``(row, draws due before it)`` delivery events,
#: the uniforms to draw, and the three columns to file.
NodePlan = tuple[
    list[JoinRecord], list[tuple[int, int]], np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


def hop_columns(delivery: HopDelivery, even: bool, intern: Callable) -> tuple:
    """Per-row classification, once per round for the whole network.

    Returns ``(kind, point, fincls, srank, out_row, recs)``: the row kind
    (``SKIP`` / ``JOIN`` / ``FINAL`` / ``MID``), the centre of the window the
    row is sent into (next trajectory point, handover point, or target), the
    delivery class of finals — the payload class, a join counting as
    ``RECORD`` (see :mod:`repro.routing.messages`) — and the sample rank of
    ``RANKED`` finals (``-1`` elsewhere), the interned plane row the hop is
    forwarded as (``-1``: not forwarded), and the join record an arrived
    JOIN carries.

    Even rounds advance a hop one step: the step before the last is a
    ``FINAL`` (multicast to the target swarm) or, for a JOIN, the arrival
    that is rebroadcast instead.  Odd rounds hand a hop over at its current
    step; a hop at its last step is a ``FINAL`` that is delivered, not
    forwarded.  ``intern`` is :meth:`NodeContext.intern_hops`.  Array
    arithmetic on the message table's ``(step, final step, class)``
    columns; only the arrived join records are read off their messages.
    """
    cols = delivery.cache.get("cols")
    if cols is not None:
        return cols  # type: ignore[return-value]
    table = delivery.table
    steps, fsteps, cls = table.steps, table.fsteps, table.cls
    count = steps.size
    kind = np.zeros(count, dtype=np.int8)
    if even:
        live = steps < fsteps  # defensive: deliveries happen at odd rounds
        steps = steps + 1
        arrived = live & (steps == fsteps)
        joins = arrived & (cls == JOIN_CLASS)
        kind[live & ~arrived] = MID
        kind[arrived & ~joins] = FINAL
        kind[joins] = JOIN
    else:
        kind[:] = np.where(steps < fsteps, MID, FINAL)
    final = kind == FINAL
    mid = np.flatnonzero(kind == MID)
    point = np.where(final, table.target, 0.0)
    point[mid] = table.traj[mid, steps[mid]]
    fincls = np.where(final & (cls != JOIN_CLASS), cls, RECORD).astype(np.int8)
    srank = np.where(final & (cls == RANKED), table.srank, -1).astype(np.int32)
    recs: list[JoinRecord | None] = [None] * count
    msgs = table.msgs
    for row in np.flatnonzero(kind == JOIN).tolist():
        recs[row] = msgs[row].payload[1]
    forwarded = np.flatnonzero(kind >= FINAL if even else kind == MID)
    out_row = intern(table, forwarded, steps[forwarded])
    cols = delivery.cache["cols"] = (kind, point, fincls, srank, out_row, recs)
    return cols


def ids32(index: PositionIndex) -> np.ndarray:
    """``index.ids`` as ``int32`` (the dtype of every filed receiver column),
    converted once per index."""
    sc = index.scratch
    ids = sc.get("ids32")
    if ids is None:
        ids = sc["ids32"] = index.ids.astype(np.int32)
    return ids  # type: ignore[return-value]


def _ring_columns(cache: dict, point: np.ndarray, rho: float) -> tuple:
    """``(lo, hi, wrapped)`` of every row's window, once per logical hop."""
    ring = cache.get("ring")
    if ring is None:
        ring = cache["ring"] = PositionIndex.arcs_many(point, rho)
    return ring  # type: ignore[return-value]


def _slab_bounds(cache: dict, slab: PositionIndex, lo: np.ndarray, hi: np.ndarray):
    """Every row's ``searchsorted`` bounds against one epoch slab."""
    per_slab: dict = cache.setdefault("slab_bounds", {})  # type: ignore[assignment]
    bounds = per_slab.get(slab)
    if bounds is None:
        pos = slab.sorted_positions
        bounds = per_slab[slab] = (
            pos.searchsorted(lo, "left").astype(np.int32),
            pos.searchsorted(hi, "right").astype(np.int32),
        )
    return bounds


def slot_of_id(slab: PositionIndex) -> np.ndarray:
    """Id -> slot of ``slab`` as an array (``-1``: not a member), built once
    per slab; ids above the largest member are not members either."""
    sc = slab.scratch
    slot_of = sc.get("slot_of_id")
    if slot_of is None:
        ids = slab.ids
        slot_of = np.full(int(ids.max()) + 1 if ids.size else 0, -1, dtype=np.int32)
        slot_of[ids] = np.arange(ids.size, dtype=np.int32)
        sc["slot_of_id"] = slot_of
    return slot_of  # type: ignore[return-value]


def membership(slab: PositionIndex, indexes: Sequence[PositionIndex]) -> np.ndarray:
    """Row ``g``, column ``k``: whether slab slot ``k`` is a member of
    ``indexes[g]`` (each a subset of ``slab``)."""
    member = np.zeros((len(indexes), len(slab)), dtype=bool)
    group = np.repeat(np.arange(len(indexes)), [len(ix) for ix in indexes])
    member[group, slot_of_id(slab)[np.concatenate([ids32(ix) for ix in indexes])]] = True
    return member


def prefix_counts(slab: PositionIndex, indexes: Sequence[PositionIndex]) -> np.ndarray:
    """Membership prefix counts of ``indexes`` over the slab they are subsets of.

    Row ``g``, column ``k``: how many members of ``indexes[g]`` sit in the
    slab's first ``k`` slots.  A ``searchsorted`` bound ``k`` against the
    slab therefore maps to the bound ``cnt[g, k]`` against the subset: both
    count the positions below the same threshold, and the subset's
    positions are the slab's at the member slots.
    """
    cnt = np.zeros((len(indexes), len(slab) + 1), dtype=np.int32)
    np.cumsum(membership(slab, indexes), axis=1, dtype=np.int32, out=cnt[:, 1:])
    return cnt


def _window_bounds(
    cache: dict,
    lo: np.ndarray,
    hi: np.ndarray,
    indexes: Sequence[PositionIndex],
    reference: Callable[[PositionIndex], PositionIndex | None],
    pg: np.ndarray,
    arow: np.ndarray,
    aoff: np.ndarray,
    node_groups: Sequence[tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray]:
    """``searchsorted`` bounds ``(a, b)`` of every pair's window in its group.

    ``pg`` / ``arow`` give each pair's group (an ordinal into ``indexes``)
    and row; node ``i`` owns pairs ``aoff[i]:aoff[i + 1]``, which belong to
    the groups ``node_groups[i]``.  Groups carved from a live slab share
    that slab's per-row bounds, mapped through their prefix counts in one
    gather per side; a group without one is searched directly, on its own
    nodes' rows.
    """
    by_slab: dict[PositionIndex, list[int]] = {}
    own = np.zeros(len(indexes), dtype=bool)
    for g, ix in enumerate(indexes):
        slab = reference(ix)
        if slab is None:
            own[g] = True
        else:
            by_slab.setdefault(slab, []).append(g)
    if by_slab:
        # Each group's prefix-count row and each slab's bounds, laid end to
        # end (own groups alias row 0 and are overwritten below).
        cnt_at = np.zeros(len(indexes), dtype=np.intp)
        slab_at = np.zeros(len(indexes), dtype=np.intp)
        cnts, los, his = [], [], []
        filled = 0
        for k, (slab, members) in enumerate(by_slab.items()):
            lo_s, hi_s = _slab_bounds(cache, slab, lo, hi)
            los.append(lo_s)
            his.append(hi_s)
            cnt = prefix_counts(slab, [indexes[g] for g in members])
            cnt_at[members] = filled + np.arange(len(members)) * cnt.shape[1]
            slab_at[members] = k * lo.size
            cnts.append(cnt.ravel())
            filled += cnt.size
        at = cnt_at[pg]
        if len(cnts) == 1:
            a = cnts[0][at + los[0][arow]]
            b = cnts[0][at + his[0][arow]]
        else:
            cnt = np.concatenate(cnts)
            row_at = slab_at[pg] + arow
            a = cnt[at + np.concatenate(los)[row_at]]
            b = cnt[at + np.concatenate(his)[row_at]]
    else:
        a = np.empty(pg.size, dtype=np.int32)
        b = np.empty(pg.size, dtype=np.int32)
    if own.any():
        for i, mine in enumerate(node_groups):
            for g in mine:
                if own[g]:
                    start, stop = int(aoff[i]), int(aoff[i + 1])
                    sel = start + np.flatnonzero(pg[start:stop] == g)
                    pos = indexes[g].sorted_positions
                    a[sel] = pos.searchsorted(lo[arow[sel]], "left")
                    b[sel] = pos.searchsorted(hi[arow[sel]], "right")
    return a, b


class HopPlan:
    """Everything rng-free about one band of nodes' forwarding step.

    ``entries`` holds one ``(hops, mid_index, fin_index, node_id, pos)`` per
    holder, in node order: its row array in arrival order, the index mid
    rows pick from, the index finals are ranked (and, on even rounds,
    multicast) in, and the holder's id and ring position.  ``reference``
    maps an index to the live epoch slab it was carved from, if any
    (:meth:`EpochCache.reference`).  Holder ``i`` acts on ``nodes[i]`` (a
    :data:`NodePlan`); :meth:`close` must run once every holder has drawn.
    """

    __slots__ = ("nodes", "_picks")

    def __init__(
        self,
        delivery: HopDelivery,
        entries: Sequence[tuple],
        *,
        even: bool,
        rho: float,
        r: int,
        intern: Callable,
        reference: Callable[[PositionIndex], PositionIndex | None],
    ) -> None:
        kind, point, fincls, srank, out_row, recs = hop_columns(delivery, even, intern)
        count = len(entries)
        nodes = np.arange(count, dtype=np.int32)
        prow = np.concatenate([entry[0] for entry in entries])
        poff = np.zeros(count + 1, dtype=np.intp)
        np.cumsum([entry[0].size for entry in entries], out=poff[1:])
        kr = kind[prow]

        # Arrived joins (even rounds), per node in arrival order.
        join_recs: list[JoinRecord] = []
        joff = [0] * (count + 1)
        if even:
            jsel = np.flatnonzero(kr == JOIN)
            if jsel.size:
                join_recs = [recs[row] for row in prow[jsel].tolist()]
                joff = np.searchsorted(jsel, poff).tolist()

        # The pairs that do something: finals and mid-route rows.  Every
        # per-node slice below is a ``searchsorted`` of ascending pair
        # positions against the node offsets ``aoff``.
        act = np.flatnonzero(kr >= FINAL)
        arow = prow[act]
        fin = kr[act] == FINAL
        aoff = np.searchsorted(act, poff)
        anode = np.repeat(nodes, np.diff(aoff))
        del prow, kr

        # One group per distinct index; a pair's group is its node's mid or
        # final index.  ``ring`` holds each group's ids twice over, so a
        # window that wraps past the last slot reads on without a modulo.
        groups: dict[PositionIndex, int] = {}
        gmid = [groups.setdefault(e[1], len(groups)) for e in entries]
        gfin = [groups.setdefault(e[2], len(groups)) for e in entries]
        indexes = list(groups)
        gsize = np.array([len(ix) for ix in indexes], dtype=np.int32)
        base = np.zeros(len(indexes), dtype=np.int32)
        np.cumsum(2 * gsize[:-1], out=base[1:])
        ring = np.concatenate([ids32(ix) for ix in indexes for _ in (0, 1)])
        pg = np.array(gmid, dtype=np.int32)[anode]
        if gmid != gfin:
            pg = np.where(fin, np.array(gfin, dtype=np.int32)[anode], pg)
        n_of = gsize[pg]

        # Window start and size of every pair, in its group's ring slots.
        if rho >= 0.5:  # every window is the full ring
            a = np.zeros(act.size, dtype=np.int32)
            size = n_of
            wrapped = None
        else:
            lo, hi, wrapped_row = _ring_columns(delivery.cache, point, rho)
            a, b = _window_bounds(
                delivery.cache, lo, hi, indexes, reference, pg, arow, aoff,
                [(gm,) if gm == gf else (gm, gf) for gm, gf in zip(gmid, gfin)],
            )
            wrapped = wrapped_row[arow]
            size = np.where(wrapped, n_of - a + b, b - a)

        # Finals: the holder's rank in the window (-1 outside it), and
        # whether the delivery can touch the holder at all — a record-class
        # row always does, a rank-tested token only at the matching rank,
        # and on even rounds neither unless the holder sits in the target
        # swarm.  Both predicates are rng-free and bit-identical to the
        # scalar checks inside ``_deliver``.
        fi = np.flatnonzero(fin)
        frow = arow[fi]
        fnode = anode[fi]
        slot = np.array(
            [e[2].slot_map.get(e[3], -1) for e in entries], dtype=np.int32
        )[fnode]
        if wrapped is None:
            rank = slot
        else:
            a_f = a[fi]
            b_f = b[fi]
            low = slot < a_f
            inside = np.where(wrapped[fi], ~low | (slot < b_f), ~low & (slot < b_f))
            rank = slot - a_f
            rank[low] += n_of[fi][low]
            rank[~inside | (slot < 0)] = -1
        fc = fincls[frow]
        hit = fc == 0
        ranked = fc == 1
        if ranked.any():
            hit |= ranked & (rank == srank[frow])
        if even:
            my_pos = np.array(
                [np.nan if e[4] is None else e[4] for e in entries], dtype=np.float64
            )
            gap = np.abs(my_pos[fnode] - point[frow])
            hit &= np.minimum(gap, 1.0 - gap) <= rho

        # Mid rows with a non-empty window draw ``r`` uniforms each; an
        # event's draws-due count is what its node draws before it.
        mi = np.flatnonzero(~fin & (size > 0))
        moff = r * np.searchsorted(mi, aoff)
        ev = fi[hit]
        ev_rows = arow[ev].tolist()
        ev_due = (r * np.searchsorted(mi, ev) - moff[anode[ev]]).tolist()
        eoff = np.searchsorted(ev, aoff).tolist()

        # Filing columns.  A mid row sends its ``r`` picks; an even final
        # multicasts its window — ``size`` ring-consecutive members from
        # ``a`` — minus the holder, whose rank is known.  Rows with nobody
        # to send to are not filed.
        lens = np.zeros(act.size, dtype=np.int32)
        lens[mi] = r
        if even:
            lens[fi] = size[fi] - (rank >= 0)
        ends = np.zeros(act.size + 1, dtype=np.intp)
        np.cumsum(lens, out=ends[1:])
        flat = np.empty(int(ends[-1]), dtype=np.int32)
        sent = np.flatnonzero(lens)
        rows_out = out_row[arow[sent]]
        lens_out = lens[sent]
        soff = np.searchsorted(sent, aoff).tolist()
        foff = ends[aoff].tolist()
        first = a + base[pg]  # ring slot of each window's first member
        if even and fi.size:
            flen = lens[fi]
            begin = np.zeros(fi.size, dtype=np.intp)
            np.cumsum(flen[:-1], out=begin[1:])
            of = np.repeat(np.arange(fi.size, dtype=np.int32), flen)
            copy = np.arange(of.size, dtype=np.intp)
            # Copy ``c`` of a final reads ring slot ``first + c``, one
            # further from the holder's rank on (``size``: never).
            bump = copy >= (begin + np.where(rank >= 0, rank, size[fi]))[of]
            flat[copy + (ends[fi] - begin)[of]] = ring[
                (copy + bump) + (first[fi] - begin)[of]
            ]

        u = np.empty(int(moff[-1]), dtype=np.float64)
        moff_l = moff.tolist()
        self.nodes: list[NodePlan] = []
        for i in range(count):
            events = (
                list(zip(ev_rows[eoff[i]:eoff[i + 1]], ev_due[eoff[i]:eoff[i + 1]]))
                if eoff[i + 1] > eoff[i]
                else []
            )
            self.nodes.append(
                (
                    join_recs[joff[i]:joff[i + 1]],
                    events,
                    u[moff_l[i]:moff_l[i + 1]],
                    rows_out[soff[i]:soff[i + 1]],
                    lens_out[soff[i]:soff[i + 1]],
                    flat[foff[i]:foff[i + 1]],
                )
            )
        self._picks = (u, first[mi], size[mi], ends[mi], ring, flat, r)

    def close(self) -> None:
        """Turn the drawn uniforms into picks, written into the filed ``flat``.

        Pick ``k`` of a mid row is ``window[floor(u * size)]`` — the same
        arithmetic, on the same uniforms, whichever node drew them.
        """
        u, first, size, start, ring, flat, r = self._picks
        if u.size:
            pick = np.repeat(first, r) + (u * np.repeat(size, r)).astype(np.int32)
            flat[(start[:, None] + np.arange(r)).ravel()] = ring[pick]


class Launch(NamedTuple):
    """One routed request its origin has launched (an even round) and not
    yet multicast: what :func:`launch_chunks` builds its message from."""

    msg_id: object
    start_round: int
    #: The origin's launch ordinal in ``start_round`` (its launch key field).
    ordinal: int
    #: The origin's position at launch: the trajectory starts there.
    origin_pos: float
    target: float
    sample_rank: int | None
    payload: object


def launch_chunks(
    launchers: Sequence[tuple],
    *,
    step: int,
    lam: int,
    rho: float,
    append: Callable[[HopRows], int],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The initial multicasts of a band's pending launches.

    ``launchers`` holds one ``(origin id, launches, hop index)`` per node in
    node order.  One :func:`trajectories` pass materialises every launch as
    a :class:`RoutedMessage` and a plane row at hop ``step`` (the initial
    multicast's, 0), handed to ``append`` (:meth:`NodeContext.append_hops`)
    as one block.  Returns each launcher's ``(rows, lens, flat)`` chunk: its
    rows in launch order, each multicast to the swarm window of ``x_0`` in
    the hop index minus the launcher itself; rows with nobody to send to
    are left out.  Launches start at their origin's position, so a node's
    window is computed once per run of equal ``x_0`` — once, unless a
    stalled round left launches of an earlier epoch pending.
    """
    origins = np.repeat(
        np.array([origin for origin, _, _ in launchers], dtype=np.int64),
        [len(pending) for _, pending, _ in launchers],
    )
    msg_ids, starts, ordinals, origin_pos, targets, sranks, payloads = zip(
        *(launch for _, pending, _ in launchers for launch in pending)
    )
    traj = trajectories(np.array(origin_pos), np.array(targets), lam)
    msgs = list(
        map(
            RoutedMessage,
            msg_ids,
            origins.tolist(),
            targets,
            map(tuple, traj.tolist()),
            starts,
            sranks,
            payloads,
            ordinals,
        )
    )
    base = append(
        HopRows(
            launch_key(np.array(starts), origins, np.array(ordinals)),
            np.full(len(msgs), step, dtype=np.int32),
            msgs,
            np.full(len(msgs), lam + 1, dtype=np.int32),
            np.array(list(map(classify_payload, payloads, sranks)), dtype=np.int8),
            np.array([-1 if s is None else s for s in sranks], dtype=np.int32),
            np.array(targets, dtype=np.float64),
            traj,
        )
    )
    chunks = []
    x0s = traj[:, 0].tolist()
    lo = 0
    for origin, pending, index in launchers:
        lens: list[int] = []
        flat: list[np.ndarray] = []
        for x0, run in groupby(x0s[lo : lo + len(pending)]):
            count = sum(1 for _ in run)
            window = index.ids_within(x0, rho)
            window = window[window != origin].astype(np.int32)
            lens += [window.size] * count
            flat.append(np.tile(window, count))
        lens_a = np.array(lens, dtype=np.int32)
        sent = np.flatnonzero(lens_a)
        rows = (base + lo + sent).astype(np.int32)
        chunks.append((rows, lens_a[sent], np.concatenate(flat)))
        lo += len(pending)
    return chunks
