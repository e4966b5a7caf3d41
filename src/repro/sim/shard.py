"""Sharded multi-process round engine over shared-memory exchange slabs.

The synchronous engine's compute phase is embarrassingly parallel *by
construction*: every node draws from its own deterministic rng stream
(:meth:`repro.util.rngs.RngService.node_stream`), reads only its own inbox,
and publishes sends whose observable order is the global sorted-node-id
order.  This module exploits that: node ids are partitioned into ``W``
position bands, each owned by a persistent forked worker process, and every
round the master

1. runs the adversary and receive phases as usual (single-process),
2. encodes each worker's band payload — inboxes, shared hop columns, and
   the control scalars — into a shared-memory **downlink slab**
   (:mod:`repro.sim.exchange`), then sends only offsets and counts down
   the pipe,
3. lets workers run ``on_round`` for their nodes — in sorted id order, with
   the nodes' own rng streams, collecting sends into a local log — which
   each worker encodes into its region of a shared **uplink slab**,
4. splices the returned send logs back into the master network **in global
   sorted node-id order**, interning the workers' hop rows by launch key,
5. closes the send phase, traces, and records metrics exactly as before.

The pipes are a *control plane*: a round's control message and ack are a
few hundred bytes regardless of traffic.  Bulk bytes cross the boundary
exactly once, as shared-memory writes (``exchange_bytes_shm``), instead of
being pickled per worker per round (PR 7 moved ~16 MB/round through the
pipes at n=512, W=2; the counters on :class:`ShardRunner.stats` make the
reduction observable in ``repro profile --workers``).

Determinism argument (pinned by the workers∈{1,2,4} identity suite):

* **Ownership is static per node** — a node's protocol object and rng
  stream live in exactly one worker from spawn to death, so its state and
  randomness evolve exactly as in the single-process engine.
* **Send order** — the master network's two lanes (object columns, hop
  plane) are rebuilt by walking nodes in global sorted id order and
  replaying each node's sends in issue order; that equals the
  single-process order, because the single-process loop *is* "nodes in
  sorted id order, sends in issue order".
* **Message identity** — receiver-side dedup is by ``(launch key, step)``:
  the key rides every plane row as a column, so the master interns all
  workers' rows on it in one pass and the copies of one logical hop are
  again one plane row.  Frame encoding across the process boundary
  memoises by object identity and decodes with a per-offset memo
  (:mod:`repro.util.arena`), reproducing exactly the sharing structure a
  per-payload pickle memo gave PR 7; routed messages in the object lane are
  re-canonicalised by their ``msg_id`` (unique per logical request by
  construction).
* **Everything else is master-side** — churn, fault fates, delivery
  grouping, tracing, and metrics never left the master, so their rng and
  ordering are untouched.

Slab lifecycle: the master owns every segment (created through
:mod:`repro.util.arena`'s tracked registry and destroyed in a ``finally``
at :meth:`ShardRunner.close`, so a broken pipe during teardown cannot leak
``/dev/shm`` blocks).  When a downlink round outgrows the slab the master
allocates a doubled generation, re-encodes, and announces the new
``(gen, name)`` in the control message — workers re-attach on the gen
bump.  When a worker's uplink region overflows, that worker falls back to
the pipe for that one round (tagged, and honestly counted as pipe bytes)
and the master regrows the uplink slab before the next round's control.

Protocol objects cross the boundary only at explicit
:meth:`ShardRunner.sync_protocols` gather points (audits, fingerprints).
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import threading
import types
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.config import env_flag
from repro.routing.messages import RoutedMessage
from repro.sim import exchange
from repro.sim.hopplane import HopDelivery, HopPlane, HopRows
from repro.util import arena as shmseg
from repro.util.arena import ArenaFull, ByteArena, FrameDecoder, FrameEncoder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.engine import Engine

__all__ = ["band_of", "assign_bands", "ShardRunner"]


def _dumps(obj: object) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Runtime sanitizer (the dynamic sibling of `repro check --rules S`)
# ----------------------------------------------------------------------

#: ``REPRO_SHARD_SANITIZE=1`` arms band-ownership compute asserts and
#: pipe-payload codec asserts on every boundary crossing.  Read once at
#: import; tests monkeypatch the flag before the runner forks (workers
#: inherit the armed value through ``fork``).
_SANITIZE = env_flag("REPRO_SHARD_SANITIZE")

#: Types that must never cross the pipe: the S2 rule's banned set, checked
#: at runtime.  Locks have no public type, so sample one of each.
_BANNED_PAYLOAD_TYPES = (
    types.FunctionType,
    types.BuiltinFunctionType,
    types.GeneratorType,
    memoryview,
    type(threading.Lock()),
    type(threading.RLock()),
    type(threading.Condition()),
    type(threading.Event()),
)


def _assert_codec_safe(obj: object, _depth: int = 6) -> None:
    """Sanitizer: reject boundary-unsafe values before they hit the pipe.

    Containers are walked a few levels deep — enough to cover every real
    control/uplink payload shape (nested tuples of lists of messages)
    without turning the assert into a deep traversal of protocol state.
    """
    if isinstance(obj, _BANNED_PAYLOAD_TYPES):
        raise AssertionError(
            f"shard sanitizer: {type(obj).__name__} crossing the process "
            "boundary — pipe payloads must stay in the approved codec set "
            "(see shard-boundary-types in docs/ANALYSIS.md)"
        )
    if _depth <= 0:
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_codec_safe(k, _depth - 1)
            _assert_codec_safe(v, _depth - 1)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            _assert_codec_safe(v, _depth - 1)


def _assert_band_owned(engine: "Engine", band: int, ids: Iterable[int]) -> None:
    """Sanitizer: a worker computes only nodes whose position is in its band.

    Ownership is a pure function of the epoch-0 position hash (the same
    rule :func:`assign_bands` uses), so the check needs no master round
    trip and cannot itself drift.
    """
    workers = engine.workers
    h = engine.services.position_hash
    for v in ids:
        owner = band_of(h.position(v, 0), workers)
        if owner != band:
            raise AssertionError(
                f"shard sanitizer: worker {band} computing node "
                f"{v}, owned by band {owner} — bands never rebalance"
            )


def _worker_send(conn, obj: object) -> None:
    """Every worker→master pipe send funnels through here (codec assert)."""
    if _SANITIZE:
        _assert_codec_safe(obj)
    conn.send_bytes(_dumps(obj))


# ----------------------------------------------------------------------
# Band assignment
# ----------------------------------------------------------------------


def band_of(pos: float, workers: int) -> int:
    """The shard owning ring position ``pos``: uniform contiguous bands.

    Band ``k`` covers ``[k/W, (k+1)/W)``; the boundaries are fixed for the
    whole run, so ownership is a pure function of the position and never
    rebalances (rebalancing would move rng streams between processes).
    """
    k = int(pos * workers)
    return workers - 1 if k >= workers else k


def assign_bands(
    ids: Iterable[int], position_hash, workers: int
) -> dict[int, int]:
    """Shard id per node, from the epoch-0 position hash ``h(v, 0)``.

    ``h(v, 0)`` exists for every id (established or not), is uniform, and
    is known to every process, so joins can be assigned without
    coordination.
    """
    return {
        v: band_of(position_hash.position(v, 0), workers) for v in ids
    }


# ----------------------------------------------------------------------
# Worker-side send log
# ----------------------------------------------------------------------


class _SendLog:
    """Network-API-compatible collector for one worker's compute phase.

    Mirrors the master network's two lanes: object sends append to the
    ``(dsts, msgs)`` columns in issue order (the sender is whoever the next
    mark names), hop sends go through a local :class:`HopPlane`, so the
    forwarding passes intern rows and file their array chunks exactly as
    they do against the master network.  Per-node marks give the master the
    column / plane-send boundaries it needs to splice the global stream in
    sorted node-id order.
    """

    def __init__(self) -> None:
        self.dsts: list[int] = []
        self.msgs: list[object] = []
        self.marks: list[tuple[int, int, int]] = []  # (node, sends_hi, plane_hi)
        self.plane = HopPlane()

    # Network API used by NodeContext --------------------------------
    def send(self, src: int, dst: int, msg: object) -> None:
        self.dsts.append(int(dst))
        self.msgs.append(msg)

    def send_singles_batch(self, src: int, items: list) -> None:
        self.dsts.extend([dst for dst, _ in items])
        self.msgs.extend([msg for _, msg in items])

    def send_many(self, src: int, dsts, msg: object) -> None:
        self.send_singles_batch(src, [(int(dst), msg) for dst in dsts])

    def send_hops(self, src: int, msg: object, step: int, dsts) -> None:
        self.plane.send(src, msg, step, dsts)

    def file_hops(self, src: int, rows, lens, flat) -> None:
        self.plane.file(src, rows, lens, flat)  # the master counts the copies

    def mark(self, node: int) -> None:
        self.marks.append((node, len(self.dsts), self.plane.sends))


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

_GATHER_SKIP = ("_epoch_cache", "_d_index", "hash")


def _export_state(proto) -> dict:
    """A node's picklable attribute snapshot (cache refs and callables out)."""
    out = {}
    for k, v in proto.__dict__.items():
        if k in _GATHER_SKIP or callable(v):
            continue
        out[k] = v
    return out


def _worker_main(engine: "Engine", band: int, conn, down_shm, up_shm) -> None:
    """Persistent worker loop: owns one band of nodes, forked from master.

    The forked engine snapshot supplies protocols, rng streams, lifecycle
    and the epoch cache; from here on only the owned band's objects are
    touched, and the only channel back is the per-round uplink region
    (plus explicit gathers).  ``down_shm`` / ``up_shm`` are the inherited
    generation-0 slabs; the control message announces regrown generations,
    which the worker re-attaches by name.
    """
    from repro.sim.engine import NodeContext

    owned = {
        v
        for v, k in engine._shard_bands.items()
        if k == band and v in engine._protocols
    }
    # repro: allow(shard-master-state): fork-time snapshot read, before any
    # round — per-round join deltas arrive through the control message
    joined = {v: engine.lifecycle.joined_round(v) for v in owned}
    protocols = engine._protocols
    rngs = engine._rngs
    params = engine.params
    # Per-shard compute timing reuses the profiler's injectable clock (no
    # direct wall-clock reads here); an unprofiled run measures nothing.
    clock = engine.profiler.clock if engine.profiler is not None else None
    ordered = sorted(owned)
    down_gen = 0
    up_gen = 0
    while True:
        cmd, payload = pickle.loads(conn.recv_bytes())
        if cmd == "stop":
            _worker_send(conn, ("bye", None))
            shmseg.close_segment(down_shm)
            shmseg.close_segment(up_shm)
            return
        if cmd == "gather":
            _worker_send(
                conn, ("state", {v: _export_state(protocols[v]) for v in ordered})
            )
            continue
        # cmd == "round"
        (
            t,
            d_gen,
            d_name,
            shared_desc,
            band_desc,
            u_gen,
            u_name,
            u_band_bytes,
        ) = payload
        if d_gen != down_gen:
            shmseg.close_segment(down_shm)
            down_shm = shmseg.attach_segment(d_name)
            down_gen = d_gen
        if u_gen != up_gen:
            shmseg.close_segment(up_shm)
            up_shm = shmseg.attach_segment(u_name)
            up_gen = u_gen
        dec = FrameDecoder(down_shm.buf)
        shared = exchange.decode_downlink_shared(down_shm.buf, dec, shared_desc)
        control, inboxes, hop_rows = exchange.decode_downlink_band(
            down_shm.buf, dec, band_desc
        )
        leaves, joins, stalled_ids, calls = control
        stalled = set(stalled_ids)
        t0 = clock() if clock is not None else 0.0
        for v in leaves:
            owned.discard(v)
            joined.pop(v, None)
            protocols.pop(v, None)
            rngs.pop(v, None)
        for v, jr in joins:
            owned.add(v)
            joined[v] = jr
            protocols[v] = engine.protocol_factory(v, engine.services)
            rngs[v] = engine.rng_service.node_stream(v)
        if leaves or joins:
            ordered = sorted(owned)
        for v, name, args in calls:
            getattr(protocols[v], name)(*args)
        engine.services.epoch_cache.begin_round(t)
        delivery = None
        if shared is not None:
            delivery = HopDelivery(shared, hop_rows, {}, total=0)
        log = _SendLog()
        for v in ordered:
            if v in stalled:
                continue
            ctx = NodeContext(
                node_id=v,
                t=t,
                inbox=inboxes.get(v, []),
                rng=rngs[v],
                params=params,
                joined_round=joined[v],
                network=log,
                hops=hop_rows.get(v) if delivery is not None else None,
                hop_delivery=delivery,
            )
            proto = protocols[v]
            proto.on_round(ctx)
            log.mark(v)
        if _SANITIZE:
            _assert_band_owned(engine, band, ordered)
        secs = (clock() - t0) if clock is not None else 0.0
        up_arena = ByteArena(
            up_shm.buf, band * u_band_bytes, u_band_bytes
        )
        up_enc = FrameEncoder(up_arena)
        plane_pack = log.plane.pack()
        try:
            desc = exchange.encode_uplink(
                up_arena, up_enc, log.dsts, log.msgs, log.marks, plane_pack
            )
            _worker_send(conn, ("sends", (desc, secs)))
        except ArenaFull as exc:
            # This round travels the pipe; the master regrows the uplink
            # slab before the next control message.
            _worker_send(
                conn,
                (
                    "sends_pipe",
                    (log.dsts, log.msgs, log.marks, plane_pack, secs, exc.needed),
                ),
            )


# ----------------------------------------------------------------------
# Master-side runner
# ----------------------------------------------------------------------


class ShardRunner:
    """Master-side coordinator of the sharded compute phase."""

    def __init__(self, engine: "Engine", workers: int) -> None:
        if workers < 2:
            raise ValueError("ShardRunner needs workers >= 2")
        self.engine = engine
        self.workers = workers
        self._canon: dict[object, tuple[RoutedMessage, int]] = {}
        self._canon_ttl = 2 * engine.params.lam + 6
        self.last_shard_seconds: tuple[float, ...] = ()
        #: Cumulative exchange byte counters (always on: integer adds only).
        self.stats = exchange.ExchangeStats()
        #: ``(pipe, shm)`` bytes of the most recent round, for PhaseTimings.
        self.last_round_bytes: tuple[int, int] = (0, 0)
        # Band map for every currently known node; joins are added as the
        # adversary creates them.
        engine._shard_bands = assign_bands(
            engine.alive, engine.services.position_hash, workers
        )
        # Exchange slabs: one master-written downlink arena, one uplink slab
        # in W equal worker regions.  Workers inherit generation 0 via fork.
        self._down_gen = 0
        self._down_shm = shmseg.create_segment(
            exchange.DOWN_MIN_BYTES, "shard-downlink"
        )
        self._down_arena = ByteArena(self._down_shm.buf)
        self._down_enc = FrameEncoder(self._down_arena)
        self._up_gen = 0
        self._up_band_bytes = exchange.UP_BAND_MIN_BYTES
        self._up_shm = shmseg.create_segment(
            workers * self._up_band_bytes, "shard-uplink"
        )
        self._up_grow_to = 0  # pending per-band regrow request (bytes)
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for k in range(workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(engine, k, child, self._down_shm, self._up_shm),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # Control plane (every pipe byte is counted)
    # ------------------------------------------------------------------

    def _send_obj(self, conn, obj: object) -> None:
        if _SANITIZE:
            _assert_codec_safe(obj)
        blob = _dumps(obj)
        self.stats.bytes_pipe += len(blob)
        conn.send_bytes(blob)

    def _recv_obj(self, conn) -> object:
        blob = conn.recv_bytes()
        self.stats.bytes_pipe += len(blob)
        return pickle.loads(blob)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def band(self, v: int) -> int:
        bands = self.engine._shard_bands
        k = bands.get(v)
        if k is None:
            k = bands[v] = band_of(
                self.engine.services.position_hash.position(v, 0), self.workers
            )
        return k

    def run_compute(
        self,
        t: int,
        decision,
        inboxes: dict,
        hop_delivery,
        ordered: list[int],
    ) -> None:
        """Dispatch one compute phase to the workers and splice the sends."""
        engine = self.engine
        faults = engine.faults
        pipe0, shm0 = self.stats.bytes_pipe, self.stats.bytes_shm
        # Stall draws happen master-side, for every alive node in the same
        # order as the reference loop (FaultInjector counts them).
        stalled: set[int] = set()
        if faults is not None:
            for v in ordered:
                if faults.stalled(t, v):
                    stalled.add(v)
        per: list[dict] = [
            {"leaves": [], "joins": [], "stalled": set(), "calls": [], "inboxes": {}}
            for _ in range(self.workers)
        ]
        for v in decision.leaves:
            k = self.band(v)
            per[k]["leaves"].append(v)
            engine._shard_bands.pop(v, None)
        for j in decision.joins:
            # The engine's adversary phase already spawned the master-side
            # snapshot; the owner builds its own from the join round.
            k = self.band(j.new_id)
            per[k]["joins"].append(
                (j.new_id, engine.lifecycle.joined_round(j.new_id))
            )
        for v in stalled:
            per[self.band(v)]["stalled"].add(v)
        for v, name, args in engine._pending_node_calls:
            per[self.band(v)]["calls"].append((v, name, args))
        engine._pending_node_calls = []
        for v, inbox in inboxes.items():
            per[self.band(v)]["inboxes"][v] = inbox
        by_band: list[dict] | None = None
        if hop_delivery is not None:
            by_band = [{} for _ in range(self.workers)]
            for v, rows in hop_delivery.rows.items():
                by_band[self.band(v)][v] = rows
        # Encode the downlink; on overflow regrow the slab and re-encode
        # from scratch (the encoder memo only holds offsets of the current
        # arena extent).
        while True:
            self._down_arena.reset()
            self._down_enc.reset()
            try:
                shared_desc = exchange.encode_downlink_shared(
                    self._down_arena, self._down_enc, hop_delivery
                )
                band_descs = []
                for k in range(self.workers):
                    p = per[k]
                    control = (
                        p["leaves"],
                        p["joins"],
                        tuple(sorted(p["stalled"])),
                        p["calls"],
                    )
                    band_descs.append(
                        exchange.encode_downlink_band(
                            self._down_arena,
                            self._down_enc,
                            control,
                            p["inboxes"],
                            by_band[k] if by_band is not None else None,
                        )
                    )
                break
            except ArenaFull as exc:
                self._grow_down(exc.needed)
        self.stats.bytes_shm += self._down_arena.used
        # Apply an uplink regrow requested by last round's overflow before
        # announcing this round (workers switch on the gen bump).
        if self._up_grow_to:
            self._grow_up(self._up_grow_to)
            self._up_grow_to = 0
        for k, conn in enumerate(self._conns):
            self._send_obj(
                conn,
                (
                    "round",
                    (
                        t,
                        self._down_gen,
                        self._down_shm.name,
                        shared_desc,
                        band_descs[k],
                        self._up_gen,
                        self._up_shm.name,
                        self._up_band_bytes,
                    ),
                ),
            )
        results = []
        up_dec = FrameDecoder(self._up_shm.buf)
        need_up = 0
        for conn in self._conns:
            kind, payload = self._recv_obj(conn)
            if kind == "sends":
                desc, secs = payload
                sends = exchange.decode_uplink(self._up_shm.buf, up_dec, desc)
                self.stats.bytes_shm += desc[-1]
            else:
                assert kind == "sends_pipe"
                *sends, secs, need = payload
                self.stats.fallback_rounds += 1
                need_up = max(need_up, need)
            results.append((*sends, secs))
        if need_up:
            self._up_grow_to = max(2 * self._up_band_bytes, 2 * need_up)
        self.stats.rounds += 1
        self.last_round_bytes = (
            self.stats.bytes_pipe - pipe0,
            self.stats.bytes_shm - shm0,
        )
        self.last_shard_seconds = tuple(r[-1] for r in results)
        self._splice(t, ordered, stalled, results)
        self._prune_canon(t)
        engine._gathered_round = -1  # master protocol snapshots are stale now

    def _grow_down(self, needed: int) -> None:
        """Swap in a doubled downlink generation (old block is unlinked;
        workers keep valid mappings until they see the gen bump)."""
        old = self._down_shm
        new_size = max(2 * old.size, 1 << max(int(needed) - 1, 1).bit_length())
        self._down_shm = shmseg.create_segment(new_size, "shard-downlink")
        self._down_gen += 1
        self._down_arena = ByteArena(self._down_shm.buf)
        self._down_enc = FrameEncoder(self._down_arena)
        shmseg.destroy_segment(old)
        self.stats.regrows_down += 1

    def _grow_up(self, band_bytes: int) -> None:
        """Reallocate the uplink slab with ``band_bytes`` per worker region."""
        old = self._up_shm
        self._up_band_bytes = band_bytes
        self._up_shm = shmseg.create_segment(
            self.workers * band_bytes, "shard-uplink"
        )
        self._up_gen += 1
        shmseg.destroy_segment(old)
        self.stats.regrows_up += 1

    def _canon_msg(self, msg: RoutedMessage, t: int) -> RoutedMessage:
        entry = self._canon.get(msg.msg_id)
        if entry is None:
            self._canon[msg.msg_id] = (msg, t)
            return msg
        canon, _ = entry
        self._canon[msg.msg_id] = (canon, t)
        return canon

    def _canon_payload(self, msg: object, t: int) -> object:
        """Re-canonicalise routed content so identity-dedup sees one object."""
        if isinstance(msg, RoutedMessage):
            return self._canon_msg(msg, t)
        return msg

    def _prune_canon(self, t: int) -> None:
        if t % 8:
            return
        horizon = t - self._canon_ttl
        stale = [k for k, (_, touched) in self._canon.items() if touched < horizon]
        for k in stale:
            del self._canon[k]

    def _splice(
        self, t: int, ordered: list[int], stalled: set[int], results: list
    ) -> None:
        """Replay per-node send segments into the master network, in global
        sorted node-id order (the reference engine's observable order)."""
        net = self.engine.network
        cursors = [0] * self.workers
        send_lo = [0] * self.workers
        plane_lo = [0] * self.workers
        # Every worker's plane rows interned into the master plane at once,
        # by launch key (worker row -> master row), and the flat offset of
        # every multicast.
        table, remaps = HopRows.interned([pack[0] for _, _, _, pack, _ in results])
        base = net.plane.append(table)
        remaps = [base + ids for ids in remaps]
        flat_offs = [
            np.concatenate(([0], np.cumsum(pack[2]))) for _, _, _, pack, _ in results
        ]
        for v in ordered:
            if v in stalled:
                continue
            k = self.band(v)
            dsts, msgs, marks, plane_pack, _secs = results[k]
            node, sends_hi, plane_hi = marks[cursors[k]]
            assert node == v, f"shard stream misaligned: {node} != {v}"
            cursors[k] += 1
            sent = slice(send_lo[k], sends_hi)
            net.send_singles_batch(
                v,
                [
                    (dst, self._canon_payload(msg, t))
                    for dst, msg in zip(dsts[sent], msgs[sent])
                ],
            )
            send_lo[k] = sends_hi
            lo = plane_lo[k]
            if plane_hi > lo:
                _table, rows, lens, flat = plane_pack
                offs = flat_offs[k]
                net.file_hops(
                    v,
                    remaps[k][rows[lo:plane_hi]],
                    lens[lo:plane_hi],
                    flat[offs[lo]:offs[plane_hi]],
                )
                plane_lo[k] = plane_hi

    # ------------------------------------------------------------------
    # Gather and lifecycle
    # ------------------------------------------------------------------

    def sync_protocols(self) -> None:
        """Refresh the master's protocol snapshots from the owning workers."""
        for conn in self._conns:
            self._send_obj(conn, ("gather", None))
        for conn in self._conns:
            kind, states = self._recv_obj(conn)
            assert kind == "state"
            for v, state in states.items():
                proto = self.engine._protocols.get(v)
                if proto is None:
                    continue
                proto.__dict__.update(state)
                proto._d_index = None

    def forward_call(self, v: int, name: str, args: tuple) -> None:
        self.engine._pending_node_calls.append((v, name, args))

    def close(self) -> None:
        """Stop the workers and release every shared segment.

        Slab teardown sits in a ``finally``: a worker that died mid-run
        (broken pipe on the stop message, a failed join) must not leave
        ``/dev/shm`` blocks behind — the segment registry is asserted
        empty by the shard-smoke CI job.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for conn in self._conns:
                try:
                    self._send_obj(conn, ("stop", None))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=2)
                if proc.is_alive():  # pragma: no cover
                    proc.terminate()
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        finally:
            self._down_arena = None
            self._down_enc = None
            shmseg.destroy_segment(self._down_shm)
            shmseg.destroy_segment(self._up_shm)
