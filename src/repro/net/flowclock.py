"""Bulk flow-clock admission: the exchange-phase fast path.

Every busy-until fabric (the star, fat-tree and torus) reduces contention to
``busy_until`` float clocks — an uplink clock per station, an output
(or per-hop link) clock per destination.  That makes the arrival time
of every frame in a bulk exchange a *closed-form function* of the send
times: no event needs to fire per frame, the clock recurrences just
have to be replayed in admission order.  This module does exactly that
for a frame **train** — the unit a sender's exchange phase produces:

``admit_train(fabric, uplink, frames, times)``
    Computes per-frame serialization times in one vectorized numpy
    pass (elementwise division is IEEE-identical to the scalar
    division the frame-level path performs), then replays the fabric's
    own ``_admit`` recurrence per frame at its logical send time with
    delivery *collected* instead of scheduled.  Port clocks, per-hop
    telemetry, and the tail-drop ledger advance exactly as if each
    frame had been sent individually — the sequential recurrence is
    kept sequential on purpose, because prefix-scan reassociation is
    **not** float-identical.  Collected deliveries are then dispatched
    in bulk: stations that implement ``receive_train`` get whole
    delivery groups (one pooled event per group, via
    :class:`DeliveryBatcher`); everything else gets the frame-level
    ``call_after`` per frame, byte-identically.

Fault composition
-----------------
The fast path disables itself per component, never approximately:

* a staged component-fault schedule (uplink or switch windows) marks
  the whole fabric (``fastpath_ok() -> False``);
* a per-uplink :class:`~repro.faults.WireFault` injector marks that
  uplink only.

In either case the train falls back to per-frame ``_send`` calls at
the exact per-frame send times, so seeded fault schedules (RNG draw
sequences, outage windows, component transitions) stay bit-identical
to the frame-level path.

Identity argument (see docs/architecture.md §3)
-----------------------------------------------
A ``busy_until`` clock's state depends only on the *order* and logical
times of its admissions.  Admitting a train's frames inside one DES
event, each at its recorded send time, performs the identical float
operations in the identical order as separate sends — provided no
other admission interleaves on a shared clock in between.  Admission is
therefore *sliced*: one event admits the frames due within
:data:`ADMIT_SLICE` of logical time, so overlapping senders interleave
at slice (not frame) granularity and a port clock never runs more than
one slice ahead of global time — whole-train admission would let one
train's tail count as phantom backlog against another train's head and
manufacture tail-drops the frame-level path never takes.  A single
train's frames stay sequentially ordered across its slices, so where
trains do not overlap (the A/B harness's staggered phase) equality is
exact to the last bit; under overlap the residual skew is bounded by
one slice, documented, measurable, and disabled by ``--no-fastpath``.

Run ``python -m repro.net.flowclock --ab`` to replay the scale suite's
exchange patterns frame-level vs bulk on every fabric and diff arrival
floats and conservation ledgers exactly (a CI step).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sim.engine import Simulator
from .packet import Frame

__all__ = ["admit_train", "DeliveryBatcher", "TRAIN_TOLERANCE", "TRAIN_CAP"]

#: delivery grouping window, seconds — arrivals within this span of a
#: group's opener ride one pooled event (same scale as the NIC batch
#: policies in :mod:`repro.net.batching`)
TRAIN_TOLERANCE = 200e-6
#: frames per delivery group before a new one is opened
TRAIN_CAP = 256


class _TrainGroup:
    """One pending delivery group for a destination port."""

    __slots__ = ("t0", "t_last", "frames", "times")

    def __init__(self, t0: float):
        self.t0 = t0
        self.t_last = t0
        self.frames: list[Frame] = []
        self.times: list[float] = []


class DeliveryBatcher:
    """Coalesces per-frame deliveries to one station into train events.

    Arrivals for a port are non-decreasing in time (its egress clock is
    FIFO), so grouping is a single open group: an arrival within
    ``TRAIN_TOLERANCE`` of the group's opener joins it, anything later
    (or past ``TRAIN_CAP``) opens a new group.  Each group fires exactly
    one pooled callback at its *last* member's arrival — never earlier
    than any member, never padded past it — handing the device the
    frames *and their exact per-frame arrival times*, so receivers
    account arrival-time semantics losslessly.  The flush is scheduled
    at the opener's arrival and lazily chases the tail if the group
    grew meanwhile (one extra pooled event, no cancellation), so
    dispatch stays deterministic given the admission sequence.
    """

    __slots__ = ("sim", "device", "_group")

    def __init__(self, sim: Simulator, device):
        self.sim = sim
        self.device = device
        self._group: _TrainGroup | None = None

    def add(self, frame: Frame, at: float) -> None:
        g = self._group
        if (
            g is not None
            and at - g.t0 <= TRAIN_TOLERANCE
            and len(g.frames) < TRAIN_CAP
        ):
            g.frames.append(frame)
            g.times.append(at)
            g.t_last = at
            return
        g = _TrainGroup(at)
        g.frames.append(frame)
        g.times.append(at)
        self._group = g
        self.sim.call_after(at - self.sim.now, self._flush, g)

    def _flush(self, group: _TrainGroup) -> None:
        now = self.sim.now
        if group.t_last > now:
            # The group grew after its flush was scheduled: chase the
            # tail arrival instead of delivering early.
            self.sim.call_after(group.t_last - now, self._flush, group)
            return
        if self._group is group:
            self._group = None
        self.device.receive_train(group.frames, group.times)


#: logical seconds of a train admitted per DES event.  Bulk admission
#: of *overlapping* trains interleaves at segment (not frame)
#: granularity, so a port clock never runs more than one slice of
#: cross-sender traffic ahead of global time — at line rate that is
#: ~25 KB of admission-order skew against a 128 KB tail-drop buffer,
#: which is why slicing keeps the drop ledger honest where whole-train
#: admission manufactured spurious overflows.  A single train's frames
#: stay in sequential order across its slices, so single-train
#: admission remains bit-exact at any slice width.
ADMIT_SLICE = 200e-6


def admit_train(
    fabric, uplink, frames: Sequence[Frame], times: Sequence[float]
) -> float:
    """Bulk-admit ``frames`` on ``uplink`` at per-frame send ``times``.

    ``times`` must be non-decreasing and ``>= sim.now`` (the sender's
    own serialization schedule).  Admission proceeds in
    :data:`ADMIT_SLICE` segments — one DES event covers every frame
    whose send time falls within the slice; a continuation event is
    scheduled at the next frame's send time.  Returns the last send
    time.
    """
    sim = fabric.sim
    now = sim.now
    if not frames:
        return now
    if len(frames) != len(times):
        raise ValueError(
            f"train mismatch: {len(frames)} frames, {len(times)} times"
        )
    if uplink.fault is not None or not fabric.fastpath_ok():
        _frame_fallback(fabric, uplink, frames, times, 0)
        return times[-1]
    # Vectorized serialization times: elementwise float64 division is
    # IEEE-identical to the scalar division in the frame-level path.
    tx_times = (
        np.fromiter(
            (f.wire_size for f in frames), dtype=np.float64, count=len(frames)
        )
        / fabric.bandwidth
    )
    fabric.trains_fast += 1
    _admit_segment(fabric, uplink, list(frames), list(times), tx_times, 0)
    return times[-1]


def _frame_fallback(fabric, uplink, frames, times, start: int) -> None:
    """Frame-level remainder: replay each frame through the full
    ``_send`` (fault dispositions included) at its exact send time, so
    seeded fault schedules stay bit-identical."""
    sim = fabric.sim
    now = sim.now
    for i in range(start, len(frames)):
        t = times[i]
        if t <= now:
            fabric._send(uplink, frames[i])
        else:
            sim.call_after(t - now, fabric._send, uplink, frames[i])


def _admit_segment(fabric, uplink, frames, times, tx_times, start: int) -> None:
    """Admit the slice of the train due within :data:`ADMIT_SLICE`."""
    sim = fabric.sim
    now = sim.now
    if uplink.fault is not None or not fabric.fastpath_ok():
        # A fault armed mid-train: the remainder goes frame-level, at
        # the exact per-frame send times.
        _frame_fallback(fabric, uplink, frames, times, start)
        return
    horizon = now + ADMIT_SLICE
    n = len(frames)
    end = start
    while end < n and times[end] <= horizon:
        end += 1
    sink: list = []
    fabric._collect = sink
    mark = 0
    try:
        admit = fabric._admit
        for i in range(start, end):
            t = times[i]
            admit(uplink, frames[i], t, float(tx_times[i]))
            grown = len(sink)
            if grown != mark:
                # Frame-level delivery fires at ``t + (deliver_at - t)``
                # — the scheduler's reconstruction of the absolute time,
                # one rounding away from ``deliver_at`` itself.  Replay
                # that exact arithmetic so receivers observe bit-equal
                # arrival clocks on either path.
                while mark < grown:
                    port, fr, at = sink[mark]
                    sink[mark] = (port, fr, t + (at - t))
                    mark += 1
    finally:
        fabric._collect = None
    devices = fabric._devices
    batchers = fabric._train_batchers
    for port, frame, at in sink:
        device = devices[port]
        if hasattr(device, "receive_train"):
            batcher = batchers.get(port)
            if batcher is None:
                batcher = batchers[port] = DeliveryBatcher(sim, device)
            batcher.add(frame, at)
        else:
            sim.call_after(at - now, device.receive_frame, frame)
    if end < n:
        sim.call_after(
            times[end] - now,
            _admit_segment, fabric, uplink, frames, times, tx_times, end,
        )


# ---------------------------------------------------------------------------
# A/B equivalence harness (`python -m repro.net.flowclock --ab`)
# ---------------------------------------------------------------------------
class _TrainProbe:
    """Frame device recording (dst-visible) arrivals, train-capable."""

    def __init__(self, sim: Simulator, port: int):
        self.sim = sim
        self.port = port
        self.wire = None
        self.got: list[tuple[int, float, float]] = []

    def attach_wire(self, wire) -> None:
        self.wire = wire

    def receive_frame(self, frame: Frame) -> None:
        self.got.append((self.port, self.sim.now, frame.payload_bytes))

    def receive_train(self, frames: Sequence[Frame], times: Sequence[float]) -> None:
        # Record the exact per-frame arrival floats the batcher carried,
        # not the (later) flush time — that is the identity under test.
        for frame, t in zip(frames, times):
            self.got.append((self.port, t, frame.payload_bytes))


#: A/B time grid: dyadic constants, so ``base + i * intra`` round-trips
#: exactly through the scheduler's relative-delay arithmetic (the send
#: times are then bit-equal between the scheduled frame-level path and
#: the logical times bulk admission replays)
_AB_GAP = 2.0 ** -8     # ~3.9 ms between train starts: no overlap
_AB_INTRA = 2.0 ** -18  # ~3.8 us intra-train spacing: uplink chain engaged


def _exchange_trains(n: int, repeat: int = 2):
    """The scale suite's exchange shape: every station sends a train
    covering all peers ``repeat`` times (so destination egress clocks
    see intra-train contention), then an 8-sender incast burst — all
    trains admitted at one timestamp, grouped in train order on both
    paths — that overfills one egress buffer, so the tail-drop ledger
    is exercised inside trains.  Staggered trains never overlap — the
    regime where bulk admission is exact.

    Returns ``[(base_t, src, intra_gap, [(dst, size), ...]), ...]``.
    """
    trains = []
    for src in range(n):
        entries = []
        for j in range(repeat * (n - 1)):
            dst = (src + 1 + j % (n - 1)) % n
            size = 64 + (src * 131 + j * 17) % 1400
            entries.append((dst, size))
        trains.append((src * _AB_GAP, src, _AB_INTRA, entries))
    # Incast: 8 senders x 20 x 1400 B (~227 KB) at one egress port vs
    # the 128 KB gigabit buffer; send times all equal the burst start.
    # Senders ring the victim so some share its leaf on the fat-tree —
    # remote incast serializes through one spine downlink and never
    # overflows, but same-leaf senders hit the egress clock directly.
    burst_at = n * _AB_GAP
    victim = n // 2
    for delta in range(-4, 5):
        src = (victim + delta) % n
        if src == victim or src == 0:
            continue
        trains.append((burst_at, src, 0.0, [(victim, 1400)] * 20))
    return trains


def _replay(builder, opts, n: int, bulk: bool, fault_spec=None):
    """Run the exchange pattern one way; return (arrivals, ledger, fabric)."""
    from ..net.addresses import MacAddress

    sim = Simulator()
    stations = [_TrainProbe(sim, p) for p in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    if fault_spec is not None:
        fabric.uplink(0).install_fault(
            _wire_fault(fault_spec, fabric.uplink(0).name)
        )
    for base_t, src, intra, entries in _exchange_trains(n):
        wire = stations[src].wire

        def fire(wire=wire, src=src, base_t=base_t, intra=intra, entries=entries):
            frames = [
                Frame(addrs[src], addrs[dst], payload_bytes=size, headers=8)
                for dst, size in entries
            ]
            times = [base_t + i * intra for i in range(len(frames))]
            if bulk:
                wire.send_train(frames, times)
            else:
                # Mirror the fallback's scheduling exactly: immediate
                # sends inline (train order), future ones per frame.
                now = sim.now
                for frame, t in zip(frames, times):
                    if t <= now:
                        wire.send(frame)
                    else:
                        sim.call_after(t - now, wire.send, frame)

        sim.call_after(base_t, fire)
    sim.run()
    arrivals = sorted(got for st in stations for got in st.got)
    return arrivals, fabric.conservation_counters(), fabric


def _wire_fault(spec, name: str):
    from ..faults import WireFault

    return WireFault(spec, name)


def _ab_main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.net.flowclock",
        description="A/B: bulk flow-clock admission vs frame-level sends",
    )
    ap.add_argument("--ab", action="store_true", help="run the equivalence check")
    ap.add_argument("--n", type=int, default=32, help="stations (default 32)")
    args = ap.parse_args(argv)
    if not args.ab:
        ap.error("nothing to do (pass --ab)")
    from ..faults import FaultSpec
    from .topology import build_aggregate_star, build_fattree, build_torus

    n = args.n
    fault = FaultSpec(seed=7, loss_rate=0.25, corrupt_rate=0.1)
    cases = [
        ("aggregate", build_aggregate_star, {}, None),
        ("fattree", build_fattree, {}, None),
        ("fattree-oversub2", build_fattree, {"oversub": 2}, None),
        ("torus", build_torus, {}, None),
        ("aggregate-faulted", build_aggregate_star, {}, fault),
    ]
    failed = False
    for label, builder, opts, fault_spec in cases:
        ref, ref_ledger, ref_fabric = _replay(
            builder, opts, n, bulk=False, fault_spec=fault_spec
        )
        got, ledger, fabric = _replay(
            builder, opts, n, bulk=True, fault_spec=fault_spec
        )
        ok = got == ref and ledger == ref_ledger
        events = (ref_fabric.sim.event_count, fabric.sim.event_count)
        if fault_spec is None:
            # The fast path must actually have run (and cut events).
            mode_ok = fabric.trains_fast > 0 and events[1] < events[0]
        else:
            # Per-component disable: the faulted uplink's trains fall
            # back (its injector's decision log must be bit-identical),
            # every other sender still takes the fast path.
            total = len(_exchange_trains(n))
            mode_ok = (
                0 < fabric.trains_fast < total
                and fabric.uplink(0).fault.log == ref_fabric.uplink(0).fault.log
            )
        status = "PASS" if ok and mode_ok else "FAIL"
        failed = failed or status == "FAIL"
        dropped = ref_ledger["frames_dropped"]
        print(
            f"[ab] {label:18s} {status}  n={n} arrivals={len(ref)} "
            f"dropped={dropped} events {events[0]} -> {events[1]}"
            + ("" if ok else "  (arrivals or ledgers diverge)")
            + (
                ""
                if mode_ok
                else "  (fast path did not engage as expected)"
            )
        )
    print(f"[ab] bulk-admission equivalence: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(_ab_main())
