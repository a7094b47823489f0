"""Determinism under frame-train batching (DESIGN.md §7, docs/performance.md).

Batching changes event *granularity*, not what the simulation computes:

* a switch output port merging a backlog of back-to-back MTU frames
  into ``frame_count``-weighted trains must deliver the train's tail at
  exactly the per-frame schedule's time, with identical wire byte/frame
  counters;
* batched runs are deterministic: two identical runs produce identical
  delivery schedules and event counts;
* end-to-end (NIC TX-ring merging included), message delivery may shift
  by at most the policy's timing tolerance per store-and-forward hop.
"""

import pytest

from repro.errors import PacketError
from repro.net import (
    BatchPolicy,
    Frame,
    MacAddress,
    PER_FRAME,
    StandardNIC,
    Switch,
    Wire,
    adaptive_quantum,
    build_star,
)
from repro.net.packet import ETHERNET_MTU
from repro.sim import FairShareBus, Simulator

MTU = ETHERNET_MTU


# -- adaptive_quantum arithmetic ----------------------------------------------------


def test_adaptive_quantum_tolerance_bound():
    policy = BatchPolicy(timing_tolerance=100e-6, max_quantum=512)
    # (q - 1) * unit_time <= tolerance  ->  q = 1 + 10 at 10 us/frame
    assert adaptive_quantum(1000, 10e-6, policy) == 11
    # the bound adapts to the wire: slower frames, smaller quantum
    assert adaptive_quantum(1000, 50e-6, policy) == 3


def test_adaptive_quantum_caps():
    policy = BatchPolicy(timing_tolerance=1.0, max_quantum=32)
    assert adaptive_quantum(1000, 10e-6, policy) == 32  # max_quantum cap
    assert adaptive_quantum(7, 10e-6, policy) == 7  # never exceeds total
    assert adaptive_quantum(1, 10e-6, policy) == 1
    assert adaptive_quantum(0, 10e-6, policy) == 1


def test_adaptive_quantum_disabled_and_errors():
    assert adaptive_quantum(1000, 10e-6, PER_FRAME) == 1
    with pytest.raises(PacketError):
        adaptive_quantum(-1, 10e-6)
    with pytest.raises(PacketError):
        BatchPolicy(timing_tolerance=-1.0)
    with pytest.raises(PacketError):
        BatchPolicy(max_quantum=0)


# -- switch-level train merging is timing-exact at the tail --------------------------


class _Collector:
    """Terminal frame sink recording (time, seq, frame_count, bytes)."""

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def receive_frame(self, frame):
        self.deliveries.append(
            (self.sim.now, frame.seq, frame.frame_count, frame.payload_bytes)
        )


def _run_switch_burst(batch, n_frames=24):
    """Burst of contiguous MTU frames through a fast-in/slow-out switch
    port (the backlog is what gives the port trains to merge)."""
    sim = Simulator()
    switch = Switch(sim, 2, forwarding_latency=4e-6, batch=batch)
    up = Wire(sim, 125e6, 1e-6, name="up")
    up.attach(switch.ingress_sink(0))
    down = Wire(sim, 12.5e6, 1e-6, name="down")
    collector = _Collector(sim)
    down.attach(collector)
    switch.attach_output(1, down)
    switch.learn(MacAddress(1), 1)
    total = n_frames * MTU
    for i in range(n_frames):
        up.send(
            Frame(
                src=MacAddress(0),
                dst=MacAddress(1),
                payload_bytes=MTU,
                headers=8,
                kind="raw",
                seq=i * MTU,
                meta={"msg": 7, "total": total, "last": i == n_frames - 1},
            )
        )
    sim.run()
    return sim, collector, down, switch


def test_switch_merge_preserves_tail_time_and_wire_counters():
    sim_pf, col_pf, down_pf, _ = _run_switch_burst(PER_FRAME)
    batched = BatchPolicy(timing_tolerance=5e-3, max_quantum=64)
    sim_b, col_b, down_b, _ = _run_switch_burst(batched)

    # Trains actually formed: fewer deliveries, fewer events.
    assert len(col_b.deliveries) < len(col_pf.deliveries)
    assert sim_b.event_count < sim_pf.event_count
    assert any(count > 1 for _, _, count, _ in col_b.deliveries)

    # The tail of the burst arrives at the per-frame schedule's time
    # (wire FIFO + store-and-forward: merging reorders nothing and the
    # train's last byte hits the sink when the last frame's would have).
    assert col_b.deliveries[-1][0] == pytest.approx(
        col_pf.deliveries[-1][0], rel=1e-12
    )

    # Conservation: identical physical frame and on-wire byte counts.
    assert down_b.frames_sent == down_pf.frames_sent
    assert down_b.bytes_sent == down_pf.bytes_sent
    assert sum(c for _, _, c, _ in col_b.deliveries) == sum(
        c for _, _, c, _ in col_pf.deliveries
    )
    assert sum(b for _, _, _, b in col_b.deliveries) == sum(
        b for _, _, _, b in col_pf.deliveries
    )

    # Byte-contiguity of merged trains: seq + payload chain covers the
    # stream exactly once.
    expect = 0
    for _, seq, _, nbytes in sorted(col_b.deliveries, key=lambda d: d[1]):
        assert seq == expect
        expect += nbytes


def test_batched_runs_are_deterministic():
    batched = BatchPolicy(timing_tolerance=5e-3, max_quantum=64)
    sim_a, col_a, _, _ = _run_switch_burst(batched)
    sim_b, col_b, _, _ = _run_switch_burst(batched)
    assert col_a.deliveries == col_b.deliveries
    assert sim_a.event_count == sim_b.event_count


def test_switch_merge_respects_max_quantum_and_buffer_accounting():
    batched = BatchPolicy(timing_tolerance=1.0, max_quantum=4)
    _, col, _, switch = _run_switch_burst(batched)
    assert all(count <= 4 for _, _, count, _ in col.deliveries)
    # All buffer bytes were freed (enqueue charge == tx_done release).
    assert switch._outputs[1].queued_bytes == 0
    assert switch.total_dropped() == 0


# -- end-to-end: NIC ring merging stays within the policy tolerance ------------------


def _run_message_transfer(wire_batch, n_frames=120):
    """One ``n_frames``-MTU message across a 2-node star.  The sender
    hands its NIC one continuation frame per MTU (same ``msg``,
    contiguous ``seq``), so all batching happens in the NIC ring and
    the fabric; returns when the receiver holds the whole message."""
    sim = Simulator()
    nics = []
    for i in range(2):
        bus = FairShareBus(sim, bandwidth=112e6)
        nics.append(
            StandardNIC(
                sim, MacAddress(i), host_bus=bus, batch=wire_batch, name=f"nic{i}"
            )
        )
    build_star(sim, [(MacAddress(i), nics[i]) for i in range(2)], batch=wire_batch)
    total = n_frames * MTU
    got = [0]
    t = {}

    def on_frame(frame):
        got[0] += frame.payload_bytes
        if got[0] == total:
            t["done"] = sim.now

    nics[1].bind_receiver(on_frame)

    def sender():
        for i in range(n_frames):
            yield from nics[0].transmit(
                Frame(
                    src=MacAddress(0),
                    dst=MacAddress(1),
                    payload_bytes=MTU,
                    headers=8,
                    kind="msg",
                    seq=i * MTU,
                    meta={"msg": 1, "last": i == n_frames - 1},
                )
            )

    sim.process(sender())
    sim.run()
    assert got[0] == total
    return sim, t["done"], nics


def test_nic_ring_merge_bounded_by_tolerance():
    tol = 200e-6
    sim_pf, t_pf, _ = _run_message_transfer(PER_FRAME)
    sim_b, t_b, nics = _run_message_transfer(
        BatchPolicy(timing_tolerance=tol, max_quantum=64)
    )
    assert sim_b.event_count < sim_pf.event_count
    # Same physical frames on the wire either way.
    assert nics[0].stats.tx_frames == 120
    assert nics[1].stats.rx_frames == 120
    # Three store-and-forward stages may each add up to the tolerance
    # (NIC TX ring, switch port, and the receive-side DMA of a train).
    assert abs(t_b - t_pf) <= 3 * tol
