"""Determinism under frame-train batching (DESIGN.md §7, docs/performance.md).

Batching changes event *granularity*, not what the simulation computes:

* batched runs are deterministic: two identical runs produce identical
  delivery schedules and event counts;
* end-to-end (NIC TX-ring merging), message delivery may shift by at
  most the policy's timing tolerance per store-and-forward stage.
"""

import pytest

from repro.errors import PacketError
from repro.net import (
    BatchPolicy,
    Frame,
    MacAddress,
    PER_FRAME,
    StandardNIC,
    adaptive_quantum,
    build_aggregate_star,
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


# -- end-to-end: NIC ring merging stays within the policy tolerance ------------------


def _run_message_transfer(wire_batch, n_frames=120):
    """One ``n_frames``-MTU message across a 2-node star.  The sender
    hands its NIC one continuation frame per MTU (same ``msg``,
    contiguous ``seq``), so all batching happens in the NIC ring;
    returns when the receiver holds the whole message."""
    sim = Simulator()
    nics = []
    for i in range(2):
        bus = FairShareBus(sim, bandwidth=112e6)
        nics.append(
            StandardNIC(
                sim, MacAddress(i), host_bus=bus, batch=wire_batch, name=f"nic{i}"
            )
        )
    build_aggregate_star(sim, [(MacAddress(i), nics[i]) for i in range(2)])
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


def test_batched_runs_are_deterministic():
    batched = BatchPolicy(timing_tolerance=5e-3, max_quantum=64)
    sim_a, t_a, nics_a = _run_message_transfer(batched)
    sim_b, t_b, nics_b = _run_message_transfer(batched)
    assert t_a == t_b
    assert sim_a.event_count == sim_b.event_count
    assert nics_a[1].stats.rx_frames == nics_b[1].stats.rx_frames


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
    # Two store-and-forward stages may each add up to the tolerance
    # (the NIC TX ring and the receive-side DMA of a train); the star
    # forwards trains as the NIC built them.
    assert abs(t_b - t_pf) <= 2 * tol
