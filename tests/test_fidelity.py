"""Fidelity validation: the CHUNK quantum approximation and DES
conservation invariants (DESIGN.md §5/§7).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CPU, CacheLevel, MemoryHierarchy
from repro.net import (
    DEFAULT_BATCH,
    Frame,
    GIGABIT_ETHERNET,
    MacAddress,
    PER_FRAME,
    StandardNIC,
    build_aggregate_star,
)
from repro.protocols import TCPConfig, TCPStack
from repro.sim import FairShareBus, Simulator


def build_pair(tcp_config, batch=DEFAULT_BATCH):
    sim = Simulator()
    nics, stacks = [], []
    for i in range(2):
        mh = MemoryHierarchy([CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9)])
        cpu = CPU(sim, mh)
        bus = FairShareBus(sim, bandwidth=112e6)
        nic = StandardNIC(
            sim, MacAddress(i), host_bus=bus, cpu=cpu, batch=batch, name=f"nic{i}"
        )
        stacks.append(TCPStack(sim, nic, cpu, config=tcp_config, name=f"tcp{i}"))
        nics.append(nic)
    switch = build_aggregate_star(sim, [(MacAddress(i), nics[i]) for i in range(2)])
    return sim, stacks, nics, switch


def per_frame_config():
    """PACKET fidelity: quantum 1 everywhere, no train coalescing."""
    return TCPConfig(max_quantum=1, quantum_target_events=10**9, batch=PER_FRAME)


def transfer_time(tcp_config, nbytes, batch=DEFAULT_BATCH):
    sim, stacks, _, _ = build_pair(tcp_config, batch)
    t = {}

    def sender():
        t0 = sim.now
        yield stacks[0].send(MacAddress(1), nbytes)
        t["dt"] = sim.now - t0

    def receiver():
        yield stacks[1].recv()

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    return t["dt"]


def test_quantum_batching_preserves_transfer_time():
    """PACKET fidelity (quantum=1) and CHUNK fidelity (quantum=16) must
    agree on bulk-transfer time within a tolerance — the justification
    for running paper-scale sweeps at CHUNK fidelity."""
    nbytes = 2_000_000
    t_packet = transfer_time(per_frame_config(), nbytes, batch=PER_FRAME)
    t_chunk = transfer_time(TCPConfig(max_quantum=16), nbytes)
    assert t_chunk == pytest.approx(t_packet, rel=0.25)


def test_quantum_batching_reduces_event_count():
    sim1, stacks1, _, _ = build_pair(per_frame_config(), batch=PER_FRAME)
    sim16, stacks16, _, _ = build_pair(TCPConfig(max_quantum=16))
    for sim, stacks in ((sim1, stacks1), (sim16, stacks16)):
        def sender(s=stacks):
            yield s[0].send(MacAddress(1), 1_000_000)

        def receiver(s=stacks):
            yield s[1].recv()

        sim.process(sender())
        sim.process(receiver())
        sim.run()
    assert sim16.event_count < sim1.event_count / 3


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=8)
)
def test_tcp_delivers_arbitrary_message_sequences(sizes):
    """Property: any sequence of message sizes arrives complete, in
    order, with matching tags (byte conservation end to end)."""
    cfg = TCPConfig()
    sim, stacks, nics, switch = build_pair(cfg)
    got = []

    def sender():
        for i, n in enumerate(sizes):
            yield stacks[0].send(MacAddress(1), n, tag=i, payload=n)

    def receiver():
        for i in range(len(sizes)):
            msg = yield stacks[1].recv()
            got.append((msg.tag, msg.nbytes, msg.payload))

    sim.process(sender())
    sim.process(receiver())
    sim.run(max_events=3_000_000)
    assert got == [(i, n, n) for i, n in enumerate(sizes)]
    # Conservation: every payload byte sent was delivered exactly once.
    assert stacks[0].stats.bytes_sent >= sum(sizes)
    assert stacks[1].stats.bytes_delivered == sum(sizes)


def test_switch_conserves_frames_without_drops():
    """Frames in == frames out + drops, for random traffic."""
    sim = Simulator()

    class Sink:
        def __init__(self):
            self.got = 0
            self.wire = None

        def attach_wire(self, wire):
            self.wire = wire

        def receive_frame(self, frame):
            self.got += frame.frame_count

    rng = np.random.default_rng(4)
    stations = [Sink() for _ in range(4)]
    addrs = [MacAddress(i) for i in range(4)]
    switch = build_aggregate_star(
        sim, list(zip(addrs, stations)), tech=GIGABIT_ETHERNET
    )
    sent = 0
    for _ in range(200):
        src, dst = rng.integers(0, 4, size=2)
        if src == dst:
            continue
        stations[src].wire.send(
            Frame(addrs[src], addrs[dst], payload_bytes=int(rng.integers(1, 1500)))
        )
        sent += 1
    sim.run()
    delivered = sum(s.got for s in stations)
    assert delivered + switch.total_dropped() == sent


def test_interrupt_time_scales_with_frames():
    """Per-frame CPU theft is linear in delivered frames."""
    totals = {}
    for n_msgs in (5, 20):
        sim, stacks, nics, _ = build_pair(TCPConfig())
        def sender(s=stacks, k=n_msgs):
            for i in range(k):
                yield s[0].send(MacAddress(1), 64_000, tag=i)

        def receiver(s=stacks, k=n_msgs):
            for _ in range(k):
                yield s[1].recv()

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        totals[n_msgs] = stacks[1].cpu.interrupt_time
    assert totals[20] > 3 * totals[5]
