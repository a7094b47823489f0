"""Unit/integration tests for the TCP model (repro.protocols.tcp)."""

import numpy as np
import pytest

from repro.hw import CPU, CacheLevel, CoalescePolicy, MemoryHierarchy
from repro.net import GIGABIT_ETHERNET, MacAddress, StandardNIC, build_aggregate_star
from repro.protocols import TCPConfig, TCPStack
from repro.sim import FairShareBus, Simulator


def make_cluster(n=2, coalesce=CoalescePolicy(), tcp_config=TCPConfig()):
    sim = Simulator()
    nics, stacks = [], []
    for i in range(n):
        mh = MemoryHierarchy(
            [
                CacheLevel("L2", 256 * 1024, 3e9, 1.5e9),
                CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9),
            ]
        )
        cpu = CPU(sim, mh, interrupt_cost=8e-6)
        bus = FairShareBus(sim, bandwidth=112e6, name=f"pci{i}")
        nic = StandardNIC(
            sim, MacAddress(i), host_bus=bus, cpu=cpu, coalesce=coalesce,
            name=f"nic{i}",
        )
        stacks.append(TCPStack(sim, nic, cpu, config=tcp_config, name=f"tcp{i}"))
        nics.append(nic)
    switch = build_aggregate_star(sim, [(MacAddress(i), nics[i]) for i in range(n)])
    return sim, stacks, nics, switch


def test_message_delivered_intact():
    sim, stacks, _, _ = make_cluster()
    payload = np.arange(100)
    result = {}

    def sender():
        yield stacks[0].send(MacAddress(1), 100_000, payload=payload, tag=3)

    def receiver():
        m = yield stacks[1].recv()
        result["msg"] = m

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    m = result["msg"]
    assert m.nbytes == 100_000
    assert m.tag == 3
    assert m.src == MacAddress(0)
    assert np.array_equal(m.payload, payload)


def test_send_completes_only_after_ack():
    sim, stacks, _, _ = make_cluster()
    times = {}

    def sender():
        yield stacks[0].send(MacAddress(1), 50_000)
        times["acked"] = sim.now

    def receiver():
        yield stacks[1].recv()
        times["delivered"] = sim.now

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    # ACK of the last segment arrives after delivery.
    assert times["acked"] >= times["delivered"]


def test_multiple_messages_same_connection_ordered():
    sim, stacks, _, _ = make_cluster()
    got = []

    def sender():
        for i in range(5):
            yield stacks[0].send(MacAddress(1), 10_000, tag=i)

    def receiver():
        for _ in range(5):
            m = yield stacks[1].recv()
            got.append(m.tag)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_bidirectional_transfer():
    sim, stacks, _, _ = make_cluster()
    done = {}

    def node(i):
        peer = MacAddress(1 - i)
        send_ev = stacks[i].send(peer, 200_000, tag=i)
        m = yield stacks[i].recv(tag=1 - i)
        yield send_ev
        done[i] = (sim.now, m.nbytes)

    sim.process(node(0))
    sim.process(node(1))
    sim.run()
    assert done[0][1] == 200_000 and done[1][1] == 200_000


def test_slow_start_makes_short_messages_inefficient():
    """Effective throughput for a short message is far below line rate."""
    sim, stacks, _, _ = make_cluster()
    t = {}

    def sender():
        t0 = sim.now
        yield stacks[0].send(MacAddress(1), 16 * 1024)
        t["short"] = sim.now - t0

    def receiver():
        yield stacks[1].recv()

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    short_rate = 16 * 1024 / t["short"]
    assert short_rate < 0.4 * GIGABIT_ETHERNET.bandwidth


def test_long_message_approaches_wire_rate():
    sim, stacks, _, _ = make_cluster()
    t = {}
    nbytes = 4_000_000

    def sender():
        t0 = sim.now
        yield stacks[0].send(MacAddress(1), nbytes)
        t["long"] = sim.now - t0

    def receiver():
        yield stacks[1].recv()

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    rate = nbytes / t["long"]
    # Well above half of one-gig line rate once the window is open
    # (payload/wire overhead + PCI DMA keep it below 100%).
    assert rate > 0.5 * GIGABIT_ETHERNET.bandwidth
    assert rate < GIGABIT_ETHERNET.bandwidth


def test_interrupt_coalescing_slows_short_transfers():
    """The paper's slow-start/mitigation interaction, measured."""
    def run(policy):
        sim, stacks, _, _ = make_cluster(coalesce=policy)
        t = {}

        def sender():
            t0 = sim.now
            yield stacks[0].send(MacAddress(1), 32 * 1024)
            t["dt"] = sim.now - t0

        def receiver():
            yield stacks[1].recv()

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        return t["dt"]

    fast = run(CoalescePolicy())  # immediate interrupts
    slow = run(CoalescePolicy(delay=150e-6, max_frames=32))
    assert slow > fast * 1.5


def test_no_timeouts_or_drops_in_clean_two_node_transfer():
    sim, stacks, _, switch = make_cluster()

    def sender():
        yield stacks[0].send(MacAddress(1), 1_000_000)

    def receiver():
        yield stacks[1].recv()

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert stacks[0].stats.timeouts == 0
    assert switch.total_dropped() == 0


def test_loss_triggers_timeout_and_recovery():
    """Force drops with a tiny switch buffer; TCP must still deliver."""
    sim = Simulator()
    nics, stacks = [], []
    for i in range(2):
        mh = MemoryHierarchy(
            [CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9)]
        )
        cpu = CPU(sim, mh)
        bus = FairShareBus(sim, bandwidth=112e6)
        nic = StandardNIC(sim, MacAddress(i), host_bus=bus, cpu=cpu, name=f"nic{i}")
        stacks.append(TCPStack(sim, nic, cpu, name=f"tcp{i}"))
        nics.append(nic)
    from repro.net import NetworkTechnology
    from repro.units import gbps

    tiny_buf = NetworkTechnology(
        name="lossy-gige",
        bandwidth=gbps(1),
        propagation_delay=1e-6,
        switch_latency=4e-6,
        switch_buffer_per_port=8 * 1024,  # absurdly small: forces drops
    )
    switch = build_aggregate_star(
        sim, [(MacAddress(i), nics[i]) for i in range(2)], tech=tiny_buf
    )
    result = {}

    def sender():
        yield stacks[0].send(MacAddress(1), 500_000)
        result["sent"] = sim.now

    def receiver():
        m = yield stacks[1].recv()
        result["got"] = m.nbytes

    sim.process(sender())
    sim.process(receiver())
    sim.run(max_events=5_000_000)
    assert result["got"] == 500_000  # delivered despite drops
    assert switch.total_dropped() > 0
    assert stacks[0].stats.timeouts > 0


def test_per_segment_cpu_cost_charged():
    sim, stacks, nics, _ = make_cluster()

    def sender():
        yield stacks[0].send(MacAddress(1), 1_000_000)

    def receiver():
        yield stacks[1].recv()

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    # Sender burned CPU in the TX path; receiver via interrupt theft.
    send_cpu = stacks[0].cpu
    recv_cpu = stacks[1].cpu
    assert send_cpu.busy_time > 0
    assert recv_cpu.interrupt_time > 0


def test_idle_restart_resets_window():
    cfg = TCPConfig(idle_restart=True, rto=0.05)
    sim, stacks, _, _ = make_cluster(tcp_config=cfg)
    conn_box = {}

    def sender():
        yield stacks[0].send(MacAddress(1), 500_000)
        conn = stacks[0]._send_conns[1]
        conn_box["cwnd_after_bulk"] = conn.cwnd
        yield sim.timeout(1.0)  # long idle
        yield stacks[0].send(MacAddress(1), 1460)
        conn_box["cwnd_after_idle_send"] = conn.cwnd

    def receiver():
        yield stacks[1].recv()
        yield stacks[1].recv()

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert conn_box["cwnd_after_bulk"] > 8
    assert conn_box["cwnd_after_idle_send"] < conn_box["cwnd_after_bulk"]


def test_invalid_sends_rejected():
    sim, stacks, _, _ = make_cluster()
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        stacks[0].send(MacAddress(1), 0)
    with pytest.raises(ProtocolError):
        stacks[0].send(MacAddress(0), 100)  # loopback
