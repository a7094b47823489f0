"""Focused tests of TCP congestion-control mechanics."""

import pytest

from repro.hw import CPU, CacheLevel, MemoryHierarchy
from repro.net import MacAddress, NetworkTechnology, StandardNIC, build_aggregate_star
from repro.protocols import TCPConfig, TCPStack
from repro.sim import FairShareBus, Simulator
from repro.units import gbps


def build_pair(tcp_config=TCPConfig(), buffer_bytes=128 * 1024):
    sim = Simulator()
    nics, stacks = [], []
    for i in range(2):
        mh = MemoryHierarchy([CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9)])
        cpu = CPU(sim, mh)
        bus = FairShareBus(sim, bandwidth=112e6)
        nic = StandardNIC(sim, MacAddress(i), host_bus=bus, cpu=cpu, name=f"nic{i}")
        stacks.append(TCPStack(sim, nic, cpu, config=tcp_config, name=f"tcp{i}"))
        nics.append(nic)
    tech = NetworkTechnology(
        name="t", bandwidth=gbps(1), propagation_delay=1e-6,
        switch_latency=4e-6, switch_buffer_per_port=buffer_bytes,
    )
    switch = build_aggregate_star(
        sim, [(MacAddress(i), nics[i]) for i in range(2)], tech=tech
    )
    return sim, stacks, nics, switch


def transfer(sim, stacks, nbytes, max_events=5_000_000):
    done = {}

    def sender():
        yield stacks[0].send(MacAddress(1), nbytes)
        done["t"] = sim.now

    def receiver():
        m = yield stacks[1].recv()
        done["n"] = m.nbytes

    sim.process(sender())
    sim.process(receiver())
    sim.run(max_events=max_events)
    return done


def test_slow_start_doubles_window_each_rtt():
    """cwnd growth: after the transfer the window reflects slow start
    having ramped geometrically (well past init_cwnd)."""
    cfg = TCPConfig(init_cwnd=2, init_ssthresh=64)
    sim, stacks, _, _ = build_pair(cfg)
    transfer(sim, stacks, 500_000)
    conn = stacks[0]._send_conns[1]
    assert conn.cwnd >= 64  # reached/passed ssthresh
    assert stacks[0].stats.timeouts == 0


def test_rwnd_caps_flight():
    """The receiver window bounds in-flight bytes regardless of cwnd."""
    cfg = TCPConfig(rwnd=16 * 1024)
    sim, stacks, _, _ = build_pair(cfg)
    peak = []

    def watcher():
        while True:
            conn = stacks[0]._send_conns.get(1)
            if conn is not None:
                peak.append(conn.flight)
            yield sim.timeout(1e-4)

    sim.process(watcher())
    done = {}

    def sender():
        yield stacks[0].send(MacAddress(1), 300_000)
        done["ok"] = True

    def receiver():
        yield stacks[1].recv()

    sim.process(sender())
    sim.process(receiver())
    sim.run(until=5.0)
    assert done.get("ok")
    assert max(peak) <= 16 * 1024


def _build_incast(n, cfg, buffer_bytes):
    sim = Simulator()
    nics, stacks = [], []
    for i in range(n):
        mh = MemoryHierarchy([CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9)])
        cpu = CPU(sim, mh)
        bus = FairShareBus(sim, bandwidth=112e6)
        nic = StandardNIC(sim, MacAddress(i), host_bus=bus, cpu=cpu, name=f"nic{i}")
        stacks.append(TCPStack(sim, nic, cpu, config=cfg, name=f"tcp{i}"))
        nics.append(nic)
    tech = NetworkTechnology(
        name="t", bandwidth=gbps(1), propagation_delay=1e-6,
        switch_latency=4e-6, switch_buffer_per_port=buffer_bytes,
    )
    switch = build_aggregate_star(
        sim, [(MacAddress(i), nics[i]) for i in range(n)], tech=tech
    )
    return sim, stacks, switch


def test_fast_retransmit_triggers_under_incast():
    """Several flows converging on one port lose frames while later
    frames keep arriving — the duplicate-ACK stream triggers fast
    retransmit, and everything still delivers."""
    cfg = TCPConfig(max_quantum=4)
    sim, stacks, switch = _build_incast(4, cfg, buffer_bytes=48 * 1024)
    got = []

    def sender(i):
        yield stacks[i].send(MacAddress(0), 500_000, tag=i)

    def receiver():
        for _ in range(3):
            m = yield stacks[0].recv()
            got.append(m.nbytes)

    for i in (1, 2, 3):
        sim.process(sender(i))
    sim.process(receiver())
    sim.run(max_events=5_000_000)
    assert got == [500_000] * 3
    assert switch.total_dropped() > 0
    assert sum(s.stats.fast_retransmits for s in stacks) >= 1


def test_loss_collapses_and_regrows_window():
    cfg = TCPConfig()
    sim, stacks, _, switch = build_pair(cfg, buffer_bytes=24 * 1024)
    transfer(sim, stacks, 2_000_000)
    conn = stacks[0]._send_conns[1]
    # ssthresh moved below the initial 64 segments after losses.
    assert conn.ssthresh < 64
    assert switch.total_dropped() > 0


def test_small_buffer_throughput_degrades_gracefully():
    """Loss-sawtooth throughput sits below clean-path throughput but
    nowhere near collapse (the AIMD equilibrium)."""
    times = {}
    for label, buf in (("clean", 512 * 1024), ("lossy", 24 * 1024)):
        sim, stacks, _, _ = build_pair(TCPConfig(), buffer_bytes=buf)
        t0 = sim.now
        transfer(sim, stacks, 2_000_000)
        times[label] = sim.now - t0
    assert times["lossy"] > times["clean"]
    assert times["lossy"] < 20 * times["clean"]


def test_stats_track_retransmissions():
    sim, stacks, _, _ = build_pair(TCPConfig(), buffer_bytes=24 * 1024)
    transfer(sim, stacks, 1_000_000)
    stats = stacks[0].stats
    assert stats.retransmitted_frames > 0
    assert stacks[1].stats.bytes_delivered == 1_000_000
    # More frames were sent than the minimum needed (retransmissions).
    assert stats.data_frames_sent > 1_000_000 / 1460
