"""Unit tests for the one-switch star (``build_aggregate_star``)."""

import dataclasses

import pytest

from repro.errors import NetworkError
from repro.net import (
    BROADCAST,
    FAST_ETHERNET,
    Frame,
    GIGABIT_ETHERNET,
    HierarchicalFabric,
    MacAddress,
    StarTopology,
    build_aggregate_star,
)
from repro.sim import Simulator


class Station:
    """Minimal FrameDevice for fabric tests."""

    def __init__(self, sim):
        self.sim = sim
        self.wire = None
        self.got = []

    def attach_wire(self, wire):
        self.wire = wire

    def receive_frame(self, frame):
        self.got.append((frame, self.sim.now))

    def send(self, frame):
        self.wire.send(frame)


def make_fabric(sim, n=3, tech=GIGABIT_ETHERNET):
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    switch = build_aggregate_star(sim, list(zip(addrs, stations)), tech=tech)
    return stations, addrs, switch


def test_unicast_reaches_only_destination():
    sim = Simulator()
    stations, addrs, _ = make_fabric(sim)
    stations[0].send(Frame(addrs[0], addrs[2], payload_bytes=1000))
    sim.run()
    assert len(stations[2].got) == 1
    assert stations[1].got == []
    assert stations[0].got == []


def test_store_and_forward_latency():
    sim = Simulator()
    stations, addrs, _ = make_fabric(sim)
    f = Frame(addrs[0], addrs[1], payload_bytes=1500, headers=40)
    stations[0].send(f)
    sim.run()
    t = stations[1].got[0][1]
    bw = GIGABIT_ETHERNET.bandwidth
    expected = (
        f.wire_size / bw  # uplink serialization
        + GIGABIT_ETHERNET.propagation_delay
        + GIGABIT_ETHERNET.switch_latency
        + f.wire_size / bw  # downlink serialization
        + GIGABIT_ETHERNET.propagation_delay
    )
    assert t == pytest.approx(expected, rel=1e-9)


def test_broadcast_fans_out_to_all_but_sender():
    sim = Simulator()
    stations, addrs, _ = make_fabric(sim, n=4)
    stations[1].send(Frame(addrs[1], BROADCAST, payload_bytes=100))
    sim.run()
    assert len(stations[0].got) == 1
    assert len(stations[2].got) == 1
    assert len(stations[3].got) == 1
    assert stations[1].got == []


def test_two_senders_one_destination_serialize_on_output_port():
    sim = Simulator()
    stations, addrs, _ = make_fabric(sim)
    f1 = Frame(addrs[0], addrs[2], payload_bytes=1462, headers=0)  # 1500 wire
    f2 = Frame(addrs[1], addrs[2], payload_bytes=1462, headers=0)
    stations[0].send(f1)
    stations[1].send(f2)
    sim.run()
    t1, t2 = (t for _, t in stations[2].got)
    # Second frame waits for the first to finish the shared downlink.
    assert t2 - t1 == pytest.approx(1500 / GIGABIT_ETHERNET.bandwidth, rel=1e-6)


#: a slow star (1.5 s per 1500-byte frame) with no forwarding delay, so
#: simultaneous senders meet at the egress port with a full backlog
SLOW = dataclasses.replace(
    GIGABIT_ETHERNET, bandwidth=1000.0, propagation_delay=0.0, switch_latency=0.0
)


def test_switch_drops_when_output_buffer_full():
    sim = Simulator()
    tech = dataclasses.replace(SLOW, switch_buffer_per_port=3000)
    stations, addrs, switch = make_fabric(sim, n=6, tech=tech)
    dst = stations[5]
    for s in range(5):
        stations[s].send(Frame(addrs[s], addrs[5], payload_bytes=1462, headers=0))
    sim.run()
    stats = switch.port_stats(5)
    assert stats.frames_dropped == 3
    assert stats.frames_forwarded == 2
    assert len(dst.got) == 2


def test_switch_drop_accounting_with_frame_trains():
    """A dropped train counts every physical frame and its wire bytes in
    ``total_dropped`` / ``total_dropped_bytes``."""
    sim = Simulator()
    tech = dataclasses.replace(SLOW, switch_buffer_per_port=5000)
    stations, addrs, switch = make_fabric(sim, n=5, tech=tech)
    trains = [
        # 4500 wire bytes each
        Frame(addrs[s], addrs[4], payload_bytes=4386, headers=0, frame_count=3)
        for s in range(4)
    ]
    for s, f in enumerate(trains):
        stations[s].send(f)
    sim.run(until=1.0)
    # The 5000-byte budget holds one 4500-byte train; three drop whole.
    assert switch.total_dropped() == 3 * 3
    assert switch.total_dropped_bytes() == pytest.approx(3 * trains[0].wire_size)
    stats = switch.port_stats(4)
    assert stats.frames_dropped == 9
    assert stats.bytes_dropped == pytest.approx(3 * trains[0].wire_size)


def test_no_drops_within_buffer_budget():
    """Section 4.1: no loss while in-flight data fits the buffers."""
    sim = Simulator()
    stations, addrs, switch = make_fabric(sim, n=4)
    # 3 senders put ~114 KiB total at station 3; the GigE per-port buffer
    # is 128 KiB, so nothing may drop.
    for s in range(3):
        for k in range(25):
            stations[s].send(Frame(addrs[s], addrs[3], payload_bytes=1500))
    sim.run()
    assert switch.total_dropped() == 0
    assert len(stations[3].got) == 3 * 25


def test_fast_ethernet_is_ten_times_slower():
    sim = Simulator()
    stations, addrs, _ = make_fabric(sim, tech=FAST_ETHERNET)
    f = Frame(addrs[0], addrs[1], payload_bytes=1500)
    stations[0].send(f)
    sim.run()
    t_fe = stations[1].got[0][1]

    sim2 = Simulator()
    stations2, addrs2, _ = make_fabric(sim2, tech=GIGABIT_ETHERNET)
    stations2[0].send(Frame(addrs2[0], addrs2[1], payload_bytes=1500))
    sim2.run()
    t_ge = stations2[1].got[0][1]
    assert t_fe > 5 * t_ge


def test_unknown_destination_raises():
    sim = Simulator()
    stations, addrs, _ = make_fabric(sim, n=1)
    with pytest.raises(NetworkError, match="no forwarding entry"):
        stations[0].send(Frame(addrs[0], MacAddress(9), payload_bytes=10))


def test_duplicate_addresses_rejected():
    sim = Simulator()
    s1, s2 = Station(sim), Station(sim)
    with pytest.raises(NetworkError):
        build_aggregate_star(sim, [(MacAddress(0), s1), (MacAddress(0), s2)])


def test_empty_fabric_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        build_aggregate_star(sim, [])


def test_switch_invalid_config():
    sim = Simulator()
    with pytest.raises(NetworkError):
        StarTopology(0)
    bw = GIGABIT_ETHERNET.bandwidth
    with pytest.raises(NetworkError):
        HierarchicalFabric(sim, StarTopology(2), bw, buffer_bytes_per_port=0)
    sw = HierarchicalFabric(sim, StarTopology(2), bw)
    with pytest.raises(NetworkError, match="out of range"):
        sw.learn(MacAddress(0), 5)
