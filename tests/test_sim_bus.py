"""Unit tests for the bus models (repro.sim.bus)."""

import pytest

from repro.errors import BusError
from repro.sim import FCFSBus, FairShareBus, Simulator


# --- FCFSBus -----------------------------------------------------------------
def test_fcfs_single_transfer_time():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)  # 100 B/s
    done = bus.transfer(250.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.5)


def test_fcfs_serializes_transfers():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)
    t1 = bus.transfer(100.0)  # 0..1
    t2 = bus.transfer(100.0)  # 1..2
    finish = []

    def watch(ev, tag):
        yield ev
        finish.append((tag, sim.now))

    sim.process(watch(t1, "t1"))
    sim.process(watch(t2, "t2"))
    sim.run()
    assert finish == [("t1", 1.0), ("t2", 2.0)]


def test_fcfs_arbitration_latency():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0, arbitration_latency=0.5)
    done = bus.transfer(100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.5)


def test_fcfs_reserve_starts_no_earlier_than_not_before():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0, arbitration_latency=0.5)
    assert bus.reserve(100.0) == (0.0, 1.5)
    # data ready after the bus frees: the claim waits for the data
    assert bus.reserve(100.0, not_before=4.0) == (4.0, 5.5)
    # data ready before the bus frees: FIFO behind the previous claim
    assert bus.reserve(200.0, 2, not_before=1.0) == (5.5, 8.5)
    assert bus.stats.transfer_count == 4
    assert bus.stats.busy_time == 6.0
    # transfer() is a one-transaction reserve plus its completion event
    done = bus.transfer(100.0)
    sim.run(until=done)
    assert sim.now == 10.0
    assert bus.stats.transfer_count == 5


def test_fcfs_rejects_zero_bytes():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)
    with pytest.raises(BusError):
        bus.transfer(0)


def test_fcfs_stats():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)
    bus.transfer(100.0)
    bus.transfer(300.0)
    sim.run()
    assert bus.stats.transfer_count == 2
    assert bus.stats.bytes_transferred == pytest.approx(400.0)
    assert bus.stats.busy_time == pytest.approx(4.0)
    assert bus.stats.utilization(4.0) == pytest.approx(1.0)


def test_fcfs_invalid_bandwidth():
    sim = Simulator()
    with pytest.raises(BusError):
        FCFSBus(sim, bandwidth=0.0)


# --- FairShareBus --------------------------------------------------------------
def test_fairshare_single_flow_full_rate():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    done = bus.transfer(200.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.0)


def test_fairshare_two_equal_flows_half_rate():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    t1 = bus.transfer(100.0)
    t2 = bus.transfer(100.0)
    finish = []

    def watch(ev, tag):
        yield ev
        finish.append((tag, sim.now))

    sim.process(watch(t1, "t1"))
    sim.process(watch(t2, "t2"))
    sim.run()
    # Both progress at 50 B/s -> both finish at t=2.
    assert finish[0][1] == pytest.approx(2.0)
    assert finish[1][1] == pytest.approx(2.0)


def test_fairshare_late_joiner_slows_first_flow():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    times = {}

    def flow(tag, start, nbytes):
        yield sim.timeout(start)
        yield bus.transfer(nbytes)
        times[tag] = sim.now

    # Flow A: 150 B starting at t=0. Flow B: 50 B starting at t=1.
    # t=0..1   : A alone at 100 B/s -> A has 50 left.
    # t=1..2   : A and B at 50 B/s -> B done at t=2, A has 0 left -> also t=2.
    sim.process(flow("a", 0.0, 150.0))
    sim.process(flow("b", 1.0, 50.0))
    sim.run()
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(2.0)


def test_fairshare_rate_cap_respected():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    done = bus.transfer(100.0, rate_cap=25.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(4.0)


def test_fairshare_cap_surplus_goes_to_uncapped_flow():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    times = {}

    def flow(tag, nbytes, cap):
        yield bus.transfer(nbytes, rate_cap=cap)
        times[tag] = sim.now

    # Capped flow takes 20 B/s; other flow gets the remaining 80 B/s.
    sim.process(flow("capped", 20.0, 20.0))
    sim.process(flow("free", 80.0, float("inf")))
    sim.run()
    assert times["capped"] == pytest.approx(1.0)
    assert times["free"] == pytest.approx(1.0)


def test_fairshare_conservation_of_bytes():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=123.0)
    total = 0.0
    for nbytes in (10.0, 200.0, 33.0, 77.0):
        bus.transfer(nbytes)
        total += nbytes
    sim.run()
    assert bus.stats.bytes_transferred == pytest.approx(total)


def test_fairshare_sequential_transfers_full_rate_each():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)

    def proc():
        yield bus.transfer(100.0)
        t1 = sim.now
        yield bus.transfer(100.0)
        return (t1, sim.now)

    p = sim.process(proc())
    t1, t2 = sim.run(until=p)
    assert t1 == pytest.approx(1.0)
    assert t2 == pytest.approx(2.0)


def test_fairshare_arbitration_latency_delays_start():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0, arbitration_latency=0.25)
    done = bus.transfer(100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.25)


def test_fairshare_busy_time_accounting():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)

    def proc():
        yield bus.transfer(100.0)
        yield sim.timeout(5.0)  # idle gap
        yield bus.transfer(100.0)

    sim.process(proc())
    sim.run()
    assert bus.stats.busy_time == pytest.approx(2.0)


def test_fairshare_many_flows_determinism():
    def run_once():
        sim = Simulator()
        bus = FairShareBus(sim, bandwidth=1000.0)
        times = []

        def flow(start, nbytes):
            yield sim.timeout(start)
            yield bus.transfer(nbytes)
            times.append(round(sim.now, 9))

        for i in range(20):
            sim.process(flow(i * 0.01, 100.0 + i))
        sim.run()
        return times

    assert run_once() == run_once()
