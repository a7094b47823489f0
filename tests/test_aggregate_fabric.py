"""Unit tests for the aggregated scale-out fabric.

The aggregate fabric is the O(ports) busy-until model behind
``ClusterSpec.fabric == "aggregate"``: a :class:`HierarchicalFabric`
over the one-switch :class:`StarTopology`, and ``ClusterSpec``'s default
fabric.  These tests pin its timing against the star's closed form
(``tests/star_oracle.py``), its tail-drop accounting, and its
per-uplink fault injection.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.faults import ComponentFaultSpec, FaultSpec, FaultPlan, WireFault
from repro.faults.campaign import fabric_components
from repro.net import (
    BROADCAST,
    Frame,
    GIGABIT_ETHERNET,
    HierarchicalFabric,
    MacAddress,
    StarTopology,
    build_aggregate_star,
)
from repro.net.topology import build_fattree, build_torus
from repro.sim import Simulator
from tests.star_oracle import lone_frame_arrival


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


def make_fabric(n=3, tech=GIGABIT_ETHERNET, builder=build_aggregate_star):
    sim = Simulator()
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), tech=tech)
    return sim, stations, addrs, fabric


def test_unicast_timing_matches_wire_star():
    """An uncontended frame arrives at the star's closed-form time
    (:func:`tests.star_oracle.lone_frame_arrival`), float for float."""
    sim, stations, addrs, fabric = make_fabric()
    frame = Frame(addrs[0], addrs[2], payload_bytes=1500, headers=40)
    stations[0].send(frame)
    sim.run()
    assert len(stations[2].got) == 1
    assert stations[1].got == []
    assert isinstance(fabric, HierarchicalFabric)
    assert fabric.topology.kind == "star"
    assert fabric.hop_stats()["max_hops"] == 1
    assert stations[2].got[0][1] == lone_frame_arrival(0.0, frame.wire_size)


def test_output_port_serializes_two_senders():
    sim, stations, addrs, fabric = make_fabric()
    f = lambda src: Frame(addrs[src], addrs[2], payload_bytes=1460, headers=40)
    stations[0].send(f(0))
    stations[1].send(f(1))
    sim.run()
    (first, t1), (second, t2) = stations[2].got
    tx = first.wire_size / GIGABIT_ETHERNET.bandwidth
    # Second frame queues behind the first on port 2: exactly one more
    # serialization time, no more and no less.
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)
    assert fabric.port_stats(2).frames_forwarded == 2
    assert fabric.port_stats(2).max_queue_bytes > first.wire_size


def test_uplink_serializes_back_to_back_sends():
    sim, stations, addrs, _ = make_fabric()
    for _ in range(2):
        stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=1000))
    sim.run()
    (_, t1), (_, t2) = stations[1].got
    tx = stations[1].got[0][0].wire_size / GIGABIT_ETHERNET.bandwidth
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)
    assert stations[0].wire.frames_sent == 2
    assert stations[0].wire.utilization(sim.now) > 0.0


def test_broadcast_fans_out_to_all_but_sender():
    sim, stations, addrs, fabric = make_fabric(n=4)
    stations[1].send(Frame(addrs[1], BROADCAST, payload_bytes=100))
    sim.run()
    assert [len(s.got) for s in stations] == [1, 0, 1, 1]
    assert fabric.total_forwarded() == 3


def test_backlog_past_port_buffer_tail_drops():
    sim, stations, addrs, fabric = make_fabric()
    n = 200  # 200 * ~1538B wire >> the 128 KiB per-port buffer
    for _ in range(n):
        stations[0].send(Frame(addrs[0], addrs[2], payload_bytes=1460, headers=40))
        stations[1].send(Frame(addrs[1], addrs[2], payload_bytes=1460, headers=40))
    sim.run()
    stats = fabric.port_stats(2)
    assert stats.frames_dropped > 0
    assert stats.frames_forwarded + stats.frames_dropped == 2 * n
    assert len(stations[2].got) == stats.frames_forwarded
    assert fabric.total_dropped() == stats.frames_dropped
    assert fabric.total_dropped_bytes() == stats.bytes_dropped
    # Forwarded backlog never exceeded the buffer.
    assert stats.max_queue_bytes <= fabric.buffer_bytes_per_port


def make_fault_fabric(spec, n=3):
    sim = Simulator()
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    plan = FaultPlan(spec)
    fabric = build_aggregate_star(sim, list(zip(addrs, stations)), faults=plan)
    return sim, stations, addrs, fabric, plan


def test_fault_plan_installs_per_uplink_injectors():
    """A fault plan composes with the aggregate fabric: losses are drawn
    from named per-uplink streams (``fabric.up<i>``)."""
    spec = FaultSpec(loss_rate=0.5, seed=11)
    sim, stations, addrs, fabric, plan = make_fault_fabric(spec)
    n = 100
    for _ in range(n):
        stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=1000))
    sim.run()
    counters = plan.link_counters()
    assert counters["frames_dropped"] > 0
    assert len(stations[1].got) == n - counters["frames_dropped"]
    # The stream is per-uplink and named after the uplink: same seed,
    # same name => identical decision sequence.
    ref = WireFault(spec, "fabric.up0")
    got = [d for _, d, _ in plan.schedule()["fabric.up0"]]
    want = []
    f = Frame(addrs[0], addrs[1], payload_bytes=1000)
    for _ in range(len(got)):
        while ref.disposition(f, 0.0) == "deliver":
            pass
        want.append(ref.log[-1][1])
    assert got == want


def test_fault_outage_window_drops_everything():
    spec = FaultSpec(outages=((0.0, 1.0),), seed=3)
    sim, stations, addrs, fabric, plan = make_fault_fabric(spec)
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=500))
    sim.run()
    assert stations[1].got == []
    assert plan.link_counters()["frames_dropped"] == 1


def test_fault_corrupt_burns_uplink_time():
    """A corrupted transfer occupies the uplink (delaying the next send)
    but is never delivered — mirroring Wire.send's CRC semantics."""
    spec = FaultSpec(corrupt_rate=1.0, seed=5)
    sim, stations, addrs, fabric, plan = make_fault_fabric(spec)
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=1000))
    sim.run()
    assert stations[1].got == []
    uplink = stations[0].wire
    assert uplink.busy_time > 0.0
    assert uplink.frames_sent == 0  # never made it past the CRC
    assert plan.link_counters()["frames_corrupted"] == 1


def test_fault_buffer_pressure_scales_port_budget():
    spec = FaultSpec(switch_buffer_scale=0.5, seed=1, loss_rate=1e-9)
    sim, stations, addrs, fabric, plan = make_fault_fabric(spec)
    assert fabric.buffer_bytes_per_port == pytest.approx(
        GIGABIT_ETHERNET.switch_buffer_per_port * 0.5
    )


def test_zero_fault_plan_is_byte_identical():
    """Building with faults=None and with no plan at all produce the
    same arrival times (no injector hooks, no perturbation)."""
    times = []
    for faults in (None, None):
        sim, stations, addrs, fabric = make_fabric()
        stations[0].send(Frame(addrs[0], addrs[2], payload_bytes=1500))
        sim.run()
        times.append(stations[2].got[0][1])
    assert times[0] == times[1]


def test_builder_validates_stations():
    sim = Simulator()
    with pytest.raises(NetworkError):
        build_aggregate_star(sim, [])
    s = [Station(sim), Station(sim)]
    dup = [(MacAddress(1), s[0]), (MacAddress(1), s[1])]
    with pytest.raises(NetworkError, match="duplicate"):
        build_aggregate_star(sim, dup)
    with pytest.raises(NetworkError):
        StarTopology(0)
    with pytest.raises(NetworkError):
        HierarchicalFabric(sim, StarTopology(2), bandwidth=-1.0)


def test_unknown_destination_raises():
    sim, stations, addrs, _ = make_fabric(n=2)
    with pytest.raises(NetworkError, match="no forwarding entry"):
        stations[0].send(Frame(addrs[0], MacAddress(99), payload_bytes=64))


def test_telemetry_surface_matches_switch_naming():
    """The star registers under the ``switch.*`` names the cluster
    instruments (``switch.forwarded``, ``switch.port<i>.*``)."""
    from repro.telemetry import MetricsRegistry

    sim, stations, addrs, fabric = make_fabric(n=2)
    registry = MetricsRegistry()
    fabric.register_telemetry(registry, "switch")
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=500))
    sim.run()
    snap = registry.snapshot()
    assert snap["switch.forwarded"] == 1
    assert snap["switch.drops"] == 0
    assert snap["switch.port1.frames"] == 1
    assert snap["switch.port1.bytes"] > 500
    # the egress port's busy time is its serialization time
    assert snap["switch.port1.busy_time"] == pytest.approx(
        snap["switch.port1.bytes"] / GIGABIT_ETHERNET.bandwidth
    )


# -- bulk flow-clock admission (repro.net.flowclock) ------------------------
def test_bulk_train_admission_matches_frame_level():
    """The exchange pattern replayed bulk vs frame-level: every arrival
    float and the conservation ledger must be identical."""
    from tests.test_identities import _exchange

    ref, ref_ledger, _ = _exchange(build_aggregate_star, {}, bulk=False)
    got, ledger, fabric = _exchange(build_aggregate_star, {}, bulk=True)
    assert got == ref
    assert ledger == ref_ledger
    assert fabric.trains_fast > 0


def test_bulk_train_tail_drop_boundary_matches():
    """The exchange's incast burst overflows one egress buffer inside a
    train; which frames survive (and the drop ledger) must not depend
    on the admission path."""
    from tests.test_identities import _exchange

    ref, ref_ledger, _ = _exchange(build_aggregate_star, {}, bulk=False)
    got, ledger, _ = _exchange(build_aggregate_star, {}, bulk=True)
    assert ref_ledger["frames_dropped"] > 0
    assert ledger == ref_ledger
    assert got == ref


def test_component_arming_mid_train_degrades_remainder_exactly():
    """A component-fault window arming between admission slices sends
    the train's remainder frame-level; arrivals still match an
    all-frame-level replay exactly and nothing is lost."""
    from repro.net.flowclock import ADMIT_SLICE

    spans = []
    for bulk in (False, True):
        sim, stations, addrs, fabric = make_fabric(n=4)
        frames = [
            Frame(addrs[0], addrs[1], payload_bytes=1000, headers=8)
            for _ in range(8)
        ]
        times = [i * ADMIT_SLICE / 2 for i in range(8)]
        if bulk:
            fabric.uplink(0).send_train(frames, times)
        else:
            for frame, t in zip(frames, times):
                sim.call_after(t, fabric._send, fabric.uplink(0), frame)
        sim.call_after(
            1.25 * ADMIT_SLICE, setattr, fabric, "_faults_armed", True
        )
        sim.run()
        counters = fabric.conservation_counters()
        assert counters["frames_in"] == 8
        assert counters["frames_delivered"] == 8
        spans.append([t for _, t in stations[1].got])
    assert spans[0] == spans[1]


def test_zero_length_train_is_a_no_op():
    sim, stations, addrs, fabric = make_fabric()
    assert fabric.uplink(0).send_train([], []) == sim.now
    sim.run()
    assert fabric.trains_fast == 0
    assert all(st.got == [] for st in stations)


def test_train_length_mismatch_rejected():
    sim, stations, addrs, fabric = make_fabric()
    frame = Frame(addrs[0], addrs[1], payload_bytes=64)
    with pytest.raises(ValueError, match="train mismatch"):
        fabric.uplink(0).send_train([frame], [0.0, 1.0])


def _guard_failover_drops(fabric) -> None:
    """Wrap ``fabric._route_deliver`` so every frame blackholed at a dead
    clock is checked: the dead clock and every clock past it on the
    route keep their busy-until and forwarded counts."""
    deliver = fabric._route_deliver

    def checked(src_port, dst_port, frame, arrival, tx_time):
        busy = list(fabric._clock_busy)
        forwarded = [s.frames_forwarded for s in fabric._stats]
        drops = fabric._failover_drops
        out = deliver(src_port, dst_port, frame, arrival, tx_time)
        if fabric._failover_drops > drops:
            hops = fabric._routes[fabric._key_base[src_port] + dst_port]
            dead = next(
                i for i, k in enumerate(hops) if k in fabric._failed_clocks
            )
            for k in hops[dead:]:
                assert fabric._clock_busy[k] == busy[k]
                assert fabric._stats[k].frames_forwarded == forwarded[k]
        return out

    fabric._route_deliver = checked


class _TrainStation(Station):
    """A station that also takes delivery groups from bulk admission."""

    def receive_train(self, frames, times):
        self.got.extend(zip(frames, times))


@pytest.mark.parametrize(
    "builder,kind",
    [
        pytest.param(build_aggregate_star, "aggregate", id="aggregate"),
        pytest.param(build_fattree, "fattree", id="fattree"),
        pytest.param(build_torus, "torus", id="torus"),
    ],
)
@settings(max_examples=40, deadline=None)
@given(
    sends=st.lists(
        st.tuples(
            st.integers(0, 3),  # source station
            st.integers(0, 4),  # destination station; 4 = broadcast
            st.integers(0, 1500),  # payload bytes
            st.floats(0.0, 2e-4),  # send time
        ),
        max_size=120,
    ),
    trains=st.lists(
        st.tuples(
            st.integers(0, 3),  # source station
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 1500)),
                min_size=1,
                max_size=12,
            ),  # (destination, payload bytes) per frame
            st.floats(0.0, 2e-4),  # train start
            st.floats(0.0, 2e-5),  # spacing between the train's frames
        ),
        max_size=6,
    ),
    window=st.none()
    | st.tuples(
        st.integers(0, 63),  # which failable component (mod their count)
        st.floats(0.0, 2e-4),  # window start, after the first frame
        st.floats(1e-6, 2e-4),  # window duration
        st.floats(0.0, 3e-4),  # detection_delay
    ),
    buffer_frames=st.integers(1, 8),
)
def test_star_conserves_frames_under_random_schedules(
    builder, kind, sends, trains, window, buffer_frames
):
    """Any frame schedule, contended or not, with buffers from one frame
    up, on every busy-until fabric (four stations span two fat-tree
    leaves and a 2x1x2 torus): every frame that reached forwarding is
    delivered or dropped.  Some frames go as trains through
    ``send_train`` (bulk admission, delivered in groups), and an
    optional component window fails one of the fabric's failable
    components, so a route can die at any of its hops; a frame dropped
    there must leave the dead clock and every clock past it untouched."""
    sim = Simulator()
    stations = [_TrainStation(sim) for _ in range(4)]
    addrs = [MacAddress(i) for i in range(4)]
    tech = dataclasses.replace(
        GIGABIT_ETHERNET, switch_buffer_per_port=buffer_frames * 1538.0
    )
    fabric = builder(sim, list(zip(addrs, stations)), tech=tech)
    _guard_failover_drops(fabric)
    if window is not None:
        pick, start, duration, detect = window
        components = fabric_components(kind, 4)
        name, comp_kind = components[pick % len(components)]
        fabric.install_component_faults(
            FaultPlan(
                FaultSpec(
                    components=(
                        ComponentFaultSpec(
                            name, windows=((start, duration),), kind=comp_kind
                        ),
                    ),
                    detection_delay=detect,
                )
            )
        )
    for src, dst, size, at in sends:
        to = BROADCAST if dst == 4 else addrs[dst]
        frame = Frame(addrs[src], to, payload_bytes=size, headers=40)
        sim.call_after(at, stations[src].send, frame)
    for src, entries, at, gap in trains:
        frames = [
            Frame(addrs[src], addrs[dst], payload_bytes=size, headers=40)
            for dst, size in entries
        ]

        def fire(wire=stations[src].wire, frames=frames, gap=gap):
            now = sim.now
            wire.send_train(frames, [now + i * gap for i in range(len(frames))])

        sim.call_after(at, fire)
    sim.run()
    ledger = fabric.conservation_counters()
    assert ledger["frames_in"] == (
        ledger["frames_delivered"]
        + ledger["frames_dropped"]
        + ledger["partition_drops"]
    )
    assert ledger["frames_delivered"] == sum(len(s.got) for s in stations)
