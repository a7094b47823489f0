"""Component-failure and adaptive-reroute tests.

Pins the tentpole contracts of the switch/uplink failure model:

* **Fat-tree failover** — flows hashed to a dead spine are blackholed
  during the detection window (charged, counted), then rehash
  deterministically over the surviving spines; repair restores the
  exact zero-failure routes.
* **Torus detour** — routes crossing a failed router walk the
  fault-tolerant next-hop table; destinations on a dead router are
  partition-dropped at routing time, never silently lost.
* **Uplink windows** — a dead uplink drops everything its station
  offers, on both the aggregate star and the hierarchical fabrics.
* **Workload-relative schedules** — component windows arm at the
  fabric's first frame, so setup phases (INIC configuration) never
  consume the outage schedule.
* **Conservation** — every fabric's frame ledger balances through
  failures: in == delivered + dropped + partition-dropped.
"""

import pytest

from repro.errors import NetworkError
from repro.faults import ComponentFaultSpec, FaultPlan, FaultSpec
from repro.net import Frame, MacAddress, build_aggregate_star
from repro.net.topology import build_fattree, build_torus
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


def make_fabric(builder, n=16, components=(), detection_delay=0.0, **opts):
    sim = Simulator()
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    if components:
        plan = FaultPlan(
            FaultSpec(
                components=components, detection_delay=detection_delay
            )
        )
        fabric.install_component_faults(plan)
    return sim, stations, addrs, fabric


def frame(addrs, src, dst, payload=1500, count=1):
    return Frame(
        addrs[src], addrs[dst], payload_bytes=payload, frame_count=count
    )


def ledger_balances(fabric) -> bool:
    c = fabric.conservation_counters()
    return c["frames_in"] == (
        c["frames_delivered"] + c["frames_dropped"] + c["partition_drops"]
    )


# -- fat-tree failover -------------------------------------------------------


def test_fattree_failover_rehashes_dead_spine_flows():
    # n=16: 4 leaves x 4 ports, 4 spines; dst=5 hashes to spine 1.
    sim, stations, addrs, fabric = make_fabric(
        build_fattree,
        components=(ComponentFaultSpec("spine1", windows=((0.0, 1.0),)),),
    )
    stations[0].send(frame(addrs, 0, 5))
    sim.run(until=0.5)
    assert len(stations[5].got) == 1  # rehashed, not dropped
    counters = fabric.component_counters()
    assert counters["reroutes"] == 1
    assert counters["failover_drops"] == 0
    assert ledger_balances(fabric)


def test_fattree_detection_window_drops_then_fails_over():
    sim, stations, addrs, fabric = make_fabric(
        build_fattree,
        components=(ComponentFaultSpec("spine1", windows=((0.0, 4e-3),)),),
        detection_delay=1e-3,
    )
    # Inside the detection window: routing still points at spine1, the
    # frame is blackholed at the dead clock and charged there.
    stations[0].send(frame(addrs, 0, 5))
    sim.run(until=2e-3)
    assert stations[5].got == []
    counters = fabric.component_counters()
    assert counters["failover_drops"] == 1
    assert fabric.total_dropped() == 1  # lands in a clock's PortStats
    # After detection: the same flow rehashes to a surviving spine.
    stations[0].send(frame(addrs, 0, 5))
    sim.run(until=3e-3)
    assert len(stations[5].got) == 1
    assert fabric.component_counters()["reroutes"] == 1
    assert ledger_balances(fabric)


def test_fattree_repair_restores_default_routes():
    sim, stations, addrs, fabric = make_fabric(
        build_fattree,
        components=(ComponentFaultSpec("spine1", windows=((0.0, 1e-3),)),),
    )
    stations[0].send(frame(addrs, 0, 5))  # during outage: rerouted
    sim.run(until=5e-3)  # past repair
    stations[0].send(frame(addrs, 0, 5))  # after repair: default path
    sim.run()
    assert len(stations[5].got) == 2
    assert fabric.component_counters()["reroutes"] == 1  # second frame not
    assert fabric.component_counters()["transitions"] == 2
    key = fabric._key_base[0] + 5
    assert fabric._routes[key] == fabric.topology.route(0, 5)
    assert ledger_balances(fabric)


def test_fattree_all_spines_dead_partitions_interleaf_traffic():
    comps = tuple(
        ComponentFaultSpec(f"spine{s}", windows=((0.0, 1.0),))
        for s in range(4)
    )
    sim, stations, addrs, fabric = make_fabric(
        build_fattree, components=comps
    )
    stations[0].send(frame(addrs, 0, 5))   # cross-leaf: unreachable
    stations[0].send(frame(addrs, 0, 1))   # same leaf: unaffected
    sim.run(until=0.5)
    assert stations[5].got == []
    assert len(stations[1].got) == 1
    counters = fabric.component_counters()
    assert counters["partition_drops"] == 1
    assert ledger_balances(fabric)


def test_failover_drop_accounting_weights_frame_trains():
    """A coalesced train dropped at a dead clock counts every frame it
    carries — batched and un-batched runs agree on drop totals."""
    sim, stations, addrs, fabric = make_fabric(
        build_fattree,
        components=(ComponentFaultSpec("spine1", windows=((0.0, 4e-3),)),),
        detection_delay=2e-3,
    )
    stations[0].send(frame(addrs, 0, 5, count=3))
    sim.run(until=1e-3)
    assert fabric.component_counters()["failover_drops"] == 3
    assert fabric.total_dropped() == 3
    assert ledger_balances(fabric)


def test_mid_route_failover_drop_leaves_later_clocks_untouched():
    """A frame blackholed at a dead spine walks only the hops before it:
    the dead clock and every clock past it keep their busy-until and
    their forwarded counts, so a frame crossing the same clocks just
    after repair arrives exactly when it would have on a fabric that
    never failed."""
    # n=16: 4 leaves x 4 ports, 4 spines; dst=5 hashes to spine 1.
    # Detection never fires inside the 5 us window: the frame is dropped.
    sim, stations, addrs, fabric = make_fabric(
        build_fattree,
        components=(ComponentFaultSpec("spine1", windows=((0.0, 5e-6),)),),
        detection_delay=1e-3,
    )
    up, spine_down, egress = fabric.topology.route(0, 5)
    stations[0].send(frame(addrs, 0, 5))
    assert fabric.component_counters()["failover_drops"] == 1
    assert fabric._clock_busy[up] > 0.0  # the live hop was crossed
    for clock in (spine_down, egress):
        assert fabric._clock_busy[clock] == 0.0
        assert fabric.clock_stats(clock).frames_forwarded == 0
    assert fabric.clock_stats(spine_down).frames_dropped == 1
    # After repair (5 us), a frame from another leaf crosses the same
    # spine downlink while the dropped frame would still occupy it.
    sim.call_after(6e-6, stations[8].send, frame(addrs, 8, 5))
    sim.run()
    assert len(stations[5].got) == 1

    ref_sim, ref_stations, ref_addrs, _ = make_fabric(build_fattree)
    ref_sim.call_after(6e-6, ref_stations[8].send, frame(ref_addrs, 8, 5))
    ref_sim.run()
    assert stations[5].got[0][1] == ref_stations[5].got[0][1]
    assert ledger_balances(fabric)


# -- torus detour / partition ------------------------------------------------


def test_torus_detours_around_failed_router():
    # n=8 -> 2x2x2; station0 -> station3 routes x-then-y through router1.
    sim, stations, addrs, fabric = make_fabric(
        build_torus,
        n=8,
        components=(ComponentFaultSpec("router1", windows=((0.0, 1.0),)),),
    )
    assert any(
        h // 7 == 1 for h in fabric.topology.route(0, 3)
    ), "precondition: default route crosses router1"
    stations[0].send(frame(addrs, 0, 3))
    sim.run(until=0.5)
    assert len(stations[3].got) == 1
    counters = fabric.component_counters()
    assert counters["reroutes"] == 1
    assert counters["partition_drops"] == 0
    assert ledger_balances(fabric)


def test_torus_partition_drops_traffic_to_dead_router():
    sim, stations, addrs, fabric = make_fabric(
        build_torus,
        n=8,
        components=(ComponentFaultSpec("router1", windows=((0.0, 1.0),)),),
    )
    stations[0].send(frame(addrs, 0, 1))  # station1 sits on router1
    sim.run(until=0.5)
    assert stations[1].got == []
    assert fabric.component_counters()["partition_drops"] == 1
    assert ledger_balances(fabric)


def test_torus_repair_reconverges_to_dimension_order():
    sim, stations, addrs, fabric = make_fabric(
        build_torus,
        n=8,
        components=(ComponentFaultSpec("router1", windows=((0.0, 1e-3),)),),
    )
    stations[0].send(frame(addrs, 0, 3))
    sim.run(until=5e-3)
    stations[0].send(frame(addrs, 0, 3))
    sim.run()
    assert len(stations[3].got) == 2
    key = fabric._key_base[0] + 3
    assert fabric._routes[key] == fabric.topology.route(0, 3)
    assert ledger_balances(fabric)


# -- uplink windows ----------------------------------------------------------


def test_aggregate_uplink_window_drops_then_recovers():
    sim, stations, addrs, fabric = make_fabric(
        build_aggregate_star,
        n=4,
        components=(
            ComponentFaultSpec("up1", windows=((0.0, 1e-3),), kind="uplink"),
        ),
    )
    stations[1].send(frame(addrs, 1, 0))  # inside the window: vanishes
    sim.run(until=2e-3)
    assert stations[0].got == []
    stations[1].send(frame(addrs, 1, 0))  # after repair: delivered
    sim.run()
    assert len(stations[0].got) == 1
    counters = fabric.component_counters()
    assert counters["uplink_drops"] == 1
    assert counters["transitions"] == 2
    assert ledger_balances(fabric)


def test_hierarchical_uplink_window_drops_at_the_nic():
    sim, stations, addrs, fabric = make_fabric(
        build_fattree,
        components=(
            ComponentFaultSpec("up0", windows=((0.0, 1e-3),), kind="uplink"),
        ),
    )
    stations[0].send(frame(addrs, 0, 5))
    sim.run(until=2e-3)
    assert stations[5].got == []
    assert fabric.component_counters()["uplink_drops"] == 1
    # The frame never reached routing, so the ledger holds trivially.
    assert ledger_balances(fabric)


# -- workload-relative schedules ---------------------------------------------


def test_component_windows_arm_at_first_fabric_frame():
    """Window starts count from the first frame the fabric carries, not
    from simulation time zero — a long idle setup phase (INIC bitstream
    configuration in the real runner) must not consume the schedule."""
    sim, stations, addrs, fabric = make_fabric(
        build_fattree,
        components=(ComponentFaultSpec("spine1", windows=((1e-3, 1e-3),)),),
    )
    # First traffic only at t=5ms; absolute-time semantics would have
    # expired the window at 2ms and the flow would keep its default path.
    sim.call_after(5e-3, stations[0].send, frame(addrs, 0, 5))
    sim.call_after(6.5e-3, stations[0].send, frame(addrs, 0, 5))
    sim.run()
    assert len(stations[5].got) == 2
    assert fabric.component_counters()["reroutes"] == 1  # second frame
    assert ledger_balances(fabric)


def test_faulted_runs_are_deterministic():
    def run_once():
        sim, stations, addrs, fabric = make_fabric(
            build_fattree,
            components=(
                ComponentFaultSpec("spine1", windows=((0.0, 4e-3),)),
            ),
            detection_delay=1e-3,
        )
        for t in (0.0, 2e-3, 6e-3):
            sim.call_after(t, stations[0].send, frame(addrs, 0, 5))
        sim.run()
        arrivals = [t for _, t in stations[5].got]
        return arrivals, fabric.component_counters()

    assert run_once() == run_once()


# -- loud rejection ----------------------------------------------------------


def test_aggregate_rejects_switch_components():
    sim, stations, addrs, fabric = make_fabric(build_aggregate_star, n=4)
    plan = FaultPlan(
        FaultSpec(
            components=(ComponentFaultSpec("spine0", windows=((0.0, 1.0),)),)
        )
    )
    with pytest.raises(NetworkError, match="cannot fail switch component"):
        fabric.install_component_faults(plan)


@pytest.mark.parametrize(
    "builder, bad, expected",
    [
        (build_fattree, "spine99", "choose from"),
        (build_fattree, "leaf0", "choose from"),
        (build_torus, "router99", "choose from"),
        (build_fattree, "up99", "choose from up0"),
    ],
)
def test_unknown_component_names_are_rejected_loudly(builder, bad, expected):
    kind = "uplink" if bad.startswith("up") else "switch"
    sim, stations, addrs, fabric = make_fabric(builder, n=8)
    plan = FaultPlan(
        FaultSpec(
            components=(
                ComponentFaultSpec(bad, windows=((0.0, 1.0),), kind=kind),
            )
        )
    )
    with pytest.raises(NetworkError, match=expected):
        fabric.install_component_faults(plan)
