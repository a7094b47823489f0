"""Unit tests for the hierarchical fabrics (fat-tree, torus).

Pins the three contracts ``repro.net.topology`` makes:

* **Low-load star equivalence** — an uncontended frame arrives at the
  star's closed-form time (``tests/star_oracle.py``) on the one-switch
  busy-until star, the fat-tree, and the torus (the scattered-traffic
  contract at n=64 is
  ``tests/test_identities.py::test_low_load_arrivals_match_wire_star``).
* **Routing geometry** — deterministic spine selection, dimension-
  ordered torus routing with shortest-wrap at the boundaries.
* **Edge cases across fabric kinds** — duplicate addresses, port
  exhaustion, zero-byte frames, fault composition, telemetry naming.
"""

import pytest

from repro.errors import NetworkError
from repro.faults import FaultSpec, FaultPlan
from repro.net import (
    BROADCAST,
    Frame,
    GIGABIT_ETHERNET,
    MacAddress,
    build_aggregate_star,
)
from repro.net.topology import (
    FatTreeTopology,
    TorusTopology,
    build_fattree,
    build_torus,
    torus_dims,
)
from repro.sim import Simulator
from tests.star_oracle import lone_frame_arrival

ALL_BUILDERS = [build_aggregate_star, build_fattree, build_torus]
HIER_BUILDERS = [build_fattree, build_torus]


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


def make_fabric(builder, n=8, **opts):
    sim = Simulator()
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    return sim, stations, addrs, fabric


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_uncontended_unicast_matches_wire_star(builder):
    """Reference: the star's closed form
    (:func:`tests.star_oracle.lone_frame_arrival`)."""
    sim, stations, addrs, _ = make_fabric(builder, n=8)
    frame = Frame(addrs[0], addrs[7], payload_bytes=1500, headers=40)
    stations[0].send(frame)
    sim.run()
    assert len(stations[7].got) == 1
    assert stations[7].got[0][1] == lone_frame_arrival(0.0, frame.wire_size)


# -- routing geometry --------------------------------------------------------


def test_fattree_routes_are_deterministic_and_well_formed():
    topo = FatTreeTopology(64, oversub=2)
    assert topo.n_leaves * topo.leaf_ports >= 64
    for src in range(64):
        for dst in range(64):
            if src == dst:
                continue
            hops = topo.route(src, dst)
            assert hops == topo.route(src, dst)  # no ECMP jitter
            assert hops[-1] == dst  # egress clock is the station port
            same_leaf = src // topo.leaf_ports == dst // topo.leaf_ports
            assert len(hops) == (1 if same_leaf else 3)


def test_fattree_same_spine_for_same_destination():
    """Traffic to one destination always crosses one spine — the
    deterministic ECMP-free choice the docstring promises."""
    topo = FatTreeTopology(64, leaf_ports=8)
    dst = 42
    spines = set()
    for src in range(64):
        if src // 8 == dst // 8:
            continue
        hops = topo.route(src, dst)
        spines.add((hops[1] - topo._spine_base) // topo.n_leaves)
    assert len(spines) == 1


def test_torus_dims_factorizations():
    assert torus_dims(1024) == (8, 8, 16)
    assert torus_dims(64) == (4, 4, 4)
    assert torus_dims(8) == (2, 2, 2)
    assert torus_dims(1) == (1, 1, 1)
    x, y, z = torus_dims(96)
    assert x * y * z == 96


def test_torus_wraparound_takes_shorter_direction():
    """At a dimension boundary the route wraps instead of walking the
    long way: 0 -> 7 on an 8-wide ring is one negative-x hop."""
    topo = TorusTopology(512, dims=(8, 8, 8))
    hops = topo.route(0, 7)  # coords (0,0,0) -> (7,0,0)
    # one x- hop from router 0, then eject at router 7
    assert hops == (0 * 7 + 1, 7 * 7 + 6)
    # 0 -> 4 is distance 4 both ways; ties break positive: 4 x+ hops.
    hops = topo.route(0, 4)
    assert len(hops) == 5
    assert all(h % 7 == 0 for h in hops[:-1])  # all x+ direction clocks


def test_torus_dimension_ordered_xyz():
    topo = TorusTopology(64, dims=(4, 4, 4))
    # (0,0,0) -> (1,1,1): one hop per axis, in X, Y, Z order.
    dst = 1 + 4 * (1 + 4 * 1)
    hops = topo.route(0, dst)
    dirs = [h % 7 for h in hops[:-1]]
    assert dirs == [0, 2, 4]  # x+, y+, z+
    assert hops[-1] == dst * 7 + 6


def test_torus_wrap_contention_is_modelled():
    """Two flows that share the wrap link contend there: the second
    frame arrives one serialization time after the first."""
    sim, stations, addrs, fabric = make_fabric(build_torus, n=8, dims=(8, 1, 1))
    # 0->7 and 1->7: 0 wraps x- (link router0.x-), 1 routes 1->0->7 so
    # its second hop crosses router0.x- too.
    f = lambda src: Frame(addrs[src], addrs[7], payload_bytes=1460, headers=40)
    stations[0].send(f(0))
    stations[1].send(f(1))
    sim.run()
    (first, t1), (second, t2) = stations[7].got
    tx = first.wire_size / GIGABIT_ETHERNET.bandwidth
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)


def test_fattree_shared_spine_link_serializes():
    """Two cross-leaf flows to the same destination share the spine
    downlink and the egress port; arrivals space by one tx time."""
    sim, stations, addrs, fabric = make_fabric(
        build_fattree, n=9, leaf_ports=3
    )
    f = lambda src: Frame(addrs[src], addrs[8], payload_bytes=1460, headers=40)
    stations[0].send(f(0))  # leaf 0
    stations[3].send(f(3))  # leaf 1
    sim.run()
    (first, t1), (_, t2) = stations[8].got
    tx = first.wire_size / GIGABIT_ETHERNET.bandwidth
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)


# -- edge cases across all fabric kinds --------------------------------------


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_duplicate_station_addresses_rejected(builder):
    sim = Simulator()
    s = [Station(sim), Station(sim)]
    dup = [(MacAddress(1), s[0]), (MacAddress(1), s[1])]
    with pytest.raises(NetworkError, match="duplicate"):
        builder(sim, dup)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_empty_station_list_rejected(builder):
    with pytest.raises(NetworkError):
        builder(Simulator(), [])


def test_fattree_port_exhaustion():
    with pytest.raises(NetworkError, match="out of ports"):
        FatTreeTopology(10, leaf_ports=3, leaves=3)
    sim = Simulator()
    stations = [(MacAddress(i), Station(sim)) for i in range(10)]
    with pytest.raises(NetworkError, match="out of ports"):
        build_fattree(sim, stations, leaf_ports=3, leaves=3)


def test_torus_port_exhaustion():
    with pytest.raises(NetworkError, match="out of ports"):
        TorusTopology(9, dims=(2, 2, 2))
    sim = Simulator()
    stations = [(MacAddress(i), Station(sim)) for i in range(9)]
    with pytest.raises(NetworkError, match="out of ports"):
        build_torus(sim, stations, dims=(2, 2, 2))


def test_bad_topology_parameters():
    with pytest.raises(NetworkError, match="oversub"):
        FatTreeTopology(8, oversub=0)
    with pytest.raises(NetworkError, match="leaf_ports"):
        FatTreeTopology(8, leaf_ports=0)
    with pytest.raises(NetworkError, match="three positive"):
        TorusTopology(8, dims=(2, 4))
    with pytest.raises(NetworkError, match="three positive"):
        TorusTopology(8, dims=(2, -2, 2))


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_zero_byte_frames_deliver_everywhere(builder):
    """A zero-payload frame still pads to the Ethernet minimum and
    arrives on every fabric kind."""
    sim, stations, addrs, _ = make_fabric(builder, n=4)
    stations[0].send(Frame(addrs[0], addrs[3], payload_bytes=0, headers=8))
    sim.run()
    assert len(stations[3].got) == 1
    frame, t = stations[3].got[0]
    assert frame.payload_bytes == 0
    assert frame.wire_size > 0  # padded to MIN_FRAME_PAYLOAD + overhead
    assert t > 0.0


def test_zero_byte_frame_times_agree_across_kinds():
    times = set()
    for builder in ALL_BUILDERS:
        sim, stations, addrs, _ = make_fabric(builder, n=4)
        frame = Frame(addrs[0], addrs[3], payload_bytes=0, headers=8)
        stations[0].send(frame)
        sim.run()
        times.add(stations[3].got[0][1])
    assert times == {lone_frame_arrival(0.0, frame.wire_size)}


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_broadcast_fans_out(builder):
    sim, stations, addrs, fabric = make_fabric(builder, n=6)
    stations[2].send(Frame(addrs[2], BROADCAST, payload_bytes=100))
    sim.run()
    assert [len(s.got) for s in stations] == [1, 1, 0, 1, 1, 1]
    assert fabric.total_forwarded() == 5


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_unknown_destination_raises(builder):
    sim, stations, addrs, _ = make_fabric(builder, n=2)
    with pytest.raises(NetworkError, match="no forwarding entry"):
        stations[0].send(Frame(addrs[0], MacAddress(99), payload_bytes=64))


# -- fault composition -------------------------------------------------------


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_fault_plan_composes_with_hierarchical_fabrics(builder):
    sim = Simulator()
    n = 4
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    plan = FaultPlan(FaultSpec(loss_rate=0.5, seed=9))
    fabric = builder(sim, list(zip(addrs, stations)), faults=plan)
    sent = 200
    for _ in range(sent):
        stations[0].send(Frame(addrs[0], addrs[3], payload_bytes=500))
    sim.run()
    dropped = plan.link_counters()["frames_dropped"]
    assert dropped > 0
    assert len(stations[3].got) == sent - dropped


def test_fault_streams_identical_across_fabric_kinds():
    """Same seed, same uplink names => the drop pattern is the same
    frame indices on the aggregate star and on both hierarchies."""
    patterns = []
    for builder in (build_aggregate_star, build_fattree, build_torus):
        sim = Simulator()
        stations = [Station(sim) for _ in range(4)]
        addrs = [MacAddress(i) for i in range(4)]
        plan = FaultPlan(FaultSpec(loss_rate=0.3, seed=21))
        builder(sim, list(zip(addrs, stations)), faults=plan)
        got = []
        for i in range(100):
            stations[0].send(
                Frame(addrs[0], addrs[2], payload_bytes=500, meta={"i": i})
            )
        sim.run()
        got = sorted(f.meta["i"] for f, _ in stations[2].got)
        patterns.append(tuple(got))
    assert patterns[0] == patterns[1] == patterns[2]


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_fault_buffer_pressure_applies(builder):
    sim = Simulator()
    stations = [(MacAddress(i), Station(sim)) for i in range(4)]
    plan = FaultPlan(FaultSpec(switch_buffer_scale=0.25, seed=1, loss_rate=1e-9))
    fabric = builder(sim, stations, faults=plan)
    assert fabric.buffer_bytes_per_port == pytest.approx(
        GIGABIT_ETHERNET.switch_buffer_per_port * 0.25
    )


# -- statistics & telemetry --------------------------------------------------


def test_hop_stats_accounting():
    sim, stations, addrs, fabric = make_fabric(build_fattree, n=9, leaf_ports=3)
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=100))  # same leaf: 1
    stations[0].send(Frame(addrs[0], addrs[8], payload_bytes=100))  # cross: 3
    sim.run()
    hs = fabric.hop_stats()
    assert hs["frames"] == 2
    assert hs["total_hops"] == 4
    assert hs["max_hops"] == 3
    assert hs["avg_hops"] == pytest.approx(2.0)


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_telemetry_surface_is_star_compatible_plus_switches(builder):
    from repro.telemetry import MetricsRegistry

    sim, stations, addrs, fabric = make_fabric(builder, n=4)
    registry = MetricsRegistry()
    fabric.register_telemetry(registry, "switch")
    stations[0].send(Frame(addrs[0], addrs[3], payload_bytes=500))
    sim.run()
    snap = registry.snapshot()
    assert snap["switch.forwarded"] == 1
    assert snap["switch.drops"] == 0
    assert snap["switch.port3.frames"] == 1
    assert snap["switch.port3.bytes"] > 500
    assert snap["switch.hops"] >= 1
    assert snap["switch.avg_hops"] >= 1.0
    sw_frames = [v for k, v in snap.items() if k.endswith(".frames") and ".sw." in k]
    assert sum(sw_frames) >= 1  # per-switch aggregates present and live


def test_port_stats_resolve_to_egress_clock():
    sim, stations, addrs, fabric = make_fabric(build_torus, n=8)
    stations[0].send(Frame(addrs[0], addrs[5], payload_bytes=700))
    sim.run()
    assert fabric.port_stats(5).frames_forwarded == 1
    assert fabric.port_stats(0).frames_forwarded == 0
    name = fabric.topology.clock_name(fabric._egress_clock[5])
    assert name.endswith("eject")


def test_fattree_clock_names():
    topo = FatTreeTopology(9, leaf_ports=3)
    assert topo.clock_name(0) == "leaf0.down0"
    assert topo.clock_name(4) == "leaf1.down1"
    up0 = topo._up_base
    assert topo.clock_name(up0).startswith("leaf0.up")
    assert topo.clock_name(topo._spine_base).startswith("spine0.down")
    names = {topo.clock_name(c) for c in range(topo.n_clocks)}
    assert len(names) == topo.n_clocks  # all distinct


# -- builder/spec integration ------------------------------------------------


def test_cluster_spec_fabric_options_roundtrip():
    from repro.cluster.builder import ClusterSpec, FABRIC_KINDS

    spec = ClusterSpec(n_nodes=16).with_fabric("fattree", oversub=2)
    assert spec.fabric == "fattree"
    assert spec.fabric_options == (("oversub", 2),)
    with pytest.raises(ValueError, match="unknown fabric 'mesh'"):
        ClusterSpec(n_nodes=2, fabric="mesh")
    with pytest.raises(ValueError, match="choose from"):
        ClusterSpec(n_nodes=2, fabric="mesh")
    # "wire" is not a fabric kind: it fails like any other unknown name
    with pytest.raises(
        ValueError,
        match=r"unknown fabric 'wire' .*\(choose from aggregate, fattree, torus\)",
    ):
        ClusterSpec(n_nodes=2, fabric="wire")
    assert FABRIC_KINDS == ("aggregate", "fattree", "torus")
    assert ClusterSpec(n_nodes=2).fabric == "aggregate"
    with pytest.raises(ValueError, match="only valid for hierarchical"):
        ClusterSpec(
            n_nodes=2, fabric="aggregate", fabric_options=(("oversub", 2),)
        )
    # an option the fabric's builder does not take fails at spec time,
    # naming the option, the fabric and the builder's own option names
    with pytest.raises(
        ValueError,
        match=r"unknown fabric option 'oversub' for fabric='torus' "
        r"\(choose from dims\)",
    ):
        ClusterSpec(n_nodes=8).with_fabric("torus", oversub=2)
    with pytest.raises(ValueError, match="choose from leaf_ports, leaves, oversub"):
        ClusterSpec(n_nodes=8).with_fabric("fattree", dims=(2, 2, 2))
    # list-valued options become tuples so the frozen spec stays hashable
    spec = ClusterSpec(n_nodes=8).with_fabric("torus", dims=[2, 2, 2])
    assert spec.fabric_options == (("dims", (2, 2, 2)),)
    hash(spec.fabric_options)


def test_experiment_facade_builds_hierarchical_cluster():
    from repro.core.api import Experiment
    from repro.net.topology import HierarchicalFabric

    session = Experiment().nodes(16).fabric("fattree", oversub=2).build()
    assert isinstance(session.cluster.switch, HierarchicalFabric)
    assert session.cluster.switch.topology.oversub == 2
    session = Experiment().nodes(8).fabric("torus", dims=(2, 2, 2)).build()
    assert session.cluster.switch.topology.dims == (2, 2, 2)
    with pytest.raises(ValueError, match="choose from aggregate, fattree, torus"):
        Experiment().nodes(2).fabric("wire").build()


def test_scale_by_name_error_names_choices():
    from repro.bench.harness import Scale
    from repro.errors import ApplicationError

    with pytest.raises(ApplicationError, match="unknown scale 'huge'"):
        Scale.by_name("huge")
    with pytest.raises(ApplicationError, match="bench, ci, large, paper"):
        Scale.by_name("huge")
    assert Scale.by_name("large").topologies == ("fattree", "torus")
