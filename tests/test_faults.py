"""Tests for deterministic fault injection and loss recovery.

Covers the fault subsystem end to end: spec validation and sweep-param
embedding, per-wire injector determinism, the link/switch/ring/FPGA
hooks, NACK-driven retransmission in the INIC protocol,
``TransferAborted`` on budget exhaustion, graceful degradation
to the host-TCP path, and the serial-vs-parallel determinism of lossy
sweep points.
"""

import dataclasses

import pytest

from repro.core import Experiment, protocol_processor_design
from repro.errors import (
    ConfigurationError,
    FaultConfigError,
    TransferAborted,
)
from repro.faults import (
    ComponentFaultSpec,
    CORRUPT,
    DELIVER,
    DROP,
    FaultPlan,
    FaultSpec,
    NO_FAULTS,
    WireFault,
)
from repro.inic import SendBlock
from repro.inic.card import IDEAL_INIC
from repro.net import Frame, MacAddress, Wire
from repro.protocols import TransferPlan
from repro.sim import Simulator


def _recovery(card, retries=8):
    """Card spec with NACK/retransmit recovery enabled."""
    return dataclasses.replace(
        card, proto=dataclasses.replace(card.proto, max_retries=retries)
    )


def _acc(n, card=IDEAL_INIC, faults=None):
    session = Experiment().nodes(n).card(card).faults(faults).build()
    return session.cluster, session.manager


# -- FaultSpec: validation + sweep embedding ---------------------------------------


def test_fault_spec_validates_rates_and_scales():
    with pytest.raises(FaultConfigError):
        FaultSpec(loss_rate=1.5)
    with pytest.raises(FaultConfigError):
        FaultSpec(corrupt_rate=-0.1)
    with pytest.raises(FaultConfigError):
        FaultSpec(config_failure_rate=2.0)
    with pytest.raises(FaultConfigError):
        FaultSpec(switch_buffer_scale=0.0)
    with pytest.raises(FaultConfigError):
        FaultSpec(rx_ring_scale=-1.0)
    with pytest.raises(FaultConfigError):
        FaultSpec(outages=((-1.0, 2.0),))
    with pytest.raises(FaultConfigError):
        FaultSpec(outages=((0.0, 0.0),))


def test_fault_spec_params_roundtrip():
    spec = FaultSpec(
        seed=9, loss_rate=0.01, outages=((0.1, 0.2),), wires="fabric.up*"
    )
    assert FaultSpec.from_params(spec.to_params()) == spec
    assert NO_FAULTS.to_params() is None
    assert FaultSpec.from_params(None) == NO_FAULTS
    with pytest.raises(FaultConfigError):
        FaultSpec.from_params({"loss_rate": 0.1, "bogus": 1})


def test_fault_spec_enabled_flags():
    assert not NO_FAULTS.enabled
    assert FaultSpec(loss_rate=0.1).enabled
    assert FaultSpec(loss_rate=0.1).link_faults
    assert FaultSpec(config_failure_rate=0.5).enabled
    assert not FaultSpec(config_failure_rate=0.5).link_faults
    # A disabled spec never produces a runtime plan.
    assert FaultPlan.from_params(None) is None
    assert FaultPlan.from_params(FaultSpec(loss_rate=0.2).to_params()) is not None


# -- WireFault / FaultPlan: determinism and hooks ----------------------------------


def _feed(fault, n=200):
    f = Frame(MacAddress(0), MacAddress(1), payload_bytes=1500, frame_count=3)
    return [fault.disposition(f, t * 1e-4) for t in range(n)]


def test_wire_fault_decisions_are_seed_deterministic():
    spec = FaultSpec(seed=5, loss_rate=0.1, corrupt_rate=0.05)
    a, b = WireFault(spec, "fabric.up0"), WireFault(spec, "fabric.up0")
    assert _feed(a) == _feed(b)
    assert a.log == b.log
    assert a.frames_dropped == b.frames_dropped > 0
    # A different wire name is a different stream.
    c = WireFault(spec, "fabric.up1")
    assert _feed(c) != _feed(a)


def test_wire_fault_outage_drops_everything_inside_window():
    fault = WireFault(FaultSpec(outages=((0.01, 0.02),)), "w")
    f = Frame(MacAddress(0), MacAddress(1), payload_bytes=100)
    assert fault.disposition(f, 0.005) == DELIVER
    assert fault.disposition(f, 0.015) == DROP
    assert fault.disposition(f, 0.031) == DELIVER


def test_outage_window_validation_follows_convention():
    """Bad windows carry value, position, and the rule broken."""
    with pytest.raises(FaultConfigError, match=r"outages\[0\] is "):
        FaultSpec(outages=((0.1, -0.1),))
    with pytest.raises(FaultConfigError, match="must be sorted by start"):
        FaultSpec(outages=((0.2, 0.1), (0.1, 0.05)))
    with pytest.raises(FaultConfigError, match="must not overlap"):
        FaultSpec(outages=((0.1, 0.2), (0.2, 0.1)))
    # A zero-length gap is explicitly legal: back-to-back windows.
    spec = FaultSpec(outages=((0.1, 0.1), (0.2, 0.1)))
    assert spec.outages == ((0.1, 0.1), (0.2, 0.1))


def test_component_fault_spec_validation_and_roundtrip():
    with pytest.raises(FaultConfigError, match="non-empty name"):
        ComponentFaultSpec("")
    with pytest.raises(FaultConfigError, match="choose from switch, uplink"):
        ComponentFaultSpec("spine0", windows=((0.0, 1.0),), kind="router")
    with pytest.raises(FaultConfigError, match="at least one"):
        ComponentFaultSpec("spine0", windows=())
    with pytest.raises(FaultConfigError, match="must not overlap"):
        ComponentFaultSpec("spine0", windows=((0.0, 2.0), (1.0, 1.0)))
    spec = ComponentFaultSpec("up3", windows=((1e-3, 2e-3),), kind="uplink")
    assert ComponentFaultSpec.from_params(spec.to_json()) == spec
    with pytest.raises(FaultConfigError, match="unknown component fault field"):
        ComponentFaultSpec.from_params({"component": "up3", "mttr": 1.0})


def test_fault_spec_rejects_duplicate_components():
    with pytest.raises(FaultConfigError, match="duplicate component fault"):
        FaultSpec(
            components=(
                ComponentFaultSpec("spine0", windows=((0.0, 1.0),)),
                ComponentFaultSpec("spine0", windows=((2.0, 1.0),)),
            )
        )
    # Same name under a different kind is a different component.
    FaultSpec(
        components=(
            ComponentFaultSpec("x", windows=((0.0, 1.0),)),
            ComponentFaultSpec("x", windows=((0.0, 1.0),), kind="uplink"),
        )
    )


def test_fault_spec_component_params_roundtrip():
    spec = FaultSpec(
        seed=4,
        detection_delay=1e-4,
        components=(
            ComponentFaultSpec("spine1", windows=((1e-3, 2e-3),)),
            ComponentFaultSpec("up0", windows=((0.0, 1e-3),), kind="uplink"),
        ),
    )
    assert spec.enabled
    assert not spec.link_faults  # components are not link faults
    assert FaultSpec.from_params(spec.to_params()) == spec
    with pytest.raises(FaultConfigError, match="detection_delay"):
        FaultSpec(detection_delay=-1.0)


def test_outage_boundary_at_exact_serialization_instant():
    """A window is half-open [start, start+dur): a frame handed to the
    wire at exactly the outage start is dropped; one at exactly the
    repair instant is delivered."""
    fault = WireFault(FaultSpec(outages=((0.01, 0.02),)), "w")
    f = Frame(MacAddress(0), MacAddress(1), payload_bytes=100)
    assert fault.disposition(f, 0.01) == DROP
    assert fault.disposition(f, 0.03) == DELIVER


def test_back_to_back_outage_windows_leave_no_gap():
    fault = WireFault(
        FaultSpec(outages=((0.01, 0.01), (0.02, 0.01))), "w"
    )
    f = Frame(MacAddress(0), MacAddress(1), payload_bytes=100)
    assert fault.disposition(f, 0.0199999) == DROP
    assert fault.disposition(f, 0.02) == DROP  # the seam instant
    assert fault.disposition(f, 0.0200001) == DROP
    assert fault.disposition(f, 0.03) == DELIVER


def test_outage_drop_accounting_matches_unbatched_runs():
    """A coalesced train dropped in an outage counts frame_count frames
    — identical totals to feeding the frames unbatched."""
    spec = FaultSpec(outages=((0.0, 1.0),))
    batched = WireFault(spec, "w")
    train = Frame(
        MacAddress(0), MacAddress(1), payload_bytes=1500, frame_count=3
    )
    assert batched.disposition(train, 0.5) == DROP
    single = WireFault(spec, "w")
    one = Frame(MacAddress(0), MacAddress(1), payload_bytes=1500)
    for _ in range(3):
        assert single.disposition(one, 0.5) == DROP
    assert batched.frames_dropped == single.frames_dropped == 3


def test_fault_plan_wire_pattern_and_resource_hooks():
    plan = FaultPlan(
        FaultSpec(
            loss_rate=0.1,
            wires="fabric.up*",
            switch_buffer_scale=0.5,
            rx_ring_scale=0.001,
        )
    )
    assert plan.wire_fault("fabric.up0") is not None
    assert plan.wire_fault("fabric.down0") is None
    # Hooks are cached per wire (one stream per component).
    assert plan.wire_fault("fabric.up0") is plan.wire_fault("fabric.up0")
    assert plan.switch_buffer(128 * 1024) == 64 * 1024
    assert plan.rx_ring_depth(256) == 1  # floor of 1 descriptor


def test_config_attempt_draws_are_fresh_and_deterministic():
    spec = FaultSpec(seed=3, config_failure_rate=0.5)
    a, b = FaultPlan(spec), FaultPlan(spec)
    draws = [a.config_attempt_fails("inic0", k) for k in range(20)]
    assert draws == [b.config_attempt_fails("inic0", k) for k in range(20)]
    # Retrying is a fresh draw, not a replay: both outcomes appear.
    assert True in draws and False in draws
    always = FaultPlan(FaultSpec(config_failure_rate=1.0))
    never = FaultPlan(FaultSpec(config_failure_rate=0.0))
    assert all(always.config_attempt_fails("inic0", k) for k in range(4))
    assert not any(never.config_attempt_fails("inic0", k) for k in range(4))


# -- Wire-level injection ----------------------------------------------------------


class ScriptedFault:
    """Test injector with a fixed disposition script (then DELIVER)."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def disposition(self, frame, now):
        return self.verdicts.pop(0) if self.verdicts else DELIVER


class _Sink:
    def __init__(self):
        self.got = []

    def receive_frame(self, frame):
        self.got.append(frame)


def test_wire_drop_delivers_nothing_and_burns_no_time():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1e9)
    sink = _Sink()
    wire.attach(sink)
    wire.install_fault(ScriptedFault([DROP]))
    wire.send(Frame(MacAddress(0), MacAddress(1), payload_bytes=1000))
    wire.send(Frame(MacAddress(0), MacAddress(1), payload_bytes=1000))
    sim.run()
    assert len(sink.got) == 1  # second frame survives
    assert wire.frames_sent == 1


def test_wire_corrupt_burns_serialization_time_without_delivery():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1e6)
    sink = _Sink()
    wire.attach(sink)
    wire.install_fault(ScriptedFault([CORRUPT]))
    f = Frame(MacAddress(0), MacAddress(1), payload_bytes=1000)
    wire.send(f)
    sim.run()
    assert sink.got == []
    assert wire.busy_time == pytest.approx(f.wire_size / 1e6)


def test_wire_rejects_second_injector():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1e9)
    wire.install_fault(ScriptedFault([]))
    from repro.errors import LinkError

    with pytest.raises(LinkError):
        wire.install_fault(ScriptedFault([]))


# -- INIC protocol recovery --------------------------------------------------------


def _scatter_gather(cluster, manager, nbytes):
    """One rank0 -> rank1 transfer; returns the receiver process."""
    sim = cluster.sim
    card0 = manager.driver(0).card

    def sender():
        op = card0.post_scatter(1, [SendBlock(MacAddress(1), nbytes)])
        yield op.sent

    def receiver():
        plan = TransferPlan(sim, {0: nbytes})
        op = manager.driver(1).card.post_gather(1, plan)
        yield op.done

    sim.process(sender())
    return sim.process(receiver())


def test_inic_transfer_recovers_from_loss_via_nacks():
    # 5% per-train loss: drops are certain over ~queue-depth trains but
    # each NACK round (bounded by the 64 KiB flow window) heals faster
    # than new losses accumulate, so recovery converges well inside the
    # retry budget.
    faults = FaultSpec(seed=11, loss_rate=0.05)
    cluster, manager = _acc(2, card=_recovery(IDEAL_INIC), faults=faults)
    manager.configure_all(protocol_processor_design)
    p = _scatter_gather(cluster, manager, 256 * 1024)
    cluster.sim.run(until=p, max_events=10_000_000)
    counters = cluster.fault_plan.link_counters()
    assert counters["frames_dropped"] > 0
    cards = [n.require_inic() for n in cluster.nodes]
    assert sum(c.stats.nacks_sent for c in cards) >= 1
    assert sum(c.stats.retransmits for c in cards) >= 1
    assert sum(c.stats.transfer_aborts for c in cards) == 0


def test_inic_gather_aborts_when_retry_budget_exhausted():
    cluster, manager = _acc(2, card=_recovery(IDEAL_INIC, retries=2))
    manager.configure_all(protocol_processor_design)
    sim = cluster.sim
    plan = TransferPlan(sim, {0: 10_000})  # nobody will send this
    op = manager.driver(1).card.post_gather(9, plan)

    def waiter():
        yield op.done

    p = sim.process(waiter())
    with pytest.raises(TransferAborted):
        sim.run(until=p, max_events=10_000_000)
    assert manager.driver(1).card.stats.transfer_aborts == 1
    assert manager.driver(1).card.stats.nacks_sent >= 2


def test_inic_recovery_run_is_deterministic():
    def run():
        faults = FaultSpec(seed=4, loss_rate=0.1)
        cluster, manager = _acc(
            2, card=_recovery(IDEAL_INIC), faults=faults
        )
        manager.configure_all(protocol_processor_design)
        p = _scatter_gather(cluster, manager, 128 * 1024)
        cluster.sim.run(until=p, max_events=10_000_000)
        return cluster.sim.now, cluster.sim.event_count, (
            cluster.fault_plan.schedule()
        )

    assert run() == run()


# -- FPGA configuration failure and graceful degradation ---------------------------


def test_manager_raises_after_bounded_config_retries():
    faults = FaultSpec(seed=1, config_failure_rate=1.0)
    cluster, manager = _acc(2, faults=faults)
    with pytest.raises(ConfigurationError):
        manager.configure_all(protocol_processor_design)
    # Every card burned its full retry budget (2 attempts each).
    assert manager.config_failures() == 4


def test_config_failures_pay_reconfiguration_time():
    faults = FaultSpec(seed=1, config_failure_rate=1.0)
    cluster, manager = _acc(2, faults=faults)
    with pytest.raises(ConfigurationError):
        manager.configure_all(protocol_processor_design)
    assert cluster.sim.now > 0  # failed loads are not free


def test_sort_runner_degrades_to_host_tcp_on_config_failure():
    from repro.bench.sweep import _run_sort_des

    res = _run_sort_des(
        {
            "e_init": 1 << 14,
            "p": 2,
            "card": "aceii-prototype",
            "seed": 2,
            "faults": FaultSpec(seed=7, config_failure_rate=1.0).to_params(),
            "retries": 2,
        }
    )
    assert res["fallbacks"] == 1
    assert res["aborted"] is False
    assert res["faults"]["config_failures"] == 4  # 2 nodes x 2 attempts
    assert res["makespan"] > 0
    # The degraded run must still cost more than a clean baseline: the
    # wasted bitstream-load attempts are charged on top.
    clean = _run_sort_des({"e_init": 1 << 14, "p": 2, "card": None, "seed": 2})
    assert res["makespan"] > clean["makespan"]


# -- Sweep integration: zero-fault identity and parallel determinism ---------------


def test_zero_fault_runner_results_keep_legacy_shape():
    from repro.bench.sweep import _run_sort_des

    res = _run_sort_des(
        {"e_init": 1 << 14, "p": 2, "card": "aceii-prototype", "seed": 2}
    )
    # no fault counters on the zero-fault path; every fabric reports hops
    assert set(res) == {"makespan", "events", "hops"}


def test_fault_suite_runs_the_lossy_plan_once_per_fabric():
    """The default star already runs the largest loss rate as a
    loss-rate row, so the fabric rows cover only the other topologies."""
    from repro.bench.harness import Scale
    from repro.bench.sweep import fault_points

    names = [s.name for s in fault_points(Scale.ci())]
    assert names == [
        "sort-faults-loss0",
        "sort-faults-loss0.001",
        "sort-faults-loss0.01",
        "sort-faults-fpga",
        "sort-faults-fattree",
        "sort-faults-torus",
    ]


def test_figfaults_leaves_aborted_points_off_the_makespan_curve():
    """An aborted transfer's makespan is its abort time: figfaults flags
    the point instead of plotting it as a completion."""
    from repro.bench.figures import _figfaults_build, _figfaults_specs
    from repro.bench.harness import Scale
    from repro.bench.sweep import PointResult

    scale = Scale.ci()
    values = {
        0.0: {"makespan": 0.01, "events": 1},
        0.001: {"makespan": 0.02, "events": 1, "aborted": False,
                "faults": {"retransmits": 3, "frames_dropped": 4}},
        0.01: {"makespan": 2.5, "events": 1, "aborted": True,
               "faults": {"retransmits": 8, "frames_dropped": 90}},
    }
    results = {
        spec.name: PointResult(spec, values[rate], 0.0, 1, False)
        for spec, rate in zip(_figfaults_specs(scale), scale.loss_rates)
    }
    exp = _figfaults_build(scale, results)
    makespan = exp.series_named("INIC sort makespan (s)")
    assert makespan.x == [0.0, 0.001]
    assert makespan.y == [0.01, 0.02]
    assert exp.series_named("aborted").y == [0.0, 0.0, 1.0]
    assert exp.series_named("retransmits").y == [0.0, 3.0, 8.0]
    assert any("aborted" in note and "0.01" in note for note in exp.notes)


def test_fault_suite_zero_loss_point_shares_perf_identity():
    from repro.bench.harness import Scale
    from repro.bench.sweep import fault_points, perf_points

    scale = Scale.ci()
    loss0 = next(
        s for s in fault_points(scale) if s.name == "sort-faults-loss0"
    )
    assert "faults" not in loss0.params
    p = loss0.params["p"]
    twin = next(
        s for s in perf_points(scale) if s.name == f"sort-inic-p{p}"
    )
    assert loss0.spec_hash == twin.spec_hash  # same cache entry


def test_lossy_point_identical_serial_and_parallel():
    from repro.bench.sweep import PointSpec, SweepEngine

    faults = FaultSpec(seed=7, loss_rate=0.01).to_params()
    specs = [
        PointSpec(
            "sort-des",
            f"det-loss-p{p}",
            {
                "e_init": 1 << 14,
                "p": p,
                "card": "aceii-prototype",
                "seed": 2,
                "faults": faults,
                "retries": 8,
            },
        )
        for p in (2, 4)
    ]
    serial = SweepEngine(jobs=1, cache_dir=None).run(specs)
    parallel = SweepEngine(jobs=2, cache_dir=None).run(specs)
    for name in ("det-loss-p2", "det-loss-p4"):
        assert serial[name].value == parallel[name].value
