"""Tests for the unified telemetry subsystem.

The contracts under test (docs/observability.md):

* the registry's instrument model (kinds, hierarchical names, snapshot),
* busy accumulators agree with analytic bus arithmetic,
* the Perfetto ``trace_event`` export validates and its phase totals
  reproduce the application's reported decomposition,
* **zero cost when disabled**: telemetry never perturbs event counts,
  makespans, or sweep results, and a disabled session is
  indistinguishable from a never-instrumented one,
* determinism: traces and metric snapshots are byte-identical across
  repeated runs and across sweep parallelism (``--jobs N``).
"""

import json

import numpy as np
import pytest

from repro.api import ACEII_PROTOTYPE, Experiment
from repro.telemetry import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    TelemetryError,
    TimeWeighted,
    Timeline,
    instrument_cluster,
    phase_totals_from_trace,
    render_metrics,
    render_snapshot,
    render_utilization,
    to_trace_events,
    validate_trace,
)
from repro.sim import Simulator
from repro.sim.bus import FCFSBus


def _fft_session(nodes=4, rows=32, telemetry=True):
    from repro.apps.fft import inic_fft2d

    g = np.random.default_rng(3)
    m = g.standard_normal((rows, rows)) + 1j * g.standard_normal((rows, rows))
    session = (
        Experiment().nodes(nodes).card(ACEII_PROTOTYPE).telemetry(telemetry).build()
    )
    _, res = inic_fft2d(session.cluster, session.manager, m)
    return session, res


# -- registry ----------------------------------------------------------------------
def test_registry_kinds_and_snapshot():
    r = MetricsRegistry()
    r.counter("a.count", lambda: 3)
    r.gauge("a.level", lambda: 0.5)
    r.busy("a.busy_time", lambda: 1.25)
    assert len(r) == 3
    assert "a.count" in r and "missing" not in r
    assert r.read("a.level") == 0.5
    assert r.snapshot() == {"a.busy_time": 1.25, "a.count": 3, "a.level": 0.5}
    assert list(r.snapshot()) == sorted(r.snapshot())  # deterministic order
    assert [i.name for i in r.instruments("busy")] == ["a.busy_time"]


def test_registry_rejects_duplicates_and_bad_kinds():
    r = MetricsRegistry()
    r.counter("x", lambda: 0)
    with pytest.raises(TelemetryError):
        r.counter("x", lambda: 1)
    with pytest.raises(TelemetryError):
        r.register("y", "histogram", lambda: 0)
    with pytest.raises(TelemetryError):
        r.counter("", lambda: 0)


def test_null_registry_is_inert():
    assert not NULL_REGISTRY.enabled
    n = NullRegistry()
    n.counter("anything", lambda: 1)
    n.busy("anything", lambda: 1)  # duplicate name: still a no-op
    assert len(n) == 0
    assert n.snapshot() == {}


def test_time_weighted_integral_and_peak():
    tw = TimeWeighted()
    tw.update(0.0, 1.0)
    tw.update(2.0, 0.0)  # busy for [0, 2)
    tw.update(3.0, 4.0)  # then 4.0 for [3, 4)
    assert tw.average(4.0) == pytest.approx((2.0 * 1.0 + 1.0 * 4.0) / 4.0)
    assert tw.peak == 4.0


# -- busy accumulators vs analytic values ------------------------------------------
def test_bus_busy_time_matches_analytic_transfer_time():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=1e6, name="testbus")
    r = MetricsRegistry()
    bus.register_telemetry(r, "node0.pci")
    sim.process(bus.transfer_proc(1000))
    sim.process(bus.transfer_proc(500))
    sim.run()
    # 1500 bytes over 1 MB/s, serialized: 1.5 ms of busy time, exactly.
    assert r.read("node0.pci.busy_time") == pytest.approx(1.5e-3)
    assert r.read("node0.pci.bytes") == 1500
    assert r.read("node0.pci.transfers") == 2
    # clamped to the clock — a snapshot can never claim future busy time
    assert r.read("node0.pci.busy_time") <= sim.now


# -- cluster instrumentation -------------------------------------------------------
def test_instrument_cluster_naming_scheme():
    session = Experiment().nodes(2).telemetry(True).build()
    names = session.registry.names()
    for expected in (
        "node0.cpu.busy_time",
        "node0.pci.busy_time",
        "node0.irq.time",
        "node0.irq.delivered",
        "node0.nic.tx_frames",
        "node0.tcp.messages_sent",
        "node1.cpu.busy_time",
        "switch.forwarded",
        "switch.port0.frames",
        "switch.port0.wire.busy_time",
    ):
        assert expected in names, expected


def test_instrument_cluster_inic_naming_scheme():
    session = Experiment().nodes(2).card(ACEII_PROTOTYPE).telemetry(True).build()
    names = session.registry.names()
    for expected in (
        "node0.pci.busy_time",  # maps to the card's host-side bus
        "node0.inic.bus.busy_time",  # ACEII: one shared 132 MB/s bus
        "node0.inic.fpga.config_time",
        "node0.inic.frames_sent",
        "node0.irq.delivered",
        "node1.inic.uplink.busy_time",
    ):
        assert expected in names, expected


def test_instrument_cluster_null_registry_registers_nothing():
    session = Experiment().nodes(2).build()
    registry = instrument_cluster(NULL_REGISTRY, session.cluster)
    assert len(registry) == 0


# -- Perfetto export ---------------------------------------------------------------
def test_trace_export_validates_and_reproduces_decomposition(tmp_path):
    session, res = _fft_session()
    doc = to_trace_events(session.trace, session.registry, now=session.sim.now)
    assert validate_trace(doc) == []

    totals = phase_totals_from_trace(doc)
    assert set(res.breakdown) <= set(totals)
    for phase, expected in res.breakdown.items():
        assert totals[phase] == pytest.approx(expected, rel=0.01), phase

    # the same totals via the Timeline API
    timeline = session.timeline()
    for phase, expected in res.breakdown.items():
        assert timeline.phase_totals()[phase] == pytest.approx(expected)

    path = session.export_trace(str(tmp_path / "trace.json"))
    on_disk = json.load(open(path))
    assert validate_trace(on_disk) == []
    assert len(on_disk["traceEvents"]) == len(doc["traceEvents"])

    # every node's hardware timelines saw PCI, FPGA-config and IRQ work
    metrics = session.metrics()
    for rank in range(4):
        for suffix in ("pci.busy_time", "inic.fpga.config_time", "irq.time"):
            assert metrics[f"node{rank}.{suffix}"] > 0, (rank, suffix)


def test_trace_export_is_byte_deterministic(tmp_path):
    blobs = []
    for i in range(2):
        session, _ = _fft_session()
        path = session.export_trace(str(tmp_path / f"t{i}.json"))
        blobs.append(open(path, "rb").read())
    assert blobs[0] == blobs[1]


def test_validate_trace_flags_malformed_events():
    bad = {
        "traceEvents": [
            {"ph": "Z", "name": "x", "pid": 0, "tid": 0, "ts": 0},
            {"ph": "X", "name": "y", "pid": 0, "tid": 0, "ts": -1.0},
        ]
    }
    assert len(validate_trace(bad)) >= 2


# -- zero cost when disabled -------------------------------------------------------
def test_telemetry_does_not_perturb_simulation():
    on, on_res = _fft_session(telemetry=True)
    off, off_res = _fft_session(telemetry=False)
    assert on.sim.event_count == off.sim.event_count
    assert on_res.makespan == off_res.makespan
    assert off.metrics() == {}
    assert not off.telemetry_enabled


def test_disabled_session_matches_never_instrumented_runner():
    """A sweep point without the telemetry flag must be bit-identical to
    one that never knew telemetry existed (cache-identity contract)."""
    from repro.bench.sweep import _run_sort_des

    params = {"e_init": 1 << 12, "p": 2, "card": "aceii-prototype", "seed": 2}
    plain = _run_sort_des(dict(params))
    assert "metrics" not in plain
    flagged = _run_sort_des({**params, "telemetry": True})
    assert plain["makespan"] == flagged["makespan"]
    assert plain["events"] == flagged["events"]
    assert len(flagged["metrics"]) > 0


def test_sweep_telemetry_identical_serial_vs_parallel(tmp_path):
    """Instrumented points are deterministic across --jobs fan-out."""
    from repro.bench.sweep import PointSpec, SweepEngine

    specs = [
        PointSpec(
            "sort-des",
            f"tel-p{p}",
            {"e_init": 1 << 12, "p": p, "card": "aceii-prototype",
             "seed": 2, "telemetry": True},
        )
        for p in (2, 4)
    ]
    serial = SweepEngine(jobs=1, cache_dir=None).run(specs)
    parallel = SweepEngine(jobs=2, cache_dir=None).run(specs)
    for name in ("tel-p2", "tel-p4"):
        assert serial[name].value == parallel[name].value
        assert serial[name].value["metrics"] == parallel[name].value["metrics"]


# -- rendering ---------------------------------------------------------------------
def test_report_renders_tables():
    session, _ = _fft_session(nodes=2)
    text = session.report()
    assert "timeline over" in text
    assert "node0.pci.busy_time" in text
    assert "instrument" in text


def test_render_helpers_handle_empty_inputs():
    assert render_metrics(MetricsRegistry()) == "(no instruments registered)"
    assert render_snapshot({}) == "(no instruments recorded)"
    assert "empty timeline" in render_utilization(Timeline([], 0.0))


def test_render_snapshot_formats_units_from_names():
    text = render_snapshot(
        {"n.busy_time": 0.0015, "n.bytes": 2048, "n.count": 7}
    )
    assert "1.500 ms" in text
    assert "2.00 KiB" in text
    assert "7" in text
