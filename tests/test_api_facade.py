"""Tests for the ``repro.api`` experiment facade and config conventions.

Covers the builder's order-independence (and the matching
``ClusterSpec.with_*`` chaining regression), the process registration
surface (``Experiment().process`` / ``Session.spawn`` / ``Session.env``),
the removal of the deprecated ``build_acc``/``build_beowulf`` wrappers,
the repo-wide config naming normalization (``max_retries`` / ``timeout``
/ ``seed``), and the shared ``to_json``/``from_json`` round-trip convention.
"""

import numpy as np
import pytest

from repro.api import (
    ACEII_PROTOTYPE,
    ClusterSpec,
    Experiment,
    FAST_ETHERNET,
    FaultSpec,
    IDEAL_INIC,
    Session,
)
from repro.config import ConfigError
from repro.core.manager import INICManager
from repro.errors import FaultConfigError
from repro.net.batching import BatchPolicy
from repro.protocols import INICProtoConfig, RawConfig


FAULTS = FaultSpec(seed=5, loss_rate=0.01)


# -- builder chaining --------------------------------------------------------------
def test_experiment_chaining_is_order_independent():
    a = Experiment().nodes(4).card(ACEII_PROTOTYPE).faults(FAULTS).seed(7)
    b = Experiment().seed(7).faults(FAULTS).card(ACEII_PROTOTYPE).nodes(4)
    assert a.spec == b.spec
    assert a.telemetry_enabled == b.telemetry_enabled


def test_experiment_is_immutable():
    base = Experiment().nodes(8)
    derived = base.card(IDEAL_INIC).telemetry(True)
    assert base.spec.inic is None
    assert not base.telemetry_enabled
    assert derived.spec.inic is IDEAL_INIC
    assert derived.telemetry_enabled
    assert derived.spec.n_nodes == 8


def test_experiment_steps_can_revert():
    exp = Experiment().nodes(2).card(ACEII_PROTOTYPE).faults(FAULTS)
    reverted = exp.card(None).faults(None)
    assert reverted.spec == Experiment().nodes(2).spec


def test_cluster_spec_with_chaining_is_order_independent():
    spec = ClusterSpec(n_nodes=4)
    assert (
        spec.with_inic(ACEII_PROTOTYPE).with_faults(FAULTS)
        == spec.with_faults(FAULTS).with_inic(ACEII_PROTOTYPE)
    )
    assert (
        spec.with_network(FAST_ETHERNET).with_seed(3).with_inic(IDEAL_INIC)
        == spec.with_inic(IDEAL_INIC).with_network(FAST_ETHERNET).with_seed(3)
    )


def test_build_wires_manager_only_for_inic_clusters():
    beowulf = Experiment().nodes(2).build()
    assert isinstance(beowulf, Session)
    assert beowulf.manager is None
    assert len(beowulf.nodes) == 2
    assert beowulf.metrics() == {}

    acc = Experiment().nodes(2).card().build()
    assert isinstance(acc.manager, INICManager)
    assert acc.nodes[0].inic is not None


# -- deprecated wrappers are gone --------------------------------------------------
def test_legacy_wrappers_removed():
    # PR-4 deprecated build_acc/build_beowulf; this PR completes the cycle.
    import repro.api
    import repro.core
    import repro.core.api

    for mod in (repro.api, repro.core, repro.core.api):
        assert not hasattr(mod, "build_acc")
        assert not hasattr(mod, "build_beowulf")
        assert "build_acc" not in mod.__all__
        assert "build_beowulf" not in mod.__all__


def test_facade_is_deterministic_across_builds():
    from repro.apps.fft import baseline_fft2d

    g = np.random.default_rng(2)
    m = g.standard_normal((16, 16)) + 1j * g.standard_normal((16, 16))
    _, res_a = baseline_fft2d(Experiment().nodes(2).build().cluster, m)
    _, res_b = baseline_fft2d(Experiment().nodes(2).build().cluster, m)
    assert res_a.makespan == res_b.makespan


# -- process registration ----------------------------------------------------------
def test_experiment_process_spawns_at_build():
    log = []

    async def ticker(session):
        for _ in range(3):
            await session.env.sleep(1e-3)
            log.append(session.env.now)

    session = Experiment().nodes(2).process("ticker", ticker).build()
    assert "ticker" in session.processes
    assert not log  # nothing runs until session.run()
    session.run(until=1.0)
    assert log == [1e-3, 2e-3, 3e-3]


def test_experiment_process_is_immutable_and_replaces_by_name():
    async def a(session):
        return "a"

    async def b(session):
        return "b"

    base = Experiment().nodes(1)
    with_a = base.process("job", a)
    with_b = with_a.process("job", b)
    assert base._processes == ()
    assert with_a._processes == (("job", a),)
    assert with_b._processes == (("job", b),)
    session = with_b.build()
    session.run()
    assert session.processes["job"].value == "b"


def test_session_spawn_generator_and_coroutine():
    session = Experiment().nodes(1).build()

    def gen_job(env, n):
        yield env.timeout(n * 1e-6)
        return n

    async def coro_job(env, n):
        await env.timeout(n * 1e-6)
        return n * 10

    p1 = session.spawn(gen_job, session.env, 3, name="gen")
    p2 = session.spawn(coro_job, session.env, 3, name="coro")
    session.run()
    assert p1.value == 3
    assert p2.value == 30
    assert session.processes == {"gen": p1, "coro": p2}
    assert session.env.sim is session.sim


# -- shared to_json/from_json convention -------------------------------------------
@pytest.mark.parametrize(
    "cfg",
    [
        INICProtoConfig(packet_size=2048, max_retries=3, timeout=0.01),
        RawConfig(max_retries=2, timeout=0.125),
        BatchPolicy(timing_tolerance=50e-6, max_quantum=32),
        FaultSpec(seed=9, loss_rate=0.02, outages=((0.1, 0.05),)),
    ],
)
def test_config_round_trips_through_json(cfg):
    doc = cfg.to_json()
    import json

    json.dumps(doc)  # must be JSON-safe as-is
    assert type(cfg).from_json(doc) == cfg


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        BatchPolicy.from_json({"enabled": True, "warp_factor": 9})
    with pytest.raises(FaultConfigError):
        FaultSpec.from_json({"seed": 1, "warp_factor": 9})


def test_config_error_roots_the_family():
    # FaultConfigError (and therefore every campaign/fault rejection)
    # is catchable as the shared ConfigError.
    assert issubclass(FaultConfigError, ConfigError)
    from repro.errors import ConfigError as RootConfigError

    assert ConfigError is RootConfigError
    from repro.faults.campaign import CampaignSpec

    spec = CampaignSpec(seed=3, horizon=0.02)
    assert CampaignSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ConfigError):
        CampaignSpec.from_json({"seed": 1, "warp_factor": 9})


def test_fault_spec_to_json_is_total_unlike_to_params():
    # to_params keeps sweep-cache identity (None when inactive); to_json
    # always emits the full document
    assert FaultSpec().to_params() is None
    doc = FaultSpec().to_json()
    assert doc["loss_rate"] == 0.0
    assert FaultSpec.from_json(doc) == FaultSpec()
