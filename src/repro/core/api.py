"""The experiment facade: one front door to cluster construction.

The builder a downstream user starts from::

    from repro.api import Experiment, ACEII_PROTOTYPE

    session = Experiment().nodes(8).card(ACEII_PROTOTYPE).build()
    session.run()

``Experiment`` is an immutable builder — every method returns a new
experiment, so chaining order never matters and a base experiment can be
branched::

    base = Experiment().nodes(8).telemetry(True)
    acc = base.card()                    # ideal INIC
    beowulf = base                       # standard NICs + TCP

``build()`` wires the cluster (and, for INIC experiments, the
:class:`~repro.core.manager.INICManager`), instruments every component
when telemetry is enabled, starts any processes registered with
``Experiment().process(name, fn)``, and returns a :class:`Session` that
owns the run loop, process spawning (``spawn()``, ``env``), and the
telemetry queries (``metrics()``, ``timeline()``, ``export_trace()``,
``report()``).

Scenario logic is authored as coroutine (or generator) processes — see
:mod:`repro.sim.process` and ``docs/processes.md``::

    async def traffic(session):
        env = session.env
        while True:
            await env.sleep(1e-3)
            ...

    session = Experiment().nodes(8).process("traffic", traffic).build()
    session.run()

The deprecated ``build_acc``/``build_beowulf`` wrappers from the
pre-facade API have been removed; use the builder chains shown above
(``Experiment().nodes(n).card(...).build()`` for an INIC cluster,
``Experiment().nodes(n).build()`` for the TCP baseline).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..cluster.builder import Cluster, ClusterSpec, NodeHardware
from ..faults import FaultSpec
from ..inic.card import CardSpec, IDEAL_INIC
from ..net.fabric import NetworkTechnology
from ..protocols.tcp import TCPConfig
from ..sim.process import Environment
from ..telemetry import (
    MetricsRegistry,
    NULL_REGISTRY,
    Timeline,
    instrument_cluster,
)
from ..telemetry.perfetto import export_trace as _export_trace
from ..telemetry.report import (
    render_metrics,
    render_outcomes,
    render_utilization,
)
from .manager import INICManager

__all__ = ["Experiment", "Session"]


class Session:
    """A built, wired, optionally instrumented cluster ready to run."""

    def __init__(
        self,
        cluster: Cluster,
        manager: Optional[INICManager],
        registry: MetricsRegistry,
    ):
        self.cluster = cluster
        #: the INIC manager, or ``None`` for a standard-NIC cluster
        self.manager = manager
        #: the metrics registry (:data:`~repro.telemetry.NULL_REGISTRY`
        #: when telemetry is disabled)
        self.registry = registry
        #: process-API view of the cluster's simulator
        #: (:class:`repro.sim.process.Environment`)
        self.env = Environment(cluster.sim)
        #: processes started via :meth:`spawn` or
        #: :meth:`Experiment.process`, by name
        self.processes: dict[str, Any] = {}

    # -- run ---------------------------------------------------------------
    @property
    def sim(self):
        return self.cluster.sim

    @property
    def trace(self):
        return self.cluster.trace

    @property
    def nodes(self):
        return self.cluster.nodes

    @property
    def telemetry_enabled(self) -> bool:
        return self.registry.enabled

    def run(self, until=None, max_events=None):
        """Advance the simulation (delegates to the cluster)."""
        return self.cluster.run(until=until, max_events=max_events)

    def spawn(self, fn: Callable[..., Any], *args, name: str = "", **kwargs):
        """Start a coroutine (or generator) process on this session.

        ``fn`` is an ``async def`` or generator function; it is called
        with ``(*args, **kwargs)`` and the resulting body is scheduled
        as a :class:`~repro.sim.engine.Process`::

            async def traffic(session, period):
                while True:
                    await session.env.sleep(period)
                    ...

            proc = session.spawn(traffic, session, 1e-3, name="traffic")

        Returns the process; it is also recorded in
        :attr:`processes` under its name.
        """
        proc = self.env.process(fn, *args, name=name, **kwargs)
        self.processes[proc.name] = proc
        return proc

    # -- telemetry queries -------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Flat ``{instrument: value}`` snapshot (empty when disabled)."""
        return self.registry.snapshot()

    def timeline(self) -> Timeline:
        """Per-phase and per-component utilization tracks for the run."""
        return Timeline.build(self.cluster.trace, self.registry)

    def export_trace(self, path: str) -> str:
        """Write a Chrome/Perfetto ``trace_event`` JSON file."""
        return _export_trace(path, self.cluster.trace, self.registry)

    def report(self) -> str:
        """Human-readable utilization + metrics tables.  A faulted run
        appends its transfer-outcome counters (drops, retransmits,
        reroutes, the conservation ledger) so degraded paths are never
        silent."""
        parts = [render_utilization(self.timeline())]
        if self.registry.enabled:
            parts.append(render_metrics(self.registry))
        if self.cluster.fault_plan is not None:
            from ..faults import robustness_counters

            parts.append(render_outcomes(robustness_counters(self.cluster)))
        return "\n\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tele = "on" if self.registry.enabled else "off"
        return f"<Session {self.cluster!r} telemetry={tele}>"


class Experiment:
    """Immutable builder for a cluster experiment.

    Defaults describe the commodity baseline: Gigabit Ethernet, standard
    NICs + TCP, no faults, telemetry off.
    """

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        telemetry: bool = False,
        processes: tuple = (),
    ):
        self._spec = spec if spec is not None else ClusterSpec(n_nodes=1)
        self._telemetry = telemetry
        self._processes = processes

    # -- builder steps (each returns a new Experiment) ---------------------
    def _with(self, **changes) -> "Experiment":
        spec = self._spec
        telemetry = changes.pop("telemetry", self._telemetry)
        processes = changes.pop("processes", self._processes)
        if changes:
            spec = spec.replace(**changes)
        return Experiment(spec, telemetry, processes)

    def nodes(self, n: int) -> "Experiment":
        """Cluster size."""
        return self._with(n_nodes=n)

    def network(self, tech: NetworkTechnology) -> "Experiment":
        """Fabric technology (``FAST_ETHERNET`` / ``GIGABIT_ETHERNET``)."""
        return self._with(network=tech)

    def card(self, spec: Optional[CardSpec] = IDEAL_INIC) -> "Experiment":
        """Put an INIC card in every node (``None`` reverts to NIC+TCP)."""
        return self._with(inic=spec)

    def tcp(self, config: TCPConfig) -> "Experiment":
        """TCP tunables for standard-NIC clusters."""
        return self._with(tcp=config)

    def node_hardware(self, hw: NodeHardware) -> "Experiment":
        """Per-node CPU/memory/interrupt parameters."""
        return self._with(node=hw)

    def seed(self, seed: int) -> "Experiment":
        """Root seed for the cluster's deterministic random streams."""
        return self._with(seed=seed)

    def faults(self, spec: Optional[FaultSpec]) -> "Experiment":
        """Fault-injection scenario (``None`` restores the ideal fabric)."""
        return self._with(faults=spec)

    def fabric(self, kind: str, **options) -> "Experiment":
        """Fabric topology (see
        :data:`~repro.cluster.builder.FABRIC_KINDS`): ``"aggregate"``
        (the prototype's one-switch star, the default), ``"fattree"`` or
        ``"torus"`` (hierarchical multi-hop models).

        Keyword options parameterize hierarchical topologies::

            Experiment().nodes(1024).fabric("fattree", oversub=2)
            Experiment().nodes(512).fabric("torus", dims=(8, 8, 8))
        """
        return self._with(
            fabric=kind, fabric_options=tuple(sorted(options.items()))
        )

    def fastpath(self, enabled: bool = True) -> "Experiment":
        """Opt in to the exchange-phase bulk fast path
        (:mod:`repro.net.flowclock`): INIC cards admit all-to-all frame
        trains in closed form, collapsing per-chunk event cascades to a
        handful of scheduled callbacks.  Eligibility is still checked
        per operation; ineligible scatters (retries enabled, faulted
        wires, busy flow windows) take the frame-level path unchanged.
        """
        return self._with(fastpath=enabled)

    def telemetry(self, enabled: bool = True) -> "Experiment":
        """Instrument every component at build time."""
        return self._with(telemetry=enabled)

    def process(self, name: str, fn: Callable[["Session"], Any]) -> "Experiment":
        """Register a named process to spawn when the session is built.

        ``fn`` is an ``async def`` or generator function of one
        argument — the built :class:`Session`::

            async def traffic(session):
                while True:
                    await session.env.sleep(1e-3)
                    ...

            session = Experiment().nodes(8).process("traffic", traffic).build()

        Registered processes spawn in registration order at ``build()``
        time (before any event runs), so registration order — like
        every builder step — is part of the experiment's deterministic
        identity.  Registering a second process under the same name
        replaces the first (in its original position).
        """
        entries = tuple(e for e in self._processes if e[0] != name)
        replaced = len(entries) != len(self._processes)
        if replaced:
            entries = tuple(
                (name, fn) if e[0] == name else e for e in self._processes
            )
        else:
            entries = self._processes + ((name, fn),)
        return self._with(processes=entries)

    # -- inspection --------------------------------------------------------
    @property
    def spec(self) -> ClusterSpec:
        """The :class:`ClusterSpec` this experiment would build."""
        return self._spec

    @property
    def telemetry_enabled(self) -> bool:
        return self._telemetry

    # -- terminal ----------------------------------------------------------
    def build(self) -> Session:
        """Build and wire the cluster; returns a ready :class:`Session`.

        Processes registered via :meth:`process` are spawned (in
        registration order) on the fresh session before it is returned;
        nothing executes until ``session.run()``.
        """
        cluster = Cluster.build(self._spec)
        manager = INICManager(cluster) if self._spec.inic is not None else None
        registry = MetricsRegistry() if self._telemetry else NULL_REGISTRY
        if registry.enabled:
            instrument_cluster(registry, cluster, manager)
        session = Session(cluster, manager, registry)
        for name, fn in self._processes:
            session.spawn(fn, session, name=name)
        return session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Experiment {self._spec!r} telemetry={self._telemetry}>"
