"""Cluster instrumentation: assign hierarchical names to every component.

``instrument_cluster`` walks a built :class:`~repro.cluster.builder.Cluster`
and asks each simulated component to register its instruments under the
repo-wide naming scheme:

====================================  =======================================
prefix                                component
====================================  =======================================
``node{r}.cpu``                       host CPU (busy/interrupt/task counters)
``node{r}.pci``                       the node's host-side I/O bus (see note)
``node{r}.irq``                       interrupt delivery to the host CPU
``node{r}.nic``                       standard NIC (+ ``.txdma``/``.rxdma``,
                                      ``.uplink``)
``node{r}.tcp``                       host TCP stack
``node{r}.inic``                      INIC card (+ ``.bus`` or per-direction
                                      buses, ``.fpga``, ``.uplink``)
``switch`` / ``switch.port{p}``       the fabric switch and its output ports
====================================  =======================================

PCI note: on a standard node, payloads DMA across the node's own PCI bus,
so ``node{r}.pci`` reads it directly.  On an INIC node the datapath
bypasses the host PCI bus entirely — every host<->card byte instead
crosses the *card's* host-side bus (on the ACEII prototype that bus IS a
132 MB/s PCI-rate bus, Section 6 of the paper) — so ``node{r}.pci``
reads the card's host path.  Either way the name answers the question
the paper's Section 4 model asks: how busy is the host I/O path of this
node?

Registration against a :class:`~repro.telemetry.registry.NullRegistry`
is a no-op at the source: this function returns immediately, so the
disabled path never even builds the closures.
"""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry

__all__ = ["instrument_cluster"]


def _instrument_standard_node(registry: MetricsRegistry, node, prefix: str) -> None:
    node.pci.register_telemetry(registry, f"{prefix}.pci")
    nic = node.nic
    # Interrupt path: controller counters plus the CPU time its
    # deliveries stole (the "interrupt-controller utilization" view).
    registry.busy(f"{prefix}.irq.time", lambda cpu=node.cpu: cpu.interrupt_time)
    nic.irq.register_telemetry(registry, f"{prefix}.irq")
    nic.register_telemetry(registry, f"{prefix}.nic")
    if node.tcp is not None:
        node.tcp.register_telemetry(registry, f"{prefix}.tcp")


def _instrument_inic_node(registry: MetricsRegistry, node, prefix: str) -> None:
    card = node.inic
    # The node's effective host I/O path is the card's host-side bus
    # (the datapath never touches the motherboard PCI bus; see module
    # docstring).  Shared-bus cards have one bus for both directions.
    if card.host_tx is card.host_rx:
        registry.busy(
            f"{prefix}.pci.busy_time", lambda b=card.host_tx: b.busy_snapshot()
        )
        registry.counter(
            f"{prefix}.pci.bytes",
            lambda b=card.host_tx: b.stats.bytes_transferred,
            unit="B",
        )
    else:
        registry.busy(
            f"{prefix}.pci.busy_time",
            lambda tx=card.host_tx, rx=card.host_rx: tx.busy_snapshot()
            + rx.busy_snapshot(),
        )
        registry.counter(
            f"{prefix}.pci.bytes",
            lambda tx=card.host_tx, rx=card.host_rx: tx.stats.bytes_transferred
            + rx.stats.bytes_transferred,
            unit="B",
        )
    # Interrupt path: the card raises one completion interrupt per
    # operation; the stolen handler time accumulates on the host CPU.
    registry.busy(f"{prefix}.irq.time", lambda cpu=node.cpu: cpu.interrupt_time)
    registry.counter(
        f"{prefix}.irq.delivered", lambda s=card.stats: s.completion_interrupts
    )
    card.register_telemetry(registry, f"{prefix}.inic")


def instrument_cluster(
    registry: MetricsRegistry, cluster, manager: Optional[object] = None
) -> MetricsRegistry:
    """Register instruments for every component of ``cluster``.

    ``manager`` is accepted for signature symmetry with the facade (the
    INIC manager owns no stats of its own — the cards do).  Returns the
    registry for chaining.
    """
    if not registry.enabled:
        return registry
    for node in cluster.nodes:
        prefix = f"node{node.rank}"
        node.cpu.register_telemetry(registry, f"{prefix}.cpu")
        if node.inic is not None:
            _instrument_inic_node(registry, node, prefix)
        else:
            _instrument_standard_node(registry, node, prefix)
    cluster.switch.register_telemetry(registry, "switch")
    return registry
