"""Shared fabric pieces: network technologies and the station contract.

The prototype (Section 5) is a star: every node's NIC plugs into one
switch.  The fabrics themselves live in :mod:`repro.net.topology`
(:func:`~repro.net.topology.build_aggregate_star` for that star, plus
the fat-tree and torus); this module holds what they share — the
line-rate bundles (:data:`GIGABIT_ETHERNET`, :data:`FAST_ETHERNET`),
the station precondition, and each station's TX handle.

Device contract: ``attach_wire(wire)`` (device transmits on it) and
``receive_frame(frame)`` (device terminates the downlink).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ..errors import NetworkError
from ..units import gbps, mbps
from .addresses import MacAddress
from .packet import Frame

__all__ = [
    "NetworkTechnology",
    "FAST_ETHERNET",
    "GIGABIT_ETHERNET",
    "validate_stations",
]


def validate_stations(
    stations: Sequence[tuple[MacAddress, "FrameDevice"]]
) -> None:
    """Shared builder precondition: non-empty, no duplicate addresses."""
    if not stations:
        raise NetworkError("cannot build a fabric with no stations")
    addresses = [addr for addr, _ in stations]
    if len(set(a.value for a in addresses)) != len(addresses):
        raise NetworkError("duplicate station addresses in fabric")


@dataclass(frozen=True)
class NetworkTechnology:
    """Line-rate/latency bundle for a network generation."""

    name: str
    bandwidth: float  # bytes/s line rate
    propagation_delay: float  # seconds, cable + PHY
    switch_latency: float  # seconds, forwarding decision
    switch_buffer_per_port: float  # bytes


#: 100 Mb/s switched Fast Ethernet (the paper's low-end baseline)
FAST_ETHERNET = NetworkTechnology(
    name="fast-ethernet",
    bandwidth=mbps(100),
    propagation_delay=1e-6,
    switch_latency=6e-6,
    switch_buffer_per_port=64 * 1024,
)

#: 1 Gb/s Ethernet (SysKonnect PCI NIC + switch of the prototype)
GIGABIT_ETHERNET = NetworkTechnology(
    name="gigabit-ethernet",
    bandwidth=gbps(1),
    propagation_delay=1e-6,
    switch_latency=4e-6,
    switch_buffer_per_port=128 * 1024,
)


class FrameDevice(Protocol):
    """A station: transmits on an uplink, terminates a downlink."""

    def attach_wire(self, wire: "_AggregateUplink") -> None:  # pragma: no cover
        ...

    def receive_frame(self, frame: Frame) -> None:  # pragma: no cover - protocol
        ...


class _AggregateUplink:
    """Station-side TX handle of a
    :class:`~repro.net.topology.HierarchicalFabric`.

    Presents the slice of the :class:`~repro.net.link.Wire` surface the
    NIC/INIC datapaths actually use (``bandwidth``, ``send``,
    ``register_telemetry``) while the shared fabric does all timing.
    Serialization onto the uplink is still FIFO per station — a float
    ``_busy_until`` instead of a wire object.
    """

    __slots__ = (
        "fabric",
        "port",
        "name",
        "bandwidth",
        "propagation_delay",
        "_busy_until",
        "fault",
        "frames_sent",
        "bytes_sent",
        "busy_time",
    )

    def __init__(self, fabric, port: int, name: str):
        self.fabric = fabric
        self.port = port
        self.name = name
        self.bandwidth = fabric.bandwidth
        self.propagation_delay = fabric.propagation_delay
        self._busy_until = 0.0
        #: optional :class:`~repro.faults.WireFault` injector — same
        #: surface as :class:`~repro.net.link.Wire`
        self.fault = None
        self.frames_sent = 0
        self.bytes_sent = 0.0
        self.busy_time = 0.0

    def send(self, frame: Frame) -> float:
        return self.fabric._send(self, frame)

    def send_train(self, frames: Sequence[Frame], times: Sequence[float]) -> float:
        """Bulk-admit a frame train (see :mod:`repro.net.flowclock`)."""
        return self.fabric.send_train(self, frames, times)

    def install_fault(self, fault) -> None:
        """Attach a :class:`~repro.faults.WireFault` injector."""
        if self.fault is not None:
            raise NetworkError(f"uplink {self.name!r} already has a fault injector")
        self.fault = fault

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def register_telemetry(self, registry, prefix: str) -> None:
        registry.busy(f"{prefix}.busy_time", lambda: self.busy_time)
        registry.counter(f"{prefix}.frames", lambda: self.frames_sent)
        registry.counter(f"{prefix}.bytes", lambda: self.bytes_sent, unit="B")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AggregateUplink {self.name!r} port={self.port}>"


def __getattr__(name: str):
    if name == "AggregateFabric":  # retired star class; see _RetiredStarNames
        from .topology import _RetiredStarNames

        return _RetiredStarNames
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
