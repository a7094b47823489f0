"""Point-to-point wires.

A :class:`Wire` is one direction of a link: frames are serialized FIFO
at the line rate, then delivered to the sink after a propagation delay.
It connects two stations directly (no switch); the switched fabrics of
:mod:`repro.net.topology` fold their links into busy-until clocks and
hand stations a TX handle with the same ``send`` surface.

Sinks implement ``receive_frame(frame)``; anything — NIC or INIC MAC —
can terminate a wire.

Fault injection: a wire may carry a :class:`~repro.faults.WireFault`
injector (installed by the cluster builder when the scenario's
:class:`~repro.faults.FaultSpec` targets it).  Dropped transfers vanish
before serialization (outage/cable semantics); corrupted transfers
occupy the wire but are discarded instead of delivered (the receiver's
CRC check).  Without an injector the datapath is byte-for-byte the
pre-fault-subsystem one.
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..errors import LinkError
from ..sim.engine import Simulator
from .packet import Frame

__all__ = ["FrameSink", "Wire"]


class FrameSink(Protocol):
    """Anything that can terminate a wire."""

    def receive_frame(self, frame: Frame) -> None:  # pragma: no cover - protocol
        ...


class Wire:
    """One direction of a link: FIFO serialization + propagation."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        propagation_delay: float = 0.0,
        name: str = "wire",
    ):
        if bandwidth <= 0:
            raise LinkError(f"wire bandwidth must be > 0, got {bandwidth}")
        if propagation_delay < 0:
            raise LinkError("negative propagation delay")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.propagation_delay = float(propagation_delay)
        self.name = name
        self._sink: Optional[FrameSink] = None
        self._busy_until = 0.0
        #: optional fault injector (see :mod:`repro.faults`)
        self.fault = None
        # -- statistics ----------------------------------------------------
        self.frames_sent = 0
        self.bytes_sent = 0.0
        self.busy_time = 0.0

    def attach(self, sink: FrameSink) -> None:
        if self._sink is not None:
            raise LinkError(f"wire {self.name!r} already attached")
        self._sink = sink

    def install_fault(self, fault) -> None:
        """Attach a :class:`~repro.faults.WireFault` injector."""
        if self.fault is not None:
            raise LinkError(f"wire {self.name!r} already has a fault injector")
        self.fault = fault

    @property
    def sink(self) -> FrameSink:
        if self._sink is None:
            raise LinkError(f"wire {self.name!r} has no sink attached")
        return self._sink

    def send(self, frame: Frame) -> float:
        """Queue ``frame`` for transmission; returns its delivery time.

        Serialization is FIFO at line rate; delivery happens
        serialization + propagation later.  The caller does not block —
        backpressure, if desired, is the *sender's* job (NICs block on
        their TX ring).
        """
        sink = self.sink
        if self.fault is not None:
            verdict = self.fault.disposition(frame, self.sim.now)
            if verdict == "drop":
                # The transfer never makes it onto the wire.
                return self.sim.now
            if verdict == "corrupt":
                # Bit errors: the train occupies the wire for its full
                # serialization, then fails CRC at the sink — time is
                # burned, nothing is delivered.
                start = max(self.sim.now, self._busy_until)
                tx_time = frame.wire_size / self.bandwidth
                self._busy_until = start + tx_time
                self.busy_time += tx_time
                return self._busy_until + self.propagation_delay
        now = self.sim.now
        start = now if now > self._busy_until else self._busy_until
        wire_size = frame.wire_size
        tx_time = wire_size / self.bandwidth
        done_serializing = start + tx_time
        self._busy_until = done_serializing
        deliver_at = done_serializing + self.propagation_delay
        self.frames_sent += frame.frame_count
        self.bytes_sent += wire_size
        self.busy_time += tx_time
        # Closure-free pooled delivery: this is the single hottest timed
        # callback in every figure sweep.
        self.sim.call_after(deliver_at - now, sink.receive_frame, frame)
        return deliver_at

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this wire's instruments under ``prefix``."""
        registry.busy(f"{prefix}.busy_time", lambda: self.busy_time)
        registry.counter(f"{prefix}.frames", lambda: self.frames_sent)
        registry.counter(f"{prefix}.bytes", lambda: self.bytes_sent, unit="B")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Wire {self.name!r} {self.bandwidth:g} B/s>"
