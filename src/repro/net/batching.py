"""Frame-train batching policy (CHUNK fidelity, adaptive quantum).

The simulator's unit of work is a :class:`~repro.net.packet.Frame`, which
may stand for ``frame_count`` back-to-back physical MTU frames of one
message (DESIGN.md §7).  This module decides *how many* frames one event
may stand for.

The cost of batching is timing fidelity: a train of ``q`` frames is
serialized as one unit, so at every store-and-forward stage its first
frame's payload is held back by up to ``(q - 1)`` frame times relative
to the per-frame schedule.  :class:`BatchPolicy` therefore bounds the
quantum by a **timing tolerance** — the maximum per-hop added latency a
train may introduce — and :func:`adaptive_quantum` picks the largest
quantum the tolerance allows on a given wire:

    q  <=  1 + timing_tolerance / frame_wire_time

With the default 200 us tolerance a Gigabit Ethernet sender (12.3 us per
MTU frame) may batch ~17 frames per event while a Fast Ethernet sender
(123 us per frame) may batch only ~2 — the *event count* adapts to the
wire so the *timing error* stays fixed.

Protocol stacks combine this bound with their own structural caps (TCP:
the congestion/receive window; the INIC protocol: a fraction of the
flow-control window) so batching never changes windowing arithmetic,
only event granularity.  ``PER_FRAME`` disables batching entirely — the
determinism tests compare batched against per-frame runs.

Two default policies exist because latency tolerance is *not* one
number:

* ``DEFAULT_BATCH`` governs protocol-level chunking (how many segments
  or packets a sender emits as one frame).  Open-loop senders (the
  INIC's planned transfers) absorb the whole tolerance as a one-off
  pipeline-fill artifact.
* ``WIRE_BATCH`` governs in-flight train merging in NIC TX rings.
  That path sits inside TCP's ACK feedback
  loop, where per-hop delay compounds (a delayed delivery delays the
  ACK, which delays the window growth that gates the next burst), so
  its tolerance is kept well under the fabric's ACK-clock round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PacketError

__all__ = [
    "BatchPolicy",
    "DEFAULT_BATCH",
    "PER_FRAME",
    "WIRE_BATCH",
    "adaptive_quantum",
]


@dataclass(frozen=True)
class BatchPolicy:
    """How aggressively to coalesce frame trains into single events.

    Attributes
    ----------
    enabled:
        ``False`` forces per-frame simulation (quantum 1) everywhere the
        policy is consulted.
    timing_tolerance:
        seconds of extra store-and-forward latency a train may add per
        hop, compared to the per-frame schedule.  The quantum is chosen
        so ``(quantum - 1) * frame_wire_time <= timing_tolerance``.
    max_quantum:
        hard cap on frames per event, whatever the tolerance allows.
    """

    enabled: bool = True
    timing_tolerance: float = 200e-6
    max_quantum: int = 256

    def __post_init__(self) -> None:
        if self.timing_tolerance < 0:
            raise PacketError(f"negative timing tolerance {self.timing_tolerance}")
        if self.max_quantum < 1:
            raise PacketError(f"max_quantum must be >= 1, got {self.max_quantum}")

    def to_json(self) -> dict:
        """JSON-safe dict (round-trips through :meth:`from_json`)."""
        from ..config import config_to_json

        return config_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "BatchPolicy":
        from ..config import config_from_json

        return config_from_json(cls, doc)


#: protocol-level chunking default: 200 us of pipeline-fill slack keeps
#: millisecond-scale figure sweeps within a few percent (documented in
#: docs/performance.md) while letting the INIC reach window/4 chunks
DEFAULT_BATCH = BatchPolicy()

#: in-flight train merging default (NIC TX rings): this
#: path is inside TCP's ACK feedback loop, so the per-hop delay budget
#: stays a small fraction of the fabric round trip
WIRE_BATCH = BatchPolicy(timing_tolerance=30e-6, max_quantum=64)

#: per-frame fidelity: every physical frame is its own event
PER_FRAME = BatchPolicy(enabled=False)


def adaptive_quantum(
    total_units: int, unit_wire_time: float, policy: BatchPolicy = DEFAULT_BATCH
) -> int:
    """Largest frames-per-event quantum within ``policy``'s tolerance.

    Parameters
    ----------
    total_units:
        physical frames (or packets) in the transfer; the quantum never
        exceeds it.
    unit_wire_time:
        seconds to serialize one unit on the constraining wire.  Pass 0
        (or negative) when the rate is unknown — the tolerance bound is
        then skipped and only ``max_quantum`` applies.
    """
    if total_units < 0:
        raise PacketError(f"negative unit count {total_units}")
    if total_units <= 1 or not policy.enabled:
        return 1
    quantum = policy.max_quantum
    if unit_wire_time > 0:
        quantum = min(quantum, 1 + int(policy.timing_tolerance / unit_wire_time))
    return max(1, min(quantum, total_units))
