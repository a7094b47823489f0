"""The INIC's application-specific protocol (policy layer).

Section 4.1: "INICs can use an application specific protocol ... there
should be no packet loss as the total amount of data put into the
network never exceeds the total size of the network buffers (combined
NIC and switch buffers).  The protocol also has the advantage of knowing
exactly how much data to expect; hence, the protocol needs minimal
acknowledgement information."

Three pieces implement that:

* :class:`INICProtoConfig` — framing parameters.  The paper picks a
  1024-byte packet (Section 4.2): small packets are fine because the
  INIC pays no per-packet interrupt or host-CPU cost.
* :class:`TransferPlan` — per-peer expected byte counts for one
  collective phase (each node "knows exactly how much data will be sent
  to and received from every other node", Section 3.1.2).  Completion is
  detected by byte accounting, not ACKs.
* :class:`CreditGate` — conservative in-flight budget that enforces the
  no-loss invariant: a sender never has more unacknowledged-by-arrival
  bytes in the fabric than its share of the switch buffers.  Credits are
  returned by time (the known drain rate), not by ACK packets — this is
  the "minimal acknowledgement information" property.

The data movement itself is done by the INIC card
(:mod:`repro.inic.card`), which consumes these policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import config_from_json, config_to_json
from ..errors import ProtocolError
from ..net.addresses import MacAddress
from ..net.batching import BatchPolicy, DEFAULT_BATCH
from ..sim.engine import Event, Simulator
from ..sim.resources import Container

__all__ = ["INICProtoConfig", "TransferPlan", "CreditGate"]


@dataclass(frozen=True)
class INICProtoConfig:
    """Framing for the custom on-card protocol.

    Field naming follows the repo-wide convention (``max_retries`` /
    ``timeout`` / ``retry_backoff``, shared with
    :class:`~repro.protocols.raw.RawConfig`).
    """

    packet_size: int = 1024  # paper, Section 4.2
    headers: int = 8  # built directly on Ethernet; minimal header
    quantum_target_events: int = 48
    max_quantum: int = 64
    #: adaptive packet-train batching: the card's chunk quantum grows to
    #: the largest train whose serialization fits the policy's timing
    #: tolerance (the flow window still caps each chunk at window/4).
    batch: BatchPolicy = field(default_factory=lambda: DEFAULT_BATCH)
    #: loss recovery: NACK/retransmit rounds per gather before the
    #: operation aborts with :class:`~repro.errors.TransferAborted`.
    #: ``0`` keeps the paper's pure no-loss protocol (a stalled plan
    #: fails loudly instead of recovering) — the default, so ideal-fabric
    #: runs stay bit-identical.
    max_retries: int = 0
    #: seconds of zero gather progress before the first NACK round
    timeout: float = 0.005
    #: multiplier on ``timeout`` between successive rounds
    retry_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.packet_size < 1 or self.headers < 0:
            raise ProtocolError("invalid INIC protocol framing")
        if self.max_retries < 0:
            raise ProtocolError("max_retries must be >= 0")
        if self.timeout <= 0 or self.retry_backoff < 1.0:
            raise ProtocolError("invalid recovery timing parameters")

    def to_json(self) -> dict:
        """JSON-safe dict (round-trips through :meth:`from_json`)."""
        return config_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "INICProtoConfig":
        return config_from_json(cls, doc)


class TransferPlan:
    """Expected receive volume per peer for one communication phase.

    With ``tolerate_surplus`` (set by recovery-enabled cards) a peer may
    deliver more than its expected bytes — a retransmission racing a
    late original — and the excess is clamped and counted instead of
    treated as a protocol violation.
    """

    def __init__(
        self,
        sim: Simulator,
        expected: dict[int, int],
        name: str = "plan",
        tolerate_surplus: bool = False,
    ):
        for peer, nbytes in expected.items():
            if nbytes < 0:
                raise ProtocolError(f"negative expected bytes from peer {peer}")
        self.sim = sim
        self.name = name
        self.expected = dict(expected)
        self.received = {peer: 0 for peer in expected}
        self.tolerate_surplus = tolerate_surplus
        self.surplus_bytes = 0
        self._complete = sim.event(name=f"{name}.complete")
        self._check_done()

    @property
    def complete(self) -> Event:
        """Fires when every peer's expected bytes have arrived."""
        return self._complete

    def total_expected(self) -> int:
        return sum(self.expected.values())

    def total_received(self) -> int:
        return self._total_received

    def account(self, src: MacAddress, nbytes: int) -> None:
        """Record ``nbytes`` arriving from ``src``.

        Accounting is O(1): a pending-peer counter and a running received
        total replace the all-peers scan — ``account`` sits on the
        per-chunk hot path, so at 1024 nodes the scan was O(p) work per
        chunk (O(p^3) per alltoall phase).
        """
        peer = src.value
        exp = self.expected.get(peer)
        if exp is None:
            raise ProtocolError(f"{self.name}: unexpected sender {src}")
        prev = self.received[peer]
        new = prev + nbytes
        if new > exp:
            if not self.tolerate_surplus:
                raise ProtocolError(
                    f"{self.name}: peer {peer} overflowed plan "
                    f"({new} > {exp})"
                )
            self.surplus_bytes += new - exp
            new = exp
        self.received[peer] = new
        self._total_received += new - prev
        if prev < exp <= new:
            self._pending -= 1
            if self._pending == 0 and not self._complete.triggered:
                self._complete.succeed(dict(self.received))

    def missing_by_peer(self) -> dict[int, int]:
        """Byte ranges still owed, per incomplete peer — what a recovery
        round asks each sender to re-issue."""
        return {
            peer: self.expected[peer] - self.received[peer]
            for peer in self.expected
            if self.received[peer] < self.expected[peer]
        }

    def _check_done(self) -> None:
        """Rebuild the O(1) accounting state from the dicts (init path)."""
        self._pending = sum(
            1 for p, e in self.expected.items() if self.received[p] < e
        )
        self._total_received = sum(self.received.values())
        if self._pending == 0 and not self._complete.triggered:
            self._complete.succeed(dict(self.received))


class CreditGate:
    """Bounded in-flight bytes toward the fabric (loss avoidance).

    ``acquire(n)`` blocks until ``n`` bytes of budget are free; credits
    return automatically after ``drain_time(n)`` — the deterministic time
    for those bytes to leave the slowest queue in the path — so no
    credit-return packets are needed.
    """

    def __init__(
        self,
        sim: Simulator,
        budget_bytes: float,
        drain_rate: float,
        name: str = "credits",
    ):
        if budget_bytes <= 0:
            raise ProtocolError("credit budget must be > 0")
        if drain_rate <= 0:
            raise ProtocolError("credit drain rate must be > 0")
        self.sim = sim
        self.drain_rate = float(drain_rate)
        self.name = name
        self._pool = Container(
            sim, capacity=budget_bytes, init=budget_bytes, name=f"{name}.pool"
        )

    @property
    def available(self) -> float:
        return self._pool.level

    def acquire(self, nbytes: float):
        """Generator: take ``nbytes`` of budget (blocks until free) and
        schedule its automatic return."""
        if nbytes <= 0:
            raise ProtocolError(f"credit acquire of {nbytes}")
        yield self._pool.get(nbytes)
        delay = nbytes / self.drain_rate
        self.sim.schedule_callback(
            delay, lambda: self._pool.put(nbytes), name=f"{self.name}.return"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CreditGate {self.name!r} {self._pool.level:g} free>"
