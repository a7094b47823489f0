"""Transport abstractions shared by all protocol stacks.

A *transport* moves application messages (byte counts plus optional
functional payload objects) between stations.  Two implementations:

* :class:`~repro.protocols.tcp.TCPStack` — the paper's Gigabit/Fast
  Ethernet baseline (host TCP/IP),
* the INIC's on-card protocol (:mod:`repro.protocols.inicproto`).

Received messages land in a :class:`Mailbox` supporting blocking,
selectively matched receives — the foundation for the SimMPI layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ProtocolError
from ..net.addresses import MacAddress
from ..sim.engine import Event, Simulator

__all__ = ["MessageView", "Mailbox", "next_message_id", "choose_quantum"]

_message_ids = [0]


def next_message_id() -> int:
    """Globally unique application-message id (for frame tagging)."""
    _message_ids[0] += 1
    return _message_ids[0]


@dataclass
class MessageView:
    """A delivered application message."""

    src: MacAddress
    tag: int
    nbytes: int
    payload: Any = None
    meta: dict[str, Any] = field(default_factory=dict)


class Mailbox:
    """Tag/source-matched blocking receive queue.

    ``recv(src, tag)`` matches the oldest message whose source and tag
    agree with the non-``None`` criteria (MPI-style wildcards).
    """

    def __init__(self, sim: Simulator, name: str = "mailbox"):
        self.sim = sim
        self.name = name
        self._messages: deque[MessageView] = deque()
        self._waiters: deque[tuple[Optional[MacAddress], Optional[int], Event]] = deque()

    def deliver(self, message: MessageView) -> None:
        """Called by a transport when a message completes reassembly."""
        for i, (src, tag, ev) in enumerate(self._waiters):
            if self._matches(message, src, tag):
                del self._waiters[i]
                ev.succeed(message)
                return
        self._messages.append(message)

    @staticmethod
    def _matches(
        m: MessageView, src: Optional[MacAddress], tag: Optional[int]
    ) -> bool:
        return (src is None or m.src == src) and (tag is None or m.tag == tag)

    def recv(
        self, src: Optional[MacAddress] = None, tag: Optional[int] = None
    ) -> Event:
        """Event that fires with the next matching :class:`MessageView`."""
        for i, m in enumerate(self._messages):
            if self._matches(m, src, tag):
                del self._messages[i]
                ev = self.sim.event(name=f"{self.name}.recv")
                ev.succeed(m)
                return ev
        ev = self.sim.event(name=f"{self.name}.recv")
        self._waiters.append((src, tag, ev))
        return ev

    def pending(self) -> int:
        return len(self._messages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Mailbox {self.name!r} {len(self._messages)} queued, "
            f"{len(self._waiters)} waiting>"
        )


def choose_quantum(
    total_units: int, target_events: int = 64, max_quantum: int = 64
) -> int:
    """Pick a frame-batching quantum (DESIGN.md §7, CHUNK fidelity).

    Returns how many physical frames to batch per simulation event so a
    transfer of ``total_units`` frames costs about ``target_events``
    events, capped at ``max_quantum`` to keep windowing math honest.
    """
    if total_units < 0:
        raise ProtocolError(f"negative unit count {total_units}")
    if target_events < 1 or max_quantum < 1:
        raise ProtocolError("target_events and max_quantum must be >= 1")
    if total_units <= target_events:
        return 1
    return min(max_quantum, -(-total_units // target_events))
