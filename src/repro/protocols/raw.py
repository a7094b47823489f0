"""Raw Ethernet datagram transport.

Thin framing directly on Ethernet — no connection state, no ACKs, no
congestion control.  Messages are segmented into MTU frames (optionally
quantum-batched) and reassembled by byte count at the receiver.

Used as:

* the host-driven "protocol-processor-less" comparison point in
  protocol ablation benches, and
* the building block for the INIC's application-specific protocol
  (Section 4.1: "INICs can use an application specific protocol ...
  the protocol needs minimal acknowledgement information"), which adds
  known-size transfer plans and coarse credits on top.

Reliability note: delivery is only guaranteed while in-flight data fits
the switch buffers — the transfer-plan property the INIC protocol
enforces by construction.  By default the stack only *detects* (and
counts) losses via byte accounting.  With ``RawConfig.reliable`` the
stack adds a minimal recovery layer for fault-injection scenarios
(:mod:`repro.faults`): receivers ACK completed messages and NACK
detected holes, senders retransmit missing bytes with exponential
backoff, and a sender whose retry budget runs out fails its send event
with :class:`~repro.errors.TransferAborted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..config import config_from_json, config_to_json
from ..errors import ProtocolError, TransferAborted
from ..hw.cpu import CPU
from ..net.addresses import MacAddress
from ..net.batching import BatchPolicy, DEFAULT_BATCH, adaptive_quantum
from ..net.nic import StandardNIC
from ..net.packet import ETHERNET_MTU, Frame, wire_bytes
from ..sim.engine import Event, Simulator
from .base import Mailbox, MessageView, choose_quantum, next_message_id

__all__ = ["RawConfig", "RawEthernetStack"]


@dataclass(frozen=True)
class RawConfig:
    """Tunables for the raw datagram stack.

    Field naming follows the repo-wide convention (``max_retries`` /
    ``timeout`` / ``retry_backoff``, shared with
    :class:`~repro.protocols.inicproto.INICProtoConfig`).
    """

    mtu: int = ETHERNET_MTU
    headers: int = 8  # minimal type/length/msg-id header
    send_cost_per_frame: float = 1.0e-6  # host cost; 0 when driven by an INIC
    recv_cost_per_frame: float = 1.0e-6
    quantum_target_events: int = 48
    max_quantum: int = 32
    #: adaptive frame-train batching: with no windowing to respect, raw
    #: datagram chunks grow to the policy's full timing-tolerance train.
    batch: BatchPolicy = DEFAULT_BATCH
    #: loss recovery: with ``reliable`` the send event completes on the
    #: receiver's ACK (not on queueing) and lost bytes are retransmitted;
    #: off by default so ideal-fabric runs stay bit-identical.
    reliable: bool = False
    #: seconds without an ACK before the sender's first full retransmit
    timeout: float = 0.005
    #: multiplier on ``timeout`` between attempts
    retry_backoff: float = 2.0
    #: retransmit attempts before a send fails with ``TransferAborted``
    max_retries: int = 4

    def __post_init__(self) -> None:
        if self.mtu < 1 or self.headers < 0:
            raise ProtocolError("invalid raw framing configuration")
        if self.timeout <= 0 or self.retry_backoff < 1.0:
            raise ProtocolError("invalid raw retransmit timing")
        if self.max_retries < 0:
            raise ProtocolError("max_retries must be >= 0")

    def to_json(self) -> dict:
        """JSON-safe dict (round-trips through :meth:`from_json`)."""
        return config_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "RawConfig":
        return config_from_json(cls, doc)


class RawEthernetStack:
    """Connectionless framing + reassembly over one NIC."""

    def __init__(
        self,
        sim: Simulator,
        nic: StandardNIC,
        cpu: Optional[CPU] = None,
        config: RawConfig = RawConfig(),
        name: str = "raw",
    ):
        self.sim = sim
        self.nic = nic
        self.cpu = cpu
        self.config = config
        self.name = name
        self.mailbox = Mailbox(sim, name=f"{name}.mbox")
        #: msg_id -> bytes received
        self._progress: dict[int, int] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.frames_sent = 0
        # -- reliable-mode state/counters (all zero when reliable=False) --
        #: msg_id -> (dst, payload, tag, total) retained to serve NACKs
        self._retained: dict[int, tuple[MacAddress, Any, int, int]] = {}
        #: msg_id -> the sender-side event an inbound ACK resolves
        self._pending_acks: dict[int, Event] = {}
        #: msg_ids fully delivered (dedup against duplicate retransmits)
        self._delivered_ids: set[int] = set()
        self.retransmits = 0
        self.retransmitted_bytes = 0.0
        self.acks_sent = 0
        self.acks_received = 0
        self.nacks_sent = 0
        self.nacks_received = 0
        self.transfer_aborts = 0
        nic.bind_receiver(self._on_frame)

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this stack's instruments under ``prefix``."""
        registry.counter(f"{prefix}.messages_sent", lambda: self.messages_sent)
        registry.counter(
            f"{prefix}.messages_delivered", lambda: self.messages_delivered
        )
        registry.counter(f"{prefix}.frames_sent", lambda: self.frames_sent)
        registry.counter(f"{prefix}.retransmits", lambda: self.retransmits)
        registry.counter(f"{prefix}.acks_sent", lambda: self.acks_sent)
        registry.counter(f"{prefix}.nacks_sent", lambda: self.nacks_sent)
        registry.counter(f"{prefix}.transfer_aborts", lambda: self.transfer_aborts)

    def send(
        self, dst: MacAddress, nbytes: int, payload: Any = None, tag: int = 0
    ) -> Event:
        """Send a message.

        Datagram mode (the default): the event fires when the last frame
        is *queued* on the wire — no delivery confirmation.  Reliable
        mode (``config.reliable``): the event fires on the receiver's
        ACK, and fails with :class:`~repro.errors.TransferAborted` once
        the retransmit budget is exhausted.
        """
        if nbytes < 1:
            raise ProtocolError(f"cannot send {nbytes} bytes")
        done = self.sim.event(name=f"{self.name}.sent")
        msg_id = next_message_id()
        if self.config.reliable:
            self._retained[msg_id] = (dst, payload, tag, nbytes)
            self.sim.process(
                self._send_reliable(dst, nbytes, payload, tag, msg_id, done),
                name=f"{self.name}.send",
            )
        else:
            self.sim.process(
                self._send_datagram(dst, nbytes, payload, tag, msg_id, done),
                name=f"{self.name}.send",
            )
        self.messages_sent += 1
        return done

    def _stream(self, dst, total, nbytes, payload, tag, msg_id):
        """Generator: emit ``nbytes`` worth of frames for message
        ``msg_id`` (``total`` is the message's full size — retransmits
        stream fewer bytes under the same accounting total)."""
        cfg = self.config
        n_frames = -(-nbytes // cfg.mtu)
        quantum = choose_quantum(n_frames, cfg.quantum_target_events, cfg.max_quantum)
        bw = self.nic.wire_bandwidth
        quantum = max(
            quantum,
            adaptive_quantum(
                n_frames,
                wire_bytes(cfg.mtu, cfg.headers) / bw if bw > 0 else 0.0,
                cfg.batch,
            ),
        )
        sent = 0
        while sent < nbytes:
            size = min(quantum * cfg.mtu, nbytes - sent)
            frames = -(-size // cfg.mtu)
            last = sent + size == nbytes
            if self.cpu is not None and cfg.send_cost_per_frame > 0:
                yield from self.cpu.busy(cfg.send_cost_per_frame * frames)
            frame = Frame(
                src=self.nic.address,
                dst=dst,
                payload_bytes=size,
                headers=cfg.headers,
                frame_count=frames,
                kind="raw",
                seq=sent,
                payload=payload if last else None,
                meta={"msg": msg_id, "tag": tag, "total": total, "last": last},
            )
            yield from self.nic.transmit(frame)
            self.frames_sent += frames
            sent += size

    def _send_datagram(self, dst, nbytes, payload, tag, msg_id, done):
        yield from self._stream(dst, nbytes, nbytes, payload, tag, msg_id)
        done.succeed(None)

    def _send_reliable(self, dst, nbytes, payload, tag, msg_id, done):
        cfg = self.config
        ack = self.sim.event(name=f"{self.name}.ack{msg_id}")
        self._pending_acks[msg_id] = ack
        yield from self._stream(dst, nbytes, nbytes, payload, tag, msg_id)
        attempt = 0
        while True:
            if ack.triggered:
                break
            deadline = cfg.timeout * cfg.retry_backoff ** attempt
            yield self.sim.any_of([ack, self.sim.timeout(deadline)])
            if ack.triggered:
                break
            if attempt >= cfg.max_retries:
                self.transfer_aborts += 1
                self._pending_acks.pop(msg_id, None)
                self._retained.pop(msg_id, None)
                done.fail(
                    TransferAborted(
                        f"{self.name}: message {msg_id} to {dst} unacknowledged "
                        f"after {attempt + 1} attempts ({nbytes} bytes)"
                    )
                )
                return
            # Timed out without an ACK: the tail (or the whole message,
            # or the ACK itself) was lost — resend everything.  NACK-driven
            # partial retransmits happen asynchronously in _on_nack.
            attempt += 1
            self.retransmits += 1
            self.retransmitted_bytes += nbytes
            yield from self._stream(dst, nbytes, nbytes, payload, tag, msg_id)
        self._pending_acks.pop(msg_id, None)
        self._retained.pop(msg_id, None)
        done.succeed(None)

    def recv(
        self, src: Optional[MacAddress] = None, tag: Optional[int] = None
    ) -> Event:
        return self.mailbox.recv(src, tag)

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind == "raw-ack":
            self._on_ack(frame)
            return
        if frame.kind == "raw-nack":
            self._on_nack(frame)
            return
        if frame.kind != "raw":
            raise ProtocolError(f"raw stack got foreign frame kind {frame.kind!r}")
        cfg = self.config
        if self.cpu is not None and cfg.recv_cost_per_frame > 0:
            self.cpu.steal(cfg.recv_cost_per_frame * frame.frame_count)
        msg_id = frame.meta["msg"]
        if msg_id in self._delivered_ids:
            # Duplicate retransmit of an already-delivered message: our
            # ACK was lost, so re-ACK and drop the data.
            if frame.meta.get("last"):
                self._send_control(frame.src, "raw-ack", msg_id)
            return
        got = self._progress.get(msg_id, 0) + frame.payload_bytes
        if got >= frame.meta["total"]:
            self._progress.pop(msg_id, None)
            self.messages_delivered += 1
            if cfg.reliable:
                self._delivered_ids.add(msg_id)
                self._send_control(frame.src, "raw-ack", msg_id)
            self.mailbox.deliver(
                MessageView(
                    src=frame.src,
                    tag=frame.meta["tag"],
                    nbytes=frame.meta["total"],
                    payload=frame.payload,
                )
            )
        else:
            self._progress[msg_id] = got
            if cfg.reliable and frame.meta.get("last"):
                # The final frame arrived but earlier bytes are missing:
                # fast-path a NACK for the hole instead of waiting for
                # the sender's timeout.
                self.nacks_sent += 1
                self._send_control(
                    frame.src,
                    "raw-nack",
                    msg_id,
                    missing=frame.meta["total"] - got,
                )

    def _send_control(self, dst: MacAddress, kind: str, msg_id: int, **meta) -> None:
        """Queue a zero-payload ACK/NACK control frame (subject to the
        same fabric faults as data — loss is recovered by retry)."""
        if kind == "raw-ack":
            self.acks_sent += 1
        self.nic.transmit_nowait(
            Frame(
                src=self.nic.address,
                dst=dst,
                payload_bytes=0,
                headers=self.config.headers,
                kind=kind,
                meta={"msg": msg_id, **meta},
            )
        )

    def _on_ack(self, frame: Frame) -> None:
        self.acks_received += 1
        ack = self._pending_acks.get(frame.meta["msg"])
        if ack is not None and not ack.triggered:
            ack.succeed(None)

    def _on_nack(self, frame: Frame) -> None:
        self.nacks_received += 1
        msg_id = frame.meta["msg"]
        retained = self._retained.get(msg_id)
        if retained is None:
            return  # already ACKed (stale NACK) or unknown message
        dst, payload, tag, total = retained
        missing = min(frame.meta["missing"], total)
        if missing < 1:
            return
        self.retransmits += 1
        self.retransmitted_bytes += missing
        self.sim.process(
            self._stream(dst, total, missing, payload, tag, msg_id),
            name=f"{self.name}.rexmit",
        )

    def lost_messages(self) -> int:
        """Messages with missing bytes (only meaningful post-run)."""
        return len(self._progress)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RawEthernetStack {self.name!r} on {self.nic.name!r}>"
