"""The INIC card: datapath, ops, and the ideal/prototype variants.

This is Figure 1(b) made executable.  A card is a station on the
Ethernet fabric (like a :class:`~repro.net.nic.StandardNIC`) whose
datapath contains the configured FPGA design.  Hosts interact through
descriptor posts (free — "starting a send is handled by hardware that
sits idle if no send is in progress", Section 3.2.2) and receive a
**single completion interrupt per operation** ("Initiation of the
transfer of data to the host memory may require a single interrupt per
transpose", Section 4.1 footnote).

Two datapath geometries:

* **Ideal INIC** (Section 4's analysis): dedicated host path at
  80 MiB/s and network path at 90 MiB/s — the paper's Eqs. (6)-(9)
  rates — fully pipelined.
* **ACEII prototype** (Sections 5-6): one shared 132 MB/s card bus
  carries host DMA *and* MAC traffic, so every payload byte crosses it
  twice per direction; plus a denser-design-limiting FPGA.

Operations are all-to-all-shaped primitives (scatter with per-block
payloads, gather against a :class:`~repro.protocols.inicproto.TransferPlan`)
from which the applications build transposes and sort redistributions,
plus reduce/broadcast extensions and a compute-accelerator mode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import ConfigurationError, OffloadError, TransferAborted
from ..hw.cpu import CPU
from ..hw.pci import DEFAULT_ARBITRATION
from ..net.addresses import BROADCAST, MacAddress
from ..net.batching import adaptive_quantum
from ..net.link import Wire
from ..net.packet import Frame, wire_bytes
from ..protocols.base import choose_quantum
from ..protocols.inicproto import INICProtoConfig, TransferPlan
from ..sim.bus import FCFSBus, FairShareBus
from ..sim.engine import Event, Simulator
from ..sim.resources import Store
from ..units import KiB, mb_per_s, mib_per_s
from .bitstream import Design
from .fpga import FPGADevice, FPGAFabric, VIRTEX_1000, XILINX_4085XLA
from .memory import INICMemory

__all__ = [
    "CardSpec",
    "IDEAL_INIC",
    "ACEII_PROTOTYPE",
    "SendBlock",
    "ScatterOp",
    "GatherOp",
    "INICCard",
]


@dataclass(frozen=True)
class CardSpec:
    """Physical parameters of an INIC card."""

    name: str
    devices: tuple[FPGADevice, ...]
    memory_bytes: int
    memory_bandwidth: float  # bytes/s, card RAM
    shared_bus: bool  # True: one bus for host DMA + MAC traffic
    host_rate: float  # bytes/s host<->card (dedicated or bus raw)
    net_rate: float  # bytes/s card<->network
    dma_threshold: int = 64 * KiB  # Eq. (15): receive->host granule
    completion_irq_cost: float = 10e-6
    #: per-destination in-flight byte window (Section 4.1's no-loss
    #: property: never put more into the fabric than the buffers hold).
    #: Credits return as tiny frames — the protocol's "minimal
    #: acknowledgement information".
    flow_window: int = 64 * KiB
    proto: INICProtoConfig = field(default_factory=INICProtoConfig)

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.memory_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: bad memory parameters")
        if self.host_rate <= 0 or self.net_rate <= 0:
            raise ConfigurationError(f"{self.name}: bad path rates")
        if self.dma_threshold < 1:
            raise ConfigurationError(f"{self.name}: bad DMA threshold")


#: Section 4's next-generation single-chip INIC: dedicated pipelined
#: paths at the measured-derated 80/90 MiB/s of Eqs. (6)-(9).
IDEAL_INIC = CardSpec(
    name="ideal-inic",
    devices=(VIRTEX_1000,),
    memory_bytes=32 * 1024 * KiB,
    memory_bandwidth=mb_per_s(400),
    shared_bus=False,
    host_rate=mib_per_s(80),
    net_rate=mib_per_s(90),
)

#: Sections 5-6's ACEII prototype: everything over one 132 MB/s bus
#: (85% efficient), one app-usable XC4085XLA, limited memory.
ACEII_PROTOTYPE = CardSpec(
    name="aceii-prototype",
    devices=(XILINX_4085XLA,),
    memory_bytes=8 * 1024 * KiB,
    memory_bandwidth=mb_per_s(200),
    shared_bus=True,
    host_rate=mb_per_s(132) * 0.85,
    net_rate=mb_per_s(132) * 0.85,
)


@dataclass
class SendBlock:
    """One destination's share of a scatter operation.

    ``data`` is the functional payload *after* the datapath transform
    (the application applies the design's core, mirroring the hardware
    doing it inline); ``nbytes`` is its logical size.
    """

    dst: MacAddress
    nbytes: int
    data: Any = None

    def __post_init__(self) -> None:
        if self.nbytes < 1:
            raise OffloadError(f"send block of {self.nbytes} bytes")


class ScatterOp:
    """A posted scatter: streams blocks host->card->network."""

    def __init__(
        self,
        sim: Simulator,
        tag: int,
        blocks: list[SendBlock],
        window_bytes: Optional[int] = None,
        train: bool = False,
    ):
        self.tag = tag
        self.blocks = blocks
        self.window_bytes = window_bytes  # per-destination flow window
        #: exchange-phase marker: the poster vouches that this scatter is
        #: one sender's slice of a bulk all-to-all, making it a candidate
        #: for the flow-clock fast path (when the card enables it)
        self.train = train
        self.sent: Event = sim.event(name=f"scatter#{tag}.sent")
        self.bytes_total = sum(b.nbytes for b in blocks)


class GatherOp:
    """A posted gather: accounts arrivals against a plan, DMAs to host."""

    def __init__(
        self,
        sim: Simulator,
        tag: int,
        plan: TransferPlan,
        assemble: Optional[Callable[[dict[int, list]], Any]] = None,
        reduce_core=None,
    ):
        self.tag = tag
        self.plan = plan
        self.assemble = assemble
        self.reduce_core = reduce_core
        self.done: Event = sim.event(name=f"gather#{tag}.done")
        self.payloads: dict[int, list] = {}
        self.accumulator = None
        self.delivered_bytes = 0
        self.pending_delivery = 0.0
        self.last_seen_received = -1
        self.stalled_polls = 0
        # -- loss recovery (active only when the card's protocol config
        #    enables retries) ------------------------------------------------
        self.retries = 0
        self.dedupe_payloads = False
        self._payload_seen: set[int] = set()

    def store_payload(self, src: MacAddress, payload: Any) -> None:
        if payload is None:
            return
        if self.dedupe_payloads:
            # A retransmitted final packet racing its late original must
            # not fold a contribution twice.
            if src.value in self._payload_seen:
                return
            self._payload_seen.add(src.value)
        if self.reduce_core is not None:
            self.accumulator = self.reduce_core.apply(
                payload, accumulator=self.accumulator
            )
        else:
            self.payloads.setdefault(src.value, []).append(payload)

    def payload_missing(self, peer: int) -> bool:
        """True if ``peer``'s functional payload has not been stored yet
        (its ``last``-marked packet was lost) — the NACK asks for it."""
        if self.dedupe_payloads:
            return peer not in self._payload_seen
        return peer not in self.payloads

    def result(self) -> Any:
        if self.reduce_core is not None:
            return self.accumulator
        if self.assemble is not None:
            return self.assemble(self.payloads)
        return self.payloads


class CardStats:
    def __init__(self) -> None:
        self.bytes_ingested = 0.0  # host -> card
        self.bytes_egressed = 0.0  # card -> network
        self.bytes_received = 0.0  # network -> card
        self.bytes_delivered = 0.0  # card -> host
        self.frames_sent = 0
        self.frames_received = 0
        self.completion_interrupts = 0
        self.peak_memory_bytes = 0.0
        # -- loss recovery (nonzero only with faults + retries enabled) --
        self.nacks_sent = 0
        self.nacks_received = 0
        self.retransmits = 0
        self.retransmitted_bytes = 0.0
        self.transfer_aborts = 0


class INICCard:
    """A reconfigurable intelligent NIC on the cluster fabric."""

    #: simulated seconds of zero progress after which a gather fails
    STALL_TIMEOUT = 10.0

    def __init__(
        self,
        sim: Simulator,
        address: MacAddress,
        spec: CardSpec = IDEAL_INIC,
        cpu: Optional[CPU] = None,
        name: str = "inic",
    ):
        self.sim = sim
        self.address = address
        self.spec = spec
        self.cpu = cpu
        self.name = name
        self.stats = CardStats()

        self.fabric = FPGAFabric(sim, list(spec.devices), name=f"{name}.fpga")
        self.memory = INICMemory(
            sim, spec.memory_bytes, spec.memory_bandwidth, name=f"{name}.mem"
        )
        if spec.shared_bus:
            # Section 6: "a single 132 MB/s bus used to access both the
            # Gigabit Ethernet and host memory" — every crossing contends.
            bus = FCFSBus(
                sim,
                bandwidth=spec.host_rate,
                arbitration_latency=DEFAULT_ARBITRATION,
                name=f"{name}.bus",
            )
            self.host_tx = self.host_rx = self.net_tx = self.net_rx = bus
        else:
            # Ideal single-chip INIC: independent DMA engines per
            # direction, each at the measured-derated Eq. (6)-(9) rates.
            self.host_tx = FairShareBus(
                sim, spec.host_rate, DEFAULT_ARBITRATION, name=f"{name}.host-tx"
            )
            self.host_rx = FairShareBus(
                sim, spec.host_rate, DEFAULT_ARBITRATION, name=f"{name}.host-rx"
            )
            self.net_tx = FairShareBus(
                sim, spec.net_rate, DEFAULT_ARBITRATION, name=f"{name}.net-tx"
            )
            self.net_rx = FairShareBus(
                sim, spec.net_rate, DEFAULT_ARBITRATION, name=f"{name}.net-rx"
            )

        self.design: Optional[Design] = None
        #: datapath_rate cache: min core rate of the configured design.
        #: Keyed on design identity — recomputed only when the design
        #: changes, not per chunk (the per-chunk min-over-cores scan was
        #: a measurable cost at 256+ nodes).
        self._rate_design: Optional[Design] = None
        self._design_min_rate: float = float("inf")
        self._chunk_cache: dict[tuple[int, Optional[int]], list[int]] = {}
        self._wire_out: Optional[Wire] = None
        #: opt-in for the exchange-phase bulk fast path (set by the
        #: cluster builder from ``ClusterSpec.fastpath``); eligibility
        #: is still checked per operation (:meth:`_fast_eligible`)
        self.fastpath = False

        self._scatter_q: Store = Store(sim, name=f"{name}.scatters")
        self._egress_q: Store = Store(sim, capacity=8, name=f"{name}.egress")
        self._rx_q: Store = Store(sim, name=f"{name}.rx")
        self._gathers: dict[int, GatherOp] = {}
        self._pending_rx: dict[int, deque[Frame]] = {}
        self._mem_in_use = 0.0
        #: per-destination unacknowledged bytes (flow control)
        self._outstanding: dict[int, float] = {}
        self._credit_wakeups: dict[int, Event] = {}
        #: (tag, dst) -> (block, window) retained to serve NACK-driven
        #: retransmits; populated only when ``proto.max_retries > 0``
        self._sent_blocks: dict[tuple[int, int], tuple[SendBlock, Optional[int]]] = {}

        sim.process(self._ingest_loop(), name=f"{name}.ingest")
        sim.process(self._egress_loop(), name=f"{name}.egress")
        sim.process(self._rx_loop(), name=f"{name}.rxloop")

    # -- configuration --------------------------------------------------------------
    def configure(self, design: Design):
        """Generator: load ``design`` onto the fabric (fit check + time)."""
        yield from self.fabric.configure(design, design.clbs, design.ram_kbits)
        self.design = design
        return design

    def require_core(self, core_name: str):
        if self.design is None:
            raise ConfigurationError(f"{self.name}: no design configured")
        return self.design.core(core_name)

    def datapath_rate(self, path_rate: float) -> float:
        """Effective stream rate: the slower of the bus path and the
        configured design's slowest core."""
        design = self.design
        if design is None:
            return path_rate
        if design is not self._rate_design:
            clock = self.fabric.clock_hz
            self._design_min_rate = min(
                (core.rate(clock) for core in design.cores),
                default=float("inf"),
            )
            self._rate_design = design
        min_rate = self._design_min_rate
        return path_rate if path_rate < min_rate else min_rate

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this card's instruments under ``prefix``.

        Covers the datapath counters, the card's bus(es) — one shared
        ``{prefix}.bus`` on the prototype, four per-direction buses on
        the ideal card — the FPGA fabric, and the uplink wire.
        """
        stats = self.stats
        registry.counter(f"{prefix}.bytes_ingested", lambda: stats.bytes_ingested, unit="B")
        registry.counter(f"{prefix}.bytes_egressed", lambda: stats.bytes_egressed, unit="B")
        registry.counter(f"{prefix}.bytes_received", lambda: stats.bytes_received, unit="B")
        registry.counter(f"{prefix}.bytes_delivered", lambda: stats.bytes_delivered, unit="B")
        registry.counter(f"{prefix}.frames_sent", lambda: stats.frames_sent)
        registry.counter(f"{prefix}.frames_received", lambda: stats.frames_received)
        registry.counter(
            f"{prefix}.completion_interrupts", lambda: stats.completion_interrupts
        )
        registry.gauge(
            f"{prefix}.peak_memory_bytes", lambda: stats.peak_memory_bytes, unit="B"
        )
        registry.counter(f"{prefix}.nacks_sent", lambda: stats.nacks_sent)
        registry.counter(f"{prefix}.retransmits", lambda: stats.retransmits)
        registry.counter(f"{prefix}.transfer_aborts", lambda: stats.transfer_aborts)
        if self.host_tx is self.net_rx:
            self.host_tx.register_telemetry(registry, f"{prefix}.bus")
        else:
            self.host_tx.register_telemetry(registry, f"{prefix}.host-tx")
            self.host_rx.register_telemetry(registry, f"{prefix}.host-rx")
            self.net_tx.register_telemetry(registry, f"{prefix}.net-tx")
            self.net_rx.register_telemetry(registry, f"{prefix}.net-rx")
        self.fabric.register_telemetry(registry, f"{prefix}.fpga")
        if self._wire_out is not None:
            self._wire_out.register_telemetry(registry, f"{prefix}.uplink")

    # -- fabric station interface -----------------------------------------------------
    def attach_wire(self, wire: Wire) -> None:
        if self._wire_out is not None:
            raise ConfigurationError(f"{self.name}: wire already attached")
        self._wire_out = wire

    def receive_frame(self, frame: Frame) -> None:
        if frame.kind == "inic-credit":
            # Flow-control credit: free window toward that destination.
            dst = frame.src.value
            self._outstanding[dst] = max(
                0.0, self._outstanding.get(dst, 0.0) - frame.meta["credit"]
            )
            wake = self._credit_wakeups.pop(dst, None)
            if wake is not None:
                wake.succeed(None)
            return
        if frame.kind == "inic-nack":
            self._handle_nack(frame)
            return
        self._rx_q.put(frame)

    def _handle_nack(self, frame: Frame) -> None:
        """A receiver reports ``missing`` undelivered bytes for one of our
        scatter tags: resync the flow window (lost frames never returned
        credits) and re-issue the missing range from the retained block."""
        peer = frame.src.value
        tag = frame.meta["op"]
        missing = frame.meta["missing"]
        self.stats.nacks_received += 1
        self._outstanding[peer] = max(
            0.0, self._outstanding.get(peer, 0.0) - missing
        )
        wake = self._credit_wakeups.pop(peer, None)
        if wake is not None:
            wake.succeed(None)
        retained = self._sent_blocks.get((tag, peer))
        if retained is None:
            # Nothing to resend: we never scattered to this peer under
            # this tag (the plan was wrong) or retention is off.  The
            # receiver's retry budget bounds how long it keeps asking.
            return
        block, window = retained
        nbytes = min(missing, block.nbytes)
        if nbytes < 1:
            return
        data = block.data if frame.meta.get("need_payload") else None
        self.stats.retransmits += 1
        self.stats.retransmitted_bytes += nbytes
        retry = ScatterOp(
            self.sim, tag, [SendBlock(block.dst, nbytes, data)], window
        )
        self._scatter_q.put(retry)

    # -- operation posting ---------------------------------------------------------------
    def post_scatter(
        self,
        tag: int,
        blocks: list[SendBlock],
        window_bytes: Optional[int] = None,
        train: bool = False,
    ) -> ScatterOp:
        """Post a scatter descriptor (free for the host CPU).

        ``window_bytes`` overrides the card's per-destination flow
        window for this operation (incast-heavy collectives pass a
        smaller one so the fabric's no-loss invariant holds).
        ``train`` marks the scatter as one sender's slice of a bulk
        exchange — a flow-clock fast-path candidate.
        """
        if not blocks:
            raise OffloadError("scatter with no blocks")
        op = ScatterOp(self.sim, tag, blocks, window_bytes, train=train)
        if self.spec.proto.max_retries > 0:
            # Retain each destination's block so a NACK can be served.
            # Recovery assumes one block per (tag, destination), which is
            # how every collective in this repo shapes its scatters.
            for block in blocks:
                self._sent_blocks[(tag, block.dst.value)] = (block, window_bytes)
        self._scatter_q.put(op)
        return op

    def post_gather(
        self,
        tag: int,
        plan: TransferPlan,
        assemble: Optional[Callable[[dict[int, list]], Any]] = None,
        reduce_core=None,
    ) -> GatherOp:
        """Post a gather descriptor for phase ``tag``."""
        if tag in self._gathers:
            raise OffloadError(f"gather tag {tag} already active")
        op = GatherOp(self.sim, tag, plan, assemble, reduce_core)
        if self.spec.proto.max_retries > 0:
            # Recovery mode: a retransmission racing its late original may
            # over-deliver — clamp instead of treating it as a protocol
            # violation, and fold each peer's payload at most once.
            plan.tolerate_surplus = True
            op.dedupe_payloads = True
        self._gathers[tag] = op
        self.sim.process(self._gather_watch(op), name=f"{self.name}.gw{tag}")
        # Replay frames that arrived before the gather was posted.
        backlog = self._pending_rx.pop(tag, None)
        if backlog:
            for frame in backlog:
                self._account_rx(op, frame)
        return op

    # -- send datapath ------------------------------------------------------------------
    def _chunks_of(self, nbytes: int, window: Optional[int] = None) -> list[int]:
        # Chunking is a pure function of (nbytes, window) for a given
        # card spec, and an alltoall posts p blocks per node drawn from a
        # handful of distinct sizes — memoize per card.  Callers iterate
        # the list without mutating it.
        cached = self._chunk_cache.get((nbytes, window))
        if cached is not None:
            return cached
        proto = self.spec.proto
        pkt = proto.packet_size
        n_packets = -(-nbytes // pkt)
        q = choose_quantum(
            n_packets,
            proto.quantum_target_events,
            proto.max_quantum,
        )
        # Adaptive batching: grow the quantum to the largest packet train
        # whose serialization stays within the timing tolerance (the
        # window/4 cap below still preserves the credit pipeline).  With
        # batching disabled this falls back to the target-events quantum.
        packet_time = wire_bytes(pkt, proto.headers) / self.spec.net_rate
        q = max(q, adaptive_quantum(n_packets, packet_time, proto.batch))
        chunk = q * pkt
        if window is not None:
            # Keep several chunks in flight inside one window so the
            # credit round trip (which returns per chunk) never drains
            # the pipeline: chunk <= window/4.
            chunk = max(pkt, min(chunk, window // 4))
        sizes = []
        left = nbytes
        while left > 0:
            sizes.append(min(chunk, left))
            left -= sizes[-1]
        self._chunk_cache[(nbytes, window)] = sizes
        return sizes

    def _track_mem(self, delta: float) -> None:
        in_use = self._mem_in_use + delta
        self._mem_in_use = in_use
        if in_use > self.stats.peak_memory_bytes:
            self.stats.peak_memory_bytes = in_use

    def _ingest_loop(self):
        """host memory -> (transform cores) -> card memory, chunked."""
        ingest_rate_fn = lambda: self.datapath_rate(self.host_tx.bandwidth)
        while True:
            op: ScatterOp = yield self._scatter_q.get()
            if op.train and self._fast_eligible(op):
                self._run_scatter_fast(op)
                continue
            window = op.window_bytes or self.spec.flow_window
            for block in op.blocks:
                sizes = self._chunks_of(block.nbytes, window)
                for i, size in enumerate(sizes):
                    yield self.host_tx.transfer(size)
                    # The datapath cores run inline; if the slowest core is
                    # slower than the bus, the stream stalls to its rate.
                    extra = size / ingest_rate_fn() - size / self.host_tx.bandwidth
                    if extra > 1e-12:
                        yield self.sim.timeout(extra)
                    self.stats.bytes_ingested += size
                    self._track_mem(size)
                    last = i == len(sizes) - 1
                    yield self._egress_q.put(
                        _EgressChunk(op, block, size, last)
                    )

    def _egress_loop(self):
        """card memory -> (packetize) -> MAC -> wire, chunked."""
        while True:
            chunk: _EgressChunk = yield self._egress_q.get()
            op, block, size, last = chunk.op, chunk.block, chunk.size, chunk.last
            if block.dst == self.address:
                # Self-addressed block: loops back inside the card
                # (host->card->host), never touching the MAC.
                self._track_mem(-size)
                self._local_deliver(op, block, size, last)
            else:
                # Flow control: never exceed the per-destination window
                # of unacknowledged bytes (broadcast is exempt — one
                # stream per port, no incast).
                if not block.dst.is_broadcast:
                    window = op.window_bytes or self.spec.flow_window
                    dst = block.dst.value
                    while self._outstanding.get(dst, 0.0) + size > window:
                        wake = self.sim.event(name=f"{self.name}.credit")
                        self._credit_wakeups[dst] = wake
                        yield wake
                    self._outstanding[dst] = self._outstanding.get(dst, 0.0) + size
                yield self.net_tx.transfer(size)
                self._track_mem(-size)
                if self._wire_out is None:
                    raise OffloadError(f"{self.name}: egress with no wire attached")
                frame = self._data_frame(op, block, size, last)
                self._wire_out.send(frame)
                self.stats.frames_sent += frame.frame_count
                self.stats.bytes_egressed += size
            if last and block is op.blocks[-1]:
                op.sent.succeed(None)

    def _data_frame(
        self,
        op: ScatterOp,
        block: SendBlock,
        size: int,
        last: bool,
        nocredit: bool = False,
    ) -> Frame:
        """The data frame carrying one ``size``-byte chunk of ``block``.

        Its ``meta`` is the receiver's contract: ``op`` is the gather
        tag, ``last`` marks the chunk that carries the block's
        functional payload, ``total`` is the block's size, and
        ``nocredit`` (train mode) tells the receiver the sender elided
        flow-control credits.
        """
        proto = self.spec.proto
        meta = {"op": op.tag, "last": last, "total": block.nbytes}
        if nocredit:
            meta["nocredit"] = True
        return Frame(
            src=self.address,
            dst=block.dst,
            payload_bytes=size,
            headers=proto.headers,
            frame_count=-(-size // proto.packet_size),
            kind="inic",
            payload=block.data if last else None,
            meta=meta,
        )

    def _local_deliver(
        self, op: ScatterOp, block: SendBlock, size: int, last: bool
    ) -> None:
        """A self-addressed chunk lands in this card's own gather."""
        self._hand_off(self._data_frame(op, block, size, last))

    # -- exchange-phase fast path (repro.net.flowclock) ---------------------------------
    def _fast_eligible(self, op: ScatterOp) -> bool:
        """Can this train scatter take the bulk path exactly?

        Requires the shared-bus geometry (one FCFS clock carries the
        whole cascade, so it reduces to closed form), no loss recovery
        (retention/NACK state must see every frame individually), a
        train-capable fault-free fabric, and a quiescent flow window —
        each block within it and nothing outstanding toward its
        destination, so credit elision cannot overrun a receiver.
        """
        if not self.fastpath or self.spec.proto.max_retries > 0:
            return False
        bus = self.host_tx
        if bus is not self.net_tx or not isinstance(bus, FCFSBus):
            return False
        wire = self._wire_out
        if wire is None or not hasattr(wire, "send_train"):
            return False
        if wire.fault is not None or not wire.fabric.fastpath_ok():
            return False
        window = op.window_bytes or self.spec.flow_window
        addr = self.address
        outstanding = self._outstanding
        for block in op.blocks:
            if block.dst.is_broadcast or block.nbytes > window:
                return False
            if block.dst != addr and outstanding.get(block.dst.value, 0.0) > 0.0:
                return False
        return True

    def _run_scatter_fast(self, op: ScatterOp) -> None:
        """Whole-scatter datapath in closed form: zero events per chunk.

        Each chunk takes the frame-level path's steps in their order —
        ingest crossing of the shared bus, datapath stall, egress
        crossing once the chunk is ready, :meth:`_data_frame` — with
        the bus claimed through :meth:`FCFSBus.reserve` instead of
        waited on.  Chunks alternate ingest/egress strictly, so the
        egress queue rendezvous disappears; the frame train is handed
        to the fabric's flow clock in one call, and the operation
        completes with two scheduled callbacks total (self-addressed
        chunks add one each).  Credits are elided (``nocredit``):
        eligibility already guaranteed the window cannot overrun.
        """
        sim = self.sim
        now = sim.now
        bus = self.host_tx
        reserve = bus.reserve
        data_frame = self._data_frame
        track_mem = self._track_mem
        stats = self.stats
        window = op.window_bytes or self.spec.flow_window
        bw = bus.bandwidth
        ingest_rate = self.datapath_rate(bw)
        frames: list[Frame] = []
        times: list[float] = []
        local: list[tuple[float, SendBlock, int, bool]] = []
        last_t = now
        addr = self.address
        for block in op.blocks:
            sizes = self._chunks_of(block.nbytes, window)
            is_local = block.dst == addr
            n_sizes = len(sizes)
            for i, size in enumerate(sizes):
                _start, ready = reserve(size)
                extra = size / ingest_rate - size / bw
                if extra > 1e-12:
                    ready += extra
                stats.bytes_ingested += size
                track_mem(size)
                last = i == n_sizes - 1
                if is_local:
                    track_mem(-size)
                    local.append((ready, block, size, last))
                    if ready > last_t:
                        last_t = ready
                    continue
                _start, finish = reserve(size, not_before=ready)
                track_mem(-size)
                frame = data_frame(op, block, size, last, nocredit=True)
                frames.append(frame)
                times.append(finish)
                stats.frames_sent += frame.frame_count
                stats.bytes_egressed += size
                if finish > last_t:
                    last_t = finish
        if frames:
            self._wire_out.send_train(frames, times)
        for ready, block, size, last in local:
            sim.call_after(ready - now, self._local_deliver, op, block, size, last)
        sim.call_after(last_t - now, op.sent.succeed, None)

    def receive_train(self, frames: list[Frame], times: list[float]) -> None:
        """Bulk receive from the fabric's delivery batcher.

        One card-bus reservation covers the whole group's payload
        crossing (``len(frames)`` back-to-back transfers, exactly the
        slow path's per-frame bus occupancy), and one callback at its
        completion accounts every frame.  Non-datapath frames (credits,
        NACKs) fall through to :meth:`receive_frame` unchanged.
        """
        inic: list[Frame] = []
        for frame in frames:
            if frame.kind == "inic":
                inic.append(frame)
            else:
                self.receive_frame(frame)
        if not inic:
            return
        bus = self.net_rx
        reserve = getattr(bus, "reserve", None)
        if reserve is None:
            for frame in inic:
                self._rx_q.put(frame)
            return
        total = sum(f.payload_bytes for f in inic)
        _start, finish = reserve(total, len(inic))
        self.sim.call_after(finish - self.sim.now, self._finish_rx_train, inic)

    def _finish_rx_train(self, frames: list[Frame]) -> None:
        """The group's bus crossing completed: land every frame."""
        land = self._land
        for frame in frames:
            land(frame)

    # -- receive datapath ---------------------------------------------------------------
    def _rx_loop(self):
        """MAC -> (depacketize, transform) -> card memory, chunked."""
        while True:
            frame: Frame = yield self._rx_q.get()
            # On the prototype the MAC shares the card bus, so arriving
            # payloads cross it before reaching card memory; the ideal
            # card's dedicated network path is modelled the same way.
            yield self.net_rx.transfer(frame.payload_bytes)
            self._land(frame)

    def _land(self, frame: Frame) -> None:
        """A data frame has crossed the card bus: count it, hold it in
        card memory, return its credit, and hand it to its gather."""
        stats = self.stats
        stats.frames_received += frame.frame_count
        stats.bytes_received += frame.payload_bytes
        self._track_mem(frame.payload_bytes)
        wire = self._wire_out
        if (
            wire is not None
            and not frame.dst.is_broadcast
            and not frame.meta.get("nocredit")
        ):
            # Return a credit: the bytes have left the fabric.
            wire.send(
                Frame(
                    src=self.address,
                    dst=frame.src,
                    payload_bytes=0,
                    headers=self.spec.proto.headers,
                    kind="inic-credit",
                    meta={"credit": frame.payload_bytes},
                )
            )
        self._hand_off(frame)

    def _hand_off(self, frame: Frame) -> None:
        """Account ``frame`` to the gather posted for its tag, or hold
        it until that gather is posted."""
        tag = frame.meta["op"]
        gather = self._gathers.get(tag)
        if gather is None:
            self._pending_rx.setdefault(tag, deque()).append(frame)
        else:
            self._account_rx(gather, frame)

    def _account_rx(self, op: GatherOp, frame: Frame) -> None:
        op.plan.account(frame.src, frame.payload_bytes)
        op.pending_delivery += frame.payload_bytes
        if frame.meta.get("last"):
            op.store_payload(frame.src, frame.payload)

    def _gather_watch(self, op: GatherOp):
        """Deliver card->host in DMA-threshold granules; finish with a
        single completion interrupt.

        With ``proto.max_retries > 0`` the watch doubles as the loss
        detector: a plan that stops progressing for the (exponentially
        backed-off) NACK timeout triggers a NACK round asking each
        incomplete peer to re-issue its missing bytes; after the retry
        budget is spent the gather fails with
        :class:`~repro.errors.TransferAborted`.
        """
        threshold = float(self.spec.dma_threshold)
        proto = self.spec.proto
        plan_done = op.plan.complete
        while True:
            if op.pending_delivery >= threshold:
                take = threshold
            elif plan_done.processed and op.pending_delivery > 0:
                take = op.pending_delivery
            elif plan_done.processed:
                break
            else:
                # Wait for more arrivals or completion; poll on delivery
                # progress via a short event rendezvous with the rx loop.
                received = op.plan.total_received()
                if received == op.last_seen_received:
                    op.stalled_polls += 1
                    stalled_for = op.stalled_polls * self._poll_dt()
                    if proto.max_retries > 0:
                        # Exponential backoff between recovery rounds.
                        deadline = proto.timeout * (
                            proto.retry_backoff ** op.retries
                        )
                        if stalled_for >= deadline:
                            if op.retries >= proto.max_retries:
                                err = TransferAborted(
                                    f"{self.name}: gather #{op.tag} gave up "
                                    f"at {received}/{op.plan.total_expected()}"
                                    f" bytes after {op.retries} retransmit "
                                    "rounds"
                                )
                                self.stats.transfer_aborts += 1
                                self._gathers.pop(op.tag, None)
                                op.done.fail(err)
                                return
                            self._send_nacks(op)
                            op.retries += 1
                            op.stalled_polls = 0
                    elif stalled_for > self.STALL_TIMEOUT:
                        err = OffloadError(
                            f"{self.name}: gather #{op.tag} stalled at "
                            f"{received}/{op.plan.total_expected()} bytes — "
                            "data lost in the fabric (flow-control window "
                            "too large for this traffic pattern?)"
                        )
                        self._gathers.pop(op.tag, None)
                        op.done.fail(err)
                        return
                else:
                    op.stalled_polls = 0
                    op.last_seen_received = received
                yield self.sim.any_of([plan_done, self.sim.timeout(self._poll_dt())])
                continue
            yield self.host_rx.transfer(take)
            op.pending_delivery -= take
            op.delivered_bytes += take
            self._track_mem(-take)
            self.stats.bytes_delivered += take
        # Single completion interrupt for the whole operation.
        self.stats.completion_interrupts += 1
        if self.cpu is not None:
            self.cpu.steal(self.spec.completion_irq_cost)
        self._gathers.pop(op.tag, None)
        op.done.succeed(op.result())

    def _send_nacks(self, op: GatherOp) -> None:
        """One recovery round: ask every incomplete peer for its missing
        bytes (``need_payload`` marks peers whose functional payload —
        the ``last``-flagged packet — was among the losses)."""
        if self._wire_out is None:
            return
        proto = self.spec.proto
        for peer, missing in op.plan.missing_by_peer().items():
            if peer == self.address.value:
                continue  # local loopback cannot lose data
            self.stats.nacks_sent += 1
            self._wire_out.send(
                Frame(
                    src=self.address,
                    dst=MacAddress(peer),
                    payload_bytes=0,
                    headers=proto.headers,
                    kind="inic-nack",
                    meta={
                        "op": op.tag,
                        "missing": missing,
                        "need_payload": op.payload_missing(peer),
                    },
                )
            )

    def _poll_dt(self) -> float:
        """Polling granule for the delivery engine: time for one DMA
        threshold to arrive at the network rate."""
        return self.spec.dma_threshold / self.net_rx.bandwidth

    # -- compute-accelerator mode -----------------------------------------------------------
    def compute(self, data, kernel: Callable, in_bytes: int, out_bytes: int) -> Event:
        """Run ``kernel(data)`` on the card: DMA in, process, DMA out.

        Used in COMPUTE mode (Section 2): the FPGAs as an application
        accelerator with a separate path to host memory for networking.
        """
        if in_bytes < 1 or out_bytes < 0:
            raise OffloadError("bad compute transfer sizes")
        done = self.sim.event(name=f"{self.name}.compute")

        def proc():
            yield self.host_tx.transfer(in_bytes)
            rate = self.datapath_rate(self.memory.bandwidth)
            yield self.sim.timeout(max(in_bytes, out_bytes) / rate)
            result = kernel(data)
            if out_bytes > 0:
                yield self.host_rx.transfer(out_bytes)
            if self.cpu is not None:
                self.cpu.steal(self.spec.completion_irq_cost)
            self.stats.completion_interrupts += 1
            done.succeed(result)

        self.sim.process(proc(), name=f"{self.name}.compute")
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<INICCard {self.name!r} spec={self.spec.name} addr={self.address}>"


class _EgressChunk:
    __slots__ = ("op", "block", "size", "last")

    def __init__(self, op: ScatterOp, block: SendBlock, size: int, last: bool):
        self.op = op
        self.block = block
        self.size = size
        self.last = last
