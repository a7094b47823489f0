"""Busy-until fabrics: the star, fat-tree and 3D torus at O(ports) cost.

:class:`HierarchicalFabric` folds every contention point into a
``busy_until`` float clock: a frame's route is a short tuple of clock
indices, each hop is a few float operations, and delivery is a single
pooled ``call_after``.  A frame costs one timed callback end to end, and
a 1024-node alltoall costs the same events per frame as an 8-node star.

Topologies
----------
:class:`StarTopology`
    The prototype's single switch (Section 5), behind
    ``fabric("aggregate")`` (the default) / :func:`build_aggregate_star`:
    every route is the destination's egress port, so the only contention
    points are each station's uplink and each output port's drain rate.

:class:`FatTreeTopology`
    Two-level leaf/spine Clos.  Stations attach to leaves;
    ``ceil(leaf_ports / oversub)`` spines give an ``oversub``:1
    oversubscription of leaf uplink capacity.  Path selection is
    ECMP-free and deterministic: traffic to destination ``d`` always
    crosses spine ``d % n_spines`` — the same frame sequence routes
    identically on every run and under any ``--jobs`` fan-out.

:class:`TorusTopology`
    3D torus with dimension-ordered (X then Y then Z) routing in the
    spirit of APEnet+: each hop takes the shorter wrap direction, ties
    break toward positive.  Each station's router contributes six
    directional link clocks plus an ejection clock.

Timing model (and where it approximates)
----------------------------------------
The end-to-end *base* latency of every path is the star's: uplink
serialization + one propagation + one forwarding decision + one egress
serialization + one propagation.  Intermediate hops are
*contention-only*: crossing a busy inter-switch link waits for the link
clock (FIFO, line-rate spacing) but an idle one is crossed for free —
cut-through with zero per-hop latency.  Inter-switch links are lossless
(credit-based link-level flow control, as on APEnet+'s torus links and
InfiniBand-style Clos fabrics), so congestion there is queueing delay,
never silent loss; only the final egress port keeps the star's Ethernet
tail-drop semantics.  That is deliberate: at low load every topology
delivers each frame at the star's closed-form arrival time, float for
float (the equivalence anchor,
``tests/test_identities.py::test_low_load_arrivals_match_wire_star``),
and under load the extra contention points shape the curves.

Star semantics under load
-------------------------
The egress port is a busy-until clock, so two choices are fixed by the
arithmetic rather than by an explicit queue:

* **Reservation order.**  A frame reserves its egress port when it is
  *sent* (at uplink admission), not when it reaches the switch.  A
  frame sent behind a backlogged uplink therefore holds its egress
  slot ahead of frames that are sent later from idle uplinks but reach
  the switch first.
* **Residual buffer accounting.**  The tail-drop test charges the
  port's *remaining* backlog, ``(busy_until - arrival) * bandwidth``,
  plus the new frame.  A coalesced frame train frees its bytes as they
  drain, not all at once when its last frame leaves.
"""

from __future__ import annotations

from math import ceil, sqrt
from typing import Optional, Sequence, TYPE_CHECKING

from ..errors import NetworkError
from ..sim.engine import Simulator
from .addresses import MacAddress
from .fabric import (
    FrameDevice,
    GIGABIT_ETHERNET,
    NetworkTechnology,
    _AggregateUplink,
    validate_stations,
)
from .packet import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultPlan

__all__ = [
    "PortStats",
    "StarTopology",
    "FatTreeTopology",
    "TorusTopology",
    "HierarchicalFabric",
    "build_aggregate_star",
    "build_fattree",
    "build_torus",
    "torus_dims",
]


class PortStats:
    """Per-clock counters: one output port or inter-switch link."""

    def __init__(self) -> None:
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.bytes_forwarded = 0.0
        self.bytes_dropped = 0.0
        self.max_queue_bytes = 0.0


class StarTopology:
    """One non-blocking switch: every route is ``(dst,)``.

    Clocks ``0 .. n-1`` are the station egress ports, so a frame crosses
    its uplink clock and one output-port clock — the whole star's
    contention, with tail drop at the egress buffer.  The switch is
    every station's only path, so it is not a failable component; only
    station uplinks (``up<P>``) can fail.
    """

    kind = "star"
    #: Ethernet star: the egress port tail-drops
    lossless = False

    def __init__(self, n_stations: int):
        if n_stations < 1:
            raise NetworkError("star needs at least one station")
        self.n_stations = n_stations
        self.n_clocks = n_stations

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        return (dst,)

    def route_key(self, src: int, dst: int) -> int:
        """Route-cache key: a star route depends only on ``dst``."""
        return dst

    def failure_domain(self, component: str) -> tuple[int, tuple[int, ...]]:
        raise NetworkError(
            f"aggregate star cannot fail switch component {component!r}: "
            f"its single switch is every station's only path (choose "
            f"uplink components up0..up{self.n_stations - 1}, or a "
            f"fattree/torus fabric for switch failures)"
        )

    def clock_name(self, clock: int) -> str:
        return f"switch.down{clock}"

    def switches(self) -> list[tuple[str, list[int]]]:
        """None: the one switch's counters are the fabric-wide totals."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StarTopology {self.n_stations} stations>"


class FatTreeTopology:
    """Two-level leaf/spine geometry + deterministic routing.

    Clock layout (indices into the fabric's clock arrays):

    * ``0 .. n-1`` — station egress ports (``leafL.downX``), the final
      hop of every route;
    * then ``n_leaves * n_spines`` leaf uplinks (``leafL.upS``);
    * then ``n_spines * n_leaves`` spine downlinks (``spineS.downL``).
    """

    kind = "fattree"
    #: Ethernet leaf/spine: the egress port tail-drops like the star's
    lossless = False

    def __init__(
        self,
        n_stations: int,
        oversub: int = 1,
        leaf_ports: Optional[int] = None,
        leaves: Optional[int] = None,
    ):
        if n_stations < 1:
            raise NetworkError("fat-tree needs at least one station")
        if int(oversub) != oversub or oversub < 1:
            raise NetworkError(
                f"fat-tree oversub must be a positive integer, got {oversub!r}"
            )
        oversub = int(oversub)
        if leaf_ports is None:
            # Near-square default: ~sqrt(n) stations per leaf, so leaf
            # count and leaf radix grow together.
            leaf_ports = max(1, ceil(sqrt(n_stations)))
        if leaf_ports < 1:
            raise NetworkError(f"fat-tree leaf_ports must be >= 1, got {leaf_ports}")
        if leaves is None:
            leaves = ceil(n_stations / leaf_ports)
        if leaves * leaf_ports < n_stations:
            raise NetworkError(
                f"fat-tree out of ports: {leaves} leaves x {leaf_ports} "
                f"ports hold {leaves * leaf_ports} stations, need {n_stations}"
            )
        self.n_stations = n_stations
        self.oversub = oversub
        self.leaf_ports = leaf_ports
        self.n_leaves = leaves
        self.n_spines = max(1, ceil(leaf_ports / oversub))
        self._up_base = n_stations
        self._spine_base = n_stations + self.n_leaves * self.n_spines
        self.n_clocks = self._spine_base + self.n_spines * self.n_leaves

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Clock indices the frame traverses; the last is the egress port."""
        lp = self.leaf_ports
        src_leaf = src // lp
        dst_leaf = dst // lp
        if src_leaf == dst_leaf:
            return (dst,)
        spine = dst % self.n_spines
        return (
            self._up_base + src_leaf * self.n_spines + spine,
            self._spine_base + spine * self.n_leaves + dst_leaf,
            dst,
        )

    def route_key(self, src: int, dst: int) -> int:
        """Route-cache key: a fat-tree route only depends on the source
        *leaf*, so the memo stays ``n_leaves * n`` entries, not ``n^2``."""
        return (src // self.leaf_ports) * self.n_stations + dst

    # -- component failures ------------------------------------------------
    def switch_components(self) -> list[str]:
        """Switch names a :class:`~repro.faults.ComponentFaultSpec` may
        fail.  Only spines: a leaf is its stations' sole attachment, so
        its failure is a station failure, not a reroute scenario."""
        return [f"spine{s}" for s in range(self.n_spines)]

    def failure_domain(self, component: str) -> tuple[int, tuple[int, ...]]:
        """``(spine index, clock indices)`` killed by failing ``component``.

        The domain is the spine's downlink clocks: a frame already
        hashed to a dead spine crosses its leaf uplink (charged — the
        leaf did serialize it) and is blackholed at the spine.
        """
        if component.startswith("spine") and component[5:].isdigit():
            k = int(component[5:])
            if k < self.n_spines:
                return k, tuple(
                    self._spine_base + k * self.n_leaves + leaf
                    for leaf in range(self.n_leaves)
                )
        raise NetworkError(
            f"unknown fat-tree switch component {component!r} (choose "
            f"from {', '.join(self.switch_components())}; leaves are "
            f"each their stations' only attachment and are not failable)"
        )

    def route_avoiding(
        self, src: int, dst: int, dead: set, cache: Optional[dict] = None
    ) -> tuple[Optional[tuple[int, ...]], bool]:
        """Fault-tolerant route: ``(hops, rerouted)``.

        Flows whose default spine survives keep their exact
        zero-failure path; flows hashed to a dead spine rehash
        deterministically over the surviving spines
        (``live[dst % len(live)]``).  ``hops`` is ``None`` when no
        spine survives — inter-leaf traffic is partitioned.
        """
        lp = self.leaf_ports
        src_leaf = src // lp
        if src_leaf == dst // lp:
            return (dst,), False
        spine = dst % self.n_spines
        if spine not in dead:
            return self.route(src, dst), False
        live = [s for s in range(self.n_spines) if s not in dead]
        if not live:
            return None, True
        spine = live[dst % len(live)]
        return (
            self._up_base + src_leaf * self.n_spines + spine,
            self._spine_base + spine * self.n_leaves + dst // lp,
            dst,
        ), True

    def clock_name(self, clock: int) -> str:
        if clock < self._up_base:
            return f"leaf{clock // self.leaf_ports}.down{clock % self.leaf_ports}"
        if clock < self._spine_base:
            k = clock - self._up_base
            return f"leaf{k // self.n_spines}.up{k % self.n_spines}"
        k = clock - self._spine_base
        return f"spine{k // self.n_leaves}.down{k % self.n_leaves}"

    def switches(self) -> list[tuple[str, list[int]]]:
        """``(switch name, clock indices)`` pairs for telemetry."""
        out = []
        for leaf in range(self.n_leaves):
            down = [
                c
                for c in range(leaf * self.leaf_ports, (leaf + 1) * self.leaf_ports)
                if c < self.n_stations
            ]
            up = [
                self._up_base + leaf * self.n_spines + s
                for s in range(self.n_spines)
            ]
            out.append((f"leaf{leaf}", down + up))
        for spine in range(self.n_spines):
            out.append(
                (
                    f"spine{spine}",
                    [
                        self._spine_base + spine * self.n_leaves + leaf
                        for leaf in range(self.n_leaves)
                    ],
                )
            )
        return out

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "leaves": self.n_leaves,
            "spines": self.n_spines,
            "leaf_ports": self.leaf_ports,
            "oversub": self.oversub,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FatTreeTopology {self.n_stations} stations, "
            f"{self.n_leaves}x{self.leaf_ports} leaves, {self.n_spines} spines>"
        )


def torus_dims(n: int) -> tuple[int, int, int]:
    """A near-cubic exact factorization of ``n`` (X, Y, Z with XYZ=n)."""
    if n < 1:
        raise NetworkError(f"torus needs at least one station, got {n}")
    target = n ** (1.0 / 3.0)
    x = min(
        (d for d in range(1, n + 1) if n % d == 0),
        key=lambda d: (abs(d - target), d),
    )
    rest = n // x
    target2 = sqrt(rest)
    y = min(
        (d for d in range(1, rest + 1) if rest % d == 0),
        key=lambda d: (abs(d - target2), d),
    )
    return (x, y, rest // y)


class TorusTopology:
    """3D torus with dimension-ordered shortest-wrap routing.

    Every router contributes seven clocks: ``+x,-x,+y,-y,+z,-z`` link
    clocks (``router*7 + 0..5``) and one ejection port
    (``router*7 + 6``) — the final hop of every route, playing the role
    the output port plays in the star.
    """

    kind = "torus"
    #: APEnet+-style system-area interconnect: credit-based link-level
    #: flow control end to end, ejection included — congestion is
    #: queueing delay, never loss
    lossless = True

    #: direction-clock display names, matching the route() encoding
    _DIRS = ("x+", "x-", "y+", "y-", "z+", "z-", "eject")

    def __init__(self, n_stations: int, dims: Optional[Sequence[int]] = None):
        if n_stations < 1:
            raise NetworkError("torus needs at least one station")
        if dims is None:
            dims = torus_dims(n_stations)
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise NetworkError(
                f"torus dims must be three positive integers, got {dims!r}"
            )
        routers = dims[0] * dims[1] * dims[2]
        if routers < n_stations:
            raise NetworkError(
                f"torus out of ports: dims {dims} hold {routers} stations, "
                f"need {n_stations}"
            )
        self.n_stations = n_stations
        self.dims = dims
        self.n_routers = routers
        self.n_clocks = routers * 7

    def coords(self, router: int) -> tuple[int, int, int]:
        x_dim, y_dim, _ = self.dims
        return (
            router % x_dim,
            (router // x_dim) % y_dim,
            router // (x_dim * y_dim),
        )

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Dimension-ordered X->Y->Z, shorter wrap direction, positive
        on ties; ends at the destination router's ejection clock."""
        if src == dst:
            return (dst * 7 + 6,)
        x_dim, y_dim, _ = self.dims
        dims = self.dims
        hops = []
        cur = [src % x_dim, (src // x_dim) % y_dim, src // (x_dim * y_dim)]
        dst_c = (dst % x_dim, (dst // x_dim) % y_dim, dst // (x_dim * y_dim))
        for axis in range(3):
            d = dims[axis]
            delta = (dst_c[axis] - cur[axis]) % d
            if delta == 0:
                continue
            if delta <= d - delta:
                step, direction, count = 1, 2 * axis, delta
            else:
                step, direction, count = -1, 2 * axis + 1, d - delta
            for _ in range(count):
                router = cur[0] + x_dim * (cur[1] + y_dim * cur[2])
                hops.append(router * 7 + direction)
                cur[axis] = (cur[axis] + step) % d
        hops.append(dst * 7 + 6)
        return tuple(hops)

    def route_key(self, src: int, dst: int) -> int:
        """Route-cache key: torus routes depend on the full pair."""
        return src * self.n_stations + dst

    # -- component failures ------------------------------------------------
    def neighbors(self, router: int) -> list[tuple[int, int]]:
        """``(direction, neighbor router)`` pairs in direction order
        (the deterministic tie-break order for detour routing)."""
        x_dim, y_dim, z_dim = self.dims
        c = self.coords(router)
        out = []
        for axis, dim in enumerate(self.dims):
            if dim == 1:
                continue  # a 1-wide axis wraps to self: no link
            for direction, step in ((2 * axis, 1), (2 * axis + 1, -1)):
                n = list(c)
                n[axis] = (n[axis] + step) % dim
                out.append((direction, n[0] + x_dim * (n[1] + y_dim * n[2])))
        return out

    def switch_components(self) -> list[str]:
        """Router names a :class:`~repro.faults.ComponentFaultSpec` may
        fail.  A dead router blocks transit; a station attached to it is
        partitioned for the window."""
        return [f"router{r}" for r in range(self.n_routers)]

    def failure_domain(self, component: str) -> tuple[int, tuple[int, ...]]:
        """``(router index, its seven clocks)`` for ``component``."""
        if component.startswith("router") and component[6:].isdigit():
            r = int(component[6:])
            if r < self.n_routers:
                return r, tuple(range(r * 7, r * 7 + 7))
        raise NetworkError(
            f"unknown torus switch component {component!r} "
            f"(choose from router0..router{self.n_routers - 1})"
        )

    def _nexthop_table(self, dst: int, dead: set) -> dict[int, int]:
        """Fault-tolerant next-hop table toward ``dst``: for every
        router that can still reach ``dst``, the direction clock of a
        shortest detour (BFS over live routers; among equal-length
        choices the lowest direction index wins, so the table — and
        every route walked from it — is deterministic)."""
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt = []
            for r in frontier:
                for _d, nbr in self.neighbors(r):
                    if nbr not in dist and nbr not in dead:
                        dist[nbr] = dist[r] + 1
                        nxt.append(nbr)
            frontier = nxt
        table: dict[int, int] = {}
        for r, d_r in dist.items():
            if r == dst:
                continue
            for direction, nbr in self.neighbors(r):
                if dist.get(nbr) == d_r - 1:
                    table[r] = r * 7 + direction
                    break
        return table

    def route_avoiding(
        self, src: int, dst: int, dead: set, cache: Optional[dict] = None
    ) -> tuple[Optional[tuple[int, ...]], bool]:
        """Fault-tolerant route: ``(hops, detoured)``.

        The dimension-ordered path is kept verbatim when it crosses no
        dead router (zero-failure pairs stay byte-identical); otherwise
        the frame walks the precomputed next-hop table around the
        failure.  ``hops`` is ``None`` when ``src`` or ``dst`` sits on
        a dead router or the failure partitions the pair.
        """
        if src in dead or dst in dead:
            return None, False
        hops = self.route(src, dst)
        if not any(h // 7 in dead for h in hops):
            return hops, False
        if cache is None:
            cache = {}
        table = cache.get(dst)
        if table is None:
            table = cache[dst] = self._nexthop_table(dst, dead)
        x_dim, y_dim, _ = self.dims
        out = []
        r = src
        while r != dst:
            step = table.get(r)
            if step is None:
                return None, True  # the failure partitions this pair
            out.append(step)
            direction = step % 7
            axis, sign = direction // 2, 1 if direction % 2 == 0 else -1
            c = list(self.coords(r))
            c[axis] = (c[axis] + sign) % self.dims[axis]
            r = c[0] + x_dim * (c[1] + y_dim * c[2])
        out.append(dst * 7 + 6)
        return tuple(out), True

    def clock_name(self, clock: int) -> str:
        return f"router{clock // 7}.{self._DIRS[clock % 7]}"

    def switches(self) -> list[tuple[str, list[int]]]:
        return [
            (f"router{r}", list(range(r * 7, r * 7 + 7)))
            for r in range(self.n_routers)
        ]

    def describe(self) -> dict:
        return {"kind": self.kind, "dims": list(self.dims)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        x, y, z = self.dims
        return f"<TorusTopology {self.n_stations} stations on {x}x{y}x{z}>"


class HierarchicalFabric:
    """Multi-hop fabric over per-hop ``busy_until`` clocks.

    A topology maps each (src, dst) pair to a tuple of clock indices.
    Each station's uplink is a clock of its own: ``start = max(now,
    up.busy_until)``, and the frame reaches the first switch ``tx +
    propagation + forwarding_latency`` later.  Intermediate clocks
    charge contention only (see the module docstring); the final clock
    is the destination's output port — FIFO drain at line rate, so
    ``done = max(arrival, out_busy) + tx``, with byte-accounted tail
    drop when the backlog ``(out_busy - arrival) * bandwidth`` plus the
    frame would exceed the port buffer (unless the topology is
    ``lossless``), and delivery one propagation after ``done``, as a
    single pooled ``call_after``.  Frame trains arrive pre-coalesced by
    the sending NIC's batch policy; there is no in-switch train merging
    (a frame already costs one callback).

    Every fabric kind shares one statistics surface
    (``total_dropped``/``port_stats``/telemetry names), so runners and
    instruments work unchanged on every fabric: ``port_stats(i)``
    resolves to station ``i``'s egress clock, and per-switch counters
    aggregate each switch's clocks at snapshot time (pull-based — the
    hot path never touches them).
    """

    def __init__(
        self,
        sim: Simulator,
        topology,
        bandwidth: float,
        propagation_delay: float = 1e-6,
        forwarding_latency: float = 4e-6,
        buffer_bytes_per_port: float = 128 * 1024,
        name: str = "fabric",
    ):
        if bandwidth <= 0:
            raise NetworkError(f"fabric bandwidth must be > 0, got {bandwidth}")
        if buffer_bytes_per_port <= 0:
            raise NetworkError("fabric buffers must be > 0 bytes")
        self.sim = sim
        self.name = name
        self.topology = topology
        self.n_stations = topology.n_stations
        self.n_ports = topology.n_stations
        self.bandwidth = float(bandwidth)
        self.propagation_delay = float(propagation_delay)
        self.forwarding_latency = float(forwarding_latency)
        self.buffer_bytes_per_port = float(buffer_bytes_per_port)
        self._lossless = bool(getattr(topology, "lossless", False))
        self._route = topology.route
        #: (route_key -> hop tuple) memo — routes are static, and at a
        #: million frames per run recomputing them dominated the profile.
        #: ``route_key(src, dst)`` is ``route_key(src, 0) + dst`` for
        #: every topology (keys are row-linear in dst), so the per-frame
        #: key is one list index and one add.
        self._routes: dict[int, tuple[int, ...]] = {}
        self._key_base = [
            topology.route_key(s, 0) for s in range(self.n_stations)
        ]
        self._uplinks = [
            _AggregateUplink(self, p, f"{name}.up{p}")
            for p in range(self.n_stations)
        ]
        self._devices: list[Optional[FrameDevice]] = [None] * self.n_stations
        self._clock_busy = [0.0] * topology.n_clocks
        self._stats = [PortStats() for _ in range(topology.n_clocks)]
        self._egress_clock = [
            topology.route(s, s)[-1] for s in range(self.n_stations)
        ]
        self._table: dict[int, int] = {}
        self._hops_total = 0
        self._frames_routed = 0
        self._max_hops = 0
        # -- component-failure state (all empty/zero unless a fault plan
        # schedules ComponentFaultSpec windows; the hot path only pays
        # falsy checks on the empty containers) -------------------------
        self._detection_delay = 0.0
        #: component windows awaiting the fabric's first frame (armed
        #: lazily so schedules align with the workload, not with however
        #: long setup — e.g. INIC bitstream configuration — took)
        self._pending_components: list[tuple] = []
        self._failed_clocks: set[int] = set()   # frames crossing these drop
        self._dead_switches: set[int] = set()   # routing's (detected) view
        self._dead_uplinks: set[int] = set()
        self._detour_keys: set[int] = set()     # route-memo keys on detours
        self._ft_cache: dict[int, dict[int, int]] = {}
        self._frames_in = 0
        self._reroutes = 0
        self._failover_drops = 0
        self._failover_drop_bytes = 0.0
        self._partition_drops = 0
        self._partition_drop_bytes = 0.0
        self._uplink_drops = 0
        self._uplink_drop_bytes = 0.0
        self._component_transitions = 0
        # -- bulk-admission fast path (repro.net.flowclock) -------------
        #: when non-None, ``_route_deliver`` appends ``(port, frame,
        #: deliver_at)`` here instead of scheduling delivery
        self._collect: Optional[list] = None
        #: per-destination-port delivery batchers, lazily created
        self._train_batchers: dict = {}
        #: True once a component-fault schedule is staged; bulk
        #: admission then falls back to frame-level so seeded fault
        #: schedules stay bit-identical
        self._faults_armed = False
        #: trains admitted via the vectorized fast path
        self.trains_fast = 0

    # -- wiring -----------------------------------------------------------------
    def uplink(self, port: int) -> _AggregateUplink:
        """The TX handle to hand to the station on ``port``."""
        self._check_port(port)
        return self._uplinks[port]

    def attach_station(self, port: int, device: FrameDevice) -> None:
        self._check_port(port)
        if self._devices[port] is not None:
            raise NetworkError(f"fabric port {port} already attached")
        self._devices[port] = device

    def learn(self, address: MacAddress, port: int) -> None:
        """Install a static forwarding entry."""
        self._check_port(port)
        self._table[address.value] = port

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_stations:
            raise NetworkError(
                f"port {port} out of range 0..{self.n_stations - 1}"
            )

    # -- component failures ------------------------------------------------------
    def install_component_faults(self, plan: "FaultPlan") -> None:
        """Validate and stage every
        :class:`~repro.faults.ComponentFaultSpec` window of ``plan``.

        Window starts are **relative to the fabric's first frame**, not
        to simulation time zero: the schedule arms lazily when traffic
        begins, so setup phases of unpredictable length (INIC bitstream
        configuration, TCP warm-up) never silently consume a campaign's
        horizon.  First-frame time is itself a deterministic function of
        the run, so schedules stay bit-identical across ``--jobs``.

        At window start the component's clocks go dark (frames crossing
        them are dropped and charged); ``detection_delay`` later routing
        reacts — the fat-tree rehashes over surviving spines, the torus
        detours via its next-hop table; at window end the component
        repairs and routes converge back to the zero-failure paths.
        """
        spec = plan.spec
        self._detection_delay = spec.detection_delay
        staged: list[tuple] = []
        for comp in spec.components:
            if comp.kind == "uplink":
                port = self._parse_uplink(comp.component)
                staged.extend(
                    ("uplink", port, None, start, duration)
                    for start, duration in comp.windows
                )
                continue
            entity, clocks = self.topology.failure_domain(comp.component)
            staged.extend(
                ("switch", entity, clocks, start, duration)
                for start, duration in comp.windows
            )
        self._pending_components = staged
        if staged:
            self._faults_armed = True

    def _arm_component_faults(self) -> None:
        """First fabric traffic: turn the staged windows into scheduled
        fail/detect/repair events relative to now.  A window starting at
        exactly 0 fails synchronously, so the arming frame itself
        already sees the outage."""
        staged, self._pending_components = self._pending_components, []
        sim = self.sim
        detect = self._detection_delay
        for kind, entity, clocks, start, duration in staged:
            if kind == "uplink":
                if start <= 0:
                    self._uplink_down(entity)
                else:
                    sim.call_after(start, self._uplink_down, entity)
                sim.call_after(start + duration, self._uplink_up, entity)
                continue
            if start <= 0:
                self._switch_down(entity, clocks)
            else:
                sim.call_after(start, self._switch_down, entity, clocks)
            if 0 < detect < duration:
                sim.call_after(start + detect, self._switch_detected, entity)
            sim.call_after(start + duration, self._switch_up, entity, clocks)

    def _parse_uplink(self, component: str) -> int:
        if component.startswith("up") and component[2:].isdigit():
            port = int(component[2:])
            if port < self.n_stations:
                return port
        raise NetworkError(
            f"unknown uplink component {component!r} "
            f"(choose from up0..up{self.n_stations - 1})"
        )

    def _switch_down(self, entity: int, clocks: tuple[int, ...]) -> None:
        self._failed_clocks.update(clocks)
        self._component_transitions += 1
        if self._detection_delay == 0:
            self._switch_detected(entity)

    def _switch_detected(self, entity: int) -> None:
        self._dead_switches.add(entity)
        self._flush_routes()

    def _switch_up(self, entity: int, clocks: tuple[int, ...]) -> None:
        self._failed_clocks.difference_update(clocks)
        self._component_transitions += 1
        if entity in self._dead_switches:
            self._dead_switches.discard(entity)
            self._flush_routes()

    def _uplink_down(self, port: int) -> None:
        self._dead_uplinks.add(port)
        self._component_transitions += 1

    def _uplink_up(self, port: int) -> None:
        self._dead_uplinks.discard(port)
        self._component_transitions += 1

    def _flush_routes(self) -> None:
        # Routing state changed: recompute every route lazily against
        # the new live set (unaffected pairs recompute to their exact
        # old paths, so zero-failure equivalence is preserved).
        self._routes.clear()
        self._detour_keys.clear()
        self._ft_cache.clear()

    def component_counters(self) -> dict:
        """Failover/detour accounting (JSON-safe; feeds sweep reports)."""
        return {
            "reroutes": self._reroutes,
            "failover_drops": self._failover_drops,
            "failover_drop_bytes": float(self._failover_drop_bytes),
            "partition_drops": self._partition_drops,
            "partition_drop_bytes": float(self._partition_drop_bytes),
            "uplink_drops": self._uplink_drops,
            "uplink_drop_bytes": float(self._uplink_drop_bytes),
            "transitions": self._component_transitions,
        }

    def conservation_counters(self) -> dict:
        """Frame-conservation ledger: every frame the fabric routed is
        delivered, dropped at a clock (tail drop or dead component), or
        dropped at routing time for a partitioned destination — the
        chaos harness asserts ``frames_in`` equals the sum."""
        return {
            "frames_in": self._frames_in,
            "frames_delivered": self.total_forwarded(),
            "frames_dropped": self.total_dropped(),
            "partition_drops": self._partition_drops,
        }

    # -- data path ---------------------------------------------------------------
    def _send(self, uplink: _AggregateUplink, frame: Frame) -> float:
        sim = self.sim
        now = sim.now
        if self._pending_components:
            self._arm_component_faults()
        if self._dead_uplinks and uplink.port in self._dead_uplinks:
            # The station's own uplink is down: the frame vanishes at
            # the NIC (recovery, if enabled, will retry past the window).
            self._uplink_drops += frame.frame_count
            self._uplink_drop_bytes += frame.wire_size
            return now
        fault = uplink.fault
        wire_size = frame.wire_size
        tx_time = wire_size / self.bandwidth
        if fault is not None:
            # Same semantics as Wire.send: a dropped transfer vanishes
            # before serialization; a corrupted one burns its uplink
            # serialization time and is discarded unreceived.
            verdict = fault.disposition(frame, now)
            if verdict == "drop":
                return now
            if verdict == "corrupt":
                start = now if now > uplink._busy_until else uplink._busy_until
                uplink._busy_until = start + tx_time
                uplink.busy_time += tx_time
                return uplink._busy_until + self.propagation_delay
        return self._admit(uplink, frame, now, tx_time)

    def _admit(
        self, uplink: _AggregateUplink, frame: Frame, now: float, tx_time: float
    ) -> float:
        """Fault-free admission at logical time ``now``.

        The tail of :meth:`_send` with the clock reading parameterized:
        the flow-clock fast path replays it per frame of a train at the
        frame's send time, so bulk admission runs the exact float
        recurrences of the frame-level path.
        """
        start = now if now > uplink._busy_until else uplink._busy_until
        uplink._busy_until = start + tx_time
        uplink.frames_sent += frame.frame_count
        uplink.bytes_sent += frame.wire_size
        uplink.busy_time += tx_time
        arrival = start + tx_time + self.propagation_delay + self.forwarding_latency
        dst = frame.dst
        if dst.value == -1:  # broadcast: fan out along each unicast route
            last = now
            src_port = uplink.port
            for port in range(self.n_stations):
                if port != src_port and self._devices[port] is not None:
                    last = self._route_deliver(
                        src_port, port, frame.clone_for(dst), arrival, tx_time
                    )
            return last
        port = self._table.get(dst.value)
        if port is None:
            raise NetworkError(f"no forwarding entry for {dst}")
        return self._route_deliver(uplink.port, port, frame, arrival, tx_time)

    def fastpath_ok(self) -> bool:
        """True when bulk admission preserves identity fabric-wide
        (component windows — switch or uplink — force frame-level)."""
        return not self._faults_armed

    def send_train(
        self, uplink: _AggregateUplink, frames: Sequence[Frame], times: Sequence[float]
    ) -> float:
        from .flowclock import admit_train

        return admit_train(self, uplink, frames, times)

    def _route_deliver(
        self, src_port: int, dst_port: int, frame: Frame, arrival: float,
        tx_time: float,
    ) -> float:
        key = self._key_base[src_port] + dst_port
        self._frames_in += frame.frame_count
        hops = self._routes.get(key)
        if hops is None:
            if self._dead_switches:
                hops, detoured = self.topology.route_avoiding(
                    src_port, dst_port, self._dead_switches, self._ft_cache
                )
                if hops is None:
                    hops = ()  # cached partition sentinel
                elif detoured:
                    self._detour_keys.add(key)
            else:
                hops = self._route(src_port, dst_port)
            self._routes[key] = hops
        if not hops:
            # Destination unreachable on the surviving topology: the
            # frame is dropped at routing time; end-to-end recovery
            # either outlives the window or surfaces TransferAborted.
            self._partition_drops += frame.frame_count
            self._partition_drop_bytes += frame.wire_size
            return self.sim.now
        if self._detour_keys and key in self._detour_keys:
            self._reroutes += frame.frame_count
        n_hops = len(hops)
        self._frames_routed += 1
        self._hops_total += n_hops
        if n_hops > self._max_hops:
            self._max_hops = n_hops
        # A route crossing a failed clock (detection window, or a
        # partially-detected multi-hop path) walks only the live hops
        # before it and is blackholed at the dead component.
        live = n_hops - 1
        dead = False
        failed = self._failed_clocks
        if failed:
            for i in range(n_hops):
                if hops[i] in failed:
                    live = i
                    dead = True
                    break
        busy = self._clock_busy
        all_stats = self._stats
        wire_size = frame.wire_size
        frame_count = frame.frame_count
        bandwidth = self.bandwidth
        # Intermediate hops: FIFO contention on each inter-switch link
        # clock; an idle link is crossed for free.  Inter-switch links
        # are *lossless* — credit-based link-level flow control, as in
        # APEnet+'s torus links and InfiniBand-style Clos fabrics —
        # so congestion shows up as queueing delay (watch
        # ``max_queue_bytes``), never as silent loss the end-to-end
        # protocols cannot attribute.  Only the final egress port keeps
        # the star's Ethernet tail-drop semantics.
        for i in range(live):
            k = hops[i]
            b = busy[k]
            stats = all_stats[k]
            backlog = (b - arrival) * bandwidth if b > arrival else 0.0
            queued = backlog + wire_size
            if queued > stats.max_queue_bytes:
                stats.max_queue_bytes = queued
            begin = b if b > arrival else arrival
            busy[k] = begin + tx_time
            stats.frames_forwarded += frame_count
            stats.bytes_forwarded += wire_size
            arrival = begin
        k = hops[live]
        stats = all_stats[k]
        if dead:
            # The drop lands in the dead clock's PortStats, so switch
            # drop totals and the conservation ledger both see it.
            stats.frames_dropped += frame_count
            stats.bytes_dropped += wire_size
            self._failover_drops += frame_count
            self._failover_drop_bytes += wire_size
            return self.sim.now
        # Final hop: the destination's egress port, exactly the star
        # model — except on lossless topologies (the torus), where the
        # ejection port is credit-backpressured like every other link
        # and overflow becomes delay instead of loss.
        b = busy[k]
        backlog = (b - arrival) * bandwidth if b > arrival else 0.0
        queued = backlog + wire_size
        if queued > self.buffer_bytes_per_port and not self._lossless:
            stats.frames_dropped += frame_count
            stats.bytes_dropped += wire_size
            return self.sim.now
        if queued > stats.max_queue_bytes:
            stats.max_queue_bytes = queued
        done = (b if b > arrival else arrival) + tx_time
        busy[k] = done
        stats.frames_forwarded += frame_count
        stats.bytes_forwarded += wire_size
        deliver_at = done + self.propagation_delay
        device = self._devices[dst_port]
        if device is None:
            raise NetworkError(f"fabric port {dst_port} has no station attached")
        collect = self._collect
        if collect is not None:
            collect.append((dst_port, frame, deliver_at))
            return deliver_at
        sim = self.sim
        sim.call_after(deliver_at - sim.now, device.receive_frame, frame)
        return deliver_at

    # -- statistics ---------------------------------------------------------------
    def port_stats(self, port: int) -> PortStats:
        """Station ``port``'s egress-clock stats (star-compatible view)."""
        self._check_port(port)
        return self._stats[self._egress_clock[port]]

    def clock_stats(self, clock: int) -> PortStats:
        """Stats of an arbitrary clock (use ``topology.clock_name``)."""
        return self._stats[clock]

    def total_dropped(self) -> int:
        return sum(s.frames_dropped for s in self._stats)

    def total_dropped_bytes(self) -> float:
        return sum(s.bytes_dropped for s in self._stats)

    def total_forwarded(self) -> int:
        """Frames delivered to stations (egress-clock count;
        intermediate hops are not re-counted)."""
        return sum(
            self._stats[c].frames_forwarded for c in set(self._egress_clock)
        )

    def hop_stats(self) -> dict:
        """Routing cost summary (JSON-safe; feeds sweep reports)."""
        frames = self._frames_routed
        return {
            "frames": frames,
            "total_hops": self._hops_total,
            "max_hops": self._max_hops,
            "avg_hops": (self._hops_total / frames) if frames else 0.0,
        }

    def register_telemetry(self, registry, prefix: str) -> None:
        """Fabric-wide, per-station-port, and per-switch instruments.

        Names the shared surface ``<prefix>.forwarded`` / ``.drops`` /
        ``.port<i>.*`` on every topology and adds
        ``<prefix>.hops``, ``<prefix>.sw.<switch>.*`` aggregates.  A
        port's ``busy_time`` is its egress serialization time
        (forwarded bytes at line rate).  All pull-based: registration
        costs nothing on the data path.
        """
        bandwidth = self.bandwidth
        registry.counter(f"{prefix}.drops", self.total_dropped)
        registry.counter(f"{prefix}.forwarded", self.total_forwarded)
        registry.counter(f"{prefix}.hops", lambda: self._hops_total)
        registry.gauge(
            f"{prefix}.avg_hops", lambda: self.hop_stats()["avg_hops"]
        )
        for port in range(self.n_stations):
            stats = self._stats[self._egress_clock[port]]
            p = f"{prefix}.port{port}"
            registry.counter(f"{p}.frames", lambda s=stats: s.frames_forwarded)
            registry.counter(f"{p}.bytes", lambda s=stats: s.bytes_forwarded, unit="B")
            registry.counter(f"{p}.drops", lambda s=stats: s.frames_dropped)
            registry.counter(
                f"{p}.dropped_bytes", lambda s=stats: s.bytes_dropped, unit="B"
            )
            registry.gauge(
                f"{p}.max_queue_bytes", lambda s=stats: s.max_queue_bytes, unit="B"
            )
            registry.busy(
                f"{p}.busy_time", lambda s=stats: s.bytes_forwarded / bandwidth
            )
        for switch, clocks in self.topology.switches():
            p = f"{prefix}.sw.{switch}"
            group = [self._stats[c] for c in clocks]
            registry.counter(
                f"{p}.frames",
                lambda g=group: sum(s.frames_forwarded for s in g),
            )
            registry.counter(
                f"{p}.bytes",
                lambda g=group: sum(s.bytes_forwarded for s in g),
                unit="B",
            )
            registry.counter(
                f"{p}.drops", lambda g=group: sum(s.frames_dropped for s in g)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HierarchicalFabric {self.name!r} {self.topology!r}>"
        )


class _RetiredStarNames:
    """What the retired name ``repro.net.fabric.AggregateFabric`` resolves to.

    The one-switch star used to be a class of its own; it is now
    :func:`build_aggregate_star`'s :class:`HierarchicalFabric` over
    :class:`StarTopology`.  The benchmark's span tracer
    (``perfbench/tracer.py``) still names the star's admission and
    delivery ``AggregateFabric._admit`` / ``AggregateFabric._deliver``.
    Both resolve here, to the methods that now do that work, on a class
    no fabric is an instance of: the tracer wraps the live methods once,
    through their ``HierarchicalFabric`` names, and its wrappers of
    these two are never called.
    """

    _admit = HierarchicalFabric._admit
    _deliver = HierarchicalFabric._route_deliver


def _build_hierarchical(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    topology,
    tech: NetworkTechnology,
    name: str,
    faults: Optional["FaultPlan"],
) -> HierarchicalFabric:
    validate_stations(stations)
    buffer_bytes = tech.switch_buffer_per_port
    if faults is not None:
        buffer_bytes = faults.switch_buffer(buffer_bytes)
    fabric = HierarchicalFabric(
        sim,
        topology,
        bandwidth=tech.bandwidth,
        propagation_delay=tech.propagation_delay,
        forwarding_latency=tech.switch_latency,
        buffer_bytes_per_port=buffer_bytes,
        name=name,
    )
    for port, (addr, device) in enumerate(stations):
        uplink = fabric.uplink(port)
        device.attach_wire(uplink)
        fabric.attach_station(port, device)
        fabric.learn(addr, port)
        if faults is not None:
            wf = faults.wire_fault(uplink.name)
            if wf is not None:
                uplink.install_fault(wf)
    return fabric


def build_aggregate_star(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    tech: NetworkTechnology = GIGABIT_ETHERNET,
    name: str = "fabric",
    faults: Optional["FaultPlan"] = None,
) -> HierarchicalFabric:
    """Wire ``stations`` to a one-switch :class:`StarTopology`: the
    prototype's fabric and ``ClusterSpec.fabric``'s default.

    A ``faults`` plan installs per-uplink link-fault injectors (named
    ``<name>.up<port>``, which a spec's ``wires`` pattern selects) and
    applies forced switch-buffer pressure.  There are no downlink
    objects: a lost downlink transfer and a lost uplink transfer both
    cost the sender one transfer, so the uplink stream is where all
    link faults are drawn.
    """
    return _build_hierarchical(
        sim, stations, StarTopology(len(stations)), tech, name, faults
    )


def build_fattree(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    tech: NetworkTechnology = GIGABIT_ETHERNET,
    name: str = "fabric",
    faults: Optional["FaultPlan"] = None,
    oversub: int = 1,
    leaf_ports: Optional[int] = None,
    leaves: Optional[int] = None,
) -> HierarchicalFabric:
    """Wire ``stations`` to a leaf/spine fat-tree.

    ``faults`` installs per-uplink injectors and buffer pressure, as on
    the star.
    """
    topo = FatTreeTopology(
        len(stations), oversub=oversub, leaf_ports=leaf_ports, leaves=leaves
    )
    return _build_hierarchical(sim, stations, topo, tech, name, faults)


def build_torus(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    tech: NetworkTechnology = GIGABIT_ETHERNET,
    name: str = "fabric",
    faults: Optional["FaultPlan"] = None,
    dims: Optional[Sequence[int]] = None,
) -> HierarchicalFabric:
    """Wire ``stations`` to a 3D torus (dimension-ordered routing)."""
    topo = TorusTopology(len(stations), dims=dims)
    return _build_hierarchical(sim, stations, topo, tech, name, faults)
