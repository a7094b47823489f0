"""Identity contracts: every fast path against its named reference.

Each test here is one contract.  Its docstring names the reference it
is held to, and its parameters are the cases it covers; ``pytest -k``
selects them.  A contract is either bit-identity to the reference or a
stated, gated bound:

* ``test_scheduler_trace_matches_heap`` — the native scheduler (the
  compiled heap when the extension is built) against the reference
  ``HeapScheduler``, event for event, over the ci perf suite;
* ``test_coroutine_twin_matches_callback`` — each netbench scenario's
  ``async`` twin against its generator original, under every scheduler
  kind;
* ``test_low_load_arrivals_match_wire_star`` — every busy-until fabric
  against the star's closed-form lone-frame arrival
  (``tests/star_oracle.py``: uplink wire, forwarding decision, egress
  wire), arrival float for arrival float;
* ``test_bulk_admission_matches_frame_level`` — bulk flow-clock train
  admission against frame-level sends: arrivals, conservation ledger
  and fault log; ``..._on_random_trains`` holds it on random train
  schedules;
* ``test_card_train_mode_within_bound`` — the card-level train mode
  (``Experiment().fastpath()``) against the frame-level card, within a
  per-fabric makespan bound.
"""

from __future__ import annotations

import os
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import netbench
from repro.bench.harness import Scale
from repro.bench.sweep import _RUNNERS, perf_points, scale_points
from repro.faults import FaultSpec, WireFault
from repro.net import Frame, MacAddress, build_aggregate_star
from repro.net.topology import build_fattree, build_torus
from repro.sim import Simulator, engine
from repro.sim.sched import SCHEDULER_KINDS
from tests.star_oracle import lone_frame_arrival


def _traced(fn, kind: str):
    """Run ``fn()`` on scheduler ``kind`` with the event-trace sink on;
    returns ``(trace, result)``."""
    saved = os.environ.get("REPRO_SIM_SCHEDULER")
    sink: list = []
    engine.set_trace_sink(sink)
    os.environ["REPRO_SIM_SCHEDULER"] = kind
    try:
        result = fn()
    finally:
        engine.set_trace_sink(None)
        if saved is None:
            os.environ.pop("REPRO_SIM_SCHEDULER", None)
        else:
            os.environ["REPRO_SIM_SCHEDULER"] = saved
    return sink, result


# -- scheduler: native vs the reference heap ---------------------------------
PERF_SUITE = {spec.name: spec for spec in perf_points(Scale.ci())}


@pytest.mark.parametrize("name", list(PERF_SUITE))
def test_scheduler_trace_matches_heap(name):
    """Reference: ``HeapScheduler``.  The native kind must dispatch the
    identical ``(when, prio, seq, type)`` stream and report the same
    events and makespan on every ci perf-suite point (7 points, 20,591
    events).  Without the extension, native falls back to the heap and
    this pins run-to-run determinism instead."""
    spec = PERF_SUITE[name]

    def run():
        r = _RUNNERS[spec.kind](spec.params)
        return r["events"], r["makespan"]

    trace_heap, res_heap = _traced(run, "heap")
    trace_native, res_native = _traced(run, "native")
    assert res_native == res_heap
    assert len(trace_native) == len(trace_heap) == res_heap[0]
    assert trace_native == trace_heap


# -- process layer: coroutine twins vs callback originals --------------------
NETBENCH_PAIRS = {
    "tcp-pingpong": (netbench.tcp_pingpong, netbench.tcp_pingpong_proc),
    "inic-pingpong": (netbench.inic_pingpong, netbench.inic_pingpong_proc),
    "inic-stream": (netbench.inic_stream, netbench.inic_stream_proc),
}


@cache
def _netbench_run(scenario, kind: str):
    """One traced netbench run, kept for the cross-kind comparison."""

    def run():
        res = scenario()
        return res.nbytes, res.repetitions, res.total_time

    return _traced(run, kind)


@pytest.mark.parametrize("name", list(NETBENCH_PAIRS))
@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_coroutine_twin_matches_callback(kind, name):
    """Reference: the scenario's generator ("callback") original.  Its
    ``async`` twin must produce the identical result and ``(when, prio,
    seq, type)`` stream, and the twin's stream must not depend on the
    scheduler kind."""
    callback, twin = NETBENCH_PAIRS[name]
    trace_cb, res_cb = _netbench_run(callback, kind)
    trace_proc, res_proc = _netbench_run(twin, kind)
    assert res_proc == res_cb
    assert len(trace_proc) == len(trace_cb)
    assert trace_proc == trace_cb
    anchor, _ = _netbench_run(twin, SCHEDULER_KINDS[0])
    assert trace_proc == anchor


# -- fabrics: probe stations ---------------------------------------------------
class _Probe:
    """Frame device recording ``(port, arrival, payload bytes)``; it
    takes trains too, so bulk admission can deliver to it in groups."""

    def __init__(self, sim: Simulator, port: int):
        self.sim = sim
        self.port = port
        self.wire = None
        self.got: list[tuple[int, float, int]] = []

    def attach_wire(self, wire) -> None:
        self.wire = wire

    def receive_frame(self, frame: Frame) -> None:
        self.got.append((self.port, self.sim.now, frame.payload_bytes))

    def receive_train(self, frames, times) -> None:
        # Record the exact per-frame arrival floats the batcher carried,
        # not the (later) flush time: that is the identity under test.
        for frame, t in zip(frames, times):
            self.got.append((self.port, t, frame.payload_bytes))


def _wire(builder, n: int, **opts):
    sim = Simulator()
    stations = [_Probe(sim, p) for p in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    return sim, stations, addrs, fabric


def _arrivals(stations) -> list:
    return sorted(got for st in stations for got in st.got)


# -- fabrics: busy-until vs the star's closed form ---------------------------
LOW_LOAD_N = 64
LOW_LOAD_FRAMES = 512
LOW_LOAD_GAP = 1e-3  # >> any serialization time at 1 Gb/s


def _low_load_frames(addrs) -> list:
    """``(send time, frame)`` pairs ``LOW_LOAD_GAP`` apart, so no two
    ever share an uplink, a link clock or an egress port."""
    out = []
    for i in range(LOW_LOAD_FRAMES):
        src = (i * 7) % LOW_LOAD_N
        dst = (i * 13 + 5) % LOW_LOAD_N
        if src == dst:
            dst = (dst + 1) % LOW_LOAD_N
        frame = Frame(
            addrs[src], addrs[dst], payload_bytes=64 + (i * 191) % 1400, headers=8
        )
        out.append((i * LOW_LOAD_GAP, frame))
    return out


def _low_load(builder, **opts):
    """The low-load schedule through ``builder``'s fabric; returns
    ``(sorted arrivals, fabric)``."""
    sim, stations, addrs, fabric = _wire(builder, LOW_LOAD_N, **opts)
    for at, frame in _low_load_frames(addrs):
        sim.call_after(at, stations[frame.src.value].wire.send, frame)
    sim.run()
    return _arrivals(stations), fabric


@cache
def _wire_star_arrivals() -> list:
    """The schedule's arrivals by the closed form, in ``_arrivals`` order."""
    addrs = [MacAddress(i) for i in range(LOW_LOAD_N)]
    return sorted(
        (f.dst.value, lone_frame_arrival(at, f.wire_size), f.payload_bytes)
        for at, f in _low_load_frames(addrs)
    )


@pytest.mark.parametrize(
    "builder,opts",
    [
        pytest.param(build_aggregate_star, {}, id="star"),
        pytest.param(build_fattree, {}, id="fattree"),
        pytest.param(build_fattree, {"oversub": 2}, id="fattree-oversub2"),
        pytest.param(build_torus, {}, id="torus"),
    ],
)
def test_low_load_arrivals_match_wire_star(builder, opts):
    """Reference: the star's closed-form lone-frame arrival
    (:func:`tests.star_oracle.lone_frame_arrival`).  At low load (n=64,
    512 frames) every busy-until fabric must deliver each frame at the
    identical float time, and the multi-hop fabrics must actually have
    routed over more than one hop."""
    arrivals, fabric = _low_load(builder, **opts)
    assert len(arrivals) == LOW_LOAD_FRAMES
    assert arrivals == _wire_star_arrivals()
    if fabric.topology.kind == "star":
        assert fabric.hop_stats()["max_hops"] == 1
    else:
        assert fabric.hop_stats()["max_hops"] > 1


# -- flow clock: bulk train admission vs frame-level sends ------------------
#: dyadic time grid, so ``base + i * intra`` round-trips exactly through
#: the scheduler's relative-delay arithmetic (the send times are then
#: bit-equal between the scheduled frame-level path and the logical
#: times bulk admission replays)
TRAIN_GAP = 2.0 ** -8     # ~3.9 ms between train starts: no overlap
TRAIN_INTRA = 2.0 ** -18  # ~3.8 us intra-train spacing: uplink chain engaged
EXCHANGE_N = 32


def _exchange_trains(n: int, repeat: int = 2):
    """The scale suite's exchange shape: every station sends a train
    covering all peers ``repeat`` times (so destination egress clocks
    see intra-train contention), then an 8-sender incast burst — all
    trains admitted at one timestamp, grouped in train order on both
    paths — that overfills one egress buffer, so the tail-drop ledger
    is exercised inside trains.  Staggered trains never overlap — the
    regime where bulk admission is exact.

    Returns ``[(base_t, src, intra_gap, [(dst, size), ...]), ...]``.
    """
    trains = []
    for src in range(n):
        entries = []
        for j in range(repeat * (n - 1)):
            dst = (src + 1 + j % (n - 1)) % n
            size = 64 + (src * 131 + j * 17) % 1400
            entries.append((dst, size))
        trains.append((src * TRAIN_GAP, src, TRAIN_INTRA, entries))
    # Incast: 8 senders x 20 x 1400 B (~227 KB) at one egress port vs
    # the 128 KB gigabit buffer; send times all equal the burst start.
    # Senders ring the victim so some share its leaf on the fat-tree —
    # remote incast serializes through one spine downlink and never
    # overflows, but same-leaf senders hit the egress clock directly.
    burst_at = n * TRAIN_GAP
    victim = n // 2
    for delta in range(-4, 5):
        src = (victim + delta) % n
        if src == victim or src == 0:
            continue
        trains.append((burst_at, src, 0.0, [(victim, 1400)] * 20))
    return trains


def _exchange(builder, opts, bulk: bool, fault_spec=None, trains=None, n=EXCHANGE_N):
    """Run ``trains`` (default: the exchange pattern) on ``n`` stations
    one way; returns (arrivals, ledger, fabric)."""
    sim, stations, addrs, fabric = _wire(builder, n, **opts)
    if fault_spec is not None:
        uplink = fabric.uplink(0)
        uplink.install_fault(WireFault(fault_spec, uplink.name))
    if trains is None:
        trains = _exchange_trains(n)
    for base_t, src, intra, entries in trains:
        wire = stations[src].wire

        def fire(wire=wire, src=src, base_t=base_t, intra=intra, entries=entries):
            frames = [
                Frame(addrs[src], addrs[dst], payload_bytes=size, headers=8)
                for dst, size in entries
            ]
            times = [base_t + i * intra for i in range(len(frames))]
            if bulk:
                wire.send_train(frames, times)
            else:
                # Mirror the fallback's scheduling exactly: immediate
                # sends inline (train order), future ones per frame.
                now = sim.now
                for frame, t in zip(frames, times):
                    if t <= now:
                        wire.send(frame)
                    else:
                        sim.call_after(t - now, wire.send, frame)

        sim.call_after(base_t, fire)
    sim.run()
    return _arrivals(stations), fabric.conservation_counters(), fabric


LOSSY = FaultSpec(seed=7, loss_rate=0.25, corrupt_rate=0.1)


@pytest.mark.parametrize(
    "builder,opts,fault_spec,tail_drops",
    [
        pytest.param(build_aggregate_star, {}, None, True, id="aggregate"),
        pytest.param(build_fattree, {}, None, True, id="fattree"),
        pytest.param(
            build_fattree, {"oversub": 2}, None, True, id="fattree-oversub2"
        ),
        pytest.param(build_torus, {}, None, False, id="torus"),
        pytest.param(
            build_aggregate_star, {}, LOSSY, True, id="aggregate-faulted"
        ),
    ],
)
def test_bulk_admission_matches_frame_level(builder, opts, fault_spec, tail_drops):
    """Reference: the same trains sent frame by frame.  Bulk admission
    (n=32) must reproduce every arrival float and the conservation
    ledger, tail drops inside the incast burst included.  Unfaulted, the
    fast path must have engaged and cut events.  With a seeded injector
    on uplink 0, that uplink's trains fall back with a bit-identical
    decision log while every other sender still bulk-admits."""
    ref, ref_ledger, ref_fabric = _exchange(builder, opts, False, fault_spec)
    got, ledger, fabric = _exchange(builder, opts, True, fault_spec)
    assert got == ref
    assert ledger == ref_ledger
    assert (ref_ledger["frames_dropped"] > 0) == tail_drops
    if fault_spec is None:
        assert fabric.trains_fast > 0
        assert fabric.sim.event_count < ref_fabric.sim.event_count
    else:
        assert 0 < fabric.trains_fast < len(_exchange_trains(EXCHANGE_N))
        assert fabric.uplink(0).fault.log == ref_fabric.uplink(0).fault.log


@pytest.mark.parametrize(
    "builder",
    [
        pytest.param(build_aggregate_star, id="aggregate"),
        pytest.param(build_fattree, id="fattree"),
        pytest.param(build_torus, id="torus"),
    ],
)
@settings(max_examples=25, deadline=None)
@given(
    trains=st.lists(
        st.tuples(
            st.integers(0, 7),  # source station
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 1500)),
                min_size=1,
                max_size=24,
            ),  # (destination, payload bytes) per frame
        ),
        min_size=1,
        max_size=8,
    )
)
def test_bulk_admission_matches_frame_level_on_random_trains(builder, trains):
    """Reference: the same trains sent frame by frame.  Random sources,
    destinations (self included), sizes and train lengths on 8
    stations, laid on the exchange's dyadic grid — train ``k`` starts
    at ``k * TRAIN_GAP`` with ``TRAIN_INTRA`` spacing, so trains never
    overlap: every arrival float and the ledger must be identical."""
    schedule = [
        (k * TRAIN_GAP, src, TRAIN_INTRA, entries)
        for k, (src, entries) in enumerate(trains)
    ]
    ref, ref_ledger, _ = _exchange(builder, {}, False, trains=schedule, n=8)
    got, ledger, fabric = _exchange(builder, {}, True, trains=schedule, n=8)
    assert got == ref
    assert ledger == ref_ledger
    assert fabric.trains_fast == len(schedule)


# -- card: train mode vs the frame-level card --------------------------------
#: |makespan(fastpath) - makespan(frame-level)| / makespan(frame-level)
#: allowed per fabric at the p=64 scale-suite sort point
TRAIN_MODE_BOUND = {"aggregate": 0.006, "fattree": 0.010, "torus": 0.060}


def _p64_sort(fabric: str, fastpath: bool):
    suffix = "" if fabric == "aggregate" else f"-{fabric}"
    name = f"scale-sort-inic{suffix}-p64"
    specs = scale_points(
        Scale.by_name("large"), max_p=64, fabrics=[fabric], fastpath=fastpath
    )
    (spec,) = [s for s in specs if s.name == name]
    return _RUNNERS[spec.kind](spec.params)["makespan"]


@pytest.mark.parametrize("fabric", list(TRAIN_MODE_BOUND))
def test_card_train_mode_within_bound(fabric):
    """Reference: the frame-level card (``fastpath`` off).  The card's
    train mode accounts each delivery group with one bus reservation
    and one completion callback, so it is not exact; on the p=64 INIC
    sort point its makespan may move by
    at most 0.6% on the aggregate star, 1.0% on the fat-tree and 6.0%
    on the 3D torus (measured +0.53%, +0.94%, +5.88%)."""
    ref = _p64_sort(fabric, fastpath=False)
    got = _p64_sort(fabric, fastpath=True)
    assert abs(got - ref) / ref <= TRAIN_MODE_BOUND[fabric]
