"""Integration tests for the INIC card datapath."""

import numpy as np
import pytest

from repro.errors import FPGAResourceError, OffloadError
from repro.hw import CPU, CacheLevel, MemoryHierarchy
from repro.inic import (
    ACEII_PROTOTYPE,
    Design,
    IDEAL_INIC,
    INICCard,
    SendBlock,
)
from repro.inic.cores import (
    BucketSortCore,
    DepacketizerCore,
    FIFOCore,
    LocalTransposeCore,
    PacketizerCore,
    ReduceCore,
)
from repro.inic.cores.base import CoreSpec, StreamCore
from repro.net import GIGABIT_ETHERNET, MacAddress, build_aggregate_star
from repro.protocols import TransferPlan
from repro.sim import Simulator
from repro.units import MiB


def make_cpu(sim):
    mh = MemoryHierarchy([CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9)])
    return CPU(sim, mh)


def make_cards(n=2, spec=IDEAL_INIC):
    sim = Simulator()
    cards, cpus = [], []
    for i in range(n):
        cpu = make_cpu(sim)
        card = INICCard(sim, MacAddress(i), spec=spec, cpu=cpu, name=f"inic{i}")
        cards.append(card)
        cpus.append(cpu)
    build_aggregate_star(
        sim, [(MacAddress(i), cards[i]) for i in range(n)], tech=GIGABIT_ETHERNET
    )
    return sim, cards, cpus


def basic_design():
    return Design(
        "basic",
        [PacketizerCore(), DepacketizerCore(), FIFOCore()],
        mode="combined",
    )


def test_scatter_gather_round_trip_with_payload():
    sim, cards, _ = make_cards()
    payload = np.arange(1000, dtype=np.float64)
    results = {}

    def node0():
        yield from cards[0].configure(basic_design())
        op = cards[0].post_scatter(
            7, [SendBlock(dst=MacAddress(1), nbytes=payload.nbytes, data=payload)]
        )
        yield op.sent

    def node1():
        yield from cards[1].configure(basic_design())
        plan = TransferPlan(sim, {0: payload.nbytes})
        op = cards[1].post_gather(7, plan)
        results["out"] = yield op.done

    sim.process(node0())
    sim.process(node1())
    sim.run()
    got = results["out"][0][0]
    assert np.array_equal(got, payload)


def test_single_completion_interrupt_per_gather():
    """Section 4.1: 'a single interrupt per transpose'."""
    sim, cards, cpus = make_cards()
    payload = np.zeros(512 * 1024, dtype=np.uint8)  # 512 KiB, many packets

    def node0():
        yield from cards[0].configure(basic_design())
        cards[0].post_scatter(
            1, [SendBlock(MacAddress(1), payload.nbytes, payload)]
        )
        return None
        yield

    def node1():
        yield from cards[1].configure(basic_design())
        plan = TransferPlan(sim, {0: payload.nbytes})
        op = cards[1].post_gather(1, plan)
        yield op.done

    sim.process(node0())
    sim.process(node1())
    sim.run()
    assert cards[1].stats.completion_interrupts == 1
    assert cards[1].stats.frames_received == -(-payload.nbytes // 1024)
    # Host CPU paid only the one completion cost, not per-packet costs.
    assert cpus[1].interrupt_time == pytest.approx(
        cards[1].spec.completion_irq_cost
    )


def test_transfer_rate_matches_eq_rates_ideal():
    """A large one-way transfer should stream at ~min(80,90) MiB/s + fill."""
    sim, cards, _ = make_cards(spec=IDEAL_INIC)
    nbytes = 8 * MiB
    t = {}

    def node0():
        yield from cards[0].configure(basic_design())
        t0 = sim.now
        cards[0].post_scatter(1, [SendBlock(MacAddress(1), nbytes)])
        plan_done = cards[1].post_gather(1, TransferPlan(sim, {0: nbytes}))
        yield plan_done.done
        t["dt"] = sim.now - t0

    def node1():
        yield from cards[1].configure(basic_design())
        return None
        yield

    sim.process(node1())
    sim.process(node0())
    sim.run()
    rate = nbytes / t["dt"]
    # Host path (80 MiB/s) is the slowest pipeline stage.
    assert rate == pytest.approx(80 * MiB, rel=0.15)


def test_prototype_shared_bus_halves_throughput():
    t = {}
    for label, spec in (("ideal", IDEAL_INIC), ("proto", ACEII_PROTOTYPE)):
        sim, cards, _ = make_cards(spec=spec)
        nbytes = 4 * MiB

        def node0():
            yield from cards[0].configure(basic_design())
            t0 = sim.now
            cards[0].post_scatter(1, [SendBlock(MacAddress(1), nbytes)])
            op = cards[1].post_gather(1, TransferPlan(sim, {0: nbytes}))
            yield op.done
            t[label] = sim.now - t0

        def node1():
            yield from cards[1].configure(basic_design())
            return None
            yield

        sim.process(node1())
        sim.process(node0())
        sim.run()
    # Prototype pays two bus crossings per byte per card:
    # ~112/2 = 56 MB/s vs the ideal's 80 MiB/s bottleneck stage.
    assert t["proto"] > 1.4 * t["ideal"]


def test_self_addressed_block_bypasses_network():
    sim, cards, _ = make_cards()
    payload = np.arange(100, dtype=np.int32)
    results = {}

    def node0():
        yield from cards[0].configure(basic_design())
        plan = TransferPlan(sim, {0: payload.nbytes})
        gop = cards[0].post_gather(3, plan)
        cards[0].post_scatter(
            3, [SendBlock(MacAddress(0), payload.nbytes, payload)]
        )
        results["out"] = yield gop.done

    sim.process(node0())
    sim.run()
    assert np.array_equal(results["out"][0][0], payload)
    assert cards[0].stats.frames_sent == 0  # never touched the wire


def test_gather_posted_after_frames_arrive():
    """Early frames are buffered until the gather descriptor lands."""
    sim, cards, _ = make_cards()
    payload = np.ones(2048, dtype=np.uint8)
    results = {}

    def node0():
        yield from cards[0].configure(basic_design())
        cards[0].post_scatter(9, [SendBlock(MacAddress(1), 2048, payload)])
        return None
        yield

    def node1():
        yield from cards[1].configure(basic_design())
        yield sim.timeout(0.1)  # frames arrive long before this
        op = cards[1].post_gather(9, TransferPlan(sim, {0: 2048}))
        results["out"] = yield op.done

    sim.process(node0())
    sim.process(node1())
    sim.run()
    assert np.array_equal(results["out"][0][0], payload)


def test_reduce_gather_accumulates_in_datapath():
    sim, cards, _ = make_cards(n=3)
    contrib = np.arange(64, dtype=np.float64)
    results = {}

    def root():
        yield from cards[0].configure(
            Design("reduce", [PacketizerCore(), DepacketizerCore(), ReduceCore("sum")])
        )
        plan = TransferPlan(sim, {1: contrib.nbytes, 2: contrib.nbytes})
        op = cards[0].post_gather(5, plan, reduce_core=cards[0].require_core("reduce-sum"))
        results["sum"] = yield op.done

    def leaf(i):
        yield from cards[i].configure(basic_design())
        cards[i].post_scatter(
            5, [SendBlock(MacAddress(0), contrib.nbytes, contrib * i)]
        )
        return None
        yield

    sim.process(root())
    sim.process(leaf(1))
    sim.process(leaf(2))
    sim.run()
    assert np.array_equal(results["sum"], contrib * 3)


def test_design_too_big_for_prototype_rejected():
    sim, cards, _ = make_cards(spec=ACEII_PROTOTYPE)
    big = Design("too-big", [BucketSortCore(64)])

    def proc():
        yield from cards[0].configure(big)

    p = sim.process(proc())
    with pytest.raises(FPGAResourceError):
        sim.run(until=p)


def test_scatter_validation():
    sim, cards, _ = make_cards()
    with pytest.raises(OffloadError):
        cards[0].post_scatter(1, [])
    with pytest.raises(OffloadError):
        SendBlock(MacAddress(1), 0)


def test_compute_mode_runs_kernel():
    sim, cards, cpus = make_cards(n=1)
    data = np.arange(1024, dtype=np.float64)
    results = {}

    def proc():
        yield from cards[0].configure(Design("calc", [FIFOCore()], mode="compute"))
        ev = cards[0].compute(
            data, lambda d: d * 2, in_bytes=data.nbytes, out_bytes=data.nbytes
        )
        results["out"] = yield ev

    sim.process(proc())
    sim.run()
    assert np.array_equal(results["out"], data * 2)
    assert cards[0].stats.completion_interrupts == 1


def _slow_core_scatter(fastpath: bool, nbytes: int):
    """One train scatter of ``nbytes`` on the prototype card with a core
    slower than its 112 MB/s shared bus; returns ``(sent, done, card)``
    times relative to the post."""
    sim, cards, _ = make_cards(spec=ACEII_PROTOTYPE)
    for card in cards:
        card.fastpath = fastpath
    # 0.5 B/cycle at the 50 MHz fabric clock: 25 MB/s
    slow = StreamCore(CoreSpec("slow", clbs=10, ram_kbits=1, bytes_per_cycle=0.5))
    design = Design(
        "slow", [PacketizerCore(), DepacketizerCore(), slow], mode="combined"
    )
    t = {}

    def node0():
        yield from cards[0].configure(design)
        t["t0"] = sim.now
        op = cards[0].post_scatter(3, [SendBlock(MacAddress(1), nbytes)], train=True)
        yield op.sent
        t["sent"] = sim.now - t["t0"]

    def node1():
        yield from cards[1].configure(design)
        op = cards[1].post_gather(3, TransferPlan(sim, {0: nbytes}))
        yield op.done
        t["done"] = sim.now - t["t0"]

    sim.process(node0())
    sim.process(node1())
    sim.run()
    return t["sent"], t["done"], cards[0]


@pytest.mark.parametrize("nbytes", [1024, 4096])
def test_train_mode_stalls_on_a_core_slower_than_the_bus(nbytes):
    """Reference: the frame-level card.  When the configured core is
    slower than the card bus, the train mode's egress claim must wait
    for the core (``not_before`` on the bus reservation), exactly as the
    frame-level card's ingest stall does."""
    ref_sent, ref_done, _ = _slow_core_scatter(False, nbytes)
    sent, done, card = _slow_core_scatter(True, nbytes)
    assert card._wire_out.fabric.trains_fast == 1  # the train mode ran
    rate = card.datapath_rate(card.host_tx.bandwidth)
    assert rate < card.host_tx.bandwidth  # the core binds
    assert sent >= nbytes / rate
    assert (sent, done) == (ref_sent, ref_done)
