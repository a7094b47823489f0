"""Netperf-style microbenchmarks: the Section-2 protocol-processor
claims ("more features ... higher bandwidth, and lower latency than
current commodity network subsystems") quantified head to head.

Also a CLI for the exchange-phase admission microbench::

    python benchmarks/bench_net_microbench.py [--json] [--n 8]

sweeps all-to-all frame trains of 2^6 .. 2^14 frames through the
aggregate fabric with bulk flow-clock admission
(:mod:`repro.net.flowclock`) on and off, reporting DES event counts
and host wall seconds per mode.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import run_once

from repro.apps.netbench import inic_pingpong, inic_stream, tcp_pingpong, tcp_stream
from repro.inic import ACEII_PROTOTYPE


def test_latency_tcp_vs_inic(benchmark):
    def measure():
        tcp = tcp_pingpong(nbytes=64, repetitions=10)
        inic = inic_pingpong(nbytes=64, repetitions=10)
        return tcp, inic

    tcp, inic = run_once(benchmark, measure)
    print(f"\n64B one-way latency: TCP {tcp.latency * 1e6:.1f} us "
          f"vs INIC {inic.latency * 1e6:.1f} us "
          f"({tcp.latency / inic.latency:.1f}x)")
    assert inic.latency < tcp.latency


def test_bandwidth_tcp_vs_inic(benchmark):
    def measure():
        tcp = tcp_stream(nbytes=2 << 20, repetitions=2)
        inic = inic_stream(nbytes=2 << 20, repetitions=2)
        return tcp, inic

    tcp, inic = run_once(benchmark, measure)
    print(f"\nbulk bandwidth: TCP {tcp.bandwidth / 1e6:.1f} MB/s "
          f"vs INIC {inic.bandwidth / 1e6:.1f} MB/s")
    assert inic.bandwidth > tcp.bandwidth


def test_prototype_card_bandwidth(benchmark):
    """The ACEII's shared bus caps its protocol-mode bandwidth well
    below the ideal card's."""
    def measure():
        ideal = inic_stream(nbytes=2 << 20, repetitions=2)
        proto = inic_stream(nbytes=2 << 20, repetitions=2, card=ACEII_PROTOTYPE)
        return ideal, proto

    ideal, proto = run_once(benchmark, measure)
    print(f"\nINIC stream: ideal {ideal.bandwidth / 1e6:.1f} MB/s "
          f"vs prototype {proto.bandwidth / 1e6:.1f} MB/s")
    assert proto.bandwidth < ideal.bandwidth


def test_latency_size_sweep(benchmark):
    """Latency vs message size: the INIC advantage is biggest for the
    short messages TCP's mitigation/slow-start hurt most."""
    def measure():
        rows = []
        for nbytes in (64, 1024, 16 * 1024):
            tcp = tcp_pingpong(nbytes=nbytes, repetitions=5)
            inic = inic_pingpong(nbytes=nbytes, repetitions=5)
            rows.append((nbytes, tcp.latency, inic.latency))
        return rows

    rows = run_once(benchmark, measure)
    print()
    for nbytes, t_tcp, t_inic in rows:
        print(f"  {nbytes:>6} B: TCP {t_tcp * 1e6:8.1f} us | "
              f"INIC {t_inic * 1e6:8.1f} us | {t_tcp / t_inic:5.1f}x")
    ratios = [t_tcp / t_inic for _, t_tcp, t_inic in rows]
    assert ratios[0] > ratios[-1]  # small messages gain most


# -- exchange-phase admission microbench ------------------------------------
def exchange_once(n: int, train_len: int, bulk: bool) -> dict:
    """One all-to-all round: ``n`` overlapping senders each admit a
    ``train_len``-frame train (round-robin destinations, 1400 B
    payloads at wire pacing).  Returns DES events and host wall."""
    from repro.net import Frame, MacAddress
    from repro.net.topology import build_aggregate_star
    from repro.sim import Simulator

    class Probe:
        def __init__(self, sim):
            self.sim = sim
            self.wire = None

        def attach_wire(self, wire):
            self.wire = wire

        def receive_frame(self, frame):
            pass

        def receive_train(self, frames, times):
            pass

    sim = Simulator()
    stations = [Probe(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = build_aggregate_star(sim, list(zip(addrs, stations)))
    gap = 12e-6  # ~1400 B at gigabit: keeps every uplink chain busy
    for src in range(n):
        frames = [
            Frame(
                addrs[src],
                addrs[(src + 1 + i % (n - 1)) % n],
                payload_bytes=1400,
                headers=8,
            )
            for i in range(train_len)
        ]
        times = [i * gap for i in range(train_len)]
        if bulk:
            fabric.uplink(src).send_train(frames, times)
        else:
            for frame, t in zip(frames, times):
                sim.call_after(t, fabric._send, fabric.uplink(src), frame)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "events": sim.event_count,
        "wall_seconds": round(wall, 6),
        "trains_fast": fabric.trains_fast,
        "dropped": fabric.conservation_counters()["frames_dropped"],
    }


def exchange_sweep(n: int = 8, sizes=None) -> list:
    sizes = sizes or [2 ** k for k in range(6, 15)]
    rows = []
    for train_len in sizes:
        frame = exchange_once(n, train_len, bulk=False)
        bulk = exchange_once(n, train_len, bulk=True)
        rows.append(
            {
                "train_len": train_len,
                "frame": frame,
                "bulk": bulk,
                "event_reduction": round(
                    frame["events"] / max(1, bulk["events"]), 2
                ),
            }
        )
    return rows


def test_exchange_fastpath_event_reduction(benchmark):
    """Bulk flow-clock admission must cut exchange-phase DES events by
    at least 5x against frame-level sends (the ISSUE-10 floor)."""
    rows = run_once(benchmark, exchange_sweep, 8, [64, 256])
    print()
    for r in rows:
        print(
            f"  train={r['train_len']:>5}: frame {r['frame']['events']:>7} ev"
            f" | bulk {r['bulk']['events']:>6} ev"
            f" | {r['event_reduction']:.1f}x"
        )
    for r in rows:
        assert r["bulk"]["trains_fast"] == 8
        assert r["bulk"]["dropped"] == r["frame"]["dropped"]
        assert r["event_reduction"] >= 5.0


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="exchange-phase admission microbench (bulk vs frame)"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--n", type=int, default=8, help="stations")
    args = parser.parse_args(argv)
    rows = exchange_sweep(args.n)
    if args.json:
        print(json.dumps({"n": args.n, "rows": rows}, indent=2))
        return 0
    print(f"exchange admission microbench: n={args.n} senders, all-to-all")
    print(f"{'train':>7} | {'frame ev':>9} {'wall':>8} | "
          f"{'bulk ev':>8} {'wall':>8} | {'reduction':>9}")
    for r in rows:
        print(
            f"{r['train_len']:>7} | {r['frame']['events']:>9} "
            f"{r['frame']['wall_seconds']:>7.3f}s | {r['bulk']['events']:>8} "
            f"{r['bulk']['wall_seconds']:>7.3f}s | {r['event_reduction']:>8.1f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
