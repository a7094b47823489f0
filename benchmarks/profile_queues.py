"""Scheduler profiling harness: where does event-queue time go?

A standalone script (not a pytest benchmark — profiling wants a steady
process, not a fixture sandwich) with three modes::

    python benchmarks/profile_queues.py
        Comparison table: every scheduler kind under the hold,
        cancel-churn, and sawtooth mixes, with speedups vs the
        reference heap.  This is ``python -m repro.sim`` data
        reshaped around the "which backend should I use?" question.

    python benchmarks/profile_queues.py --profile native hold
        cProfile one (kind, mix) cell of the microbenchmark, sorted by
        cumulative time.  For the reference heap this shows the heapq
        sift costs; for the compiled native backend the scheduler
        vanishes from the profile entirely — which is the point.

    python benchmarks/profile_queues.py --suite native
        cProfile the full ci perf suite (real engine, real models)
        under the given scheduler kind.  This is the view that drove
        the hot-path flattening work: once the queue is native, the
        remaining time is the run loop and the protocol models.

    python benchmarks/profile_queues.py --fabric fattree --p 64
        cProfile one scale-suite INIC exchange point on the given
        fabric kind.  Pass --no-fastpath to profile the frame-level
        admission path instead of the bulk flow clock
        (repro.net.flowclock) — diffing the two profiles shows what
        the fast path removed (per-chunk egress events, per-frame
        admission) and what remains (host compute, bulk rx).

Run from the repository root; ``src/`` is bootstrapped onto ``sys.path``
so no install step is needed.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.__main__ import _MIX_FNS, _MIXES, bench_report  # noqa: E402
from repro.sim.sched import SCHEDULER_KINDS, make_scheduler  # noqa: E402


def compare(n: int, seed: int) -> int:
    """Print the all-kinds comparison table with speedups vs heap."""
    report = bench_report(n, seed, SCHEDULER_KINDS)
    heap = report["schedulers"]["heap"]["ops_per_sec"]
    header = f"{'kind':>10} {'backend':>18} | " + " | ".join(
        f"{m:>22}" for m in _MIXES
    )
    print(f"scheduler comparison: n={n} seed={seed} (speedup vs heap)")
    print(header)
    print("-" * len(header))
    for kind, entry in report["schedulers"].items():
        backend = entry["backend"] + ("/compiled" if entry["compiled"] else "")
        cells = []
        for mix in _MIXES:
            ops = entry["ops_per_sec"][mix]
            cells.append(f"{ops / 1e6:>8.2f}Mo/s ({ops / heap[mix]:>5.2f}x)")
        print(f"{kind:>10} {backend:>18} | " + " | ".join(cells))
    return 0


def profile_cell(kind: str, mix: str, n: int, seed: int, top: int) -> int:
    """cProfile one scheduler microbenchmark cell."""
    sched = make_scheduler(kind)
    stats = sched.stats()
    backend = stats["kind"] + ("/compiled" if stats.get("compiled") else "")
    print(f"profiling {kind} ({backend}) under mix {mix!r}, n={n}")
    fn = _MIX_FNS[mix]
    rng = Random(seed)
    prof = cProfile.Profile()
    prof.enable()
    fn(sched, n, rng)
    prof.disable()
    pstats.Stats(prof).sort_stats("cumulative").print_stats(top)
    return 0


def profile_suite(kind: str, scale: str, top: int) -> int:
    """cProfile the ci perf suite end to end under scheduler ``kind``."""
    from repro.bench.harness import Scale
    from repro.bench.sweep import _RUNNERS, perf_points

    saved = os.environ.get("REPRO_SIM_SCHEDULER")
    os.environ["REPRO_SIM_SCHEDULER"] = kind
    try:
        specs = list(perf_points(Scale.by_name(scale)))
        print(f"profiling perf suite ({len(specs)} scenarios) under {kind!r}")
        prof = cProfile.Profile()
        prof.enable()
        for spec in specs:
            _RUNNERS[spec.kind](spec.params)
        prof.disable()
    finally:
        if saved is None:
            os.environ.pop("REPRO_SIM_SCHEDULER", None)
        else:
            os.environ["REPRO_SIM_SCHEDULER"] = saved
    pstats.Stats(prof).sort_stats("cumulative").print_stats(top)
    return 0


def profile_fabric(
    fabric: str, p: int, app: str, fastpath: bool, top: int
) -> int:
    """cProfile one scale-suite INIC exchange point on ``fabric``."""
    from repro.bench.harness import Scale
    from repro.bench.sweep import _RUNNERS, scale_points

    infix = "" if fabric == "aggregate" else f"{fabric}-"
    name = f"scale-{app}-inic-{infix}p{p}"
    specs = {
        s.name: s
        for s in scale_points(Scale.by_name("large"), fastpath=fastpath)
    }
    spec = specs.get(name)
    if spec is None:
        candidates = ", ".join(k for k in sorted(specs) if "-inic-" in k)
        print(f"no scale point {name!r}; have: {candidates}")
        return 2
    mode = "bulk flow-clock" if fastpath else "frame-level"
    print(f"profiling {name} ({mode} admission)")
    prof = cProfile.Profile()
    prof.enable()
    _RUNNERS[spec.kind](spec.params)
    prof.disable()
    pstats.Stats(prof).sort_stats("cumulative").print_stats(top)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--profile", nargs=2, metavar=("KIND", "MIX"),
        help="cProfile one (scheduler, mix) microbenchmark cell",
    )
    mode.add_argument(
        "--suite", metavar="KIND", choices=list(SCHEDULER_KINDS),
        help="cProfile the ci perf suite under a scheduler kind",
    )
    mode.add_argument(
        "--fabric", choices=["aggregate", "fattree", "torus"],
        help="cProfile one scale-suite INIC exchange point on this fabric",
    )
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--scale", default="ci", choices=["ci", "bench", "paper"])
    parser.add_argument(
        "--p", type=int, default=64,
        help="(--fabric) node count of the profiled scale point",
    )
    parser.add_argument(
        "--app", default="sort", choices=["sort", "fft"],
        help="(--fabric) which exchange workload to profile",
    )
    parser.add_argument(
        "--no-fastpath", action="store_true",
        help="(--fabric) profile frame-level admission instead of the "
        "bulk flow clock",
    )
    parser.add_argument(
        "--top", type=int, default=15, help="profile rows to print"
    )
    args = parser.parse_args(argv)
    if args.profile:
        kind, mix = args.profile
        if kind not in SCHEDULER_KINDS:
            parser.error(f"unknown scheduler kind {kind!r}")
        if mix not in _MIXES:
            parser.error(f"unknown mix {mix!r} (choose from {', '.join(_MIXES)})")
        return profile_cell(kind, mix, args.n, args.seed, args.top)
    if args.suite:
        return profile_suite(args.suite, args.scale, args.top)
    if args.fabric:
        return profile_fabric(
            args.fabric, args.p, args.app, not args.no_fastpath, args.top
        )
    return compare(args.n, args.seed)


if __name__ == "__main__":
    sys.exit(main())
