"""Scheduler microbenchmark: raw push/cancel/pop timings per backend.

::

    python -m repro.sim                  # table of ops/sec per scheduler
    python -m repro.sim --json           # same, machine-readable
    python -m repro.sim --n 50000 --kinds native

It times the bare schedulers (no engine, no models) over three
operation mixes so a scheduler change can be judged in isolation:

* ``hold``    — classic hold model: push N timed events, pop them all.
* ``churn``   — the timeout pattern: push N timers, cancel 90% before
  they fire, pop the survivors (cancelled entries are tombstoned and
  dropped lazily).
* ``sawtooth`` — interleaved push/pop with monotone time, the shape the
  run loop actually produces.

Order identity between the backends is not checked here: that contract
is ``tests/test_identities.py::test_scheduler_trace_matches_heap``.
"""

from __future__ import annotations

import json
import sys
import time
from random import Random

from .sched import SCHEDULER_KINDS, make_scheduler

_MIXES = ("hold", "churn", "sawtooth")


def _mix_hold(sched, n: int, rng: Random) -> int:
    for seq in range(n):
        sched.push(rng.random(), 1, seq, seq)
    while sched.pop() is not None:
        pass
    return 2 * n  # n pushes + n pops


def _mix_churn(sched, n: int, rng: Random) -> int:
    entries = []
    for seq in range(n):
        entries.append(sched.push(rng.random() * 1e-3, 1, seq, seq))
    cancelled = 0
    for i, entry in enumerate(entries):
        if i % 10:  # cancel 9 of every 10 before they fire
            sched.cancel(entry)
            cancelled += 1
    while sched.pop() is not None:
        pass
    return n + cancelled + (n - cancelled)


def _mix_sawtooth(sched, n: int, rng: Random) -> int:
    seq = 0
    now = 0.0
    for i in range(n):
        sched.push(now + rng.random() * 1e-4, 1, seq, seq)
        seq += 1
        if i & 1:
            entry = sched.pop()
            if entry is not None:
                now = entry[0]
    while sched.pop() is not None:
        pass
    return 2 * n


_MIX_FNS = {"hold": _mix_hold, "churn": _mix_churn, "sawtooth": _mix_sawtooth}


def bench_report(n: int, seed: int, kinds: tuple[str, ...]) -> dict:
    """Time every (kind, mix) cell; returns a JSON-ready report.

    Each scheduler entry records ``backend`` metadata from its own
    ``stats()`` — for the native kind that distinguishes the compiled
    extension (``compiled: true``) from the reference-heap fallback.
    """
    report: dict = {"n": n, "seed": seed, "mixes": list(_MIXES), "schedulers": {}}
    for kind in kinds:
        probe = make_scheduler(kind).stats()
        entry = {
            "backend": probe["kind"],
            "compiled": bool(probe.get("compiled", False)),
            "ops_per_sec": {},
        }
        for mix in _MIXES:
            sched = make_scheduler(kind)
            rng = Random(seed)
            t0 = time.perf_counter()
            ops = _MIX_FNS[mix](sched, n, rng)
            dt = time.perf_counter() - t0
            if len(sched):
                raise RuntimeError(
                    f"{kind}/{mix}: {len(sched)} entries left queued"
                )
            entry["ops_per_sec"][mix] = ops / dt
        report["schedulers"][kind] = entry
    return report


def run_bench(n: int, seed: int, kinds: tuple[str, ...], as_json: bool = False) -> int:
    try:
        report = bench_report(n, seed, kinds)
    except RuntimeError as exc:
        print(f"FAIL {exc}")
        return 1
    if as_json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    print(f"scheduler microbenchmark: n={n} seed={seed}")
    header = f"{'kind':>10} | " + " | ".join(f"{m:>14}" for m in _MIXES)
    print(header)
    print("-" * len(header))
    for kind in kinds:
        entry = report["schedulers"][kind]
        cells = [
            f"{entry['ops_per_sec'][mix] / 1e6:>10.2f}Mo/s" for mix in _MIXES
        ]
        print(f"{kind:>10} | " + " | ".join(cells))
        if kind == "native" and not entry["compiled"]:
            print(f"{'':>10}   (reference-heap fallback; extension not built)")
    print("(Mo/s = million scheduler operations per second, higher is better)")
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--n", type=int, default=100_000,
        help="events per mix (default 100000)",
    )
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument(
        "--kinds", nargs="+", default=list(SCHEDULER_KINDS),
        choices=list(SCHEDULER_KINDS),
        help="schedulers to time (default: all)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    return run_bench(args.n, args.seed, tuple(args.kinds), as_json=args.json)


if __name__ == "__main__":
    sys.exit(main())
