#!/usr/bin/env python3
"""The repository benchmark: one simulated point per workload, timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload inic-sort-fattree --seed 1 --seconds 25 --trace 0

``--trace 0`` times untraced points for ``--seconds`` and reports the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); walls
and set-ups are in seconds at the reference pace of ``pacer.py``, with
the raw host medians printed beside them.
``--trace 1`` alternates untraced and traced points and reports the
per-layer metrics instead (see ``perfbench/README.md``).  Every point's
outputs are checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
1 when any point failed.

The optional compiled scheduler (``src/repro/sim/_csched.c``) is built
with the repository's own ``setup.py`` into ``.bench_build/`` on first
use and loaded from there; the run manifest records whether the
compiled backend was actually in use.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: one process, one core.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

#: set-up-only builds after every point, on top of the point's own
#: build, so that ``setup_s`` is a median over many samples spread
#: across the whole run
SETUP_BUILDS = 3

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics (``--trace 1``): name -> unit.  ``s`` is host
#: time, ``sim_s`` simulated time of the modelled cluster.
PER_LAYER = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us",
    "sim.sched_peak": "count",
    "sim.makespan_s": "sim_s",
    "hw.self_s": "s",
    "hw.cpu_busy_max_s": "sim_s",
    "hw.pci_busy_max_s": "sim_s",
    "hw.irq_delivered": "count",
    "net.self_s": "s",
    "net.flowclock.self_s": "s",
    "net.frames_in": "count",
    "net.trains_fast": "count",
    "net.train_frame_ratio": "ratio",
    "net.drop_ratio": "ratio",
    "net.uplink_busy_max_s": "sim_s",
    "inic.self_s": "s",
    "inic.frames_sent": "count",
    "inic.frames_received": "count",
    "inic.bus_busy_max_s": "sim_s",
    "inic.fpga_config_s": "sim_s",
    "protocols.tcp.self_s": "s",
    "protocols.tcp.retransmits": "count",
    "protocols.inic.nacks_sent": "count",
    "protocols.inic.retransmits": "count",
    "protocols.inic.goodput_ratio": "ratio",
    "cluster.self_s": "s",
    "cluster.comm_sim_max_s": "sim_s",
    "apps.self_s": "s",
    "core.build_s": "s",
    "core.self_s": "s",
    "faults.self_s": "s",
    "faults.frames_dropped": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

#: simulated-time spans the applications already record for their
#: communication phases (summed per rank for ``cluster.comm_sim_max_s``)
COMM_SPANS = ("inic-sort-comm", "transpose-comm")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------
def build_native() -> str:
    """Build the optional compiled scheduler into ``.bench_build`` (once
    per source revision) and register it as ``repro.sim._csched``.

    Returns ``"ok"``, ``"absent"`` (no extension source) or ``"failed"``
    (the build did not produce a module; the pure-Python fallback then
    serves the ``native`` scheduler kind).
    """
    source = ROOT / "src" / "repro" / "sim" / "_csched.c"
    setup = ROOT / "setup.py"
    if not (source.is_file() and setup.is_file()):
        return "absent"
    stamp = hashlib.sha256(source.read_bytes() + setup.read_bytes()).hexdigest()[:16]
    lib = OUT / "native" / stamp
    found = sorted(lib.glob("repro/sim/_csched*.so"))
    if not found:
        result = subprocess.run(
            [
                sys.executable, "setup.py", "-q", "build_ext",
                "--build-lib", str(lib),
                "--build-temp", str(OUT / "native-tmp" / stamp),
            ],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=600,
            check=False,
        )
        found = sorted(lib.glob("repro/sim/_csched*.so"))
        if not found:
            sys.stderr.write(f"perfbench: native scheduler build failed\n{result.stderr}")
            return "failed"
    spec = importlib.util.spec_from_file_location("repro.sim._csched", found[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro.sim._csched"] = module
    return "ok"


def prepare() -> str:
    """Make ``repro`` (from this checkout's ``src/``) importable."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    native = build_native()
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return native


def _revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_sha() -> str:
    """Content hash of the simulator sources (stands in for the git
    revision in checkouts that are not repositories)."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest(workload, args, native: str, first) -> dict:
    import numpy as np
    from repro.bench.calibration import measure_kernel_rates

    return {
        "revision": _revision(),
        "source_sha256": _source_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "native_build": native,
        "scheduler": {
            "kind": first.sched.get("kind"),
            "compiled": first.sched.get("compiled"),
        },
        "fastpath": {"requested": workload.fastpath, "trains_fast": first.trains_fast},
        "kernel_rates": dataclasses.asdict(measure_kernel_rates()),
        "workload": dataclasses.asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Point:
    """One built-and-run simulation point."""

    setup_s: float
    wall_s: float
    #: ``perf_counter`` start and end of the build and of the app call
    setup_span: tuple = (float("nan"), float("nan"))
    app_span: tuple = (float("nan"), float("nan"))
    makespan: float = float("nan")
    events: int = -1
    trains_fast: int = 0
    problems: list = dataclasses.field(default_factory=list)
    layers: dict = dataclasses.field(default_factory=dict)
    sched: dict = dataclasses.field(default_factory=dict)


def run_point(workload, data, seed: int, tracer=None) -> Point:
    """Build, run and check one point (``tracer``: record spans)."""
    gc.collect()
    exp = workload.experiment(seed)
    if tracer is not None:
        exp = exp.telemetry(True)
    t0 = time.perf_counter()
    session = exp.build()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        t2 = time.perf_counter()
        outcome, problems = workload.attempt(session, data)
        t3 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.active = False
    point = Point(
        setup_s=t1 - t0, wall_s=t3 - t2, setup_span=(t0, t1), app_span=(t2, t3),
        problems=problems,
    )
    point.events = session.sim.event_count
    point.trains_fast = getattr(session.cluster.switch, "trains_fast", 0)
    point.sched = session.sim.sched_stats()
    if outcome is not None:
        output, result = outcome
        point.makespan = result.makespan
        point.problems += workload.check(session, data, output)
    if tracer is not None:
        point.layers = layer_metrics(session, point, tracer)
    return point


def layer_metrics(session, point: Point, tracer) -> dict:
    """The per-layer table of one traced point."""
    from tracer import LAYERS, self_times

    from repro.faults import robustness_counters

    by_layer, root_total, min_self = self_times(
        tracer.arrays(), tracer.name_layer, len(LAYERS)
    )
    own = dict(zip(LAYERS, (float(x) for x in by_layer)))
    unattributed = point.wall_s - root_total
    # Integrity: children nest inside parents, roots inside the wall.
    slack = 1e-6 * max(point.wall_s, 1.0)
    if min_self < -slack or unattributed < -slack:
        point.problems.append(
            f"trace: spans do not nest (min self {min_self:.3g} s, "
            f"unattributed {unattributed:.3g} s)"
        )
    if abs(sum(own.values()) + unattributed - point.wall_s) > slack:
        point.problems.append("trace: layer self times do not sum to the traced wall")

    metrics = session.metrics()

    def per_node(suffix: str) -> list[float]:
        return [v for k, v in metrics.items() if k.startswith("node") and k.endswith(suffix)]

    def peak(suffix: str) -> float:
        return max(per_node(suffix), default=0.0)

    cluster = session.cluster
    ledger = cluster.switch.conservation_counters()
    faults = robustness_counters(cluster)
    frames_in = ledger["frames_in"]
    delivered = sum(per_node(".inic.bytes_delivered"))
    resent = faults["retransmitted_bytes"]
    comm: dict[object, float] = {}
    for span in cluster.trace.spans:
        if span.name in COMM_SPANS:
            rank = span.meta.get("rank")
            comm[rank] = comm.get(rank, 0.0) + span.duration
    return {
        "sim.events": point.events,
        "sim.self_s": own["sim"],
        "sim.us_per_event": own["sim"] / max(point.events, 1) * 1e6,
        "sim.sched_peak": point.sched.get("peak", 0),
        "sim.makespan_s": point.makespan,
        "hw.self_s": own["hw"],
        "hw.cpu_busy_max_s": peak(".cpu.busy_time"),
        "hw.pci_busy_max_s": peak(".pci.busy_time"),
        "hw.irq_delivered": sum(per_node(".irq.delivered")),
        "net.self_s": own["net"],
        "net.flowclock.self_s": own["net.flowclock"],
        "net.frames_in": frames_in,
        "net.trains_fast": point.trains_fast,
        "net.train_frame_ratio": tracer.train_frames / frames_in if frames_in else 0.0,
        "net.drop_ratio": (
            (ledger["frames_dropped"] + ledger["partition_drops"]) / frames_in
            if frames_in else 0.0
        ),
        "net.uplink_busy_max_s": peak(".uplink.busy_time"),
        "inic.self_s": own["inic"],
        "inic.frames_sent": sum(per_node(".inic.frames_sent")),
        "inic.frames_received": sum(per_node(".inic.frames_received")),
        "inic.bus_busy_max_s": peak(".inic.bus.busy_time"),
        "inic.fpga_config_s": peak(".inic.fpga.config_time"),
        "protocols.tcp.self_s": own["protocols.tcp"],
        "protocols.tcp.retransmits": sum(per_node(".tcp.retransmitted_frames")),
        "protocols.inic.nacks_sent": faults["nacks_sent"],
        "protocols.inic.retransmits": faults["retransmits"],
        "protocols.inic.goodput_ratio": (
            delivered / (delivered + resent) if delivered + resent else 0.0
        ),
        "cluster.self_s": own["cluster"],
        "cluster.comm_sim_max_s": max(comm.values(), default=0.0),
        "apps.self_s": own["apps"],
        "core.self_s": own["core"],
        "faults.self_s": own["faults"],
        "faults.frames_dropped": faults["frames_dropped"],
        "trace.wall_s": point.wall_s,
        "trace.unattributed_s": unattributed,
        "trace.spans": len(tracer.start),
    }


def traced_point(workload, data, seed: int):
    """One point with every layer boundary wrapped in spans."""
    from tracer import Patches, Tracer

    tracer = Tracer()
    patches = Patches(tracer).install()
    try:
        point = run_point(workload, data, seed, tracer)
    finally:
        patches.remove()
    return point, tracer, patches.missing


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then run points for ``seconds``; returns the raw record.

    Untraced runs keep a :class:`pacer.Pacer` running throughout, so
    every timed section also has a value at the reference pace.  Traced
    runs do not: its chunks would land in the spans.
    """
    from pacer import REFERENCE_CHUNK_S, Pacer

    pacer = None if trace else Pacer()
    with pacer if pacer is not None else contextlib.nullcontext():
        record = _measure_points(workload, seed, seconds, trace)
    if pacer is not None:
        record["walls_ref"] = [pacer.reference_time(*p.app_span) for p in record["points"]]
        record["setups_ref"] = [pacer.reference_time(*s) for s in record["setup_spans"]]
        record["pace"] = _median(pacer.duration) / REFERENCE_CHUNK_S
        record["chunks"] = len(pacer.duration)
    return record


def _measure_points(workload, seed: int, seconds: float, trace: bool) -> dict:
    data = workload.inputs(seed)
    attempts: list[tuple[str, Point | None]] = []
    failures: list[str] = []
    setup_spans: list[tuple[float, float]] = []
    record = {"missing_entry_points": [], "tracer": None}

    def attempt(kind: str, fn) -> None:
        try:
            attempts.append((kind, fn()))
        except Exception:  # a point that raises is a failed point
            attempts.append((kind, None))
            failures.append(f"{kind} point raised:\n{traceback.format_exc()}")

    def traced() -> Point:
        point, record["tracer"], record["missing_entry_points"] = traced_point(
            workload, data, seed
        )
        return point

    tiny = workload.tiny()
    attempt("warm-up", lambda: run_point(tiny, tiny.inputs(seed), seed))

    deadline = time.perf_counter() + seconds
    while True:
        attempt("untraced", lambda: run_point(workload, data, seed))
        if trace:
            attempt("traced", traced)
        for _ in range(SETUP_BUILDS):
            gc.collect()
            t0 = time.perf_counter()
            workload.experiment(seed).build()
            setup_spans.append((t0, time.perf_counter()))
        done = [p for k, p in attempts if k != "warm-up" and p is not None]
        if time.perf_counter() >= deadline and len(done) >= 2:
            break
        if len(attempts) > 1 and not done:
            break  # every attempt raised; do not spin until the deadline

    points = [p for k, p in attempts if k == "untraced" and p is not None]
    traced_points = [p for k, p in attempts if k == "traced" and p is not None]
    # Every repetition of the point, traced or not, must agree exactly.
    if points:
        ref = points[0]
        for p in points + traced_points:
            if (p.makespan, p.events) != (ref.makespan, ref.events):
                p.problems.append(
                    f"makespan/events {p.makespan!r}/{p.events} differ from "
                    f"the first repetition's {ref.makespan!r}/{ref.events}"
                )
    for kind, p in attempts:
        if p is not None:
            failures.extend(f"{kind} point: {problem}" for problem in p.problems)
            if kind != "warm-up":
                setup_spans.append(p.setup_span)
    record.update(
        points=points,
        traced=traced_points,
        setup_spans=setup_spans,
        setups=[t1 - t0 for t0, t1 in setup_spans],
        failures=failures,
        attempted=len(attempts),
        failed=sum(p is None or bool(p.problems) for _, p in attempts),
        first=next((p for _, p in attempts if p is not None), None),
    )
    return record


def end_to_end(record: dict) -> dict:
    """Walls and set-ups at the reference pace when the run was paced,
    raw host seconds otherwise (traced runs)."""
    walls = record.get("walls_ref", [p.wall_s for p in record["points"]])
    return {
        "wall_s": _median(walls),
        "setup_s": _median(record.get("setups_ref", record["setups"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(record: dict) -> dict:
    traced = record["traced"]
    out = {
        name: _median([p.layers[name] for p in traced if name in p.layers])
        for name in PER_LAYER
        if name not in ("core.build_s", "trace.overhead_s")
    }
    out["core.build_s"] = _median([p.setup_s for p in record["points"]])
    out["trace.overhead_s"] = out["trace.wall_s"] - _median(
        [p.wall_s for p in record["points"]]
    )
    return out


def _table(title: str, rows) -> str:
    lines = [title]
    for name, value, unit, note in rows:
        lines.append(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    native = prepare()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    record = measure(workload, args.seed, args.seconds, bool(args.trace))
    if record["first"] is None:
        sys.stderr.write("\n".join(record["failures"]) + "\n")
        return 1
    info = manifest(workload, args, native, record["first"])
    info["trace_missing_entry_points"] = record["missing_entry_points"]

    points = record["points"]
    e2e = end_to_end(record)
    attempted, failed = record["attempted"], record["failed"]
    ref = next(iter(points + record["traced"]), Point(float("nan"), float("nan")))
    clock = "reference pace" if "walls_ref" in record else "raw host"
    print(
        _table(
            f"perfbench {args.workload} seed={args.seed} trace={args.trace}",
            [
                ("wall_s", e2e["wall_s"], "s", f"{clock}, median of {len(points)} points"),
                ("setup_s", e2e["setup_s"], "s", f"{clock}, median of {len(record['setups'])} builds"),
                ("wall_raw_s", _median([p.wall_s for p in points]), "s", "raw host, median"),
                ("setup_raw_s", _median(record["setups"]), "s", "raw host, median"),
                ("host_pace", record.get("pace", float("nan")), "x",
                 f"median chunk / reference chunk, {record.get('chunks', 0)} chunks"),
                ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "host, whole process"),
                ("sim_makespan_s", ref.makespan, "sim_s", "simulated"),
                ("sim_events", ref.events, "count", "simulated"),
                ("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} points failed"),
            ],
        )
    )
    if args.trace:
        metrics = per_layer(record)
        units = PER_LAYER
        print(
            _table(
                f"per-layer (median of {len(record['traced'])} traced points)",
                [(k, metrics[k], units[k], "") for k in PER_LAYER],
            )
        )
        tracer = record["tracer"]
        if tracer is not None:
            tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    else:
        metrics, units = e2e, END_TO_END
    for failure in record["failures"]:
        print(f"VIOLATION [{args.workload} seed={args.seed}] {failure}")
    print("manifest " + json.dumps(info, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # a metric no point could measure is null, never a bare NaN
            k: {"value": metrics[k] if math.isfinite(metrics[k]) else None, "unit": units[k]}
            for k in units
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                **result,
                "manifest": info,
                "violations": record["failures"],
                "samples": {
                    "wall_s": [p.wall_s for p in points],
                    "traced_wall_s": [p.wall_s for p in record["traced"]],
                    "setup_s": record["setups"],
                    "wall_ref_s": record.get("walls_ref", []),
                    "setup_ref_s": record.get("setups_ref", []),
                    "host_pace": record.get("pace"),
                },
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
