"""Self-tests of the benchmark (run: ``python -m pytest perfbench -q``).

They exercise the benchmark's own machinery on seconds-cheap inputs:
each workload end to end at tiny size, the output checks against
deliberately corrupted outputs, the span arithmetic on a synthetic
trace, and the contract between ``run.py`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import run

run.prepare()

import pacer  # noqa: E402
from tracer import LAYERS, ENTRY_POINTS, Patches, Tracer, _resolve, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_point_runs_clean_and_traces_identically(name):
    w = WORKLOADS[name].tiny()
    data = w.inputs(SEED)
    plain = run.run_point(w, data, SEED)
    assert plain.problems == []
    assert plain.events > 0 and plain.makespan > 0
    traced, tracer, missing = run.traced_point(w, data, SEED)
    assert missing == []
    assert traced.problems == []
    assert (traced.makespan, traced.events) == (plain.makespan, plain.events)
    assert len(tracer.start) > 0
    layers = traced.layers
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert total + layers["trace.unattributed_s"] == pytest.approx(traced.wall_s)
    if w.card:
        assert layers["inic.self_s"] > 0
    else:
        assert layers["inic.self_s"] == 0
        assert layers["net.flowclock.self_s"] == 0


def test_patches_restore_every_entry_point():
    before = {}
    for _, target in ENTRY_POINTS:
        owner, attr, raw = _resolve(target)
        before[target] = raw
    patches = Patches(Tracer()).install()
    assert any(_resolve(t)[2] is not raw for t, raw in before.items())
    patches.remove()
    for target, raw in before.items():
        assert _resolve(target)[2] is raw, target


def test_corrupted_sort_output_is_caught():
    w = WORKLOADS["inic-sort-fattree"].tiny()
    data = w.inputs(SEED)
    session = w.experiment(SEED).build()
    (output, _), problems = w.attempt(session, data)
    assert problems == [] and w.check(session, data, output) == []
    bad = [a.copy() for a in output]
    i = next(r for r, a in enumerate(bad) if a.size >= 2)
    bad[i][[0, 1]] = bad[i][[1, 0]]
    if bad[i][0] == bad[i][1]:  # equal keys swap to the same array
        bad[i][0] += 1
    assert any("sort" in p for p in w.check(session, data, bad))


def test_corrupted_fft_output_is_caught():
    w = WORKLOADS["tcp-fft-star"].tiny()
    data = w.inputs(SEED)
    session = w.experiment(SEED).build()
    (output, _), problems = w.attempt(session, data)
    assert problems == [] and w.check(session, data, output) == []
    bad = output.copy()
    bad[0, 0] += 1e-3 * np.abs(bad).max()
    assert any("fft" in p for p in w.check(session, data, bad))


def test_self_time_arithmetic_on_a_synthetic_trace():
    now = [0.0]
    t = Tracer(clock=lambda: now[0])

    def leaf():  # net: 1.0 s
        now[0] += 1.0

    def mid():  # inic: 2.0 + 0.5 s around a 1.0 s child
        now[0] += 2.0
        traced_leaf()
        now[0] += 0.5

    def body():  # apps: three resumes of 1.0 s; the second calls mid
        now[0] += 1.0
        got = yield "a"
        now[0] += 1.0
        traced_mid()
        try:
            yield got
        except KeyError:
            now[0] += 1.0
        return "done"

    traced_leaf = t.wrap("net", leaf)
    traced_mid = t.wrap("inic", mid)
    traced_body = t.wrap("apps", body)
    t.active = True
    gen = traced_body()
    now[0] += 100.0  # creating the generator runs nothing
    assert next(gen) == "a"
    now[0] += 100.0  # suspended time is nobody's
    assert gen.send("b") == "b"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))  # forwarded into the body, caught there
    assert stop.value.value == "done"
    traced_leaf()  # a second root span

    by_layer, root_total, min_self = self_times(t.arrays(), t.name_layer, len(LAYERS))
    own = dict(zip(LAYERS, by_layer))
    assert own["apps"] == pytest.approx(3.0)
    assert own["inic"] == pytest.approx(2.5)
    assert own["net"] == pytest.approx(2.0)
    assert sum(by_layer) == pytest.approx(root_total) == pytest.approx(7.5)
    assert min_self >= 0
    assert len(t.start) == 3 + 1 + 1 + 1  # resumes, mid, nested leaf, root leaf


def test_inactive_tracer_records_nothing():
    t = Tracer()
    assert t.wrap("net", lambda x: x + 1)(1) == 2
    assert len(t.start) == 0


def test_reference_time_arithmetic_on_synthetic_chunks():
    p = pacer.Pacer()
    ref = pacer.REFERENCE_CHUNK_S
    # chunks at twice the reference duration, every 0.1 s from t = 0
    p.start = [0.1 * i for i in range(40)]
    p.duration = [2 * ref] * 40
    # [0.95, 2.05) holds 11 chunks; the rest runs at half the reference pace
    wall = 2.05 - 0.95
    assert p.reference_time(0.95, 2.05) == pytest.approx((wall - 11 * 2 * ref) / 2)
    # a short section between chunks is paced by its neighbours
    # (the window [0.951, 1.452) holds the chunks at 1.0 ... 1.4)
    p.duration[12:14] = [4 * ref] * 2
    assert p.reference_time(1.201, 1.202) == pytest.approx(
        0.001 * ref / ((3 * 2 * ref + 2 * 4 * ref) / 5)
    )
    # far past the last chunk, the nearest one sets the pace
    assert p.reference_time(10.0, 10.5) == pytest.approx(0.5 / 2)
    assert math.isnan(pacer.Pacer().reference_time(0.0, 1.0))


def test_pacer_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pacer.Pacer() as p:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 6 * pacer.PERIOD_S:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(p.start) >= 2 and all(d > 0 for d in p.duration)
    assert 0 < p.reference_time(t0, t1) < math.inf


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tcp-fft-star",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
