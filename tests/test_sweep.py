"""Tests for the parallel sweep engine and its content-addressed cache."""

import json
import math
import os

import pytest

from repro.bench.export import export_csv
from repro.bench.figures import fig8b
from repro.bench.harness import Scale
from repro.bench.sweep import (
    RUN_FIELDS,
    PointSpec,
    SweepEngine,
    SweepError,
    build_report,
    canonical_json,
    check_reference,
    kind_salt,
    main,
    perf_points,
    scale_points,
    scheduler_kind,
    summary,
)

#: a DES scale small enough that a whole fig8b sweep runs in well under
#: a second per point
TINY = Scale(
    name="tiny",
    fft_sizes=(16,),
    fft_procs=(1, 2),
    sort_keys=1 << 10,
    sort_procs=(1, 2, 4),
)


def tiny_spec(seed: int = 2, p: int = 2, name: str = "pt") -> PointSpec:
    return PointSpec(
        "sort-des", name, {"e_init": 1 << 10, "p": p, "card": None, "seed": seed}
    )


def perf_report() -> dict:
    """The ci perf suite, serial and uncached, as the engine reports it."""
    engine = SweepEngine(jobs=1, cache_dir=None)
    return build_report(engine.run(perf_points(Scale.ci())), "ci", engine)


# --- spec identity -------------------------------------------------------------------
def test_spec_identity_ignores_name_and_param_order():
    a = PointSpec("sort-des", "a", {"e_init": 64, "p": 2, "card": None, "seed": 1})
    b = PointSpec("sort-des", "b", {"seed": 1, "card": None, "p": 2, "e_init": 64})
    assert a == b
    assert a.spec_hash == b.spec_hash
    assert a.cache_key("s") == b.cache_key("s")


def test_spec_identity_changes_with_any_field():
    base = tiny_spec()
    assert tiny_spec(seed=3).spec_hash != base.spec_hash
    assert tiny_spec(p=4).spec_hash != base.spec_hash


def test_spec_rejects_unknown_kind_and_bad_params():
    with pytest.raises(SweepError):
        PointSpec("no-such-kind", "x", {})
    with pytest.raises(SweepError):
        PointSpec("sort-des", "x", {"fn": object()})


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_kind_salt_differs_between_families():
    assert kind_salt("sort-des") != kind_salt("sort-analytic")
    with pytest.raises(SweepError):
        kind_salt("no-such-kind")


# --- cache hit/miss/invalidation ------------------------------------------------------
def test_cache_hit_on_identical_spec(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    r1 = engine.run([tiny_spec()])["pt"]
    assert not r1.cached
    assert engine.last_run.executed == 1 and engine.last_run.hits == 0

    r2 = engine.run([tiny_spec()])["pt"]
    assert r2.cached
    assert engine.last_run.executed == 0 and engine.last_run.hits == 1
    assert engine.last_run.hit_rate == 1.0
    assert r2.value == r1.value
    assert r2.wall_seconds == r1.wall_seconds

    # the cache file is content-addressed by spec + salt
    key = tiny_spec().cache_key(kind_salt("sort-des"))
    assert (tmp_path / f"{key}.json").exists()


def test_cache_miss_when_spec_field_changes(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run([tiny_spec(seed=2)])
    engine.run([tiny_spec(seed=3)])
    assert engine.last_run.executed == 1  # different seed: recomputed


def test_cache_miss_when_salt_changes(tmp_path):
    v1 = SweepEngine(jobs=1, cache_dir=str(tmp_path), salt_override="model-v1")
    v1.run([tiny_spec()])
    # same spec, same cache dir, same salt: hit
    SweepEngine(jobs=1, cache_dir=str(tmp_path), salt_override="model-v1").run(
        [tiny_spec()]
    )
    v2 = SweepEngine(jobs=1, cache_dir=str(tmp_path), salt_override="model-v2")
    v2.run([tiny_spec()])
    assert v2.last_run.executed == 1  # new model version: recomputed


def test_force_recomputes_and_rewrites(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run([tiny_spec()])
    forced = SweepEngine(jobs=1, cache_dir=str(tmp_path), force=True)
    r = forced.run([tiny_spec()])["pt"]
    assert not r.cached
    assert forced.last_run.executed == 1


def test_corrupt_cache_file_is_a_miss(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run([tiny_spec()])
    key = tiny_spec().cache_key(kind_salt("sort-des"))
    (tmp_path / f"{key}.json").write_text("{not json")
    r = engine.run([tiny_spec()])["pt"]
    assert not r.cached  # recomputed, not crashed


# --- dedup and naming ----------------------------------------------------------------
def test_shared_identity_computed_once_under_both_names(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    out = engine.run([tiny_spec(name="first"), tiny_spec(name="alias")])
    assert engine.last_run.executed == 1
    assert out["first"].value == out["alias"].value


def test_duplicate_name_for_distinct_identity_rejected():
    engine = SweepEngine(jobs=1, cache_dir=None)
    with pytest.raises(SweepError):
        engine.run([tiny_spec(seed=2, name="pt"), tiny_spec(seed=3, name="pt")])


# --- repeats -------------------------------------------------------------------------
def test_repeats_record_median_and_keep_output_exact(tmp_path):
    once = SweepEngine(jobs=1, cache_dir=None).run([tiny_spec()])["pt"]
    thrice = SweepEngine(jobs=1, cache_dir=None, repeats=3).run([tiny_spec()])["pt"]
    assert thrice.repeats == 3
    assert thrice.value == once.value  # events and makespan are exact


# --- parallel vs serial determinism ---------------------------------------------------
def test_parallel_sweep_bit_identical_to_serial(tmp_path):
    serial = SweepEngine(jobs=1, cache_dir=str(tmp_path / "serial"))
    parallel = SweepEngine(jobs=2, cache_dir=str(tmp_path / "parallel"))

    exp_serial = fig8b(TINY, engine=serial)
    exp_parallel = fig8b(TINY, engine=parallel)
    assert parallel.last_run.executed == parallel.last_run.unique > 1

    p_ser = export_csv(exp_serial, str(tmp_path / "out_serial"))
    p_par = export_csv(exp_parallel, str(tmp_path / "out_parallel"))
    with open(p_ser, "rb") as a, open(p_par, "rb") as b:
        assert a.read() == b.read()  # byte-identical CSV


def test_parallel_warm_rerun_is_all_hits(tmp_path):
    engine = SweepEngine(jobs=2, cache_dir=str(tmp_path))
    specs = perf_points(TINY)
    first = engine.run(specs)
    second = engine.run(specs)
    assert engine.last_run.executed == 0
    assert engine.last_run.hit_rate == 1.0
    assert {n: r.value for n, r in second.items()} == {
        n: r.value for n, r in first.items()
    }


# --- perf suite through the engine ----------------------------------------------------
def test_perf_report_shape_and_reference_compat():
    doc = perf_report()
    assert doc["scale"] == "ci"
    assert list(doc["scenarios"]) == [s.name for s in perf_points(Scale.ci())]
    for entry in doc["scenarios"].values():
        assert entry["events"] > 0
        assert "makespan" in entry and "wall_seconds" in entry
    assert doc["total_events"] == sum(
        e["events"] for e in doc["scenarios"].values()
    )
    # the summary is the simulation output: no walls, cache or backend
    for row in summary(doc)["scenarios"].values():
        assert RUN_FIELDS.isdisjoint(row) and "events" in row
    # a run gates clean against itself, and any difference fails
    assert check_reference(doc, doc) == []
    worse = json.loads(json.dumps(doc))
    worse["scenarios"]["sort-gige-p2"]["events"] *= 2
    assert check_reference(worse, doc) != []  # grown events
    assert check_reference(doc, worse) != []  # shrunk events fail too
    # host walls and cache state are not simulation output
    rerun = json.loads(json.dumps(doc))
    rerun["scenarios"]["sort-gige-p2"].update(wall_seconds=9.0, cached=True)
    assert check_reference(rerun, doc) == []
    # scenario disappearance is a failure
    del worse["scenarios"]["sort-gige-p4"]
    assert any("missing" in f for f in check_reference(worse, doc))


def test_perf_report_against_committed_reference():
    """The engine reproduces the committed reference's exact event
    counts and makespans (the fidelity canary)."""
    with open(os.path.join("benchmarks", "perf_reference.json")) as fh:
        reference = json.load(fh)
    assert check_reference(perf_report(), reference) == []


def test_sweep_check_fails_on_any_reference_difference(tmp_path, capsys):
    """``sweep --check`` exits 0 on the committed reference and 1 on a
    copy moved by one ulp, one event, or a field the run lacks, naming
    the scenario and field."""
    with open(os.path.join("benchmarks", "perf_reference.json")) as fh:
        committed = json.load(fh)

    def check(reference: dict) -> tuple[int, str]:
        path = tmp_path / "reference.json"
        path.write_text(json.dumps(reference))
        code = main([
            "--suite", "perf", "--jobs", "1", "--no-cache", "--repeats", "1",
            "--check", "--reference", str(path),
            "--out", str(tmp_path / "BENCH_perf.json"),
        ])
        return code, capsys.readouterr().out

    assert check(committed)[0] == 0
    for scenario, field, edit in (
        ("sort-inic-p4", "makespan", lambda v: math.nextafter(v, math.inf)),
        ("sort-gige-p8", "events", lambda v: v - 1),
        ("sort-inic-p8", "trains_fast", lambda v: 1),
    ):
        reference = json.loads(json.dumps(committed))
        row = reference["scenarios"][scenario]
        row[field] = edit(row.get(field))
        code, out = check(reference)
        assert code == 1, field
        assert f"FAIL {scenario}: {field}" in out


def test_build_report_counts_cache(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run(perf_points(TINY))
    results = engine.run(perf_points(TINY))
    doc = build_report(results, TINY.name, engine)
    assert doc["cache"]["hits"] == len(results)
    assert doc["cache"]["executed"] == 0
    assert doc["cache"]["hit_rate"] == 1.0
    assert all(e["cached"] for e in doc["scenarios"].values())


# --- scale-out suite -----------------------------------------------------------------
def test_report_records_scheduler_and_throughput(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "heap")
    assert scheduler_kind() == "heap"
    monkeypatch.delenv("REPRO_SIM_SCHEDULER")
    doc = perf_report()
    assert doc["scheduler"] == scheduler_kind()
    for entry in doc["scenarios"].values():
        if entry["wall_seconds"] > 0:
            assert entry["events_per_sec"] > 0


def test_scale_points_enumerate_large_suite():
    points = scale_points(Scale.large())
    names = [p.name for p in points]
    assert len(names) == len(set(names)) == 26
    # The original single-star axis is unchanged: {sort,fft} x {gige,inic}
    # x {32,64,128} on the aggregate fabric, same identities as before.
    aggregate = [p for p in points if p.params["fabric"] == "aggregate"]
    assert len(aggregate) == 12
    for p in aggregate:
        assert p.params["p"] in (32, 64, 128)
    assert "scale-sort-inic-p128" in names
    assert "scale-fft-gige-p32" in names
    # Hierarchical topology points extend the suite to 1024 nodes on the
    # fat-tree; the torus (most event-expensive per frame) stops at 256.
    for p in points:
        if p.params["fabric"] == "torus":
            assert p.params["p"] <= 256
    assert "scale-sort-inic-fattree-p1024" in names
    assert "scale-fft-inic-fattree-p1024" in names
    assert "scale-sort-gige-fattree-p64" in names
    assert "scale-sort-inic-torus-p256" in names
    assert "scale-sort-inic-torus-p1024" not in names


def test_scale_points_max_p_trims_without_changing_identity():
    full = {p.name: p for p in scale_points(Scale.large())}
    trimmed = scale_points(Scale.large(), max_p=32)
    assert [p.name for p in trimmed] == [n for n in full if n.endswith("p32")]
    for p in trimmed:
        # Same identity => the smoke job shares cache entries with the
        # full suite and the reference stays comparable after pruning.
        assert p.identity == full[p.name].identity


def test_scale_points_skip_indivisible_partitions():
    odd = Scale(
        name="odd",
        fft_sizes=(96,),  # divisible by 32, not by 64
        fft_procs=(32, 64),
        sort_keys=(1 << 10) + 1,  # indivisible by every p
        sort_procs=(32, 64),
    )
    points = scale_points(odd)
    assert [p.name for p in points] == [
        "scale-fft-gige-p32", "scale-fft-inic-p32"
    ]


def test_fabric_param_threads_to_cluster_spec():
    from repro.core.api import Experiment

    exp = Experiment().nodes(4).fabric("aggregate")
    assert exp.spec.fabric == "aggregate"
    session = exp.build()
    assert type(session.cluster.switch).__name__ == "HierarchicalFabric"
    assert session.cluster.switch.topology.kind == "star"
    with pytest.raises(ValueError, match="unknown fabric"):
        Experiment().fabric("quantum").spec
