"""Scheduler-layer tests: exact-order equivalence and edge cases.

Both schedulers honour the unique ``(time, priority, seq)`` total
order; the randomized stress here drives the native kind through the
same engine-shaped op script as the reference heap and demands the pop
sequence match exactly — that equivalence is what keeps the figure
CSVs byte-identical under ``REPRO_SIM_SCHEDULER``.
"""

from random import Random

import pytest

import repro.sim.sched
from repro.sim.engine import Simulator
from repro.sim.sched import (
    HeapScheduler,
    SCHEDULER_KINDS,
    make_scheduler,
    native_available,
)

ALT_KINDS = [k for k in SCHEDULER_KINDS if k != "heap"]


# -- randomized equivalence -------------------------------------------------


def _script(rng: Random, n: int) -> list[tuple]:
    """An engine-shaped op mix: timed pushes across magnitudes, timer
    churn, now-bursts, cancels, interleaved pops."""
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.30:
            ops.append(("push", rng.choice((1e-6, 1e-4, 1e-2)) * rng.random(), rng.randint(0, 1)))
        elif r < 0.60:
            ops.append(("push", rng.choice((1e-6, 1e-3, 1.0, 300.0)) * rng.random(), 1))
        elif r < 0.72:
            ops.append(("push", 0.0, rng.randint(0, 1)))
        elif r < 0.84:
            ops.append(("cancel", rng.randrange(1 << 30)))
        else:
            ops.append(("pop",))
    return ops


def _drive(sched, script) -> list[tuple]:
    """Run the script; returns the (when, prio, seq) pop sequence.

    Cancel targets are resolved modulo the push count and skipped when
    already popped/cancelled — deterministic across schedulers because
    (by induction) the pop sequences agree up to any divergence.
    """
    popped = []
    handles = {}
    gone = set()
    now = 0.0
    seq = 0

    def pop_one():
        nonlocal now
        entry = sched.pop()
        if entry is not None:
            now = entry[0]
            popped.append((entry[0], entry[1], entry[2]))
            gone.add(entry[2])
        return entry

    for op in script:
        if op[0] == "push":
            handles[seq] = sched.push(now + op[1], op[2], seq, seq)
            seq += 1
        elif op[0] == "cancel":
            if seq:
                target = op[1] % seq
                if target not in gone:
                    sched.cancel(handles[target])
                    gone.add(target)
        else:
            pop_one()
    while pop_one() is not None:
        pass
    assert len(sched) == 0
    return popped


@pytest.mark.parametrize("kind", ALT_KINDS)
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_randomized_stress_matches_heap(kind, seed):
    script = _script(Random(seed), 3000)
    reference = _drive(HeapScheduler(), script)
    assert _drive(make_scheduler(kind), script) == reference
    # Pop times never go backwards (the run-loop invariant).
    assert all(a[0] <= b[0] for a, b in zip(reference, reference[1:]))


# -- targeted edge cases ----------------------------------------------------


def test_simultaneous_events_across_bucket_boundaries():
    """Equal times (on integer boundaries, pushed out of time order)
    break ties by (prio, seq), never by insertion order alone."""
    for kind in SCHEDULER_KINDS:
        sched = make_scheduler(kind)
        seq = 0
        entries = []
        sched.push(8.0, 1, seq, seq)
        entries.append((8.0, 1, 0))
        seq = 1
        for day in range(0, 40, 4):
            t = float(day)
            for prio in (1, 0):
                sched.push(t, prio, seq, seq)
                entries.append((t, prio, seq))
                seq += 1
        got = []
        while True:
            e = sched.pop()
            if e is None:
                break
            got.append((e[0], e[1], e[2]))
        assert got == sorted(entries), kind


@pytest.mark.parametrize("kind", list(SCHEDULER_KINDS))
def test_timeout_cancelled_at_its_own_fire_time(kind):
    """A cancel that runs at the timeout's exact fire time (earlier seq,
    same time) must win: the victim never fires."""
    sim = Simulator(scheduler=kind)
    fired = []
    outcome = []
    canceller = sim.timeout(1.0)  # created first => earlier seq
    victim = sim.timeout(1.0, "victim")
    victim.add_callback(lambda e: fired.append(e.value))
    canceller.add_callback(lambda e: outcome.append(victim.cancel()))
    sim.run()
    assert outcome == [True]
    assert fired == []
    assert sim.now == 1.0


@pytest.mark.parametrize("kind", list(SCHEDULER_KINDS))
def test_seq_shields_payloads_from_comparison(kind):
    """Entries never compare beyond seq: same (time, prio) with
    non-orderable payloads must pop cleanly in seq order."""
    sched = make_scheduler(kind)
    for seq in range(32):
        sched.push(0.5, 1, seq, object())  # object() is not orderable
    got = [sched.pop()[2] for _ in range(32)]
    assert got == list(range(32))


@pytest.mark.parametrize("kind", list(SCHEDULER_KINDS))
def test_seq_counter_never_wraps_discipline(kind):
    """The engine's seq source is an unbounded monotone count — huge
    values keep ordering exact (no 32/64-bit wrap discipline needed;
    the compiled backend covers the full unsigned 64-bit range)."""
    sched = make_scheduler(kind)
    lo, hi = (1 << 63) - 1, 1 << 63
    sched.push(0.25, 1, hi, "second")
    sched.push(0.25, 1, lo, "first")
    assert [sched.pop()[3] for _ in range(2)] == ["first", "second"]
    sim = Simulator()
    assert next(sim._seq) == 0  # fresh count per simulator, never reset


def test_cancel_callback_is_exact_and_stale_safe():
    sim = Simulator()
    calls = []
    handle = sim.call_after(1.0, calls.append, "cancelled")
    keep = sim.call_after(2.0, calls.append, "kept")
    assert sim.cancel_callback(handle) is True
    assert sim.cancel_callback(handle) is False  # double-cancel: no-op
    sim.run()
    assert calls == ["kept"]
    assert sim.cancel_callback(keep) is False  # already fired: no-op


def test_env_override_selects_scheduler(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "heap")
    assert Simulator().scheduler_kind == "heap"
    monkeypatch.delenv("REPRO_SIM_SCHEDULER")
    assert Simulator().scheduler_kind == "native"  # the built-in default
    assert Simulator(scheduler="heap").scheduler_kind == "heap"
    with pytest.raises(ValueError):
        make_scheduler("fibonacci")


def test_scheduler_argument_beats_env_var(monkeypatch):
    """Explicit ``Simulator(scheduler=...)`` wins over the environment."""
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "native")
    assert Simulator(scheduler="heap").scheduler_kind == "heap"
    # ...and the env var still governs unconfigured simulators.
    assert Simulator().scheduler_kind == "native"


def test_unknown_scheduler_errors_name_source_and_kinds(monkeypatch):
    """A typo'd (or retired) kind fails fast, names where the kind came
    from, and lists every valid kind."""
    monkeypatch.delenv("REPRO_SIM_SCHEDULER", raising=False)
    for bad in ("splay", "calendar", "ring", "wheel"):
        with pytest.raises(ValueError) as exc_arg:
            Simulator(scheduler=bad)
        msg = str(exc_arg.value)
        assert repr(bad) in msg and "Simulator(scheduler=...)" in msg
        assert "(choose from native, heap)" in msg

    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "splay")
    with pytest.raises(ValueError) as exc_env:
        Simulator()
    assert "REPRO_SIM_SCHEDULER" in str(exc_env.value)
    # The argument is checked before the env var is even consulted.
    assert Simulator(scheduler="heap").scheduler_kind == "heap"


def test_native_kind_always_constructible(monkeypatch):
    """``native`` is a valid kind with or without the compiled extension;
    stats() says which implementation is live."""
    stats = make_scheduler("native").stats()
    assert stats["compiled"] is native_available()
    assert stats["kind"] == ("native" if native_available() else "heap")

    monkeypatch.setattr(repro.sim.sched, "_csched", None)
    assert not native_available()
    forced = make_scheduler("native")
    assert isinstance(forced, HeapScheduler)
    assert forced.stats()["compiled"] is False
    sim = Simulator(scheduler="native")
    assert sim.scheduler_kind == "native"
    assert sim.sched_stats()["compiled"] is False


def test_heap_stats_keys_match_compiled_heap():
    """Both backends report the same stats keys, so readers such as the
    benchmark's ``sched_peak`` never fall back to a default."""
    heap = HeapScheduler()
    entries = [heap.push(float(i), 1, i, i) for i in range(5)]
    heap.cancel(entries[0])
    heap.pop()
    stats = heap.stats()
    assert stats == {
        "kind": "heap", "compiled": False, "live": 3, "cancels": 1,
        "pending": 3, "peak": 5,
    }
    if not native_available():
        pytest.skip("compiled scheduler extension not built")
    from repro.sim._csched import NativeScheduler

    assert set(NativeScheduler().stats()) == set(stats)


def test_native_fallback_pop_parity(monkeypatch):
    """With the extension missing, ``native`` serves the reference heap;
    the compiled backend (when built) is pop-for-pop identical to it over
    the randomized stress mix — so losing the compiler changes speed,
    never results."""
    script = _script(Random(99), 3000)
    reference = _drive(HeapScheduler(), script)
    if native_available():
        from repro.sim._csched import NativeScheduler

        assert _drive(NativeScheduler(), script) == reference
    monkeypatch.setattr(repro.sim.sched, "_csched", None)
    assert _drive(make_scheduler("native"), script) == reference
