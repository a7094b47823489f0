"""One reproduction function per paper figure panel.

Methodology mirrors the paper's:

* **Figures 4 and 5** come from the Section-4 *analytical model*
  (Eqs. 3-17) with the calibrated baseline closed form as opponent —
  exactly what the paper plots in its analysis section.
* **Figure 8** comes from full *discrete-event simulation* runs of the
  prototype (Fast Ethernet and Gigabit Ethernet baselines over TCP;
  the ACEII-prototype INIC), as the paper's Section 6 measures/estimates
  on real hardware.

Every figure is reproduced in two steps that route through the sweep
engine (:mod:`repro.bench.sweep`): *enumerate* the panel's points as
:class:`~repro.bench.sweep.PointSpec` s, then *assemble* the engine's
results into an :class:`~repro.bench.harness.Experiment`.  Passing an
engine parallelizes and caches the points; passing none runs them
serially in-process (bit-identical either way, since every point seeds
its own RNG from its spec).

Run the full suite from the command line::

    python -m repro.bench.figures --scale paper --jobs 8 --csv results
"""

from __future__ import annotations

from typing import Callable, Optional

from ..models.params import DEFAULT_PARAMS, MachineParams
from ..models.speedup import Series, speedup_series
from .harness import Experiment, Scale
from .sweep import PointResult, PointSpec, SweepEngine, machine_params_dict

__all__ = [
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig8a",
    "fig8b",
    "figfaults",
    "all_figures",
]

#: networks as spec-embeddable names (resolved by the sweep runners)
_GIGE = "gigabit-ethernet"
_FE = "fast-ethernet"
#: the measured prototype card
_PROTO = "aceii-prototype"

#: workload seeds, kept identical to the pre-engine reproduction so the
#: committed results/fig*.csv stay stable
_FFT_SEED = 1
_SORT_SEED = 2


def _run(
    engine: Optional[SweepEngine], specs: list[PointSpec]
) -> dict[str, PointResult]:
    engine = engine or SweepEngine(jobs=1, cache_dir=None)
    return engine.run(specs)


# ---------------------------------------------------------------------------
# Figure 4 — FFT analysis
# ---------------------------------------------------------------------------
def _fig4a_specs(scale: Scale, params: MachineParams) -> list[PointSpec]:
    machine = machine_params_dict(params)
    return [
        PointSpec(
            "fft-analytic",
            f"fig4a/r{rows}/p{p}",
            {"rows": rows, "p": p, "machine": machine},
        )
        for rows in scale.fft_sizes
        for p in scale.fft_procs
        if rows % p == 0
    ]


def _fig4a_build(
    scale: Scale, params: MachineParams, results: dict[str, PointResult]
) -> Experiment:
    exp = Experiment(
        "fig4a",
        "FFTW speedups: ideal INIC vs Gigabit Ethernet (analytical)",
        "P",
        "speedup over one processor",
    )
    for rows in scale.fft_sizes:
        procs = [p for p in scale.fft_procs if rows % p == 0]
        pts = [results[f"fig4a/r{rows}/p{p}"].value for p in procs]
        t1 = pts[0]["serial"]
        exp.add(speedup_series(f"INIC {rows}x{rows}", procs, [v["inic"] for v in pts], t1))
        exp.add(speedup_series(f"GigE {rows}x{rows}", procs, [v["gige"] for v in pts], t1))
    exp.notes.append("INIC curves from Eqs. (3)-(10); GigE from calibrated TCP model")
    return exp


def fig4a(
    scale: Scale,
    params: MachineParams = DEFAULT_PARAMS,
    engine: Optional[SweepEngine] = None,
) -> Experiment:
    """Fig. 4(a): analytic FFTW speedups, INIC vs Gigabit Ethernet."""
    return _fig4a_build(scale, params, _run(engine, _fig4a_specs(scale, params)))


def _fig4b_specs(scale: Scale, params: MachineParams) -> list[PointSpec]:
    rows = max(scale.fft_sizes)
    machine = machine_params_dict(params)
    return [
        PointSpec(
            "transpose-analytic",
            f"fig4b/r{rows}/p{p}",
            {"rows": rows, "p": p, "machine": machine},
        )
        for p in scale.fft_procs
        if rows % p == 0
    ]


def _fig4b_build(
    scale: Scale, params: MachineParams, results: dict[str, PointResult]
) -> Experiment:
    rows = max(scale.fft_sizes)
    procs = [p for p in scale.fft_procs if rows % p == 0]
    exp = Experiment(
        "fig4b",
        f"transpose decomposition, {rows}x{rows}",
        "P",
        "milliseconds (partition in KiB)",
    )
    pts = [results[f"fig4b/r{rows}/p{p}"].value for p in procs]
    x = [float(p) for p in procs]
    exp.add(Series("NIC comm time (ms)", x, [v["comm_ms"] for v in pts]))
    exp.add(Series("NIC compute time (ms)", x, [v["compute_ms"] for v in pts]))
    exp.add(Series("INIC transpose (ms)", x, [v["inic_ms"] for v in pts]))
    exp.add(Series("partition (KiB)", x, [v["partition_kib"] for v in pts]))
    exp.notes.append(
        "partition size falls faster than NIC comm time; INIC transpose sits below it"
    )
    return exp


def fig4b(
    scale: Scale,
    params: MachineParams = DEFAULT_PARAMS,
    engine: Optional[SweepEngine] = None,
) -> Experiment:
    """Fig. 4(b): transpose decomposition vs partition size (largest
    matrix of the scale)."""
    return _fig4b_build(scale, params, _run(engine, _fig4b_specs(scale, params)))


# ---------------------------------------------------------------------------
# Figure 5 — sort analysis
# ---------------------------------------------------------------------------
def _analytic_sort_keys(scale: Scale, params: MachineParams) -> int:
    return params.sort_total_keys if scale.name == "paper" else scale.sort_keys


def _fig5a_specs(scale: Scale, params: MachineParams) -> list[PointSpec]:
    e_init = _analytic_sort_keys(scale, params)
    machine = machine_params_dict(params)
    return [
        PointSpec(
            "sort-components-analytic",
            f"fig5a/e{e_init}/p{p}",
            {"e_init": e_init, "p": p, "machine": machine},
        )
        for p in scale.sort_procs
    ]


def _fig5a_build(
    scale: Scale, params: MachineParams, results: dict[str, PointResult]
) -> Experiment:
    from ..units import seconds_to_ms

    e_init = _analytic_sort_keys(scale, params)
    procs = list(scale.sort_procs)
    exp = Experiment(
        "fig5a",
        f"sort components, E = {e_init} keys",
        "P",
        "milliseconds (partition in KiB)",
    )
    pts = [results[f"fig5a/e{e_init}/p{p}"].value for p in procs]
    x = [float(p) for p in procs]
    exp.add(Series("count sort (ms)", x, [seconds_to_ms(v["count_sort"]) for v in pts]))
    exp.add(
        Series("phase1 bucket (ms)", x, [seconds_to_ms(v["phase1_bucket"]) for v in pts])
    )
    exp.add(
        Series("phase2 bucket (ms)", x, [seconds_to_ms(v["phase2_bucket"]) for v in pts])
    )
    exp.add(
        Series("communication (ms)", x, [seconds_to_ms(v["communication"]) for v in pts])
    )
    exp.add(Series("partition (KiB)", x, [v["partition_kib"] for v in pts]))
    return exp


def fig5a(
    scale: Scale,
    params: MachineParams = DEFAULT_PARAMS,
    engine: Optional[SweepEngine] = None,
) -> Experiment:
    """Fig. 5(a): sort phase times and partition size vs P."""
    return _fig5a_build(scale, params, _run(engine, _fig5a_specs(scale, params)))


def _fig5b_specs(scale: Scale, params: MachineParams) -> list[PointSpec]:
    e_init = _analytic_sort_keys(scale, params)
    machine = machine_params_dict(params)
    return [
        PointSpec(
            "sort-analytic",
            f"fig5b/e{e_init}/p{p}",
            {"e_init": e_init, "p": p, "machine": machine},
        )
        for p in scale.sort_procs
    ]


def _fig5b_build(
    scale: Scale, params: MachineParams, results: dict[str, PointResult]
) -> Experiment:
    e_init = _analytic_sort_keys(scale, params)
    procs = list(scale.sort_procs)
    pts = [results[f"fig5b/e{e_init}/p{p}"].value for p in procs]
    t1 = pts[0]["serial"]
    exp = Experiment(
        "fig5b",
        f"integer-sort speedups, E = {e_init} keys (analytical)",
        "P",
        "speedup over one processor",
    )
    exp.add(speedup_series("INIC", procs, [v["inic"] for v in pts], t1))
    exp.add(speedup_series("GigE", procs, [v["gige"] for v in pts], t1))
    exp.notes.append(
        "INIC superlinearity: host bucket-sort time is eliminated entirely"
    )
    return exp


def fig5b(
    scale: Scale,
    params: MachineParams = DEFAULT_PARAMS,
    engine: Optional[SweepEngine] = None,
) -> Experiment:
    """Fig. 5(b): analytic sort speedups, INIC (superlinear) vs GigE."""
    return _fig5b_build(scale, params, _run(engine, _fig5b_specs(scale, params)))


# ---------------------------------------------------------------------------
# Figure 8 — prototype measurements (DES)
# ---------------------------------------------------------------------------
def _fft_des_spec(
    rows: int, p: int, network: str, card: Optional[str]
) -> PointSpec:
    tag = card or network
    return PointSpec(
        "fft-des",
        f"fig8a/{tag}/r{rows}/p{p}",
        {"rows": rows, "p": p, "network": network, "card": card, "seed": _FFT_SEED},
    )


#: Fig. 8(a)'s curves: (label, network, card).  P=1 is the serial host
#: run for every curve (speedup 1 by definition; nobody offloads a
#: one-node transpose), so all curves share the GigE baseline point.
_FIG8A_CURVES: list[tuple[str, str, Optional[str]]] = [
    ("proto INIC", _GIGE, _PROTO),
    ("Fast Ethernet", _FE, None),
    ("GigE", _GIGE, None),
]


def _fig8a_specs(scale: Scale) -> list[PointSpec]:
    specs = []
    for rows in scale.fft_sizes:
        procs = [p for p in scale.fft_procs if rows % p == 0]
        specs.append(_fft_des_spec(rows, 1, _GIGE, None))  # shared t1
        for _, network, card in _FIG8A_CURVES:
            specs += [
                _fft_des_spec(rows, p, network, card) for p in procs if p != 1
            ]
    return specs


def _fig8a_build(scale: Scale, results: dict[str, PointResult]) -> Experiment:
    exp = Experiment(
        "fig8a",
        "2D-FFT speedup: Fast Ethernet vs GigE vs prototype INIC (DES)",
        "P",
        "speedup over one processor",
    )
    for rows in scale.fft_sizes:
        procs = [p for p in scale.fft_procs if rows % p == 0]
        t1 = results[_fft_des_spec(rows, 1, _GIGE, None).name].value["makespan"]
        for label, network, card in _FIG8A_CURVES:
            times = [
                t1
                if p == 1
                else results[_fft_des_spec(rows, p, network, card).name].value[
                    "makespan"
                ]
                for p in procs
            ]
            exp.add(speedup_series(f"{label} {rows}", procs, times, t1))
    exp.notes.append("all curves: discrete-event simulation, speedup vs 1-node run")
    return exp


def fig8a(scale: Scale, engine: Optional[SweepEngine] = None) -> Experiment:
    """Fig. 8(a): simulated 2D-FFT speedups on Fast Ethernet, Gigabit
    Ethernet, and the prototype INIC."""
    return _fig8a_build(scale, _run(engine, _fig8a_specs(scale)))


def _sort_des_spec(e_init: int, p: int, card: Optional[str]) -> PointSpec:
    tag = card or "gige"
    return PointSpec(
        "sort-des",
        f"fig8b/{tag}/e{e_init}/p{p}",
        {"e_init": e_init, "p": p, "card": card, "seed": _SORT_SEED},
    )


def _fig8b_specs(scale: Scale) -> list[PointSpec]:
    e_init = scale.sort_keys
    procs = [p for p in scale.sort_procs if e_init % p == 0]
    specs = [_sort_des_spec(e_init, 1, None)]
    specs += [_sort_des_spec(e_init, p, None) for p in procs if p != 1]
    specs += [_sort_des_spec(e_init, p, _PROTO) for p in procs if p != 1]
    return specs


def _fig8b_build(scale: Scale, results: dict[str, PointResult]) -> Experiment:
    e_init = scale.sort_keys
    procs = [p for p in scale.sort_procs if e_init % p == 0]
    t1 = results[_sort_des_spec(e_init, 1, None).name].value["makespan"]
    gige = [
        t1 if p == 1 else results[_sort_des_spec(e_init, p, None).name].value["makespan"]
        for p in procs
    ]
    proto = [
        t1
        if p == 1
        else results[_sort_des_spec(e_init, p, _PROTO).name].value["makespan"]
        for p in procs
    ]
    exp = Experiment(
        "fig8b",
        f"integer-sort speedup, E = {e_init} keys (DES)",
        "P",
        "speedup over one processor",
    )
    exp.add(speedup_series("proto INIC", procs, proto, t1))
    exp.add(speedup_series("GigE", procs, gige, t1))
    return exp


def fig8b(scale: Scale, engine: Optional[SweepEngine] = None) -> Experiment:
    """Fig. 8(b): simulated integer-sort speedups, prototype INIC vs GigE."""
    return _fig8b_build(scale, _run(engine, _fig8b_specs(scale)))


# ---------------------------------------------------------------------------
# Fault-injection curve (not a paper panel; opt-in via --only figfaults)
# ---------------------------------------------------------------------------
def _figfaults_sort_p(scale: Scale) -> int:
    procs = [q for q in scale.sort_procs if q > 1 and scale.sort_keys % q == 0]
    return max(procs) if procs else 2


def _figfaults_specs(scale: Scale) -> list[PointSpec]:
    from ..faults import FaultSpec
    from .sweep import FAULT_SUITE_RETRIES, FAULT_SUITE_SEED

    e_init = scale.sort_keys
    p = _figfaults_sort_p(scale)
    specs = []
    for rate in scale.loss_rates:
        params = {"e_init": e_init, "p": p, "card": _PROTO, "seed": _SORT_SEED}
        if rate > 0:
            params["faults"] = FaultSpec(
                seed=FAULT_SUITE_SEED, loss_rate=rate
            ).to_params()
            params["retries"] = FAULT_SUITE_RETRIES
        specs.append(PointSpec("sort-des", f"figfaults/loss{rate:g}", params))
    return specs


def _figfaults_build(scale: Scale, results: dict[str, PointResult]) -> Experiment:
    e_init = scale.sort_keys
    p = _figfaults_sort_p(scale)
    rates = list(scale.loss_rates)
    vals = [results[f"figfaults/loss{r:g}"].value for r in rates]
    exp = Experiment(
        "figfaults",
        f"INIC sort makespan vs link loss rate, E = {e_init}, P = {p} (DES)",
        "loss rate",
        "seconds (counters unitless)",
    )
    x = [float(r) for r in rates]
    # An aborted transfer's "makespan" is the time it gave up, not a
    # completion time: leave it off the makespan curve and flag it.
    done = [(r, v["makespan"]) for r, v in zip(x, vals) if not v.get("aborted")]
    exp.add(
        Series(
            "INIC sort makespan (s)", [r for r, _ in done], [m for _, m in done]
        )
    )
    exp.add(
        Series("aborted", x, [1.0 if v.get("aborted") else 0.0 for v in vals])
    )
    exp.add(
        Series(
            "retransmits",
            x,
            [float(v.get("faults", {}).get("retransmits", 0)) for v in vals],
        )
    )
    exp.add(
        Series(
            "frames dropped",
            x,
            [float(v.get("faults", {}).get("frames_dropped", 0)) for v in vals],
        )
    )
    exp.notes.append(
        "loss recovery: NACK-driven retransmission with exponential backoff; "
        "the zero-loss anchor is the ideal-fabric point (shared cache entry)"
    )
    aborted = [f"{r:g}" for r, v in zip(x, vals) if v.get("aborted")]
    if aborted:
        exp.notes.append(
            f"transfer aborted (retries exhausted) at loss rate "
            f"{', '.join(aborted)}: no makespan plotted"
        )
    return exp


def figfaults(scale: Scale, engine: Optional[SweepEngine] = None) -> Experiment:
    """Makespan-vs-loss-rate curve for the INIC sort under deterministic
    link-fault injection (the robustness sweep; not a paper panel)."""
    return _figfaults_build(scale, _run(engine, _figfaults_specs(scale)))


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------
#: (figure id, spec enumerator, result assembler); analytic enumerators
#: and assemblers also take MachineParams.
_ANALYTIC = {"fig4a": (_fig4a_specs, _fig4a_build), "fig4b": (_fig4b_specs, _fig4b_build),
             "fig5a": (_fig5a_specs, _fig5a_build), "fig5b": (_fig5b_specs, _fig5b_build)}
_DES = {"fig8a": (_fig8a_specs, _fig8a_build), "fig8b": (_fig8b_specs, _fig8b_build),
        "figfaults": (_figfaults_specs, _figfaults_build)}
#: panels regenerated by default; ``figfaults`` is opt-in (``--only
#: figfaults``) so the committed paper CSVs stay byte-stable
_DEFAULT_FIGURES = [*_ANALYTIC, "fig8a", "fig8b"]


def all_figures(
    scale: Scale,
    engine: Optional[SweepEngine] = None,
    only: Optional[list[str]] = None,
) -> list[Experiment]:
    """Reproduce every panel (or the ``only`` subset) through **one**
    batched sweep, so the engine can overlap DES points from different
    figures across its workers."""
    names = only or list(_DEFAULT_FIGURES)
    unknown = [n for n in names if n not in _ANALYTIC and n not in _DES]
    if unknown:
        raise ValueError(f"unknown figures {unknown}; have {[*_ANALYTIC, *_DES]}")
    specs: list[PointSpec] = []
    for n in names:
        if n in _ANALYTIC:
            specs += _ANALYTIC[n][0](scale, DEFAULT_PARAMS)
        else:
            specs += _DES[n][0](scale)
    results = _run(engine, specs)
    out = []
    for n in names:
        if n in _ANALYTIC:
            out.append(_ANALYTIC[n][1](scale, DEFAULT_PARAMS, results))
        else:
            out.append(_DES[n][1](scale, results))
    return out


def _main() -> None:  # pragma: no cover - CLI entry
    import argparse

    from .harness import render_all
    from .sweep import DEFAULT_CACHE_DIR

    ap = argparse.ArgumentParser(description="regenerate the paper's figures")
    ap.add_argument("--scale", choices=["paper", "bench", "ci"], default="paper")
    ap.add_argument(
        "--only", nargs="*", default=None, help="subset, e.g. --only fig4a fig8b"
    )
    ap.add_argument("--csv", default=None, help="also export CSVs to this directory")
    ap.add_argument("--plot", action="store_true", help="append ASCII plots")
    ap.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: os.cpu_count())",
    )
    ap.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--force", action="store_true", help="ignore cached points")
    args = ap.parse_args()
    scale = Scale.by_name(args.scale)
    engine = SweepEngine(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        force=args.force,
    )
    experiments = all_figures(scale, engine=engine, only=args.only)
    print(render_all(experiments))
    stats = engine.last_run
    print(
        f"\nsweep: {stats.unique} points, {stats.hits} cached, "
        f"{stats.executed} executed, jobs={engine.jobs}, {stats.wall_seconds:.2f}s"
    )
    if args.plot:
        from .report import ascii_plot

        for e in experiments:
            print()
            print(ascii_plot(e))
    if args.csv:
        from .export import export_all_csv

        for path in export_all_csv(experiments, args.csv):
            print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    _main()
