"""Seeded chaos campaigns: randomized component-failure schedules.

A :class:`CampaignSpec` describes a failure *process* — arrival rate,
mean-time-to-repair, blast-radius knobs — and :func:`realize` turns it
into a concrete, validated tuple of
:class:`~repro.faults.ComponentFaultSpec` windows against a fabric's
failable components.  Every draw comes from one stream derived via
:func:`repro.sim.rand.derive_seed` over ``(seed, "campaign",
"schedule")``, so the realized schedule is a pure function of the spec:
bit-identical across processes, ``--jobs`` fan-outs, and machines.

The realized schedule rides inside a :class:`~repro.faults.FaultSpec`
(and therefore inside a sweep ``PointSpec``), which is what makes a
chaos campaign just another cacheable, parallelizable sweep point —
``--suite chaos`` in :mod:`repro.bench.sweep` is built from exactly
this.

:func:`check_invariants` is the other half of the harness: given a
report scenario row it asserts the liveness/conservation properties a
faulted run must still satisfy (finite makespan or a surfaced abort,
a balanced frame ledger with no frame both delivered and dropped,
non-negative counters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import ConfigError, config_from_json, config_to_json
from ..errors import FaultConfigError
from ..sim.rand import derive_seed
from . import ComponentFaultSpec, FaultSpec

__all__ = [
    "CampaignSpec",
    "realize",
    "campaign_fault_spec",
    "fabric_components",
    "check_invariants",
]


@dataclass(frozen=True)
class CampaignSpec:
    """A randomized failure process, as sweep-able plain data.

    Failures arrive as a Poisson process at ``failure_rate`` per second
    over ``[0, horizon)``; each picks a uniform target from the fabric's
    failable components and repairs after an exponential
    ``mttr``-mean outage (floored at ``min_outage`` so a draw can never
    produce a vanishing window).  ``max_failures`` caps the campaign's
    total injections and ``max_concurrent`` its blast radius — an
    arrival that would exceed the concurrent-outage budget (or overlap
    an existing window on the same component) is skipped, with its
    draws consumed, so every budget realizes from the same underlying
    candidate-failure sequence: loosening a budget changes which
    arrivals are *admitted*, never when they occur or what they drew.
    """

    #: root seed for the campaign's derived schedule stream
    seed: int = 0
    #: campaign window in simulated seconds (failures arrive in [0, horizon))
    horizon: float = 0.01
    #: failure arrival intensity, failures per simulated second
    failure_rate: float = 400.0
    #: mean time to repair (exponential), seconds
    mttr: float = 2e-3
    #: floor on drawn outage durations, seconds
    min_outage: float = 2e-4
    #: cap on total injected failures
    max_failures: int = 4
    #: blast radius: maximum simultaneously-dead components
    max_concurrent: int = 1
    #: failure-detection latency copied into the realized FaultSpec
    detection_delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("horizon", "failure_rate", "mttr", "min_outage"):
            v = getattr(self, name)
            if not v > 0:
                raise FaultConfigError(f"{name} must be > 0, got {v}")
        for name in ("max_failures", "max_concurrent"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise FaultConfigError(
                    f"{name} must be a positive integer, got {v!r}"
                )
        if self.detection_delay < 0:
            raise FaultConfigError(
                f"detection_delay must be >= 0 seconds, "
                f"got {self.detection_delay}"
            )

    def to_json(self) -> dict:
        """JSON-safe dict (round-trips through :meth:`from_json`)."""
        return config_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "CampaignSpec":
        try:
            return config_from_json(cls, doc)
        except FaultConfigError:
            raise  # field validation from __post_init__ passes through
        except ConfigError as exc:
            raise FaultConfigError(str(exc)) from None


def realize(
    campaign: CampaignSpec, components: Sequence[tuple[str, str]]
) -> tuple[ComponentFaultSpec, ...]:
    """Draw the campaign's concrete fail/repair schedule.

    ``components`` lists the fabric's failable ``(name, kind)`` targets
    (see :func:`fabric_components`).  Returns one
    :class:`ComponentFaultSpec` per component that drew at least one
    window — already sorted and non-overlapping, so the result always
    validates.
    """
    if not components:
        raise FaultConfigError(
            "cannot realize a campaign against zero failable components"
        )
    rng = np.random.default_rng(
        derive_seed(campaign.seed, "campaign", "schedule")
    )
    windows: dict[tuple[str, str], list[tuple[float, float]]] = {}
    injected: list[tuple[float, float]] = []
    t = 0.0
    arrivals = 0
    while len(injected) < campaign.max_failures:
        t += float(rng.exponential(1.0 / campaign.failure_rate))
        if t >= campaign.horizon:
            break
        arrivals += 1
        target = tuple(components[int(rng.integers(len(components)))])
        duration = max(
            campaign.min_outage, float(rng.exponential(campaign.mttr))
        )
        concurrent = sum(1 for s, d in injected if s <= t < s + d)
        if concurrent >= campaign.max_concurrent:
            continue  # blast-radius budget spent; draws stay consumed
        mine = windows.setdefault(target, [])
        if any(t < s + d and s < t + duration for s, d in mine):
            continue  # would overlap this component's own outage
        mine.append((t, duration))
        injected.append((t, duration))
    return tuple(
        ComponentFaultSpec(
            component=name, windows=tuple(sorted(wins)), kind=kind
        )
        for (name, kind), wins in sorted(windows.items())
    )


def campaign_fault_spec(
    campaign: CampaignSpec,
    components: Sequence[tuple[str, str]],
    **fault_fields,
) -> FaultSpec:
    """The full :class:`FaultSpec` a campaign point runs under: the
    realized schedule plus any extra fault dimensions (``loss_rate``,
    ``wires``, ...) passed through ``fault_fields``."""
    return FaultSpec(
        seed=campaign.seed,
        components=realize(campaign, components),
        detection_delay=campaign.detection_delay,
        **fault_fields,
    )


def fabric_components(
    fabric: str, n_stations: int, fabric_options: Optional[dict] = None
) -> list[tuple[str, str]]:
    """The failable ``(name, kind)`` targets of a fabric kind, derived
    from the same topology constructor the cluster builder uses — a
    campaign can only ever draw components the built fabric will accept."""
    opts = dict(fabric_options or {})
    if fabric == "fattree":
        from ..net.topology import FatTreeTopology

        topo = FatTreeTopology(n_stations, **opts)
        return [(name, "switch") for name in topo.switch_components()]
    if fabric == "torus":
        from ..net.topology import TorusTopology

        if "dims" in opts:
            opts["dims"] = tuple(opts["dims"])
        topo = TorusTopology(n_stations, **opts)
        return [(name, "switch") for name in topo.switch_components()]
    if fabric == "aggregate":
        return [(f"up{p}", "uplink") for p in range(n_stations)]
    raise FaultConfigError(
        f"fabric {fabric!r} has no failable components "
        f"(choose from aggregate, fattree, torus)"
    )


def check_invariants(name: str, entry: dict) -> list[str]:
    """Liveness/conservation checks for one report scenario row.

    Returns human-readable violations (empty: the row is sound):

    * the makespan is finite, or the run surfaced an abort/fallback;
    * the frame-conservation ledger balances — every routed frame is
      delivered, dropped, partition-dropped, or still queued, so no
      frame can be both delivered and dropped;
    * every robustness counter is non-negative;
    * a run whose INIC stacks aborted transfers reports ``aborted``
      (or degraded to the host-TCP fallback) instead of hiding it.
    """
    failures: list[str] = []
    makespan = entry.get("makespan")
    if makespan is None or not math.isfinite(makespan):
        failures.append(f"{name}: makespan {makespan!r} is not finite")
    f = entry.get("faults") or {}

    def walk(prefix: str, doc: dict) -> None:
        for key, value in doc.items():
            if isinstance(value, dict):
                walk(f"{prefix}{key}.", value)
            elif isinstance(value, (int, float)) and value < 0:
                failures.append(
                    f"{name}: counter {prefix}{key} is negative ({value})"
                )

    walk("", f)
    cons = f.get("conservation")
    if cons:
        accounted = (
            cons["frames_delivered"]
            + cons["frames_dropped"]
            + cons["partition_drops"]
        )
        if accounted != cons["frames_in"]:
            failures.append(
                f"{name}: conservation ledger off by "
                f"{cons['frames_in'] - accounted} frames "
                f"(in={cons['frames_in']}, accounted={accounted})"
            )
    if (
        f.get("transfer_aborts", 0) > 0
        and not entry.get("aborted")
        and not entry.get("fallbacks")
    ):
        failures.append(
            f"{name}: {f['transfer_aborts']} transfer aborts were not "
            f"surfaced as an aborted/fallback outcome"
        )
    return failures
