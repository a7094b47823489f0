"""Timeline: spans + instruments -> per-component utilization tracks.

The paper's figures are decompositions of run time; the timeline is the
same decomposition generalized: one *phase track* per span name (the
application's ``fft-compute`` / ``transpose-comm`` / ``inic-exchange``
phases, with their real intervals) and one *component track* per busy
instrument (``node0.pci``, ``switch.port2``, ...) carrying its
accumulated busy time and utilization over the run.

Built after a run from the cluster's :class:`~repro.sim.trace.TraceRecorder`
and the session's :class:`~repro.telemetry.registry.MetricsRegistry`;
the Perfetto exporter (:mod:`repro.telemetry.perfetto`) renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.trace import Span, TraceRecorder, merge_intervals
from .registry import MetricsRegistry

__all__ = ["Track", "Timeline"]

#: suffixes that mark a busy instrument's component track
_BUSY_SUFFIXES = (".busy_time", ".config_time", ".time")


@dataclass
class Track:
    """One timeline row."""

    name: str
    kind: str  # "phase" | "component"
    #: closed spans on this track (phase tracks only; component tracks
    #: summarize with busy_time/utilization instead of intervals)
    spans: list[Span] = field(default_factory=list)
    busy_time: float = 0.0
    utilization: float = 0.0

    def wall(self) -> float:
        """Union duration of this track's spans."""
        ivs = merge_intervals((s.start, s.end) for s in self.spans)
        return sum(e - s for s, e in ivs)


class Timeline:
    """Per-component utilization tracks for one finished run."""

    def __init__(self, tracks: list[Track], now: float):
        self.tracks = tracks
        self.now = now

    @classmethod
    def build(
        cls,
        trace: TraceRecorder,
        registry: Optional[MetricsRegistry] = None,
        now: Optional[float] = None,
    ) -> "Timeline":
        end = trace.sim.now if now is None else now
        tracks: list[Track] = []
        # Phase tracks: one per span name, in first-seen order (stable).
        by_name: dict[str, Track] = {}
        for span in trace.spans:
            track = by_name.get(span.name)
            if track is None:
                track = Track(span.name, "phase")
                by_name[span.name] = track
                tracks.append(track)
            track.spans.append(span)
        for track in tracks:
            track.busy_time = track.wall()
            track.utilization = track.busy_time / end if end > 0 else 0.0
        # Component tracks: every busy instrument becomes a utilization row.
        if registry is not None:
            for inst in registry.instruments(kind="busy"):
                busy = float(inst.value())
                component = inst.name
                for suffix in _BUSY_SUFFIXES:
                    if component.endswith(suffix):
                        component = component[: -len(suffix)]
                        break
                tracks.append(
                    Track(
                        component,
                        "component",
                        busy_time=busy,
                        utilization=busy / end if end > 0 else 0.0,
                    )
                )
        return cls(tracks, end)

    # -- queries -----------------------------------------------------------
    def phase_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.kind == "phase"]

    def component_tracks(self) -> list[Track]:
        return [t for t in self.tracks if t.kind == "component"]

    def phase_totals(self) -> dict[str, float]:
        """Phase-name -> wall time (interval union), the figure view."""
        return {t.name: t.busy_time for t in self.phase_tracks()}

    def utilization(self) -> dict[str, float]:
        """Component -> busy fraction of the run."""
        return {t.name: t.utilization for t in self.component_tracks()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeline {len(self.tracks)} tracks over {self.now:g}s>"
