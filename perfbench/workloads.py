"""The benchmark's workloads: inputs, facade calls and output checks.

Each workload is one simulated point driven through the public facade
(``repro.api.Experiment ... build()``, then ``inic_sort`` or
``baseline_fft2d``).  Inputs are generated here from the run's seed and
handed to the application as arrays; the program never sees the seed
itself, except as the root seed of the lossy workload's fault streams,
which is part of that workload's input.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.api import ACEII_PROTOTYPE, GIGABIT_ETHERNET, Experiment, FaultSpec
from repro.apps.fft import baseline_fft2d
from repro.apps.sort import inic_sort
from repro.errors import ConfigurationError, TransferAborted

#: fault seed = input seed + this, so ``--seed 2`` reproduces the sweep
#: runners' fault points (input seed 2, fault seed 7)
FAULT_SEED_OFFSET = 5

#: the FFT check: max |out - fft2(in)| <= FFT_RTOL * max |fft2(in)|
FFT_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark point family."""

    name: str
    app: str  # "sort" | "fft"
    nodes: int
    size: int  # sort: number of keys; fft: matrix rows (square)
    card: bool
    fabric: str
    fastpath: bool
    loss_rate: float = 0.0
    retries: int = 0

    def tiny(self) -> "Workload":
        """A seconds-cheap variant on the same code paths (warm-up and
        smoke tests)."""
        if self.app == "sort":
            return dataclasses.replace(self, nodes=16, size=1 << 15)
        return dataclasses.replace(self, nodes=8, size=64)

    # -- inputs -----------------------------------------------------------------
    def inputs(self, seed: int) -> np.ndarray:
        g = np.random.default_rng(seed)
        if self.app == "sort":
            return g.integers(0, 2**32, size=self.size, dtype=np.uint32)
        n = self.size
        return g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))

    def experiment(self, seed: int) -> Experiment:
        exp = Experiment().nodes(self.nodes).fabric(self.fabric)
        if self.card:
            card = ACEII_PROTOTYPE
            if self.retries:
                card = dataclasses.replace(
                    card,
                    proto=dataclasses.replace(card.proto, max_retries=self.retries),
                )
            exp = exp.card(card)
        else:
            exp = exp.network(GIGABIT_ETHERNET)
        if self.fastpath:
            exp = exp.fastpath(True)
        if self.loss_rate:
            exp = exp.faults(
                FaultSpec(seed=seed + FAULT_SEED_OFFSET, loss_rate=self.loss_rate)
            )
        return exp

    # -- the application call ---------------------------------------------------
    def attempt(self, session, data: np.ndarray):
        """The timed call: ``((output, AppResult), [])``, or ``(None,
        [violation])`` for the INIC failure modes -- an aborted transfer,
        or a card configuration failure that would force the host-TCP
        fallback."""
        try:
            if self.app == "sort":
                return inic_sort(session.cluster, session.manager, data), []
            return baseline_fft2d(session.cluster, data), []
        except TransferAborted as exc:
            return None, [f"aborted: {exc}"]
        except ConfigurationError as exc:
            return None, [f"fallback needed (card configuration failed): {exc}"]

    # -- output checks ----------------------------------------------------------
    def check(self, session, data: np.ndarray, output) -> list[str]:
        """Every violation of this point's outputs, as readable strings."""
        problems = []
        if self.app == "sort":
            got = np.concatenate([np.asarray(a).ravel() for a in output])
            if got.shape != data.shape or not np.array_equal(got, np.sort(data)):
                problems.append("sort: concatenated ranks differ from np.sort(keys)")
        else:
            ref = np.fft.fft2(data)
            err = float(np.max(np.abs(output - ref))) if output.shape == ref.shape else np.inf
            if not err <= FFT_RTOL * float(np.max(np.abs(ref))):
                problems.append(
                    f"fft: max |out - fft2(in)| = {err:.3g} exceeds "
                    f"{FFT_RTOL:g} x max |fft2(in)|"
                )
        ledger = session.cluster.switch.conservation_counters()
        balance = (
            ledger["frames_delivered"]
            + ledger["frames_dropped"]
            + ledger["partition_drops"]
        )
        if ledger["frames_in"] != balance:
            problems.append(f"fabric conservation ledger unbalanced: {ledger}")
        return problems


#: the benchmark's workloads, by name
WORKLOADS = {
    w.name: w
    for w in (
        # Same point as scale-sort-inic-fattree-p256: bulk trains
        # through the flow clock and the card's closed-form cascade.
        Workload(
            "inic-sort-fattree", "sort", nodes=256, size=1 << 21,
            card=True, fabric="fattree", fastpath=True,
        ),
        # Same point as scale-fft-gige-p64: frame-by-frame TCP/MPI over
        # the single-star aggregate fabric, no card, no flow clock.
        Workload(
            "tcp-fft-star", "fft", nodes=64, size=512,
            card=False, fabric="aggregate", fastpath=False,
        ),
        # 1% uplink loss arms the injectors, forcing the frame-level
        # fallback with NACK/retransmit recovery.
        Workload(
            "inic-sort-lossy", "sort", nodes=128, size=1 << 21,
            card=True, fabric="fattree", fastpath=True,
            loss_rate=0.01, retries=8,
        ),
    )
}
