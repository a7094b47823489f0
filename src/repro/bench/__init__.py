"""Benchmark harness: figure definitions, scales, reporting, calibration.

The figure and sweep CLIs are ``python -m repro.bench.figures`` and
``python -m repro.bench.sweep``; they are not imported here, so running
them as ``__main__`` never finds them already loaded.
"""

from .calibration import KernelRates, compare_des_vs_model, measure_kernel_rates
from .harness import Experiment, Scale, render_all, render_table
from .report import ascii_plot, shape_summary, to_markdown

__all__ = [
    "Experiment",
    "KernelRates",
    "Scale",
    "ascii_plot",
    "compare_des_vs_model",
    "measure_kernel_rates",
    "render_all",
    "render_table",
    "shape_summary",
    "to_markdown",
]
