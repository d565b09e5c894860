"""Post-processing analyses shared by the tests, examples and benchmarks.

The modules here turn raw trajectories (from the characteristic / DDE /
fluid / packet-level / Fokker-Planck substrates) into the quantities the
paper's claims are stated about: oscillation amplitude and period, text
phase portraits, and plain-text report tables that the benchmark harness
prints.
"""

from .oscillations import (OscillationMetrics, OscillationMetricsBatch,
                           oscillation_metrics, oscillation_metrics_batch)
from .report import format_table, format_series, format_key_values
from .phase_portrait import (
    render_phase_portrait,
    render_trajectory_portrait,
)

__all__ = [
    "render_phase_portrait",
    "render_trajectory_portrait",
    "OscillationMetrics",
    "OscillationMetricsBatch",
    "oscillation_metrics",
    "oscillation_metrics_batch",
    "format_table",
    "format_series",
    "format_key_values",
]
