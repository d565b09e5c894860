"""Post-processing analyses shared by the tests, examples and benchmarks.

The modules here turn raw trajectories (from the characteristic / DDE /
fluid / packet-level / Fokker-Planck substrates) into the quantities the
paper's claims are stated about: convergence and settling time, oscillation
amplitude and period, fairness indices and share tables, and plain-text
report tables that the benchmark harness prints.
"""

from .convergence import ConvergenceReport, assess_convergence, settling_time
from .oscillations import (OscillationMetrics, OscillationMetricsBatch,
                           oscillation_metrics, oscillation_metrics_batch)
from .fairness import ShareTable, share_table
from .metrics import (
    overshoot,
    time_to_first_peak,
    mean_absolute_error,
    root_mean_square_error,
)
from .report import format_table, format_series, format_key_values
from .phase_portrait import (
    render_phase_portrait,
    render_trajectory_portrait,
)

__all__ = [
    "render_phase_portrait",
    "render_trajectory_portrait",
    "ConvergenceReport",
    "assess_convergence",
    "settling_time",
    "OscillationMetrics",
    "OscillationMetricsBatch",
    "oscillation_metrics",
    "oscillation_metrics_batch",
    "ShareTable",
    "share_table",
    "overshoot",
    "time_to_first_peak",
    "mean_absolute_error",
    "root_mean_square_error",
    "format_table",
    "format_series",
    "format_key_values",
]
