"""Cross-validation harness: packet-level DES against the Fokker-Planck model.

The paper's Fokker-Planck equation approximates a packet-level system; this
module runs *matched configurations* through both layers of the repository
and quantifies their agreement, closing the validation loop at scale:

* the **DES side** runs N homogeneous JRJ rate sources against a single
  bottleneck (:class:`~repro.queueing.Simulator`) and estimates the
  stationary queue distribution from the time-weighted occupancy of the
  queue-length trace after a warm-up window;
* the **FP side** solves Equation 14 for the matched single-source system
  (:class:`~repro.core.solver.FokkerPlanckSolver`) and takes the final
  marginal queue density.

The match uses the aggregate-equivalence of Section 6: N homogeneous
sources with per-source gain ``C0/N`` produce the same aggregate drift
(``+C0`` below the target, ``−C1·v`` above) as one source with gain
``C0``, so one FP solve validates the whole homogeneous family.  The DES
runs in the same units as the continuous model (``μ`` packets per unit
time, queue measured in packets), so no rescaling is applied to either
axis.

Reported metrics: mean/std of the stationary queue on both sides, their
absolute and relative errors, and the total-variation distance between the
binned stationary distributions.  Packet-level granularity and the σ↔jitter
correspondence are approximate by nature, so the harness *reports*
agreement rather than asserting tight bounds; the benchmark and tests
assert structural validity plus loose physical sanity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

import numpy as np

from .config import GridParameters, SystemParameters, TimeParameters
from .control.jrj import jrj_from_parameters
from .exceptions import ConfigurationError
from .queueing.network import NetworkConfig, SourceConfig
from .queueing.simulator import Simulator

__all__ = [
    "CrossValidationReport",
    "cross_validate",
    "matched_network_config",
]

#: Packet-level control interval and rate jitter of every matched source.
CONTROL_INTERVAL = 0.5
JITTER_FRACTION = 0.1
#: Fraction of the DES horizon discarded before averaging.
WARMUP_FRACTION = 0.25
#: FP phase grid: q in [0, Q_MAX], growth rate in [-V_SPAN, V_SPAN].
Q_MAX = 40.0
V_SPAN = 1.5


@dataclass(frozen=True)
class CrossValidationReport:
    """Agreement metrics between one DES run and the matched FP solution."""

    n_sources: int
    duration: float
    warmup_fraction: float
    t_end: float
    sigma: float
    jitter_fraction: float
    des_mean_queue: float
    des_std_queue: float
    fp_mean_queue: float
    fp_std_queue: float
    mean_queue_abs_error: float
    mean_queue_rel_error: float
    std_queue_abs_error: float
    stationary_tv_distance: float
    des_utilization: float
    des_mass_above_grid: float

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly flat dictionary of every metric.

        Every field is a plain int/float by construction, so the dataclass
        field list is the single source of truth.
        """
        return asdict(self)


def matched_network_config(
    params: SystemParameters,
    n_sources: int = 1,
    seed: int = 11,
) -> NetworkConfig:
    """The packet-level configuration matching *params* for N sources.

    Runs at the continuous model's own scale (``μ = params.mu`` packets per
    unit time).  Each source carries gain ``C0/N`` so the aggregate rate
    drift equals the single-source FP drift; the initial aggregate rate is
    ``μ/2``, matching the harness's FP initial point.
    """
    if n_sources < 1:
        raise ConfigurationError("n_sources must be at least 1")
    c0 = params.c0 / n_sources
    sources = [
        SourceConfig(
            kind="rate",
            control_name="jrj",
            control_kwargs={
                "c0": c0,
                "c1": params.c1,
                "q_target": params.q_target,
            },
            initial_rate=0.5 * params.mu / n_sources,
            control_interval=CONTROL_INTERVAL,
            jitter_fraction=JITTER_FRACTION,
            name=f"matched-{index}",
        )
        for index in range(n_sources)
    ]
    return NetworkConfig(service_rate=params.mu, sources=sources, seed=seed)


def _stationary_occupancy(trace, t_start, t_end, n_bins):
    """Time-weighted queue statistics and occupancy over a window.

    Returns ``(mean, std, bin_probabilities, mass_above_grid)``.  The
    occupancy lives on unit-width (one packet) bins -- the natural
    resolution of the integer-valued packet queue -- and samples beyond the
    binned range are clamped into the last bin (their weight is reported
    separately).
    """
    times = trace.times
    values = trace.values
    next_times = np.append(times[1:], t_end)
    weights = np.minimum(next_times, t_end) - np.maximum(times, t_start)
    weights = np.clip(weights, 0.0, None)
    total = float(weights.sum())
    if total <= 0.0:
        raise ConfigurationError(
            "empty averaging window: check duration and warmup_fraction"
        )
    mean = float((weights * values).sum() / total)
    variance = float((weights * (values - mean) ** 2).sum() / total)
    bins = np.clip(values.astype(int), 0, n_bins - 1)
    occupancy = np.zeros(n_bins)
    np.add.at(occupancy, bins, weights)
    above = float(weights[values >= n_bins].sum() / total)
    return mean, float(np.sqrt(variance)), occupancy / total, above


def _fp_unit_bin_masses(density, grid, n_bins):
    """FP marginal queue mass aggregated onto the same unit-width bins."""
    cell_mass = density.sum(axis=1) * grid.dv * grid.dq
    bins = np.clip(grid.q_centers.astype(int), 0, n_bins - 1)
    binned = np.zeros(n_bins)
    np.add.at(binned, bins, cell_mass)
    return binned / binned.sum()


def cross_validate(
    params: SystemParameters,
    n_sources: int = 1,
    duration: float = 4000.0,
    t_end: float = 240.0,
    nq: int = 120,
    nv: int = 90,
    seed: int = 11,
) -> CrossValidationReport:
    """Run the matched DES and FP configurations and report their agreement.

    Parameters
    ----------
    params:
        Continuous-model parameters (``sigma`` drives the FP diffusion; the
        DES side models burstiness through :data:`JITTER_FRACTION`).
    n_sources:
        Number of homogeneous packet-level sources (aggregate-matched to
        the single-source FP solve, see module docstring).
    duration:
        DES horizon; its first :data:`WARMUP_FRACTION` is discarded before
        averaging.
    t_end, nq, nv:
        FP horizon and phase-grid resolution.
    seed:
        Packet-level seed.
    """
    from .core.solver import FokkerPlanckSolver

    config = matched_network_config(params, n_sources=n_sources, seed=seed)
    des_result = Simulator(config).run(duration)
    grid_params = GridParameters(
        q_max=Q_MAX,
        nq=nq,
        v_min=-V_SPAN,
        v_max=V_SPAN,
        nv=nv,
    )
    n_bins = int(np.ceil(Q_MAX))
    des_mean, des_std, p_des, above = _stationary_occupancy(
        des_result.trace.queue_length,
        WARMUP_FRACTION * duration,
        duration,
        n_bins,
    )

    solver = FokkerPlanckSolver(
        params, jrj_from_parameters(params), grid_params=grid_params
    )
    fp_result = solver.solve_from_point(
        q0=0.0,
        rate0=0.5 * params.mu,
        time_params=TimeParameters(
            t_end=t_end, dt=max(t_end / 300.0, 0.1), snapshot_every=300
        ),
    )
    moments = fp_result.final_moments
    p_fp = _fp_unit_bin_masses(fp_result.final_density, solver.grid, n_bins)

    mean_abs = abs(des_mean - moments.mean_q)
    return CrossValidationReport(
        n_sources=n_sources,
        duration=duration,
        warmup_fraction=WARMUP_FRACTION,
        t_end=t_end,
        sigma=params.sigma,
        jitter_fraction=JITTER_FRACTION,
        des_mean_queue=des_mean,
        des_std_queue=des_std,
        fp_mean_queue=moments.mean_q,
        fp_std_queue=moments.std_q,
        mean_queue_abs_error=mean_abs,
        mean_queue_rel_error=mean_abs / max(abs(moments.mean_q), 1e-12),
        std_queue_abs_error=abs(des_std - moments.std_q),
        stationary_tv_distance=0.5 * float(np.abs(p_des - p_fp).sum()),
        des_utilization=des_result.utilization(),
        des_mass_above_grid=above,
    )
