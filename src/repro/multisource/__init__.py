"""Multiple sources sharing one bottleneck (Section 6 of the paper).

With ``N`` adaptive sources feeding one bottleneck, each source ``i`` runs
its own copy of the control law with parameters ``(C0ᵢ, C1ᵢ)`` and all of
them observe the same queue.  The paper's Section 6 results are:

* with identical parameters every source converges to an **equal** share of
  the service rate (the algorithm is fair), and
* with different parameters the equilibrium shares are determined exactly by
  the parameters -- the ratio of the increase and decrease constants decides
  who gets how much.

This subpackage provides the coupled multi-source dynamical model, the
closed-form equilibrium-share prediction and the fairness metrics used by
the Section 6 experiments (E5 and E10).
"""

from .model import MultiSourceModel, MultiSourceTrajectory
from .fairness import (
    FairnessReport,
    predicted_equilibrium_shares,
    fairness_report,
    jain_fairness_index,
)

__all__ = [
    "MultiSourceModel",
    "MultiSourceTrajectory",
    "FairnessReport",
    "predicted_equilibrium_shares",
    "fairness_report",
    "jain_fairness_index",
]
