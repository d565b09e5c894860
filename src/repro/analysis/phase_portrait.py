"""Plain-text rendering of phase-plane trajectories.

The paper's Figures 2 and 3 are phase-plane pictures; for a library that
must run headless (no plotting dependencies) an ASCII rendering is the
honest equivalent.  :func:`render_phase_portrait` rasterises one or more
``(q, ν)`` trajectories onto a character grid, marking the switching line
``q = q̂``, the ``ν = 0`` axis and the limit point, so the convergent spiral
and the delay-induced limit cycle can be inspected directly in a terminal or
a test log.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import AnalysisError

__all__ = ["render_phase_portrait", "render_trajectory_portrait"]

_TRAJECTORY_MARKS = "abcdefghij"


def render_phase_portrait(trajectories: Sequence[Tuple[np.ndarray, np.ndarray]],
                          q_target: float) -> str:
    """Render ``(q, ν)`` trajectories as an ASCII phase portrait.

    The portrait is 72 by 24 characters, and its axis limits are the data
    range padded by 5 %.

    Parameters
    ----------
    trajectories:
        Sequence of ``(q_values, v_values)`` pairs; each is drawn with its
        own letter (``a``, ``b``, ...), later trajectories drawn on top.
    q_target:
        Position of the vertical switching line ``q = q̂``.

    Returns
    -------
    str
        The rendered portrait, one string with embedded newlines, including
        axis annotations.
    """
    if not trajectories:
        raise AnalysisError("need at least one trajectory to render")
    width, height = 72, 24

    all_q = np.concatenate([np.asarray(q, dtype=float) for q, _ in trajectories])
    all_v = np.concatenate([np.asarray(v, dtype=float) for _, v in trajectories])
    q_low, q_high = float(np.min(all_q)), float(np.max(all_q))
    padding = 0.05 * max(q_high - q_low, 1e-9)
    q_low, q_high = q_low - padding, q_high + padding
    v_low, v_high = float(np.min(all_v)), float(np.max(all_v))
    padding = 0.05 * max(v_high - v_low, 1e-9)
    v_low, v_high = v_low - padding, v_high + padding
    if q_high <= q_low or v_high <= v_low:
        raise AnalysisError("axis ranges must have positive extent")

    grid = np.full((height, width), " ", dtype="<U1")

    def to_columns(q: np.ndarray) -> np.ndarray:
        fraction = (q - q_low) / (q_high - q_low)
        return np.round(fraction * (width - 1)).astype(int)

    def to_rows(v: np.ndarray) -> np.ndarray:
        fraction = (v - v_low) / (v_high - v_low)
        return (height - 1) - np.round(fraction * (height - 1)).astype(int)

    # Axis lines: nu = 0 and q = q_target (drawn first so data overwrites them).
    if v_low <= 0.0 <= v_high:
        grid[int(to_rows(np.asarray(0.0)))] = "-"
    if q_low <= q_target <= q_high:
        column = int(to_columns(np.asarray(q_target)))
        grid[:, column] = np.where(grid[:, column] == " ", "|", "+")

    for index, (q_values, v_values) in enumerate(trajectories):
        mark = _TRAJECTORY_MARKS[index % len(_TRAJECTORY_MARKS)]
        q_values = np.asarray(q_values, dtype=float)
        v_values = np.asarray(v_values, dtype=float)
        if q_values.shape != v_values.shape:
            raise AnalysisError("trajectory q and v arrays must align")
        # Vectorized rasterisation: every in-range sample writes the same
        # mark, so the scatter assignment is order-independent and matches
        # the old per-sample loop cell for cell.
        inside = ((q_low <= q_values) & (q_values <= q_high)
                  & (v_low <= v_values) & (v_values <= v_high))
        grid[to_rows(v_values[inside]), to_columns(q_values[inside])] = mark

    # Limit point marker (q_target, 0).
    if q_low <= q_target <= q_high and v_low <= 0.0 <= v_high:
        grid[int(to_rows(np.asarray(0.0))),
             int(to_columns(np.asarray(q_target)))] = "*"

    lines: List[str] = []
    lines.append(f"nu (growth rate)  range [{v_low:.3g}, {v_high:.3g}]")
    for row in grid:
        lines.append("".join(row))
    lines.append(f"q (queue length)  range [{q_low:.3g}, {q_high:.3g}]   "
                 f"'|' q = q_target, '-' nu = 0, '*' limit point")
    return "\n".join(lines)


def render_trajectory_portrait(trajectory) -> str:
    """Render a single :class:`CharacteristicTrajectory`-like object.

    The object only needs ``queue``, ``rate``, ``mu`` and ``q_target``
    attributes, so both plain characteristics and delayed trajectories work.
    """
    q_values = np.asarray(trajectory.queue, dtype=float)
    v_values = np.asarray(trajectory.rate, dtype=float) - trajectory.mu
    return render_phase_portrait([(q_values, v_values)],
                                 q_target=trajectory.q_target)

