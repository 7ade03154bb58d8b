"""Element marking for the adaptive refinement loop.

Every strategy marks a superlevel set ``{T : eta_T >= t}`` and differs from
the others only in its threshold ``t``, so no unmarked triangle carries a
larger indicator than a marked one, which is the property the convergence
of the adaptive loop hinges on.  With N triangles and global estimator eta:

- maximum: ``theta * max eta_T``;
- equidistribution: ``min(theta * tol / sqrt(N), max eta_T)``, after the
  ``terminate`` decision once ``eta <= tol``;
- modified equidistribution: ``min(theta * eta / sqrt(N), max eta_T)``;
- Dörfler: the ``eta_T`` of the last element of the shortest prefix, by
  decreasing indicator, holding ``theta^2 eta^2`` (compared squared).

With all-zero indicators nothing is marked: the discrete problem is
resolved to machine precision and refinement is pointless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import ElementIndicators
from .mesh import triangle_ids

STRATEGIES = ("maximum", "equidistribution", "modified_equidistribution",
              "doerfler")


@dataclass
class MarkingDecision:
    marked: np.ndarray = field(repr=False)
    terminate: bool = False

    def __post_init__(self):
        self.marked = triangle_ids(self.marked)
        if self.terminate and self.marked.size:
            raise ValueError("a terminating decision must mark nothing")


def check_theta(theta, strategy):
    """Raise ``ValueError`` unless the strategy is known and theta is in
    its range.

    Dörfler marking needs ``0 < theta <= 1`` (a zero fraction would mark
    nothing); the other strategies take ``0 <= theta <= 1``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown marking strategy {strategy!r}; "
                         f"available: {STRATEGIES}")
    if strategy == "doerfler":
        if not (0.0 < theta <= 1.0):
            raise ValueError(f"theta must be in (0, 1] for {strategy} "
                             f"marking, got {theta}")
    elif not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1] for {strategy} "
                         f"marking, got {theta}")


def mark(indicators: ElementIndicators, strategy: str, theta: float,
         tol: float = 1e-3) -> MarkingDecision:
    """Mark the triangles whose indicator reaches the strategy's threshold.

    ``tol`` is read by equidistribution only, which terminates (marks
    nothing) once the global estimator is at most ``tol``.
    """
    check_theta(theta, strategy)
    if strategy == "equidistribution":
        if not tol > 0.0:
            raise ValueError(f"tol must be > 0, got {tol}")
        if indicators.eta <= tol:
            return MarkingDecision(np.empty(0, dtype=np.int64), terminate=True)
    eta_sq = indicators.eta_sq
    if not eta_sq.any():
        return MarkingDecision(np.empty(0, dtype=np.int64))
    if strategy == "doerfler":
        descending = np.sort(eta_sq)[::-1]
        cumulative = np.cumsum(descending)
        k = int(np.searchsorted(cumulative, theta ** 2 * cumulative[-1]))
        values, threshold = eta_sq, descending[min(k, eta_sq.size - 1)]
    else:
        values = np.sqrt(eta_sq)
        if strategy == "maximum":
            threshold = theta * values.max()
        else:
            # the largest indicator reaches the root mean square
            # eta / sqrt(N), and eta > tol, but for roundoff in eta
            total = tol if strategy == "equidistribution" else indicators.eta
            threshold = min(theta * total / np.sqrt(values.size),
                            values.max())
    return MarkingDecision(np.flatnonzero(values >= threshold))
