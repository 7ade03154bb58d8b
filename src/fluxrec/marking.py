"""Element marking strategies for the adaptive refinement loop.

All four strategies guarantee that no unmarked triangle carries a larger
indicator than every marked one (whenever anything is marked at all), which
is the property the convergence of the adaptive loop hinges on.  With
all-zero indicators every strategy returns an empty marking: the discrete
problem is resolved to machine precision and refinement is pointless.
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


def _eta_per_element(indicators: ElementIndicators) -> np.ndarray:
    return np.sqrt(indicators.eta_sq)


def check_theta(theta, strategy):
    """Raise ``ValueError`` unless theta is in the strategy's range.

    Dörfler marking needs ``0 < theta <= 1`` (a zero fraction would mark
    nothing); the other strategies take ``0 <= theta <= 1``.
    """
    if strategy == "doerfler":
        if not (0.0 < theta <= 1.0):
            raise ValueError(f"theta must be in (0, 1] for {strategy} "
                             f"marking, got {theta}")
    elif not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1] for {strategy} "
                         f"marking, got {theta}")


def mark_maximum(indicators: ElementIndicators, theta: float) -> MarkingDecision:
    """Mark every element whose indicator reaches theta times the maximum."""
    check_theta(theta, "maximum")
    eta = _eta_per_element(indicators)
    eta_max = eta.max() if eta.size else 0.0
    if eta_max == 0.0:
        return MarkingDecision(np.empty(0, dtype=np.int64))
    return MarkingDecision(np.flatnonzero(eta >= theta * eta_max))


def mark_equidistribution(indicators: ElementIndicators, theta: float,
                          tol: float) -> MarkingDecision:
    """Equidistribution marking with built-in termination test.

    Terminates (marks nothing) once the global estimator falls below the
    tolerance.  Otherwise marks all elements above ``theta * tol / sqrt(N)``;
    the worst element always qualifies because the global estimator still
    exceeds the tolerance.
    """
    check_theta(theta, "equidistribution")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    eta = _eta_per_element(indicators)
    if indicators.eta <= tol:
        return MarkingDecision(np.empty(0, dtype=np.int64), terminate=True)
    # the largest indicator exceeds tol / sqrt(N) but for roundoff
    threshold = min(theta * tol / np.sqrt(eta.size), eta.max())
    return MarkingDecision(np.flatnonzero(eta >= threshold))


def mark_modified_equidistribution(indicators: ElementIndicators,
                                   theta: float) -> MarkingDecision:
    """Mark elements above theta times the equidistributed global estimator."""
    check_theta(theta, "modified_equidistribution")
    eta = _eta_per_element(indicators)
    total = indicators.eta
    if total == 0.0:
        return MarkingDecision(np.empty(0, dtype=np.int64))
    # the largest indicator is at least their root mean square, which
    # roundoff in ``total`` can put above it
    threshold = min(theta * total / np.sqrt(eta.size), eta.max())
    return MarkingDecision(np.flatnonzero(eta >= threshold))


def mark_doerfler(indicators: ElementIndicators, theta: float) -> MarkingDecision:
    """Bulk marking: the smallest sorted prefix holding a theta-fraction.

    Elements are sorted by decreasing indicator (ties by ascending id) and
    the shortest prefix with ``eta(prefix) >= theta * eta`` is taken, then
    extended by all ties with the last included value so the marked minimum
    dominates the unmarked maximum exactly.
    """
    check_theta(theta, "doerfler")
    eta_sq = indicators.eta_sq
    order = np.lexsort((np.arange(eta_sq.size), -eta_sq))
    cumulative = np.cumsum(eta_sq[order])
    total_sq = float(cumulative[-1]) if cumulative.size else 0.0
    if total_sq == 0.0:
        return MarkingDecision(np.empty(0, dtype=np.int64))
    target = theta ** 2 * total_sq
    k = int(np.searchsorted(cumulative, target))
    k = min(k, eta_sq.size - 1)
    return MarkingDecision(np.flatnonzero(eta_sq >= eta_sq[order[k]]))


def mark(indicators: ElementIndicators, strategy: str, theta: float,
         tol: float = 1e-3) -> MarkingDecision:
    """Dispatch a marking strategy by name."""
    if strategy == "maximum":
        return mark_maximum(indicators, theta)
    if strategy == "equidistribution":
        return mark_equidistribution(indicators, theta, tol)
    if strategy == "modified_equidistribution":
        return mark_modified_equidistribution(indicators, theta)
    if strategy == "doerfler":
        return mark_doerfler(indicators, theta)
    raise ValueError(f"unknown marking strategy {strategy!r}; "
                     f"available: {STRATEGIES}")
