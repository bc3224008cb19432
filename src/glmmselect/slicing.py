"""Univariate slice sampling with stepping out and shrinkage (Neal 2003).

A lower bound is handled by treating the target as -inf at and below it (an
upper bound, by the target's own -inf): stepping out terminates there and
out-of-range proposals shrink the interval, which preserves invariance.

Stepping out has a budget of m = ``_MAX_STEPOUTS`` widths in all, split at
random as Neal's procedure requires: J = floor(m V) steps to the left and
m - 1 - J to the right, V uniform.  Separate caps per side would break
invariance.  An update whose interval reached the full m widths counts as a fallback.

The slice is f(x) - f(x0) > log u: in floats, Neal's f(x) > f(x0) + log u
fails once |f(x0)| nears 1e15, where f(x0) + log u rounds back to f(x0).
"""

import math

import numpy as np

from .errors import SamplerError

__all__ = ["slice_update", "SliceStats"]

_MAX_SHRINK = 1000
_MAX_STEPOUTS = 50


class SliceStats:
    """Mutable counters shared across updates of one parameter family."""

    __slots__ = ("stepouts", "updates", "fallbacks")

    def __init__(self):
        self.stepouts = 0
        self.updates = 0
        self.fallbacks = 0


def slice_update(
    target_logdensity,
    x0: float,
    width: float,
    rng: np.random.Generator,
    lower: float = -math.inf,
    stats: SliceStats | None = None,
) -> float:
    """One slice-sampling transition for a scalar coordinate.

    Returns a new value above ``lower``; the target distribution is
    invariant under the update.  When the step-out budget runs out the
    interval stops growing and the shrinkage phase proceeds from there.
    """

    def f(x):
        if x <= lower:
            return -math.inf
        return float(target_logdensity(x))

    f0 = f(x0)
    if not math.isfinite(f0):  # a start at or below the bound lands here too
        raise SamplerError("target log-density is not finite at the current point")

    log_u = math.log(rng.random())
    u = rng.random()
    left = x0 - u * width
    right = left + width

    budget_left = math.floor(_MAX_STEPOUTS * rng.random())
    budget_right = _MAX_STEPOUTS - 1 - budget_left
    n_left = n_right = 0
    while n_left < budget_left and f(left) - f0 > log_u:
        left -= width
        n_left += 1
    while n_right < budget_right and f(right) - f0 > log_u:
        right += width
        n_right += 1
    if stats is not None:
        stats.stepouts += n_left + n_right
        stats.updates += 1
        stats.fallbacks += int(n_left + n_right == _MAX_STEPOUTS - 1)

    for _ in range(_MAX_SHRINK):
        x1 = left + rng.random() * (right - left)
        if f(x1) - f0 > log_u:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    raise SamplerError("slice shrinkage failed to find an acceptable point")
