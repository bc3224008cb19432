"""Univariate slice sampling with stepping out and shrinkage (Neal 2003).

Bounded supports are handled by treating the target as -inf outside
(lower, upper): stepping out terminates there and out-of-range proposals
shrink the interval, which preserves invariance without special cases.

Stepping out has a budget of ``max_stepouts`` widths in all, split at random
as Neal's procedure requires: J = floor(m V) steps to the left and m - 1 - J
to the right, V uniform.  Separate caps per side would break invariance.
An update whose interval reached the full m widths counts as a fallback.
"""

import math

import numpy as np

from .errors import SamplerError

__all__ = ["slice_update", "SliceStats"]

_MAX_SHRINK = 1000


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
    upper: float = math.inf,
    max_stepouts: int = 50,
    stats: SliceStats | None = None,
) -> float:
    """One slice-sampling transition for a scalar coordinate.

    Returns a new value inside (lower, upper); the target distribution is
    invariant under the update.  When the step-out budget runs out the
    interval stops growing and the shrinkage phase proceeds from there.
    """
    if not lower < x0 < upper:
        raise SamplerError(f"initial point {x0} outside ({lower}, {upper})")

    def f(x):
        if x <= lower or x >= upper:
            return -math.inf
        return float(target_logdensity(x))

    f0 = f(x0)
    if not math.isfinite(f0):
        raise SamplerError("target log-density is not finite at the current point")

    level = f0 + math.log(rng.random())
    u = rng.random()
    left = x0 - u * width
    right = left + width

    budget_left = math.floor(max_stepouts * rng.random())
    budget_right = max_stepouts - 1 - budget_left
    n_left = n_right = 0
    while n_left < budget_left and f(left) > level:
        left -= width
        n_left += 1
    while n_right < budget_right and f(right) > level:
        right += width
        n_right += 1
    if stats is not None:
        stats.stepouts += n_left + n_right
        stats.updates += 1
        stats.fallbacks += int(n_left + n_right == max_stepouts - 1)

    for _ in range(_MAX_SHRINK):
        x1 = left + rng.random() * (right - left)
        if f(x1) > level:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    raise SamplerError("slice shrinkage failed to find an acceptable point")
