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

__all__ = ["slice_update", "slice_update_vec", "SliceStats"]

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


def slice_update_vec(
    target_logdensity,
    x0: np.ndarray,
    width,
    rng: np.random.Generator,
    lower: float = -math.inf,
    upper: float = math.inf,
    max_stepouts: int = 50,
    stats: SliceStats | None = None,
) -> np.ndarray:
    """Slice-update several independent coordinates in lockstep.

    ``target_logdensity`` maps an (n,) vector to (n,) per-lane log densities;
    lane i's density may depend only on x[i].  All lanes consume randomness
    from the shared generator in a fixed order, so results are reproducible.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if n == 0:
        return x0.copy()
    width = np.broadcast_to(np.asarray(width, dtype=float), (n,)).copy()

    def f(x):
        out = np.asarray(target_logdensity(x), dtype=float)
        return np.where((x <= lower) | (x >= upper), -np.inf, out)

    f0 = f(x0)
    if not np.all(np.isfinite(f0)):
        raise SamplerError("vectorized slice target not finite at current point")

    level = f0 + np.log(rng.random(n))
    u = rng.random(n)
    left = x0 - u * width
    right = left + width

    def step_out(edge, step, budget):
        """Move each lane's edge by ``step`` until it leaves the slice or its budget ends."""
        taken = np.zeros(n, dtype=np.int64)
        active = (budget > 0) & (f(edge) > level)
        while np.any(active):
            edge = np.where(active, edge + step, edge)
            taken += active
            active &= (taken < budget) & (f(edge) > level)
        return edge, taken

    budget_left = np.floor(max_stepouts * rng.random(n)).astype(np.int64)
    left, out_left = step_out(left, -width, budget_left)
    right, out_right = step_out(right, width, max_stepouts - 1 - budget_left)
    if stats is not None:
        n_out = out_left + out_right
        stats.stepouts += int(n_out.sum())
        stats.updates += n
        stats.fallbacks += int(np.count_nonzero(n_out == max_stepouts - 1))

    x1 = x0.copy()
    pending = np.ones(n, dtype=bool)
    for _ in range(_MAX_SHRINK):
        prop = left + rng.random(n) * (right - left)
        fx = f(np.where(pending, prop, x0))
        accept = pending & (fx > level)
        x1[accept] = prop[accept]
        pending &= ~accept
        if not np.any(pending):
            return x1
        shrink_left = pending & (prop < x0)
        shrink_right = pending & ~shrink_left
        left = np.where(shrink_left, prop, left)
        right = np.where(shrink_right, prop, right)
    raise SamplerError("vectorized slice shrinkage failed to converge")
