"""Online hyper-parameter tuning over a discrete grid.

The server maintains a diagonal Gaussian, restricted and renormalized over
a finite grid of hyper-parameter combinations:

    P(h | psi) = N(h | mu, A) / sum_{h' in grid} N(h' | mu, A)

with psi = (mu, log_precision), A = diag(exp(log_precision)).  Axes are
normalized: the n values of an axis sit at linspace(-0.5, 0.5, n) by rank,
so mu lives in a zero-centered box regardless of raw units.  A cell of
the grid is named by its flat index i, the row of `HyperGrid.points` that
holds its coordinates: `sample` draws an index and `score` scores one.

After each round the server scores the sampled combination with the
relative validation-loss improvement

    r_t = (L_t - L_{t+1}) / L_t

and nudges psi along the REINFORCE direction, using a trailing window of
(reward, score) pairs as the variance-reduction baseline:

    psi <- psi + eta * sum_{tau = t-Z'}^{t} (r_tau - rbar) * score_tau,
    rbar = mean of the window's rewards,  Z' = min(Z, t-1).

The window is a deque with capacity Z+1: the current round's pair and at
most Z before it.

The score is the exact gradient of log P(h | psi), computable in closed
form because the grid is finite:

    score(h) = grad log N(h | mu, A) - E_{h' ~ P}[grad log N(h' | mu, A)].

With a window of size one the update vanishes (r - rbar = 0), so the
first round never moves psi.  The mean is clamped to the grid's
normalized hull after every update; the gradient direction defaults to
ascent (maximizing expected reward) with a descent override for
replicating the sign convention used elsewhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

COORD_SPAN = (-0.5, 0.5)

# reinforce_update keeps log_precision in this range.  Up to 700 the
# precision is at most 1.02e304, so with |h - mu| <= 1 on the two axes the
# (h - mu)**2 * A sums and the score stay finite; a large `tuner.hyper_lr`
# used to drive the precision to inf and the grid probabilities to NaN.
# `tuner.init_std` >= 1e-150 starts log_precision at 691 at most.  Below
# -745.14 exp(log_precision) is exactly 0, so the floor at -750 changes no
# probability or score; it only keeps log_precision finite.
LOG_PRECISION_SPAN = (-750.0, 700.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GridError(ValueError):
    """A hyper-parameter grid or distribution is malformed."""


@dataclass(frozen=True)
class HyperAxis:
    """One named axis: raw values ascending, plus normalized coordinates."""

    name: str
    values: tuple[float, ...]
    integer: bool | None = None  # None: integral when every value is

    def __post_init__(self) -> None:
        if not self.values:
            raise GridError(f"axis {self.name!r} has no values")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise GridError(f"axis {self.name!r} values must be strictly increasing")
        integral = all(float(v).is_integer() for v in self.values)
        if self.integer is None:
            object.__setattr__(self, "integer", integral)
        elif self.integer and not integral:
            raise GridError(f"integer axis {self.name!r} has non-integer values")

    @cached_property
    def coords(self) -> np.ndarray:
        """Normalized coordinates of the values; cached, read-only."""
        n = len(self.values)
        return _read_only(np.zeros(1) if n == 1
                          else np.linspace(COORD_SPAN[0], COORD_SPAN[1], n))


@dataclass(frozen=True)
class HyperGrid:
    """Cartesian product of axes; points are normalized coordinates."""

    axes: tuple[HyperAxis, ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise GridError("grid needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise GridError(f"duplicate axis names: {names}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a.values) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def points(self) -> np.ndarray:
        """(size, ndim) matrix of normalized grid coordinates; read-only.

        The first axis varies slowest (row-major flattening of the
        cartesian product), so point index <-> per-axis indices via
        np.unravel_index with this grid's shape.
        """
        mesh = np.meshgrid(*(a.coords for a in self.axes), indexing="ij")
        return _read_only(np.stack([m.reshape(-1) for m in mesh], axis=1))

    def raw_values(self, flat_index: int) -> dict[str, float | int]:
        idx = np.unravel_index(flat_index, self.shape)
        out: dict[str, float | int] = {}
        for a, i in zip(self.axes, idx):
            v = a.values[int(i)]
            out[a.name] = int(v) if a.integer else float(v)
        return out


def default_grid(task: str = "mnist") -> HyperGrid:
    """The stock two-axis grid: learning rate x local SGD iterations."""
    lr = HyperAxis("learning_rate", (0.005, 0.01, 0.02, 0.05, 0.1, 0.2))
    if task == "kws":
        iters = HyperAxis("sgd_iterations", (5.0, 10.0, 20.0, 30.0))
    else:
        iters = HyperAxis("sgd_iterations", (10.0, 20.0, 30.0, 50.0, 80.0, 120.0))
    return HyperGrid(axes=(lr, iters))


# ---------------------------------------------------------------------------
# Distribution over the grid


@dataclass(frozen=True)
class HyperDist:
    """psi = (mu, log_precision), both finite (ndim,) float64 arrays in
    normalized coordinates, as `initial_dist` and `reinforce_update` make
    them."""

    mu: np.ndarray
    log_precision: np.ndarray

    @property
    def precision(self) -> np.ndarray:
        return np.exp(self.log_precision)


def initial_dist(grid: HyperGrid, std: float = 0.2) -> HyperDist:
    """Centered distribution with per-axis std `std` in normalized coords."""
    d = len(grid.axes)
    return HyperDist(mu=np.zeros(d),
                     log_precision=np.full(d, -2.0 * np.log(std)))


def _log_unnorm(grid: HyperGrid, dist: HyperDist) -> np.ndarray:
    pts = grid.points
    a = dist.precision
    diff = pts - dist.mu
    # log N up to the shared (2 pi)^{-D/2} constant, which cancels in the
    # normalization anyway.
    return 0.5 * dist.log_precision.sum() - 0.5 * (diff * diff * a).sum(axis=1)


def grid_probs(grid: HyperGrid, dist: HyperDist) -> np.ndarray:
    """P(h | psi) for every grid point; sums to 1."""
    logw = _log_unnorm(grid, dist)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def sample(grid: HyperGrid, dist: HyperDist, rng: np.random.Generator) -> int:
    """Draw one combination; returns its flat grid index."""
    p = grid_probs(grid, dist)
    return int(rng.choice(p.size, p=p))


def score(grid: HyperGrid, dist: HyperDist, i: int) -> np.ndarray:
    """Exact grad of log P(h_i | psi) for grid cell i; shape (2, D): rows
    (mu, log_precision).

    grad_mu log N = A (h - mu); grad_logA log N = 1/2 - 1/2 A (h - mu)^2
    per axis.  The grid-restricted score subtracts the probability-weighted
    average of the same quantity over all grid points.
    """
    p = grid_probs(grid, dist)
    a = dist.precision
    diff = grid.points - dist.mu
    gmu_all = a * diff                      # (size, D)
    glp_all = 0.5 - 0.5 * a * diff * diff   # (size, D)
    expected = np.stack([p @ gmu_all, p @ glp_all])
    return np.stack([gmu_all[i], glp_all[i]]) - expected


def reward(loss_before: float, loss_after: float) -> float:
    """Relative improvement (L_t - L_{t+1}) / L_t."""
    if not np.isfinite(loss_before) or not np.isfinite(loss_after):
        raise ValueError("rewards need finite losses")
    if loss_before <= 0:
        raise ValueError(f"loss_before must be positive, got {loss_before}")
    return (loss_before - loss_after) / loss_before


def reinforce_update(dist: HyperDist, window: Sequence[tuple[float, np.ndarray]],
                     eta: float, sign: float = 1.0,
                     freeze_precision: bool = False) -> HyperDist:
    """One windowed REINFORCE step on psi.

    `window` holds (reward, score) pairs, oldest first, and must already
    contain the current round's.  With sign=+1 (default) the step ascends expected reward; sign=-1
    descends, for replicating the opposite convention.  mu is clamped to
    the normalized hull after the step.
    """
    rbar = np.array([r for r, _ in window]).mean()
    delta = np.zeros((2, dist.mu.size))
    for r_tau, s_tau in window:
        delta += (r_tau - rbar) * s_tau
    mu = dist.mu + sign * eta * delta[0]
    mu = np.clip(mu, COORD_SPAN[0], COORD_SPAN[1])
    lp = dist.log_precision if freeze_precision else np.clip(
        dist.log_precision + sign * eta * delta[1], *LOG_PRECISION_SPAN)
    return HyperDist(mu=mu, log_precision=lp)


def mu_raw(grid: HyperGrid, dist: HyperDist) -> dict[str, float]:
    """Raw-unit readout of the current mean, per axis."""
    return {a.name: float(np.interp(dist.mu[d], a.coords, a.values))
            for d, a in enumerate(grid.axes)}
