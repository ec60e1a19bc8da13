"""Online hyper-parameter tuning over a discrete grid.

The server maintains a diagonal Gaussian, restricted and renormalized over
a finite grid of hyper-parameter combinations:

    P(h | psi) = N(h | mu, A) / sum_{h' in grid} N(h' | mu, A)

with psi = (mu, log_precision), A = diag(exp(log_precision)).  Axes are
normalized: the n values of an axis sit at linspace(-0.5, 0.5, n) by rank,
so mu lives in a zero-centered box regardless of raw units.

After each round the server scores the sampled combination with the
relative validation-loss improvement

    r_t = (L_t - L_{t+1}) / L_t

and nudges psi along the REINFORCE direction, using a trailing window of
(reward, score) pairs as the variance-reduction baseline:

    psi <- psi + eta * sum_{tau = t-Z'}^{t} (r_tau - rbar) * score_tau,
    rbar = mean of the window's rewards,  Z' = min(Z, t-1).

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

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

COORD_SPAN = (-0.5, 0.5)


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
    integer: bool = False

    def __post_init__(self) -> None:
        if not self.values:
            raise GridError(f"axis {self.name!r} has no values")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise GridError(f"axis {self.name!r} values must be strictly increasing")
        if self.integer and any(v != int(v) for v in self.values):
            raise GridError(f"integer axis {self.name!r} has non-integer values")

    @cached_property
    def coords(self) -> np.ndarray:
        """Normalized coordinates of the values; cached, read-only."""
        n = len(self.values)
        return _read_only(np.zeros(1) if n == 1
                          else np.linspace(COORD_SPAN[0], COORD_SPAN[1], n))

    def raw_at(self, coord: float) -> float:
        """Raw value at a normalized coordinate, linearly interpolated."""
        raw = float(np.interp(coord, self.coords, np.asarray(self.values)))
        return raw


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
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a.values) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """(size, ndim) matrix of normalized grid coordinates; cached,
        read-only.

        The first axis varies slowest (row-major flattening of the
        cartesian product), so point index <-> per-axis indices via
        np.unravel_index with this grid's shape.
        """
        return self._points

    @cached_property
    def _points(self) -> np.ndarray:
        mesh = np.meshgrid(*(a.coords for a in self.axes), indexing="ij")
        return _read_only(np.stack([m.reshape(-1) for m in mesh], axis=1))

    def raw_values(self, flat_index: int) -> dict[str, float | int]:
        idx = np.unravel_index(flat_index, self.shape)
        out: dict[str, float | int] = {}
        for a, i in zip(self.axes, idx):
            v = a.values[int(i)]
            out[a.name] = int(v) if a.integer else float(v)
        return out

    def locate(self, h: np.ndarray) -> int:
        """Flat index of a normalized point; errors if h is off the grid."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.ndim,):
            raise GridError(f"point shape {h.shape} does not match ndim {self.ndim}")
        per_axis = []
        for d, a in enumerate(self.axes):
            c = a.coords
            j = int(np.argmin(np.abs(c - h[d])))
            if abs(c[j] - h[d]) > 1e-9:
                raise GridError(f"coordinate {h[d]} is not on axis {a.name!r}")
            per_axis.append(j)
        return int(np.ravel_multi_index(tuple(per_axis), self.shape))


def default_grid(task: str = "mnist") -> HyperGrid:
    """The stock two-axis grid: learning rate x local SGD iterations."""
    lr = HyperAxis("learning_rate", (0.005, 0.01, 0.02, 0.05, 0.1, 0.2))
    if task == "kws":
        iters = HyperAxis("sgd_iterations", (5.0, 10.0, 20.0, 30.0), integer=True)
    else:
        iters = HyperAxis("sgd_iterations", (10.0, 20.0, 30.0, 50.0, 80.0, 120.0),
                          integer=True)
    return HyperGrid(axes=(lr, iters))


# ---------------------------------------------------------------------------
# Distribution over the grid


@dataclass(frozen=True)
class HyperDist:
    """psi = (mu, log_precision), both (ndim,) in normalized coordinates."""

    mu: np.ndarray
    log_precision: np.ndarray

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=np.float64))
        lp = np.atleast_1d(np.asarray(self.log_precision, dtype=np.float64))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "log_precision", lp)
        if mu.shape != lp.shape or mu.ndim != 1:
            raise GridError(f"mu {mu.shape} and log_precision {lp.shape} must be (D,)")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(lp))):
            raise GridError("distribution parameters must be finite")

    @property
    def precision(self) -> np.ndarray:
        return np.exp(self.log_precision)


def initial_dist(grid: HyperGrid, std: float = 0.2) -> HyperDist:
    """Centered distribution with per-axis std `std` in normalized coords."""
    if std <= 0:
        raise GridError("initial std must be positive")
    d = grid.ndim
    return HyperDist(mu=np.zeros(d),
                     log_precision=np.full(d, -2.0 * np.log(std)))


def _log_unnorm(grid: HyperGrid, dist: HyperDist) -> np.ndarray:
    pts = grid.points()
    a = dist.precision
    diff = pts - dist.mu
    # log N up to the shared (2 pi)^{-D/2} constant, which cancels in the
    # normalization anyway.
    return 0.5 * dist.log_precision.sum() - 0.5 * (diff * diff * a).sum(axis=1)


def grid_probs(grid: HyperGrid, dist: HyperDist) -> np.ndarray:
    """P(h | psi) for every grid point; sums to 1."""
    if dist.mu.shape != (grid.ndim,):
        raise GridError(f"distribution dim {dist.mu.shape} vs grid ndim {grid.ndim}")
    logw = _log_unnorm(grid, dist)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def sample(grid: HyperGrid, dist: HyperDist, rng: np.random.Generator):
    """Draw one combination; returns (flat_index, h_norm, raw dict)."""
    p = grid_probs(grid, dist)
    idx = int(rng.choice(p.size, p=p))
    h = grid.points()[idx].copy()
    return idx, h, grid.raw_values(idx)


def score(grid: HyperGrid, dist: HyperDist, h: np.ndarray) -> np.ndarray:
    """Exact grad of log P(h | psi); shape (2, D): rows (mu, log_precision).

    grad_mu log N = A (h - mu); grad_logA log N = 1/2 - 1/2 A (h - mu)^2
    per axis.  The grid-restricted score subtracts the probability-weighted
    average of the same quantity over all grid points.
    """
    i = grid.locate(h)  # raises when h is off the grid
    p = grid_probs(grid, dist)
    a = dist.precision
    diff = grid.points() - dist.mu
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


@dataclass
class RewardWindow:
    """Trailing (reward, score) pairs; capacity Z+1 so Z' = min(Z, t-1)."""

    z: int
    _buf: deque = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.z < 0:
            raise GridError("window radius must be non-negative")
        self._buf = deque(maxlen=self.z + 1)

    def push(self, r: float, s: np.ndarray) -> None:
        self._buf.append((float(r), np.asarray(s, dtype=np.float64)))

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def rewards(self) -> np.ndarray:
        return np.array([r for r, _ in self._buf])

    @property
    def scores(self) -> list[np.ndarray]:
        return [s for _, s in self._buf]


def reinforce_update(dist: HyperDist, window: RewardWindow, eta: float,
                     sign: float = 1.0, freeze_precision: bool = False) -> HyperDist:
    """One windowed REINFORCE step on psi.

    The window must already contain the current round's (reward, score).
    With sign=+1 (default) the step ascends expected reward; sign=-1
    descends, for replicating the opposite convention.  mu is clamped to
    the normalized hull after the step.
    """
    if len(window) == 0:
        raise GridError("cannot update from an empty window")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if sign not in (1.0, -1.0):
        raise ValueError("sign must be +1 or -1")
    r = window.rewards
    rbar = r.mean()
    delta = np.zeros((2, dist.mu.size))
    for r_tau, s_tau in zip(r, window.scores):
        delta += (r_tau - rbar) * s_tau
    mu = dist.mu + sign * eta * delta[0]
    mu = np.clip(mu, COORD_SPAN[0], COORD_SPAN[1])
    if freeze_precision:
        lp = dist.log_precision
    else:
        lp = dist.log_precision + sign * eta * delta[1]
    return HyperDist(mu=mu, log_precision=lp)


def mu_raw(grid: HyperGrid, dist: HyperDist) -> dict[str, float]:
    """Raw-unit readout of the current mean, per axis."""
    return {a.name: a.raw_at(float(dist.mu[d])) for d, a in enumerate(grid.axes)}
