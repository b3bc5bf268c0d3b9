"""Sequence compression by resampling onto a uniform time grid.

Each position gets a learned time interval bounded inside
[kappa * delta, delta], the running sum of intervals places the inputs
on a time axis, and a shorter uniform grid is interpolated from the K
nearest inputs of each grid point: their features concatenated with a
Gaussian basis expansion of the signed time differences, mixed by one
linear map.  Decompression copies each original position's value from
its closest grid point.

Neighbor selection and the copy-back argmin are frozen integer routing;
gradients flow through feature values, the mixing map, the basis means,
and the time axes (hence into the interval map).  Each step has one
implementation, a tape op (``interval_map``, ``compress_tracked``,
``decompress_tracked``) that the network runs; ``compression_deltas``,
``compress`` and ``decompress`` are those ops run on numpy constants.

Both routings rest on one property: source times and grid times are
increasing, so distance to a fixed time falls up to its ``searchsorted``
position and rises after it.  The K nearest sources of a grid point are
then one contiguous run within K places of that position, and the
nearest grid point of a source is one of the two around it.  Routing
therefore costs O((L + D K) log L) time and O(L + D K) memory, where a
sort per grid point or a distance matrix over all pairs cost O(L D).
``knn_indices`` is the brute-force definition, kept as the oracle the
tests hold both fast paths to, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "ResampleConfig",
    "ResamplePlan",
    "init_resample_config",
    "interval_map",
    "compression_deltas",
    "build_grid",
    "knn_indices",
    "make_plan",
    "compress",
    "decompress",
    "closest_grid_index",
    "center_copy_gamma",
    "compress_tracked",
    "decompress_tracked",
]

# Guards the grid length against cases like sum([d]*L) / d landing one ulp
# below an integer when the intervals are all equal.
_GRID_EPS = 1e-9


@dataclass
class ResampleConfig:
    """Weights and hyperparameters of one resampler.

    kappa is the minimum compression rate in (0, 1]; kappa = 1 disables
    compression entirely (every interval equals delta_base), which is the
    ablation switch.  theta_delta maps a feature vector to the interval
    preactivation; theta_gamma mixes the K concatenated
    [features, basis] neighbor blocks back to feature width; mus are the
    learnable basis means.
    """

    kappa: float
    window_k: int
    basis_g: int
    delta_base: float
    theta_delta: np.ndarray
    theta_gamma: np.ndarray
    mus: np.ndarray

    def __post_init__(self):
        self.theta_delta = np.asarray(self.theta_delta, dtype=np.float64).reshape(-1)
        self.theta_gamma = np.asarray(self.theta_gamma, dtype=np.float64)
        self.mus = np.asarray(self.mus, dtype=np.float64).reshape(-1)
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")
        if self.delta_base <= 0.0:
            raise ValueError("delta_base must be positive")
        _check_sizes(self.window_k, self.basis_g)
        if len(self.mus) != self.basis_g:
            raise ValueError("mus length must equal basis_g")
        width = len(self.theta_delta)
        want = self.window_k * (width + self.basis_g)
        if self.theta_gamma.shape != (want, width):
            raise ValueError(
                f"theta_gamma must be [{want}, {width}], got {self.theta_gamma.shape}"
            )

    @property
    def width(self) -> int:
        return len(self.theta_delta)


@dataclass
class ResamplePlan:
    """Frozen routing between the source times and the uniform grid."""

    src_times: np.ndarray
    dst_times: np.ndarray
    dst_len: int
    neighbors: np.ndarray | None = None  # [dst_len, K] source indices, time-ordered

    def __post_init__(self):
        self.src_times = np.asarray(self.src_times, dtype=np.float64)
        self.dst_times = np.asarray(self.dst_times, dtype=np.float64)
        if self.dst_len < 1 or self.dst_len > len(self.src_times):
            raise ValueError("dst_len must lie in [1, source length]")
        if self.neighbors is not None:
            self.neighbors = np.asarray(self.neighbors, dtype=np.intp)
            if self.neighbors.min() < 0 or self.neighbors.max() >= len(self.src_times):
                raise ValueError("neighbor index out of range")


def _check_sizes(window_k: int, basis_g: int) -> None:
    for name, size in (("window_k", window_k), ("basis_g", basis_g)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")


def init_resample_config(
    width: int,
    kappa: float,
    window_k: int,
    basis_g: int,
    rng: np.random.Generator,
    delta_base: float = 1.0,
) -> ResampleConfig:
    """Fan-in uniform weights; basis means on an even grid spanning the
    realizable distance range [-K delta, K delta]."""
    _check_sizes(window_k, basis_g)  # before the sizes shape any draw
    gamma_rows = window_k * (width + basis_g)
    return ResampleConfig(
        kappa=kappa,
        window_k=window_k,
        basis_g=basis_g,
        delta_base=delta_base,
        theta_delta=rng.uniform(-1, 1, size=width) / np.sqrt(width),
        theta_gamma=rng.uniform(-1, 1, size=(gamma_rows, width)) / np.sqrt(gamma_rows),
        mus=np.linspace(-window_k * delta_base, window_k * delta_base, basis_g),
    )


def interval_map(x_t: ad.Tensor, theta_delta_t: ad.Tensor, delta_t: ad.Tensor,
                 kappa: float) -> ad.Tensor:
    """Per-position intervals sigmoid(x . theta_delta) * delta (1 - kappa)
    + delta kappa for [L, W] features, a [W] map and a scalar delta.

    The [L] result lies strictly inside (kappa delta, delta) for
    kappa < 1 and equals delta everywhere for kappa = 1.
    """
    L, width = x_t.shape
    pre_act = ad.reshape(ad.matmul(x_t, ad.reshape(theta_delta_t, (width, 1))), (L,))
    return ad.add(
        ad.mul(ad.sigmoid(pre_act), ad.mul(delta_t, 1.0 - kappa)),
        ad.mul(delta_t, kappa),
    )


def compression_deltas(cfg: ResampleConfig, x: np.ndarray) -> np.ndarray:
    """``interval_map`` of a resampler's weights on an [L, W] array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.width:
        raise ValueError(f"expected [L, {cfg.width}] features, got {x.shape}")
    deltas = interval_map(ad.constant(x), ad.constant(cfg.theta_delta),
                          ad.constant(cfg.delta_base), cfg.kappa)
    return np.array(deltas.numpy())


def build_grid(deltas: np.ndarray, delta_base: float) -> ResamplePlan:
    """Place sources at cumulative times and lay the uniform grid.

    Grid length is floor(t_L / delta) clamped to at least 1, so the last
    grid point never extrapolates past the sources.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValueError("deltas must be a non-empty 1-d sequence")
    if np.any(deltas <= 0):
        raise ValueError("all intervals must be strictly positive")
    src_times = np.cumsum(deltas)
    dst_len = max(1, int(np.floor(src_times[-1] / delta_base + _GRID_EPS)))
    dst_len = min(dst_len, len(deltas))
    dst_times = np.arange(1, dst_len + 1) * delta_base
    return ResamplePlan(src_times=src_times, dst_times=dst_times, dst_len=dst_len)


def knn_indices(dst_time: float, src_times: np.ndarray, k: int) -> np.ndarray:
    """The k source indices closest in time, ties toward the lower index,
    returned in ascending time order.  When k exceeds the source count the
    last neighbor repeats to keep the window size fixed.
    """
    src_times = np.asarray(src_times, dtype=np.float64)
    if len(src_times) == 0:
        raise ValueError("source times must be non-empty")
    if k < 1:
        raise ValueError("k must be at least 1")
    dist = np.abs(src_times - dst_time)
    order = np.argsort(dist, kind="stable")  # stable sort: ties keep lower index first
    chosen = np.sort(order[: min(k, len(src_times))])
    if k > len(src_times):
        chosen = np.concatenate([chosen, np.full(k - len(src_times), chosen[-1])])
    return chosen.astype(np.intp)


def make_plan(deltas: np.ndarray, delta_base: float, window_k: int) -> ResamplePlan:
    """Grid plus the frozen neighbor windows for every grid point.

    Row l of ``neighbors`` equals ``knn_indices(dst_times[l], src_times,
    window_k)``.  The 2K sources around each grid point's ``searchsorted``
    position are ranked by the same distance with the same stable sort, so
    ties still go to the lower index.  A source further out can only tie
    the window's outermost earlier source when two source times are equal
    to within rounding; such rows are ranked over all sources.
    """
    plan = build_grid(deltas, delta_base)
    src, dst, k = plan.src_times, plan.dst_times, window_k
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(src)
    pos = np.searchsorted(src, dst)
    cand = pos[:, None] + np.arange(-k, k)
    inside = (cand >= 0) & (cand < n)
    cand = np.clip(cand, 0, n - 1)
    dist = np.where(inside, np.abs(src[cand] - dst[:, None]), np.inf)
    chosen = _nearest(cand, dist, min(k, n))
    # A source beyond the window ranks ahead of one inside only by tying
    # the window's earliest source, which takes equal source times.
    beyond = pos - k - 1
    tied = np.flatnonzero((beyond >= 0) & (dist[:, 0] == np.abs(src[np.maximum(beyond, 0)] - dst)))
    if len(tied):
        every = np.broadcast_to(np.arange(n), (len(tied), n))
        chosen[tied] = _nearest(every, np.abs(src - dst[tied, None]), min(k, n))
    if k > n:
        chosen = np.concatenate([chosen, np.repeat(chosen[:, -1:], k - n, axis=1)], axis=1)
    plan.neighbors = chosen
    return plan


def _nearest(cand: np.ndarray, dist: np.ndarray, m: int) -> np.ndarray:
    """Per row, the m candidates of least distance, earlier columns first
    among equals, in ascending order."""
    order = np.argsort(dist, axis=1, kind="stable")[:, :m]
    return np.sort(np.take_along_axis(cand, order, axis=1), axis=1)


def compress(cfg: ResampleConfig, x: np.ndarray, plan: ResamplePlan) -> np.ndarray:
    """``compress_tracked`` of a resampler's weights on an [L, W] array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.width:
        raise ValueError(f"expected [L, {cfg.width}] features, got {x.shape}")
    out = compress_tracked(ad.constant(x), plan, ad.constant(cfg.theta_gamma),
                           ad.constant(cfg.mus), ad.constant(plan.src_times),
                           ad.constant(plan.dst_times))
    return np.array(out.numpy())


def closest_grid_index(plan: ResamplePlan) -> np.ndarray:
    """For each source position, the index of the nearest grid point
    (ties toward the lower index).

    Grid times are increasing, so the nearest grid point is one of the two
    either side of the source's ``searchsorted`` position; memory is O(L).
    """
    dst = plan.dst_times
    hi = np.minimum(np.searchsorted(dst, plan.src_times), len(dst) - 1)
    lo = np.maximum(hi - 1, 0)
    take_lo = np.abs(plan.src_times - dst[lo]) <= np.abs(plan.src_times - dst[hi])
    return np.where(take_lo, lo, hi)


def decompress(y_bar: np.ndarray, plan: ResamplePlan) -> np.ndarray:
    """``decompress_tracked`` on a [dst_len, ...] array."""
    return np.array(decompress_tracked(ad.constant(y_bar), plan).numpy())


def center_copy_gamma(width: int, basis_g: int) -> np.ndarray:
    """K = 1 mixing map that copies the neighbor's features and ignores
    the basis block; with an uncompressed grid,
    decompress(compress(x)) == x exactly under this map."""
    gamma = np.zeros((width + basis_g, width))
    gamma[:width, :width] = np.eye(width)
    return gamma


# ---------------------------------------------------------------------------
# tape ops (frozen routing from a plan, differentiable values)


def compress_tracked(
    x_t: ad.Tensor,
    plan: ResamplePlan,
    theta_gamma_t: ad.Tensor,
    mus_t: ad.Tensor,
    src_times_t: ad.Tensor,
    dst_times_t: ad.Tensor,
) -> ad.Tensor:
    """Interpolate each grid point from its neighbor window.

    Row l of the feature matrix is the neighbor blocks in ascending time
    order, each block [x_k, exp(-(dst_l - t_k - mus)^2)], mixed by
    theta_gamma.  All D K blocks are built in one pass of primitive ops,
    so the tape holds the same 14 nodes at any K.  Gradients reach the
    inputs, the mixing map, the basis means, and both time axes; neighbor
    windows stay frozen integer routing from the plan.
    """
    if plan.neighbors is None:
        raise ValueError("plan has no neighbor windows; use make_plan")
    if x_t.shape[0] != len(plan.src_times):
        raise ValueError("sequence length does not match the plan")
    n_dst, window_k = plan.neighbors.shape
    rows = n_dst * window_k
    # One row per (grid point, neighbor) pair, grid point major, so the
    # final reshape lays each grid point's K blocks side by side.
    idx = plan.neighbors.reshape(-1)
    xk = ad.gather_rows(x_t, idx)
    dst_k = ad.reshape(ad.tile_cols(dst_times_t, window_k), (rows,))
    dk = ad.sub(dst_k, ad.gather_rows(src_times_t, idx))
    diff = ad.sub(ad.tile_cols(dk, mus_t.size), ad.tile_rows(mus_t, rows))
    eps = ad.exp(ad.neg(ad.mul(diff, diff)))
    feats = ad.reshape(ad.concat([xk, eps], axis=1), (n_dst, -1))
    return ad.matmul(feats, theta_gamma_t)


def decompress_tracked(y_bar_t: ad.Tensor, plan: ResamplePlan) -> ad.Tensor:
    """Copy each original position's value from its closest grid point;
    the backward pass scatter-adds each position's gradient onto it."""
    if y_bar_t.shape[0] != plan.dst_len:
        raise ValueError(f"expected {plan.dst_len} rows, got {y_bar_t.shape[0]}")
    return ad.gather_rows(y_bar_t, closest_grid_index(plan))
