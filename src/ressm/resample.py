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
``interval_map`` and ``compress_tracked`` are one tape node each, with
a hand-written backward that serves every operand from one pass: on
sequences of a few hundred rows a node's bookkeeping costs more than
its arithmetic.  The tests hold both to the same steps composed from
primitive ops.

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

import math
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
    "grid_steps",
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
    """Frozen routing between the source times and the uniform grid.

    A plan ``make_plan`` makes with ``segs`` routes sequences packed end
    to end: ``src`` and ``dst`` (``autodiff.Segments``) lay out each
    one's source rows and grid rows, and each keeps its own time axes.
    Left None, each is one sequence.
    """

    src_times: np.ndarray
    dst_times: np.ndarray
    dst_len: int
    neighbors: np.ndarray | None = None  # [dst_len, K] source indices, time-ordered
    src: ad.Segments | None = None
    dst: ad.Segments | None = None

    def __post_init__(self):
        self.src_times = np.asarray(self.src_times, dtype=np.float64)
        self.dst_times = np.asarray(self.dst_times, dtype=np.float64)
        if self.dst_len < 1 or self.dst_len > len(self.src_times):
            raise ValueError("dst_len must lie in [1, source length]")
        self.src = ad.Segments.check(self.src, len(self.src_times))
        self.dst = ad.Segments.check(self.dst, self.dst_len)
        if len(self.src) != len(self.dst):
            raise ValueError("src and dst must count the same sequences")
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
    kappa < 1 and equals delta everywhere for kappa = 1.  One tape node;
    its backward returns delta's two terms separately, so they reach
    delta's gradient in the order, and with the rounding, of the
    composed ops.
    """
    def forward(x, theta, delta, _):
        L, width = x.shape
        theta_col = theta.reshape(width, 1)
        sig = ad._sigmoid((x @ theta_col).reshape(L))
        rate = delta * (1.0 - kappa)

        def backward(g):
            d_pre = (g * rate * sig * (1.0 - sig)).reshape(L, 1)
            return (d_pre @ theta_col.T, (x.T @ d_pre).reshape(theta.shape),
                    np.reshape(np.sum(g), delta.shape) * kappa,
                    np.reshape(np.sum(g * sig), delta.shape) * (1.0 - kappa))

        return sig * rate + delta * kappa, backward

    return ad.fused_op("interval_map", forward, x_t, theta_delta_t, delta_t, delta_t)


def compression_deltas(cfg: ResampleConfig, x: np.ndarray) -> np.ndarray:
    """``interval_map`` of a resampler's weights on an [L, W] array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.width:
        raise ValueError(f"expected [L, {cfg.width}] features, got {x.shape}")
    deltas = interval_map(ad.constant(x), ad.constant(cfg.theta_delta),
                          ad.constant(cfg.delta_base), cfg.kappa)
    return np.array(deltas.numpy())


def _intervals(deltas, delta_base) -> np.ndarray:
    """``deltas`` as a float array, once both arguments are checked."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValueError("deltas must be a non-empty 1-d sequence")
    if not np.isfinite(deltas).all():
        raise ValueError("deltas must be finite")
    if deltas.min() <= 0:
        raise ValueError("all intervals must be strictly positive")
    if not (math.isfinite(delta_base) and delta_base > 0):
        raise ValueError(f"delta_base must be finite and positive, got {delta_base}")
    return deltas


def build_grid(deltas: np.ndarray, delta_base: float) -> ResamplePlan:
    """Place sources at cumulative times and lay the uniform grid.

    Grid length is floor(t_L / delta) clamped to at least 1, so the last
    grid point never extrapolates past the sources, and to at most the
    source count.
    """
    src_times = np.cumsum(_intervals(deltas, delta_base))
    # Clamped while still a float, so a huge t_L / delta never meets an
    # int; the times are positive, so truncating is flooring.
    dst_len = max(1, int(min(src_times[-1] / delta_base + _GRID_EPS, len(src_times))))
    dst_times = np.arange(1, dst_len + 1) * delta_base
    return ResamplePlan(src_times=src_times, dst_times=dst_times, dst_len=dst_len)


def _grid(deltas, delta_base, segs):
    """``build_grid`` for several sequences packed end to end as ``segs``
    says, each on its own time axis, with what routing reuses: the
    sources' last times."""
    deltas = _intervals(deltas, delta_base)
    segs = ad.Segments.check(segs, len(deltas))
    # One np.cumsum per row of the zero-padded layout: each sequence's own
    # bits, and its last time repeated to the end of its row.
    times = segs.padded(deltas, 0.0).cumsum(axis=1)
    last = times[:, -1]
    grid = np.minimum(last / delta_base + _GRID_EPS, segs.lengths)
    grid_lengths = np.maximum(grid.astype(np.intp), 1)
    ends = grid_lengths.cumsum()
    dst = ad.Segments(ends - grid_lengths, int(ends[-1]))
    plan = ResamplePlan(src_times=segs.packed(times), dst_times=grid_steps(dst) * delta_base,
                        dst_len=dst.rows, src=segs, dst=dst)
    return plan, last


def grid_steps(dst: ad.Segments) -> np.ndarray:
    """Each grid point's place in its own sequence's grid, from 1, given
    a plan's ``dst``: grid point l lies at ``grid_steps(plan.dst)[l] *
    delta``."""
    return np.arange(1.0, dst.rows + 1) - dst.starts.repeat(dst.lengths)


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


def _search(times, times_lengths, query, query_lengths):
    """``np.searchsorted(times, query)`` inside each query's own sequence,
    as an index into the packed ``times``; ``*_lengths`` count each
    sequence's entries.  As complex numbers sequence + i time, keys sort
    by sequence, then by time, and both parts are copied, never rounded,
    so one pass serves every sequence exactly.  With one sequence the
    times are the keys."""
    if len(times_lengths) == 1:
        return np.searchsorted(times, query)

    def keys(t, lengths):
        out = np.empty(len(t), dtype=np.complex128)
        out.real, out.imag = np.repeat(np.arange(len(lengths)), lengths), t
        return out

    return np.searchsorted(keys(times, times_lengths), keys(query, query_lengths))


def make_plan(deltas: np.ndarray, delta_base: float, window_k: int,
              segs=None) -> ResamplePlan:
    """Grid plus the frozen neighbor windows for every grid point, for
    one sequence or for several packed end to end as ``segs``
    (``autodiff.Segments``) says, each on its own time axis; each grid
    point's window lies in its own sequence.

    Row l of ``neighbors`` equals ``knn_indices(dst_times[l], src_times,
    window_k)`` over its sequence's sources, shifted by its first row.
    Distance to a grid point falls up to its ``searchsorted`` position
    and rises after it, so its K nearest sources are one run of K among
    the 2K around that position: the run starting at the first column c
    whose source is no further away than the source K columns on (ties
    go to the lower index), found for every row at once by counting the
    columns before it.  That holds while no two neighboring sources in
    the span are equally far from the grid point, which takes equal
    source times or an exact midpoint; such rows are ranked over all
    their sequence's sources.  A sequence of at most K sources gives
    each of its grid points every source, the last repeated.

    One sequence (no ``segs``) is laid out on its own, without the
    group's padded layout and search keys, whose fixed cost would
    outweigh its work.
    """
    k = window_k
    if k < 1:
        raise ValueError(f"window_k must be at least 1, got {k}")
    if segs is None:
        return _sequence_plan(deltas, delta_base, k)
    plan, last = _grid(deltas, delta_base, segs)
    src, dst = plan.src_times, plan.dst_times
    n_seq, longest = len(segs), segs.longest
    first, lengths, grid_lengths = segs.starts, segs.lengths, plan.dst.lengths
    # Row s of ``padded`` is sequence s padded as ``_sequence_plan`` pads
    # one sequence, then padded on to the common width; columns past the
    # sequence's own padding are never read.
    far = 2.0 * np.maximum(last, grid_lengths * delta_base)[:, None]  # last grid times
    width = longest + 2 * k + 1
    padded = far * (np.arange(-k, width - k) - lengths[:, None])
    padded += last[:, None]
    padded[:, : k + 1] = far * np.arange(-k - 1, 0)
    padded[:, k + 1 : k + 1 + longest][segs.mask] = src
    padded = padded.reshape(-1)
    # Every left pad lies below a grid point and every right pad above
    # it, so a grid point's place in its own row is K + 1 past its
    # searchsorted position, and K + 1 before that its window starts.
    at = _search(padded, [width] * n_seq, dst, grid_lengths)
    at -= k + 1
    tie = _nearest_runs(padded, at, dst, k)
    # From the layout's flat index back to packed source rows.
    at += (first - np.arange(n_seq) * width).repeat(grid_lengths)
    chosen = at[:, None] + np.arange(-k, 0)
    if tie.any() or lengths.min() <= k:
        short = lengths <= k
        seq = np.repeat(np.arange(n_seq), grid_lengths)  # each grid point's sequence
        tied = np.flatnonzero(tie.any(axis=1) & ~short[seq])
        if len(tied):
            # A stable sort keeps the lower index first among equals;
            # the infinite padding sorts after every source.
            far_src = segs.padded(src, np.inf)[seq[tied]]
            order = np.argsort(np.abs(far_src - dst[tied, None]), axis=1, kind="stable")
            chosen[tied] = np.sort(order[:, :k], axis=1) + first[seq[tied], None]
        in_short = short[seq]
        owner = seq[in_short]
        chosen[in_short] = np.minimum(np.arange(k), lengths[owner, None] - 1) + first[owner, None]
    plan.neighbors = chosen
    return plan


def _sequence_plan(deltas, delta_base, k) -> ResamplePlan:
    """``make_plan`` of one sequence."""
    plan = build_grid(deltas, delta_base)
    src, dst = plan.src_times, plan.dst_times
    n = len(src)
    if n <= k:  # every source, the last repeated to fill the window
        plan.neighbors = np.minimum(np.arange(k), n - 1)[None, :].repeat(len(dst), axis=0)
        return plan
    # Source j at place j + K + 1.  Past either end the sequence is padded
    # with times further out than any real distance, and further with
    # each step, so the padding is never nearest and never ties.
    far = 2.0 * max(src[-1], dst[-1])
    padded = np.concatenate([-far * np.arange(k + 1, 0, -1), src,
                             src[-1] + far * np.arange(1, k + 1)])
    # A grid point's searchsorted position pos is where its window of
    # sources pos-K-1 .. pos+K-1 starts.
    at = np.searchsorted(src, dst)
    tie = _nearest_runs(padded, at, dst, k)
    chosen = at[:, None] + np.arange(-k, 0)
    if tie.any():
        tied = np.flatnonzero(tie.any(axis=1))
        # A stable sort keeps the lower index first among equals.
        order = np.argsort(np.abs(src - dst[tied, None]), axis=1, kind="stable")
        chosen[tied] = np.sort(order[:, :k], axis=1)
    plan.neighbors = chosen
    return plan


def _nearest_runs(padded, at, dst, k):
    """Moves each grid point's ``at``, where its window of 2K + 1
    increasing ``padded`` times starts, on to the place just before its
    run of K nearest (see ``make_plan``).  Returns [D, 2K] flags of the
    neighbors in each window that lie equally far from it."""
    # Row i of ``windows`` is padded[i : i + 2K + 1], a view (numpy
    # checks that it fits).
    windows = np.ndarray((len(padded) - 2 * k, 2 * k + 1), buffer=padded,
                         strides=padded.strides * 2)
    dist = windows[at]
    dist -= dst[:, None]
    np.abs(dist, out=dist)
    # bool @ int counts the Trues of each row exactly, faster than sum.
    at += (dist[:, 1 : k + 1] > dist[:, k + 1 :]) @ np.ones(k, dtype=np.intp)
    return dist[:, 1:] == dist[:, :-1]


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
    """For each source position, the index of the nearest grid point of
    its own sequence (ties toward the lower index).

    Grid times are increasing, so the nearest grid point is one of the two
    either side of the source's ``searchsorted`` position in its
    sequence's grid (``_search``); memory is O(L).
    """
    src, dst = plan.src_times, plan.dst_times
    lengths, grid_starts, grid_lengths = plan.src.lengths, plan.dst.starts, plan.dst.lengths
    first = grid_starts.repeat(lengths)  # each source's first and last grid point
    last = (grid_starts + grid_lengths - 1).repeat(lengths)
    hi = np.minimum(_search(dst, grid_lengths, src, lengths), last)
    lo = np.maximum(hi - 1, first)
    return np.where(np.abs(src - dst[lo]) <= np.abs(src - dst[hi]), lo, hi)


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


def _scatter_columns(idx, values, n):
    """``autodiff.scatter_add`` of [m, W] rows into n rows, one
    ``np.bincount`` per column: the same bits, without a flat m * W index,
    so faster for the few columns of a window's features."""
    return np.stack([np.bincount(idx, weights=v, minlength=n) for v in values.T], axis=1)


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
    theta_gamma.  The whole step is one tape node at any K, whose
    backward gives all five operands their gradients from one pass:
    the inputs, the mixing map, the basis means, and both time axes.
    Neighbor windows stay frozen integer routing from the plan.

    The window (K) and basis (G) axes hold a few entries each, and a
    numpy sum or broadcast over so short an axis runs a loop per row.
    So sums over them are BLAS products with ones vectors, and each
    dst_l - t_k - mu is the product [dk, 1] @ [1; -mus]: both its terms
    are exact, so it rounds once, as the subtraction does.
    """
    if plan.neighbors is None:
        raise ValueError("plan has no neighbor windows; use make_plan")
    nbrs = plan.neighbors
    idx = nbrs.reshape(-1)
    n_dst, window_k = nbrs.shape

    def forward(x, gamma, mus, src, dst):
        if x.shape[0] != len(plan.src_times):
            raise ValueError("sequence length does not match the plan")
        width, basis_g = x.shape[1], mus.size
        dk = dst[:, None] - np.take(src, nbrs)
        shift = np.stack([np.ones(basis_g), -mus])

        def diff():  # [n_dst K, G] rows of dst_l - t_k - mus
            cols = np.ones((idx.size, 2))
            cols[:, 0] = dk.reshape(-1)
            return cols @ shift

        # Each grid point's K blocks side by side: [n_dst, K, W + G], written once.
        feats = np.empty((n_dst, window_k, width + basis_g))
        feats[:, :, :width] = np.take(x, nbrs, axis=0)
        basis = diff()
        basis *= basis
        np.negative(basis, out=basis)
        feats[:, :, width:] = np.exp(basis, out=basis).reshape(n_dst, window_k, basis_g)
        flat = feats.reshape(n_dst, -1)

        def backward(g):
            d_blocks = (g @ gamma.T).reshape(idx.size, -1)
            d_x = _scatter_columns(idx, d_blocks[:, :width], len(x))
            # d exp(-diff^2) / d diff = -2 diff exp(-diff^2); diff is
            # recomputed rather than kept alive between the passes, and
            # d_diff is built in its buffer.
            d_diff = diff()
            d_diff *= feats.reshape(idx.size, -1)[:, width:]
            d_diff *= d_blocks[:, width:]
            d_diff *= -2.0
            d_dk = d_diff @ np.ones(basis_g)
            d_src = np.bincount(idx, weights=-d_dk, minlength=len(src))
            return (d_x, flat.T @ g, -np.ones(idx.size) @ d_diff, d_src,
                    d_dk.reshape(n_dst, window_k) @ np.ones(window_k))

        return flat @ gamma, backward

    return ad.fused_op("compress", forward, x_t, theta_gamma_t, mus_t, src_times_t, dst_times_t)


def decompress_tracked(y_bar_t: ad.Tensor, plan: ResamplePlan) -> ad.Tensor:
    """Copy each original position's value from its closest grid point;
    the backward pass scatter-adds each position's gradient onto it."""
    if y_bar_t.shape[0] != plan.dst_len:
        raise ValueError(f"expected {plan.dst_len} rows, got {y_bar_t.shape[0]}")
    return ad.gather_rows(y_bar_t, closest_grid_index(plan))
