"""Independent reference forward of the classification network, in numpy.

Written from the model's definition, not from the package: it imports
nothing from ``ressm``, so a fault shared by the network, the resampler
and the scan cannot hide by being in both.  It reads the architecture as
the plain dict that ``NetworkSpec.to_dict`` gives and the weights as the
name -> array dicts a checkpoint holds, and runs inference (batchnorm in
eval mode, on the running buffers).

The pieces, each written the slow and obvious way:

* embed: a table lookup;
* rmsnorm, or batchnorm on the running mean and variance;
* the interval map: delta_l = kappa*delta + (1 - kappa)*delta*sigmoid(theta . x_l),
  with delta = softplus(raw_delta), so delta_l lies in [kappa*delta, delta];
* cumulative times t_l = delta_1 + ... + delta_l and a grid of
  floor(t_L / delta) points at delta, 2*delta, ...;
* brute-force k-nearest windows, ties to the lower index;
* Gaussian-basis compress: each grid row mixes its K neighbours'
  features and exp(-(d - mu)^2) of their signed time offsets d;
* an explicit zero-order-hold recurrence, one step at a time:
  h_t = exp(dt*a) h_{t-1} + (exp(dt*a) - 1)/a * b_t * u_t,  y_t = h_t . c_t;
* copy-back from the nearest grid point, ties to the lower index;
* mean or last pooling and the linear head.
"""

from __future__ import annotations

import numpy as np

RMSNORM_EPS = 1e-8
BATCHNORM_EPS = 1e-12
# A grid length t_L / delta that lands within this of an integer from
# below counts as that integer (equal intervals summed in floating point).
GRID_SLACK = 1e-9


def softplus(x):
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def branch_widths(h_dim: int, n_branches: int) -> list[int]:
    base = h_dim // n_branches
    return [h_dim - base * (n_branches - 1)] + [base] * (n_branches - 1)


def interval_map(x, theta_delta, raw_delta, kappa):
    """Per-position intervals in [kappa*delta, delta]; returns (deltas, delta)."""
    delta = float(softplus(raw_delta))
    gate = sigmoid(x @ theta_delta)
    return kappa * delta + (1.0 - kappa) * delta * gate, delta


def grid(deltas, delta):
    """Cumulative source times and the uniform grid below t_L."""
    times = np.cumsum(deltas)
    n = int(np.floor(times[-1] / delta + GRID_SLACK))
    n = min(max(n, 1), len(deltas))
    return times, delta * np.arange(1, n + 1)


def knn_windows(times, grid_times, k):
    """[D, k] source indices: for each grid point the k nearest source
    times, ties to the lower index, listed in ascending index order."""
    idx = np.arange(len(times))
    rows = []
    for g in grid_times:
        by_distance_then_index = np.lexsort((idx, np.abs(times - g)))
        chosen = sorted(by_distance_then_index[: min(k, len(times))].tolist())
        chosen += [chosen[-1]] * (k - len(chosen))
        rows.append(chosen)
    return np.array(rows, dtype=np.intp)


def nearest_grid(times, grid_times):
    """For each source time, the nearest grid index, ties to the lower."""
    out = np.empty(len(times), dtype=np.intp)
    for j, t in enumerate(times):
        dist = np.abs(grid_times - t)
        out[j] = int(np.flatnonzero(dist == dist.min())[0])
    return out


def compress(x, times, grid_times, windows, theta_gamma, mus):
    rows = []
    for l, g in enumerate(grid_times):
        blocks = []
        for j in windows[l]:
            d = g - times[j]
            blocks.append(x[j])
            blocks.append(np.exp(-((d - mus) ** 2)))
        rows.append(np.concatenate(blocks) @ theta_gamma)
    return np.array(rows)


def zoh_scan(a, dts, b_seq, c_seq, u):
    """Diagonal system per channel, a [W, N]; one explicit step per row of u."""
    h = np.zeros_like(a)
    ys = np.empty_like(u)
    for t in range(len(u)):
        decay = np.exp(dts[t] * a)
        h = decay * h + (decay - 1.0) / a * b_seq[t][None, :] * u[t][:, None]
        ys[t] = h @ c_seq[t]
    return ys


def ssm_layer(pre, branch, params, u):
    a = -np.exp(params[pre + "ssm.rho"])
    T = len(u)
    if branch["selective"]:
        b_seq = u @ params[pre + "ssm.theta_b"]
        c_seq = u @ params[pre + "ssm.theta_c"]
        dts = softplus(u @ params[pre + "ssm.theta_delta"] + params[pre + "ssm.delta_base"])
    else:
        dts = np.full(T, softplus(params[pre + "ssm.raw_delta"]))
        b_seq = np.tile(params[pre + "ssm.b"], (T, 1))
        c_seq = np.tile(params[pre + "ssm.c"], (T, 1))
    return zoh_scan(a, dts, b_seq, c_seq, u)


def norm(kind, i, params, buffers, x):
    blk = f"block{i}.norm."
    if kind == "rmsnorm":
        r = np.sqrt(np.mean(x * x, axis=1, keepdims=True) + RMSNORM_EPS)
        return x / r * params[blk + "gain"]
    if kind == "batchnorm":
        scale = params[blk + "gamma"] / np.sqrt(buffers[blk + "running_var"] + BATCHNORM_EPS)
        return (x - buffers[blk + "running_mean"]) * scale + params[blk + "beta"]
    return x


def forward(spec: dict, params: dict, buffers: dict, tokens, routes: list | None = None):
    """Classification logits for one token sequence.

    ``routes``, when given, receives one dict per resampled branch, in
    call order, with its kappa, its intervals and its delta.
    """
    if spec["head_kind"] != "classification" or spec["vocab_size"] is None:
        raise ValueError("the reference covers token classification models only")
    block = spec["block"]
    branches = block["branches"]
    widths = branch_widths(spec["h_dim"], len(branches))
    x = params["embed.table"][np.asarray(tokens)]
    for i in range(spec["depth"]):
        pre_norm = block["norm_position"] == "pre"
        inner = norm(block["norm_kind"], i, params, buffers, x) if pre_norm else x
        outs = []
        off = 0
        for b, (br, w) in enumerate(zip(branches, widths)):
            pre = f"block{i}.br{b}."
            xb = inner[:, off:off + w]
            off += w
            if br["kappa"] is None:
                outs.append(ssm_layer(pre, br, params, xb))
                continue
            deltas, delta = interval_map(xb, params[pre + "res.theta_delta"],
                                         params[pre + "res.raw_delta"], br["kappa"])
            times, grid_times = grid(deltas, delta)
            windows = knn_windows(times, grid_times, br["window_k"])
            xc = compress(xb, times, grid_times, windows,
                          params[pre + "res.theta_gamma"], params[pre + "res.mus"])
            yc = ssm_layer(pre, br, params, xc)
            back = nearest_grid(times, grid_times)
            outs.append(yc[back])
            if routes is not None:
                routes.append({"kappa": br["kappa"], "deltas": deltas, "delta": delta})
        x = x + np.concatenate(outs, axis=1)
        if not pre_norm:
            x = norm(block["norm_kind"], i, params, buffers, x)
    pooled = x.mean(axis=0) if spec["pooling"] == "mean" else x[-1]
    return pooled @ params["head.w"] + params["head.b"]
