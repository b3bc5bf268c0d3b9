"""The fused SSM layer ops: the selective layer, its scan, and the
fixed-step convolution.

``ssm_scan`` runs the recurrence of a bank of diagonal SSMs whose input
map, output map and time interval vary per step, as one tape node with
a hand-written backward pass.  ``selective_layer`` computes those
per-step parameters from the layer's input and weights and runs the
same scan, all as one node, as Mamba's selective-scan kernel takes the
interval and the input and output projections inside the scan (Gu & Dao
2023, arXiv:2312.00752): on sequences of a few dozen rows a node's
bookkeeping costs more than its arithmetic.

Both the forward recurrence and the backward adjoint recurrence are
first-order linear scans, h_t = decay_t h_{t-1} + drive_t, run by
recursive doubling (Hillis-Steele; Blelloch 1990): ceil(log2 T) passes
of three whole-array numpy ops each, instead of T Python steps; the
adjoint runs backwards in place.  Decays and decay products below
sqrt(smallest normal) ~ 1.5e-154 are flushed to zero, on the passes
whose products can reach that floor, so that no pass computes on
subnormals; each flush drops a term smaller than 1.5e-154 times the
state it would have carried.  Sums run in a different order from the
step-by-step recurrence, so outputs match ``ssm.varying_scan`` to
rounding, not bit for bit.

Around the recurrence, each step is one pass over [T, W*N] arrays:
elementwise, or a product with a 0/1 selector that spreads a
per-channel or per-state factor across its block or sums a block
(``_selectors``).  The forward saves phi(z) and the states; the
backward recomputes z and e^z and takes phi'(z) = (e^z - phi(z)) / z.

``fixed_step_conv`` is the layer whose interval, input map and output
map do not vary with t.  Unrolled, such a recurrence is a causal
convolution with its impulse response, which S4 and S4D compute by FFT
(Gu et al. 2021, arXiv:2111.00396; Gu et al. 2022, arXiv:2206.11893);
so it takes the layer's own weights and runs as one node of
O(T log T) work with no scan at all.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .ssm import phi, phi_prime

__all__ = ["ssm_scan", "selective_layer", "fixed_step_conv"]

# Decays below this are flushed to exact zero.  A product of two
# unflushed decays is then at least float64's smallest normal, so the
# doubling passes never touch subnormals, which are slow on most CPUs.
_DECAY_FLOOR = np.sqrt(np.finfo(np.float64).tiny)
_LOG_DECAY_FLOOR = math.log(_DECAY_FLOOR)


def _flush_decays(x):
    """Zero the entries of ``x`` below the floor, in place.  Decays are
    finite and non-negative, so multiplying by the 0/1 mask is exact and,
    unlike a masked write, has no branch to mispredict."""
    np.multiply(x, x >= _DECAY_FLOOR, out=x)


def _linear_scan(decay, drive, spare, longest, reverse=False):
    """h_t = decay_t * h_{t-1} + drive_t from h_{-1} = 0, along axis 0;
    with ``reverse``, h_t = decay_{t+1} * h_{t+1} + drive_t from the end.

    Recursive doubling (Hillis-Steele): after the pass with stride k,
    ``h[t]`` holds the recurrence started from zero 2k rows back (ahead,
    in reverse) and the span the product of the 2k decays in between,
    so ceil(log2 T) vectorised passes replace the loop over t.  The
    decay of the first step (last, in reverse) is never read.  A zero
    decay cuts the recurrence: every span across it is exactly 0, so
    when no run between zero decays is longer than ``longest`` rows,
    ceil(log2 longest) passes finish it.

    Decays must be non-negative.  Each pass writes only the span entries
    the next pass reads, into the other of two buffers.  Works in place:
    ``drive`` becomes h, which is returned, and ``decay`` and ``spare``
    (an array of h's shape) serve as the span buffers.
    """
    h, span = drive, decay
    # Every nonzero span of m decays is at least low**m, so a pass whose
    # bound clears the floor by a margin (far above rounding) skips the
    # flush; the floor-crossing passes run it.
    low = span.min(where=span > 0.0, initial=1.0)
    if low < _DECAY_FLOOR:
        _flush_decays(span)
        low = _DECAY_FLOOR
    log_low, log_floor = math.log(low), math.log(_DECAY_FLOOR) + 1e-6
    T = len(h)
    k = 1
    while k < longest:
        # span[i] is the product of the k decays ending (starting, in
        # reverse) at step i, valid for every i this pass reads.
        tmp = spare[: T - k]
        if reverse:
            np.multiply(span[1 : T - k + 1], h[k:], out=tmp)
            h[: T - k] += tmp
        else:
            np.multiply(span[k:], h[: T - k], out=tmp)
            h[k:] += tmp
        if 2 * k < longest:  # the last level's span product would go unused
            lo, hi, off = (1, T - 2 * k + 1, k) if reverse else (2 * k, T, -k)
            new = spare[lo:hi]
            np.multiply(span[lo:hi], span[lo + off : hi + off], out=new)
            if 2 * k * log_low < log_floor:
                _flush_decays(new)
            span, spare = spare, span
        k *= 2
    return h


@functools.cache
def _selectors(W, N):
    """0/1 maps between per-channel [T, W] or per-state [T, N] rows and
    the scan's [T, W*N] rows (channel-major): ``x @ sel`` repeats each
    entry across the block it spans, ``y @ sel.T`` sums each block."""
    by_w, by_n = np.repeat(np.eye(W), N, axis=1), np.tile(np.eye(N), W)
    by_w.flags.writeable = by_n.flags.writeable = False
    return by_w, by_n


# Broadcasting a [T, W] or [T, N] factor over the short trailing axis of
# [T, W, N] pays numpy's per-row loop overhead T*W or T*N times; spread
# once by a selector, it is a plain [T, W*N] operand, reused.  Passes
# write into arrays whose last read is behind them where one is at hand:
# fewer distinct [T, W*N] arrays mean fewer passes over memory.
def _scan_forward(a, deltas, b_seq, c_seq, u, segs):
    by_w, by_n = _selectors(*a.shape)
    z = np.multiply(deltas[:, None], a.reshape(1, -1))  # [T, W*N]
    phis = phi(z)
    drive = (deltas[:, None] * b_seq) @ by_n
    drive *= phis
    u_w = u @ by_w
    drive *= u_w
    decay = np.exp(z, out=z)
    decay[segs.starts] = 0.0  # each segment starts from a zero state
    hs = _linear_scan(decay, drive, u_w, segs.longest)
    ys = np.einsum("twn,tn->tw", hs.reshape(-1, *a.shape), c_seq)
    return ys, (phis, hs)


def _scan_backward(dy, a, deltas, b_seq, c_seq, u, segs, saved):
    phis, hs = saved
    by_w, by_n = _selectors(*a.shape)
    z = np.multiply(deltas[:, None], a.reshape(1, -1))
    es = np.exp(z)
    # d drive_t / dz_t = phi'(z_t) u_t (delta_t b_t), phi' from the phi
    # and e^z in hand.
    dz = phi_prime(z, phis, es)
    es[segs.starts] = 0.0  # no state crosses into a segment, nor gradient out
    # e_t h_{t-1}: times the state gradient, the decay's share of dz.
    # Taken now, since the scan below overwrites es.
    carried = np.multiply(es[1:], hs[:-1], out=z[1:])
    dy_w = dy @ by_w
    # Accumulated state gradient G[t] = dL/dh_t = dy_t c_t + e_{t+1} G[t+1]:
    # the same recurrence run backwards in time.
    g = c_seq @ by_n
    g *= dy_w
    dc = np.multiply(hs, dy_w, out=dy_w) @ by_n.T
    g = _linear_scan(es, g, dy_w, segs.longest, reverse=True)
    u_w = np.matmul(u, by_w, out=es)
    sb_n = np.matmul(deltas[:, None] * b_seq, by_n, out=dy_w)
    carried *= g[1:]
    dz *= g
    dz *= u_w
    dz *= sb_n
    dz[1:] += carried
    g *= phis  # d drive
    du = np.multiply(g, sb_n, out=z) @ by_w.T
    g *= u_w
    d_scaled_b = g @ by_n.T
    db = d_scaled_b * deltas[:, None]
    dd = np.einsum("tn,tn->t", d_scaled_b, b_seq) + dz @ a.reshape(-1)
    da = (deltas @ dz).reshape(a.shape)
    return da, dd, db, dc, du


def ssm_scan(a_diag, deltas, b_seq, c_seq, u, *, segs=None) -> ad.Tensor:
    """Run W parallel single-input recurrences with shared per-step params.

    Shapes: a_diag [W, N] (one diagonal system per channel), deltas [T]
    (interval shared across channels), b_seq and c_seq [T, N] (input and
    output maps shared across channels), u [T, W] (per-channel scalar
    inputs).  Returns y [T, W].

    Per step: z = delta_t * a; decay exp(z); input weight
    phi(z) * delta_t * b_t; then h_t = decay * h_{t-1} + weight * u_t and
    y_t = h_t . c_t.  States start at zero.  The whole scan is one tape
    node; gradients flow to all five inputs.

    ``segs`` (``autodiff.Segments``; None is one sequence) lays out
    sequences packed end to end along T; the state restarts from zero at
    each one's first row, so every segment scans as if on its own.

    The recurrence runs by recursive doubling in ceil(log2 T) vectorised
    passes, T the longest segment, forward and, for the gradient,
    backward in time.  Decays below ~1.5e-154 count as zero, which drops
    terms under 1.5e-154 times the state they carry; y agrees with the
    step-by-step recurrence to rounding.
    """
    def forward(a, d, b, c, uu):
        if uu.ndim != 2:
            raise ad.ShapeError(f"u must be [T, W], got {uu.shape}")
        T, W = uu.shape
        if T == 0:
            raise ad.ShapeError("scan over an empty sequence")
        if a.shape[0] != W or a.ndim != 2:
            raise ad.ShapeError(f"a_diag must be [W={W}, N], got {a.shape}")
        N = a.shape[1]
        if d.shape != (T,) or b.shape != (T, N) or c.shape != (T, N):
            raise ad.ShapeError("scan operand shapes disagree")
        if np.any(d < 0):
            raise ValueError("scan intervals must be non-negative")
        layout = ad.Segments.check(segs, T)

        with np.errstate(all="ignore"):  # non-finite results surface via custom_op
            ys, saved = _scan_forward(a, d, b, c, uu, layout)
        return ys, lambda g: _scan_backward(g, a, d, b, c, uu, layout, saved)

    return ad.fused_op("ssm_scan", forward, a_diag, deltas, b_seq, c_seq, u)


def selective_layer(rho, theta_b, theta_c, theta_delta, delta_base, u, *,
                    segs=None) -> ad.Tensor:
    """The selective layer: ``ssm_scan`` on parameters computed from its
    input and weights, as one tape node.

    Shapes: rho, theta_b and theta_c [W, N], theta_delta [W], delta_base
    a scalar, u [T, W].  Returns y [T, W].  The scan runs on a = -exp(rho),
    b_t = u_t theta_b, c_t = u_t theta_c and delta_t = softplus(u_t .
    theta_delta + delta_base), from a zero state at each segment of
    ``segs``.
    The backward chains the scan's gradients through those maps: a's by
    a, the intervals' by sigmoid of their preactivation, b's, c's and
    the preactivation's through the three products, with u's four terms
    summed in the order the same ops composed on the tape would sum them
    (scan, theta_delta, theta_c, theta_b), so both agree bit for bit.
    """
    def forward(rh, tb, tc, td, base, uu):
        if uu.ndim != 2 or uu.shape[0] == 0:
            raise ad.ShapeError(f"u must be a non-empty [T, W], got {uu.shape}")
        T, W = uu.shape
        if rh.ndim != 2 or rh.shape[0] != W:
            raise ad.ShapeError(f"rho must be [W={W}, N], got {rh.shape}")
        if tb.shape != rh.shape or tc.shape != rh.shape or td.shape != (W,) or base.size != 1:
            raise ad.ShapeError("selective-layer operand shapes disagree")
        layout = ad.Segments.check(segs, T)
        td_col = td.reshape(W, 1)
        with np.errstate(all="ignore"):  # non-finite results surface via custom_op
            a = -np.exp(rh)
            if not np.isfinite(a).all():
                raise ad.NonFiniteError("non-finite result in op 'selective_layer'")
            b_seq, c_seq = uu @ tb, uu @ tc
            pre = (uu @ td_col).reshape(T) + base
            deltas = ad._softplus(pre)
            ys, saved = _scan_forward(a, deltas, b_seq, c_seq, uu, layout)

        def backward(dy):
            da, dd, d_b, d_c, du = _scan_backward(dy, a, deltas, b_seq, c_seq, uu, layout, saved)
            d_pre = dd * ad._sigmoid(pre)
            d_col = d_pre.reshape(T, 1)
            du = du + d_col @ td_col.T
            du = du + d_c @ tc.T
            du = du + d_b @ tb.T
            return (da * a, uu.T @ d_b, uu.T @ d_c, (uu.T @ d_col).reshape(W),
                    np.reshape(np.sum(d_pre), base.shape), du)

        return ys, backward

    return ad.fused_op("selective_layer", forward, rho, theta_b, theta_c, theta_delta,
                       delta_base, u)


def _fft_length(m):
    """The least 2^i, 3 * 2^i, 9 * 2^i or 27 * 2^i at or above m: an FFT
    length of small factors, less than 4/3 of m (the next power of two
    can be 2m)."""
    return min(p << ((m - 1) // p).bit_length() for p in (1, 3, 9, 27))


def _spread(x, segs):
    """Packed [T, W] rows as [S, W, L]: segment s in row s, zero-padded
    (``autodiff.Segments.padded``), contiguous, as the FFT reads it
    fastest."""
    return np.ascontiguousarray(segs.padded(x, 0.0).transpose(0, 2, 1))


def _gather(x, segs):
    """[S, W, >= L] back to packed [T, W] rows; ``_spread``'s inverse."""
    return segs.packed(x[:, :, : segs.longest].transpose(0, 2, 1))


def fixed_step_conv(rho, raw_delta, b, c, u, *, segs=None) -> ad.Tensor:
    """The fixed-step layer: W diagonal systems with one interval and one
    input and output map for every step, from their weights.

    Shapes: rho [W, N], raw_delta a scalar, b and c [N], u [T, W].
    Returns y [T, W].  With a = -exp(rho), delta = softplus(raw_delta)
    and z = delta * a, it is ``ssm_scan`` on a, delta at every step and
    b and c at every row: h_t = e^z h_{t-1} + phi(z) delta b u_t and
    y_t = c . h_t, from a zero state at each segment of ``segs`` (see
    ``ssm_scan``).  Unrolled, that is the causal convolution of
    each segment of u with K[w, j] = sum_n phi(z) delta b_n c_n e^{jz}.
    Powers under ~1.5e-154, the scan's decay floor, are exact zeros, and
    np.exp runs only on the rest, so K ends where the slowest mode's
    powers reach the floor, or at the longest segment.  Each segment,
    zero-padded far enough that nothing wraps round, is convolved with
    K by real FFT.  The backward correlates dy with K for du and with u,
    summed over segments, for dK, and chains dK through the powers and
    phi'(z) to the four weights.  One tape node; y agrees with the scan
    to rounding.
    """
    def forward(rh, rd, bv, cv, uu):
        if uu.ndim != 2 or uu.shape[0] == 0:
            raise ad.ShapeError(f"u must be a non-empty [T, W], got {uu.shape}")
        T, W = uu.shape
        if rh.ndim != 2 or rh.shape[0] != W:
            raise ad.ShapeError(f"rho must be [W={W}, N], got {rh.shape}")
        N = rh.shape[1]
        if rd.size != 1 or bv.shape != (N,) or cv.shape != (N,):
            raise ad.ShapeError("fixed-step operand shapes disagree")
        layout = ad.Segments.check(segs, T)
        L = layout.longest

        with np.errstate(all="ignore"):  # non-finite results surface via custom_op
            a = -np.exp(rh.reshape(-1))
            if not np.isfinite(a).all():
                raise ad.NonFiniteError("non-finite result in op 'fixed_step_conv'")
            delta = float(ad._softplus(rd.reshape(())))
            z = delta * a
            phis = phi(z)
            bc = np.tile(bv * cv, W)
            coef = phis * delta * bc
            # K ends where the slowest mode's powers reach the floor.
            z_max = z.max()
            span = min(L, int(_LOG_DECAY_FLOOR / z_max) + 2) if z_max < 0 else L
            js = np.arange(span, dtype=np.float64)
            powers = np.multiply.outer(z, js)  # [W*N, span]: jz, then e^{jz}
            live = powers >= _LOG_DECAY_FLOOR
            np.exp(powers, out=powers, where=live)
            powers *= live
            by_w, _ = _selectors(W, N)
            n = _fft_length(L + span - 1)  # nothing wraps round
            kf = np.fft.rfft((by_w * coef) @ powers, n)  # [W, n//2 + 1]
            uf = np.fft.rfft(_spread(uu, layout), n)
            ys = _gather(np.fft.irfft(uf * kf, n), layout)

        def backward(dy):
            dyf = np.fft.rfft(_spread(dy, layout), n)
            du = _gather(np.fft.irfft(dyf * kf.conj(), n), layout)
            dk = np.fft.irfft(np.einsum("swf,swf->wf", dyf, uf.conj()), n)[:, :span]
            # K[w, j] = sum_n coef e^{jz}: through the powers, dz takes
            # j e^{jz}; through coef = phi(z) delta b c, phi'(z).
            m = (by_w.T @ dk) * powers
            dcoef = m.sum(axis=1)
            dz = (m @ js) * coef
            dz += dcoef * phi_prime(z, phis) * delta * bc
            dbc = dcoef * phis  # d(delta b c)
            d_delta = dbc @ bc + dz @ a
            dbc = (dbc * delta).reshape(W, N).sum(axis=0)
            return ((dz * z).reshape(W, N), d_delta * ad._sigmoid(rd.reshape(1))[0],
                    dbc * cv, dbc * bv, du)

        return ys, backward

    return ad.fused_op("fixed_step_conv", forward, rho, raw_delta, b, c, u)
