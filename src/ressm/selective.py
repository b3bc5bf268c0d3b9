"""The fused selective scan op.

``ssm_scan`` runs the recurrence of a bank of diagonal SSMs whose input
map, output map and time interval vary per step, as one tape node with
a hand-written backward pass.  The network computes those per-step
parameters from its features (``network.ResampleNetwork``) and hands
them to this op; keeping the whole scan in one node makes sequence
training tractable without giving up exact reverse-mode gradients.

Both the forward recurrence and the backward adjoint recurrence are
first-order linear scans, h_t = decay_t h_{t-1} + drive_t.  They run by
recursive doubling (Hillis-Steele; Blelloch 1990): ceil(log2 T) passes,
each a few whole-array numpy ops, instead of T Python steps.  Decays
and decay products below sqrt(smallest normal) ~ 1.5e-154 are flushed
to zero so that no pass computes on subnormals; each flush drops a term
smaller than 1.5e-154 times the state it would have carried.
Sums run in a different order from the step-by-step recurrence, so
outputs match ``ssm.varying_scan`` to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .ssm import phi, phi_prime

__all__ = ["ssm_scan"]

# Decays below this are flushed to exact zero.  A product of two
# unflushed decays is then at least float64's smallest normal, so the
# doubling passes never touch subnormals, which are slow on most CPUs.
_DECAY_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


def _linear_scan(decay, drive, longest):
    """h_t = decay_t * h_{t-1} + drive_t from h_{-1} = 0, along axis 0.

    Recursive doubling (Hillis-Steele): after the pass with stride k,
    ``h[t]`` holds the recurrence started from zero at t - 2k and
    ``span[t]`` the product of decays over (t - 2k, t], so ceil(log2 T)
    vectorised passes replace the loop over t.  decay_0 is never read.
    A zero decay cuts the recurrence: every span across it is exactly 0,
    so when no run between zero decays is longer than ``longest`` rows,
    ceil(log2 longest) passes finish it.  Works in place to spare fresh
    pages: ``drive`` becomes h, which is returned, and ``decay`` is
    overwritten.
    """
    h, span = drive, decay
    np.copyto(span, 0.0, where=span < _DECAY_FLOOR)
    buf = np.empty_like(h)
    T = len(h)
    k = 1
    while k < longest:
        tmp = buf[: T - k]
        np.multiply(span[k:], h[:-k], out=tmp)
        h[k:] += tmp
        if 2 * k < longest:  # the last level's span product would go unused
            np.multiply(span[k:], span[:-k], out=tmp)
            np.copyto(tmp, 0.0, where=tmp < _DECAY_FLOOR)
            span[k:] = tmp
        k *= 2
    return h


# Fresh [T, W, N] arrays cost page faults as well as arithmetic, so the
# two passes below reuse an operand's memory once it has been read for
# the last time.  The forward turns z into the decays; the backward
# recomputes z (one product) rather than keep it alive between passes.
def _scan_forward(a, deltas, b_seq, c_seq, u, starts, longest):
    z = deltas[:, None, None] * a[None, :, :]  # [T,W,N]
    phis = phi(z)
    drive = phis * (deltas[:, None] * b_seq)[:, None, :]
    drive *= u[:, :, None]
    decay = np.exp(z, out=z)
    decay[starts] = 0.0  # each segment starts from a zero state
    hs = _linear_scan(decay, drive, longest)
    ys = np.einsum("twn,tn->tw", hs, c_seq)
    return ys, (phis, hs)


def _scan_backward(dy, a, deltas, b_seq, c_seq, u, starts, longest, saved):
    phis, hs = saved
    z = deltas[:, None, None] * a[None, :, :]
    es = np.exp(z)
    es[starts] = 0.0  # no state crosses into a segment, nor gradient out
    # Accumulated state gradient G[t] = dL/dh_t = outer[t] + es[t+1] G[t+1]:
    # the same recurrence run backwards in time.
    scratch = np.empty_like(es)
    scratch[0] = 0.0
    scratch[1:] = es[:0:-1]
    g = _linear_scan(scratch, np.einsum("tw,tn->twn", dy[::-1], c_seq[::-1]),
                     longest)[::-1]

    scaled_b = deltas[:, None] * b_seq  # [T,N]
    du = np.einsum("twn,twn,tn->tw", g, phis, scaled_b)
    d_bbar = np.multiply(g, u[:, :, None], out=scratch)
    d_scaled_b = np.einsum("twn,twn->tn", d_bbar, phis)
    db = d_scaled_b * deltas[:, None]
    dz = phi_prime(z)
    dz *= d_bbar
    dz *= scaled_b[:, None, :]
    carried = es[1:]
    carried *= g[1:]
    carried *= hs[:-1]
    dz[1:] += carried
    dd = np.einsum("tn,tn->t", d_scaled_b, b_seq) + np.einsum("twn,wn->t", dz, a)
    da = np.einsum("twn,t->wn", dz, deltas)
    dc = np.einsum("tw,twn->tn", dy, hs)
    return {"a": da, "deltas": dd, "b_seq": db, "c_seq": dc, "u": du}


def ssm_scan(a_diag, deltas, b_seq, c_seq, u, *, starts=(0,)) -> ad.Tensor:
    """Run W parallel single-input recurrences with shared per-step params.

    Shapes: a_diag [W, N] (one diagonal system per channel), deltas [T]
    (interval shared across channels), b_seq and c_seq [T, N] (input and
    output maps shared across channels), u [T, W] (per-channel scalar
    inputs).  Returns y [T, W].

    Per step: z = delta_t * a; decay exp(z); input weight
    phi(z) * delta_t * b_t; then h_t = decay * h_{t-1} + weight * u_t and
    y_t = h_t . c_t.  States start at zero.  The whole scan is one tape
    node; gradients flow to all five inputs.

    ``starts`` holds the first row of each of several sequences packed
    end to end along T (see ``autodiff.segments``); the state restarts
    from zero at each, so every segment scans as if on its own.

    The recurrence runs by recursive doubling in ceil(log2 T) vectorised
    passes, T the longest segment, forward and, for the gradient,
    backward in time.  Decays below ~1.5e-154 count as zero, which drops
    terms under 1.5e-154 times the state they carry; y agrees with the
    step-by-step recurrence to rounding.
    """
    a_t = a_diag if isinstance(a_diag, ad.Tensor) else ad.constant(a_diag)
    d_t = deltas if isinstance(deltas, ad.Tensor) else ad.constant(deltas)
    b_t = b_seq if isinstance(b_seq, ad.Tensor) else ad.constant(b_seq)
    c_t = c_seq if isinstance(c_seq, ad.Tensor) else ad.constant(c_seq)
    u_t = u if isinstance(u, ad.Tensor) else ad.constant(u)

    a = a_t.data
    d = d_t.data
    b = b_t.data
    c = c_t.data
    uu = u_t.data
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
    bounds = ad.segments(starts, T)
    rows = [lo for lo, _ in bounds]
    longest = max(hi - lo for lo, hi in bounds)

    with np.errstate(all="ignore"):  # non-finite results surface via custom_op
        ys, saved = _scan_forward(a, d, b, c, uu, rows, longest)

    grads = ad.shared_grads(
        lambda g: _scan_backward(g, a, d, b, c, uu, rows, longest, saved))
    return ad.custom_op(
        "ssm_scan",
        ys,
        [
            (a_t, lambda g: grads(g)["a"]),
            (d_t, lambda g: grads(g)["deltas"]),
            (b_t, lambda g: grads(g)["b_seq"]),
            (c_t, lambda g: grads(g)["c_seq"]),
            (u_t, lambda g: grads(g)["u"]),
        ],
    )

