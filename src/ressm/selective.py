"""Input-dependent SSM parameterization and the differentiable scan.

The reference point the resampling architecture modifies: per step, the
input vector determines the state input/output maps and the time
interval, and the interval drives the per-step discretization.

``ssm_scan`` is the workhorse: a single tape op running the recurrence
over all steps and channels in numpy, with a hand-written backward pass.
Keeping the whole scan in one node makes sequence training tractable
without giving up exact reverse-mode gradients.

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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .ssm import diag_init, phi, phi_prime

__all__ = [
    "SelectiveHead",
    "init_selective_head",
    "selective_params",
    "selective_scan",
    "cumulative_times",
    "ssm_scan",
]


@dataclass
class SelectiveHead:
    """Weights mapping an H-dim feature vector to per-step scan params.

    theta_b, theta_c: [H, N] input/output maps; theta_delta: [H] scalar
    interval map; delta_base: learnable offset inside the softplus;
    a_diag: [N] fixed negative diagonal.
    """

    theta_b: np.ndarray
    theta_c: np.ndarray
    theta_delta: np.ndarray
    delta_base: float
    a_diag: np.ndarray

    def __post_init__(self):
        self.theta_b = np.asarray(self.theta_b, dtype=np.float64)
        self.theta_c = np.asarray(self.theta_c, dtype=np.float64)
        self.theta_delta = np.asarray(self.theta_delta, dtype=np.float64).reshape(-1)
        self.a_diag = np.asarray(self.a_diag, dtype=np.float64)
        if not np.all(self.a_diag < 0):
            raise ValueError("a_diag must be strictly negative")
        if not np.isfinite(self.delta_base):
            raise ValueError("delta_base must be finite")
        if not (self.theta_b.shape[0] == self.theta_c.shape[0] == len(self.theta_delta)):
            raise ValueError("theta maps disagree on feature width")

    @property
    def h_dim(self) -> int:
        return self.theta_b.shape[0]

    @property
    def n_state(self) -> int:
        return self.theta_b.shape[1]


def init_selective_head(h_dim: int, n_state: int, rng: np.random.Generator,
                        delta_base: float = 0.0) -> SelectiveHead:
    """Fan-in uniform init for the maps; zero delta offset gives an
    initial interval of softplus(0) = ln 2."""
    scale = 1.0 / np.sqrt(h_dim)
    return SelectiveHead(
        theta_b=rng.uniform(-scale, scale, size=(h_dim, n_state)),
        theta_c=rng.uniform(-scale, scale, size=(h_dim, n_state)),
        theta_delta=rng.uniform(-scale, scale, size=h_dim),
        delta_base=delta_base,
        a_diag=diag_init(n_state),
    )


def selective_params(head: SelectiveHead, x_l: np.ndarray):
    """Per-position parameters (b, c, delta) from one feature vector.

    delta = softplus(delta_base + theta_delta . x) is positive for any
    finite input.
    """
    x_l = np.asarray(x_l, dtype=np.float64)
    if x_l.shape != (head.h_dim,):
        raise ValueError(f"expected feature vector of dim {head.h_dim}, got {x_l.shape}")
    b = x_l @ head.theta_b
    c = x_l @ head.theta_c
    pre = head.delta_base + float(x_l @ head.theta_delta)
    delta = float(np.maximum(pre, 0.0) + np.log1p(np.exp(-abs(pre))))
    return b, c, delta


def cumulative_times(deltas: np.ndarray) -> np.ndarray:
    """Sampling times as running sums of strictly positive intervals."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValueError("deltas must be a non-empty 1-d sequence")
    if np.any(deltas <= 0):
        raise ValueError("all intervals must be strictly positive")
    return np.cumsum(deltas)


# ---------------------------------------------------------------------------
# fused differentiable scan


# Decays below this are flushed to exact zero.  A product of two
# unflushed decays is then at least float64's smallest normal, so the
# doubling passes never touch subnormals, which are slow on most CPUs.
_DECAY_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


def _linear_scan(decay, drive):
    """h_t = decay_t * h_{t-1} + drive_t from h_{-1} = 0, along axis 0.

    Recursive doubling (Hillis-Steele): after the pass with stride k,
    ``h[t]`` holds the recurrence started from zero at t - 2k and
    ``span[t]`` the product of decays over (t - 2k, t], so ceil(log2 T)
    vectorised passes replace the loop over t.  decay_0 is never read.
    Works in place to spare fresh pages: ``drive`` becomes h, which is
    returned, and ``decay`` is overwritten.
    """
    h, span = drive, decay
    np.copyto(span, 0.0, where=span < _DECAY_FLOOR)
    buf = np.empty_like(h)
    T = len(h)
    k = 1
    while k < T:
        tmp = buf[: T - k]
        np.multiply(span[k:], h[:-k], out=tmp)
        h[k:] += tmp
        if 2 * k < T:  # the last level's span product would go unused
            np.multiply(span[k:], span[:-k], out=tmp)
            np.copyto(tmp, 0.0, where=tmp < _DECAY_FLOOR)
            span[k:] = tmp
        k *= 2
    return h


# Fresh [T, W, N] arrays cost page faults as well as arithmetic, so the
# two passes below reuse an operand's memory once it has been read for
# the last time.  The forward turns z into the decays; the backward
# recomputes z (one product) rather than keep it alive between passes.
def _scan_forward(a, deltas, b_seq, c_seq, u):
    z = deltas[:, None, None] * a[None, :, :]  # [T,W,N]
    phis = phi(z)
    drive = phis * (deltas[:, None] * b_seq)[:, None, :]
    drive *= u[:, :, None]
    hs = _linear_scan(np.exp(z, out=z), drive)
    ys = np.einsum("twn,tn->tw", hs, c_seq)
    return ys, (phis, hs)


def _scan_backward(dy, a, deltas, b_seq, c_seq, u, saved):
    phis, hs = saved
    z = deltas[:, None, None] * a[None, :, :]
    es = np.exp(z)
    # Accumulated state gradient G[t] = dL/dh_t = outer[t] + es[t+1] G[t+1]:
    # the same recurrence run backwards in time.
    scratch = np.empty_like(es)
    scratch[0] = 0.0
    scratch[1:] = es[:0:-1]
    g = _linear_scan(scratch, np.einsum("tw,tn->twn", dy[::-1], c_seq[::-1]))[::-1]

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


def ssm_scan(a_diag, deltas, b_seq, c_seq, u) -> ad.Tensor:
    """Run W parallel single-input recurrences with shared per-step params.

    Shapes: a_diag [W, N] (one diagonal system per channel), deltas [T]
    (interval shared across channels), b_seq and c_seq [T, N] (input and
    output maps shared across channels), u [T, W] (per-channel scalar
    inputs).  Returns y [T, W].

    Per step: z = delta_t * a; decay exp(z); input weight
    phi(z) * delta_t * b_t; then h_t = decay * h_{t-1} + weight * u_t and
    y_t = h_t . c_t.  States start at zero.  The whole scan is one tape
    node; gradients flow to all five inputs.

    The recurrence runs by recursive doubling in ceil(log2 T) vectorised
    passes, forward and, for the gradient, backward in time.  Decays
    below ~1.5e-154 count as zero, which drops terms under 1.5e-154
    times the state they carry; y agrees with the step-by-step
    recurrence to rounding.
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

    with np.errstate(all="ignore"):  # non-finite results surface via custom_op
        ys, saved = _scan_forward(a, d, b, c, uu)

    cache: dict = {}

    def _grads(g):
        if not cache:
            cache.update(_scan_backward(g, a, d, b, c, uu, saved))
        return cache

    return ad.custom_op(
        "ssm_scan",
        ys,
        [
            (a_t, lambda g: _grads(g)["a"]),
            (d_t, lambda g: _grads(g)["deltas"]),
            (b_t, lambda g: _grads(g)["b_seq"]),
            (c_t, lambda g: _grads(g)["c_seq"]),
            (u_t, lambda g: _grads(g)["u"]),
        ],
    )


def selective_scan(head: SelectiveHead, x, u, tape: ad.Tape | None = None):
    """Scan a scalar channel with parameters derived from the features.

    ``x`` is the [L, H] feature sequence; ``u`` the [L] scalar input
    channel (a projection of x chosen by the caller).  Returns
    ``(y, leaves)`` where y is the [L] output tensor and leaves maps the
    head's weight names to the tensors bound on the tape (constants when
    no tape is given), so callers can read gradients after backward.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    u_arr = np.asarray(u, dtype=np.float64)
    if x_arr.ndim != 2 or x_arr.shape[1] != head.h_dim:
        raise ValueError(f"expected [L, {head.h_dim}] features, got {x_arr.shape}")
    if u_arr.shape != (x_arr.shape[0],):
        raise ValueError("channel length must match the feature sequence")

    def bind(arr):
        return tape.leaf(arr) if tape is not None else ad.constant(arr)

    leaves = {
        "theta_b": bind(head.theta_b),
        "theta_c": bind(head.theta_c),
        "theta_delta": bind(head.theta_delta.reshape(-1, 1)),
        "delta_base": bind(head.delta_base),
        "a_diag": bind(head.a_diag.reshape(1, -1)),
    }
    x_t = ad.constant(x_arr)
    u_t = ad.constant(u_arr.reshape(-1, 1))

    b_seq = ad.matmul(x_t, leaves["theta_b"])
    c_seq = ad.matmul(x_t, leaves["theta_c"])
    pre = ad.add(ad.reshape(ad.matmul(x_t, leaves["theta_delta"]), (len(u_arr),)),
                 leaves["delta_base"])
    deltas = ad.softplus(pre)
    y = ssm_scan(leaves["a_diag"], deltas, b_seq, c_seq, u_t)
    return ad.reshape(y, (len(u_arr),)), leaves
