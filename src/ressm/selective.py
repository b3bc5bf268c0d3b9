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
first-order linear scans, h_t = decay_t h_{t-1} + drive_t, run in place
by one compiled C loop over the rows (``_scan.c``), as Mamba runs its
recurrence as one fused kernel rather than as passes over whole arrays;
the adjoint runs backwards.  The loop is built once per process, when
this module is imported, by the interpreter's C compiler, and loaded
through ctypes; importing it therefore needs a C compiler.  Decays below
sqrt(smallest normal) ~ 1.5e-154 count as exact zeros, so that a
decay times a state of at least that size is never subnormal; each
drops a term smaller than 1.5e-154 times the state it would have
carried.  Sums run in step order, as ``ssm.varying_scan`` takes them.

Around the recurrence, each step is one pass over [T, W*N] arrays:
elementwise, or a product with a 0/1 selector that spreads a
per-channel or per-state factor across its block or sums a block
(``_selectors``).  The forward saves phi(z) and the states; the
backward recomputes z and e^z and takes phi'(z) = (e^z - phi(z)) / z.

``fixed_step_conv`` is the layer whose interval, input map and output
map do not vary with t.  S4 and S4D unroll such a recurrence into a
causal convolution with its impulse response and compute it by FFT (Gu
et al. 2021, arXiv:2111.00396; Gu et al. 2022, arXiv:2206.11893); here
it runs on the same compiled loop as the selective layer, which at
these lengths costs less than the FFT, and takes the layer's own
weights as one node: its decay, input weight and output map are one
row each, so phi and e^z are taken once per state, not once per row.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .ssm import phi, phi_prime

__all__ = ["ssm_scan", "selective_layer", "fixed_step_conv"]

# Decays below this count as exact zeros, which drops a term under
# 1.5e-154 times the state it would carry.  A decay at or above it times
# a state at least as large is a normal number, so the scan's products
# keep off subnormals, which are slow on most CPUs.
_DECAY_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


def _build_kernel(cc):
    """Compile ``_scan.c`` with the C compiler command ``cc`` into a
    temporary directory and load its ``linear_scan``; the loaded library
    outlives the directory.  Raises ImportError naming the command and
    its error output if the compiler is missing or fails.  The compiler
    is spawned and waited for through ``os``, as the standard library's
    process module alone would add about half a megabyte to every
    process that imports this one."""
    source = Path(__file__).with_name("_scan.c")
    with tempfile.TemporaryDirectory() as tmp:
        lib, log = str(Path(tmp, "_scan.so")), Path(tmp, "cc.log")
        cmd = [*shlex.split(cc), "-O2", "-fPIC", "-shared", "-ffp-contract=off", str(source),
               "-o", lib]
        to_log = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT, 0o600),
                  (os.POSIX_SPAWN_DUP2, 1, 2)]
        try:
            pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=to_log)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except OSError as e:
            raise ImportError(f"cannot build the scan kernel: {shlex.join(cmd)}: {e}") from e
        if code != 0:
            raise ImportError(f"cannot build the scan kernel: {shlex.join(cmd)}: "
                              f"exit {code}: {log.read_text(errors='replace')}")
        kernel = ctypes.CDLL(lib).linear_scan
    rows = functools.partial(np.ctypeslib.ndpointer, np.float64, ndim=2)
    kernel.argtypes = [rows(flags="C_CONTIGUOUS"), rows(flags="C_CONTIGUOUS,WRITEABLE"),
                       ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_int, ctypes.c_double]
    kernel.restype = None
    return kernel


_kernel = _build_kernel(sysconfig.get_config_var("CC") or "cc")


def _linear_scan(decay, h, reverse=False):
    """h_t = decay_t * h_{t-1} + drive_t from h_{-1} = 0 along axis 0, in
    place (``h`` holds the drive on entry); with ``reverse``,
    h_t = decay_{t+1} * h_{t+1} + drive_t from the end.  One compiled
    loop over the rows (``_scan.c``) sums in step order, as
    ``ssm.varying_scan`` does.  Decays must be non-negative; those below
    ``_DECAY_FLOOR`` count as exact zeros, so a zero decay cuts the
    recurrence.  Both arrays must be C-contiguous float64 [T, C] of one
    shape and ``h`` writeable, or this raises before the loop runs."""
    if decay.shape != h.shape or h.ndim != 2:
        raise ad.ShapeError(f"scan wants decay and h of one [T, C] shape, "
                            f"got {decay.shape} and {h.shape}")
    _kernel(decay, h, *h.shape, reverse, _DECAY_FLOOR)
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
    hs = _linear_scan(decay, drive)
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
    g = _linear_scan(es, g, reverse=True)
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

    The recurrence runs in one compiled loop over the steps (see
    ``_linear_scan``), forward and, for the gradient, backward in time.
    Decays below ~1.5e-154 count as zero, which drops terms under
    1.5e-154 times the state they carry; y agrees with the step-by-step
    recurrence to rounding.
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


def fixed_step_conv(rho, raw_delta, b, c, u, *, segs=None) -> ad.Tensor:
    """The fixed-step layer: W diagonal systems with one interval and one
    input and output map for every step, from their weights.

    Shapes: rho [W, N], raw_delta a scalar, b and c [N], u [T, W].
    Returns y [T, W].  With a = -exp(rho), delta = softplus(raw_delta)
    and z = delta * a, it is ``ssm_scan`` on a, delta at every step and
    b and c at every row: h_t = e^z h_{t-1} + phi(z) delta b u_t and
    y_t = c . h_t, from a zero state at each segment of ``segs`` (see
    ``ssm_scan``), on the same compiled loop.  phi and e^z are taken once
    per state, not once per row, so the drive and y are one product
    each.  The backward runs the adjoint scan over dy c, takes the
    weights' sums over the rows as products and chains them through
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

        with np.errstate(all="ignore"):  # non-finite results surface via custom_op
            a = -np.exp(rh.reshape(-1))
            if not np.isfinite(a).all():
                raise ad.NonFiniteError("non-finite result in op 'fixed_step_conv'")
            delta = float(ad._softplus(rd.reshape(())))
            z = delta * a
            phis, es = phi(z), np.exp(z)
            by_w, _ = _selectors(W, N)
            bt, ct = np.tile(bv, W), np.tile(cv, W)
            coef = phis * delta * bt
            into = by_w * coef  # [W, W*N]: u_t @ into is the drive
            out = (by_w * ct).T  # [W*N, W]: h_t @ out is y_t
            decay = np.broadcast_to(es, (T, W * N)).copy()
            decay[layout.starts] = 0.0  # each segment starts from a zero state
            hs = _linear_scan(decay, uu @ into)
            ys = hs @ out

        def backward(dy):
            # dL/dh_t = dy_t c + e^z dL/dh_{t+1}: the adjoint scan.
            g = _linear_scan(decay, dy @ out.T, reverse=True)
            du = g @ into.T
            dcoef = ((uu.T @ g) * by_w).sum(axis=0)
            dct = ((dy.T @ hs) * by_w).sum(axis=0)
            # The decay's share of dz: dL/dh_t e^z h_{t-1}, none across a start.
            dz = np.einsum("tj,tj->j", g[1:], hs[:-1] * decay[1:])
            dz += dcoef * phi_prime(z, phis, es) * delta * bt
            dbt = dcoef * phis  # d(delta b)
            d_delta = dbt @ bt + dz @ a
            return ((dz * z).reshape(W, N), d_delta * ad._sigmoid(rd.reshape(1))[0],
                    (dbt * delta).reshape(W, N).sum(axis=0), dct.reshape(W, N).sum(axis=0), du)

        return ys, backward

    return ad.fused_op("fixed_step_conv", forward, rho, raw_delta, b, c, u)
