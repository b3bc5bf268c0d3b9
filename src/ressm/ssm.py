"""Diagonal state space models: discretization, scans, kernels, inits.

Pure numpy throughout; these are the reference recurrences the rest of
the package is checked against.  State matrices are real negative
diagonals, so every recurrence separates per component and a scan step
is a handful of vector ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SsmParams",
    "DiscreteStep",
    "NplrInit",
    "hippo_matrix",
    "nplr_components",
    "diag_init",
    "phi",
    "phi_prime",
    "zoh_discretize",
    "lti_scan",
    "conv_kernel",
    "conv_apply",
    "varying_scan",
]

# Below this |z| the direct expm1(z)/z form is replaced by a short Taylor
# series; the two branches agree to ~4e-14 relative at the switch.
PHI_TAYLOR_CUTOFF = 1e-4


@dataclass(frozen=True)
class SsmParams:
    """Continuous-time system: diagonal transition, input and output vectors."""

    a_diag: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_diag", np.asarray(self.a_diag, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        if not (len(self.a_diag) == len(self.b) == len(self.c)):
            raise ValueError("a_diag, b, c must have equal length")
        if not np.all(self.a_diag < 0):
            raise ValueError("a_diag entries must be strictly negative for stability")

    @property
    def n(self) -> int:
        return len(self.a_diag)


@dataclass(frozen=True)
class DiscreteStep:
    """One ZOH-discretized step: decay factors, input weights, interval."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    delta: float


@dataclass(frozen=True)
class NplrInit:
    """Transition matrix split into a normal part plus a rank-1 correction."""

    a_full: np.ndarray
    a_normal: np.ndarray
    p: np.ndarray
    q: np.ndarray


def hippo_matrix(n: int) -> np.ndarray:
    """Lower-triangular long-memory init: entry (i, j) is
    -sqrt(2i+1)sqrt(2j+1) below the diagonal, -(i+1) on it, 0 above.
    """
    if n < 1:
        raise ValueError("state size must be at least 1")
    i = np.arange(n)
    s = np.sqrt(2.0 * i + 1.0)
    a = -np.outer(s, s)
    a = np.tril(a, k=-1)
    a[i, i] = -(i + 1.0)
    return a


def nplr_components(n: int) -> NplrInit:
    """Split ``hippo_matrix(n)`` into a normal matrix plus rank-1 term.

    With p_i = sqrt(i + 1/2) and q = -p, the normal part is a skew
    symmetric matrix shifted by -1/2 on the diagonal, hence normal.
    """
    a = hippo_matrix(n)
    p = np.sqrt(np.arange(n) + 0.5)
    q = -p
    a_normal = a - np.outer(p, q)  # = a + p p^T
    return NplrInit(a_full=a, a_normal=a_normal, p=p, q=q)


def diag_init(n: int) -> np.ndarray:
    """Diagonal-only init: the diagonal of ``hippo_matrix``, -(j+1)."""
    if n < 1:
        raise ValueError("state size must be at least 1")
    return -(np.arange(n) + 1.0)


def phi(z: np.ndarray) -> np.ndarray:
    """(e^z - 1) / z with the removable singularity filled at z = 0."""
    z = np.asarray(z, dtype=np.float64)
    # The direct form everywhere, then the series over the few small
    # entries: cheaper than splitting the array by a mask up front.
    out = np.asarray(np.expm1(z))
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= z
    # Two comparisons rather than abs(z) < cutoff: no float temporary.
    small = (z > -PHI_TAYLOR_CUTOFF) & (z < PHI_TAYLOR_CUTOFF)
    if small.any():
        zs = z[small]
        out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    return out


def phi_prime(z: np.ndarray, phi_z=None, exp_z=None) -> np.ndarray:
    """Derivative of ``phi``: (e^z - phi(z)) / z, Taylor near 0.

    A caller that already holds ``phi(z)`` and ``exp(z)`` passes them
    in; the rest is one subtraction and one division.  The identity
    keeps ~3e-13 relative accuracy down to the series cutoff (1e-3),
    where the expanded form (e^z (z - 1) + 1) / z^2 cancels to ~3e-10.
    """
    z = np.asarray(z, dtype=np.float64)
    if phi_z is None:
        phi_z = phi(z)
    if exp_z is None:
        exp_z = np.exp(z)
    out = np.asarray(np.subtract(exp_z, phi_z))
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= z
    small = (z > -1e-3) & (z < 1e-3)
    if small.any():
        zs = z[small]
        out[small] = 0.5 + zs / 3.0 + zs * zs / 8.0 + zs**3 / 30.0
    return out


def zoh_discretize(params: SsmParams, delta: float) -> DiscreteStep:
    """Zero-order-hold discretization of a diagonal system.

    a_bar = exp(delta a), b_bar = phi(delta a) * delta * b.  A zero
    interval gives the identity step (a_bar = 1, b_bar = 0).
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    z = delta * params.a_diag
    a_bar = np.exp(z)
    b_bar = phi(z) * delta * params.b
    return DiscreteStep(a_bar=a_bar, b_bar=b_bar, delta=float(delta))


def lti_scan(step: DiscreteStep, c: np.ndarray, x: np.ndarray, h0: np.ndarray | None = None):
    """Run the fixed-step recurrence h_l = a_bar h_{l-1} + b_bar x_l,
    y_l = <c, h_l>.  Returns (y, final state).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("input must be a non-empty 1-d sequence")
    c = np.asarray(c, dtype=np.float64)
    h = np.zeros_like(step.a_bar) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    y = np.empty(len(x))
    for l in range(len(x)):
        h = step.a_bar * h + step.b_bar * x[l]
        y[l] = c @ h
    return y, h


def conv_kernel(step: DiscreteStep, c: np.ndarray, length: int) -> np.ndarray:
    """Impulse response of the fixed-step system:
    K[k] = <c, a_bar^k * b_bar> for k = 0..length-1.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    c = np.asarray(c, dtype=np.float64)
    k = np.empty(length)
    pw = step.b_bar.copy()
    for i in range(length):
        k[i] = c @ pw
        pw = pw * step.a_bar
    return k


def conv_apply(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal convolution y_l = sum_k K[k] x_{l-k}; direct O(L^2) form."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if len(x) != len(kernel):
        raise ValueError(f"length mismatch: input {len(x)} vs kernel {len(kernel)}")
    return np.convolve(x, kernel)[: len(x)]


def varying_scan(
    deltas: np.ndarray,
    a_diag: np.ndarray,
    b_seq: np.ndarray,
    c_seq: np.ndarray,
    x: np.ndarray,
    h0: np.ndarray | None = None,
):
    """Time-varying recurrence with per-step ZOH discretization.

    Step l discretizes with interval deltas[l], then
    h_l = a_bar_l h_{l-1} + b_bar_l x_l and y_l = <c_seq[l], h_l>.
    Returns (y, states) where states[l] is h_{l+1} of the 1-based
    recurrence; the full trajectory feeds the leave-one-out analysis.

    Zero intervals are admitted as exact identity steps (the limit probe
    of the leave-one-out analysis needs them); negative intervals are an
    error.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.ndim != 1 or len(deltas) == 0:
        raise ValueError("deltas must be a non-empty 1-d sequence")
    if np.any(deltas < 0):
        raise ValueError("deltas must be non-negative")
    a_diag = np.asarray(a_diag, dtype=np.float64)
    b_seq = np.asarray(b_seq, dtype=np.float64)
    c_seq = np.asarray(c_seq, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    L = len(deltas)
    if not (len(b_seq) == len(c_seq) == len(x) == L):
        raise ValueError("sequence lengths disagree")
    n = len(a_diag)
    h = np.zeros(n) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    y = np.empty(L)
    states = np.empty((L, n))
    for l in range(L):
        z = deltas[l] * a_diag
        a_bar = np.exp(z)
        b_bar = phi(z) * deltas[l] * b_seq[l]
        h = a_bar * h + b_bar * x[l]
        y[l] = c_seq[l] @ h
        states[l] = h
    return y, states
