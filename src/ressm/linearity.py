"""Leave-one-out state analysis for diagonal SSM scans.

Deleting element m from a scanned sequence shifts the final state by an
amount that, for small interval Δ_m, is linear in Δ_m.  This module
measures that claim numerically: it computes the final-state distance
with and without the element across a geometric Δ grid, fits the
log-log slope, and cross-checks the scan difference against the closed
form

    diff_j = exp(a_j * tail) * (exp(a_j Δ_m) - 1) * (h_prev_j + x_mj / a_j)

where tail is the summed intervals after m and h_prev the state before
it.  The input map is absorbed into the inputs: x here is the
transformed per-component drive of the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ssm import varying_scan

__all__ = [
    "LeaveOneOutInstance",
    "LinearityReport",
    "leave_one_out_states",
    "closed_form_diff",
    "closed_form_residual",
    "linearity_sweep",
    "default_grid",
    "random_instance",
    "run_verification",
    "SLOPE_BAND",
    "RESIDUAL_LIMIT",
]

# Verification thresholds: fitted slope band and closed-form agreement.
SLOPE_BAND = (0.98, 1.02)
RESIDUAL_LIMIT = 1e-9
FIT_POINTS = 4  # smallest grid values the slope is fitted over

# Beyond this, exp(a * t) has no significant bits left in float64.
_OVERFLOW_GUARD = 50.0


@dataclass(frozen=True)
class LeaveOneOutInstance:
    """A scan whose element ``remove_index`` (0-based) gets deleted.

    x_seq holds the transformed inputs, one N-vector per step; the scan
    is h_l = exp(a Δ_l) h_{l-1} + (exp(a Δ_l) - 1) x_l / a per component.
    """

    a_diag: np.ndarray
    deltas: np.ndarray
    x_seq: np.ndarray
    remove_index: int

    def __post_init__(self):
        object.__setattr__(self, "a_diag", np.asarray(self.a_diag, dtype=np.float64))
        object.__setattr__(self, "deltas", np.asarray(self.deltas, dtype=np.float64))
        object.__setattr__(self, "x_seq", np.asarray(self.x_seq, dtype=np.float64))
        if np.any(self.a_diag >= 0):
            raise ValueError("a_diag must be strictly negative")
        if self.deltas.ndim != 1 or len(self.deltas) == 0:
            raise ValueError("deltas must be a non-empty 1-d sequence")
        if np.any(self.deltas < 0):
            raise ValueError("deltas must be non-negative")
        if self.x_seq.shape != (len(self.deltas), len(self.a_diag)):
            raise ValueError("x_seq must be [L, N]")
        if not (0 <= self.remove_index < len(self.deltas)):
            raise ValueError("remove_index out of range")
        if np.max(np.abs(self.a_diag)) * np.sum(self.deltas) > _OVERFLOW_GUARD:
            raise ValueError("instance exceeds the exp overflow guard")

    @property
    def length(self) -> int:
        return len(self.deltas)


def _scan_states(a_diag, deltas, x_seq):
    # Unit scalar input with the transformed sequence as per-step input map
    # reproduces h_l = exp(aΔ) h + (exp(aΔ)-1) x / a componentwise.
    ones = np.ones(len(deltas))
    zeros_c = np.zeros_like(x_seq)
    _, states = varying_scan(deltas, a_diag, x_seq, zeros_c, ones)
    return states


def leave_one_out_states(inst: LeaveOneOutInstance):
    """Final states of the full scan and of the scan without element m."""
    m = inst.remove_index
    if inst.length == 1:
        raise ValueError("cannot remove the only element")
    full = _scan_states(inst.a_diag, inst.deltas, inst.x_seq)
    keep = np.arange(inst.length) != m
    short = _scan_states(inst.a_diag, inst.deltas[keep], inst.x_seq[keep])
    return full[-1], short[-1]


def closed_form_diff(inst: LeaveOneOutInstance) -> np.ndarray:
    """The final-state difference evaluated without rescanning the tail.

    Every term after the removed element cancels; what remains is the
    tail decay times expm1(a Δ_m) times (h_prev + x_m / a).
    """
    if np.any(inst.a_diag == 0):
        raise ValueError("closed form requires nonzero diagonal entries")
    m = inst.remove_index
    a = inst.a_diag
    h_prev = (
        _scan_states(a, inst.deltas[:m], inst.x_seq[:m])[-1]
        if m > 0
        else np.zeros_like(a)
    )
    tail = float(np.sum(inst.deltas[m + 1 :]))  # empty tail sums to 0, factor 1
    return np.exp(a * tail) * np.expm1(a * inst.deltas[m]) * (h_prev + inst.x_seq[m] / a)


def closed_form_residual(inst: LeaveOneOutInstance) -> float:
    """Relative deviation between the two-scan difference and the closed
    form at the instance's own Δ_m."""
    h_full, h_short = leave_one_out_states(inst)
    scan_diff = h_full - h_short
    cf = closed_form_diff(inst)
    scale = np.max(np.abs(scan_diff))
    if scale == 0.0:
        return float(np.max(np.abs(cf)))
    return float(np.max(np.abs(scan_diff - cf)) / scale)


def default_grid() -> np.ndarray:
    return np.geomspace(1e-1, 1e-6, 11)


@dataclass
class LinearityReport:
    """Distance-vs-interval sweep for one instance."""

    grid: np.ndarray
    distances: np.ndarray
    slope: float | None
    c_estimate: float | None
    residual: float
    degenerate: bool

    def passes(self) -> bool:
        return (
            not self.degenerate
            and self.slope is not None
            and SLOPE_BAND[0] <= self.slope <= SLOPE_BAND[1]
            and self.residual < RESIDUAL_LIMIT
        )

    def to_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "distances": list(self.distances),
            "slope": self.slope,
            "c_estimate": self.c_estimate,
            "residual": self.residual,
            "degenerate": self.degenerate,
            "passes": self.passes(),
        }


def linearity_sweep(inst: LeaveOneOutInstance, grid: np.ndarray | None = None) -> LinearityReport:
    """Sweep Δ_m over the grid and fit the log-log slope.

    The slope is fitted by least squares over the ``FIT_POINTS`` smallest
    grid values only, since the linearity claim is asymptotic; the
    constant estimate is distance / Δ at the smallest point.  Any exactly
    zero distance at a nonzero Δ marks the instance degenerate and skips
    the fit.
    """
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=np.float64)
    if len(grid) < 6:
        raise ValueError("grid needs at least 6 points")
    if np.any(np.diff(grid) >= 0) or np.any(grid <= 0):
        raise ValueError("grid must be strictly decreasing and positive")

    m = inst.remove_index
    keep = np.arange(inst.length) != m
    h_short = _scan_states(inst.a_diag, inst.deltas[keep], inst.x_seq[keep])[-1]

    distances = np.empty(len(grid))
    for i, dm in enumerate(grid):
        deltas = inst.deltas.copy()
        deltas[m] = dm
        h_full = _scan_states(inst.a_diag, deltas, inst.x_seq)[-1]
        distances[i] = np.linalg.norm(h_full - h_short)

    residual = closed_form_residual(inst)

    if np.any(distances == 0.0):
        return LinearityReport(grid, distances, None, None, residual, True)

    tail_d = np.log(grid[-FIT_POINTS:])
    tail_y = np.log(distances[-FIT_POINTS:])
    slope = float(np.polyfit(tail_d, tail_y, 1)[0])
    c_estimate = float(distances[-1] / grid[-1])
    return LinearityReport(grid, distances, slope, c_estimate, residual, False)


def random_instance(rng: np.random.Generator, n_max: int = 4, l_max: int = 32) -> LeaveOneOutInstance:
    """A well-conditioned random instance inside the overflow guard."""
    n = int(rng.integers(1, n_max + 1))
    L = int(rng.integers(4, l_max + 1))
    return LeaveOneOutInstance(
        a_diag=-rng.uniform(0.2, 2.0, size=n),
        deltas=rng.uniform(0.02, 0.3, size=L),
        x_seq=rng.normal(size=(L, n)),
        remove_index=int(rng.integers(0, L)),
    )


def run_verification(n_instances: int, seed: int, grid: np.ndarray | None = None,
                     n_max: int = 4, l_max: int = 32) -> list[LinearityReport]:
    """Sweep ``n_instances`` seeded random instances."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [linearity_sweep(random_instance(rng, n_max, l_max), grid)
            for _ in range(n_instances)]
