"""Output checks, run outside the timed region.

* ``logits_match``: the program's ``predict`` against the independent
  numpy forward in ``reference.py``, at ``LOGIT_RTOL`` relative to the
  largest logit.
* ``routing_holds``: every plan the program's ``predict`` makes, and
  ``closest_grid_index`` on it, against brute force on the program's
  own intervals, plus the properties routing must have whatever the
  weights: intervals equal to the reference's and inside
  [kappa*delta, delta], grid length floor(t_L/delta), each window the k
  nearest sources as one contiguous ascending run, copy-back indices
  non-decreasing.
* ``gradient_matches``: the tape's directional derivative along a
  seeded random unit direction in parameter space, in train or eval
  mode, against a central finite difference, at ``GRAD_RTOL`` and
  ``GRAD_ATOL``.  Routing is frozen integer choice, so a probe step
  that changes it is shrunk until it does not.  Eval mode matters on
  its own: with batchnorm over positions right before mean pooling,
  train-mode logits do not depend on the input, so a train-mode check
  sees only the head and the last norm's shift.
* ``history_digest``: SHA-256 of the ``train`` history, for the
  byte-identical-rerun invariant.
"""

from __future__ import annotations

import contextlib
import hashlib
import json

import numpy as np

import reference
from ressm import autodiff as ad
from ressm import resample
from ressm.network import ResampleNetwork
from tracer import Patches

LOGIT_RTOL = 1e-9
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-8  # covers round-off of the difference at the smallest step
FD_STEP = 1e-5
FD_SHRINKS = 4


def logits_match(model: ResampleNetwork, tokens) -> bool:
    got = model.predict(tokens)
    want = reference.forward(model.spec.to_dict(), model.params, model.buffers, tokens)
    return bool(np.max(np.abs(got - want)) <= LOGIT_RTOL * np.max(np.abs(want)))


@contextlib.contextmanager
def recorded_plans():
    """Every plan ``resample.make_plan`` makes inside the block, with its
    inputs: (deltas, delta, k, plan)."""
    plans = []

    def recording(make_plan):
        def record(deltas, delta, k):
            plan = make_plan(deltas, delta, k)
            plans.append((np.array(deltas), float(delta), k, plan))
            return plan
        return record

    with Patches() as p:
        p.wrap(resample, "make_plan", recording)
        yield plans


def routing_holds(model: ResampleNetwork, tokens) -> bool:
    with recorded_plans() as plans:
        model.predict(tokens)
    routes: list = []
    reference.forward(model.spec.to_dict(), model.params, model.buffers, tokens, routes)
    if len(plans) != len(routes):
        return False
    for (deltas, delta, k, plan), r in zip(plans, routes):
        kappa = r["kappa"]
        if not (np.allclose(deltas, r["deltas"], rtol=1e-12, atol=0)
                and np.isclose(delta, r["delta"], rtol=1e-12, atol=0)):
            return False
        if np.any(deltas < kappa * delta * (1 - 1e-12)) or np.any(deltas > delta * (1 + 1e-12)):
            return False
        times, grid = reference.grid(deltas, delta)
        windows = reference.knn_windows(times, grid, k)
        if plan.dst_len != len(grid) or not np.array_equal(plan.neighbors, windows):
            return False
        if k <= len(deltas) and np.any(np.diff(windows, axis=1) != 1):
            return False
        back = resample.closest_grid_index(plan)
        if not np.array_equal(back, reference.nearest_grid(times, grid)) or np.any(np.diff(back) < 0):
            return False
    return True


def _routed_forward(model, tokens, train, tape=None):
    """Forward that also returns every plan's routing."""
    with recorded_plans() as plans:
        logits, bound = model.forward(tokens, tape=tape, train=train)
    seen = [(plan.dst_len, plan.neighbors.tobytes(),
             resample.closest_grid_index(plan).tobytes()) for *_, plan in plans]
    return logits, bound, seen


def gradient_matches(model: ResampleNetwork, example, rng: np.random.Generator,
                     train: bool) -> bool:
    """Loss of one example in train or eval mode; each probe gets its own
    copy of the batchnorm buffers, so the model under test is left
    untouched."""
    names = sorted(model.params)
    v = {n: rng.standard_normal(model.params[n].shape) for n in names}
    scale = np.sqrt(sum(float(np.sum(x * x)) for x in v.values()))
    v = {n: x / scale for n, x in v.items()}

    def probe(step):
        return ResampleNetwork(model.spec,
                               params={n: model.params[n] + step * v[n] for n in names},
                               buffers={n: b.copy() for n, b in model.buffers.items()})

    def loss_at(step):
        logits, _, route = _routed_forward(probe(step), example.tokens, train)
        return ad.cross_entropy(logits, example.label).item(), route

    tape = ad.Tape()
    logits, bound, route = _routed_forward(probe(0.0), example.tokens, train, tape)
    tape.backward(ad.cross_entropy(logits, example.label))
    analytic = sum(float(np.sum(tape.grad(t) * v[n])) for n, t in bound.items())

    h = FD_STEP
    for _ in range(FD_SHRINKS):
        (fp, route_p), (fm, route_m) = loss_at(h), loss_at(-h)
        if route_p == route and route_m == route:
            numeric = (fp - fm) / (2 * h)
            return (abs(analytic - numeric)
                    <= GRAD_RTOL * (abs(analytic) + abs(numeric)) + GRAD_ATOL)
        h /= 10
    return False


def history_digest(history: list) -> str:
    return hashlib.sha256(json.dumps(history, sort_keys=True).encode()).hexdigest()
