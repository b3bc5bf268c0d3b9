"""Timing hooks installed from outside the program.

Two kinds of hook, both put in place by replacing a module or class
attribute for the duration of a ``with`` block and restoring it after:

* ``StepClock`` marks step boundaries and runs in every run.  A step
  ends when an optimizer update returns (train) or when one example's
  ``predict`` returns (eval), and starts at the previous boundary.
* ``Tracer`` records a span around each call into a layer's public
  function: name, start, end and the enclosing span.  Spans live in
  flat arrays in memory and are written out when the run ends.  Every
  tape node recorded inside a layer's call gets its backward rule
  wrapped, so backward time is charged to the layer that recorded it.
  It runs only with ``--trace 1``.  Tape-level calls (``custom_op``
  and each node's backward rule) are summed per layer, not kept one by
  one.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

from ressm import autodiff, checkpoint, network, resample, tasks, training

# Layers whose calls are children of ``network.forward``; forward's self
# time is what they leave (embed, interval map, split, concat, pooling,
# head).  Tape nodes recorded outside them are charged to "network".
LAYERS = ("network.norm", "resample.make_plan", "resample.compress",
          "resample.decompress", "selective.ssm_scan")


class Patches:
    """Attribute replacements, undone in reverse order when the ``with``
    block that holds them ends."""

    def __init__(self):
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def wrap(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class StepClock:
    """Per-step wall times taken from boundaries the program's public
    functions expose; no program file changes."""

    def __init__(self):
        self.steps: list[float] = []
        self._last = 0.0

    def mark(self):
        self._last = perf_counter()

    def _step_done(self):
        now = perf_counter()
        self.steps.append(now - self._last)
        self._last = now

    @contextlib.contextmanager
    def installed(self, kind: str):
        def after(fn, then):
            def hooked(*a, **k):
                out = fn(*a, **k)
                then()
                return out
            return hooked

        with Patches() as p:
            if kind == "train":
                p.wrap(training, "gen_sparse_task", lambda f: after(f, self.mark))
                p.wrap(training, "evaluate", lambda f: after(f, self.mark))
                p.wrap(training, "adamw_step", lambda f: after(f, self._step_done))
            else:
                p.wrap(network.ResampleNetwork, "predict", lambda f: after(f, self._step_done))
            yield self


class Tracer:
    """In-memory span recorder with per-layer roll-ups."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._layer = ["network"]
        self.counts = {"rows_out": 0, "scan_rows": 0, "tape_nodes": 0}
        self.summed: dict[str, list] = {}  # name -> [calls, seconds]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, layer: bool = False):
        nid = self._id(name)
        names, parent, start, end, open_ = self.name, self.parent, self.start, self.end, self._open
        layers = self._layer

        def traced(*a, **k):
            i = len(start)
            names.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            if layer:
                layers.append(name)
            start.append(perf_counter())
            try:
                return fn(*a, **k)
            finally:
                end[i] = perf_counter()
                open_.pop()
                if layer:
                    layers.pop()
        return traced

    def _record(self, fn):
        """custom_op: add up the bookkeeping time, then charge the node's
        backward rule to the innermost open layer.  These run hundreds of
        times per example, so they are summed rather than kept as spans."""
        rec = self.summed.setdefault("autodiff.record", [0, 0.0])
        bwd = {lay: self.summed.setdefault("bwd." + lay, [0, 0.0]) for lay in ("network",) + LAYERS}
        layers = self._layer

        def record(kind, value, pairs):
            t0 = perf_counter()
            t = fn(kind, value, pairs)
            rec[1] += perf_counter() - t0
            rec[0] += 1
            if t.node_id is not None:
                node = t.tape.nodes[t.node_id]
                node.vjp = self._timed_vjp(node.vjp, bwd[layers[-1]])
            return t
        return record

    @staticmethod
    def _timed_vjp(vjp, acc):
        def timed(g):
            t0 = perf_counter()
            out = vjp(g)
            acc[1] += perf_counter() - t0
            acc[0] += 1
            return out
        return timed

    def _counted(self, fn, key, size):
        counts = self.counts

        def counted(*a, **k):
            out = fn(*a, **k)
            counts[key] += size(a, out)
            return out
        return counted

    @contextlib.contextmanager
    def installed(self):
        span = self._span
        with Patches() as p:
            p.wrap(tasks, "gen_sparse_task", lambda f: span(f, "tasks.gen_sparse_task"))
            p.wrap(training, "gen_sparse_task", lambda f: span(f, "tasks.gen_sparse_task"))
            p.wrap(checkpoint, "load_checkpoint", lambda f: span(f, "checkpoint.load_checkpoint"))
            p.wrap(checkpoint, "save_checkpoint", lambda f: span(f, "checkpoint.save_checkpoint"))
            p.wrap(training, "evaluate", lambda f: span(f, "training.evaluate"))
            p.wrap(training, "clip_global_norm", lambda f: span(f, "training.optimizer"))
            p.wrap(training, "adamw_step", lambda f: span(f, "training.optimizer"))
            p.wrap(network.ResampleNetwork, "forward", lambda f: span(f, "network.forward"))
            p.wrap(network, "rmsnorm", lambda f: span(f, "network.norm", layer=True))
            p.wrap(network, "batchnorm", lambda f: span(f, "network.norm", layer=True))
            p.wrap(resample, "make_plan", lambda f: span(
                self._counted(f, "rows_out", lambda a, plan: plan.dst_len),
                "resample.make_plan", layer=True))
            p.wrap(resample, "compress_tracked", lambda f: span(f, "resample.compress", layer=True))
            p.wrap(resample, "decompress_tracked",
                   lambda f: span(f, "resample.decompress", layer=True))
            p.wrap(network, "ssm_scan", lambda f: span(
                self._counted(f, "scan_rows", lambda a, y: y.shape[0]),
                "selective.ssm_scan", layer=True))
            p.wrap(autodiff, "custom_op", self._record)
            p.wrap(autodiff.Tape, "backward", lambda f: span(
                self._counted(f, "tape_nodes", lambda a, _: len(a[0].nodes)), "autodiff.backward"))
            yield self

    # -- roll-ups -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def totals(self):
        """name -> (calls, inclusive seconds, seconds in direct children
        that are layers)."""
        name, parent, start, end = self.arrays()
        dur = end - start
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        layer_ids = [self._ids[x] for x in LAYERS if x in self._ids]
        is_layer_child = (parent >= 0) & np.isin(name, layer_ids)
        in_children = np.bincount(parent[is_layer_child], weights=dur[is_layer_child],
                                  minlength=len(dur))
        child_by_name = np.bincount(name, weights=in_children, minlength=n)
        out = {nm: (int(calls[i]), float(total[i]), float(child_by_name[i]))
               for i, nm in enumerate(self.names)}
        out.update((nm, (c, t, 0.0)) for nm, (c, t) in self.summed.items())
        return out

    def save(self, path: str, extra: dict):
        name, parent, start, end = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start - t0, end=end - t0,
                            summed_names=np.array(list(self.summed)),
                            summed=np.array(list(self.summed.values())), **extra)
