"""Dense float64 tensors with dynamic reverse-mode differentiation.

Everything else in the package computes on these. A ``Tensor`` wraps an
immutable numpy array; when an input is attached to a ``Tape``, every op
appends a node carrying the backward rule, and ``Tape.backward`` replays
the nodes in reverse to accumulate gradients.

Design constraints honoured throughout:

* float64 only (the linearity verifier needs ~1e-9 headroom),
* NaN/Inf anywhere is an immediate error, never a silent value,
* broadcasting is restricted to scalar-vs-tensor so every gradient rule
  stays auditable,
* a tape is single-use: one forward, one backward, then ``reset()``,
  or ``release()`` once the gradients have been read.
"""

from __future__ import annotations

import ctypes
import functools
import platform

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Node",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "constant",
    "elementwise",
    "add",
    "sub",
    "mul",
    "exp",
    "expm1",
    "log1p",
    "sigmoid",
    "softplus",
    "neg",
    "recip",
    "sqrt",
    "matmul",
    "concat",
    "slice_along",
    "reduce",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "Segments",
    "segment_mean",
    "cumsum",
    "gather_rows",
    "scatter_add",
    "tile_rows",
    "tile_cols",
    "reshape",
    "cross_entropy",
    "custom_op",
    "fused_op",
    "grad_check",
]

# Every op writes fresh temporaries of a few hundred KB.  By default glibc
# serves blocks that size by mmap, or trims them off the heap top once
# freed, so each call faults its pages in again.  Raising both thresholds
# to glibc's 64-bit mmap ceiling (which also turns off its dynamic mmap
# threshold) keeps freed arrays in the heap for the next op; RSS then no
# longer falls after a peak, but the peak itself is the same.  This is
# process-wide allocator policy, set once on import, like numpy's own
# hugepage madvise.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from glibc's <malloc.h>
_HEAP_KEEP_BYTES = 32 << 20


def _keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds.  Returns False off glibc,
    where nothing is looked up, or when ``mallopt`` refuses a value."""
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, _HEAP_KEEP_BYTES) == 1
               for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD))


_keep_freed_memory()


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NonFiniteError(FloatingPointError):
    """A tensor value or op result is NaN or infinite."""


class TapeError(RuntimeError):
    """Tape misuse: cross-tape ops, double backward, missing backward."""


class Node:
    """One recorded op: kind, tracked-parent ids, and the backward rule.

    ``vjp`` maps the upstream gradient to a tuple of gradients aligned
    with ``parents``; it is None for leaves.
    """

    __slots__ = ("kind", "parents", "vjp")

    def __init__(self, kind, parents, vjp):
        self.kind = kind
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """Immutable float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, values, tape=None, node_id=None):
        arr = np.array(values, dtype=np.float64)  # defensive copy
        if not np.isfinite(arr).all():
            raise NonFiniteError("non-finite value in tensor construction")
        arr.flags.writeable = False
        self.data = arr
        self.tape = tape
        self.node_id = node_id

    @classmethod
    def _wrap(cls, arr: np.ndarray, tape, node_id) -> "Tensor":
        # Internal fast path: arr is freshly allocated, finiteness already checked.
        t = object.__new__(cls)
        arr.flags.writeable = False
        t.data = arr
        t.tape = tape
        t.node_id = node_id
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tracked = f", node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}{tracked})"


def constant(values) -> Tensor:
    """An untracked tensor."""
    return Tensor(values)


class Tape:
    """Append-only op record for one forward/backward cycle.

    Single-writer: one forward pass and one ``backward`` per tape.  A
    second ``backward`` without ``reset()`` is an error so gradients can
    never silently accumulate across calls.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.grads: list | None = None

    def leaf(self, values) -> Tensor:
        """Register an input to be differentiated against."""
        t = Tensor(values, tape=self, node_id=len(self.nodes))
        self.nodes.append(Node("leaf", (), None))
        return t

    def _append(self, kind, parents, vjp) -> int:
        self.nodes.append(Node(kind, parents, vjp))
        return len(self.nodes) - 1

    def backward(self, root: Tensor) -> None:
        """Accumulate gradients of a scalar ``root`` into every ancestor."""
        if self.grads is not None:
            raise TapeError("backward already ran on this tape; call reset() first")
        if root.tape is not self or root.node_id is None:
            raise TapeError("root is not tracked on this tape")
        if root.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
        grads: list = [None] * len(self.nodes)
        grads[root.node_id] = np.ones(root.shape)
        for nid in range(root.node_id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            if node.vjp is None:
                continue
            for pid, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                # Accumulation always reassigns, never mutates in place, so
                # aliasing a saved array here is harmless.
                grads[pid] = pg if grads[pid] is None else grads[pid] + pg
        self.grads = grads

    def grad(self, tensor: Tensor) -> np.ndarray:
        """Gradient of the last backward root w.r.t. ``tensor``.

        Non-ancestors of the root read as zeros.
        """
        if self.grads is None:
            raise TapeError("backward has not run on this tape")
        if tensor.tape is not self or tensor.node_id is None:
            raise TapeError("tensor is not tracked on this tape")
        g = self.grads[tensor.node_id]
        if g is None:
            return np.zeros(tensor.shape)
        return np.reshape(g, tensor.shape)

    def reset(self) -> None:
        """Clear gradients so the tape may run backward again."""
        self.grads = None

    def release(self) -> None:
        """End the tape's life once its gradients have been read.

        Tracked tensors point at their tape and the nodes' backward rules
        hold those tensors, so a tape is a reference cycle.  Dropping the
        nodes breaks it, and the tape is freed with the caller's last
        tensor instead of at the next cyclic collection.
        """
        self.nodes = []
        self.grads = None


# ---------------------------------------------------------------------------
# op plumbing


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def custom_op(kind: str, value: np.ndarray, rule) -> Tensor:
    """Record an op with a hand-written backward rule.

    ``rule`` is ``(operands, backward)``: ``backward`` maps the upstream
    gradient to a tuple of gradients, one per operand in order.  It runs
    once per upstream gradient, and again after ``Tape.reset()``, since
    a new backward brings a new gradient.  Untracked operands may be
    listed; their entries are dropped.  A tensor may be listed more than
    once; its gradients then accumulate in the listed order.  Every tape
    op records its node here.
    """
    value = np.asarray(value, dtype=np.float64)
    if not np.isfinite(value).all():
        raise NonFiniteError(f"non-finite result in op '{kind}'")
    if value.base is not None:  # a view: the result must own its memory
        value = value.copy()
    operands, backward = rule
    tracked = [i for i, t in enumerate(operands) if t.node_id is not None]
    if not tracked:
        return Tensor._wrap(value, None, None)
    tape = operands[tracked[0]].tape
    if len({operands[i].tape for i in tracked}) > 1:
        raise TapeError("operands live on different tapes")
    parents = tuple([operands[i].node_id for i in tracked])

    def vjp(g):
        grads = backward(g)
        return tuple(grads[i] for i in tracked)

    return Tensor._wrap(value, tape, tape._append(kind, parents, vjp))


def fused_op(kind: str, forward, *operands) -> Tensor:
    """Record an op written as one numpy forward and one backward.

    ``forward`` takes the operands' arrays, in order, and returns
    ``(value, backward)``, with ``backward`` as ``custom_op`` takes it.
    Operands that are not tensors are constants.  The scan, selective
    layer, fixed-step convolution, normalisation and resampler ops are
    written this way.
    """
    tensors = [_lift(x) for x in operands]
    value, backward = forward(*(t.data for t in tensors))
    return custom_op(kind, value, (tensors, backward))


def _scalar_like(t: Tensor) -> bool:
    return t.size == 1


def _check_binary(kind, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or _scalar_like(a) or _scalar_like(b):
        return
    raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} are neither equal nor scalar-broadcast")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    return np.reshape(np.sum(g), shape) if int(np.prod(shape, dtype=int)) == 1 else np.reshape(g, shape)


# ---------------------------------------------------------------------------
# elementwise ops

_BINARY_KINDS = {"add", "sub", "mul"}


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("add", a, b)
    out = a.data + b.data
    return custom_op("add", out, ((a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape))))


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("sub", a, b)
    out = a.data - b.data
    return custom_op("sub", out, ((a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape))))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("mul", a, b)
    out = a.data * b.data
    return custom_op("mul", out, ((a, b), lambda g: (_reduce_to(g * b.data, a.shape),
                                                     _reduce_to(g * a.data, b.shape))))


def exp(a) -> Tensor:
    a = _lift(a)
    with np.errstate(all="ignore"):  # overflow surfaces as NonFiniteError
        out = np.exp(a.data)
    return custom_op("exp", out, ((a,), lambda g: (g * out,)))


def expm1(a) -> Tensor:
    """exp(x) - 1 on the stable path; exact near zero."""
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = np.expm1(a.data)
    return custom_op("expm1", out, ((a,), lambda g: (g * np.exp(a.data),)))


def log1p(a) -> Tensor:
    """log(1 + x) on the stable path; exact near zero."""
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = np.log1p(a.data)
    return custom_op("log1p", out, ((a,), lambda g: (g / (1.0 + a.data),)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, bit for bit,
    # without masks: neither exp takes a positive argument, so none
    # overflows.
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(a) -> Tensor:
    a = _lift(a)
    out = _sigmoid(np.asarray(a.data))
    return custom_op("sigmoid", out, ((a,), lambda g: (g * out * (1.0 - out),)))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a) -> Tensor:
    a = _lift(a)
    out = _softplus(np.asarray(a.data))
    return custom_op("softplus", out, ((a,), lambda g: (g * _sigmoid(np.asarray(a.data)),)))


def neg(a) -> Tensor:
    a = _lift(a)
    return custom_op("neg", -a.data, ((a,), lambda g: (-g,)))


def recip(a) -> Tensor:
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = 1.0 / a.data
    return custom_op("recip", out, ((a,), lambda g: (-g * out * out,)))


def sqrt(a) -> Tensor:
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = np.sqrt(a.data)
    return custom_op("sqrt", out, ((a,), lambda g: (g * 0.5 / out,)))


_ELEMENTWISE = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "exp": exp,
    "expm1": expm1,
    "log1p": log1p,
    "sigmoid": sigmoid,
    "softplus": softplus,
    "neg": neg,
    "recip": recip,
    "sqrt": sqrt,
}


def elementwise(kind: str, a, b=None) -> Tensor:
    """Dispatch an elementwise op by name."""
    if kind not in _ELEMENTWISE:
        raise ValueError(f"unknown elementwise kind '{kind}'")
    if kind in _BINARY_KINDS:
        if b is None:
            raise ShapeError(f"'{kind}' needs two operands")
        return _ELEMENTWISE[kind](a, b)
    if b is not None:
        raise ShapeError(f"'{kind}' is unary")
    return _ELEMENTWISE[kind](a)


# ---------------------------------------------------------------------------
# structured ops


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data
    return custom_op("matmul", out, ((a, b), lambda g: (g @ b.data.T, a.data.T @ g)))


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero parts")
    nd = parts[0].ndim
    if not (0 <= axis < nd):
        raise ShapeError(f"concat axis {axis} out of range for shape {parts[0].shape}")
    for p in parts:
        if p.ndim != nd:
            raise ShapeError("concat parts differ in rank")
        for ax in range(nd):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise ShapeError(f"concat extent mismatch on axis {ax}: {p.shape} vs {parts[0].shape}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    cuts = np.cumsum([p.shape[axis] for p in parts[:-1]])
    return custom_op("concat", out, (parts, lambda g: np.split(g, cuts, axis=axis)))


def slice_along(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice on one axis; the gradient scatters back zero-padded."""
    a = _lift(a)
    if not (0 <= axis < a.ndim):
        raise ShapeError(f"slice axis {axis} out of range for shape {a.shape}")
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] out of range on axis {axis} of {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    out = a.data[tuple(idx)]

    def da(g):
        z = np.zeros(a.shape)
        z[tuple(idx)] = g
        return (z,)

    return custom_op("slice", out, ((a,), da))


def reduce_sum(a, axis=None) -> Tensor:
    a = _lift(a)
    out = np.sum(a.data, axis=axis)

    def da(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return custom_op("sum", out, ((a,), da))


def reduce_mean(a, axis=None) -> Tensor:
    a = _lift(a)
    out = np.mean(a.data, axis=axis)
    count = a.size if axis is None else a.shape[axis]

    def da(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return custom_op("mean", out, ((a,), da))


def reduce_max(a, axis=None) -> Tensor:
    """Max reduction; the gradient routes to the first max along the axis."""
    a = _lift(a)
    out = np.max(a.data, axis=axis)
    if axis is None:
        flat_arg = int(np.argmax(a.data))

        def da(g):
            z = np.zeros(a.shape)
            z.flat[flat_arg] = np.sum(g)
            return (z,)

    else:
        arg = np.argmax(a.data, axis=axis)

        def da(g):
            z = np.zeros(a.shape)
            np.put_along_axis(z, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
            return (z,)

    return custom_op("max", out, ((a,), da))


_REDUCE = {"sum": reduce_sum, "mean": reduce_mean, "max": reduce_max}


def reduce(kind: str, a, axis=None) -> Tensor:
    if kind not in _REDUCE:
        raise ValueError(f"unknown reduce kind '{kind}'")
    return _REDUCE[kind](a, axis=axis)


class Segments:
    """Sequences packed end to end along a row axis, the layout of
    FlashAttention-2's varlen path and Mamba-2's ``seq_idx``, checked
    once, here; every segmented op reads it as it is.  ``starts`` [S]
    holds each one's first row: integers, the first 0, each greater than
    the one before, the last below ``rows``.  ``lengths`` [S] counts each
    one's rows and ``longest`` the longest's.  ``mask`` [S, longest] is
    the padded layout that puts segment s in row s, its rows first;
    boolean indexing runs in row order, so ``padded`` lays the packed
    rows out and ``packed`` packs them back."""

    def __init__(self, starts, rows: int):
        def bad(what):
            return ShapeError(f"segment starts {starts!r} of {rows!r} rows are {what}")

        if isinstance(starts, np.ndarray):  # taken as it is, not entry by entry
            if starts.ndim != 1:
                raise bad("not one flat sequence")
            if starts.dtype.kind not in "iu":
                raise bad("not integers")
            bounds = np.concatenate((starts, [rows]))
        else:
            try:
                bounds = np.array([*starts, rows])
            except ValueError:  # a nested entry, which numpy cannot stack with rows
                raise bad("not one flat sequence") from None
            if {bool, np.bool_} & set(map(type, starts)):  # numpy reads them as 1 and 0
                raise bad("not integers")
        if bounds.dtype.kind not in "iu":
            raise bad("not integers")
        bounds = bounds.astype(np.intp, copy=False)
        self.starts, self.lengths, self.rows = bounds[:-1], bounds[1:] - bounds[:-1], int(rows)
        if len(bounds) < 2 or bounds[0] != 0 or self.lengths.min() < 1:
            raise bad("not a split of them")
        self.longest = int(self.lengths.max())
        self.starts.flags.writeable = self.lengths.flags.writeable = False

    @classmethod
    def check(cls, segs, rows: int) -> "Segments":
        """``segs``, checked to split ``rows`` rows; None is one segment."""
        if segs is None:
            return cls((0,), rows)
        if segs.rows != rows:
            raise ShapeError(f"segments of {segs.rows} rows handed {rows} rows")
        return segs

    def __len__(self) -> int:
        return len(self.starts)

    @functools.cached_property
    def mask(self) -> np.ndarray:
        return np.arange(self.longest) < self.lengths[:, None]

    def padded(self, rows, fill):
        """Packed ``rows`` [R, ...] laid out [S, longest, ...], ``fill``
        around them; with no padding, ``rows`` reshaped, a view."""
        shape = (len(self), self.longest) + rows.shape[1:]
        if self.rows == shape[0] * shape[1]:
            return rows.reshape(shape)
        out = np.full(shape, fill)
        out[self.mask] = rows
        return out

    def packed(self, layout):
        """The rows of a padded ``layout``, packed end to end."""
        if self.rows == layout.shape[0] * layout.shape[1]:
            return layout.reshape((-1,) + layout.shape[2:])
        return layout[self.mask]


def segment_mean(a, segs=None) -> Tensor:
    """Mean over the rows of each segment of [R, ...] (``Segments``; None
    is one segment): one output row per segment, all summed at once in
    the padded layout with -0.0 pads, which change no sum.  Rows of two
    or more entries are summed one after another, as ``np.mean`` sums
    them, so each mean is the segment's own ``reduce_mean``, bit for
    bit.  Rows of one entry numpy sums pairwise in blocks set by the
    padded length: there a segment shorter than the longest agrees with
    its own mean to rounding only."""
    a = _lift(a)
    segs = Segments.check(segs, a.shape[0])
    per_row = segs.lengths.reshape((-1,) + (1,) * (a.ndim - 1))
    out = segs.padded(a.data, -0.0).sum(axis=1) / per_row
    return custom_op("segment_mean", out,
                     ((a,), lambda g: (np.repeat(g / per_row, segs.lengths, axis=0),)))


def cumsum(a, segs=None) -> Tensor:
    """Running sum of a 1-d tensor, restarted at each segment (``Segments``;
    None is one segment).  ``np.cumsum`` runs along each row of the
    padded layout and adds in order, one entry after another, so each
    segment gets the bits of its own ``np.cumsum``.  The backward is the
    running sum of each padded row of the gradient reversed, its -0.0
    pads first, which change no entry."""
    a = _lift(a)
    if a.ndim != 1:
        raise ShapeError(f"cumsum expects 1-d input, got {a.shape}")
    segs = Segments.check(segs, a.shape[0])

    def da(g):
        return (segs.packed(np.cumsum(segs.padded(g, -0.0)[:, ::-1], axis=1)[:, ::-1]),)

    return custom_op("cumsum", segs.packed(np.cumsum(segs.padded(a.data, 0.0), axis=1)),
                     ((a,), da))


def gather_rows(a, indices) -> Tensor:
    """Select axis-0 entries by integer index; backward scatter-adds."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a flat index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("gather_rows index out of range")
    out = a.data[idx]
    return custom_op("gather", out, ((a,), lambda g: (scatter_add(idx, g, a.shape[0]),)))


def scatter_add(indices, values, n: int) -> np.ndarray:
    """Rows of ``values`` summed into ``n`` rows by index: what
    ``np.add.at`` on zeros gives, bit for bit, since ``np.bincount`` also
    adds in input order, but one pass rather than one call per entry.

    ``indices`` is a flat array of row numbers in [0, n); ``values`` has
    one row (of any trailing shape) per index.
    """
    values = np.asarray(values, dtype=np.float64)
    tail = values.shape[1:]
    cols = int(np.prod(tail))
    flat = (np.asarray(indices, dtype=np.intp)[:, None] * cols + np.arange(cols)).reshape(-1)
    out = np.bincount(flat, weights=values.reshape(-1), minlength=n * cols)
    return out.reshape((n,) + tail)


def tile_rows(v, reps: int) -> Tensor:
    """Repeat a 1-d tensor as rows of a matrix; backward sums rows."""
    v = _lift(v)
    if v.ndim != 1:
        raise ShapeError(f"tile_rows expects 1-d input, got {v.shape}")
    out = np.tile(v.data, (reps, 1))
    return custom_op("tile_rows", out, ((v,), lambda g: (g.sum(axis=0),)))


def tile_cols(v, reps: int) -> Tensor:
    """Repeat a 1-d tensor as columns of a matrix; backward sums columns."""
    v = _lift(v)
    if v.ndim != 1:
        raise ShapeError(f"tile_cols expects 1-d input, got {v.shape}")
    out = np.tile(v.data[:, None], (1, reps))
    return custom_op("tile_cols", out, ((v,), lambda g: (g.sum(axis=1),)))


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out = np.reshape(a.data, shape)
    return custom_op("reshape", out, ((a,), lambda g: (np.reshape(g, a.shape),)))


def cross_entropy(logits, label) -> Tensor:
    """Negative log softmax probability of ``label``; scalar output.

    ``logits`` is [C] with an int label, or [G, C] rows with G labels,
    whose losses are summed.  Gradient is softmax(logits) minus the
    one-hot labels.
    """
    logits = _lift(logits)
    if logits.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy expects [C] or [G, C] logits, got {logits.shape}")
    x = logits.data.reshape(-1, logits.shape[-1])
    n = x.shape[1]
    labels = np.asarray(label, dtype=np.intp).reshape(-1)
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"{labels.size} labels for {x.shape[0]} rows of logits")
    if labels.min() < 0 or labels.max() >= n:
        raise ShapeError(f"label {label} out of range for {n} classes")
    rows = np.arange(x.shape[0])
    m = np.max(x, axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))
    out = np.asarray(np.sum(lse[:, 0] - x[rows, labels]))
    probs = np.exp(x - lse)

    def da(g):
        d = probs.copy()
        d[rows, labels] -= 1.0
        return ((d * np.sum(g)).reshape(logits.shape),)

    return custom_op("cross_entropy", out, ((logits,), da))


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(f, x, h: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central differences.

    ``f`` maps a Tensor to a scalar Tensor.  For each coordinate the
    numeric derivative is (f(x+h e) - f(x-h e)) / 2h and the error is
    |analytic - numeric| / (|analytic| + 1e-8).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    tape = Tape()
    xt = tape.leaf(x)
    y = f(xt)
    if y.size != 1:
        raise ShapeError("grad_check target must be scalar")
    tape.backward(y)
    analytic = tape.grad(xt)

    worst = 0.0
    flat = x.reshape(-1)
    for i in range(flat.size):
        hp = flat.copy()
        hm = flat.copy()
        hp[i] += h
        hm[i] -= h
        fp = f(constant(hp.reshape(x.shape))).item()
        fm = f(constant(hm.reshape(x.shape))).item()
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError("non-finite probe in grad_check")
        numeric = (fp - fm) / (2.0 * h)
        a = analytic.reshape(-1)[i]
        worst = max(worst, abs(a - numeric) / (abs(a) + 1e-8))
    return worst
