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
    "segments",
    "segment_lengths",
    "segment_layout",
    "padded",
    "packed",
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


def custom_op(kind: str, value: np.ndarray, pairs) -> Tensor:
    """Record an op with hand-written backward rules.

    ``pairs`` is a sequence of ``(tensor, grad_fn)`` where ``grad_fn``
    maps the upstream gradient to that operand's gradient.  Untracked
    operands may be listed; they are skipped.  A tensor may be listed
    more than once; its gradients then accumulate in the listed order.
    Every tape op records its node here.
    """
    value = np.asarray(value, dtype=np.float64)
    if not np.isfinite(value).all():
        raise NonFiniteError(f"non-finite result in op '{kind}'")
    if value.base is not None:  # a view: the result must own its memory
        value = value.copy()
    tape = None
    parents = []
    fns = []
    for t, fn in pairs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise TapeError("operands live on different tapes")
        if t.node_id is not None:
            parents.append(t.node_id)
            fns.append(fn)
    if not parents:
        return Tensor._wrap(value, None, None)

    def vjp(g, _fns=tuple(fns)):
        return tuple(np.asarray(fn(g)) for fn in _fns)

    return Tensor._wrap(value, tape, tape._append(kind, tuple(parents), vjp))


def fused_op(kind: str, forward, *operands) -> Tensor:
    """Record an op written as one numpy forward and one backward.

    ``forward`` takes the operands' arrays, in order, and returns
    ``(value, backward)``; ``backward`` maps the upstream gradient to a
    tuple of gradients, one per operand in the same order.  It runs once
    per upstream gradient, however many operands are tracked, and again
    after ``Tape.reset()``, since a new backward brings a new gradient.
    Operands that are not tensors are constants; untracked operands get
    no gradient, and one listed twice gets both its gradients, in order.
    The scan, selective layer, fixed-step convolution, normalisation and
    resampler ops are written this way.
    """
    tensors = [_lift(x) for x in operands]
    value, backward = forward(*(t.data for t in tensors))
    # custom_op asks for the tracked operands' gradients one by one, in
    # order; the tuple lives from the first ask to the last.
    tracked = [i for i, t in enumerate(tensors) if t.node_id is not None]
    memo = [None, None]

    def grad(g, i):
        if memo[0] is not g:
            memo[0], memo[1] = g, backward(g)
        out = memo[1][i]
        if i == tracked[-1]:
            memo[0] = memo[1] = None
        return out

    return custom_op(kind, value, [(t, lambda g, i=i: grad(g, i)) for i, t in enumerate(tensors)])


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
    return custom_op(
        "add",
        out,
        [(a, lambda g: _reduce_to(g, a.shape)), (b, lambda g: _reduce_to(g, b.shape))],
    )


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("sub", a, b)
    out = a.data - b.data
    return custom_op(
        "sub",
        out,
        [(a, lambda g: _reduce_to(g, a.shape)), (b, lambda g: _reduce_to(-g, b.shape))],
    )


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("mul", a, b)
    out = a.data * b.data
    return custom_op(
        "mul",
        out,
        [
            (a, lambda g: _reduce_to(g * b.data, a.shape)),
            (b, lambda g: _reduce_to(g * a.data, b.shape)),
        ],
    )


def exp(a) -> Tensor:
    a = _lift(a)
    with np.errstate(all="ignore"):  # overflow surfaces as NonFiniteError
        out = np.exp(a.data)
    return custom_op("exp", out, [(a, lambda g: g * out)])


def expm1(a) -> Tensor:
    """exp(x) - 1 on the stable path; exact near zero."""
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = np.expm1(a.data)
    return custom_op("expm1", out, [(a, lambda g: g * np.exp(a.data))])


def log1p(a) -> Tensor:
    """log(1 + x) on the stable path; exact near zero."""
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = np.log1p(a.data)
    return custom_op("log1p", out, [(a, lambda g: g / (1.0 + a.data))])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form avoids overflow of exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _lift(a)
    out = _sigmoid(np.asarray(a.data))
    return custom_op("sigmoid", out, [(a, lambda g: g * out * (1.0 - out))])


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a) -> Tensor:
    a = _lift(a)
    out = _softplus(np.asarray(a.data))
    return custom_op("softplus", out, [(a, lambda g: g * _sigmoid(np.asarray(a.data)))])


def neg(a) -> Tensor:
    a = _lift(a)
    return custom_op("neg", -a.data, [(a, lambda g: -g)])


def recip(a) -> Tensor:
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = 1.0 / a.data
    return custom_op("recip", out, [(a, lambda g: -g * out * out)])


def sqrt(a) -> Tensor:
    a = _lift(a)
    with np.errstate(all="ignore"):
        out = np.sqrt(a.data)
    return custom_op("sqrt", out, [(a, lambda g: g * 0.5 / out)])


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
    return custom_op(
        "matmul",
        out,
        [(a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)],
    )


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero parts")
    nd = parts[0].ndim
    for p in parts:
        if p.ndim != nd:
            raise ShapeError("concat parts differ in rank")
        for ax in range(nd):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise ShapeError(f"concat extent mismatch on axis {ax}: {p.shape} vs {parts[0].shape}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def part_grad(i):
        lo, hi = offsets[i], offsets[i + 1]

        def fn(g, lo=lo, hi=hi):
            idx = [slice(None)] * nd
            idx[axis] = slice(lo, hi)
            return g[tuple(idx)]

        return fn

    return custom_op("concat", out, [(p, part_grad(i)) for i, p in enumerate(parts)])


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
        return z

    return custom_op("slice", out, [(a, da)])


def reduce_sum(a, axis=None) -> Tensor:
    a = _lift(a)
    out = np.sum(a.data, axis=axis)

    def da(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), a.shape).copy()

    return custom_op("sum", out, [(a, da)])


def reduce_mean(a, axis=None) -> Tensor:
    a = _lift(a)
    out = np.mean(a.data, axis=axis)
    count = a.size if axis is None else a.shape[axis]

    def da(g):
        if axis is None:
            return np.broadcast_to(g / count, a.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis) / count, a.shape).copy()

    return custom_op("mean", out, [(a, da)])


def reduce_max(a, axis=None) -> Tensor:
    """Max reduction; the gradient routes to the first max along the axis."""
    a = _lift(a)
    out = np.max(a.data, axis=axis)
    if axis is None:
        flat_arg = int(np.argmax(a.data))

        def da(g):
            z = np.zeros(a.shape)
            z.flat[flat_arg] = np.sum(g)
            return z

    else:
        arg = np.argmax(a.data, axis=axis)

        def da(g):
            z = np.zeros(a.shape)
            np.put_along_axis(z, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
            return z

    return custom_op("max", out, [(a, da)])


_REDUCE = {"sum": reduce_sum, "mean": reduce_mean, "max": reduce_max}


def reduce(kind: str, a, axis=None) -> Tensor:
    if kind not in _REDUCE:
        raise ValueError(f"unknown reduce kind '{kind}'")
    return _REDUCE[kind](a, axis=axis)


def segments(starts, n: int) -> list[tuple[int, int]]:
    """(start, stop) of each segment of ``n`` rows packed end to end,
    given the segments' start rows (see ``segment_lengths``)."""
    segment_lengths(starts, n)
    return list(zip(starts, [*starts[1:], n]))


def segment_lengths(starts, n: int) -> np.ndarray:
    """Lengths [S] of the segments of ``n`` rows packed end to end, given
    the segments' start rows: the first is 0, each later one is greater
    than the one before, and every segment is non-empty."""
    bounds = np.array([*starts, n], dtype=np.intp)
    lengths = bounds[1:] - bounds[:-1]
    if len(starts) == 0 or starts[0] != 0 or lengths.min() < 1:
        raise ShapeError(f"segment starts {list(starts)} do not split {n} rows")
    return lengths


def segment_layout(starts, n: int):
    """``segment_lengths``, and the [S, Lmax] mask of the padded layout
    that puts segment s in row s, its rows first.  Boolean indexing runs
    in row order, so ``padded[mask] = rows`` lays the packed rows out
    and ``padded[mask]`` packs them back."""
    lengths = segment_lengths(starts, n)
    return lengths, np.arange(lengths.max()) < lengths[:, None]


def padded(rows, mask, fill):
    """``rows`` packed as ``mask`` says (``segment_layout``), laid out in
    its padded layout with ``fill`` around them.  With no padding (every
    segment as long as the longest) that is ``rows`` reshaped, a view."""
    shape = mask.shape + rows.shape[1:]
    if len(rows) == mask.size:
        return rows.reshape(shape)
    out = np.full(shape, fill)
    out[mask] = rows
    return out


def packed(layout, mask):
    """The rows of a padded ``layout`` (``padded``), packed end to end."""
    if mask[:, -1].all():  # no padding
        return layout.reshape((-1,) + layout.shape[2:])
    return layout[mask]


def segment_mean(a, starts) -> Tensor:
    """Mean over the rows of each segment of [R, ...]: one output row per
    segment start (see ``segments``), all summed at once in the padded
    layout (``segment_layout``) with -0.0 pads, which change no sum.
    Rows of two or more entries are summed one after another, as
    ``np.mean`` sums them, so each mean is the segment's own
    ``reduce_mean``, bit for bit.  Rows of one entry numpy sums pairwise
    in blocks set by the padded length: there a segment shorter than the
    longest agrees with its own mean to rounding only."""
    a = _lift(a)
    counts, mask = segment_layout(starts, a.shape[0])
    per_row = counts.reshape((-1,) + (1,) * (a.ndim - 1))
    out = padded(a.data, mask, -0.0).sum(axis=1) / per_row
    return custom_op("segment_mean", out,
                     [(a, lambda g: np.repeat(g / per_row, counts, axis=0))])


def _segment_cumsum(x, mask):
    """One running sum per segment of the packed 1-d ``x``: ``np.cumsum``
    along each row of the zero-padded layout, which adds in order, one
    entry after another, so each segment gets the bits of its own
    ``np.cumsum``."""
    return packed(np.cumsum(padded(x, mask, 0.0), axis=1), mask)


def cumsum(a, starts=(0,)) -> Tensor:
    """Running sum of a 1-d tensor, restarted at each segment start (see
    ``segments``); each segment gets its own ``np.cumsum``'s bits.  The
    backward is the running sum of the reversed gradient: reversed, the
    packed rows are the segments in reverse order, each reversed, whose
    layout is the mask's rows in reverse order."""
    a = _lift(a)
    if a.ndim != 1:
        raise ShapeError(f"cumsum expects 1-d input, got {a.shape}")
    _, mask = segment_layout(starts, a.shape[0])
    return custom_op("cumsum", _segment_cumsum(a.data, mask),
                     [(a, lambda g: _segment_cumsum(g[::-1], mask[::-1])[::-1])])


def gather_rows(a, indices) -> Tensor:
    """Select axis-0 entries by integer index; backward scatter-adds."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a flat index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("gather_rows index out of range")
    out = a.data[idx]
    return custom_op("gather", out, [(a, lambda g: scatter_add(idx, g, a.shape[0]))])


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
    return custom_op("tile_rows", out, [(v, lambda g: g.sum(axis=0))])


def tile_cols(v, reps: int) -> Tensor:
    """Repeat a 1-d tensor as columns of a matrix; backward sums columns."""
    v = _lift(v)
    if v.ndim != 1:
        raise ShapeError(f"tile_cols expects 1-d input, got {v.shape}")
    out = np.tile(v.data[:, None], (1, reps))
    return custom_op("tile_cols", out, [(v, lambda g: g.sum(axis=1))])


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out = np.reshape(a.data, shape)
    return custom_op("reshape", out, [(a, lambda g: np.reshape(g, a.shape))])


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
        return (d * np.sum(g)).reshape(logits.shape)

    return custom_op("cross_entropy", out, [(logits, da)])


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
