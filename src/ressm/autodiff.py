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
    "cumsum",
    "gather_rows",
    "tile_rows",
    "tile_cols",
    "reshape",
    "cross_entropy",
    "custom_op",
    "grad_check",
]


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
        if not np.all(np.isfinite(arr)):
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

    # Operator sugar; everything funnels into the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


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


def _common_tape(tensors) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise TapeError("operands live on different tapes")
    return tape


def custom_op(kind: str, value: np.ndarray, pairs) -> Tensor:
    """Record an op with hand-written backward rules.

    ``pairs`` is a sequence of ``(tensor, grad_fn)`` where ``grad_fn``
    maps the upstream gradient to that operand's gradient.  Untracked
    operands may be listed; they are skipped.  This is the extension
    point the scan and normalisation ops build on.
    """
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"non-finite result in op '{kind}'")
    tape = _common_tape([t for t, _ in pairs])
    tracked = [(t, fn) for t, fn in pairs if t.node_id is not None]
    if tape is None or not tracked:
        return Tensor._wrap(value.copy() if not value.flags.owndata else value, None, None)

    fns = tuple(fn for _, fn in tracked)

    def vjp(g, _fns=fns):
        return tuple(np.asarray(fn(g)) for fn in _fns)

    nid = tape._append(kind, tuple(t.node_id for t, _ in tracked), vjp)
    return Tensor._wrap(value.copy() if not value.flags.owndata else value, tape, nid)


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


def cumsum(a) -> Tensor:
    """Running sum of a 1-d tensor."""
    a = _lift(a)
    if a.ndim != 1:
        raise ShapeError(f"cumsum expects 1-d input, got {a.shape}")
    out = np.cumsum(a.data)
    return custom_op("cumsum", out, [(a, lambda g: np.cumsum(g[::-1])[::-1])])


def gather_rows(a, indices) -> Tensor:
    """Select axis-0 entries by integer index; backward scatter-adds."""
    a = _lift(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows expects a flat index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError("gather_rows index out of range")
    out = a.data[idx]

    def da(g):
        z = np.zeros(a.shape)
        np.add.at(z, idx, g)
        return z

    return custom_op("gather", out, [(a, da)])


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


def cross_entropy(logits, label: int) -> Tensor:
    """Negative log softmax probability of ``label``; scalar output.

    Gradient is softmax(logits) minus the one-hot label.
    """
    logits = _lift(logits)
    if logits.ndim != 1:
        raise ShapeError(f"cross_entropy expects 1-d logits, got {logits.shape}")
    n = logits.shape[0]
    if not (0 <= int(label) < n):
        raise ShapeError(f"label {label} out of range for {n} classes")
    label = int(label)
    x = logits.data
    m = np.max(x)
    lse = m + np.log(np.sum(np.exp(x - m)))
    out = np.asarray(lse - x[label])
    probs = np.exp(x - lse)

    def da(g):
        d = probs.copy()
        d[label] -= 1.0
        return d * np.sum(g)

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
