"""Multi-rate blocks and full network assembly.

A block splits the channels across branches, each branch optionally
compresses its slice through a resampler, runs a bank of diagonal SSMs
over the (possibly shorter) sequence, copies the result back to full
length, and the branch outputs are concatenated and added to the input.
Blocks are stacked directly, with no interleaved linear layers, since
the resampling step already mixes features linearly.

A forward pass runs one sequence or a ``Packed`` group of them,
concatenated along the row axis with each one's start row, the layout
of FlashAttention-2's varlen path and Mamba-2's ``seq_idx``.  Per-row
ops run on the whole group at once; routing, cumulative times, the scan
state and pooling restart at each sequence's start.

Weights live in a flat name -> array dict so the optimizer and the
checkpoint format stay trivial.  A forward pass binds each array to the
tape at most once; gradients are read back per name after backward.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import resample as rs
from .config import require_ints
# No layer here calls ssm_scan any more, but the benchmark's tracer wraps
# this name, so it stays until the benchmark times the SSM layers at a
# seam of their own (ROADMAP direction 1).
from .selective import fixed_step_conv, selective_layer, ssm_scan  # noqa: F401
from .ssm import diag_init

__all__ = [
    "BranchSpec",
    "BlockSpec",
    "NetworkSpec",
    "ResampleNetwork",
    "Packed",
    "weight_layout",
    "rmsnorm",
    "batchnorm",
    "softplus_inv",
    "classification_preset",
]

RMSNORM_EPS = 1e-8
BATCHNORM_EPS = 1e-12
BATCHNORM_MOMENTUM = 0.1


def softplus_inv(y: float) -> float:
    """Preimage of softplus; log(e^y - 1)."""
    if y <= 0:
        raise ValueError("softplus is positive")
    return float(np.log(np.expm1(y)))


@dataclass
class BranchSpec:
    """One branch of a block.  kappa None means the base branch: no
    resampling, a plain fixed-step SSM over the full sequence."""

    kappa: float | None
    n_state: int = 4
    window_k: int = 4
    basis_g: int = 8
    selective: bool | None = None  # default: selective iff resampled

    def __post_init__(self):
        # Spec messages start with the field name, which the CLI prefixes
        # with "model." to name the config key.
        if self.kappa is not None and not (0.0 < self.kappa <= 1.0):
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")
        require_ints(self, ("n_state", "window_k", "basis_g"))
        for name in ("n_state", "window_k", "basis_g"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.selective is None:
            self.selective = self.kappa is not None


@dataclass
class BlockSpec:
    branches: list[BranchSpec]
    norm_kind: str = "rmsnorm"  # rmsnorm | batchnorm | none
    norm_position: str = "pre"  # pre | post_skip

    def __post_init__(self):
        if not self.branches:
            raise ValueError("branches must hold at least one branch")
        if self.norm_kind not in ("rmsnorm", "batchnorm", "none"):
            raise ValueError(f"norm_kind must be rmsnorm, batchnorm or none, got '{self.norm_kind}'")
        if self.norm_position not in ("pre", "post_skip"):
            raise ValueError(f"norm_position must be pre or post_skip, got '{self.norm_position}'")


@dataclass
class NetworkSpec:
    """Architecture description; enough to rebuild a model from a
    checkpoint.  Token models set vocab_size, feature models input_dim.
    ``head_kind`` has one value, "classification"; checkpoints record it."""

    depth: int
    h_dim: int
    block: BlockSpec
    head_kind: str = "classification"
    n_classes: int | None = None
    vocab_size: int | None = None
    input_dim: int | None = None
    pooling: str = "mean"  # mean | last

    def __post_init__(self):
        require_ints(self, ("depth", "h_dim", "n_classes", "vocab_size", "input_dim"))
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.h_dim < len(self.block.branches):
            raise ValueError(f"h_dim must be at least the number of branches, got {self.h_dim}")
        if self.head_kind != "classification":
            raise ValueError(f"head_kind must be classification, the one head kind, "
                             f"got '{self.head_kind}'")
        if self.pooling not in ("mean", "last"):
            raise ValueError(f"pooling must be mean or last, got '{self.pooling}'")
        if (self.vocab_size is None) == (self.input_dim is None):
            raise ValueError("vocab_size or input_dim must be set, not both")
        if not self.n_classes:
            raise ValueError("n_classes must be set for the classification head")

    def branch_widths(self) -> list[int]:
        """Even channel split; the remainder goes to the first branch."""
        n = len(self.block.branches)
        base = self.h_dim // n
        widths = [base] * n
        widths[0] += self.h_dim - base * n
        return widths

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        block = BlockSpec(
            branches=[BranchSpec(**b) for b in d["block"]["branches"]],
            norm_kind=d["block"]["norm_kind"],
            norm_position=d["block"]["norm_position"],
        )
        return cls(
            depth=d["depth"],
            h_dim=d["h_dim"],
            block=block,
            head_kind=d["head_kind"],
            n_classes=d["n_classes"],
            vocab_size=d["vocab_size"],
            input_dim=d["input_dim"],
            pooling=d["pooling"],
        )


def classification_preset(depth: int, n_classes: int, vocab_size: int | None = None,
                          input_dim: int | None = None, h_dim: int = 192,
                          compressions: tuple = (0.5, 0.2), window_k: int = 5,
                          n_state: int = 4, basis_g: int = 8) -> NetworkSpec:
    """Sequence-classification defaults: a base branch plus compressed
    branches, batch normalisation after the skip, mean pooling."""
    branches = [BranchSpec(kappa=None, n_state=n_state, window_k=window_k, basis_g=basis_g)]
    branches += [BranchSpec(kappa=k, n_state=n_state, window_k=window_k, basis_g=basis_g)
                 for k in compressions]
    return NetworkSpec(
        depth=depth, h_dim=h_dim,
        block=BlockSpec(branches=branches, norm_kind="batchnorm", norm_position="post_skip"),
        head_kind="classification", n_classes=n_classes,
        vocab_size=vocab_size, input_dim=input_dim, pooling="mean",
    )


# ---------------------------------------------------------------------------
# normalisation ops


def rmsnorm(x, gain) -> ad.Tensor:
    """Scale each row of [L, H] to unit root-mean-square, then apply the
    per-channel gain.  Sums over either axis are taken as products with
    ones vectors, which BLAS runs without numpy's loop per row."""
    def forward(xv, gv):
        if xv.ndim != 2:
            raise ad.ShapeError(f"rmsnorm expects [L, H], got {xv.shape}")
        L, H = xv.shape
        r = np.sqrt((xv * xv) @ np.ones(H) / H + RMSNORM_EPS).reshape(L, 1)
        xhat = xv / r

        def backward(dy):
            dyg = dy * gv
            dot = (dyg * xv) @ np.ones(H)
            return (dyg / r - xv * (dot.reshape(L, 1) / (H * r**3)),
                    np.ones(L) @ (dy * xhat))

        return xhat * gv, backward

    return ad.fused_op("rmsnorm", forward, x, gain)


def batchnorm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
              train: bool) -> ad.Tensor:
    """Per-channel normalisation over the row axis of [R, H].

    Train mode normalises with the current moments and folds them into
    the running buffers (in place) with ``BATCHNORM_MOMENTUM``; eval mode
    normalises with the running buffers.  The rows are every position of
    every sequence in a ``Packed`` group, so in training the moments are
    over the group's B*L rows, as standard BatchNorm takes them for
    sequences.  A group of one sequence has only its own positions.
    Column sums are taken as products with a ones vector, which BLAS runs
    without numpy's loop per row.
    """
    def forward(xv, gv, bv):
        if xv.ndim != 2:
            raise ad.ShapeError(f"batchnorm expects [L, H], got {xv.shape}")
        R = len(xv)
        if train:
            ones = np.ones(R)
            mean = ones @ xv / R
            xhat = xv - mean
            var = ones @ (xhat * xhat) / R  # biased, matching the normalisation
            m = BATCHNORM_MOMENTUM
            running_mean[...] = running_mean * (1.0 - m) + m * mean
            running_var[...] = running_var * (1.0 - m) + m * var
        else:
            xhat = xv - running_mean
            var = running_var
        inv = 1.0 / np.sqrt(var + BATCHNORM_EPS)
        xhat *= inv

        def backward(dy):
            ones = np.ones(R)
            if train:
                dx = dy * gv
                shift = xhat * (ones @ (dx * xhat) / R)
                dx -= ones @ dx / R
                dx -= shift
                dx *= inv
            else:
                dx = dy * (gv * inv)
            return dx, ones @ (dy * xhat), ones @ dy

        return xhat * gv + bv, backward

    return ad.fused_op("batchnorm", forward, x, gamma, beta)


# ---------------------------------------------------------------------------
# the model


def _mode_ladder(w: int, n: int) -> np.ndarray:
    # One decaying mode ladder per channel: a = -exp(rho) = -(1..N).
    return np.tile(np.log(-diag_init(n)), (w, 1))


def weight_layout(spec: NetworkSpec):
    """Every array a model of ``spec`` holds, in init order.

    Yields (kind, name, shape, init): kind is "param" or "buffer"; init
    is an int fan-in, meaning a uniform draw in +-1/sqrt(fan_in), or a
    no-argument function returning the fixed initial array.  Nothing is
    drawn or built here, so a loader checks a checkpoint's names and
    shapes at the cost of the names alone.
    """
    H = spec.h_dim
    if spec.vocab_size is not None:
        yield "param", "embed.table", (spec.vocab_size, H), H
    else:
        yield "param", "input.w", (spec.input_dim, H), spec.input_dim

    widths = spec.branch_widths()
    for i in range(spec.depth):
        blk = f"block{i}."
        if spec.block.norm_kind == "rmsnorm":
            yield "param", blk + "norm.gain", (H,), partial(np.ones, H)
        elif spec.block.norm_kind == "batchnorm":
            yield "param", blk + "norm.gamma", (H,), partial(np.ones, H)
            yield "param", blk + "norm.beta", (H,), partial(np.zeros, H)
            yield "buffer", blk + "norm.running_mean", (H,), partial(np.zeros, H)
            yield "buffer", blk + "norm.running_var", (H,), partial(np.ones, H)
        for b, br in enumerate(spec.block.branches):
            pre = f"{blk}br{b}."
            w = widths[b]
            n = br.n_state
            if br.kappa is not None:
                rows = br.window_k * (w + br.basis_g)
                yield "param", pre + "res.theta_delta", (w,), w
                yield "param", pre + "res.raw_delta", (), partial(np.array, softplus_inv(1.0))
                yield "param", pre + "res.theta_gamma", (rows, w), rows
                yield ("param", pre + "res.mus", (br.basis_g,),
                       partial(np.linspace, -br.window_k, br.window_k, br.basis_g))
            yield "param", pre + "ssm.rho", (w, n), partial(_mode_ladder, w, n)
            if br.selective:
                yield "param", pre + "ssm.theta_b", (w, n), w
                yield "param", pre + "ssm.theta_c", (w, n), w
                yield "param", pre + "ssm.theta_delta", (w,), w
                yield "param", pre + "ssm.delta_base", (), partial(np.array, 0.0)
            else:
                yield "param", pre + "ssm.b", (n,), partial(np.ones, n)
                yield "param", pre + "ssm.c", (n,), n
                yield "param", pre + "ssm.raw_delta", (), partial(np.array, 0.0)

    yield "param", "head.w", (H, spec.n_classes), H
    yield "param", "head.b", (spec.n_classes,), partial(np.zeros, spec.n_classes)


@dataclass(frozen=True)
class Packed:
    """Sequences packed end to end along the row axis: ``rows`` holds
    their token ids [R] or features [R, D] concatenated, ``segs``
    (``autodiff.Segments``) where each one starts and how long it is."""

    rows: object
    segs: ad.Segments

    def __post_init__(self):
        if not isinstance(self.segs, ad.Segments):
            raise TypeError(f"Packed takes autodiff.Segments, got {type(self.segs).__name__}")

    @classmethod
    def of(cls, sequences) -> "Packed":
        """Pack token sequences or [L, D] feature arrays, in order."""
        seqs = [np.asarray(x) for x in sequences]
        if not seqs or any(len(x) == 0 for x in seqs):
            raise ValueError("a packed group takes one or more non-empty sequences")
        for i, x in enumerate(seqs):
            if x.shape[1:] != seqs[0].shape[1:]:
                raise ValueError(f"sequence {i} has shape {x.shape}, sequence 0 {seqs[0].shape}: "
                                 "packed sequences must agree in rank and width")
        lengths = [len(x) for x in seqs]
        return cls(np.concatenate(seqs), ad.Segments(np.cumsum([0] + lengths[:-1]), sum(lengths)))


class _Binder:
    """Binds each named weight to the tape at most once per pass."""

    def __init__(self, params: dict, tape: ad.Tape | None):
        self._params = params
        self._tape = tape
        self.bound: dict[str, ad.Tensor] = {}

    def __call__(self, name: str) -> ad.Tensor:
        if name not in self.bound:
            arr = self._params[name]
            self.bound[name] = self._tape.leaf(arr) if self._tape is not None else ad.constant(arr)
        return self.bound[name]


class ResampleNetwork:
    """Stack of multi-rate blocks with an embedding and a classification head."""

    def __init__(self, spec: NetworkSpec, seed: int = 0,
                 params: dict | None = None, buffers: dict | None = None):
        self.spec = spec
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        if params is None:
            self._init_params(np.random.default_rng(np.random.SeedSequence(seed)))
        else:
            self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
            self.buffers = {k: np.asarray(v, dtype=np.float64) for k, v in (buffers or {}).items()}

    # -- init ---------------------------------------------------------------

    def _init_params(self, rng: np.random.Generator):
        for kind, name, shape, init in weight_layout(self.spec):
            if callable(init):
                value = init()
            else:
                s = 1.0 / np.sqrt(init)
                value = rng.uniform(-s, s, size=shape)
            (self.params if kind == "param" else self.buffers)[name] = value

    # -- forward ------------------------------------------------------------

    def forward(self, x, tape: ad.Tape | None = None, train: bool = False):
        """Run the network; returns (logits tensor, bound weight tensors).

        ``x`` is an int token sequence for token models, or an [L, D]
        float array (or Tensor) for feature models; logits are then [C].
        A ``Packed`` group of them runs as one pass with [G, C] logits.
        """
        rows, segs = (x.rows, x.segs) if isinstance(x, Packed) else (x, None)
        bind = _Binder(self.params, tape)
        t = self._embed(rows, bind)
        segs = ad.Segments.check(segs, t.shape[0])
        for i in range(self.spec.depth):
            t = self._block(i, t, bind, train, segs)
        logits = self._head(t, bind, segs)
        if not isinstance(x, Packed):
            logits = ad.reshape(logits, (self.spec.n_classes,))
        return logits, bind.bound

    def predict(self, x) -> np.ndarray:
        """Inference logits with nothing tracked."""
        logits, _ = self.forward(x)
        return logits.numpy()

    def run_block(self, index: int, x, tape: ad.Tape | None = None, train: bool = False):
        """Forward one block in isolation on an [L, H] input."""
        bind = _Binder(self.params, tape)
        x_t = x if isinstance(x, ad.Tensor) else ad.constant(np.asarray(x, dtype=np.float64))
        if x_t.ndim != 2 or x_t.shape[1] != self.spec.h_dim:
            raise ValueError(f"expected [L, {self.spec.h_dim}] block input, got {x_t.shape}")
        out = self._block(index, x_t, bind, train, ad.Segments((0,), x_t.shape[0]))
        return (out, bind.bound) if tape is not None else out

    def _embed(self, x, bind):
        if self.spec.vocab_size is not None:
            ids = np.asarray(x)
            if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer) or ids.size == 0:
                raise ValueError("token models take a non-empty 1-d integer sequence, "
                                 f"got {ids.dtype} of shape {ids.shape}")
            vocab = self.spec.vocab_size
            if ids.min() < 0 or ids.max() >= vocab:
                first = ids[(ids < 0) | (ids >= vocab)][0]
                raise ValueError(f"token id {first} out of vocabulary range [0, {vocab})")
            return ad.gather_rows(bind("embed.table"), ids)
        x_t = x if isinstance(x, ad.Tensor) else ad.constant(np.asarray(x, dtype=np.float64))
        if x_t.ndim != 2 or x_t.shape[0] == 0 or x_t.shape[1] != self.spec.input_dim:
            raise ValueError(f"expected non-empty [L, {self.spec.input_dim}] features, "
                             f"got {x_t.shape}")
        return ad.matmul(x_t, bind("input.w"))

    def _norm(self, i, x_t, bind, train):
        blk = f"block{i}."
        kind = self.spec.block.norm_kind
        if kind == "rmsnorm":
            return rmsnorm(x_t, bind(blk + "norm.gain"))
        if kind == "batchnorm":
            return batchnorm(
                x_t,
                bind(blk + "norm.gamma"),
                bind(blk + "norm.beta"),
                self.buffers[blk + "norm.running_mean"],
                self.buffers[blk + "norm.running_var"],
                train,
            )
        return x_t

    def _block(self, i, x_t, bind, train, segs):
        spec = self.spec.block
        widths = self.spec.branch_widths()
        inner = self._norm(i, x_t, bind, train) if spec.norm_position == "pre" else x_t
        parts = []
        off = 0
        for b, br in enumerate(spec.branches):
            xb = ad.slice_along(inner, 1, off, off + widths[b])
            off += widths[b]
            parts.append(self._branch(i, b, br, xb, bind, segs))
        out = ad.add(x_t, ad.concat(parts, axis=1))
        if spec.norm_position == "post_skip":
            out = self._norm(i, out, bind, train)
        return out

    def _branch(self, i, b, br: BranchSpec, xb, bind, segs):
        pre = f"block{i}.br{b}."
        if br.kappa is None:
            return self._ssm_layer(pre, br, xb, bind, segs)

        delta_base = ad.softplus(bind(pre + "res.raw_delta"))
        deltas = rs.interval_map(xb, bind(pre + "res.theta_delta"), delta_base, br.kappa)
        delta = float(delta_base.data)
        # One plan routes the whole group, each sequence on its own
        # intervals.  A one-sequence forward passes no ``segs``: the
        # benchmark's routing check (bench/checks.recorded_plans) records
        # make_plan through a three-argument wrapper until it learns
        # group plans (ROADMAP direction 1).
        group = {} if len(segs) == 1 else {"segs": segs}
        plan = rs.make_plan(deltas.data, delta, br.window_k, **group)
        src_times = ad.cumsum(deltas, segs)
        dst_times = ad.mul(ad.constant(rs.grid_steps(plan.dst)), delta_base)
        xc = rs.compress_tracked(
            xb, plan, bind(pre + "res.theta_gamma"), bind(pre + "res.mus"),
            src_times, dst_times,
        )
        yc = self._ssm_layer(pre, br, xc, bind, plan.dst)
        return rs.decompress_tracked(yc, plan)

    def _ssm_layer(self, pre, br: BranchSpec, u_t, bind, segs):
        if not br.selective:
            return fixed_step_conv(bind(pre + "ssm.rho"), bind(pre + "ssm.raw_delta"),
                                   bind(pre + "ssm.b"), bind(pre + "ssm.c"), u_t, segs=segs)
        return selective_layer(bind(pre + "ssm.rho"), bind(pre + "ssm.theta_b"),
                               bind(pre + "ssm.theta_c"), bind(pre + "ssm.theta_delta"),
                               bind(pre + "ssm.delta_base"), u_t, segs=segs)

    def _head(self, t, bind, segs):
        """[G, C] logits, one row per sequence."""
        if self.spec.pooling == "mean":
            pooled = ad.segment_mean(t, segs)
        else:
            pooled = ad.gather_rows(t, segs.starts + segs.lengths - 1)
        logits = ad.matmul(pooled, bind("head.w"))
        return ad.add(logits, ad.tile_rows(bind("head.b"), len(segs)))
