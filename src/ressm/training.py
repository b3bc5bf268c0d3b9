"""Optimizer, training loop, and evaluation metrics.

Each batch's sequences are packed along the row axis into groups of at
most ``MAX_TAPE_ROWS`` rows (``network.Packed``), one tape and one
summed loss per group; the gradients are averaged over the batch, then
a global-norm clip and a decoupled-weight-decay Adam step over flat
moment buffers.  Batchnorm takes its training moments over a group's
rows, so on the batchnorm layout a group holds at least two sequences.
Evaluation packs the same way, one forward per group with no tape.
Everything is seeded and single-threaded, so a (seed, config) pair
reproduces the metric history bit for bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .network import Packed, ResampleNetwork
from .tasks import SparseSignalTask, gen_sparse_task

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "adamw_step",
    "EvalMetrics",
    "evaluate",
    "TrainResult",
    "train",
]


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# Rows per packed forward, in training and in evaluation.  A training
# tape keeps every row's activations alive until its backward, so larger
# groups trade memory for fewer ops.
MAX_TAPE_ROWS = 1024


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch/batch it happened in."""


@dataclass
class TrainConfig:
    """Optimizer and loop settings.  ``ressm train`` exposes every field
    but ``seed`` as a ``train.*`` key, parsed by the default's type."""

    lr: float = 1e-3
    weight_decay: float = 0.05
    batch_size: int = 16
    epochs: int = 100
    scheduler: str = "plateau"  # cosine | plateau | none
    plateau_patience: int = 5
    plateau_factor: float = 0.1
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # Each message starts with the field name, which the CLI prefixes
        # with "train." to name the config key.
        if self.lr < 0:
            raise ValueError(f"lr must be non-negative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.scheduler not in ("cosine", "plateau", "none"):
            raise ValueError(f"scheduler must be cosine, plateau or none, got '{self.scheduler}'")


def adamw_step(params: dict, grads: dict, cfg: TrainConfig, state: dict,
               lr: float | None = None) -> dict:
    """One decoupled-weight-decay Adam update, in place.

    ``state`` holds the step count and the moments, created on first
    use: two flat arrays over every parameter, with ``state["m"][name]``
    and ``state["v"][name]`` views into them.  The update runs once
    over all parameters joined end to end.  Returns the state for
    chaining.
    """
    if not state:
        size = sum(p.size for p in params.values())
        state.update(step=0, m_flat=np.zeros(size), v_flat=np.zeros(size), m={}, v={})
        off = 0
        for name, p in params.items():
            for key in ("m", "v"):
                state[key][name] = state[key + "_flat"][off:off + p.size].reshape(p.shape)
            off += p.size
    lr = cfg.lr if lr is None else lr
    b1, b2 = ADAM_BETAS
    state["step"] += 1
    t = state["step"]
    names = state["m"].keys()
    for name in names:
        if grads[name].shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for '{name}'")
    g = np.concatenate([grads[name].ravel() for name in names])
    p = np.concatenate([params[name].ravel() for name in names])
    m, v = state["m_flat"], state["v_flat"]
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    g2 = (1.0 - b2) * g
    g2 *= g
    v += g2
    den = v / (1.0 - b2**t)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    upd = m / (1.0 - b1**t)
    upd *= lr
    upd /= den
    p -= upd
    p -= lr * cfg.weight_decay * p
    off = 0
    for name in names:
        arr = params[name]
        arr[...] = p[off:off + arr.size].reshape(arr.shape)
        off += arr.size
    return state


def clip_global_norm(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most ``max_norm``."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


@dataclass
class EvalMetrics:
    top1: float
    top5: float
    loss: float
    perplexity: float

    def to_dict(self):
        return asdict(self)


def _topk_hit(logits: np.ndarray, label: int, k: int) -> bool:
    # Stable sort of -logits: equal logits rank the lower class first.
    order = np.argsort(-logits, kind="stable")
    return label in order[:k]


def evaluate(model: ResampleNetwork, dataset) -> EvalMetrics:
    """Mean loss, top-1/top-5 hit rates, and exp(loss) as perplexity
    over (tokens, label) examples.

    The examples are scored in groups split as in training, with no
    two-sequence floor since eval-mode batchnorm reads its running
    buffers: one ``predict`` per group on the ``Packed`` sequences, or
    on the tokens alone for a group of one.  Loss and hits are taken
    per example from its logits row.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    losses = []
    hits1 = hits5 = 0
    for group in _groups(dataset, floor=1):
        if len(group) == 1:
            rows = [model.predict(group[0].tokens)]
        else:
            rows = model.predict(Packed.of([item.tokens for item in group]))
        for logits, item in zip(rows, group):
            losses.append(ad.cross_entropy(ad.constant(logits), item.label).item())
            hits1 += _topk_hit(logits, item.label, 1)
            hits5 += _topk_hit(logits, item.label, 5)
    loss = float(np.mean(losses))
    return EvalMetrics(top1=hits1 / len(losses), top5=hits5 / len(losses),
                       loss=loss, perplexity=math.exp(loss))


@dataclass
class TrainResult:
    history: list  # rows of {epoch, split, loss, top1, top5, ppl}
    best_epoch: int
    best_val_loss: float
    best_params: dict
    best_buffers: dict  # batchnorm running statistics of the best epoch
    final_val: EvalMetrics

    def rows(self):
        return [
            [r["epoch"], r["split"], r["loss"], r["top1"], r["top5"], r["ppl"]]
            for r in self.history
        ]


def _groups(batch, floor):
    """Split a batch into the fewest groups of near-equal size that fit
    ``MAX_TAPE_ROWS`` rows each, sized by the longest sequence, but into
    groups of at least ``floor`` sequences when the batch holds that
    many."""
    per = max(floor, MAX_TAPE_ROWS // max(len(ex.tokens) for ex in batch))
    n = max(1, min(-(-len(batch) // per), len(batch) // floor))
    cuts = [len(batch) * j // n for j in range(n + 1)]
    return [batch[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _batch_grads(model, batch, epoch, batch_idx):
    """Average gradients over one batch; returns (grads, loss, top1, top5)."""
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    loss_sum = 0.0
    hits1 = hits5 = 0
    # Train-mode batchnorm takes its moments over a group's rows, which
    # must span more than one sequence.
    floor = 2 if model.spec.block.norm_kind == "batchnorm" else 1
    for group in _groups(batch, floor):
        labels = [ex.label for ex in group]
        tape = ad.Tape()
        try:
            logits, bound = model.forward(Packed.of([ex.tokens for ex in group]),
                                          tape=tape, train=True)
            loss = ad.cross_entropy(logits, labels)
            tape.backward(loss)
        except ad.NonFiniteError as e:
            raise TrainingDiverged(
                f"non-finite value at epoch {epoch}, batch {batch_idx}: {e}"
            ) from e
        lv = loss.item()
        if not math.isfinite(lv):
            raise TrainingDiverged(f"loss diverged at epoch {epoch}, batch {batch_idx}")
        loss_sum += lv
        for row, label in zip(logits.numpy(), labels):
            hits1 += _topk_hit(row, label, 1)
            hits5 += _topk_hit(row, label, 5)
        for name, leaf in bound.items():
            grads[name] += tape.grad(leaf)
        tape.release()
    n = len(batch)
    for g in grads.values():
        g /= n
    return grads, loss_sum / n, hits1 / n, hits5 / n


def train(model: ResampleNetwork, task: SparseSignalTask, cfg: TrainConfig) -> TrainResult:
    """Full seeded training run; returns the metric history and keeps a
    copy of the best-validation-loss weights and batchnorm buffers."""
    train_set, val_set = gen_sparse_task(task)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    opt_state: dict = {}

    history = []
    best_val = math.inf
    best_epoch = -1
    best_params = copy.deepcopy(model.params)
    best_buffers = copy.deepcopy(model.buffers)
    plateau_wait = 0
    lr = cfg.lr

    for epoch in range(cfg.epochs):
        if cfg.scheduler == "cosine":
            span = max(1, cfg.epochs - 1)
            lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / span))

        order = shuffle_rng.permutation(len(train_set))
        ep_losses, ep_h1, ep_h5, n_seen = [], 0.0, 0.0, 0
        for bi in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[bi : bi + cfg.batch_size]]
            grads, bloss, b1, b5 = _batch_grads(model, batch, epoch, bi // cfg.batch_size)
            clip_global_norm(grads, cfg.clip_norm)
            adamw_step(model.params, grads, cfg, opt_state, lr=lr)
            ep_losses.append(bloss * len(batch))
            ep_h1 += b1 * len(batch)
            ep_h5 += b5 * len(batch)
            n_seen += len(batch)

        train_loss = float(np.sum(ep_losses) / n_seen)
        history.append({
            "epoch": epoch, "split": "train", "loss": train_loss,
            "top1": ep_h1 / n_seen, "top5": ep_h5 / n_seen,
            "ppl": math.exp(train_loss),
        })

        val = evaluate(model, val_set)
        history.append({
            "epoch": epoch, "split": "val", "loss": val.loss,
            "top1": val.top1, "top5": val.top5, "ppl": val.perplexity,
        })

        improved = val.loss < best_val
        if improved:
            best_val = val.loss
            best_epoch = epoch
            best_params = copy.deepcopy(model.params)
            best_buffers = copy.deepcopy(model.buffers)

        if cfg.scheduler == "plateau":
            if improved:
                plateau_wait = 0
            else:
                plateau_wait += 1
                if plateau_wait >= cfg.plateau_patience:
                    lr *= cfg.plateau_factor
                    plateau_wait = 0

    # epochs >= 1, so val is the last epoch's pass, taken on the final
    # weights and buffers.
    return TrainResult(history=history, best_epoch=best_epoch, best_val_loss=best_val,
                       best_params=best_params, best_buffers=best_buffers,
                       final_val=val)
