"""Optimizer, training loop, and evaluation metrics.

One tape per sample, gradients averaged over the batch, a global-norm
clip, then a decoupled-weight-decay Adam step.  Everything is seeded and
single-threaded, so a (seed, config) pair reproduces the metric history
bit for bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .network import ResampleNetwork
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

    ``state`` holds the step count and per-name moment arrays and is
    created on first use.  Returns the state for chaining.
    """
    if not state:
        state["step"] = 0
        state["m"] = {k: np.zeros_like(v) for k, v in params.items()}
        state["v"] = {k: np.zeros_like(v) for k, v in params.items()}
    lr = cfg.lr if lr is None else lr
    b1, b2 = ADAM_BETAS
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for '{name}'")
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p -= lr * cfg.weight_decay * p
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
    over (tokens, label) examples."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    losses = []
    hits1 = hits5 = 0
    for item in dataset:
        logits = model.predict(item.tokens)
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


def _batch_grads(model, batch, epoch, batch_idx):
    """Average gradients over one batch; returns (grads, loss, top1, top5)."""
    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    losses = []
    hits1 = hits5 = 0
    for ex in batch:
        tape = ad.Tape()
        try:
            logits, bound = model.forward(ex.tokens, tape=tape, train=True)
            loss = ad.cross_entropy(logits, ex.label)
            tape.backward(loss)
        except ad.NonFiniteError as e:
            raise TrainingDiverged(
                f"non-finite value at epoch {epoch}, batch {batch_idx}: {e}"
            ) from e
        lv = loss.item()
        if not math.isfinite(lv):
            raise TrainingDiverged(f"loss diverged at epoch {epoch}, batch {batch_idx}")
        losses.append(lv)
        lvals = logits.numpy()
        hits1 += _topk_hit(lvals, ex.label, 1)
        hits5 += _topk_hit(lvals, ex.label, 5)
        for name, leaf in bound.items():
            grads[name] += tape.grad(leaf)
        tape.release()
    n = len(batch)
    for g in grads.values():
        g /= n
    return grads, float(np.mean(losses)), hits1 / n, hits5 / n


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
