"""Synthetic long-range classification data.

A sparse-signal sequence: a handful of informative positions carry the
class token, everything else is uniform noise drawn from a disjoint
token range.  The label is the majority class over the informative
positions (with our construction they all agree), so a reader that sees
only those positions classifies perfectly while the noise dominates the
raw sequence.  This isolates exactly what interval-driven compression
is supposed to help with at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import require_ints

__all__ = ["SparseSignalTask", "Example", "gen_sparse_task", "oracle_predict", "oracle_accuracy"]


@dataclass(frozen=True)
class SparseSignalTask:
    """Task sizes.  ``ressm train`` exposes every field but ``seed`` as a
    ``task.*`` key, parsed by the default's type."""

    seq_len: int = 256
    n_classes: int = 4
    n_informative: int = 4
    noise_vocab: int = 8
    n_train: int = 128
    n_val: int = 64
    seed: int = 0

    def __post_init__(self):
        # Each message starts with the field name, which the CLI prefixes
        # with "task." to name the config key.
        require_ints(self, [f.name for f in fields(self)])
        for name, low in (("seq_len", 1), ("n_classes", 2), ("noise_vocab", 1),
                          ("n_train", 1), ("n_val", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not (0 <= self.n_informative <= self.seq_len):
            raise ValueError(f"n_informative must lie in [0, seq_len], got {self.n_informative}")

    @property
    def vocab_size(self) -> int:
        # ids [0, n_classes) are class tokens, the rest noise
        return self.n_classes + self.noise_vocab


@dataclass(frozen=True)
class Example:
    tokens: np.ndarray
    label: int
    informative: np.ndarray  # positions carrying signal, for the oracle


def _gen_split(task: SparseSignalTask, n: int, rng: np.random.Generator) -> list[Example]:
    out = []
    for _ in range(n):
        label = int(rng.integers(0, task.n_classes))
        tokens = rng.integers(task.n_classes, task.vocab_size, size=task.seq_len)
        pos = rng.choice(task.seq_len, size=task.n_informative, replace=False)
        tokens[pos] = label
        out.append(Example(tokens=tokens.astype(np.int64), label=label,
                           informative=np.sort(pos)))
    return out


def gen_sparse_task(task: SparseSignalTask):
    """Deterministic (train, val) example lists for the task seed."""
    root = np.random.SeedSequence(task.seed)
    train_ss, val_ss = root.spawn(2)
    return (
        _gen_split(task, task.n_train, np.random.default_rng(train_ss)),
        _gen_split(task, task.n_val, np.random.default_rng(val_ss)),
    )


def oracle_predict(example: Example, task: SparseSignalTask) -> int:
    """Majority class over the informative positions, ties toward the
    lower class id.  Reads nothing else."""
    votes = example.tokens[example.informative]
    counts = np.bincount(votes, minlength=task.n_classes)[: task.n_classes]
    return int(np.argmax(counts))


def oracle_accuracy(examples: list[Example], task: SparseSignalTask) -> float:
    hits = sum(oracle_predict(ex, task) == ex.label for ex in examples)
    return hits / len(examples)
