#!/usr/bin/env python3
"""Train the sparse-signal task twice, with and without compression, and
print both metric trajectories side by side.

The second run forces kappa = 1 on every resampled branch, which pins all
intervals to the grid spacing and keeps the sequence uncompressed while
leaving every other weight and seed identical.

Example:
    python scripts/compression_ablation.py --epochs 100
"""

import argparse
import time

from ressm.network import BlockSpec, BranchSpec, NetworkSpec, ResampleNetwork
from ressm.tasks import SparseSignalTask
from ressm.training import TrainConfig, train


def build(task, kappa, seed):
    branches = [BranchSpec(kappa=k, n_state=4, window_k=4, basis_g=8)
                for k in (None, kappa)]
    spec = NetworkSpec(
        depth=2, h_dim=16,
        block=BlockSpec(branches=branches, norm_kind="rmsnorm", norm_position="pre"),
        head_kind="classification", n_classes=task.n_classes, vocab_size=task.vocab_size,
    )
    return ResampleNetwork(spec, seed=seed)


def run(task, cfg, kappa, seed):
    model = build(task, kappa, seed)
    t0 = time.perf_counter()
    result = train(model, task, cfg)
    wall = time.perf_counter() - t0
    val = [r for r in result.history if r["split"] == "val"]
    return val, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--weight-decay", type=float, default=0.01)
    ap.add_argument("--kappa", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=100)
    args = ap.parse_args()

    task = SparseSignalTask(seq_len=256, n_informative=4, n_classes=4, noise_vocab=8,
                            n_train=128, n_val=64, seed=args.seed + 1)
    try:
        BranchSpec(kappa=args.kappa)  # rejects a bad --kappa before any training
        cfg = TrainConfig(lr=args.lr, weight_decay=args.weight_decay, epochs=args.epochs,
                          batch_size=16, scheduler="cosine", seed=args.seed + 2)
    except ValueError as e:
        ap.error(str(e))

    compressed, wall_c = run(task, cfg, args.kappa, args.seed)
    ablated, wall_a = run(task, cfg, 1.0, args.seed)

    print(f"{'epoch':>5} | {'compressed loss':>15} {'top1':>6} | {'ablated loss':>12} {'top1':>6}")
    for a, b in zip(compressed, ablated):
        if a["epoch"] % 10 == 0 or a["epoch"] == args.epochs - 1:
            print(f"{a['epoch']:>5} | {a['loss']:>15.4f} {a['top1']:>6.3f} "
                  f"| {b['loss']:>12.4f} {b['top1']:>6.3f}")
    print(f"\nbest top1: compressed {max(r['top1'] for r in compressed):.3f} "
          f"({wall_c:.0f}s), no compression {max(r['top1'] for r in ablated):.3f} "
          f"({wall_a:.0f}s)")


if __name__ == "__main__":
    main()
