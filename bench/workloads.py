"""The three workloads and the measured loop.

All use the sparse-signal task (``tasks.SparseSignalTask``) with h_dim
16 and depth 2.  Inputs come from ``--seed`` alone: it seeds the task
data, the weight init, the shuffle order and the check samples.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
from ressm import checkpoint, tasks, training
from ressm import network as net
from tracer import LAYERS, StepClock, Tracer

BATCH = 16
MIN_STEPS = 100  # so the 90th-percentile step has ten samples beyond it
SETUP_REPEATS = 61  # a set-up is a few ms; the host's speed moves in phases of seconds
CHECK_SAMPLES = 2  # validation examples per check


@dataclass(frozen=True)
class Workload:
    kind: str  # train | eval
    seq_len: int
    layout: str  # criterion8 | preset
    n_train: int
    n_val: int
    epochs: int = 0  # per train round


WORKLOADS = {
    # Criterion-8 config: kNN plan, scan and tape each carry a similar share.
    "train-L256": Workload("train", 256, "criterion8", n_train=32, n_val=8, epochs=5),
    # Many tape nodes over few positions: per-op tape and optimizer cost
    # dominate; the only workload on the batchnorm path.
    "train-L32-bn": Workload("train", 32, "preset", n_train=32, n_val=8, epochs=5),
    # Forward only on long inputs: routing, copy-back and scan forward.
    "eval-L1024": Workload("eval", 1024, "criterion8", n_train=16, n_val=16),
}


def build_spec(w: Workload, task: tasks.SparseSignalTask) -> net.NetworkSpec:
    if w.layout == "preset":
        return net.classification_preset(depth=2, n_classes=task.n_classes,
                                         vocab_size=task.vocab_size, h_dim=16)
    return net.NetworkSpec(
        depth=2, h_dim=16,
        block=net.BlockSpec(branches=[net.BranchSpec(kappa=None), net.BranchSpec(kappa=0.5)],
                            norm_kind="rmsnorm", norm_position="pre"),
        head_kind="classification", n_classes=task.n_classes, vocab_size=task.vocab_size,
    )


def train_config(w: Workload, seed: int) -> training.TrainConfig:
    return training.TrainConfig(lr=3e-3, weight_decay=0.01, batch_size=BATCH, epochs=w.epochs,
                                scheduler="cosine", seed=seed)


def setup(w: Workload, init_seed: int, data_seed: int, path: str):
    """Data generation, model build, checkpoint save and load."""
    task = tasks.SparseSignalTask(seq_len=w.seq_len, n_train=w.n_train, n_val=w.n_val,
                                  seed=data_seed)
    _, val_set = tasks.gen_sparse_task(task)
    model = net.ResampleNetwork(build_spec(w, task), seed=init_seed)
    try:
        checkpoint.save_checkpoint(path, model)
        loaded, _ = checkpoint.load_checkpoint(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return task, val_set, model, loaded


def _same_weights(a: net.ResampleNetwork, b: net.ResampleNetwork) -> bool:
    return all(
        x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x)
        for x, y in ((a.params, b.params), (a.buffers, b.buffers))
    )


def _fresh_copy(model: net.ResampleNetwork) -> net.ResampleNetwork:
    return net.ResampleNetwork(model.spec,
                               params={k: v.copy() for k, v in model.params.items()},
                               buffers={k: v.copy() for k, v in model.buffers.items()})


def run(w: Workload, name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    init_seed, data_seed, shuffle_seed, check_seed = (
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(4))
    check_rng = np.random.default_rng(check_seed)
    tracer = Tracer() if trace else None
    results: list[bool] = []

    # -- set-up, repeated; the median is setup_s.  The repeats are spread
    # over the run, so setup_s sees the same host as the rounds do.
    path = os.path.join(out_dir, f"checkpoint-{name}-{os.getpid()}.json")
    setup_times, built = [], []

    def timed_setup():
        gc.collect()  # so a collection owed by earlier work is not timed here
        t0 = perf_counter()
        built.append(setup(w, init_seed, data_seed, path))
        setup_times.append(perf_counter() - t0)

    with tracer.installed() if tracer else contextlib.nullcontext():
        timed_setup()
    task, val_set, model, loaded = built[0]
    samples = [val_set[i] for i in check_rng.choice(len(val_set), CHECK_SAMPLES, replace=False)]

    if w.kind == "train":
        cfg = train_config(w, shuffle_seed)
        results.extend(checks.gradient_matches(loaded, ex, check_rng, train)
                       for ex in samples for train in (True, False))

    # -- measured rounds -----------------------------------------------------
    clock = StepClock()
    steps_per_round = w.epochs * w.n_train // BATCH if w.kind == "train" else w.n_val
    examples_per_step = BATCH if w.kind == "train" else 1
    round_times, outcomes = [], []
    final = loaded
    with clock.installed(w.kind), (tracer.installed() if tracer else contextlib.nullcontext()):
        started = perf_counter()
        while True:
            if w.kind == "train":
                final = _fresh_copy(loaded)
                t0 = perf_counter()
                clock.mark()
                res = training.train(final, task, cfg)
                round_times.append(perf_counter() - t0)
                outcomes.append(checks.history_digest(res.history))
            else:
                t0 = perf_counter()
                clock.mark()
                metrics = training.evaluate(loaded, val_set)
                round_times.append(perf_counter() - t0)
                outcomes.append(metrics.to_dict())
            if len(clock.steps) != steps_per_round * len(round_times):
                raise RuntimeError(f"expected {steps_per_round} steps per round, "
                                   f"timed {len(clock.steps)} over {len(round_times)} rounds")
            spent = perf_counter() - started
            while len(setup_times) < SETUP_REPEATS * min(1.0, spent / seconds):
                timed_setup()
            if len(clock.steps) >= MIN_STEPS and spent + statistics.median(round_times) > seconds:
                break
        while len(setup_times) < SETUP_REPEATS:
            timed_setup()
    results.append(_same_weights(model, loaded) and all(_same_weights(loaded, b[3]) for b in built))

    # -- checks on the final weights ------------------------------------------
    results.extend(o == outcomes[0] for o in outcomes)
    for ex in samples:
        results.append(checks.logits_match(final, ex.tokens))
        results.append(checks.routing_holds(final, ex.tokens))
        if w.kind == "train":
            results.extend(checks.gradient_matches(final, ex, check_rng, train)
                           for train in (True, False))
    if w.kind == "train":
        print(f"history sha256 {outcomes[0]} ({len(outcomes)} identical rounds required)")

    steps = clock.steps
    failed = results.count(False)
    out = {"correct": failed == 0, "attempted": len(steps) + len(results), "failed": failed}
    e2e = {
        "examples_per_s": (len(steps) * examples_per_step / sum(steps), "examples/s"),
        "wall_s": (statistics.median(round_times), "s"),
        "step_ms_p50": (1e3 * statistics.median(steps), "ms"),
        "step_ms_p90": (1e3 * statistics.quantiles(steps, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if tracer:
        layers, split = per_layer(tracer, w, steps)
        base = os.path.join(out_dir, f"trace-{name}-seed{seed}")
        tracer.save(base + ".npz", {"steps": np.array(steps)})
        for label, value in split.items():
            print(f"split {label}: {value:.4f}")
        print(f"traced step_ms_p50 {e2e['step_ms_p50'][0]:.4f} "
              f"(compare with the untraced run for the tracing overhead); spans in {base}.npz")
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return out


def per_layer(tracer: Tracer, w: Workload, steps: list[float]):
    """Per-layer metrics (per forward call, per backward call or per
    optimizer step) and the split of step time they account for."""
    tot = tracer.totals()

    def calls(n):
        return tot.get(n, (0, 0.0, 0.0))[0]

    def secs(n):
        return tot.get(n, (0, 0.0, 0.0))[1]

    n_fwd, n_bwd, n_steps = calls("network.forward"), calls("autodiff.backward"), len(steps)

    def per(x, n, scale=1e3):
        return scale * x / n if n else 0.0

    m = {
        "tasks.gen_s": (per(secs("tasks.gen_sparse_task"), calls("tasks.gen_sparse_task"), 1), "s"),
        "checkpoint.load_s": (per(secs("checkpoint.load_checkpoint"),
                                  calls("checkpoint.load_checkpoint"), 1), "s"),
        "network.forward_ms": (per(secs("network.forward"), n_fwd), "ms"),
        "network.self_fwd_ms": (per(secs("network.forward") - tot["network.forward"][2], n_fwd),
                                "ms"),
        "network.self_bwd_ms": (per(secs("bwd.network"), n_bwd), "ms"),
        "network.norm_fwd_ms": (per(secs("network.norm"), n_fwd), "ms"),
        "network.norm_bwd_ms": (per(secs("bwd.network.norm"), n_bwd), "ms"),
        "resample.make_plan_ms": (per(secs("resample.make_plan"), n_fwd), "ms"),
        "resample.compress_fwd_ms": (per(secs("resample.compress"), n_fwd), "ms"),
        "resample.compress_bwd_ms": (per(secs("bwd.resample.compress"), n_bwd), "ms"),
        "resample.decompress_fwd_ms": (per(secs("resample.decompress"), n_fwd), "ms"),
        "resample.decompress_bwd_ms": (per(secs("bwd.resample.decompress"), n_bwd), "ms"),
        "resample.rows_out_per_example": (per(tracer.counts["rows_out"], n_fwd, 1), "count"),
        "selective.ssm_scan_fwd_ms": (per(secs("selective.ssm_scan"), n_fwd), "ms"),
        "selective.ssm_scan_bwd_ms": (per(secs("bwd.selective.ssm_scan"), n_bwd), "ms"),
        "selective.scan_rows_per_example": (per(tracer.counts["scan_rows"], n_fwd, 1), "count"),
        "autodiff.nodes_per_example": (per(tracer.counts["tape_nodes"], n_bwd, 1), "count"),
        "autodiff.record_ms": (per(secs("autodiff.record"), n_fwd), "ms"),
        "autodiff.backward_ms": (per(secs("autodiff.backward"), n_bwd), "ms"),
        "training.optimizer_ms": (per(secs("training.optimizer"), n_steps), "ms"),
        "training.val_ms": (per(secs("training.evaluate"), calls("training.evaluate")), "ms"),
    }

    # Step time split: what the timed layers cover inside the steps.
    step_s = sum(steps)
    name, parent, start, end = tracer.arrays()
    dur = end - start
    ids = {n: i for i, n in enumerate(tracer.names)}
    fwd = ids.get("network.forward", -1)
    in_eval = ids.get("training.evaluate", -1)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    step_fwd = float(dur[(name == fwd) & ((parent_name != in_eval) if w.kind == "train"
                                          else True)].sum())
    split = {"step_ms_mean": 1e3 * step_s / n_steps, "forward_ms_per_step": 1e3 * step_fwd / n_steps}
    covered = step_fwd
    if w.kind == "train":
        split["backward_ms_per_step"] = 1e3 * secs("autodiff.backward") / n_steps
        split["optimizer_ms_per_step"] = 1e3 * secs("training.optimizer") / n_steps
        covered += secs("autodiff.backward") + secs("training.optimizer")
        bwd_layers = sum(secs("bwd." + x) for x in ("network",) + LAYERS)
        split["tape_loop_ms_per_step"] = 1e3 * (secs("autodiff.backward") - bwd_layers) / n_steps
    split["unaccounted_share_of_step"] = 1.0 - covered / step_s
    return m, split
