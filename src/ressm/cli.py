"""Command-line entry point.

Subcommands: verify-linearity (leave-one-out sweep), train, eval,
dump-kernel, compress-trace.  Exit codes: 0 success, 1 runtime or
verification failure, 2 usage/config error.  All outputs are
deterministic for a fixed (seed, config), so rerunning with --force
reproduces files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ConfigError, Field, apply_overrides, load_config,
                     parse_branches, parse_float_list, resolve)
from .linearity import RESIDUAL_LIMIT, SLOPE_BAND, run_verification
from .network import BlockSpec, BranchSpec, NetworkSpec, ResampleNetwork
from .resample import compression_deltas, init_resample_config, make_plan
from .serialize import dumps_json, write_csv
from .ssm import SsmParams, conv_kernel, zoh_discretize
from .tasks import SparseSignalTask, gen_sparse_task
from .training import TrainConfig, TrainingDiverged, evaluate, train

__all__ = ["main"]


class CliError(Exception):
    """Raised for usage-level problems; maps to exit code 2."""


def _seed_children(seed: int, n: int) -> list[int]:
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n)]


def _prepare_out(out_dir: str, force: bool) -> str:
    if os.path.exists(out_dir):
        if not force:
            raise CliError(f"output directory {out_dir!r} exists; pass --force to overwrite")
    else:
        os.makedirs(out_dir)
    return out_dir


def _resolved(args, schema) -> dict:
    raw = load_config(args.config) if args.config else {}
    raw = apply_overrides(raw, args.set or [])
    return resolve(raw, schema)


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        f.write(text)
    return path


# ---------------------------------------------------------------------------
# verify-linearity

_VERIFY_SCHEMA = {
    "verify.instances": Field(int, 20),
    "verify.grid_start": Field(float, 1e-1),
    "verify.grid_stop": Field(float, 1e-6),
    "verify.grid_points": Field(int, 11),
    "verify.state_max": Field(int, 4),
    "verify.len_max": Field(int, 32),
}
# Below these, the sweep has no report to pass or no instance to draw.
_VERIFY_LEAST = {"verify.instances": 1, "verify.grid_points": 6, "verify.state_max": 1,
                 "verify.len_max": 4}


def cmd_verify_linearity(args) -> int:
    cfg = _resolved(args, _VERIFY_SCHEMA)
    for key, least in _VERIFY_LEAST.items():
        if cfg[key] < least:
            raise CliError(f"{key} must be at least {least}")
    if not (cfg["verify.grid_start"] > cfg["verify.grid_stop"] > 0):
        raise CliError("grid must run from a larger to a smaller positive value")
    out = _prepare_out(args.out, args.force)
    grid = np.geomspace(cfg["verify.grid_start"], cfg["verify.grid_stop"],
                        cfg["verify.grid_points"])
    reports = run_verification(cfg["verify.instances"], args.seed, grid,
                               n_max=cfg["verify.state_max"], l_max=cfg["verify.len_max"])
    all_passed = all(r.passes() for r in reports)
    doc = {
        "seed": args.seed,
        "instances": cfg["verify.instances"],
        "slope_band": list(SLOPE_BAND),
        "residual_limit": RESIDUAL_LIMIT,
        "all_passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    _write(out, "linearity_report.json", dumps_json(doc))
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# train / eval

def _record_keys(section: str, record) -> dict:
    """One key per field of ``record`` but its seed, parsed by the type of
    the field's default."""
    return {f"{section}.{f.name}": Field(type(f.default), f.default)
            for f in fields(record) if f.name != "seed"}


def _section(cfg: dict, section: str) -> dict:
    prefix = section + "."
    return {k[len(prefix):]: v for k, v in cfg.items() if k.startswith(prefix)}


# The model keys are listed by hand: model.norm and model.branches set
# fields of other names (norm_kind, each branch's kappa).
_TRAIN_SCHEMA = {
    "model.h_dim": Field(int, 16),
    "model.depth": Field(int, 2),
    "model.n_state": Field(int, 4),
    "model.window_k": Field(int, 4),
    "model.basis_g": Field(int, 8),
    "model.branches": Field(parse_branches, [None, 0.5]),
    "model.norm": Field(str, "rmsnorm"),
    "model.norm_position": Field(str, "pre"),
    "model.pooling": Field(str, "mean"),
    **_record_keys("task", SparseSignalTask),
    **_record_keys("train", TrainConfig),
}


def _build_run(cfg: dict, seed: int):
    """Task, model and optimizer settings of a run.  The records' messages
    start with the field name, so prefixing the section names the key."""
    init_seed, data_seed, shuffle_seed = _seed_children(seed, 3)
    section = "task"
    try:
        task = SparseSignalTask(**_section(cfg, "task"), seed=data_seed)
        section = "model"
        branches = [
            BranchSpec(kappa=k, n_state=cfg["model.n_state"],
                       window_k=cfg["model.window_k"], basis_g=cfg["model.basis_g"])
            for k in cfg["model.branches"]
        ]
        spec = NetworkSpec(
            depth=cfg["model.depth"],
            h_dim=cfg["model.h_dim"],
            block=BlockSpec(branches=branches, norm_kind=cfg["model.norm"],
                            norm_position=cfg["model.norm_position"]),
            head_kind="classification",
            n_classes=task.n_classes,
            vocab_size=task.vocab_size,
            pooling=cfg["model.pooling"],
        )
        model = ResampleNetwork(spec, seed=init_seed)
        section = "train"
        tcfg = TrainConfig(**_section(cfg, "train"), seed=shuffle_seed)
    except ValueError as e:
        raise CliError(f"{section}.{e}") from e
    return model, task, tcfg


def cmd_train(args) -> int:
    cfg = _resolved(args, _TRAIN_SCHEMA)
    model, task, tcfg = _build_run(cfg, args.seed)
    out = _prepare_out(args.out, args.force)
    try:
        result = train(model, task, tcfg)
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 1

    write_csv(os.path.join(out, "metrics.csv"),
              ["epoch", "split", "loss", "top1", "top5", "ppl"], result.rows())
    extra = {"task": asdict(task), "final_val": result.final_val.to_dict()}
    save_checkpoint(os.path.join(out, "checkpoint_final.json"), model, extra=extra)
    best = ResampleNetwork(model.spec, params=result.best_params,
                           buffers=result.best_buffers)
    save_checkpoint(os.path.join(out, "checkpoint_best.json"), best,
                    extra={"task": asdict(task), "best_epoch": result.best_epoch})
    summary = {
        "seed": args.seed,
        "epochs": tcfg.epochs,
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "final_val": result.final_val.to_dict(),
    }
    _write(out, "summary.json", dumps_json(summary))
    return 0


def cmd_eval(args) -> int:
    if not os.path.exists(args.checkpoint):
        raise CliError(f"checkpoint {args.checkpoint!r} does not exist")
    try:
        model, extra = load_checkpoint(args.checkpoint)
        if "task" not in extra:
            raise ValueError("no task description to evaluate on")
        task = SparseSignalTask(**extra["task"])
        spec = model.spec
        if spec.vocab_size is None or task.vocab_size > spec.vocab_size:
            raise ValueError(f"the task's {task.vocab_size} token ids (task.n_classes + "
                             f"task.noise_vocab) exceed spec.vocab_size {spec.vocab_size}")
        if task.n_classes != spec.n_classes:
            raise ValueError(f"task.n_classes {task.n_classes} differs from "
                             f"spec.n_classes {spec.n_classes}")
    except (TypeError, ValueError) as e:  # also malformed JSON; TypeError: unknown task key
        raise CliError(f"bad checkpoint {args.checkpoint!r}: {e}") from e
    out = _prepare_out(args.out, args.force)
    _, val = gen_sparse_task(task)
    metrics = evaluate(model, val)
    _write(out, "eval_metrics.json", dumps_json(metrics.to_dict()))
    return 0


# ---------------------------------------------------------------------------
# dump-kernel

_KERNEL_SCHEMA = {
    "kernel.a_diag": Field(parse_float_list, [-1.0]),
    "kernel.b": Field(parse_float_list, [1.0]),
    "kernel.c": Field(parse_float_list, [1.0]),
    "kernel.delta": Field(float, 1.0),
    "kernel.length": Field(int, 16),
}


def cmd_dump_kernel(args) -> int:
    cfg = _resolved(args, _KERNEL_SCHEMA)
    try:
        params = SsmParams(a_diag=cfg["kernel.a_diag"], b=cfg["kernel.b"], c=cfg["kernel.c"])
        step = zoh_discretize(params, cfg["kernel.delta"])
        kernel = conv_kernel(step, params.c, cfg["kernel.length"])
    except ValueError as e:
        raise CliError(f"kernel.{e}") from e
    out = _prepare_out(args.out, args.force)
    write_csv(os.path.join(out, "kernel.csv"), ["index", "value"],
              [[i, v] for i, v in enumerate(kernel)])
    return 0


# ---------------------------------------------------------------------------
# compress-trace

_TRACE_SCHEMA = {
    "resample.kappa": Field(float, 0.5),
    "resample.window_k": Field(int, 4),
    "resample.basis_g": Field(int, 8),
    "resample.delta_base": Field(float, 1.0),
}


def _load_sequence(path) -> np.ndarray:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise CliError(f"cannot read input file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"input file {path} is not valid JSON: {e}") from e
    if isinstance(doc, dict):
        doc = doc.get("x")
    try:
        x = np.asarray(doc, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise CliError(f"input file {path} does not hold a numeric matrix") from e
    if x.ndim != 2 or x.size == 0:
        raise CliError("input must be a non-empty [length, width] matrix")
    if not np.all(np.isfinite(x)):
        raise CliError(f"input file {path} holds a non-finite entry")
    return x


def cmd_compress_trace(args) -> int:
    cfg = _resolved(args, _TRACE_SCHEMA)
    x = _load_sequence(args.input)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    try:
        rcfg = init_resample_config(
            x.shape[1], cfg["resample.kappa"], cfg["resample.window_k"],
            cfg["resample.basis_g"], rng, delta_base=cfg["resample.delta_base"],
        )
    except ValueError as e:
        raise CliError(f"resample.{e}") from e
    out = _prepare_out(args.out, args.force)
    deltas = compression_deltas(rcfg, x)
    plan = make_plan(deltas, rcfg.delta_base, rcfg.window_k)
    doc = {
        "length": int(x.shape[0]),
        "dst_len": plan.dst_len,
        "compression_ratio": plan.dst_len / x.shape[0],
        "kappa": rcfg.kappa,
        "delta_base": rcfg.delta_base,
        "deltas": list(deltas),
        "src_times": list(plan.src_times),
        "dst_times": list(plan.dst_times),
        "neighbors": [[int(i) for i in row] for row in plan.neighbors],
    }
    _write(out, "compress_trace.json", dumps_json(doc))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true", help="overwrite an existing output directory")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ressm",
        description="State space sequence models with learned-interval resampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-linearity",
                       help="sweep leave-one-out state distances and check the linear fit")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_linearity)

    p = sub.add_parser("train", help="train a model on the sparse-signal task")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="re-evaluate a checkpoint on its validation split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("dump-kernel", help="write the convolution kernel of a fixed-step system")
    _add_common(p)
    p.set_defaults(fn=cmd_dump_kernel)

    p = sub.add_parser("compress-trace",
                       help="write intervals, grids, and neighbor windows for an input sequence")
    _add_common(p)
    p.add_argument("--input", required=True, help="JSON file holding the [L, W] sequence")
    p.set_defaults(fn=cmd_compress_trace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except (CliError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # contract: report, never traceback
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
