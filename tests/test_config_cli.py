"""Tests for config parsing and every CLI subcommand's contract."""

import json
import math
import os
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from test_acceptance import acceptance_model_spec

from ressm import cli
from ressm import config as cfgmod
from ressm import network as net
from ressm.checkpoint import load_checkpoint, save_checkpoint
from ressm.cli import main
from ressm.serialize import dumps_json, fmt_float
from ressm.tasks import SparseSignalTask
from ressm.training import TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


SMOKE_TRAIN = """
# tiny smoke setup
model.h_dim = 8
model.depth = 1
model.n_state = 2
model.window_k = 2
model.basis_g = 3
model.branches = base,0.5
task.seq_len = 32
task.n_classes = 4
task.n_informative = 8
task.noise_vocab = 8
task.n_train = 8
task.n_val = 4
train.epochs = 2
train.batch_size = 4
"""


class TestConfig:
    def test_parse_with_comments_and_blanks(self):
        raw = cfgmod.parse_config_text("a.b = 1 # inline\n\n# full line\nc.d = x y\n")
        assert raw == {"a.b": "1", "c.d": "x y"}

    def test_missing_equals_rejected(self):
        with pytest.raises(cfgmod.ConfigError, match="key = value"):
            cfgmod.parse_config_text("just words\n")

    def test_overrides_win(self):
        raw = cfgmod.apply_overrides({"a.b": "1"}, ["a.b=2", "c.d = 3"])
        assert raw == {"a.b": "2", "c.d": "3"}

    def test_unknown_key_named(self):
        schema = {"a.b": cfgmod.Field(int, 0)}
        with pytest.raises(cfgmod.ConfigError, match="a.typo"):
            cfgmod.resolve({"a.typo": "1"}, schema)

    def test_bad_value_named(self):
        schema = {"a.b": cfgmod.Field(int, 0)}
        with pytest.raises(cfgmod.ConfigError, match="a.b"):
            cfgmod.resolve({"a.b": "soup"}, schema)

    def test_defaults_fill_in(self):
        schema = {"a.b": cfgmod.Field(int, 7), "c.d": cfgmod.Field(float, 0.5)}
        assert cfgmod.resolve({}, schema) == {"a.b": 7, "c.d": 0.5}

    def test_branch_parsing(self):
        assert cfgmod.parse_branches("base,0.5,0.2") == [None, 0.5, 0.2]
        with pytest.raises(ValueError):
            cfgmod.parse_branches("  ")

    def test_float_format_roundtrips(self):
        r = np.random.default_rng(0)
        for _ in range(200):
            x = float(r.normal() * 10.0 ** r.integers(-12, 12))
            assert float(fmt_float(x)) == x

    def test_json_emitter_parses_back(self):
        doc = {"a": [1, 2.5, -1e-17], "b": {"c": True, "d": None, "e": "x\"y\n"}}
        assert json.loads(dumps_json(doc)) == doc


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "run"
        code = main(["verify-linearity", "--out", str(out), "--seed", "3",
                     "--set", "verify.instances=4"])
        assert code == 0
        doc = json.loads((out / "linearity_report.json").read_text())
        assert doc["all_passed"] is True
        assert len(doc["reports"]) == 4
        for rep in doc["reports"]:
            assert 0.98 <= rep["slope"] <= 1.02
            assert rep["residual"] < 1e-9

    def test_short_grid_is_usage_error(self, tmp_path):
        code = main(["verify-linearity", "--out", str(tmp_path / "g"),
                     "--set", "verify.grid_points=2"])
        assert code == 2
        assert not (tmp_path / "g").exists()

    def test_existing_out_without_force(self, tmp_path):
        out = tmp_path / "dir"
        out.mkdir()
        code = main(["verify-linearity", "--out", str(out), "--set", "verify.instances=2"])
        assert code == 2

    def test_force_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "rep"
        args = ["verify-linearity", "--out", str(out), "--seed", "9",
                "--set", "verify.instances=3"]
        assert main(args) == 0
        first = (out / "linearity_report.json").read_bytes()
        assert main(args + ["--force"]) == 0
        assert (out / "linearity_report.json").read_bytes() == first


class TestTrainEvalCommands:
    def test_smoke_train_and_replay(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_TRAIN)
        out = tmp_path / "run"
        t0 = time.perf_counter()
        code = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "5"])
        assert code == 0
        assert time.perf_counter() - t0 < 60.0
        for name in ("metrics.csv", "summary.json", "checkpoint_final.json",
                     "checkpoint_best.json"):
            assert (out / name).exists()

        metrics_first = (out / "metrics.csv").read_bytes()
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--seed", "5", "--force"]) == 0
        assert (out / "metrics.csv").read_bytes() == metrics_first

        # Eval of the final checkpoint reproduces the recorded metrics.
        eval_out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(out / "checkpoint_final.json"),
                     "--out", str(eval_out)])
        assert code == 0
        got = json.loads((eval_out / "eval_metrics.json").read_text())
        want = json.loads((out / "summary.json").read_text())["final_val"]
        assert got == want

    def test_best_checkpoint_reproduces_best_val_loss_under_batchnorm(self, tmp_path):
        cfg = tmp_path / "bn.cfg"
        cfg.write_text(SMOKE_TRAIN)
        out = tmp_path / "run"
        # Seed 3's best epoch comes before the last, so the buffers move after it.
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "3",
                     "--set", "model.norm=batchnorm", "--set", "model.norm_position=post_skip",
                     "--set", "train.epochs=6"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["best_epoch"] < 5  # the running buffers moved after the best epoch
        eval_out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_best.json"),
                     "--out", str(eval_out)]) == 0
        got = json.loads((eval_out / "eval_metrics.json").read_text())
        assert got["loss"] == summary["best_val_loss"]

    def test_malformed_key_names_offender(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.h_dmi = 8\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "model.h_dmi" in capsys.readouterr().err

    def test_zero_epochs_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--set", "train.epochs=0"]) == 2
        assert "train.epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, field", [
        ("model.window_k=0", "model.window_k"),
        ("model.h_dim=0", "model.h_dim"),
        ("model.h_dim=1", "model.h_dim"),  # fewer channels than the two branches
        ("model.n_state=0", "model.n_state"),
        ("model.basis_g=0", "model.basis_g"),
        ("model.depth=0", "model.depth"),
        ("model.norm=foo", "model.norm_kind"),
        ("model.norm_position=mid", "model.norm_position"),
        ("model.pooling=max", "model.pooling"),
        ("model.branches=base,1.5", "model.kappa"),
        ("task.seq_len=0", "task.seq_len"),
        ("task.n_informative=17", "task.n_informative"),
        ("task.n_classes=1", "task.n_classes"),
        ("task.n_train=0", "task.n_train"),
        ("task.n_val=0", "task.n_val"),
        ("train.batch_size=0", "train.batch_size"),
        ("train.scheduler=step", "train.scheduler"),
        ("train.lr=nan", "train.lr"),
        ("train.lr=inf", "train.lr"),
        ("train.clip_norm=nan", "train.clip_norm"),
        ("train.clip_norm=inf", "train.clip_norm"),
        ("train.clip_norm=-1", "train.clip_norm"),
        ("train.weight_decay=-0.01", "train.weight_decay"),
        ("train.weight_decay=nan", "train.weight_decay"),
        ("train.weight_decay=inf", "train.weight_decay"),
        ("train.plateau_factor=nan", "train.plateau_factor"),
        ("train.plateau_factor=-1", "train.plateau_factor"),
        ("train.plateau_factor=0", "train.plateau_factor"),
        ("train.plateau_factor=1.5", "train.plateau_factor"),
        ("train.plateau_patience=0", "train.plateau_patience"),
        ("model.branches=base,nan", "model.branches"),
    ])
    def test_bad_setting_rejected_before_output(self, tmp_path, capsys, setting, field):
        out = tmp_path / "run"
        assert main(["train", "--out", str(out), "--set", "train.epochs=1",
                     "--set", "task.seq_len=16", "--set", "task.n_train=4",
                     "--set", "task.n_val=2", "--set", setting]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_train_schema_pinned(self):
        # Every key, parser and default, in order.  The task.* and train.*
        # keys come from record fields, so renaming or re-defaulting a
        # field changes the CLI and fails here.
        want = {
            "model.h_dim": (int, 16),
            "model.depth": (int, 2),
            "model.n_state": (int, 4),
            "model.window_k": (int, 4),
            "model.basis_g": (int, 8),
            "model.branches": (cfgmod.parse_branches, [None, 0.5]),
            "model.norm": (str, "rmsnorm"),
            "model.norm_position": (str, "pre"),
            "model.pooling": (str, "mean"),
            "task.seq_len": (int, 256),
            "task.n_classes": (int, 4),
            "task.n_informative": (int, 4),
            "task.noise_vocab": (int, 8),
            "task.n_train": (int, 128),
            "task.n_val": (int, 64),
            "train.lr": (float, 1e-3),
            "train.weight_decay": (float, 0.05),
            "train.batch_size": (int, 16),
            "train.epochs": (int, 100),
            "train.scheduler": (str, "plateau"),
            "train.plateau_patience": (int, 5),
            "train.plateau_factor": (float, 0.1),
            "train.clip_norm": (float, 1.0),
        }
        got = {k: (f.parse, f.default) for k, f in cli._TRAIN_SCHEMA.items()}
        assert list(got) == list(want)
        assert got == want

    def test_sparse_task_config_builds_criterion_8_run(self):
        raw = cfgmod.load_config(os.path.join(ROOT, "configs", "sparse_task.cfg"))
        model, task, tcfg = cli._build_run(cfgmod.resolve(raw, cli._TRAIN_SCHEMA), seed=0)
        # Criterion 8's settings, seeds aside.
        assert replace(task, seed=101) == SparseSignalTask(
            seq_len=256, n_informative=4, n_classes=4, noise_vocab=8, n_train=128,
            n_val=64, seed=101)
        assert model.spec == acceptance_model_spec(task)
        assert replace(tcfg, seed=102) == TrainConfig(
            lr=3e-3, weight_decay=0.01, epochs=100, batch_size=16, scheduler="cosine",
            seed=102)

    def test_missing_checkpoint(self, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "y")])
        assert code == 2


def _small_checkpoint(path):
    """A valid eval-ready checkpoint of a tiny token model."""
    task = SparseSignalTask(seq_len=16, n_train=4, n_val=4, seed=1)
    spec = net.NetworkSpec(
        depth=1, h_dim=4,
        block=net.BlockSpec(branches=[net.BranchSpec(kappa=None), net.BranchSpec(kappa=0.5)],
                            norm_kind="rmsnorm", norm_position="pre"),
        n_classes=task.n_classes, vocab_size=task.vocab_size)
    save_checkpoint(path, net.ResampleNetwork(spec, seed=3), extra={"task": asdict(task)})
    return json.loads(path.read_text())


def _drop_gain(doc):
    del doc["params"]["block0.norm.gain"]


def _widen_bias(doc):
    doc["params"]["head.b"] = {"shape": [5], "data": [0.0] * 5}


def _nan_bias(doc):
    doc["params"]["head.b"]["data"][1] = float("nan")


def _extra_weight(doc):
    doc["params"]["head.extra"] = {"shape": [1], "data": [0.0]}


class TestCheckpointValidation:
    def test_valid_checkpoint_evaluates(self, tmp_path):
        path = tmp_path / "ok.json"
        _small_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("corrupt, key", [
        (_drop_gain, "block0.norm.gain"),
        (_widen_bias, "head.b"),
        (_nan_bias, "head.b"),
        (_extra_weight, "head.extra"),
    ])
    def test_bad_weights_are_usage_errors_before_output(self, tmp_path, capsys, corrupt, key):
        path = tmp_path / "bad.json"
        doc = _small_checkpoint(path)
        corrupt(doc)
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match=repr(key)):
            load_checkpoint(path)


    @pytest.mark.parametrize("value", [4.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("field", ["depth", "h_dim", "n_classes", "vocab_size", "input_dim",
                                       "n_state", "window_k", "basis_g"])
    def test_non_integer_size_is_usage_error_before_output(self, tmp_path, capsys,
                                                          field, value):
        # JSON reads 4.0 and true as well as 4.  Unchecked, a float size fails
        # only in the forward ("slice indices must be integers"), and true
        # reads as 1.
        path = tmp_path / "bad_size.json"
        doc = _small_checkpoint(path)
        spec = doc["spec"]
        (spec if field in spec else spec["block"]["branches"][1])[field] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("task_edit, message", [
        ({"n_val": 0}, "n_val"),
        ({"bogus": 1}, "bogus"),
        ({"n_val": 4.0}, "n_val must be an integer"),
        ({"seq_len": 16.0}, "seq_len must be an integer"),
        ({"n_informative": 2.5}, "n_informative must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"noise_vocab": 8.0}, "noise_vocab must be an integer"),
    ])
    def test_bad_task_record_is_usage_error_before_output(self, tmp_path, capsys,
                                                         task_edit, message):
        path = tmp_path / "bad_task.json"
        doc = _small_checkpoint(path)
        doc["extra"]["task"].update(task_edit)
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reshape, section", [
        (lambda doc: [], "checkpoint must be an object"),
        (lambda doc: {**doc, "params": []}, "checkpoint params must be an object"),
        (lambda doc: {**doc, "buffers": "x"}, "checkpoint buffers must be an object"),
        (lambda doc: {**doc, "extra": []}, "checkpoint extra must be an object"),
    ], ids=["top-level", "params", "buffers", "extra"])
    def test_misshapen_document_is_usage_error_before_output(self, tmp_path, capsys,
                                                             reshape, section):
        path = tmp_path / "bad_shape.json"
        path.write_text(json.dumps(reshape(_small_checkpoint(path))))
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 2
        assert section in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match=section):
            load_checkpoint(path)

    @pytest.mark.parametrize("task_edit, keys", [
        # 4 + 9 token ids against the model's 12.
        ({"noise_vocab": 9}, ("task.noise_vocab", "spec.vocab_size")),
        # 3 + 8 ids fit, but the head has 4 classes.
        ({"n_classes": 3}, ("task.n_classes", "spec.n_classes")),
    ], ids=["vocab_size", "n_classes"])
    def test_task_unfit_for_model_is_usage_error_before_output(self, tmp_path, capsys,
                                                              task_edit, keys):
        path = tmp_path / "unfit_task.json"
        doc = _small_checkpoint(path)
        doc["extra"]["task"].update(task_edit)
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["eval", "--checkpoint", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)
        assert not out.exists()


class TestDumpKernel:
    def test_half_life_geometric_rows(self, tmp_path):
        out = tmp_path / "k"
        code = main(["dump-kernel", "--out", str(out),
                     "--set", "kernel.a_diag=-1", "--set", "kernel.b=1",
                     "--set", "kernel.c=2", "--set", f"kernel.delta={math.log(2.0)!r}",
                     "--set", "kernel.length=4"])
        assert code == 0
        lines = (out / "kernel.csv").read_text().strip().splitlines()
        assert lines[0] == "index,value"
        values = [float(ln.split(",")[1]) for ln in lines[1:]]
        np.testing.assert_array_equal(values, [1.0, 0.5, 0.25, 0.125])

    def test_single_tap(self, tmp_path):
        out = tmp_path / "k1"
        code = main(["dump-kernel", "--out", str(out), "--set", "kernel.length=1",
                     "--set", "kernel.a_diag=-2", "--set", "kernel.b=3",
                     "--set", "kernel.c=0.5", "--set", "kernel.delta=0.25"])
        assert code == 0
        lines = (out / "kernel.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_selective_config_rejected(self, tmp_path, capsys):
        code = main(["dump-kernel", "--out", str(tmp_path / "k2"),
                     "--set", "kernel.selective=true"])
        assert code == 2
        assert "kernel.selective" in capsys.readouterr().err
        assert not (tmp_path / "k2").exists()

    @pytest.mark.parametrize("setting, field", [
        ("kernel.a_diag=1.0", "kernel.a_diag"),
        ("kernel.b=1,2", "kernel.a_diag, b, c"),
        ("kernel.delta=-1", "kernel.delta"),
        ("kernel.delta=nan", "kernel.delta"),
        ("kernel.delta=inf", "kernel.delta"),
        ("kernel.c=1,-inf", "kernel.c"),
        ("kernel.length=0", "kernel.length"),
    ])
    def test_bad_setting_rejected_before_output(self, tmp_path, capsys, setting, field):
        out = tmp_path / "k3"
        assert main(["dump-kernel", "--out", str(out), "--set", setting]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestCompressTrace:
    def write_input(self, tmp_path, L=20, width=3, seed=0):
        x = np.random.default_rng(seed).normal(size=(L, width))
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"x": x.tolist()}))
        return path, x

    def test_uniform_intervals_align_grids(self, tmp_path):
        path, _ = self.write_input(tmp_path)
        out = tmp_path / "t"
        code = main(["compress-trace", "--input", str(path), "--out", str(out),
                     "--set", "resample.kappa=1.0", "--set", "resample.delta_base=0.5"])
        assert code == 0
        doc = json.loads((out / "compress_trace.json").read_text())
        assert doc["src_times"] == doc["dst_times"]

    def test_ratio_bounds(self, tmp_path):
        path, _ = self.write_input(tmp_path, L=40)
        out = tmp_path / "t2"
        code = main(["compress-trace", "--input", str(path), "--out", str(out),
                     "--set", "resample.kappa=0.5"])
        assert code == 0
        doc = json.loads((out / "compress_trace.json").read_text())
        assert 0.5 <= doc["compression_ratio"] <= 1.0

    def test_neighbors_match_brute_force(self, tmp_path):
        path, x = self.write_input(tmp_path, L=25, seed=4)
        out = tmp_path / "t3"
        code = main(["compress-trace", "--input", str(path), "--out", str(out),
                     "--seed", "4", "--set", "resample.window_k=3"])
        assert code == 0
        doc = json.loads((out / "compress_trace.json").read_text())
        src = np.array(doc["src_times"])
        for t, window in zip(doc["dst_times"], doc["neighbors"]):
            ranked = sorted(range(len(src)), key=lambda j: (abs(src[j] - t), j))
            assert sorted(window) == sorted(ranked[:3])

    def test_bad_input_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["compress-trace", "--input", str(path),
                     "--out", str(tmp_path / "t4")]) == 2
        path.write_text('{"x": "words"}')
        assert main(["compress-trace", "--input", str(path),
                     "--out", str(tmp_path / "t5")]) == 2
        assert not (tmp_path / "t4").exists() and not (tmp_path / "t5").exists()

    def test_missing_input(self, tmp_path):
        assert main(["compress-trace", "--input", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "t6")]) == 2
        assert not (tmp_path / "t6").exists()

    @pytest.mark.parametrize("setting, field", [
        ("resample.basis_g=0", "resample.basis_g"),
        ("resample.basis_g=-2", "resample.basis_g"),
        ("resample.window_k=0", "resample.window_k"),
        ("resample.window_k=-1", "resample.window_k"),
        ("resample.kappa=0", "resample.kappa"),
        ("resample.delta_base=0", "resample.delta_base"),
        ("resample.delta_base=nan", "resample.delta_base"),
        ("resample.delta_base=inf", "resample.delta_base"),
    ])
    def test_bad_setting_rejected_before_output(self, tmp_path, capsys, setting, field):
        path, _ = self.write_input(tmp_path)
        out = tmp_path / "t9"
        assert main(["compress-trace", "--input", str(path), "--out", str(out),
                     "--set", setting]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_input_rejected_before_output(self, tmp_path, capsys, entry):
        # json.load reads these literals as floats; the load must refuse
        # them before the output directory exists.
        path = tmp_path / "nonfinite.json"
        path.write_text(f'{{"x": [[0.5, 1.0], [{entry}, 2.0], [0.1, 0.2]]}}')
        out = tmp_path / "t8"
        assert main(["compress-trace", "--input", str(path), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not out.exists()

    def test_trace_and_kernel_idempotent(self, tmp_path):
        path, _ = self.write_input(tmp_path, L=12, seed=6)
        targs = ["compress-trace", "--input", str(path), "--seed", "6",
                 "--out", str(tmp_path / "t7")]
        assert main(targs) == 0
        first = (tmp_path / "t7" / "compress_trace.json").read_bytes()
        assert main(targs + ["--force"]) == 0
        assert (tmp_path / "t7" / "compress_trace.json").read_bytes() == first

        kargs = ["dump-kernel", "--out", str(tmp_path / "k7"),
                 "--set", "kernel.length=6"]
        assert main(kargs) == 0
        first = (tmp_path / "k7" / "kernel.csv").read_bytes()
        assert main(kargs + ["--force"]) == 0
        assert (tmp_path / "k7" / "kernel.csv").read_bytes() == first


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
