"""Tests for the optimizer, metrics, and the seeded training loop."""

import gc
import math
import weakref

import numpy as np
import pytest

from ressm import autodiff as ad
from ressm import network as net
from ressm import tasks, training


def tiny_spec(vocab, n_classes, h_dim=8, depth=1, kappas=(None, 0.5)):
    branches = [net.BranchSpec(kappa=k, n_state=2, window_k=2, basis_g=3) for k in kappas]
    return net.NetworkSpec(
        depth=depth, h_dim=h_dim,
        block=net.BlockSpec(branches=branches, norm_kind="rmsnorm", norm_position="pre"),
        head_kind="classification", n_classes=n_classes, vocab_size=vocab,
    )


class TestAdamW:
    def test_zero_grads_zero_decay_is_identity(self):
        cfg = training.TrainConfig(lr=0.1, weight_decay=0.0)
        params = {"w": np.array([1.0, -2.0, 3.0])}
        want = params["w"].copy()
        training.adamw_step(params, {"w": np.zeros(3)}, cfg, {})
        np.testing.assert_array_equal(params["w"], want)

    def test_single_step_matches_hand_computation(self):
        # Independent inline evaluation of the update rule for f(w) = w^2
        # at w = 1 (gradient 2); the inline betas and eps pin ADAM_BETAS
        # and ADAM_EPS.
        lr, wd, b1, b2, eps = 0.1, 0.0, 0.9, 0.999, 1e-8
        cfg = training.TrainConfig(lr=lr, weight_decay=wd)
        params = {"w": np.array(1.0)}
        training.adamw_step(params, {"w": np.array(2.0)}, cfg, {})
        m = (1 - b1) * 2.0
        v = (1 - b2) * 4.0
        m_hat = m / (1 - b1)
        v_hat = v / (1 - b2)
        want = 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert float(params["w"]) == pytest.approx(want, rel=1e-15)

    def test_decay_only_shrinks_norm(self):
        cfg = training.TrainConfig(lr=0.1, weight_decay=0.5)
        params = {"w": np.array([1.0, -2.0])}
        before = np.linalg.norm(params["w"])
        training.adamw_step(params, {"w": np.zeros(2)}, cfg, {})
        assert np.linalg.norm(params["w"]) < before

    def test_moments_persist_in_state(self):
        cfg = training.TrainConfig(lr=0.01)
        params = {"w": np.array(0.0)}
        state = {}
        training.adamw_step(params, {"w": np.array(1.0)}, cfg, state)
        training.adamw_step(params, {"w": np.array(1.0)}, cfg, state)
        assert state["step"] == 2
        assert float(state["m"]["w"]) == pytest.approx(0.1 * 1 + 0.9 * 0.1)

    def test_shape_mismatch_rejected(self):
        cfg = training.TrainConfig()
        with pytest.raises(ValueError):
            training.adamw_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, cfg, {})

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        total = training.clip_global_norm(grads, 1.0)
        assert total == pytest.approx(5.0)
        assert math.sqrt(sum(float(g @ g) for g in grads.values())) == pytest.approx(1.0)


class TestEvaluate:
    def test_tie_rule_prefers_lower_class(self):
        # All-zero weights make every logit equal; under the tie rule the
        # top-1 prediction is always class 0.
        t = tasks.SparseSignalTask(seq_len=16, n_classes=3, noise_vocab=3,
                                   n_train=12, n_val=12, seed=1)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=3)
        model = net.ResampleNetwork(spec, seed=0)
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        _, val = tasks.gen_sparse_task(t)
        m = training.evaluate(model, val)
        want = sum(ex.label == 0 for ex in val) / len(val)
        assert m.top1 == want

    def test_top5_at_least_top1(self):
        t = tasks.SparseSignalTask(seq_len=20, n_classes=6, noise_vocab=4,
                                   n_train=1, n_val=16, seed=3)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=6)
        model = net.ResampleNetwork(spec, seed=2)
        _, val = tasks.gen_sparse_task(t)
        m = training.evaluate(model, val)
        assert m.top5 >= m.top1

    def test_perplexity_is_exp_loss(self):
        t = tasks.SparseSignalTask(seq_len=12, n_train=1, n_val=8, seed=5)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=4)
        model = net.ResampleNetwork(spec, seed=4)
        _, val = tasks.gen_sparse_task(t)
        m = training.evaluate(model, val)
        assert m.perplexity == pytest.approx(math.exp(m.loss), rel=1e-12)

    def test_replay_identical(self):
        t = tasks.SparseSignalTask(seq_len=16, n_train=1, n_val=10, seed=8)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=4)
        model = net.ResampleNetwork(spec, seed=7)
        _, val = tasks.gen_sparse_task(t)
        a = training.evaluate(model, val)
        b = training.evaluate(model, val)
        assert a == b

    def test_empty_dataset_rejected(self):
        model = net.ResampleNetwork(tiny_spec(vocab=12, n_classes=4), seed=9)
        with pytest.raises(ValueError):
            training.evaluate(model, [])


class TestTrainLoop:
    def test_zero_lr_keeps_metrics_constant(self):
        t = tasks.SparseSignalTask(seq_len=12, n_train=8, n_val=6, seed=11)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=t.n_classes, h_dim=4)
        model = net.ResampleNetwork(spec, seed=10)
        cfg = training.TrainConfig(lr=0.0, weight_decay=0.0, epochs=3,
                                   batch_size=4, scheduler="none", seed=12)
        result = training.train(model, t, cfg)
        val_rows = [r for r in result.history if r["split"] == "val"]
        assert all(r["loss"] == val_rows[0]["loss"] for r in val_rows)

    def test_easy_task_learns(self):
        # Half the positions carry the class token: a depth-1 model should
        # cut the loss by 10x within 50 epochs (seed recorded here).
        t = tasks.SparseSignalTask(seq_len=32, n_classes=2, n_informative=16,
                                   noise_vocab=4, n_train=24, n_val=12, seed=21)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=2, h_dim=8, kappas=(None, 0.5))
        model = net.ResampleNetwork(spec, seed=20)
        cfg = training.TrainConfig(lr=3e-3, weight_decay=0.01, epochs=50,
                                   batch_size=8, scheduler="none", seed=22)
        result = training.train(model, t, cfg)
        val_rows = [r for r in result.history if r["split"] == "val"]
        assert val_rows[-1]["loss"] < 0.1 * val_rows[0]["loss"]
        assert val_rows[-1]["top1"] == 1.0

    def test_divergence_aborts_with_diagnostic(self):
        t = tasks.SparseSignalTask(seq_len=12, n_train=4, n_val=2, seed=14)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=t.n_classes, h_dim=4)
        spec.block.norm_kind = "none"  # nothing rescales the blow-up away
        model = net.ResampleNetwork(spec, seed=13)
        model.params["embed.table"] = np.full_like(model.params["embed.table"], 1e200)
        cfg = training.TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=15)
        with pytest.raises(training.TrainingDiverged, match="epoch 0"):
            training.train(model, t, cfg)

    def test_full_run_determinism(self):
        t = tasks.SparseSignalTask(seq_len=16, n_train=10, n_val=6, seed=16)
        cfg = training.TrainConfig(lr=1e-3, epochs=3, batch_size=5, seed=17)
        histories = []
        for _ in range(2):
            model = net.ResampleNetwork(tiny_spec(vocab=t.vocab_size, n_classes=4, h_dim=4), seed=18)
            histories.append(training.train(model, t, cfg).history)
        assert histories[0] == histories[1]

    def test_kappa_one_ablation_runs(self):
        # The no-compression ablation is pure configuration: kappa = 1.0.
        t = tasks.SparseSignalTask(seq_len=12, n_train=4, n_val=2, seed=20)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=4, h_dim=4, kappas=(None, 1.0))
        model = net.ResampleNetwork(spec, seed=19)
        cfg = training.TrainConfig(lr=1e-3, epochs=1, batch_size=4, seed=21)
        result = training.train(model, t, cfg)
        assert len(result.history) == 2

    def test_plateau_scheduler_reduces_lr(self):
        cfg = training.TrainConfig(lr=1.0, scheduler="plateau", plateau_patience=2,
                                   plateau_factor=0.1)
        # Emulate the bookkeeping the loop applies.
        lr, best, wait = cfg.lr, math.inf, 0
        for loss in [1.0, 1.0, 1.0, 1.0]:
            if loss < best:
                best, wait = loss, 0
            else:
                wait += 1
                if wait >= cfg.plateau_patience:
                    lr *= cfg.plateau_factor
                    wait = 0
        assert lr == pytest.approx(0.1)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            training.TrainConfig(epochs=0)

    def test_final_val_is_the_last_val_row(self, monkeypatch):
        # Nothing changes the weights after the last epoch's validation
        # pass, so train() reports that pass instead of running another.
        real = training.evaluate
        calls = []
        monkeypatch.setattr(training, "evaluate",
                            lambda *a: calls.append(1) or real(*a))
        t = tasks.SparseSignalTask(seq_len=12, n_train=8, n_val=4, seed=25)
        model = net.ResampleNetwork(tiny_spec(vocab=t.vocab_size, n_classes=4, h_dim=4), seed=26)
        cfg = training.TrainConfig(lr=1e-3, epochs=3, batch_size=4, seed=27)
        result = training.train(model, t, cfg)
        assert len(calls) == cfg.epochs
        last = [r for r in result.history if r["split"] == "val"][-1]
        assert result.final_val == training.EvalMetrics(
            top1=last["top1"], top5=last["top5"], loss=last["loss"], perplexity=last["ppl"])
        assert result.final_val == real(model, tasks.gen_sparse_task(t)[1])

    def test_optimizer_step_resolved_at_call_time(self, monkeypatch):
        # Tools that time or count optimizer steps patch training.adamw_step.
        real = training.adamw_step
        steps = []
        monkeypatch.setattr(training, "adamw_step",
                            lambda *a, **k: steps.append(1) or real(*a, **k))
        t = tasks.SparseSignalTask(seq_len=12, n_train=8, n_val=2, seed=28)
        model = net.ResampleNetwork(tiny_spec(vocab=t.vocab_size, n_classes=4, h_dim=4), seed=29)
        training.train(model, t, training.TrainConfig(epochs=2, batch_size=3, seed=30))
        assert len(steps) == 2 * 3  # ceil(8 / 3) steps per epoch

    def test_best_checkpoint_tracked(self):
        t = tasks.SparseSignalTask(seq_len=12, n_train=8, n_val=4, seed=23)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=4, h_dim=4)
        model = net.ResampleNetwork(spec, seed=22)
        cfg = training.TrainConfig(lr=1e-3, epochs=3, batch_size=4, seed=24)
        result = training.train(model, t, cfg)
        assert 0 <= result.best_epoch < cfg.epochs
        assert set(result.best_params) == set(model.params)


class TestTapeLifetime:
    def test_each_tape_is_freed_without_the_cyclic_collector(self, monkeypatch):
        tapes = []

        class WatchedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", WatchedTape)
        t = tasks.SparseSignalTask(seq_len=12, n_train=4, n_val=2, seed=28)
        model = net.ResampleNetwork(tiny_spec(vocab=t.vocab_size, n_classes=4), seed=29)
        train_set, _ = tasks.gen_sparse_task(t)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            training._batch_grads(model, train_set, 0, 0)
            assert len(tapes) == len(train_set)
            assert all(ref() is None for ref in tapes)
        finally:
            if was_enabled:
                gc.enable()
