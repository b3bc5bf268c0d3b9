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

    def test_flat_step_bit_equal_to_per_parameter_loop(self):
        # The per-parameter update the flat step replaced, kept as the oracle.
        def loop_step(params, grads, cfg, state, lr):
            if not state:
                state["step"] = 0
                state["m"] = {k: np.zeros_like(v) for k, v in params.items()}
                state["v"] = {k: np.zeros_like(v) for k, v in params.items()}
            b1, b2 = training.ADAM_BETAS
            state["step"] += 1
            t = state["step"]
            for name, p in params.items():
                g = grads[name]
                m = state["m"][name]
                v = state["v"][name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)
                p -= lr * cfg.weight_decay * p

        rng = np.random.default_rng(3)
        shapes = {"table": (5, 3), "bias": (3,), "scale": (), "cube": (2, 2, 2)}
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        got = {k: v.copy() for k, v in init.items()}
        want = {k: v.copy() for k, v in init.items()}
        cfg = training.TrainConfig(lr=3e-3, weight_decay=0.05)
        got_state, want_state = {}, {}
        for step in range(6):
            grads = {k: rng.normal(scale=10.0 ** (step - 3), size=s) for k, s in shapes.items()}
            lr = cfg.lr * (0.9 ** step)
            training.adamw_step(got, {k: g.copy() for k, g in grads.items()}, cfg, got_state,
                                lr=lr)
            loop_step(want, grads, cfg, want_state, lr)
            for k in shapes:
                assert np.array_equal(got[k], want[k]), (step, k)
                assert np.array_equal(got_state["m"][k], want_state["m"][k]), (step, k)
                assert np.array_equal(got_state["v"][k], want_state["v"][k]), (step, k)

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

    @staticmethod
    def per_example_metrics(model, dataset):
        # Scoring one example at a time, as evaluate did before it packed.
        losses, hits1, hits5 = [], 0, 0
        for item in dataset:
            logits = model.predict(item.tokens)
            losses.append(ad.cross_entropy(ad.constant(logits), item.label).item())
            hits1 += training._topk_hit(logits, item.label, 1)
            hits5 += training._topk_hit(logits, item.label, 5)
        return float(np.mean(losses)), hits1 / len(losses), hits5 / len(losses)

    @pytest.mark.parametrize("norm", ["rmsnorm", "batchnorm", "none"])
    @pytest.mark.parametrize("pooling", ["mean", "last"])
    def test_packed_matches_per_example(self, norm, pooling):
        t = tasks.SparseSignalTask(seq_len=24, n_classes=6, noise_vocab=4,
                                   n_train=1, n_val=10, seed=51)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=6, depth=2)
        spec.block.norm_kind = norm
        spec.block.norm_position = "post_skip" if norm == "batchnorm" else "pre"
        spec.pooling = pooling
        model = net.ResampleNetwork(spec, seed=52)
        rng = np.random.default_rng(53)
        for buf in model.buffers.values():  # eval-mode batchnorm reads these
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)
        _, val = tasks.gen_sparse_task(t)
        assert len(training._groups(val, floor=1)) == 1
        m = training.evaluate(model, val)
        loss, top1, top5 = self.per_example_metrics(model, val)
        assert m.loss == pytest.approx(loss, rel=1e-12, abs=0)
        assert (m.top1, m.top5) == (top1, top5)

    def test_one_predict_per_group(self, monkeypatch):
        real = net.ResampleNetwork.predict
        calls = []
        monkeypatch.setattr(net.ResampleNetwork, "predict",
                            lambda self, x: calls.append(x) or real(self, x))
        t = tasks.SparseSignalTask(seq_len=24, n_train=1, n_val=8, seed=55)
        _, val = tasks.gen_sparse_task(t)
        model = net.ResampleNetwork(tiny_spec(vocab=t.vocab_size, n_classes=t.n_classes),
                                    seed=54)

        # Eight 24-row sequences over 64-row groups: four groups of two.
        monkeypatch.setattr(training, "MAX_TAPE_ROWS", 64)
        training.evaluate(model, val)
        assert [len(x.segs) for x in calls] == [2, 2, 2, 2]

        # A sequence of MAX_TAPE_ROWS rows fills its group alone: one
        # Packed group of one sequence per call.
        calls.clear()
        monkeypatch.setattr(training, "MAX_TAPE_ROWS", 24)
        training.evaluate(model, val)
        assert len(calls) == len(val)
        for x, item in zip(calls, val):
            assert isinstance(x, net.Packed) and len(x.segs) == 1
            np.testing.assert_array_equal(x.rows, item.tokens)


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

    @pytest.mark.parametrize("field, value", [
        ("lr", -1e-3),
        ("lr", math.nan),
        ("lr", math.inf),
        ("weight_decay", -0.01),
        ("weight_decay", math.nan),
        ("weight_decay", math.inf),
        ("clip_norm", -1.0),
        ("clip_norm", math.nan),
        ("clip_norm", math.inf),
        ("plateau_factor", 0.0),
        ("plateau_factor", math.nan),
        ("plateau_factor", -math.inf),
        ("batch_size", 0),
        ("plateau_patience", 0),
        ("scheduler", "step"),
    ])
    def test_bad_setting_rejected(self, field, value):
        # Python callers, such as scripts passing argparse floats, get the
        # same checks as the CLI, each message starting with the field.
        with pytest.raises(ValueError, match=f"^{field} "):
            training.TrainConfig(**{field: value})

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


class TestPackedBatch:
    @pytest.mark.parametrize("norm", ["none", "rmsnorm"])
    @pytest.mark.parametrize("seq_len, n_groups", [(256, 2), (32, 1)])
    def test_gradients_equal_per_example_average(self, norm, seq_len, n_groups):
        # Without batchnorm no row sees another sequence's rows, so one
        # summed loss over a packed group has the per-example gradients.
        t = tasks.SparseSignalTask(seq_len=seq_len, n_train=8, n_val=1, seed=44)
        batch, _ = tasks.gen_sparse_task(t)
        assert len(training._groups(batch, floor=1)) == n_groups
        branches = [net.BranchSpec(kappa=None), net.BranchSpec(kappa=0.5)]
        spec = net.NetworkSpec(depth=2, h_dim=16, block=net.BlockSpec(branches, norm_kind=norm),
                               n_classes=t.n_classes, vocab_size=t.vocab_size)
        model = net.ResampleNetwork(spec, seed=45)
        grads, loss, top1, _ = training._batch_grads(model, batch, 0, 0)

        want = {k: np.zeros_like(v) for k, v in model.params.items()}
        losses, hits = [], 0
        for ex in batch:
            tape = ad.Tape()
            logits, bound = model.forward(ex.tokens, tape=tape, train=True)
            lv = ad.cross_entropy(logits, ex.label)
            tape.backward(lv)
            losses.append(lv.item())
            hits += int(np.argmax(logits.numpy()) == ex.label)
            for name, leaf in bound.items():
                want[name] += tape.grad(leaf) / len(batch)
        for name, g in want.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
        assert loss == pytest.approx(np.mean(losses), rel=1e-12)
        assert top1 == hits / len(batch)

    @pytest.mark.parametrize("batch, rows, sizes", [
        (16, 32, [16]),                  # 512 rows fit one tape
        (16, 256, [4, 4, 4, 4]),         # 4096 rows: four groups of 1024
        (16, 1024, [2] * 8),             # at least two sequences per group
        (5, 256, [2, 3]),                # near-equal groups
        (1, 4096, [1]),
    ])
    def test_groups(self, batch, rows, sizes):
        items = [tasks.Example(tokens=np.zeros(rows, dtype=int), label=0, informative=None)
                 for _ in range(batch)]
        assert [len(g) for g in training._groups(items, floor=2)] == sizes

    @pytest.mark.parametrize("batch, rows, sizes", [
        (16, 1024, [1] * 16),            # one sequence fills a group
        (16, 4096, [1] * 16),            # a sequence longer than a group runs alone
        (16, 300, [2, 3, 3, 2, 3, 3]),   # no group passes 1024 rows
    ])
    def test_groups_without_floor(self, batch, rows, sizes):
        items = [tasks.Example(tokens=np.zeros(rows, dtype=int), label=0, informative=None)
                 for _ in range(batch)]
        assert [len(g) for g in training._groups(items, floor=1)] == sizes

    @pytest.mark.parametrize("norm, sizes", [("batchnorm", [2, 2]), ("rmsnorm", [1, 1, 1, 1])])
    def test_two_sequence_floor_only_for_batchnorm(self, monkeypatch, norm, sizes):
        # Four 12-row sequences over 12-row tapes.
        monkeypatch.setattr(training, "MAX_TAPE_ROWS", 12)
        t = tasks.SparseSignalTask(seq_len=12, n_train=4, n_val=1, seed=46)
        batch, _ = tasks.gen_sparse_task(t)
        spec = tiny_spec(vocab=t.vocab_size, n_classes=t.n_classes)
        spec.block.norm_kind = norm
        model = net.ResampleNetwork(spec, seed=47)
        real = model.forward
        seen = []
        monkeypatch.setattr(model, "forward",
                            lambda x, **k: seen.append(len(x.segs)) or real(x, **k))
        training._batch_grads(model, batch, 0, 0)
        assert seen == sizes


class TestTapeLifetime:
    def test_each_tape_is_freed_without_the_cyclic_collector(self, monkeypatch):
        tapes = []

        class WatchedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", WatchedTape)
        # Four 12-row sequences over 24-row tapes: two packed groups.
        monkeypatch.setattr(training, "MAX_TAPE_ROWS", 24)
        t = tasks.SparseSignalTask(seq_len=12, n_train=4, n_val=2, seed=28)
        model = net.ResampleNetwork(tiny_spec(vocab=t.vocab_size, n_classes=4), seed=29)
        train_set, _ = tasks.gen_sparse_task(t)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            training._batch_grads(model, train_set, 0, 0)
            assert len(tapes) == len(training._groups(train_set, floor=1)) == 2
            assert all(ref() is None for ref in tapes)
        finally:
            if was_enabled:
                gc.enable()
