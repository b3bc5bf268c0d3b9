"""Tests for blocks, norms, network assembly, and the checkpoint container."""

import hashlib

import numpy as np
import pytest
from test_resample import assert_fresh_after_reset

from ressm import autodiff as ad
from ressm import checkpoint as ckpt
from ressm import network as net
from ressm import ssm, tasks, training


def feature_spec(depth=1, h_dim=4, kappas=(None, 0.5), norm="rmsnorm",
                 norm_pos="pre", input_dim=4, n_classes=3, **branch_kw):
    branches = [net.BranchSpec(kappa=k, n_state=2, window_k=2, basis_g=3, **branch_kw)
                for k in kappas]
    return net.NetworkSpec(
        depth=depth, h_dim=h_dim,
        block=net.BlockSpec(branches=branches, norm_kind=norm, norm_position=norm_pos),
        head_kind="classification", n_classes=n_classes, input_dim=input_dim,
    )


def token_spec(depth=1, h_dim=6, vocab=10, kappas=(None, 0.5), n_classes=4, **kw):
    branches = [net.BranchSpec(kappa=k, n_state=2, window_k=2, basis_g=3) for k in kappas]
    return net.NetworkSpec(
        depth=depth, h_dim=h_dim,
        block=net.BlockSpec(branches=branches, **kw),
        head_kind="classification", n_classes=n_classes, vocab_size=vocab,
    )


class TestNorms:
    def test_rmsnorm_ones_is_identity(self):
        out = net.rmsnorm(np.ones((1, 5)), np.ones(5))
        np.testing.assert_allclose(out.numpy(), np.ones((1, 5)), rtol=1e-8)

    def test_rmsnorm_output_rms_is_one(self):
        r = np.random.default_rng(0)
        x = r.normal(size=(6, 8))
        out = net.rmsnorm(x, np.ones(8)).numpy()
        rms = np.sqrt(np.mean(out * out, axis=1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-6)

    def test_rmsnorm_gradients(self):
        r = np.random.default_rng(1)
        gain = ad.constant(r.normal(size=4))
        w = ad.constant(r.normal(size=(3, 4)))
        err = ad.grad_check(
            lambda t: ad.reduce_sum(ad.mul(net.rmsnorm(t, gain), w)), r.normal(size=(3, 4))
        )
        assert err < 1e-4
        x = ad.constant(r.normal(size=(3, 4)))
        err = ad.grad_check(
            lambda t: ad.reduce_sum(ad.mul(net.rmsnorm(x, t), w)), r.normal(size=4)
        )
        assert err < 1e-4

    def test_rmsnorm_backward_after_reset(self):
        r = np.random.default_rng(5)
        assert_fresh_after_reset(net.rmsnorm, [r.normal(size=(4, 3)), r.normal(size=3)], r)

    @pytest.mark.parametrize("train", [True, False])
    def test_batchnorm_backward_after_reset(self, train):
        r = np.random.default_rng(6)
        running = [r.uniform(-0.5, 0.5, size=3), r.uniform(0.5, 1.5, size=3)]
        assert_fresh_after_reset(
            lambda x, g, b: net.batchnorm(x, g, b, *running, train=train),
            [r.normal(size=(5, 3)), r.normal(size=3), r.normal(size=3)], r)

    def test_batchnorm_eval_unit_stats_is_identity(self):
        r = np.random.default_rng(2)
        x = r.normal(size=(5, 3))
        out = net.batchnorm(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), train=False)
        np.testing.assert_allclose(out.numpy(), x, rtol=1e-9)

    def test_batchnorm_train_normalizes_and_updates_buffers(self):
        r = np.random.default_rng(3)
        x = r.normal(size=(50, 3)) * 2.0 + 1.0
        rm, rv = np.zeros(3), np.ones(3)
        out = net.batchnorm(x, np.ones(3), np.zeros(3), rm, rv, train=True).numpy()
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=0), 1.0, rtol=1e-6)
        np.testing.assert_allclose(rm, 0.9 * 0.0 + 0.1 * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * x.var(axis=0), rtol=1e-12)

    def test_batchnorm_gradients_both_modes(self):
        r = np.random.default_rng(4)
        w = ad.constant(r.normal(size=(6, 3)))
        for train in (True, False):
            err = ad.grad_check(
                lambda t: ad.reduce_sum(ad.mul(
                    net.batchnorm(t, ad.constant(np.full(3, 1.3)), ad.constant(np.full(3, -0.2)),
                                  np.zeros(3), np.ones(3), train=train), w)),
                r.normal(size=(6, 3)),
            )
            assert err < 1e-4


class TestBlock:
    def test_zero_output_map_reduces_to_norm_of_input(self):
        # Base-only block, post-skip norm, output map zeroed: the branch
        # contributes nothing, so the block is norm(x + 0) = norm(x).
        spec = feature_spec(kappas=(None,), norm="rmsnorm", norm_pos="post_skip")
        model = net.ResampleNetwork(spec, seed=0)
        model.params["block0.br0.ssm.c"] = np.zeros(2)
        r = np.random.default_rng(5)
        x = r.normal(size=(7, 4))
        out = model.run_block(0, x).numpy()
        want = net.rmsnorm(x, model.params["block0.norm.gain"]).numpy()
        np.testing.assert_array_equal(out, want)

    def test_shape_preserved_across_branch_configs(self):
        for kappas in [(None,), (None, 0.5), (None, 0.5, 0.2)]:
            spec = feature_spec(h_dim=6, kappas=kappas, input_dim=6)
            model = net.ResampleNetwork(spec, seed=1)
            x = np.random.default_rng(6).normal(size=(15, 6))
            out = model.run_block(0, x)
            assert out.shape == (15, 6)

    def test_skip_contributes(self):
        spec = feature_spec(norm="none")
        model = net.ResampleNetwork(spec, seed=2)
        x = np.random.default_rng(7).normal(size=(9, 4))
        out = model.run_block(0, x).numpy()
        branch_only = out - x  # the block adds the raw input back
        assert not np.allclose(out, branch_only)
        assert np.any(branch_only != 0.0)

    def test_branch_independence(self):
        # Zeroing one branch's output map changes only its channel slice
        # of the pre-skip contribution.
        spec = feature_spec(h_dim=6, kappas=(None, 0.5), norm="none", input_dim=6)
        model = net.ResampleNetwork(spec, seed=3)
        x = np.random.default_rng(8).normal(size=(11, 6))
        base = model.run_block(0, x).numpy()
        model.params["block0.br1.ssm.theta_c"] = np.zeros_like(
            model.params["block0.br1.ssm.theta_c"]
        )
        changed = model.run_block(0, x).numpy()
        widths = spec.branch_widths()
        np.testing.assert_array_equal(changed[:, : widths[0]], base[:, : widths[0]])
        assert not np.allclose(changed[:, widths[0]:], base[:, widths[0]:])

    def test_all_base_lti_stack_matches_convolution(self):
        # With every branch a fixed-step system, each channel of the
        # pre-skip output is the causal convolution with its kernel.
        spec = feature_spec(h_dim=4, kappas=(None, None), norm="none")
        model = net.ResampleNetwork(spec, seed=4)
        r = np.random.default_rng(9)
        L = 40
        x = r.normal(size=(L, 4))
        out = model.run_block(0, x).numpy() - x
        widths = spec.branch_widths()
        off = 0
        for b in range(2):
            pre = f"block0.br{b}."
            bvec = model.params[pre + "ssm.b"]
            cvec = model.params[pre + "ssm.c"]
            delta = float(np.log1p(np.exp(model.params[pre + "ssm.raw_delta"])))
            rho = model.params[pre + "ssm.rho"]
            for w in range(widths[b]):
                a = -np.exp(rho[w])
                step = ssm.zoh_discretize(ssm.SsmParams(a_diag=a, b=bvec, c=cvec), delta)
                want = ssm.conv_apply(x[:, off + w], ssm.conv_kernel(step, cvec, L))
                assert np.max(np.abs(out[:, off + w] - want)) < 1e-10
            off += widths[b]


class TestNetwork:
    def test_zero_weights_give_constant_logits(self):
        spec = token_spec()
        model = net.ResampleNetwork(spec, seed=5)
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        r = np.random.default_rng(10)
        l1 = model.predict(r.integers(0, 10, size=12))
        l2 = model.predict(r.integers(0, 10, size=12))
        np.testing.assert_array_equal(l1, l2)

    def test_logit_shapes(self):
        spec = token_spec(n_classes=4)
        model = net.ResampleNetwork(spec, seed=6)
        ids = np.random.default_rng(11).integers(0, 10, size=9)
        assert model.predict(ids).shape == (4,)

    def test_token_out_of_vocab(self):
        model = net.ResampleNetwork(token_spec(vocab=5), seed=8)
        with pytest.raises(ValueError):
            model.predict(np.array([0, 7]))

    def test_forward_deterministic(self):
        spec = feature_spec(depth=2)
        model = net.ResampleNetwork(spec, seed=9)
        x = np.random.default_rng(12).normal(size=(10, 4))
        np.testing.assert_array_equal(model.predict(x), model.predict(x))

    def test_pooling_variants(self):
        for pooling in ("mean", "last"):
            spec = feature_spec()
            spec.pooling = pooling
            model = net.ResampleNetwork(spec, seed=10)
            x = np.random.default_rng(13).normal(size=(8, 4))
            assert model.predict(x).shape == (3,)

    def test_end_to_end_gradcheck_inputs(self):
        # Depth-1 model on 4 channels, 8 positions: gradient of the loss
        # w.r.t. the raw feature input checks against central differences.
        spec = feature_spec(depth=1, h_dim=4, kappas=(None, 0.5))
        model = net.ResampleNetwork(spec, seed=11)
        x = np.random.default_rng(14).normal(size=(8, 4))

        def f(t):
            logits, _ = model.forward(t)
            return ad.cross_entropy(logits, 1)

        assert ad.grad_check(f, x) < 1e-3

    @pytest.mark.parametrize("name", [
        "input.w",
        "block0.br1.res.theta_gamma",
        "block0.br1.res.mus",
        "block0.br1.res.theta_delta",
        "block0.br1.ssm.theta_delta",
        "block0.br0.ssm.c",
        "block0.norm.gain",
        "head.w",
    ])
    def test_end_to_end_gradcheck_weights(self, name):
        spec = feature_spec(depth=1, h_dim=4, kappas=(None, 0.5))
        model = net.ResampleNetwork(spec, seed=12)
        x = np.random.default_rng(15).normal(size=(8, 4))
        label = 2

        tape = ad.Tape()
        logits, bound = model.forward(x, tape=tape)
        tape.backward(ad.cross_entropy(logits, label))
        analytic = tape.grad(bound[name])

        h = 1e-5
        orig = model.params[name].copy()
        numeric = np.zeros_like(orig)
        flat = numeric.reshape(-1)
        for i in range(orig.size):
            for sgn in (+1.0, -1.0):
                probe = orig.copy().reshape(-1)
                probe[i] += sgn * h
                model.params[name] = probe.reshape(orig.shape)
                logits2, _ = model.forward(x)
                flat[i] += sgn * ad.cross_entropy(logits2, label).item() / (2 * h)
        model.params[name] = orig
        rel = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)
        assert rel.max() < 1e-3


class TestPresets:
    def test_classification_preset_structure(self):
        spec = net.classification_preset(depth=2, n_classes=10, vocab_size=50,
                                         h_dim=12, compressions=(0.5, 0.2), window_k=5)
        assert [b.kappa for b in spec.block.branches] == [None, 0.5, 0.2]
        assert spec.block.norm_kind == "batchnorm"
        assert spec.block.norm_position == "post_skip"
        assert all(b.window_k == 5 for b in spec.block.branches)
        model = net.ResampleNetwork(spec, seed=30)
        ids = np.random.default_rng(31).integers(0, 50, size=20)
        assert model.predict(ids).shape == (10,)


def bench_layout(layout):
    """The two layouts the benchmark workloads build (h_dim 16, depth 2,
    the sparse-signal task's 4 classes over 12 tokens)."""
    if layout == "preset":
        return net.classification_preset(depth=2, n_classes=4, vocab_size=12, h_dim=16)
    branches = [net.BranchSpec(kappa=None), net.BranchSpec(kappa=0.5)]
    return net.NetworkSpec(depth=2, h_dim=16, block=net.BlockSpec(branches=branches),
                           n_classes=4, vocab_size=12)


class TestTapeSize:
    @pytest.mark.parametrize("layout, seq_len, ceiling", [
        ("criterion8", 256, 64),
        ("preset", 32, 100),
    ])
    def test_train_example_node_ceiling(self, layout, seq_len, ceiling):
        # Each node costs Python bookkeeping on top of its arithmetic; at
        # L = 32 the node count, not the array work, sets the step time.
        model = net.ResampleNetwork(bench_layout(layout), seed=32)
        ids = np.random.default_rng(33).integers(0, 12, size=seq_len)
        tape = ad.Tape()
        logits, _ = model.forward(ids, tape=tape, train=True)
        ad.cross_entropy(logits, 0)
        assert len(tape.nodes) <= ceiling  # weights, forward ops and the loss

    def test_fixed_step_layer_is_one_node_on_its_weights(self):
        model = net.ResampleNetwork(feature_spec(kappas=(None,), norm="none"), seed=31)
        x = np.random.default_rng(31).normal(size=(6, 4))
        tape = ad.Tape()
        model.run_block(0, x, tape=tape)
        # The input is a constant, so the layer's parents are its weights.
        ops = [node for node in tape.nodes if node.kind != "leaf"]
        assert [node.kind for node in ops] == ["fixed_step_conv", "concat", "add"]
        assert [tape.nodes[p].kind for p in ops[0].parents] == ["leaf"] * 4

    def test_selective_layer_is_one_node_on_its_weights(self):
        model = net.ResampleNetwork(feature_spec(kappas=(None,), norm="none", selective=True),
                                    seed=33)
        x = np.random.default_rng(33).normal(size=(6, 4))
        tape = ad.Tape()
        model.run_block(0, x, tape=tape)
        ops = [node for node in tape.nodes if node.kind != "leaf"]
        assert [node.kind for node in ops] == ["selective_layer", "concat", "add"]
        assert [tape.nodes[p].kind for p in ops[0].parents] == ["leaf"] * 5

    @pytest.mark.parametrize("layout", ["criterion8", "preset"])
    def test_group_records_as_many_nodes_as_one_sequence(self, layout):
        model = net.ResampleNetwork(bench_layout(layout), seed=34)
        r = np.random.default_rng(35)
        counts = []
        for n in (1, 16):
            seqs = [r.integers(0, 12, size=int(r.integers(8, 40))) for _ in range(n)]
            tape = ad.Tape()
            logits, _ = model.forward(net.Packed.of(seqs), tape=tape, train=True)
            assert logits.shape == (n, 4)
            ad.cross_entropy(logits, [0] * n)
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1]


class TestPacked:
    def test_group_logits_match_each_sequence_alone(self):
        # Eval mode: every op is per row or restarts at each start.
        for pooling in ("mean", "last"):
            spec = token_spec(depth=2, kappas=(None, 0.5, 0.3))
            spec.pooling = pooling
            model = net.ResampleNetwork(spec, seed=36)
            r = np.random.default_rng(37)
            seqs = [r.integers(0, 10, size=n) for n in (1, 9, 16, 3)]
            packed = model.predict(net.Packed.of(seqs))
            for row, ids in zip(packed, seqs):
                np.testing.assert_allclose(row, model.predict(ids), rtol=1e-12, atol=1e-14)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            net.Packed.of([np.array([1, 2]), np.array([], dtype=int)])
        with pytest.raises(ValueError, match="non-empty"):
            net.Packed.of([])


class TestBatchnormOverTheGroup:
    """Train-mode batchnorm takes its moments over every row of a packed
    group.  Over one sequence's positions alone, a post-skip batchnorm
    before mean pooling zeroes each channel's mean, so the pooled features
    equal beta and the model ignores its input."""

    def test_train_logits_depend_on_the_tokens(self):
        model = net.ResampleNetwork(bench_layout("preset"), seed=38)
        r = np.random.default_rng(39)
        seqs = [r.integers(0, 12, size=32) for _ in range(2)]
        logits, _ = model.forward(net.Packed.of(seqs), train=True)
        assert np.max(np.abs(logits.numpy()[0] - logits.numpy()[1])) > 1e-6

    @pytest.mark.parametrize("layout, seq_len", [
        ("criterion8", 256),   # train-L256
        ("preset", 32),        # train-L32-bn
        ("criterion8", 1024),  # eval-L1024
    ])
    def test_no_dead_weights(self, layout, seq_len):
        task = tasks.SparseSignalTask(seq_len=seq_len, n_train=16, n_val=1, seed=40)
        batch, _ = tasks.gen_sparse_task(task)
        model = net.ResampleNetwork(bench_layout(layout), seed=41)
        grads, *_ = training._batch_grads(model, batch, 0, 0)
        norms = {name: np.linalg.norm(g) for name, g in grads.items()}
        largest = max(norms.values())
        assert {name for name, x in norms.items() if x <= 1e-10 * largest} == set()

    def test_packed_loss_passes_grad_check(self):
        spec = feature_spec(depth=2, h_dim=4, kappas=(None, 0.5), norm="batchnorm",
                            norm_pos="post_skip")
        model = net.ResampleNetwork(spec, seed=42)
        r = np.random.default_rng(43)
        x = r.normal(size=(19, 4))
        starts = (0, 5, 13)

        def f(t):
            logits, _ = model.forward(net.Packed(t, starts), train=True)
            return ad.cross_entropy(logits, [2, 0, 1])

        assert ad.grad_check(f, x) < 1e-4


class TestInit:
    def test_mode_ladder(self):
        model = net.ResampleNetwork(feature_spec(h_dim=4, kappas=(None, 0.5)), seed=0)
        for b in range(2):
            rho = model.params[f"block0.br{b}.ssm.rho"]
            np.testing.assert_array_equal(rho, np.log([[1.0, 2.0]] * 2))

    # SHA-256 of every initial weight, in name order, at seed 7 for the
    # two benchmark layouts.  Init is part of the byte-stable contract: a
    # change here moves every recorded run.
    @pytest.mark.parametrize("layout, digest", [
        ("criterion8", "dd9b57e40c000e0752908782a4586c97d435d51a3a1b6c5c2e399e7ac4968ff3"),
        ("preset", "3d5d7b5b51277c9a6d8b5842b9a41a12731db17744583ada006142d0c3c475b4"),
    ])
    def test_init_pinned(self, layout, digest):
        params = net.ResampleNetwork(bench_layout(layout), seed=7).params
        h = hashlib.sha256()
        for name in sorted(params):
            h.update(name.encode())
            h.update(params[name].tobytes())
        assert h.hexdigest() == digest


class TestCheckpoint:
    def test_roundtrip_forward_bit_exact(self, tmp_path):
        spec = feature_spec(depth=2, norm="batchnorm", norm_pos="post_skip")
        model = net.ResampleNetwork(spec, seed=13)
        x = np.random.default_rng(16).normal(size=(9, 4))
        want = model.predict(x)
        path = tmp_path / "model.json"
        ckpt.save_checkpoint(path, model, extra={"note": "test"})
        loaded, extra = ckpt.load_checkpoint(path)
        assert extra == {"note": "test"}
        np.testing.assert_array_equal(loaded.predict(x), want)

    # SHA-256 of the saved file at seed 7: the spec's field names and
    # order, the weights and the number format are all part of the format
    # that saved checkpoints and bench/reference.py read.
    @pytest.mark.parametrize("layout, digest", [
        ("criterion8", "1875f894fadcdb912f5a8d0faa4c01ae01b6e7ca5fe61b06e4238e140c72c935"),
        ("preset", "870dae33c881974d77364dc6f63189bf8457d08650f681a5c4be42dc9912ee50"),
    ])
    def test_saved_file_pinned(self, tmp_path, layout, digest):
        path = tmp_path / "model.json"
        ckpt.save_checkpoint(path, net.ResampleNetwork(bench_layout(layout), seed=7))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_repeated_saves_byte_identical(self, tmp_path):
        model = net.ResampleNetwork(feature_spec(), seed=14)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ckpt.save_checkpoint(p1, model)
        ckpt.save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_check(self, tmp_path):
        model = net.ResampleNetwork(feature_spec(), seed=15)
        path = tmp_path / "model.json"
        ckpt.save_checkpoint(path, model)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError):
            ckpt.load_checkpoint(path)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            net.NetworkSpec(depth=0, h_dim=4,
                            block=net.BlockSpec(branches=[net.BranchSpec(kappa=None)]),
                            head_kind="classification", n_classes=2, input_dim=4)
        with pytest.raises(ValueError):
            net.BlockSpec(branches=[])
        with pytest.raises(ValueError):
            net.BranchSpec(kappa=1.5)

    def test_head_kind_is_classification_only(self):
        branches = [net.BranchSpec(kappa=None)]
        with pytest.raises(ValueError, match="head kind"):
            net.NetworkSpec(depth=1, h_dim=4, block=net.BlockSpec(branches=branches),
                            head_kind="next_token", n_classes=2, vocab_size=10)
        with pytest.raises(ValueError, match="n_classes"):
            net.NetworkSpec(depth=1, h_dim=4, block=net.BlockSpec(branches=branches),
                            vocab_size=10)
