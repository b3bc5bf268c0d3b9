"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers.  Run with `pytest -v -s` to see
the lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from ressm import autodiff as ad
from ressm import checkpoint as ckpt
from ressm import linearity as lin
from ressm import network as net
from ressm import resample as rs
from ressm import selective, ssm, tasks, training


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def acceptance_model_spec(task, kappas=(None, 0.5)):
    branches = [net.BranchSpec(kappa=k, n_state=4, window_k=4, basis_g=8) for k in kappas]
    return net.NetworkSpec(
        depth=2, h_dim=16,
        block=net.BlockSpec(branches=branches, norm_kind="rmsnorm", norm_position="pre"),
        head_kind="classification", n_classes=task.n_classes, vocab_size=task.vocab_size,
    )


def test_criterion_1_scan_convolution_duality():
    t0 = time.perf_counter()
    r = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(r.integers(1, 9))
        L = int(r.integers(1, 65))
        params = ssm.SsmParams(
            a_diag=-r.uniform(0.05, 3.0, size=n),
            b=r.normal(size=n),
            c=r.normal(size=n),
        )
        step = ssm.zoh_discretize(params, float(r.uniform(0.05, 1.0)))
        x = r.normal(size=L)
        y_scan, _ = ssm.lti_scan(step, params.c, x)
        y_conv = ssm.conv_apply(x, ssm.conv_kernel(step, params.c, L))
        worst = max(worst, float(np.max(np.abs(y_scan - y_conv))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    report(1, f"scan vs convolution on 100 systems, max |diff| {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_zoh_limits():
    p = ssm.SsmParams(a_diag=[-1.0, -2.0], b=[1.0, 3.0], c=[1.0, 1.0])
    step0 = ssm.zoh_discretize(p, 0.0)
    assert np.all(step0.a_bar == 1.0) and np.all(step0.b_bar == 0.0)

    tiny = ssm.SsmParams(a_diag=[-1e-15], b=[2.0], c=[1.0])
    step = ssm.zoh_discretize(tiny, 0.3)
    drift = abs(step.b_bar[0] - 0.3 * 2.0)
    assert drift < 1e-12

    cut = ssm.PHI_TAYLOR_CUTOFF
    worst_jump = 0.0
    for sign in (+1.0, -1.0):
        z = sign * cut
        lo = float(ssm.phi(np.array([np.nextafter(z, 0.0)]))[0])
        hi = float(ssm.phi(np.array([np.nextafter(z, 2.0 * z)]))[0])
        worst_jump = max(worst_jump, abs(lo - hi) / abs(hi))
    assert worst_jump < 1e-12
    report(2, f"zero-interval identity exact, vanishing-decay drift {drift:.1e}, "
              f"series switch jump {worst_jump:.1e}")


def test_criterion_3_leave_one_out_linearity():
    t0 = time.perf_counter()
    grid = np.geomspace(1e-3, 1e-6, 7)
    reports = lin.run_verification(20, seed=2024, grid=grid, n_max=4, l_max=32)
    slopes = [r.slope for r in reports]
    residuals = [r.residual for r in reports]
    elapsed = time.perf_counter() - t0
    assert not any(r.degenerate for r in reports)
    assert all(0.98 <= s <= 1.02 for s in slopes)
    assert all(res < 1e-9 for res in residuals)
    assert elapsed < 30.0
    report(3, f"20 instances: slopes within [{min(slopes):.4f}, {max(slopes):.4f}], "
              f"max closed-form residual {max(residuals):.1e}, {elapsed:.1f}s")


def test_criterion_4_compression_bounds():
    r = np.random.default_rng(1004)
    checked = 0
    for kappa in (0.1, 0.2, 0.5):
        cfg = rs.init_resample_config(6, kappa, 3, 4, np.random.default_rng(7), delta_base=1.0)
        remaining = 10_000
        while remaining > 0:
            L = int(r.integers(1, 65))
            L = min(L, remaining)
            x = r.normal(size=(L, 6))
            deltas = rs.compression_deltas(cfg, x)
            assert np.all(deltas > kappa * cfg.delta_base)
            assert np.all(deltas < cfg.delta_base)
            plan = rs.build_grid(deltas, cfg.delta_base)
            assert math.floor(kappa * L) <= plan.dst_len <= L
            checked += L
            remaining -= L
    report(4, f"interval and grid-length bounds held on {checked} positions "
              f"per compression rate")


def test_criterion_5_roundtrip_identity():
    r = np.random.default_rng(1005)
    for i in range(100):
        width = int(r.integers(1, 6))
        L = int(r.integers(1, 50))
        cfg = rs.init_resample_config(width, 1.0, 1, 3, r, delta_base=0.5)
        cfg.theta_gamma = rs.center_copy_gamma(width, 3)
        x = r.normal(size=(L, width))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, 1)
        back = rs.decompress(rs.compress(cfg, x, plan), plan)
        assert np.array_equal(back, x)
    report(5, "uncompressed center-copy round trip bit-exact on 100 sequences")


def test_criterion_6_gradient_integrity():
    t0 = time.perf_counter()
    r = np.random.default_rng(1006)
    worst_op = 0.0

    def check(fn, x, points=10):
        nonlocal worst_op
        for _ in range(points):
            err = ad.grad_check(fn, x())
            worst_op = max(worst_op, err)
            assert err < 1e-4

    pos = lambda n=4: r.uniform(0.3, 2.0, size=n)
    anyv = lambda n=4: r.normal(size=n)

    for kind in ("exp", "expm1", "log1p", "sigmoid", "softplus", "neg", "recip", "sqrt"):
        check(lambda t, k=kind: ad.reduce_sum(ad.elementwise(k, t)), pos)
    other = ad.constant(r.normal(size=4))
    for kind in ("add", "sub", "mul"):
        check(lambda t, k=kind: ad.reduce_sum(ad.elementwise(k, t, other)), anyv)

    m = ad.constant(r.normal(size=(3, 3)))
    check(lambda t: ad.reduce_sum(ad.matmul(t, m)), lambda: r.normal(size=(3, 3)))
    check(lambda t: ad.reduce_sum(ad.mul(ad.concat([t, t], axis=0), ad.concat([t, t], axis=0))),
          lambda: r.normal(size=(2, 3)))
    check(lambda t: ad.reduce_sum(ad.mul(ad.slice_along(t, 0, 1, 3), ad.slice_along(t, 0, 1, 3))),
          lambda: r.normal(size=(4, 2)))
    check(lambda t: ad.reduce_sum(ad.exp(t)), anyv)
    check(lambda t: ad.reduce_mean(ad.exp(t), axis=0), lambda: r.normal(size=(5,)))
    check(lambda t: ad.reduce_max(ad.mul(t, t)), anyv)
    check(lambda t: ad.cross_entropy(t, 1), lambda: r.normal(size=5))
    w5 = ad.constant(r.normal(size=5))
    check(lambda t: ad.reduce_sum(ad.mul(ad.cumsum(t), w5)), lambda: r.normal(size=5))
    idx = [2, 0, 1]
    w32 = ad.constant(r.normal(size=(3, 2)))
    check(lambda t: ad.reduce_sum(ad.mul(ad.gather_rows(t, idx), w32)),
          lambda: r.normal(size=(3, 2)))
    w43 = ad.constant(r.normal(size=(4, 3)))
    check(lambda t: ad.reduce_sum(ad.mul(ad.tile_rows(t, 4), w43)), lambda: r.normal(size=3))
    check(lambda t: ad.reduce_sum(ad.mul(ad.tile_cols(t, 3), w43)), lambda: r.normal(size=4))
    w6 = ad.constant(r.normal(size=6))
    check(lambda t: ad.reduce_sum(ad.mul(ad.reshape(t, (6,)), w6)),
          lambda: r.normal(size=(2, 3)))

    # fused ops
    scan_w = ad.constant(r.normal(size=(5, 2)))
    base = {
        "a": -r.uniform(0.3, 1.5, size=(2, 3)),
        "deltas": r.uniform(0.1, 0.6, size=5),
        "b_seq": r.normal(size=(5, 3)),
        "c_seq": r.normal(size=(5, 3)),
        "u": r.normal(size=(5, 2)),
    }
    for which in base:
        def f(t, which=which):
            args = dict(base)
            args[which] = t
            y = selective.ssm_scan(args["a"], args["deltas"], args["b_seq"],
                                   args["c_seq"], args["u"])
            return ad.reduce_sum(ad.mul(y, scan_w))
        check(f, lambda which=which: np.array(base[which]), points=3)

    gain = ad.constant(r.normal(size=4))
    wn = ad.constant(r.normal(size=(3, 4)))
    check(lambda t: ad.reduce_sum(ad.mul(net.rmsnorm(t, gain), wn)),
          lambda: r.normal(size=(3, 4)), points=5)
    check(lambda t: ad.reduce_sum(ad.mul(
        net.batchnorm(t, ad.constant(np.ones(4)), ad.constant(np.zeros(4)),
                      np.zeros(4), np.ones(4), train=True), wn)),
        lambda: r.normal(size=(3, 4)), points=5)

    cfg = rs.init_resample_config(2, 0.4, 2, 3, np.random.default_rng(8))
    xc = r.normal(size=(8, 2))
    plan = rs.make_plan(rs.compression_deltas(cfg, xc), cfg.delta_base, 2)
    wc = ad.constant(r.normal(size=(plan.dst_len, 2)))
    check(lambda t: ad.reduce_sum(ad.mul(rs.compress_tracked(
        t, plan, ad.constant(cfg.theta_gamma), ad.constant(cfg.mus),
        ad.constant(plan.src_times), ad.constant(plan.dst_times)), wc)),
        lambda: np.array(xc), points=3)
    wd = ad.constant(r.normal(size=(8, 2)))
    check(lambda t: ad.reduce_sum(ad.mul(rs.decompress_tracked(t, plan), wd)),
          lambda: r.normal(size=(plan.dst_len, 2)), points=3)

    # end-to-end depth-1 model, 4 channels, 8 positions
    spec = net.NetworkSpec(
        depth=1, h_dim=4,
        block=net.BlockSpec(
            branches=[net.BranchSpec(kappa=None, n_state=2, window_k=2, basis_g=3),
                      net.BranchSpec(kappa=0.5, n_state=2, window_k=2, basis_g=3)],
            norm_kind="rmsnorm", norm_position="pre"),
        head_kind="classification", n_classes=3, input_dim=4,
    )
    model = net.ResampleNetwork(spec, seed=9)
    end_err = ad.grad_check(lambda t: ad.cross_entropy(model.forward(t)[0], 1),
                            r.normal(size=(8, 4)))
    assert end_err < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"all ops max rel err {worst_op:.1e} (< 1e-4), "
              f"end-to-end {end_err:.1e} (< 1e-3), {elapsed:.1f}s")


def test_criterion_7_init_fidelity():
    worst_sqrt = 0.0
    for n in range(1, 17):
        a = ssm.hippo_matrix(n)
        for i in range(n):
            for j in range(n):
                if i > j:
                    want = -math.sqrt(2 * i + 1) * math.sqrt(2 * j + 1)
                    worst_sqrt = max(worst_sqrt, abs(a[i, j] - want))
                elif i == j:
                    assert a[i, j] == -(i + 1.0)
                else:
                    assert a[i, j] == 0.0
    assert worst_sqrt < 1e-12

    worst_norm = 0.0
    for n in range(1, 17):
        d = ssm.nplr_components(n)
        np.testing.assert_allclose(d.a_normal + np.outer(d.p, d.q),
                                   ssm.hippo_matrix(n), atol=1e-12)
        m = d.a_normal
        worst_norm = max(worst_norm, float(np.max(np.abs(m @ m.T - m.T @ m))))
    assert worst_norm < 1e-9
    report(7, f"init formula exact to {worst_sqrt:.1e}, "
              f"normality residual {worst_norm:.1e}")


@pytest.mark.slow
def test_criterion_8_desk_scale_learning():
    t0 = time.perf_counter()
    task = tasks.SparseSignalTask(seq_len=256, n_informative=4, n_classes=4,
                                  noise_vocab=8, n_train=128, n_val=64, seed=101)
    # Cosine annealing with light decay: the sparse signal needs the full
    # learning rate early and a quiet tail so the final loss stays down.
    cfg = training.TrainConfig(lr=3e-3, weight_decay=0.01, epochs=100, batch_size=16,
                               scheduler="cosine", seed=102)

    model = net.ResampleNetwork(acceptance_model_spec(task, kappas=(None, 0.5)), seed=100)
    result = training.train(model, task, cfg)
    val = [r for r in result.history if r["split"] == "val"]
    best_top1 = max(r["top1"] for r in val)
    loss_ratio = val[-1]["loss"] / val[0]["loss"]

    # Ablation: identical run with compression disabled (kappa forced to 1).
    ab_model = net.ResampleNetwork(acceptance_model_spec(task, kappas=(None, 1.0)), seed=100)
    ab_result = training.train(ab_model, task, cfg)
    ab_val = [r for r in ab_result.history if r["split"] == "val"]
    ab_best = max(r["top1"] for r in ab_val)

    elapsed = time.perf_counter() - t0
    assert best_top1 >= 0.90
    assert loss_ratio < 0.1
    assert elapsed < 20 * 60
    report(8, f"val top-1 {best_top1:.3f} (>= 0.90), final/initial loss {loss_ratio:.3f} "
              f"(< 0.1); no-compression ablation top-1 {ab_best:.3f} (recorded, no threshold); "
              f"{elapsed/60:.1f} min")


def test_criterion_9_determinism_and_serialization(tmp_path):
    task = tasks.SparseSignalTask(seq_len=32, n_informative=8, n_train=12, n_val=8, seed=30)
    cfg = training.TrainConfig(lr=1e-3, epochs=3, batch_size=4, seed=31)

    from ressm.serialize import write_csv

    csvs = []
    for run in range(2):
        model = net.ResampleNetwork(acceptance_model_spec(task), seed=32)
        result = training.train(model, task, cfg)
        path = tmp_path / f"metrics{run}.csv"
        write_csv(path, ["epoch", "split", "loss", "top1", "top5", "ppl"], result.rows())
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]

    model = net.ResampleNetwork(acceptance_model_spec(task), seed=33)
    _, val = tasks.gen_sparse_task(task)
    before = [model.predict(ex.tokens) for ex in val]
    path = tmp_path / "model.json"
    ckpt.save_checkpoint(path, model)
    loaded, _ = ckpt.load_checkpoint(path)
    after = [loaded.predict(ex.tokens) for ex in val]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)
    report(9, "metric CSVs bit-identical across reruns; checkpoint round trip "
              "reproduces forward outputs exactly")
