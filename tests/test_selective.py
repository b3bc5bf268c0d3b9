"""Tests for input-dependent scan parameters and the fused scan op."""

import math
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ressm import autodiff as ad
from ressm import selective, ssm


def make_head(h_dim=3, n_state=2, seed=0, delta_base=0.0):
    return selective.init_selective_head(h_dim, n_state, np.random.default_rng(seed), delta_base)


class TestSelectiveParams:
    def test_zero_map_gives_ln2_interval(self):
        head = make_head()
        head.theta_delta = np.zeros(3)
        head.delta_base = 0.0
        _, _, delta = selective.selective_params(head, np.random.default_rng(1).normal(size=3))
        assert delta == pytest.approx(math.log(2.0), rel=1e-15)

    def test_zero_input_gives_zero_maps(self):
        head = make_head()
        b, c, _ = selective.selective_params(head, np.zeros(3))
        assert np.all(b == 0.0) and np.all(c == 0.0)

    def test_interval_always_positive(self):
        head = make_head(seed=5)
        r = np.random.default_rng(6)
        for _ in range(1000):
            _, _, delta = selective.selective_params(head, r.normal(size=3) * 10)
            assert delta > 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            selective.selective_params(make_head(), np.zeros(4))

    def test_head_validation(self):
        with pytest.raises(ValueError):
            selective.SelectiveHead(
                theta_b=np.zeros((2, 2)), theta_c=np.zeros((2, 2)),
                theta_delta=np.zeros(2), delta_base=0.0, a_diag=np.array([1.0, -1.0]),
            )


class TestCumulativeTimes:
    def test_unit_intervals(self):
        np.testing.assert_array_equal(selective.cumulative_times([1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])

    def test_single_element(self):
        np.testing.assert_array_equal(selective.cumulative_times([0.5]), [0.5])

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            selective.cumulative_times([0.5, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=50))
    def test_strictly_increasing_and_differences_recover(self, deltas):
        t = selective.cumulative_times(deltas)
        assert np.all(np.diff(t) > 0)
        back = np.diff(np.concatenate([[0.0], t]))
        np.testing.assert_allclose(back, deltas, rtol=1e-12, atol=1e-12)


class TestSsmScan:
    def test_matches_varying_scan_reference(self):
        r = np.random.default_rng(2)
        T, N = 12, 3
        a = -r.uniform(0.1, 2.0, size=(1, N))
        deltas = r.uniform(0.05, 0.8, size=T)
        b_seq = r.normal(size=(T, N))
        c_seq = r.normal(size=(T, N))
        u = r.normal(size=T)
        y = selective.ssm_scan(a, deltas, b_seq, c_seq, u.reshape(-1, 1))
        want, _ = ssm.varying_scan(deltas, a[0], b_seq, c_seq, u)
        # Same recurrence, different dot-product path: agreement to a few ulps.
        np.testing.assert_allclose(y.numpy().reshape(-1), want, rtol=0, atol=1e-14)

    def test_multichannel_equals_stacked_single_channels(self):
        r = np.random.default_rng(3)
        T, W, N = 9, 4, 2
        a = -r.uniform(0.1, 2.0, size=(W, N))
        deltas = r.uniform(0.05, 0.8, size=T)
        b_seq = r.normal(size=(T, N))
        c_seq = r.normal(size=(T, N))
        u = r.normal(size=(T, W))
        y = selective.ssm_scan(a, deltas, b_seq, c_seq, u).numpy()
        for w in range(W):
            yw, _ = ssm.varying_scan(deltas, a[w], b_seq, c_seq, u[:, w])
            np.testing.assert_allclose(y[:, w], yw, rtol=1e-14)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ad.ShapeError):
            selective.ssm_scan(np.array([[-1.0]]), np.array([]), np.zeros((0, 1)),
                               np.zeros((0, 1)), np.zeros((0, 1)))

    @pytest.mark.parametrize("which", ["a", "deltas", "b_seq", "c_seq", "u"])
    def test_gradients_vs_finite_differences(self, which):
        r = np.random.default_rng(zlib.crc32(which.encode()))
        T, W, N = 6, 2, 3
        base = {
            "a": -r.uniform(0.3, 1.5, size=(W, N)),
            "deltas": r.uniform(0.1, 0.6, size=T),
            "b_seq": r.normal(size=(T, N)),
            "c_seq": r.normal(size=(T, N)),
            "u": r.normal(size=(T, W)),
        }
        weight = r.normal(size=(T, W))

        def f(t):
            args = dict(base)
            args[which] = t
            y = selective.ssm_scan(args["a"], args["deltas"], args["b_seq"],
                                   args["c_seq"], args["u"])
            return ad.reduce_sum(ad.mul(y, ad.constant(weight)))

        assert ad.grad_check(f, base[which]) < 1e-4

    @pytest.mark.parametrize("which", ["a", "deltas", "b_seq", "c_seq", "u"])
    def test_gradients_across_doubling_levels(self, which):
        # T = 37 runs six doubling levels forward and back, the last partial.
        r = np.random.default_rng(zlib.crc32(which.encode()) + 37)
        T, W, N = 37, 2, 3
        base = {
            "a": -r.uniform(0.3, 1.5, size=(W, N)),
            "deltas": r.uniform(0.1, 0.6, size=T),
            "b_seq": r.normal(size=(T, N)),
            "c_seq": r.normal(size=(T, N)),
            "u": r.normal(size=(T, W)),
        }
        weight = r.normal(size=(T, W))

        def f(t):
            args = dict(base)
            args[which] = t
            y = selective.ssm_scan(args["a"], args["deltas"], args["b_seq"],
                                   args["c_seq"], args["u"])
            return ad.reduce_sum(ad.mul(y, ad.constant(weight)))

        assert ad.grad_check(f, base[which]) < 1e-4


# Lengths at and just past powers of two end a doubling pass exactly or
# leave one row for a last, partial level.
_EDGE_LENGTHS = [2**k for k in range(10)] + [2**k + 1 for k in range(10)]


class TestDoublingScanOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        T=st.one_of(st.integers(1, 600), st.sampled_from([n for n in _EDGE_LENGTHS if n <= 600])),
        W=st.integers(1, 3),
        N=st.integers(1, 4),
        zero_frac=st.sampled_from([0.0, 0.2, 1.0]),
        flush=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_varying_scan_per_channel(self, T, W, N, zero_frac, flush, seed):
        r = np.random.default_rng(seed)
        a = -r.uniform(0.1, 3.0, size=(W, N))
        deltas = r.uniform(0.0, 1.0, size=T)
        deltas[r.random(T) < zero_frac] = 0.0  # exact identity steps
        if flush:
            # A fast mode and long steps: a few decays multiply to below
            # the flush floor, and exp(-50 * 20) underflows outright.
            a[0, 0] = -50.0
            deltas[r.random(T) < 0.3] = 20.0
        b_seq = r.normal(size=(T, N))
        c_seq = r.normal(size=(T, N))
        u = r.normal(size=(T, W))
        y = selective.ssm_scan(a, deltas, b_seq, c_seq, u).numpy()
        for w in range(W):
            want, _ = ssm.varying_scan(deltas, a[w], b_seq, c_seq, u[:, w])
            assert np.all(np.abs(y[:, w] - want) <= 1e-12 * np.abs(want).max())


def _phi_masked(z):
    small = np.abs(z) < ssm.PHI_TAYLOR_CUTOFF
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return out


def _phi_prime_masked(z):
    small = np.abs(z) < 1e-3
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 0.5 + zs / 3.0 + zs * zs / 8.0 + zs**3 / 30.0
    zb = z[~small]
    out[~small] = (np.exp(zb) * (zb - 1.0) + 1.0) / (zb * zb)
    return out


class TestPhiDirectThenPatch:
    def test_bit_identical_to_masked_forms(self):
        cut = ssm.PHI_TAYLOR_CUTOFF
        edges = [0.0, -0.0, 1e-300, -1e-300, cut, -cut, 1e-3, -1e-3, 700.0, -700.0, -1e4, 1.0]
        edges += [np.nextafter(c, t) for c in (cut, -cut, 1e-3, -1e-3) for t in (0.0, 2 * c)]
        r = np.random.default_rng(5)
        z = np.concatenate([edges, r.uniform(-2e-3, 2e-3, 500), -r.exponential(3.0, 500)])
        for shape in [(len(z),), (len(z) // 4, 4)]:
            zz = z[: int(np.prod(shape))].reshape(shape)
            np.testing.assert_array_equal(ssm.phi(zz), _phi_masked(zz))
            np.testing.assert_array_equal(ssm.phi_prime(zz), _phi_prime_masked(zz))

    def test_no_small_entries(self):
        z = -np.linspace(0.5, 30.0, 64)
        np.testing.assert_array_equal(ssm.phi(z), _phi_masked(z))
        np.testing.assert_array_equal(ssm.phi_prime(z), _phi_prime_masked(z))


class TestSelectiveScan:
    def test_constant_parameters_degenerate_to_lti(self):
        # Rank-zero feature maps freeze (b, c, delta); the scan must match
        # a fixed-step recurrence with that step.
        n = 2
        head = make_head(h_dim=3, n_state=n, seed=7)
        head.theta_b = np.zeros((3, n))
        head.theta_c = np.zeros((3, n))
        head.theta_delta = np.zeros(3)
        head.delta_base = 0.3
        r = np.random.default_rng(8)
        L = 16
        x = r.normal(size=(L, 3))
        u = r.normal(size=L)
        y, _ = selective.selective_scan(head, x, u)
        # With zero maps b = c = 0, output is identically zero; instead use
        # constant-feature input so the maps produce fixed vectors.
        assert np.all(y.numpy() == 0.0)

        head2 = make_head(h_dim=3, n_state=n, seed=9)
        head2.theta_delta = np.zeros(3)
        head2.delta_base = 0.4
        x_const = np.tile(r.normal(size=3), (L, 1))
        y2, _ = selective.selective_scan(head2, x_const, u)
        b, c, delta = selective.selective_params(head2, x_const[0])
        step = ssm.DiscreteStep(
            a_bar=np.exp(delta * head2.a_diag),
            b_bar=ssm.phi(delta * head2.a_diag) * delta * b,
            delta=delta,
        )
        want, _ = ssm.lti_scan(step, c, u)
        np.testing.assert_allclose(y2.numpy(), want, atol=1e-12)

    def test_interval_monotone_in_preactivation(self):
        head = make_head(seed=11)
        r = np.random.default_rng(12)
        x = r.normal(size=(8, 3))
        pre1 = head.delta_base + x @ head.theta_delta
        head_double = replace(head, theta_delta=head.theta_delta * 2)
        # softplus is monotone, so doubling a positive preactivation grows
        # every interval and vice versa; compare elementwise.
        d1 = np.log1p(np.exp(-(np.abs(pre1)))) + np.maximum(pre1, 0)
        pre2 = head.delta_base + x @ head_double.theta_delta
        d2 = np.log1p(np.exp(-(np.abs(pre2)))) + np.maximum(pre2, 0)
        grew = pre2 > pre1
        assert np.all((d2 > d1) == grew)

    def test_gradient_wrt_interval_map_vs_finite_differences(self):
        head = make_head(h_dim=3, n_state=2, seed=13)
        r = np.random.default_rng(14)
        L = 8
        x = r.normal(size=(L, 3))
        u = r.normal(size=L)
        w = r.normal(size=L)

        # Analytic gradient through the tape.
        tape = ad.Tape()
        y, leaves = selective.selective_scan(head, x, u, tape=tape)
        tape.backward(ad.reduce_sum(ad.mul(y, ad.constant(w))))
        got = tape.grad(leaves["theta_delta"]).reshape(-1)

        # Central differences by rebuilding the head.
        h = 1e-5
        num = np.empty_like(head.theta_delta)
        for i in range(len(num)):
            td_p = head.theta_delta.copy()
            td_m = head.theta_delta.copy()
            td_p[i] += h
            td_m[i] -= h
            yp, _ = selective.selective_scan(replace(head, theta_delta=td_p), x, u)
            ym, _ = selective.selective_scan(replace(head, theta_delta=td_m), x, u)
            num[i] = (np.sum(yp.numpy() * w) - np.sum(ym.numpy() * w)) / (2 * h)
        rel = np.abs(got - num) / (np.abs(got) + 1e-8)
        assert rel.max() < 1e-4

    def test_per_position_params_match_pointwise_op(self):
        head = make_head(seed=15)
        r = np.random.default_rng(16)
        x = r.normal(size=(5, 3))
        for l in range(5):
            b, c, delta = selective.selective_params(head, x[l])
            np.testing.assert_allclose(x[l] @ head.theta_b, b, rtol=1e-12)
            assert delta > 0
