"""Tests for discretization, scans, kernels, and initializations."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ressm import ssm


def random_system(r, n_max=8):
    n = int(r.integers(1, n_max + 1))
    return ssm.SsmParams(
        a_diag=-r.uniform(0.05, 3.0, size=n),
        b=r.normal(size=n),
        c=r.normal(size=n),
    )


class TestInits:
    def test_hippo_n1(self):
        np.testing.assert_array_equal(ssm.hippo_matrix(1), [[-1.0]])

    def test_hippo_n2(self):
        a = ssm.hippo_matrix(2)
        assert a[0, 0] == -1.0 and a[1, 1] == -2.0 and a[0, 1] == 0.0
        assert a[1, 0] == pytest.approx(-math.sqrt(3.0), abs=1e-12)

    def test_hippo_upper_triangle_zero(self):
        a = ssm.hippo_matrix(8)
        assert np.all(np.triu(a, k=1) == 0.0)

    def test_hippo_entrywise_case_formula(self):
        # Re-derive every entry from the three-way case rule.
        for n in range(1, 17):
            a = ssm.hippo_matrix(n)
            for i in range(n):
                for j in range(n):
                    if i > j:
                        want = -math.sqrt(2 * i + 1) * math.sqrt(2 * j + 1)
                        assert a[i, j] == pytest.approx(want, abs=1e-12)
                    elif i == j:
                        assert a[i, j] == -(i + 1.0)
                    else:
                        assert a[i, j] == 0.0

    def test_hippo_rejects_zero(self):
        with pytest.raises(ValueError):
            ssm.hippo_matrix(0)

    def test_nplr_reconstruction(self):
        for n in range(1, 17):
            d = ssm.nplr_components(n)
            np.testing.assert_allclose(
                d.a_normal + np.outer(d.p, d.q), ssm.hippo_matrix(n), atol=1e-12
            )

    def test_nplr_n1_trivially_normal(self):
        d = ssm.nplr_components(1)
        assert d.p[0] == pytest.approx(math.sqrt(0.5))
        comm = d.a_normal @ d.a_normal.T - d.a_normal.T @ d.a_normal
        assert np.max(np.abs(comm)) == 0.0

    def test_nplr_normality_residual(self):
        # Direct commutator evaluation: normal means A A^T == A^T A.
        m = ssm.nplr_components(8).a_normal
        comm = m @ m.T - m.T @ m
        assert np.max(np.abs(comm)) < 1e-9

    def test_diag_init(self):
        np.testing.assert_array_equal(ssm.diag_init(3), [-1.0, -2.0, -3.0])
        assert np.all(ssm.diag_init(10) < 0)
        np.testing.assert_array_equal(ssm.diag_init(5), np.diag(ssm.hippo_matrix(5)))


class TestParams:
    def test_rejects_non_negative_diagonal(self):
        with pytest.raises(ValueError):
            ssm.SsmParams(a_diag=[-1.0, 0.0], b=[1.0, 1.0], c=[1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ssm.SsmParams(a_diag=[-1.0], b=[1.0, 2.0], c=[1.0])


class TestZoh:
    def test_hand_value_half_life(self):
        # delta = ln 2 on a unit-decay system: a_bar = 1/2 exactly, and
        # b_bar = ((0.5 - 1) / (-ln 2)) * ln 2 = 0.5.  Checked against a
        # 50-digit evaluation of the same formula.
        p = ssm.SsmParams(a_diag=[-1.0], b=[1.0], c=[1.0])
        step = ssm.zoh_discretize(p, math.log(2.0))
        with mpmath.workdps(50):
            d = mpmath.log(2)
            want_a = float(mpmath.exp(-d))
            want_b = float((mpmath.exp(-d) - 1) / (-d) * d)
        assert step.a_bar[0] == pytest.approx(want_a, rel=1e-15)
        assert step.b_bar[0] == pytest.approx(want_b, rel=1e-15)
        assert want_b == pytest.approx(0.5, rel=1e-15)

    def test_zero_delta_is_identity_step(self):
        p = ssm.SsmParams(a_diag=[-2.0, -0.5], b=[1.0, 3.0], c=[1.0, 1.0])
        step = ssm.zoh_discretize(p, 0.0)
        np.testing.assert_array_equal(step.a_bar, [1.0, 1.0])
        np.testing.assert_array_equal(step.b_bar, [0.0, 0.0])

    def test_vanishing_decay_limit(self):
        p = ssm.SsmParams(a_diag=[-1e-15], b=[2.0], c=[1.0])
        step = ssm.zoh_discretize(p, 0.3)
        assert abs(step.b_bar[0] - 0.3 * 2.0) < 1e-12

    def test_negative_delta_rejected(self):
        p = ssm.SsmParams(a_diag=[-1.0], b=[1.0], c=[1.0])
        with pytest.raises(ValueError):
            ssm.zoh_discretize(p, -0.1)

    def test_phi_continuity_at_taylor_switch(self):
        cut = ssm.PHI_TAYLOR_CUTOFF
        for sign in (+1.0, -1.0):
            below = sign * cut * (1.0 - 1e-12)
            above = sign * cut * (1.0 + 1e-12)
            lo = ssm.phi(np.array([below]))[0]
            hi = ssm.phi(np.array([above]))[0]
            assert abs(lo - hi) / abs(hi) < 1e-12

    def test_phi_against_high_precision(self):
        with mpmath.workdps(60):
            for z in [1e-6, -1e-6, 9e-5, -9e-5, 2e-4, 0.1, -2.5]:
                want = float(mpmath.expm1(mpmath.mpf(z)) / mpmath.mpf(z))
                got = ssm.phi(np.array([z]))[0]
                assert abs(got - want) / abs(want) < 1e-12

    def test_phi_prime_against_high_precision(self):
        with mpmath.workdps(60):
            # Either side of the series cutoff (1e-3), where the direct
            # form cancels most, and out to a fast, long step.
            for z in [1e-7, -5e-4, 9e-4, 1.001e-3, -1.001e-3, 2e-3, 0.3, -1.5, -316.0]:
                zm = mpmath.mpf(z)
                want = float((mpmath.exp(zm) * (zm - 1) + 1) / zm**2)
                got = ssm.phi_prime(np.array([z]))[0]
                assert abs(got - want) / abs(want) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=3.0),
        st.floats(min_value=1.01, max_value=3.0),
        st.floats(min_value=0.05, max_value=4.0),
    )
    def test_monotone_in_delta(self, delta, factor, decay):
        p = ssm.SsmParams(a_diag=[-decay], b=[1.0], c=[1.0])
        small = ssm.zoh_discretize(p, delta)
        large = ssm.zoh_discretize(p, delta * factor)
        assert np.all(large.a_bar < small.a_bar)


class TestLtiScan:
    def test_zero_input_zero_state(self):
        p = ssm.SsmParams(a_diag=[-1.0, -2.0], b=[1.0, 1.0], c=[1.0, 1.0])
        step = ssm.zoh_discretize(p, 0.5)
        y, h = ssm.lti_scan(step, p.c, np.zeros(10))
        assert np.all(y == 0.0) and np.all(h == 0.0)

    def test_hand_unrolled_impulse(self):
        step = ssm.DiscreteStep(a_bar=np.array([0.5]), b_bar=np.array([1.0]), delta=1.0)
        y, _ = ssm.lti_scan(step, np.array([1.0]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(y, [1.0, 0.5, 0.25])

    def test_pure_decay_closed_form(self):
        # With zero input, y_l = <c, a_bar^(l+1) * h0> exactly.
        r = np.random.default_rng(4)
        a_bar = r.uniform(0.1, 0.9, size=3)
        step = ssm.DiscreteStep(a_bar=a_bar, b_bar=np.zeros(3), delta=1.0)
        c = r.normal(size=3)
        h0 = r.normal(size=3)
        y, _ = ssm.lti_scan(step, c, np.zeros(5), h0=h0)
        want = np.array([c @ (a_bar ** (l + 1) * h0) for l in range(5)])
        np.testing.assert_allclose(y, want, rtol=1e-12)

    def test_empty_input_rejected(self):
        step = ssm.DiscreteStep(a_bar=np.array([0.5]), b_bar=np.array([1.0]), delta=1.0)
        with pytest.raises(ValueError):
            ssm.lti_scan(step, np.array([1.0]), np.array([]))

    def test_bounded_state_under_bounded_input(self):
        r = np.random.default_rng(17)
        for _ in range(20):
            p = random_system(r)
            step = ssm.zoh_discretize(p, float(r.uniform(0.05, 1.0)))
            x = r.uniform(-1.0, 1.0, size=64)
            h = np.zeros(p.n)
            bound = np.max(np.abs(step.b_bar)) / (1.0 - np.max(step.a_bar))
            for l in range(len(x)):
                h = step.a_bar * h + step.b_bar * x[l]
                assert np.max(np.abs(h)) <= bound + 1e-12


class TestKernel:
    def test_geometric_kernel(self):
        step = ssm.DiscreteStep(a_bar=np.array([0.5]), b_bar=np.array([1.0]), delta=1.0)
        np.testing.assert_array_equal(ssm.conv_kernel(step, np.array([1.0]), 3), [1.0, 0.5, 0.25])

    def test_zero_output_map(self):
        step = ssm.DiscreteStep(a_bar=np.array([0.5, 0.2]), b_bar=np.array([1.0, 2.0]), delta=1.0)
        assert np.all(ssm.conv_kernel(step, np.zeros(2), 8) == 0.0)

    def test_first_tap_is_direct_feedthrough(self):
        r = np.random.default_rng(9)
        for _ in range(10):
            p = random_system(r)
            step = ssm.zoh_discretize(p, 0.3)
            k = ssm.conv_kernel(step, p.c, 4)
            assert k[0] == pytest.approx(p.c @ step.b_bar, rel=1e-15)

    def test_matches_direct_power_evaluation(self):
        r = np.random.default_rng(10)
        p = random_system(r)
        step = ssm.zoh_discretize(p, 0.4)
        k = ssm.conv_kernel(step, p.c, 12)
        want = np.array([p.c @ (step.a_bar**i * step.b_bar) for i in range(12)])
        np.testing.assert_allclose(k, want, rtol=1e-12)


class TestConvApply:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=16)
        kernel = np.zeros(16)
        kernel[0] = 1.0
        np.testing.assert_array_equal(ssm.conv_apply(x, kernel), x)

    def test_impulse_recovers_kernel(self):
        kernel = np.random.default_rng(1).normal(size=8)
        x = np.zeros(8)
        x[0] = 1.0
        np.testing.assert_allclose(ssm.conv_apply(x, kernel), kernel, rtol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ssm.conv_apply(np.ones(3), np.ones(4))

    def test_scan_convolution_duality(self):
        # The recurrent path is the oracle for the convolutional one.
        r = np.random.default_rng(2)
        for _ in range(100):
            p = random_system(r)
            delta = float(r.uniform(0.05, 1.0))
            L = int(r.integers(1, 65))
            x = r.normal(size=L)
            step = ssm.zoh_discretize(p, delta)
            y_scan, _ = ssm.lti_scan(step, p.c, x)
            y_conv = ssm.conv_apply(x, ssm.conv_kernel(step, p.c, L))
            assert np.max(np.abs(y_scan - y_conv)) < 1e-10


class TestVaryingScan:
    def test_degenerates_to_lti(self):
        r = np.random.default_rng(3)
        p = random_system(r)
        delta = 0.35
        L = 20
        x = r.normal(size=L)
        step = ssm.zoh_discretize(p, delta)
        y_lti, h_lti = ssm.lti_scan(step, p.c, x)
        y_var, states = ssm.varying_scan(
            np.full(L, delta),
            p.a_diag,
            np.tile(p.b, (L, 1)),
            np.tile(p.c, (L, 1)),
            x,
        )
        np.testing.assert_array_equal(y_var, y_lti)
        np.testing.assert_array_equal(states[-1], h_lti)

    def test_single_step(self):
        p = ssm.SsmParams(a_diag=[-1.0], b=[2.0], c=[3.0])
        y, states = ssm.varying_scan([0.5], p.a_diag, [[2.0]], [[3.0]], [1.5])
        step = ssm.zoh_discretize(p, 0.5)
        assert states[0, 0] == step.b_bar[0] * 1.5
        assert y[0] == 3.0 * states[0, 0]

    def test_bit_identical_to_naive_per_step_oracle(self):
        r = np.random.default_rng(6)
        n, L = 3, 24
        a = -r.uniform(0.1, 2.0, size=n)
        deltas = r.uniform(0.01, 0.8, size=L)
        b_seq = r.normal(size=(L, n))
        c_seq = r.normal(size=(L, n))
        x = r.normal(size=L)
        y, states = ssm.varying_scan(deltas, a, b_seq, c_seq, x)
        # Independent re-evaluation, one step at a time.
        h = np.zeros(n)
        for l in range(L):
            step = ssm.zoh_discretize(
                ssm.SsmParams(a_diag=a, b=b_seq[l], c=c_seq[l]), deltas[l]
            )
            h = step.a_bar * h + step.b_bar * x[l]
            assert np.array_equal(states[l], h)
            assert y[l] == c_seq[l] @ h

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ssm.varying_scan([-0.1], [-1.0], [[1.0]], [[1.0]], [1.0])

    def test_zero_delta_is_identity_step(self):
        # Zero interval admitted as a limit probe: the step changes nothing.
        y, states = ssm.varying_scan(
            [0.5, 0.0, 0.5], [-1.0], [[1.0]] * 3, [[1.0]] * 3, [1.0, 5.0, 0.0]
        )
        assert states[1, 0] == states[0, 0]

    def test_removed_element_equals_shortened_scan(self):
        r = np.random.default_rng(12)
        n, L, m = 2, 10, 4
        a = -r.uniform(0.1, 2.0, size=n)
        deltas = r.uniform(0.05, 0.6, size=L)
        b_seq = r.normal(size=(L, n))
        c_seq = r.normal(size=(L, n))
        x = r.normal(size=L)
        keep = [l for l in range(L) if l != m]
        y_short, states_short = ssm.varying_scan(
            deltas[keep], a, b_seq[keep], c_seq[keep], x[keep]
        )
        # Same result as restarting the full scan from the prefix state.
        _, states_full = ssm.varying_scan(deltas[:m], a, b_seq[:m], c_seq[:m], x[:m])
        _, states_tail = ssm.varying_scan(
            deltas[m + 1 :], a, b_seq[m + 1 :], c_seq[m + 1 :], x[m + 1 :],
            h0=states_full[-1],
        )
        np.testing.assert_allclose(states_short[-1], states_tail[-1], rtol=1e-12)
