"""Tests for the network's SSM layers: the fused selective scan op and
the fixed-step convolution op."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_resample import assert_close_relative, assert_fresh_after_reset, grads_through

from ressm import autodiff as ad
from ressm import network as net
from ressm import resample as rs
from ressm import selective, ssm

PRE = "block0.br0."


def selective_block(seed=0):
    """A one-branch selective block (3 channels, 2 states) without
    normalisation, so the branch sees the block input as is and adds its
    scan output to it."""
    spec = net.NetworkSpec(
        depth=1, h_dim=3,
        block=net.BlockSpec(branches=[net.BranchSpec(kappa=None, n_state=2, selective=True)],
                            norm_kind="none"),
        n_classes=2, input_dim=3,
    )
    return net.ResampleNetwork(spec, seed=seed)


def run_capturing_scan(monkeypatch, model, x):
    """Block output and the operands the selective layer handed to its
    scan."""
    seen = {}
    scan_forward = selective._scan_forward

    def spy(a, deltas, b_seq, c_seq, u, *rest):
        seen.update(a=a.copy(), deltas=deltas.copy(), b_seq=b_seq.copy(),
                    c_seq=c_seq.copy(), u=u.copy())
        return scan_forward(a, deltas, b_seq, c_seq, u, *rest)

    monkeypatch.setattr(selective, "_scan_forward", spy)
    return model.run_block(0, x).numpy(), seen


class TestSelectiveParams:
    def test_zero_map_gives_ln2_interval(self, monkeypatch):
        model = selective_block()
        model.params[PRE + "ssm.theta_delta"] = np.zeros(3)
        model.params[PRE + "ssm.delta_base"] = np.array(0.0)
        x = np.random.default_rng(1).normal(size=(6, 3))
        _, seen = run_capturing_scan(monkeypatch, model, x)
        np.testing.assert_allclose(seen["deltas"], math.log(2.0), rtol=1e-15)

    def test_zero_input_gives_zero_maps(self, monkeypatch):
        out, seen = run_capturing_scan(monkeypatch, selective_block(), np.zeros((5, 3)))
        assert np.all(seen["b_seq"] == 0.0) and np.all(seen["c_seq"] == 0.0)
        assert np.all(out == 0.0)

    def test_interval_always_positive(self, monkeypatch):
        x = np.random.default_rng(6).normal(size=(1000, 3)) * 10
        _, seen = run_capturing_scan(monkeypatch, selective_block(seed=5), x)
        assert np.all(seen["deltas"] > 0.0)

    def test_dim_mismatch(self):
        for width in (2, 4):
            with pytest.raises(ValueError, match=r"expected \[L, 3\]"):
                selective_block().run_block(0, np.zeros((4, width)))


class TestCumulativeTimes:
    """Sampling times are the running sums of the intervals;
    ``resample.build_grid`` lays them for routing."""

    def test_unit_intervals(self):
        np.testing.assert_array_equal(rs.build_grid([1.0, 1.0, 1.0], 1.0).src_times,
                                      [1.0, 2.0, 3.0])

    def test_single_element(self):
        np.testing.assert_array_equal(rs.build_grid([0.5], 1.0).src_times, [0.5])

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            rs.build_grid([0.5, 0.0], 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=50))
    def test_strictly_increasing_and_differences_recover(self, deltas):
        t = rs.build_grid(deltas, 1.0).src_times
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

    def test_backward_after_reset(self):
        r = np.random.default_rng(4)
        T, W, N = 7, 2, 3
        assert_fresh_after_reset(selective.ssm_scan, [
            -r.uniform(0.3, 1.5, size=(W, N)), r.uniform(0.1, 0.6, size=T),
            r.normal(size=(T, N)), r.normal(size=(T, N)), r.normal(size=(T, W)),
        ], r)

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


# Lengths at and either side of powers of two end a doubling pass
# exactly, stop one row short of it, or leave one row for a last,
# partial level.
_EDGE_LENGTHS = sorted({2**k + d for k in range(10) for d in (-1, 0, 1)} - {0})


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


def _reference_doubling(decay, drive, longest):
    """The doubling scan in its plainest form: every pass copies the span
    product back in full and flushes it whatever its range."""
    floor = selective._DECAY_FLOOR
    h, span = drive.copy(), decay.copy()
    span[span < floor] = 0.0
    k = 1
    while k < longest:
        h[k:] += span[k:] * h[:-k]
        if 2 * k < longest:
            prod = span[k:] * span[:-k]
            prod[prod < floor] = 0.0
            span[k:] = prod
        k *= 2
    return h


class TestLinearScan:
    """``_linear_scan`` writes only the span rows the next pass reads,
    alternates two buffers and skips the flush where a bound shows no
    span can reach the floor; none of that may move a bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        T=st.sampled_from(_EDGE_LENGTHS),
        cuts=st.lists(st.integers(1, 600), max_size=5),
        log_decay=st.sampled_from([(-0.5, 0.0), (-30.0, -0.5), (-400.0, -300.0), (-800.0, 0.0)]),
        reverse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_plain_doubling(self, T, cuts, log_decay, reverse, seed):
        # Log-decays from slow (no pass flushes) through ones whose
        # products cross the floor a few passes in, to decays straddling
        # the floor themselves (every pass flushes), and some underflow.
        r = np.random.default_rng(seed)
        decay = np.exp(r.uniform(*log_decay, size=(T, 3)))
        drive = r.normal(size=(T, 3))
        starts = sorted({0} | {c for c in cuts if c < T})  # length-1 segments included
        decay[starts] = 0.0
        longest = max(hi - lo for lo, hi in ad.segments(starts, T))
        if reverse:
            # h_t = decay_{t+1} h_{t+1} + drive_t is the forward scan of
            # the reversed rows with each decay moved one row on.
            shifted = np.zeros_like(decay)
            shifted[1:] = decay[:0:-1]
            want = _reference_doubling(shifted, drive[::-1], longest)[::-1]
        else:
            want = _reference_doubling(decay, drive, longest)
        got = selective._linear_scan(decay.copy(), drive.copy(), np.empty_like(drive), longest,
                                     reverse=reverse)
        np.testing.assert_array_equal(got, want)

    def test_flush_both_taken_and_skipped(self, monkeypatch):
        # Decays of e^-10: products of up to 32 stay above the floor, so
        # the passes building spans of 2 to 32 skip the masked write and
        # those building 64 and 128 take it.
        flushed = []
        copyto = np.copyto

        def spy(dst, src, where=True, **kw):
            flushed.append(len(dst))
            return copyto(dst, src, where=where, **kw)

        monkeypatch.setattr(selective.np, "copyto", spy)
        T = 256
        decay = np.full((T, 2), np.exp(-10.0))
        selective._linear_scan(decay, np.ones((T, 2)), np.empty((T, 2)), T)
        assert flushed == [T - 64, T - 128]


def _scan_operands(r, T, W, N):
    return {
        "a": -r.uniform(0.3, 1.5, size=(W, N)),
        "deltas": r.uniform(0.1, 0.6, size=T),
        "b_seq": r.normal(size=(T, N)),
        "c_seq": r.normal(size=(T, N)),
        "u": r.normal(size=(T, W)),
    }


class TestSegmentedScan:
    """Sequences packed end to end scan as if each ran on its own."""

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.one_of(st.integers(1, 70), st.sampled_from(_EDGE_LENGTHS[:-6])),
                         min_size=1, max_size=6),
        W=st.integers(1, 3),
        N=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_varying_scan_per_segment(self, lengths, W, N, seed):
        r = np.random.default_rng(seed)
        op = _scan_operands(r, sum(lengths), W, N)
        starts = tuple(np.cumsum([0] + lengths[:-1]).tolist())
        y = selective.ssm_scan(*op.values(), starts=starts).numpy()
        for lo, hi in ad.segments(starts, len(y)):
            seg = slice(lo, hi)
            for w in range(W):
                want, _ = ssm.varying_scan(op["deltas"][seg], op["a"][w], op["b_seq"][seg],
                                           op["c_seq"][seg], op["u"][seg, w])
                assert np.all(np.abs(y[seg, w] - want) <= 1e-12 * np.abs(want).max())
            # A reset costs nothing in rounding: each segment is the scan
            # of that segment alone.
            alone = selective.ssm_scan(op["a"], op["deltas"][seg], op["b_seq"][seg],
                                       op["c_seq"][seg], op["u"][seg]).numpy()
            np.testing.assert_array_equal(y[seg], alone)

    @pytest.mark.parametrize("which", ["a", "deltas", "b_seq", "c_seq", "u"])
    def test_gradients_across_resets(self, which):
        # Segments of 5, 1, 9 and 4 rows: a length-1 segment, and resets
        # inside every doubling level of the 9-row one.
        r = np.random.default_rng(zlib.crc32(which.encode()) + 19)
        T, W, N = 19, 2, 3
        starts = (0, 5, 6, 15)
        base = _scan_operands(r, T, W, N)
        weight = r.normal(size=(T, W))

        def f(t):
            args = dict(base)
            args[which] = t
            y = selective.ssm_scan(*args.values(), starts=starts)
            return ad.reduce_sum(ad.mul(y, ad.constant(weight)))

        assert ad.grad_check(f, base[which]) < 1e-4

    @pytest.mark.parametrize("which", ["a", "deltas", "b_seq", "c_seq", "u"])
    def test_gradients_with_a_fast_mode(self, which):
        # A mode at a = -50, and some steps of 20: its decays underflow
        # to zero on those steps, and elsewhere (e^-5 to e^-30) their
        # products fall below the floor within a few passes, forward and
        # in the adjoint scan, so the flush runs on live spans.  The
        # second channel decays slowly, so a step of 20 still leaves
        # its interval a gradient central differences resolve.
        r = np.random.default_rng(zlib.crc32(which.encode()) + 50)
        T, W, N = 37, 2, 3
        starts = (0, 17, 18)
        base = _scan_operands(r, T, W, N)
        base["a"][0, 0] = -50.0
        base["a"][1] = [-0.02, -0.05, -0.1]
        base["deltas"][r.random(T) < 0.25] = 20.0
        weight = r.normal(size=(T, W))

        def f(t):
            args = dict(base)
            args[which] = t
            y = selective.ssm_scan(*args.values(), starts=starts)
            return ad.reduce_sum(ad.mul(y, ad.constant(weight)))

        assert ad.grad_check(f, base[which]) < 1e-4

    def test_no_state_or_gradient_crosses_a_start(self):
        r = np.random.default_rng(40)
        op = _scan_operands(r, 12, 2, 3)
        tape = ad.Tape()
        u = tape.leaf(op["u"])
        y = selective.ssm_scan(op["a"], op["deltas"], op["b_seq"], op["c_seq"], u,
                               starts=(0, 7))
        tape.backward(ad.reduce_sum(ad.slice_along(y, 0, 0, 7)))
        assert np.all(tape.grad(u)[7:] == 0.0)
        assert np.all(tape.grad(u)[:7] != 0.0)


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
    out[~small] = (np.exp(zb) - _phi_masked(zb)) / zb
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
    def test_constant_parameters_degenerate_to_lti(self, monkeypatch):
        r = np.random.default_rng(8)
        L = 16
        # Zero input and output maps: the branch adds nothing.
        model = selective_block(seed=7)
        model.params[PRE + "ssm.theta_b"] = np.zeros((3, 2))
        model.params[PRE + "ssm.theta_c"] = np.zeros((3, 2))
        x = r.normal(size=(L, 3))
        out, _ = run_capturing_scan(monkeypatch, model, x)
        np.testing.assert_array_equal(out, x)

        # Constant features freeze (b, c, delta): each channel must match
        # a fixed-step recurrence with that step.
        model = selective_block(seed=9)
        model.params[PRE + "ssm.theta_delta"] = np.zeros(3)
        model.params[PRE + "ssm.delta_base"] = np.array(0.4)
        x_const = np.tile(r.normal(size=3), (L, 1))
        out, _ = run_capturing_scan(monkeypatch, model, x_const)
        b = x_const[0] @ model.params[PRE + "ssm.theta_b"]
        c = x_const[0] @ model.params[PRE + "ssm.theta_c"]
        delta = math.log1p(math.exp(0.4))
        for w in range(3):
            a = -np.exp(model.params[PRE + "ssm.rho"][w])
            step = ssm.DiscreteStep(a_bar=np.exp(delta * a),
                                    b_bar=ssm.phi(delta * a) * delta * b, delta=delta)
            want, _ = ssm.lti_scan(step, c, x_const[:, w])
            np.testing.assert_allclose(out[:, w] - x_const[:, w], want, atol=1e-12)

    def test_interval_monotone_in_preactivation(self, monkeypatch):
        model = selective_block(seed=11)
        x = np.random.default_rng(12).normal(size=(8, 3))
        theta = model.params[PRE + "ssm.theta_delta"].copy()
        base = float(model.params[PRE + "ssm.delta_base"])
        _, seen = run_capturing_scan(monkeypatch, model, x)
        d1 = seen["deltas"]
        model.params[PRE + "ssm.theta_delta"] = theta * 2
        _, seen = run_capturing_scan(monkeypatch, model, x)
        d2 = seen["deltas"]
        # softplus is monotone: an interval grows exactly where its
        # preactivation does.
        grew = base + x @ (theta * 2) > base + x @ theta
        assert np.all((d2 > d1) == grew)

    def test_gradient_wrt_interval_map_vs_finite_differences(self):
        model = selective_block(seed=13)
        r = np.random.default_rng(14)
        L = 8
        x = r.normal(size=(L, 3))
        w = r.normal(size=(L, 3))
        name = PRE + "ssm.theta_delta"

        # Analytic gradient through the tape.
        tape = ad.Tape()
        out, bound = model.run_block(0, x, tape=tape)
        tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(w))))
        got = tape.grad(bound[name])

        # Central differences by perturbing the stored weight.
        h = 1e-5
        theta = model.params[name].copy()
        num = np.empty_like(theta)
        for i in range(len(num)):
            vals = []
            for sign in (1.0, -1.0):
                model.params[name] = theta.copy()
                model.params[name][i] += sign * h
                vals.append(np.sum(model.run_block(0, x).numpy() * w))
            num[i] = (vals[0] - vals[1]) / (2 * h)
        model.params[name] = theta
        rel = np.abs(got - num) / (np.abs(got) + 1e-8)
        assert rel.max() < 1e-4

    def test_per_position_params_match_pointwise_op(self, monkeypatch):
        model = selective_block(seed=15)
        x = np.random.default_rng(16).normal(size=(5, 3))
        _, seen = run_capturing_scan(monkeypatch, model, x)
        p = {k: model.params[PRE + "ssm." + k]
             for k in ("theta_b", "theta_c", "theta_delta", "delta_base")}
        for l in range(5):
            np.testing.assert_allclose(seen["b_seq"][l], x[l] @ p["theta_b"], rtol=1e-12)
            np.testing.assert_allclose(seen["c_seq"][l], x[l] @ p["theta_c"], rtol=1e-12)
            want = np.logaddexp(0.0, p["delta_base"] + x[l] @ p["theta_delta"])  # softplus
            assert seen["deltas"][l] == pytest.approx(want, rel=1e-12)
            assert seen["deltas"][l] > 0


def composed_selective_layer(rho_t, theta_b_t, theta_c_t, theta_delta_t, delta_base_t, u_t,
                             starts=(0,)):
    """The selective layer as its scan on parameters computed from
    primitive tape ops: the oracle ``selective_layer`` is held to."""
    T, W = u_t.shape
    a = ad.neg(ad.exp(rho_t))
    b_seq = ad.matmul(u_t, theta_b_t)
    c_seq = ad.matmul(u_t, theta_c_t)
    pre_act = ad.reshape(ad.matmul(u_t, ad.reshape(theta_delta_t, (W, 1))), (T,))
    deltas = ad.softplus(ad.add(pre_act, delta_base_t))
    return selective.ssm_scan(a, deltas, b_seq, c_seq, u_t, starts=starts)


def _selective_operands(r, T, W, N):
    return [0.5 * r.normal(size=(W, N)), r.normal(size=(W, N)), r.normal(size=(W, N)),
            r.normal(size=W), np.array(r.normal()), r.normal(size=(T, W))]


_SELECTIVE_NAMES = ["rho", "theta_b", "theta_c", "theta_delta", "delta_base", "u"]


class TestSelectiveLayer:
    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.one_of(
            st.just([1]),
            st.lists(st.sampled_from(_EDGE_LENGTHS[:-6]), min_size=1, max_size=3),
            st.lists(st.integers(1, 70), min_size=2, max_size=6),  # unequal, packed
        ),
        W=st.integers(1, 3),
        N=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_composed_ops(self, lengths, W, N, seed):
        r = np.random.default_rng(seed)
        starts = tuple(np.cumsum([0] + lengths[:-1]).tolist())
        ops = _selective_operands(r, sum(lengths), W, N)
        weight = r.normal(size=(sum(lengths), W))
        got, got_grads = grads_through(
            lambda *t: selective.selective_layer(*t, starts=starts), ops, weight)
        want, want_grads = grads_through(
            lambda *t: composed_selective_layer(*t, starts=starts), ops, weight)
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("which", range(6), ids=_SELECTIVE_NAMES)
    def test_gradients_vs_finite_differences(self, which):
        # Segments of 5, 1, 9 and 4 rows, as the scan's own test.
        r = np.random.default_rng(zlib.crc32(_SELECTIVE_NAMES[which].encode()) + 70)
        T, W, N = 19, 2, 3
        starts = (0, 5, 6, 15)
        base = _selective_operands(r, T, W, N)
        weight = r.normal(size=(T, W))

        def f(t):
            args = list(base)
            args[which] = t
            y = selective.selective_layer(*args, starts=starts)
            return ad.reduce_sum(ad.mul(y, ad.constant(weight)))

        assert ad.grad_check(f, base[which]) < 1e-4

    def test_backward_after_reset(self):
        r = np.random.default_rng(71)
        assert_fresh_after_reset(lambda *t: selective.selective_layer(*t, starts=(0, 4)),
                                 _selective_operands(r, 9, 2, 3), r)

    def test_no_state_or_gradient_crosses_a_start(self):
        r = np.random.default_rng(72)
        ops = _selective_operands(r, 12, 2, 3)
        tape = ad.Tape()
        u = tape.leaf(ops[5])
        y = selective.selective_layer(*ops[:5], u, starts=(0, 7))
        tape.backward(ad.reduce_sum(ad.slice_along(y, 0, 0, 7)))
        assert np.all(tape.grad(u)[7:] == 0.0)
        assert np.all(tape.grad(u)[:7] != 0.0)

    def test_bad_operands_rejected(self):
        r = np.random.default_rng(73)
        rho, tb, tc, td, db, u = _selective_operands(r, 5, 2, 3)
        for args in [(rho, tb, tc, td, db, u[:, :1]), (rho, tb[:, :2], tc, td, db, u),
                     (rho, tb, tc, td[:1], db, u), (rho, tb, tc, td, np.zeros(2), u),
                     (rho, tb, tc, td, db, u[:0])]:
            with pytest.raises(ad.ShapeError):
                selective.selective_layer(*args)
        with pytest.raises(ad.NonFiniteError):
            selective.selective_layer(np.full((2, 3), 800.0), tb, tc, td, db, u)


def composed_fixed_step(rho_t, raw_delta_t, b_t, c_t, u_t, starts=(0,)):
    """The fixed-step layer as the selective scan on operands tiled over
    the rows, from primitive tape ops: the oracle ``fixed_step_conv`` is
    held to."""
    T = u_t.shape[0]
    a = ad.neg(ad.exp(rho_t))
    deltas = ad.mul(ad.constant(np.ones(T)), ad.softplus(raw_delta_t))
    return selective.ssm_scan(a, deltas, ad.tile_rows(b_t, T), ad.tile_rows(c_t, T), u_t,
                              starts=starts)


def _fixed_step_operands(r, T, W, N):
    return [0.5 * r.normal(size=(W, N)), np.array(r.normal()), r.normal(size=N),
            r.normal(size=N), r.normal(size=(T, W))]


_FIXED_STEP_NAMES = ["rho", "raw_delta", "b", "c", "u"]


class TestFixedStepConv:
    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.one_of(
            st.just([1]),
            st.lists(st.sampled_from(_EDGE_LENGTHS), min_size=1, max_size=3),
            st.lists(st.integers(1, 70), min_size=2, max_size=6),  # unequal, packed
        ),
        W=st.integers(1, 3),
        N=st.integers(1, 4),
        fast=st.sampled_from(["none", "one", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_composed_scan(self, lengths, W, N, fast, seed):
        r = np.random.default_rng(seed)
        starts = tuple(np.cumsum([0] + lengths[:-1]).tolist())
        ops = _fixed_step_operands(r, sum(lengths), W, N)
        if fast != "none":
            # delta |a| of 20 to 200 per step: powers fall under the flush
            # floor within 2 to 18 steps, for one mode or (the kernel then
            # shorter than the segments) for every mode.
            ops[0][(0, 0) if fast == "one" else ...] += 4.0 + np.log(r.uniform(0.5, 2.0))
            ops[1] = np.array(r.uniform(0.0, 1.0))
        want = composed_fixed_step(*ops, starts=starts).numpy()
        assert_close_relative(selective.fixed_step_conv(*ops, starts=starts).numpy(), want)
        if fast == "none":
            # With a fast mode, the interval's gradient is mostly a
            # cancellation, phi(z) delta tending to 1 / |a|, so it is
            # held to finite differences below instead.
            weight = r.normal(size=want.shape)
            _, got = grads_through(lambda *t: selective.fixed_step_conv(*t, starts=starts),
                                   ops, weight)
            _, ref = grads_through(lambda *t: composed_fixed_step(*t, starts=starts),
                                   ops, weight)
            for g, w in zip(got, ref):
                assert_close_relative(g, w, rtol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           W=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_padded_layout_matches_one_copy_per_segment(self, lengths, W, seed):
        x = np.random.default_rng(seed).normal(size=(sum(lengths), W))
        starts = tuple(np.cumsum([0] + lengths[:-1]).tolist())
        bounds = ad.segments(starts, len(x))
        _, mask = ad.segment_layout(starts, len(x))
        want = np.zeros((len(bounds), W, max(lengths)))
        for s, (lo, hi) in enumerate(bounds):
            want[s, :, : hi - lo] = x[lo:hi].T
        got = selective._spread(x, mask)
        np.testing.assert_array_equal(got, want)
        # What irfft hands back is longer than the segments.
        longer = np.concatenate([want, np.ones((len(bounds), W, 3))], axis=2)
        np.testing.assert_array_equal(selective._gather(longer, mask), x)

    def test_one_sequence_of_one_row(self):
        r = np.random.default_rng(60)
        ops = _fixed_step_operands(r, 1, 2, 3)
        y = selective.fixed_step_conv(*ops).numpy()
        delta = math.log1p(math.exp(float(ops[1])))
        z = -delta * np.exp(ops[0])
        want = (ssm.phi(z) * delta * ops[2] * ops[3]).sum(axis=1) * ops[4][0]
        np.testing.assert_allclose(y[0], want, rtol=1e-14)

    @pytest.mark.parametrize("which", range(5), ids=_FIXED_STEP_NAMES)
    @pytest.mark.parametrize("fast", [False, True], ids=["no_flush", "flush"])
    def test_gradients_vs_finite_differences(self, which, fast):
        # Segments of 5, 1, 9 and 4 rows.  The fast case adds a mode at
        # a = -e^4.5 whose powers flush within a few steps; the other
        # channel decays slowly, so every weight keeps a gradient central
        # differences resolve.
        r = np.random.default_rng(zlib.crc32(_FIXED_STEP_NAMES[which].encode()) + fast)
        T, W, N = 19, 2, 3
        starts = (0, 5, 6, 15)
        base = _fixed_step_operands(r, T, W, N)
        if fast:
            base[0][0] = [4.5, 4.0, 0.0]
        weight = r.normal(size=(T, W))

        def f(t):
            args = list(base)
            args[which] = t
            y = selective.fixed_step_conv(*args, starts=starts)
            return ad.reduce_sum(ad.mul(y, ad.constant(weight)))

        assert ad.grad_check(f, base[which]) < 1e-4

    def test_backward_after_reset(self):
        r = np.random.default_rng(61)
        assert_fresh_after_reset(lambda *t: selective.fixed_step_conv(*t, starts=(0, 4)),
                                 _fixed_step_operands(r, 9, 2, 3), r)

    def test_no_state_or_gradient_crosses_a_start(self):
        r = np.random.default_rng(62)
        ops = _fixed_step_operands(r, 12, 2, 3)
        tape = ad.Tape()
        u = tape.leaf(ops[4])
        y = selective.fixed_step_conv(*ops[:4], u, starts=(0, 7))
        tape.backward(ad.reduce_sum(ad.slice_along(y, 0, 0, 7)))
        assert np.all(tape.grad(u)[7:] == 0.0)
        assert np.all(tape.grad(u)[:7] != 0.0)

    def test_bad_operands_rejected(self):
        r = np.random.default_rng(63)
        rho, raw, b, c, u = _fixed_step_operands(r, 5, 2, 3)
        for args in [(rho, raw, b, c, u[:, :1]), (rho, raw, b[:2], c, u),
                     (rho, np.zeros(2), b, c, u), (rho, raw, b, c, u[:0])]:
            with pytest.raises(ad.ShapeError):
                selective.fixed_step_conv(*args)
        with pytest.raises(ad.NonFiniteError):
            selective.fixed_step_conv(np.full((2, 3), 800.0), raw, b, c, u)
