"""Tests for the reverse-mode tensor engine.

Expected values come from three independent sources: analytic constants,
hand-worked arithmetic, and central finite differences (via grad_check,
which never touches the analytic rules it is checking).
"""

import math
import zlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ressm import autodiff as ad


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConstruction:
    def test_shape_product_matches_size(self):
        t = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert t.shape == (3, 2)
        assert t.size == 6

    def test_nan_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.Tensor([1.0, float("nan")])

    def test_inf_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.Tensor([float("inf")])

    def test_immutable(self):
        t = ad.Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.constant(0.0)).item() == 0.5

    def test_softplus_zero_is_ln2(self):
        assert ad.softplus(ad.constant(0.0)).item() == pytest.approx(math.log(2.0), rel=1e-15)

    def test_expm1_tiny_against_high_precision(self):
        # Oracle: 50-digit evaluation of e^x - 1 at x = 1e-12.
        with mpmath.workdps(50):
            want = float(mpmath.expm1(mpmath.mpf("1e-12")))
        got = ad.expm1(ad.constant(1e-12)).item()
        assert abs(got - want) / abs(want) < 1e-6
        # The naive path is orders of magnitude less accurate here.
        naive = math.exp(1e-12) - 1.0
        assert abs(naive - want) / abs(want) > 1e-5

    def test_binary_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))

    def test_scalar_broadcast(self):
        out = ad.mul(ad.constant([1.0, 2.0, 3.0]), 2.0)
        np.testing.assert_array_equal(out.numpy(), [2.0, 4.0, 6.0])

    def test_non_finite_result_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.exp(ad.constant(1e4))

    def test_dispatcher_matches_direct(self):
        x = ad.constant([0.3, -0.7])
        np.testing.assert_array_equal(ad.elementwise("sigmoid", x).numpy(), ad.sigmoid(x).numpy())
        with pytest.raises(ValueError):
            ad.elementwise("nope", x)
        with pytest.raises(ad.ShapeError):
            ad.elementwise("add", x)

    @pytest.mark.parametrize("kind", ["exp", "expm1", "log1p", "sigmoid", "softplus", "neg", "recip", "sqrt"])
    def test_unary_gradients_vs_finite_differences(self, kind):
        r = rng(zlib.crc32(kind.encode()))
        for _ in range(10):
            x = r.uniform(0.3, 2.0, size=4)  # positive keeps recip/sqrt/log1p in domain
            err = ad.grad_check(lambda t: ad.reduce_sum(ad.elementwise(kind, t)), x)
            assert err < 1e-4

    @pytest.mark.parametrize("kind", ["add", "sub", "mul"])
    def test_binary_gradients_vs_finite_differences(self, kind):
        r = rng(99)
        other = ad.constant(r.normal(size=4))
        for _ in range(10):
            x = r.normal(size=4)
            err = ad.grad_check(lambda t: ad.reduce_sum(ad.elementwise(kind, t, other)), x)
            assert err < 1e-4


class TestMatmul:
    def test_identity(self):
        m = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.constant(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(eye, m).numpy(), m.numpy())

    def test_hand_multiplied(self):
        # [[1,2],[3,4]] @ [[5],[6]]: rows (1*5+2*6, 3*5+4*6) = (17, 39).
        out = ad.matmul(ad.constant([[1.0, 2.0], [3.0, 4.0]]), ad.constant([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.numpy(), [[17.0], [39.0]])

    def test_dim_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[1.0, 2.0]]))

    def test_gradient_vs_finite_differences(self):
        r = rng(7)
        b = ad.constant(r.normal(size=(3, 3)))
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.matmul(t, b)), r.normal(size=(3, 3)))
        assert err < 1e-4
        a = ad.constant(r.normal(size=(3, 3)))
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.matmul(a, t)), r.normal(size=(3, 3)))
        assert err < 1e-4


class TestConcatSlice:
    def test_single_part_identity(self):
        x = ad.constant([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ad.concat([x], axis=0).numpy(), x.numpy())

    def test_roundtrip_bit_exact(self):
        r = rng(3)
        x = r.normal(size=(5, 4))
        t = ad.constant(x)
        a = ad.slice_along(t, 0, 0, 2)
        b = ad.slice_along(t, 0, 2, 5)
        back = ad.concat([a, b], axis=0)
        assert np.array_equal(back.numpy(), x)

    def test_concat_then_slice_recovers_parts(self):
        a = ad.constant([[1.0], [2.0]])
        b = ad.constant([[3.0]])
        cat = ad.concat([a, b], axis=0)
        np.testing.assert_array_equal(ad.slice_along(cat, 0, 0, 2).numpy(), a.numpy())
        np.testing.assert_array_equal(ad.slice_along(cat, 0, 2, 3).numpy(), b.numpy())

    def test_extent_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.concat([ad.constant([[1.0, 2.0]]), ad.constant([[1.0]])], axis=0)

    def test_slice_gradient_is_padded_scatter(self):
        r = rng(11)
        err = ad.grad_check(
            lambda t: ad.reduce_sum(ad.mul(ad.slice_along(t, 1, 1, 3), ad.slice_along(t, 1, 1, 3))),
            r.normal(size=(2, 4)),
        )
        assert err < 1e-4
        # Direct check that untouched coordinates receive zero gradient.
        tape = ad.Tape()
        x = tape.leaf(r.normal(size=(2, 4)))
        tape.backward(ad.reduce_sum(ad.slice_along(x, 1, 1, 3)))
        g = tape.grad(x)
        assert np.all(g[:, 0] == 0.0) and np.all(g[:, 3] == 0.0) and np.all(g[:, 1:3] == 1.0)

    def test_concat_gradient_vs_finite_differences(self):
        r = rng(12)
        other = ad.constant(r.normal(size=(2, 2)))
        err = ad.grad_check(
            lambda t: ad.reduce_sum(ad.mul(ad.concat([t, other], axis=1), ad.concat([t, other], axis=1))),
            r.normal(size=(2, 2)),
        )
        assert err < 1e-4


class TestReduceAndLoss:
    def test_sum(self):
        assert ad.reduce_sum(ad.constant([1.0, 2.0, 3.0])).item() == 6.0

    def test_mean_axis(self):
        out = ad.reduce_mean(ad.constant([[1.0, 3.0], [5.0, 7.0]]), axis=0)
        np.testing.assert_array_equal(out.numpy(), [3.0, 5.0])

    def test_max_gradient_routes_to_argmax(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 5.0, 3.0])
        tape.backward(ad.reduce_max(x))
        np.testing.assert_array_equal(tape.grad(x), [0.0, 1.0, 0.0])

    def test_reduce_dispatcher(self):
        x = ad.constant([2.0, 4.0])
        assert ad.reduce("mean", x).item() == 3.0
        with pytest.raises(ValueError):
            ad.reduce("median", x)

    def test_cross_entropy_uniform_logits(self):
        assert ad.cross_entropy(ad.constant([0.0, 0.0, 0.0]), 1).item() == pytest.approx(math.log(3.0), rel=1e-15)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ad.ShapeError):
            ad.cross_entropy(ad.constant([0.0, 1.0]), 2)

    def test_cross_entropy_grad_is_softmax_minus_onehot(self):
        r = rng(21)
        logits = r.normal(size=5)
        tape = ad.Tape()
        t = tape.leaf(logits)
        tape.backward(ad.cross_entropy(t, 2))
        g = tape.grad(t)
        e = np.exp(logits - logits.max())
        want = e / e.sum()
        want[2] -= 1.0
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-15)
        err = ad.grad_check(lambda t: ad.cross_entropy(t, 2), logits)
        assert err < 1e-4


class TestExtendedOps:
    def test_cumsum_values_and_gradient(self):
        np.testing.assert_array_equal(ad.cumsum(ad.constant([1.0, 2.0, 3.0])).numpy(), [1.0, 3.0, 6.0])
        r = rng(31)
        w = ad.constant(r.normal(size=5))
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.cumsum(t), w)), r.normal(size=5))
        assert err < 1e-4

    def test_gather_rows_values_and_scatter_gradient(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ad.gather_rows(ad.constant(x), [2, 0, 2])
        np.testing.assert_array_equal(out.numpy(), x[[2, 0, 2]])
        tape = ad.Tape()
        t = tape.leaf(x)
        tape.backward(ad.reduce_sum(ad.gather_rows(t, [2, 0, 2])))
        g = tape.grad(t)
        np.testing.assert_array_equal(g.sum(axis=1), [3.0, 0.0, 6.0, 0.0])

    def test_gather_rows_out_of_range(self):
        with pytest.raises(ad.ShapeError):
            ad.gather_rows(ad.constant([[1.0]]), [1])

    def test_tile_rows_and_cols_gradients(self):
        r = rng(41)
        w = ad.constant(r.normal(size=(3, 4)))
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.tile_rows(t, 3), w)), r.normal(size=4))
        assert err < 1e-4
        w2 = ad.constant(r.normal(size=(4, 3)))
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.tile_cols(t, 3), w2)), r.normal(size=4))
        assert err < 1e-4

    def test_reshape_roundtrip(self):
        r = rng(42)
        x = r.normal(size=(2, 6))
        out = ad.reshape(ad.constant(x), (3, 4))
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.numpy().reshape(2, 6), x)


class TestTapeBackward:
    def test_identity_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(2.5)
        tape.backward(x)
        assert tape.grad(x) == 1.0

    def test_sigmoid_slope_at_zero(self):
        tape = ad.Tape()
        x = tape.leaf(0.0)
        tape.backward(ad.sigmoid(x))
        assert tape.grad(x) == pytest.approx(0.25, rel=1e-15)

    def test_composite_loss_vs_finite_differences(self):
        r = rng(5)
        w = ad.constant(r.normal(size=(3, 3)))
        err = ad.grad_check(lambda t: ad.cross_entropy(ad.reshape(ad.matmul(w, ad.reshape(t, (3, 1))), (3,)), 0), r.normal(size=3))
        assert err < 1e-4

    def test_non_scalar_root_rejected(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ad.ShapeError):
            tape.backward(x)

    def test_double_backward_without_reset_errors(self):
        tape = ad.Tape()
        x = tape.leaf(1.0)
        y = ad.mul(x, x)
        tape.backward(y)
        with pytest.raises(ad.TapeError):
            tape.backward(y)
        tape.reset()
        tape.backward(y)  # allowed after reset
        assert tape.grad(x) == 2.0

    def test_non_ancestor_has_zero_grad(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        z = tape.leaf([3.0, 4.0])
        tape.backward(ad.reduce_sum(x))
        np.testing.assert_array_equal(tape.grad(z), [0.0, 0.0])

    def test_root_grad_is_ones(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        y = ad.mul(x, 2.0)
        tape.backward(y)
        assert np.all(tape.grad(y) == 1.0)

    def test_cross_tape_ops_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ad.TapeError):
            ad.add(t1.leaf(1.0), t2.leaf(2.0))

    def test_fanout_accumulates(self):
        # y = x*x + x uses x three times; dy/dx = 2x + 1.
        tape = ad.Tape()
        x = tape.leaf(3.0)
        tape.backward(ad.add(ad.mul(x, x), x))
        assert tape.grad(x) == 7.0

    def test_topological_parent_ids(self):
        tape = ad.Tape()
        x = tape.leaf([1.0])
        y = ad.exp(x)
        z = ad.mul(y, y)
        for nid, node in enumerate(tape.nodes):
            assert all(p < nid for p in node.parents)
        assert z.node_id == len(tape.nodes) - 1


class TestGradCheck:
    def test_sum_is_exact(self):
        # Power-of-two step keeps every probe exactly representable, so the
        # central difference of a plain sum is exact.
        assert ad.grad_check(ad.reduce_sum, np.array([1.0, 2.0, 3.0]), h=0.5) == 0.0

    def test_exp_sum_tight(self):
        r = rng(8)
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.exp(t)), r.uniform(-1, 1, size=5))
        assert err < 1e-6

    def test_frozen_routing_is_checkable(self):
        # Index selection fixed outside the function: the continuous part
        # stays differentiable.
        idx = [2, 0]
        r = rng(9)
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.gather_rows(t, idx), ad.gather_rows(t, idx))), r.normal(size=(3, 2)))
        assert err < 1e-4

    def test_non_finite_probe_raises(self):
        # The downward probe lands exactly on the pole of 1/x.
        with pytest.raises(ad.NonFiniteError):
            ad.grad_check(lambda t: ad.reduce_sum(ad.recip(t)), np.array([1e-4]), h=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8),
       st.integers(min_value=1, max_value=7))
def test_property_concat_slice_roundtrip(values, cut):
    x = np.array(values)
    cut = min(cut, len(values))
    t = ad.constant(x)
    parts = [ad.slice_along(t, 0, 0, cut), ad.slice_along(t, 0, cut, len(values))]
    assert np.array_equal(ad.concat(parts, axis=0).numpy(), x)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_random_composites_pass_grad_check(seed):
    r = rng(seed)
    w = ad.constant(r.normal(size=(4, 4)))

    def f(t):
        h = ad.sigmoid(ad.matmul(w, ad.reshape(t, (4, 1))))
        return ad.reduce_mean(ad.softplus(h))

    assert ad.grad_check(f, r.normal(size=4)) < 1e-4
