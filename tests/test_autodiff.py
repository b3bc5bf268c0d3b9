"""Tests for the reverse-mode tensor engine.

Expected values come from three independent sources: analytic constants,
hand-worked arithmetic, and central finite differences (via grad_check,
which never touches the analytic rules it is checking).
"""

import ctypes
import math
import os
import platform
import subprocess
import sys
import textwrap
import weakref
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

    @pytest.mark.parametrize("starts", [(0,), (0, 1, 4), (0, 3, 4, 8)])
    def test_segmented_cumsum_restarts_at_each_start(self, starts):
        r = rng(32)
        x = r.normal(size=9)
        bounds = ad.segments(starts, 9)
        want = np.concatenate([np.cumsum(x[lo:hi]) for lo, hi in bounds])
        np.testing.assert_array_equal(ad.cumsum(ad.constant(x), starts).numpy(), want)
        w = ad.constant(r.normal(size=9))
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.cumsum(t, starts), w)), x)
        assert err < 1e-6

    def test_segment_mean_values_and_gradient(self):
        r = rng(33)
        x = r.normal(size=(7, 3))
        starts = (0, 2, 3)
        want = np.stack([x[0:2].mean(axis=0), x[2:3].mean(axis=0), x[3:7].mean(axis=0)])
        np.testing.assert_array_equal(ad.segment_mean(ad.constant(x), starts).numpy(), want)
        np.testing.assert_array_equal(ad.segment_mean(ad.constant(x), (0,)).numpy()[0],
                                      ad.reduce_mean(ad.constant(x), axis=0).numpy())
        w = ad.constant(r.normal(size=(3, 3)))
        err = ad.grad_check(lambda t: ad.reduce_sum(ad.mul(ad.segment_mean(t, starts), w)), x)
        assert err < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           H=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_padded_forms_bit_equal_to_one_op_per_segment(self, lengths, H, seed):
        # Magnitudes over six decades, so sums round, and -0.0 entries,
        # so some segment columns are -0.0 throughout.
        r = rng(seed)
        x = r.normal(size=(sum(lengths), H)) * 10.0 ** r.uniform(-3, 3, size=(sum(lengths), 1))
        x[r.random(x.shape) < 0.2] = -0.0
        starts = tuple(np.cumsum([0] + lengths[:-1]).tolist())
        bounds = ad.segments(starts, len(x))

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        col = x[:, 0]
        tape = ad.Tape()
        t = tape.leaf(col)
        out = ad.cumsum(t, starts)
        want = np.concatenate([np.cumsum(col[lo:hi]) for lo, hi in bounds])
        np.testing.assert_array_equal(bits(out.numpy()), bits(want))
        g = x[:, 1]
        tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(g))))
        want = np.concatenate([np.cumsum(g[lo:hi][::-1])[::-1] for lo, hi in bounds])
        np.testing.assert_array_equal(bits(tape.grad(t)), bits(want))

        want = np.stack([x[lo:hi].sum(axis=0) / (hi - lo) for lo, hi in bounds])
        np.testing.assert_array_equal(bits(ad.segment_mean(ad.constant(x), starts).numpy()),
                                      bits(want))

    def test_segment_mean_of_one_column_alone_is_reduce_mean(self):
        x = rng(35).normal(size=(37, 1))
        np.testing.assert_array_equal(ad.segment_mean(ad.constant(x), (0,)).numpy()[0],
                                      ad.reduce_mean(ad.constant(x), axis=0).numpy())

    @pytest.mark.parametrize("starts", [(), (1, 3), (0, 3, 3), (0, 2, 1), (0, 9)])
    def test_segments_rejects_bad_starts(self, starts):
        for split in (ad.segments, ad.segment_lengths, ad.segment_layout):
            with pytest.raises(ad.ShapeError, match="segment starts"):
                split(starts, 9)

    def test_cross_entropy_rows_sum_per_row_losses(self):
        r = rng(34)
        logits = r.normal(size=(4, 5))
        labels = [2, 0, 4, 2]
        want = sum(ad.cross_entropy(ad.constant(row), k).item() for row, k in zip(logits, labels))
        assert ad.cross_entropy(ad.constant(logits), labels).item() == pytest.approx(want, rel=1e-15)
        assert ad.grad_check(lambda t: ad.cross_entropy(t, labels), logits) < 1e-6
        with pytest.raises(ad.ShapeError, match="labels"):
            ad.cross_entropy(ad.constant(logits), [0, 1])
        with pytest.raises(ad.ShapeError, match="out of range"):
            ad.cross_entropy(ad.constant(logits), [0, 1, 5, 0])

    def test_gather_rows_values_and_scatter_gradient(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ad.gather_rows(ad.constant(x), [2, 0, 2])
        np.testing.assert_array_equal(out.numpy(), x[[2, 0, 2]])
        tape = ad.Tape()
        t = tape.leaf(x)
        tape.backward(ad.reduce_sum(ad.gather_rows(t, [2, 0, 2])))
        g = tape.grad(t)
        np.testing.assert_array_equal(g.sum(axis=1), [3.0, 0.0, 6.0, 0.0])

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.integers(0, 40),
        tail=st.sampled_from([(), (1,), (3,), (2, 3)]),
        order=st.sampled_from(["sorted", "shuffled"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scatter_add_bit_equal_to_add_at(self, n, m, tail, order, seed):
        # Few rows and many indices: repeats are the rule, and bincount
        # must add them in the order np.add.at does.
        r = rng(seed)
        idx = r.integers(0, n, size=m)
        if order == "sorted":
            idx = np.sort(idx)
        values = r.normal(size=(m, *tail)) * np.exp(r.normal(size=(m, *tail)) * 8)
        want = np.zeros((n, *tail))
        np.add.at(want, idx, values)
        got = ad.scatter_add(idx, values, n)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_scatter_add_empty_index(self):
        got = ad.scatter_add(np.array([], dtype=np.intp), np.zeros((0, 3)), 4)
        np.testing.assert_array_equal(got, np.zeros((4, 3)))

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


class TestFusedOp:
    @staticmethod
    def product(calls):
        """forward of a * b * c, counting its backward's runs."""
        def forward(a, b, c):
            def backward(g):
                calls.append(g)
                return g * b * c, g * a * c, g * a * b
            return a * b * c, backward
        return forward

    def test_one_backward_per_upstream_gradient(self):
        calls = []
        tape = ad.Tape()
        leaves = [tape.leaf(v) for v in ([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])]
        out = ad.fused_op("product", self.product(calls), *leaves)
        assert len(tape.nodes) == 4
        tape.backward(ad.reduce_sum(out))
        assert len(calls) == 1
        np.testing.assert_array_equal(tape.grad(leaves[0]), [15.0, 24.0])
        # After reset a new root brings a new gradient, and a new run.
        root = ad.reduce_sum(ad.mul(out, 2.0))
        tape.reset()
        tape.backward(root)
        assert len(calls) == 2
        np.testing.assert_array_equal(tape.grad(leaves[1]), [10.0, 24.0])
        np.testing.assert_array_equal(tape.grad(leaves[2]), [6.0, 16.0])

    def test_gradients_dropped_once_read_and_rerun_after_reset(self):
        # Each operand also gets a gradient by a second path, so the tape
        # keeps only sums: once the node has handed its gradients out,
        # nothing else holds the arrays backward returned.
        returned = []

        def forward(a, b):
            def backward(g):
                grads = (g * b, g * a)
                returned.extend(weakref.ref(x) for x in grads)
                return grads
            return a * b, backward

        tape = ad.Tape()
        a, b = tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0])
        out = ad.fused_op("product", forward, a, b)
        both = ad.reduce_sum(ad.add(a, b))
        tape.backward(ad.add(ad.reduce_sum(out), both))
        assert len(returned) == 2 and all(ref() is None for ref in returned)
        np.testing.assert_array_equal(tape.grad(a), [4.0, 5.0])
        # After reset a new root reruns backward, and that run's arrays
        # are dropped as well.
        root = ad.add(ad.reduce_sum(ad.mul(out, 2.0)), both)
        tape.reset()
        tape.backward(root)
        assert len(returned) == 4 and all(ref() is None for ref in returned)
        np.testing.assert_array_equal(tape.grad(a), [7.0, 9.0])
        np.testing.assert_array_equal(tape.grad(b), [3.0, 5.0])

    def test_untracked_operands_skipped(self):
        calls = []
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        out = ad.fused_op("product", self.product(calls), ad.constant([3.0, 4.0]), x,
                          np.array([5.0, 6.0]))
        assert tape.nodes[out.node_id].parents == (x.node_id,)
        tape.backward(ad.reduce_sum(out))
        assert len(calls) == 1
        np.testing.assert_array_equal(tape.grad(x), [15.0, 24.0])
        # With nothing tracked the result is a constant.
        out = ad.fused_op("product", self.product(calls), 1.0, 2.0, 3.0)
        assert out.tape is None and out.item() == 6.0

    def test_operand_listed_twice_gets_both_gradients_in_order(self):
        def forward(a, b):
            return a * b, lambda g: (g * 2.0, g * 3.0)

        tape = ad.Tape()
        x = tape.leaf(1.5)
        out = ad.fused_op("twice", forward, x, x)
        node = tape.nodes[out.node_id]
        assert node.parents == (x.node_id, x.node_id)
        assert [float(g) for g in node.vjp(np.array(1.0))] == [2.0, 3.0]
        tape.backward(out)
        assert tape.grad(x) == 5.0

    def test_forward_errors_propagate(self):
        def forward(a):
            raise ad.ShapeError("bad operand")

        tape = ad.Tape()
        x = tape.leaf([1.0])
        with pytest.raises(ad.ShapeError, match="bad operand"):
            ad.fused_op("fails", forward, x)
        assert len(tape.nodes) == 1


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


# The eval-L1024 benchmark model (criterion-8 layout at L = 1024), run twice
# in a fresh process; prints the minor page faults of the second predict.
_REPEAT_PREDICT = textwrap.dedent("""
    import resource
    import numpy as np
    from ressm import network as net
    spec = net.NetworkSpec(
        depth=2, h_dim=16,
        block=net.BlockSpec(branches=[net.BranchSpec(kappa=None), net.BranchSpec(kappa=0.5)]),
        n_classes=4, vocab_size=12)
    model = net.ResampleNetwork(spec, seed=0)
    tokens = np.random.default_rng(0).integers(0, 12, size=1024)
    model.predict(tokens)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.predict(tokens)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
    def test_repeat_forward_faults_no_pages_in(self):
        # A fresh process, so no earlier test has shaped the heap.  With
        # glibc's default thresholds the second forward faults its
        # temporaries in again, several hundred pages.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", _REPEAT_PREDICT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 64

    def test_off_glibc_mallopt_is_never_looked_up(self, monkeypatch):
        def no_libc(*args, **kwargs):
            raise AssertionError("libc looked up off glibc")

        monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("", ""))
        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert ad._keep_freed_memory() is False


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
