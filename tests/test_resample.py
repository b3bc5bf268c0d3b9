"""Tests for interval computation, grid building, kNN routing,
Gaussian basis features, and compress/decompress round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ressm import autodiff as ad
from ressm import resample as rs


def make_cfg(width=3, kappa=0.5, window_k=2, basis_g=4, seed=0, delta_base=1.0):
    return rs.init_resample_config(width, kappa, window_k, basis_g,
                                   np.random.default_rng(seed), delta_base)


def composed_interval_map(x_t, theta_delta_t, delta_t, kappa):
    """``rs.interval_map`` composed from primitive tape ops: the oracle
    the fused op is held to."""
    L, width = x_t.shape
    pre_act = ad.reshape(ad.matmul(x_t, ad.reshape(theta_delta_t, (width, 1))), (L,))
    return ad.add(
        ad.mul(ad.sigmoid(pre_act), ad.mul(delta_t, 1.0 - kappa)),
        ad.mul(delta_t, kappa),
    )


def composed_compress(x_t, plan, theta_gamma_t, mus_t, src_times_t, dst_times_t):
    """``rs.compress_tracked`` composed from primitive tape ops, one row
    per (grid point, neighbour) pair: the oracle the fused op is held to."""
    n_dst, window_k = plan.neighbors.shape
    rows = n_dst * window_k
    idx = plan.neighbors.reshape(-1)
    xk = ad.gather_rows(x_t, idx)
    dst_k = ad.reshape(ad.tile_cols(dst_times_t, window_k), (rows,))
    dk = ad.sub(dst_k, ad.gather_rows(src_times_t, idx))
    diff = ad.sub(ad.tile_cols(dk, mus_t.size), ad.tile_rows(mus_t, rows))
    eps = ad.exp(ad.neg(ad.mul(diff, diff)))
    feats = ad.reshape(ad.concat([xk, eps], axis=1), (n_dst, -1))
    return ad.matmul(feats, theta_gamma_t)


def grads_through(op, operands, weight):
    """Value of ``op`` on tape leaves made from ``operands`` and the
    gradients of sum(op * weight) with respect to each."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in operands]
    out = op(*leaves)
    tape.backward(ad.reduce_sum(ad.mul(out, ad.constant(weight))))
    return out.numpy(), [tape.grad(t) for t in leaves]


def assert_fresh_after_reset(op, operands, rng):
    """After ``Tape.reset()``, a backward from a second root through
    ``op`` gives what a fresh tape gives for that root alone, not the
    gradients the first root left behind."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in operands]
    out = op(*leaves)
    weights = [rng.normal(size=out.shape) for _ in range(2)]
    roots = [ad.reduce_sum(ad.mul(out, ad.constant(w))) for w in weights]
    tape.backward(roots[0])
    tape.reset()
    tape.backward(roots[1])
    _, want = grads_through(op, operands, weights[1])
    for leaf, g in zip(leaves, want):
        np.testing.assert_array_equal(tape.grad(leaf), g)


def assert_close_relative(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(got - want), initial=0.0)) <= rtol * scale


class TestIntervalMapOp:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
        st.sampled_from([(), (1,)]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(L=1, width=1, kappa=1.0, delta_shape=(), seed=1)
    @example(L=7, width=3, kappa=0.05, delta_shape=(1,), seed=2)
    def test_matches_composed_ops(self, L, width, kappa, delta_shape, seed):
        r = np.random.default_rng(seed)
        operands = [r.normal(size=(L, width)), r.normal(size=width),
                    np.full(delta_shape, r.uniform(0.1, 2.0))]
        weight = r.normal(size=L)
        got, got_grads = grads_through(
            lambda *t: rs.interval_map(*t, kappa), operands, weight)
        want, want_grads = grads_through(
            lambda *t: composed_interval_map(*t, kappa), operands, weight)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        for g, w in zip(got_grads, want_grads):
            assert g.shape == w.shape
            assert_close_relative(g, w)

    def test_backward_after_reset(self):
        r = np.random.default_rng(39)
        assert_fresh_after_reset(lambda *t: rs.interval_map(*t, 0.4),
                                 [r.normal(size=(6, 3)), r.normal(size=3), 0.8], r)

    def test_one_tape_node(self):
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in (np.ones((5, 2)), np.ones(2), 1.0)]
        rs.interval_map(*leaves, 0.5)
        assert len(tape.nodes) - len(leaves) == 1

    @pytest.mark.parametrize("kappa", [0.3, 1.0])
    def test_gradients_vs_finite_differences(self, kappa):
        r = np.random.default_rng(40)
        x, theta, delta = r.normal(size=(6, 3)), r.normal(size=3), np.array([0.8])
        w = ad.constant(r.normal(size=6))

        def loss(x_t, theta_t, delta_t):
            return ad.reduce_sum(ad.mul(rs.interval_map(x_t, theta_t, delta_t, kappa), w))

        assert ad.grad_check(lambda t: loss(t, ad.constant(theta), ad.constant(delta)), x) < 1e-6
        assert ad.grad_check(lambda t: loss(ad.constant(x), t, ad.constant(delta)), theta) < 1e-6
        assert ad.grad_check(lambda t: loss(ad.constant(x), ad.constant(theta), t), delta) < 1e-6


class TestCompressionDeltas:
    def test_zero_preactivation_midpoint(self):
        cfg = make_cfg(kappa=0.5, delta_base=1.0)
        cfg.theta_delta = np.zeros(3)
        d = rs.compression_deltas(cfg, np.random.default_rng(1).normal(size=(5, 3)))
        np.testing.assert_allclose(d, 0.75, rtol=1e-15)

    def test_sigmoid_limits(self):
        cfg = make_cfg(kappa=0.2, delta_base=2.0)
        cfg.theta_delta = np.array([100.0, 0.0, 0.0])
        lo = rs.compression_deltas(cfg, np.array([[-10.0, 0.0, 0.0]]))[0]
        hi = rs.compression_deltas(cfg, np.array([[10.0, 0.0, 0.0]]))[0]
        assert lo == pytest.approx(0.2 * 2.0, rel=1e-12)
        assert hi == pytest.approx(2.0, rel=1e-12)

    def test_strict_bounds_random_sweep(self):
        r = np.random.default_rng(2)
        for kappa in (0.1, 0.2, 0.5):
            cfg = make_cfg(kappa=kappa, seed=3)
            x = r.normal(size=(10_000, 3))
            d = rs.compression_deltas(cfg, x)
            assert np.all(d > kappa * cfg.delta_base)
            assert np.all(d < cfg.delta_base)

    def test_kappa_one_disables_compression(self):
        cfg = make_cfg(kappa=1.0, delta_base=0.5)
        d = rs.compression_deltas(cfg, np.random.default_rng(4).normal(size=(7, 3)))
        assert np.all(d == 0.5)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            make_cfg(kappa=0.0)
        with pytest.raises(ValueError):
            make_cfg(kappa=1.5)


class TestBuildGrid:
    def test_no_compression_degeneracy(self):
        # Power-of-two interval keeps all sums exact: grid == source times.
        L, delta = 23, 0.5
        plan = rs.build_grid(np.full(L, delta), delta)
        assert plan.dst_len == L
        np.testing.assert_array_equal(plan.dst_times, plan.src_times)

    def test_full_compression_floor(self):
        L, kappa, delta = 10, 0.5, 1.0
        plan = rs.build_grid(np.full(L, kappa * delta), delta)
        assert plan.dst_len == math.floor(kappa * L)

    def test_length_one_clamp(self):
        plan = rs.build_grid(np.array([0.4]), 1.0)
        assert plan.dst_len == 1

    def test_positive_deltas_required(self):
        with pytest.raises(ValueError):
            rs.build_grid(np.array([0.5, 0.0]), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.sampled_from([0.1, 0.2, 0.5]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_grid_length_bounds(self, L, kappa, seed):
        cfg = make_cfg(kappa=kappa, seed=seed)
        x = np.random.default_rng(seed).normal(size=(L, 3))
        plan = rs.build_grid(rs.compression_deltas(cfg, x), cfg.delta_base)
        assert math.floor(kappa * L) <= plan.dst_len <= L


class TestKnn:
    def test_tie_breaks_toward_lower_index(self):
        # distances [0.4, 0.1, 0.4]: index 1 first, then the 0-vs-2 tie
        # resolves to 0; sorted by time gives [0, 1].
        idx = rs.knn_indices(0.6, np.array([0.2, 0.5, 1.0]), 2)
        np.testing.assert_array_equal(idx, [0, 1])

    def test_exact_hit_single_neighbor(self):
        idx = rs.knn_indices(0.5, np.array([0.2, 0.5, 1.0]), 1)
        np.testing.assert_array_equal(idx, [1])

    def test_k_equals_length_returns_all_in_order(self):
        idx = rs.knn_indices(0.9, np.array([0.1, 0.4, 0.8, 1.5]), 4)
        np.testing.assert_array_equal(idx, [0, 1, 2, 3])

    def test_k_beyond_length_repeats_last(self):
        idx = rs.knn_indices(0.3, np.array([0.2, 0.6]), 4)
        np.testing.assert_array_equal(idx, [0, 1, 1, 1])

    def test_matches_exhaustive_enumeration(self):
        r = np.random.default_rng(5)
        for _ in range(200):
            L = int(r.integers(1, 12))
            times = np.sort(r.uniform(0, 10, size=L))
            times += np.arange(L) * 1e-6  # enforce strict increase
            t = float(r.uniform(-1, 11))
            k = int(r.integers(1, 6))
            got = rs.knn_indices(t, times, k)
            ranked = sorted(range(L), key=lambda j: (abs(times[j] - t), j))
            want = np.sort(ranked[: min(k, L)])
            np.testing.assert_array_equal(got[: min(k, L)], want)

    def test_monotone_routing_windows(self):
        cfg = make_cfg(kappa=0.3, window_k=3, seed=7)
        x = np.random.default_rng(8).normal(size=(40, 3))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, cfg.window_k)
        for l in range(plan.dst_len - 1):
            assert np.all(plan.neighbors[l + 1] >= plan.neighbors[l])


def knn_oracle(plan, k):
    return np.stack([rs.knn_indices(t, plan.src_times, k) for t in plan.dst_times])


def dense_closest(plan):
    # The L x D distance matrix: argmin returns the first, i.e. lower, index on ties.
    return np.argmin(np.abs(plan.src_times[:, None] - plan.dst_times[None, :]), axis=1)


def plan_one_sequence(deltas, delta, k):
    """The routing of one sequence as it was made before groups were
    routed in one pass: its grid, then its windows.  The oracle group
    plans are held to."""
    src = np.cumsum(deltas)
    dst_len = min(max(1, math.floor(float(src[-1]) / delta + rs._GRID_EPS)), len(deltas))
    dst = np.arange(1, dst_len + 1) * delta
    n = len(src)
    if n <= k:
        return src, dst, np.minimum(np.arange(k), n - 1)[None, :].repeat(len(dst), axis=0)
    far = 2.0 * max(src[-1], dst[-1])
    padded = np.concatenate([-far * np.arange(k + 1, 0, -1), src,
                             src[-1] + far * np.arange(1, k + 1)])
    pos = np.searchsorted(src, dst)
    dist = np.abs(padded[pos[:, None] + np.arange(2 * k + 1)] - dst[:, None])
    start = pos - k + (dist[:, 1 : k + 1] > dist[:, k + 1 :]).sum(axis=1)
    chosen = start[:, None] + np.arange(k)
    tie = dist[:, 1:] == dist[:, :-1]
    if tie.any():
        tied = np.flatnonzero(tie.any(axis=1))
        order = np.argsort(np.abs(src - dst[tied, None]), axis=1, kind="stable")
        chosen[tied] = np.sort(order[:, :k], axis=1)
    return src, dst, chosen


def plan_per_sequence(parts, delta, k):
    """One plan per sequence, joined end to end: times concatenated,
    each sequence's windows and copy-back shifted by its first row."""
    plans = [plan_one_sequence(p, delta, k) for p in parts]
    src_starts = np.cumsum([0] + [len(p) for p in parts[:-1]])
    dst_starts = np.cumsum([0] + [len(dst) for _, dst, _ in plans[:-1]])
    back = []
    for (src, dst, _), c in zip(plans, dst_starts):
        hi = np.minimum(np.searchsorted(dst, src), len(dst) - 1)
        lo = np.maximum(hi - 1, 0)
        back.append(np.where(np.abs(src - dst[lo]) <= np.abs(src - dst[hi]), lo, hi) + c)
    return dict(
        src_times=np.concatenate([src for src, _, _ in plans]),
        dst_times=np.concatenate([dst for _, dst, _ in plans]),
        neighbors=np.concatenate([nb + s for (_, _, nb), s in zip(plans, src_starts)]),
        src_starts=src_starts.tolist(),
        dst_starts=dst_starts.tolist(),
        copy_back=np.concatenate(back),
    )


def _draw_deltas(r, L, delta, kappa, layout):
    if layout == "uniform":
        return delta * (kappa + (1.0 - kappa) * r.uniform(size=L))
    if layout == "equal":
        return np.full(L, kappa * delta)
    if layout == "kappa_one":  # every interval delta: every grid point a source
        return np.full(L, delta)
    # dyadic steps: many grid points and sources tie exactly
    return delta * r.choice([0.25, 0.5, 0.75, 1.0], size=L)


class TestGroupPlans:
    """One plan over sequences packed end to end against one plan per
    sequence (the oracle above), bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.one_of(st.integers(1, 60), st.sampled_from([1, 2, 3, 5, 6])),
                         min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=6),
        kappa=st.floats(min_value=0.05, max_value=1.0),
        delta=st.sampled_from([1.0, 0.5, 0.3]),
        layouts=st.lists(st.sampled_from(["uniform", "equal", "kappa_one", "lattice"]),
                         min_size=6, max_size=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(lengths=[4, 1, 9], k=5, kappa=0.5, delta=1.0,
             layouts=["uniform"] * 6, seed=1)  # segments of length <= K
    @example(lengths=[6, 7], k=2, kappa=0.5, delta=1.0,
             layouts=["equal"] * 6, seed=2)  # sources midway between grid points
    def test_bit_equal_to_one_plan_per_sequence(self, lengths, k, kappa, delta, layouts, seed):
        r = np.random.default_rng(seed)
        parts = [_draw_deltas(r, L, delta, kappa, lay) for L, lay in zip(lengths, layouts)]
        segs = ad.Segments(np.cumsum([0] + lengths[:-1]), sum(lengths))
        plan = rs.make_plan(np.concatenate(parts), delta, k, segs=segs)
        want = plan_per_sequence(parts, delta, k)
        for name in ("src_times", "dst_times", "neighbors"):
            got = getattr(plan, name)
            assert got.dtype == want[name].dtype
            assert got.tobytes() == want[name].tobytes(), name
        assert plan.dst_len == len(want["dst_times"])
        assert plan.src is segs
        assert plan.src.starts.tolist() == want["src_starts"]
        assert plan.dst.starts.tolist() == want["dst_starts"]
        copy_back = rs.closest_grid_index(plan)
        assert copy_back.dtype == np.intp
        np.testing.assert_array_equal(copy_back, want["copy_back"])

    def test_one_sequence_routes_as_first_of_a_group(self):
        # make_plan lays one sequence out on its own; packed first in a
        # group, the same sequence gets the same bits.
        r = np.random.default_rng(3)
        deltas = _draw_deltas(r, 40, 1.0, 0.3, "uniform")
        other = _draw_deltas(r, 25, 1.0, 0.3, "uniform")
        alone = rs.make_plan(deltas, 1.0, 3)
        group = rs.make_plan(np.concatenate([deltas, other]), 1.0, 3,
                             segs=ad.Segments((0, 40), 65))
        D = alone.dst_len
        assert group.dst.starts.tolist() == [0, D]
        assert alone.src_times.tobytes() == group.src_times[:40].tobytes()
        assert alone.dst_times.tobytes() == group.dst_times[:D].tobytes()
        assert alone.neighbors.tobytes() == group.neighbors[:D].tobytes()

    @pytest.mark.parametrize("args, name", [
        (([1.0, np.nan, 1.0], 1.0), "deltas"),
        (([1.0, np.inf, 1.0], 1.0), "deltas"),
        (([1.0, -np.inf], 1.0), "deltas"),
        (([1.0, 0.0], 1.0), "intervals"),
        (([], 1.0), "deltas"),
        (([1.0, 1.0], np.nan), "delta_base"),
        (([1.0, 1.0], np.inf), "delta_base"),
        (([1.0, 1.0], 0.0), "delta_base"),
        (([1.0, 1.0], -1.0), "delta_base"),
    ])
    def test_bad_input_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=name):
            rs.make_plan(np.array(args[0], dtype=np.float64), args[1], 2)

    def test_bad_starts_rejected(self):
        with pytest.raises(ad.ShapeError, match="segment starts"):
            ad.Segments((0, 5), 5)
        with pytest.raises(ad.ShapeError, match="segments of 6 rows"):
            rs.make_plan(np.ones(5), 1.0, 2, segs=ad.Segments((0, 3), 6))
        with pytest.raises(ValueError, match="window_k"):
            rs.make_plan(np.ones(5), 1.0, 0)


class TestWindowRouting:
    """The searchsorted windows of make_plan and closest_grid_index
    against brute force: knn_indices and the dense argmin."""

    def assert_matches_oracles(self, deltas, delta, k):
        plan = rs.make_plan(np.asarray(deltas, dtype=np.float64), delta, k)
        np.testing.assert_array_equal(plan.neighbors, knn_oracle(plan, k))
        assert plan.neighbors.dtype == np.intp
        np.testing.assert_array_equal(rs.closest_grid_index(plan), dense_closest(plan))
        return plan

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=7),
        st.floats(min_value=0.05, max_value=1.0),
        st.sampled_from([1.0, 0.5, 0.3]),
        st.sampled_from(["uniform", "equal", "lattice"]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_brute_force(self, L, k, kappa, delta, layout, seed):
        r = np.random.default_rng(seed)
        if layout == "uniform":
            deltas = delta * (kappa + (1.0 - kappa) * r.uniform(size=L))
        elif layout == "equal":
            deltas = np.full(L, kappa * delta)
        else:  # dyadic steps: many grid points and sources tie exactly
            deltas = delta * r.choice([0.25, 0.5, 0.75, 1.0], size=L)
        self.assert_matches_oracles(deltas, delta, k)

    def test_grid_point_equidistant_from_two_sources(self):
        # sources 0.5, 0.75, 1.25 around the grid point 1.0: 0.75 and 1.25 tie.
        plan = self.assert_matches_oracles([0.5, 0.25, 0.5], 1.0, 1)
        np.testing.assert_array_equal(plan.neighbors, [[1]])
        plan = self.assert_matches_oracles([0.5, 0.25, 0.5], 1.0, 2)
        np.testing.assert_array_equal(plan.neighbors, [[1, 2]])

    def test_source_midway_between_grid_points(self):
        plan = self.assert_matches_oracles(np.full(6, 0.5), 1.0, 2)
        # sources 1.5 and 2.5 sit midway and go to the lower grid point
        np.testing.assert_array_equal(rs.closest_grid_index(plan), [0, 0, 0, 1, 1, 2])

    def test_k_beyond_source_count(self):
        plan = self.assert_matches_oracles([0.6, 0.6], 1.0, 4)
        np.testing.assert_array_equal(plan.neighbors, [[0, 1, 1, 1]])

    def test_single_grid_point(self):
        plan = self.assert_matches_oracles(np.full(5, 0.3), 1.0, 2)
        assert plan.dst_len == 1
        np.testing.assert_array_equal(plan.neighbors, [[2, 3]])
        np.testing.assert_array_equal(rs.closest_grid_index(plan), np.zeros(5))

    def test_kappa_one_grid_equals_sources(self):
        L, k = 9, 3
        plan = self.assert_matches_oracles(np.full(L, 0.5), 0.5, k)
        np.testing.assert_array_equal(rs.closest_grid_index(plan), np.arange(L))
        # the exact hit, then the lower of the two tied neighbours, then the upper
        want = [[0, 1, 2]] + [[l - 1, l, l + 1] for l in range(1, L - 1)] + [[L - 3, L - 2, L - 1]]
        np.testing.assert_array_equal(plan.neighbors, want)

    def test_equal_source_times(self):
        # Intervals far below one ulp of the running time leave equal
        # source times, so ties reach past the window's earlier edge.
        r = np.random.default_rng(30)
        for _ in range(50):
            L = int(r.integers(2, 40))
            deltas = np.where(r.uniform(size=L) < 0.4, 1e-18, r.uniform(0.2, 1.0, size=L))
            self.assert_matches_oracles(deltas, 1.0, int(r.integers(1, 6)))

    def test_copy_back_memory_is_linear(self):
        # L = 16384 is the LRA Path-X length; an L x D distance matrix there
        # takes about 1 GB.
        L = 16384
        deltas = 0.5 + 0.5 * np.random.default_rng(31).uniform(size=L)
        plan = rs.build_grid(deltas, 1.0)
        tracemalloc.start()
        try:
            rs.closest_grid_index(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def basis_block(d, mus):
    """The Gaussian basis block compress_tracked emits for one grid point
    at signed distance d from its only neighbour.  With K = 1 and a mixing
    map that selects the G basis columns (the features are G zeros), each
    output is one basis value times 1 plus zeros, so the selection is exact.
    """
    mus_t = mus if isinstance(mus, ad.Tensor) else ad.constant(mus)
    g = mus_t.size
    plan = rs.ResamplePlan(src_times=[0.0], dst_times=[d], dst_len=1, neighbors=[[0]])
    select = np.vstack([np.zeros((g, g)), np.eye(g)])
    return rs.compress_tracked(ad.constant(np.zeros((1, g))), plan, ad.constant(select), mus_t,
                               ad.constant(plan.src_times), ad.constant(plan.dst_times))


class TestGaussExpand:
    def test_peak_at_mean(self):
        out = basis_block(0.3, [-1.0, 0.3, 2.0]).numpy()[0]
        assert out[1] == 1.0

    def test_half_height_offset(self):
        out = basis_block(math.sqrt(math.log(2.0)), [0.0]).numpy()[0]
        assert out[0] == pytest.approx(0.5, rel=1e-12)

    def test_range(self):
        r = np.random.default_rng(9)
        for _ in range(100):
            out = basis_block(float(r.normal() * 3), r.normal(size=5)).numpy()
            assert np.all(out > 0.0) and np.all(out <= 1.0)

    def test_mean_gradient_formula(self):
        # d/dmu exp(-(d-mu)^2) = 2 (d - mu) exp(-(d-mu)^2)
        d = 0.7
        mus = np.array([-0.5, 0.2, 1.3])
        tape = ad.Tape()
        m = tape.leaf(mus)
        tape.backward(ad.reduce_sum(basis_block(d, m)))
        want = 2.0 * (d - mus) * np.exp(-(d - mus) ** 2)
        np.testing.assert_allclose(tape.grad(m), want, rtol=1e-12)
        assert ad.grad_check(lambda t: ad.reduce_sum(basis_block(d, t)), mus) < 1e-4


class TestCompress:
    def test_k1_projection_copies_nearest(self):
        cfg = make_cfg(width=3, kappa=0.4, window_k=1, basis_g=2, seed=10)
        cfg.theta_gamma = rs.center_copy_gamma(3, 2)
        x = np.random.default_rng(11).normal(size=(12, 3))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, 1)
        out = rs.compress(cfg, x, plan)
        np.testing.assert_array_equal(out, x[plan.neighbors[:, 0]])

    def test_no_compression_identity(self):
        cfg = make_cfg(width=3, kappa=1.0, window_k=1, basis_g=2, seed=12, delta_base=0.5)
        cfg.theta_gamma = rs.center_copy_gamma(3, 2)
        x = np.random.default_rng(13).normal(size=(9, 3))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, 1)
        assert plan.dst_len == 9
        np.testing.assert_array_equal(rs.compress(cfg, x, plan), x)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.integers(0, 40),
        width=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_scatter_bit_equal_to_scatter_add(self, n, m, width, seed):
        # Few rows and many indices, so repeats are the rule; the last
        # row receives nothing.  The values are the first columns of a
        # wider array, as the compress backward passes them.
        r = np.random.default_rng(seed)
        idx = r.integers(0, max(n - 1, 1), size=m)
        wide = r.normal(size=(m, width + 3)) * np.exp(r.normal(size=(m, width + 3)) * 8)
        got = rs._scatter_columns(idx, wide[:, :width], n)
        want = ad.scatter_add(idx, wide[:, :width], n)
        assert got.shape == want.shape == (n, width)
        np.testing.assert_array_equal(got, want)
        if n > 1:
            assert not got[-1].any()

    def test_plan_length_mismatch(self):
        cfg = make_cfg()
        x = np.random.default_rng(14).normal(size=(8, 3))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, cfg.window_k)
        with pytest.raises(ValueError):
            rs.compress(cfg, x[:5], plan)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=80),
        st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(width=3, k=6, g=4, L=2, kappa=0.5, seed=15)  # K > L
    @example(width=1, k=1, g=1, L=1, kappa=1.0, seed=16)
    @example(width=8, k=6, g=8, L=80, kappa=1.0, seed=17)
    def test_tracked_matches_reference(self, width, k, g, L, kappa, seed):
        cfg = make_cfg(width=width, kappa=kappa, window_k=k, basis_g=g, seed=seed)
        x = np.random.default_rng(seed + 1).normal(size=(L, width))
        deltas = rs.compression_deltas(cfg, x)
        plan = rs.make_plan(deltas, cfg.delta_base, cfg.window_k)
        # Oracle: the neighbour blocks [x_k, exp(-(dst - t_k - mus)^2)]
        # built with numpy fancy indexing, then mixed.
        xg = x[plan.neighbors]  # [dst_len, K, W]
        d = plan.dst_times[:, None] - plan.src_times[plan.neighbors]  # [dst_len, K]
        diff = d[:, :, None] - cfg.mus[None, None, :]
        eps = np.exp(-diff * diff)  # [dst_len, K, G]
        want = np.concatenate([xg, eps], axis=2).reshape(plan.dst_len, -1) @ cfg.theta_gamma
        got = rs.compress_tracked(
            ad.constant(x), plan, ad.constant(cfg.theta_gamma), ad.constant(cfg.mus),
            ad.constant(plan.src_times), ad.constant(plan.dst_times),
        )
        np.testing.assert_array_equal(got.numpy(), want)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=60),
        st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(width=3, k=6, g=4, L=2, kappa=0.5, seed=41)  # K > L
    @example(width=2, k=3, g=2, L=2, kappa=0.05, seed=42)  # two intervals < 2 delta: 1-point grid
    @example(width=1, k=1, g=1, L=1, kappa=1.0, seed=43)
    @example(width=4, k=2, g=3, L=30, kappa=1.0, seed=44)
    def test_fused_matches_composed_ops(self, width, k, g, L, kappa, seed):
        cfg = make_cfg(width=width, kappa=kappa, window_k=k, basis_g=g, seed=seed)
        r = np.random.default_rng(seed + 1)
        x = r.normal(size=(L, width))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, k)
        operands = [x, cfg.theta_gamma, cfg.mus, plan.src_times, plan.dst_times]
        weight = r.normal(size=(plan.dst_len, width))
        got, got_grads = grads_through(
            lambda x_t, *rest: rs.compress_tracked(x_t, plan, *rest), operands, weight)
        want, want_grads = grads_through(
            lambda x_t, *rest: composed_compress(x_t, plan, *rest), operands, weight)
        np.testing.assert_array_equal(got, want)
        for g_got, g_want in zip(got_grads, want_grads):
            assert g_got.shape == g_want.shape
            assert_close_relative(g_got, g_want)

    def test_backward_after_reset(self):
        cfg = make_cfg(width=2, kappa=0.4, window_k=3, basis_g=3, seed=48)
        r = np.random.default_rng(49)
        x = r.normal(size=(9, 2))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, 3)
        assert_fresh_after_reset(
            lambda x_t, *rest: rs.compress_tracked(x_t, plan, *rest),
            [x, cfg.theta_gamma, cfg.mus, plan.src_times, plan.dst_times], r)

    def test_tape_size_independent_of_window(self):
        sizes = []
        for k in (1, 5):
            cfg = make_cfg(width=3, kappa=0.5, window_k=k, basis_g=4, seed=24)
            x = np.random.default_rng(25).normal(size=(12, 3))
            plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, k)
            tape = ad.Tape()
            inputs = [tape.leaf(a) for a in (x, cfg.theta_gamma, cfg.mus,
                                             plan.src_times, plan.dst_times)]
            rs.compress_tracked(inputs[0], plan, *inputs[1:])
            sizes.append(len(tape.nodes) - len(inputs))
        assert sizes == [1, 1]

    @pytest.mark.parametrize("k, L", [(1, 10), (3, 10), (5, 3)])  # (5, 3): K > L
    def test_gradients_wrt_mixing_map_and_grid_times(self, k, L):
        cfg = make_cfg(width=2, kappa=0.4, window_k=k, basis_g=3, seed=26)
        x = np.random.default_rng(27).normal(size=(L, 2))
        plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, k)
        w = ad.constant(np.random.default_rng(28).normal(size=(plan.dst_len, 2)))
        # Means within reach of every distance, so no basis column, and no
        # entry of the mixing map's gradient, is too small to difference.
        mus = ad.constant([-1.0, 0.0, 1.0])

        def loss(gamma, dst_times):
            out = rs.compress_tracked(ad.constant(x), plan, gamma, mus,
                                      ad.constant(plan.src_times), dst_times)
            return ad.reduce_sum(ad.mul(out, w))

        assert ad.grad_check(lambda t: loss(t, ad.constant(plan.dst_times)),
                             cfg.theta_gamma) < 1e-4
        assert ad.grad_check(lambda t: loss(ad.constant(cfg.theta_gamma), t),
                             plan.dst_times) < 1e-4

    def test_gradients_wrt_inputs_and_means(self):
        cfg = make_cfg(width=2, kappa=0.4, window_k=2, basis_g=3, seed=17)
        x = np.random.default_rng(18).normal(size=(10, 2))
        deltas = rs.compression_deltas(cfg, x)
        plan = rs.make_plan(deltas, cfg.delta_base, cfg.window_k)  # routing frozen
        w = np.random.default_rng(19).normal(size=(plan.dst_len, 2))

        def loss_from_x(t):
            out = rs.compress_tracked(
                t, plan, ad.constant(cfg.theta_gamma), ad.constant(cfg.mus),
                ad.constant(plan.src_times), ad.constant(plan.dst_times),
            )
            return ad.reduce_sum(ad.mul(out, ad.constant(w)))

        assert ad.grad_check(loss_from_x, x) < 1e-4

        def loss_from_mus(t):
            out = rs.compress_tracked(
                ad.constant(x), plan, ad.constant(cfg.theta_gamma), t,
                ad.constant(plan.src_times), ad.constant(plan.dst_times),
            )
            return ad.reduce_sum(ad.mul(out, ad.constant(w)))

        assert ad.grad_check(loss_from_mus, cfg.mus) < 1e-4

    def test_time_axis_gradient_flows(self):
        # Gradients through the signed distances reach the source times,
        # which is the path that trains the interval map.
        cfg = make_cfg(width=2, kappa=0.4, window_k=2, basis_g=3, seed=20)
        x = np.random.default_rng(21).normal(size=(10, 2))
        deltas = rs.compression_deltas(cfg, x)
        plan = rs.make_plan(deltas, cfg.delta_base, cfg.window_k)
        w = np.random.default_rng(22).normal(size=(plan.dst_len, 2))

        def loss_from_src_times(t):
            out = rs.compress_tracked(
                ad.constant(x), plan, ad.constant(cfg.theta_gamma), ad.constant(cfg.mus),
                t, ad.constant(plan.dst_times),
            )
            return ad.reduce_sum(ad.mul(out, ad.constant(w)))

        assert ad.grad_check(loss_from_src_times, plan.src_times) < 1e-4

    def test_not_permutation_invariant(self):
        cfg = make_cfg(width=2, kappa=0.5, window_k=1, basis_g=2, seed=23)
        a = np.array([[2.0, -1.0], [-3.0, 0.5]])
        b = a[::-1].copy()
        out_a = rs.compress(cfg, a, rs.make_plan(rs.compression_deltas(cfg, a), cfg.delta_base, 1))
        out_b = rs.compress(cfg, b, rs.make_plan(rs.compression_deltas(cfg, b), cfg.delta_base, 1))
        assert out_a.shape != out_b.shape or not np.allclose(out_a, out_b)
        assert out_a.shape != out_b.shape or not np.allclose(out_a, out_b[::-1])


class TestDecompress:
    def test_identity_when_grids_match(self):
        plan = rs.build_grid(np.full(6, 0.5), 0.5)
        y = np.random.default_rng(24).normal(size=(6, 3))
        np.testing.assert_array_equal(rs.decompress(y, plan), y)

    def test_single_row_broadcast(self):
        plan = rs.build_grid(np.array([0.3, 0.3, 0.3]), 1.0)
        assert plan.dst_len == 1
        y = np.array([[1.0, 2.0]])
        out = rs.decompress(y, plan)
        np.testing.assert_array_equal(out, np.tile(y, (3, 1)))

    def test_matches_brute_force_argmin(self):
        r = np.random.default_rng(25)
        for _ in range(50):
            cfg = make_cfg(kappa=float(r.uniform(0.15, 0.9)), seed=int(r.integers(1 << 30)))
            x = r.normal(size=(int(r.integers(2, 30)), 3))
            plan = rs.build_grid(rs.compression_deltas(cfg, x), cfg.delta_base)
            got = rs.closest_grid_index(plan)
            for l, t in enumerate(plan.src_times):
                best = min(range(plan.dst_len), key=lambda j: (abs(t - plan.dst_times[j]), j))
                assert got[l] == best

    def test_length_mismatch(self):
        plan = rs.build_grid(np.full(6, 0.5), 0.5)
        with pytest.raises(ValueError):
            rs.decompress(np.zeros((4, 2)), plan)

    def test_tracked_matches_and_scatters(self):
        plan = rs.build_grid(np.full(4, 0.25), 0.5)  # dst_len 2, two sources per grid point
        y = np.random.default_rng(26).normal(size=(plan.dst_len, 2))
        out = rs.decompress_tracked(ad.constant(y), plan)
        np.testing.assert_array_equal(out.numpy(), y[dense_closest(plan)])
        tape = ad.Tape()
        yt = tape.leaf(y)
        tape.backward(ad.reduce_sum(rs.decompress_tracked(yt, plan)))
        counts = np.bincount(rs.closest_grid_index(plan), minlength=plan.dst_len)
        np.testing.assert_array_equal(tape.grad(yt), np.tile(counts[:, None], (1, 2)).astype(float))


class TestRoundTrip:
    def test_uncompressed_center_copy_roundtrip_bit_exact(self):
        r = np.random.default_rng(27)
        for _ in range(20):
            width = int(r.integers(1, 5))
            L = int(r.integers(1, 40))
            cfg = rs.init_resample_config(width, 1.0, 1, 3, r, delta_base=0.5)
            cfg.theta_gamma = rs.center_copy_gamma(width, 3)
            x = r.normal(size=(L, width))
            plan = rs.make_plan(rs.compression_deltas(cfg, x), cfg.delta_base, 1)
            back = rs.decompress(rs.compress(cfg, x, plan), plan)
            assert np.array_equal(back, x)
