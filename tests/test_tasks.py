"""Tests for the sparse-signal dataset generator."""

import numpy as np
import pytest

from ressm import tasks


class TestGeneration:
    def test_same_seed_identical_datasets(self):
        t = tasks.SparseSignalTask(seq_len=64, n_train=10, n_val=5, seed=7)
        tr1, va1 = tasks.gen_sparse_task(t)
        tr2, va2 = tasks.gen_sparse_task(t)
        for a, b in zip(tr1 + va1, tr2 + va2):
            np.testing.assert_array_equal(a.tokens, b.tokens)
            assert a.label == b.label

    def test_different_seed_differs(self):
        t1 = tasks.SparseSignalTask(seq_len=64, n_train=10, n_val=5, seed=1)
        t2 = tasks.SparseSignalTask(seq_len=64, n_train=10, n_val=5, seed=2)
        a = tasks.gen_sparse_task(t1)[0]
        b = tasks.gen_sparse_task(t2)[0]
        assert any(not np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))

    def test_informative_positions_carry_the_label(self):
        t = tasks.SparseSignalTask(seq_len=128, n_informative=6, n_train=20, n_val=1, seed=3)
        train, _ = tasks.gen_sparse_task(t)
        for ex in train:
            assert np.all(ex.tokens[ex.informative] == ex.label)
            rest = np.setdiff1d(np.arange(t.seq_len), ex.informative)
            assert np.all(ex.tokens[rest] >= t.n_classes)

    def test_fully_informative_degenerate(self):
        t = tasks.SparseSignalTask(seq_len=16, n_informative=16, n_train=5, n_val=1, seed=4)
        train, _ = tasks.gen_sparse_task(t)
        for ex in train:
            assert np.all(ex.tokens == ex.label)

    @pytest.mark.parametrize("field, value", [
        ("n_val", 4.0), ("seq_len", 16.0), ("n_informative", 2.5), ("seed", 1.5),
        ("seed", True), ("noise_vocab", 8.0), ("n_classes", np.int64(4)),
    ])
    def test_non_integer_size_rejected_by_name(self, field, value):
        # JSON reads 4.0 and true as well as 4; a bool is not a count and
        # true must not read as seed 1.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            tasks.SparseSignalTask(**{field: value})

    def test_too_many_informative_rejected(self):
        with pytest.raises(ValueError):
            tasks.SparseSignalTask(seq_len=8, n_informative=9)

    def test_oracle_is_perfect(self):
        t = tasks.SparseSignalTask(seq_len=256, n_informative=4, n_train=50, n_val=20, seed=5)
        train, val = tasks.gen_sparse_task(t)
        assert tasks.oracle_accuracy(train, t) == 1.0
        assert tasks.oracle_accuracy(val, t) == 1.0

    def test_vocab_layout(self):
        t = tasks.SparseSignalTask(n_classes=4, noise_vocab=8)
        assert t.vocab_size == 12
