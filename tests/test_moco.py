import numpy as np
import pytest

from contrastlab.encoder import encode
from contrastlab.errors import ConfigurationError, FormatError
from contrastlab.moco import (
    enqueue_dequeue,
    init_moco,
    key_forward_no_grad,
    load_moco,
    momentum_update,
    save_moco,
)
from contrastlab.numerics import l2_normalize_rows, seeded_rng


def all_params(encoder_params):
    return encoder_params.weights + encoder_params.biases


class TestInit:
    def test_key_params_bit_identical_to_query(self):
        state = init_moco([4, 6, 3], 8, 0.99, seeded_rng(0))
        for q, k in zip(all_params(state.query), all_params(state.key)):
            assert np.array_equal(q, k)
        assert not np.shares_memory(state.query.vector, state.key.vector)

    def test_queue_rows_unit_norm(self):
        state = init_moco([4, 6, 3], 16, 0.99, seeded_rng(1))
        assert np.abs(np.linalg.norm(state.queue, axis=1) - 1.0).max() < 1e-12
        assert state.queue_ptr == 0

    def test_deterministic(self):
        a = init_moco([4, 6, 3], 8, 0.99, seeded_rng(2))
        b = init_moco([4, 6, 3], 8, 0.99, seeded_rng(2))
        assert np.array_equal(a.queue, b.queue)
        for qa, qb in zip(all_params(a.query), all_params(b.query)):
            assert np.array_equal(qa, qb)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            init_moco([4, 6, 3], -1, 0.99, seeded_rng(0))
        with pytest.raises(ConfigurationError):
            init_moco([4, 6, 3], 8, 1.5, seeded_rng(0))


class TestMomentumUpdate:
    def _perturbed_state(self, m, seed=3):
        state = init_moco([3, 4, 2], 4, m, seeded_rng(seed))
        rng = seeded_rng(seed + 100)
        for q in all_params(state.query):
            q += 0.1 * rng.normal(size=q.shape)
        return state

    def test_frozen_at_m_one(self):
        state = self._perturbed_state(1.0)
        before = [k.copy() for k in all_params(state.key)]
        momentum_update(state)
        for old, new in zip(before, all_params(state.key)):
            assert np.array_equal(old, new)

    def test_copy_at_m_zero(self):
        state = self._perturbed_state(0.0)
        momentum_update(state)
        for q, k in zip(all_params(state.query), all_params(state.key)):
            assert np.array_equal(q, k)

    def test_scalar_arithmetic(self):
        state = init_moco([1, 1], 2, 0.999, seeded_rng(4))
        state.key.weights[0][...] = 0.0
        state.query.weights[0][...] = 1.0
        momentum_update(state)
        assert state.key.weights[0][0, 0] == pytest.approx(0.001, rel=1e-12)

    def test_query_untouched(self):
        state = self._perturbed_state(0.9)
        before = [q.copy() for q in all_params(state.query)]
        momentum_update(state)
        for old, new in zip(before, all_params(state.query)):
            assert np.array_equal(old, new)

    @pytest.mark.parametrize("m", [0.0, 0.1, 0.5, 0.9, 0.999, 1.0])
    def test_ema_convexity(self, m):
        state = self._perturbed_state(m, seed=int(m * 1000) + 5)
        before = [k.copy() for k in all_params(state.key)]
        momentum_update(state)
        for old, new, q in zip(before, all_params(state.key), all_params(state.query)):
            lo = np.minimum(old, q)
            hi = np.maximum(old, q)
            assert ((new >= lo) & (new <= hi)).all()

    def test_exact_when_key_equals_query(self):
        state = init_moco([3, 4, 2], 4, 0.999, seeded_rng(6))
        before = [k.copy() for k in all_params(state.key)]
        momentum_update(state)
        for old, new in zip(before, all_params(state.key)):
            assert np.array_equal(old, new)


class TestQueue:
    def test_wraparound(self):
        state = init_moco([3, 4, 2], 4, 0.9, seeded_rng(7))
        first = l2_normalize_rows(seeded_rng(8).normal(size=(2, 2)))
        second = l2_normalize_rows(seeded_rng(9).normal(size=(2, 2)))
        enqueue_dequeue(state, first)
        assert state.queue_ptr == 2
        enqueue_dequeue(state, second)
        assert state.queue_ptr == 0
        assert np.array_equal(state.queue[:2], first)
        assert np.array_equal(state.queue[2:], second)

    def test_full_replacement_after_k_over_b_enqueues(self):
        state = init_moco([3, 4, 2], 8, 0.9, seeded_rng(10))
        initial = state.queue.copy()
        rng = seeded_rng(11)
        for _ in range(4):
            enqueue_dequeue(state, l2_normalize_rows(rng.normal(size=(2, 2))))
        assert not np.isclose(state.queue, initial).any(axis=1).any()

    def test_write_read_identity(self):
        state = init_moco([3, 4, 2], 8, 0.9, seeded_rng(12))
        keys = l2_normalize_rows(seeded_rng(13).normal(size=(4, 2)))
        ptr_before = state.queue_ptr
        enqueue_dequeue(state, keys)
        assert np.array_equal(state.queue[ptr_before : ptr_before + 4], keys)

    def test_fifo_tagged_probe_order(self):
        # identifiable rows recover exact insertion order across 3 full wraps
        k, b, c = 8, 2, 4
        state = init_moco([3, 4, c], k, 0.9, seeded_rng(14))
        history = []
        for tag in range(3 * (k // b)):
            rows = np.zeros((b, c))
            rows[:, 0] = 1.0
            rows[:, 1] = tag / 100.0  # tag smuggled in a non-normalized coord for test
            history.append(rows)
            enqueue_dequeue(state, rows)
        # queue must now hold the last k//b batches, oldest first from ptr
        expected = np.concatenate(history[-(k // b):])
        rolled = np.roll(state.queue, -state.queue_ptr, axis=0)
        # ptr points at the oldest surviving batch
        assert np.array_equal(rolled, expected)

    def test_rejects_oversized_batch(self):
        state = init_moco([3, 4, 2], 4, 0.9, seeded_rng(15))
        with pytest.raises(ConfigurationError):
            enqueue_dequeue(state, np.ones((8, 2)))

    def test_rejects_non_divisor_batch(self):
        state = init_moco([3, 4, 2], 8, 0.9, seeded_rng(16))
        with pytest.raises(ConfigurationError):
            enqueue_dequeue(state, l2_normalize_rows(np.ones((6, 2))))


class TestKeyForward:
    def test_matches_encode_with_key_params(self):
        state = init_moco([4, 5, 3], 4, 0.9, seeded_rng(17))
        x = seeded_rng(18).normal(size=(6, 4))
        keys = key_forward_no_grad(state, x)
        expected, _ = encode(state.key, x)
        assert np.array_equal(keys, expected)

    def test_unit_norm_rows(self):
        state = init_moco([4, 5, 3], 4, 0.9, seeded_rng(19))
        keys = key_forward_no_grad(state, seeded_rng(20).normal(size=(5, 4)))
        assert np.abs(np.linalg.norm(keys, axis=1) - 1.0).max() < 1e-12

    def test_copy_endpoint_equals_query_forward(self):
        state = init_moco([4, 5, 3], 4, 0.0, seeded_rng(21))
        rng = seeded_rng(22)
        for q in all_params(state.query):
            q += 0.05 * rng.normal(size=q.shape)
        momentum_update(state)  # m=0 copies query into key
        x = rng.normal(size=(3, 4))
        assert np.array_equal(key_forward_no_grad(state, x), encode(state.query, x)[0])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        state = init_moco([4, 6, 3], 8, 0.999, seeded_rng(23))
        rng = seeded_rng(24)
        for q in all_params(state.query):
            q += rng.normal(size=q.shape) / 3.0
        momentum_update(state)
        enqueue_dequeue(state, l2_normalize_rows(rng.normal(size=(4, 3))))
        path = tmp_path / "moco.txt"
        save_moco(state, path, seed=5)
        loaded, seed = load_moco(path)
        assert seed == 5
        assert loaded.queue_ptr == state.queue_ptr
        assert loaded.ema_momentum == state.ema_momentum
        assert np.array_equal(loaded.queue, state.queue)
        for a, b in zip(all_params(state.query), all_params(loaded.query)):
            assert np.array_equal(a, b)
        for a, b in zip(all_params(state.key), all_params(loaded.key)):
            assert np.array_equal(a, b)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("contrastlab-encoder 1\nseed 0\n")
        with pytest.raises(FormatError):
            load_moco(path)
