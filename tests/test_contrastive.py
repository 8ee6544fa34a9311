import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastlab.contrastive import (
    _index_plan,
    _mix,
    contrast,
    infonce_loss,
    mixed_query_loss,
    mixup_half_batch,
)
from contrastlab.errors import ConfigurationError, DivergedRunError
from contrastlab.numerics import (
    finite_difference_check,
    l2_normalize_rows,
    log_softmax,
    seeded_rng,
    soft_cross_entropy,
    softmax,
)
from oracles import (
    build_mixed_logits,
    build_mixed_targets,
    infonce_direct,
    kl_direct,
    mixed_direct,
    simclr_direct,
)


def unit_rows(rng, rows, cols):
    return l2_normalize_rows(rng.normal(size=(rows, cols)))


# `contrast` with one row block empty: each base loss, and the mixed term alone
def infonce(queries, keys, queue, tau):
    return contrast(queries, keys, queue, tau, keys[:0], np.empty(0), 1.0)


def simclr(queries, keys, tau):
    return contrast(queries, keys, None, tau, keys[:0], np.empty(0), 1.0)


def mixed_term(mixed, keys, queue, lam, tau_mix):
    return contrast(keys[:0], keys, queue, 1.0, mixed, lam, tau_mix)


class TestMixup:
    def test_lambda_one_returns_first_row(self):
        x = np.arange(8.0).reshape(4, 2)
        mixed = _mix(x, np.array([1.0, 1.0]))
        assert np.array_equal(mixed, x[:2])

    def test_lambda_zero_returns_partner_row(self):
        x = np.arange(8.0).reshape(4, 2)
        mixed = _mix(x, np.array([0.0, 0.0]))
        assert np.array_equal(mixed, x[2:])

    def test_quarter_mix_hand_value(self):
        x = np.array([[1.0, 2.0], [0.0, 0.0], [5.0, 6.0], [0.0, 0.0]])
        mixed = _mix(x, np.array([0.25, 0.5]))
        assert np.array_equal(mixed[0], [0.25 * 1 + 0.75 * 5, 0.25 * 2 + 0.75 * 6])

    def test_lambdas_in_open_interval(self):
        rng = seeded_rng(1)
        _, lambdas = mixup_half_batch(rng.normal(size=(64, 5)), rng)
        assert ((lambdas > 0.0) & (lambdas < 1.0)).all()

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mix_matches_definition_exactly(self, half, dim, seed):
        rng = seeded_rng(seed)
        x = rng.normal(size=(2 * half, dim))
        x_mix, lambdas = mixup_half_batch(x, seeded_rng(seed + 1))
        lam = lambdas[:, None]
        assert np.array_equal(x_mix, lam * x[:half] + (1.0 - lam) * x[half:])


class TestInfoNCE:
    def test_empty_queue_is_degenerate_zero(self):
        rng = seeded_rng(2)
        res = infonce_loss(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4), np.zeros((0, 4)), 0.2)
        assert res.contrast == 0.0
        assert np.array_equal(res.grad, np.zeros((3, 4)))

    def test_uniform_logits_give_log_k_plus_one(self):
        # positive and negatives all score 1: loss = log(K+1)
        e1 = np.zeros((1, 3))
        e1[0, 0] = 1.0
        for k in (1, 3, 7):
            res = infonce_loss(e1, e1, np.repeat(e1, k, axis=0), 0.2)
            assert res.contrast == pytest.approx(math.log(k + 1), rel=0, abs=1e-12)

    def test_direct_summation_small_instance(self):
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        keys = np.array([[0.6, 0.8], [1.0, 0.0]])
        queue = np.array([[0.0, -1.0], [-1.0, 0.0]])
        res = infonce(queries, keys, queue, 0.2)
        assert res.contrast == pytest.approx(
            infonce_direct(queries, keys, queue, 0.2), rel=0, abs=1e-12
        )

    def test_oracle_equivalence_random_instances(self):
        rng = seeded_rng(3)
        for _ in range(25):
            b = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            c = int(rng.integers(1, 5))
            queries, keys = unit_rows(rng, b, c), unit_rows(rng, b, c)
            queue = unit_rows(rng, k, c)
            res = infonce(queries, keys, queue, 0.2)
            assert res.contrast == pytest.approx(
                infonce_direct(queries, keys, queue, 0.2), rel=0, abs=1e-12
            )

    def test_queue_permutation_invariance(self):
        rng = seeded_rng(4)
        queries, keys = unit_rows(rng, 4, 3), unit_rows(rng, 4, 3)
        queue = unit_rows(rng, 6, 3)
        base = infonce_loss(queries, keys, queue, 0.2)
        shuffled = infonce_loss(queries, keys, queue[rng.permutation(6)], 0.2)
        assert shuffled.contrast == pytest.approx(base.contrast, rel=0, abs=1e-12)

    def test_rejects_bad_temperature(self):
        rng = seeded_rng(5)
        with pytest.raises(ConfigurationError):
            infonce_loss(unit_rows(rng, 2, 2), unit_rows(rng, 2, 2), unit_rows(rng, 2, 2), 0.0)


class TestSimclr:
    def test_identical_views_on_orthonormal_basis(self):
        tau = 0.2
        v = np.eye(2)
        res = simclr(v, v, tau)
        sigma = math.exp(1 / tau) / (math.exp(1 / tau) + 1.0)
        assert res.contrast == pytest.approx(-math.log(sigma), rel=0, abs=1e-12)

    def test_all_rows_identical_gives_log_b(self):
        row = np.zeros((1, 3))
        row[0, 0] = 1.0
        for b in (2, 4, 6):
            v = np.repeat(row, b, axis=0)
            res = simclr(v, v, 0.5)
            assert res.contrast == pytest.approx(math.log(b), rel=0, abs=1e-12)

    def test_oracle_equivalence(self):
        rng = seeded_rng(8)
        for _ in range(25):
            b = int(rng.integers(2, 9))
            c = int(rng.integers(1, 5))
            queries, keys = unit_rows(rng, b, c), unit_rows(rng, b, c)
            res = simclr(queries, keys, 0.2)
            assert res.contrast == pytest.approx(simclr_direct(queries, keys, 0.2), rel=0, abs=1e-12)

    def test_gradient_check_both_sides(self):
        rng = seeded_rng(9)
        queries, keys = unit_rows(rng, 4, 3), unit_rows(rng, 4, 3)

        def f_queries(flat):
            res = simclr(np.reshape(flat, (4, 3)), keys, 0.2)
            return res.contrast, res.grad.ravel()

        def f_keys(flat):
            res = simclr(queries, np.reshape(flat, (4, 3)), 0.2)
            return res.contrast, res.grad_keys.ravel()

        assert finite_difference_check(f_queries, queries.ravel()).max_relative_error < 1e-6
        assert finite_difference_check(f_keys, keys.ravel()).max_relative_error < 1e-6


class TestMixedLogits:
    def test_empty_queue_shape(self):
        rng = seeded_rng(10)
        logits = build_mixed_logits(unit_rows(rng, 2, 3), unit_rows(rng, 4, 3),
                                    np.zeros((0, 3)), 0.05)
        assert logits.shape == (2, 4)

    def test_orthonormal_picks_single_column(self):
        keys = np.eye(4)[:4]
        mixed = keys[2:3].copy()
        logits = build_mixed_logits(mixed, keys, np.zeros((0, 4)), 1.0)
        expected = np.zeros((1, 4))
        expected[0, 2] = 1.0
        assert np.allclose(logits, expected, rtol=0, atol=1e-15)

    def test_matches_per_entry_dot_products(self):
        rng = seeded_rng(11)
        mixed = unit_rows(rng, 2, 5)
        keys = unit_rows(rng, 4, 5)
        queue = unit_rows(rng, 2, 5)
        logits = build_mixed_logits(mixed, keys, queue, 0.05)
        stacked = np.concatenate([keys, queue])
        for i in range(2):
            for j in range(6):
                expected = sum(mixed[i, d] * stacked[j, d] for d in range(5)) / 0.05
                assert logits[i, j] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ConfigurationError):
            build_mixed_logits(np.ones((1, 2)), np.ones((2, 2)), np.zeros((0, 2)), -1.0)


class TestMixedTargets:
    def test_layout_weights_both_sources_and_zeroes_queue(self):
        targets = build_mixed_targets([0.3, 0.7], 4, 2)
        assert np.array_equal(targets[0], [0.3, 0.0, 1.0 - 0.3, 0.0, 0.0, 0.0])
        assert np.array_equal(targets[1], [0.0, 0.7, 0.0, 1.0 - 0.7, 0.0, 0.0])
        assert np.allclose(targets, [[0.3, 0, 0.7, 0, 0, 0], [0, 0.7, 0, 0.3, 0, 0]],
                           rtol=0, atol=1e-15)

    def test_no_queue_columns_when_empty(self):
        assert build_mixed_targets([0.5], 2, 0).shape == (1, 2)

    def test_rejects_endpoint_lambdas(self):
        with pytest.raises(ConfigurationError):
            build_mixed_targets([0.0, 0.5], 4, 0)
        with pytest.raises(ConfigurationError):
            build_mixed_targets([0.5, 1.0], 4, 0)

    @given(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8),
           st.integers(0, 16))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_exactly_one_with_two_nonzeros(self, lambdas, queue_size):
        targets = build_mixed_targets(lambdas, 2 * len(lambdas), queue_size)
        assert (targets.sum(axis=1) == 1.0).all()
        assert ((targets != 0.0).sum(axis=1) == 2).all()


class TestMixedQueryLoss:
    def test_near_one_lambda_reduces_to_contrastive_row(self):
        # as lambda -> 1 the loss approaches plain cross-entropy of each mixed
        # row against its first source key, with the full (B+K)-way denominator
        rng = seeded_rng(12)
        b, k, c = 4, 2, 3
        keys = unit_rows(rng, b, c)
        queue = unit_rows(rng, k, c)
        mixed = keys[: b // 2].copy()
        lam = np.full(b // 2, 1.0 - 1e-12)
        res = mixed_query_loss(mixed, keys, queue, lam, 0.2)
        stacked = np.concatenate([keys, queue])
        expected = 0.0
        for i in range(b // 2):
            logits = stacked @ mixed[i] / 0.2
            expected += -(logits[i] - math.log(np.exp(logits).sum()))
        assert res.mixed == pytest.approx(expected / (b // 2), rel=1e-9)

    def test_uniform_logits_give_log_b_plus_k_for_any_lambda(self):
        e1 = np.zeros((1, 3))
        e1[0, 0] = 1.0
        keys = np.repeat(e1, 4, axis=0)
        queue = np.repeat(e1, 4, axis=0)
        mixed = np.repeat(e1, 2, axis=0)
        for lam in ([0.5, 0.5], [0.123, 0.9], [0.999, 0.001]):
            res = mixed_query_loss(mixed, keys, queue, lam, 0.05)
            assert res.mixed == pytest.approx(math.log(8.0), rel=0, abs=1e-12)

    def test_direct_two_term_oracle(self):
        rng = seeded_rng(13)
        keys = unit_rows(rng, 4, 3)
        queue = unit_rows(rng, 2, 3)
        mixed = unit_rows(rng, 2, 3)
        lam = rng.uniform(0.1, 0.9, 2)
        res = mixed_term(mixed, keys, queue, lam, 0.05)
        assert res.mixed == pytest.approx(
            mixed_direct(mixed, keys, queue, lam, 0.05), rel=0, abs=1e-12
        )

    def test_oracle_equivalence_random_instances(self):
        rng = seeded_rng(14)
        for _ in range(25):
            b = 2 * int(rng.integers(1, 5))
            k = int(rng.integers(0, 9))
            c = int(rng.integers(1, 5))
            keys = unit_rows(rng, b, c)
            queue = unit_rows(rng, k, c) if k else np.zeros((0, c))
            mixed = unit_rows(rng, b // 2, c)
            lam = rng.uniform(0.05, 0.95, b // 2)
            res = mixed_term(mixed, keys, queue, lam, 0.05)
            assert res.mixed == pytest.approx(
                mixed_direct(mixed, keys, queue, lam, 0.05), rel=0, abs=1e-12
            )

    def test_gradient_check(self):
        rng = seeded_rng(15)
        keys = unit_rows(rng, 4, 3)
        queue = unit_rows(rng, 2, 3)
        mixed = unit_rows(rng, 2, 3)
        lam = rng.uniform(0.1, 0.9, 2)

        def f(flat):
            res = mixed_query_loss(np.reshape(flat, (2, 3)), keys, queue, lam, 0.05)
            return res.mixed, res.grad.ravel()

        assert finite_difference_check(f, mixed.ravel()).max_relative_error < 1e-6

    def test_kl_form_differs_by_mean_target_entropy_with_equal_grads(self):
        # the loss is the soft cross-entropy; the scalar-loop KL reference on
        # the same logits sits below it by the mean target entropy and, pulled
        # back through the negatives, gives the same gradient
        rng = seeded_rng(16)
        keys = unit_rows(rng, 6, 4)
        queue = unit_rows(rng, 6, 4)
        mixed = unit_rows(rng, 3, 4)
        lam = rng.uniform(0.05, 0.95, 3)
        ce = mixed_term(mixed, keys, queue, lam, 0.05)
        logits = build_mixed_logits(mixed, keys, queue, 0.05)
        kl, kl_grad_logits = kl_direct(logits, build_mixed_targets(lam, 6, 6))
        kl_grad = np.array(kl_grad_logits) @ np.concatenate([keys, queue]) / 0.05
        entropy = -np.mean(lam * np.log(lam) + (1 - lam) * np.log(1 - lam))
        assert ce.mixed - kl == pytest.approx(entropy, rel=0, abs=1e-10)
        assert np.abs(ce.grad - kl_grad).max() <= 1e-12

    def test_queue_permutation_invariance(self):
        rng = seeded_rng(17)
        keys = unit_rows(rng, 4, 3)
        queue = unit_rows(rng, 6, 3)
        mixed = unit_rows(rng, 2, 3)
        lam = rng.uniform(0.1, 0.9, 2)
        base = mixed_query_loss(mixed, keys, queue, lam, 0.05)
        shuffled = mixed_query_loss(mixed, keys, queue[rng.permutation(6)], lam, 0.05)
        assert shuffled.mixed == pytest.approx(base.mixed, rel=0, abs=1e-12)


def dense_infonce(queries, keys, queue, tau):
    logits = np.concatenate([(queries * keys).sum(axis=1, keepdims=True), queries @ queue.T],
                            axis=1) / tau
    g = softmax(logits)
    g[:, 0] -= 1.0
    g /= queries.shape[0] * tau
    return -log_softmax(logits)[:, 0].mean(), g[:, :1] * keys + g[:, 1:] @ queue


def dense_simclr(queries, keys, tau):
    b = queries.shape[0]
    logits = (queries @ keys.T) / tau
    g = softmax(logits)
    g[np.arange(b), np.arange(b)] -= 1.0
    g /= b * tau
    return -np.diagonal(log_softmax(logits)).mean(), g @ keys, g.T @ queries


def dense_mixed(mixed, keys, queue, lam, tau):
    value, grad_logits = soft_cross_entropy(
        build_mixed_logits(mixed, keys, queue, tau),
        build_mixed_targets(lam, keys.shape[0], queue.shape[0]),
    )
    return value, grad_logits @ np.concatenate([keys, queue]) / tau


def assert_close(fused, dense):
    assert len(fused) == len(dense)
    for a, b in zip(fused, dense):
        assert np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-12


class TestDenseReferences:
    """The fused sparse-target kernel against the dense softmax formulas."""

    @pytest.mark.parametrize("k", [0, 8, 4096])
    def test_infonce(self, k):
        rng = seeded_rng(19 + k)
        for _ in range(5):
            b, c = 8, int(rng.integers(1, 9))
            queries, keys = unit_rows(rng, b, c), unit_rows(rng, b, c)
            queue = unit_rows(rng, k, c) if k else np.zeros((0, c))
            res = infonce(queries, keys, queue, 0.2)
            assert_close((res.contrast, res.grad), dense_infonce(queries, keys, queue, 0.2))

    def test_simclr(self):
        rng = seeded_rng(20)
        for _ in range(10):
            b, c = int(rng.integers(2, 65)), int(rng.integers(1, 9))
            queries, keys = unit_rows(rng, b, c), unit_rows(rng, b, c)
            res = simclr(queries, keys, 0.2)
            assert_close((res.contrast, res.grad, res.grad_keys),
                         dense_simclr(queries, keys, 0.2))

    @pytest.mark.parametrize("k", [0, 8, 4096])
    @pytest.mark.parametrize("lam_range", [(1e-9, 1e-6), (0.05, 0.95), (1 - 1e-6, 1 - 1e-9)],
                             ids=["near-0", "mid", "near-1"])
    def test_mixed(self, k, lam_range):
        rng = seeded_rng(21 + k)
        for _ in range(5):
            b, c = 8, int(rng.integers(1, 9))
            keys, mixed = unit_rows(rng, b, c), unit_rows(rng, b // 2, c)
            queue = unit_rows(rng, k, c) if k else np.zeros((0, c))
            lam = rng.uniform(*lam_range, b // 2)
            res = mixed_term(mixed, keys, queue, lam, 0.05)
            assert_close((res.mixed, res.grad), dense_mixed(mixed, keys, queue, lam, 0.05))


class TestNonFiniteInputs:
    LOSSES = {
        "InfoNCE": ("InfoNCE", lambda ops: infonce_loss(
            ops["queries"], ops["keys"], ops["queue"], 0.2)),
        "mixed-query": ("mixed-query", lambda ops: mixed_query_loss(
            ops["queries"][:2], ops["keys"], ops["queue"], [0.3, 0.6], 0.05)),
        "SimCLR": ("SimCLR", lambda ops: simclr(ops["queries"], ops["keys"], 0.2)),
        # the simclr+mix term, which only the training step computes
        "mixed-in-batch": ("mixed-query", lambda ops: mixed_term(
            ops["queries"][:2], ops["keys"], None, np.array([0.3, 0.6]), 0.05)),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("loss, operand", [
        ("InfoNCE", "queries"), ("InfoNCE", "keys"), ("InfoNCE", "queue"),
        ("mixed-query", "queries"), ("mixed-query", "keys"), ("mixed-query", "queue"),
        ("SimCLR", "queries"), ("SimCLR", "keys"),
        ("mixed-in-batch", "queries"), ("mixed-in-batch", "keys"),
    ])
    def test_any_entry_raises_diverged_run_error_naming_the_loss(self, loss, operand, bad):
        rng = seeded_rng(22)
        clean = {"queries": unit_rows(rng, 4, 3), "keys": unit_rows(rng, 4, 3),
                 "queue": unit_rows(rng, 6, 3)}
        term, call = self.LOSSES[loss]
        rows = 2 if loss.startswith("mixed") and operand == "queries" else clean[operand].shape[0]
        for idx in np.ndindex(rows, 3):
            ops = {name: m.copy() for name, m in clean.items()}
            ops[operand][idx] = bad
            with np.errstate(all="ignore"), pytest.raises(DivergedRunError,
                                                          match=f"non-finite {term} loss"):
                call(ops)


MODES = ("moco", "moco+mix", "simclr", "simclr+mix")


class TestContrastKernel:
    """`contrast`, the one loss function behind both checked losses and the
    training step: rows [queries; mixed], columns [batch keys; queue]."""

    @staticmethod
    def instance(seed, b, k, c):
        rng = seeded_rng(seed)
        queries, keys = unit_rows(rng, b, c), unit_rows(rng, b, c)
        queue = unit_rows(rng, k, c) if k else np.zeros((0, c))
        return queries, keys, queue, 0.2, unit_rows(rng, b // 2, c), rng.uniform(
            0.05, 0.95, b // 2), 0.05

    @pytest.mark.parametrize("mode, k", [
        *[(mode, k) for mode in MODES[:2] for k in (0, 8, 4096)],
        ("simclr", None), ("simclr+mix", None)])
    def test_each_term_alone_is_its_block_of_the_stacked_rows(self, mode, k):
        queries, keys, queue, tau, mixed, lam, tau_mix = self.instance(31, 8, k or 0, 4)
        if not mode.endswith("+mix"):
            mixed, lam = mixed[:0], lam[:0]
        if k is None:
            queue = None
        both = contrast(queries, keys, queue, tau, mixed, lam, tau_mix)
        parts = [contrast(queries, keys, queue, tau, mixed[:0], lam[:0], tau_mix)]
        if lam.size:
            parts.append(contrast(queries[:0], keys, queue, tau, mixed, lam, tau_mix))
        assert (both.contrast, both.mixed) == (parts[0].contrast, parts[-1].mixed)
        assert np.array_equal(both.grad, np.concatenate([p.grad for p in parts]))
        if queue is None:
            key_grad = sum(p.grad_keys for p in parts)
            assert np.abs(both.grad_keys - key_grad).max() <= 1e-12
        else:
            assert both.grad_keys is None

    @pytest.mark.parametrize("k", [8, None], ids=["queue", "in-batch"])
    def test_other_batch_keys_count_only_without_a_queue(self, k):
        # query row 0 targets key 0; keys 1..B-1 are its other batch keys
        queries, keys, queue, tau, mixed, _, tau_mix = self.instance(33, 8, k or 0, 4)
        queue = None if k is None else queue
        replaced = keys.copy()
        replaced[1:] = unit_rows(seeded_rng(34), 7, 4)
        base, moved = (contrast(queries[:1], ks, queue, tau, mixed[:0], np.empty(0), tau_mix)
                       for ks in (keys, replaced))
        if queue is not None:
            assert base.contrast == moved.contrast
            assert np.array_equal(base.grad, moved.grad)
        else:
            assert base.contrast != moved.contrast
            assert not np.array_equal(base.grad, moved.grad)

    @pytest.mark.parametrize("k", [8, None], ids=["queue", "in-batch"])
    @pytest.mark.parametrize("row", [2, 9], ids=["query-row", "mixed-row"])
    def test_non_finite_rows_raise_under_the_callers_error_state(self, row, k):
        queries, keys, queue, tau, mixed, lam, tau_mix = self.instance(32, 8, k or 0, 4)
        queue = None if k is None else queue
        if row < 8:
            queries[row] = math.inf
        else:
            mixed[row - 8] = math.inf
        term = "mixed-query" if row >= 8 else "InfoNCE" if k else "SimCLR"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    DivergedRunError, match=f"^non-finite {term} loss$"):
                contrast(queries, keys, queue, tau, mixed, lam, tau_mix)

    def test_index_plan_is_cached_and_read_only(self):
        plan = _index_plan(4, 2)
        assert _index_plan(4, 2) is plan
        rows, own, first, second = plan
        assert rows.tolist() == [0, 1, 2, 3, 4, 5] and own.tolist() == [0, 1, 2, 3]
        assert first.tolist() == [0, 1, 2, 3, 0, 1]
        assert second.tolist() == [0, 1, 2, 3, 2, 3]
        for index in plan:
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 7

    def test_repeated_calls_give_identical_bits(self):
        # a call must leave nothing behind in the cached plan
        operands = self.instance(35, 8, 8, 4)
        first, second = contrast(*operands), contrast(*operands)
        assert (first.contrast, first.mixed) == (second.contrast, second.mixed)
        assert first.grad.tobytes() == second.grad.tobytes()

