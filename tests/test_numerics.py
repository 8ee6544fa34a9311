import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastlab.errors import ConfigurationError, DivergedRunError
from contrastlab.numerics import (
    DEFAULT_NORM_EPS,
    finite_difference_check,
    guarded_row_norms,
    l2_normalize_rows,
    l2_normalize_rows_vjp,
    log_softmax,
    seeded_rng,
    soft_cross_entropy,
    softmax,
)
from oracles import central_difference, entropy_direct, kl_direct, soft_cross_entropy_direct


class TestLogSoftmax:
    def test_uniform_row(self):
        out = log_softmax([[0.0, 0.0, 0.0, 0.0]])
        assert np.allclose(out, -math.log(4.0), rtol=0, atol=1e-15)

    def test_shift_invariance_two_entries(self):
        for t in (-1000.0, -1.0, 0.0, 3.5, 1000.0):
            out = log_softmax([[t, t]])
            assert np.allclose(out, -math.log(2.0), rtol=0, atol=1e-12)

    def test_matches_direct_summation(self):
        logits = [[1.0, 2.0, 3.0]]
        denom = sum(math.exp(z) for z in logits[0])
        expected = [math.log(math.exp(z) / denom) for z in logits[0]]
        assert np.allclose(log_softmax(logits), expected, rtol=0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            log_softmax([[0.0, math.nan]])
        with pytest.raises(ConfigurationError, match="^softmax input must be finite"):
            softmax([[0.0, math.inf]])

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        st.floats(-100, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_exponentiate_to_one_and_shift_invariant(self, row, shift):
        base = np.array([row])
        assert abs(np.exp(log_softmax(base)).sum() - 1.0) < 1e-12
        assert np.abs(log_softmax(base + shift) - log_softmax(base)).max() < 1e-12

    def test_softmax_rows_sum_to_one(self):
        rng = seeded_rng(11)
        rows = softmax(rng.normal(size=(40, 7)) * 10)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-12


class TestSoftCrossEntropy:
    def test_one_hot_equals_hard_cross_entropy(self):
        rng = seeded_rng(5)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, 6)
        targets = np.zeros((6, 4))
        targets[np.arange(6), labels] = 1.0
        value, _ = soft_cross_entropy(logits, targets)
        hard = -log_softmax(logits)[np.arange(6), labels].mean()
        assert value == pytest.approx(hard, rel=0, abs=1e-15)

    def test_uniform_logits_give_log_c(self):
        rng = seeded_rng(6)
        targets = rng.dirichlet(np.ones(5), size=3)
        value, _ = soft_cross_entropy(np.zeros((3, 5)), targets)
        assert value == pytest.approx(math.log(5.0), rel=0, abs=1e-12)

    def test_direct_summation_instance(self):
        logits = [[1.0, 0.0, -1.0]]
        targets = [[0.3, 0.7, 0.0]]
        value, _ = soft_cross_entropy(logits, targets)
        assert value == pytest.approx(soft_cross_entropy_direct(logits, targets), rel=0, abs=1e-14)

    def test_gradient_matches_central_differences(self):
        rng = seeded_rng(7)
        targets = rng.dirichlet(np.ones(6), size=4)

        def f(flat):
            v, g = soft_cross_entropy(np.reshape(flat, (4, 6)), targets)
            return v, np.ravel(g)

        report = finite_difference_check(f, rng.normal(size=24), step=1e-5)
        assert report.max_relative_error < 1e-6

    def test_rejects_bad_target_rows(self):
        with pytest.raises(ConfigurationError):
            soft_cross_entropy(np.zeros((1, 3)), [[0.5, 0.2, 0.2]])
        with pytest.raises(ConfigurationError):
            soft_cross_entropy(np.zeros((1, 3)), [[1.2, -0.2, 0.0]])
        with pytest.raises(ConfigurationError,
                           match=re.escape("logits (1, 3) and targets (1, 2) must match")):
            soft_cross_entropy(np.zeros((1, 3)), [[0.5, 0.5]])


class TestKLDivergence:
    """Soft cross-entropy against the scalar-loop KL reference: they differ by
    the target entropy, which is constant in the logits, so the gradients agree."""

    def test_zero_when_targets_match_softmax(self):
        rng = seeded_rng(8)
        logits = rng.normal(size=(3, 5))
        value, _ = kl_direct(logits, softmax(logits))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_on_uniform_logits(self):
        targets = np.zeros((1, 4))
        targets[0, 0] = 1.0
        value, _ = kl_direct(np.zeros((1, 4)), targets)
        assert value == pytest.approx(math.log(4.0), rel=0, abs=1e-12)

    def test_differs_from_cross_entropy_by_target_entropy(self):
        logits = [[1.0, 0.0, -1.0]]
        targets = [[0.3, 0.7, 0.0]]
        ce, ce_grad = soft_cross_entropy(logits, targets)
        kl, kl_grad = kl_direct(logits, targets)
        assert kl == pytest.approx(ce - entropy_direct(targets[0]), rel=0, abs=1e-14)
        assert np.abs(ce_grad - np.array(kl_grad)).max() <= 1e-15

    def test_identity_on_random_instances(self):
        rng = seeded_rng(9)
        for _ in range(20):
            logits = rng.normal(size=(5, 4)) * 3
            targets = rng.dirichlet(np.ones(4), size=5)
            ce, ce_grad = soft_cross_entropy(logits, targets)
            kl, kl_grad = kl_direct(logits, targets)
            entropy = sum(entropy_direct(row) for row in targets) / 5
            assert kl - ce == pytest.approx(-entropy, rel=0, abs=1e-10)
            assert np.abs(np.array(kl_grad) - ce_grad).max() <= 1e-12


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        def f(x):
            return float((x**2).sum()), 2.0 * x

        report = finite_difference_check(f, np.array([1.0, 2.0]), step=1e-5)
        assert report.max_relative_error < 1e-8

    def test_flags_wrong_gradient(self):
        def f(x):
            return float((x**2).sum()), 3.0 * x  # deliberately wrong

        report = finite_difference_check(f, np.array([1.0, 2.0]), step=1e-5)
        assert report.max_relative_error > 0.1

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            finite_difference_check(lambda x: (0.0, x), np.ones(2), step=0.0)

    def test_rejects_gradient_of_another_shape(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "analytic gradient shape (3,) does not match point (2,)")):
            finite_difference_check(lambda x: (0.0, np.ones(3)), np.ones(2))

    def test_rejects_non_finite_probe(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return float(np.log(x[0])), 1.0 / x

        with pytest.raises(DivergedRunError):
            finite_difference_check(f, np.array([1e-7]), step=1e-5)

    @pytest.mark.parametrize("bad, first", [([2], "(2,)"), ([0, 1, 2, 3], "(0,)")],
                             ids=["one-nan", "all-nan"])
    def test_rejects_non_finite_analytic_gradient(self, bad, first):
        # a NaN's relative error is NaN, which compares False against any gate
        def f(x):
            grad = 2.0 * x
            grad[bad] = math.nan
            return float((x**2).sum()), grad

        with pytest.raises(DivergedRunError, match=re.escape(f"gradient at {first}")):
            finite_difference_check(f, np.arange(1.0, 5.0), step=1e-5)


class TestL2NormalizeRows:
    def test_hand_example(self):
        assert np.allclose(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        assert np.array_equal(l2_normalize_rows(row), row)

    def test_zero_row_guarded(self):
        out = l2_normalize_rows(np.zeros((1, 4)))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_output_unit_norm(self):
        rng = seeded_rng(10)
        v = l2_normalize_rows(rng.normal(size=(30, 6)) * 100)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12

    def test_vjp_matches_central_differences(self):
        rng = seeded_rng(12)
        x = rng.normal(size=(3, 4))
        downstream = rng.normal(size=(3, 4))

        def f(flat):
            point = np.reshape(flat, (3, 4))
            value = float((l2_normalize_rows(point) * downstream).sum())
            return value, np.ravel(l2_normalize_rows_vjp(point, downstream))

        report = finite_difference_check(f, x.ravel(), step=1e-6)
        assert report.max_relative_error < 1e-6

    def test_vjp_rejects_a_gradient_of_another_shape(self):
        with pytest.raises(ConfigurationError,
                           match=re.escape("grad (2, 3) does not match point (3, 2)")):
            l2_normalize_rows_vjp(np.ones((3, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("cols", [1, 9, 64])
    def test_chunked_norms_equal_one_pass_bitwise(self, rows, cols):
        x = seeded_rng(13).normal(size=(rows, cols))
        x[::7] *= 1e-15  # some rows at or below eps
        one_pass = np.maximum(np.sqrt((x * x).sum(axis=1, keepdims=True)), DEFAULT_NORM_EPS)
        assert guarded_row_norms(x).tobytes() == one_pass.tobytes()
        assert guarded_row_norms(x[::-1]).tobytes() == one_pass[::-1].tobytes()

    def test_rows_whose_squares_overflow_normalize_to_unit_rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l2_normalize_rows([[1e200] * 3])
        np.testing.assert_allclose(out, 3**-0.5, rtol=1e-15)

    def test_only_overflowing_rows_are_measured_again(self):
        x = seeded_rng(14).normal(size=(600, 9))
        one_pass = np.maximum(np.sqrt((x * x).sum(axis=1, keepdims=True)), DEFAULT_NORM_EPS)
        x[[3, 300]] *= 1e300
        x[5] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = guarded_row_norms(x)
        rest = np.ones(600, dtype=bool)
        rest[[3, 5, 300]] = False
        assert norms[rest].tobytes() == one_pass[rest].tobytes()
        np.testing.assert_allclose(norms[[3, 300]], one_pass[[3, 300]] * 1e300, rtol=1e-15)
        assert norms[5, 0] == np.inf  # a row holding an inf keeps norm inf


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = seeded_rng(123).random(1000)
        b = seeded_rng(123).random(1000)
        assert np.array_equal(a, b)

    def test_uniform_range(self):
        u = seeded_rng(1).random(10000)
        assert (u >= 0.0).all() and (u < 1.0).all()

    def test_permutation_is_bijection(self):
        perm = seeded_rng(2).permutation(257)
        assert np.array_equal(np.sort(perm), np.arange(257))


def test_contrastive_gradient_through_generic_checker():
    # cross-module: the checker drives a genuinely multi-input loss
    from contrastlab.contrastive import infonce_loss

    rng = seeded_rng(13)
    keys = l2_normalize_rows(rng.normal(size=(4, 3)))
    queue = l2_normalize_rows(rng.normal(size=(4, 3)))
    queries = l2_normalize_rows(rng.normal(size=(4, 3)))

    def f(flat):
        res = infonce_loss(np.reshape(flat, (4, 3)), keys, queue, 0.2)
        return res.contrast, res.grad.ravel()

    report = finite_difference_check(f, queries.ravel(), step=1e-5)
    assert report.max_relative_error < 1e-6


def test_central_difference_oracle_agrees_with_checker():
    # the scalar-loop oracle and the library checker see the same numbers
    def f_value(x):
        return sum(float(v) ** 3 for v in x)

    def f(x):
        return f_value(x), 3.0 * np.asarray(x) ** 2

    point = [0.5, -1.5, 2.0]
    report = finite_difference_check(f, np.array(point), step=1e-5)
    oracle = central_difference(f_value, point, h=1e-5)
    assert np.allclose(oracle, [3 * v**2 for v in point], rtol=1e-6)
    assert report.max_relative_error < 1e-8
