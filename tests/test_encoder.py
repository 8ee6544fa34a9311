import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest

from contrastlab import encoder
from contrastlab.encoder import (
    EMBED_BLOCK_ROWS,
    EncoderParams,
    apply_sgd_step,
    embed,
    encode,
    encoder_backward,
    init_encoder,
    load_encoder,
    save_encoder,
)
from contrastlab.errors import ConfigurationError, DivergedRunError, FormatError
from contrastlab.numerics import (
    finite_difference_check,
    l2_normalize_rows_vjp,
    seeded_rng,
    single_blas_thread,
)
from oracles import encode_direct, encoder_backward_reference


class TestInit:
    def test_shapes(self):
        params = init_encoder([4, 8, 3], seeded_rng(0))
        assert [w.shape for w in params.weights] == [(8, 4), (3, 8)]
        assert [b.shape for b in params.biases] == [(8,), (3,)]
        assert all(np.array_equal(b, 0 * b) for b in params.biases)

    def test_deterministic(self):
        a = init_encoder([4, 8, 3], seeded_rng(42))
        b = init_encoder([4, 8, 3], seeded_rng(42))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_fan_in_scaled_variance(self):
        # >= 1e4 draws in the first layer; sample variance within 20% of 1/fan_in
        params = init_encoder([50, 300, 2], seeded_rng(1))
        var = params.weights[0].var()
        assert abs(var - 1.0 / 50) < 0.2 / 50

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            init_encoder([4], seeded_rng(0))
        with pytest.raises(ConfigurationError):
            init_encoder([4, 0, 2], seeded_rng(0))


class TestEncode:
    def test_unit_norm_rows(self):
        rng = seeded_rng(2)
        params = init_encoder([5, 7, 4], rng)
        v, _ = encode(params, rng.normal(size=(9, 5)))
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12

    def test_zero_params_flagged_degenerate(self):
        params = init_encoder([3, 4, 2], seeded_rng(3))
        for w in params.weights:
            w[...] = 0.0
        v, trace = encode(params, np.ones((5, 3)))
        assert np.array_equal(v, np.zeros((5, 2)))
        assert trace.degenerate_rows.all()

    def test_normal_rows_not_flagged(self):
        rng = seeded_rng(4)
        params = init_encoder([3, 4, 2], rng)
        _, trace = encode(params, rng.normal(size=(6, 3)))
        assert not trace.degenerate_rows.any()

    def test_deterministic(self):
        rng = seeded_rng(5)
        params = init_encoder([4, 6, 3], rng)
        x = rng.normal(size=(8, 4))
        v1, _ = encode(params, x)
        v2, _ = encode(params, x)
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("sizes", [[5, 4], [5, 6, 4], [5, 6, 7, 4]])
    def test_in_place_forward_equals_the_direct_one_bitwise(self, sizes):
        rng = seeded_rng(30)
        params = init_encoder(sizes, rng)
        x = rows_with_degenerate(rng, 9, 5)
        x.flags.writeable = False
        kept = x.copy()
        v, trace = encode(params, x)
        expected_v, expected, _ = encode_direct(params, x)
        assert v is trace.output and v.tobytes() == expected_v.tobytes()
        assert len(trace.inputs) == len(expected.inputs) == len(sizes) - 1
        for got, want in zip(trace.inputs, expected.inputs):
            assert got.tobytes() == want.tobytes()
        assert trace.guarded_norms.tobytes() == expected.guarded_norms.tobytes()
        assert np.array_equal(trace.degenerate_rows, expected.degenerate_rows)
        assert np.flatnonzero(trace.degenerate_rows).tolist() == [2, 4]
        assert x.tobytes() == kept.tobytes()

    def test_one_hidden_layer_peaks_at_two_n_by_width_arrays(self):
        # the hidden activations (kept in the trace) and the output; the
        # norms' squares take a chunk, not a third N x width array
        params = init_encoder([20, 64, 64], seeded_rng(34))
        x = seeded_rng(35).normal(size=(2000, 20))
        tracemalloc.start()
        try:
            encode(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.shape[0] * 64 * 8


# both sides of the one-call edge (2B) and of the block size, and 3B - 1
# rows, whose last block is the largest one (2B - 1 rows)
B = EMBED_BLOCK_ROWS
EMBED_ROWS = [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B - 1, 5000]


class TestEmbed:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "sizes", [[20, 64, 64], [4, 6, 3], [5, 6, 7, 4], [20, 64, 32, 64]])
    def test_equals_encode_bitwise(self, sizes, threads, two_blas_threads):
        rng = seeded_rng(40)
        params = init_encoder(sizes, rng)
        params.vector[...] = rng.normal(0.0, 0.3, size=params.vector.shape)  # biases too
        x = rng.normal(size=(max(EMBED_ROWS), sizes[0]))
        with single_blas_thread() if threads == 1 else contextlib.nullcontext():
            assert two_blas_threads() == threads
            for n in EMBED_ROWS:
                v = embed(params, x[:n])
                assert v.shape == (n, sizes[-1])
                assert v.tobytes() == encode(params, x[:n])[0].tobytes(), n

    @pytest.mark.parametrize("n", EMBED_ROWS)
    def test_blocks_hold_at_least_the_block_size(self, n, monkeypatch):
        blocks = []
        real = encoder.encode

        def spy(params, x):
            blocks.append(x.shape[0])
            return real(params, x)

        monkeypatch.setattr(encoder, "encode", spy)
        embed(init_encoder([4, 6, 3], seeded_rng(41)), seeded_rng(42).normal(size=(n, 4)))
        assert sum(blocks) == n
        if n < 2 * EMBED_BLOCK_ROWS:
            assert blocks == [n]
        else:
            assert len(blocks) == n // EMBED_BLOCK_ROWS
            assert min(blocks) >= EMBED_BLOCK_ROWS and max(blocks) < 2 * EMBED_BLOCK_ROWS

    def test_peaks_at_the_output_plus_two_blocks(self):
        # `encode(...)[0]` of all rows holds the hidden layer beside the
        # output, two N x 64 arrays; `embed` holds one, plus a block's trace
        params = init_encoder([20, 64, 64], seeded_rng(34))
        x = seeded_rng(35).normal(size=(20000, 20))
        tracemalloc.start()
        try:
            v = embed(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= v.nbytes + 2 * (2 * EMBED_BLOCK_ROWS) * 64 * 8


def rows_with_degenerate(rng, n, width):
    """Rows 2 and 4 encode, under zero biases, to a zero row and to a nonzero
    row of norm below eps: the two kinds of degenerate row."""
    x = rng.normal(size=(n, width))
    x[2] = 0.0
    x[4] *= 1e-15
    return x


class TestBackward:
    @pytest.mark.parametrize("degenerate", [True, False])
    def test_normalization_pullback_equals_the_vjp_bitwise(self, degenerate):
        rng = seeded_rng(31)
        params = init_encoder([5, 6, 7, 4], rng)
        x = rows_with_degenerate(rng, 9, 5) if degenerate else rng.normal(size=(9, 5))
        _, trace = encode(params, x)
        assert trace.degenerate_rows.any() == degenerate
        if degenerate:  # a row the active formula would get wrong
            assert trace.output[4].any()
        g = rng.normal(size=(9, 4))
        # the last affine output by the forward's own operations
        z = trace.inputs[-1] @ params.weights[-1].T
        z += params.biases[-1]
        expected = l2_normalize_rows_vjp(z, g)
        assert encoder._normalization_pullback(trace, g).tobytes() == expected.tobytes()

    def test_relu_mask_from_layer_inputs_equals_the_pre_activation_mask(self):
        # zero biases: the zero row gives exact-zero pre-activations in every
        # layer, and the random rows give negative ones
        rng = seeded_rng(33)
        params = init_encoder([5, 6, 7, 4], rng)
        x = rows_with_degenerate(rng, 9, 5)
        _, trace = encode(params, x)
        for l in range(len(params.weights) - 1):
            z = trace.inputs[l] @ params.weights[l].T
            z += params.biases[l]
            assert (z == 0.0).any() and (z < 0.0).any()
            assert np.array_equal(trace.inputs[l + 1] > 0.0, z > 0.0)
        _, reference, pre_activations = encode_direct(params, x)
        g = rng.normal(size=(9, 4))
        expected = encoder_backward_reference(params, reference, pre_activations, g)
        assert encoder_backward(params, trace, g).tobytes() == expected.tobytes()

    def test_zero_upstream_gives_zero_grads(self):
        rng = seeded_rng(7)
        params = init_encoder([4, 6, 3], rng)
        _, trace = encode(params, rng.normal(size=(5, 4)))
        grads = encoder_backward(params, trace, np.zeros((5, 3)))
        assert np.array_equal(grads, np.zeros_like(params.vector))

    def test_finite_difference_every_parameter_block(self):
        rng = seeded_rng(8)
        layer_sizes = [4, 6, 3]
        params = init_encoder(layer_sizes, rng)
        x = rng.normal(size=(5, 4))
        downstream = rng.normal(size=(5, 3))

        def f(vec):
            p = EncoderParams(layer_sizes, vec)
            v, trace = encode(p, x)
            grads = encoder_backward(p, trace, downstream)
            return float((v * downstream).sum()), grads

        report = finite_difference_check(f, params.vector, step=1e-6)
        assert report.max_relative_error < 1e-6

    def test_single_linear_layer_closed_form(self):
        # one affine layer + normalization: gradient wrt W equals the
        # hand-derived normalized-linear Jacobian product
        rng = seeded_rng(10)
        params = init_encoder([3, 2], rng)
        x = rng.normal(size=(1, 3))
        downstream = rng.normal(size=(1, 2))
        _, trace = encode(params, x)
        grads = encoder_backward(params, trace, downstream)
        grad_blocks = EncoderParams(params.layer_sizes, grads)  # views in the parameter layout

        w = params.weights[0]
        y = (x @ w.T + params.biases[0])[0]  # pre-normalization output
        norm = np.linalg.norm(y)
        v = y / norm
        g = downstream[0]
        gy = (g - (g @ v) * v) / norm  # normalization Jacobian applied to g
        expected_gw = np.outer(gy, x[0])
        assert np.allclose(grad_blocks.weights[0], expected_gw, rtol=1e-12, atol=1e-14)
        assert np.allclose(grad_blocks.biases[0], gy, rtol=1e-12, atol=1e-14)

class TestSgdStep:
    def _scalar_params(self, value):
        params = init_encoder([1, 1], seeded_rng(0))
        params.weights[0][...] = value
        return params

    def test_zero_lr_keeps_params(self):
        rng = seeded_rng(12)
        params = init_encoder([3, 4, 2], rng)
        before = params.vector.copy()  # the step writes into params.vector
        grads = rng.normal(size=params.vector.shape)
        updated, _ = apply_sgd_step(params, grads, 0.0, 0.9, 1e-4, np.zeros_like(grads))
        assert np.array_equal(updated.vector, before)

    def test_updates_in_place_bitwise_as_the_formula(self):
        rng = seeded_rng(32)
        params = init_encoder([5, 6, 7, 4], rng)
        vector, velocity = params.vector, np.zeros_like(params.vector)
        p, v = vector.copy(), velocity.copy()
        for step in range(5):
            grads = rng.normal(size=p.shape)
            lr = 0.05 * (step + 1)
            # the out-of-place formula the step used to evaluate
            v = 0.9 * v + grads + 1e-4 * p
            p = p - lr * v
            updated, new_velocity = apply_sgd_step(params, grads, lr, 0.9, 1e-4, velocity)
            assert updated is params and new_velocity is velocity
            assert params.vector is vector
            assert vector.tobytes() == p.tobytes() and velocity.tobytes() == v.tobytes()
        assert params.weights[0].base is vector  # the block views still see the update

    def test_reduces_to_plain_sgd(self):
        params = self._scalar_params(2.0)
        grads = np.array([0.5, 0.25])  # [W0[0, 0], b0[0]]
        updated, _ = apply_sgd_step(params, grads, 0.1, 0.0, 0.0, np.zeros(2))
        assert updated.weights[0][0, 0] == pytest.approx(2.0 - 0.1 * 0.5, rel=0, abs=1e-15)
        assert updated.biases[0][0] == pytest.approx(0.0 - 0.1 * 0.25, rel=0, abs=1e-15)

    def test_two_momentum_steps_hand_value(self):
        # p=1, grad 1 each step, lr 0.1, momentum 0.9: p -> 0.9 -> 0.71
        params = self._scalar_params(1.0)
        grads = np.array([1.0, 0.0])
        vel = np.zeros(2)
        params, vel = apply_sgd_step(params, grads, 0.1, 0.9, 0.0, vel)
        assert params.weights[0][0, 0] == pytest.approx(0.9, rel=1e-12)
        params, vel = apply_sgd_step(params, grads, 0.1, 0.9, 0.0, vel)
        assert params.weights[0][0, 0] == pytest.approx(0.71, rel=1e-12)

    def test_weight_decay_pulls_toward_zero(self):
        params = self._scalar_params(2.0)
        grads = np.zeros(2)
        updated, _ = apply_sgd_step(params, grads, 0.1, 0.0, 0.5, np.zeros(2))
        assert updated.weights[0][0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0, rel=1e-12)

    @pytest.mark.parametrize("bad_grad", [np.nan, np.inf])
    def test_rejected_step_writes_nothing(self, bad_grad):
        rng = seeded_rng(33)
        params = init_encoder([3, 4, 2], rng)
        velocity = rng.normal(size=params.vector.shape)
        grads = rng.normal(size=params.vector.shape)
        grads[-3] = bad_grad
        kept = params.vector.tobytes(), velocity.tobytes()
        with pytest.raises(DivergedRunError):
            apply_sgd_step(params, grads, 0.1, 0.9, 1e-4, velocity)
        assert (params.vector.tobytes(), velocity.tobytes()) == kept

    def test_overflowing_update_names_the_first_bad_block_without_a_warning(self):
        params = init_encoder([3, 4, 2], seeded_rng(34))
        grads = np.zeros_like(params.vector)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedRunError, match=r"^non-finite parameter in W0$"):
                apply_sgd_step(params, grads, 100.0, 0.9, 1e308, np.zeros_like(grads))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_gradient_names_the_first_bad_block(self, bad):
        params = init_encoder([3, 4, 2], seeded_rng(13))
        for name in ("W0", "b0", "W1", "b1"):
            grads = np.zeros_like(params.vector)
            blocks = EncoderParams(params.layer_sizes, grads)  # views in the parameter layout
            block = {"W": blocks.weights, "b": blocks.biases}[name[0]][int(name[1])]
            block.flat[-1] = bad
            blocks.biases[1][0] = bad  # a later block is bad too; the first one is named
            with pytest.raises(DivergedRunError, match=rf"^non-finite gradient in {name}$"):
                apply_sgd_step(params, grads, 0.1, 0.9, 0.0, np.zeros_like(grads))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = seeded_rng(13)
        params = init_encoder([5, 8, 4], rng)
        # make values non-trivial decimals
        for w in params.weights:
            w *= 1.0 / 3.0
        path = tmp_path / "enc.txt"
        save_encoder(params, path, seed=99)
        loaded, seed = load_encoder(path)
        assert seed == 99
        assert loaded.layer_sizes == params.layer_sizes
        assert np.array_equal(loaded.vector, params.vector)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(FormatError):
            load_encoder(path)

    def test_truncated_file(self, tmp_path):
        rng = seeded_rng(14)
        params = init_encoder([3, 4, 2], rng)
        path = tmp_path / "enc.txt"
        save_encoder(params, path)
        clipped = path.read_text()[:120]
        path.write_text(clipped)
        with pytest.raises(FormatError):
            load_encoder(path)

    def test_trailing_content_after_end(self, tmp_path):
        path = tmp_path / "enc.txt"
        save_encoder(init_encoder([3, 2], seeded_rng(15)), path)
        path.write_text(path.read_text() + "W0 2 3\n")
        with pytest.raises(FormatError, match="trailing"):
            load_encoder(path)

    def test_non_finite_parameter(self, tmp_path):
        path = tmp_path / "enc.txt"
        save_encoder(init_encoder([3, 2], seeded_rng(16)), path)
        lines = path.read_text().splitlines()
        lines[-2] = "nan 0.0"  # b0
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_encoder(path)


def test_full_model_gradient_check_random_batches():
    # composite loss through the encoder at batch 8 stays under 1e-5
    rng = seeded_rng(15)
    layer_sizes = [6, 10, 5]
    params = init_encoder(layer_sizes, rng)
    x = rng.normal(size=(8, 6))
    downstream = rng.normal(size=(8, 5))

    def f(vec):
        p = EncoderParams(layer_sizes, vec)
        v, trace = encode(p, x)
        grads = encoder_backward(p, trace, downstream)
        return float((v * downstream).sum()), grads

    report = finite_difference_check(f, params.vector, step=1e-5)
    assert report.max_relative_error < 1e-5
