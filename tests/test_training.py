import math
import os
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from contrastlab import contrastive, data, encoder, numerics, selfcheck, training
from contrastlab.contrastive import contrast
from contrastlab.data import Dataset, generate_spoke_clusters, split_dataset
from contrastlab.encoder import EncoderParams, embed, encode, init_encoder
from contrastlab.errors import ConfigurationError, DivergedRunError
from contrastlab.numerics import seeded_rng
from contrastlab.training import (
    MIN_ROWS_PER_PART,
    RunConfig,
    calinski_harabasz,
    davies_bouldin,
    export_embeddings,
    linear_eval,
    pretrain,
    probe_accuracy,
    train_linear_probe,
    write_metrics,
)
from oracles import (
    calinski_harabasz_direct,
    davies_bouldin_direct,
    export_direct,
    train_linear_probe_reference,
)


def small_dataset(seed=7, classes=4, spokes=4, per_mode=10, dim=8):
    return generate_spoke_clusters(classes, spokes, per_mode, dim, 8.0, 1.3, 0.5, seeded_rng(seed))


def small_config(**overrides):
    base = dict(
        mode="moco+mix",
        batch_size=16,
        queue_size=32,
        epochs=2,
        seed=0,
        input_dim=8,
        hidden_dims=(8,),
        embed_dim=8,
        noise_sigma=0.5,
        mask_fraction=0.0,
        scale_min=1.0,
        scale_max=1.0,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults_match_desk_protocol(self):
        cfg = RunConfig()
        assert cfg.mix_weight == 1.0
        assert cfg.mix_temperature == 0.05
        assert cfg.temperature == 0.2
        assert cfg.ema_momentum == 0.999
        assert cfg.layer_sizes == [20, 64, 64]

    def test_rejects_bad_queue_for_mode(self):
        with pytest.raises(ConfigurationError):
            RunConfig(mode="moco", queue_size=0)
        with pytest.raises(ConfigurationError):
            RunConfig(mode="simclr", queue_size=64)
        with pytest.raises(ConfigurationError):
            RunConfig(mode="moco", batch_size=64, queue_size=96)

    def test_rejects_a_queue_no_array_can_hold(self):
        limit = np.iinfo(np.intp).max // 8  # float64 values in the largest array
        assert RunConfig(batch_size=2, embed_dim=1, queue_size=limit - 1).queue_size == limit - 1
        with pytest.raises(ConfigurationError, match="queue_size .* than one array can hold"):
            RunConfig(batch_size=2, embed_dim=1, queue_size=limit + 1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            RunConfig(mode="byol")

    def test_rejects_negative_mix_weight(self):
        with pytest.raises(ConfigurationError, match="mix_weight"):
            RunConfig(mix_weight=-0.5)


class TestPretrain:
    def test_zero_weight_matches_disabled_mixing_bitwise(self):
        ds = small_dataset()
        with_mix = pretrain(small_config(mix_weight=0.0), ds)
        without = pretrain(small_config(mode="moco"), ds)
        assert np.array_equal(with_mix.encoder.vector, without.encoder.vector)
        # mixed loss is still evaluated and reported in the weighted run
        assert with_mix.metrics[-1].l_mixed > 0.0
        assert without.metrics[-1].l_mixed == 0.0

    def test_zero_lr_keeps_encoder_frozen(self):
        ds = small_dataset()
        result = pretrain(small_config(lr=0.0, epochs=1), ds)
        init_rng = np.random.default_rng(np.random.SeedSequence(0).spawn(4)[0])
        fresh = init_encoder([8, 8, 8], init_rng)
        assert np.array_equal(result.encoder.vector, fresh.vector)
        assert all(math.isfinite(r.l_total) for r in result.metrics)

    def test_deterministic_given_seed(self):
        ds = small_dataset()
        a = pretrain(small_config(seed=9), ds)
        b = pretrain(small_config(seed=9), ds)
        assert np.array_equal(a.encoder.vector, b.encoder.vector)
        assert np.array_equal(a.moco_state.queue, b.moco_state.queue)
        for ra, rb in zip(a.metrics, b.metrics):
            assert (ra.l_contrast, ra.l_mixed, ra.l_total, ra.lr) == (
                rb.l_contrast, rb.l_mixed, rb.l_total, rb.lr)

    def test_metrics_decomposition(self):
        ds = small_dataset()
        for weight in (0.0, 0.5, 1.0):
            result = pretrain(small_config(mix_weight=weight), ds)
            for r in result.metrics:
                assert abs(r.l_total - (r.l_contrast + weight * r.l_mixed)) < 1e-10

    def test_smoke_loss_decreases_seed_averaged(self):
        # 10-class smoke run, 20 epochs, averaged over 5 seeds
        ds = generate_spoke_clusters(10, 5, 12, 20, 8.0, 1.3, 0.5, seeded_rng(3))
        first, last = [], []
        for seed in range(5):
            cfg = RunConfig(
                mode="moco+mix", batch_size=20, queue_size=100, epochs=20, seed=seed,
                lr=0.03, noise_sigma=0.5, mask_fraction=0.0, scale_min=1.0, scale_max=1.0,
            )
            result = pretrain(cfg, ds)
            first.append(result.metrics[0].l_total)
            last.append(result.metrics[-1].l_total)
        assert np.mean(last) < np.mean(first)

    def test_simclr_modes_run_and_stay_finite(self):
        ds = small_dataset()
        for mode in ("simclr", "simclr+mix"):
            result = pretrain(small_config(mode=mode, queue_size=0, epochs=3), ds)
            assert result.moco_state is None
            assert all(math.isfinite(r.l_total) for r in result.metrics)

    def test_key_params_frozen_when_ema_is_one(self):
        ds = small_dataset()
        result = pretrain(small_config(ema_momentum=1.0, epochs=2), ds)
        init_rng = np.random.default_rng(np.random.SeedSequence(0).spawn(4)[0])
        fresh = init_encoder([8, 8, 8], init_rng)
        # no gradient path into the key encoder: with a frozen EMA it never moves
        assert np.array_equal(result.moco_state.key.vector, fresh.vector)
        assert not np.array_equal(result.moco_state.query.vector, fresh.vector)

    def test_diverged_run_names_epoch_and_batch(self):
        ds = small_dataset()
        with pytest.raises(DivergedRunError, match=r"epoch \d+, batch \d+"):
            pretrain(small_config(lr=1e12, epochs=5), ds)

    @pytest.mark.parametrize("mode, queue_size, term", [
        ("moco+mix", 64, "InfoNCE"), ("simclr", 0, "SimCLR")])
    def test_diverged_run_names_the_loss_term(self, mode, queue_size, term):
        ds = small_dataset()
        with pytest.raises(DivergedRunError,
                           match=rf"^non-finite {term} loss \(epoch \d+, batch \d+\)$"):
            pretrain(small_config(lr=1e12, epochs=5, mode=mode, queue_size=queue_size), ds)

    @pytest.mark.parametrize("mode, queue_size", [("moco+mix", 32), ("simclr+mix", 0)])
    def test_total_loss_that_overflows_diverges(self, mode, queue_size):
        # each term and its gradient stay finite; only l_contrast + mix_weight * l_mixed is not
        config = small_config(mode=mode, queue_size=queue_size, mix_weight=1e308,
                              mix_temperature=1.0)
        with pytest.raises(DivergedRunError, match=r"^non-finite loss \(epoch 1, batch 0\)$"):
            pretrain(config, small_dataset())

    def test_constant_schedule_records_the_configured_lr(self):
        result = pretrain(small_config(lr_schedule="constant", lr=0.03, epochs=3),
                          small_dataset())
        assert [r.lr for r in result.metrics] == [0.03] * 3

    @pytest.mark.parametrize("block", ["W1", "b0"])
    def test_diverged_run_names_the_parameter_block(self, monkeypatch, block):
        real = training.encoder_backward
        calls = []

        def poisoned(params, trace, grad_v):
            grads = real(params, trace, grad_v)
            calls.append(None)
            if len(calls) == 3:  # epoch 1, batch 2: one backward pass per moco+mix step
                views = EncoderParams(params.layer_sizes, grads)
                {"W": views.weights, "b": views.biases}[block[0]][int(block[1])].flat[0] = np.nan
            return grads

        monkeypatch.setattr(training, "encoder_backward", poisoned)
        with pytest.raises(DivergedRunError,
                           match=rf"^non-finite gradient in {block} \(epoch 1, batch 2\)$"):
            pretrain(small_config(), small_dataset())

    @pytest.mark.parametrize("mode, queue_size", [("moco", 32), ("simclr", 0)])
    def test_parameter_overflow_names_the_block_without_a_warning(self, mode, queue_size):
        # lr * velocity overflows in the first step; before the in-place
        # update this left EncoderParams' ConfigurationError (exit 1) and a warning
        config = small_config(mode=mode, queue_size=queue_size, lr=100.0, weight_decay=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedRunError,
                               match=r"^non-finite parameter in W0 \(epoch 1, batch 0\)$"):
                pretrain(config, small_dataset())

    def test_rejects_dim_mismatch(self):
        ds = small_dataset(dim=8)
        with pytest.raises(ConfigurationError):
            pretrain(small_config(input_dim=9), ds)

    def test_metrics_file_round_trip(self, tmp_path):
        ds = small_dataset()
        result = pretrain(small_config(), ds)
        path = tmp_path / "metrics.csv"
        write_metrics(result.metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,l_contrast,l_mixed,l_total,lr,seconds"
        assert len(lines) == len(result.metrics) + 1
        fields = lines[1].split(",")
        assert float(fields[3]) == result.metrics[0].l_total


class TestStep:
    """`training._loss_and_grads`, the step every mode trains with."""

    @pytest.mark.parametrize("mode, queue_size", [
        ("moco", 32), ("moco+mix", 32), ("simclr", 0), ("simclr+mix", 0)])
    def test_one_encode_and_one_backward_per_step(self, monkeypatch, mode, queue_size):
        calls = {"two_views": 0, "encode": 0, "key_forward_no_grad": 0, "contrast": 0,
                 "encoder_backward": 0, "enqueue_dequeue": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(training, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(training, name, spy)
        ds = small_dataset()
        config = small_config(mode=mode, queue_size=queue_size)
        pretrain(config, ds)
        steps = config.epochs * (ds.sample_count // config.batch_size)
        # the moco modes take their keys from the EMA encoder and enqueue them
        keys = steps if config.uses_queue else 0
        assert calls == {"two_views": steps, "encode": steps, "key_forward_no_grad": keys,
                         "contrast": steps, "encoder_backward": steps, "enqueue_dequeue": keys}

    @pytest.mark.parametrize("mode, queue_size", [
        ("moco", 32), ("moco+mix", 32), ("simclr", 0), ("simclr+mix", 0)])
    def test_no_operand_check_runs_in_a_step(self, monkeypatch, mode, queue_size):
        # the config checked the step's operands; the losses' checks are for
        # outside callers
        config, ds = small_config(mode=mode, queue_size=queue_size, epochs=1), small_dataset()

        def refuse(*args):
            raise AssertionError("operand check inside a training step")

        for name in ("_check_temperature", "_queue_operand", "as_matrix", "as_f64"):
            monkeypatch.setattr(contrastive, name, refuse)
        # nor the augmentation's
        monkeypatch.setattr(data, "as_matrix", refuse)
        result = pretrain(config, ds)
        assert math.isfinite(result.metrics[0].l_total)

    def test_simclr_mix_with_zero_weight_adds_exact_zeros(self, monkeypatch):
        # the mixed rows' upstream gradient and the mixed term's key gradient
        # are scaled by mix_weight: at 0 the backward sees only the SimCLR term
        seen = {}
        real_encode, real_backward = training.encode, training.encoder_backward

        def spy_encode(params, x):
            seen["v"], trace = real_encode(params, x)
            return seen["v"], trace

        def spy_backward(params, trace, upstream):
            seen["upstream"] = upstream.copy()
            return real_backward(params, trace, upstream)

        monkeypatch.setattr(training, "encode", spy_encode)
        monkeypatch.setattr(training, "encoder_backward", spy_backward)
        config = small_config(mode="simclr+mix", queue_size=0, mix_weight=0.0)
        rng = seeded_rng(3)
        params = init_encoder(config.layer_sizes, rng)
        x_query, x_key = rng.normal(size=(2, 16, 8))
        l_contrast, l_mix, _, _ = training._loss_and_grads(
            config, params, None, x_query, x_key, seeded_rng(4))
        v, upstream, b = seen["v"], seen["upstream"], config.batch_size
        simclr = contrast(v[:b], v[b:2 * b], None, config.temperature, v[:0], np.empty(0), 1.0)
        assert l_contrast == simclr.contrast and l_mix > 0.0
        assert np.array_equal(upstream[:b], simclr.grad)
        assert np.array_equal(upstream[b:2 * b], simclr.grad_keys)
        assert upstream.shape == (2 * b + b // 2, 8)
        assert not upstream[2 * b:].any()

    def test_gradient_suite_rejects_a_degenerate_start_point(self):
        # at this seed the [5, 6, 4] encoder maps one of the rows to zero
        with pytest.raises(ConfigurationError, match="zero norm"):
            selfcheck._step_case("simclr+mix", 407, 6, 0, 0.5)


class TestBlasThreads:
    def test_pretrain_runs_on_one_thread_and_restores_the_count(self, monkeypatch,
                                                                  two_blas_threads):
        seen = []
        real = training._loss_and_grads

        def spy(*args):
            seen.append(two_blas_threads())
            return real(*args)

        monkeypatch.setattr(training, "_loss_and_grads", spy)
        pretrain(small_config(epochs=1), small_dataset())
        assert seen and set(seen) == {1}
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("queue_size", [512, 528, 4096])
    def test_queues_of_every_size_run_on_one_thread(self, monkeypatch, two_blas_threads,
                                                    queue_size):
        seen = []
        real = training._loss_and_grads
        monkeypatch.setattr(training, "_loss_and_grads",
                            lambda *args: seen.append(two_blas_threads()) or real(*args))
        pretrain(small_config(epochs=1, queue_size=queue_size, embed_dim=64),
                 small_dataset(per_mode=40))
        assert seen and set(seen) == {1}
        assert two_blas_threads() == 2

    def test_count_restored_after_divergence(self, two_blas_threads):
        with pytest.raises(DivergedRunError):
            pretrain(small_config(lr=1e12, epochs=5), small_dataset())
        assert two_blas_threads() == 2

    def test_eval_does_not_depend_on_the_thread_count(self, two_blas_threads):
        # the eval commands run on the default pool today; pinning them to
        # one thread must be a pure speed change
        ds = generate_spoke_clusters(10, 10, 50, 20, 8.0, 1.3, 0.5, seeded_rng(0))
        train, test = split_dataset(ds, 0.8, seeded_rng(1))
        enc = init_encoder([20, 64, 64], seeded_rng(2))

        def evaluate():
            return (embed(enc, ds.features),
                    linear_eval(enc, train, test, 3, 3.0, 64, seeded_rng(3)))

        pooled_emb, pooled_top1 = evaluate()
        assert two_blas_threads() == 2
        with numerics.single_blas_thread():
            assert two_blas_threads() == 1
            pinned_emb, pinned_top1 = evaluate()
        assert pooled_emb.tobytes() == pinned_emb.tobytes()
        assert pooled_top1 == pinned_top1

    @pytest.mark.parametrize("mode, queue_size", [
        ("moco+mix", 512), ("moco+mix", 4096), ("simclr+mix", 0)])
    def test_results_do_not_depend_on_the_thread_count(self, monkeypatch, two_blas_threads,
                                                       mode, queue_size):
        ds = small_dataset(per_mode=40)
        # desk-sized GEMMs (B=64, K=512, C=64), large enough for OpenBLAS to thread
        config = small_config(mode=mode, queue_size=queue_size, batch_size=64,
                              hidden_dims=(64,), embed_dim=64)
        pinned = pretrain(config, ds)
        monkeypatch.setattr(numerics, "_openblas_threads", lambda: None)  # lookup misses
        seen = []
        real = training._loss_and_grads
        monkeypatch.setattr(training, "_loss_and_grads",
                            lambda *args: seen.append(two_blas_threads()) or real(*args))
        unpinned = pretrain(config, ds)
        assert set(seen) == {2}
        assert np.array_equal(pinned.encoder.vector, unpinned.encoder.vector)
        if queue_size:
            assert np.array_equal(pinned.moco_state.queue, unpinned.moco_state.queue)
            assert np.array_equal(pinned.moco_state.key.vector, unpinned.moco_state.key.vector)
        assert [(r.l_contrast, r.l_mixed, r.lr) for r in pinned.metrics] == [
            (r.l_contrast, r.l_mixed, r.lr) for r in unpinned.metrics]


def axis_blob_dataset(classes=5, per_class=40, dim=5, seed=11):
    # well-separated blobs along distinct axes: normalize keeps them separable
    rng = seeded_rng(seed)
    centers = 10.0 * np.eye(dim)[:classes]
    feats = np.repeat(centers, per_class, axis=0) + 0.4 * rng.standard_normal(
        (classes * per_class, dim))
    return Dataset(feats, np.repeat(np.arange(classes), per_class), classes)


def identity_encoder(dim):
    return EncoderParams([dim, dim], np.concatenate([np.eye(dim).ravel(), np.zeros(dim)]))


class TestLinearEval:
    def test_identity_encoder_on_separable_clusters(self):
        ds = axis_blob_dataset()
        train, test = split_dataset(ds, 0.8, seeded_rng(0))
        acc = linear_eval(identity_encoder(5), train, test, 100, 3.0, 64, seeded_rng(1))
        assert acc >= 0.95

    def test_zero_epoch_probe_reports_chance_of_argmax_at_init(self):
        ds = axis_blob_dataset()
        train, test = split_dataset(ds, 0.8, seeded_rng(0))
        acc = linear_eval(identity_encoder(5), train, test, 0, 3.0, 64, seeded_rng(1))
        # all-zero probe predicts class 0 everywhere; reported, not asserted
        print(f"zero-epoch probe accuracy: {acc:.3f}")
        assert 0.0 <= acc <= 1.0

    def test_permuted_labels_give_chance_accuracy(self):
        ds = axis_blob_dataset(classes=5, per_class=200)
        shuffled = Dataset(
            ds.features, seeded_rng(3).permutation(ds.labels), ds.class_count)
        train, test = split_dataset(shuffled, 0.8, seeded_rng(0))
        acc = linear_eval(identity_encoder(5), train, test, 100, 3.0, 64, seeded_rng(1))
        assert abs(acc - 1.0 / 5) <= 0.05

    def test_encoder_bit_identical_after_eval(self):
        ds = axis_blob_dataset()
        train, test = split_dataset(ds, 0.8, seeded_rng(0))
        encoder = init_encoder([5, 6, 4], seeded_rng(2))
        before = encoder.vector.copy()
        linear_eval(encoder, train, test, 5, 3.0, 64, seeded_rng(1))
        assert np.array_equal(encoder.vector, before)

    @pytest.mark.parametrize("dropped", [[2], [1, 4]])
    def test_rejects_missing_class(self, dropped):
        ds = axis_blob_dataset()
        train, test = split_dataset(ds, 0.8, seeded_rng(0))
        kept = ~np.isin(train.labels, dropped)
        narrowed = Dataset(train.features[kept], train.labels[kept], train.class_count)
        with pytest.raises(ConfigurationError) as exc:
            linear_eval(identity_encoder(5), narrowed, test, 100, 3.0, 64, seeded_rng(1))
        assert str(exc.value) == f"classes missing from the train split: {dropped}"

    def test_peak_is_the_train_embeddings_targets_and_one_block(self):
        # the train embeddings are freed before the test split is embedded,
        # and neither split holds a whole-array trace
        ds = generate_spoke_clusters(10, 5, 100, 20, 8.0, 1.3, 0.5, seeded_rng(7))
        train, test = split_dataset(ds, 0.8, seeded_rng(0))
        assert (len(train.labels), len(test.labels)) == (4000, 1000)
        encoder = init_encoder([20, 64, 64], seeded_rng(2))
        tracemalloc.start()
        try:
            linear_eval(encoder, train, test, 3, 3.0, 64, seeded_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a fixed budget that does not grow with EMBED_BLOCK_ROWS: the train
        # embeddings, one epoch's one-hot targets, and the trace of a 512-row
        # block (its hidden layer and its output, 512 x 64 each)
        train_embeddings = 4000 * 64 * 8
        targets = 4000 * 10 * 8
        assert peak <= train_embeddings + targets + 2 * 512 * 64 * 8

    def test_probe_matches_the_reference_loop_bitwise(self):
        # 200 samples in batches of 64: the last batch of each epoch holds 8
        ds = axis_blob_dataset()
        emb = encode(init_encoder([5, 6, 4], seeded_rng(2)), ds.features)[0]
        probe = train_linear_probe(emb, ds.labels, 5, 7, 3.0, 64, seeded_rng(4))
        weight, bias = train_linear_probe_reference(emb, ds.labels, 5, 7, 3.0, 64, seeded_rng(4))
        assert probe.weight.tobytes() == weight.tobytes()
        assert probe.bias.tobytes() == bias.tobytes()

    def test_probe_trains_on_frozen_embeddings(self):
        ds = axis_blob_dataset()
        emb, _ = encode(identity_encoder(5), ds.features)
        probe = train_linear_probe(emb, ds.labels, 5, 50, 3.0, 64, seeded_rng(4))
        assert probe_accuracy(probe, emb, ds.labels) >= 0.95


class TestClusterIndices:
    def test_two_singleton_clusters_give_zero_db(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert davies_bouldin(emb, np.array([0, 1])) == 0.0

    def test_translation_invariance(self):
        rng = seeded_rng(5)
        emb = rng.normal(size=(60, 4))
        labels = rng.integers(0, 3, 60)
        base = davies_bouldin(emb, labels)
        moved = davies_bouldin(emb + 1e6, labels)
        assert moved == pytest.approx(base, rel=1e-6)

    def test_db_matches_brute_force_on_toy_set(self):
        rng = seeded_rng(6)
        emb = np.concatenate([
            rng.normal(size=(20, 2)) + [0, 0],
            rng.normal(size=(25, 2)) + [8, 1],
            rng.normal(size=(15, 2)) + [3, 9],
        ])
        labels = np.repeat([0, 1, 2], [20, 25, 15])
        assert davies_bouldin(emb, labels) == pytest.approx(
            davies_bouldin_direct(emb.tolist(), labels.tolist()), rel=0, abs=1e-10)

    def test_db_infinite_with_warning_on_coincident_centroids(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 5.0], [2.0, -5.0]])
        labels = np.array([0, 0, 1, 1])  # class 1 centroid == class 0 centroid
        with pytest.warns(RuntimeWarning):
            assert math.isinf(davies_bouldin(emb, labels))

    def test_ch_matches_brute_force_on_toy_set(self):
        rng = seeded_rng(7)
        emb = np.concatenate([
            rng.normal(size=(30, 3)) + [0, 0, 0],
            rng.normal(size=(20, 3)) + [6, 2, -1],
            rng.normal(size=(26, 3)) + [-3, 7, 4],
        ])
        labels = np.repeat([0, 1, 2], [30, 20, 26])
        assert calinski_harabasz(emb, labels) == pytest.approx(
            calinski_harabasz_direct(emb.tolist(), labels.tolist()), rel=0, abs=1e-10)

    def test_ch_scale_invariance(self):
        rng = seeded_rng(8)
        emb = rng.normal(size=(50, 4))
        labels = rng.integers(0, 4, 50)
        base = calinski_harabasz(emb, labels)
        assert calinski_harabasz(emb * 7.5, labels) == pytest.approx(base, rel=1e-9)

    def test_ch_near_one_under_random_labels(self):
        rng = seeded_rng(9)
        emb = rng.normal(size=(200, 6))
        labels = rng.integers(0, 5, 200)
        value = calinski_harabasz(emb, labels)
        print(f"CH with shuffled labels: {value:.3f}")  # order-of-magnitude report
        assert 0.05 < value < 20.0

    def test_ch_infinite_with_warning_on_zero_within_dispersion(self):
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        with pytest.warns(RuntimeWarning):
            assert math.isinf(calinski_harabasz(emb, labels))

    @pytest.mark.parametrize("seed", range(4))
    def test_labels_with_gaps_give_the_bits_of_np_unique_classes(self, seed, monkeypatch):
        def stats_from_np_unique(embeddings, labels):
            classes = np.unique(labels)
            centroids = np.stack([embeddings[labels == c].mean(axis=0) for c in classes])
            return embeddings, labels, classes, centroids

        rng = seeded_rng(20 + seed)
        emb = rng.normal(size=(90, 5)) * 2
        labels = rng.permutation(np.repeat([0, 3, 7], [25, 30, 35]))
        ours = (davies_bouldin(emb, labels), calinski_harabasz(emb, labels))
        monkeypatch.setattr(training, "_cluster_stats", stats_from_np_unique)
        theirs = (davies_bouldin(emb, labels), calinski_harabasz(emb, labels))
        assert [v.hex() for v in ours] == [v.hex() for v in theirs]

    def test_both_match_brute_force_on_random_instances(self):
        rng = seeded_rng(10)
        for _ in range(5):
            n = int(rng.integers(20, 200))
            k = int(rng.integers(2, 6))
            emb = rng.normal(size=(n, 4)) * 3
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            assert davies_bouldin(emb, labels) == pytest.approx(
                davies_bouldin_direct(emb.tolist(), labels.tolist()), rel=0, abs=1e-10)
            assert calinski_harabasz(emb, labels) == pytest.approx(
                calinski_harabasz_direct(emb.tolist(), labels.tolist()), rel=0, abs=1e-10)


class TestExport:
    def test_row_count_and_header(self, tmp_path):
        ds = axis_blob_dataset(classes=3, per_class=5)
        path = tmp_path / "emb.txt"
        export_embeddings(identity_encoder(5), ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == ds.sample_count + 1
        assert lines[0].split() == ["label", "v0", "v1", "v2", "v3", "v4"]

    def test_round_trip_recovers_values_bitwise(self, tmp_path):
        ds = axis_blob_dataset(classes=3, per_class=4)
        path = tmp_path / "emb.txt"
        export_embeddings(identity_encoder(5), ds, path)
        expected, _ = encode(identity_encoder(5), ds.features)
        lines = path.read_text().splitlines()[1:]
        for row, label, exp in zip(lines, ds.labels, expected):
            parts = row.split()
            assert int(parts[0]) == label
            assert np.array_equal(np.array([float(p) for p in parts[1:]]), exp)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("rows", [0, 1, MIN_ROWS_PER_PART - 1, MIN_ROWS_PER_PART + 1,
                                      2 * MIN_ROWS_PER_PART + 1])
    def test_bytes_equal_the_row_loop_at_any_part_count(self, rows, cpus, tmp_path, monkeypatch,
                                                        no_child_left):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        rng = seeded_rng(rows)
        # `Dataset` refuses fewer rows than classes; the export reads only
        # these two fields
        ds = SimpleNamespace(features=rng.standard_normal((rows, 4)),
                             labels=rng.integers(0, 3, rows))
        params = init_encoder([4, 6, 3], seeded_rng(1))
        path = tmp_path / "emb.txt"
        export_embeddings(params, ds, path)
        assert path.read_bytes() == export_direct(encode(params, ds.features)[0], ds.labels)
        assert os.listdir(tmp_path) == ["emb.txt"]
        assert len(forks) == max(1, min(cpus, -(-rows // MIN_ROWS_PER_PART))) - 1

    def test_without_sched_getaffinity_the_cpu_count_sets_the_parts(self, tmp_path, monkeypatch,
                                                                     no_child_left):
        # os.sched_getaffinity exists only on Linux; elsewhere the export
        # splits over os.cpu_count() CPUs, or one when that is unknown
        rows = 2 * MIN_ROWS_PER_PART + 1
        rng = seeded_rng(5)
        ds = SimpleNamespace(features=rng.standard_normal((rows, 4)),
                             labels=rng.integers(0, 3, rows))
        params = init_encoder([4, 6, 3], seeded_rng(1))
        export_embeddings(params, ds, tmp_path / "linux.txt")
        monkeypatch.delattr(os, "sched_getaffinity")
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        for cpus, helpers in ((None, 0), (3, 2)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            forks.clear()
            path = tmp_path / f"cpus{cpus}.txt"
            export_embeddings(params, ds, path)
            assert path.read_bytes() == (tmp_path / "linux.txt").read_bytes()
            assert len(forks) == helpers
