"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale learning
check pretrains 10 encoders (5 seeds x {with, without} the mixed term) and
dominates the runtime; the whole module targets well under 10 minutes on one
core.
"""

import math
import time

import numpy as np
import pytest

from contrastlab.contrastive import contrast, infonce_loss, mixed_query_loss
from contrastlab.data import generate_spoke_clusters, split_dataset
from contrastlab.encoder import (
    apply_sgd_step,
    encode,
    init_encoder,
    load_encoder,
    save_encoder,
)
from contrastlab.moco import (
    enqueue_dequeue,
    init_moco,
    key_forward_no_grad,
    load_moco,
    momentum_update,
    save_moco,
)
from contrastlab.numerics import l2_normalize_rows, seeded_rng
from contrastlab.selfcheck import gradient_suite, worst_relative_error
from contrastlab.training import (
    MODES,
    RunConfig,
    calinski_harabasz,
    davies_bouldin,
    linear_eval,
    pretrain,
    write_metrics,
)
from oracles import (
    build_mixed_logits,
    build_mixed_targets,
    calinski_harabasz_direct,
    davies_bouldin_direct,
    infonce_direct,
    kl_direct,
    mixed_direct,
)


def unit_rows(rng, rows, cols):
    return l2_normalize_rows(rng.normal(size=(rows, cols)))


def test_gradient_suite():
    """Analytic gradients of every loss, and of the training step itself in
    each of the four modes, match central finite differences at < 1e-5."""
    started = time.perf_counter()
    results = gradient_suite()
    elapsed = time.perf_counter() - started
    assert len(results) >= 20
    for mode in MODES:
        assert sum(name.startswith(f"step {mode} ") for name, _ in results) >= 2, mode
    worst = worst_relative_error(results)
    assert worst < 1e-5, f"worst relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE gradient-suite: PASS ({len(results)} instances, "
          f"worst {worst:.2e}, {elapsed:.1f}s)")


def test_oracle_equivalence():
    """Vectorized losses agree with independent scalar-loop direct-summation
    oracles within 1e-12 on 100 random small instances."""
    started = time.perf_counter()
    rng = seeded_rng(2024)
    checked = 0
    for i in range(50):
        b = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        c = int(rng.integers(1, 5))
        queries, keys = unit_rows(rng, b, c), unit_rows(rng, b, c)
        queue = unit_rows(rng, k, c)
        res = contrast(queries, keys, queue, 0.2, keys[:0], np.empty(0), 1.0)
        assert abs(res.contrast - infonce_direct(queries, keys, queue, 0.2)) < 1e-12
        checked += 1
    for i in range(50):
        b = 2 * int(rng.integers(1, 5))
        k = int(rng.integers(0, 9))
        c = int(rng.integers(1, 5))
        keys = unit_rows(rng, b, c)
        queue = unit_rows(rng, k, c) if k else np.zeros((0, c))
        mixed = unit_rows(rng, b // 2, c)
        lam = rng.uniform(0.05, 0.95, b // 2)
        res = contrast(keys[:0], keys, queue, 1.0, mixed, lam, 0.05)
        assert abs(res.mixed - mixed_direct(mixed, keys, queue, lam, 0.05)) < 1e-12
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"\nACCEPTANCE oracle-equivalence: PASS (100 instances, {elapsed:.1f}s)")


def test_loss_identities():
    """(a) empty-queue loss is 0; (b) uniform logits give log(K+1);
    (c) uniform mixed logits give log(B+K) for any lambda; (d) the mixed loss
    exceeds the scalar-loop KL reference by the mean target entropy, with
    identical gradients."""
    rng = seeded_rng(11)

    # (a) no negatives: loss and gradient identically zero
    res = infonce_loss(unit_rows(rng, 4, 3), unit_rows(rng, 4, 3), np.zeros((0, 3)), 0.2)
    assert res.contrast == 0.0 and np.array_equal(res.grad, np.zeros((4, 3)))

    # (b) all logits equal -> log(K+1)
    e1 = np.zeros((2, 3))
    e1[:, 0] = 1.0
    for k in (1, 4, 8):
        res = infonce_loss(e1, e1, np.repeat(e1[:1], k, axis=0), 0.2)
        assert abs(res.contrast - math.log(k + 1)) < 1e-12

    # (c) all mixed logits equal -> log(B+K) for any lambda
    for b, k in ((4, 4), (4, 0), (6, 12)):
        keys = np.repeat(e1[:1], b, axis=0)
        queue = np.repeat(e1[:1], k, axis=0) if k else np.zeros((0, 3))
        mixed = np.repeat(e1[:1], b // 2, axis=0)
        for lam_value in (0.5, 0.123, 0.987):
            lam = np.full(b // 2, lam_value)
            res = mixed_query_loss(mixed, keys, queue, lam, 0.05)
            assert abs(res.mixed - math.log(b + k)) < 1e-12

    # (d) cross-entropy loss vs the KL reference on the same logits
    keys = unit_rows(rng, 6, 4)
    queue = unit_rows(rng, 6, 4)
    mixed = unit_rows(rng, 3, 4)
    lam = rng.uniform(0.05, 0.95, 3)
    ce = contrast(keys[:0], keys, queue, 1.0, mixed, lam, 0.05)
    logits = build_mixed_logits(mixed, keys, queue, 0.05)
    kl, kl_grad_logits = kl_direct(logits, build_mixed_targets(lam, 6, 6))
    kl_grad = np.array(kl_grad_logits) @ np.concatenate([keys, queue]) / 0.05
    mean_entropy = -np.mean(lam * np.log(lam) + (1.0 - lam) * np.log(1.0 - lam))
    assert abs((ce.mixed - kl) - mean_entropy) < 1e-10
    assert np.abs(ce.grad - kl_grad).max() <= 1e-12

    print("\nACCEPTANCE loss-identities: PASS (a-d)")


def test_state_machine_suite():
    """EMA convexity after every update over a training-like trajectory,
    tagged-probe FIFO order across 3 full wraps, the key-encoder no-gradient
    guarantee, and bit-exact checkpoint round trips."""
    rng = seeded_rng(21)

    # EMA convexity after every momentum_update while the query params move
    state = init_moco([6, 8, 4], 8, 0.999, rng)
    velocity = np.zeros_like(state.query.vector)
    for step in range(40):
        grads = rng.normal(size=velocity.shape)
        state.query, velocity = apply_sgd_step(state.query, grads, 0.05, 0.9, 1e-4, velocity)
        before = [k.copy() for k in state.key.weights + state.key.biases]
        momentum_update(state)
        for old, new, q in zip(
            before,
            state.key.weights + state.key.biases,
            state.query.weights + state.query.biases,
        ):
            assert ((new >= np.minimum(old, q)) & (new <= np.maximum(old, q))).all()

    # FIFO tagged probes across 3 full wraps
    k, b, c = 8, 2, 4
    state = init_moco([3, 4, c], k, 0.9, seeded_rng(22))
    history = []
    for tag in range(3 * (k // b)):
        rows = np.zeros((b, c))
        rows[:, 0] = 1.0
        rows[:, 1] = (tag + 1) / 100.0
        history.append(rows)
        enqueue_dequeue(state, rows)
        survivors = history[-(k // b):]
        rolled = np.roll(state.queue, -state.queue_ptr, axis=0)
        if len(survivors) == k // b:
            assert np.array_equal(rolled, np.concatenate(survivors))

    # no gradient path: perturbing key params changes the loss...
    state = init_moco([6, 8, 4], 8, 0.999, seeded_rng(23))
    x = seeded_rng(24).normal(size=(4, 6))
    queries = unit_rows(seeded_rng(25), 4, 4)
    base = infonce_loss(queries, key_forward_no_grad(state, x), state.queue, 0.2).contrast
    state.key.weights[0][0, 0] += 1e-3
    bumped = infonce_loss(queries, key_forward_no_grad(state, x), state.queue, 0.2).contrast
    assert bumped != base
    # ...but a full training run with a frozen EMA never moves the key params
    ds = generate_spoke_clusters(4, 4, 10, 8, 8.0, 1.3, 0.5, seeded_rng(26))
    cfg = RunConfig(mode="moco+mix", batch_size=16, queue_size=32, epochs=2, seed=0,
                    input_dim=8, hidden_dims=(8,), embed_dim=8, ema_momentum=1.0,
                    noise_sigma=0.5, mask_fraction=0.0, scale_min=1.0, scale_max=1.0)
    result = pretrain(cfg, ds)
    fresh = init_encoder([8, 8, 8], np.random.default_rng(np.random.SeedSequence(0).spawn(4)[0]))
    assert np.array_equal(result.moco_state.key.vector, fresh.vector)
    assert not np.array_equal(result.moco_state.query.vector, fresh.vector)

    # checkpoint round trips, bit for bit
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        enc_path = os.path.join(tmp, "enc.txt")
        params = init_encoder([5, 7, 3], seeded_rng(27))
        for w in params.weights:
            w /= 3.0
        save_encoder(params, enc_path, seed=4)
        loaded, seed = load_encoder(enc_path)
        assert seed == 4
        assert np.array_equal(loaded.vector, params.vector)

        moco_path = os.path.join(tmp, "moco.txt")
        save_moco(result.moco_state, moco_path, seed=9)
        loaded_state, seed = load_moco(moco_path)
        assert seed == 9
        assert loaded_state.queue_ptr == result.moco_state.queue_ptr
        assert np.array_equal(loaded_state.queue, result.moco_state.queue)
        assert np.array_equal(
            loaded_state.query.vector, result.moco_state.query.vector)
        assert np.array_equal(
            loaded_state.key.vector, result.moco_state.key.vector)

    print("\nACCEPTANCE state-machine: PASS (EMA hull, FIFO x3 wraps, no-grad, checkpoints)")


def test_determinism(tmp_path):
    """Identical config and seed give bitwise-identical metrics logs and
    checkpoints (wall-clock seconds excluded from the comparison)."""
    ds = generate_spoke_clusters(6, 5, 12, 12, 8.0, 1.3, 0.5, seeded_rng(31))
    cfg = RunConfig(mode="moco+mix", batch_size=20, queue_size=60, epochs=3, seed=5,
                    input_dim=12, hidden_dims=(16,), embed_dim=8,
                    noise_sigma=0.5, mask_fraction=0.1, scale_min=0.9, scale_max=1.1)
    paths = []
    for tag in ("a", "b"):
        result = pretrain(cfg, ds)
        ckpt = tmp_path / f"ckpt-{tag}.txt"
        metrics = tmp_path / f"metrics-{tag}.csv"
        save_moco(result.moco_state, ckpt, seed=cfg.seed)
        write_metrics(result.metrics, metrics)
        paths.append((ckpt, metrics))
    assert paths[0][0].read_text() == paths[1][0].read_text()
    strip_seconds = lambda p: [",".join(line.split(",")[:-1])
                               for line in p.read_text().splitlines()]
    assert strip_seconds(paths[0][1]) == strip_seconds(paths[1][1])
    print("\nACCEPTANCE determinism: PASS (checkpoints and metrics bitwise)")


@pytest.mark.slow
def test_desk_scale_learning():
    """10-class D=20 synthetic dataset, [20, 64, 64] MLP, B=64, K=512, 50
    epochs: (a) the training loss falls from epoch 1 to the final epoch for
    every seed; (b) the pretrained encoder beats a randomly initialized one
    by >= 10 accuracy points under the linear probe, every seed; (c) across 5
    seeds, mean probe accuracy with the mixed term is within 0.5 points of or
    above the no-mix mean, and its mean Davies-Bouldin index is no worse."""
    started = time.perf_counter()
    ds = generate_spoke_clusters(10, 10, 50, 20, 8.0, 1.3, 0.5, seeded_rng(7))
    assert ds.sample_count == 5000 and ds.dim == 20 and ds.class_count == 10
    train, test = split_dataset(ds, 0.8, seeded_rng(100))

    acc_mixed, acc_plain, db_mixed, db_plain = [], [], [], []
    for seed in range(5):
        per_arm = {}
        for mix_weight in (1.0, 0.0):
            cfg = RunConfig(
                mode="moco+mix", batch_size=64, queue_size=512, epochs=50, seed=seed,
                input_dim=20, hidden_dims=(64,), embed_dim=64, lr=0.03,
                mix_weight=mix_weight, temperature=0.2, mix_temperature=0.05,
                noise_sigma=0.5, mask_fraction=0.0, scale_min=1.0, scale_max=1.0,
            )
            result = pretrain(cfg, ds)
            # (a) loss decreases over the run
            assert result.metrics[-1].l_total < result.metrics[0].l_total, (
                f"seed {seed} mix_weight {mix_weight}: loss did not decrease")
            accuracy = linear_eval(result.encoder, train, test, epochs=100, lr0=3.0,
                                   batch_size=64, rng=seeded_rng(seed + 50))
            embeddings, _ = encode(result.encoder, ds.features)
            per_arm[mix_weight] = (accuracy, davies_bouldin(embeddings, ds.labels))

        random_encoder = init_encoder([20, 64, 64], seeded_rng(1000 + seed))
        random_accuracy = linear_eval(random_encoder, train, test, epochs=100, lr0=3.0,
                                      batch_size=64, rng=seeded_rng(seed + 50))
        gap = per_arm[1.0][0] - random_accuracy
        print(f"seed {seed}: mixed {per_arm[1.0][0]:.3f} (DB {per_arm[1.0][1]:.2f}) | "
              f"plain {per_arm[0.0][0]:.3f} (DB {per_arm[0.0][1]:.2f}) | "
              f"random {random_accuracy:.3f} | gap {gap:+.3f}")
        # (b) >= 10 point gap over the random encoder, every seed
        assert gap >= 0.10, f"seed {seed}: gap {gap:.3f} below 10 points"
        acc_mixed.append(per_arm[1.0][0])
        acc_plain.append(per_arm[0.0][0])
        db_mixed.append(per_arm[1.0][1])
        db_plain.append(per_arm[0.0][1])

    # (c) directional check, soft-gated at the stated tolerances
    mean_mixed, mean_plain = np.mean(acc_mixed), np.mean(acc_plain)
    mean_db_mixed, mean_db_plain = np.mean(db_mixed), np.mean(db_plain)
    print(f"means: accuracy mixed {mean_mixed:.4f} vs plain {mean_plain:.4f}; "
          f"DB mixed {mean_db_mixed:.3f} vs plain {mean_db_plain:.3f}")
    assert mean_mixed >= mean_plain - 0.005, (
        f"mixed mean {mean_mixed:.4f} more than 0.5 points below plain {mean_plain:.4f}")
    assert mean_db_mixed <= mean_db_plain, (
        f"mixed DB {mean_db_mixed:.3f} worse than plain {mean_db_plain:.3f}")

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"desk-scale check took {elapsed:.0f}s"
    print(f"ACCEPTANCE desk-scale-learning: PASS (a, b, c in {elapsed:.0f}s)")


def test_cluster_metrics():
    """Both indices agree with brute-force scalar implementations within
    1e-10, and well-separated tight clusters score a lower Davies-Bouldin
    index than the same points with shuffled labels, for every seed."""
    for seed in range(5):
        rng = seeded_rng(400 + seed)
        n = int(rng.integers(30, 200))
        k = int(rng.integers(2, 6))
        emb = rng.normal(size=(n, 5)) * 2.0
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        assert davies_bouldin(emb, labels) == pytest.approx(
            davies_bouldin_direct(emb.tolist(), labels.tolist()), rel=0, abs=1e-10)
        assert calinski_harabasz(emb, labels) == pytest.approx(
            calinski_harabasz_direct(emb.tolist(), labels.tolist()), rel=0, abs=1e-10)

        # two tight, well-separated clusters vs shuffled labels
        tight = np.concatenate([
            rng.normal(size=(40, 3)) * 0.2,
            rng.normal(size=(40, 3)) * 0.2 + 10.0,
        ])
        true_labels = np.repeat([0, 1], 40)
        shuffled = rng.permutation(true_labels)
        assert davies_bouldin(tight, true_labels) < davies_bouldin(tight, shuffled), (
            f"seed {seed}: separated clusters did not beat shuffled labels")
    print("\nACCEPTANCE cluster-metrics: PASS (oracle agreement and separation ordering)")
