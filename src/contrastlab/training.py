"""Pretraining loop, linear-probe evaluation, cluster-validity indices, and
embedding export.

One run owns all mutable state; everything is deterministic given the config
seed. Four independent child streams are derived from it (init, batching,
augmentation, mixing) so ablations that skip the mixing path leave the other
streams untouched.
"""

import math
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .contrastive import (
    infonce_loss,
    mixed_query_loss,
    mixup_half_batch,
    simclr_contrastive_loss,
    total_loss,
)
from .data import AugmentConfig, Dataset, epoch_batches, two_views
from .encoder import (
    EncoderParams,
    add_scaled,
    apply_sgd_step,
    encode,
    encoder_backward,
    init_encoder,
)
from .errors import ConfigurationError, DivergedRunError, DomainError
from .fileio import float_line
from .moco import MoCoState, enqueue_dequeue, init_moco, key_forward_no_grad, momentum_update
from .numerics import Tensor, as_matrix, seeded_rng, spawn_rngs

MODES = ("moco", "moco+mix", "simclr", "simclr+mix")


@dataclass
class RunConfig:
    """Every scalar a pretraining run depends on.

    Defaults follow the desk-scale setup: a [20, 64, 64] MLP, temperature
    0.2, mix temperature 0.05, mix weight 1, EMA momentum 0.999.
    """

    mode: str = "moco+mix"
    batch_size: int = 64
    queue_size: int = 1024
    input_dim: int = 20
    hidden_dims: tuple[int, ...] = (64,)
    embed_dim: int = 64
    epochs: int = 50
    lr: float = 0.05
    lr_schedule: str = "cosine"
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    ema_momentum: float = 0.999
    temperature: float = 0.2
    mix_temperature: float = 0.05
    mix_weight: float = 1.0
    noise_sigma: float = 1.0
    mask_fraction: float = 0.1
    scale_min: float = 0.9
    scale_max: float = 1.1
    seed: int = 0

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 2 or self.batch_size % 2:
            raise ConfigurationError(f"batch_size must be even and >= 2, got {self.batch_size}")
        if self.uses_queue:
            if self.queue_size < self.batch_size or self.queue_size % self.batch_size:
                raise ConfigurationError(
                    f"queue_size must be a positive multiple of batch_size, got "
                    f"{self.queue_size} with batch_size {self.batch_size}"
                )
        elif self.queue_size != 0:
            raise ConfigurationError(
                f"queue_size must be 0 in mode {self.mode!r}, got {self.queue_size}"
            )
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr < 0.0:
            raise ConfigurationError(f"lr must be >= 0, got {self.lr}")
        if self.lr_schedule not in ("cosine", "constant"):
            raise ConfigurationError(f"lr_schedule must be cosine or constant, got {self.lr_schedule!r}")
        if self.temperature <= 0.0 or self.mix_temperature <= 0.0:
            raise ConfigurationError("temperatures must be positive")
        if self.mix_weight < 0.0:
            raise ConfigurationError(f"mix_weight must be >= 0, got {self.mix_weight}")
        if not 0.0 <= self.ema_momentum <= 1.0:
            raise ConfigurationError(f"ema_momentum must be in [0, 1], got {self.ema_momentum}")

    @property
    def uses_queue(self) -> bool:
        return self.mode.startswith("moco")

    @property
    def mixes(self) -> bool:
        return self.mode.endswith("+mix")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden_dims, self.embed_dim]

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(self.noise_sigma, self.mask_fraction, (self.scale_min, self.scale_max))


@dataclass
class MetricsRecord:
    """Per-epoch means of the loss terms plus the learning rate used."""

    epoch: int
    l_contrast: float
    l_mixed: float
    l_total: float
    lr: float
    seconds: float


METRICS_FIELDS = [f.name for f in fields(MetricsRecord)]


@dataclass
class PretrainResult:
    encoder: EncoderParams
    metrics: list[MetricsRecord]
    moco_state: MoCoState | None  # None in simclr modes


def epoch_lr(config: RunConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch; cosine decays to 0 over the run."""
    if config.lr_schedule == "constant":
        return config.lr
    return config.lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - 1) / config.epochs))


def pretrain(config: RunConfig, dataset: Dataset) -> PretrainResult:
    """Run the full self-supervised loop and return the trained query encoder.

    Labels are never read; the loop sees only the feature matrix.
    """
    if dataset.dim != config.input_dim:
        raise ConfigurationError(
            f"dataset dim {dataset.dim} != configured input_dim {config.input_dim}"
        )
    return _pretrain_features(config, dataset.features)


def _loss_and_grads(config, params, state, x_query, x_key, mix_rng, empty_queue):
    """Loss terms, query-encoder gradients, and keys for one batch."""
    v_query, trace_query = encode(params, x_query)
    if config.mixes:
        x_mix, lambdas = mixup_half_batch(x_query, mix_rng)

    if config.uses_queue:
        keys = key_forward_no_grad(state, x_key)
        contrast = infonce_loss(v_query, keys, state.queue, config.temperature)
        grads, _ = encoder_backward(params, trace_query, contrast.grad)
        queue_for_mix = state.queue
    else:
        keys, trace_keys = encode(params, x_key)
        contrast = simclr_contrastive_loss(v_query, keys, config.temperature)
        grads, _ = encoder_backward(params, trace_query, contrast.grad_queries)
        key_grads, _ = encoder_backward(params, trace_keys, contrast.grad_keys)
        grads = add_scaled(grads, key_grads, 1.0)
        queue_for_mix = empty_queue

    l_mix = 0.0
    if config.mixes:
        v_mixed, trace_mixed = encode(params, x_mix)
        mix = mixed_query_loss(v_mixed, keys, queue_for_mix, lambdas, config.mix_temperature)
        l_mix = mix.value
        if config.mix_weight != 0.0:
            mix_grads, _ = encoder_backward(params, trace_mixed, mix.grad)
            grads = add_scaled(grads, mix_grads, config.mix_weight)
    return contrast.value, l_mix, grads, keys


def _pretrain_features(config: RunConfig, features: Tensor) -> PretrainResult:
    features = as_matrix(features, "features")
    n = features.shape[0]
    if config.batch_size > n:
        raise ConfigurationError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    init_rng, batch_rng, augment_rng, mix_rng = spawn_rngs(config.seed, 4)
    aug_cfg = config.augment_config()

    state: MoCoState | None = None
    if config.uses_queue:
        state = init_moco(config.layer_sizes, config.queue_size, config.ema_momentum, init_rng)
        params = state.query
    else:
        params = init_encoder(config.layer_sizes, init_rng)
    velocity = np.zeros_like(params.vector)

    empty_queue = np.zeros((0, config.embed_dim))
    records: list[MetricsRecord] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        lr_now = epoch_lr(config, epoch)
        sum_contrast = sum_mix = sum_total = 0.0
        batches = epoch_batches(n, config.batch_size, batch_rng)
        for batch_index, idx in enumerate(batches):
            x_query, x_key = two_views(features[idx], aug_cfg, augment_rng)
            # overflow in a diverging run surfaces as DivergedRunError below,
            # not as numpy warnings
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    l_contrast, l_mix, grads, keys = _loss_and_grads(
                        config, params, state, x_query, x_key, mix_rng, empty_queue
                    )
            except DomainError as exc:
                raise DivergedRunError(str(exc), epoch, batch_index) from None

            l_total = total_loss(l_contrast, l_mix, config.mix_weight)
            if not math.isfinite(l_total):
                raise DivergedRunError("non-finite loss", epoch, batch_index)
            try:
                params, velocity = apply_sgd_step(
                    params, grads, lr_now, config.sgd_momentum, config.weight_decay, velocity
                )
            except DivergedRunError:
                raise DivergedRunError("non-finite gradient", epoch, batch_index) from None
            if config.uses_queue:
                state.query = params
                momentum_update(state)
                enqueue_dequeue(state, keys)
            sum_contrast += l_contrast
            sum_mix += l_mix
            sum_total += l_total
        m = len(batches)
        records.append(
            MetricsRecord(
                epoch,
                sum_contrast / m,
                sum_mix / m,
                sum_total / m,
                lr_now,
                time.perf_counter() - started,
            )
        )
    return PretrainResult(params, records, state)


def write_metrics(records: list[MetricsRecord], path) -> None:
    """CSV with a fixed header, one row per epoch."""
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_FIELDS) + "\n")
        for r in records:
            fh.write(
                f"{r.epoch},{r.l_contrast!r},{r.l_mixed!r},{r.l_total!r},{r.lr!r},{r.seconds!r}\n"
            )


# ---------------------------------------------------------------------------
# Linear evaluation
# ---------------------------------------------------------------------------


@dataclass
class LinearProbe:
    weight: Tensor  # (classes, C)
    bias: Tensor  # (classes,)


def train_linear_probe(
    embeddings: Tensor,
    labels: np.ndarray,
    class_count: int,
    epochs: int,
    lr0: float,
    batch_size: int,
    rng: np.random.Generator,
    sgd_momentum: float = 0.9,
) -> LinearProbe:
    """Multinomial logistic regression by minibatch SGD with cosine decay.

    The base rate is lr0 * batch_size / 256, matching the convention of
    quoting probe learning rates at reference batch size 256.
    """
    embeddings = as_matrix(embeddings, "embeddings")
    labels = np.asarray(labels, dtype=np.int64)
    n, dim = embeddings.shape
    weight = np.zeros((class_count, dim))
    bias = np.zeros(class_count)
    vel_w = np.zeros_like(weight)
    vel_b = np.zeros_like(bias)
    base_lr = lr0 * batch_size / 256.0
    onehot = np.zeros((n, class_count))
    onehot[np.arange(n), labels] = 1.0
    for epoch in range(epochs):
        lr_now = base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = perm[start : start + batch_size]
            x = embeddings[take]
            logits = x @ weight.T + bias
            shifted = logits - logits.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            g = (e / e.sum(axis=1, keepdims=True) - onehot[take]) / take.size
            vel_w = sgd_momentum * vel_w + g.T @ x
            vel_b = sgd_momentum * vel_b + g.sum(axis=0)
            weight = weight - lr_now * vel_w
            bias = bias - lr_now * vel_b
    return LinearProbe(weight, bias)


def probe_accuracy(probe: LinearProbe, embeddings: Tensor, labels: np.ndarray) -> float:
    logits = as_matrix(embeddings) @ probe.weight.T + probe.bias
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())


def linear_eval(
    encoder: EncoderParams,
    train: Dataset,
    test: Dataset,
    epochs: int = 100,
    lr0: float = 3.0,
    batch_size: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Freeze the encoder, fit a linear classifier on its embeddings, and
    return top-1 accuracy on the test split."""
    if rng is None:
        rng = seeded_rng(0)
    present = np.unique(train.labels)
    if present.size != train.class_count:
        missing = sorted(set(range(train.class_count)) - set(present.tolist()))
        raise ConfigurationError(f"classes missing from the train split: {missing}")
    train_emb, _ = encode(encoder, train.features)
    probe = train_linear_probe(
        train_emb, train.labels, train.class_count, epochs, lr0, batch_size, rng
    )
    test_emb, _ = encode(encoder, test.features)
    return probe_accuracy(probe, test_emb, test.labels)


# ---------------------------------------------------------------------------
# Cluster-validity indices
# ---------------------------------------------------------------------------


def _cluster_stats(embeddings: Tensor, labels: np.ndarray):
    embeddings = as_matrix(embeddings, "embeddings")
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ConfigurationError(f"need >= 2 nonempty classes, got {classes.size}")
    centroids = np.stack([embeddings[labels == c].mean(axis=0) for c in classes])
    return embeddings, labels, classes, centroids


def davies_bouldin(embeddings: Tensor, labels: np.ndarray) -> float:
    """Davies-Bouldin index (lower is better): mean over clusters of the worst
    (scatter_i + scatter_j) / centroid-distance ratio.

    Scatter is the mean Euclidean distance to the centroid. Coincident
    centroids make the ratio undefined; that returns +inf with a warning.
    """
    embeddings, labels, classes, centroids = _cluster_stats(embeddings, labels)
    k = classes.size
    scatter = np.array(
        [
            np.sqrt(((embeddings[labels == c] - centroids[i]) ** 2).sum(axis=1)).mean()
            for i, c in enumerate(classes)
        ]
    )
    diff = centroids[:, None, :] - centroids[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    off_diagonal = ~np.eye(k, dtype=bool)
    if (dist[off_diagonal] == 0.0).any():
        warnings.warn("coincident centroids: Davies-Bouldin undefined", RuntimeWarning)
        return math.inf
    ratio = (scatter[:, None] + scatter[None, :]) / np.where(off_diagonal, dist, math.inf)
    return float(ratio.max(axis=1).mean())


def calinski_harabasz(embeddings: Tensor, labels: np.ndarray) -> float:
    """Calinski-Harabasz index (higher is better): between-cluster over
    within-cluster dispersion, each scaled by its degrees of freedom.

    Zero within-cluster dispersion returns +inf with a warning.
    """
    embeddings, labels, classes, centroids = _cluster_stats(embeddings, labels)
    n, k = embeddings.shape[0], classes.size
    if k >= n:
        raise ConfigurationError(f"need fewer classes than samples, got {k} of {n}")
    mean = embeddings.mean(axis=0)
    counts = np.array([(labels == c).sum() for c in classes])
    between = float((counts * ((centroids - mean) ** 2).sum(axis=1)).sum())
    within = float(
        sum(((embeddings[labels == c] - centroids[i]) ** 2).sum() for i, c in enumerate(classes))
    )
    if within == 0.0:
        warnings.warn("zero within-cluster dispersion: Calinski-Harabasz undefined", RuntimeWarning)
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


# ---------------------------------------------------------------------------
# Embedding export
# ---------------------------------------------------------------------------


def export_embeddings(encoder: EncoderParams, dataset: Dataset, path) -> None:
    """One text row per sample: label then the embedding coordinates, written
    so a reparse recovers the exact float64 values."""
    v, _ = encode(encoder, dataset.features)
    with open(path, "w") as fh:
        fh.write("label " + " ".join(f"v{j}" for j in range(v.shape[1])) + "\n")
        for label, row in zip(dataset.labels, v):
            fh.write(f"{int(label)} {float_line(row)}\n")
