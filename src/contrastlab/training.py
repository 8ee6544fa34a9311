"""Pretraining loop, linear-probe evaluation, cluster-validity indices, and
embedding export.

One run owns all mutable state; everything is deterministic given the config
seed. Four independent child streams are derived from it (init, batching,
augmentation, mixing) so ablations that skip the mixing path leave the other
streams untouched.
"""

import math
import os
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .contrastive import contrast, mixup_half_batch
from .data import Dataset, epoch_batches, two_views
from .encoder import (
    EncoderParams,
    apply_sgd_step,
    embed,
    encode,
    encoder_backward,
    init_encoder,
)
from .errors import ConfigurationError, DivergedRunError
from .fileio import atomic_write, float_line, write_in_parts
from .moco import MoCoState, enqueue_dequeue, init_moco, key_forward_no_grad, momentum_update
from .numerics import Tensor, as_matrix, fits_one_array, single_blas_thread, spawn_rngs

MODES = ("moco", "moco+mix", "simclr", "simclr+mix")


def _check_rules(config, rules) -> None:
    """Raise ConfigurationError for the first rule (key, ok, requirement)
    whose `ok` is false, as "<key> must be <requirement>, got <value>"."""
    for key, ok, rule in rules:
        if not ok:
            raise ConfigurationError(f"{key} must be {rule}, got {getattr(config, key)!r}")


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
        q, b = self.queue_size, self.batch_size
        # written so that NaN, which fails every comparison, fails each check
        _check_rules(self, (
            ("mode", self.mode in MODES, f"one of {MODES}"),
            ("batch_size", b >= 2 and b % 2 == 0, "even and >= 2"),
            ("queue_size", not self.uses_queue or q >= b > 0 and q % b == 0,
             f"a positive multiple of batch_size {b}"),
            ("queue_size", self.uses_queue or q == 0, f"0 in mode {self.mode!r}"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("lr_schedule", self.lr_schedule in ("cosine", "constant"), "cosine or constant"),
            ("input_dim", self.input_dim >= 1, ">= 1"),
            ("hidden_dims", all(h >= 1 for h in self.hidden_dims), ">= 1 in every entry"),
            ("embed_dim", self.embed_dim >= 1, ">= 1"),
            ("lr", 0.0 <= self.lr < math.inf, "finite and >= 0"),
            ("sgd_momentum", 0.0 <= self.sgd_momentum < 1.0, "in [0, 1)"),
            ("weight_decay", 0.0 <= self.weight_decay < math.inf, "finite and >= 0"),
            ("ema_momentum", 0.0 <= self.ema_momentum <= 1.0, "in [0, 1]"),
            ("temperature", 0.0 < self.temperature < math.inf, "finite and > 0"),
            ("mix_temperature", 0.0 < self.mix_temperature < math.inf, "finite and > 0"),
            ("mix_weight", 0.0 <= self.mix_weight < math.inf, "finite and >= 0"),
            ("noise_sigma", 0.0 <= self.noise_sigma < math.inf, "finite and >= 0"),
            # _augment zeroes round(mask_fraction * input_dim) coordinates per row
            ("mask_fraction", 0.0 <= self.mask_fraction < 1.0
             and int(round(self.mask_fraction * self.input_dim)) < self.input_dim,
             "in [0, 1) and mask fewer than input_dim coordinates"),
            ("scale_min", 0.0 < self.scale_min < math.inf, "finite and > 0"),
            ("scale_max", self.scale_min <= self.scale_max < math.inf, "finite and >= scale_min"),
            ("seed", self.seed >= 0, ">= 0"),
        ))
        sizes = self.layer_sizes
        params = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes, sizes[1:]))
        if not fits_one_array(params):
            raise ConfigurationError(
                f"layer sizes {sizes} make {params} parameters, more than one array can hold")
        if not fits_one_array(self.queue_size * self.embed_dim):
            raise ConfigurationError(
                f"queue_size {self.queue_size} x embed_dim {self.embed_dim} is more values "
                "than one array can hold")

    @property
    def uses_queue(self) -> bool:
        return self.mode.startswith("moco")

    @property
    def mixes(self) -> bool:
        return self.mode.endswith("+mix")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden_dims, self.embed_dim]

    def require_fits(self, dataset: Dataset) -> None:
        """Raise ConfigurationError unless `dataset` is input_dim wide and holds a batch."""
        if dataset.dim != self.input_dim:
            raise ConfigurationError(
                f"dataset dim {dataset.dim} != configured input_dim {self.input_dim}")
        if self.batch_size > dataset.sample_count:
            raise ConfigurationError(
                f"batch_size {self.batch_size} exceeds dataset size {dataset.sample_count}")


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


def _cosine(base: float, done: int, total: int) -> float:
    """The cosine learning rate of pretraining and of the linear probe: `base`
    after no epoch is done, decaying to 0 when all `total` are."""
    return base * 0.5 * (1.0 + math.cos(math.pi * done / total))


@single_blas_thread()
def pretrain(config: RunConfig, dataset: Dataset) -> PretrainResult:
    """Run the full self-supervised loop and return the trained query encoder.

    Labels are never read; the loop sees only the feature matrix. BLAS runs
    on one thread for the duration (see `numerics.single_blas_thread`): on a
    2-core machine a K=4096, C=64 step took 14-18% longer than on two BLAS
    threads, on about 60% of their CPU time, and a second thread of the
    loop's own, computing half of each step's loss rows, was slower still.
    Results do not depend on the count.
    """
    config.require_fits(dataset)
    features, n = dataset.features, dataset.sample_count
    init_rng, batch_rng, augment_rng, mix_rng = spawn_rngs(config.seed, 4)

    state: MoCoState | None = None
    if config.uses_queue:
        state = init_moco(config.layer_sizes, config.queue_size, config.ema_momentum, init_rng)
        params = state.query
    else:
        params = init_encoder(config.layer_sizes, init_rng)
    velocity = np.zeros_like(params.vector)

    records: list[MetricsRecord] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        lr_now = (config.lr if config.lr_schedule == "constant"
                  else _cosine(config.lr, epoch - 1, config.epochs))
        sum_contrast = sum_mix = sum_total = 0.0
        batches = epoch_batches(n, config.batch_size, batch_rng)
        for batch_index, idx in enumerate(batches):
            x_query, x_key = two_views(features[idx], config.noise_sigma, config.mask_fraction,
                                       config.scale_min, config.scale_max, augment_rng)
            # overflow in a diverging run surfaces as DivergedRunError below,
            # not as numpy warnings
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    l_contrast, l_mix, grads, keys = _loss_and_grads(
                        config, params, state, x_query, x_key, mix_rng
                    )
                l_total = l_contrast + config.mix_weight * l_mix
                if not math.isfinite(l_total):
                    raise DivergedRunError("non-finite loss")
                apply_sgd_step(
                    params, grads, lr_now, config.sgd_momentum, config.weight_decay, velocity
                )
            except DivergedRunError as exc:
                raise DivergedRunError(str(exc), epoch, batch_index) from None
            if config.uses_queue:
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


def _loss_and_grads(config, params, state, x_query, x_key, mix_rng):
    """Loss terms, query-encoder gradients, and keys for one batch.

    Every row that takes a gradient goes through the encoder once, in one
    batch, and back in one pass: [x_query; x_mix] in the moco modes, where
    the keys come from the EMA encoder, and [x_query; x_key; x_mix] in the
    simclr modes, where both views train. Both loss terms come from one
    `contrastive.contrast` call in every mode; it scales the mixed term's
    gradients by mix_weight. The only per-mode choices are where the keys
    come from and whether their gradient joins the upstream. None of the
    functions called here checks its operands: `RunConfig` and the dataset
    have checked them.
    """
    b = x_query.shape[0]
    x = x_query if config.uses_queue else np.concatenate([x_query, x_key])
    lambdas = np.empty(0)
    if config.mixes:
        x_mix, lambdas = mixup_half_batch(x_query, mix_rng)
        x = np.concatenate([x, x_mix])
    v, trace = encode(params, x)
    if config.uses_queue:
        keys, queue, mixed = key_forward_no_grad(state, x_key), state.queue, v[b:]
    else:
        keys, queue, mixed = v[b : 2 * b], None, v[2 * b :]
    res = contrast(v[:b], keys, queue, config.temperature, mixed, lambdas,
                   config.mix_temperature, config.mix_weight)
    upstream = res.grad
    if res.grad_keys is not None:
        upstream = np.concatenate([res.grad[:b], res.grad_keys, res.grad[b:]])
    grads = encoder_backward(params, trace, upstream)
    return res.contrast, res.mixed, grads, keys


def write_metrics(records: list[MetricsRecord], path) -> None:
    """CSV with a fixed header, one row per epoch."""
    with atomic_write(path) as fh:
        fh.write(",".join(METRICS_FIELDS) + "\n")
        for r in records:
            fh.write(",".join(repr(getattr(r, f)) for f in METRICS_FIELDS) + "\n")


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
) -> LinearProbe:
    """Multinomial logistic regression by minibatch SGD with cosine decay.

    The base rate is lr0 * batch_size / 256, matching the convention of
    quoting probe learning rates at reference batch size 256. Momentum is 0.9.
    """
    embeddings = as_matrix(embeddings, "embeddings")
    labels = np.asarray(labels, dtype=np.int64)
    n, dim = embeddings.shape
    # weight and bias are views into one flat vector, and so are the
    # velocity and gradient blocks: the update runs once over each vector
    size = class_count * dim
    params, velocity, grads, step = np.zeros((4, size + class_count))
    weight, grad_w = params[:size].reshape(class_count, dim), grads[:size].reshape(class_count, dim)
    bias, grad_b = params[size:], grads[size:]
    base_lr = lr0 * batch_size / 256.0
    for epoch in range(epochs):
        lr_now = _cosine(base_lr, epoch, epochs)
        perm = rng.permutation(n)
        # the epoch's one-hot targets in batch order; subtracting their 0.0
        # entries leaves a softmax entry unchanged
        targets = np.eye(class_count)[labels[perm]]
        for start in range(0, n, batch_size):
            take = perm[start : start + batch_size]
            m = take.size
            x = embeddings[take]
            # logits, then softmax, then the gradient, in one buffer
            g = x @ weight.T
            g += bias
            g -= np.maximum.reduce(g, axis=1, keepdims=True)
            np.exp(g, out=g)
            g /= np.add.reduce(g, axis=1, keepdims=True)
            g -= targets[start : start + m]
            g /= m
            np.matmul(g.T, x, out=grad_w)
            np.add.reduce(g, axis=0, out=grad_b)
            velocity *= 0.9
            velocity += grads
            np.multiply(velocity, lr_now, out=step)
            params -= step
    return LinearProbe(weight, bias)


def probe_accuracy(probe: LinearProbe, embeddings: Tensor, labels: np.ndarray) -> float:
    logits = as_matrix(embeddings) @ probe.weight.T + probe.bias
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())


def linear_eval(
    encoder: EncoderParams,
    train: Dataset,
    test: Dataset,
    epochs: int,
    lr0: float,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """Freeze the encoder, fit a linear classifier on its embeddings, and
    return top-1 accuracy on the test split."""
    # np.bincount here and in _cluster_stats, not np.unique: np.unique imports
    # numpy.ma (over 10 ms and ~1.25 MB of RSS, kept until the process ends),
    # which no command uses
    counts = np.bincount(train.labels, minlength=train.class_count)
    if not counts.all():
        missing = np.flatnonzero(counts == 0).tolist()
        raise ConfigurationError(f"classes missing from the train split: {missing}")
    # unbound, the train embeddings are freed before the test split is embedded
    probe = train_linear_probe(embed(encoder, train.features), train.labels,
                               train.class_count, epochs, lr0, batch_size, rng)
    return probe_accuracy(probe, embed(encoder, test.features), test.labels)


# ---------------------------------------------------------------------------
# Cluster-validity indices
# ---------------------------------------------------------------------------


def _cluster_stats(embeddings: Tensor, labels: np.ndarray):
    embeddings = as_matrix(embeddings, "embeddings")
    labels = np.asarray(labels)
    classes = np.flatnonzero(np.bincount(labels))
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


# an export starts at most one part per this many rows, rounded up: a helper's
# fork and join cost a few ms, and 1024 rows of 64 floats take ~50 ms to format
MIN_ROWS_PER_PART = 1024


def export_embeddings(encoder: EncoderParams, dataset: Dataset, path) -> None:
    """One text row per sample: label then the embedding coordinates, written
    so a reparse recovers the exact float64 values.

    The rows are split into contiguous parts, one per CPU this process may
    run on (`os.cpu_count()` where the OS cannot say which) but at most
    ceil(N / MIN_ROWS_PER_PART), and formatted at the same time
    (`fileio.write_in_parts`). The file's bytes do not depend on the part
    count.
    """
    v = embed(encoder, dataset.features)

    def write_rows(fh, lo, hi):
        for label, row in zip(dataset.labels[lo:hi], v[lo:hi]):
            fh.write(f"{int(label)} {float_line(row)}\n")

    n = len(v)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    parts = max(1, min(cpus, -(-n // MIN_ROWS_PER_PART)))
    with atomic_write(path) as fh:
        fh.write("label " + " ".join(f"v{j}" for j in range(v.shape[1])) + "\n")
        write_in_parts(fh, path, [n * i // parts for i in range(parts + 1)], write_rows)
