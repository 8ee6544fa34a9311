"""Pretraining loop, linear-probe evaluation, cluster-validity indices, and
embedding export.

One run owns all mutable state; everything is deterministic given the config
seed. Four independent child streams are derived from it (init, batching,
augmentation, mixing) so ablations that skip the mixing path leave the other
streams untouched.
"""

import contextlib
import math
import os
import queue
import threading
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
from .numerics import Tensor, fits_one_array, single_blas_thread, spawn_rngs

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


def _cpus() -> int:
    """The CPUs this process may run on, or `os.cpu_count()` where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# A queue run splits each step's contrast rows over a second thread once
# queue_size x embed_dim reaches SPLIT_MIN_QUEUE_VALUES, the smallest size
# at which the split ran faster in 10 of 10 desk-data pairs in both moco
# modes, and a step has at least SPLIT_MIN_ROWS contrast rows. Each half's
# queue products then make at least 16 x 2^18 = 2^22 multiply-adds. OpenBLAS
# computes a product of up to 1e6 in its small-matrix kernel and a one-row
# product as gemv, and either rounds differently from the blocked kernel that
# the whole product takes, so smaller halves could change the step's bits.
SPLIT_MIN_QUEUE_VALUES = 4096 * 64
SPLIT_MIN_ROWS = 32


@contextlib.contextmanager
def _contrast_helper(config: RunConfig):
    """Yield None, or for a run that splits its steps (SPLIT_MIN_QUEUE_VALUES,
    SPLIT_MIN_ROWS) in a process that may run on 2 CPUs or more, `contrast`'s
    helper(here, there): it runs `there` on a second thread while the caller
    runs `here`, waits for both and raises what either raised. The thread
    lives as long as the block and is joined when the block ends, however it
    ends. It takes its jobs through a `queue.SimpleQueue`, and enters the
    loop's numpy error state itself, because that state is per thread."""
    rows = config.batch_size + (config.batch_size // 2 if config.mixes else 0)
    if not (config.uses_queue and _cpus() >= 2 and rows >= SPLIT_MIN_ROWS
            and config.queue_size * config.embed_dim >= SPLIT_MIN_QUEUE_VALUES):
        yield None
        return
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        with np.errstate(over="ignore", invalid="ignore"):
            for job in iter(jobs.get, None):
                error = None
                try:
                    job()
                except BaseException as exc:  # raised again in the caller
                    error = exc
                # the job holds the step's logits: let them go before the
                # caller makes the next step's
                del job
                done.put(error)

    def helper(here, there):
        jobs.put(there)
        try:
            here()
        finally:  # `there` writes into the caller's buffers until it is done
            error = done.get()
        if error is not None:
            raise error

    thread = threading.Thread(target=serve, name="contrast-rows")
    thread.start()
    try:
        yield helper
    finally:
        jobs.put(None)
        thread.join()


@single_blas_thread()
def pretrain(config: RunConfig, dataset: Dataset) -> PretrainResult:
    """Run the full self-supervised loop and return the trained query encoder.

    Labels are never read; the loop sees only the feature matrix. BLAS runs
    on one thread for the duration (see `numerics.single_blas_thread`). A
    run whose queue holds at least SPLIT_MIN_QUEUE_VALUES values (queue_size
    x embed_dim) and whose steps have at least SPLIT_MIN_ROWS contrast rows,
    in a process that may run on 2 CPUs or more, splits each step's contrast
    rows in two halves, the second on a helper thread the run owns
    (`_contrast_helper`). There the queue products dominate a step: on a
    2-core machine the split ran K=4096, C=64 steps 1.3-1.4x faster for
    11-17% more CPU time, while at desk size (K=512) it was slower. Results
    do not depend on the BLAS thread count or on the split.
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
    with _contrast_helper(config) as helper:
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            lr_now = (config.lr if config.lr_schedule == "constant"
                      else _cosine(config.lr, epoch - 1, config.epochs))
            sum_contrast = sum_mix = sum_total = 0.0
            batches = epoch_batches(n, config.batch_size, batch_rng)
            for batch_index, idx in enumerate(batches):
                x_query, x_key = two_views(features[idx], config.noise_sigma,
                                           config.mask_fraction, config.scale_min,
                                           config.scale_max, augment_rng)
                # overflow in a diverging run surfaces as DivergedRunError below,
                # not as numpy warnings
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        l_contrast, l_mix, grads, keys = _loss_and_grads(
                            config, params, state, x_query, x_key, mix_rng, helper
                        )
                    l_total = l_contrast + config.mix_weight * l_mix
                    if not math.isfinite(l_total):
                        raise DivergedRunError("non-finite loss")
                    apply_sgd_step(
                        params, grads, lr_now, config.sgd_momentum, config.weight_decay,
                        velocity
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


def _loss_and_grads(config, params, state, x_query, x_key, mix_rng, helper=None):
    """Loss terms, query-encoder gradients, and keys for one batch.

    Every row that takes a gradient goes through the encoder once, in one
    batch, and back in one pass: [x_query; x_mix] in the moco modes, where
    the keys come from the EMA encoder, and [x_query; x_key; x_mix] in the
    simclr modes, where both views train. Both loss terms come from one
    `contrastive.contrast` call in every mode; it scales the mixed term's
    gradients by mix_weight. The only per-mode choices are where the keys
    come from and whether their gradient joins the upstream. `helper`, from
    `_contrast_helper`, goes to `contrast`. None of the functions called
    here checks its operands: `RunConfig` and the dataset have checked
    them.
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
                   config.mix_temperature, config.mix_weight, helper)
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


def train_linear_probe(
    embeddings: Tensor,
    labels: np.ndarray,
    class_count: int,
    epochs: int,
    lr0: float,
    batch_size: int,
    rng: "np.random.Generator",
) -> EncoderParams:
    """Multinomial logistic regression by minibatch SGD with cosine decay
    from base rate lr0 * batch_size / 256 (probe rates are quoted at batch
    size 256) and momentum 0.9, as the one-layer encoder [C, class_count].
    Unchecked: `embed`'s float64 (N, C) `embeddings`, `Dataset`'s int64
    `labels`. A probe that goes non-finite raises DivergedRunError."""
    n, dim = embeddings.shape
    # the gradient, velocity and step share the probe's flat layout
    probe = EncoderParams([dim, class_count], np.zeros(class_count * (dim + 1)))
    grads = EncoderParams(probe.layer_sizes, np.zeros_like(probe.vector))
    velocity, step = np.zeros((2, probe.vector.size))
    base_lr = lr0 * batch_size / 256.0
    # a diverging probe raises DivergedRunError below, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
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
                g = x @ probe.weights[0].T
                g += probe.biases[0]
                g -= np.maximum.reduce(g, axis=1, keepdims=True)
                np.exp(g, out=g)
                g /= np.add.reduce(g, axis=1, keepdims=True)
                g -= targets[start : start + m]
                g /= m
                np.matmul(g.T, x, out=grads.weights[0])
                np.add.reduce(g, axis=0, out=grads.biases[0])
                velocity *= 0.9
                velocity += grads.vector
                np.multiply(velocity, lr_now, out=step)
                probe.vector -= step
            del targets  # else it is still held while the next epoch builds its own
    # a non-finite value stays non-finite through every later update
    if not np.isfinite(probe.vector).all():
        raise DivergedRunError("non-finite linear probe")
    return probe


def probe_accuracy(probe: EncoderParams, embeddings: Tensor, labels: np.ndarray) -> float:
    """Top-1 accuracy on `embed`'s float64 rows and `Dataset`'s int64 labels, unchecked."""
    logits = embeddings @ probe.weights[0].T + probe.biases[0]
    return float((logits.argmax(axis=1) == labels).mean())


def linear_eval(
    encoder: EncoderParams,
    train: Dataset,
    test: Dataset,
    epochs: int,
    lr0: float,
    batch_size: int,
    rng: "np.random.Generator",
) -> float:
    """Freeze the encoder, fit a linear classifier on its embeddings, and
    return top-1 accuracy on the test split. Unchecked: `train` holds every class."""
    # unbound, the train embeddings are freed before the test split is embedded
    probe = train_linear_probe(embed(encoder, train.features), train.labels,
                               train.class_count, epochs, lr0, batch_size, rng)
    return probe_accuracy(probe, embed(encoder, test.features), test.labels)


# ---------------------------------------------------------------------------
# Cluster-validity indices
# ---------------------------------------------------------------------------


def _cluster_stats(embeddings: Tensor, labels: np.ndarray):
    """Each nonempty class's row indices, in class order, and centroid, from
    `embed`'s float64 (N, C) rows and `Dataset`'s int64 labels, unchecked."""
    # np.bincount, not np.unique: np.unique imports numpy.ma (over 10 ms and
    # ~1.25 MB of RSS, kept until the process ends), which no command uses
    members = [np.flatnonzero(labels == c) for c in np.flatnonzero(np.bincount(labels))]
    if len(members) < 2:
        raise ConfigurationError(f"need >= 2 nonempty classes, got {len(members)}")
    centroids = np.stack([embeddings[rows].mean(axis=0) for rows in members])
    return members, centroids


def davies_bouldin(embeddings: Tensor, labels: np.ndarray) -> float:
    """Davies-Bouldin index (lower is better): mean over clusters of the worst
    (scatter_i + scatter_j) / centroid-distance ratio.

    Scatter is the mean Euclidean distance to the centroid. Coincident
    centroids make the ratio undefined; that returns +inf with a warning.
    """
    members, centroids = _cluster_stats(embeddings, labels)
    k = len(members)
    scatter = np.array([np.sqrt(((embeddings[rows] - centroid) ** 2).sum(axis=1)).mean()
                        for rows, centroid in zip(members, centroids)])
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
    members, centroids = _cluster_stats(embeddings, labels)
    n, k = embeddings.shape[0], len(members)
    if k >= n:
        raise ConfigurationError(f"need fewer classes than samples, got {k} of {n}")
    mean = embeddings.mean(axis=0)
    counts = np.array([rows.size for rows in members])
    between = float((counts * ((centroids - mean) ** 2).sum(axis=1)).sum())
    within = float(sum(((embeddings[rows] - centroid) ** 2).sum()
                       for rows, centroid in zip(members, centroids)))
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
    parts = max(1, min(_cpus(), -(-n // MIN_ROWS_PER_PART)))
    with atomic_write(path) as fh:
        fh.write("label " + " ".join(f"v{j}" for j in range(v.shape[1])) + "\n")
        write_in_parts(fh, path, [n * i // parts for i in range(parts + 1)], write_rows)
