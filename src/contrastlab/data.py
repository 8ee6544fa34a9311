"""Synthetic clustered datasets, two-view augmentation, batching, and the
dataset file format.

Labels exist only for evaluation; the pretraining loop receives a plain
feature matrix and never sees them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, FormatError
from .fileio import LineReader, float_line
from .numerics import Tensor, as_matrix

DATASET_MAGIC = "contrastlab-dataset 1"


@dataclass
class Dataset:
    """Feature matrix with integer labels held out for evaluation."""

    features: Tensor  # (N, D)
    labels: np.ndarray  # (N,) ints in [0, class_count)
    class_count: int

    def __post_init__(self):
        self.features = as_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionError(
                f"label shape {self.labels.shape} does not match {self.features.shape[0]} samples"
            )
        if self.class_count < 2:
            raise ConfigurationError(f"need at least 2 classes, got {self.class_count}")
        if self.features.shape[0] < self.class_count:
            raise ConfigurationError("fewer samples than classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ConfigurationError(
                f"labels must lie in [0, {self.class_count}), got "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class AugmentConfig:
    """Strengths of the three vector corruptions applied by `two_views`."""

    gaussian_noise_sigma: float = 0.0
    mask_fraction: float = 0.0
    scale_jitter: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.gaussian_noise_sigma < 0.0:
            raise ConfigurationError(f"noise sigma must be >= 0, got {self.gaussian_noise_sigma}")
        if not 0.0 <= self.mask_fraction < 1.0:
            raise ConfigurationError(f"mask fraction must be in [0, 1), got {self.mask_fraction}")
        lo, hi = self.scale_jitter
        if not 0.0 < lo <= hi:
            raise ConfigurationError(f"scale jitter range must satisfy 0 < lo <= hi, got {lo}, {hi}")


def generate_gaussian_clusters(
    class_count: int,
    per_class: int,
    dim: int,
    center_spread: float,
    within_sigma: float,
    rng: np.random.Generator,
    center_offset: float = 0.0,
) -> Dataset:
    """Isotropic Gaussian blobs around class centers drawn uniformly in the
    hypercube [center_offset, center_offset + center_spread]^dim.

    A positive offset pushes the data away from the origin, which narrows the
    cone of input directions; the default 0 anchors one cube corner at the
    origin. Draw order is fixed: one uniform block for the centers, then one
    normal block for the point offsets, so the centers can be reproduced from
    the same seed.
    """
    if class_count < 2 or per_class < 1 or dim < 1:
        raise ConfigurationError(
            f"counts must be positive with >= 2 classes, got classes={class_count}, "
            f"per_class={per_class}, dim={dim}"
        )
    if center_spread <= 0.0 or within_sigma <= 0.0:
        raise ConfigurationError(
            f"center_spread and within_sigma must be positive, got {center_spread}, {within_sigma}"
        )
    centers = rng.uniform(center_offset, center_offset + center_spread, size=(class_count, dim))
    n = class_count * per_class
    features = np.repeat(centers, per_class, axis=0) + within_sigma * rng.standard_normal((n, dim))
    labels = np.repeat(np.arange(class_count), per_class)
    return Dataset(features, labels, class_count)


def generate_spoke_clusters(
    class_count: int,
    spokes: int,
    per_mode: int,
    dim: int,
    base_radius: float,
    radius_growth: float,
    within_sigma: float,
    rng: np.random.Generator,
) -> Dataset:
    """Scale-banded clusters: class c sits at radius base_radius * growth^c
    along a set of unit directions shared by every class.

    Direction carries no class information, so class identity lives purely in
    the input scale. A bias-free ReLU network is positively homogeneous and
    therefore blind to it, which makes this the reference dataset for showing
    that pretraining learns something a random encoder cannot express.
    """
    if class_count < 2 or spokes < 1 or per_mode < 1 or dim < 1:
        raise ConfigurationError(
            f"counts must be positive with >= 2 classes, got classes={class_count}, "
            f"spokes={spokes}, per_mode={per_mode}, dim={dim}"
        )
    if base_radius <= 0.0 or radius_growth <= 1.0 or within_sigma <= 0.0:
        raise ConfigurationError(
            "need base_radius > 0, radius_growth > 1, and within_sigma > 0, got "
            f"{base_radius}, {radius_growth}, {within_sigma}"
        )
    raw = rng.standard_normal((spokes, dim))
    norms = np.sqrt((raw * raw).sum(axis=1, keepdims=True))
    directions = raw / np.maximum(norms, 1e-12)
    features, labels = [], []
    n_per_class = spokes * per_mode
    for c in range(class_count):
        centers = (base_radius * radius_growth**c) * directions
        noise = within_sigma * rng.standard_normal((n_per_class, dim))
        features.append(np.repeat(centers, per_mode, axis=0) + noise)
        labels.append(np.full(n_per_class, c))
    return Dataset(np.concatenate(features), np.concatenate(labels), class_count)


def _augment(x: Tensor, cfg: AugmentConfig, rng: np.random.Generator) -> Tensor:
    out = x.copy()
    if cfg.gaussian_noise_sigma > 0.0:
        out += cfg.gaussian_noise_sigma * rng.standard_normal(x.shape)
    n_mask = int(round(cfg.mask_fraction * x.shape[1]))
    if n_mask > 0:
        mask_cols = rng.random(x.shape).argsort(axis=1)[:, :n_mask]
        out[np.arange(x.shape[0])[:, None], mask_cols] = 0.0
    lo, hi = cfg.scale_jitter
    out *= rng.uniform(lo, hi, size=(x.shape[0], 1))
    return out


def two_views(x: Tensor, cfg: AugmentConfig, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Two independent stochastic corruptions of the same rows.

    Per view: add Gaussian noise, zero a fixed count of randomly chosen
    coordinates per row, then scale each row by a jitter factor. Row i of
    both views derives from input row i. With all strengths at their identity
    values the views equal the input bitwise.
    """
    x = as_matrix(x)
    return _augment(x, cfg, rng), _augment(x, cfg, rng)


def epoch_batches(sample_count: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A fresh uniform permutation split into full batches; remainder dropped."""
    if batch_size < 2 or batch_size % 2:
        raise ConfigurationError(f"batch size must be even and >= 2, got {batch_size}")
    if batch_size > sample_count:
        raise ConfigurationError(f"batch size {batch_size} exceeds sample count {sample_count}")
    perm = rng.permutation(sample_count)
    full = (sample_count // batch_size) * batch_size
    return [perm[i : i + batch_size] for i in range(0, full, batch_size)]


def split_dataset(dataset: Dataset, train_fraction: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Stratified split; every class keeps floor(fraction * count) train rows."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(f"train fraction must be in (0, 1), got {train_fraction}")
    train_idx, test_idx = [], []
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        members = members[rng.permutation(members.size)]
        cut = int(train_fraction * members.size)
        if cut == 0 or cut == members.size:
            raise ConfigurationError(f"class {c} would be empty in one split")
        train_idx.append(members[:cut])
        test_idx.append(members[cut:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    return (
        Dataset(dataset.features[train_idx], dataset.labels[train_idx], dataset.class_count),
        Dataset(dataset.features[test_idx], dataset.labels[test_idx], dataset.class_count),
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Text layout: magic line, size line, then one `label f1 .. fD` row per
    sample. Bit-exact round trip."""
    with open(path, "w") as fh:
        fh.write(DATASET_MAGIC + "\n")
        fh.write(
            f"samples {dataset.sample_count} dim {dataset.dim} classes {dataset.class_count}\n"
        )
        for label, row in zip(dataset.labels, dataset.features):
            fh.write(f"{int(label)} {float_line(row)}\n")


def load_dataset(path) -> Dataset:
    reader = LineReader(path)
    reader.expect(DATASET_MAGIC, "magic line")
    head = reader.fields("size line", 6)
    try:
        n, dim, classes = int(head[1]), int(head[3]), int(head[5])
        if head[0] != "samples" or head[2] != "dim" or head[4] != "classes" or dim < 1:
            raise ValueError
    except ValueError:
        raise FormatError("malformed size line", reader.offset) from None
    reader.check_size(n, dim + 1, "sample block")
    features = np.empty((n, dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        start = reader.offset
        parts = reader.fields(f"sample {i}", dim + 1)
        try:
            labels[i] = int(parts[0])
            features[i] = [float(p) for p in parts[1:]]
        except ValueError:
            raise FormatError(f"malformed sample {i}", start) from None
    reader.expect_eof()
    reader.require_finite(features, "features")
    try:
        return Dataset(features, labels, classes)
    except ConfigurationError as exc:
        raise FormatError(f"bad dataset: {exc}") from None
