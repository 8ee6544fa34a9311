"""Synthetic clustered datasets, two-view augmentation, batching, and the
dataset file format.

Labels exist only for evaluation; the pretraining loop receives a plain
feature matrix and never sees them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError
from .fileio import LineReader, atomic_write, write_hex_rows
from .numerics import Tensor, as_matrix, l2_normalize_rows

DATASET_MAGIC = "contrastlab-dataset 2"
DATASET_V1_MAGIC = "contrastlab-dataset 1"


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
            raise ConfigurationError(
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
    # written so that NaN, which fails every comparison, fails each check
    if not (math.isfinite(center_offset) and 0.0 < center_spread < math.inf
            and 0.0 < within_sigma < math.inf):
        raise ConfigurationError(
            "need a finite center_offset, and center_spread and within_sigma finite and "
            f"positive, got {center_offset}, {center_spread}, {within_sigma}"
        )
    overflow = ConfigurationError(
        "center_offset + center_spread and within_sigma must keep the features inside float64, "
        f"got {center_offset}, {center_spread}, {within_sigma}")
    try:
        centers = rng.uniform(center_offset, center_offset + center_spread,
                              size=(class_count, dim))
    except OverflowError:
        raise overflow from None
    n = class_count * per_class
    with np.errstate(over="ignore"):
        features = (np.repeat(centers, per_class, axis=0)
                    + within_sigma * rng.standard_normal((n, dim)))
    if not np.isfinite(features).all():
        raise overflow
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
    if not (0.0 < base_radius < math.inf and 1.0 < radius_growth < math.inf
            and 0.0 < within_sigma < math.inf):
        raise ConfigurationError(
            "need finite base_radius > 0, radius_growth > 1, and within_sigma > 0, got "
            f"{base_radius}, {radius_growth}, {within_sigma}"
        )
    directions = l2_normalize_rows(rng.standard_normal((spokes, dim)))
    overflow = ConfigurationError(
        "base_radius * radius_growth^(classes - 1) and within_sigma must keep the features "
        f"inside float64, got {base_radius}, {radius_growth}, {within_sigma}")
    features, labels = [], []
    n_per_class = spokes * per_mode
    for c in range(class_count):
        try:
            radius = base_radius * radius_growth**c
        except OverflowError:
            raise overflow from None
        with np.errstate(over="ignore", invalid="ignore"):
            centers = radius * directions
            noise = within_sigma * rng.standard_normal((n_per_class, dim))
            features.append(np.repeat(centers, per_mode, axis=0) + noise)
        labels.append(np.full(n_per_class, c))
    features = np.concatenate(features)
    if not np.isfinite(features).all():
        raise overflow
    return Dataset(features, np.concatenate(labels), class_count)


def _augment(x: Tensor, noise_sigma: float, mask_fraction: float, scale_min: float,
             scale_max: float, rng: np.random.Generator) -> Tensor:
    out = x.copy()
    if noise_sigma > 0.0:
        out += noise_sigma * rng.standard_normal(x.shape)
    n_mask = int(round(mask_fraction * x.shape[1]))
    if n_mask > 0:
        mask_cols = rng.random(x.shape).argsort(axis=1)[:, :n_mask]
        out[np.arange(x.shape[0])[:, None], mask_cols] = 0.0
    out *= rng.uniform(scale_min, scale_max, size=(x.shape[0], 1))
    return out


def two_views(x: Tensor, noise_sigma: float, mask_fraction: float, scale_min: float,
              scale_max: float, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Two independent stochastic corruptions of the same rows.

    Per view: add N(0, noise_sigma^2) noise, zero round(mask_fraction * D)
    random coordinates per row, then scale each row by U(scale_min,
    scale_max). Row i of both views derives from input row i. With noise and
    mask 0 and both scales 1 the views equal the input bitwise. Neither `x`
    (a float64 matrix) nor the strengths (`RunConfig`'s ranges) are checked.
    """
    args = noise_sigma, mask_fraction, scale_min, scale_max, rng
    return _augment(x, *args), _augment(x, *args)


def epoch_batches(sample_count: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A fresh uniform permutation split into full batches; remainder dropped.
    `batch_size` must be even and in [2, sample_count]; it is not checked."""
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
    """Write `dataset` in the version 2 layout: the magic line, the size line
    `samples N dim D classes K`, one `labels l0 .. l{N-1}` line of decimal
    ints, then N feature rows, each the row's little-endian float64 bytes as
    16 * D lowercase hex digits, written in 256-row chunks
    (`fileio.write_hex_rows`). Bit-exact round trip."""
    with atomic_write(path) as fh:
        fh.write(DATASET_MAGIC + "\n")
        fh.write(
            f"samples {dataset.sample_count} dim {dataset.dim} classes {dataset.class_count}\n"
        )
        fh.write(" ".join(["labels", *map(str, dataset.labels.tolist())]) + "\n")
        write_hex_rows(fh, dataset.features)


def load_dataset(path) -> Dataset:
    """Read a dataset written by `save_dataset`, or one in the version 1
    layout (one `label f1 .. fD` row of decimals per sample), which other
    tools may write. Any defect is a `FormatError`; every version 2 defect
    names its byte offset."""
    reader = LineReader(path)
    magic = reader.next_line("magic line")
    if magic not in (DATASET_MAGIC, DATASET_V1_MAGIC):
        raise FormatError(f"bad magic line: expected {DATASET_MAGIC!r}, got {magic!r}", 0)
    size_at = reader.offset
    head = reader.fields("size line", 6)
    try:
        n, dim, classes = int(head[1]), int(head[3]), int(head[5])
        if (head[0] != "samples" or head[2] != "dim" or head[4] != "classes"
                or dim < 1 or not 2 <= classes <= n):
            raise ValueError
    except ValueError:
        raise FormatError(
            "malformed size line: need dim >= 1 and 2 <= classes <= samples", size_at) from None
    if magic == DATASET_MAGIC:
        features, labels = _read_v2_block(reader, n, dim, classes)
    else:
        features, labels = _read_v1_block(reader, n, dim)
    reader.expect_eof()
    try:
        return Dataset(features, labels, classes)
    except ConfigurationError as exc:
        raise FormatError(f"bad dataset: {exc}") from None


def _read_v2_block(reader: LineReader, n: int, dim: int, classes: int):
    start = reader.offset
    parts = reader.fields("labels line", n + 1)
    if parts[0] != "labels":
        raise FormatError(f"bad labels line: expected key 'labels', got {parts[0]!r}", start)
    try:
        labels = np.array([int(p) for p in parts[1:]], dtype=np.int64)
    except (ValueError, OverflowError):
        raise FormatError("non-integer label", start) from None
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise FormatError(f"label outside [0, {classes})", start)
    return reader.hex_matrix(n, dim, "features"), labels


def _read_v1_block(reader: LineReader, n: int, dim: int):
    reader.check_size(n, dim + 1, "sample block")
    features = np.empty((n, dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        start = reader.offset
        parts = reader.fields(f"sample {i}", dim + 1)
        try:
            labels[i] = int(parts[0])
            features[i] = [float(p) for p in parts[1:]]
        except (ValueError, OverflowError):
            raise FormatError(f"malformed sample {i}", start) from None
    reader.require_finite(features, "features")
    return features, labels
