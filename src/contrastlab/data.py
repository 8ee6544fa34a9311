"""Synthetic clustered datasets, two-view augmentation, batching, and the
dataset file format.

Labels exist only for evaluation; the pretraining loop receives a plain
feature matrix and never sees them. `DataGenConfig` checks the generators'
arguments and `load_dataset` a file's, each fact once, where it enters, so
`Dataset` and the generators trust their callers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError
from .fileio import LineReader, atomic_write, write_hex_rows
from .numerics import Tensor, as_f64, l2_normalize_rows

DATASET_MAGIC = "contrastlab-dataset 2"
DATASET_V1_MAGIC = "contrastlab-dataset 1"


@dataclass
class Dataset:
    """Feature matrix with integer labels held out for evaluation. It checks
    nothing: the generators, `split_dataset` and `load_dataset` build valid ones."""

    features: Tensor  # (N, D)
    labels: np.ndarray  # (N,) ints in [0, class_count)
    class_count: int  # 2 <= class_count <= N

    def __post_init__(self):
        self.features = as_f64(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)

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
    rng: "np.random.Generator",
    center_offset: float = 0.0,
) -> Dataset:
    """Isotropic Gaussian blobs around class centers drawn uniformly in the
    hypercube [center_offset, center_offset + center_spread]^dim.

    A positive offset pushes the data away from the origin, which narrows the
    cone of input directions; the default 0 anchors one cube corner at the
    origin. Draw order is fixed: one uniform block for the centers, then one
    normal block for the point offsets, so the centers can be reproduced from
    the same seed. The arguments are `DataGenConfig`'s checked knobs and are
    not checked again; only features that overflow float64 raise.
    """
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
    rng: "np.random.Generator",
) -> Dataset:
    """Scale-banded clusters: class c sits at radius base_radius * growth^c
    along a set of unit directions shared by every class.

    Direction carries no class information, so class identity lives purely in
    the input scale. A bias-free ReLU network is positively homogeneous and
    therefore blind to it, which makes this the reference dataset for showing
    that pretraining learns something a random encoder cannot express. The
    arguments are `DataGenConfig`'s checked knobs and are not checked again;
    only features that overflow float64 raise.
    """
    directions = l2_normalize_rows(rng.standard_normal((spokes, dim)))
    overflow = ConfigurationError(
        "base_radius * radius_growth^(classes - 1) and within_sigma must keep the features "
        f"inside float64, got {base_radius}, {radius_growth}, {within_sigma}")
    # row (c, s, j) is class c's j-th sample on spoke s, drawn in place in that
    # order; noise + center has the bits of center + noise
    features = np.empty((class_count, spokes, per_mode, dim))
    for c, block in enumerate(features):
        try:
            radius = base_radius * radius_growth**c
        except OverflowError:
            raise overflow from None
        with np.errstate(over="ignore", invalid="ignore"):
            rng.standard_normal(out=block)
            block *= within_sigma
            block += (radius * directions)[:, None, :]
    features = features.reshape(-1, dim)
    if not np.isfinite(features).all():
        raise overflow
    return Dataset(features, np.repeat(np.arange(class_count), spokes * per_mode), class_count)


def _augment(x: Tensor, noise_sigma: float, mask_fraction: float, scale_min: float,
             scale_max: float, rng: "np.random.Generator") -> Tensor:
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
              scale_max: float, rng: "np.random.Generator") -> tuple[Tensor, Tensor]:
    """Two independent stochastic corruptions of the same rows.

    Per view: add N(0, noise_sigma^2) noise, zero round(mask_fraction * D)
    random coordinates per row, then scale each row by U(scale_min,
    scale_max). Row i of both views derives from input row i. With noise and
    mask 0 and both scales 1 the views equal the input bitwise. Neither `x`
    (a float64 matrix) nor the strengths (`RunConfig`'s ranges) are checked.
    """
    args = noise_sigma, mask_fraction, scale_min, scale_max, rng
    return _augment(x, *args), _augment(x, *args)


def epoch_batches(sample_count: int, batch_size: int, rng: "np.random.Generator") -> list[np.ndarray]:
    """A fresh uniform permutation split into full batches; remainder dropped.
    `batch_size` must be even and in [2, sample_count]; it is not checked."""
    perm = rng.permutation(sample_count)
    full = (sample_count // batch_size) * batch_size
    return [perm[i : i + batch_size] for i in range(0, full, batch_size)]


def split_dataset(dataset: Dataset, train_fraction: float, rng: "np.random.Generator") -> tuple[Dataset, Dataset]:
    """Stratified split; every class keeps floor(fraction * count) train rows.
    Unchecked fraction (`EvalConfig` checks it); raises if a split would lack a class."""
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
    with LineReader(path) as reader:
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
            features, labels = _read_v1_block(reader, n, dim, classes)
        reader.expect_eof()
    return Dataset(features, labels, classes)


def _read_v2_block(reader: LineReader, n: int, dim: int, classes: int):
    start = reader.offset
    parts = reader.fields("labels line", n + 1)
    if parts[0] != "labels":
        raise FormatError(f"bad labels line: expected key 'labels', got {parts[0]!r}", start)
    try:
        labels = np.array(parts[1:], dtype=np.int64)  # int()'s rules, in one call
    except (ValueError, OverflowError):
        raise FormatError("non-integer label", start) from None
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise FormatError(f"label outside [0, {classes})", start)
    return reader.hex_matrix(n, dim, "features"), labels


def _read_v1_block(reader: LineReader, n: int, dim: int, classes: int):
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
        if not 0 <= labels[i] < classes:
            raise FormatError(f"label outside [0, {classes})", start)
    reader.require_finite(features, "features")
    return features, labels
