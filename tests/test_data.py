import pathlib
import re
import textwrap

import numpy as np
import pytest

from contrastlab.data import (
    Dataset,
    epoch_batches,
    generate_gaussian_clusters,
    load_dataset,
    save_dataset,
    split_dataset,
    two_views,
)
from contrastlab.errors import ConfigurationError, FormatError
from contrastlab.numerics import seeded_rng
from oracles import save_dataset_v1


class TestGenerator:
    def test_label_histogram_exact(self):
        ds = generate_gaussian_clusters(5, 20, 3, 10.0, 1.0, seeded_rng(0))
        assert np.array_equal(np.bincount(ds.labels), np.full(5, 20))
        assert ds.class_count == 5

    def test_tiny_sigma_collapses_to_centers(self):
        ds = generate_gaussian_clusters(3, 10, 4, 10.0, 1e-12, seeded_rng(1))
        for c in range(3):
            members = ds.features[ds.labels == c]
            assert np.abs(members - members[0]).max() < 1e-9

    def test_class_means_approach_centers(self):
        # law of large numbers: class mean within 3 sigma/sqrt(n) per coordinate
        per_class, sigma = 4000, 0.7
        seed = 2
        ds = generate_gaussian_clusters(3, per_class, 5, 8.0, sigma, seeded_rng(seed))
        # centers are reproducible: the generator draws them first
        centers = seeded_rng(seed).uniform(0.0, 8.0, size=(3, 5))
        bound = 3.0 * sigma / np.sqrt(per_class)
        for c in range(3):
            mean = ds.features[ds.labels == c].mean(axis=0)
            assert np.abs(mean - centers[c]).max() < bound

    def test_deterministic(self):
        a = generate_gaussian_clusters(3, 5, 2, 4.0, 0.5, seeded_rng(3))
        b = generate_gaussian_clusters(3, 5, 2, 4.0, 0.5, seeded_rng(3))
        assert np.array_equal(a.features, b.features)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            generate_gaussian_clusters(1, 5, 2, 4.0, 0.5, seeded_rng(0))
        with pytest.raises(ConfigurationError):
            generate_gaussian_clusters(3, 5, 2, 4.0, 0.0, seeded_rng(0))


class TestTwoViews:
    def test_identity_config_returns_input_bitwise(self):
        rng = seeded_rng(4)
        x = rng.normal(size=(6, 10))
        xq, xk = two_views(x, 0.0, 0.0, 1.0, 1.0, rng)
        assert np.array_equal(xq, x)
        assert np.array_equal(xk, x)

    def test_mask_zeroes_exact_count_per_row(self):
        rng = seeded_rng(5)
        x = rng.normal(size=(50, 10))
        x[x == 0.0] = 1.0  # no accidental zeros
        xq, _ = two_views(x, 0.0, 0.2, 1.0, 1.0, rng)
        assert ((xq == 0.0).sum(axis=1) == 2).all()

    def test_reproducible_given_seed(self):
        x = seeded_rng(6).normal(size=(4, 8))
        strengths = 0.3, 0.25, 0.9, 1.1
        a = two_views(x, *strengths, seeded_rng(7))
        b = two_views(x, *strengths, seeded_rng(7))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_views_differ_when_any_strength_positive(self):
        x = seeded_rng(8).normal(size=(4, 8))
        for strengths in ((0.1, 0.0, 1.0, 1.0), (0.0, 0.25, 1.0, 1.0), (0.0, 0.0, 0.5, 1.5)):
            xq, xk = two_views(x, *strengths, seeded_rng(9))
            assert not np.array_equal(xq, xk)


class TestEpochBatches:
    def test_partition_of_front_of_permutation(self):
        rng = seeded_rng(10)
        batches = epoch_batches(20, 4, rng)
        assert len(batches) == 5
        flat = np.concatenate(batches)
        assert np.array_equal(np.sort(flat), np.arange(20))
        expected = seeded_rng(10).permutation(20)
        assert np.array_equal(flat, expected)

    def test_remainder_dropped(self):
        batches = epoch_batches(10, 4, seeded_rng(11))
        assert len(batches) == 2
        assert sum(len(b) for b in batches) == 8

    def test_deterministic(self):
        a = epoch_batches(30, 6, seeded_rng(12))
        b = epoch_batches(30, 6, seeded_rng(12))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSplit:
    def test_stratified_and_disjoint(self):
        ds = generate_gaussian_clusters(4, 25, 3, 5.0, 1.0, seeded_rng(13))
        train, test = split_dataset(ds, 0.8, seeded_rng(14))
        assert train.sample_count == 80 and test.sample_count == 20
        assert np.array_equal(np.bincount(train.labels), np.full(4, 20))
        assert np.array_equal(np.bincount(test.labels), np.full(4, 5))

    def test_rejects_empty_split(self):
        ds = generate_gaussian_clusters(2, 1, 2, 5.0, 1.0, seeded_rng(15))
        with pytest.raises(ConfigurationError):
            split_dataset(ds, 0.9, seeded_rng(0))


class TestDatasetFile:
    def test_round_trip_is_identity(self, tmp_path):
        ds = generate_gaussian_clusters(3, 7, 4, 6.0, 1.3, seeded_rng(16))
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.class_count == ds.class_count

    def test_wrong_magic_reports_offset(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("some other file\n1 2 3\n")
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert info.value.offset == 0

    def test_truncated_file_is_a_format_error(self, tmp_path):
        ds = generate_gaussian_clusters(3, 7, 4, 6.0, 1.3, seeded_rng(17))
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        text = path.read_text().splitlines(keepends=True)
        path.write_text("".join(text[:5]))
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert info.value.offset is not None

    def test_v2_layout_is_decimal_labels_then_hex_rows(self, tmp_path):
        ds = generate_gaussian_clusters(3, 2, 4, 6.0, 1.3, seeded_rng(19))
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["contrastlab-dataset 2", "samples 6 dim 4 classes 3",
                             "labels 0 0 1 1 2 2"]
        assert lines[3:] == [row.astype("<f8").tobytes().hex() for row in ds.features]

    @pytest.mark.parametrize("save, bad_row", [(save_dataset_v1, "0 not-a-float 1.5"),
                                               (save_dataset, "not-hex")], ids=["v1", "v2"])
    def test_corrupt_row_names_byte_offset(self, save, bad_row, tmp_path):
        ds = generate_gaussian_clusters(2, 3, 2, 6.0, 1.0, seeded_rng(18))
        path = tmp_path / "data.txt"
        save(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = bad_row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="byte offset") as info:
            load_dataset(path)
        assert info.value.offset == sum(len(line) + 1 for line in lines[:3])

    def test_readme_recipe_reads_the_features_bit_for_bit(self, tmp_path, monkeypatch):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        [recipe] = [block for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
                    if "bytes.fromhex" in block]
        ds = generate_gaussian_clusters(3, 4, 5, 6.0, 1.3, seeded_rng(20))
        monkeypatch.chdir(tmp_path)
        save_dataset(ds, "data.txt")
        names = {}
        exec(textwrap.dedent(recipe), names)
        assert names["features"].dtype == np.float64
        assert names["features"].tobytes() == ds.features.tobytes()
        assert np.array_equal(names["labels"], ds.labels)


class TestDatasetV1:
    def test_loads_bit_identically_to_its_v2_copy(self, tmp_path):
        ds = generate_gaussian_clusters(3, 5, 4, 6.0, 1.3, seeded_rng(21))
        save_dataset_v1(ds, tmp_path / "v1.txt")
        save_dataset(ds, tmp_path / "v2.txt")
        v1, v2 = load_dataset(tmp_path / "v1.txt"), load_dataset(tmp_path / "v2.txt")
        for a, b in ((v1.features, v2.features), (v1.labels, v2.labels)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert v1.features.tobytes() == ds.features.tobytes()
        assert v1.class_count == v2.class_count == 3

    def test_resaving_writes_v2_with_the_same_arrays(self, tmp_path):
        ds = generate_gaussian_clusters(3, 5, 4, 6.0, 1.3, seeded_rng(22))
        save_dataset_v1(ds, tmp_path / "v1.txt")
        save_dataset(load_dataset(tmp_path / "v1.txt"), tmp_path / "v2.txt")
        assert (tmp_path / "v2.txt").read_text().startswith("contrastlab-dataset 2\n")
        loaded = load_dataset(tmp_path / "v2.txt")
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(loaded.labels, ds.labels) and loaded.class_count == 3


def test_labels_invariant_enforced():
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 3]), 3)
