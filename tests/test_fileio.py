import os

import numpy as np
import pytest

from contrastlab import data, encoder, moco, training
from contrastlab.data import generate_spoke_clusters
from contrastlab.fileio import atomic_write, float_line
from contrastlab.moco import init_moco
from contrastlab.numerics import seeded_rng


class Interrupted(Exception):
    pass


class TestAtomicWrite:
    def test_replaces_the_file_when_the_block_completes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_raising_block_leaves_the_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(Interrupted), atomic_write(path) as fh:
            fh.write("partial\n")
            raise Interrupted
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_raising_block_creates_nothing(self, tmp_path):
        with pytest.raises(Interrupted), atomic_write(tmp_path / "new.txt"):
            raise Interrupted
        assert os.listdir(tmp_path) == []


def _state(seed):
    return init_moco([4, 5, 3], 6, 0.99, seeded_rng(seed))


def _dataset(seed):
    return generate_spoke_clusters(3, 2, 4, 4, 8.0, 1.3, 0.5, seeded_rng(seed))


# writer name -> (module and name of the line formatter the writer calls
# first, writer(seed, path)); the moco queue rows come before the encoders,
# and a dataset's hex feature rows follow its one labels line
WRITERS = {
    "save_dataset": (data, "hex_line", lambda seed, path: data.save_dataset(
        _dataset(seed), path)),
    "save_encoder": (encoder, "float_line", lambda seed, path: encoder.save_encoder(
        _state(seed).query, path)),
    "save_moco": (moco, "hex_line", lambda seed, path: moco.save_moco(_state(seed), path)),
    "export_embeddings": (training, "float_line", lambda seed, path: training.export_embeddings(
        _state(seed).query, _dataset(seed), path)),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_interrupted_partway_keeps_the_earlier_file(writer, tmp_path, monkeypatch):
    module, formatter, write = WRITERS[writer]
    path = tmp_path / "out.txt"
    write(1, path)
    before = path.read_bytes()
    real = getattr(module, formatter)
    lines = []

    def fails_on_the_third_line(values):
        lines.append(None)
        if len(lines) == 3:
            raise Interrupted
        return real(values)

    monkeypatch.setattr(module, formatter, fails_on_the_third_line)
    with pytest.raises(Interrupted):
        write(2, path)
    assert len(lines) == 3
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_metrics_interrupted_partway_keeps_the_earlier_file(tmp_path):
    records = [training.MetricsRecord(e, 1.0 / e, 0.5, 1.5, 0.1, 0.01) for e in (1, 2, 3)]
    path = tmp_path / "metrics.csv"
    training.write_metrics(records, path)
    before = path.read_bytes()

    def interrupted_records():
        yield records[0]
        raise Interrupted

    with pytest.raises(Interrupted):
        training.write_metrics(interrupted_records(), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["metrics.csv"]


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max],
    [1 / 3, 2 / 3, 0.1, 1e16, 1e-7, 123456789.0, 1e22, 9007199254740993.0],
    [0.0, 1.0, -2.0, 3.0, 1e15, 2.0**53],
    np.array([0.1, 1e30, -3.5, 7e-45], dtype=np.float32),
    np.array([[1.5, -0.0]])[0],
    [],
], ids=["extremes", "decimals", "integral", "float32", "row-view", "empty"])
def test_float_line_matches_repr_of_each_float(values):
    assert float_line(values) == " ".join(repr(float(v)) for v in values)
