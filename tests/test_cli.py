import os

import numpy as np
import pytest

from contrastlab.cli import main
from contrastlab.data import load_dataset
from contrastlab.moco import load_moco
from contrastlab.encoder import load_encoder


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tiny_data(tmp_path):
    path = tmp_path / "data.txt"
    code = main([
        "gen-data", "--out", str(path),
        "--set", "classes=3", "--set", "spokes=2", "--set", "per_mode=10",
        "--set", "dim=6", "--set", "seed=5",
    ])
    assert code == 0
    return path


PRETRAIN_SETS = [
    "--set", "input_dim=6", "--set", "hidden_dims=8", "--set", "embed_dim=6",
    "--set", "batch_size=10", "--set", "queue_size=20", "--set", "epochs=2",
    "--set", "mask_fraction=0.0", "--set", "scale_min=1.0", "--set", "scale_max=1.0",
]


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "d.txt"
        code, stdout, _ = run_cli(capsys, "gen-data", "--out", str(out),
                                  "--set", "classes=3", "--set", "spokes=2",
                                  "--set", "per_mode=5", "--set", "dim=4")
        assert code == 0
        ds = load_dataset(out)
        assert ds.class_count == 3 and ds.sample_count == 30 and ds.dim == 4
        manifest = (tmp_path / "d.txt.manifest").read_text()
        assert "classes = 3" in manifest and "kind = spokes" in manifest

    def test_gaussian_kind(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code, _, _ = run_cli(capsys, "gen-data", "--out", str(out),
                             "--set", "kind=gaussian", "--set", "classes=3",
                             "--set", "per_class=7", "--set", "dim=4")
        assert code == 0
        assert load_dataset(out).sample_count == 21

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen-data", "--out", str(tmp_path / "x.txt"),
                               "--set", "bogus=1")
        assert code == 1
        assert "bogus" in err


class TestPretrainCommand:
    def test_writes_manifest_checkpoint_metrics(self, tiny_data, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                                  "--out", str(out_dir), *PRETRAIN_SETS)
        assert code == 0
        assert (out_dir / "manifest.cfg").exists()
        assert (out_dir / "metrics.csv").exists()
        state, seed = load_moco(out_dir / "checkpoint.txt")
        assert state.queue.shape == (20, 6)
        assert not (out_dir / ".lock").exists()

    def test_manifest_reproduces_run_bitwise(self, tiny_data, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                             "--out", str(first), *PRETRAIN_SETS)
        assert code == 0
        second = tmp_path / "second"
        code, _, _ = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                             "--config", str(first / "manifest.cfg"), "--out", str(second))
        assert code == 0
        assert (first / "checkpoint.txt").read_text() == (second / "checkpoint.txt").read_text()
        assert (first / "manifest.cfg").read_text() == (second / "manifest.cfg").read_text()
        # metrics identical except wall-clock seconds (the last column)
        strip = lambda p: [",".join(line.split(",")[:-1])
                           for line in (p / "metrics.csv").read_text().splitlines()]
        assert strip(first) == strip(second)

    def test_simclr_mode_writes_encoder_checkpoint(self, tiny_data, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                             "--out", str(out_dir), *PRETRAIN_SETS,
                             "--set", "mode=simclr", "--set", "queue_size=0")
        assert code == 0
        params, _ = load_encoder(out_dir / "checkpoint.txt")
        assert params.layer_sizes == [6, 8, 6]

    def test_locked_directory_exits_three(self, tiny_data, tmp_path, capsys):
        out_dir = tmp_path / "run"
        os.makedirs(out_dir)
        (out_dir / ".lock").touch()
        code, _, err = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                               "--out", str(out_dir), *PRETRAIN_SETS)
        assert code == 3
        assert "lock" in err

    def test_corrupt_dataset_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        code, _, err = run_cli(capsys, "pretrain", "--data", str(bad),
                               "--out", str(tmp_path / "run"), *PRETRAIN_SETS)
        assert code == 3

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:1] + ["samples -5 dim 6 classes 3"] + lines[2:],
        lambda lines: lines[:1] + ["samples 100000000000 dim 6 classes 3"] + lines[2:],
        lambda lines: lines[:1] + ["samples 60 dim -1 classes 3"] + lines[2:],
        lambda lines: lines + ["0 1.0 1.0 1.0 1.0 1.0 1.0"],
        lambda lines: lines[:2] + [lines[2].rsplit(" ", 1)[0] + " nan"] + lines[3:],
        lambda lines: lines[:2] + [lines[2].rsplit(" ", 1)[0] + " -inf"] + lines[3:],
        lambda lines: lines[:1] + ["samples 60 dim 6 classes 1"] + lines[2:],
        lambda lines: lines[:1] + ["samples 0 dim 6 classes 3"],
        lambda lines: lines[:1] + ["samples 2 dim 6 classes 3"] + lines[2:4],
        lambda lines: lines[:2] + ["3 " + lines[2].split(" ", 1)[1]] + lines[3:],
        lambda lines: lines[:2] + ["-1 " + lines[2].split(" ", 1)[1]] + lines[3:],
    ], ids=["negative-count", "oversized-count", "negative-dim", "trailing-sample",
            "nan-feature", "inf-feature", "one-class", "zero-samples",
            "fewer-samples-than-classes", "label-too-large", "negative-label"])
    def test_hostile_dataset_exits_three(self, edit, tiny_data, tmp_path, capsys):
        lines = tiny_data.read_text().splitlines()
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(edit(lines)) + "\n")
        code, _, err = run_cli(capsys, "pretrain", "--data", str(bad),
                               "--out", str(tmp_path / "run"), *PRETRAIN_SETS)
        assert code == 3
        assert "file error" in err

    def test_bad_config_value_exits_one(self, tiny_data, tmp_path, capsys):
        code, _, err = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                               "--out", str(tmp_path / "run"), *PRETRAIN_SETS,
                               "--set", "mode=nonsense")
        assert code == 1
        assert "mode" in err

    def test_input_files_not_mutated(self, tiny_data, tmp_path, capsys):
        before = tiny_data.read_text()
        run_cli(capsys, "pretrain", "--data", str(tiny_data),
                "--out", str(tmp_path / "run"), *PRETRAIN_SETS)
        assert tiny_data.read_text() == before

    def test_manifest_echoes_default_mix_settings(self, tiny_data, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                             "--out", str(out_dir), *PRETRAIN_SETS)
        assert code == 0
        manifest = (out_dir / "manifest.cfg").read_text()
        assert "mix_weight = 1.0" in manifest
        assert "mix_temperature = 0.05" in manifest


@pytest.fixture()
def trained_run(tiny_data, tmp_path):
    out_dir = tmp_path / "trained"
    code = main(["pretrain", "--data", str(tiny_data), "--out", str(out_dir)] + PRETRAIN_SETS)
    assert code == 0
    return out_dir / "checkpoint.txt"


class TestEvalCommands:
    def test_linear_eval_prints_and_appends(self, tiny_data, trained_run, tmp_path, capsys):
        out_dir = tmp_path / "eval"
        code, stdout, _ = run_cli(capsys, "linear-eval", "--checkpoint", str(trained_run),
                                  "--data", str(tiny_data), "--out", str(out_dir),
                                  "--set", "probe_epochs=5", "--set", "train_fraction=0.7")
        assert code == 0
        assert "top1_accuracy" in stdout
        results = (out_dir / "results.txt").read_text()
        assert "top1_accuracy" in results

    def test_metrics_prints_both_indices(self, tiny_data, trained_run, capsys):
        code, stdout, _ = run_cli(capsys, "metrics", "--checkpoint", str(trained_run),
                                  "--data", str(tiny_data))
        assert code == 0
        assert "davies_bouldin" in stdout and "calinski_harabasz" in stdout

    def test_export_writes_labeled_rows(self, tiny_data, trained_run, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        code, stdout, _ = run_cli(capsys, "export-embeddings", "--checkpoint", str(trained_run),
                                  "--data", str(tiny_data), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 60 + 1


    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(b"queue 20 6\n", b"queue -3 64\n"),
        lambda text: text.replace(b"queue 20 6\n", b"queue 100000000000 6\n"),
        lambda text: text + b"end\n",
        lambda text: b"\xff\xfe" + text,
    ], ids=["negative-queue", "oversized-queue", "trailing-content", "binary-magic"])
    def test_hostile_checkpoint_exits_three(self, edit, tiny_data, trained_run, capsys):
        text = trained_run.read_bytes()
        assert b"queue 20 6\n" in text
        trained_run.write_bytes(edit(text))
        code, _, err = run_cli(capsys, "metrics", "--checkpoint", str(trained_run),
                               "--data", str(tiny_data))
        assert code == 3
        assert "file error" in err


class TestGradcheckCommand:
    def test_fresh_install_passes(self, capsys):
        code, stdout, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        assert "worst relative error" in stdout
        worst = float(stdout.split("worst relative error")[1].split()[0])
        assert worst < 1e-5


class TestUsage:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_arguments_exits_nonzero(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1
