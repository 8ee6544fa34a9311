import contextlib
import io
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from contrastlab import cli
from contrastlab.cli import OutputDirLock, main
from contrastlab.data import generate_spoke_clusters, load_dataset, save_dataset
from contrastlab.moco import load_moco
from contrastlab.encoder import encode, init_encoder, load_encoder, save_encoder, write_params_block
from contrastlab.errors import ConfigurationError, ContrastLabError, DivergedRunError, FormatError
from contrastlab.numerics import finite_difference_check, seeded_rng
from contrastlab.training import MIN_ROWS_PER_PART
from oracles import export_direct, save_dataset_v1


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


def edit_line(index, edit):
    """A file edit that applies `edit` to line `index` of the text."""
    def apply(text):
        lines = text.split("\n")
        lines[index] = edit(lines[index])
        return "\n".join(lines)
    return apply


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

    @pytest.mark.parametrize("settings", [
        ["within_sigma=nan"], ["base_radius=inf"], ["radius_growth=nan"],
        ["kind=gaussian", "center_offset=nan"], ["kind=gaussian", "center_spread=inf"],
        ["radius_growth=1e300"], ["base_radius=1e308"],
        ["kind=gaussian", "center_offset=1e308", "center_spread=1e308"],
    ])
    def test_non_finite_generator_value_exits_one_and_writes_nothing(self, settings, tmp_path,
                                                                     capsys):
        out = tmp_path / "d.txt"
        code, stdout, err = run_cli(capsys, "gen-data", "--out", str(out),
                                    *[a for kv in settings for a in ("--set", kv)])
        assert code == 1
        assert err.startswith("error: ") and stdout == ""
        assert all(kv.split("=")[0] in err for kv in settings if not kv.startswith("kind="))
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("mode, queue_size", [("moco", 64), ("simclr", 0)])
    def test_parameter_overflow_exits_two_without_a_warning(self, mode, queue_size, tmp_path,
                                                            capsys):
        data = tmp_path / "d.txt"
        assert main(["gen-data", "--out", str(data), "--set", "per_mode=5",
                     "--set", "spokes=2"]) == 0
        out_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, stderr = run_cli(
                capsys, "pretrain", "--data", str(data), "--out", str(out_dir),
                "--set", "lr=100", "--set", "weight_decay=1e308", "--set", f"mode={mode}",
                "--set", f"queue_size={queue_size}", "--set", "batch_size=16",
                "--set", "epochs=2")
        assert code == 2
        assert stderr == "diverged: non-finite parameter in W0 (epoch 1, batch 0)\n"
        assert not (out_dir / "checkpoint.txt").exists()

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

    def test_live_lock_holds_its_pid_and_exits_three(self, tiny_data, tmp_path, capsys):
        out_dir = tmp_path / "run"
        os.makedirs(out_dir)
        with OutputDirLock(out_dir):
            assert (out_dir / ".lock").read_text() == f"{os.getpid()}\n"
            code, _, err = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                                   "--out", str(out_dir), *PRETRAIN_SETS)
            assert code == 3
            assert "locked by another run" in err
            assert os.listdir(out_dir) == [".lock"]
        assert os.listdir(out_dir) == []

    def test_stale_lock_is_reclaimed(self, tiny_data, tmp_path, capsys):
        out_dir = tmp_path / "run"
        os.makedirs(out_dir)
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait()  # reaped: its pid names no process now
        (out_dir / ".lock").write_text(f"{exited.pid}\n")
        code, _, err = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                               "--out", str(out_dir), *PRETRAIN_SETS)
        assert code == 0
        assert f"stale lock of exited pid {exited.pid}" in err
        assert sorted(os.listdir(out_dir)) == ["checkpoint.txt", "manifest.cfg", "metrics.csv"]

    def test_lockers_racing_for_one_stale_lock_take_it_once(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "run"
        os.makedirs(out_dir)
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait()
        (out_dir / ".lock").write_text(f"{exited.pid}\n")
        # each locker waits after judging the lock until the other has judged it
        # too (or 0.5 s pass): unless judging and taking are serialised, both
        # find the lock stale and both take it
        real_taken = OutputDirLock._taken
        both_judged = threading.Barrier(2, timeout=0.5)

        def taken_after_both_judged(lock):
            taken = real_taken(lock)
            with contextlib.suppress(threading.BrokenBarrierError):
                both_judged.wait()
            return taken

        monkeypatch.setattr(OutputDirLock, "_taken", taken_after_both_judged)
        held, refused = [], []

        def race():
            lock = OutputDirLock(out_dir)
            try:
                held.append(lock.__enter__())
            except OSError:
                refused.append(lock)

        racers = [threading.Thread(target=race) for _ in range(2)]
        for t in racers:
            t.start()
        for t in racers:
            t.join()
        assert (len(held), len(refused)) == (1, 1)
        assert os.listdir(out_dir) == [".lock"]
        held[0].__exit__(None, None, None)
        assert os.listdir(out_dir) == []

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
        lambda lines: lines[:1] + ["samples 0 dim 1000000000000000000000000000000 classes 3"],
        lambda lines: lines[:2] + ["99999999999999999999 " + lines[2].split(" ", 1)[1]]
        + lines[3:],
    ], ids=["negative-count", "oversized-count", "negative-dim", "trailing-sample",
            "nan-feature", "inf-feature", "one-class", "zero-samples",
            "fewer-samples-than-classes", "label-too-large", "negative-label",
            "zero-samples-huge-dim", "label-overflows-int64"])
    def test_hostile_dataset_exits_three(self, edit, tiny_data, tmp_path, capsys):
        v1 = tmp_path / "v1.txt"
        save_dataset_v1(load_dataset(tiny_data), v1)
        lines = v1.read_text().splitlines()
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(edit(lines)) + "\n")
        code, _, err = run_cli(capsys, "pretrain", "--data", str(bad),
                               "--out", str(tmp_path / "run"), *PRETRAIN_SETS)
        assert code == 3
        assert "file error" in err

    @pytest.mark.parametrize("edit", [
        edit_line(3, lambda row: "000000000000f87f" + row[16:]),
        edit_line(3, lambda row: row[:16] + "000000000000f07f" + row[32:]),
        edit_line(3, lambda row: row[:-2]),
        edit_line(3, str.upper),
        edit_line(2, lambda labels: labels + " 0"),
        edit_line(2, lambda labels: labels.rsplit(" ", 1)[0]),
        edit_line(2, lambda labels: labels.rsplit(" ", 1)[0] + " 1.5"),
        edit_line(2, lambda labels: labels.rsplit(" ", 1)[0] + " 3"),
        lambda text: text + text.split("\n")[3] + "\n",
        lambda text: text[:-1],
        edit_line(1, lambda size: size.replace("classes 3", "classes 1")),
        edit_line(1, lambda size: size.replace("classes 3", "classes 61")),
    ], ids=["nan-bits", "inf-bits", "short-row", "uppercase-hex", "one-label-too-many",
            "one-label-too-few", "non-integer-label", "label-too-large", "extra-row",
            "no-final-newline", "one-class", "more-classes-than-samples"])
    def test_hostile_v2_dataset_exits_three_naming_the_offset(self, edit, tiny_data, tmp_path,
                                                              capsys):
        text = tiny_data.read_text()
        assert text.startswith("contrastlab-dataset 2\n")
        bad = tmp_path / "bad.txt"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        code, _, err = run_cli(capsys, "pretrain", "--data", str(bad),
                               "--out", str(tmp_path / "run"), *PRETRAIN_SETS)
        assert code == 3
        assert "file error" in err and "byte offset" in err

    def test_v1_and_v2_datasets_give_identical_runs(self, tiny_data, tmp_path, capsys):
        v1 = tmp_path / "v1.txt"
        save_dataset_v1(load_dataset(tiny_data), v1)
        run, export = tmp_path / "run", tmp_path / "emb.txt"
        checkpoint = str(run / "checkpoint.txt")
        results = {}
        for version, data in (("v1", str(v1)), ("v2", str(tiny_data))):
            outputs = [
                run_cli(capsys, "pretrain", "--data", data, "--out", str(run), *PRETRAIN_SETS),
                run_cli(capsys, "linear-eval", "--checkpoint", checkpoint, "--data", data,
                        "--set", "probe_epochs=5"),
                run_cli(capsys, "metrics", "--checkpoint", checkpoint, "--data", data),
                run_cli(capsys, "export-embeddings", "--checkpoint", checkpoint, "--data", data,
                        "--out", str(export)),
            ]
            metrics = [row.rsplit(",", 1)[0]
                       for row in (run / "metrics.csv").read_text().splitlines()]
            results[version] = (outputs, (run / "checkpoint.txt").read_bytes(), metrics,
                                export.read_bytes())
        assert [code for code, _, _ in results["v1"][0]] == [0, 0, 0, 0]
        assert results["v1"] == results["v2"]

    @pytest.mark.parametrize("settings, message", [
        (["input_dim=7"], "dataset dim 6 != configured input_dim 7"),
        (["batch_size=64", "queue_size=64"], "batch_size 64 exceeds dataset size 60"),
    ], ids=["width", "rows"])
    def test_dataset_that_does_not_fit_exits_one_before_the_run_directory(
            self, settings, message, tiny_data, tmp_path, capsys):
        sets = [arg for setting in settings for arg in ("--set", setting)]
        code, out, err = run_cli(capsys, "pretrain", "--data", str(tiny_data),
                                 "--out", str(tmp_path / "run"), *PRETRAIN_SETS, *sets)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not list(tmp_path.glob("run*"))

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


def edit_queue_row(text, row, edit):
    """Apply `edit` to the 96 hex digits of queue row `row` (K=20, C=6)."""
    start = text.index(b"queue 20 6\n") + 11 + row * 97
    return text[:start] + edit(text[start:start + 96]) + text[start + 96:]


def set_header(text, key, value):
    """Replace the value on the `key` line of a checkpoint."""
    return re.sub(rb"(?m)^" + key + rb" .*$", key + b" " + value, text, count=1)


def widen_queue(text):
    """Regroup the K=20, C=6 queue as 10 well-formed hex rows of width 12,
    wider than the encoder's 6 outputs."""
    start = text.index(b"queue 20 6\n") + 11
    rows = text[start:start + 20 * 97].split(b"\n")
    block = b"".join(rows[i] + rows[i + 1] + b"\n" for i in range(0, 20, 2))
    return text[:start - 11] + b"queue 10 12\n" + block + text[start + 20 * 97:]


def resize_key_encoder(text):
    """Replace the [6, 8, 6] key encoder block with a well-formed [6, 9, 6] one."""
    block = io.StringIO()
    write_params_block(block, init_encoder([6, 9, 6], seeded_rng(0)))
    start = text.index(b"\nkey\n") + 5
    return text[:start] + block.getvalue().encode() + b"end\n"


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

    def test_export_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, capsys,
                                                         no_child_left):
        dataset = generate_spoke_clusters(3, 2, 2 * MIN_ROWS_PER_PART // 6 + 1, 4, 8.0, 1.3, 0.5,
                                          seeded_rng(3))
        params = init_encoder([4, 6, 3], seeded_rng(4))
        save_dataset(dataset, tmp_path / "data.txt")
        save_encoder(params, tmp_path / "ck.txt")
        exports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"emb{cpus}.txt"
            code, _, _ = run_cli(capsys, "export-embeddings", "--checkpoint",
                                 str(tmp_path / "ck.txt"), "--data", str(tmp_path / "data.txt"),
                                 "--out", str(out))
            assert code == 0
            exports.append(out.read_bytes())
        assert exports == [export_direct(encode(params, dataset.features)[0], dataset.labels)] * 3

    def test_rows_whose_squares_overflow_embed_as_unit_rows(self, tmp_path, capsys):
        data, checkpoint, out = tmp_path / "huge.txt", tmp_path / "ck.txt", tmp_path / "emb.txt"
        assert main(["gen-data", "--out", str(data), "--set", "classes=3", "--set", "spokes=2",
                     "--set", "per_mode=10", "--set", "dim=6", "--set", "base_radius=1e200"]) == 0
        save_encoder(init_encoder([6, 8, 5], seeded_rng(6)), checkpoint)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (["linear-eval"], ["metrics"], ["export-embeddings", "--out", str(out)]):
                code, _, err = run_cli(capsys, *argv, "--checkpoint", str(checkpoint),
                                       "--data", str(data))
                assert (code, err) == (0, "")
        rows = np.loadtxt(out, skiprows=1)[:, 1:]
        assert rows.shape == (60, 5)
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("dim", [4, 8], ids=["narrower", "wider"])
    @pytest.mark.parametrize("command", ["linear-eval", "metrics", "export-embeddings"])
    def test_dataset_of_another_width_exits_one(self, command, dim, trained_run, tmp_path,
                                                capsys):
        data = tmp_path / f"dim{dim}.txt"
        assert main(["gen-data", "--out", str(data), "--set", "classes=3", "--set", "spokes=2",
                     "--set", "per_mode=10", "--set", f"dim={dim}"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--checkpoint", str(trained_run), "--data", str(data)]
        if command != "metrics":
            argv += ["--out", str(out)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == f"error: dataset dim {dim} != checkpoint input dim 6\n"
        assert stdout == "" and not out.exists()


    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(b"queue 20 6\n", b"queue -3 64\n"),
        lambda text: text.replace(b"queue 20 6\n", b"queue 100000000000 6\n"),
        lambda text: text + b"end\n",
        lambda text: b"\xff\xfe" + text,
        lambda text: edit_queue_row(text, 0, lambda row: row[1:]),
        lambda text: edit_queue_row(text, 0, lambda row: row + b"0"),
        lambda text: edit_queue_row(text, 3, lambda row: row[:9] + b"x" + row[10:]),
        lambda text: edit_queue_row(text, 3, lambda row: row[:32] + b" " + row[33:]),
        lambda text: text.replace(b"\n", b"\r\n"),
        lambda text: edit_queue_row(text, 5, lambda row: b"000000000000f87f" + row[16:]),
        lambda text: edit_queue_row(text, 5, lambda row: row[:80] + b"000000000000f07f"),
        lambda text: text[:text.index(b"queue 20 6\n") + 11 + 19 * 97 + 50],
        lambda text: text.replace(b"queue 20 6\n", b"queue %d 6\n" % (len(text) // 97 + 1)),
        lambda text: set_header(text, b"queue_ptr", b"99"),
        lambda text: set_header(text, b"queue_ptr", b"20"),
        lambda text: set_header(text, b"queue_ptr", b"-5"),
        lambda text: set_header(text, b"ema_momentum", b"nan"),
        lambda text: set_header(text, b"ema_momentum", b"7.5"),
        lambda text: set_header(text, b"ema_momentum", b"-0.5"),
        widen_queue,
        resize_key_encoder,
    ], ids=["negative-queue", "oversized-queue", "trailing-content", "binary-magic",
            "short-row", "long-row", "non-hex-row", "space-in-row", "crlf", "nan-in-row",
            "inf-in-row", "truncated-last-row", "queue-larger-than-file", "pointer-past-queue",
            "pointer-at-queue-size", "negative-pointer", "nan-ema", "ema-above-one",
            "negative-ema", "queue-wider-than-encoder", "key-layer-sizes"])
    def test_hostile_checkpoint_exits_three(self, edit, tiny_data, trained_run, capsys):
        text = trained_run.read_bytes()
        assert b"queue 20 6\n" in text
        trained_run.write_bytes(edit(text))
        code, _, err = run_cli(capsys, "metrics", "--checkpoint", str(trained_run),
                               "--data", str(tiny_data))
        assert code == 3
        assert "file error" in err


class TestConfigBoundary:
    """Every config value is checked when the config is built: a bad one
    exits 1 naming its key, before any work starts."""

    @pytest.mark.parametrize("command, setting", [
        ("pretrain", "temperature=nan"),
        ("pretrain", "mix_weight=nan"),
        ("pretrain", "noise_sigma=nan"),
        ("pretrain", "mix_temperature=inf"),
        ("pretrain", "lr=nan"),
        ("pretrain", "lr=-0.1"),
        ("pretrain", "lr=inf"),
        ("pretrain", "weight_decay=nan"),
        ("pretrain", "sgd_momentum=1.5"),
        ("pretrain", "sgd_momentum=nan"),
        ("pretrain", "epochs=0"),
        ("pretrain", "noise_sigma=-0.1"),
        ("pretrain", "mask_fraction=1.0"),
        ("pretrain", "scale_max=0.5"),
        ("linear-eval", "probe_batch_size=0"),
        ("linear-eval", "probe_epochs=-1"),
        ("linear-eval", "probe_lr=nan"),
        ("pretrain", "seed=-1"),
        ("gen-data", "seed=-3"),
        ("linear-eval", "seed=-5"),
        ("pretrain", "input_dim=0"),
        ("pretrain", "hidden_dims=64,0"),
        ("pretrain", "embed_dim=0"),
        ("pretrain", "batch_size=3"),
    ])
    def test_out_of_range_value_exits_one_naming_the_key(self, command, setting, tiny_data,
                                                         tmp_path, request, capsys):
        if command == "pretrain":
            argv = ["--data", str(tiny_data), "--out", str(tmp_path / "run"), *PRETRAIN_SETS]
        elif command == "gen-data":
            argv = ["--out", str(tmp_path / "run")]
        else:
            argv = ["--checkpoint", str(request.getfixturevalue("trained_run")),
                    "--data", str(tiny_data)]
            capsys.readouterr()
        code, out, err = run_cli(capsys, command, *argv, "--set", setting)
        assert code == 1
        assert f"error: {setting.split('=')[0]} must be" in err
        assert out == "" and not list(tmp_path.glob("run*"))

    def test_mask_fraction_that_masks_every_coordinate_exits_one(self, tmp_path, capsys):
        # round(0.98 * 20) = 20: both views of every row would be all zeros
        data = tmp_path / "wide.txt"
        assert main(["gen-data", "--out", str(data), "--set", "classes=3", "--set", "spokes=2",
                     "--set", "per_mode=10", "--set", "dim=20"]) == 0
        capsys.readouterr()
        code, out, err = run_cli(capsys, "pretrain", "--data", str(data),
                                 "--out", str(tmp_path / "run"), "--set", "batch_size=10",
                                 "--set", "queue_size=20", "--set", "epochs=1",
                                 "--set", "mask_fraction=0.98")
        assert code == 1
        assert err.startswith("error: mask_fraction must be")
        assert out == "" and not (tmp_path / "run").exists()


class TestGradcheckCommand:
    def test_fresh_install_passes(self, capsys):
        code, stdout, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        assert "worst relative error" in stdout
        worst = float(stdout.split("worst relative error")[1].split()[0])
        assert worst < 1e-5

    def test_non_finite_analytic_gradient_exits_2(self, monkeypatch, capsys):
        def nan_gradient(x):
            return float((x**2).sum()), np.full_like(x, math.nan)

        def suite():
            return [("nan", finite_difference_check(nan_gradient, np.ones(3)))]

        monkeypatch.setattr(cli, "gradient_suite", suite)
        assert run_cli(capsys, "gradcheck") == (
            2, "", "diverged: non-finite analytic gradient at (0,)\n")


class TestErrorExitCodes:
    """Every library error leaves `cli.main` as its exit code and one stderr
    line: DivergedRunError 2, FormatError 3, any other ContrastLabError 1."""

    @pytest.mark.parametrize("error, code, prefix", [
        (ConfigurationError, 1, "error: "),
        (DivergedRunError, 2, "diverged: "),
        (FormatError, 3, "file error: "),
        (ContrastLabError, 1, "error: "),
    ])
    def test_each_class_maps_to_its_code(self, monkeypatch, capsys, error, code, prefix):
        def fail(args):
            raise error("the command failed")

        monkeypatch.setattr(cli, "_cmd_gradcheck", fail)
        assert run_cli(capsys, "gradcheck") == (code, "", f"{prefix}the command failed\n")


class TestUsage:
    def test_unknown_subcommand_exits_nonzero(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_arguments_exits_nonzero(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1
