import errno
import io
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrastlab import cli, data, encoder, moco, numerics, training
from contrastlab.data import generate_spoke_clusters
from contrastlab.errors import FormatError
from contrastlab.fileio import LineReader, atomic_write, float_line, write_hex_rows
from contrastlab.moco import init_moco
from contrastlab.numerics import seeded_rng
from oracles import hex_line, read_hex_rows


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

    def test_a_missing_directory_is_reported_under_the_target_name(self, tmp_path):
        path = tmp_path / "nodir" / "out.txt"
        with pytest.raises(FileNotFoundError) as info, atomic_write(path):
            pass
        assert info.value.filename == str(path)
        assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"

    def test_a_directory_target_is_reported_under_the_target_name(self, tmp_path):
        path = tmp_path / "out.txt"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info, atomic_write(path) as fh:
            fh.write("new\n")
        assert info.value.filename == str(path) and info.value.filename2 is None
        assert str(info.value) == f"[Errno {errno.EISDIR}] Is a directory: '{path}'"
        assert os.listdir(tmp_path) == ["out.txt"] and path.is_dir()

    def test_raising_block_creates_nothing(self, tmp_path):
        with pytest.raises(Interrupted), atomic_write(tmp_path / "new.txt"):
            raise Interrupted
        assert os.listdir(tmp_path) == []


def _state(seed):
    return init_moco([4, 5, 3], 6, 0.99, seeded_rng(seed))


def _dataset(seed):
    return generate_spoke_clusters(3, 2, 4, 4, 8.0, 1.3, 0.5, seeded_rng(seed))


def _fails_on_the_third_line(real):
    """A line formatter that formats two lines with `real`, then raises."""
    lines = []

    def fake(values):
        lines.append(None)
        if len(lines) == 3:
            raise Interrupted
        return real(values)
    return fake


def _fails_in_a_helper(real):
    """A line formatter that raises in every process but this one: in an
    export's helpers only."""
    parent = os.getpid()

    def fake(values):
        if os.getpid() != parent:
            raise Interrupted
        return real(values)
    return fake


def _interrupted_on_the_third_line_here(real):
    """A line formatter that raises KeyboardInterrupt, as Ctrl-C would, on the
    third line this process formats; helpers format all their lines."""
    parent, lines = os.getpid(), []

    def fake(values):
        if os.getpid() == parent:
            lines.append(None)
            if len(lines) == 3:
                raise KeyboardInterrupt
        return real(values)
    return fake


def _fails_after_two_rows(real):
    """A hex block writer that writes two rows with `real`, then raises."""
    def fake(fh, matrix):
        real(fh, matrix[:2])
        raise Interrupted
    return fake


def _large_dataset(seed):
    """A dataset with more rows than one export part: 3 x 2 x 171 = 1026."""
    return generate_spoke_clusters(3, 2, training.MIN_ROWS_PER_PART // 6 + 1, 4, 8.0, 1.3, 0.5,
                                   seeded_rng(seed))


def _export_in_parts(seed, path):
    training.export_embeddings(_state(seed).query, _large_dataset(seed), path)


# writer name -> (module and name of the function the writer calls to format
# its rows, a fake of it that fails partway, writer(seed, path), the error the
# writer then raises); the moco queue rows come before the encoders, and a
# dataset's hex feature rows follow its one labels line. The test gives the
# process two CPUs, so the large export runs a helper, whose failure the
# writer reports as OSError.
WRITERS = {
    "save_dataset": (data, "write_hex_rows", _fails_after_two_rows,
                     lambda seed, path: data.save_dataset(_dataset(seed), path), Interrupted),
    "save_encoder": (encoder, "float_line", _fails_on_the_third_line,
                     lambda seed, path: encoder.save_encoder(_state(seed).query, path),
                     Interrupted),
    "save_moco": (moco, "write_hex_rows", _fails_after_two_rows,
                  lambda seed, path: moco.save_moco(_state(seed), path), Interrupted),
    "export_embeddings": (training, "float_line", _fails_on_the_third_line,
                          lambda seed, path: training.export_embeddings(
                              _state(seed).query, _dataset(seed), path), Interrupted),
    "export_embeddings_failing_in_a_helper": (training, "float_line", _fails_in_a_helper,
                                              _export_in_parts, OSError),
    "export_embeddings_interrupted_here": (training, "float_line",
                                           _interrupted_on_the_third_line_here,
                                           _export_in_parts, KeyboardInterrupt),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_interrupted_partway_keeps_the_earlier_file(writer, tmp_path, monkeypatch,
                                                           no_child_left):
    module, formatter, failing, write, raised = WRITERS[writer]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    path = tmp_path / "out.txt"
    write(1, path)
    before = path.read_bytes()
    monkeypatch.setattr(module, formatter, failing(getattr(module, formatter)))
    with pytest.raises(raised):
        write(2, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.txt"]


def test_cli_export_exits_3_when_a_helper_fails(tmp_path, monkeypatch, capfd, no_child_left):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    dataset, checkpoint, out = (tmp_path / name for name in ("data.txt", "ck.txt", "emb.txt"))
    data.save_dataset(_large_dataset(1), dataset)
    encoder.save_encoder(_state(1).query, checkpoint)
    argv = ["export-embeddings", "--checkpoint", str(checkpoint), "--data", str(dataset),
            "--out", str(out)]
    assert cli.main(argv) == 0
    before = out.read_bytes()
    monkeypatch.setattr(training, "float_line", _fails_in_a_helper(training.float_line))
    capfd.readouterr()
    assert cli.main(argv) == 3
    err = capfd.readouterr().err
    assert f"error writing rows 513..1026 to {out}: Interrupted()\n" in err
    assert f"file error: the helper writing rows 513..1026 of {out} ended with exit status 1" in err
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["ck.txt", "data.txt", "emb.txt"]


def test_a_killed_export_leaves_only_its_temp_file(tmp_path, no_child_left):
    """SIGKILL the process group of a two-part export while it writes: the
    helper's part has no name, so at most the `atomic_write` temp remains."""
    dataset, checkpoint, out = (tmp_path / name for name in ("data.txt", "ck.txt", "emb.txt"))
    data.save_dataset(generate_spoke_clusters(10, 10, 400, 20, 8.0, 1.3, 0.5, seeded_rng(0)),
                      dataset)
    encoder.save_encoder(encoder.init_encoder([20, 64, 64], seeded_rng(0)), checkpoint)
    code = ("import os, sys\nos.sched_getaffinity = lambda pid: {0, 1}\n"
            "from contrastlab.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    argv = ["export-embeddings", "--checkpoint", str(checkpoint), "--data", str(dataset),
            "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                          start_new_session=True) as export:
        # part 0 is written after the helper starts: kill once it is well under way
        deadline = time.monotonic() + 60
        while not any(name.endswith(".tmp") and (tmp_path / name).stat().st_size > 1 << 18
                      for name in os.listdir(tmp_path)):
            assert export.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        os.killpg(export.pid, signal.SIGKILL)
    left = sorted(os.listdir(tmp_path))
    assert left[:1] and left[0].startswith(".emb.txt.") and left[0].endswith(".tmp")
    assert left[1:] == ["ck.txt", "data.txt"]


FORK_THREADS = """\
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from contrastlab import numerics
from contrastlab.cli import main

def threads():
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("Threads:")))

numerics._openblas_threads()[1](2)  # two BLAS threads, whatever the environment says
counts = []
os.register_at_fork(after_in_parent=lambda: counts.append(threads()))
code = main(sys.argv[1:])
print(counts)
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_the_export_forks_from_a_process_of_one_thread(tmp_path, no_child_left):
    """numpy's OpenBLAS stops its worker threads in its own fork handler, so
    the process that forks an export helper runs one thread at the fork."""
    if numerics._openblas_threads() is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count functions")
    dataset, checkpoint, out = (tmp_path / name for name in ("data.txt", "ck.txt", "emb.txt"))
    data.save_dataset(_large_dataset(1), dataset)
    encoder.save_encoder(_state(1).query, checkpoint)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", FORK_THREADS, "export-embeddings",
                           "--checkpoint", str(checkpoint), "--data", str(dataset),
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"wrote 1026 embeddings to {out}\n[1]\n"


@pytest.mark.parametrize("text, parse, message", [
    ("seed 12\n", int, None),
    ("ema 0.5\n", float, None),
    ("seeds 12\n", int, "bad seed line: expected key 'seed', got 'seeds' (byte offset 6)"),
    ("seed 1.5\n", int, "bad int in seed line (byte offset 6)"),
    ("seed x\n", float, "bad float in seed line (byte offset 6)"),
    ("seed 1 2\n", int, "bad seed line: expected 2 fields, got 3 (byte offset 6)"),
], ids=["int", "float", "key", "not-an-int", "not-a-float", "fields"])
def test_value_after_names_the_line_and_its_offset(text, parse, message, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("magic\n" + text)
    with LineReader(path) as reader:
        reader.next_line()
        if message is None:
            assert reader.value_after(text.split()[0], "seed line", parse) == parse(text.split()[1])
        else:
            with pytest.raises(FormatError) as info:
                reader.value_after("seed", "seed line", parse)
            assert str(info.value) == message


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


# row counts on each side of the codec's 256-row chunk
HEX_ROWS = [0, 1, 255, 256, 257, 600]


def _hex_values(rows, cols, seed):
    """A (rows, cols) float64 matrix with signed zeros, subnormals, extremes
    and non-finite values among its normal draws."""
    values = np.random.default_rng(seed).standard_normal((rows, cols))
    specials = [-0.0, 5e-324, -np.finfo(np.float64).max, np.inf, np.nan, 1e-310]
    flat = values.reshape(-1)
    flat[: len(specials)] = specials[: flat.size]
    return values


def _row_loop_block(values):
    return "".join(hex_line(row) + "\n" for row in values).encode()


@pytest.mark.parametrize("cols", range(1, 9))
@pytest.mark.parametrize("rows", HEX_ROWS)
def test_write_hex_rows_writes_the_row_loop_bytes(rows, cols):
    values = _hex_values(rows, cols, rows * 8 + cols)
    fh = io.StringIO()
    write_hex_rows(fh, values)
    assert fh.getvalue().encode() == _row_loop_block(values)


HEADER, TRAILER = b"header\n", b"end\n"


@st.composite
def hex_files(draw):
    """(rows, cols, file bytes): a header line, a finite rows x cols hex block
    and a trailer line, with one defect or none: a byte substituted in the
    block or trailer, a truncation after the header, or a NaN row before a
    row with a bad digit."""
    rows = draw(st.sampled_from(HEX_ROWS))
    cols = draw(st.integers(1, 8))
    width = 16 * cols
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, cols))
    kinds = ["none", "substitute", "truncate"] + (["nan-then-bad-digit"] if rows >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "nan-then-bad-digit":
        nan_row = draw(st.integers(0, rows - 2))
        values[nan_row, draw(st.integers(0, cols - 1))] = np.nan
    text = bytearray(HEADER + _row_loop_block(values) + TRAILER)
    if kind == "substitute":
        at = len(HEADER) + draw(st.integers(0, rows * (width + 1) + len(TRAILER) - 1))
        text[at] = draw(st.one_of(st.sampled_from(b"0af9AFg \r\n\x00\xff"), st.integers(0, 255)))
    elif kind == "truncate":
        del text[draw(st.integers(len(HEADER), len(text) - 1)):]
    elif kind == "nan-then-bad-digit":
        bad_row = draw(st.integers(nan_row + 1, rows - 1))
        text[len(HEADER) + bad_row * (width + 1) + draw(st.integers(0, width - 1))] = ord("g")
    return rows, cols, bytes(text)


def _outcome(read):
    """The array bytes and end offset `read` returns, or its FormatError text."""
    try:
        out, end = read()
    except FormatError as exc:
        return str(exc)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    return out.tobytes(), end


def _read_hex_block(path, rows, cols):
    with LineReader(path) as reader:
        reader.next_line("header")
        return reader.hex_matrix(rows, cols, "features"), reader.offset


@settings(max_examples=300, deadline=None)
@given(hex_files())
def test_hex_matrix_gives_the_row_loop_outcome(tmp_path_factory, case):
    rows, cols, text = case
    path = tmp_path_factory.getbasetemp() / "hex_block.txt"
    path.write_bytes(text)
    expected = _outcome(lambda: read_hex_rows(text, len(HEADER), rows, cols, "features"))
    assert _outcome(lambda: _read_hex_block(path, rows, cols)) == expected


@pytest.mark.parametrize("row, byte", [(400, ord("g")), (300, 0xE9), (599, ord("A"))],
                         ids=["non-hex", "byte-above-ascii", "uppercase-in-partial-last-chunk"])
def test_a_bad_digit_is_reported_before_an_earlier_nan_row(tmp_path, row, byte):
    # 600 rows: chunks of 256, 256 and 88 rows; `binascii.a2b_hex` rejects
    # "g" and 0xE9 but decodes "A", so only the uppercase search catches the last
    values = np.random.default_rng(0).standard_normal((600, 20))
    values[10, 3] = np.nan
    text = bytearray(HEADER + _row_loop_block(values))
    text[len(HEADER) + row * 321 + 7] = byte
    path = tmp_path / "block.txt"
    path.write_bytes(text)
    with pytest.raises(FormatError) as exc:
        _read_hex_block(path, 600, 20)
    assert str(exc.value) == (
        f"bad features row {row}: expected 320 lowercase hex digits and a newline "
        f"(byte offset {len(HEADER) + row * 321})")


def test_a_file_that_shrinks_before_a_hex_block_ends_the_read(tmp_path):
    # 600 rows of 321 bytes, far more than the handle's buffer holds, cut in
    # row 300 after the header has been read
    values = np.random.default_rng(0).standard_normal((600, 20))
    path = tmp_path / "block.txt"
    path.write_bytes(HEADER + _row_loop_block(values) + TRAILER)
    cut = len(HEADER) + 300 * 321 + 100
    with LineReader(path) as reader:
        reader.next_line("header")
        os.truncate(path, cut)
        with pytest.raises(FormatError) as info:
            reader.hex_matrix(600, 20, "features")
    assert str(info.value) == f"unexpected end of file, wanted features row 300 (byte offset {cut})"
    assert info.value.offset == cut


def test_a_file_that_shrinks_before_a_line_ends_the_read(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("magic\nseed 12\n")
    with LineReader(path) as reader:
        os.truncate(path, 0)
        with pytest.raises(FormatError) as info:
            reader.next_line("magic line")
    assert str(info.value) == "unexpected end of file, wanted magic line (byte offset 0)"


def test_load_moco_holds_one_hex_chunk_of_the_file_at_a_time(tmp_path):
    """The traced peak of loading a K=4096 moco checkpoint (4.4 MB of text)
    stays under its arrays plus four 256-row chunks of queue text."""
    state = init_moco([20, 64, 64], 4096, 0.99, seeded_rng(0))
    path = tmp_path / "moco.txt"
    moco.save_moco(state, path)
    bound = (state.queue.nbytes + state.query.vector.nbytes + state.key.vector.nbytes
             + 4 * 256 * (16 * 64 + 1))
    del state
    tracemalloc.start()
    try:
        loaded, _ = moco.load_moco(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.queue.shape == (4096, 64)
    assert path.stat().st_size > bound
    assert peak < bound
