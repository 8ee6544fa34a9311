"""Line-oriented text serialization shared by checkpoints, datasets, and exports.

Floats are written with `repr`, the shortest decimal that round-trips to the
same 64-bit value, so save -> load is bit-exact while files stay readable by
external tools. The two exceptions are bulk blocks that no one reads by eye,
the moco checkpoint's key queue and a dataset's feature rows: their rows are
written as the hex digits of their little-endian float64 bytes, which formats
and parses about 10-20x faster than `repr` text and is still ASCII, one row
per line. `write_hex_rows` writes such a block and `LineReader.hex_matrix`
reads it, both in chunks of 256 rows, so a block costs a few C-level calls per
chunk and temporaries of one chunk's size.
Whole-file writers go through `atomic_write`, so a reader sees either the old
file or the complete new one. `write_in_parts` formats a long run of rows on
several processes at once and appends them in order, byte for byte as one
process would.
"""

import binascii
import contextlib
import os
import signal

import numpy as np

from .errors import FormatError


def _hidden_path(path, suffix: str) -> str:
    """A new hidden file name next to `path`, unique to this process."""
    head, tail = os.path.split(os.fspath(path))
    return os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.{suffix}")


@contextlib.contextmanager
def atomic_write(path):
    """Yield a text handle whose content replaces `path` when the block ends.

    Writes go to a new hidden temp file in the target directory, which is
    synced and then moved over `path` with `os.replace`. If the block raises,
    the temp file is removed and `path` is left as it was; a killed process
    leaves at most the temp file.
    """
    tmp = _hidden_path(path, "tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# bytes per read when a part file is appended to the output
_COPY_BYTES = 64 * 1024


def write_in_parts(fh, path, bounds, write_rows) -> None:
    """Write rows bounds[0]..bounds[-1] to the text handle `fh` of `path`'s
    `atomic_write` block, as `write_rows(handle, lo, hi)` over each part
    lo..hi of the ascending `bounds` would in turn.

    Part 0 is written here, straight into `fh`. Each later part is written at
    the same time by a helper made with `os.fork`, which inherits the rows,
    writes its part to a hidden part file next to `path` and ends with
    `os._exit`; `write_rows` must not call BLAS, whose thread pool does not
    survive a fork. The parts are then appended in order and deleted. If a
    helper fails this raises OSError; on any failure, Ctrl-C included, the
    helpers still running are killed and every helper and part file is gone
    before the error propagates. A killed process can leave part files, as it
    can leave `atomic_write` temps.
    """
    parts = [_hidden_path(path, "part") for _ in bounds[2:]]
    helpers = {}  # part index -> pid of the helper not yet waited for
    try:
        for i, part in enumerate(parts):
            pid = os.fork()
            if pid == 0:
                _helper(part, write_rows, bounds[i + 1], bounds[i + 2])
            helpers[i] = pid
        write_rows(fh, bounds[0], bounds[1])
        fh.flush()
        for i, part in enumerate(parts):
            status = os.waitstatus_to_exitcode(os.waitpid(helpers[i], 0)[1])
            del helpers[i]
            if status:
                raise OSError(f"the helper writing rows {bounds[i + 1]}..{bounds[i + 2]} "
                              f"of {path} ended with exit status {status}")
            with open(part, "rb", buffering=0) as src:
                while chunk := src.read(_COPY_BYTES):
                    fh.buffer.write(chunk)
    finally:
        for pid in helpers.values():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(part)


def _helper(part, write_rows, lo, hi):
    """A forked helper's whole life: write rows lo..hi to the new file `part`
    and end the process, with status 0 only if every row was written. It
    never returns into the code it was forked from."""
    status = 1
    try:
        with open(part, "x") as out:
            write_rows(out, lo, hi)
        status = 0
    except Exception as exc:
        with contextlib.suppress(OSError):
            os.write(2, f"error writing rows {lo}..{hi} to {part}: {exc!r}\n".encode())
    finally:
        os._exit(status)


def float_line(values) -> str:
    """`values` as space-separated `repr` decimals, one per float64."""
    return " ".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


# rows per chunk of a hex block; bounds the codec's temporaries (about 260 KB
# of text at 64 columns) while keeping its Python-level calls per row small
_HEX_CHUNK_ROWS = 256
_HEX_DIGITS = b"0123456789abcdef"


def write_hex_rows(fh, matrix) -> None:
    """Write each row of the 2-D `matrix`, which has at least one column, as
    one line: its float64 little-endian bytes, 16 lowercase hex digits per
    value. A matrix of zero rows writes nothing."""
    matrix = np.asarray(matrix, dtype="<f8")
    line_bytes = 8 * matrix.shape[1]
    for lo in range(0, len(matrix), _HEX_CHUNK_ROWS):
        chunk = matrix[lo : lo + _HEX_CHUNK_ROWS].tobytes()
        fh.write(chunk.hex("\n", line_bytes) + "\n")


class LineReader:
    """Reads a text file line by line, tracking the byte offset of each line."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self._raw = fh.read()
        self._pos = 0

    @property
    def offset(self) -> int:
        return self._pos

    def next_line(self, what: str = "line") -> str:
        if self._pos >= len(self._raw):
            raise FormatError(f"unexpected end of file, wanted {what}", self._pos)
        end = self._raw.find(b"\n", self._pos)
        if end < 0:
            end = len(self._raw)
        start = self._pos
        line = self._raw[start:end]
        self._pos = end + 1
        try:
            return line.decode("ascii").rstrip("\r")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ascii bytes in {what}", start) from exc

    def expect(self, expected: str, what: str) -> None:
        start = self._pos
        line = self.next_line(what)
        if line != expected:
            raise FormatError(f"bad {what}: expected {expected!r}, got {line!r}", start)

    def fields(self, what: str, count: int | None = None) -> list[str]:
        start = self._pos
        parts = self.next_line(what).split()
        if count is not None and len(parts) != count:
            raise FormatError(f"bad {what}: expected {count} fields, got {len(parts)}", start)
        return parts

    def floats(self, count: int, what: str) -> np.ndarray:
        start = self._pos
        parts = self.fields(what, count)
        try:
            return np.array([float(p) for p in parts], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"bad float in {what}", start) from exc

    def int_after(self, key: str, what: str) -> int:
        start = self._pos
        parts = self.fields(what, 2)
        if parts[0] != key:
            raise FormatError(f"bad {what}: expected key {key!r}, got {parts[0]!r}", start)
        try:
            return int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad integer in {what}", start) from exc

    def float_after(self, key: str, what: str) -> float:
        start = self._pos
        parts = self.fields(what, 2)
        if parts[0] != key:
            raise FormatError(f"bad {what}: expected key {key!r}, got {parts[0]!r}", start)
        try:
            return float(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad float in {what}", start) from exc

    def check_size(self, rows: int, cols: int, what: str) -> None:
        """Reject a declared rows x cols block that is negative or larger than
        the rest of the file could hold (every value takes at least 2 bytes)."""
        if rows < 0 or cols < 0 or 2 * rows * cols > len(self._raw) - self._pos:
            raise FormatError(f"{what} size {rows} x {cols} does not fit the file", self._pos)

    @staticmethod
    def require_finite(values: np.ndarray, what: str) -> None:
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite value in {what}")

    def expect_eof(self) -> None:
        """Require that the last line read ended the file, newline included."""
        if self._pos > len(self._raw):
            raise FormatError("the last line has no newline", len(self._raw))
        if self._pos < len(self._raw):
            raise FormatError("trailing content after the end of the data", self._pos)

    def matrix(self, rows: int, cols: int, what: str) -> np.ndarray:
        self.check_size(rows, cols, what)
        out = np.empty((rows, cols), dtype=np.float64)
        for r in range(rows):
            out[r] = self.floats(cols, f"{what} row {r}")
        return out

    def hex_matrix(self, rows: int, cols: int, what: str) -> np.ndarray:
        """Read `rows` lines of `write_hex_rows` output, each exactly 16 * cols
        lowercase hex digits and a newline, into a finite (rows, cols) array.

        The block is checked and decoded in chunks of 256 rows straight into
        the result, so its temporaries are bounded by one chunk. Every row's
        digits and newline are checked before any value's finiteness, so a
        malformed row is reported ahead of an earlier non-finite one.
        """
        width, size = 16 * cols, 8 * cols  # digits and bytes per row
        start = self._pos
        if rows < 0 or cols < 0 or rows * (width + 1) > len(self._raw) - start:
            raise FormatError(f"{what} size {rows} x {cols} does not fit the file", start)
        out = np.empty((rows, cols), dtype="<f8")
        dest = memoryview(out.reshape(-1).view(np.uint8))
        lines = np.frombuffer(self._raw, np.uint8, rows * (width + 1), start)
        lines = lines.reshape(rows, width + 1)
        for lo in range(0, rows, _HEX_CHUNK_ROWS):
            chunk = lines[lo : lo + _HEX_CHUNK_ROWS]
            digits = chunk[:, :width].tobytes()
            if (chunk[:, width] != 0x0A).any() or digits.translate(None, _HEX_DIGITS):
                self._reject_hex_row(lo, len(chunk), width, what)
            dest[lo * size : (lo + len(chunk)) * size] = binascii.a2b_hex(digits)
        # in slices of rows, so the check's temporaries stay small too
        for lo in range(0, rows, _HEX_CHUNK_ROWS):
            finite = np.isfinite(out[lo : lo + _HEX_CHUNK_ROWS]).all(axis=1)
            if not finite.all():
                r = lo + int(np.argmin(finite))
                raise FormatError(f"non-finite value in {what} row {r}", start + r * (width + 1))
        self._pos = start + rows * (width + 1)
        return out.astype(np.float64, copy=False)

    def _reject_hex_row(self, first: int, count: int, width: int, what: str) -> None:
        """Raise for the first of rows `first`.. `first + count - 1` of the hex
        block at the current offset that is not `width` lowercase hex digits
        and a newline; the caller knows one of them is bad."""
        raw = self._raw
        for r in range(first, first + count):
            pos = self._pos + r * (width + 1)
            if raw[pos + width] != 0x0A or raw[pos : pos + width].translate(None, _HEX_DIGITS):
                raise FormatError(
                    f"bad {what} row {r}: expected {width} lowercase hex digits and a newline",
                    pos)
