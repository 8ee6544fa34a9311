"""Line-oriented text serialization shared by checkpoints, datasets, and exports.

Floats are written with `repr`, the shortest decimal that round-trips to the
same 64-bit value, so save -> load is bit-exact while files stay readable by
external tools. The two exceptions are bulk blocks that no one reads by eye,
the moco checkpoint's key queue and a dataset's feature rows: their rows are
written as the hex digits of their little-endian float64 bytes, which formats
and parses about 10-20x faster than `repr` text and is still ASCII, one row
per line. `write_hex_rows` writes such a block and `LineReader.hex_matrix`
reads it, both in chunks of 256 rows, so a block costs a few C-level calls per
chunk and temporaries of one chunk's size. The reader checks a chunk's digits
in the decode itself (`binascii.a2b_hex` fails on any byte that is not a hex
digit) plus a search for uppercase ones.
Loaders read through `LineReader`, which reads from an open file handle one
line, or one 256-row chunk of a hex block, at a time: no loader holds a whole
file, so loading a file costs its arrays plus a chunk, whatever its size.
Whole-file writers go through `atomic_write`, so a reader sees either the old
file or the complete new one. `write_in_parts` formats a long run of rows on
several processes at once, each into an unnamed temporary file, and appends
them in order, byte for byte as one process would.
"""

import binascii
import contextlib
import os
import shutil
import signal
import tempfile

import numpy as np

from .errors import FormatError


@contextlib.contextmanager
def atomic_write(path):
    """Yield a text handle whose content replaces `path` when the block ends.

    Writes go to a new hidden temp file in the target directory, named for
    the target and this process, which is synced and then moved over `path`
    with `os.replace`. If the block raises,
    the temp file is removed and `path` is left as it was; a killed process
    leaves at most the temp file.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x")
    except OSError as exc:
        # errors name the target: the caller never sees the temp file
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_in_parts(fh, path, bounds, write_rows) -> None:
    """Write rows bounds[0]..bounds[-1] to the text handle `fh` of `path`'s
    `atomic_write` block, as `write_rows(handle, lo, hi)` over each part
    lo..hi of the ascending `bounds` would in turn.

    Part 0 is written here, straight into `fh`. Each later part is written at
    the same time by a helper made with `os.fork`, into an unnamed temporary
    file in `path`'s directory that it inherits, and the helper ends with
    `os._exit`; `write_rows` must not call BLAS, whose thread pool does not
    survive a fork. The parts are then appended in order. If a helper fails
    this raises OSError; on any failure, Ctrl-C included, the helpers still
    running are killed and reaped before the error propagates. A part has
    no name, so however the process ends, it leaves no part file behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    helpers = {}  # part index -> pid of the helper not yet waited for
    with contextlib.ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=directory, buffering=0))
                 for _ in bounds[2:]]
        try:
            for i, part in enumerate(parts):
                pid = os.fork()
                if pid == 0:
                    _helper(part.fileno(), path, write_rows, bounds[i + 1], bounds[i + 2])
                helpers[i] = pid
            write_rows(fh, bounds[0], bounds[1])
            fh.flush()
            for i, part in enumerate(parts):
                status = os.waitstatus_to_exitcode(os.waitpid(helpers[i], 0)[1])
                del helpers[i]
                if status:
                    raise OSError(f"the helper writing rows {bounds[i + 1]}..{bounds[i + 2]} "
                                  f"of {path} ended with exit status {status}")
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
        finally:
            for pid in helpers.values():
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _helper(fd, path, write_rows, lo, hi):
    """A forked helper's whole life: write rows lo..hi of `path` to the open
    file `fd` and end the process, with status 0 only if every row was
    written. It never returns into the code it was forked from."""
    status = 1
    try:
        with open(fd, "w", closefd=False) as out:
            write_rows(out, lo, hi)
        status = 0
    except Exception as exc:
        with contextlib.suppress(OSError):
            os.write(2, f"error writing rows {lo}..{hi} to {path}: {exc!r}\n".encode())
    finally:
        os._exit(status)


def float_line(values) -> str:
    """`values` as space-separated `repr` decimals, one per float64."""
    return " ".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


# rows per chunk of a hex block; bounds the codec's temporaries (about 260 KB
# of text at 64 columns) while keeping its Python-level calls per row small
_HEX_CHUNK_ROWS = 256
_HEX_DIGITS = b"0123456789abcdef"
_UPPER_HEX_DIGITS = b"ABCDEF"


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
    """Reads a text file through an open binary handle, line by line or, for a
    hex block, 256 rows at a time, tracking the byte offset of each line. It
    never holds the whole file: its buffers are one line or one chunk.

    The size checks use the file's size when it was opened (`os.fstat`); a
    file that then shrinks makes a read come back short, which raises
    FormatError("unexpected end of file ...") at the offset where it ended.
    Use it as a context manager, which closes the handle.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        self._pos = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    @property
    def offset(self) -> int:
        return self._pos

    def next_line(self, what: str = "line") -> str:
        start = self._pos
        line = self._fh.readline()
        if not line:
            raise FormatError(f"unexpected end of file, wanted {what}", start)
        # a last line without its newline leaves the offset one past the end
        self._pos = start + len(line) + (not line.endswith(b"\n"))
        try:
            return line.rstrip(b"\n").decode("ascii").rstrip("\r")
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

    def value_after(self, key: str, what: str, parse):
        """`parse` (int or float) of the value on a `key value` line."""
        start = self._pos
        parts = self.fields(what, 2)
        if parts[0] != key:
            raise FormatError(f"bad {what}: expected key {key!r}, got {parts[0]!r}", start)
        try:
            return parse(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad {parse.__name__} in {what}", start) from exc

    def check_size(self, rows: int, cols: int, what: str) -> None:
        """Reject a declared rows x cols block that is negative or larger than
        the rest of the file could hold (every value takes at least 2 bytes)."""
        if rows < 0 or cols < 0 or 2 * rows * cols > self._size - self._pos:
            raise FormatError(f"{what} size {rows} x {cols} does not fit the file", self._pos)

    @staticmethod
    def require_finite(values: np.ndarray, what: str) -> None:
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite value in {what}")

    def expect_eof(self) -> None:
        """Require that the last line read ended the file, newline included."""
        if self._pos > self._size:
            raise FormatError("the last line has no newline", self._size)
        if self._pos < self._size:
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

        The block is read from the handle, checked and decoded in chunks of
        256 rows straight into the result, so its buffers are bounded by one
        chunk. A chunk is
        decoded first, which fails on any byte outside [0-9a-fA-F]; a chunk
        that fails, holds an uppercase digit or lacks a newline where one
        belongs goes to `_reject_hex_row`, which names its first bad row.
        Every row's digits and newline are checked before any value's
        finiteness, so a malformed row is reported ahead of an earlier
        non-finite one.
        """
        width, size = 16 * cols, 8 * cols  # digits and bytes per row
        stride = width + 1  # bytes per line
        start = self._pos
        if rows < 0 or cols < 0 or rows * stride > self._size - start:
            raise FormatError(f"{what} size {rows} x {cols} does not fit the file", start)
        out = np.empty((rows, cols), dtype="<f8")
        dest = memoryview(out.reshape(-1).view(np.uint8))
        text = bytearray(min(rows, _HEX_CHUNK_ROWS) * stride)
        lines = np.frombuffer(text, np.uint8).reshape(-1, stride)
        for lo in range(0, rows, _HEX_CHUNK_ROWS):
            count = min(_HEX_CHUNK_ROWS, rows - lo)
            at = start + lo * stride
            got = self._fh.readinto(memoryview(text)[: count * stride])
            if got < count * stride:
                raise FormatError(
                    f"unexpected end of file, wanted {what} row {lo + got // stride}", at + got)
            chunk = lines[:count]
            digits = chunk[:, :width].tobytes()
            try:
                decoded = binascii.a2b_hex(digits)
            except binascii.Error:
                decoded = None
            if (decoded is None or (chunk[:, width] != 0x0A).any()
                    or any(upper in digits for upper in _UPPER_HEX_DIGITS)):
                _reject_hex_row(text, lo, count, width, at, what)
            dest[lo * size : (lo + count) * size] = decoded
        # in slices of rows, so the check's temporaries stay small too
        for lo in range(0, rows, _HEX_CHUNK_ROWS):
            finite = np.isfinite(out[lo : lo + _HEX_CHUNK_ROWS]).all(axis=1)
            if not finite.all():
                r = lo + int(np.argmin(finite))
                raise FormatError(f"non-finite value in {what} row {r}", start + r * stride)
        self._pos = start + rows * stride
        return out.astype(np.float64, copy=False)


def _reject_hex_row(text, first: int, count: int, width: int, at: int, what: str) -> None:
    """Raise for the first of the `count` lines in `text`, rows `first`.. of
    a hex block, read from byte `at` of the file, that is not `width`
    lowercase hex digits and a newline; the caller knows one is bad."""
    for i in range(count):
        row = text[i * (width + 1) : (i + 1) * (width + 1)]
        if row[width] != 0x0A or row[:width].translate(None, _HEX_DIGITS):
            raise FormatError(
                f"bad {what} row {first + i}: expected {width} lowercase hex digits and a newline",
                at + i * (width + 1))
