"""Line-oriented text serialization shared by checkpoints, datasets, and exports.

Floats are written with `repr`, the shortest decimal that round-trips to the
same 64-bit value, so save -> load is bit-exact while files stay readable by
external tools. Whole-file writers go through `atomic_write`, so a reader
sees either the old file or the complete new one.
"""

import contextlib
import os

import numpy as np

from .errors import FormatError


@contextlib.contextmanager
def atomic_write(path):
    """Yield a text handle whose content replaces `path` when the block ends.

    Writes go to a new hidden temp file in the target directory, which is
    synced and then moved over `path` with `os.replace`. If the block raises,
    the temp file is removed and `path` is left as it was; a killed process
    leaves at most the temp file.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
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


def float_line(values) -> str:
    return " ".join(repr(float(v)) for v in values)


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
        if self._pos < len(self._raw):
            raise FormatError("trailing content after the end of the data", self._pos)

    def matrix(self, rows: int, cols: int, what: str) -> np.ndarray:
        self.check_size(rows, cols, what)
        out = np.empty((rows, cols), dtype=np.float64)
        for r in range(rows):
            out[r] = self.floats(cols, f"{what} row {r}")
        return out
