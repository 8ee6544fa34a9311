"""Exception types shared across the library, one per CLI exit code.

`cli.main` maps them by class: DivergedRunError exits 2, FormatError (and
OSError) exits 3, and any other ContrastLabError exits 1.
"""


class ContrastLabError(Exception):
    """Base class for all library errors; exit 1 unless a subclass says otherwise."""


class ConfigurationError(ContrastLabError):
    """Exit 1: a config value, call parameter or operand is outside its
    allowed range, shape or domain; the message names what is wrong."""


class FormatError(ContrastLabError):
    """Exit 3: a file failed to parse; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DivergedRunError(ContrastLabError):
    """Exit 2: a computed loss, gradient or probe value went non-finite."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        if epoch is not None:
            message = f"{message} (epoch {epoch}, batch {batch})"
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
