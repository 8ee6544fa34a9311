import os

import pytest

from contrastlab import numerics


@pytest.fixture
def no_child_left():
    """Require that the test starts and ends with no child process of this
    one, running or exited and not yet waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def two_blas_threads():
    """BLAS set to 2 threads for the test, then back to what it was; yields
    the thread-count getter."""
    controls = numerics._openblas_threads()
    if controls is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count functions")
    get, set_ = controls
    previous = get()
    set_(2)
    yield get
    set_(previous)
