import os

import pytest


@pytest.fixture
def no_child_left():
    """Require that the test starts and ends with no child process of this
    one, running or exited and not yet waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
