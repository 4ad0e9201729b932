import os

import pytest

from liblab import rmt


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """After the last test, close the shard pool and check that no child of
    this process is left: a leaked worker fails the run instead of
    outliving it."""
    yield
    rmt._close_pool()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
