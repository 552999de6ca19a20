"""Checks run after every test of the suite."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test that leaves a child process running or unreaped fails, as one that leaves a file open does."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("the test left a child process running" if pid == 0 else "the test left child process %d unreaped"
                % pid)
