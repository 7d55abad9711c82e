"""Suite-wide guard: a test must reap every child process it forks."""
from __future__ import annotations

import os
import signal

import pytest


@pytest.fixture(autouse=True)
def forked_pids(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test, which
    fails if any of them is not reaped by its end."""
    forked: list[int] = []
    real_fork = os.fork

    def recording_fork() -> int:
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield forked
    left = []
    for pid in forked:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        left.append(pid)
        # Killed and reaped here so that one leak fails one test, not the ones after it.
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if left:
        pytest.fail(f"forked child process(es) {left} were not reaped", pytrace=False)
