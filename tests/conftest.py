"""Fixtures for the tests of forked workers."""

import os

import pytest


@pytest.fixture
def use_cpus(monkeypatch):
    """use_cpus(k) makes os.sched_getaffinity report k CPUs for the test."""
    def use(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    return use


@pytest.fixture
def no_child_left():
    """no_child_left() asserts that the test process has no child to reap."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check
