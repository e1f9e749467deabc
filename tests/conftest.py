import subprocess

import pytest

from kbqa.fixtures import toy_store


@pytest.fixture(scope="session")
def toy():
    return toy_store()


@pytest.fixture()
def popen_children(monkeypatch):
    """Every child process started during the test, in start order."""
    children = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        children.append(real_popen(*args, **kwargs))
        return children[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return children
