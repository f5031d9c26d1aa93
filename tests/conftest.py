import multiprocessing
import threading

import pytest

from fedboost import paillier


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fails a test that leaves a child process or a new thread behind; a
    leftover child is killed first, so that it fails no later test."""
    threads = set(threading.enumerate())
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.kill()
        child.join()
    new_threads = [t for t in threading.enumerate() if t not in threads]
    assert not children and not new_threads, f"left running: {children + new_threads}"


@pytest.fixture(scope="session")
def key128():
    return paillier.keygen(128, seed=1234)


@pytest.fixture(scope="session")
def key64():
    return paillier.keygen(64, seed=99)
