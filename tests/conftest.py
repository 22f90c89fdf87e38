import contextlib
import os

import numpy as np
import pytest

from optics_cp import blas, sim
from optics_cp.blas import single_thread as real_pin
from optics_cp.ext import HuberConfig, _huber_elem


@pytest.fixture
def fresh_pool():
    """No cached Monte Carlo workers before or after the test, so workers
    fork from the code as the test patched it and never outlive the patch."""
    sim._stop_workers()
    yield
    sim._stop_workers()


@pytest.fixture
def force_threads(monkeypatch):
    """``force_threads(t)`` makes the bootstrap, which runs on as many threads
    as numpy's BLAS had, find ``t`` BLAS threads, whatever the machine has; it
    still pins BLAS through the real helper."""
    def force(threads):
        @contextlib.contextmanager
        def pinned():
            with real_pin():
                yield threads

        monkeypatch.setattr(blas, "single_thread", pinned)

    return force


def child_count() -> int:
    """Live child processes of this process (Linux /proc)."""
    path = f"/proc/self/task/{os.getpid()}/children"
    if not os.path.exists(path):
        pytest.skip("needs /proc/<pid>/task/<tid>/children")
    with open(path, encoding="ascii") as fh:
        return len(fh.read().split())


def blas_count():
    """numpy's OpenBLAS thread count now, or None without numpy's bundled OpenBLAS."""
    calls = blas._thread_calls()
    return None if calls is None else calls[0]()


def huber_loss(u, kappa: float) -> float:
    """The Huber loss the robust fit applies, summed over coordinates: the
    package's per-element rule, with its check of the threshold."""
    HuberConfig(kappa=kappa)  # refuses a kappa that is not finite and positive
    return float(_huber_elem(np.asarray(u, dtype=np.float64), kappa).sum())
