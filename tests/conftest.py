import os

import pytest

from optics_cp import sim


@pytest.fixture
def fresh_pool():
    """No cached Monte Carlo workers before or after the test, so workers
    fork from the code as the test patched it and never outlive the patch."""
    sim._stop_workers()
    yield
    sim._stop_workers()


def child_count() -> int:
    """Live child processes of this process (Linux /proc)."""
    path = f"/proc/self/task/{os.getpid()}/children"
    if not os.path.exists(path):
        pytest.skip("needs /proc/<pid>/task/<tid>/children")
    with open(path, encoding="ascii") as fh:
        return len(fh.read().split())
