"""The package's one pin of numpy's OpenBLAS to a single thread."""

import os
import threading
import time

import pytest

from optics_cp import blas


@pytest.fixture
def count():
    calls = blas._thread_calls()
    if calls is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    return calls[0]


def test_pin_yields_the_count_found_and_restores_it(count):
    before = count()
    with blas.single_thread() as found:
        assert found == before and count() == 1
        with blas.single_thread() as inner:  # nested, as inside run_experiment
            assert inner == 1 and count() == 1
        assert count() == 1
    assert count() == before


def test_overlapping_pins_from_threads_restore_the_count(count):
    # A enters, B enters, A leaves, B leaves: B must still run pinned after A
    # leaves, and the count found before A must come back after B
    before = count()
    seen = {}
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def a():
        with blas.single_thread() as found:
            seen["a"] = found
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with blas.single_thread() as found:
            seen["b"] = found
            b_in.set()
            a_out.wait(10)
            seen["b after a"] = count()

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"a": before, "b": 1, "b after a": 1}
    assert count() == before


def test_forked_child_does_not_inherit_a_held_lock():
    with blas._lock:  # as if another thread were inside the pin's bookkeeping
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with blas.single_thread():
                    code = 0
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child blocked on the pin's lock")
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_without_openblas_nothing_is_pinned(monkeypatch):
    monkeypatch.setattr(blas, "_thread_calls", lambda: None)
    with blas.single_thread() as found:
        assert found == 1

