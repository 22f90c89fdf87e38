"""The one pin of numpy's OpenBLAS to a single thread, shared by the package,
and the parallel section (``run``) that spends the T threads it finds.

GEMM results can differ in their last bits between BLAS thread counts, so
the bootstrap and every Monte Carlo run multiply on one BLAS thread.  The
pin is process-wide state: nested and concurrent pins share it, the first
in saving the count and the last out restoring it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np


@functools.cache
def _thread_calls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    # listdir, not glob: importing glob with the package moved the heap layout
    # of analyze, raising its peak RSS
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name or ".so" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# pins held now, and the count the first of them found
_depth = 0
_saved = 1
_lock = threading.Lock()


@contextlib.contextmanager
def single_thread():
    """Pin numpy's OpenBLAS to one thread for the block; yields the thread
    count found on entry, which is 1 inside another pin and 1 without
    numpy's bundled OpenBLAS (then nothing is pinned)."""
    global _depth, _saved
    calls = _thread_calls()
    if calls is None:
        yield 1
        return
    get, put = calls
    with _lock:
        found = get()
        if _depth == 0:
            _saved = found
            put(1)
        _depth += 1
    try:
        yield found
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                put(_saved)


def _fresh_lock() -> None:
    """In a forked child: drop a lock that another thread of the parent may have held."""
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere there is no fork
    os.register_at_fork(after_in_child=_fresh_lock)


def place(i: int) -> None:
    """Move the calling thread to the i-th CPU (cyclically) of its affinity mask
    and restore the mask at once: a start position, not a pin, which keeps a
    user's mask.  A no-op where the platform has no ``os.sched_setaffinity``."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else ()
    if len(mask) > 1:
        with contextlib.suppress(OSError):  # the CPUs changed meanwhile; it only saves time
            os.sched_setaffinity(0, {sorted(mask)[i % len(mask)]})
            os.sched_setaffinity(0, mask)


def run(jobs: list, stop) -> None:
    """Run jobs[0] here and each other job in a daemon thread, all placed on
    CPUs of their own when there are two or more (unplaced, two threads were
    seen to share one CPU of a 2-vCPU guest).  The first error of any job,
    an interrupt too, calls ``stop`` to end the others after their current
    step, and is raised once no thread runs, through any further interrupt."""
    errors = []

    def work(i):
        try:
            if len(jobs) > 1:
                place(i)
            jobs[i]()
        except BaseException as exc:  # re-raised below, once every thread has ended
            errors.append(exc)
            stop()

    helpers = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(1, len(jobs))]
    interrupt = None
    try:
        for t in helpers:
            t.start()
        work(0)
    finally:
        stop()
        for t in helpers:  # a second Ctrl-C must not leave a helper inside numpy
            while t.is_alive():
                try:
                    t.join()
                except KeyboardInterrupt as exc:
                    interrupt = interrupt or exc
    if interrupt is not None or errors:
        raise interrupt or errors[0]
