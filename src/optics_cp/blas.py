"""The one pin of numpy's OpenBLAS to a single thread, shared by the package.

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
