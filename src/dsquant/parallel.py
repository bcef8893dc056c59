"""Half of a stage's work in a forked child, one OpenBLAS thread each.

compare() trains its baseline arm in a child while the caller trains the
quantized arm; score_dataset() scores the second half of its row chunks
in a child while the caller scores the first; write_qds() encodes the
second half of its row chunks in a child, which writes them into the
output file itself. All three use Started, which runs a function
returning bytes in a forked child and hands those bytes back (or the
child's exception), so a result is the same bit for bit whether the
work was forked or run in the caller's process.

Forking pays only with two usable cores, and only when each process
keeps OpenBLAS to one thread: two processes with a BLAS thread per core
each oversubscribe the cores (without the pin, a forked compare took
27.3 s instead of 5.1-5.8 s on the CIFAR-shaped bench workload on two
cores). So a stage runs its
work under one_blas_thread() and forks when use_fork() says so, which
also needs the pin to have taken.

Forking: on Python >= 3.12, os.fork() warns when the process has more
than one thread. use_fork() is false while another Python thread runs,
and OpenBLAS stops its worker threads in its own fork handler, so the
child holds only the forking thread; that one warning is silenced for
the fork call alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import threading
import warnings

# (get, set) thread-count symbols of the OpenBLAS builds NumPy ships:
# NumPy 2 wheels, NumPy 1 wheels, a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


@functools.cache
def openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS that NumPy
    loaded, found by symbol; None without one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    except OSError:  # no /proc, or a library that will not load
        pass
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore the caller's
    count after it; yields whether the count could be set."""
    controls = openblas_threads()
    if controls is None:
        yield False
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)


def use_fork(one_blas_thread: bool) -> bool:
    """Whether to fork: two usable cores, one BLAS thread per process
    (else the processes' BLAS threads oversubscribe the cores), and no
    other Python thread that a fork could strand."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (one_blas_thread and affinity is not None and len(affinity(0)) >= 2
            and threading.active_count() == 1)


def _run_child(work, reader: int, writer: int, mask):
    """The forked child: run work, send back the bytes it returns or its
    exception pickled, and leave without the parent's cleanup."""
    status = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(reader)
        try:
            message, status = work(), 0
        except Exception as exc:  # anything else exits with status 1
            message = pickle.dumps(exc)
        with open(writer, "wb") as fh:
            fh.write(message)
    finally:
        os._exit(status)


class Started:
    """work(), which returns bytes, started on entering the with block:
    in a forked child with fork, else run here and then. Once it starts
    no reference to work is kept here, so with fork the child's copy of
    its data is the only one left. result() returns its bytes or raises
    its exception; leaving the block kills and reaps a child still there."""

    def __init__(self, work, fork: bool):
        self._work, self._fork = work, fork
        self._pid = self._pipe = None

    def __enter__(self):
        work, self._work = self._work, None
        if not self._fork:
            self._value = work()
            return self
        reader, writer = os.pipe()
        self._pipe = open(reader, "rb")
        # SIGINT and SIGTERM wait until the child has reset its handlers and
        # the parent holds the child's pid, so neither runs the other's cleanup
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
        try:
            try:
                with warnings.catch_warnings():  # see "Forking" in the module docstring
                    warnings.filterwarnings(
                        "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
                    self._pid = os.fork()
                if self._pid == 0:
                    _run_child(work, reader, writer, mask)
            finally:
                os.close(writer)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a pending signal raises here
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()
        if self._pipe is not None:
            self._pipe.close()

    def _reap(self) -> int:
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return os.waitstatus_to_exitcode(status)

    def result(self) -> bytes:
        if not self._fork:
            return self._value
        message = self._pipe.read()
        code = self._reap()
        if code == 0:
            return message
        if message:
            raise pickle.loads(message)
        raise RuntimeError(f"forked worker process exited with code {code}")
