"""Half of a stage's row work in a forked child, one OpenBLAS thread each.

halves(chunks, work) is the one split of row work: work runs on the
first half of a stage's row chunks (quantizer.row_chunks) here and on
the second half in a forked child, each process reading its own rows
through the row source's chunks(). score_dataset()'s child sends back
its scores; write_qds()'s child writes its records into the output file
itself and sends back nothing. compare() trains its baseline arm in a
forked child, which sends back its model. All of them fork through
started(), the one owner of that decision: it runs a function in a
forked child and hands back its result or its exception, pickled, or
runs it in the caller's process when forking does not pay, so a result
is the same bit for bit either way.

Forking pays only with two usable cores, and only when each process
keeps OpenBLAS to one thread: two processes with a BLAS thread per core
each oversubscribe the cores (without the pin, a forked compare took
27.3 s instead of 5.1-5.8 s on the CIFAR-shaped bench workload on two
cores). So started() pins OpenBLAS to one thread for its whole block,
forked or not, and forks when use_fork() says so, which also needs the
pin to have taken.

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
    """The forked child: run work, send back what it returns or its
    exception, pickled, and leave without the parent's cleanup."""
    status = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(reader)
        try:
            message, status = pickle.dumps(work()), 0
        except Exception as exc:  # anything else exits with status 1
            message = pickle.dumps(exc)
        with open(writer, "wb") as fh:
            fh.write(message)
    finally:
        os._exit(status)


@contextlib.contextmanager
def started(work, worth: bool = True):
    """Start work(), which returns a picklable value, for the with block,
    with OpenBLAS on one thread for the whole block: in a forked child if
    worth and use_fork allow, else here and now. Yields result(), which
    returns that value or raises its exception. Once a child starts no
    reference to work is kept here, so the child's copy of its data is
    the only one left; leaving the block kills and reaps a child still
    there."""
    with one_blas_thread() as pinned:
        if not (worth and use_fork(pinned)):
            value = work()
            yield lambda: value
            return
        pid, (reader, writer) = None, os.pipe()
        pipe = open(reader, "rb")
        try:
            # SIGINT and SIGTERM wait until the child has reset its handlers
            # and the parent holds the child's pid, so neither runs the
            # other's cleanup
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
            try:
                with warnings.catch_warnings():  # see "Forking" in the module docstring
                    warnings.filterwarnings(
                        "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _run_child(work, reader, writer, mask)
            finally:
                os.close(writer)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a pending signal raises here
            del work

            def result():
                nonlocal pid
                message = pipe.read()
                _, status = os.waitpid(pid, 0)
                pid, code = None, os.waitstatus_to_exitcode(status)
                if code == 0:
                    return pickle.loads(message)
                if message:
                    raise pickle.loads(message)
                raise RuntimeError(f"forked worker process exited with code {code}")

            yield result
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()


def halves(chunks, work):
    """(work(first half of chunks), work(second half)): the second half in
    a forked child where started() forks, which it tries only with two
    chunks or more."""
    half = len(chunks) // 2
    with started(lambda: work(chunks[half:]), half > 0) as second:
        return work(chunks[:half]), second()
