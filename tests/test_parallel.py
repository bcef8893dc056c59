import os
import time

import pytest

from dsquant import parallel


@pytest.fixture
def blas_count():
    """OpenBLAS's get and set, with the count set to 3 for the test and
    the caller's count restored after it."""
    controls = parallel.openblas_threads()
    if controls is None:
        pytest.skip("NumPy's BLAS is not a settable OpenBLAS")
    get, set_ = controls
    before = get()
    set_(3)
    yield get
    set_(before)


def _fork(monkeypatch, fork: bool):
    monkeypatch.setattr(parallel, "use_fork", lambda one_blas_thread: fork)


class TestStarted:
    """started() pins OpenBLAS to one thread for its block, however the
    block ends, and forks only when the work is worth a fork."""

    def test_work_that_raises_inline_restores_the_count(self, blas_count, monkeypatch,
                                                         forks):
        seen = []

        def fail():
            seen.append(blas_count())
            raise KeyError("the work failed")

        _fork(monkeypatch, False)
        with pytest.raises(KeyError):
            with parallel.started(fail):
                pass
        assert seen == [1] and blas_count() == 3 and forks == []

    def test_a_block_that_raises_with_the_child_running_restores_the_count(
            self, blas_count, monkeypatch, forks):
        _fork(monkeypatch, True)
        with pytest.raises(KeyError):
            with parallel.started(lambda: time.sleep(60)):
                assert blas_count() == 1
                raise KeyError("the parent's half failed")
        assert blas_count() == 3 and len(forks) == 1
        with pytest.raises(ChildProcessError):  # killed and reaped
            os.waitpid(forks[0], os.WNOHANG)

    def test_a_failed_child_restores_the_count(self, blas_count, monkeypatch, forks):
        def fail() -> bytes:
            raise ValueError("the child's half failed")

        _fork(monkeypatch, True)
        with pytest.raises(ValueError, match="^the child's half failed$"):
            with parallel.started(fail) as result:
                result()
        assert blas_count() == 3 and len(forks) == 1

    def test_work_not_worth_a_fork_runs_here(self, monkeypatch, forks):
        _fork(monkeypatch, True)
        with parallel.started(lambda: str(os.getpid()).encode(), worth=False) as result:
            assert result() == str(os.getpid()).encode()
        assert forks == []
