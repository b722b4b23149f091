"""Tests for the process-pool layer (§IV-E.2): the row-shard reducer."""

from __future__ import annotations

import time
import warnings

import pytest

from repro.exceptions import ConfigurationError
from repro.parallel import parallel_shard_reduce, resolve_n_jobs, set_retry_policy
from repro.runtime import failpoints
from repro.runtime.retry import RetryPolicy


def square(x: float) -> float:  # module-level: picklable for the pool
    return x * x


def add(a: float, b: float) -> float:
    return a + b


def reduce_squares(worker=square, payloads=(1.0, 2.0, 3.0)) -> float:
    """Sum of ``worker`` over one shard per payload, on a two-worker pool."""
    return parallel_shard_reduce(
        worker,
        list(payloads),
        [(i, i + 1) for i in range(len(payloads))],
        add,
        n_jobs=2,
        label="test",
    )


class TestResolveNJobs:
    def test_none_is_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_minus_one_uses_cores(self):
        assert resolve_n_jobs(-1) >= 1

    def test_explicit(self):
        assert resolve_n_jobs(3) == 3

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(-2)


class TestParallelIV:
    def test_safe_config_integration(self, interaction_data):
        from repro.core import SAFE, SAFEConfig

        serial = SAFE(SAFEConfig(gamma=15, n_jobs=1)).fit(interaction_data)
        parallel = SAFE(SAFEConfig(gamma=15, n_jobs=2)).fit(interaction_data)
        assert serial.feature_keys == parallel.feature_keys

    def test_in_memory_fit_starts_no_pool(self, interaction_data, monkeypatch):
        import concurrent.futures

        import repro.parallel as par
        from repro.core import SAFE, SAFEConfig

        class NoPoolAllowed:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the in-memory fit started a process pool")

        monkeypatch.setattr(par, "ProcessPoolExecutor", NoPoolAllowed)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPoolAllowed)
        SAFE(SAFEConfig(gamma=15, n_jobs=2)).fit(interaction_data)

    def test_invalid_n_jobs_in_config(self):
        from repro.core import SAFEConfig

        with pytest.raises(ConfigurationError):
            SAFEConfig(n_jobs=0)


def raise_value_error(x: float) -> float:  # module-level: picklable
    raise ValueError(f"bad item {x}")


def sleep_in_worker(x: float) -> float:
    """Hangs for 10 s inside a pool worker; returns at once in-process."""
    if failpoints._IN_WORKER:
        time.sleep(10.0)
    return x * x


class TestPoolFaultTolerance:
    """parallel_shard_reduce: retries, serial fallback, pool-less hosts."""

    @pytest.fixture(autouse=True)
    def _clean_runtime(self):
        from repro.parallel import _reset_pool_state

        failpoints.FAILPOINTS.reset()
        set_retry_policy(None)
        _reset_pool_state()
        yield
        failpoints.FAILPOINTS.reset()
        set_retry_policy(None)
        _reset_pool_state()

    def test_transient_fault_is_retried_without_warning(self, recwarn):
        set_retry_policy(RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
        with failpoints.active("parallel.pool", mode="once"):
            out = reduce_squares()
        assert out == 14.0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_exhausted_retries_fall_back_to_serial_with_warning(self):
        set_retry_policy(RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0))
        with failpoints.active("parallel.pool", mode="always"):
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                out = reduce_squares()
        assert out == 14.0

    def test_pool_less_environment_degrades_once(self, monkeypatch):
        import repro.parallel as par

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores here")

        monkeypatch.setattr(par, "ProcessPoolExecutor", NoPool)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            out = reduce_squares(payloads=(1.0, 2.0))
        assert out == 5.0
        # The verdict is remembered: later calls go straight to serial
        # without warning again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reduce_squares() == 14.0

    def test_pool_broken_between_submits_retries_the_unsent_shards(self, monkeypatch):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        import repro.parallel as par

        submits = []

        class BreaksOnSecondSubmit:
            """Runs work inline; the second submit overall finds the pool
            broken, as when a killed worker breaks it mid-round."""

            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, arg):
                submits.append(arg)
                if len(submits) == 2:
                    raise BrokenProcessPool("a worker died mid-round")
                future = Future()
                future.set_result(fn(arg))
                return future

        set_retry_policy(RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
        monkeypatch.setattr(par, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        out = reduce_squares()
        assert out == 14.0
        # Round one submitted shard 0 and failed at shard 1; round two
        # re-submitted shards 1 and 2 only.
        assert submits == [1.0, 2.0, 2.0, 3.0]

    def test_worker_data_errors_propagate_unretried(self):
        set_retry_policy(RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
        with pytest.raises(ValueError, match="bad item"):
            reduce_squares(worker=raise_value_error, payloads=(1.0, 2.0))

    def test_hung_worker_is_bounded_by_the_attempt_timeout(self):
        set_retry_policy(
            RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0, per_attempt_timeout=0.5
            )
        )
        start = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            out = reduce_squares(worker=sleep_in_worker, payloads=(1.0, 2.0))
        assert out == 5.0
        assert time.perf_counter() - start < 5.0
