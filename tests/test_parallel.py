"""Tests for the parallel execution helpers (§IV-E.2)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.selection import information_values_safe
from repro.exceptions import ConfigurationError
from repro.parallel import (
    chunk_indices,
    parallel_information_gains,
    parallel_information_values,
    parallel_map,
    resolve_n_jobs,
)


def square(x: float) -> float:  # module-level: picklable for the pool
    return x * x


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


class TestChunkIndices:
    def test_covers_range_in_order(self):
        chunks = chunk_indices(10, 3)
        flat = np.concatenate(chunks)
        assert flat.tolist() == list(range(10))

    def test_more_chunks_than_items(self):
        chunks = chunk_indices(2, 8)
        assert len(chunks) == 2

    def test_empty(self):
        assert chunk_indices(0, 4) == []


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], n_jobs=1) == [1, 4, 9]

    def test_parallel_matches_serial(self):
        items = list(range(20))
        assert parallel_map(square, items, n_jobs=2) == [i * i for i in items]

    def test_order_preserved(self):
        out = parallel_map(square, [5, 3, 1], n_jobs=2)
        assert out == [25, 9, 1]


class TestParallelIV:
    def test_matches_serial_exactly(self, rng):
        X = rng.normal(size=(2000, 12))
        y = (X[:, 0] > 0).astype(float)
        serial = information_values_safe(X, y, 10)
        parallel = parallel_information_values(X, y, 10, n_jobs=3)
        assert np.allclose(serial, parallel)

    def test_single_column(self, rng):
        X = rng.normal(size=(200, 1))
        y = (X[:, 0] > 0).astype(float)
        out = parallel_information_values(X, y, 10, n_jobs=4)
        assert out.shape == (1,)

    def test_safe_config_integration(self, interaction_data):
        from repro.core import SAFE, SAFEConfig

        serial = SAFE(SAFEConfig(gamma=15, n_jobs=1)).fit(interaction_data)
        parallel = SAFE(SAFEConfig(gamma=15, n_jobs=2)).fit(interaction_data)
        assert serial.feature_keys == parallel.feature_keys

    def test_invalid_n_jobs_in_config(self):
        from repro.core import SAFEConfig

        with pytest.raises(ConfigurationError):
            SAFEConfig(n_jobs=0)


class TestParallelRedundancy:
    def test_blocked_greedy_matches_serial(self, rng):
        n_groups = 5
        factors = rng.normal(size=(300, n_groups))
        X = factors[:, rng.integers(0, n_groups, size=24)]
        X = X + 0.3 * rng.normal(size=(300, 24))
        ivs = rng.uniform(0, 1, size=24)
        from repro.core import remove_redundant_features

        serial = remove_redundant_features(X, ivs, theta=0.8, block_size=8)
        parallel = remove_redundant_features(
            X, ivs, theta=0.8, block_size=8, n_jobs=2
        )
        assert parallel.tolist() == serial.tolist()

    def test_max_abs_correlation_chunked_matches(self, rng):
        from repro.core.redundancy import max_abs_correlation, standardize_columns
        from repro.parallel import parallel_max_abs_correlation

        Z, z_const = standardize_columns(rng.normal(size=(100, 9)))
        panel, p_const = standardize_columns(rng.normal(size=(100, 5)))
        serial = max_abs_correlation(Z, panel, z_const, p_const)
        parallel = parallel_max_abs_correlation(
            Z, panel, cand_constant=z_const, kept_constant=p_const, n_jobs=3
        )
        assert np.allclose(serial, parallel)


class TestParallelIG:
    def test_matches_serial(self, rng):
        X = rng.normal(size=(800, 8))
        y = (X[:, 1] > 0).astype(float)
        serial = parallel_information_gains(X, y, 10, n_jobs=1)
        parallel = parallel_information_gains(X, y, 10, n_jobs=2)
        assert np.allclose(serial, parallel)
        assert np.argmax(serial) == 1


def raise_value_error(x: float) -> float:  # module-level: picklable
    raise ValueError(f"bad item {x}")


class TestPoolFaultTolerance:
    """_run_pool: retries, serial fallback, and pool-less environments."""

    @pytest.fixture(autouse=True)
    def _clean_runtime(self):
        from repro.parallel import _reset_pool_state, set_retry_policy
        from repro.runtime.failpoints import FAILPOINTS

        FAILPOINTS.reset()
        set_retry_policy(None)
        _reset_pool_state()
        yield
        FAILPOINTS.reset()
        set_retry_policy(None)
        _reset_pool_state()

    def test_transient_fault_is_retried_without_warning(self, recwarn):
        from repro.parallel import set_retry_policy
        from repro.runtime.failpoints import active
        from repro.runtime.retry import RetryPolicy

        set_retry_policy(RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0))
        with active("parallel.pool", mode="once"):
            out = parallel_map(square, [1.0, 2.0, 3.0], n_jobs=2)
        assert out == [1.0, 4.0, 9.0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_exhausted_retries_fall_back_to_serial_with_warning(self):
        from repro.parallel import set_retry_policy
        from repro.runtime.failpoints import active
        from repro.runtime.retry import RetryPolicy

        set_retry_policy(RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0))
        with active("parallel.pool", mode="always"):
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                out = parallel_map(square, [1.0, 2.0, 3.0], n_jobs=2)
        assert out == [1.0, 4.0, 9.0]

    def test_pool_less_environment_degrades_once(self, monkeypatch, rng):
        import repro.parallel as par

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores here")

        monkeypatch.setattr(par, "ProcessPoolExecutor", NoPool)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            out = parallel_map(square, [1.0, 2.0], n_jobs=2)
        assert out == [1.0, 4.0]
        # The verdict is remembered: later calls go straight to serial
        # without warning again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = rng.normal(size=(60, 4))
            y = (X[:, 0] > 0).astype(float)
            serial = parallel_information_values(X, y, 5, n_jobs=1)
            degraded = parallel_information_values(X, y, 5, n_jobs=2)
        assert np.allclose(serial, degraded)

    def test_pool_broken_between_submits_retries_the_unsent_shards(self, monkeypatch):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        import repro.parallel as par
        from repro.parallel import parallel_shard_reduce, set_retry_policy
        from repro.runtime.retry import RetryPolicy

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
        out = parallel_shard_reduce(
            square,
            [1.0, 2.0, 3.0],
            [(0, 1), (1, 2), (2, 3)],
            lambda a, b: a + b,
            n_jobs=2,
            label="test",
        )
        assert out == 14.0
        # Round one submitted shard 0 and failed at shard 1; round two
        # re-submitted shards 1 and 2 only.
        assert submits == [1.0, 2.0, 2.0, 3.0]

    def test_worker_data_errors_propagate_unretried(self):
        from repro.parallel import set_retry_policy
        from repro.runtime.retry import RetryPolicy

        set_retry_policy(RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0))
        with pytest.raises(ValueError, match="bad item"):
            parallel_map(raise_value_error, [1.0, 2.0], n_jobs=2)
