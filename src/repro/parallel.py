"""Process-pool execution (the §IV-E.2 distributed-computing story).

The paper's industrial requirements include that "most parts of the
automatic feature engineering algorithm should be able to be calculated
in parallel". One mechanism does that here: :func:`parallel_shard_reduce`
runs one worker per contiguous row shard, retries failed shards, and
merges the shards' partials in shard order. Its one caller is the
out-of-core fit's IV count pass, :func:`parallel_stream_iv_counts`,
whose workers receive :class:`~repro.tabular.ChunkedDataset` shards
(paths, not rows); ``SAFEConfig(n_jobs=...)`` sets the shard count.

The in-memory fit is serial at any ``n_jobs``: its pooled IV, ranking,
generation and redundancy paths each measured slower than the serial
batched kernel they wrapped (a fresh pool per call plus pickling the
columns cost more than the work), so they were removed.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

import numpy as np

from .exceptions import ConfigurationError, InjectedFault, ShardFailureError
from .runtime.failpoints import failpoint, mark_worker_process
from .runtime.retry import RetryPolicy

T = TypeVar("T")
R = TypeVar("R")

#: Default policy for pool attempts; swap via :func:`set_retry_policy`.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=1.0)

#: Infrastructure failures worth retrying (data errors are not).
_RETRYABLE = (
    BrokenProcessPool,
    FuturesTimeoutError,
    pickle.PicklingError,
    InjectedFault,
)

_retry_policy = DEFAULT_RETRY_POLICY

#: Set once this process has proven unable to start a pool.
_pool_unavailable = False


def set_retry_policy(policy: "RetryPolicy | None") -> RetryPolicy:
    """Install the pool retry policy (``None`` restores the default)."""
    global _retry_policy
    _retry_policy = DEFAULT_RETRY_POLICY if policy is None else policy
    return _retry_policy


def _reset_pool_state() -> None:
    """Forget a recorded pool-unavailable verdict (test hook)."""
    global _pool_unavailable
    _pool_unavailable = False


def policy_sleep(seconds: float) -> None:
    """Indirection over ``time.sleep`` so tests can stub backoff waits."""
    import time

    time.sleep(seconds)


def resolve_n_jobs(n_jobs: "int | None") -> int:
    """Normalize an ``n_jobs`` request: None/1 → 1, -1 → all cores."""
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ConfigurationError("n_jobs must be >= 1 or -1 for all cores")
    return int(n_jobs)


# Serial stand-ins for the removed pooled stages. Nothing in the program
# calls them; they stay only because the benchmark's traced run
# (perfbench/spans.py) installs span wrappers on these names.


def parallel_information_values(X, y, n_bins):
    """Per-column information values (serial)."""
    from .core.selection import information_values_safe

    return information_values_safe(X, y, n_bins)


def parallel_score_combinations(X, y, combos):
    """Algorithm 2 gain ratios (serial)."""
    from .core.scoring import score_combinations

    return score_combinations(X, y, combos)


def parallel_generate_features(*args, **kwargs):
    """Algorithm 1 line 6 generation (serial; ``generate_features``'s args)."""
    from .core.generation import generate_features

    return generate_features(*args, **kwargs)


def _stream_iv_shard(payload) -> "np.ndarray | None":
    """Worker: merged IV bin counts over one dataset row shard.

    The shard is a :class:`~repro.tabular.ChunkedDataset` view — file
    backing ships as paths and re-opens its memory maps in the worker,
    so no rows cross the process boundary. Returns the shard's merged
    ``(2, n_cols, stride)`` counts, or None for an empty shard.
    """
    shard, expressions, edges_per_col, scorable, stride = payload
    from .core.stream import forest_chunks
    from .metrics.batched import iv_bin_counts, merge_counts

    failpoint("stream.shard.run")
    counts = None
    for _, block, y_chunk in forest_chunks(shard, expressions)():
        pos_mask = np.asarray(y_chunk, dtype=np.float64).ravel() == 1
        part = iv_bin_counts(
            np.ascontiguousarray(block.T), pos_mask, edges_per_col, scorable, stride
        )
        counts = part if counts is None else merge_counts(counts, part)
    return counts


#: Placeholder for a shard whose result has not arrived yet.
_SHARD_PENDING = object()


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's workers so leaving its block cannot join a hung one.

    Python 3.11's executor has no public terminate, and its ``_processes``
    map is the only handle on the workers. Unfinished futures then fail
    with ``BrokenProcessPool``.
    """
    for process in list((pool._processes or {}).values()):
        process.terminate()


def parallel_shard_reduce(
    worker: "Callable[[T], R | None]",
    payloads: "Sequence[T]",
    shard_ranges: "Sequence[tuple[int, int]]",
    merge: "Callable[[R, R], R]",
    n_jobs: int,
    label: str,
    stats=None,
    stage: str = "shards",
) -> "R | None":
    """Run one worker per row shard, retrying and merging in shard order.

    Each shard is tracked individually. A round submits one future per
    outstanding shard to a fresh pool (workers are marked via
    :func:`~repro.runtime.failpoints.mark_worker_process` so ``kill``
    failpoints may take them down); shards that fail with an
    infrastructure error (broken pool, timeout, pickling, injected
    fault) are re-submitted in later rounds while completed shards keep
    their results. A submit that finds the pool broken fails that shard
    and every later one of the round, and such an error escaping the
    round (the ``parallel.pool`` failpoint) fails every shard of the
    round still without a result. A future that exceeds the policy's
    ``per_attempt_timeout`` fails its shard and terminates the round's
    workers, so a hung worker cannot outlive its attempt. A host where
    no pool can start is detected once and runs everything serially
    from then on, with one warning.

    Attempts are capped *per shard* by the installed
    :class:`~repro.runtime.RetryPolicy`; a shard's final attempt always
    runs serially in-process (rescuing flaky pool infrastructure, and
    degrading ``kill`` faults to catchable exceptions), warning
    ``falling back to serial`` when a shard that failed in the pool
    completes there. A shard that exhausts its attempts raises a
    :class:`~repro.exceptions.ShardFailureError` carrying its row range.
    Exceptions the worker raises about its *data* propagate unchanged.

    Results merge strictly in shard-index order (never completion
    order), so the reduction is bit-identical to a serial pass. ``None``
    results (empty shards) are skipped; returns ``None`` only if every
    shard was empty.

    ``stats`` (a :class:`~repro.runtime.StatsCheckpointStore` or scoped
    view) enables merged-prefix snapshots: after each round the longest
    contiguous prefix of merged shard results is persisted under
    ``stage``, and a later call with the same store resumes past those
    shards without recomputing them.
    """
    global _pool_unavailable
    n = len(payloads)
    if n == 0:
        return None
    if len(shard_ranges) != n:
        raise ConfigurationError(
            "parallel_shard_reduce needs one (row_start, row_stop) per payload"
        )
    policy = _retry_policy
    results: list = [_SHARD_PENDING] * n
    merged: "R | None" = None
    next_shard = 0
    if stats is not None:
        from .runtime.checkpoint import MISSING

        snapshot = stats.load(stage)
        if snapshot is not MISSING and int(snapshot.get("n_shards", -1)) == n:
            next_shard = int(snapshot["next_shard"])
            merged = snapshot["state"]

    def advance_prefix() -> None:
        """Fold newly contiguous results into ``merged``; snapshot progress."""
        nonlocal merged, next_shard
        moved = False
        while next_shard < n and results[next_shard] is not _SHARD_PENDING:
            part = results[next_shard]
            if part is not None:
                merged = part if merged is None else merge(merged, part)
            results[next_shard] = None
            next_shard += 1
            moved = True
        if moved and next_shard < n and stats is not None:
            stats.save(
                stage,
                {"n_shards": n, "next_shard": next_shard, "state": merged},
            )

    attempts = [0] * n
    #: Last pool failure of each shard that has had one.
    pool_failures: "dict[int, BaseException]" = {}
    rescued: "list[int]" = []
    pending = list(range(next_shard, n))
    delay_schedule = policy.delays()
    while pending:
        delay = next(delay_schedule, policy.max_delay)
        if delay > 0.0:
            policy_sleep(delay)
        # Shards on their last permitted attempt run serially in-process.
        last_chance = [i for i in pending if attempts[i] >= policy.max_attempts - 1]
        poolable = [i for i in pending if attempts[i] < policy.max_attempts - 1]
        failures: "dict[int, BaseException]" = {}
        if poolable and n_jobs > 1 and not _pool_unavailable:
            try:
                failpoint("parallel.pool")
                with ProcessPoolExecutor(
                    max_workers=min(n_jobs, len(poolable)),
                    initializer=mark_worker_process,
                ) as pool:
                    futures = {}
                    for k, i in enumerate(poolable):
                        try:
                            futures[i] = pool.submit(worker, payloads[i])
                        except _RETRYABLE as exc:
                            # A dead worker broke the pool mid-round: this
                            # shard and every one not yet submitted failed
                            # this attempt.
                            failures.update(dict.fromkeys(poolable[k:], exc))
                            break
                    for i, future in futures.items():
                        try:
                            results[i] = future.result(
                                timeout=policy.per_attempt_timeout
                            )
                        except _RETRYABLE as exc:
                            failures[i] = exc
                            if isinstance(exc, FuturesTimeoutError):
                                _terminate_workers(pool)
            except _RETRYABLE as exc:
                # The round died as a whole (e.g. the parallel.pool failpoint).
                for i in poolable:
                    if results[i] is _SHARD_PENDING:
                        failures.setdefault(i, exc)
            except (OSError, ImportError, NotImplementedError) as exc:
                # No pool can start here (no semaphores, read-only
                # /dev/shm): remember it and warn once for the process.
                _pool_unavailable = True
                warnings.warn(
                    "process pools are unavailable in this environment "
                    f"({exc!r}); running all parallel work serially",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue  # same shards, same attempt budget, now serial
            pool_failures.update(failures)
        else:
            for i in poolable:
                try:
                    results[i] = worker(payloads[i])
                except _RETRYABLE as exc:
                    failures[i] = exc
        for i in last_chance:
            try:
                results[i] = worker(payloads[i])
            except _RETRYABLE as exc:
                failures[i] = exc
            else:
                if i in pool_failures:
                    rescued.append(i)
        still_pending = []
        for i in sorted(failures):
            attempts[i] += 1
            if attempts[i] >= policy.max_attempts:
                advance_prefix()
                row_start, row_stop = shard_ranges[i]
                raise ShardFailureError(
                    label, i, row_start, row_stop, attempts[i]
                ) from failures[i]
            still_pending.append(i)
        advance_prefix()
        pending = still_pending
    if rescued:
        warnings.warn(
            f"parallel {label}: {len(rescued)} shard(s) failed their pool "
            f"attempts ({pool_failures[rescued[-1]]!r}); falling back to "
            "serial in-process execution",
            RuntimeWarning,
            stacklevel=3,
        )
    return merged


def parallel_stream_iv_counts(
    data,
    expressions,
    edges_per_col,
    scorable: np.ndarray,
    stride: int,
    n_jobs: "int | None" = None,
    stats=None,
) -> np.ndarray:
    """Row-sharded IV bin counts for the streaming fit, optionally parallel.

    The dataset splits into ``n_jobs`` contiguous shards
    (``ChunkedDataset.shards``), each worker evaluates the candidate
    expressions over its shard's chunks and accumulates
    :func:`~repro.metrics.batched.iv_bin_counts` partials, and the
    parent merges the shard counts through :func:`parallel_shard_reduce`
    — failed or lost shards are re-submitted individually, and a
    ``stats`` store checkpoints the merged prefix so a crashed fit
    resumes past already-counted shards. Integer merges are exact, so
    the result is bit-identical to the serial single-shard pass
    regardless of worker count or recovery history.
    """
    jobs = resolve_n_jobs(n_jobs)
    shards = data.shards(jobs) if jobs > 1 else [data]
    payloads = [
        (shard, expressions, edges_per_col, scorable, stride)
        for shard in shards
    ]
    shard_ranges = [(shard.start, shard.stop) for shard in shards]
    from .metrics.batched import merge_counts

    counts = parallel_shard_reduce(
        _stream_iv_shard,
        payloads,
        shard_ranges,
        merge_counts,
        jobs,
        "stream-iv",
        stats=stats,
        stage="iv-shards",
    )
    if counts is None:
        raise ConfigurationError("parallel_stream_iv_counts needs a non-empty dataset")
    return counts
