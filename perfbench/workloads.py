"""The benchmark's workloads: set-up, timed phases, output checks, traced run.

Four workloads, all driven through the program's public API:

* ``fit_memory`` -- ``SAFE.fit`` on an in-memory :class:`Dataset`, serial;
* ``fit_stream`` -- the same rows written once as ``.npy`` files plus a
  chunk manifest, fitted out of core from a ``ChunkedDataset`` with a
  checkpoint directory (the ``fit --stream --checkpoint-dir`` path);
* ``fit_parallel`` -- ``fit_memory`` with ``n_jobs=2`` (the only workload
  that starts worker processes);
* ``serve`` -- a plan fitted, saved and loaded into a ``ServingSession``
  during set-up; timed single-record requests, 1024-row batch requests
  and bulk ``transform_matrix`` calls.

Every workload reports the gated end-to-end metrics (``END_TO_END``):
``fit_s``, ``setup_s`` and ``peak_rss_mb``; the serve workload's
``fit_s`` is the wall time of the ``SAFE.fit`` calls its set-ups make.
The serve workload also measures and prints the serving metrics
(``SERVING``), which are not gated: on a small shared host their spread
from run to run exceeds the largest bound a gated metric may have.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import re
import shutil
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import datagen
import spans
from repro.core import SAFE, SAFEConfig
from repro.operators import evaluate_expressions
from repro.serving import ServingSession
from repro.tabular import ChunkedDataset, Dataset, save_npy, write_manifest

#: Gated end-to-end metrics: (name, unit, better). Every workload reports all.
END_TO_END = (
    ("fit_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: End-to-end serving metrics of the serve workload: printed, not gated.
SERVING = (
    ("serve_p50_us", "us", "lower"),
    ("serve_p99_us", "us", "lower"),
    ("serve_batch_rows_per_s", "rows/s", "higher"),
    ("transform_rows_per_s", "rows/s", "higher"),
)

#: Per-layer metrics of the traced run: (name, unit, better). Every
#: workload reports all; a layer the workload does not run reads 0.
PER_LAYER = (
    ("core.pipeline.self_s", "s", "lower"),
    ("core.stream.self_s", "s", "lower"),
    ("boosting.mine_s", "s", "lower"),
    ("boosting.rank_s", "s", "lower"),
    ("boosting.stream.busy_s", "s", "lower"),
    ("boosting.stream.hist_s", "s", "lower"),
    ("boosting.stream.calls", "count", "lower"),
    ("core.scoring.rank_s", "s", "lower"),
    ("core.generation.generate_s", "s", "lower"),
    ("core.generation.generated", "count", "lower"),
    ("core.generation.useful_ratio", "ratio", "higher"),
    ("core.selection.iv_s", "s", "lower"),
    ("core.redundancy.busy_s", "s", "lower"),
    ("tabular.binning.sketch_s", "s", "lower"),
    ("tabular.io.passes", "count", "lower"),
    ("tabular.io.chunks_read", "count", "lower"),
    ("tabular.io.read_s", "s", "lower"),
    ("tabular.preprocess.clean_s", "s", "lower"),
    ("operators.engine.eval_s", "s", "lower"),
    ("operators.engine.eval_calls", "count", "lower"),
    ("operators.engine.column_s", "s", "lower"),
    ("operators.engine.populate_s", "s", "lower"),
    ("parallel.pool_starts", "count", "lower"),
    ("parallel.pool_s", "s", "lower"),
    ("parallel.serial_fallbacks", "count", "lower"),
    ("parallel.shard_s", "s", "lower"),
    ("runtime.checkpoint.saves", "count", "lower"),
    ("runtime.checkpoint.save_s", "s", "lower"),
    ("serving.validator.admit_s", "s", "lower"),
    ("serving.breaker.busy_s", "s", "lower"),
    ("serving.session.self_s", "s", "lower"),
    ("serving.degraded", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.driver_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

WORKLOADS = ("fit_memory", "fit_stream", "fit_parallel", "serve")

#: Requests per window of the windowed p99; see ``serve_metrics``.
P99_WINDOW = 1_000

#: Timed fits per run at the least, so the repeat-digest check has a repeat.
MIN_FITS = 2

#: The serve workload splits ``--seconds`` into this many rounds, and each
#: round into these shares (single-record, batch, transform).
SERVE_ROUNDS = 5
SERVE_SHARE = (0.50, 0.25, 0.25)

#: The label's planted interactions. Every fitted plan must contain each,
#: as a feature or inside a composed one; a difference may come in either
#: operand order.
PLANTED = (("(x0 * x1)",), ("(x2 - x3)", "(x3 - x2)"), ("(x4 / x5)",))

#: Features in every fitted plan: the default cap of twice the number of
#: original columns, which these tables always fill.
PLAN_SIZE = 2 * datagen.N_COLS

#: Pool-fallback warnings raised by ``repro.parallel``.
POOL_FALLBACK = re.compile(
    r"falling back to serial|process pools are unavailable"
)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes and the plans they fit; the command line always uses
    the defaults."""

    fit_rows: int = datagen.FIT_ROWS
    serve_fit_rows: int = datagen.SERVE_FIT_ROWS
    #: About ten chunks per pass over ``fit_rows``.
    chunk_rows: int = 4_000
    request_rows: int = 4_096
    batch_rows: int = 1_024
    bulk_rows: int = 40_000
    warmup_requests: int = 500
    oracle_rows: int = 64
    fit_setups: int = 9
    serve_setups: int = 3
    #: Calls per phase of one traced (and each untraced) serving round.
    trace_requests: "tuple[int, int, int]" = (1_000, 8, 2)
    #: Key digest of the plan every in-memory fit of ``fit_rows`` rows
    #: returns, serial or pooled, whatever the seed: the seed only orders
    #: the rows, and row order does not change the plan.
    fit_digest: str = "9bb8777f38066c61"
    #: Key digest of the served plan, fitted on a fixed table.
    serve_digest: str = "0966aeb3e1b4a531"


DEFAULT_SIZES = Sizes()
#: Small sizes for the benchmark's own tests.
SMALL_SIZES = Sizes(
    fit_rows=3_000,
    serve_fit_rows=2_000,
    chunk_rows=500,
    request_rows=256,
    batch_rows=64,
    bulk_rows=1_000,
    warmup_requests=5,
    oracle_rows=16,
    fit_setups=1,
    serve_setups=2,
    trace_requests=(20, 2, 1),
    fit_digest="696bd511d0af57db",
    serve_digest="6ca278e2bbb1c8ba",
)


# ---------------------------------------------------------------------------
# Result bookkeeping
# ---------------------------------------------------------------------------
@dataclass
class Ledger:
    """Operations attempted and failed, output checks, and notes."""

    attempted: int = 0
    failed: int = 0
    failures: "list[str]" = field(default_factory=list)
    checks: "dict[str, tuple[bool, str]]" = field(default_factory=dict)
    notes: "dict[str, str]" = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        previous = self.checks.get(name)
        if previous is not None and not previous[0]:
            return  # keep the first failure's detail
        self.checks[name] = (bool(ok), detail)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for ok, _ in self.checks.values())


@dataclass
class Result:
    #: Every measured metric, printed; ``gated`` names the ones in the JSON.
    metrics: "dict[str, tuple[float, str]]"
    gated: "tuple[str, ...]"
    ledger: Ledger

    def as_json(self) -> dict:
        return {
            "correct": self.ledger.correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in self.gated
                if name in self.metrics
            },
        }


def psi_digest(psi) -> str:
    """Digest of the plan's canonical expression keys, in rank order."""
    return hashlib.sha256("\n".join(psi.feature_keys).encode()).hexdigest()[:16]


def check_plan(psi, ledger: Ledger, expected_digest: "str | None") -> None:
    """The plan holds the planted interactions, has ``PLAN_SIZE`` features
    and, where the answer is known in advance, the expected key digest."""
    keys = psi.feature_keys
    missing = [group[0] for group in PLANTED
               if not any(form in key for key in keys for form in group)]
    ledger.check("plan_planted", not missing, f"missing {missing}" if missing else "")
    ledger.check("plan_size", len(keys) == PLAN_SIZE,
                 f"{len(keys)} features, expected {PLAN_SIZE}")
    if expected_digest is not None:
        ledger.check("plan_digest", psi_digest(psi) == expected_digest,
                     f"{psi_digest(psi)}, expected {expected_digest}")


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality, NaN equal to NaN."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(
        np.all((a == b) | (np.isnan(a) & np.isnan(b)))
    )


def reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark for this process.

    Memory that set-up freed is first handed back to the kernel (glibc
    keeps freed heap pages resident otherwise), so the mark read after the
    timed phase reflects what that phase holds.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------
@dataclass
class FitOutcome:
    seconds: float
    psi: object
    safe: SAFE
    fallbacks: int


def timed_fit(config: SAFEConfig, data, ledger: Ledger, checkpoint_dir=None):
    """One ``SAFE.fit`` call, timed; degradations count as a failure."""
    safe = SAFE(config)
    ledger.attempted += 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings(
            "always", message=f".*(?:{POOL_FALLBACK.pattern})", category=RuntimeWarning
        )
        start = time.perf_counter()
        try:
            psi = safe.fit(data, checkpoint_dir=checkpoint_dir)
        except Exception as exc:  # a raising fit is a failed operation
            ledger.fail(f"fit raised {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
    fallbacks = sum(
        1
        for w in caught
        if issubclass(w.category, RuntimeWarning)
        and POOL_FALLBACK.search(str(w.message))
    )
    report = safe.runtime_report_
    degraded = []
    if fallbacks:
        degraded.append(f"{fallbacks} pool fallback(s)")
    if report.n_quarantined:
        degraded.append(f"{report.n_quarantined} quarantined expression(s)")
    if report.chunks_quarantined:
        degraded.append(f"{len(report.chunks_quarantined)} quarantined chunk(s)")
    if degraded:
        ledger.fail("fit degraded: " + ", ".join(degraded))
    return FitOutcome(seconds, psi, safe, fallbacks)


@dataclass
class FitInputs:
    dataset: Dataset
    x_path: "Path | None" = None
    y_path: "Path | None" = None


class FitWorkload:
    """``SAFE(SAFEConfig(n_iterations=2, n_jobs=...)).fit`` on one table."""

    iterations = 2

    def __init__(self, name: str, n_jobs: int = 1, stream: bool = False) -> None:
        self.name = name
        self.n_jobs = n_jobs
        self.stream = stream

    def config(self, **overrides) -> SAFEConfig:
        return SAFEConfig(n_iterations=self.iterations, n_jobs=self.n_jobs, **overrides)

    def expected_digest(self, sizes: Sizes) -> "str | None":
        """The streamed plan's edges come from merged sketches, which depend
        on which rows share a chunk, so only in-memory plans are known."""
        return None if self.stream else sizes.fit_digest

    def setup(self, seed: int, workdir: Path, sizes: Sizes) -> FitInputs:
        X, y = datagen.make_training_table(seed, sizes.fit_rows)
        inputs = FitInputs(Dataset.from_arrays(X, y, names=datagen.column_names()))
        if self.stream:
            inputs.x_path = workdir / "X.npy"
            inputs.y_path = workdir / "y.npy"
            write_manifest(save_npy(inputs.dataset, inputs.x_path, inputs.y_path),
                           chunk_rows=sizes.chunk_rows)
        return inputs

    def fit_data(self, inputs: FitInputs, sizes: Sizes):
        """The object handed to ``SAFE.fit`` (opened afresh for every fit,
        so each streaming fit verifies its chunks against the manifest)."""
        if not self.stream:
            return inputs.dataset
        return ChunkedDataset.from_npy(
            inputs.x_path, inputs.y_path, chunk_rows=sizes.chunk_rows, manifest=True
        )

    def fit_once(self, inputs, workdir: Path, sizes: Sizes, ledger: Ledger, tag: str,
                 **config_overrides):
        checkpoint_dir = workdir / f"ckpt-{tag}" if self.stream else None
        data = self.fit_data(inputs, sizes)
        outcome = timed_fit(self.config(**config_overrides), data, ledger, checkpoint_dir)
        if checkpoint_dir is not None:
            if outcome is not None:
                written = outcome.safe.runtime_report_.checkpoints_written
                ledger.check(
                    "stream_checkpoints",
                    written == len(outcome.safe.traces_) and written > 0,
                    f"{written} iteration checkpoint(s) for "
                    f"{len(outcome.safe.traces_)} iteration(s)",
                )
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return outcome


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------
@dataclass
class ServeInputs:
    session: ServingSession
    requests: np.ndarray
    records: "list[dict]"
    bulk: np.ndarray
    #: ``transform_matrix`` of ``requests``: what every response must equal.
    reference: np.ndarray


def serve_inputs(psi, path: Path, requests: np.ndarray, names, bulk) -> ServeInputs:
    """Save the plan and load it back from JSON, as ``repro serve`` does."""
    psi.save(path)
    session = ServingSession(path)
    return ServeInputs(
        session=session,
        requests=requests,
        records=[dict(zip(names, map(float, row))) for row in requests],
        bulk=bulk,
        reference=session.plan.transform_matrix(requests),
    )


@dataclass
class ServeSamples:
    """Per-call times of every serving round, plus the first bulk output.

    Responses are checked as they arrive and then dropped, so memory and
    garbage-collector work do not grow with the length of a run.
    """

    latencies_ns: "list[int]" = field(default_factory=list)
    batch_ns: "list[int]" = field(default_factory=list)
    transform_ns: "list[int]" = field(default_factory=list)
    responses: int = 0
    failed: int = 0
    mismatched: int = 0
    transform_first: "np.ndarray | None" = None
    transform_repeats_equal: bool = True


def _serve(session, payload, want: np.ndarray, samples: ServeSamples, ledger: Ledger):
    """One timed request, checked against ``want``; returns nanoseconds."""
    ledger.attempted += 1
    samples.responses += 1
    start = time.perf_counter_ns()
    try:
        response = session.serve_one(payload)
    except Exception as exc:  # a raising request is a failed operation
        elapsed = time.perf_counter_ns() - start
        samples.failed += 1
        ledger.fail(f"request raised {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter_ns() - start
    if response.status != "ok":
        samples.failed += 1
        ledger.fail(f"response status {response.status}")
    elif not same_values(response.values, want):
        samples.mismatched += 1
    return elapsed


def serve_round(inputs: ServeInputs, sizes: Sizes, ledger: Ledger,
                samples: ServeSamples, seconds=None, counts=None) -> None:
    """One round of single-record, batch and bulk-transform phases.

    Each phase runs for ``seconds[i]`` seconds (at least a few calls) or,
    when ``counts`` is given, for exactly ``counts[i]`` calls. Results are
    appended to ``samples``.
    """
    session, records, reference = inputs.session, inputs.records, inputs.reference
    plan = session.plan

    def calls(i: int, minimum: int):
        if counts is not None:
            yield from range(counts[i])
            return
        deadline = time.perf_counter_ns() + int(seconds[i] * 1e9)
        k = 0
        while k < minimum or time.perf_counter_ns() < deadline:
            yield k
            k += 1

    # Closed loop, one caller: the next request goes out when the
    # previous response is back.
    for k in calls(0, 100):
        i = k % len(records)
        samples.latencies_ns.append(
            _serve(session, records[i], reference[i], samples, ledger)
        )

    rows = sizes.batch_rows
    n_blocks = len(inputs.requests) // rows
    for k in calls(1, 5):
        lo = (k % n_blocks) * rows
        samples.batch_ns.append(
            _serve(session, inputs.requests[lo : lo + rows], reference[lo : lo + rows],
                   samples, ledger)
        )

    for k in calls(2, 3):
        ledger.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = plan.transform_matrix(inputs.bulk)
        except Exception as exc:  # a raising call is a failed operation
            samples.transform_ns.append(time.perf_counter_ns() - start)
            ledger.fail(f"transform raised {type(exc).__name__}: {exc}")
            samples.transform_repeats_equal = False
            continue
        samples.transform_ns.append(time.perf_counter_ns() - start)
        if samples.transform_first is None:
            samples.transform_first = out
        elif not same_values(out, samples.transform_first):
            samples.transform_repeats_equal = False


def warm_up(inputs: ServeInputs, sizes: Sizes, ledger: Ledger,
            samples: ServeSamples) -> None:
    """Untimed requests before a round; their responses are still checked."""
    for k in range(sizes.warmup_requests):
        i = k % len(inputs.records)
        _serve(inputs.session, inputs.records[i], inputs.reference[i], samples, ledger)


def check_serving(inputs: ServeInputs, samples: ServeSamples, sizes: Sizes,
                  ledger: Ledger, seed: int) -> None:
    """Responses ok and equal to ``transform_matrix``; the scalar oracle agrees."""
    ledger.check(
        "responses_ok", samples.failed == 0,
        f"{samples.failed} of {samples.responses} not ok",
    )
    ledger.check(
        "serve_equals_transform",
        samples.mismatched == 0,
        f"{samples.mismatched} of {samples.responses} responses differ from "
        "transform_matrix",
    )
    first = samples.transform_first
    ledger.check(
        "transform_repeats",
        first is not None and samples.transform_repeats_equal,
        f"{len(samples.transform_ns)} bulk outputs equal",
    )
    if first is not None:
        check_oracle(inputs.session.plan, inputs.bulk, first, sizes, ledger, seed)


def check_oracle(psi, X: np.ndarray, out: np.ndarray, sizes: Sizes, ledger: Ledger,
                 seed: int) -> None:
    """Sampled rows of ``out = psi.transform_matrix(X)`` equal the scalar oracle."""
    rng = np.random.default_rng([seed, 99])
    rows = rng.choice(len(X), size=min(sizes.oracle_rows, len(X)), replace=False)
    ledger.check(
        "oracle_rows",
        same_values(out[rows], evaluate_expressions(list(psi.expressions), X[rows])),
        f"{rows.size} sampled rows against evaluate_expressions",
    )


def serve_metrics(samples: ServeSamples, inputs: ServeInputs, sizes: Sizes,
                  ledger: Ledger) -> "dict[str, tuple[float, str]]":
    lat_us = np.asarray(samples.latencies_ns, dtype=np.float64) / 1e3
    # The p99 of each window of P99_WINDOW consecutive requests (ten
    # samples beyond it), then the median over windows: a burst of
    # contention from outside the process moves one window's tail, not
    # the reported value.
    windows = np.array_split(lat_us, max(1, lat_us.size // P99_WINDOW))
    p99 = _median(np.percentile(w, 99) for w in windows)
    ledger.notes["serve_p50_us"] = f"n={lat_us.size}"
    ledger.notes["serve_p99_us"] = (
        f"n={lat_us.size}: median p99 of {len(windows)} windows of "
        f">={min(w.size for w in windows)}"
    )
    ledger.notes["serve_batch_rows_per_s"] = (
        f"{sizes.batch_rows} rows / median of {len(samples.batch_ns)} requests"
    )
    ledger.notes["transform_rows_per_s"] = (
        f"{len(inputs.bulk)} rows / median of {len(samples.transform_ns)} calls"
    )
    return {
        "serve_p50_us": (float(np.percentile(lat_us, 50)), "us"),
        "serve_p99_us": (p99, "us"),
        "serve_batch_rows_per_s": (
            sizes.batch_rows / (_median(samples.batch_ns) / 1e9), "rows/s"),
        "transform_rows_per_s": (
            len(inputs.bulk) / (_median(samples.transform_ns) / 1e9), "rows/s"),
    }


def serve_setup(seed: int, workdir: Path, sizes: Sizes, ledger: Ledger):
    """Fit the served plan (3 iterations, 10k rows), save, load, build requests."""
    X, y = datagen.make_table(sizes.serve_fit_rows, datagen.SERVE_FIT_STREAM)
    dataset = Dataset.from_arrays(X, y, names=datagen.column_names())
    outcome = timed_fit(SAFEConfig(n_iterations=3), dataset, ledger)
    if outcome is None:
        return None, None
    bulk = datagen.make_requests(seed, sizes.bulk_rows)
    inputs = serve_inputs(
        outcome.psi, workdir / "psi.json", bulk[: sizes.request_rows], dataset.names, bulk
    )
    return inputs, outcome


# ---------------------------------------------------------------------------
# Timed runs
# ---------------------------------------------------------------------------
def fit_workload(name: str) -> FitWorkload:
    return {
        "fit_memory": FitWorkload("fit_memory"),
        "fit_stream": FitWorkload("fit_stream", stream=True),
        "fit_parallel": FitWorkload("fit_parallel", n_jobs=2),
    }[name]


def run_fit_timed(wl: FitWorkload, seed, seconds, workdir, sizes, ledger):
    """Fits until their total time reaches ``seconds`` (at least ``MIN_FITS``)."""
    setup_times = []
    for _ in range(sizes.fit_setups):
        start = time.perf_counter()
        inputs = wl.setup(seed, workdir, sizes)
        setup_times.append(time.perf_counter() - start)
    if not reset_peak_rss():
        ledger.notes["peak_rss_mb"] = "high-water mark could not be reset"

    fit_times, digests = [], []
    outcome = None
    while len(fit_times) < MIN_FITS or sum(fit_times) < seconds:
        outcome = wl.fit_once(inputs, workdir, sizes, ledger, str(len(fit_times)))
        if outcome is None:
            break
        fit_times.append(outcome.seconds)
        digests.append(psi_digest(outcome.psi))
    peak = peak_rss_mb()
    ledger.check(
        "psi_repeat_digest",
        len(digests) >= MIN_FITS and len(set(digests)) == 1,
        f"{len(digests)} fit(s), digests {sorted(set(digests))}",
    )
    if outcome is None:
        return {}
    check_plan(outcome.psi, ledger, wl.expected_digest(sizes))
    X = inputs.dataset.X
    check_oracle(outcome.psi, X, outcome.psi.transform_matrix(X), sizes, ledger, seed)
    ledger.notes["fit_s"] = "median of " + ", ".join(f"{t:.3f}" for t in fit_times)
    ledger.notes["setup_s"] = f"median of {len(setup_times)} set-ups"
    return {
        "fit_s": (_median(fit_times), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def run_serve_timed(seed, seconds, workdir, sizes, ledger):
    """Set-ups (each fits, saves and loads the plan), then serving rounds
    for ``seconds``."""
    setup_times, fit_times, digests = [], [], []
    inputs = None
    for _ in range(sizes.serve_setups):
        start = time.perf_counter()
        inputs, outcome = serve_setup(seed, workdir, sizes, ledger)
        if inputs is None:
            break
        setup_times.append(time.perf_counter() - start)
        fit_times.append(outcome.seconds)
        digests.append(psi_digest(outcome.psi))
        ledger.check(
            "served_plan_digest",
            psi_digest(inputs.session.plan) == digests[-1],
            "plan loaded from JSON keeps the fitted keys",
        )
    ledger.check(
        "psi_repeat_digest",
        len(digests) == sizes.serve_setups and len(set(digests)) == 1,
        f"{len(digests)} set-up fit(s), digests {sorted(set(digests))}",
    )
    if inputs is None:
        return {}
    check_plan(inputs.session.plan, ledger, sizes.serve_digest)
    ledger.notes["fit_s"] = "median of set-up fits " + ", ".join(
        f"{t:.3f}" for t in fit_times
    )
    ledger.notes["setup_s"] = f"median of {len(setup_times)} set-ups"
    samples = ServeSamples()
    warm_up(inputs, sizes, ledger, samples)
    if not reset_peak_rss():
        ledger.notes["peak_rss_mb"] = "high-water mark could not be reset"
    per_round = seconds / SERVE_ROUNDS
    for _ in range(SERVE_ROUNDS):
        serve_round(inputs, sizes, ledger, samples,
                    seconds=[per_round * share for share in SERVE_SHARE])
    peak = peak_rss_mb()
    check_serving(inputs, samples, sizes, ledger, seed)
    metrics = {
        "fit_s": (_median(fit_times), "s"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    metrics.update(serve_metrics(samples, inputs, sizes, ledger))
    return metrics


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------
def layer_metrics(tracer: spans.Tracer, wall_s: float, overhead: float,
                  traces=(), degraded: int = 0, fallbacks: int = 0):
    totals = tracer.totals()

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    generated = sum(t.n_generated for t in traces)
    kept = 0
    for t in traces:
        first_new = t.n_candidates - t.n_generated
        kept += sum(1 for j in t.selection.final_order if j >= first_new)
    counters = tracer.counters
    driver = own("core.pipeline.fit") + own("core.stream.fit")
    values = {
        "core.pipeline.self_s": own("core.pipeline.fit"),
        "core.stream.self_s": own("core.stream.fit"),
        "boosting.mine_s": total("boosting.mine"),
        "boosting.rank_s": total("boosting.rank"),
        "boosting.stream.busy_s": total("boosting.stream.fit"),
        "boosting.stream.hist_s": total("boosting.stream.hist"),
        "boosting.stream.calls": calls("boosting.stream.fit"),
        "core.scoring.rank_s": total("core.scoring.rank"),
        "core.generation.generate_s": total("core.generation.generate"),
        "core.generation.generated": generated,
        "core.generation.useful_ratio": kept / generated if generated else 0.0,
        "core.selection.iv_s": total("core.selection.iv"),
        "core.redundancy.busy_s": total("core.redundancy"),
        "tabular.binning.sketch_s": total("tabular.binning.sketch"),
        "tabular.io.passes": counters.get("tabular.io.passes", 0),
        "tabular.io.chunks_read": counters.get("tabular.io.chunks_read", 0),
        "tabular.io.read_s": total("tabular.io.read"),
        "tabular.preprocess.clean_s": total("tabular.preprocess.clean"),
        "operators.engine.eval_s": total("operators.engine.eval"),
        "operators.engine.eval_calls": calls("operators.engine.eval"),
        "operators.engine.column_s": total("operators.engine.column"),
        "operators.engine.populate_s": total("operators.engine.populate"),
        "parallel.pool_starts": counters.get(spans.POOL_COUNTER, 0),
        "parallel.pool_s": total("parallel.pool"),
        "parallel.serial_fallbacks": fallbacks,
        "parallel.shard_s": total("parallel.shard"),
        "runtime.checkpoint.saves": calls("runtime.checkpoint.save"),
        "runtime.checkpoint.save_s": total("runtime.checkpoint.save"),
        "serving.validator.admit_s": total("serving.validator.admit"),
        "serving.breaker.busy_s": total("serving.breaker"),
        "serving.session.self_s": own("serving.session.serve"),
        "serving.degraded": degraded,
        "trace.wall_s": wall_s,
        "trace.driver_share": driver / wall_s if wall_s > 0 else 0.0,
        "trace.overhead_ratio": overhead,
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in PER_LAYER}


def run_fit_traced(wl: FitWorkload, seed, workdir, sizes, ledger, spans_path):
    """A warm-up fit, then untraced, traced and untraced fits.

    The first fit in a process pays one-off costs, so it is not compared.
    The traced fit is compared with the mean of the two untraced fits
    around it, so a host that speeds up or slows down during the run
    moves both sides alike.
    """
    inputs = wl.setup(seed, workdir, sizes)
    warm = wl.fit_once(inputs, workdir, sizes, ledger, "warm-up")
    before = wl.fit_once(inputs, workdir, sizes, ledger, "untraced-1")
    tracer = spans.Tracer()
    with spans.Installation(tracer):
        traced = wl.fit_once(inputs, workdir, sizes, ledger, "traced")
    unrestored = spans.unrestored_bindings()
    ledger.check("wrappers_restored", not unrestored, ", ".join(unrestored))
    after = wl.fit_once(inputs, workdir, sizes, ledger, "untraced-2")
    plain = (warm, before, after)
    if traced is None or any(outcome is None for outcome in plain):
        ledger.check("traced_fit", False, "a fit raised")
        return {}
    check_plan(traced.psi, ledger, wl.expected_digest(sizes))
    untraced = sorted({psi_digest(outcome.psi) for outcome in plain})
    ledger.check(
        "traced_psi_digest",
        untraced == [psi_digest(traced.psi)],
        f"untraced {untraced}, traced {psi_digest(traced.psi)}",
    )
    tracer.dump(spans_path, {"workload": wl.name, "seed": seed})
    return layer_metrics(
        tracer,
        wall_s=traced.seconds,
        overhead=traced.seconds / statistics.fmean([before.seconds, after.seconds]),
        traces=traced.safe.traces_,
        fallbacks=traced.fallbacks,
    )


def run_serve_traced(seed, workdir, sizes, ledger, spans_path):
    """Warm-up requests and an untimed round, then untraced, traced and
    untraced rounds; the traced round is compared with the mean of the two
    untraced ones around it."""
    inputs, outcome = serve_setup(seed, workdir, sizes, ledger)
    if inputs is None:
        ledger.check("traced_serve", False, "set-up fit raised")
        return {}
    plain = ServeSamples()
    warm_up(inputs, sizes, ledger, plain)
    serve_round(inputs, sizes, ledger, plain, counts=sizes.trace_requests)

    def timed_round(samples: ServeSamples) -> float:
        start = time.perf_counter()
        serve_round(inputs, sizes, ledger, samples, counts=sizes.trace_requests)
        return time.perf_counter() - start

    plain_s = [timed_round(plain)]
    before = inputs.session.report.degraded_responses
    tracer = spans.Tracer()
    traced = ServeSamples()
    with spans.Installation(tracer):
        traced_s = timed_round(traced)
    degraded = inputs.session.report.degraded_responses - before + traced.failed
    unrestored = spans.unrestored_bindings()
    ledger.check("wrappers_restored", not unrestored, ", ".join(unrestored))
    plain_s.append(timed_round(plain))
    # Both passes are checked against the same untraced reference, so
    # passing both checks means traced and untraced outputs are equal.
    check_serving(inputs, plain, sizes, ledger, seed)
    check_serving(inputs, traced, sizes, ledger, seed)
    ledger.check(
        "traced_psi_digest",
        psi_digest(inputs.session.plan) == psi_digest(outcome.psi),
        "served plan keeps the fitted keys",
    )
    check_plan(inputs.session.plan, ledger, sizes.serve_digest)
    tracer.dump(spans_path, {"workload": "serve", "seed": seed})
    return layer_metrics(
        tracer,
        wall_s=traced_s,
        overhead=traced_s / statistics.fmean(plain_s),
        degraded=degraded,
    )


def run(name: str, seed: int, seconds: float, trace: bool, run_dir: Path,
        sizes: Sizes = DEFAULT_SIZES) -> Result:
    """Run one workload in this process; files go under ``run_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    ledger = Ledger()
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run_dir))
    saved_tempdir = tempfile.tempdir
    tempfile.tempdir = str(workdir)  # keep the program's scratch files in the checkout
    try:
        spans_path = run_dir / f"spans-{name}.json"
        if name == "serve":
            metrics = (run_serve_traced(seed, workdir, sizes, ledger, spans_path) if trace
                       else run_serve_timed(seed, seconds, workdir, sizes, ledger))
        else:
            wl = fit_workload(name)
            metrics = (run_fit_traced(wl, seed, workdir, sizes, ledger, spans_path) if trace
                       else run_fit_timed(wl, seed, seconds, workdir, sizes, ledger))
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
    gated = tuple(n for n, _, _ in (PER_LAYER if trace else END_TO_END))
    printed = [n for n, _, _ in SERVING] if name == "serve" and not trace else []
    missing = sorted(set(gated).union(printed) - set(metrics))
    ledger.check("metrics_complete", not missing, f"missing {missing}")
    return Result(metrics, gated, ledger)
