"""In-memory span tracer installed around the program's layer entry points.

The traced run wraps the public functions each layer exposes on the fit
and serve paths. The wrappers live here, in the benchmark, not in the
program: they are installed just before the traced repetition and
removed right after it, so no timed run ever executes them.

Rules:

* A span records its name, its parent span, and start and end on
  ``perf_counter_ns``. Spans are kept in memory and written out once.
* A wrapper opens a span only at the outermost entry into its layer. A
  call made while a span of the same layer is open runs unwrapped, so
  re-entrant calls (``EvalCache.column`` recursing into a tree's
  children) are never counted twice.
* The program binds most names at import (``from .generation import
  generate_features``), so each wrapper is installed on the name the
  caller looks up, such as ``repro.core.pipeline.generate_features``.

A layer's self time is its spans' duration minus the part of it that
their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: (module, attribute, span name, layer). A dotted attribute names a
#: method on a class of that module. Several bindings may share one span
#: name; their spans are summed under that name.
BINDINGS = (
    ("repro.core.pipeline", "SAFE.fit", "core.pipeline.fit", "core.pipeline"),
    ("repro.core.stream", "fit_safe_streaming", "core.stream.fit", "core.stream"),
    ("repro.core.pipeline", "fit_mining_model", "boosting.mine", "boosting"),
    ("repro.core.selection", "rank_by_importance", "boosting.rank", "boosting"),
    ("repro.core.stream", "fit_gbm_streaming", "boosting.stream.fit", "boosting.stream"),
    ("repro.boosting.stream", "level_histogram_partial", "boosting.stream.hist",
     "boosting.histogram"),
    ("repro.core.pipeline", "rank_combinations", "core.scoring.rank", "core.scoring"),
    ("repro.core.stream", "combination_count_partial", "core.scoring.rank",
     "core.scoring"),
    ("repro.core.pipeline", "generate_features", "core.generation.generate",
     "core.generation"),
    ("repro.core.selection", "filter_by_information_value", "core.selection.iv",
     "core.selection"),
    ("repro.core.selection", "remove_redundant_features_blocked", "core.redundancy",
     "core.redundancy"),
    ("repro.core.stream", "column_moments_partial", "core.redundancy",
     "core.redundancy"),
    ("repro.core.stream", "centered_gram_partial", "core.redundancy",
     "core.redundancy"),
    ("repro.core.stream", "streamed_quantile_edges", "tabular.binning.sketch",
     "tabular.binning"),
    ("repro.tabular.io", "ChunkedDataset.iter_chunks", "tabular.io.read",
     "tabular.io"),
    ("repro.core.pipeline", "clean_matrix", "tabular.preprocess.clean",
     "tabular.preprocess"),
    ("repro.core.stream", "clean_matrix", "tabular.preprocess.clean",
     "tabular.preprocess"),
    ("repro.core.pipeline", "evaluate_forest", "operators.engine.eval",
     "operators.engine"),
    ("repro.core.stream", "evaluate_forest", "operators.engine.eval",
     "operators.engine"),
    ("repro.core.transform", "evaluate_forest", "operators.engine.eval",
     "operators.engine"),
    ("repro.operators.engine", "EvalCache.column", "operators.engine.column",
     "operators.engine"),
    ("repro.core.generation", "batch_populate_cache", "operators.engine.populate",
     "operators.engine"),
    ("repro.parallel", "parallel_score_combinations", "parallel.pool", "parallel"),
    ("repro.parallel", "parallel_generate_features", "parallel.pool", "parallel"),
    ("repro.parallel", "parallel_information_values", "parallel.pool", "parallel"),
    ("repro.parallel", "parallel_stream_iv_counts", "parallel.shard", "parallel"),
    ("repro.runtime.checkpoint", "StatsCheckpointStore.save",
     "runtime.checkpoint.save", "runtime.checkpoint"),
    ("repro.runtime.checkpoint", "CheckpointManager.save", "runtime.checkpoint.save",
     "runtime.checkpoint"),
    ("repro.serving.session", "ServingSession.serve_one", "serving.session.serve",
     "serving.session"),
    ("repro.serving.validator", "RequestValidator.admit", "serving.validator.admit",
     "serving.validator"),
    ("repro.serving.breaker", "CircuitBreaker.allow", "serving.breaker",
     "serving.breaker"),
    ("repro.serving.breaker", "CircuitBreaker.record_success", "serving.breaker",
     "serving.breaker"),
)

#: Generator functions: each resumption is one span, and the tracer
#: counts passes (first resumption) and yielded chunks.
GENERATORS = {"ChunkedDataset.iter_chunks": ("tabular.io.passes", "tabular.io.chunks_read")}

#: Process pools constructed by ``repro.parallel`` are counted here.
POOL_COUNTER = "parallel.pool_starts"


class Tracer:
    """Span recorder with the outermost-entry-per-layer rule."""

    def __init__(self) -> None:
        #: One ``[name, parent, start_ns, end_ns]`` list per span.
        self.spans: "list[list]" = []
        self.counters: "dict[str, int]" = {}
        self._stack: "list[int]" = []
        self._open_layers: "set[str]" = set()

    def enter(self, name: str, layer: str) -> "int | None":
        """Open a span unless ``layer`` already has one open."""
        if layer in self._open_layers:
            return None
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._stack.append(index)
        self._open_layers.add(layer)
        return index

    def exit(self, index: int, layer: str) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()
        self._open_layers.discard(layer)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- aggregation -------------------------------------------------------
    def totals(self) -> "dict[str, tuple[int, float, float]]":
        """Per span name: (span count, total seconds, self seconds)."""
        covered = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: "dict[str, list]" = {}
        for (name, _, start, end), child_ns in zip(self.spans, covered):
            entry = out.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_ns
        return {k: (n, total / 1e9, own / 1e9) for k, (n, total, own) in out.items()}

    def dump(self, path, meta: dict) -> None:
        """Write every span once, at the end of the traced run."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            **meta,
            "names": names,
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _wrap_function(tracer: Tracer, fn, name: str, layer: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.enter(name, layer)
        if index is None:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(index, layer)

    traced.perfbench_span = name
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str, layer: str, counters):
    passes, items = counters

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        started = False
        try:
            while True:
                index = tracer.enter(name, layer)
                try:
                    if not started:
                        started = True
                        tracer.count(passes)
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    if index is not None:
                        tracer.exit(index, layer)
                tracer.count(items)
                yield item
        finally:
            inner.close()

    traced.perfbench_span = name
    return traced


def _resolve(module_name: str, attribute: str):
    """``(owner, attribute name, current value)`` for one binding."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path and leaf not in vars(owner):
        raise AttributeError(f"{module_name}.{attribute} is inherited, not defined")
    return owner, leaf, getattr(owner, leaf) if not path else vars(owner)[leaf]


class Installation:
    """The wrappers currently installed; :meth:`remove` restores every name."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.originals: "list[tuple[object, str, object]]" = []

    def install(self) -> "Installation":
        try:
            for module_name, attribute, name, layer in BINDINGS:
                owner, leaf, original = _resolve(module_name, attribute)
                if attribute in GENERATORS:
                    wrapper = _wrap_generator(
                        self.tracer, original, name, layer, GENERATORS[attribute]
                    )
                else:
                    wrapper = _wrap_function(self.tracer, original, name, layer)
                self.originals.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
            parallel = importlib.import_module("repro.parallel")
            pool_class = parallel.ProcessPoolExecutor
            tracer = self.tracer

            class CountedProcessPool(pool_class):
                def __init__(self, *args, **kwargs):
                    tracer.count(POOL_COUNTER)
                    super().__init__(*args, **kwargs)

            self.originals.append((parallel, "ProcessPoolExecutor", pool_class))
            parallel.ProcessPoolExecutor = CountedProcessPool
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self.originals:
            owner, leaf, original = self.originals.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Installation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def unrestored_bindings() -> "list[str]":
    """Bindings that do not hold the program's own function (should be [])."""
    bad = []
    for module_name, attribute, _, _ in BINDINGS:
        _, _, current = _resolve(module_name, attribute)
        if hasattr(current, "perfbench_span"):
            bad.append(f"{module_name}.{attribute}")
    parallel = importlib.import_module("repro.parallel")
    if parallel.ProcessPoolExecutor.__name__ == "CountedProcessPool":
        bad.append("repro.parallel.ProcessPoolExecutor")
    return bad
