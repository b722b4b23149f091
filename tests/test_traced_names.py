"""The stage names a traced run wraps stay called where they are bound.

A tracer that measures the fit layer by layer installs its wrappers on
module attributes (``repro.core.pipeline.fit_mining_model``, ...), so
each stage must be looked up through that module global at call time. A
refactor that moves a call, or binds the function under another name,
would silently drop its span. These tests install counting wrappers the
same way on a small in-memory and a small streamed fit and check that
every stage was called through its module attribute.
"""

from __future__ import annotations

import importlib
from collections import Counter

import numpy as np

from repro.core import SAFE, SAFEConfig
from repro.tabular.io import ChunkedDataset

MEMORY_STAGES = (
    ("repro.core.pipeline", "fit_mining_model"),
    ("repro.core.pipeline", "rank_combinations"),
    ("repro.core.pipeline", "generate_features"),
    ("repro.core.pipeline", "evaluate_forest"),
    ("repro.core.pipeline", "clean_matrix"),
    ("repro.core.selection", "filter_by_information_value"),
    ("repro.core.selection", "remove_redundant_features_blocked"),
    ("repro.core.selection", "rank_by_importance"),
)

STREAM_STAGES = (
    ("repro.core.stream", "fit_safe_streaming"),
    ("repro.core.stream", "fit_gbm_streaming"),
    ("repro.core.stream", "combination_count_partial"),
    ("repro.core.stream", "streamed_quantile_edges"),
    ("repro.core.stream", "column_moments_partial"),
    ("repro.core.stream", "centered_gram_partial"),
    ("repro.core.stream", "evaluate_forest"),
    ("repro.core.stream", "clean_matrix"),
    ("repro.parallel", "parallel_stream_iv_counts"),
)


def _count_calls(monkeypatch, stages) -> Counter:
    calls: Counter = Counter()
    for module_name, attribute in stages:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)

        def counted(*args, _original=original, _name=attribute, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attribute, counted)
    return calls


def _workload(n=1500, k=5):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, k))
    y = (X[:, 0] * X[:, 1] + 0.5 * X[:, 2] > 0).astype(np.float64)
    return X, y, tuple(f"f{i}" for i in range(k))


def test_in_memory_fit_calls_every_bound_stage(monkeypatch, interaction_data):
    calls = _count_calls(monkeypatch, MEMORY_STAGES)
    safe = SAFE(SAFEConfig(gamma=20, n_iterations=2, random_state=0))
    safe.fit(interaction_data)
    assert len(safe.traces_) == 2
    assert [a for _, a in MEMORY_STAGES if calls[a] == 0] == []


def test_streamed_fit_calls_every_bound_stage(monkeypatch, tmp_path):
    X, y, names = _workload()
    calls = _count_calls(monkeypatch, STREAM_STAGES)
    safe = SAFE(SAFEConfig(n_iterations=2, sketch="exact", random_state=0))
    safe.fit(ChunkedDataset(names, 400, X=X, y=y), checkpoint_dir=str(tmp_path))
    assert len(safe.traces_) == 2
    assert safe.runtime_report_.checkpoints_written == 2
    assert [a for _, a in STREAM_STAGES if calls[a] == 0] == []
