"""The Algorithm-1 loop's contracts that neither row source may change.

* ``valid`` cannot change Ψ: no GBM of Algorithm 1 early-stops, so an
  in-memory fit with a validation set selects exactly what a fit without
  one does; a validation set of the wrong width still fails loudly, in
  SAFE and in every baseline.
* A streamed fit that returns normally leaves no statistics snapshot
  behind, also when the loop stops before its last iteration.
* A fit that stops before its last iteration records the stop, so a
  rerun with the same checkpoint directory returns the plan without
  running a stage; a time-budget stop stays resumable.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro.baselines import (
    TFC,
    AutoLearn,
    FCTree,
    ImportantGenerator,
    OriginalFeatures,
    RandomGenerator,
)
from repro.core import SAFE, SAFEConfig
from repro.core.pipeline import _trace_scalars
from repro.exceptions import DataError
from repro.tabular import Dataset
from repro.tabular.io import ChunkedDataset


def _scalars(safe):
    """Every trace scalar except the wall-clock one."""
    out = []
    for trace in safe.traces_:
        scalars = _trace_scalars(trace)
        scalars.pop("elapsed_seconds")
        out.append(scalars)
    return out


def _engineer(method):
    """``method`` built as the harness builds it: SAFE and the baselines
    that share its stages take a config, the others their defaults."""
    if method in (SAFE, RandomGenerator, ImportantGenerator):
        return method(SAFEConfig(gamma=20))
    return method()


def _identical_columns():
    """Three copies of one column: iteration 1 generates nothing new."""
    rng = np.random.default_rng(0)
    column = rng.normal(size=300)
    X = np.column_stack([column, column, column])
    y = (rng.random(300) < 0.5).astype(np.float64)
    return X, y, ("a", "b", "c")


class TestValidationSet:
    @pytest.mark.parametrize("n_iterations", [1, 2])
    def test_valid_cannot_change_psi(self, interaction_data, n_iterations):
        train = interaction_data.take_rows(np.arange(900))
        valid = interaction_data.take_rows(np.arange(900, 1200))
        cfg = SAFEConfig(gamma=20, n_iterations=n_iterations, random_state=0)
        plain, checked = SAFE(cfg), SAFE(cfg)
        psi = plain.fit(train)
        psi_valid = checked.fit(train, valid)
        assert psi_valid.feature_keys == psi.feature_keys
        assert [t.selection for t in checked.traces_] == [
            t.selection for t in plain.traces_
        ]
        assert _scalars(checked) == _scalars(plain)

    @pytest.mark.parametrize(
        "method",
        [SAFE, RandomGenerator, ImportantGenerator, FCTree, TFC, AutoLearn,
         OriginalFeatures],
    )
    @pytest.mark.parametrize("width", [3, 9])
    def test_valid_of_another_width_is_rejected(
        self, interaction_data, method, width
    ):
        train = interaction_data.take_rows(np.arange(900))
        rows = interaction_data.take_rows(np.arange(900, 1200))
        X = np.column_stack([rows.X, rows.X])[:, :width]
        with pytest.raises(DataError, match="columns"):
            _engineer(method).fit(train, Dataset.from_arrays(X, rows.y))


class TestStatsLifetime:
    def test_early_stop_leaves_no_snapshot(self, tmp_path):
        # Three identical columns: iteration 1 has nothing new to
        # generate, so the loop stops after its combination-ranking and
        # quarantine-screen passes have written snapshots.
        rng = np.random.default_rng(0)
        column = rng.normal(size=300)
        X = np.column_stack([column, column, column])
        y = (rng.random(300) < 0.5).astype(np.float64)
        names = ("a", "b", "c")
        cfg = SAFEConfig(n_iterations=4, sketch="exact", random_state=0)

        first = SAFE(cfg)
        psi = first.fit(ChunkedDataset(names, 37, X=X, y=y), checkpoint_dir=tmp_path)
        assert len(first.traces_) == 1
        assert list((tmp_path / "stats").iterdir()) == []

        rerun = SAFE(cfg)
        psi_rerun = rerun.fit(
            ChunkedDataset(names, 37, X=X, y=y), checkpoint_dir=tmp_path
        )
        assert psi_rerun.feature_keys == psi.feature_keys
        assert rerun.runtime_report_.stats_stages_resumed == []
        assert list((tmp_path / "stats").iterdir()) == []


STAGES = (
    "fit_mining_model",
    "rank_combinations",
    "generate_features",
    "evaluate_forest",
    "clean_matrix",
    "select_features",
)


class TestStoppedFitStaysStopped:
    CFG = SAFEConfig(n_iterations=4, sketch="exact", random_state=0)

    def test_in_memory_rerun_runs_no_stage(self, tmp_path, monkeypatch):
        X, y, names = _identical_columns()
        data = Dataset.from_arrays(X, y, names=names)
        first = SAFE(self.CFG)
        psi = first.fit(data, checkpoint_dir=tmp_path)
        assert len(first.traces_) == 1  # iteration 1 stopped the loop

        calls = []
        for name in STAGES:
            def counted(*args, _name=name, **kwargs):
                calls.append(_name)
                raise AssertionError(f"{_name} ran on a stopped fit's rerun")

            monkeypatch.setattr(pipeline, name, counted)
        rerun = SAFE(self.CFG)
        psi_rerun = rerun.fit(data, checkpoint_dir=tmp_path)
        assert calls == []
        assert psi_rerun.feature_keys == psi.feature_keys
        assert psi_rerun.metadata == psi.metadata
        assert _scalars(rerun) == _scalars(first)
        assert rerun.runtime_report_.resumed_from_iteration == 1
        assert rerun.runtime_report_.checkpoints_written == 0

    def test_streamed_rerun_makes_only_the_label_pass(self, tmp_path, monkeypatch):
        X, y, names = _identical_columns()
        first = SAFE(self.CFG)
        psi = first.fit(ChunkedDataset(names, 37, X=X, y=y), checkpoint_dir=tmp_path)
        assert first.runtime_report_.checkpoints_written == len(first.traces_) == 1

        passes = []
        iter_chunks = ChunkedDataset.iter_chunks

        def counted(self):
            passes.append(1)
            return iter_chunks(self)

        monkeypatch.setattr(ChunkedDataset, "iter_chunks", counted)
        rerun = SAFE(self.CFG)
        psi_rerun = rerun.fit(
            ChunkedDataset(names, 37, X=X, y=y), checkpoint_dir=tmp_path
        )
        assert len(passes) == 1
        assert psi_rerun.feature_keys == psi.feature_keys
        assert psi_rerun.metadata == psi.metadata
        assert _scalars(rerun) == _scalars(first)
        assert list((tmp_path / "stats").iterdir()) == []

    def test_time_budget_stop_stays_resumable(self, linear_data, tmp_path, monkeypatch):
        cfg = SAFEConfig(n_iterations=2, time_budget_seconds=60.0, random_state=0)
        plain = SAFE(SAFEConfig(n_iterations=2, random_state=0)).fit(linear_data)

        class Clock:
            """A timer whose every reading is 40 s after the last one."""

            def __init__(self):
                self.now = 0.0

            def elapsed(self):
                self.now += 40.0
                return self.now

        monkeypatch.setattr(pipeline, "Timer", Clock)
        first = SAFE(cfg)
        first.fit(linear_data, checkpoint_dir=tmp_path)
        assert len(first.traces_) == 1  # the budget ran out before iteration 1
        monkeypatch.undo()
        rerun = SAFE(cfg)
        psi = rerun.fit(linear_data, checkpoint_dir=tmp_path)
        assert rerun.runtime_report_.resumed_from_iteration == 0
        assert len(rerun.traces_) == 2
        assert psi.feature_keys == plain.feature_keys
