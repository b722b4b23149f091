"""The mining-GBM carry in both Algorithm-1 drivers.

From the second iteration on, a driver takes its paths from the previous
ranking GBM instead of fitting a mining GBM whenever that refit would
grow the same trees. The carry must change nothing but the work done: Ψ,
every information value and every trace scalar except ``mining_reused``
equal those of a fit that refits, in memory and streamed with
``sketch="exact"``; a killed-and-resumed fit carries exactly where the
uninterrupted one does; and a streamed fit that carries makes two passes
fewer per carried iteration.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.boosting import GradientBoostingClassifier
from repro.boosting.carry import carried_paths
from repro.boosting.stream import _tree_from_state, _tree_state
from repro.boosting.tree import GAIN_TIE_RTOL
from repro.core import SAFE, SAFEConfig
from repro.core import selection
from repro.core import stream as core_stream
from repro.core.pipeline import _trace_from_scalars, _trace_scalars
from repro.exceptions import InjectedFault
from repro.runtime.checkpoint import CheckpointManager, StatsCheckpointStore
from repro.runtime.failpoints import FAILPOINTS, active
from repro.tabular.dataset import Dataset
from repro.tabular.io import ChunkedDataset

#: Small GBMs on 2000 rows: at this size the default 20 depth-4 trees
#: reach nodes small enough for exact cross-feature ties, which refuse
#: the carry; 5 depth-3 trees carry at every seed tried.
CARRY_CONFIG = dict(
    n_iterations=2,
    random_state=0,
    mining_n_estimators=5,
    ranking_n_estimators=5,
    mining_max_depth=3,
    ranking_max_depth=3,
)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


def _workload(seed=1, n=2000, k=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    X[rng.random(size=(n, k)) < 0.02] = np.nan
    logits = X[:, 0] - 0.5 * np.nan_to_num(X[:, 1]) + 0.3 * rng.normal(size=n)
    y = (logits > 0).astype(np.float64)
    return X, y, tuple(f"f{i}" for i in range(k))


def _data(mode, workload):
    X, y, names = workload
    if mode == "memory":
        return Dataset(X=X.copy(), y=y.copy(), names=names)
    return ChunkedDataset(names, 400, X=X, y=y)


def _config(mode, **overrides):
    params = dict(CARRY_CONFIG, sketch="exact" if mode == "stream" else "merge")
    params.update(overrides)
    return SAFEConfig(**params)


def _fit(mode, workload=None, checkpoint_dir=None, **overrides):
    safe = SAFE(_config(mode, **overrides))
    transformer = safe.fit(
        _data(mode, workload or _workload()), checkpoint_dir=checkpoint_dir
    )
    return safe, tuple(e.key for e in transformer.expressions)


def _scalars(safe, drop=("elapsed_seconds",)):
    return [
        {k: v for k, v in _trace_scalars(t).items() if k not in drop}
        for t in safe.traces_
    ]


def _refuse_carry(monkeypatch):
    for module in (selection, core_stream):
        monkeypatch.setattr(module, "carried_paths", lambda model, survivors: None)


def _count_passes(monkeypatch) -> list:
    passes = []
    iter_chunks = ChunkedDataset.iter_chunks

    def counted(self):
        passes.append(1)
        yield from iter_chunks(self)

    monkeypatch.setattr(ChunkedDataset, "iter_chunks", counted)
    return passes


MODES = ["memory", "stream"]


class TestCarryParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_refitting_instead_changes_only_the_flag(self, mode, monkeypatch):
        carried, keys = _fit(mode)
        assert [t.mining_reused for t in carried.traces_] == [False, True]
        _refuse_carry(monkeypatch)
        refit, refit_keys = _fit(mode)
        assert [t.mining_reused for t in refit.traces_] == [False, False]
        assert refit_keys == keys
        assert _scalars(refit, ("elapsed_seconds", "mining_reused")) == _scalars(
            carried, ("elapsed_seconds", "mining_reused")
        )
        for a, b in zip(carried.traces_, refit.traces_):
            assert a.selection == b.selection  # IVs and every index set

    @pytest.mark.parametrize("mode", MODES)
    def test_unequal_tree_counts_never_carry(self, mode):
        safe, _ = _fit(mode, ranking_n_estimators=6)
        assert len(safe.traces_) == 2
        assert not any(t.mining_reused for t in safe.traces_)
        assert safe.traces_[0].selection.carried_paths is not None

    def test_unequal_learning_rates_never_carry(self):
        safe, _ = _fit("memory", mining_learning_rate=0.2)
        assert not any(t.mining_reused for t in safe.traces_)


def test_traces_from_older_checkpoints_read_as_refit():
    scalars = {"iteration": 0, "n_paths": 3, "elapsed_seconds": 0.5}
    assert _trace_from_scalars(scalars).mining_reused is False
    trace = _trace_from_scalars(dict(scalars, mining_reused=True))
    assert trace.mining_reused is True
    assert _trace_scalars(trace)["mining_reused"] is True


def test_tree_snapshots_keep_tie_flags_and_older_ones_refuse_the_carry():
    X, y, _ = _workload()
    ranking = GradientBoostingClassifier(
        n_estimators=3, max_depth=3, random_state=0, tie_rtol=GAIN_TIE_RTOL
    ).fit(X, y)
    survivors = np.arange(X.shape[1])
    assert carried_paths(ranking, survivors) is not None
    states = [_tree_state(tree) for tree in ranking.trees_]
    ranking.trees_ = [_tree_from_state(ranking, state) for state in states]
    for tree, state in zip(ranking.trees_, states):
        assert np.array_equal(tree.tie_in_feature, state["tie_in_feature"])
    assert carried_paths(ranking, survivors) is not None
    # A snapshot written before the flags were persisted restores without
    # them, so the next mining GBM is refit.
    for state in states:
        del state["tie_in_feature"]
    ranking.trees_ = [_tree_from_state(ranking, state) for state in states]
    assert all(tree.tie_in_feature is None for tree in ranking.trees_)
    assert carried_paths(ranking, survivors) is None


class TestResume:
    @pytest.mark.parametrize("mode", MODES)
    def test_resumed_iteration_carries_like_the_uninterrupted_fit(
        self, mode, tmp_path, monkeypatch
    ):
        # The merge sketch makes one edges pass per stage, so the passes
        # are the ones test_core_stream.py::TestPassCount counts.
        passes = _count_passes(monkeypatch)
        reference, keys = _fit(mode, sketch="merge")
        reference_passes = len(passes)
        with active("pipeline.iteration", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                _fit(mode, checkpoint_dir=str(tmp_path), sketch="merge")
        record = json.loads((tmp_path / "iter_00000.json").read_text())
        assert record["payload"]["carried_paths"]
        del passes[:]
        resumed, resumed_keys = _fit(
            mode, checkpoint_dir=str(tmp_path), sketch="merge"
        )
        assert resumed.runtime_report_.resumed_from_iteration == 0
        assert resumed_keys == keys
        assert _scalars(resumed) == _scalars(reference)
        assert [t.mining_reused for t in resumed.traces_] == [False, True]
        if mode == "stream":
            # The label pass, then iteration 1's seven passes.
            assert reference_passes == 1 + 9 + 7
            assert len(passes) == 1 + 7

    def test_resume_inside_the_ranking_gbm_still_carries(
        self, tmp_path, monkeypatch
    ):
        # Trees restored from stream snapshots keep their tie flags, so a
        # fit killed while iteration 0's ranking GBM grows still carries
        # its paths into iteration 1 and makes no mining-GBM passes there.
        events = []
        iter_chunks = ChunkedDataset.iter_chunks
        save = StatsCheckpointStore.save

        def counted(self):
            events.append("pass")
            yield from iter_chunks(self)

        def recorded(self, stage, state):
            events.append(stage)
            return save(self, stage, state)

        monkeypatch.setattr(ChunkedDataset, "iter_chunks", counted)
        monkeypatch.setattr(StatsCheckpointStore, "save", recorded)
        reference, keys = _fit(
            "stream", checkpoint_dir=str(tmp_path / "reference"), sketch="merge"
        )
        assert [t.mining_reused for t in reference.traces_] == [False, True]
        saves = [e for e in events if e != "pass"]
        kill_stage = "it00000/sel-rank-gbm/tree-0002"
        kill_at = events.index(kill_stage)
        passes_left = events[kill_at:].count("pass")

        with active(
            "stream.stats.checkpoint", mode="nth", nth=saves.index(kill_stage) + 1
        ):
            with pytest.raises(InjectedFault):
                _fit(
                    "stream", checkpoint_dir=str(tmp_path / "crash"), sketch="merge"
                )
        del events[:]
        resumed, resumed_keys = _fit(
            "stream", checkpoint_dir=str(tmp_path / "crash"), sketch="merge"
        )
        report = resumed.runtime_report_
        assert report.resumed_from_iteration is None
        assert "it00000/sel-rank-gbm/tree-0001" in report.stats_stages_resumed
        assert [t.mining_reused for t in resumed.traces_] == [False, True]
        assert resumed_keys == keys
        assert _scalars(resumed) == _scalars(reference)
        # The label pass, then what the uninterrupted fit had left: iteration
        # 1's seven passes (a refit mining GBM would add two).
        assert passes_left == 7
        assert events.count("pass") == 1 + passes_left

    def test_checkpoint_without_carried_paths_resumes_by_refitting(
        self, tmp_path, monkeypatch
    ):
        _, keys = _fit("stream", sketch="merge")
        save = CheckpointManager.save

        def save_without_carry(self, *args, carried_paths=None, **kwargs):
            return save(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(CheckpointManager, "save", save_without_carry)
            with active("pipeline.iteration", mode="nth", nth=1):
                with pytest.raises(InjectedFault):
                    _fit("stream", checkpoint_dir=str(tmp_path), sketch="merge")
        record = json.loads((tmp_path / "iter_00000.json").read_text())
        assert "carried_paths" not in record["payload"]
        passes = _count_passes(monkeypatch)
        resumed, resumed_keys = _fit(
            "stream", checkpoint_dir=str(tmp_path), sketch="merge"
        )
        assert resumed_keys == keys
        assert [t.mining_reused for t in resumed.traces_] == [False, False]
        # The label pass, then iteration 1 with its mining GBM.
        assert len(passes) == 1 + 9


class TestPassCount:
    def test_carried_iteration_skips_the_mining_gbms_two_passes(self, monkeypatch):
        """As ``test_core_stream.py::TestPassCount``, on a workload that
        carries: iteration 1 makes no mining-GBM edges or codes pass."""
        passes = _count_passes(monkeypatch)
        safe = SAFE(
            SAFEConfig(sketch="merge", on_operator_error="quarantine", **CARRY_CONFIG)
        )
        X, y, names = _workload()
        safe.fit(ChunkedDataset(names, 400, X=X, y=y))
        assert [t.mining_reused for t in safe.traces_] == [False, True]
        assert len(passes) == 1 + 9 + 7
