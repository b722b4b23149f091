"""The Algorithm-1 loop's contracts that neither row source may change.

* ``valid`` cannot change Ψ: no GBM of Algorithm 1 early-stops, so an
  in-memory fit with a validation set selects exactly what a fit without
  one does; a validation set of the wrong width still fails loudly, in
  SAFE and in the RAND and IMP baselines that share its stages.
* A streamed fit that returns normally leaves no statistics snapshot
  behind, also when the loop stops before its last iteration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ImportantGenerator, RandomGenerator
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

    @pytest.mark.parametrize("method", [SAFE, RandomGenerator, ImportantGenerator])
    @pytest.mark.parametrize("width", [3, 9])
    def test_valid_of_another_width_is_rejected(
        self, interaction_data, method, width
    ):
        train = interaction_data.take_rows(np.arange(900))
        rows = interaction_data.take_rows(np.arange(900, 1200))
        X = np.column_stack([rows.X, rows.X])[:, :width]
        with pytest.raises(DataError, match="columns"):
            method(SAFEConfig(gamma=20)).fit(train, Dataset.from_arrays(X, rows.y))


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
