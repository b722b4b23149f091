"""Checkpoint persistence: fingerprints, atomic writes, corruption handling."""

from __future__ import annotations

import json

import pytest

from repro.boosting.tree import TreePath
from repro.core import SAFEConfig
from repro.exceptions import CheckpointError, InjectedFault
from repro.operators.expressions import Applied, Var
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointManager,
    config_fingerprint,
    schema_fingerprint,
)
from repro.runtime.failpoints import FAILPOINTS, active


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


NAMES = ("a", "b", "c")
EXPRS = [Var(0), Var(2), Applied("add", (Var(0), Var(1)), None)]
#: Carried mining paths with every awkward threshold a tree can hold:
#: ``+inf`` (the real-vs-missing split), ``-0.0``, subnormal, and values
#: whose decimal form does not round-trip in fewer than 17 digits.
PATHS = [
    TreePath(features=(2, 0), split_values={2: (float("inf"),), 0: (0.1, -0.0)}),
    TreePath(features=(1,), split_values={1: (5e-324, 1 / 3, -1e300)}),
]


class TestFingerprints:
    def test_schema_fingerprint_is_stable(self):
        assert schema_fingerprint(NAMES) == schema_fingerprint(list(NAMES))

    def test_schema_fingerprint_is_order_sensitive(self):
        assert schema_fingerprint(("a", "b")) != schema_fingerprint(("b", "a"))

    def test_config_fingerprint_tracks_config_changes(self):
        a = config_fingerprint(SAFEConfig(), NAMES)
        b = config_fingerprint(SAFEConfig(gamma=7), NAMES)
        assert a != b

    def test_config_fingerprint_tracks_schema_changes(self):
        cfg = SAFEConfig()
        assert config_fingerprint(cfg, NAMES) != config_fingerprint(cfg, ("x",))

    def test_config_fingerprint_is_reproducible(self):
        assert config_fingerprint(SAFEConfig(), NAMES) == config_fingerprint(
            SAFEConfig(), NAMES
        )


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        traces = [{"iteration": 0, "n_generated": 4}]
        path = manager.save(0, EXPRS, "cfg-hash", traces=traces)
        assert path.exists()
        state = manager.load(path)
        assert state.iteration == 0
        assert state.config_hash == "cfg-hash"
        assert [e.key for e in state.expressions] == [e.key for e in EXPRS]
        assert state.traces == ({"iteration": 0, "n_generated": 4},)

    def test_carried_paths_round_trip_bit_exactly(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, EXPRS, "cfg-hash", carried_paths=PATHS)
        state = manager.load(path)
        assert [p.features for p in state.carried_paths] == [p.features for p in PATHS]
        for got, want in zip(state.carried_paths, PATHS):
            assert list(got.split_values) == list(want.split_values)
            for f, values in want.split_values.items():
                assert [v.hex() for v in got.split_values[f]] == [
                    v.hex() for v in values
                ]

    def test_checkpoint_without_carried_paths_loads_none(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, EXPRS, "cfg-hash")
        assert "carried_paths" not in json.loads(path.read_text())["payload"]
        assert manager.load(path).carried_paths is None

    def test_checksum_covers_carried_paths(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, EXPRS, "cfg-hash", carried_paths=PATHS)
        record = json.loads(path.read_text())
        record["payload"]["carried_paths"][0]["features"] = [0, 2]
        path.write_text(json.dumps(record))
        state, skipped = manager.latest()
        assert state is None
        assert len(skipped) == 1 and "checksum" in skipped[0]

    def test_expected_config_hash_gates_the_load(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, EXPRS, "cfg-hash")
        manager.load(path, expected_config_hash="cfg-hash")
        with pytest.raises(CheckpointError):
            manager.load(path, expected_config_hash="other-hash")

    def test_missing_file_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError):
            manager.load(tmp_path / "iter_00099.json")

    def test_no_temp_file_left_behind(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, EXPRS, "cfg-hash")
        assert not list(tmp_path.glob(".*tmp"))


class TestCrashSafety:
    def test_interrupted_write_preserves_previous_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, EXPRS, "cfg-hash")
        with active("checkpoint.write"):
            with pytest.raises(InjectedFault):
                manager.save(1, EXPRS, "cfg-hash")
        # The interrupted iteration-1 file must not exist, its temp must
        # be gone, and the iteration-0 checkpoint must still load.
        assert not manager.path_for(1).exists()
        assert not list(tmp_path.glob(".*tmp"))
        state, skipped = manager.latest(expected_config_hash="cfg-hash")
        assert state is not None and state.iteration == 0
        assert skipped == []

    def test_read_failpoint_is_recorded_as_a_skip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, EXPRS, "cfg-hash")
        with active("checkpoint.read"):
            state, skipped = manager.latest()
        assert state is None and len(skipped) == 1


class TestLatest:
    def test_empty_directory(self, tmp_path):
        state, skipped = CheckpointManager(tmp_path).latest()
        assert state is None and skipped == []

    def test_picks_newest_iteration(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, EXPRS[:1], "cfg-hash")
        manager.save(1, EXPRS, "cfg-hash")
        state, _ = manager.latest()
        assert state.iteration == 1 and len(state.expressions) == len(EXPRS)

    def test_truncated_newest_falls_back_to_previous(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, EXPRS, "cfg-hash")
        path = manager.save(1, EXPRS, "cfg-hash")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate a torn write
        state, skipped = manager.latest(expected_config_hash="cfg-hash")
        assert state is not None and state.iteration == 0
        assert len(skipped) == 1 and "JSON" in skipped[0]

    def test_checksum_tampering_is_detected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, EXPRS, "cfg-hash")
        record = json.loads(path.read_text())
        record["payload"]["iteration"] = 99
        path.write_text(json.dumps(record))
        state, skipped = manager.latest()
        assert state is None
        assert len(skipped) == 1 and "checksum" in skipped[0]

    def test_unknown_format_is_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save(0, EXPRS, "cfg-hash")
        record = json.loads(path.read_text())
        record["payload"]["format"] = "repro-checkpoint-v999"
        body = json.dumps(record["payload"], sort_keys=True)
        import hashlib

        record["checksum"] = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(json.dumps(record))
        state, skipped = manager.latest()
        assert state is None
        assert CHECKPOINT_FORMAT in skipped[0]

    def test_mismatched_config_hash_is_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, EXPRS, "old-config")
        state, skipped = manager.latest(expected_config_hash="new-config")
        assert state is None
        assert len(skipped) == 1 and "fingerprint" in skipped[0]


class TestStatsCheckpointStore:
    """Sufficient-statistic snapshots: bit-exact, checksummed, guarded."""

    def _store(self, tmp_path, config_hash="cfg"):
        from repro.runtime.checkpoint import StatsCheckpointStore

        return StatsCheckpointStore(tmp_path / "stats", config_hash)

    def test_state_round_trips_bit_exactly(self, tmp_path):
        import numpy as np

        store = self._store(tmp_path)
        state = {
            "none": None,
            "flag": True,
            "count": 7,
            "tiny": 2.0 ** -1074,  # denormal: survives hex encoding
            "nan": float("nan"),
            "text": "Ψ",
            "arr": np.arange(6, dtype=np.int64).reshape(2, 3),
            "nested": [(1.5, np.array([0.1, 0.2])), {"k": None}],
        }
        store.save("stage", state)
        back = store.load("stage")
        assert back["none"] is None and back["flag"] is True
        assert back["count"] == 7
        assert back["tiny"].hex() == state["tiny"].hex()
        assert np.isnan(back["nan"])
        assert back["text"] == "Ψ"
        assert back["arr"].dtype == np.int64
        assert np.array_equal(back["arr"], state["arr"])
        assert back["nested"][0][1].dtype == np.float64
        assert store.resumed == ["stage"]

    def test_missing_stage_returns_sentinel_without_a_skip(self, tmp_path):
        from repro.runtime.checkpoint import MISSING

        store = self._store(tmp_path)
        assert store.load("never-saved") is MISSING
        assert store.skipped == []

    def test_corrupt_snapshot_is_skipped_with_reason(self, tmp_path):
        from repro.runtime.checkpoint import MISSING

        store = self._store(tmp_path)
        path = store.save("stage", {"x": 1})
        path.write_bytes(b"not a zip at all")  # repro: ignore comment n/a in tests
        assert store.load("stage") is MISSING
        assert any("stage" in reason for reason in store.skipped)

    def test_config_hash_mismatch_is_skipped(self, tmp_path):
        from repro.runtime.checkpoint import MISSING

        self._store(tmp_path, "cfg-a").save("stage", {"x": 1})
        other = self._store(tmp_path, "cfg-b")
        assert other.load("stage") is MISSING
        assert len(other.skipped) == 1

    def test_crash_mid_checkpoint_leaves_no_snapshot(self, tmp_path):
        from repro.runtime.checkpoint import MISSING

        store = self._store(tmp_path)
        with active("stream.stats.checkpoint", mode="once"):
            with pytest.raises(InjectedFault):
                store.save("stage", {"x": 1})
        assert store.load("stage") is MISSING
        assert store.skipped == []  # absence, not corruption
        # the interrupted temp file must not linger as a valid-looking npz
        assert list((tmp_path / "stats").glob("*.npz")) == []

    def test_run_computes_once_then_resumes(self, tmp_path):
        store = self._store(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"v": 41}

        assert store.run("stage", compute)["v"] == 41
        assert store.run("stage", compute)["v"] == 41
        assert len(calls) == 1
        assert store.written == 1 and store.resumed == ["stage"]

    def test_scoped_view_prefixes_keys_and_shares_counters(self, tmp_path):
        store = self._store(tmp_path)
        scoped = store.scoped("it00000").scoped("mine-gbm")
        scoped.save("edges", {"x": 1})
        assert store.load("it00000/mine-gbm/edges")["x"] == 1
        assert store.written == 1
        scoped.note_skip("oops")
        assert store.skipped == ["it00000/mine-gbm/oops"]

    def test_clear_drops_snapshots_and_scratch(self, tmp_path):
        from repro.runtime.checkpoint import MISSING

        store = self._store(tmp_path)
        store.save("stage", {"x": 1})
        scratch = store.scratch_dir("gbm")
        (tmp_path / "stats").joinpath("marker").write_text("x")  # repro: ignore n/a
        store.clear()
        assert store.load("stage") is MISSING
        import os

        assert not os.path.exists(scratch)

    def test_object_dtype_arrays_are_rejected(self, tmp_path):
        import numpy as np

        store = self._store(tmp_path)
        with pytest.raises(CheckpointError):
            store.save("stage", {"bad": np.array([object()])})


class TestNJobsLeavesTheFingerprint:
    """``n_jobs`` has no effect on the fit, so it is hashed as 1: a rerun
    that changes only ``n_jobs`` resumes, and checkpoints written under the
    earlier fingerprint (``n_jobs`` as given) still resume at that
    ``n_jobs``."""

    SIXTEEN = tuple(f"x{i}" for i in range(16))

    def test_default_fingerprint_is_unchanged(self):
        from repro.runtime.checkpoint import legacy_config_fingerprint

        default = config_fingerprint(SAFEConfig(), self.SIXTEEN)
        assert default.startswith("218cb2ae58050699")
        assert config_fingerprint(SAFEConfig(n_jobs=2), self.SIXTEEN) == default
        assert config_fingerprint(SAFEConfig(n_jobs=-1), self.SIXTEEN) == default
        assert legacy_config_fingerprint(SAFEConfig(), self.SIXTEEN) == default
        legacy = legacy_config_fingerprint(SAFEConfig(n_jobs=2), self.SIXTEEN)
        assert legacy.startswith("449081b5ab13b725")

    @staticmethod
    def _killed_after_iteration_0(data, ckpt, n_jobs):
        from repro.core import SAFE

        with active("pipeline.iteration", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                SAFE(SAFEConfig(n_iterations=2, gamma=10, random_state=0, n_jobs=n_jobs)).fit(
                    data, checkpoint_dir=ckpt
                )

    def test_rerun_at_other_n_jobs_resumes(self, linear_data, tmp_path):
        import numpy as np

        from repro.core import SAFE

        cfg = SAFEConfig(n_iterations=2, gamma=10, random_state=0, n_jobs=1)
        reference = SAFE(cfg).fit(linear_data)
        self._killed_after_iteration_0(linear_data, tmp_path, n_jobs=2)
        resumed = SAFE(cfg)
        psi = resumed.fit(linear_data, checkpoint_dir=tmp_path)
        assert resumed.runtime_report_.resumed_from_iteration == 0
        assert psi.feature_keys == reference.feature_keys
        assert np.array_equal(
            psi.transform_matrix(linear_data.X),
            reference.transform_matrix(linear_data.X),
        )

    def test_checkpoint_under_the_old_fingerprint_resumes(self, linear_data, tmp_path):
        import hashlib

        from repro.core import SAFE
        from repro.runtime.checkpoint import legacy_config_fingerprint

        cfg = SAFEConfig(n_iterations=2, gamma=10, random_state=0, n_jobs=2)
        self._killed_after_iteration_0(linear_data, tmp_path, n_jobs=2)
        # Rewrite the checkpoint as a fit before the change wrote it.
        (path,) = CheckpointManager(tmp_path).checkpoint_paths()
        record = json.loads(path.read_text())
        record["payload"]["config_hash"] = legacy_config_fingerprint(
            cfg, linear_data.names
        )
        body = json.dumps(record["payload"], sort_keys=True)
        record["checksum"] = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(json.dumps(record))
        resumed = SAFE(cfg)
        resumed.fit(linear_data, checkpoint_dir=tmp_path)
        assert resumed.runtime_report_.resumed_from_iteration == 0

    def test_stats_snapshot_under_the_old_fingerprint_loads(self, tmp_path):
        from repro.runtime.checkpoint import (
            MISSING,
            StatsCheckpointStore,
            legacy_config_fingerprint,
        )

        cfg = SAFEConfig(n_jobs=2)
        legacy = legacy_config_fingerprint(cfg, NAMES)
        StatsCheckpointStore(tmp_path, legacy).save("stage", {"x": 1})
        current = config_fingerprint(cfg, NAMES)
        assert StatsCheckpointStore(tmp_path, current).load("stage") is MISSING
        store = StatsCheckpointStore(tmp_path, current, also_accept=(legacy,))
        assert store.load("stage") == {"x": 1}
        assert store.skipped == []
