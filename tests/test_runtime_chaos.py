"""Chaos suite: the ISSUE's fault scripts, driven through failpoints.

Every scenario injects a deterministic fault into a live ``SAFE.fit`` or
``transform`` and asserts the run *degrades predictably*:

* a fit killed between iterations resumes from its checkpoint and
  produces the same Ψ as an uninterrupted run;
* a truncated final checkpoint costs one iteration, not the run;
* with every failpoint disarmed, the fault-tolerant paths are
  bit-identical to the strict ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SAFE, SAFEConfig
from repro.exceptions import InjectedFault
from repro.runtime.failpoints import FAILPOINTS, active


@pytest.fixture(autouse=True)
def _clean_runtime():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


CFG = dict(gamma=10, random_state=0)


class TestKilledFitResumes:
    def test_resume_reproduces_the_uninterrupted_psi(self, linear_data, tmp_path):
        cfg = SAFEConfig(n_iterations=2, **CFG)
        reference = SAFE(cfg).fit(linear_data)

        ckpt = tmp_path / "ckpt"
        with active("pipeline.iteration", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                SAFE(cfg).fit(linear_data, checkpoint_dir=ckpt)

        resumed = SAFE(cfg)
        psi = resumed.fit(linear_data, checkpoint_dir=ckpt)
        assert resumed.runtime_report_.resumed_from_iteration == 0
        assert psi.feature_keys == reference.feature_keys
        assert np.array_equal(
            psi.transform_matrix(linear_data.X),
            reference.transform_matrix(linear_data.X),
        )

    def test_resumed_traces_cover_all_iterations(self, linear_data, tmp_path):
        cfg = SAFEConfig(n_iterations=2, **CFG)
        ckpt = tmp_path / "ckpt"
        with active("pipeline.iteration", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                SAFE(cfg).fit(linear_data, checkpoint_dir=ckpt)
        resumed = SAFE(cfg)
        resumed.fit(linear_data, checkpoint_dir=ckpt)
        assert [t.iteration for t in resumed.traces_] == [0, 1]
        # Restored traces only persist scalars; the live one is complete.
        assert resumed.traces_[0].selection is None
        assert resumed.traces_[1].selection is not None

    def test_checkpoint_from_other_config_is_not_resumed(
        self, linear_data, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        with active("pipeline.iteration", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                SAFE(SAFEConfig(n_iterations=2, **CFG)).fit(
                    linear_data, checkpoint_dir=ckpt
                )
        other = SAFE(SAFEConfig(n_iterations=2, gamma=12, random_state=0))
        psi = other.fit(linear_data, checkpoint_dir=ckpt)
        assert other.runtime_report_.resumed_from_iteration is None
        assert other.runtime_report_.checkpoints_skipped
        assert psi.n_output_features >= 1


class TestTruncatedCheckpoint:
    def test_torn_final_checkpoint_costs_one_iteration_only(
        self, linear_data, tmp_path
    ):
        cfg = SAFEConfig(n_iterations=2, **CFG)
        reference = SAFE(cfg).fit(linear_data)

        ckpt = tmp_path / "ckpt"
        interrupted = SAFE(cfg)
        with active("pipeline.iteration", mode="nth", nth=2):
            with pytest.raises(InjectedFault):
                interrupted.fit(linear_data, checkpoint_dir=ckpt)
        newest = sorted(ckpt.glob("iter_*.json"))[-1]
        text = newest.read_text()
        newest.write_text(text[: len(text) // 2])  # torn write

        resumed = SAFE(cfg)
        psi = resumed.fit(linear_data, checkpoint_dir=ckpt)
        # The corrupt iteration-1 file is skipped (with a reason) and the
        # fit resumes after iteration 0, replaying iteration 1.
        assert resumed.runtime_report_.checkpoints_skipped
        assert resumed.runtime_report_.resumed_from_iteration == 0
        assert psi.feature_keys == reference.feature_keys

    def test_all_checkpoints_corrupt_means_clean_restart(
        self, linear_data, tmp_path
    ):
        cfg = SAFEConfig(n_iterations=1, **CFG)
        reference = SAFE(cfg).fit(linear_data)
        ckpt = tmp_path / "ckpt"
        SAFE(cfg).fit(linear_data, checkpoint_dir=ckpt)
        for path in ckpt.glob("iter_*.json"):
            path.write_text(path.read_text()[:40])
        restarted = SAFE(cfg)
        psi = restarted.fit(linear_data, checkpoint_dir=ckpt)
        assert restarted.runtime_report_.resumed_from_iteration is None
        assert psi.feature_keys == reference.feature_keys


class TestQuarantine:
    def test_operator_fault_is_quarantined_and_the_fit_completes(
        self, linear_data
    ):
        safe = SAFE(SAFEConfig(**CFG))
        with active("generation.operator", mode="nth", nth=1):
            psi = safe.fit(linear_data)
        report = safe.runtime_report_
        assert report.n_quarantined == 1
        iteration, record = report.quarantined[0]
        assert iteration == 0 and "InjectedFault" in record.reason
        assert safe.traces_[0].n_quarantined == 1
        assert psi.n_output_features >= 1
        assert record.key not in psi.feature_keys

    def test_raise_mode_restores_fail_fast(self, linear_data):
        safe = SAFE(SAFEConfig(on_operator_error="raise", **CFG))
        with active("generation.operator", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                safe.fit(linear_data)

    def test_quarantine_summary_is_jsonable(self, linear_data):
        import json

        safe = SAFE(SAFEConfig(**CFG))
        with active("generation.operator", mode="nth", nth=2):
            safe.fit(linear_data)
        summary = safe.runtime_report_.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["quarantined"][0]["operator"]


class TestServingFaults:
    def test_errors_null_turns_an_evaluation_fault_into_nan(self, linear_data):
        psi = SAFE(SAFEConfig(**CFG)).fit(linear_data)
        with active("transform.evaluate", mode="nth", nth=2):
            out = psi.transform_matrix(linear_data.X, errors="null")
        healthy = psi.transform_matrix(linear_data.X)
        assert np.all(np.isnan(out[:, 1]))
        mask = np.ones(out.shape[1], dtype=bool)
        mask[1] = False
        assert np.array_equal(out[:, mask], healthy[:, mask])

    def test_errors_raise_propagates_the_fault(self, linear_data):
        psi = SAFE(SAFEConfig(**CFG)).fit(linear_data)
        with active("transform.evaluate"):
            with pytest.raises(InjectedFault):
                psi.transform(linear_data)


class TestFaultFreeParity:
    """With every failpoint disarmed, tolerance adds nothing — bit for bit."""

    def test_quarantine_mode_matches_strict_mode(self, linear_data):
        tolerant = SAFE(SAFEConfig(on_operator_error="quarantine", **CFG)).fit(
            linear_data
        )
        strict = SAFE(SAFEConfig(on_operator_error="raise", **CFG)).fit(
            linear_data
        )
        assert tolerant.feature_keys == strict.feature_keys
        assert np.array_equal(
            tolerant.transform_matrix(linear_data.X),
            strict.transform_matrix(linear_data.X),
        )

    def test_checkpointed_fit_matches_plain_fit(self, linear_data, tmp_path):
        cfg = SAFEConfig(n_iterations=2, **CFG)
        plain = SAFE(cfg).fit(linear_data)
        ckpt_safe = SAFE(cfg)
        checkpointed = ckpt_safe.fit(
            linear_data, checkpoint_dir=tmp_path / "ckpt"
        )
        assert ckpt_safe.runtime_report_.checkpoints_written == len(
            ckpt_safe.traces_
        )
        assert checkpointed.feature_keys == plain.feature_keys
        assert np.array_equal(
            checkpointed.transform_matrix(linear_data.X),
            plain.transform_matrix(linear_data.X),
        )

    def test_errors_null_matches_errors_raise(self, linear_data):
        psi = SAFE(SAFEConfig(**CFG)).fit(linear_data)
        assert np.array_equal(
            psi.transform_matrix(linear_data.X, errors="null"),
            psi.transform_matrix(linear_data.X, errors="raise"),
        )
