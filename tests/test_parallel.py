"""``SAFEConfig.n_jobs`` is validated and has no effect (§IV-E.2).

Every fit runs serially in-process. Any valid ``n_jobs`` gives the same
Ψ, information values and trace scalars, in memory and streamed under
either sketch; no fit starts a worker process; invalid values are still
rejected.
"""

from __future__ import annotations

import pytest

from repro.core import SAFE, SAFEConfig
from repro.core.pipeline import _trace_scalars
from repro.exceptions import ConfigurationError
from repro.tabular.io import ChunkedDataset


class TestParallelIV:
    def test_safe_config_integration(self, interaction_data):
        from repro.core import SAFE, SAFEConfig

        serial = SAFE(SAFEConfig(gamma=15, n_jobs=1)).fit(interaction_data)
        parallel = SAFE(SAFEConfig(gamma=15, n_jobs=2)).fit(interaction_data)
        assert serial.feature_keys == parallel.feature_keys

    def test_in_memory_fit_starts_no_pool(self, interaction_data, monkeypatch):
        import concurrent.futures

        import repro.parallel as par
        from repro.core import SAFE, SAFEConfig

        class NoPoolAllowed:
            def __init__(self, *args, **kwargs):
                raise AssertionError("the in-memory fit started a process pool")

        monkeypatch.setattr(par, "ProcessPoolExecutor", NoPoolAllowed)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPoolAllowed)
        SAFE(SAFEConfig(gamma=15, n_jobs=2)).fit(interaction_data)

    def test_invalid_n_jobs_in_config(self):
        from repro.core import SAFEConfig

        with pytest.raises(ConfigurationError):
            SAFEConfig(n_jobs=0)


def _fit(data, mode: str, n_jobs: int):
    """Ψ keys, per-iteration IVs and trace scalars of one two-iteration fit.

    ``mode`` is ``"memory"``, or the ``sketch`` of a streamed fit.
    """
    streamed = mode != "memory"
    safe = SAFE(
        SAFEConfig(
            n_iterations=2,
            gamma=15,
            random_state=0,
            n_jobs=n_jobs,
            sketch=mode if streamed else "merge",
        )
    )
    if streamed:
        data = ChunkedDataset.from_dataset(data, chunk_rows=300)
    psi = safe.fit(data)
    ivs = [t.selection.information_values for t in safe.traces_]
    scalars = [
        {k: v for k, v in _trace_scalars(t).items() if k != "elapsed_seconds"}
        for t in safe.traces_
    ]
    return psi.feature_keys, ivs, scalars


class TestNJobsIsANoOp:
    @pytest.mark.parametrize("mode", ["memory", "exact", "merge"])
    def test_every_n_jobs_fits_the_same(self, interaction_data, mode):
        reference = _fit(interaction_data, mode, n_jobs=1)
        assert reference[0]
        for n_jobs in (2, -1):
            assert _fit(interaction_data, mode, n_jobs) == reference

    def test_streamed_fit_starts_no_worker_process(
        self, interaction_data, monkeypatch
    ):
        import concurrent.futures
        import multiprocessing.process

        import repro.parallel as par

        def refuse(*args, **kwargs):
            raise AssertionError("the fit started a worker process")

        monkeypatch.setattr(par, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        # multiprocessing.Process, and the process class of every start
        # method, inherit ``start`` from BaseProcess.
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        keys, _, _ = _fit(interaction_data, "merge", n_jobs=2)
        assert keys

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_invalid_n_jobs_rejected(self, n_jobs):
        with pytest.raises(ConfigurationError):
            SAFEConfig(n_jobs=n_jobs)
