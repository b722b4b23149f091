"""Crash-safe out-of-core fit: the kill-then-resume chaos sweep.

Acceptance contract of the recovery stack: for every ``stream.*``
failpoint site, killing a checkpointed
streaming fit at that site and resuming from the same checkpoint
directory reproduces the uninterrupted fit's Ψ *bit-identically* —
including quarantine bookkeeping and checkpoint-skip reasons. A corrupt
chunk is either raised as a typed error or deterministically excluded;
it is never silently consumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SAFEConfig
from repro.core.pipeline import SAFE
from repro.exceptions import ChunkIntegrityError, InjectedFault
from repro.runtime import checkpoint
from repro.runtime.failpoints import FAILPOINTS, active
from repro.tabular.io import ChunkedDataset, Dataset, save_npy, write_manifest

N_ROWS = 400
CHUNK_ROWS = 100

#: Every failpoint site the streaming fit passes through, with a kill
#: schedule that leaves *partial* progress behind (so resume actually
#: has statistics to pick up), plus always-on schedules that die at the
#: first opportunity.
SWEEP = [
    ("stream.shard.run", "always", None),
    ("stream.chunk.read", "always", None),
    ("stream.chunk.read", "nth", 25),
    ("stream.stats.checkpoint", "always", None),
    ("stream.stats.checkpoint", "nth", 5),
    ("selection.select", "nth", 1),
    ("pipeline.iteration", "nth", 1),
]


@pytest.fixture(autouse=True)
def _clean_runtime():
    FAILPOINTS.reset()
    yield
    FAILPOINTS.reset()


def _write_backing(root, corrupt_chunk: "int | None" = None):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N_ROWS, 5))
    y = (
        X[:, 0] + 0.5 * X[:, 1] * X[:, 2]
        + rng.normal(scale=0.4, size=N_ROWS)
        > 0
    ).astype(float)
    ds = Dataset(X=X, y=y, names=tuple(f"f{i}" for i in range(5)))
    x_path = root / "X.npy"
    y_path = root / "y.npy"
    save_npy(ds, x_path, y_path)
    write_manifest(
        ChunkedDataset.from_npy(
            x_path, y_path=y_path, chunk_rows=CHUNK_ROWS, manifest=False
        ),
        chunk_rows=CHUNK_ROWS,
    )
    if corrupt_chunk is not None:
        # flipped after the manifest snapshot: verification must notice
        lo = corrupt_chunk * CHUNK_ROWS
        arr = np.load(x_path, mmap_mode="r+")
        arr[lo : lo + CHUNK_ROWS] += 1.0
        arr.flush()
        del arr
    return x_path, y_path


def _open(x_path, y_path, on_chunk_error="raise"):
    return ChunkedDataset.from_npy(
        x_path,
        y_path=y_path,
        chunk_rows=CHUNK_ROWS,
        manifest=True,
        on_chunk_error=on_chunk_error,
    )


def _config(n_jobs: int = 1) -> SAFEConfig:
    return SAFEConfig(
        n_iterations=2, sketch="exact", random_state=0, iv_bins=8, n_jobs=n_jobs
    )


def _psi(transformer, safe):
    """The comparison surface: expression keys plus the exact
    per-iteration information values (floats compared bit-for-bit).

    Traces restored from a checkpoint carry ``selection=None`` (only
    scalars are checkpointed), so IVs are keyed by iteration index and
    compared through :func:`_assert_matches_reference`.
    """
    ivs = {
        i: trace.selection.information_values
        for i, trace in enumerate(safe.traces_)
        if trace.selection is not None
    }
    return tuple(e.key for e in transformer.expressions), ivs


def _assert_matches_reference(candidate, reference):
    """Ψ expression keys must be identical; every information-value
    vector the candidate recomputed must match the reference's
    bit-for-bit (restored iterations have nothing to compare)."""
    cand_keys, cand_ivs = candidate
    ref_keys, ref_ivs = reference
    assert cand_keys == ref_keys
    for i, ivs in cand_ivs.items():
        assert ivs == ref_ivs[i]


@pytest.fixture(scope="module")
def clean_backing(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream-clean")
    return _write_backing(root)


@pytest.fixture(scope="module")
def reference_psi(clean_backing):
    x_path, y_path = clean_backing
    safe = SAFE(config=_config())
    transformer = safe.fit(_open(x_path, y_path))
    return _psi(transformer, safe)


class TestChaosSweep:
    """Kill at every stream site; resume reproduces Ψ bit-identically."""

    @pytest.mark.parametrize(
        "site,mode,nth", SWEEP, ids=[f"{s}-{m}{n or ''}" for s, m, n in SWEEP]
    )
    def test_kill_then_resume_reproduces_psi(
        self, clean_backing, reference_psi, tmp_path, site, mode, nth
    ):
        x_path, y_path = clean_backing
        crashed = SAFE(config=_config())
        with active(site, mode=mode, nth=nth):
            with pytest.raises(InjectedFault):
                crashed.fit(
                    _open(x_path, y_path), checkpoint_dir=str(tmp_path)
                )
        resumed = SAFE(config=_config())
        transformer = resumed.fit(
            _open(x_path, y_path), checkpoint_dir=str(tmp_path)
        )
        _assert_matches_reference(_psi(transformer, resumed), reference_psi)
        report = resumed.runtime_report_
        # a resumed fit never trusts a torn snapshot: whatever it could
        # not reuse it recomputed, and everything it reused is recorded
        assert report.stats_checkpoints_skipped == []
        assert report.chunks_quarantined == []

    def test_shard_crash_after_partial_progress_then_resume(
        self, clean_backing, reference_psi, tmp_path
    ):
        # nth:2 dies *mid-run*, in the second iteration's IV count pass,
        # with earlier stages already checkpointed; the resume picks up
        # their stats
        x_path, y_path = clean_backing
        crashed = SAFE(config=_config())
        with active("stream.shard.run", mode="nth", nth=2):
            with pytest.raises(InjectedFault):
                crashed.fit(
                    _open(x_path, y_path), checkpoint_dir=str(tmp_path)
                )
        resumed = SAFE(config=_config())
        transformer = resumed.fit(
            _open(x_path, y_path), checkpoint_dir=str(tmp_path)
        )
        _assert_matches_reference(_psi(transformer, resumed), reference_psi)
        assert resumed.runtime_report_.stats_stages_resumed

    def test_resume_actually_reuses_statistics(
        self, clean_backing, reference_psi, tmp_path
    ):
        x_path, y_path = clean_backing
        crashed = SAFE(config=_config())
        # die late: the first iteration's checkpoint has landed and the
        # second iteration has partial statistics on disk
        with active("pipeline.iteration", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                crashed.fit(
                    _open(x_path, y_path), checkpoint_dir=str(tmp_path)
                )
        resumed = SAFE(config=_config())
        transformer = resumed.fit(
            _open(x_path, y_path), checkpoint_dir=str(tmp_path)
        )
        report = resumed.runtime_report_
        assert report.resumed_from_iteration == 0
        _assert_matches_reference(_psi(transformer, resumed), reference_psi)

    def test_corrupt_stats_snapshot_is_skipped_and_recomputed(
        self, clean_backing, reference_psi, tmp_path
    ):
        x_path, y_path = clean_backing
        crashed = SAFE(config=_config())
        with active("selection.select", mode="nth", nth=1):
            with pytest.raises(InjectedFault):
                crashed.fit(
                    _open(x_path, y_path), checkpoint_dir=str(tmp_path)
                )
        snapshots = sorted((tmp_path / "stats").glob("*.npz"))
        assert snapshots, "the crashed fit left statistics behind"
        snapshots[0].write_bytes(b"torn")
        resumed = SAFE(config=_config())
        transformer = resumed.fit(
            _open(x_path, y_path), checkpoint_dir=str(tmp_path)
        )
        report = resumed.runtime_report_
        assert len(report.stats_checkpoints_skipped) == 1
        _assert_matches_reference(_psi(transformer, resumed), reference_psi)

    def test_v1_stats_snapshots_are_skipped_then_recomputed(
        self, clean_backing, reference_psi, tmp_path, monkeypatch
    ):
        # A checkpoint dir written before the format bump: every snapshot
        # is v1, and ``sel-edges`` has the old shape without the ranking
        # GBM's edges. Resuming must skip each on its format, never unpack
        # the old shape, recompute, and still reproduce the reference.
        x_path, y_path = clean_backing
        monkeypatch.setattr(checkpoint, "STATS_FORMAT", "repro-stats-v1")
        crashed = SAFE(config=_config())
        with active("stream.shard.run", mode="always"):
            with pytest.raises(InjectedFault):
                crashed.fit(
                    _open(x_path, y_path), checkpoint_dir=str(tmp_path)
                )
        store = checkpoint.StatsCheckpointStore(
            tmp_path / "stats",
            checkpoint.config_fingerprint(_config(), _open(x_path, y_path).names),
        )
        (iv_edges, _), n_finite, col_min, col_max = store.load("it00000/sel-edges")
        store.save("it00000/sel-edges", (iv_edges, n_finite, col_min, col_max))
        monkeypatch.undo()

        resumed = SAFE(config=_config())
        transformer = resumed.fit(
            _open(x_path, y_path), checkpoint_dir=str(tmp_path)
        )
        _assert_matches_reference(_psi(transformer, resumed), reference_psi)
        report = resumed.runtime_report_
        assert report.stats_stages_resumed == []
        assert any("sel-edges" in reason for reason in report.stats_checkpoints_skipped)
        assert all(
            "format 'repro-stats-v1', expected 'repro-stats-v2'" in reason
            for reason in report.stats_checkpoints_skipped
        )


class TestQuarantineRecovery:
    """Corrupt chunks: loud in raise mode, deterministic in quarantine."""

    @pytest.fixture(scope="class")
    def corrupt_backing(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stream-corrupt")
        return _write_backing(root, corrupt_chunk=1)

    def test_raise_mode_aborts_the_fit(self, corrupt_backing):
        x_path, y_path = corrupt_backing
        safe = SAFE(config=_config())
        with pytest.raises(ChunkIntegrityError):
            safe.fit(_open(x_path, y_path))

    def test_quarantine_kill_resume_reproduces_psi_and_records(
        self, corrupt_backing, tmp_path
    ):
        x_path, y_path = corrupt_backing

        reference = SAFE(config=_config())
        ref_transformer = reference.fit(
            _open(x_path, y_path, on_chunk_error="quarantine")
        )
        ref = _psi(ref_transformer, reference)
        ref_records = reference.runtime_report_.chunks_quarantined
        assert [r.chunk_index for r in ref_records] == [1]

        crashed = SAFE(config=_config())
        with active("stream.shard.run", mode="nth", nth=2):
            with pytest.raises(InjectedFault):
                crashed.fit(
                    _open(x_path, y_path, on_chunk_error="quarantine"),
                    checkpoint_dir=str(tmp_path),
                )
        resumed = SAFE(config=_config())
        transformer = resumed.fit(
            _open(x_path, y_path, on_chunk_error="quarantine"),
            checkpoint_dir=str(tmp_path),
        )
        _assert_matches_reference(_psi(transformer, resumed), ref)
        assert resumed.runtime_report_.chunks_quarantined == list(ref_records)
