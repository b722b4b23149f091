"""Tests for repro.tabular.io CSV round-tripping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.tabular import Dataset, load_csv, save_csv


class TestRoundTrip:
    def test_labeled_roundtrip(self, tmp_path):
        X = np.random.default_rng(0).normal(size=(20, 3))
        ds = Dataset(X=X, names=("a", "b", "c"), y=(X[:, 0] > 0).astype(float))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.names == ("a", "b", "c")
        assert np.allclose(back.X, ds.X)
        assert np.allclose(back.y, ds.y)

    def test_unlabeled_roundtrip(self, tmp_path):
        ds = Dataset.from_arrays(np.eye(3))
        path = tmp_path / "plain.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.y is None
        assert np.allclose(back.X, np.eye(3))

    def test_nan_roundtrip(self, tmp_path):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        ds = Dataset.from_arrays(X)
        path = tmp_path / "nan.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.isnan(back.X[0, 1])

    def test_label_column_opt_out(self, tmp_path):
        ds = Dataset.from_arrays(np.ones((2, 1)), y=[0, 1])
        path = tmp_path / "both.csv"
        save_csv(ds, path)
        back = load_csv(path, label_column=None)
        assert back.y is None
        assert back.n_cols == 2  # label column read as a plain feature


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,hello\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(DataError):
            load_csv(path)


def _manifest_workload(tmp_path, n=500, cols=4, chunk_rows=100):
    from repro.tabular.io import ChunkedDataset, save_npy, write_manifest

    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, cols))
    y = (X[:, 0] > 0).astype(float)
    ds = Dataset(X=X, y=y, names=tuple(f"f{i}" for i in range(cols)))
    x_path = tmp_path / "X.npy"
    y_path = tmp_path / "y.npy"
    save_npy(ds, x_path, y_path)
    plain = ChunkedDataset.from_npy(
        x_path, y_path=y_path, chunk_rows=chunk_rows, manifest=False
    )
    write_manifest(plain, chunk_rows=chunk_rows)
    return X, y, x_path, y_path


def _corrupt_rows(x_path, lo, hi):
    arr = np.load(x_path, mmap_mode="r+")
    arr[lo:hi] += 1.0
    arr.flush()


class TestChunkManifests:
    def test_sidecar_manifest_written_and_loadable(self, tmp_path):
        from repro.tabular.io import (
            MANIFEST_FORMAT,
            load_manifest,
            manifest_path_for,
        )

        _, _, x_path, _ = _manifest_workload(tmp_path)
        payload = load_manifest(manifest_path_for(x_path))
        assert payload["format"] == MANIFEST_FORMAT
        assert payload["n_rows"] == 500
        assert len(payload["chunks"]) == 5

    def test_clean_data_verifies_and_iterates_identically(self, tmp_path):
        from repro.tabular.io import ChunkedDataset

        X, y, x_path, y_path = _manifest_workload(tmp_path)
        data = ChunkedDataset.from_npy(
            x_path, y_path=y_path, chunk_rows=100, manifest=True
        )
        assert data.verify_integrity() == ()
        got = data.materialize()
        assert np.array_equal(got.X, X) and np.array_equal(got.y, y)

    def test_corrupt_chunk_raises_typed_error_with_row_range(self, tmp_path):
        from repro.exceptions import ChunkIntegrityError
        from repro.tabular.io import ChunkedDataset

        _, _, x_path, y_path = _manifest_workload(tmp_path)
        _corrupt_rows(x_path, 200, 300)
        data = ChunkedDataset.from_npy(
            x_path, y_path=y_path, chunk_rows=100, manifest=True
        )
        with pytest.raises(ChunkIntegrityError) as excinfo:
            for _ in data.iter_chunks():
                pass
        assert "[200, 300)" in str(excinfo.value)

    def test_corrupt_chunk_never_silently_consumed(self, tmp_path):
        from repro.exceptions import ChunkIntegrityError
        from repro.tabular.io import ChunkedDataset

        X, _, x_path, y_path = _manifest_workload(tmp_path)
        _corrupt_rows(x_path, 0, 100)
        data = ChunkedDataset.from_npy(
            x_path, y_path=y_path, chunk_rows=100, manifest=True
        )
        rows_seen = []
        with pytest.raises(ChunkIntegrityError):
            for rows, _, _ in data.iter_chunks():
                rows_seen.append((rows.start, rows.stop))
        assert rows_seen == []  # the bad chunk's rows were never yielded

    def test_quarantine_excludes_bad_chunk_deterministically(self, tmp_path):
        from repro.tabular.io import ChunkedDataset

        X, y, x_path, y_path = _manifest_workload(tmp_path)
        _corrupt_rows(x_path, 200, 300)
        data = ChunkedDataset.from_npy(
            x_path,
            y_path=y_path,
            chunk_rows=100,
            manifest=True,
            on_chunk_error="quarantine",
        )
        assert data.n_rows == 400
        records = data.quarantined_chunks()
        assert [r.chunk_index for r in records] == [2]
        assert (records[0].row_start, records[0].row_stop) == (200, 300)
        survivors = np.delete(X, slice(200, 300), axis=0)
        got = data.materialize()
        assert np.array_equal(got.X, survivors)
        # effective row numbering is contiguous across the hole
        starts = [rows.start for rows, _, _ in data.iter_chunks()]
        stops = [rows.stop for rows, _, _ in data.iter_chunks()]
        assert starts == [0, 100, 200, 300]
        assert stops == [100, 200, 300, 400]

    def test_corrupt_manifest_is_detected(self, tmp_path):
        from repro.exceptions import ChunkIntegrityError
        from repro.tabular.io import ChunkedDataset, manifest_path_for

        _, _, x_path, y_path = _manifest_workload(tmp_path)
        sidecar = manifest_path_for(x_path)
        text = sidecar.read_text().replace('"n_rows": 500', '"n_rows": 400')
        sidecar.write_text(text)
        with pytest.raises(ChunkIntegrityError):
            data = ChunkedDataset.from_npy(
                x_path, y_path=y_path, chunk_rows=100, manifest=True
            )
            for _ in data.iter_chunks():
                pass

    def test_truncated_backing_file_is_detected(self, tmp_path):
        from repro.exceptions import ChunkIntegrityError
        from repro.tabular.io import ChunkedDataset, save_npy

        X, y, x_path, y_path = _manifest_workload(tmp_path)
        # rewrite both backing files shorter, keeping the stale manifest
        np.save(tmp_path / "X2.npy", np.asarray(X[:400]))
        np.save(tmp_path / "y2.npy", np.asarray(y[:400]))
        (tmp_path / "X2.npy").replace(x_path)
        (tmp_path / "y2.npy").replace(y_path)
        with pytest.raises(ChunkIntegrityError):
            data = ChunkedDataset.from_npy(
                x_path, y_path=y_path, chunk_rows=100, manifest=True
            )
            for _ in data.iter_chunks():
                pass

    def test_manifest_true_requires_sidecar(self, tmp_path):
        from repro.exceptions import ChunkIntegrityError
        from repro.tabular.io import ChunkedDataset, manifest_path_for

        _, _, x_path, y_path = _manifest_workload(tmp_path)
        manifest_path_for(x_path).unlink()
        with pytest.raises(ChunkIntegrityError):
            ChunkedDataset.from_npy(
                x_path, y_path=y_path, chunk_rows=100, manifest=True
            )

    def test_manifest_auto_discovery_defaults_on_when_present(self, tmp_path):
        from repro.exceptions import ChunkIntegrityError
        from repro.tabular.io import ChunkedDataset

        _, _, x_path, y_path = _manifest_workload(tmp_path)
        _corrupt_rows(x_path, 0, 100)
        data = ChunkedDataset.from_npy(x_path, y_path=y_path, chunk_rows=100)
        with pytest.raises(ChunkIntegrityError):
            for _ in data.iter_chunks():
                pass
        # and manifest=False opts out entirely
        data = ChunkedDataset.from_npy(
            x_path, y_path=y_path, chunk_rows=100, manifest=False
        )
        assert sum(len(r) for r, _, _ in data.iter_chunks()) == 500


class TestAtomicArtifacts:
    def test_interrupted_save_npy_leaves_no_partial_file(self, tmp_path, monkeypatch):
        from repro.tabular.io import save_npy

        ds = Dataset.from_arrays(np.ones((4, 2)))
        x_path = tmp_path / "X.npy"

        real_save = np.save

        def exploding_save(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", exploding_save)
        with pytest.raises(OSError):
            save_npy(ds, x_path)
        monkeypatch.setattr(np, "save", real_save)
        assert not x_path.exists()
        assert list(tmp_path.iterdir()) == []  # no temp litter either

    def test_interrupted_save_csv_preserves_previous_contents(self, tmp_path, monkeypatch):
        import csv as csv_module

        path = tmp_path / "out.csv"
        save_csv(Dataset.from_arrays(np.ones((1, 1))), path)
        before = path.read_text()

        class ExplodingWriter:
            def __init__(self, *a, **k):
                raise OSError("disk full")

        monkeypatch.setattr(csv_module, "writer", ExplodingWriter)
        with pytest.raises(OSError):
            save_csv(Dataset.from_arrays(np.zeros((2, 2))), path)
        assert path.read_text() == before
