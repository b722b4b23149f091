"""The checksummed JSON record shared by plan checkpoints and chunk manifests.

* Both files are ``json.dumps({"checksum": sha256(sorted-key payload
  JSON), "payload": payload}, indent=2)``, rebuilt here independently of
  :mod:`repro.utils`.
* Every way a record can fail to read raises that record kind's error
  class with the same text for both kinds.
* A record whose checksum holds but whose content is malformed gets the
  named error (or is skipped), never a raw ``AttributeError``,
  ``KeyError``, ``ValueError`` or ``TypeError``.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from repro.core import SAFE, SAFEConfig
from repro.exceptions import CheckpointError, ChunkIntegrityError
from repro.operators.expressions import Applied, Var
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT,
    MISSING,
    STATS_FORMAT,
    CheckpointManager,
    StatsCheckpointStore,
    config_fingerprint,
)
from repro.tabular import Dataset
from repro.tabular.io import (
    MANIFEST_FORMAT,
    ChunkedDataset,
    load_manifest,
    save_npy,
    write_manifest,
)

EXPRS = [Var(0), Applied("mul", (Var(0), Var(1)), None)]


def _envelope(payload) -> str:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    record = {"checksum": hashlib.sha256(body).hexdigest(), "payload": payload}
    return json.dumps(record, indent=2)


def _checkpoint_payload(**changes) -> dict:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "iteration": 0,
        "config_hash": "cfg",
        "expressions": [e.to_dict() for e in EXPRS],
        "traces": [{"iteration": 0, "n_paths": 3}],
    }
    payload.update(changes)
    return payload


def _manifest_payload(**changes) -> dict:
    payload = {
        "format": MANIFEST_FORMAT,
        "chunk_rows": 4,
        "n_rows": 6,
        "n_cols": 2,
        "dtype": "float64",
        "labeled": False,
        "y_dtype": None,
        "names": ["a", "b"],
        "chunks": ["0" * 40, "1" * 40],
    }
    payload.update(changes)
    return payload


class TestEnvelope:
    def test_checkpoint_file_is_the_envelope(self, tmp_path):
        traces = [{"iteration": 0, "n_paths": 3, "elapsed_seconds": 0.25}]
        path = CheckpointManager(tmp_path).save(0, EXPRS, "cfg", traces=traces)
        payload = {
            "format": CHECKPOINT_FORMAT,
            "iteration": 0,
            "config_hash": "cfg",
            "expressions": [e.to_dict() for e in EXPRS],
            "traces": traces,
        }
        assert path.read_text(encoding="utf-8") == _envelope(payload)

    def test_manifest_file_is_the_envelope(self, tmp_path):
        X = np.arange(12, dtype=np.float64).reshape(6, 2)
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        data = ChunkedDataset(("a", "b"), 4, X=X, y=y)
        path = write_manifest(data, tmp_path / "m.json")
        digests = []
        for lo in (0, 4):
            h = hashlib.blake2b(digest_size=20)
            h.update(X[lo : lo + 4].tobytes())
            h.update(b"|y|")
            h.update(y[lo : lo + 4].tobytes())
            digests.append(h.hexdigest())
        payload = _manifest_payload(labeled=True, y_dtype="float64", chunks=digests)
        assert path.read_text(encoding="utf-8") == _envelope(payload)


KINDS = {
    "checkpoint": (
        CheckpointError,
        CHECKPOINT_FORMAT,
        _checkpoint_payload,
        lambda path: CheckpointManager(path.parent).load(path),
    ),
    "manifest": (ChunkIntegrityError, MANIFEST_FORMAT, _manifest_payload, load_manifest),
}


def _write_case(path, kind: str, case: str) -> str:
    """Write the ``case`` fault at ``path``; return the expected text."""
    _error, fmt, payload_of, _load = KINDS[kind]
    good = _envelope(payload_of())
    if case == "unreadable":
        path.mkdir()
        return f"cannot read {kind} {path}: "
    if case == "truncated":
        path.write_text(good[: len(good) // 2], encoding="utf-8")
        return f"{kind} {path} is not valid JSON (truncated write?): "
    if case == "no-payload":
        path.write_text(json.dumps({"checksum": "0" * 64}), encoding="utf-8")
        return f"{kind} {path} has no payload"
    if case == "checksum":
        record = json.loads(good)
        record["payload"]["tampered"] = True
        path.write_text(json.dumps(record, indent=2), encoding="utf-8")
        return f"{kind} {path} failed its checksum (corrupt or tampered)"
    assert case == "format"
    path.write_text(_envelope(payload_of(format="other-v9")), encoding="utf-8")
    return f"{kind} {path} has format 'other-v9', expected {fmt!r}"


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize(
    "case", ["unreadable", "truncated", "no-payload", "checksum", "format"]
)
def test_each_fault_raises_the_kinds_error_with_its_text(tmp_path, kind, case):
    error, _fmt, _payload_of, load = KINDS[kind]
    path = tmp_path / "record.json"
    text = _write_case(path, kind, case)
    with pytest.raises(error, match="^" + re.escape(text)):
        load(path)


class TestMalformedButChecksummed:
    def test_list_payload_checkpoint_is_skipped_for_the_previous_one(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, EXPRS, "cfg")
        manager.path_for(1).write_text(_envelope([1, 2]), encoding="utf-8")
        state, skipped = manager.latest()
        assert state.iteration == 0
        assert skipped == [f"checkpoint {manager.path_for(1)} has no payload"]

    def test_list_payload_manifest_raises_the_integrity_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(_envelope(["chunks"]), encoding="utf-8")
        with pytest.raises(ChunkIntegrityError, match="has no payload"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "changes",
        [{"iteration": "zero"}, {"traces": 5}, {"traces": [5]}]
        + [
            {"traces": [{"iteration": 0, "n_paths": value}]}
            for value in ("many", None, [3], {"n": 3}, float("nan"), float("inf"))
        ],
        ids=[
            "iteration-zero",
            "traces-5",
            "trace-5",
            "trace-value-str",
            "trace-value-null",
            "trace-value-list",
            "trace-value-object",
            "trace-value-nan",
            "trace-value-inf",
        ],
    )
    def test_undecodable_iteration_or_traces_raise_checkpoint_error(
        self, tmp_path, changes
    ):
        manager = CheckpointManager(tmp_path)
        manager.path_for(0).write_text(
            _envelope(_checkpoint_payload(**changes)), encoding="utf-8"
        )
        with pytest.raises(CheckpointError, match="undecodable"):
            manager.load(manager.path_for(0))
        state, skipped = manager.latest()
        assert state is None and len(skipped) == 1

    def test_fit_skips_a_checkpoint_with_a_non_numeric_trace(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] * X[:, 1] > 0).astype(np.float64)
        data = Dataset(X=X, y=y, names=("a", "b", "c"))
        cfg = SAFEConfig(n_iterations=2)
        reference = SAFE(cfg).fit(data)
        manager = CheckpointManager(tmp_path)
        manager.save(
            0,
            [Var(0), Var(1)],
            config_fingerprint(cfg, data.names),
            traces=[{"iteration": 0, "n_paths": "many"}],
        )
        safe = SAFE(cfg)
        psi = safe.fit(data, checkpoint_dir=tmp_path)
        assert psi.feature_keys == reference.feature_keys
        assert safe.runtime_report_.resumed_from_iteration is None
        assert safe.runtime_report_.checkpoints_skipped == [
            f"checkpoint {manager.path_for(0)} holds undecodable expressions, "
            "iteration or traces: ValueError(\"trace n_paths='many' is not a number\")"
        ]

    def test_checkpoint_without_iteration_raises_checkpoint_error(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        payload = _checkpoint_payload()
        del payload["iteration"]
        manager.path_for(0).write_text(_envelope(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match="iteration"):
            manager.load(manager.path_for(0))

    @pytest.mark.parametrize("key", ["chunk_rows", "n_rows", "dtype", "chunks"])
    def test_manifest_missing_a_key_names_it(self, tmp_path, key):
        payload = _manifest_payload()
        del payload[key]
        path = tmp_path / "m.json"
        path.write_text(_envelope(payload), encoding="utf-8")
        with pytest.raises(ChunkIntegrityError, match=f"lacks {key}$"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("chunks", 5),
            ("chunks", ["0" * 40]),
            ("chunks", ["0" * 40, 1]),
            ("n_rows", None),
            ("n_rows", -1),
            ("n_cols", True),
            ("chunk_rows", 0),
            ("chunk_rows", 4.0),
            ("dtype", 8),
            ("labeled", "yes"),
            ("names", 5),
            ("names", "ab"),
            ("names", [1, 2]),
            ("names", ["a"]),
        ],
        ids=[
            "chunks-int",
            "chunks-one-short",
            "chunks-non-str",
            "n_rows-null",
            "n_rows-negative",
            "n_cols-bool",
            "chunk_rows-zero",
            "chunk_rows-float",
            "dtype-int",
            "labeled-str",
            "names-int",
            "names-str",
            "names-non-str",
            "names-one-short",
        ],
    )
    def test_manifest_key_of_the_wrong_shape_names_it(self, tmp_path, key, value):
        path = tmp_path / "m.json"
        path.write_text(_envelope(_manifest_payload(**{key: value})), encoding="utf-8")
        text = f"manifest {path}: {key} must be"
        with pytest.raises(ChunkIntegrityError, match="^" + re.escape(text)):
            load_manifest(path)

    @pytest.mark.parametrize(
        "key, value_of",
        [
            ("chunks", lambda chunks: 5),
            ("chunks", lambda chunks: chunks[:-1]),
            ("n_rows", lambda chunks: None),
            ("chunk_rows", lambda chunks: 0),
            ("labeled", lambda chunks: "yes"),
        ],
        ids=[
            "chunks-int",
            "chunks-one-short",
            "n_rows-null",
            "chunk_rows-zero",
            "labeled-str",
        ],
    )
    def test_dataset_with_a_malformed_manifest_raises_the_integrity_error(
        self, tmp_path, key, value_of
    ):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(np.float64)
        data = Dataset(X=X, y=y, names=("a", "b", "c"))
        x_path, y_path = tmp_path / "X.npy", tmp_path / "y.npy"
        save_npy(data, x_path, y_path)
        view = ChunkedDataset.from_npy(x_path, y_path, chunk_rows=50, manifest=False)
        sidecar = write_manifest(view)
        payload = json.loads(sidecar.read_text(encoding="utf-8"))["payload"]
        payload[key] = value_of(payload["chunks"])
        sidecar.write_text(_envelope(payload), encoding="utf-8")
        with pytest.raises(ChunkIntegrityError, match=f"{key} must be"):
            ChunkedDataset.from_npy(
                x_path, y_path, names=data.names, chunk_rows=50, manifest=True
            ).verify_integrity()

    @pytest.mark.parametrize(
        "names", [5, "abc", [1, 2, 3]], ids=["int", "str", "non-str"]
    )
    def test_from_npy_refuses_manifest_names_of_the_wrong_shape(self, tmp_path, names):
        X = np.zeros((200, 3))
        y = np.arange(200) % 2.0
        x_path, y_path = tmp_path / "X.npy", tmp_path / "y.npy"
        save_npy(Dataset(X=X, y=y, names=("a", "b", "c")), x_path, y_path)
        view = ChunkedDataset.from_npy(x_path, y_path, chunk_rows=50, manifest=False)
        sidecar = write_manifest(view)
        payload = json.loads(sidecar.read_text(encoding="utf-8"))["payload"]
        payload["names"] = names
        sidecar.write_text(_envelope(payload), encoding="utf-8")
        with pytest.raises(ChunkIntegrityError, match="names must be"):
            ChunkedDataset.from_npy(x_path, y_path, chunk_rows=50, manifest=True)

    def test_stats_snapshot_with_non_object_metadata_is_skipped(self, tmp_path):
        from repro.runtime.checkpoint import _stats_checksum

        store = StatsCheckpointStore(tmp_path, "cfg")
        meta_text = json.dumps([STATS_FORMAT, "stage", "cfg"])
        np.savez(
            store.path_for("stage"),
            __meta__=np.frombuffer(meta_text.encode("utf-8"), dtype=np.uint8),
            __checksum__=np.frombuffer(
                _stats_checksum(meta_text, {}).encode("ascii"), dtype=np.uint8
            ),
        )
        assert store.load("stage") is MISSING
        assert store.skipped == [
            f"stats snapshot {store.path_for('stage').name}: "
            "bad metadata (not a JSON object)"
        ]
