"""Checkpoint/resume for ``SAFE.fit``: atomic, checksummed, versioned.

After every completed Algorithm 1 iteration the pipeline can persist the
survivor expressions (the same JSON rendering
:meth:`repro.core.FeatureTransformer.save` uses), a fingerprint of the
config + input schema, the iteration trace scalars and, under the
optional ``carried_paths`` key, the tree paths the next iteration's
mining GBM would grow (:meth:`repro.boosting.tree.TreePath.to_dict`,
floats ``float.hex()``-encoded, so ``+inf`` thresholds round-trip
bit-exactly). A checkpoint without the key resumes by fitting that
mining GBM, with the same Ψ. A restarted fit
with the same ``checkpoint_dir`` resumes from the newest checkpoint that

* parses as JSON,
* carries a matching payload checksum (truncated/corrupt files are
  *skipped with a warning*, never trusted),
* and matches the running fit's config fingerprint (a checkpoint from a
  different config or dataset schema must not seed this fit).

Writes are crash-safe: the record goes to a hidden temp file first
(``fsync``'d) and is atomically renamed into place, so a process killed
mid-write leaves the previous checkpoint intact. The
``checkpoint.write`` failpoint sits between the two halves of the temp
write and the ``checkpoint.read`` failpoint at the top of ``load``, so
chaos tests can cut a write short or poison reads deterministically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..exceptions import CheckpointError, InjectedFault
from ..operators.expressions import Expression, expression_from_dict
from ..utils import atomic_path
from .failpoints import failpoint

#: Format tag embedded in (and required of) every checkpoint record.
CHECKPOINT_FORMAT = "repro-checkpoint-v1"

#: Format tag for sufficient-statistic snapshots (``StatsCheckpointStore``).
#: v2: the streaming fit's ``sel-edges`` state also carries the ranking
#: GBM's edges, so a v1 snapshot is skipped, never unpacked.
STATS_FORMAT = "repro-stats-v2"

_FILE_TEMPLATE = "iter_{:05d}.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def schema_fingerprint(names: Sequence[str]) -> str:
    """Stable hash of an input schema (ordered column names)."""
    return _sha256(json.dumps(list(names)))


def config_fingerprint(config, names: Sequence[str]) -> str:
    """Stable hash of a fit's config + input schema.

    ``config`` is any dataclass (in practice
    :class:`~repro.core.SAFEConfig`); non-JSON field values are rendered
    via ``str`` so custom operator tuples etc. still fingerprint stably.
    An ``n_jobs`` field is hashed as 1: it does not change the fit, so a
    rerun that changes only ``n_jobs`` resumes from the same checkpoints
    (and every ``n_jobs=1`` fingerprint is what it always was).
    """
    payload = _config_payload(config)
    if "n_jobs" in payload:
        payload["n_jobs"] = 1
    return _fingerprint(payload, names)


def legacy_config_fingerprint(config, names: Sequence[str]) -> str:
    """The fingerprint of ``config`` as given, ``n_jobs`` included: what
    checkpoints written before :func:`config_fingerprint` dropped
    ``n_jobs`` carry. Resume accepts it too, so such a checkpoint still
    resumes a fit with the same ``n_jobs``."""
    return _fingerprint(_config_payload(config), names)


def _config_payload(config) -> dict:
    if dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return dict(config)


def _fingerprint(payload: dict, names: Sequence[str]) -> str:
    body = {"config": payload, "schema": list(names)}
    return _sha256(json.dumps(body, sort_keys=True, default=str))


@dataclass(frozen=True)
class CheckpointState:
    """One validated checkpoint: where the fit can resume from."""

    iteration: int
    expressions: tuple[Expression, ...]
    config_hash: str
    traces: tuple[dict, ...]
    path: str
    #: Paths (``TreePath``) the next iteration's mining GBM would grow;
    #: ``None`` when the checkpoint holds none.
    carried_paths: "list | None" = None


class CheckpointManager:
    """Owns one checkpoint directory: save, validate, pick latest."""

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, iteration: int) -> Path:
        return self.directory.joinpath(_FILE_TEMPLATE.format(iteration))

    def checkpoint_paths(self) -> "list[Path]":
        """Checkpoint files, newest iteration first."""
        return sorted(self.directory.glob("iter_*.json"), reverse=True)

    # ------------------------------------------------------------------
    def save(
        self,
        iteration: int,
        expressions: Sequence[Expression],
        config_hash: str,
        traces: Sequence[dict] = (),
        carried_paths: "Sequence | None" = None,
    ) -> Path:
        """Atomically persist the state after ``iteration`` (0-based).

        ``carried_paths`` (``TreePath`` objects) goes under an optional
        payload key, covered by the checksum like the rest.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "iteration": int(iteration),
            "config_hash": config_hash,
            "expressions": [e.to_dict() for e in expressions],
            "traces": [dict(t) for t in traces],
        }
        if carried_paths is not None:
            payload["carried_paths"] = [p.to_dict() for p in carried_paths]
        record = {
            "checksum": _sha256(json.dumps(payload, sort_keys=True)),
            "payload": payload,
        }
        text = json.dumps(record, indent=2)
        path = self.path_for(iteration)
        tmp = path.with_name(f".{path.name}.tmp")
        half = len(text) // 2
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text[:half])
                # A fault here models a crash mid-write: only the hidden
                # .tmp is partial; the previous checkpoint survives.
                failpoint("checkpoint.write")
                fh.write(text[half:])
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path

    # ------------------------------------------------------------------
    def load(
        self,
        path: "str | Path",
        expected_config_hash: "str | None" = None,
        also_accept: Sequence[str] = (),
    ) -> CheckpointState:
        """Parse + validate one checkpoint file; raise CheckpointError.

        With ``expected_config_hash`` set, the checkpoint's fingerprint
        must equal it or one of ``also_accept`` (legacy fingerprints of
        the same config, see :func:`legacy_config_fingerprint`).
        """
        failpoint("checkpoint.read")
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {path} is not valid JSON (truncated write?): {exc}"
            ) from exc
        if not isinstance(record, dict) or "payload" not in record:
            raise CheckpointError(f"checkpoint {path} has no payload")
        payload = record["payload"]
        body = json.dumps(payload, sort_keys=True)
        if record.get("checksum") != _sha256(body):
            raise CheckpointError(
                f"checkpoint {path} failed its checksum (corrupt or tampered)"
            )
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {path} has format {payload.get('format')!r}, "
                f"expected {CHECKPOINT_FORMAT!r}"
            )
        config_hash = payload.get("config_hash", "")
        if expected_config_hash is not None and config_hash not in (
            expected_config_hash,
            *also_accept,
        ):
            raise CheckpointError(
                f"checkpoint {path} was written by a different config/schema "
                "(fingerprint mismatch)"
            )
        try:
            expressions = tuple(
                expression_from_dict(e) for e in payload["expressions"]
            )
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {path} holds undecodable expressions: {exc!r}"
            ) from exc
        if not expressions:
            raise CheckpointError(f"checkpoint {path} holds no expressions")
        carried_paths = None
        if payload.get("carried_paths") is not None:
            # Imported here: repro.boosting imports this module.
            from ..boosting.tree import TreePath

            try:
                carried_paths = [
                    TreePath.from_dict(p) for p in payload["carried_paths"]
                ]
            except Exception as exc:
                raise CheckpointError(
                    f"checkpoint {path} holds undecodable carried paths: {exc!r}"
                ) from exc
        return CheckpointState(
            iteration=int(payload["iteration"]),
            expressions=expressions,
            config_hash=config_hash,
            traces=tuple(payload.get("traces", ())),
            path=str(path),
            carried_paths=carried_paths,
        )

    def latest(
        self,
        expected_config_hash: "str | None" = None,
        also_accept: Sequence[str] = (),
    ) -> "tuple[CheckpointState | None, list[str]]":
        """Newest valid checkpoint plus the skip reasons for invalid ones.

        Corrupt / partial / mismatched files are *skipped* (reason
        recorded), falling back to the next-newest candidate — a bad
        final checkpoint must cost one iteration, not the whole run.
        """
        skipped: "list[str]" = []
        for path in self.checkpoint_paths():
            try:
                return self.load(path, expected_config_hash, also_accept), skipped
            except (CheckpointError, InjectedFault) as exc:
                skipped.append(str(exc))
        return None, skipped


# ======================================================================
# Sufficient-statistic snapshots (mid-iteration recovery)
# ======================================================================

#: Sentinel distinguishing "no valid snapshot" from a stored ``None``.
MISSING = object()


def _encode_state(state) -> "tuple[dict, dict[str, np.ndarray]]":
    """Flatten a nested kernel state into a JSON spec + named arrays.

    Supported values: ``None``, ``bool``/``int``/``str``, ``float``
    (hex-encoded so the round-trip is bit-exact, NaN/inf included),
    ``np.ndarray`` (any non-object dtype), and ``list``/``tuple``/``dict``
    (string keys) of the above — which covers every ``@chunk_mergeable``
    accumulator state in the codebase without ever pickling.
    """
    arrays: "dict[str, np.ndarray]" = {}

    def encode(value):
        if value is None:
            return {"t": "none"}
        if isinstance(value, (bool, np.bool_)):
            return {"t": "bool", "v": bool(value)}
        if isinstance(value, (int, np.integer)):
            return {"t": "int", "v": int(value)}
        if isinstance(value, (float, np.floating)):
            return {"t": "float", "v": float(value).hex()}
        if isinstance(value, str):
            return {"t": "str", "v": value}
        if isinstance(value, np.ndarray):
            if value.dtype == object:
                raise CheckpointError("cannot snapshot object-dtype arrays")
            key = f"a{len(arrays)}"
            arrays[key] = np.ascontiguousarray(value)
            return {"t": "arr", "k": key}
        if isinstance(value, (list, tuple)):
            return {
                "t": "list" if isinstance(value, list) else "tuple",
                "items": [encode(v) for v in value],
            }
        if isinstance(value, dict):
            keys = list(value)
            if not all(isinstance(k, str) for k in keys):
                raise CheckpointError("snapshot dict keys must be strings")
            return {
                "t": "dict",
                "keys": keys,
                "items": [encode(value[k]) for k in keys],
            }
        raise CheckpointError(
            f"cannot snapshot value of type {type(value).__name__}"
        )

    return encode(state), arrays


def _decode_state(spec: dict, arrays: "dict[str, np.ndarray]"):
    """Inverse of :func:`_encode_state` (bit-exact for every leaf)."""
    kind = spec["t"]
    if kind == "none":
        return None
    if kind == "bool":
        return bool(spec["v"])
    if kind == "int":
        return int(spec["v"])
    if kind == "float":
        return float.fromhex(spec["v"])
    if kind == "str":
        return str(spec["v"])
    if kind == "arr":
        return np.asarray(arrays[spec["k"]])
    if kind == "list":
        return [_decode_state(s, arrays) for s in spec["items"]]
    if kind == "tuple":
        return tuple(_decode_state(s, arrays) for s in spec["items"])
    if kind == "dict":
        return {
            k: _decode_state(s, arrays)
            for k, s in zip(spec["keys"], spec["items"])
        }
    raise CheckpointError(f"unknown snapshot spec kind {kind!r}")


def _stats_checksum(meta_text: str, arrays: "dict[str, np.ndarray]") -> str:
    h = hashlib.sha256()
    h.update(meta_text.encode("utf-8"))
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        h.update(key.encode("utf-8"))
        h.update(str(arr.dtype).encode("utf-8"))
        h.update(repr(arr.shape).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _stage_slug(stage: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", stage).strip("-") or "stage"
    return f"{safe}-{_sha256(stage)[:10]}"


class StatsCheckpointStore:
    """Mid-iteration snapshots of merged sufficient-statistic state.

    Plan checkpoints (:class:`CheckpointManager`) are iteration-grained:
    a crash mid-iteration loses every pass the iteration has made. This
    store closes that gap — each *stage* of a streaming pass (a sketch,
    a merged count panel, one grown tree) can persist its accumulator
    state under a stable stage key and be restored on resume, so the fit
    continues from the last completed stage instead of restarting the
    iteration.

    The same guarantees as plan checkpoints, in ``.npz`` instead of
    JSON: a format tag, the fit's config+schema fingerprint (a snapshot
    from a different config or dataset never seeds this fit), a SHA-256
    checksum over the spec and every array payload, and atomic
    temp-file + ``os.replace`` publication. Invalid snapshots are
    *skipped with a recorded reason*, never trusted — the stage just
    recomputes. State round-trips bit-exactly (floats are hex-encoded;
    arrays keep dtype and shape), which is what lets a resumed fit
    reproduce the uninterrupted Ψ bit-identically.

    Stage keys are scoped per iteration (``it00000/...``) and the whole
    store is :meth:`clear`-ed once the iteration's plan checkpoint
    lands, so stale statistics can never leak across iterations.
    """

    def __init__(
        self,
        directory: "str | Path",
        config_hash: str,
        also_accept: Sequence[str] = (),
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config_hash = config_hash
        # Fingerprints load() also accepts (writes always use config_hash).
        self.also_accept = tuple(also_accept)
        self.written = 0
        self.resumed: "list[str]" = []
        self.skipped: "list[str]" = []

    def path_for(self, stage: str) -> Path:
        return self.directory.joinpath(f"stats_{_stage_slug(stage)}.npz")

    # ------------------------------------------------------------------
    def save(self, stage: str, state) -> Path:
        """Atomically persist one stage's merged state."""
        spec, arrays = _encode_state(state)
        meta = {
            "format": STATS_FORMAT,
            "stage": stage,
            "config_hash": self.config_hash,
            "spec": spec,
        }
        meta_text = json.dumps(meta, sort_keys=True)
        checksum = _stats_checksum(meta_text, arrays)
        path = self.path_for(stage)
        with atomic_path(path, suffix=".npz") as tmp:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    __meta__=np.frombuffer(
                        meta_text.encode("utf-8"), dtype=np.uint8
                    ),
                    __checksum__=np.frombuffer(
                        checksum.encode("ascii"), dtype=np.uint8
                    ),
                    **arrays,
                )
                fh.flush()
                os.fsync(fh.fileno())
            # A fault here models a crash mid-checkpoint: the snapshot
            # was fully written to the hidden temp file but never
            # renamed into place, so readers see no torn state.
            failpoint("stream.stats.checkpoint")
        self.written += 1
        return path

    # ------------------------------------------------------------------
    def load(self, stage: str):
        """Validated state for ``stage``, or :data:`MISSING`.

        Every failure mode — absent file, unreadable zip, checksum or
        fingerprint mismatch, undecodable spec — returns :data:`MISSING`
        with the reason recorded on ``self.skipped`` (absence excepted):
        a bad snapshot costs one recompute, never a wrong resume.
        """
        path = self.path_for(stage)
        if not path.exists():
            return MISSING
        try:
            with np.load(path, allow_pickle=False) as payload:
                arrays = {k: payload[k] for k in payload.files}
        except Exception as exc:
            self.skipped.append(f"stats snapshot {path.name}: unreadable ({exc!r})")
            return MISSING
        try:
            meta_text = bytes(arrays.pop("__meta__")).decode("utf-8")
            checksum = bytes(arrays.pop("__checksum__")).decode("ascii")
            meta = json.loads(meta_text)
        except Exception as exc:
            self.skipped.append(f"stats snapshot {path.name}: bad metadata ({exc!r})")
            return MISSING
        if checksum != _stats_checksum(meta_text, arrays):
            self.skipped.append(
                f"stats snapshot {path.name}: failed its checksum (corrupt or tampered)"
            )
            return MISSING
        if meta.get("format") != STATS_FORMAT:
            self.skipped.append(
                f"stats snapshot {path.name}: format {meta.get('format')!r}, "
                f"expected {STATS_FORMAT!r}"
            )
            return MISSING
        if meta.get("config_hash") not in (self.config_hash, *self.also_accept):
            self.skipped.append(
                f"stats snapshot {path.name}: config/schema fingerprint mismatch"
            )
            return MISSING
        if meta.get("stage") != stage:
            self.skipped.append(
                f"stats snapshot {path.name}: stage {meta.get('stage')!r} "
                f"does not match {stage!r}"
            )
            return MISSING
        try:
            state = _decode_state(meta["spec"], arrays)
        except Exception as exc:
            self.skipped.append(f"stats snapshot {path.name}: undecodable ({exc!r})")
            return MISSING
        self.resumed.append(stage)
        return state

    def run(self, stage: str, compute: Callable[[], object]):
        """Load ``stage`` if a valid snapshot exists, else compute + save."""
        state = self.load(stage)
        if state is not MISSING:
            return state
        state = compute()
        self.save(stage, state)
        return state

    def note_skip(self, reason: str) -> None:
        """Record an out-of-band validation failure (e.g. a scratch file
        whose digest no longer matches its snapshot) on ``skipped``."""
        self.skipped.append(reason)

    # ------------------------------------------------------------------
    def scratch_dir(self, tag: str) -> str:
        """A persistent scratch directory keyed by ``tag`` (for memmaps
        that outlive a crash, e.g. the streaming GBM's code matrix)."""
        path = self.directory.joinpath(f"scratch-{_stage_slug(tag)}")
        path.mkdir(parents=True, exist_ok=True)
        return str(path)

    def scoped(self, prefix: str) -> "ScopedStats":
        return ScopedStats(self, prefix)

    def clear(self) -> None:
        """Drop every snapshot and scratch directory (iteration is durable
        in the plan checkpoint; mid-iteration state must not leak)."""
        for child in self.directory.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                child.unlink(missing_ok=True)


class ScopedStats:
    """A stage-key-prefixed view of a :class:`StatsCheckpointStore`.

    Lets a nested pass (the mining GBM, the ranking GBM) use short
    local stage names while the store keys stay globally unique per
    iteration. Shares the parent's counters.
    """

    def __init__(self, store: StatsCheckpointStore, prefix: str) -> None:
        self._store = store
        self._prefix = prefix

    def _key(self, stage: str) -> str:
        return f"{self._prefix}/{stage}"

    def save(self, stage: str, state):
        return self._store.save(self._key(stage), state)

    def load(self, stage: str):
        return self._store.load(self._key(stage))

    def run(self, stage: str, compute: Callable[[], object]):
        return self._store.run(self._key(stage), compute)

    def note_skip(self, reason: str) -> None:
        self._store.note_skip(self._key(reason))

    def scratch_dir(self, tag: str) -> str:
        return self._store.scratch_dir(self._key(tag))

    def scoped(self, prefix: str) -> "ScopedStats":
        return ScopedStats(self._store, self._key(prefix))
