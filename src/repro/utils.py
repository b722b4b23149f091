"""Shared small utilities: RNG handling, validation, durable writes, timing.

These helpers keep the rest of the codebase free of repeated boilerplate for
random-state normalization and array validation, mirroring the conventions
of mainstream ML libraries so the public API feels familiar.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .exceptions import DataError

#: Union of things accepted wherever a random state is expected.
RandomStateLike = "int | np.random.Generator | None"


def check_random_state(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh nondeterministic generator), an ``int`` seed, or
    an existing generator (returned as-is, so state is shared with the
    caller).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise DataError(f"cannot interpret {seed!r} as a random state")


def as_float_matrix(
    X: "np.ndarray | list", name: str = "X", contiguous: bool = True
) -> np.ndarray:
    """Validate and convert ``X`` to a 2-D float64 matrix.

    ``contiguous=True`` (the default) additionally forces C order, which
    copies Fortran-ordered input; pass ``False`` when the caller is
    layout-agnostic (e.g. in-place sanitation of a freshly allocated
    column-major block) to keep the input's layout and avoid that copy.
    """
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] == 0:
        raise DataError(f"{name} has zero rows")
    if arr.shape[1] == 0:
        raise DataError(f"{name} has zero columns")
    return np.ascontiguousarray(arr) if contiguous else arr


def as_label_vector(y: "np.ndarray | list", n_rows: "int | None" = None) -> np.ndarray:
    """Validate and convert ``y`` to a 1-D float64 vector of 0/1 labels."""
    arr = np.asarray(y, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DataError("y is empty")
    if n_rows is not None and arr.size != n_rows:
        raise DataError(f"y has {arr.size} rows but X has {n_rows}")
    uniq = np.unique(arr)
    if not np.isin(uniq, (0.0, 1.0)).all():
        raise DataError(f"labels must be binary 0/1, got values {uniq[:10]}")
    return arr


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid.

    ``e = exp(-|z|)`` never overflows: ``1 / (1 + e)`` for ``z >= 0`` and
    ``e / (1 + e)`` below, one ``exp`` over the whole input.
    """
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=axis, keepdims=True)


@contextmanager
def atomic_path(path: "str | Path", suffix: str = "") -> "Iterator[Path]":
    """Yield a hidden temp path beside ``path``; rename into place on success.

    The durable-artifact write pattern: the caller writes the *complete*
    artifact to the yielded temp path, and only an exception-free exit
    publishes it via ``os.replace`` — an atomic rename within the target
    directory, so readers observe either the previous artifact or the
    new one, never a torn mix. On failure the temp file is removed and
    the previous artifact (if any) is untouched.

    ``suffix`` extends the temp name for writers that are picky about
    extensions (``np.save`` appends ``.npy`` to names without it).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


@contextmanager
def atomic_write(
    path: "str | Path",
    mode: str = "w",
    newline: "str | None" = None,
    encoding: "str | None" = None,
) -> "Iterator[IO]":
    """Open a file handle whose contents only become ``path`` on success.

    Text/bytes counterpart of :func:`atomic_path`: the handle writes to
    a hidden temp file which is flushed, ``fsync``'d, and atomically
    renamed over ``path`` when the block exits cleanly. A crash (or an
    exception) mid-write leaves the previous file intact.
    """
    if "r" in mode or "+" in mode or "a" in mode:
        raise DataError(f"atomic_write needs a fresh write mode, got {mode!r}")
    with atomic_path(path) as tmp:
        with open(tmp, mode, newline=newline, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())


def _checksum(payload: dict) -> str:
    """SHA-256 of ``payload``'s sorted-key JSON: a record's checksum."""
    body = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def record_text(payload: dict) -> str:
    """``payload`` as a checksummed JSON record (checkpoints, manifests);
    publish it with :func:`atomic_write`, read it with :func:`read_record`."""
    return json.dumps({"checksum": _checksum(payload), "payload": payload}, indent=2)


def read_record(path: "str | Path", noun: str, fmt: str, error: type) -> dict:
    """The payload of the :func:`record_text` record at ``path``.

    Raises ``error``, naming the file as ``noun``, when the file cannot
    be read, is not JSON, holds no object payload, fails its checksum or
    carries another ``format`` tag than ``fmt``.
    """
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeError) as exc:
        raise error(f"cannot read {noun} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(
            f"{noun} {path} is not valid JSON (truncated write?): {exc}"
        ) from exc
    payload = record.get("payload") if isinstance(record, dict) else None
    if not isinstance(payload, dict):
        raise error(f"{noun} {path} has no payload")
    if record.get("checksum") != _checksum(payload):
        raise error(f"{noun} {path} failed its checksum (corrupt or tampered)")
    if payload.get("format") != fmt:
        raise error(
            f"{noun} {path} has format {payload.get('format')!r}, expected {fmt!r}"
        )
    return payload


class Timer:
    """Tiny wall-clock timer; ``Timer()`` starts immediately.

    >>> t = Timer()
    >>> elapsed = t.elapsed()  # seconds since construction
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def restart(self) -> float:
        """Return elapsed seconds and reset the clock."""
        now = time.perf_counter()
        out = now - self._start
        self._start = now
        return out


@contextmanager
def timed() -> Iterator[Timer]:
    """Context manager yielding a :class:`Timer` for the enclosed block."""
    yield Timer()
