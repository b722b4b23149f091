"""CSV and ``.npy`` I/O for tabular data, in-memory and out-of-core.

Two tiers:

* :func:`save_csv` / :func:`load_csv` — minimal numeric CSV round-trip
  for :class:`~repro.tabular.Dataset` (header row, ``repr`` floats for
  exact round-trips, no pandas). ``save_csv`` streams rows straight from
  the source — it never materializes a concatenated copy of the matrix,
  so it also serializes datasets that do not fit in memory.
* :class:`ChunkedDataset` + :func:`iter_csv_chunks` /
  :func:`csv_to_npy` — the out-of-core substrate for the streaming fit:
  a row-chunked view over memory-mapped ``.npy`` arrays (or in-memory
  arrays, for tests and small data) yielding ``(rows, X_chunk, y_chunk)``
  triples, re-iterable any number of times at O(chunk) resident memory.
  ``SAFE.fit`` accepts a :class:`ChunkedDataset` directly (see
  :mod:`repro.core.stream`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..exceptions import ChunkIntegrityError, DataError
from ..runtime.failpoints import failpoint
from ..runtime.report import ChunkQuarantineRecord
from ..utils import atomic_path, atomic_write
from .dataset import Dataset, default_names

#: Default rows per chunk: 64k rows x 16 float64 columns is an 8 MB slab.
DEFAULT_CHUNK_ROWS = 65_536

#: Format tag embedded in (and required of) every integrity manifest.
MANIFEST_FORMAT = "repro-manifest-v1"

#: Sidecar suffix: the manifest for ``X.npy`` lives at ``X.npy.manifest.json``.
MANIFEST_SUFFIX = ".manifest.json"


def manifest_path_for(x_path: "str | Path") -> Path:
    """The sidecar manifest path for a feature backing file."""
    return Path(str(x_path) + MANIFEST_SUFFIX)


def _chunk_digest(X_slab: np.ndarray, y_slab: "np.ndarray | None") -> str:
    """Content digest of one manifest chunk (X rows + matching labels).

    BLAKE2b rather than SHA-256: same collision posture for integrity
    purposes at roughly twice the hashing throughput, which matters when
    verifying multi-gigabyte backing files.
    """
    h = hashlib.blake2b(digest_size=20)
    h.update(np.ascontiguousarray(X_slab).tobytes())
    if y_slab is not None:
        h.update(b"|y|")
        h.update(np.ascontiguousarray(y_slab).tobytes())
    return h.hexdigest()


def write_manifest(
    data: "ChunkedDataset",
    path: "str | Path | None" = None,
    chunk_rows: "int | None" = None,
) -> Path:
    """Write the integrity manifest for a dataset's backing store.

    One pass over the *full* backing arrays (views share a backing, so
    the manifest always covers every row): per-chunk content digests,
    the row/col shape, and a dtype fingerprint, published atomically via
    temp-file + ``os.replace`` so a crash mid-write never leaves a
    valid-looking partial manifest. ``path`` defaults to the sidecar
    location (:func:`manifest_path_for`) and is required for in-memory
    datasets.
    """
    if path is None:
        if data.x_path is None:
            raise DataError("an in-memory ChunkedDataset needs an explicit manifest path")
        path = manifest_path_for(data.x_path)
    path = Path(path)
    chunk_rows = int(chunk_rows or data.chunk_rows)
    if chunk_rows < 1:
        raise DataError("manifest chunk_rows must be >= 1")
    X = data._open_X()
    y = data._open_y()
    n_rows, n_cols = int(X.shape[0]), int(X.shape[1])
    digests = []
    for lo in range(0, n_rows, chunk_rows):
        hi = min(lo + chunk_rows, n_rows)
        digests.append(_chunk_digest(X[lo:hi], None if y is None else y[lo:hi]))
    payload = {
        "format": MANIFEST_FORMAT,
        "chunk_rows": chunk_rows,
        "n_rows": n_rows,
        "n_cols": n_cols,
        "dtype": str(X.dtype),
        "labeled": y is not None,
        "y_dtype": None if y is None else str(y.dtype),
        "names": list(data.names),
        "chunks": digests,
    }
    record = {
        "checksum": hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "payload": payload,
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2))
    return path


def load_manifest(path: "str | Path") -> dict:
    """Parse + validate a manifest file; raise :class:`ChunkIntegrityError`.

    A corrupt manifest is treated exactly like a corrupt chunk — loudly.
    Trusting a tampered manifest would let a tampered chunk verify.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ChunkIntegrityError(f"cannot read manifest {path}: {exc}") from exc
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChunkIntegrityError(
            f"manifest {path} is not valid JSON (truncated write?): {exc}"
        ) from exc
    if not isinstance(record, dict) or "payload" not in record:
        raise ChunkIntegrityError(f"manifest {path} has no payload")
    payload = record["payload"]
    body = json.dumps(payload, sort_keys=True)
    if record.get("checksum") != hashlib.sha256(body.encode("utf-8")).hexdigest():
        raise ChunkIntegrityError(
            f"manifest {path} failed its checksum (corrupt or tampered)"
        )
    if payload.get("format") != MANIFEST_FORMAT:
        raise ChunkIntegrityError(
            f"manifest {path} has format {payload.get('format')!r}, "
            f"expected {MANIFEST_FORMAT!r}"
        )
    return payload


def _format_row(row) -> "list[str]":
    # repr() of a python float is the shortest string that round-trips,
    # so load_csv(save_csv(ds)) reproduces the matrix bit-for-bit.
    return [repr(float(v)) for v in row]


def save_csv(
    data: "Dataset | ChunkedDataset",
    path: "str | Path",
    label_column: str = "label",
) -> None:
    """Write a dataset (features + optional label column) to CSV.

    Rows are streamed to the writer one at a time: no ``np.hstack`` of
    the whole matrix, no per-file list of formatted rows. Accepts either
    an in-memory :class:`Dataset` or a :class:`ChunkedDataset` (whose
    chunks are visited in order), so a memory-mapped table can be
    exported without ever being resident.
    """
    path = Path(path)
    header = list(data.names)
    if isinstance(data, ChunkedDataset):
        chunks = ((X, y) for _, X, y in data.iter_chunks())
        labeled = data.has_labels
    else:
        chunks = iter([(data.X, data.y)])
        labeled = data.y is not None
    if labeled:
        header.append(label_column)
    # Atomic: rows stream into a hidden temp file that only becomes
    # ``path`` once the last row is written and fsync'd, so a crash
    # mid-export can't leave a valid-looking partial CSV behind.
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for X_chunk, y_chunk in chunks:
            if labeled:
                writer.writerows(
                    _format_row(row) + [repr(float(target))]
                    for row, target in zip(X_chunk, y_chunk)
                )
            else:
                writer.writerows(_format_row(row) for row in X_chunk)


def load_csv(path: "str | Path", label_column: "str | None" = "label") -> Dataset:
    """Read a numeric CSV with header into a :class:`Dataset`.

    If ``label_column`` is present in the header it becomes ``y``;
    pass ``label_column=None`` to treat every column as a feature.
    """
    path = Path(path)
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(v) if v != "" else float("nan") for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.shape[1] != len(header):
        raise DataError(f"{path}: ragged rows (header has {len(header)} fields)")
    if label_column is not None and label_column in header:
        k = header.index(label_column)
        y = matrix[:, k]
        X = np.delete(matrix, k, axis=1)
        names = [h for i, h in enumerate(header) if i != k]
        return Dataset(X=X, names=tuple(names), y=y)
    return Dataset(X=matrix, names=tuple(header), y=None)


class ChunkedDataset:
    """A labeled table visited in row chunks instead of held in memory.

    Backed either by ``.npy`` files opened with ``mmap_mode="r"`` (the
    out-of-core path: resident memory stays O(chunk) regardless of
    ``n_rows``) or by in-memory arrays (tests, small data). The object is
    re-iterable — the streaming fit makes many passes — and picklable:
    a file-backed instance pickles as its paths and re-opens the memory
    maps on first use, never serializing the matrix.

    Integrity: pass ``manifest=`` (a path written by
    :func:`write_manifest`; auto-discovered by :meth:`from_npy`) and
    every chunk is verified against its content digest lazily as
    :meth:`iter_chunks` reaches it. A corrupt or torn chunk raises
    :class:`~repro.exceptions.ChunkIntegrityError` — or, under
    ``on_chunk_error="quarantine"``, the bad chunks are identified up
    front (the exclusion set must be known before any kernel sees a row
    count), excluded from every pass, and reported via
    :meth:`quarantined_chunks`; surviving rows are renumbered
    contiguously so chunk streams still cover ``0..n_rows`` in order.
    Either way a corrupt chunk is never silently consumed.
    """

    def __init__(
        self,
        names: "tuple[str, ...]",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        *,
        X: "np.ndarray | None" = None,
        y: "np.ndarray | None" = None,
        x_path: "str | Path | None" = None,
        y_path: "str | Path | None" = None,
        start: int = 0,
        stop: "int | None" = None,
        manifest: "str | Path | None" = None,
        on_chunk_error: str = "raise",
    ) -> None:
        if (X is None) == (x_path is None):
            raise DataError("ChunkedDataset needs exactly one of X or x_path")
        if chunk_rows < 1:
            raise DataError("chunk_rows must be >= 1")
        if on_chunk_error not in ("raise", "quarantine"):
            raise DataError(
                f"on_chunk_error must be 'raise' or 'quarantine', got {on_chunk_error!r}"
            )
        self.chunk_rows = int(chunk_rows)
        self._X_mem = None if X is None else np.asarray(X, dtype=np.float64)
        self._y_mem = None if y is None else np.asarray(y, dtype=np.float64).ravel()
        self.x_path = None if x_path is None else str(x_path)
        self.y_path = None if y_path is None else str(y_path)
        if y is not None and x_path is not None:
            raise DataError("in-memory y cannot back a file-based ChunkedDataset")
        self._X_map: "np.ndarray | None" = None
        self._y_map: "np.ndarray | None" = None
        self.manifest_path = None if manifest is None else str(manifest)
        self.on_chunk_error = on_chunk_error
        self._manifest: "dict | None" = None
        self._chunk_ok: "dict[int, str | None]" = {}
        self._excluded: "tuple[int, ...] | None" = (
            None if self.manifest_path is not None and on_chunk_error == "quarantine"
            else ()
        )
        total_rows, n_cols = self._backing_shape()
        self._backing_rows = total_rows
        self.names = tuple(str(n) for n in (names or default_names(n_cols)))
        if len(self.names) != n_cols:
            raise DataError(f"{len(self.names)} column names for {n_cols} columns")
        y_rows = self._label_rows()
        if y_rows is not None and y_rows != total_rows:
            raise DataError(f"y has {y_rows} rows but X has {total_rows}")
        # In quarantine mode the exclusion scan must run before any row
        # arithmetic: start/stop/n_rows are in *effective* (surviving-row)
        # coordinates so every kernel sees one consistent contiguous range.
        total = self._effective_rows()
        stop = total if stop is None else int(stop)
        start = int(start)
        if not 0 <= start <= stop <= total:
            raise DataError(
                f"row range [{start}, {stop}) outside table of {total} rows"
            )
        self.start = start
        self.stop = stop

    # -- backing ------------------------------------------------------
    def _backing_shape(self) -> "tuple[int, int]":
        X = self._open_X()
        if X.ndim != 2:
            raise DataError("ChunkedDataset expects a 2-D feature matrix")
        return int(X.shape[0]), int(X.shape[1])

    def _label_rows(self) -> "int | None":
        y = self._open_y()
        return None if y is None else int(y.shape[0])

    def _open_X(self) -> np.ndarray:
        if self._X_mem is not None:
            return self._X_mem
        if self._X_map is None:
            self._X_map = np.load(self.x_path, mmap_mode="r")
        return self._X_map

    def _open_y(self) -> "np.ndarray | None":
        if self._y_mem is not None:
            return self._y_mem
        if self.y_path is None:
            return None
        if self._y_map is None:
            self._y_map = np.load(self.y_path, mmap_mode="r")
        return self._y_map

    # -- integrity (manifest verification + quarantine) ----------------
    def _ensure_manifest(self) -> "dict | None":
        """Load + validate the manifest once; check shape/dtype fingerprints.

        The shape check is what catches a truncated or regenerated
        backing file whose rows no longer mean what the manifest
        promised — per-chunk digests can't be trusted to even line up
        then, so any mismatch raises regardless of ``on_chunk_error``.
        """
        if self.manifest_path is None:
            return None
        if self._manifest is None:
            payload = load_manifest(self.manifest_path)
            X = self._open_X()
            source = self.x_path or "in-memory arrays"
            if (int(X.shape[0]), int(X.shape[1])) != (
                int(payload["n_rows"]),
                int(payload["n_cols"]),
            ):
                raise ChunkIntegrityError(
                    f"{source}: shape {tuple(X.shape)} does not match manifest "
                    f"({payload['n_rows']}, {payload['n_cols']}) — truncated or "
                    "regenerated backing file"
                )
            if str(X.dtype) != payload["dtype"]:
                raise ChunkIntegrityError(
                    f"{source}: dtype {X.dtype} does not match manifest "
                    f"{payload['dtype']!r}"
                )
            if bool(payload.get("labeled")) != self.has_labels:
                raise ChunkIntegrityError(
                    f"{source}: manifest was written for a "
                    f"{'labeled' if payload.get('labeled') else 'label-free'} "
                    "table; labels present do not match"
                )
            self._manifest = payload
        return self._manifest

    def _verify_chunk(self, index: int) -> "str | None":
        """Digest-check one manifest chunk; cache and return the failure
        reason (None = chunk is intact)."""
        if index in self._chunk_ok:
            return self._chunk_ok[index]
        manifest = self._ensure_manifest()
        cr = int(manifest["chunk_rows"])
        lo = index * cr
        hi = min(lo + cr, int(manifest["n_rows"]))
        X = self._open_X()
        y = self._open_y()
        digest = _chunk_digest(X[lo:hi], None if y is None else y[lo:hi])
        reason = (
            None
            if digest == manifest["chunks"][index]
            else "content digest mismatch against manifest (bit rot or torn write)"
        )
        self._chunk_ok[index] = reason
        return reason

    def _exclusions(self) -> "tuple[int, ...]":
        """Quarantined manifest-chunk indices (empty outside quarantine mode).

        The first call under ``on_chunk_error="quarantine"`` verifies
        every chunk up front: exclusions change the effective row count,
        so they must be fixed — deterministically, in chunk order —
        before any kernel observes the dataset.
        """
        if self._excluded is None:
            manifest = self._ensure_manifest()
            n_chunks = len(manifest["chunks"])
            self._excluded = tuple(
                m for m in range(n_chunks) if self._verify_chunk(m) is not None
            )
        return self._excluded

    def _segments(self) -> "list[tuple[int, int, int]]":
        """Surviving row runs as ``(real_lo, real_hi, effective_lo)``."""
        excluded = self._exclusions()
        total = self._backing_rows
        if not excluded:
            return [(0, total, 0)]
        manifest = self._ensure_manifest()
        cr = int(manifest["chunk_rows"])
        bad = set(excluded)
        segments: "list[tuple[int, int, int]]" = []
        eff = 0
        run_start: "int | None" = None
        n_chunks = len(manifest["chunks"])
        for m in range(n_chunks + 1):
            if m < n_chunks and m not in bad:
                if run_start is None:
                    run_start = m * cr
                continue
            if run_start is not None:
                hi = min(m * cr, total)
                segments.append((run_start, hi, eff))
                eff += hi - run_start
                run_start = None
        return segments

    def _effective_rows(self) -> int:
        """Total surviving rows (== backing rows outside quarantine mode)."""
        segments = self._segments()
        last_real_lo, last_real_hi, last_eff = segments[-1]
        return last_eff + (last_real_hi - last_real_lo)

    def _real_spans(self, eff_lo: int, eff_hi: int):
        """Map an effective row window onto backing-file row runs."""
        for r_lo, r_hi, e_lo in self._segments():
            e_hi = e_lo + (r_hi - r_lo)
            a, b = max(eff_lo, e_lo), min(eff_hi, e_hi)
            if a < b:
                yield a, b, r_lo + (a - e_lo), r_lo + (b - e_lo)

    def _verify_rows(self, real_lo: int, real_hi: int) -> None:
        """Raise-mode lazy verification of the chunks covering a row run."""
        manifest = self._ensure_manifest()
        if manifest is None:
            return
        cr = int(manifest["chunk_rows"])
        for m in range(real_lo // cr, (real_hi - 1) // cr + 1):
            reason = self._verify_chunk(m)
            if reason is not None and self.on_chunk_error == "raise":
                lo = m * cr
                hi = min(lo + cr, int(manifest["n_rows"]))
                raise ChunkIntegrityError(
                    f"{self.x_path or 'in-memory arrays'}: chunk {m} "
                    f"(rows [{lo}, {hi})) {reason}"
                )

    def quarantined_chunks(self) -> "tuple[ChunkQuarantineRecord, ...]":
        """Records for every excluded chunk (quarantine mode only)."""
        if self.on_chunk_error != "quarantine" or self.manifest_path is None:
            return ()
        manifest = self._ensure_manifest()
        cr = int(manifest["chunk_rows"])
        records = []
        for m in self._exclusions():
            lo = m * cr
            hi = min(lo + cr, int(manifest["n_rows"]))
            records.append(
                ChunkQuarantineRecord(
                    chunk_index=m,
                    row_start=lo,
                    row_stop=hi,
                    path=self.x_path or "in-memory arrays",
                    reason=self._chunk_ok.get(m) or "excluded by manifest",
                )
            )
        return tuple(records)

    def verify_integrity(self) -> "tuple[int, ...]":
        """Verify every manifest chunk now; return the bad chunk indices.

        In raise mode the first bad chunk raises instead (via the same
        path iteration takes), so a clean return means the whole backing
        store matches its manifest.
        """
        manifest = self._ensure_manifest()
        if manifest is None:
            return ()
        bad = []
        for m in range(len(manifest["chunks"])):
            reason = self._verify_chunk(m)
            if reason is not None:
                if self.on_chunk_error == "raise":
                    cr = int(manifest["chunk_rows"])
                    lo = m * cr
                    hi = min(lo + cr, int(manifest["n_rows"]))
                    raise ChunkIntegrityError(
                        f"{self.x_path or 'in-memory arrays'}: chunk {m} "
                        f"(rows [{lo}, {hi})) {reason}"
                    )
                bad.append(m)
        return tuple(bad)

    # -- shape / schema ----------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.stop - self.start

    @property
    def n_cols(self) -> int:
        return len(self.names)

    @property
    def has_labels(self) -> bool:
        return self._y_mem is not None or self.y_path is not None

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        src = self.x_path or "arrays"
        return (
            f"ChunkedDataset({self.n_rows} rows x {self.n_cols} cols, "
            f"chunk_rows={self.chunk_rows}, backing={src})"
        )

    # -- iteration ----------------------------------------------------
    def iter_chunks(self):
        """Yield ``(rows, X_chunk, y_chunk)`` over the row range in order.

        ``rows`` is the global ``range`` the chunk covers; ``X_chunk``
        is a ``(len(rows), n_cols)`` float64 block (a memory-map view
        for file backing — pages stream in on access and are evictable,
        so resident memory stays O(chunk)); ``y_chunk`` is the matching
        label slice or None.
        """
        X = self._open_X()
        y = self._open_y()
        if self.manifest_path is None:
            for lo in range(self.start, self.stop, self.chunk_rows):
                hi = min(lo + self.chunk_rows, self.stop)
                y_chunk = None if y is None else y[lo:hi]
                yield range(lo, hi), X[lo:hi], y_chunk
            return
        # Manifest-verified path: rows are effective coordinates (bad
        # chunks excluded and survivors renumbered contiguously), chunks
        # split at exclusion borders, and each backing run is verified
        # lazily as iteration reaches it.
        for lo in range(self.start, self.stop, self.chunk_rows):
            hi = min(lo + self.chunk_rows, self.stop)
            for eff_lo, eff_hi, real_lo, real_hi in self._real_spans(lo, hi):
                failpoint("stream.chunk.read")
                self._verify_rows(real_lo, real_hi)
                y_chunk = None if y is None else y[real_lo:real_hi]
                yield range(eff_lo, eff_hi), X[real_lo:real_hi], y_chunk

    def materialize(self) -> Dataset:
        """Load the full row range into an in-memory :class:`Dataset`."""
        if self.manifest_path is not None:
            n = self.n_rows
            X = np.zeros((n, self.n_cols), dtype=np.float64)
            y = np.zeros(n, dtype=np.float64) if self.has_labels else None
            for rows, X_chunk, y_chunk in self.iter_chunks():
                lo, hi = rows.start - self.start, rows.stop - self.start
                X[lo:hi] = X_chunk
                if y is not None:
                    y[lo:hi] = y_chunk
            return Dataset(X=X, names=self.names, y=y)
        X = np.asarray(self._open_X()[self.start : self.stop], dtype=np.float64)
        y = self._open_y()
        y = None if y is None else np.asarray(y[self.start : self.stop])
        return Dataset(X=X, names=self.names, y=y)

    # -- construction -------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        X: "np.ndarray | list",
        y: "np.ndarray | list | None" = None,
        names: "tuple[str, ...] | None" = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "ChunkedDataset":
        X = np.asarray(X, dtype=np.float64)
        if names is None:
            names = default_names(X.shape[1] if X.ndim == 2 else 0)
        return cls(tuple(names), chunk_rows, X=X,
                   y=None if y is None else np.asarray(y))

    @classmethod
    def from_dataset(
        cls, data: Dataset, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> "ChunkedDataset":
        return cls(data.names, chunk_rows, X=data.X, y=data.y)

    @classmethod
    def from_npy(
        cls,
        x_path: "str | Path",
        y_path: "str | Path | None" = None,
        names: "tuple[str, ...] | None" = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        *,
        manifest: "str | Path | bool | None" = None,
        on_chunk_error: str = "raise",
    ) -> "ChunkedDataset":
        """Open memory-mapped ``.npy`` feature/label files as a dataset.

        ``manifest`` selects integrity verification: a path uses that
        manifest, ``True`` requires the sidecar
        (:func:`manifest_path_for`), ``False`` disables verification,
        and ``None`` (default) auto-discovers — the sidecar is used iff
        it exists. Column names fall back to the manifest's before the
        generic ``f0..fk`` defaults.
        """
        manifest_path: "Path | None"
        if manifest is False:
            manifest_path = None
        elif manifest is None or manifest is True:
            sidecar = manifest_path_for(x_path)
            if manifest is True and not sidecar.exists():
                raise ChunkIntegrityError(f"manifest {sidecar} does not exist")
            manifest_path = sidecar if sidecar.exists() else None
        else:
            manifest_path = Path(manifest)
        if names is None and manifest_path is not None:
            recorded = load_manifest(manifest_path).get("names")
            if recorded:
                names = tuple(str(n) for n in recorded)
        if names is None:
            probe = np.load(x_path, mmap_mode="r")
            if probe.ndim != 2:
                raise DataError("ChunkedDataset expects a 2-D feature matrix")
            names = default_names(int(probe.shape[1]))
            del probe
        return cls(
            tuple(names),
            chunk_rows,
            x_path=x_path,
            y_path=y_path,
            manifest=manifest_path,
            on_chunk_error=on_chunk_error,
        )

    # -- pickling -------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Memory-map handles are per-process; a clone re-opens lazily.
        state["_X_map"] = None
        state["_y_map"] = None
        return state


def iter_csv_chunks(
    path: "str | Path",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    label_column: "str | None" = "label",
):
    """Stream a numeric CSV as ``(rows, X_chunk, y_chunk)`` triples.

    The row-chunked counterpart of :func:`load_csv`: at most
    ``chunk_rows`` parsed rows are resident at a time. ``y_chunk`` is
    None when ``label_column`` is absent from the header. CSV parsing is
    single-pass — for the many-pass streaming fit, convert once with
    :func:`csv_to_npy` and iterate the memory maps instead.
    """
    path = Path(path)
    if chunk_rows < 1:
        raise DataError("chunk_rows must be >= 1")
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        label_idx = None
        if label_column is not None and label_column in header:
            label_idx = header.index(label_column)
        n_fields = len(header)
        start = 0
        buffer: "list[list[float]]" = []

        def flush():
            block = np.asarray(buffer, dtype=np.float64)
            if label_idx is None:
                return block, None
            y_chunk = block[:, label_idx]
            X_chunk = np.delete(block, label_idx, axis=1)
            return X_chunk, y_chunk

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_fields:
                raise DataError(
                    f"{path}:{lineno}: ragged row (header has {n_fields} fields)"
                )
            try:
                buffer.append([float(v) if v != "" else float("nan") for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            if len(buffer) == chunk_rows:
                X_chunk, y_chunk = flush()
                yield range(start, start + len(buffer)), X_chunk, y_chunk
                start += len(buffer)
                buffer = []
        if buffer:
            X_chunk, y_chunk = flush()
            yield range(start, start + len(buffer)), X_chunk, y_chunk


def csv_to_npy(
    csv_path: "str | Path",
    x_path: "str | Path",
    y_path: "str | Path | None" = None,
    label_column: "str | None" = "label",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    *,
    manifest: bool = False,
) -> ChunkedDataset:
    """Convert a numeric CSV to memory-mapped ``.npy`` files, streaming.

    Two passes over the file (count rows, then fill the pre-sized
    memmaps chunk by chunk) with O(chunk) resident memory, returning a
    ready :class:`ChunkedDataset` over the written files. A labeled CSV
    requires ``y_path``. The memmaps fill hidden temp files that are
    atomically renamed into place only once fully written, so a crash
    mid-conversion leaves no valid-looking partial ``.npy`` behind.
    ``manifest=True`` also writes the sidecar integrity manifest
    (column names included) next to ``x_path``.
    """
    csv_path = Path(csv_path)
    with csv_path.open("r", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{csv_path} is empty")
    label_idx = (
        header.index(label_column)
        if label_column is not None and label_column in header
        else None
    )
    feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    n_rows = 0
    names: "tuple[str, ...] | None" = None
    labeled = False
    for rows, X_chunk, y_chunk in iter_csv_chunks(csv_path, chunk_rows, label_column):
        n_rows += len(rows)
        labeled = y_chunk is not None
        if names is None:
            names = feature_names
    if names is None:
        raise DataError(f"{csv_path} has a header but no data rows")
    if labeled and y_path is None:
        raise DataError("labeled CSV needs a y_path for the label memmap")
    with atomic_path(x_path, suffix=".npy") as x_tmp:
        X_out = np.lib.format.open_memmap(
            x_tmp, mode="w+", dtype=np.float64, shape=(n_rows, len(names))
        )
        y_out = None
        if labeled:
            y_tmp = Path(str(y_path) + ".tmp.npy")
            y_out = np.lib.format.open_memmap(
                y_tmp, mode="w+", dtype=np.float64, shape=(n_rows,)
            )
        try:
            for rows, X_chunk, y_chunk in iter_csv_chunks(
                csv_path, chunk_rows, label_column
            ):
                X_out[rows.start : rows.stop] = X_chunk
                if y_out is not None:
                    y_out[rows.start : rows.stop] = y_chunk
            X_out.flush()
            del X_out
            if y_out is not None:
                y_out.flush()
                del y_out
                os.replace(y_tmp, y_path)
        finally:
            if labeled and y_tmp.exists():
                y_tmp.unlink()
    data = ChunkedDataset.from_npy(
        x_path,
        y_path if labeled else None,
        names=names,
        chunk_rows=chunk_rows,
        manifest=False,
    )
    if manifest:
        write_manifest(data)
        data = ChunkedDataset.from_npy(
            x_path,
            y_path if labeled else None,
            names=names,
            chunk_rows=chunk_rows,
            manifest=True,
        )
    return data


def save_npy(
    data: Dataset,
    x_path: "str | Path",
    y_path: "str | Path | None" = None,
    *,
    manifest: bool = False,
) -> ChunkedDataset:
    """Persist a :class:`Dataset` as ``.npy`` files; return the mapped view.

    Writes are atomic (temp file + ``os.replace``), so a crash mid-save
    leaves either the previous files or nothing — never a truncated
    ``.npy`` that parses. ``manifest=True`` also writes the sidecar
    integrity manifest and returns a verifying view.
    """
    with atomic_path(x_path, suffix=".npy") as tmp:
        np.save(tmp, np.ascontiguousarray(data.X))
    if data.y is not None:
        if y_path is None:
            raise DataError("labeled dataset needs a y_path")
        with atomic_path(y_path, suffix=".npy") as tmp:
            np.save(tmp, data.y)
    out = ChunkedDataset.from_npy(
        x_path,
        y_path if data.y is not None else None,
        names=data.names,
        manifest=False,
    )
    if manifest:
        write_manifest(out)
        out = ChunkedDataset.from_npy(
            x_path,
            y_path if data.y is not None else None,
            names=data.names,
            manifest=True,
        )
    return out
