"""Runtime health report: what a fit survived, degraded, or skipped.

``SAFE.fit`` exposes one :class:`RuntimeReport` per run (``runtime_report_``)
so operators can distinguish "clean fit" from "fit that completed by
quarantining two exploding expressions and resuming from iteration 3" —
the paper's industrial setting demands the run completes, but completing
*silently* would hide a degrading deployment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class QuarantineRecord:
    """One expression removed from an iteration instead of killing the fit."""

    key: str
    operator: str
    reason: str


@dataclass(frozen=True)
class ChunkQuarantineRecord:
    """One corrupt backing-store chunk excluded from a streaming fit.

    Produced by :class:`~repro.tabular.ChunkedDataset` under
    ``on_chunk_error="quarantine"`` when a chunk fails its integrity
    manifest; the row range is in *backing-file* coordinates.
    """

    chunk_index: int
    row_start: int
    row_stop: int
    path: str
    reason: str


@dataclass
class RuntimeReport:
    """Aggregated fault/degradation bookkeeping for one ``SAFE.fit`` run."""

    #: ``(iteration, record)`` for every quarantined expression.
    quarantined: "list[tuple[int, QuarantineRecord]]" = field(default_factory=list)
    #: Backing-store chunks excluded by the integrity manifest.
    chunks_quarantined: "list[ChunkQuarantineRecord]" = field(default_factory=list)
    #: Iteration a resumed fit restarted *after* (None = fresh fit).
    resumed_from_iteration: "int | None" = None
    #: Iteration checkpoints persisted during this run (a stopped fit's
    #: record of its stop is not one).
    checkpoints_written: int = 0
    #: Reasons for every checkpoint file skipped as corrupt/mismatched.
    checkpoints_skipped: "list[str]" = field(default_factory=list)
    #: Sufficient-statistic snapshots persisted during this run.
    stats_checkpoints_written: int = 0
    #: Stage keys restored from sufficient-statistic snapshots on resume.
    stats_stages_resumed: "list[str]" = field(default_factory=list)
    #: Reasons for every stats snapshot skipped as corrupt/mismatched.
    stats_checkpoints_skipped: "list[str]" = field(default_factory=list)

    # ------------------------------------------------------------------
    def record_quarantine(self, iteration: int, records) -> None:
        for record in records:
            self.quarantined.append((iteration, record))

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    def summary(self) -> dict:
        """JSON-able digest (stable keys, no objects): the fields in
        order, each quarantine pair flattened to one record dict."""
        return {
            **asdict(self),
            "quarantined": [
                {"iteration": iteration, **asdict(record)}
                for iteration, record in self.quarantined
            ],
        }
