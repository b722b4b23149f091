"""Fault-tolerant runtime for fit and serve.

Three pieces, layered under the SAFE pipeline and the serving path:

* :mod:`~repro.runtime.failpoints` — named, deterministically
  triggerable fault-injection sites (chaos tests drive every other
  piece through these);
* :mod:`~repro.runtime.checkpoint` — atomic, checksummed per-iteration
  fit checkpoints with corrupt-file detection and config/schema
  fingerprints;
* :mod:`~repro.runtime.report` — :class:`RuntimeReport` /
  :class:`QuarantineRecord`, the fit's degraded-mode bookkeeping.

No piece retries: every fit runs serially in-process, so a fault
aborts the fit, and a rerun with the same ``checkpoint_dir`` resumes
from the last valid checkpoint and statistics snapshot.
"""

from .checkpoint import (
    CHECKPOINT_FORMAT,
    STATS_FORMAT,
    CheckpointManager,
    CheckpointState,
    StatsCheckpointStore,
    config_fingerprint,
    schema_fingerprint,
)
from .failpoints import (
    ENV_VAR,
    FAILPOINTS,
    KNOWN_SITES,
    Activation,
    FailpointRegistry,
    active,
    failpoint,
    parse_spec,
)
from ..exceptions import FailpointSpecError
from .report import ChunkQuarantineRecord, QuarantineRecord, RuntimeReport

__all__ = [
    "Activation",
    "FailpointSpecError",
    "CHECKPOINT_FORMAT",
    "STATS_FORMAT",
    "CheckpointManager",
    "CheckpointState",
    "ChunkQuarantineRecord",
    "ENV_VAR",
    "FAILPOINTS",
    "FailpointRegistry",
    "KNOWN_SITES",
    "QuarantineRecord",
    "RuntimeReport",
    "StatsCheckpointStore",
    "active",
    "config_fingerprint",
    "failpoint",
    "parse_spec",
    "schema_fingerprint",
]
