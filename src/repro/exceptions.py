"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause, while
still distinguishing configuration mistakes from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration value or combination was supplied."""


class DataError(ReproError, ValueError):
    """Input data is malformed (wrong shape, dtype, or empty)."""


class NotFittedError(ReproError, RuntimeError):
    """A transform/predict was attempted before ``fit``."""


class SchemaError(DataError):
    """Column names or feature schema do not match expectations."""


class OperatorError(ReproError, ValueError):
    """An operator was applied with the wrong arity or invalid inputs."""


class PlanVersionError(SchemaError):
    """A saved plan's format version is newer than this library supports.

    Forward compatibility is refused loudly: a plan written by a newer
    library may carry fields this version would silently drop, so serving
    it risks a quietly different Ψ. Upgrade the library instead.
    """


class AdmissionError(SchemaError):
    """A serving request was rejected at admission (schema drift beyond
    what the active coercion policy allows)."""


class PlanSwapError(ReproError, RuntimeError):
    """A serving hot-swap was refused or rolled back (incompatible
    fingerprints, or the candidate plan failed its self-test)."""


class DeadlineExceeded(ReproError, RuntimeError):
    """A serving request ran past its deadline budget.

    The serving loop itself never raises this at callers — it degrades
    the response and records the hit — but internal steps use it to
    unwind, and strict wrappers may surface it.
    """


class CheckpointError(ReproError, RuntimeError):
    """A fit checkpoint is missing, corrupt, or from another config."""


class ChunkIntegrityError(DataError):
    """A chunk of an out-of-core table failed its integrity manifest.

    Raised when a memory-mapped ``.npy`` backing file is truncated,
    reshaped, or bit-rotted relative to its sidecar manifest — or when
    the manifest itself is corrupt. Under
    ``ChunkedDataset(on_chunk_error="quarantine")`` the bad chunks are
    excluded and recorded instead of raising, but a corrupt chunk is
    never silently consumed.
    """


class FailpointSpecError(ConfigurationError):
    """A ``REPRO_FAILPOINTS``-style activation spec could not be parsed.

    Always names the offending ``site=spec`` entry verbatim, so a typo'd
    chaos configuration fails loudly at the first failpoint evaluation
    instead of silently arming nothing.
    """


class InjectedFault(ReproError, RuntimeError):
    """Raised by an activated failpoint (fault injection; never in production)."""
