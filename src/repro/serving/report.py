"""Serving health report: what the request path degraded, shed, or refused.

The serve-side sibling of :class:`~repro.runtime.RuntimeReport`. A
hardened serving loop is only trustworthy if every departure from the
clean path is *accounted for*: a NaN column, a shed request, a tripped
breaker, or a rolled-back hot-swap that goes unrecorded looks exactly
like healthy traffic from the outside. :class:`ServingReport` is the
single ledger a :class:`~repro.serving.ServingSession` writes those
departures to; operators poll :meth:`summary` next to
``ServingSession.health``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class ServingReport:
    """Aggregated degradation bookkeeping for one serving session."""

    #: Requests that entered admission (shed requests never get here).
    requests_total: int = 0
    #: Admission outcomes (mirrors the validator's per-category counters).
    admitted_exact: int = 0
    admitted_coerced: int = 0
    rejected: int = 0
    #: Requests dropped by the bounded queue's shed-oldest policy.
    shed: int = 0
    #: Requests whose deadline budget expired mid-evaluation.
    deadline_hits: int = 0
    #: Breaker state transitions into ``open`` (trips), and requests that
    #: skipped an expression because its breaker was open.
    breaker_trips: int = 0
    breaker_short_circuits: int = 0
    #: Expression columns served as NaN after an operator fault.
    nulled_columns: int = 0
    #: Hot-swap outcomes.
    swaps_completed: int = 0
    swaps_rolled_back: int = 0

    #: Coercion notes applied at admission, counted by kind
    #: (e.g. ``{"reordered": 3, "missing:age": 1}``).
    coercions: "dict[str, int]" = field(default_factory=dict)
    #: Expression keys whose breaker tripped, in trip order.
    tripped_expressions: "list[str]" = field(default_factory=list)
    #: Reasons for every refused or rolled-back hot-swap.
    swap_failures: "list[str]" = field(default_factory=list)

    # ------------------------------------------------------------------
    def record_coercions(self, notes) -> None:
        for note in notes:
            self.coercions[note] = self.coercions.get(note, 0) + 1

    def record_trip(self, key: str) -> None:
        self.breaker_trips += 1
        self.tripped_expressions.append(key)

    def record_swap_failure(self, reason: str) -> None:
        self.swaps_rolled_back += 1
        self.swap_failures.append(reason)

    @property
    def degraded_responses(self) -> int:
        """Upper-bound marker for "anything non-clean happened"."""
        return (
            self.rejected
            + self.shed
            + self.deadline_hits
            + self.breaker_short_circuits
            + self.nulled_columns
        )

    def summary(self) -> dict:
        """JSON-able digest (stable keys, no objects): the fields in order."""
        return asdict(self)
