"""Static analysis for the repro codebase: lint rules + plan validator.

Two halves (see ISSUE 6 / ROADMAP):

* the **AST lint framework** (`run_lint`, exposed as
  ``python -m repro lint``) — codebase-specific rules enforcing the
  kernel contract, float hygiene, aliasing declarations, chunked
  streaming, exception handling, monotonic deadlines and atomic
  artifact writes;
* the **plan validator** (`validate_plan`, ``python -m repro
  validate-plan``) — abstract interpretation over saved ``Expression``
  forests so a fitted Ψ artifact can be rejected before it ever touches
  data.

The contract decorators (`batched_kernel`, `kernel_oracle`,
`kernel_exempt`, `inplace_mutator`) live in
:mod:`repro.analysis.registry`, which imports nothing from the rest of
the package — kernel modules import it freely. This ``__init__`` keeps
the plan validator lazy for the same reason: it depends on
:mod:`repro.operators`, whose modules import the registry, and an eager
import here would close that cycle.
"""

from __future__ import annotations

from .findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    render_findings,
)
from .linter import (
    LintContext,
    LintRule,
    SourceModule,
    default_rules,
    lint_modules,
    run_lint,
)
from .registry import (
    EXEMPT_REGISTRY,
    INPLACE_MUTATORS,
    KERNEL_REGISTRY,
    MERGEABLE_REGISTRY,
    ORACLE_REGISTRY,
    KernelContract,
    MergeContract,
    batched_kernel,
    chunk_mergeable,
    inplace_mutator,
    kernel_exempt,
    kernel_oracle,
)

_LAZY = {
    "validate_plan",
    "validate_payload",
    "PlanIssue",
    "PlanReport",
    "Domain",
}


def __getattr__(name: str):
    if name in _LAZY:
        from . import plan

        return getattr(plan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "Finding",
    "render_findings",
    "LintContext",
    "LintRule",
    "SourceModule",
    "default_rules",
    "lint_modules",
    "run_lint",
    "EXEMPT_REGISTRY",
    "INPLACE_MUTATORS",
    "KERNEL_REGISTRY",
    "MERGEABLE_REGISTRY",
    "ORACLE_REGISTRY",
    "KernelContract",
    "MergeContract",
    "batched_kernel",
    "chunk_mergeable",
    "inplace_mutator",
    "kernel_exempt",
    "kernel_oracle",
    "validate_plan",
    "validate_payload",
    "PlanIssue",
    "PlanReport",
    "Domain",
]
