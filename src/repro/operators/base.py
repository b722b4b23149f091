"""Operator abstraction and registry.

Section III of the paper requires that "an applicable automatic feature
engineering algorithm framework should not limit operators and new
operators should be easily added". This module provides:

* :class:`Operator` — the extension point. An operator has a name, an
  arity, a commutativity flag (non-commutative operators such as ``÷`` are
  effectively *two* operators, handled by generating both argument orders),
  an optional ``fit`` step for stateful operators (normalizers,
  discretizers, GroupByThen*), and a pure ``apply``.
* a process-global registry with :func:`register_operator` /
  :func:`get_operator` / :func:`available_operators`.

Operator state must be JSON-serializable (dicts of lists/floats) so fitted
feature-generation plans can be persisted and served for the paper's
*real-time inference* requirement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from ..exceptions import OperatorError


class Operator(ABC):
    """Base class for all feature-construction operators.

    Subclasses set the class attributes and implement :meth:`apply`;
    stateful operators additionally override :meth:`fit`.
    """

    #: Registry key; unique across the process.
    name: str = ""
    #: Number of input columns consumed.
    arity: int = 1
    #: Whether argument order matters. Non-commutative operators are applied
    #: to each ordered arrangement of a combination.
    commutative: bool = False
    #: Human-oriented infix/function symbol used by Expression.format.
    symbol: str = ""
    #: Whether output row ``i`` depends only on input row ``i`` — no
    #: cross-row coupling (elementwise arithmetic, logical connectives,
    #: conditionals, per-row reductions over the arguments). Row-wise
    #: *stateless* operators are exactly the set the out-of-core
    #: streaming fit can evaluate chunk-at-a-time with results identical
    #: to a full-matrix evaluation; cross-row operators (lags, rolling
    #: windows, group statistics) and stateful operators keep the
    #: conservative default and are rejected by the streaming path.
    rowwise: bool = False

    # -- abstract-interpretation annotations (repro.analysis.plan) -----
    #: Static output bounds (lo, hi) holding for *any* input, or None.
    #: Finite bounds also certify the output carries no ±inf.
    abstract_bounds: "tuple[float, float] | None" = None
    #: Can the operator *introduce* NaN / ±inf on finite input
    #: (div by 0, log of 0, ...)? Propagation from inputs is automatic.
    introduces_nan: bool = False
    introduces_inf: bool = False
    #: Output is defined for NaN input (comparisons, binning with a
    #: missing-value code): input NaN does not propagate to the output.
    absorbs_nan: bool = False
    #: Output does not depend on input magnitude (table lookups): input
    #: ±inf does not propagate. Finite ``abstract_bounds`` imply this.
    absorbs_inf: bool = False
    #: The subtree collapses to a constant or to its own child when all
    #: children are the identical expression (x - x, x / x, x XOR x,
    #: min(x, x, x), ...): a well-formed plan should not contain it.
    degenerate_on_equal_children: bool = False
    #: Keys the fitted state dict must carry (stateful operators only);
    #: the plan validator rejects saved states missing any of them.
    state_schema: "tuple[str, ...]" = ()

    def abstract_transfer(
        self, domains: "tuple", state: "dict | None" = None
    ) -> "tuple[float, float, bool, bool] | None":
        """Optional per-operator interval transfer for the plan validator.

        ``domains`` holds one ``(lo, hi, may_nan, may_inf)`` tuple per
        child. Return the output tuple, or None to use the generic
        transfer driven by the class annotations above. Plain tuples keep
        this module import-free of the analysis package.
        """
        return None

    def fit(self, *cols: np.ndarray) -> "dict | None":
        """Learn serializable state from training columns (default: none)."""
        return None

    @property
    def is_stateful(self) -> bool:
        """True when :meth:`fit` is overridden (fitted state drives apply)."""
        return type(self).fit is not Operator.fit

    @abstractmethod
    def apply(self, state: "dict | None", *cols: np.ndarray) -> np.ndarray:
        """Compute the generated column from input columns (+ fitted state)."""

    # ------------------------------------------------------------------
    def check_arity(self, n: int) -> None:
        if n != self.arity:
            raise OperatorError(
                f"operator {self.name!r} takes {self.arity} inputs, got {n}"
            )

    def format(self, *operands: str) -> str:
        """Render a readable expression string, e.g. ``(x1 + x2)``."""
        is_infix_symbol = 0 < len(self.symbol) <= 3 and not any(
            ch.isalnum() or ch == "_" for ch in self.symbol
        )
        if self.arity == 2 and is_infix_symbol:
            return f"({operands[0]} {self.symbol} {operands[1]})"
        inner = ", ".join(operands)
        return f"{self.symbol or self.name}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Operator {self.name} arity={self.arity}>"


_REGISTRY: dict[str, Operator] = {}


def register_operator(op: Operator, overwrite: bool = False) -> Operator:
    """Add an operator instance to the global registry.

    Registering a duplicate name without ``overwrite=True`` raises, so user
    extensions cannot silently shadow the built-in catalogue.
    """
    if not op.name:
        raise OperatorError("operator must define a non-empty name")
    if op.arity < 1:
        raise OperatorError(f"operator {op.name!r} has invalid arity {op.arity}")
    if op.name in _REGISTRY and not overwrite:
        raise OperatorError(f"operator {op.name!r} already registered")
    _REGISTRY[op.name] = op
    return op


def get_operator(name: str) -> Operator:
    """Look up a registered operator by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise OperatorError(
            f"unknown operator {name!r}; known: {sorted(_REGISTRY)[:20]}"
        ) from None


def available_operators(arity: "int | None" = None) -> list[str]:
    """Names of registered operators, optionally filtered by arity."""
    names = sorted(_REGISTRY)
    if arity is None:
        return names
    return [n for n in names if _REGISTRY[n].arity == arity]


def resolve_operators(names: Iterable[str]) -> list[Operator]:
    """Map operator names to instances, validating each."""
    return [get_operator(n) for n in names]


#: The experiment operator set of Section V: the four basic arithmetic ops.
PAPER_OPERATOR_SET: tuple[str, ...] = ("add", "sub", "mul", "div")
