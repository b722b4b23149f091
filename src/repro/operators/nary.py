"""Ternary and n-ary operators.

Section III lists the conditional operator ``a ? b : c`` as the canonical
ternary example, plus MAX/MIN/MEAN accepting multiple inputs ("we divide
them into different categories when they accept a different number of
inputs") — so ``max3`` and ``max4`` are distinct registry entries, exactly
as the paper prescribes.
"""

from __future__ import annotations

import numpy as np

from .base import Operator, register_operator


class ConditionalOp(Operator):
    """``a ? b : c`` — where ``a`` is truthy (nonzero) pick ``b`` else ``c``."""

    name = "cond"
    arity = 3
    commutative = False
    symbol = "cond"
    rowwise = True

    def apply(self, state, a, b, c):
        return np.where(np.asarray(a, dtype=np.float64) != 0, b, c)

    def abstract_transfer(self, domains, state=None):
        # The output is drawn from b or c; the condition only selects
        # (NaN is truthy under `!= 0`, so `a` never propagates).
        _, b, c = domains
        return (min(b[0], c[0]), max(b[1], c[1]), b[2] or c[2], b[3] or c[3])

    def format(self, *operands):
        return f"({operands[0]} ? {operands[1]} : {operands[2]})"


class _NaryReduceOp(Operator):
    """Base for MAX/MIN/MEAN at a fixed arity."""

    commutative = True
    rowwise = True
    degenerate_on_equal_children = True  # reduce(x, x, ...) == x
    reducer = None  # type: ignore[assignment]

    def abstract_transfer(self, domains, state=None):
        # max/min/mean all stay inside the hull of their inputs.
        return (
            min(d[0] for d in domains),
            max(d[1] for d in domains),
            any(d[2] for d in domains),
            any(d[3] for d in domains),
        )

    def apply(self, state, *cols):
        stacked = np.stack([np.asarray(c, dtype=np.float64) for c in cols], axis=0)
        return type(self).reducer(stacked, axis=0)


def _make_reduce(op_label: str, reducer, arity: int) -> Operator:
    cls = type(
        f"{op_label.capitalize()}{arity}Op",
        (_NaryReduceOp,),
        {
            "name": f"{op_label}{arity}",
            "symbol": f"{op_label}{arity}",
            "arity": arity,
            "reducer": staticmethod(reducer),
        },
    )
    return register_operator(cls())


NARY_OPERATORS = (register_operator(ConditionalOp()),) + tuple(
    _make_reduce(label, fn, arity)
    for label, fn in (("max", np.max), ("min", np.min), ("mean", np.mean))
    for arity in (3, 4)
)
