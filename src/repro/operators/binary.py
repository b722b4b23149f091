"""Binary operators: arithmetic, logical connectives, GroupByThen*.

The four basic arithmetic operators are the Section V experiment set.
Division is *protected* (zero denominators produce 0) so generated columns
stay finite; the paper treats ``÷`` as non-commutative, which the
generation stage honours by emitting both argument orders.

Logical connectives follow Section III's catalogue and operate on
booleanized inputs (nonzero ⇒ true), yielding 0/1 columns.

GroupByThen* operators mirror their SQL namesakes: the first argument is
the *grouping key* (discretized to equal-frequency bins at fit time) and
the second is the *value* whose per-group statistic is emitted. Fitted
state stores the bin edges and the per-group statistics so transform works
row-at-a-time at serving time (real-time inference requirement).
"""

from __future__ import annotations

import numpy as np

from ..tabular.binning import codes_from_edges, equal_frequency_edges
from .base import Operator, register_operator


class AddOp(Operator):
    name = "add"
    arity = 2
    commutative = True
    symbol = "+"
    rowwise = True
    # add(x, x) is 2x: linearly redundant with its child.
    degenerate_on_equal_children = True

    def apply(self, state, a, b):
        return a + b


class SubOp(Operator):
    name = "sub"
    arity = 2
    commutative = False
    symbol = "-"
    rowwise = True
    degenerate_on_equal_children = True  # x - x == 0

    def apply(self, state, a, b):
        return a - b


class MulOp(Operator):
    name = "mul"
    arity = 2
    commutative = True
    symbol = "*"
    rowwise = True

    def apply(self, state, a, b):
        return a * b


class DivOp(Operator):
    """Protected division: zero denominators yield 0."""

    name = "div"
    arity = 2
    commutative = False
    symbol = "/"
    rowwise = True
    # Protected against exact 0 only; a subnormal denominator overflows.
    introduces_inf = True
    degenerate_on_equal_children = True  # x / x is 1 (or 0 at x == 0)

    def apply(self, state, a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(b.shape, dtype=np.float64)
        nz = b != 0
        out[nz] = a[nz] / b[nz]
        return out


def _boolean(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) != 0


class _LogicalOp(Operator):
    """Base for two-place logical connectives over booleanized inputs."""

    arity = 2
    rowwise = True
    abstract_bounds = (0.0, 1.0)
    # `x != 0` is defined for NaN (False), and every connective of a
    # subtree with itself collapses to a constant or to the child.
    absorbs_nan = True
    degenerate_on_equal_children = True

    def table(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, state, a, b):
        return self.table(_boolean(a), _boolean(b)).astype(np.float64)


class AndOp(_LogicalOp):
    name = "and"
    commutative = True
    symbol = "and"

    def table(self, p, q):
        return p & q


class OrOp(_LogicalOp):
    name = "or"
    commutative = True
    symbol = "or"

    def table(self, p, q):
        return p | q


class NandOp(_LogicalOp):
    """Alternative denial (Sheffer stroke)."""

    name = "nand"
    commutative = True
    symbol = "nand"

    def table(self, p, q):
        return ~(p & q)


class NorOp(_LogicalOp):
    """Joint denial."""

    name = "nor"
    commutative = True
    symbol = "nor"

    def table(self, p, q):
        return ~(p | q)


class ImpliesOp(_LogicalOp):
    """Material conditional ``p -> q``."""

    name = "implies"
    commutative = False
    symbol = "implies"

    def table(self, p, q):
        return ~p | q


class ConverseOp(_LogicalOp):
    """Converse implication ``p <- q``."""

    name = "converse"
    commutative = False
    symbol = "converse"

    def table(self, p, q):
        return p | ~q


class IffOp(_LogicalOp):
    """Biconditional ``p <-> q``."""

    name = "iff"
    commutative = True
    symbol = "iff"

    def table(self, p, q):
        return ~(p ^ q)


class XorOp(_LogicalOp):
    name = "xor"
    commutative = True
    symbol = "xor"

    def table(self, p, q):
        return p ^ q


class _GroupByThenOp(Operator):
    """Base for SQL-style GroupByThen<stat>(key, value) operators."""

    arity = 2
    commutative = False
    n_key_bins = 10
    state_schema = ("edges", "groups", "fallback")
    # Output values come from the fitted table, not the serve columns:
    # non-finite serve input selects a bin, it never reaches the output.
    absorbs_nan = True
    absorbs_inf = True

    @staticmethod
    def _stat(values: np.ndarray) -> float:
        raise NotImplementedError

    def fit(self, key, value):
        key = np.asarray(key, dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)
        edges = equal_frequency_edges(key, self.n_key_bins)
        codes = codes_from_edges(key, edges)
        groups: dict[int, float] = {}
        for code in np.unique(codes):
            groups[int(code)] = float(self._stat(value[codes == code]))
        finite_vals = value[np.isfinite(value)]
        fallback = float(self._stat(finite_vals)) if finite_vals.size else 0.0
        return {
            "edges": edges.tolist(),
            "groups": {str(k): v for k, v in groups.items()},
            "fallback": fallback,
        }

    def apply(self, state, key, value):
        state = state or {"edges": [], "groups": {}, "fallback": 0.0}
        edges = np.asarray(state["edges"], dtype=np.float64)
        codes = codes_from_edges(np.asarray(key, dtype=np.float64), edges)
        # Codes are bounded by len(edges) + 1 (the missing-value code), so
        # a dense lookup table replaces the per-row dict scan.
        table = np.full(edges.size + 2, float(state["fallback"]))
        for code_str, stat in state["groups"].items():
            code = int(code_str)
            if 0 <= code < table.size:
                table[code] = stat
        return table[codes]


class GroupByThenMaxOp(_GroupByThenOp):
    name = "groupby_max"
    symbol = "groupby_max"

    @staticmethod
    def _stat(values):
        finite = values[np.isfinite(values)]
        return finite.max() if finite.size else 0.0


class GroupByThenMinOp(_GroupByThenOp):
    name = "groupby_min"
    symbol = "groupby_min"

    @staticmethod
    def _stat(values):
        finite = values[np.isfinite(values)]
        return finite.min() if finite.size else 0.0


class GroupByThenAvgOp(_GroupByThenOp):
    name = "groupby_avg"
    symbol = "groupby_avg"

    @staticmethod
    def _stat(values):
        finite = values[np.isfinite(values)]
        return finite.mean() if finite.size else 0.0


class GroupByThenStdevOp(_GroupByThenOp):
    name = "groupby_std"
    symbol = "groupby_std"

    @staticmethod
    def _stat(values):
        finite = values[np.isfinite(values)]
        return finite.std() if finite.size else 0.0


class GroupByThenCountOp(_GroupByThenOp):
    name = "groupby_count"
    symbol = "groupby_count"

    @staticmethod
    def _stat(values):
        return float(values.size)


BINARY_OPERATORS = tuple(
    register_operator(cls())
    for cls in (
        AddOp,
        SubOp,
        MulOp,
        DivOp,
        AndOp,
        OrOp,
        NandOp,
        NorOp,
        ImpliesOp,
        ConverseOp,
        IffOp,
        XorOp,
        GroupByThenMaxOp,
        GroupByThenMinOp,
        GroupByThenAvgOp,
        GroupByThenStdevOp,
        GroupByThenCountOp,
    )
)
