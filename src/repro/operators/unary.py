"""Unary operators: mathematical transforms, normalization, discretization.

These implement the Section III catalogue. Domain-restricted transforms
(log, sqrt, reciprocal) use the standard *protected* variants so generated
columns stay finite for arbitrary real inputs while remaining monotone on
the natural domain.
"""

from __future__ import annotations

import numpy as np

from ..tabular.binning import codes_from_edges, equal_frequency_edges, equal_width_edges
from ..utils import sigmoid
from .base import Operator, register_operator


class LogOp(Operator):
    """Signed log transform: ``sign(x) * log(1 + |x|)``."""

    name = "log"
    arity = 1
    symbol = "log"
    rowwise = True

    def apply(self, state, x):
        return np.sign(x) * np.log1p(np.abs(x))


class SqrtOp(Operator):
    """Signed square root: ``sign(x) * sqrt(|x|)``."""

    name = "sqrt"
    arity = 1
    symbol = "sqrt"
    rowwise = True

    def apply(self, state, x):
        return np.sign(x) * np.sqrt(np.abs(x))


class SquareOp(Operator):
    name = "square"
    arity = 1
    symbol = "square"
    rowwise = True
    abstract_bounds = (0.0, float("inf"))

    def apply(self, state, x):
        return x * x


class SigmoidOp(Operator):
    name = "sigmoid"
    arity = 1
    symbol = "sigmoid"
    rowwise = True
    abstract_bounds = (0.0, 1.0)

    def apply(self, state, x):
        return sigmoid(np.asarray(x, dtype=np.float64))


class TanhOp(Operator):
    name = "tanh"
    arity = 1
    symbol = "tanh"
    rowwise = True
    abstract_bounds = (-1.0, 1.0)

    def apply(self, state, x):
        return np.tanh(x)


class RoundOp(Operator):
    name = "round"
    arity = 1
    symbol = "round"
    rowwise = True

    def apply(self, state, x):
        return np.round(x)


class AbsOp(Operator):
    name = "abs"
    arity = 1
    symbol = "abs"
    rowwise = True
    abstract_bounds = (0.0, float("inf"))

    def apply(self, state, x):
        return np.abs(x)


class NegateOp(Operator):
    name = "neg"
    arity = 1
    symbol = "neg"
    rowwise = True

    def apply(self, state, x):
        return -np.asarray(x, dtype=np.float64)


class ReciprocalOp(Operator):
    """Protected reciprocal: ``1/x`` with ``x == 0`` mapping to 0."""

    name = "reciprocal"
    arity = 1
    symbol = "reciprocal"
    rowwise = True
    # Protected against exact 0 only; a subnormal input still overflows.
    introduces_inf = True

    def apply(self, state, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        nz = x != 0
        out[nz] = 1.0 / x[nz]
        return out


class ZScoreOp(Operator):
    """Z-score normalization; state carries the training mean/std."""

    name = "zscore"
    arity = 1
    symbol = "zscore"
    state_schema = ("mean", "std")

    def fit(self, x):
        finite = x[np.isfinite(x)]
        mean = float(finite.mean()) if finite.size else 0.0
        std = float(finite.std()) if finite.size else 1.0
        # A numerically constant column (np.full(n, 0.1)) has std ~1e-17
        # from summation rounding, not 0.0 — dividing by it turns a
        # constant feature into ±1e16 garbage. Same noise floor recipe
        # as `pearson_matrix`: treat std below it as constant.
        noise = (
            np.sqrt(max(finite.size, 1))
            * np.finfo(np.float64).eps
            * (abs(mean) + 1.0)
            * 16.0
        )
        return {"mean": mean, "std": std if std > noise else 1.0}

    def apply(self, state, x):
        state = state or {"mean": 0.0, "std": 1.0}
        return (x - state["mean"]) / state["std"]


class MinMaxOp(Operator):
    """Min-max normalization to [0, 1]; state carries training min/range."""

    name = "minmax"
    arity = 1
    symbol = "minmax"
    state_schema = ("min", "range")

    def fit(self, x):
        finite = x[np.isfinite(x)]
        lo = float(finite.min()) if finite.size else 0.0
        hi = float(finite.max()) if finite.size else 1.0
        rng = hi - lo
        return {"min": lo, "range": rng if rng > 0 else 1.0}

    def apply(self, state, x):
        state = state or {"min": 0.0, "range": 1.0}
        return (x - state["min"]) / state["range"]


class _DiscretizeBase(Operator):
    """Shared machinery for fitted-edges discretizers."""

    n_bins = 10
    state_schema = ("edges",)
    # Codes span 0..n_bins+1 (one extra bin catches missing values), so
    # NaN input maps to a finite code instead of propagating.
    abstract_bounds = (0.0, 11.0)
    absorbs_nan = True

    def apply(self, state, x):
        edges = np.asarray((state or {}).get("edges", []), dtype=np.float64)
        return codes_from_edges(np.asarray(x, dtype=np.float64), edges).astype(np.float64)


class EqualFrequencyDiscretizeOp(_DiscretizeBase):
    """Equal-frequency binning into (up to) 10 integer codes."""

    name = "disc_eqfreq"
    arity = 1
    symbol = "disc_eqfreq"

    def fit(self, x):
        return {"edges": equal_frequency_edges(x, self.n_bins).tolist()}


class EqualWidthDiscretizeOp(_DiscretizeBase):
    """Equidistant binning into (up to) 10 integer codes."""

    name = "disc_eqwidth"
    arity = 1
    symbol = "disc_eqwidth"

    def fit(self, x):
        return {"edges": equal_width_edges(x, self.n_bins).tolist()}


UNARY_OPERATORS = tuple(
    register_operator(cls())
    for cls in (
        LogOp,
        SqrtOp,
        SquareOp,
        SigmoidOp,
        TanhOp,
        RoundOp,
        AbsOp,
        NegateOp,
        ReciprocalOp,
        ZScoreOp,
        MinMaxOp,
        EqualFrequencyDiscretizeOp,
        EqualWidthDiscretizeOp,
    )
)
