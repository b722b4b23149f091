"""Expression-evaluation engine: CSE-cached, column-at-a-time forest evaluation.

The scalar path (:meth:`Expression.evaluate`) re-walks every tree from the
leaves for each evaluation — each :class:`Var` re-casts the whole input
matrix and each shared subtree is recomputed once per parent. That is fine
as an audited reference but quadratic-ish in practice: the pipeline
evaluates the same trees while fitting operators (``fit_applied``) and
again to build the candidate pool.

:class:`EvalCache` memoizes subtree *columns* for **one** input matrix:

* the ``float64`` cast/reshape of the matrix happens once, in
  ``__init__``, instead of once per ``Var`` evaluation;
* each distinct subtree is computed exactly once and shared by every
  expression that contains it (common-subexpression elimination);
* :func:`evaluate_forest` preallocates the ``(n, k)`` output block and
  fills it from the cache;
* every operator kernel runs on 1-D child columns, one expression at a
  time; generation fills the cache through :func:`batch_populate_cache`
  the same way, so no ``(n, m)`` block of child columns is stacked and
  no output is copied back out of one.

Cache key / invalidation contract
---------------------------------
The memo key is :attr:`Expression.key` — the canonical rendering of the
tree over ``x{i}`` placeholders. The key does **not** encode fitted
operator state, so the cache additionally remembers a *state signature*
of the whole producing tree (every :class:`Applied` node's ``state``,
root and descendants, rendered once per expression object) and
recomputes on a hit whose signature differs — two same-shaped trees
fitted on different data never share a column. Third-party
:class:`Expression` subclasses are assumed stateless (their identity
must be fully carried by ``key``). Within one SAFE fit the guard never
fires: generation dedups by key and every fit sees the same training
matrix, so equal keys imply equal state.

A cache is bound to the matrix passed at construction and must never be
used with another matrix — there is no content invalidation. Create one
cache per matrix (the in-memory fit keeps one, for the training matrix,
alive across iterations) and call
:meth:`EvalCache.retain` to prune entries no longer reachable from the
surviving expressions when memory matters.

Results are bit-identical to the scalar reference: the engine calls the
same ``Operator.apply`` kernels on the same (cached) child columns.
"""

from __future__ import annotations

import json

import numpy as np

from ..analysis.registry import batched_kernel, inplace_mutator
from ..exceptions import SchemaError
from .expressions import Applied, Expression, Var

_MISSING = object()


def _state_signature(expr: Expression) -> "tuple | None":
    """Hashable rendering of every fitted state in the tree (None when the
    whole subtree is stateless — the common case). Cached on the
    expression object, which is immutable."""
    sig = expr.__dict__.get("_state_sig", _MISSING)
    if sig is not _MISSING:
        return sig
    sig = None
    if isinstance(expr, Applied):
        child_sigs = tuple(_state_signature(c) for c in expr.children)
        if expr.state is not None or any(s is not None for s in child_sigs):
            sig = (json.dumps(expr.state, sort_keys=True), child_sigs)
    object.__setattr__(expr, "_state_sig", sig)
    return sig


def prepare_matrix(X: np.ndarray) -> np.ndarray:
    """The one float64 cast + single-row reshape shared by the engine."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    return X


class EvalCache:
    """Memo of expression-subtree columns for one input matrix.

    See the module docstring for the key/invalidation contract.
    """

    def __init__(self, X: np.ndarray) -> None:
        self.X = prepare_matrix(X)
        self._columns: dict[str, np.ndarray] = {}
        self._states: dict[str, "dict | None"] = {}

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, expr: Expression) -> bool:
        return expr.key in self._columns

    # ------------------------------------------------------------------
    def column(self, expr: Expression) -> np.ndarray:
        """The expression's column on the bound matrix, computed at most once."""
        key = expr.key
        col = self._columns.get(key)
        if col is not None and self._states.get(key) != _state_signature(expr):
            col = None  # same key, different fitted state: do not share
        if col is None:
            col = self._compute(expr)
            self._columns[key] = col
            self._states[key] = _state_signature(expr)
        return col

    def retain(self, expressions: "list[Expression] | tuple[Expression, ...]") -> None:
        """Drop every entry not reachable from ``expressions``."""
        keep: set[str] = set()
        stack: list[Expression] = list(expressions)
        while stack:
            expr = stack.pop()
            if expr.key in keep:
                continue
            keep.add(expr.key)
            if isinstance(expr, Applied):
                stack.extend(expr.children)
        self._columns = {k: v for k, v in self._columns.items() if k in keep}
        self._states = {k: v for k, v in self._states.items() if k in keep}

    # ------------------------------------------------------------------
    def _compute(self, expr: Expression) -> np.ndarray:
        if isinstance(expr, Var):
            if not 0 <= expr.index < self.X.shape[1]:
                raise SchemaError(
                    f"expression references column {expr.index}, "
                    f"input has {self.X.shape[1]}"
                )
            return self.X[:, expr.index]
        if isinstance(expr, Applied):
            cols = [self.column(child) for child in expr.children]
            return np.asarray(
                expr.operator.apply(expr.state, *cols), dtype=np.float64
            )
        # Third-party Expression subclass: audited scalar path, still cached.
        return np.asarray(expr.evaluate(self.X), dtype=np.float64)


@batched_kernel(oracle="evaluate_expressions")
@inplace_mutator
def batch_populate_cache(
    cache: EvalCache, expressions: "list[Expression]"
) -> None:
    """Materialize the columns of ``expressions`` in ``cache``.

    One :meth:`EvalCache.column` per expression: each operator kernel runs
    on 1-D child columns, so no ``(n, m)`` block of children is stacked
    and no output is copied back out of one. Columns already cached are
    kept. Used by ``generate_features`` for the stateless expressions of
    an iteration.
    """
    for expr in expressions:
        cache.column(expr)


@batched_kernel(oracle="evaluate_expressions")
def evaluate_forest(
    expressions: "list[Expression]",
    X: "np.ndarray | None" = None,
    cache: "EvalCache | None" = None,
) -> np.ndarray:
    """Evaluate a forest into an ``(n, k)`` block with shared subtrees.

    Pass ``cache`` to reuse (and extend) columns already materialized for
    the same matrix, or pass ``X`` to evaluate against a fresh matrix —
    exactly one of the two (a cache is bound to its own matrix). Output
    is bit-identical to :func:`repro.operators.evaluate_expressions`.
    """
    if cache is None:
        if X is None:
            raise ValueError("evaluate_forest needs a matrix or an EvalCache")
        cache = EvalCache(X)
    elif X is not None:
        raise ValueError(
            "evaluate_forest takes a matrix or an EvalCache, not both; "
            "the cache is bound to the matrix it was built from"
        )
    # Fortran order: each column fill is one contiguous copy.
    out = np.empty((cache.X.shape[0], len(expressions)), dtype=np.float64, order="F")
    for j, expr in enumerate(expressions):
        out[:, j] = cache.column(expr)
    return out
