"""Configuration for the SAFE pipeline (Algorithm 1 hyper-parameters).

The paper's "strong applicability" requirement means hyper-parameters only
control *complexity*, not behaviour: iteration budget, tree counts/depths
of the two internal XGBoost models, the combination budget γ, and the two
selection thresholds α (IV) and θ (Pearson) whose defaults come straight
from Tables I and II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError
from ..metrics.information import DEFAULT_IV_THRESHOLD, DEFAULT_PEARSON_THRESHOLD
from ..operators.base import PAPER_OPERATOR_SET, resolve_operators


@dataclass(frozen=True)
class SAFEConfig:
    """All knobs of the SAFE procedure, with the paper's defaults.

    Parameters
    ----------
    operators:
        Names of registered operators used in the generation stage.
        Defaults to the paper's experimental set {+, −, ×, ÷}. Unary
        operators apply to single split features; binary operators to
        feature pairs mined from tree paths; ternary to triples.
    n_iterations:
        ``nIter`` of Algorithm 1.
    time_budget_seconds:
        ``tIter`` of Algorithm 1 — the loop exits when either budget is
        exhausted. ``None`` disables the wall-clock bound.
    gamma:
        Number of top feature combinations (by information gain ratio)
        kept for generation (Algorithm 2's γ).
    max_combination_size:
        Largest combination arity mined from paths (2 = pairs, matching
        the binary-operator experiments; 3 enables ternary operators).
    max_output_features:
        Cap on features returned per iteration. ``None`` means the paper's
        ``2 * M`` (twice the original feature count).
    iv_threshold, iv_bins:
        α and β of Algorithm 3 (defaults 0.1 and 10).
    pearson_threshold:
        θ of Algorithm 4 (default 0.8).
    mining_*:
        Size of the combination-mining GBM (K₁/D₁ in the complexity
        analysis — the lever Eq. 13 says controls total cost).
    ranking_*:
        Size of the importance-ranking GBM (K₂/D₂). Equal mining and
        ranking sizes (and ``mining_learning_rate`` equal to the GBM
        default 0.3, as by default) let iteration t+1 reuse iteration
        t's ranking trees as its mining trees whenever a refit would
        grow them again, which skips up to k − 1 of a k-iteration fit's
        2k GBM fits (see :mod:`repro.boosting.carry`).
    keep_originals:
        Always retain original features in the candidate pool (they can
        still be dropped by selection, as in the paper).
    n_jobs:
        Validated (``>= 1``, or ``-1``) but has no effect: every fit runs
        serially in-process (see :mod:`repro.parallel`). Config
        fingerprints hash it as 1, so a checkpoint resumes at any
        ``n_jobs`` (see :func:`repro.runtime.checkpoint.config_fingerprint`).
    on_operator_error:
        ``"quarantine"`` (default) removes an expression whose operator
        raises — or whose generated column has no finite value — from
        the iteration, records it on the
        :class:`~repro.runtime.RuntimeReport`, and continues the fit;
        ``"raise"`` restores strict fail-fast semantics (the fault
        aborts the fit).
    sketch:
        Quantile-edge mode of the out-of-core streaming fit (only
        consulted when ``fit`` receives a
        :class:`~repro.tabular.ChunkedDataset`). ``"merge"`` (default)
        builds equal-frequency edges from bounded-memory mergeable
        sketches: an n-row column's edges lie within O(n / capacity)
        ranks of the exact ones (the tests allow 10·n/capacity; at the
        default capacity of 4096, 64-bin edges of 40k-row columns
        measured up to 42 ranks off). ``"exact"`` streams full sorted
        columns in batched passes — more memory and passes, but every
        edge (and hence the kept Ψ) is bit-identical to the in-memory
        fit, which is what the parity gates run.
    random_state:
        Seed for all internal randomness.
    """

    operators: tuple[str, ...] = PAPER_OPERATOR_SET
    n_iterations: int = 1
    time_budget_seconds: "float | None" = None
    gamma: int = 50
    max_combination_size: int = 2
    max_output_features: "int | None" = None
    iv_threshold: float = DEFAULT_IV_THRESHOLD
    iv_bins: int = 10
    pearson_threshold: float = DEFAULT_PEARSON_THRESHOLD
    mining_n_estimators: int = 20
    mining_max_depth: int = 4
    mining_learning_rate: float = 0.3
    ranking_n_estimators: int = 20
    ranking_max_depth: int = 4
    keep_originals: bool = True
    n_jobs: int = 1
    on_operator_error: str = "quarantine"
    sketch: str = "merge"
    random_state: "int | None" = 0

    def __post_init__(self) -> None:
        if self.n_iterations < 1:
            raise ConfigurationError("n_iterations must be >= 1")
        if self.time_budget_seconds is not None and self.time_budget_seconds <= 0:
            raise ConfigurationError("time_budget_seconds must be positive")
        if self.gamma < 1:
            raise ConfigurationError("gamma must be >= 1")
        if not 1 <= self.max_combination_size <= 4:
            raise ConfigurationError("max_combination_size must be in [1, 4]")
        if self.max_output_features is not None and self.max_output_features < 1:
            raise ConfigurationError("max_output_features must be >= 1")
        if self.iv_threshold < 0:
            raise ConfigurationError("iv_threshold must be >= 0")
        if self.iv_bins < 2:
            raise ConfigurationError("iv_bins must be >= 2")
        if not 0 < self.pearson_threshold <= 1:
            raise ConfigurationError("pearson_threshold must be in (0, 1]")
        if min(self.mining_n_estimators, self.ranking_n_estimators) < 1:
            raise ConfigurationError("internal GBM tree counts must be >= 1")
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1 or -1 for all cores")
        if self.on_operator_error not in ("quarantine", "raise"):
            raise ConfigurationError(
                "on_operator_error must be 'quarantine' or 'raise'"
            )
        if self.sketch not in ("merge", "exact"):
            raise ConfigurationError("sketch must be 'merge' or 'exact'")
        # Fail fast on unknown operator names.
        resolve_operators(self.operators)
