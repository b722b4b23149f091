"""RAND and IMP — the paper's own ablation baselines (§V-A.1).

* **RAND** randomly selects γ feature combinations from *all* original
  features.
* **IMP** (SAFE-Important) randomly selects γ combinations from the
  *split features* of a trained XGBoost model, isolating the value of the
  "split features matter" assumption from the full same-path mining.

Both share SAFE's operator application and three-stage selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import SAFEConfig
from ..core.generation import fit_mining_model
from ..core.transform import FeatureTransformer
from ..exceptions import DataError
from ..tabular.dataset import Dataset
from ..tabular.preprocess import clean_matrix
from ..utils import check_random_state
from .common import pairs_to_combinations, run_generation_and_selection, sample_combinations
from ..core.interface import AutoFeatureEngineer


@dataclass
class RandomGenerator(AutoFeatureEngineer):
    """RAND: γ uniformly random combinations over all original features."""

    config: SAFEConfig = field(default_factory=SAFEConfig)
    name: str = "RAND"

    def _feature_pool(self, train: Dataset, valid: "Dataset | None") -> list[int]:
        return list(range(train.n_cols))

    def fit(
        self, train: Dataset, valid: "Dataset | None" = None
    ) -> FeatureTransformer:
        cfg = self.config
        rng = check_random_state(cfg.random_state)
        pool = self._feature_pool(train, valid)
        if not pool:
            raise DataError(f"{self.name}: empty feature pool")
        size = min(2, len(pool))  # binary combinations, as in §V
        pairs = (
            sample_combinations(pool, size=size, gamma=cfg.gamma, rng=rng)
            if size == 2
            else []
        )
        # Unary combinations for any unary operators in the set.
        singles = [(f,) for f in pool]
        ranked = pairs_to_combinations(pairs + singles)
        return run_generation_and_selection(ranked, cfg, train, self.name)


@dataclass
class ImportantGenerator(RandomGenerator):
    """IMP: like RAND, but the pool is the mining model's split features."""

    name: str = "IMP"

    def _feature_pool(self, train: Dataset, valid: "Dataset | None") -> list[int]:
        cfg = self.config
        y = train.require_labels()
        model = fit_mining_model(
            clean_matrix(train.X),
            y,
            n_estimators=cfg.mining_n_estimators,
            max_depth=cfg.mining_max_depth,
            learning_rate=cfg.mining_learning_rate,
            random_state=cfg.random_state,
        )
        pool = sorted(model.split_features())
        if len(pool) < 2:  # fall back to all features on degenerate models
            pool = list(range(train.n_cols))
        return pool
