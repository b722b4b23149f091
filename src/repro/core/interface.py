"""Common interface implemented by SAFE and every baseline method.

Each automatic feature engineering method is an object with a ``name``
and a ``fit(train, valid=None) -> FeatureTransformer`` method, so the
experiment harness can treat ORIG / FCTree / TFC / RAND / IMP / SAFE
uniformly.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

from ..exceptions import DataError
from ..tabular.dataset import Dataset
from .transform import FeatureTransformer


def check_valid(train, valid: "Dataset | None") -> None:
    """Raise :class:`DataError` when ``valid``'s width differs from
    ``train``'s, in memory (:class:`Dataset`) or chunked
    (:class:`~repro.tabular.ChunkedDataset`) alike."""
    if valid is not None and valid.n_cols != train.n_cols:
        raise DataError(
            f"validation set has {valid.n_cols} columns, "
            f"training set has {train.n_cols}"
        )


class AutoFeatureEngineer(ABC):
    """Base class for automatic feature engineering methods.

    Every subclass's ``fit`` runs :func:`check_valid` before its body.
    """

    #: Short display name used in experiment tables ("SAFE", "FCT", ...).
    name: str = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fit = cls.__dict__.get("fit")
        if fit is None:
            return

        @functools.wraps(fit)
        def checked_fit(self, train, valid=None, *args, **kwargs):
            check_valid(train, valid)
            return fit(self, train, valid, *args, **kwargs)

        cls.fit = checked_fit

    @abstractmethod
    def fit(
        self, train: Dataset, valid: "Dataset | None" = None
    ) -> FeatureTransformer:
        """Learn a feature-generation function Ψ from labeled data.

        ``valid`` is checked and otherwise unused: no method here tunes
        on a validation set. Every method raises
        :class:`~repro.exceptions.DataError` through :func:`check_valid`
        when its column count differs from ``train``'s. The harness and
        ``repro fit --valid`` pass it so every method sees the same call.

        Implementations may additionally accept a
        :class:`~repro.tabular.ChunkedDataset` as ``train`` to fit out
        of core from a row stream (SAFE does; see
        :mod:`repro.core.stream`) — the returned transformer is the same
        servable Ψ either way, and ``valid`` is checked the same way.
        """

    def fit_transform(
        self, train: Dataset, valid: "Dataset | None" = None
    ) -> "tuple[FeatureTransformer, Dataset]":
        """Convenience: fit Ψ and apply it to the training set."""
        transformer = self.fit(train, valid)
        return transformer, transformer.transform(train)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
