"""Seeded workload generator for the benchmark.

The generator is deliberately independent of ``repro.datasets``: a change
to the program must not be able to change the benchmark's inputs. The
program only ever receives the arrays built here (or ``.npy`` files and a
plan derived from them).

The table contents are fixed (drawn from :data:`TABLE_SEED`); the
workload seed permutes the training rows and draws the request traffic.
The in-memory fit's plan does not depend on row order, so every seed
asks the program for about the same amount of work while the bytes it
reads, the order it sums them in, the chunk boundaries and the requests
all change with the seed.
Drawing the contents from the seed instead would change the fitted plan
and with it the cost of a fit or a request by 10-20% from seed to seed,
more than the bounds the benchmark has to hold.

The table:

* ``x0 * x1``, ``x2 - x3`` and ``x4 / x5`` drive the label (``x5`` is
  bounded away from zero, so the division is well conditioned), plus
  Gaussian noise;
* ``x9`` is a noisy affine copy of ``x8`` (redundancy removal has
  something to remove);
* ``x10`` is heavy tailed (Student t with 1.5 degrees of freedom);
* ``x12`` has about 1% NaN cells;
* ``x11`` is constant.
"""

from __future__ import annotations

import numpy as np

N_COLS = 16
FIT_ROWS = 40_000
SERVE_FIT_ROWS = 10_000

#: Seed of the table contents (training tables and the served plan's
#: training table).
TABLE_SEED = 2020

#: Independent random streams.
TRAIN_STREAM = 0
SERVE_FIT_STREAM = 1
REQUEST_STREAM = 2
PERMUTATION_STREAM = 3


def column_names() -> "tuple[str, ...]":
    return tuple(f"x{i}" for i in range(N_COLS))


def make_features(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """The ``(n_rows, 16)`` feature block described in the module docstring."""
    X = rng.normal(size=(n_rows, N_COLS))
    X[:, 5] = rng.uniform(0.5, 2.0, size=n_rows) * rng.choice([-1.0, 1.0], size=n_rows)
    X[:, 9] = 3.0 * X[:, 8] - 1.0 + 0.05 * rng.normal(size=n_rows)
    X[:, 10] = rng.standard_t(1.5, size=n_rows)
    X[:, 11] = 7.0
    X[rng.random(n_rows) < 0.01, 12] = np.nan
    return X


def make_labels(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    """Balanced 0/1 label from the planted interactions plus noise."""
    z = (
        X[:, 0] * X[:, 1]
        + 1.5 * (X[:, 2] - X[:, 3])
        + 0.8 * X[:, 4] / X[:, 5]
        + 0.5 * rng.normal(size=X.shape[0])
    )
    return (z > np.median(z)).astype(np.float64)


def make_table(n_rows: int, stream: int = TRAIN_STREAM):
    """The fixed labeled table ``(X, y)`` of one stream."""
    rng = np.random.default_rng([TABLE_SEED, stream])
    X = make_features(rng, n_rows)
    return X, make_labels(rng, X)


def make_training_table(seed: int, n_rows: int):
    """The training table with its rows in the seed's order."""
    X, y = make_table(n_rows)
    order = np.random.default_rng([seed, PERMUTATION_STREAM]).permutation(n_rows)
    return X[order], y[order]


def make_requests(seed: int, n_rows: int) -> np.ndarray:
    """Unlabeled request rows with the training tables' distribution."""
    return make_features(np.random.default_rng([seed, REQUEST_STREAM]), n_rows)
