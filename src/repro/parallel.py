"""What is left of the process-pool layer (§IV-E.2).

The paper's industrial requirements include that "most parts of the
automatic feature engineering algorithm should be able to be calculated
in parallel". Here every fit runs serially in-process, and
``SAFEConfig(n_jobs=...)`` is validated but has no effect: on this
repo's benchmark no process pool, whether per in-memory stage or over
the out-of-core IV count pass, measured faster than the serial kernels,
so none is kept.

What remains, and why:

* :func:`parallel_stream_iv_counts` is the out-of-core fit's IV count
  pass. :mod:`repro.core.stream` calls it through this module's
  attribute, so the benchmark's traced run (``perfbench/spans.py``)
  times it as its ``parallel.shard`` span.
* :func:`parallel_information_values`, :func:`parallel_score_combinations`
  and :func:`parallel_generate_features` are serial stand-ins that
  nothing in the program calls; the traced run installs span wrappers
  on these names.
"""

from __future__ import annotations

# Never used here. The traced run subclasses this name to count pool
# starts (which read 0), and checks afterwards that it was restored.
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .exceptions import ConfigurationError
from .runtime.failpoints import failpoint

# Serial stand-ins for the removed pooled stages. Nothing in the program
# calls them; they stay only because the benchmark's traced run
# (perfbench/spans.py) installs span wrappers on these names.


def parallel_information_values(X, y, n_bins):
    """Per-column information values (serial)."""
    from .core.selection import information_values_safe

    return information_values_safe(X, y, n_bins)


def parallel_score_combinations(X, y, combos):
    """Algorithm 2 gain ratios (serial)."""
    from .core.scoring import score_combinations

    return score_combinations(X, y, combos)


def parallel_generate_features(*args, **kwargs):
    """Algorithm 1 line 6 generation (serial; ``generate_features``'s args)."""
    from .core.generation import generate_features

    return generate_features(*args, **kwargs)


def parallel_stream_iv_counts(
    data,
    expressions,
    edges_per_col,
    scorable: np.ndarray,
    stride: int,
) -> np.ndarray:
    """IV bin counts of the out-of-core fit, in one serial pass.

    Evaluates the candidate ``expressions`` over each chunk of ``data``
    (a :class:`~repro.tabular.ChunkedDataset`) and merges the chunks'
    :func:`~repro.metrics.batched.iv_bin_counts` partials in chunk
    order. Integer merges are exact, so the merged ``(2, n_cols,
    stride)`` counts equal the in-memory kernel's on the whole matrix.
    """
    from .core.stream import forest_chunks
    from .metrics.batched import iv_bin_counts, merge_counts

    failpoint("stream.shard.run")
    counts = None
    for _, block, y_chunk in forest_chunks(data, expressions)():
        pos_mask = np.asarray(y_chunk, dtype=np.float64).ravel() == 1
        part = iv_bin_counts(
            np.ascontiguousarray(block.T), pos_mask, edges_per_col, scorable, stride
        )
        counts = part if counts is None else merge_counts(counts, part)
    if counts is None:
        raise ConfigurationError("parallel_stream_iv_counts needs a non-empty dataset")
    return counts
