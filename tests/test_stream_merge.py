"""Merge-property suite for every registered ``@chunk_mergeable`` kernel.

The out-of-core fit rests on one algebraic claim per kernel: for any
chunking of the rows,

    merge(partial(chunk_1), ..., partial(chunk_m)) == partial(all rows)

bit-identically when the contract declares ``exact=True`` (integer
counts, exact min/max), and to <=1e-9 relative when float sums
re-associate (``exact=False``). Every kernel in ``MERGEABLE_REGISTRY``
must have a case here — the completeness test fails when a new kernel
is registered without one — and each case also finalizes the merged
statistic and checks it against the kernel's scalar oracle
(``information_value`` / ``information_gain_ratio`` / ``pearson_matrix``
/ ``feature_histogram`` / ``equal_frequency_edges``), so the streamed
path is anchored to the audited in-memory semantics, not just to
itself.

Chunkings exercised per case: one chunk of all ``n`` rows, ``n`` chunks
of one row (maximal re-association), and hypothesis-drawn ragged
chunkings; matrices carry NaN/inf cells and a constant column.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.registry import MERGEABLE_REGISTRY
from repro.boosting.histogram import (
    feature_histogram,
    level_histogram_partial,
    merge_histograms,
)
from repro.core.generation import Combination
from repro.core.redundancy import (
    centered_gram_partial,
    column_moments_partial,
    correlations_from_gram,
    merge_column_moments,
    merge_grams,
)
from repro.core.scoring import (
    combination_count_partial,
    gain_ratio_from_combination_counts,
    merge_combination_counts,
)
from repro.metrics.batched import (
    gain_ratio_from_counts,
    iv_bin_counts,
    iv_from_counts,
    labeled_cell_counts,
    merge_counts,
)
from repro.metrics.information import (
    cells_from_split_values,
    entropy_from_counts,
    information_gain_ratio,
    information_value,
    pearson_matrix,
)
from repro.tabular.binning import (
    QuantileSketch,
    equal_frequency_edges,
    merge_quantile_sketches,
    quantile_sketch_partial,
)
from repro.tabular.preprocess import clean_matrix

N_ROWS = 60
N_COLS = 4


def _awkward_matrix(rng, n=N_ROWS, k=N_COLS) -> np.ndarray:
    """Normal data with a constant column plus NaN/inf contamination."""
    X = rng.normal(size=(n, k))
    X[:, 0] = 1.5
    X[rng.random(size=(n, k)) < 0.05] = np.nan
    X[rng.random(size=(n, k)) < 0.02] = np.inf
    return X


def _labels(rng, n=N_ROWS) -> np.ndarray:
    y = (rng.random(n) < 0.5).astype(np.float64)
    y[0], y[1] = 0.0, 1.0  # both classes guaranteed
    return y


def _slices(chunk_sizes):
    lo = 0
    for size in chunk_sizes:
        yield slice(lo, lo + size)
        lo += size


def _merged(partial_fn, merge, chunk_sizes):
    parts = [partial_fn(sl) for sl in _slices(chunk_sizes)]
    return functools.reduce(merge, parts)


# ---------------------------------------------------------------------------
# One case per registered kernel. Each callable gets (rng, chunk_sizes)
# covering sum(chunk_sizes) == N_ROWS and asserts the merge property plus
# finalize-vs-oracle parity.
# ---------------------------------------------------------------------------


def _case_iv_bin_counts(rng, chunk_sizes):
    X = rng.normal(size=(N_ROWS, N_COLS))  # oracle parity needs finite cols
    y = _labels(rng)
    pos = y == 1
    n_bins = 5
    edges = [equal_frequency_edges(X[:, j], n_bins) for j in range(N_COLS)]
    stride = max(e.size for e in edges) + 2
    scorable = np.ones(N_COLS, dtype=bool)

    def partial(sl):
        return iv_bin_counts(
            np.ascontiguousarray(X[sl].T), pos[sl], edges, scorable, stride
        )

    whole = partial(slice(None))
    merged = _merged(partial, merge_counts, chunk_sizes)
    assert np.array_equal(merged, whole)  # exact contract: integer counts

    n_pos = int(pos.sum())
    ivs = iv_from_counts(merged[0], merged[1], n_pos, N_ROWS - n_pos, scorable)
    oracle = [information_value(X[:, j], y, n_bins=n_bins) for j in range(N_COLS)]
    np.testing.assert_allclose(ivs, oracle, rtol=1e-9, atol=1e-12)


def _case_labeled_cell_counts(rng, chunk_sizes):
    y = _labels(rng)
    cells = rng.integers(0, 6, size=N_ROWS)
    labeled = 2 * cells + (y == 1).astype(np.int64)
    n_codes = 2 * 6

    def partial(sl):
        return labeled_cell_counts(labeled[sl], n_codes)

    whole = partial(slice(None))
    merged = _merged(partial, merge_counts, chunk_sizes)
    assert np.array_equal(merged, whole)

    base = entropy_from_counts(np.array([(y != 1).sum(), (y == 1).sum()]))
    streamed = gain_ratio_from_counts(merged, N_ROWS, base)
    oracle = information_gain_ratio(y, cells)
    np.testing.assert_allclose(streamed, oracle, rtol=1e-9, atol=1e-12)


def _case_combination_counts(rng, chunk_sizes):
    X = _awkward_matrix(rng)
    y = _labels(rng)
    combos = [
        Combination(features=(), split_values=()),  # -> None partial
        Combination(features=(1,), split_values=((0.0, 0.7),)),
        Combination(features=(1, 2), split_values=((0.0,), (-0.5, 0.5))),
        Combination(features=(2, 3), split_values=((0.1,), (0.2, 0.9))),
    ]
    dense_limit = 9  # dense for the 1-feature combo, sparse for the pairs

    def partial(sl):
        return combination_count_partial(X[sl], y[sl], combos, dense_limit)

    whole = partial(slice(None))
    merged = _merged(partial, merge_combination_counts, chunk_sizes)
    assert merged[0] is None and whole[0] is None
    for m, w in zip(merged[1:], whole[1:]):
        assert m[0] == w[0]
        for a, b in zip(m[1:], w[1:]):
            assert np.array_equal(a, b)

    base = entropy_from_counts(np.array([(y != 1).sum(), (y == 1).sum()]))
    streamed = gain_ratio_from_combination_counts(merged, N_ROWS, base)
    for score, combo in zip(streamed[1:], combos[1:]):
        cells = cells_from_split_values(
            X, combo.features, [np.asarray(v) for v in combo.split_values]
        )
        oracle = information_gain_ratio(y, cells)
        np.testing.assert_allclose(score, oracle, rtol=1e-9, atol=1e-12)


def _case_level_histogram(rng, chunk_sizes):
    stride = 8
    codes = rng.integers(0, stride - 1, size=(N_ROWS, N_COLS))
    grad = rng.normal(size=N_ROWS)
    hess = np.abs(rng.normal(size=N_ROWS)) + 0.1

    def partial(sl):
        return level_histogram_partial(
            codes[sl], None, grad[sl], hess[sl], 1, stride
        )

    whole = partial(slice(None))
    merged = _merged(partial, merge_histograms, chunk_sizes)
    np.testing.assert_allclose(merged[:2], whole[:2], rtol=1e-9, atol=1e-12)
    assert np.array_equal(merged[2], whole[2])  # count channel is exact

    for j in range(N_COLS):
        g, h, c = feature_histogram(codes[:, j], grad, hess, stride)
        np.testing.assert_allclose(merged[0, 0, j], g, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(merged[1, 0, j], h, rtol=1e-9, atol=1e-12)
        assert np.array_equal(merged[2, 0, j], c)


def _case_column_moments(rng, chunk_sizes):
    F = _awkward_matrix(rng)

    def partial(sl):
        return column_moments_partial(F[sl])

    whole = partial(slice(None))
    merged = _merged(partial, merge_column_moments, chunk_sizes)
    assert np.array_equal(merged[0], whole[0])
    np.testing.assert_allclose(
        merged[1:], whole[1:], rtol=1e-9, atol=1e-12, equal_nan=True
    )

    # Zero-row chunks contribute the documented reduction identities.
    empty = column_moments_partial(F[:0])
    np.testing.assert_array_equal(
        merge_column_moments(empty, whole), whole
    )


def _case_centered_gram(rng, chunk_sizes):
    F = clean_matrix(_awkward_matrix(rng))
    moments = _merged(
        lambda sl: column_moments_partial(F[sl]), merge_column_moments, chunk_sizes
    )
    mean = moments[1] / moments[0]
    scale = np.maximum(moments[2], -moments[3])

    def partial(sl):
        return centered_gram_partial(F[sl], mean)

    whole = partial(slice(None))
    merged = _merged(partial, merge_grams, chunk_sizes)
    np.testing.assert_allclose(merged, whole, rtol=1e-9, atol=1e-12)

    corr = correlations_from_gram(merged, scale, N_ROWS)
    np.testing.assert_allclose(corr, pearson_matrix(F), rtol=1e-9, atol=1e-9)


def _case_quantile_sketch(rng, chunk_sizes):
    x = _awkward_matrix(rng)[:, 1]  # NaN/inf contaminated column
    n_bins = 5

    def partial(sl):
        return quantile_sketch_partial(x[sl], capacity=None)

    whole = partial(slice(None))
    merged = _merged(partial, merge_quantile_sketches, chunk_sizes)
    # Exact contract: unbounded sketches answer bit-identically to the
    # in-memory sort, chunking-independently.
    assert np.array_equal(merged.edges(n_bins), whole.edges(n_bins))
    assert np.array_equal(merged.edges(n_bins), equal_frequency_edges(x, n_bins))
    assert merged.n_finite == int(np.isfinite(x).sum())
    finite = x[np.isfinite(x)]
    if finite.size:
        assert merged.min == finite.min() and merged.max == finite.max()


CASES = {
    "iv_bin_counts": _case_iv_bin_counts,
    "labeled_cell_counts": _case_labeled_cell_counts,
    "combination_count_partial": _case_combination_counts,
    "level_histogram_partial": _case_level_histogram,
    "column_moments_partial": _case_column_moments,
    "centered_gram_partial": _case_centered_gram,
    "quantile_sketch_partial": _case_quantile_sketch,
}


def test_every_registered_mergeable_kernel_has_a_case():
    registered = {c.func_name for c in MERGEABLE_REGISTRY.values()}
    assert registered == set(CASES), (
        "MERGEABLE_REGISTRY and the merge-property suite drifted apart: "
        f"registry-only={registered - set(CASES)}, "
        f"suite-only={set(CASES) - registered}"
    )


@pytest.mark.parametrize("kernel", sorted(CASES))
@pytest.mark.parametrize(
    "chunking", ["single", "rows", "ragged"], ids=["1xn", "nx1", "ragged"]
)
def test_merge_matches_single_pass(kernel, chunking):
    rng = np.random.default_rng(42)
    sizes = {
        "single": [N_ROWS],
        "rows": [1] * N_ROWS,
        "ragged": [7, 1, 19, 12, 21],
    }[chunking]
    assert sum(sizes) == N_ROWS
    CASES[kernel](rng, sizes)


@pytest.mark.parametrize("kernel", sorted(CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_merge_matches_single_pass_hypothesis(kernel, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    sizes = []
    remaining = N_ROWS
    while remaining:
        size = data.draw(st.integers(1, remaining), label="chunk")
        sizes.append(size)
        remaining -= size
    CASES[kernel](np.random.default_rng(seed), sizes)


def test_bounded_sketch_rank_error_is_bounded():
    """Finite capacity: rank error is small and shrinks as capacity grows."""
    rng = np.random.default_rng(0)
    n, n_bins = 20_000, 10
    x = rng.normal(size=n)
    xs = np.sort(x)
    targets = np.floor(np.linspace(0.0, 1.0, n_bins + 1)[1:-1] * (n - 1))

    def max_rank_error(capacity):
        sk = QuantileSketch(capacity=capacity)
        for lo in range(0, n, 613):
            sk.update(x[lo : lo + 613])
        edges = sk.edges(n_bins)
        assert edges.size == n_bins - 1
        ranks = np.searchsorted(xs, edges, side="right") - 1
        return np.abs(ranks - targets).max()

    err_small, err_large = max_rank_error(256), max_rank_error(1024)
    # Loose absolute ceiling (compaction error compounds ~log(n/capacity)
    # times, so the constant is generous) plus the monotonicity that
    # actually matters: more capacity buys proportionally less error.
    assert err_small <= 0.06 * n, f"rank error {err_small} out of bound"
    assert err_large <= 0.01 * n, f"rank error {err_large} out of bound"
    assert err_large < err_small / 2

    # Merging bounded shard sketches stays within the large-capacity ceiling.
    capacity = 1024
    shard_a, shard_b = QuantileSketch(capacity), QuantileSketch(capacity)
    shard_a.update(x[: n // 2])
    shard_b.update(x[n // 2 :])
    merged_edges = merge_quantile_sketches(shard_a, shard_b).edges(n_bins)
    ranks = np.searchsorted(xs, merged_edges, side="right") - 1
    assert np.abs(ranks - targets).max() <= 0.02 * n


def test_merged_capacity_is_the_smaller_in_either_order():
    """The tighter bound wins whichever operand receives ``merge``."""
    rng = np.random.default_rng(3)
    wide, narrow = QuantileSketch(10), QuantileSketch(5)
    wide.update(rng.normal(size=20))
    narrow.update(rng.normal(size=20))
    for merged in (wide.merge(narrow), narrow.merge(wide)):
        assert merged.capacity == 5
        assert merged._summary()[0].size <= 5
    unbounded = QuantileSketch(None)
    assert unbounded.merge(narrow).capacity == 5
    assert narrow.merge(unbounded).capacity == 5
    assert unbounded.merge(QuantileSketch(None)).capacity is None


class _StableArgsortSketch(QuantileSketch):
    """Reference fold: every summary is the stable argsort of the
    concatenated summary and fresh rows (or of both summaries on merge),
    the sort the sketch ran before it learned to merge sorted runs."""

    __slots__ = ()

    def _summary(self):
        if self._buffer:
            fresh = np.concatenate(self._buffer)
            values = np.concatenate([self._values, fresh])
            weights = np.concatenate(
                [self._weights, np.ones(fresh.size, dtype=np.int64)]
            )
            order = np.argsort(values, kind="stable")
            self._values, self._weights = values[order], weights[order]
            self._buffer, self._buffer_rows = [], 0
        return self._values, self._weights

    def merge(self, other):
        caps = [c for c in (self.capacity, other.capacity) if c is not None]
        out = _StableArgsortSketch(min(caps) if caps else None)
        out.n_finite = self.n_finite + other.n_finite
        out.min, out.max = min(self.min, other.min), max(self.max, other.max)
        sv, sw = self._summary()
        ov, ow = other._summary()
        values = np.concatenate([sv, ov])
        order = np.argsort(values, kind="stable")
        out._values = values[order]
        out._weights = np.concatenate([sw, ow])[order]
        out._parity = (self._parity + other._parity) & 1
        if out.capacity is not None and out._values.size > 2 * out.capacity:
            out._compact()
        return out


def _sketch_fingerprint(sketch):
    values, weights = sketch._summary()
    return (
        values.tobytes(),
        weights.tobytes(),
        sketch.edges(10).tobytes(),
        sketch.edges(64).tobytes(),
        sketch.n_finite,
        float(sketch.min).hex(),
        float(sketch.max).hex(),
    )


#: Heavy ties, interleaved signed zeros and every non-finite value.
_TIED_VALUES = st.sampled_from(
    [-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]
)


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.sampled_from([None, 2, 7, 64]),
    column=st.lists(
        st.one_of(_TIED_VALUES, st.floats(-1e3, 1e3)), min_size=0, max_size=400
    ),
    data=st.data(),
)
def test_sketch_matches_the_stable_argsort_fold(capacity, column, data):
    """Sorting only the fresh buffer, then merging stably, reproduces the
    stable argsort of everything seen byte for byte — signed zeros keep
    their arrival order although the default sort is unstable."""
    x = np.asarray(column, dtype=np.float64)
    cuts = sorted(
        data.draw(
            st.lists(st.integers(0, x.size), max_size=8), label="chunk cuts"
        )
    )
    chunks = np.split(x, cuts)
    n_shards = data.draw(st.integers(1, 3), label="shards")
    shard_of = [i * n_shards // len(chunks) for i in range(len(chunks))]

    def fold(cls):
        shards = [cls(capacity) for _ in range(n_shards)]
        for chunk, shard in zip(chunks, shard_of):
            shards[shard].update(chunk)
        chain = cls(capacity)
        for chunk in chunks:
            chain.update(chunk)
        return chain, functools.reduce(lambda a, b: a.merge(b), shards)

    chain, merged = fold(QuantileSketch)
    ref_chain, ref_merged = fold(_StableArgsortSketch)
    assert _sketch_fingerprint(chain) == _sketch_fingerprint(ref_chain)
    assert _sketch_fingerprint(merged) == _sketch_fingerprint(ref_merged)
