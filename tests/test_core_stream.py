"""Tests for the out-of-core SAFE fit (repro.core.stream).

The contract under test: ``SAFE.fit`` on a :class:`ChunkedDataset`
streams the rows chunk-at-a-time and, with ``sketch="exact"``, yields
the *same kept Ψ* as the in-memory fit — bit-identical expression keys —
because every fit-time statistic is accumulated through the mergeable
kernels (integer counts merge exactly; float sums agree to <=1e-9 and
the miners' shared split search breaks gain near-ties deterministically
in (feature, bin) order via ``tie_rtol=GAIN_TIE_RTOL``).

Also covered: streamed GBM trees against in-memory ones, equal in every
field on tie-heavy inputs (duplicate columns, tiny leaves) below and
above the scratch piece size, quarantine and
checkpoint-resume parity across the two paths, the streamability
rejections, and the tier-1 memory gate — the streaming fit's tracemalloc
peak stays under a fixed ceiling that the in-memory fit on the same
workload exceeds severalfold.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.boosting import GradientBoostingClassifier
from repro.boosting.tree import GAIN_TIE_RTOL
from repro.boosting import stream as boosting_stream
from repro.boosting.stream import fit_gbm_streaming
from repro.core import SAFE, SAFEConfig
from repro.exceptions import ConfigurationError, DataError
from repro.runtime.failpoints import active
from repro.tabular.binning import quantile_codes_matrix
from repro.tabular.dataset import Dataset
from repro.tabular.io import ChunkedDataset


def _workload(seed, n, k):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    X[rng.random(size=(n, k)) < 0.02] = np.nan
    logits = X[:, 0] - 0.5 * np.nan_to_num(X[:, 1]) + 0.3 * rng.normal(size=n)
    y = (logits > 0).astype(np.float64)
    return X, y, tuple(f"f{i}" for i in range(k))


def _keys(transformer):
    return tuple(e.key for e in transformer.expressions)


#: Every array field of a fitted ``Tree``.
_TREE_FIELDS = (
    "feature",
    "threshold",
    "threshold_bin",
    "left",
    "right",
    "value",
    "gain",
    "n_samples",
    "tie_in_feature",
)


def _assert_trees_equal(a, b):
    for name in _TREE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


class TestPsiParity:
    """Streaming fit == in-memory fit, bit-identical Ψ (sketch="exact")."""

    @pytest.mark.parametrize(
        "seed,n,k,iters,chunk",
        [
            (7, 2867, 5, 1, 311),
            (11, 4000, 5, 2, 512),  # regression: near-tied ranking gains
            (13, 2048, 5, 3, 300),
        ],
    )
    def test_arrays_backed(self, seed, n, k, iters, chunk):
        X, y, names = _workload(seed, n, k)
        cfg = SAFEConfig(n_iterations=iters, sketch="exact", random_state=0)
        t_mem = SAFE(cfg).fit(Dataset(X=X.copy(), y=y.copy(), names=names))
        t_stream = SAFE(cfg).fit(ChunkedDataset(names, chunk, X=X, y=y))
        assert _keys(t_stream) == _keys(t_mem)

    def test_file_backed(self, tmp_path):
        X, y, names = _workload(11, 4000, 5)
        cfg = SAFEConfig(n_iterations=2, sketch="exact", random_state=0)
        t_mem = SAFE(cfg).fit(Dataset(X=X.copy(), y=y.copy(), names=names))
        xp, yp = tmp_path / "X.npy", tmp_path / "y.npy"
        np.save(xp, X)
        np.save(yp, y)
        t_stream = SAFE(cfg).fit(ChunkedDataset(names, 512, x_path=xp, y_path=yp))
        assert _keys(t_stream) == _keys(t_mem)

    def test_row_sharded_workers_match_serial(self):
        X, y, names = _workload(31, 3000, 5)
        kwargs = dict(n_iterations=2, sketch="exact", random_state=0)
        t_serial = SAFE(SAFEConfig(n_jobs=1, **kwargs)).fit(
            ChunkedDataset(names, 417, X=X, y=y)
        )
        t_sharded = SAFE(SAFEConfig(n_jobs=2, **kwargs)).fit(
            ChunkedDataset(names, 417, X=X, y=y)
        )
        assert _keys(t_sharded) == _keys(t_serial)

    def test_merge_sketch_fits_and_serves(self):
        X, y, names = _workload(21, 5000, 6)
        cfg = SAFEConfig(n_iterations=2, sketch="merge", random_state=0)
        t = SAFE(cfg).fit(ChunkedDataset(names, 700, X=X, y=y))
        assert len(t.expressions) >= 1
        out = t.transform(Dataset(X=X, y=y, names=names))
        assert out.X.shape == (5000, len(t.expressions))
        assert np.isfinite(np.nan_to_num(out.X)).all()

    def test_traces_match_in_memory(self):
        X, y, names = _workload(8, 1500, 4)
        cfg = SAFEConfig(n_iterations=2, sketch="exact", random_state=0)
        s_mem, s_stream = SAFE(cfg), SAFE(cfg)
        s_mem.fit(Dataset(X=X.copy(), y=y.copy(), names=names))
        s_stream.fit(ChunkedDataset(names, 257, X=X, y=y))
        assert len(s_stream.traces_) == len(s_mem.traces_)
        for a, b in zip(s_stream.traces_, s_mem.traces_):
            assert (a.n_paths, a.n_combinations, a.n_generated, a.n_candidates) == (
                b.n_paths,
                b.n_combinations,
                b.n_generated,
                b.n_candidates,
            )


class TestGbmStreamingParity:
    def test_tree_structures_match_on_tie_heavy_data(self):
        """Duplicate columns + tiny leaves: the near-tie break must hold."""
        rng = np.random.default_rng(123)
        for _ in range(6):
            n = int(rng.integers(300, 2000))
            k = int(rng.integers(3, 8))
            X = rng.normal(size=(n, k))
            X[:, -1] = X[:, 0]  # exact duplicate => mathematically tied gains
            y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.float64)
            params = dict(
                n_estimators=4,
                max_depth=int(rng.integers(2, 5)),
                learning_rate=0.2,
                max_bins=int(rng.integers(16, 64)),
                min_samples_leaf=int(rng.integers(1, 4)),
                random_state=0,
                tie_rtol=GAIN_TIE_RTOL,
            )
            ref = GradientBoostingClassifier(**params)
            ref.fit(X, y)
            streamed = GradientBoostingClassifier(**params)
            chunk = int(rng.integers(64, 700))

            def chunks():
                for lo in range(0, n, chunk):
                    hi = min(lo + chunk, n)
                    yield range(lo, hi), X[lo:hi], y[lo:hi]

            fit_gbm_streaming(streamed, chunks, n, k, sketch="exact")
            for a, b in zip(ref.trees_, streamed.trees_):
                assert np.array_equal(a.feature, b.feature)
                assert np.array_equal(a.threshold_bin, b.threshold_bin)
                assert np.array_equal(a.value, b.value)
            assert np.array_equal(ref.predict_proba(X), streamed.predict_proba(X))

    @staticmethod
    def _fit_both(X, y, chunk, **params):
        params = dict(
            n_estimators=4,
            learning_rate=0.2,
            random_state=0,
            tie_rtol=GAIN_TIE_RTOL,
            **params,
        )
        n, k = X.shape
        ref = GradientBoostingClassifier(**params).fit(X, y)
        streamed = GradientBoostingClassifier(**params)

        def chunks():
            for lo in range(0, n, chunk):
                yield range(lo, min(lo + chunk, n)), X[lo : lo + chunk], y[lo : lo + chunk]

        fit_gbm_streaming(streamed, chunks, n, k, sketch="exact")
        assert len(ref.trees_) == len(streamed.trees_)
        for a, b in zip(ref.trees_, streamed.trees_):
            _assert_trees_equal(a, b)
        return ref

    def test_histograms_built_across_scratch_chunks_match(self, monkeypatch):
        """Built children's histograms merge over several scratch chunks
        before the larger siblings are derived from them."""
        monkeypatch.setattr(boosting_stream, "_SCRATCH_ROWS", 173)
        rng = np.random.default_rng(5)
        for n, k in ((1200, 4), (1931, 6)):
            X = rng.normal(size=(n, k))
            X[:, -1] = X[:, 0]
            y = (X[:, 0] * X[:, 1] + 0.5 * rng.normal(size=n) > 0).astype(np.float64)
            self._fit_both(X, y, 211, max_depth=4, max_bins=32, min_samples_leaf=2)

    def test_unsearchable_smaller_child_is_built_for_its_sibling(self):
        """A high min_samples_leaf leaves smaller children too small to
        search while their larger siblings are searched: such a child is
        built only so the sibling can be derived by subtraction."""
        rng = np.random.default_rng(9)
        n, msl, depth = 1500, 120, 4
        X = rng.normal(size=(n, 5))
        y = (X[:, 0] + X[:, 1] ** 2 + 0.3 * rng.normal(size=n) > 1).astype(np.float64)
        ref = self._fit_both(
            X, y, 400, max_depth=depth, max_bins=48, min_samples_leaf=msl
        )
        build_only = 0
        for tree in ref.trees_:
            node_depth = np.zeros(tree.feature.size, dtype=np.int64)
            for i in np.flatnonzero(tree.feature >= 0):
                left, right = tree.left[i], tree.right[i]
                node_depth[[left, right]] = node_depth[i] + 1
                small, large = sorted((left, right), key=lambda c: tree.n_samples[c])
                build_only += (
                    tree.n_samples[small] < 2 * msl <= tree.n_samples[large]
                    and node_depth[i] + 1 < depth
                )
        assert build_only > 0


    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**16),
        piece=st.integers(8, 64),
        tie_rtol=st.sampled_from([0.0, GAIN_TIE_RTOL]),
        min_samples_leaf=st.sampled_from([0, 1, 3]),
    )
    @example(
        data=None, seed=3, piece=37, tie_rtol=GAIN_TIE_RTOL, min_samples_leaf=1
    )
    def test_streamed_trees_equal_in_memory_trees(
        self, data, seed, piece, tie_rtol, min_samples_leaf
    ):
        """Every field of every tree, and the probabilities, bit for bit:
        NaN, ±inf, constant and duplicate columns, from one scratch piece
        to about ten, with input chunks unrelated to the piece size."""
        if data is None:
            n, chunk = 331, 50
        else:
            n = data.draw(st.integers(1, 10 * piece), label="n_rows")
            chunk = data.draw(st.integers(1, n), label="chunk_rows")
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        X = np.column_stack(
            [x, rng.normal(size=n), np.full(n, 2.5), x, rng.normal(size=n)]
        )
        X[rng.random(size=n) < 0.1, 0] = np.nan
        X[rng.random(size=n) < 0.05, 1] = np.inf
        X[rng.random(size=n) < 0.05, 1] = -np.inf
        y = (np.nan_to_num(x) + 0.7 * rng.normal(size=n) > 0).astype(np.float64)
        params = dict(
            n_estimators=3,
            max_depth=3,
            learning_rate=0.3,
            max_bins=16,
            min_samples_leaf=min_samples_leaf,
            tie_rtol=tie_rtol,
            random_state=0,
        )
        ref = GradientBoostingClassifier(**params).fit(X, y)
        streamed = GradientBoostingClassifier(**params)

        def chunks():
            for lo in range(0, n, chunk):
                yield range(lo, min(lo + chunk, n)), X[lo : lo + chunk], y[lo : lo + chunk]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boosting_stream, "_SCRATCH_ROWS", piece)
            fit_gbm_streaming(streamed, chunks, n, X.shape[1], sketch="exact")
        assert len(ref.trees_) == len(streamed.trees_)
        for a, b in zip(ref.trees_, streamed.trees_):
            _assert_trees_equal(a, b)
        assert np.array_equal(ref.predict_proba(X), streamed.predict_proba(X))


class TestPassCount:
    def test_quarantine_merge_fit_makes_nine_passes_per_iteration(self, monkeypatch):
        """One label pass, then per iteration: mining-GBM edges and codes,
        combination counts, the quarantine screen, selection edges (which
        also serve the ranking GBM), IV counts, moments, Gram, and the
        ranking GBM's codes."""
        X, y, names = _workload(17, 2000, 5)
        passes = []
        iter_chunks = ChunkedDataset.iter_chunks

        def counted(self):
            passes.append(1)
            yield from iter_chunks(self)

        monkeypatch.setattr(ChunkedDataset, "iter_chunks", counted)
        cfg = SAFEConfig(
            n_iterations=2,
            sketch="merge",
            random_state=0,
            on_operator_error="quarantine",
        )
        safe = SAFE(cfg)
        safe.fit(ChunkedDataset(names, 400, X=X, y=y))
        assert len(safe.traces_) == 2
        assert len(passes) == 1 + 9 * 2


class TestRuntimeParity:
    def test_quarantine_parity(self):
        X, y, names = _workload(51, 1200, 5)
        cfg = SAFEConfig(
            n_iterations=1,
            sketch="exact",
            random_state=0,
            on_operator_error="quarantine",
        )
        with active("generation.operator", mode="nth", nth=3):
            s_mem = SAFE(cfg)
            t_mem = s_mem.fit(Dataset(X=X.copy(), y=y.copy(), names=names))
        with active("generation.operator", mode="nth", nth=3):
            s_stream = SAFE(cfg)
            t_stream = s_stream.fit(ChunkedDataset(names, 300, X=X, y=y))
        assert _keys(t_stream) == _keys(t_mem)
        q_mem = [(i, r.key, r.operator) for i, r in s_mem.runtime_report_.quarantined]
        q_stream = [
            (i, r.key, r.operator) for i, r in s_stream.runtime_report_.quarantined
        ]
        assert q_stream == q_mem and len(q_stream) == 1

    def test_non_finite_quarantine_parity(self):
        """The screen's second reason: ``f0 * f1`` overflows in every row
        (``clean_matrix``'s clip still leaves ``f0`` and ``f1`` a split),
        so both sources quarantine it and keep the same Ψ."""
        rng = np.random.default_rng(1)
        n = 900
        signs = rng.choice([-1.0, 1.0], size=(n, 2))
        huge = rng.uniform(1e200, 2e200, size=(n, 2)) * signs
        X = np.column_stack([huge, rng.normal(size=(n, 2))])
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.float64)
        names = ("f0", "f1", "f2", "f3")
        cfg = SAFEConfig(n_iterations=1, sketch="exact", random_state=0)
        fits = []
        for data in (
            Dataset(X=X.copy(), y=y.copy(), names=names),
            ChunkedDataset(names, 97, X=X, y=y),
        ):
            safe = SAFE(cfg)
            with np.errstate(over="ignore"):
                keys = _keys(safe.fit(data))
            records = [
                (i, r.key, r.reason) for i, r in safe.runtime_report_.quarantined
            ]
            fits.append((keys, records))
        expected = [(0, "(x0 * x1)", "column is entirely non-finite")]
        assert fits[0] == fits[1] == (("(x0 / x1)",), expected)

    def test_checkpoint_resume_parity(self, tmp_path):
        X, y, names = _workload(61, 2000, 5)
        cfg = SAFEConfig(n_iterations=2, sketch="exact", random_state=0)
        t_ref = SAFE(cfg).fit(ChunkedDataset(names, 333, X=X, y=y))
        with pytest.raises(Exception):
            with active("pipeline.iteration", mode="nth", nth=1):
                SAFE(cfg).fit(
                    ChunkedDataset(names, 333, X=X, y=y),
                    checkpoint_dir=str(tmp_path),
                )
        resumed = SAFE(cfg)
        t_resumed = resumed.fit(
            ChunkedDataset(names, 333, X=X, y=y), checkpoint_dir=str(tmp_path)
        )
        assert _keys(t_resumed) == _keys(t_ref)
        assert resumed.runtime_report_.resumed_from_iteration == 0


class TestStreamabilityRejections:
    def _data(self):
        X, y, names = _workload(41, 400, 4)
        return ChunkedDataset(names, 100, X=X, y=y)

    def test_non_rowwise_operator_rejected(self):
        cfg = SAFEConfig(n_iterations=1, operators=("add", "lag1"))
        with pytest.raises(ConfigurationError, match="not streamable"):
            SAFE(cfg).fit(self._data())

    def test_stateful_operator_rejected(self):
        cfg = SAFEConfig(n_iterations=1, operators=("add", "zscore"))
        with pytest.raises(ConfigurationError, match="not streamable"):
            SAFE(cfg).fit(self._data())

    def test_validation_set_checked_and_unused(self):
        """A same-width ``valid`` leaves the streamed Ψ as it is (no GBM
        of Algorithm 1 early-stops); another width raises, as in memory."""
        X, y, names = _workload(42, 300, 4)
        cfg = SAFEConfig(n_iterations=2, sketch="exact", random_state=0)
        psi = SAFE(cfg).fit(self._data())
        valid = Dataset(X=X, y=y, names=names)
        assert _keys(SAFE(cfg).fit(self._data(), valid=valid)) == _keys(psi)
        narrow = Dataset(X=X[:, :3], y=y, names=names[:3])
        with pytest.raises(DataError, match="validation set has 3 columns"):
            SAFE(cfg).fit(self._data(), valid=narrow)

    def test_bogus_sketch_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="sketch"):
            SAFEConfig(sketch="bogus")

    def test_single_class_labels_rejected(self):
        X, _, names = _workload(41, 400, 4)
        y = np.zeros(400)
        with pytest.raises(DataError, match="both classes"):
            SAFE(SAFEConfig(n_iterations=1)).fit(
                ChunkedDataset(names, 100, X=X, y=y)
            )


class TestMemoryGate:
    def test_streaming_fit_is_out_of_core(self, tmp_path):
        """Tracemalloc gate: O(chunk + state), not O(rows x candidates).

        The ceiling is fixed at 48 MB. The in-memory fit on the *same*
        workload — which materializes the working matrix, the candidate
        matrix, and the binned code matrices at full row count — must
        exceed the streaming peak at least 8-fold (measured ~16x), so
        the gate genuinely separates the two paths rather than passing
        both.
        """
        n, k = 80_000, 8
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, k))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.float64)
        names = tuple(f"f{i}" for i in range(k))
        xp, yp = tmp_path / "X.npy", tmp_path / "y.npy"
        np.save(xp, X)
        np.save(yp, y)
        del X, y

        cfg = SAFEConfig(n_iterations=1, sketch="merge", random_state=0)
        data = ChunkedDataset(names, 4096, x_path=xp, y_path=yp)
        tracemalloc.start()
        try:
            t_stream = SAFE(cfg).fit(data)
            _, stream_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(t_stream.expressions) >= 1
        ceiling = 48 * 1024 * 1024
        assert stream_peak < ceiling, (
            f"streaming fit peaked at {stream_peak / 1e6:.1f} MB, "
            f"over the {ceiling / 1e6:.0f} MB out-of-core ceiling"
        )

        tracemalloc.start()
        try:
            t_mem = SAFE(cfg).fit(
                Dataset(X=np.load(xp), y=np.load(yp), names=names)
            )
            _, mem_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(t_mem.expressions) >= 1
        assert mem_peak >= 8 * stream_peak, (
            f"in-memory peak {mem_peak / 1e6:.1f} MB is not 8x the streaming "
            f"peak {stream_peak / 1e6:.1f} MB; the gate is not discriminating"
        )

    def test_multi_piece_gbm_peak_is_bounded_by_the_piece(self, monkeypatch):
        """Tracemalloc gate on trees grown over 32 scratch pieces: every
        pass over rows holds O(piece) memory (about 100 bytes per piece
        row measured: gathered rows, node slots, weights, bincount keys),
        and nothing holds even one float64 vector of ``n_rows``."""
        piece, chunk = 4096, 3000
        n, k = 32 * piece, 4
        monkeypatch.setattr(boosting_stream, "_SCRATCH_ROWS", piece)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(n, k))
        X[rng.random(size=n) < 0.05, 1] = np.nan
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.float64)
        _, edges = quantile_codes_matrix(X, max_bins=32)
        model = GradientBoostingClassifier(
            n_estimators=3, max_depth=4, max_bins=32, tie_rtol=GAIN_TIE_RTOL
        )

        def chunks():
            for lo in range(0, n, chunk):
                yield range(lo, min(lo + chunk, n)), X[lo : lo + chunk], y[lo : lo + chunk]

        tracemalloc.start()
        try:
            fit_gbm_streaming(model, chunks, n, k, edges=edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.trees_) == 3 and model.trees_[0].feature[0] >= 0
        bound = 160 * piece
        assert bound < n * 8
        assert peak < bound, (
            f"streamed GBM peaked at {peak} bytes, over {bound} "
            f"(160 bytes per row of a {piece}-row piece)"
        )
