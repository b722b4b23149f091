"""Out-of-core SAFE fit: Algorithm 1 over a chunked row stream.

The in-memory fit holds the current feature matrix and the candidate
matrix. :class:`ChunkSource` is the row source that runs the same
Algorithm-1 loop (:func:`repro.core.pipeline.run_algorithm1`) — mine
paths, rank combinations, generate, select, repeat — against a
:class:`~repro.tabular.ChunkedDataset` whose rows never co-exist in
memory; :func:`fit_safe_streaming` checks the fit and hands it to the
loop. Each stage consumes the stream through the mergeable
sufficient-statistics kernels the in-memory entry points are one-chunk
callers of:

* the mining and ranking GBMs stream through
  :func:`~repro.boosting.stream.fit_gbm_streaming` (the ranking GBM's
  edges come from the IV filter's sketches, so it skips its own sketch
  pass). From the second iteration on, the mining GBM is skipped — two
  passes and its tree snapshots — whenever the previous ranking GBM's
  paths are certified to be what it would grow (as in memory,
  :func:`repro.boosting.carry.carried_paths`). That holds here
  too because the mining GBM's own sketch pass would rebuild, for every
  survivor, exactly the sketch the ``sel-edges`` pass built: each
  column's sketch sees the same chunk values in the same order, so its
  edges are the ranking GBM's;
* combination ranking merges :func:`~repro.core.scoring.combination_count_partial`
  cells and finalizes with the shared gain-ratio arithmetic;
* the IV filter merges :func:`~repro.metrics.batched.iv_bin_counts`
  partials over sketch-derived equal-frequency edges
  (:func:`repro.parallel.parallel_stream_iv_counts`);
* redundancy removal merges moment and centered-Gram panels from
  :mod:`repro.core.redundancy` and runs the same greedy scan.

Feature columns are re-derived per chunk: expressions evaluate against a
fresh per-chunk :class:`~repro.operators.engine.EvalCache` and are
sanitized in place, which is exact because the streaming path only
admits *row-wise stateless* operators (``Operator.rowwise`` and not
``Operator.is_stateful``) — output row ``i`` depends only on input row
``i``, so chunked evaluation is bit-identical to full-matrix evaluation.

Parity with the in-memory fit: every count-valued statistic merges in
exact integer arithmetic, and every streamed GBM tree equals the
in-memory one in every field (both grow through ``Tree.fit``), so with
``sketch="exact"`` (bit-identical quantile edges) the selected Ψ
reproduces the in-memory fit's; the redundancy stage's moment and Gram
panels re-associate float sums and match to ≤1e-9 relative. With
``sketch="merge"`` edges are approximate: an n-row column's edges lie
within O(n / capacity) ranks of the exact ones (the tests allow
10·n/capacity; at the default capacity of 4096, 64-bin edges of 40k-row
columns measured up to 42 ranks off), and Ψ may differ accordingly.

Unsupported in v1 (rejected with ``ConfigurationError``): validation
sets and operators that are stateful or not row-wise.
"""

from __future__ import annotations

import numpy as np

from ..boosting.carry import carried_paths, hyperparameters
from ..boosting.gbm import GradientBoostingClassifier
from ..boosting.stream import fit_gbm_streaming
from ..boosting.tree import GAIN_TIE_RTOL
from ..exceptions import ConfigurationError, DataError
from ..metrics.batched import iv_from_counts
from ..metrics.information import entropy_from_counts
from ..operators.base import resolve_operators
from ..operators.engine import EvalCache, evaluate_forest
from ..operators.expressions import Applied, Expression
from ..runtime.checkpoint import StatsCheckpointStore
from ..runtime.failpoints import failpoint
from ..runtime.report import QuarantineRecord
from ..tabular.binning import DEFAULT_SKETCH_CAPACITY, streamed_quantile_edges
from ..tabular.io import ChunkedDataset
from ..tabular.preprocess import clean_matrix
from ..utils import as_label_vector
from .generation import (
    mining_model,
    plan_features,
    rank_from_scores,
)
from .pipeline import run_algorithm1
from .redundancy import (
    centered_gram_partial,
    column_moments_partial,
    correlations_from_gram,
    greedy_decorrelate,
    merge_column_moments,
    merge_grams,
)
from .scoring import (
    _DENSE_CELL_FACTOR,
    _DENSE_CELL_FLOOR,
    combination_count_partial,
    gain_ratio_from_combination_counts,
    merge_combination_counts,
)
from .selection import SelectionReport
from .transform import FeatureTransformer


def forest_chunks(data: ChunkedDataset, expressions: "list[Expression]"):
    """Restartable stream of sanitized feature chunks for a forest.

    Returns a zero-argument callable (the convention every streaming
    kernel consumes) yielding ``(rows, block, y_chunk)`` where ``block``
    is the chunk's ``(len(rows), len(expressions))`` evaluated forest,
    cleaned in place — exactly the rows of the matrix the in-memory
    pipeline would pass to the same stage. The per-chunk
    :class:`EvalCache` shares subtree columns within the chunk and dies
    with it, keeping memory at O(chunk).
    """

    def iterate():
        for rows, X_chunk, y_chunk in data.iter_chunks():
            cache = EvalCache(np.asarray(X_chunk, dtype=np.float64))
            block = clean_matrix(
                evaluate_forest(expressions, cache=cache), copy=False
            )
            yield rows, block, y_chunk

    return iterate


def _check_streamable_config(cfg) -> None:
    """Reject configurations the v1 streaming fit cannot honour exactly."""
    blocked = [
        op.name
        for op in resolve_operators(cfg.operators)
        if op.is_stateful or not op.rowwise
    ]
    if blocked:
        raise ConfigurationError(
            "streaming fit supports row-wise stateless operators only; "
            f"not streamable: {blocked}"
        )


def _count_positives(data: ChunkedDataset) -> int:
    """One validation pass over the labels; returns the positive count."""
    n_pos = 0
    for rows, _, y_chunk in data.iter_chunks():
        if y_chunk is None:
            raise DataError("streaming fit needs labeled chunks")
        n_pos += int(as_label_vector(y_chunk, len(rows)).sum())
    return n_pos


class ChunkSource:
    """The out-of-core row source of :func:`~repro.core.pipeline.run_algorithm1`.

    Holds the chunked dataset, the current iteration's chunk stream, and
    — when the fit checkpoints — the per-iteration
    :class:`~repro.runtime.checkpoint.StatsCheckpointStore` every stage
    snapshots its merged statistics in.
    """

    def __init__(self, data: ChunkedDataset, cfg, n_pos: int) -> None:
        self.data = data
        self.cfg = cfg
        self.n_rows = data.n_rows
        self.n_pos = n_pos
        self.stats_store: "StatsCheckpointStore | None" = None

    def start(self, report, manager, fingerprint, legacy_fingerprints) -> None:
        report.chunks_quarantined.extend(self.data.quarantined_chunks())
        if manager is not None:
            self.stats_store = StatsCheckpointStore(
                manager.directory / "stats", fingerprint, legacy_fingerprints
            )

    def resume(self, expressions) -> None:
        pass  # the survivor expressions are all the stages need

    def begin(self, iteration, expressions) -> None:
        self.chunks = forest_chunks(self.data, expressions)
        self.n_cols = len(expressions)
        self.stats = (
            None
            if self.stats_store is None
            else self.stats_store.scoped(f"it{iteration:05d}")
        )

    def _stage(self, key: str, compute):
        """``compute()``, snapshotted under ``key`` when the fit checkpoints."""
        return compute() if self.stats is None else self.stats.run(key, compute)

    def _scope(self, key: str):
        return None if self.stats is None else self.stats.scoped(key)

    def mine(self, mining_params):
        mining = mining_model(**mining_params)
        fit_gbm_streaming(
            mining,
            self.chunks,
            self.n_rows,
            self.n_cols,
            sketch=self.cfg.sketch,
            stats=self._scope("mine-gbm"),
        )
        return mining.paths()

    def rank(self, combos):
        """Algorithm 2 over the stream: merged count cells, shared finalize."""
        kept = [c for c in combos if c.features]
        if not kept:
            return []
        n_rows = self.n_rows
        dense_limit = 2 * max(_DENSE_CELL_FACTOR * n_rows, _DENSE_CELL_FLOOR)

        def compute_partials():
            partials = None
            for _, block, y_chunk in self.chunks():
                part = combination_count_partial(block, y_chunk, kept, dense_limit)
                partials = (
                    part
                    if partials is None
                    else merge_combination_counts(partials, part)
                )
            return partials

        partials = self._stage("rank-combos", compute_partials)
        base = entropy_from_counts(np.array([n_rows - self.n_pos, self.n_pos]))
        ratios = gain_ratio_from_combination_counts(partials, n_rows, base)
        return rank_from_scores(kept, ratios, self.cfg.gamma)

    def generate(self, ranked, expressions, existing, quarantine):
        """Generation passes 2/3 over the stream (all operators stateless).

        In strict mode the expressions exist as soon as the plan does — no
        column needs materializing to construct a stateless ``Applied`` —
        so only the per-expression failpoints fire. In quarantine mode one
        stats pass evaluates every planned expression chunk-at-a-time,
        recording raises and OR-accumulating column finiteness; the
        screening decisions (a raise, or no finite value anywhere in the
        column) match the in-memory `_generate_with_quarantine` exactly.
        """
        plan = plan_features(ranked, self.cfg.operators, expressions, existing)
        exprs = [Applied(op.name, children, None) for op, children in plan]
        if quarantine is None:
            for _ in plan:
                failpoint("generation.operator")
            return exprs

        def compute_screen():
            reasons: "list[str | None]" = [None] * len(plan)
            any_finite = np.zeros(len(plan), dtype=bool)
            first_chunk = True
            for _, X_chunk, _ in self.data.iter_chunks():
                cache = EvalCache(np.asarray(X_chunk, dtype=np.float64))
                for i, expr in enumerate(exprs):
                    if reasons[i] is not None:
                        continue
                    try:
                        if first_chunk:
                            failpoint("generation.operator")
                        column = cache.column(expr)
                    except Exception as exc:
                        reasons[i] = repr(exc)
                        continue
                    if not any_finite[i] and np.isfinite(column).any():
                        any_finite[i] = True
                first_chunk = False
            return {"reasons": reasons, "any_finite": any_finite}

        screen = self._stage("generate-screen", compute_screen)
        reasons = screen["reasons"]
        any_finite = screen["any_finite"]

        out: list[Expression] = []
        for i, (op, children) in enumerate(plan):
            key = op.format(*(c.key for c in children))
            if reasons[i] is not None:
                quarantine.append(
                    QuarantineRecord(key=key, operator=op.name, reason=reasons[i])
                )
            elif not any_finite[i]:
                quarantine.append(
                    QuarantineRecord(
                        key=key,
                        operator=op.name,
                        reason="column is entirely non-finite",
                    )
                )
            else:
                out.append(exprs[i])
        return out

    def select(self, candidates, max_output) -> SelectionReport:
        """The three selection stages over the stream; same report shape."""
        failpoint("selection.select")
        cfg = self.cfg
        data = self.data
        n_rows = self.n_rows
        chunks_cand = forest_chunks(data, candidates)

        ranking = GradientBoostingClassifier(
            n_estimators=cfg.ranking_n_estimators,
            max_depth=cfg.ranking_max_depth,
            random_state=cfg.random_state,
            tie_rtol=GAIN_TIE_RTOL,
        )

        # -- Algorithm 3: IV filter --------------------------------------
        # Equal-frequency edges come from the sketch pass (exact mode is
        # bit-identical to the in-memory matrix kernel's sort-derived
        # edges); the side stats reproduce its scorability mask. The same
        # sketches also answer the ranking GBM's max_bins edges: a
        # candidate's chunk values are the same in every forest it is
        # evaluated in (clean_matrix is elementwise), so its own sketch
        # pass would build identical sketches.
        def compute_edges():
            return streamed_quantile_edges(
                chunks_cand,
                len(candidates),
                (cfg.iv_bins, ranking.max_bins),
                sketch=cfg.sketch,
                capacity=DEFAULT_SKETCH_CAPACITY,
            )

        edges_state = self._stage("sel-edges", compute_edges)
        (edges_per_col, rank_edges), n_finite, col_min, col_max = edges_state
        with np.errstate(invalid="ignore"):
            scorable = (n_finite > 0) & (col_min < col_max)
        n_edges = np.array([e.size for e in edges_per_col], dtype=np.int64)
        stride = int(n_edges.max()) + 2
        # Looked up at call time, so the benchmark's traced run can wrap it.
        from ..parallel import parallel_stream_iv_counts

        def compute_counts():
            return parallel_stream_iv_counts(
                data, candidates, edges_per_col, scorable, stride
            )

        counts = self._stage("sel-iv-counts", compute_counts)
        n_pos = self.n_pos
        ivs = iv_from_counts(counts[0], counts[1], n_pos, n_rows - n_pos, scorable)
        kept_iv = np.flatnonzero(ivs > cfg.iv_threshold)
        if kept_iv.size < 1:  # min_keep fallback of the in-memory filter
            kept_iv = np.argsort(-ivs)[:1]
            kept_iv.sort()

        # -- Algorithm 4: redundancy removal -----------------------------
        chunks_iv = forest_chunks(data, [candidates[i] for i in kept_iv])

        def compute_moments():
            moments = None
            for _, F_chunk, _ in chunks_iv():
                part = column_moments_partial(F_chunk)
                moments = (
                    part if moments is None else merge_column_moments(moments, part)
                )
            return moments

        moments = self._stage("sel-moments", compute_moments)
        mean = moments[1] / moments[0]  # repro: ignore[div-guard] n_rows >= 1 validated at fit entry
        scale = np.maximum(moments[2], -moments[3])

        def compute_gram():
            gram = None
            for _, F_chunk, _ in chunks_iv():
                part = centered_gram_partial(F_chunk, mean)
                gram = part if gram is None else merge_grams(gram, part)
            return gram

        gram = self._stage("sel-gram", compute_gram)
        corr = correlations_from_gram(gram, scale, n_rows)
        kept_local = greedy_decorrelate(corr, ivs[kept_iv], cfg.pearson_threshold)
        kept_red = kept_iv[kept_local]

        # -- Stage 3: importance ranking ---------------------------------
        exprs_red = [candidates[i] for i in kept_red]
        fit_gbm_streaming(
            ranking,
            forest_chunks(data, exprs_red),
            n_rows,
            len(exprs_red),
            edges=[rank_edges[i] for i in kept_red],
            stats=self._scope("sel-rank-gbm"),
        )
        importance = ranking.feature_importances_
        order_local = np.lexsort((np.arange(importance.size), -importance))
        if max_output is not None:
            order_local = order_local[:max_output]
        final = kept_red[order_local]
        return SelectionReport(
            n_candidates=len(candidates),
            kept_after_iv=tuple(int(i) for i in kept_iv),
            kept_after_redundancy=tuple(int(i) for i in kept_red),
            final_order=tuple(int(i) for i in final),
            information_values=tuple(float(v) for v in ivs),
            ranking_hyperparameters=hyperparameters(ranking),
            carried_paths=carried_paths(ranking, order_local),
        )

    def after_checkpoint(self) -> None:
        # The iteration's survivors are durable; its mid-iteration
        # statistics can never be needed again and must not leak into
        # the next iteration's stage keys.
        self.stats_store.clear()

    def finish(self, report) -> None:
        if self.stats_store is None:
            return
        # Statistics never outlive their iteration, also when the loop
        # stopped early inside one. A fit that raised never gets here,
        # so a killed fit keeps its snapshots for the resume.
        self.stats_store.clear()
        report.stats_checkpoints_written = self.stats_store.written
        report.stats_stages_resumed = list(self.stats_store.resumed)
        report.stats_checkpoints_skipped = list(self.stats_store.skipped)


def fit_safe_streaming(
    safe,
    train: ChunkedDataset,
    valid=None,
    checkpoint_dir: "str | None" = None,
) -> FeatureTransformer:
    """Run Algorithm 1 against a chunked row stream, out of core.

    ``safe`` is the :class:`~repro.core.pipeline.SAFE` instance whose
    config, traces, and runtime report this fit populates —
    :meth:`SAFE.fit` dispatches here when handed a
    :class:`~repro.tabular.ChunkedDataset`. Checkpoint/resume semantics
    match the in-memory fit (the persisted state is the survivor
    expressions, which need no matrix to restore, plus any carried
    mining paths, so a resumed fit makes exactly the passes an
    uninterrupted one has left).
    """
    cfg = safe.config
    if valid is not None:
        raise ConfigurationError(
            "streaming fit does not support a validation set"
        )
    _check_streamable_config(cfg)
    if train.n_rows < 1:
        raise DataError("streaming fit needs at least one row")
    n_pos = _count_positives(train)
    if n_pos == 0 or n_pos == train.n_rows:
        raise DataError("SAFE.fit requires both classes in the training labels")
    return run_algorithm1(
        safe, ChunkSource(train, cfg, n_pos), train.names, checkpoint_dir
    )
