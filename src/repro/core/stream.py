"""Out-of-core SAFE fit: Algorithm 1 over a chunked row stream.

The in-memory :meth:`~repro.core.pipeline.SAFE.fit` holds the current
feature matrix, the candidate matrix, and a validation copy of each.
This driver runs the *same* iteration — mine paths, rank combinations,
generate, select, repeat — against a :class:`~repro.tabular.ChunkedDataset`
whose rows never co-exist in memory. Each stage consumes the stream
through the mergeable sufficient-statistics kernels the in-memory entry
points are one-chunk callers of:

* the mining and ranking GBMs stream through
  :func:`~repro.boosting.stream.fit_gbm_streaming` (the ranking GBM's
  edges come from the IV filter's sketches, so it skips its own sketch
  pass). From the second iteration on, the mining GBM is skipped — two
  passes and its tree snapshots — whenever the previous ranking GBM's
  paths are certified to be what it would grow (as in the in-memory
  driver, :func:`repro.boosting.carry.carried_paths`). That holds here
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
from ..operators.expressions import Applied, Expression, Var
from ..runtime.checkpoint import (
    CheckpointManager,
    StatsCheckpointStore,
    config_fingerprint,
    legacy_config_fingerprint,
    schema_fingerprint,
)
from ..runtime.failpoints import failpoint
from ..runtime.report import QuarantineRecord, RuntimeReport
from ..tabular.binning import DEFAULT_SKETCH_CAPACITY, streamed_quantile_edges
from ..tabular.io import ChunkedDataset
from ..tabular.preprocess import clean_matrix
from ..utils import Timer, as_label_vector
from .generation import (
    combinations_from_paths,
    mining_model,
    plan_features,
    rank_from_scores,
)
from .pipeline import (
    IterationTrace,
    _next_mining_paths,
    _trace_from_scalars,
    _trace_scalars,
)
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


def _rank_combinations_streamed(
    chunks, combos, gamma: int, n_rows: int, n_pos: int, stats=None
):
    """Algorithm 2 over the stream: merged count cells, shared finalize."""
    kept = [c for c in combos if c.features]
    if not kept:
        return []
    dense_limit = 2 * max(_DENSE_CELL_FACTOR * n_rows, _DENSE_CELL_FLOOR)

    def compute_partials():
        partials = None
        for _, block, y_chunk in chunks():
            part = combination_count_partial(block, y_chunk, kept, dense_limit)
            partials = (
                part
                if partials is None
                else merge_combination_counts(partials, part)
            )
        return partials

    if stats is None:
        partials = compute_partials()
    else:
        partials = stats.run("rank-combos", compute_partials)
    base = entropy_from_counts(np.array([n_rows - n_pos, n_pos]))
    ratios = gain_ratio_from_combination_counts(partials, n_rows, base)
    return rank_from_scores(kept, ratios, gamma)


def _generate_streamed(
    plan,
    data: ChunkedDataset,
    quarantine: "list[QuarantineRecord] | None",
    stats=None,
) -> list[Expression]:
    """Generation passes 2/3 over the stream (all operators stateless).

    In strict mode the expressions exist as soon as the plan does — no
    column needs materializing to construct a stateless ``Applied`` — so
    only the per-expression failpoints fire. In quarantine mode one
    stats pass evaluates every planned expression chunk-at-a-time,
    recording raises and OR-accumulating column finiteness; the
    screening decisions (a raise, or no finite value anywhere in the
    column) match the in-memory `_generate_with_quarantine` exactly.
    """
    if quarantine is None:
        for _ in plan:
            failpoint("generation.operator")
        return [Applied(op.name, children, None) for op, children in plan]

    exprs = [Applied(op.name, children, None) for op, children in plan]

    def compute_screen():
        reasons: "list[str | None]" = [None] * len(plan)
        any_finite = np.zeros(len(plan), dtype=bool)
        first_chunk = True
        for _, X_chunk, _ in data.iter_chunks():
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

    if stats is None:
        screen = compute_screen()
    else:
        screen = stats.run("generate-screen", compute_screen)
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


def _select_streamed(
    data: ChunkedDataset,
    candidates: "list[Expression]",
    n_rows: int,
    n_pos: int,
    cfg,
    max_output: "int | None",
    stats=None,
) -> SelectionReport:
    """The three selection stages over the stream; same report shape."""
    failpoint("selection.select")
    n_neg = n_rows - n_pos
    chunks_cand = forest_chunks(data, candidates)

    ranking = GradientBoostingClassifier(
        n_estimators=cfg.ranking_n_estimators,
        max_depth=cfg.ranking_max_depth,
        random_state=cfg.random_state,
        tie_rtol=GAIN_TIE_RTOL,
    )

    # -- Algorithm 3: IV filter ------------------------------------------
    # Equal-frequency edges come from the sketch pass (exact mode is
    # bit-identical to the in-memory matrix kernel's sort-derived edges);
    # the side stats reproduce its scorability mask. The same sketches
    # also answer the ranking GBM's max_bins edges: a candidate's chunk
    # values are the same in every forest it is evaluated in
    # (clean_matrix is elementwise), so its own sketch pass would build
    # identical sketches.
    def compute_edges():
        return streamed_quantile_edges(
            chunks_cand,
            len(candidates),
            (cfg.iv_bins, ranking.max_bins),
            sketch=cfg.sketch,
            capacity=DEFAULT_SKETCH_CAPACITY,
        )

    if stats is None:
        edges_state = compute_edges()
    else:
        edges_state = stats.run("sel-edges", compute_edges)
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

    if stats is None:
        counts = compute_counts()
    else:
        counts = stats.run("sel-iv-counts", compute_counts)
    ivs = iv_from_counts(counts[0], counts[1], n_pos, n_neg, scorable)
    kept_iv = np.flatnonzero(ivs > cfg.iv_threshold)
    if kept_iv.size < 1:  # min_keep fallback of the in-memory filter
        kept_iv = np.argsort(-ivs)[:1]
        kept_iv.sort()

    # -- Algorithm 4: redundancy removal ---------------------------------
    exprs_iv = [candidates[i] for i in kept_iv]
    chunks_iv = forest_chunks(data, exprs_iv)

    def compute_moments():
        moments = None
        for _, F_chunk, _ in chunks_iv():
            part = column_moments_partial(F_chunk)
            moments = (
                part if moments is None else merge_column_moments(moments, part)
            )
        return moments

    if stats is None:
        moments = compute_moments()
    else:
        moments = stats.run("sel-moments", compute_moments)
    mean = moments[1] / moments[0]  # repro: ignore[div-guard] n_rows >= 1 validated at fit entry
    scale = np.maximum(moments[2], -moments[3])

    def compute_gram():
        gram = None
        for _, F_chunk, _ in chunks_iv():
            part = centered_gram_partial(F_chunk, mean)
            gram = part if gram is None else merge_grams(gram, part)
        return gram

    if stats is None:
        gram = compute_gram()
    else:
        gram = stats.run("sel-gram", compute_gram)
    corr = correlations_from_gram(gram, scale, n_rows)
    kept_local = greedy_decorrelate(corr, ivs[kept_iv], cfg.pearson_threshold)
    kept_red = kept_iv[kept_local]

    # -- Stage 3: importance ranking -------------------------------------
    exprs_red = [candidates[i] for i in kept_red]
    fit_gbm_streaming(
        ranking,
        forest_chunks(data, exprs_red),
        n_rows,
        len(exprs_red),
        edges=[rank_edges[i] for i in kept_red],
        stats=None if stats is None else stats.scoped("sel-rank-gbm"),
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
    n_rows = train.n_rows
    if n_rows < 1:
        raise DataError("streaming fit needs at least one row")
    n_pos = _count_positives(train)
    if n_pos == 0 or n_pos == n_rows:
        raise DataError("SAFE.fit requires both classes in the training labels")

    max_output = cfg.max_output_features
    if max_output is None:
        max_output = 2 * train.n_cols  # the paper's 2M budget

    expressions: list[Expression] = [Var(i) for i in range(train.n_cols)]
    timer = Timer()
    safe.traces_ = []
    runtime_report = RuntimeReport()
    safe.runtime_report_ = runtime_report
    runtime_report.chunks_quarantined.extend(train.quarantined_chunks())
    fingerprint = config_fingerprint(cfg, train.names)
    legacy_fingerprints = (legacy_config_fingerprint(cfg, train.names),)
    # Paths of the previous ranking GBM that this iteration's mining GBM
    # would regrow (see _next_mining_paths); None means fit it.
    carried = None
    start_iteration = 0
    manager: "CheckpointManager | None" = None
    stats_store: "StatsCheckpointStore | None" = None
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir)
        state, skipped = manager.latest(
            expected_config_hash=fingerprint, also_accept=legacy_fingerprints
        )
        runtime_report.checkpoints_skipped.extend(skipped)
        if state is not None:
            expressions = list(state.expressions)
            start_iteration = state.iteration + 1
            runtime_report.resumed_from_iteration = state.iteration
            safe.traces_ = [_trace_from_scalars(t) for t in state.traces]
            carried = state.carried_paths
        stats_store = StatsCheckpointStore(
            manager.directory / "stats", fingerprint, legacy_fingerprints
        )

    for iteration in range(start_iteration, cfg.n_iterations):
        if (
            cfg.time_budget_seconds is not None
            and timer.elapsed() >= cfg.time_budget_seconds
        ):
            break
        iter_timer = Timer()
        chunks_cur = forest_chunks(train, expressions)
        it_stats = (
            None
            if stats_store is None
            else stats_store.scoped(f"it{iteration:05d}")
        )

        # -- Generation --------------------------------------------------
        mining = mining_model(
            cfg.mining_n_estimators,
            cfg.mining_max_depth,
            cfg.mining_learning_rate,
            cfg.random_state,
        )
        mining_reused = carried is not None
        if mining_reused:
            paths = carried
        else:
            fit_gbm_streaming(
                mining,
                chunks_cur,
                n_rows,
                len(expressions),
                sketch=cfg.sketch,
                stats=None if it_stats is None else it_stats.scoped("mine-gbm"),
            )
            paths = mining.paths()
        combos = combinations_from_paths(paths, max_size=cfg.max_combination_size)
        ranked = _rank_combinations_streamed(
            chunks_cur, combos, cfg.gamma, n_rows, n_pos, stats=it_stats
        )
        existing = {e.key for e in expressions}
        plan = plan_features(ranked, cfg.operators, expressions, existing)
        quarantined: "list[QuarantineRecord] | None" = (
            [] if cfg.on_operator_error == "quarantine" else None
        )
        new_exprs = _generate_streamed(plan, train, quarantined, stats=it_stats)
        if quarantined:
            runtime_report.record_quarantine(iteration, quarantined)
        if not new_exprs and iteration > 0:
            break  # nothing new to add; feature set has stabilized

        # -- Candidate pool + selection ----------------------------------
        if cfg.keep_originals or not new_exprs:
            candidates = list(expressions) + new_exprs
        else:
            candidates = new_exprs
        report = _select_streamed(
            train, candidates, n_rows, n_pos, cfg, max_output, stats=it_stats
        )
        chosen = list(report.final_order)
        if not chosen:
            break
        expressions = [candidates[i] for i in chosen]
        carried = _next_mining_paths(report, mining)
        safe.traces_.append(
            IterationTrace(
                iteration=iteration,
                n_paths=len(paths),
                n_combinations=len(combos),
                n_generated=len(new_exprs),
                n_candidates=len(candidates),
                selection=report,
                elapsed_seconds=iter_timer.elapsed(),
                n_quarantined=len(quarantined) if quarantined else 0,
                mining_reused=mining_reused,
            )
        )
        if manager is not None:
            manager.save(
                iteration,
                expressions,
                fingerprint,
                traces=[_trace_scalars(t) for t in safe.traces_],
                carried_paths=carried,
            )
            runtime_report.checkpoints_written += 1
            # The iteration's survivors are durable; its mid-iteration
            # statistics can never be needed again and must not leak
            # into the next iteration's stage keys.
            stats_store.clear()
        failpoint("pipeline.iteration")

    if stats_store is not None:
        runtime_report.stats_checkpoints_written = stats_store.written
        runtime_report.stats_stages_resumed = list(stats_store.resumed)
        runtime_report.stats_checkpoints_skipped = list(stats_store.skipped)
    return FeatureTransformer(
        expressions=tuple(expressions),
        original_names=train.names,
        metadata={
            "method": safe.name,
            "n_iterations_run": len(safe.traces_),
            "operators": list(cfg.operators),
            "schema_hash": schema_fingerprint(train.names),
            "config_hash": fingerprint,
        },
    )
