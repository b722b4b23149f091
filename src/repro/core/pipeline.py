"""SAFE: the iterative generation/selection pipeline (Algorithm 1).

Each iteration:

1. train the mining GBM on the current feature set (line 3) — unless
   the previous iteration's ranking GBM already grew its trees: the
   current features are that GBM's top survivors, so when both GBMs
   share their hyperparameters and every split of the ranking GBM is
   certified column-set independent
   (:func:`repro.boosting.carry.carried_paths`), its re-indexed paths
   stand in for the refit, bit-identical to what the refit would give;
2. form feature combinations from same-path split features (line 4);
3. sort combinations by information gain ratio, keep top γ (line 5);
4. apply the operator set to the surviving combinations (line 6);
5. pool base + generated candidates (line 7);
6. Algorithm 3 — drop low-IV candidates (line 8);
7. Algorithm 4 — drop redundant candidates (line 9);
8. rank the rest by GBM gain and truncate to the output budget (line 10);
9. the survivors become the next iteration's base features (line 11).

The loop is written once, in :func:`run_algorithm1`, over a row source
that runs the data-touching stages: :class:`MatrixSource` holds the
training rows in memory, and :class:`repro.core.stream.ChunkSource`
streams them chunk-at-a-time out of core.

The fitted result is a :class:`FeatureTransformer` (Ψ) whose expressions
are composed over *original* columns, so chained iterations can build
higher-order features while the plan stays directly servable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..boosting.carry import hyperparameters
from ..boosting.tree import TreePath
from ..exceptions import DataError
from ..operators.engine import EvalCache, evaluate_forest
from ..operators.expressions import Expression, Var
from ..runtime.checkpoint import (
    CheckpointManager,
    config_fingerprint,
    legacy_config_fingerprint,
    schema_fingerprint,
)
from ..runtime.failpoints import failpoint
from ..runtime.report import QuarantineRecord, RuntimeReport
from ..tabular.dataset import Dataset
from ..tabular.io import ChunkedDataset
from ..tabular.preprocess import clean_matrix
from ..utils import Timer
from .config import SAFEConfig
from .generation import (
    combinations_from_paths,
    fit_mining_model,
    generate_features,
    mining_model,
    rank_combinations,
    ranking_model,
)
from .interface import AutoFeatureEngineer
from .selection import SelectionReport, select_features
from .transform import FeatureTransformer


@dataclass(frozen=True)
class IterationTrace:
    """Diagnostics recorded for one Algorithm 1 iteration.

    ``selection`` is ``None`` on traces restored from a checkpoint (only
    the scalar counters are persisted); live iterations always carry the
    full :class:`SelectionReport`. ``mining_reused`` says the iteration
    took its paths from the previous iteration's ranking GBM instead of
    fitting a mining GBM.
    """

    iteration: int
    n_paths: int
    n_combinations: int
    n_generated: int
    n_candidates: int
    selection: "SelectionReport | None"
    elapsed_seconds: float
    n_quarantined: int = 0
    mining_reused: bool = False


def _trace_scalars(trace: IterationTrace) -> dict:
    """The checkpoint-persisted (JSON-scalar) subset of one trace."""
    return {
        "iteration": trace.iteration,
        "n_paths": trace.n_paths,
        "n_combinations": trace.n_combinations,
        "n_generated": trace.n_generated,
        "n_candidates": trace.n_candidates,
        "elapsed_seconds": trace.elapsed_seconds,
        "n_quarantined": trace.n_quarantined,
        "mining_reused": trace.mining_reused,
    }


def _trace_from_scalars(payload: dict) -> IterationTrace:
    """Rebuild a (selection-less) trace from checkpointed scalars."""
    return IterationTrace(
        iteration=int(payload.get("iteration", 0)),
        n_paths=int(payload.get("n_paths", 0)),
        n_combinations=int(payload.get("n_combinations", 0)),
        n_generated=int(payload.get("n_generated", 0)),
        n_candidates=int(payload.get("n_candidates", 0)),
        selection=None,
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        n_quarantined=int(payload.get("n_quarantined", 0)),
        mining_reused=bool(payload.get("mining_reused", False)),
    )


class MatrixSource:
    """The in-memory row source of :func:`run_algorithm1`.

    Holds the current feature matrix and the fit's one
    :class:`~repro.operators.engine.EvalCache` over the training matrix:
    every expression column materialized during generation or candidate
    evaluation is computed once and reused across iterations (the
    training matrix never changes).
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, cfg: SAFEConfig) -> None:
        self.X_original = X
        self.y = y
        self.cfg = cfg
        self.X_cur = X.copy()
        self.cache = EvalCache(X)

    def start(self, report, manager, fingerprint, legacy_fingerprints) -> None:
        pass

    def resume(self, expressions) -> None:
        # The survivors' (deterministic) columns, rebuilt through the
        # cache exactly as the checkpointed iteration left them.
        self.X_cur = evaluate_forest(expressions, cache=self.cache)

    def begin(self, iteration, expressions) -> None:
        # X_cur is a private fresh allocation (an explicit .copy() on
        # iteration 0, a survivor slice or an evaluated forest
        # afterwards), so it is sanitized in place.
        self.X_fit = clean_matrix(self.X_cur, copy=False)

    def mine(self, mining_params):
        return fit_mining_model(self.X_fit, self.y, **mining_params).paths()

    def rank(self, combos):
        return rank_combinations(self.X_fit, self.y, combos, gamma=self.cfg.gamma)

    def generate(self, ranked, expressions, existing, quarantine):
        return generate_features(
            ranked,
            self.cfg.operators,
            expressions,
            self.X_original,
            existing_keys=existing,
            cache=self.cache,
            quarantine=quarantine,
        )

    def select(self, candidates, max_output) -> SelectionReport:
        cfg = self.cfg
        # evaluate_forest fills a freshly allocated block (cached
        # columns are copied into it), so in-place sanitation is safe
        # and saves one full-matrix copy per iteration.
        self.X_cand = clean_matrix(
            evaluate_forest(candidates, cache=self.cache), copy=False
        )
        report = select_features(
            self.X_cand,
            self.y,
            alpha=cfg.iv_threshold,
            iv_bins=cfg.iv_bins,
            theta=cfg.pearson_threshold,
            ranking_n_estimators=cfg.ranking_n_estimators,
            ranking_max_depth=cfg.ranking_max_depth,
            max_output=max_output,
            random_state=cfg.random_state,
        )
        chosen = list(report.final_order)
        if chosen:
            self.X_cur = self.X_cand[:, chosen]
            # Bound cache memory: keep only subtrees the survivors reuse.
            self.cache.retain([candidates[i] for i in chosen])
        return report

    def after_checkpoint(self) -> None:
        pass

    def finish(self, report) -> None:
        pass


def run_algorithm1(
    safe: "SAFE",
    source,
    names: "tuple[str, ...]",
    checkpoint_dir: "str | None",
) -> FeatureTransformer:
    """Run Algorithm 1 over ``source``; see the module docstring.

    ``safe`` supplies the config and receives the traces and runtime
    report. ``source`` (:class:`MatrixSource` or
    :class:`repro.core.stream.ChunkSource`) runs every stage that
    touches rows, through these hooks:

    * ``start(report, manager, fingerprint, legacy_fingerprints)`` —
      once, before resume; ``manager`` is ``None`` without a checkpoint
      directory;
    * ``resume(expressions)`` — after a checkpoint restored the
      survivors;
    * ``begin(iteration, expressions)`` — at the top of each iteration;
    * ``mine(mining_params)`` → paths, ``rank(combos)`` → top-γ ranked
      combinations, ``generate(ranked, expressions, existing_keys,
      quarantine)`` → new expressions, and ``select(candidates,
      max_output)`` → :class:`SelectionReport`;
    * ``after_checkpoint()`` — once the iteration's checkpoint landed,
      before the ``pipeline.iteration`` failpoint;
    * ``finish(report)`` — when the loop ends without raising.

    A resume from a checkpoint that records a stop calls neither
    ``resume`` nor any stage.
    """
    cfg = safe.config
    max_output = cfg.max_output_features
    if max_output is None:
        max_output = 2 * len(names)  # the paper's 2M budget

    expressions: list[Expression] = [Var(i) for i in range(len(names))]
    timer = Timer()
    safe.traces_ = []
    runtime_report = RuntimeReport()
    safe.runtime_report_ = runtime_report
    fingerprint = config_fingerprint(cfg, names)
    legacy_fingerprints = (legacy_config_fingerprint(cfg, names),)
    mining_params = {
        "n_estimators": cfg.mining_n_estimators,
        "max_depth": cfg.mining_max_depth,
        "learning_rate": cfg.mining_learning_rate,
        "random_state": cfg.random_state,
    }
    # The next mining GBM fits on the ranking GBM's top columns with the
    # same rows and labels, so it regrows the ranking GBM's certified
    # paths (SelectionReport.carried_paths) when the two share their
    # hyperparameters, compared on the built models: the ranking learning
    # rate is the GBM default, the mining one a config field.
    may_carry = hyperparameters(mining_model(**mining_params)) == hyperparameters(
        ranking_model(
            cfg.ranking_n_estimators, cfg.ranking_max_depth, cfg.random_state
        )
    )
    # Paths of the previous ranking GBM that this iteration's mining
    # GBM would regrow; None means fit it.
    carried: "list[TreePath] | None" = None
    start_iteration = 0
    # Why the loop stopped before n_iterations (a time-budget stop is no
    # stop: a rerun may go on).
    stopped: "str | None" = None
    manager: "CheckpointManager | None" = None
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir)
    source.start(runtime_report, manager, fingerprint, legacy_fingerprints)
    if manager is not None:
        state, skipped = manager.latest(
            expected_config_hash=fingerprint, also_accept=legacy_fingerprints
        )
        runtime_report.checkpoints_skipped.extend(skipped)
        if state is not None:
            # Resume: the survivors become the working feature set.
            expressions = list(state.expressions)
            runtime_report.resumed_from_iteration = state.iteration
            safe.traces_ = [_trace_from_scalars(t) for t in state.traces]
            if state.stopped is None:
                start_iteration = state.iteration + 1
                carried = state.carried_paths
                source.resume(expressions)
            else:  # the fit stopped there: its plan is final
                start_iteration = cfg.n_iterations
    for iteration in range(start_iteration, cfg.n_iterations):
        if (
            cfg.time_budget_seconds is not None
            and timer.elapsed() >= cfg.time_budget_seconds
        ):
            break
        iter_timer = Timer()
        source.begin(iteration, expressions)

        # -- Generation --------------------------------------------
        mining_reused = carried is not None
        paths = carried if mining_reused else source.mine(mining_params)
        combos = combinations_from_paths(paths, max_size=cfg.max_combination_size)
        ranked = source.rank(combos)
        quarantined: "list[QuarantineRecord] | None" = (
            [] if cfg.on_operator_error == "quarantine" else None
        )
        new_exprs = source.generate(
            ranked, expressions, {e.key for e in expressions}, quarantined
        )
        if quarantined:
            runtime_report.record_quarantine(iteration, quarantined)
        if not new_exprs and iteration > 0:
            stopped = "nothing new to generate"  # feature set has stabilized
            break

        # -- Candidate pool (line 7) and selection (lines 8-10) -------
        if cfg.keep_originals or not new_exprs:
            candidates = list(expressions) + new_exprs
        else:
            candidates = new_exprs
        report = source.select(candidates, max_output)
        chosen = list(report.final_order)
        if not chosen:
            stopped = "selection kept no feature"
            break
        expressions = [candidates[i] for i in chosen]
        carried = report.carried_paths if may_carry else None
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
            source.after_checkpoint()
        # Chaos hook: lets tests kill the fit between iterations (after
        # the checkpoint landed) and assert a clean resume.
        failpoint("pipeline.iteration")

    if stopped is not None and manager is not None:
        # The state after the stopped iteration is the plan; recording
        # the stop lets a rerun return it without repeating the iteration.
        manager.save(
            iteration,
            expressions,
            fingerprint,
            traces=[_trace_scalars(t) for t in safe.traces_],
            stopped=stopped,
        )
    source.finish(runtime_report)
    return FeatureTransformer(
        expressions=tuple(expressions),
        original_names=names,
        metadata={
            "method": safe.name,
            "n_iterations_run": len(safe.traces_),
            "operators": list(cfg.operators),
            "schema_hash": schema_fingerprint(names),
            "config_hash": fingerprint,
        },
    )


@dataclass
class SAFE(AutoFeatureEngineer):
    """Scalable Automatic Feature Engineering (the paper's method).

    >>> safe = SAFE(SAFEConfig(n_iterations=1))
    >>> transformer = safe.fit(train)
    >>> train_new = transformer.transform(train)
    """

    config: SAFEConfig = field(default_factory=SAFEConfig)
    name: str = "SAFE"

    #: Per-iteration diagnostics populated by :meth:`fit`.
    traces_: list = field(default_factory=list, repr=False)
    #: Fault/degradation bookkeeping of the last :meth:`fit` run.
    runtime_report_: RuntimeReport = field(default_factory=RuntimeReport, repr=False)

    def fit(
        self,
        train: "Dataset | ChunkedDataset",
        valid: "Dataset | None" = None,
        checkpoint_dir: "str | None" = None,
    ) -> FeatureTransformer:
        """Run Algorithm 1; see the module docstring for the stages.

        ``train`` may be a :class:`~repro.tabular.ChunkedDataset`, in
        which case the fit streams the rows chunk-at-a-time at
        O(chunk + state) memory (see :mod:`repro.core.stream`), with
        ``config.sketch`` choosing between bounded-memory approximate
        quantile edges and the bit-identical exact mode. The streaming
        path requires row-wise stateless operators.

        ``valid`` is checked and otherwise unused: no GBM of Algorithm 1
        early-stops, so a validation set cannot change Ψ. Either fit
        raises :class:`~repro.exceptions.DataError` when its column count
        differs from ``train``'s.

        ``checkpoint_dir`` enables fault tolerance across process death:
        after every completed iteration the survivor expressions and
        trace scalars are atomically persisted there, and a *restarted*
        fit pointed at the same directory resumes from the newest valid
        checkpoint whose config/schema fingerprint matches this fit —
        producing the same Ψ as an uninterrupted run (iterations are
        deterministic functions of the restored expressions, the data,
        and the seed). Corrupt or mismatched checkpoints are skipped
        (recorded on :attr:`runtime_report_`), never trusted. A
        checkpoint also holds the paths the next iteration's mining GBM
        would grow, when they are known, so a resumed fit skips the same
        mining fit an uninterrupted one does. A fit that stops before
        ``n_iterations`` (nothing new to generate, or selection kept
        nothing) records the stop, and a rerun returns its plan without
        running a stage; a time-budget stop is not recorded, so a rerun
        goes on.
        """
        if isinstance(train, ChunkedDataset):
            from .stream import fit_safe_streaming

            return fit_safe_streaming(self, train, checkpoint_dir=checkpoint_dir)
        y = train.require_labels()
        if np.unique(y).size < 2:
            raise DataError("SAFE.fit requires both classes in the training labels")
        return run_algorithm1(
            self, MatrixSource(train.X, y, self.config), train.names, checkpoint_dir
        )
