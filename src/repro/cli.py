"""Command-line interface for the SAFE feature-engineering workflow.

The paper's deployment story is: learn Ψ offline, persist it, and serve
it (interpretably, in real time) next to any downstream model. The CLI
mirrors that lifecycle on CSV files:

* ``fit``        — learn Ψ from a labeled training CSV, write a JSON plan
* ``transform``  — apply a saved plan to a CSV, write the generated CSV
* ``serve``      — run a CSV of requests through the hardened serving loop
  (admission + coercion policy, per-request deadlines, circuit breakers,
  bounded queue with load shedding, optional mid-stream plan hot-swap)
* ``evaluate``   — compare original vs. plan features for a classifier
* ``inspect``    — print a saved plan's features (the interpretability view)
* ``lint``       — static analysis of the numerical kernels (AST lint)
* ``validate-plan`` — statically validate a saved plan without touching data

Usage::

    python -m repro fit --train train.csv --plan psi.json --method SAFE
    python -m repro transform --plan psi.json --input new.csv --output out.csv
    python -m repro serve psi.json --input requests.csv --output scored.csv \\
        --deadline-ms 50 --max-queue 256 --coerce reorder,cast,missing \\
        --report serving_report.json
    python -m repro evaluate --train train.csv --test test.csv --plan psi.json
    python -m repro inspect --plan psi.json
    python -m repro lint --json
    python -m repro validate-plan --plan psi.json

``serve`` exits 0 when every request was served clean, 1 when any
response was degraded/rejected/shed (the report names why), and 2 on
operational errors (missing plan, schema-hash mismatch, ...).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.pipeline import SAFE
from .core.transform import FeatureTransformer
from .exceptions import ReproError
from .experiments.runner import METHOD_ORDER, make_method
from .metrics import roc_auc_score
from .models import PAPER_CLASSIFIERS, make_classifier
from .tabular.dataset import Dataset
from .tabular.io import load_csv, save_csv


def _stream_dataset(args: argparse.Namespace):
    """Open the training CSV as a manifest-verified chunked dataset.

    The CSV converts once into memory-mapped ``.npy`` files plus an
    integrity manifest under a cache directory (inside the checkpoint
    directory when one is given, so a resumed ``fit --stream`` reuses
    the conversion and still verifies every chunk it reads).
    """
    import tempfile

    from .tabular.io import ChunkedDataset, csv_to_npy, manifest_path_for

    if args.checkpoint_dir is not None:
        cache = Path(args.checkpoint_dir) / "stream-cache"
    else:
        cache = Path(tempfile.mkdtemp(prefix="repro-stream-"))
    cache.mkdir(parents=True, exist_ok=True)
    x_path = cache / "X.npy"
    y_path = cache / "y.npy"
    if not (
        x_path.exists() and y_path.exists()
        and manifest_path_for(x_path).exists()
    ):
        csv_to_npy(
            args.train,
            x_path,
            y_path,
            label_column=args.label_column,
            chunk_rows=args.chunk_rows,
            manifest=True,
        )
    return ChunkedDataset.from_npy(
        x_path,
        y_path=y_path,
        chunk_rows=args.chunk_rows,
        manifest=True,
        on_chunk_error=args.on_chunk_error,
    )


def _cmd_fit(args: argparse.Namespace) -> int:
    method = make_method(
        args.method,
        gamma=args.gamma,
        seed=args.seed,
        n_iterations=args.iterations,
        max_output_features=args.max_features,
    )
    if args.stream:
        if not isinstance(method, SAFE):
            raise ReproError("--stream is supported for --method SAFE only")
        train = _stream_dataset(args)
    else:
        train = load_csv(args.train, label_column=args.label_column)
    valid = (
        load_csv(args.valid, label_column=args.label_column)
        if args.valid
        else None
    )
    if isinstance(method, SAFE):
        transformer = method.fit(train, valid, checkpoint_dir=args.checkpoint_dir)
    else:
        transformer = method.fit(train, valid)
    if args.stream and method.runtime_report_.chunks_quarantined:
        print(
            f"quarantined {len(method.runtime_report_.chunks_quarantined)} "
            "corrupt chunk(s); fit used the surviving rows",
            file=sys.stderr,
        )
    transformer.save(args.plan)
    print(f"fitted {args.method}: {transformer.n_output_features} features "
          f"-> {args.plan}")
    for name in transformer.feature_names[: args.show]:
        print(f"  {name}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    transformer = FeatureTransformer.load(args.plan)
    data = load_csv(args.input, label_column=args.label_column)
    if data.names != transformer.original_names:
        # Column order may differ between exports; realign by name.
        data = data.select(list(transformer.original_names))
    out = transformer.transform(data, errors=args.errors)
    save_csv(out, args.output, label_column=args.label_column)
    print(f"transformed {out.n_rows} rows x {out.n_cols} features -> {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from .serving import CoercionPolicy, ServingSession

    session = ServingSession(
        args.plan,
        deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        policy=CoercionPolicy.from_spec(args.coerce),
        breaker_threshold=args.breaker_threshold,
    )
    data = load_csv(args.input, label_column=args.label_column)
    # Requests go through admission as named records, so a reordered or
    # drifted export degrades per the coercion policy instead of binding
    # columns positionally.
    requests = [dict(zip(data.names, row)) for row in data.X]

    swap_at = len(requests) // 2 if args.swap_plan else len(requests)
    responses = session.serve(requests[:swap_at])
    if args.swap_plan:
        try:
            session.swap_plan(args.swap_plan)
            print(f"hot-swapped plan -> {args.swap_plan}")
        except ReproError as exc:
            print(f"hot-swap rolled back: {exc}", file=sys.stderr)
        responses += session.serve(requests[swap_at:])

    plan = session.plan
    k = plan.n_output_features
    out = np.full((len(responses), k), np.nan)
    for i, response in enumerate(responses):
        if response.ok:
            out[i] = response.values
    if args.output:
        save_csv(
            Dataset(X=out, names=plan._output_names()),
            args.output,
            label_column=args.label_column,
        )

    counts: "dict[str, int]" = {}
    for response in responses:
        counts[response.status] = counts.get(response.status, 0) + 1
    summary = session.report.summary()
    if args.report:
        from .utils import atomic_write

        with atomic_write(args.report) as fh:
            fh.write(json.dumps(summary, indent=2))
    print(
        f"served {len(responses)} requests: "
        + ", ".join(f"{counts.get(s, 0)} {s}" for s in
                    ("ok", "degraded", "rejected", "shed"))
        + (f" -> {args.output}" if args.output else "")
    )
    health = session.health()
    print(
        f"health: {health['status']} "
        f"(open breakers: {len(health['open_breakers'])}, "
        f"deadline hits: {summary['deadline_hits']}, "
        f"coerced: {summary['admitted_coerced']}, "
        f"swaps: {summary['swaps_completed']} ok / "
        f"{summary['swaps_rolled_back']} rolled back)"
    )
    clean = all(response.status == "ok" for response in responses)
    return 0 if clean else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    train = load_csv(args.train, label_column=args.label_column)
    test = load_csv(args.test, label_column=args.label_column)
    rows = [("ORIG", train, test)]
    if args.plan:
        transformer = FeatureTransformer.load(args.plan)
        rows.append(("PLAN", transformer.transform(train), transformer.transform(test)))
    for label, tr, te in rows:
        clf = make_classifier(args.classifier)
        clf.fit(tr.X, tr.require_labels())
        auc = roc_auc_score(te.require_labels(), clf.predict_proba(te.X)[:, 1])
        print(f"{label}: {args.classifier.upper()} test AUC = {auc:.4f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import render_findings, run_lint

    src_root = args.src or Path(__file__).resolve().parent
    repo_root = src_root.parent.parent  # src/repro -> repo checkout
    tests_root = args.tests
    if tests_root is None:
        candidate = repo_root / "tests"
        tests_root = candidate if candidate.is_dir() else None
    findings = run_lint(src_root, tests_root=tests_root, repo_root=repo_root)
    print(render_findings(findings, as_json=args.json))
    return 1 if findings else 0


def _cmd_validate_plan(args: argparse.Namespace) -> int:
    from .analysis import validate_plan

    report = validate_plan(args.plan)
    print(report.to_json() if args.json else report.render())
    return 0 if report.ok else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    transformer = FeatureTransformer.load(args.plan)
    print(transformer.describe())
    meta = transformer.metadata
    if meta:
        print("metadata:")
        for key, value in meta.items():
            print(f"  {key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAFE automatic feature engineering (ICDE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="learn a feature-generation plan")
    fit.add_argument("--train", required=True, type=Path)
    fit.add_argument("--valid", type=Path, default=None)
    fit.add_argument("--plan", required=True, type=Path)
    fit.add_argument("--method", default="SAFE",
                     choices=list(METHOD_ORDER) + ["AUTO"])
    fit.add_argument("--gamma", type=int, default=50)
    fit.add_argument("--iterations", type=int, default=1)
    fit.add_argument("--max-features", type=int, default=None)
    fit.add_argument("--label-column", default="label")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--checkpoint-dir", type=Path, default=None,
                     help="persist per-iteration checkpoints here (SAFE only); "
                          "a restarted fit pointed at the same directory "
                          "resumes from the last completed iteration (with "
                          "--stream, also mid-iteration via sufficient-"
                          "statistic snapshots)")
    fit.add_argument("--stream", action="store_true",
                     help="fit out of core: convert the CSV to memory-mapped "
                          "chunks with an integrity manifest and stream the "
                          "fit (SAFE only)")
    fit.add_argument("--chunk-rows", type=int, default=65536,
                     help="rows per streamed chunk (with --stream)")
    fit.add_argument("--on-chunk-error", default="raise",
                     choices=["raise", "quarantine"],
                     help="what to do when a chunk fails its integrity "
                          "manifest: abort the fit, or exclude the chunk "
                          "deterministically and record it")
    fit.add_argument("--show", type=int, default=10,
                     help="number of feature formulas to print")
    fit.set_defaults(func=_cmd_fit)

    transform = sub.add_parser("transform", help="apply a saved plan to a CSV")
    transform.add_argument("--plan", required=True, type=Path)
    transform.add_argument("--input", required=True, type=Path)
    transform.add_argument("--output", required=True, type=Path)
    transform.add_argument("--label-column", default="label")
    transform.add_argument("--errors", default="raise",
                           choices=["raise", "null"],
                           help="'null' serves degraded: a failing expression "
                                "yields a NaN column instead of aborting")
    transform.set_defaults(func=_cmd_transform)

    serve = sub.add_parser(
        "serve",
        help="serve a CSV of requests through the hardened serving loop "
             "(exit 1 when any response degraded)",
    )
    serve.add_argument("plan", type=Path,
                       help="the fitted plan JSON to serve")
    serve.add_argument("--input", required=True, type=Path,
                       help="CSV of requests (one row per request)")
    serve.add_argument("--output", type=Path, default=None,
                       help="CSV of served feature rows (NaN row for "
                            "rejected/shed requests)")
    serve.add_argument("--label-column", default="label")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request evaluation budget in milliseconds "
                            "(monotonic clock; default unbounded)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="request queue bound; overflow sheds the oldest "
                            "request with a flagged response")
    serve.add_argument("--coerce", default="reorder,cast",
                       help="admission coercion policy: none | all | comma "
                            "list of reorder,cast,missing,extra")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive operator failures that trip an "
                            "expression's circuit breaker open")
    serve.add_argument("--swap-plan", type=Path, default=None,
                       help="hot-swap to this plan halfway through the "
                            "input (fingerprint-verified, self-tested, "
                            "rolled back on failure)")
    serve.add_argument("--report", type=Path, default=None,
                       help="write the ServingReport summary JSON here")
    serve.set_defaults(func=_cmd_serve)

    evaluate = sub.add_parser("evaluate", help="AUC of original vs plan features")
    evaluate.add_argument("--train", required=True, type=Path)
    evaluate.add_argument("--test", required=True, type=Path)
    evaluate.add_argument("--plan", type=Path, default=None)
    evaluate.add_argument("--classifier", default="xgb",
                          choices=list(PAPER_CLASSIFIERS))
    evaluate.add_argument("--label-column", default="label")
    evaluate.set_defaults(func=_cmd_evaluate)

    inspect = sub.add_parser("inspect", help="print a saved plan")
    inspect.add_argument("--plan", required=True, type=Path)
    inspect.set_defaults(func=_cmd_inspect)

    lint = sub.add_parser(
        "lint", help="static analysis of the numerical kernels (exit 1 on findings)"
    )
    lint.add_argument("--src", type=Path, default=None,
                      help="source root to lint (default: the installed repro package)")
    lint.add_argument("--tests", type=Path, default=None,
                      help="test root for the kernel-parity cross-check "
                           "(default: <repo>/tests when present)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as a JSON array")
    lint.set_defaults(func=_cmd_lint)

    validate_plan = sub.add_parser(
        "validate-plan",
        help="statically validate a saved plan (exit 1 when rejected)",
    )
    validate_plan.add_argument("--plan", required=True, type=Path)
    validate_plan.add_argument("--json", action="store_true",
                               help="emit the report as JSON")
    validate_plan.set_defaults(func=_cmd_validate_plan)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): exit quietly.
        return 0
    except ReproError as exc:
        # Expected, user-actionable failures (bad file, schema mismatch,
        # invalid configuration): one line on stderr, exit 2 — distinct
        # from exit 1, which subcommands use for "ran fine, found
        # problems" (lint findings, rejected plans).
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
