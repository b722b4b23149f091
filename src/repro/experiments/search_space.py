"""Experiment E8 — search-space reduction: Eq. (3)'s T vs Eq. (5)'s T*.

For each benchmark, compute the exhaustive pairwise search-space size T
(ordered feature subsets × operators), the path-restricted worst case T*
(summing over mined tree paths), and the *actual* number of distinct
combinations after cross-path merging. The paper's claim is T* ≪ T, with
the deduplicated count far smaller still.

Run: ``python -m repro.experiments.search_space [--datasets a,b]``
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from ..core.generation import (
    combinations_from_paths,
    fit_mining_model,
    mined_search_space_size,
    search_space_size,
)
from ..datasets import BENCHMARK_NAMES, load_benchmark
from ..tabular.preprocess import clean_matrix
from .reporting import banner, format_table, save_results

#: Wide datasets by default — the reduction only bites when M is large
#: (on M <= 14 every feature tends to be a split feature).
DEFAULT_DATASETS: tuple[str, ...] = ("valley", "spambase", "ailerons", "nomao")

#: {arity: operator count} for the experiment set {+,−,×,÷} (Eq. 3 counts
#: ordered subsets, so each binary operator counts once).
OPERATOR_COUNTS: dict[int, int] = {2: 4}


@dataclass(frozen=True)
class SearchSpaceResult:
    rows: dict  # dataset -> {"T": ..., "T_star": ..., "actual": ..., ...}


def run(
    datasets: "tuple[str, ...]" = DEFAULT_DATASETS,
    scale: float = 0.15,
    seed: int = 0,
    verbose: bool = True,
) -> SearchSpaceResult:
    rows: dict[str, dict[str, float]] = {}
    for ds in datasets:
        train, _, __ = load_benchmark(ds, scale=scale, seed=seed)
        model = fit_mining_model(
            clean_matrix(train.X), train.require_labels(),
            n_estimators=20, max_depth=4, learning_rate=0.3, random_state=seed,
        )
        paths = model.paths()
        t_full = search_space_size(train.n_cols, OPERATOR_COUNTS)
        t_star = mined_search_space_size(paths, OPERATOR_COUNTS)
        combos = combinations_from_paths(paths, max_size=2)
        actual_pairs = sum(1 for c in combos if c.size == 2)
        rows[ds] = {
            "M": train.n_cols,
            "n_paths": len(paths),
            "T": t_full,
            "T_star": t_star,
            "actual_distinct_pairs": actual_pairs,
            "reduction_T_over_actual": t_full / max(4 * actual_pairs, 1),
        }
    if verbose:
        print(banner("Search-space reduction (Eq. 3 vs Eq. 5 vs realized)"))
        table_rows = [
            [
                ds,
                int(rows[ds]["M"]),
                int(rows[ds]["n_paths"]),
                f"{rows[ds]['T']:.0f}",
                f"{rows[ds]['T_star']:.0f}",
                int(rows[ds]["actual_distinct_pairs"]),
                f"{rows[ds]['reduction_T_over_actual']:.1f}x",
            ]
            for ds in datasets
        ]
        print(format_table(
            ["Dataset", "M", "paths", "T (Eq.3)", "T* (Eq.5)", "distinct pairs",
             "T / realized"],
            table_rows,
        ))
    return SearchSpaceResult(rows=rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--datasets", type=str, default=",".join(DEFAULT_DATASETS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()
    datasets = (
        BENCHMARK_NAMES if args.datasets == "all"
        else tuple(s.strip() for s in args.datasets.split(","))
    )
    result = run(datasets=datasets, scale=args.scale, seed=args.seed)
    if args.out:
        save_results({"rows": result.rows}, args.out)


if __name__ == "__main__":
    main()
