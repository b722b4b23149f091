"""Tests of the benchmark itself, at small sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run as cli
import spans
import workloads
from repro.operators.engine import EvalCache
from repro.operators.expressions import Applied, Var

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = workloads.SMALL_SIZES


def _fit(name: str, tmp_path: Path, **overrides):
    wl = workloads.fit_workload(name)
    ledger = workloads.Ledger()
    inputs = wl.setup(0, tmp_path, SMALL)
    outcome = wl.fit_once(inputs, tmp_path, SMALL, ledger, "t", **overrides)
    assert outcome is not None and ledger.failed == 0, ledger.failures
    return outcome.psi


def test_parallel_fit_matches_memory_fit(tmp_path):
    memory = _fit("fit_memory", tmp_path)
    parallel = _fit("fit_parallel", tmp_path)
    assert parallel.feature_keys == memory.feature_keys


def test_exact_stream_fit_matches_memory_fit(tmp_path):
    memory = _fit("fit_memory", tmp_path)
    stream = _fit("fit_stream", tmp_path, sketch="exact")
    assert stream.feature_keys == memory.feature_keys


def test_row_order_does_not_change_the_plan(tmp_path):
    wl = workloads.fit_workload("fit_memory")
    digests = set()
    for seed in (1, 2):
        inputs = wl.setup(seed, tmp_path, SMALL)
        outcome = wl.fit_once(inputs, tmp_path, SMALL, workloads.Ledger(), str(seed))
        digests.add(workloads.psi_digest(outcome.psi))
    assert len(digests) == 1


def test_plan_check_fails_on_a_plan_that_does_less():
    ledger = workloads.Ledger()
    short = SimpleNamespace(feature_keys=("(x0 * x1)", "((x3 - x2) + x7)"))
    workloads.check_plan(short, ledger, SMALL.fit_digest)
    failed = {name for name, (ok, _) in ledger.checks.items() if not ok}
    assert failed == {"plan_planted", "plan_size", "plan_digest"}
    assert not ledger.correct


def test_wrappers_installed_then_restored():
    from repro.core import pipeline

    original = pipeline.generate_features
    with spans.Installation(spans.Tracer()):
        assert pipeline.generate_features is not original
        assert len(spans.unrestored_bindings()) == len(spans.BINDINGS) + 1
    assert pipeline.generate_features is original
    assert spans.unrestored_bindings() == []


def test_span_opens_only_at_outermost_entry_into_a_layer():
    X = np.arange(12, dtype=np.float64).reshape(4, 3)
    expr = Applied("add", (Applied("mul", (Var(0), Var(1)), None), Var(2)), None)
    tracer = spans.Tracer()
    with spans.Installation(tracer):
        EvalCache(X).column(expr)
    totals = tracer.totals()
    assert totals["operators.engine.column"][0] == 1


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["outer", -1, 0, 100],
        ["inner", 0, 10, 40],
        ["inner", 0, 50, 70],
        ["leaf", 1, 15, 25],
    ]
    totals = tracer.totals()
    assert totals["outer"] == (1, 100e-9, 50e-9)
    assert totals["inner"] == (2, 50e-9, 40e-9)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result = workloads.run(name, seed=3, seconds=0, trace=trace, run_dir=tmp_path,
                           sizes=SMALL)
    assert result.ledger.correct, result.ledger.checks
    assert result.ledger.failed == 0, result.ledger.failures
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = result.as_json()["metrics"]
    assert [m["name"] for m in declared] == list(printed)
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert printed[metric["name"]]["value"] > 0
    named = [(m["name"], m["unit"]) for m in declared]
    if name == "serve" and not trace:
        named += [(n, unit) for n, unit, _ in workloads.SERVING]
    lines = cli.report_lines(result)
    for metric, unit in named + [("error_rate", "ratio")]:
        assert any(line.split()[:1] == [metric] and unit in line.split()
                   for line in lines), metric
    if trace and name.startswith("fit_"):
        values = {k: v["value"] for k, v in printed.items()}
        assert values["trace.driver_share"] < 0.1
    assert not list(tmp_path.glob(f"{name}-*")), "work directory left behind"


def test_declared_metrics_match_the_benchmark_code():
    for key, table in (("end_to_end", workloads.END_TO_END),
                       ("per_layer", workloads.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
        assert declared == list(table)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(cli.WORKLOADS) == workloads.WORKLOADS


def test_fails_without_printing_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
