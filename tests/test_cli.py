"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import FeatureTransformer
from repro.datasets import load_benchmark
from repro.tabular import load_csv, save_csv


@pytest.fixture
def csv_dataset(tmp_path):
    train, __, test = load_benchmark("wind", scale=0.06)
    train_path = tmp_path / "train.csv"
    test_path = tmp_path / "test.csv"
    save_csv(train, train_path)
    save_csv(test, test_path)
    return train_path, test_path, tmp_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fit_defaults(self):
        args = build_parser().parse_args(
            ["fit", "--train", "a.csv", "--plan", "p.json"]
        )
        assert args.method == "SAFE"
        assert args.gamma == 50

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fit", "--train", "a.csv", "--plan", "p.json",
                 "--method", "LFE"]
            )


class TestCommands:
    def test_fit_transform_evaluate_inspect(self, csv_dataset, capsys):
        train_path, test_path, tmp = csv_dataset
        plan = tmp / "plan.json"

        rc = main(["fit", "--train", str(train_path), "--plan", str(plan),
                   "--gamma", "15", "--show", "2"])
        assert rc == 0
        assert plan.exists()
        out = capsys.readouterr().out
        assert "fitted SAFE" in out

        out_csv = tmp / "out.csv"
        rc = main(["transform", "--plan", str(plan),
                   "--input", str(test_path), "--output", str(out_csv)])
        assert rc == 0
        transformed = load_csv(out_csv)
        assert transformed.n_rows == load_csv(test_path).n_rows

        rc = main(["evaluate", "--train", str(train_path),
                   "--test", str(test_path), "--plan", str(plan),
                   "--classifier", "lr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ORIG" in out and "PLAN" in out

        rc = main(["inspect", "--plan", str(plan)])
        assert rc == 0
        assert "FeatureTransformer" in capsys.readouterr().out

    def test_evaluate_without_plan(self, csv_dataset, capsys):
        train_path, test_path, __ = csv_dataset
        rc = main(["evaluate", "--train", str(train_path),
                   "--test", str(test_path), "--classifier", "lr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ORIG" in out and "PLAN" not in out

    def test_fit_with_rand_method(self, csv_dataset, capsys):
        train_path, __, tmp = csv_dataset
        plan = tmp / "rand.json"
        rc = main(["fit", "--train", str(train_path), "--plan", str(plan),
                   "--method", "RAND", "--gamma", "10"])
        assert rc == 0
        assert "fitted RAND" in capsys.readouterr().out

    def test_transform_realigns_column_order(self, csv_dataset, tmp_path):
        train_path, test_path, tmp = csv_dataset
        plan = tmp / "plan2.json"
        main(["fit", "--train", str(train_path), "--plan", str(plan),
              "--gamma", "10"])
        # Shuffle the input's column order; transform must realign by name.
        data = load_csv(test_path)
        shuffled = data.select(list(reversed(data.names)))
        shuffled_path = tmp_path / "shuffled.csv"
        save_csv(shuffled, shuffled_path)
        out_csv = tmp_path / "aligned.csv"
        rc = main(["transform", "--plan", str(plan),
                   "--input", str(shuffled_path), "--output", str(out_csv)])
        assert rc == 0
        straight = tmp_path / "straight.csv"
        main(["transform", "--plan", str(plan),
              "--input", str(test_path), "--output", str(straight)])
        assert np.allclose(load_csv(out_csv).X, load_csv(straight).X)


class TestLintCommand:
    def test_lint_is_clean_on_the_repo(self, capsys):
        rc = main(["lint"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no findings" in out

    def test_lint_json_output(self, capsys):
        rc = main(["lint", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out) == []

    def test_lint_custom_src_with_defect(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(a, b):\n    return a / b\n")
        rc = main(["lint", "--src", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "div-guard" in out


class TestValidatePlanCommand:
    def _saved_plan(self, tmp_path) -> str:
        from repro.core.transform import FeatureTransformer
        from repro.operators import Applied, Var

        ft = FeatureTransformer(
            expressions=(Applied("add", (Var(0), Var(1))),),
            original_names=("a", "b"),
        )
        path = tmp_path / "psi.json"
        ft.save(path)
        return str(path)

    def test_valid_plan_accepted(self, tmp_path, capsys):
        rc = main(["validate-plan", "--plan", self._saved_plan(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan OK" in out

    def test_corrupt_plan_rejected(self, tmp_path, capsys):
        path = self._saved_plan(tmp_path)
        payload = json.loads(Path(path).read_text())
        payload["expressions"][0]["op"] = "frobnicate"
        Path(path).write_text(json.dumps(payload))
        rc = main(["validate-plan", "--plan", path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "unknown-operator" in out

    def test_json_report(self, tmp_path, capsys):
        rc = main(["validate-plan", "--plan", self._saved_plan(tmp_path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["ok"] is True


class TestErrorExitCodes:
    """Satellite: ReproError subclasses exit 2 with one stderr line."""

    def test_missing_plan_file_exits_2(self, tmp_path, capsys):
        rc = main(["inspect", "--plan", str(tmp_path / "missing.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DataError:")
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_plan_json_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "broken.json"
        plan.write_text("{not json")
        rc = main(["transform", "--plan", str(plan),
                   "--input", str(tmp_path / "in.csv"),
                   "--output", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "error: DataError:" in capsys.readouterr().err

    def test_malformed_plan_payload_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "partial.json"
        plan.write_text(json.dumps({"original_names": ["a"]}))
        rc = main(["inspect", "--plan", str(plan)])
        assert rc == 2
        assert "error: SchemaError:" in capsys.readouterr().err

    def test_single_class_labels_fit_exits_2(self, tmp_path, capsys):
        train = tmp_path / "one_class.csv"
        rows = ["f0,f1,label"] + [f"{i},{i % 3},1" for i in range(20)]
        train.write_text("\n".join(rows) + "\n")
        rc = main(["fit", "--train", str(train), "--plan", str(tmp_path / "p.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: DataError: SAFE.fit requires both classes in the "
            "training labels\n"
        )
        assert not (tmp_path / "p.json").exists()

    def test_mixed_width_csv_fit_exits_2(self, tmp_path, capsys):
        train = tmp_path / "mixed.csv"
        train.write_text("a,b,label\n1,2,0\n3,4,5,1\n5,6,1\n")
        rc = main(["fit", "--train", str(train), "--plan", str(tmp_path / "p.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: DataError: {train}:3: ragged row (header has 3 fields)\n"
        )

    def test_finding_exits_stay_at_1(self, tmp_path, capsys):
        # Exit 1 still means "ran fine, rejected the input", not a fault.
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text("def f(a, b):\n    return a / b\n")
        rc = main(["lint", "--src", str(src)])
        assert rc == 1


class TestCheckpointFlag:
    def test_fit_writes_and_resumes_from_checkpoints(self, csv_dataset, capsys):
        train_path, __, tmp = csv_dataset
        plan = tmp / "plan.json"
        ckpt = tmp / "ckpt"
        rc = main(["fit", "--train", str(train_path), "--plan", str(plan),
                   "--gamma", "10", "--show", "0",
                   "--checkpoint-dir", str(ckpt)])
        assert rc == 0
        checkpoints = sorted(ckpt.glob("iter_*.json"))
        assert checkpoints, "fit left no checkpoint files"
        first = FeatureTransformer.load(plan)

        # A re-run against the same directory resumes (and, with every
        # iteration already checkpointed, reproduces the same plan).
        rc = main(["fit", "--train", str(train_path), "--plan", str(plan),
                   "--gamma", "10", "--show", "0",
                   "--checkpoint-dir", str(ckpt)])
        assert rc == 0
        assert FeatureTransformer.load(plan).feature_keys == first.feature_keys


class TestTransformErrorsFlag:
    def test_errors_null_accepted(self, csv_dataset):
        train_path, test_path, tmp = csv_dataset
        plan = tmp / "plan.json"
        assert main(["fit", "--train", str(train_path), "--plan", str(plan),
                     "--gamma", "10", "--show", "0"]) == 0
        out_csv = tmp / "out.csv"
        rc = main(["transform", "--plan", str(plan),
                   "--input", str(test_path), "--output", str(out_csv),
                   "--errors", "null"])
        assert rc == 0
        assert out_csv.exists()

    def test_unknown_errors_value_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["transform", "--plan", "p.json", "--input", "a.csv",
                 "--output", "b.csv", "--errors", "ignore"]
            )


class TestServeCommand:
    def _fit(self, csv_dataset):
        train_path, test_path, tmp = csv_dataset
        plan = tmp / "plan.json"
        assert main(["fit", "--train", str(train_path), "--plan", str(plan),
                     "--gamma", "10", "--show", "0"]) == 0
        return plan, test_path, tmp

    def test_serve_clean_traffic_exits_0(self, csv_dataset, capsys):
        plan, test_path, tmp = self._fit(csv_dataset)
        out_csv = tmp / "served.csv"
        report = tmp / "report.json"
        rc = main(["serve", str(plan), "--input", str(test_path),
                   "--output", str(out_csv), "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served" in out and "health: ok" in out

        n_rows = load_csv(test_path).n_rows
        assert load_csv(out_csv, label_column=None).n_rows == n_rows
        summary = json.loads(report.read_text())
        assert summary["requests_total"] == n_rows
        assert summary["rejected"] == 0

    def test_serve_matches_transform_output(self, csv_dataset, tmp_path):
        plan, test_path, tmp = self._fit(csv_dataset)
        served_csv = tmp / "served.csv"
        transformed_csv = tmp / "transformed.csv"
        assert main(["serve", str(plan), "--input", str(test_path),
                     "--output", str(served_csv)]) == 0
        assert main(["transform", "--plan", str(plan), "--input",
                     str(test_path), "--output", str(transformed_csv)]) == 0
        served = load_csv(served_csv, label_column=None)
        # transform keeps the label column in its output; serve does not
        transformed = load_csv(transformed_csv)
        np.testing.assert_array_equal(served.X, transformed.X)

    def test_drifted_input_rejected_exits_1(self, csv_dataset, capsys):
        plan, test_path, tmp = self._fit(csv_dataset)
        # upstream drops a feature column: under the default policy every
        # request is refused, loudly
        from repro.tabular import Dataset

        data = load_csv(test_path)
        drifted = tmp / "drifted.csv"
        save_csv(
            Dataset(X=data.X[:, 1:], names=data.names[1:], y=data.y),
            drifted,
        )
        rc = main(["serve", str(plan), "--input", str(drifted)])
        assert rc == 1
        assert "rejected" in capsys.readouterr().out

    def test_drifted_input_coerced_under_policy(self, csv_dataset, capsys):
        plan, test_path, tmp = self._fit(csv_dataset)
        from repro.tabular import Dataset

        data = load_csv(test_path)
        drifted = tmp / "drifted.csv"
        save_csv(
            Dataset(X=data.X[:, 1:], names=data.names[1:], y=data.y),
            drifted,
        )
        rc = main(["serve", str(plan), "--input", str(drifted),
                   "--coerce", "all"])
        assert rc == 0
        assert "coerced" in capsys.readouterr().out

    def test_corrupt_swap_plan_rolls_back(self, csv_dataset, capsys):
        plan, test_path, tmp = self._fit(csv_dataset)
        bad = tmp / "bad_plan.json"
        bad.write_text("{not json")
        rc = main(["serve", str(plan), "--input", str(test_path),
                   "--swap-plan", str(bad)])
        assert rc == 0  # traffic itself stays clean on the rolled-back plan
        captured = capsys.readouterr()
        assert "hot-swap rolled back" in captured.err
        assert "1 rolled back" in captured.out

    def test_good_swap_plan_switches(self, csv_dataset, capsys):
        plan, test_path, tmp = self._fit(csv_dataset)
        candidate = tmp / "candidate.json"
        candidate.write_text(Path(plan).read_text())
        rc = main(["serve", str(plan), "--input", str(test_path),
                   "--swap-plan", str(candidate)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "hot-swapped plan" in captured.out
        assert "1 ok" in captured.out

    def test_missing_plan_exits_2(self, tmp_path, csv_dataset, capsys):
        __, test_path, __tmp = csv_dataset
        rc = main(["serve", str(tmp_path / "missing.json"),
                   "--input", str(test_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_coerce_spec_exits_2(self, csv_dataset, capsys):
        plan, test_path, __ = self._fit(csv_dataset)
        rc = main(["serve", str(plan), "--input", str(test_path),
                   "--coerce", "telepathy"])
        assert rc == 2
