"""The static-analysis subsystem: repo gate, per-rule firing, registries.

Three layers:

* the tier-1 gate — ``run_lint`` over the real source tree must come
  back empty (the same check as ``python -m repro lint``);
* seeded defects — for every rule, a synthetic module carrying exactly
  the defect the rule exists for must produce a finding with the right
  rule id (and the suppression syntax must silence it);
* registry completeness — every public function of the batched kernel
  modules is a kernel, an oracle, or an explicit exemption.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint
from repro.analysis.linter import SourceModule, lint_modules

pytestmark = pytest.mark.analysis

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parent.parent
TESTS_ROOT = REPO_ROOT / "tests"


def _lint_src(source: str, tests: "list[str] | None" = None) -> "list":
    modules = [SourceModule.from_source(source, path="synthetic.py")]
    test_modules = [
        SourceModule.from_source(t, path=f"test_synthetic_{i}.py")
        for i, t in enumerate(tests or [])
    ]
    return lint_modules(modules, test_modules)


def _rule_ids(findings) -> "list[str]":
    return [f.rule for f in findings]


class TestRepoIsLintClean:
    """Tier-1 gate: the shipped source tree has zero findings."""

    def test_run_lint_on_the_repo_is_clean(self):
        findings = run_lint(SRC_ROOT, tests_root=TESTS_ROOT, repo_root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)


class TestFloatHazardRules:
    def test_float_equality_fires(self):
        findings = _lint_src(
            "def f(a, b):\n"
            "    return a / 3.0 == b\n"
        )
        assert "float-eq" in _rule_ids(findings)

    def test_integer_sentinel_compare_not_flagged(self):
        findings = _lint_src(
            "def f(counts):\n"
            "    return counts == 0\n"
        )
        assert "float-eq" not in _rule_ids(findings)

    def test_unguarded_log_fires(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.log(x)\n"
        )
        assert "log-guard" in _rule_ids(findings)

    def test_floored_log_not_flagged(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.log(np.maximum(x, 1e-12))\n"
        )
        assert "log-guard" not in _rule_ids(findings)

    def test_unguarded_division_fires(self):
        findings = _lint_src(
            "def f(a, b):\n"
            "    return a / b\n"
        )
        assert "div-guard" in _rule_ids(findings)

    def test_branch_guarded_division_not_flagged(self):
        findings = _lint_src(
            "def f(a, b):\n"
            "    if b > 0:\n"
            "        return a / b\n"
            "    return 0.0\n"
        )
        assert "div-guard" not in _rule_ids(findings)

    def test_float32_downcast_fires(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def f(x):\n"
            "    return x.astype(np.float32)\n"
        )
        assert "float32-cast" in _rule_ids(findings)

    def test_unfilled_empty_fires(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def f(n):\n"
            "    out = np.empty(n)\n"
            "    return out\n"
        )
        assert "empty-fill" in _rule_ids(findings)

    def test_subscript_filled_empty_not_flagged(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def f(n, vals):\n"
            "    out = np.empty(n)\n"
            "    out[:] = vals\n"
            "    return out\n"
        )
        assert "empty-fill" not in _rule_ids(findings)


class TestAliasingRule:
    def test_unregistered_inplace_mutation_fires(self):
        findings = _lint_src(
            "def clobber(x):\n"
            "    x.sort()\n"
            "    return x\n"
        )
        assert "inplace-alias" in _rule_ids(findings)

    def test_registered_mutator_not_flagged(self):
        findings = _lint_src(
            "from repro.analysis.registry import inplace_mutator\n"
            "@inplace_mutator\n"
            "def clobber(x):\n"
            "    x.sort()\n"
            "    return x\n"
        )
        assert "inplace-alias" not in _rule_ids(findings)

    def test_mutating_a_local_copy_not_flagged(self):
        findings = _lint_src(
            "def f(x):\n"
            "    y = x.copy()\n"
            "    y.sort()\n"
            "    return y\n"
        )
        assert "inplace-alias" not in _rule_ids(findings)


class TestKernelContractRules:
    def test_kernel_without_oracle_fires(self):
        findings = _lint_src(
            "from repro.analysis.registry import batched_kernel\n"
            "@batched_kernel\n"
            "def fast_thing(x):\n"
            "    return x\n"
        )
        assert "kernel-oracle" in _rule_ids(findings)

    def test_kernel_with_unmarked_oracle_fires(self):
        findings = _lint_src(
            "from repro.analysis.registry import batched_kernel\n"
            "@batched_kernel(oracle=\"slow_thing\")\n"
            "def fast_thing(x):\n"
            "    return x\n"
        )
        assert "kernel-oracle" in _rule_ids(findings)

    def test_kernel_without_parity_test_fires(self):
        source = (
            "from repro.analysis.registry import batched_kernel, kernel_oracle\n"
            "@kernel_oracle\n"
            "def slow_thing(x):\n"
            "    return x\n"
            "@batched_kernel(oracle=\"slow_thing\")\n"
            "def fast_thing(x):\n"
            "    return x\n"
        )
        findings = _lint_src(source, tests=[])
        assert "kernel-parity" in _rule_ids(findings)

    def test_parity_test_co_occurrence_clears_the_finding(self):
        source = (
            "from repro.analysis.registry import batched_kernel, kernel_oracle\n"
            "@kernel_oracle\n"
            "def slow_thing(x):\n"
            "    return x\n"
            "@batched_kernel(oracle=\"slow_thing\")\n"
            "def fast_thing(x):\n"
            "    return x\n"
        )
        parity_test = (
            "def test_parity():\n"
            "    assert fast_thing(3) == slow_thing(3)\n"
        )
        findings = _lint_src(source, tests=[parity_test])
        assert "kernel-parity" not in _rule_ids(findings)


class TestRobustnessRules:
    def test_bare_except_fires(self):
        findings = _lint_src(
            "def f(x):\n"
            "    try:\n"
            "        return x + 1\n"
            "    except:\n"
            "        return 0\n"
        )
        assert "except-swallow" in _rule_ids(findings)

    def test_broad_except_with_inert_body_fires(self):
        findings = _lint_src(
            "def f(x):\n"
            "    try:\n"
            "        return x + 1\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert "except-swallow" in _rule_ids(findings)

    def test_broad_except_in_tuple_with_pass_fires(self):
        findings = _lint_src(
            "def f(x):\n"
            "    try:\n"
            "        return x + 1\n"
            "    except (ValueError, Exception):\n"
            "        pass\n"
        )
        assert "except-swallow" in _rule_ids(findings)

    def test_broad_except_doing_real_work_not_flagged(self):
        findings = _lint_src(
            "def f(x, report):\n"
            "    try:\n"
            "        return x + 1\n"
            "    except Exception as exc:\n"
            "        report.append(repr(exc))\n"
            "        return 0\n"
        )
        assert "except-swallow" not in _rule_ids(findings)

    def test_narrow_except_with_pass_not_flagged(self):
        findings = _lint_src(
            "def f(x):\n"
            "    try:\n"
            "        return x + 1\n"
            "    except ValueError:\n"
            "        pass\n"
            "    return 0\n"
        )
        assert "except-swallow" not in _rule_ids(findings)

    def test_suppression_silences_except_swallow(self):
        findings = _lint_src(
            "def f(x):\n"
            "    try:\n"
            "        return x + 1\n"
            "    except Exception:  # repro: ignore[except-swallow] best effort\n"
            "        pass\n"
        )
        assert "except-swallow" not in _rule_ids(findings)


class TestWallClockDeadlineRule:
    def test_wallclock_deadline_arithmetic_fires(self):
        findings = _lint_src(
            "import time\n"
            "def serve(budget):\n"
            "    deadline = time.time() + budget\n"
            "    return deadline\n"
        )
        assert "wallclock-deadline" in _rule_ids(findings)

    def test_wallclock_timeout_compare_fires(self):
        findings = _lint_src(
            "import time\n"
            "def poll(timeout_at):\n"
            "    while time.time() < timeout_at:\n"
            "        pass\n"
        )
        assert "wallclock-deadline" in _rule_ids(findings)

    def test_bare_time_import_fires_in_deadline_scope(self):
        findings = _lint_src(
            "from time import time\n"
            "def check_deadline(limit):\n"
            "    return time() > limit\n"
        )
        assert "wallclock-deadline" in _rule_ids(findings)

    def test_benign_timestamp_not_flagged(self):
        # wall-clock is fine for logging/telemetry timestamps
        findings = _lint_src(
            "import time\n"
            "def stamp(record):\n"
            "    record.created_at = time.time()\n"
            "    return record\n"
        )
        assert "wallclock-deadline" not in _rule_ids(findings)

    def test_monotonic_deadline_not_flagged(self):
        findings = _lint_src(
            "import time\n"
            "def serve(budget):\n"
            "    deadline = time.monotonic() + budget\n"
            "    return deadline\n"
        )
        assert "wallclock-deadline" not in _rule_ids(findings)

    def test_suppression_silences_wallclock_deadline(self):
        findings = _lint_src(
            "import time\n"
            "def serve(budget):\n"
            "    deadline = time.time() + budget  # repro: ignore[wallclock-deadline] epoch contract\n"
            "    return deadline\n"
        )
        assert "wallclock-deadline" not in _rule_ids(findings)


class TestRuleRegistryCompleteness:
    """Every LintRule subclass shipped in a rules_* module is registered.

    A rule that exists but is missing from ``default_rules`` silently
    never runs — neither in the CLI nor in the tier-1 gate above.
    """

    def test_every_shipped_rule_is_in_default_rules(self):
        import importlib
        import pkgutil

        from repro import analysis
        from repro.analysis.linter import LintRule, default_rules

        registered = {type(rule) for rule in default_rules()}
        missing = []
        for info in pkgutil.iter_modules(analysis.__path__):
            if not info.name.startswith("rules_"):
                continue
            mod = importlib.import_module(f"repro.analysis.{info.name}")
            for name, obj in sorted(vars(mod).items()):
                if (
                    inspect.isclass(obj)
                    and issubclass(obj, LintRule)
                    and obj is not LintRule
                    and obj.__module__ == mod.__name__
                    and obj.rule_id
                ):
                    if obj not in registered:
                        missing.append(f"{mod.__name__}.{name}")
        assert missing == [], f"rules not registered in default_rules(): {missing}"

    def test_rule_ids_are_unique(self):
        from repro.analysis.linter import default_rules

        ids = [rule.rule_id for rule in default_rules()]
        assert len(ids) == len(set(ids))


class TestSuppressions:
    def test_inline_suppression_silences_the_rule(self):
        findings = _lint_src(
            "def f(a, b):\n"
            "    return a / b  # repro: ignore[div-guard] b is validated upstream\n"
        )
        assert "div-guard" not in _rule_ids(findings)

    def test_suppression_is_rule_specific(self):
        findings = _lint_src(
            "def f(a, b):\n"
            "    return a / b  # repro: ignore[float-eq] wrong rule\n"
        )
        assert "div-guard" in _rule_ids(findings)

    def test_wildcard_suppression_silences_everything(self):
        findings = _lint_src(
            "def f(a, b):\n"
            "    return a / b  # repro: ignore[*] audited by hand\n"
        )
        assert findings == []


class TestRegistryCompleteness:
    """Satellite: every public kernel-module function carries a contract.

    (``register_operator`` duplicate rejection — the other registry
    satellite — already ships in the seed; see test_operators_base.py.)
    """

    CONTRACT_ATTRS = ("__kernel_contract__", "__kernel_oracle__", "__kernel_exempt__")

    @staticmethod
    def _public_functions(mod):
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield name, obj

    def _modules(self):
        from repro.boosting import histogram
        from repro.core import redundancy
        from repro.metrics import batched

        return (batched, redundancy, histogram)

    def test_every_public_function_is_kernel_oracle_or_exempt(self):
        missing = []
        for mod in self._modules():
            for name, fn in self._public_functions(mod):
                if not any(hasattr(fn, a) for a in self.CONTRACT_ATTRS):
                    missing.append(f"{mod.__name__}.{name}")
        assert missing == [], (
            "public kernel-module functions without a declared contract "
            f"(@batched_kernel / @kernel_oracle / @kernel_exempt): {missing}"
        )

    def test_exemptions_carry_reasons(self):
        from repro.analysis.registry import EXEMPT_REGISTRY

        assert EXEMPT_REGISTRY, "expected at least one explicit exemption"
        for qualname, reason in EXEMPT_REGISTRY.items():
            assert reason.strip(), f"{qualname} exempted without a reason"

    def test_declared_kernels_point_at_marked_oracles(self):
        from repro.analysis.registry import KERNEL_REGISTRY, ORACLE_REGISTRY

        oracle_names = {c.func_name for c in ORACLE_REGISTRY.values()}
        for contract in KERNEL_REGISTRY.values():
            assert contract.oracle in oracle_names, (
                f"kernel {contract.name} declares oracle {contract.oracle!r} "
                "which is not marked @kernel_oracle"
            )


class TestFullMatrixInChunkLoopRule:
    """Streaming-contract rule: mergeable kernels and iter_chunks loops."""

    KERNEL_PREAMBLE = (
        "import numpy as np\n"
        "from repro.analysis.registry import chunk_mergeable\n"
        "def merge(a, b):\n"
        "    return a + b\n"
    )

    def test_order_statistic_in_mergeable_kernel_fires(self):
        findings = _lint_src(
            self.KERNEL_PREAMBLE
            + "@chunk_mergeable(merge=merge, exact=True)\n"
            "def bad_partial(chunk):\n"
            "    return np.median(chunk, axis=0)\n"
        )
        assert "full-matrix-in-chunk-loop" in _rule_ids(findings)

    def test_sort_in_mergeable_kernel_fires(self):
        findings = _lint_src(
            self.KERNEL_PREAMBLE
            + "@chunk_mergeable(merge=merge, exact=True)\n"
            "def bad_partial(chunk):\n"
            "    return np.sort(chunk, axis=0)[0]\n"
        )
        assert "full-matrix-in-chunk-loop" in _rule_ids(findings)

    def test_no_axis_reduction_on_chunk_parameter_fires(self):
        findings = _lint_src(
            self.KERNEL_PREAMBLE
            + "@chunk_mergeable(merge=merge, exact=False)\n"
            "def bad_partial(chunk):\n"
            "    return chunk.sum()\n"
        )
        assert "full-matrix-in-chunk-loop" in _rule_ids(findings)

    def test_axis_reduction_on_chunk_parameter_is_clean(self):
        findings = _lint_src(
            self.KERNEL_PREAMBLE
            + "@chunk_mergeable(merge=merge, exact=False)\n"
            "def good_partial(chunk):\n"
            "    return chunk.sum(axis=0)\n"
        )
        assert "full-matrix-in-chunk-loop" not in _rule_ids(findings)

    def test_parameter_subscript_copy_fires(self):
        findings = _lint_src(
            self.KERNEL_PREAMBLE
            + "@chunk_mergeable(merge=merge, exact=True)\n"
            "def bad_partial(chunk, mask):\n"
            "    return chunk[mask].copy()\n"
        )
        assert "full-matrix-in-chunk-loop" in _rule_ids(findings)

    def test_local_variable_calls_are_clean(self):
        # The shapes iv_bin_counts legitimately uses: whole-array `.all()`
        # on a locally derived mask and `.ravel()` on a local buffer.
        findings = _lint_src(
            self.KERNEL_PREAMBLE
            + "@chunk_mergeable(merge=merge, exact=True)\n"
            "def good_partial(chunk):\n"
            "    col_finite = np.isfinite(chunk)\n"
            "    if col_finite.all():\n"
            "        pass\n"
            "    flat = chunk + 0\n"
            "    return flat.ravel()\n"
        )
        assert "full-matrix-in-chunk-loop" not in _rule_ids(findings)

    def test_undecorated_function_is_out_of_scope(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def batch_quantiles(X):\n"
            "    return np.quantile(X, 0.5, axis=0)\n"
        )
        assert "full-matrix-in-chunk-loop" not in _rule_ids(findings)

    def test_concatenate_in_iter_chunks_loop_fires(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def gather(data):\n"
            "    parts = np.zeros((0, 3))\n"
            "    for rows, X_chunk, y_chunk in data.iter_chunks():\n"
            "        parts = np.concatenate([parts, X_chunk])\n"
            "    return parts\n"
        )
        assert "full-matrix-in-chunk-loop" in _rule_ids(findings)

    def test_concatenate_outside_chunk_loop_is_clean(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def stack_two(a, b):\n"
            "    for i in range(3):\n"
            "        a = a + i\n"
            "    return np.concatenate([a, b])\n"
        )
        assert "full-matrix-in-chunk-loop" not in _rule_ids(findings)

    def test_suppression_comment_silences(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def gather(data):\n"
            "    parts = np.zeros((0, 3))\n"
            "    for rows, X_chunk, y_chunk in data.iter_chunks():\n"
            "        parts = np.concatenate([parts, X_chunk])  # repro: ignore[full-matrix-in-chunk-loop] test helper gathers on purpose\n"
            "    return parts\n"
        )
        assert "full-matrix-in-chunk-loop" not in _rule_ids(findings)

    def test_rule_is_registered_in_default_rules(self):
        from repro.analysis.linter import default_rules

        assert "full-matrix-in-chunk-loop" in {
            r.rule_id for r in default_rules()
        }


class TestArtifactWriteRule:
    def test_direct_np_save_fires(self):
        findings = _lint_src(
            "import numpy as np\n"
            "def export(plan, path):\n"
            "    np.save(path, plan)\n"
        )
        assert "non-atomic-artifact-write" in _rule_ids(findings)

    def test_open_with_write_mode_fires(self):
        findings = _lint_src(
            "def dump(report, path):\n"
            "    with open(path, 'w') as fh:\n"
            "        fh.write(report)\n"
        )
        assert "non-atomic-artifact-write" in _rule_ids(findings)

    def test_path_write_text_fires(self):
        findings = _lint_src(
            "def publish(path, payload):\n"
            "    path.write_text(payload)\n"
        )
        assert "non-atomic-artifact-write" in _rule_ids(findings)

    def test_open_for_reading_is_clean(self):
        findings = _lint_src(
            "def load(path):\n"
            "    with open(path) as fh:\n"
            "        return fh.read()\n"
        )
        assert "non-atomic-artifact-write" not in _rule_ids(findings)

    def test_atomic_helper_in_scope_exempts(self):
        findings = _lint_src(
            "from repro.utils import atomic_path\n"
            "import numpy as np\n"
            "def export(plan, path):\n"
            "    with atomic_path(path) as tmp:\n"
            "        np.save(tmp, plan)\n"
        )
        assert "non-atomic-artifact-write" not in _rule_ids(findings)

    def test_os_replace_in_scope_exempts(self):
        findings = _lint_src(
            "import os\n"
            "def export(report, path):\n"
            "    tmp = str(path) + '.tmp'\n"
            "    with open(tmp, 'w') as fh:\n"
            "        fh.write(report)\n"
            "    os.replace(tmp, path)\n"
        )
        assert "non-atomic-artifact-write" not in _rule_ids(findings)

    def test_nested_function_scope_is_independent(self):
        # the outer function's os.replace must NOT launder a raw write
        # inside a nested function, which has its own publication duty
        findings = _lint_src(
            "import os\n"
            "def outer(path):\n"
            "    def inner(p):\n"
            "        with open(p, 'w') as fh:\n"
            "            fh.write('x')\n"
            "    os.replace('a', 'b')\n"
            "    return inner\n"
        )
        assert "non-atomic-artifact-write" in _rule_ids(findings)

    def test_suppression_comment_silences(self):
        findings = _lint_src(
            "def append_log(path, line):\n"
            "    with open(path, 'a') as fh:  # repro: ignore[non-atomic-artifact-write] append-only log\n"
            "        fh.write(line)\n"
        )
        assert "non-atomic-artifact-write" not in _rule_ids(findings)

    def test_rule_is_registered_in_default_rules(self):
        from repro.analysis.linter import default_rules

        assert "non-atomic-artifact-write" in {
            r.rule_id for r in default_rules()
        }
