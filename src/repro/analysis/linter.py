"""Lint pass infrastructure: parse once, run rules, apply suppressions.

The driver parses every source module (and, separately, every test
module — the kernel-parity rules cross-check against the test corpus
without linting it), hands a shared :class:`LintContext` to each rule,
and merges findings. Rules come in two granularities:

* ``check_module`` — called once per *source* module; most rules live
  here and only need the module's AST;
* ``check_project`` — called once with the full context; the kernel
  contract rules use this to join source declarations against test ASTs.

``run_lint`` is the single entry point used by the CLI
(``python -m repro lint``) and by ``tests/test_analysis_lint.py``; the
tests also call it on synthetic in-memory modules (via
:meth:`SourceModule.from_source`) to prove each rule fires.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .findings import Finding, apply_suppressions, parse_suppressions


class SourceModule:
    """One parsed python file: source text, AST, and suppressions."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree: "ast.Module | None"
        self.parse_error: "Finding | None" = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = Finding(
                path=path,
                line=exc.lineno or 1,
                rule="parse-error",
                message=f"could not parse: {exc.msg}",
            )
        self.suppressions = parse_suppressions(source)

    @classmethod
    def from_file(cls, path: Path, root: "Path | None" = None) -> "SourceModule":
        display = str(path)
        if root is not None:
            try:
                display = str(path.relative_to(root))
            except ValueError:
                pass
        return cls(display, path.read_text(encoding="utf-8"))

    @classmethod
    def from_source(cls, source: str, path: str = "<memory>") -> "SourceModule":
        return cls(path, source)


class LintContext:
    """Everything a rule may look at: source modules plus test corpus."""

    def __init__(
        self,
        src_modules: "list[SourceModule]",
        test_modules: "list[SourceModule] | None" = None,
    ) -> None:
        self.src_modules = src_modules
        self.test_modules = test_modules or []


class LintRule:
    """Base class for lint rules; subclasses set ``rule_id``."""

    rule_id: str = ""

    def check_module(self, module: SourceModule, ctx: LintContext):
        return ()

    def check_project(self, ctx: LintContext):
        return ()


def iter_python_files(root: Path) -> "list[Path]":
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def default_rules() -> "list[LintRule]":
    # Imported lazily so constructing a custom rule set never pays for
    # (or cycles through) rules it does not use.
    from .rules_aliasing import InplaceAliasRule
    from .rules_artifacts import ArtifactWriteRule
    from .rules_float import (
        EmptyFillRule,
        Float32CastRule,
        FloatEqualityRule,
        GuardedDivisionRule,
        GuardedLogRule,
    )
    from .rules_kernels import KernelContractRule
    from .rules_robustness import ExceptSwallowRule, WallClockDeadlineRule
    from .rules_stream import FullMatrixInChunkLoopRule

    return [
        FloatEqualityRule(),
        GuardedLogRule(),
        GuardedDivisionRule(),
        Float32CastRule(),
        EmptyFillRule(),
        InplaceAliasRule(),
        ExceptSwallowRule(),
        WallClockDeadlineRule(),
        KernelContractRule(),
        FullMatrixInChunkLoopRule(),
        ArtifactWriteRule(),
    ]


def lint_modules(
    src_modules: "list[SourceModule]",
    test_modules: "list[SourceModule] | None" = None,
    rules: "list[LintRule] | None" = None,
) -> "list[Finding]":
    """Run rules over already-parsed modules; suppressions applied."""
    ctx = LintContext(src_modules, test_modules)
    if rules is None:
        rules = default_rules()

    findings: "list[Finding]" = []
    for module in ctx.src_modules:
        if module.parse_error is not None:
            findings.append(module.parse_error)
            continue
        for rule in rules:
            findings.extend(rule.check_module(module, ctx))
    for rule in rules:
        findings.extend(rule.check_project(ctx))

    suppressions = {m.path: m.suppressions for m in ctx.src_modules}
    return sorted(apply_suppressions(findings, suppressions))


def run_lint(
    src_root: "Path | str",
    tests_root: "Path | str | None" = None,
    rules: "list[LintRule] | None" = None,
    repo_root: "Path | str | None" = None,
) -> "list[Finding]":
    """Lint every python file under ``src_root``.

    ``tests_root`` supplies the test corpus for the kernel-parity
    cross-checks; test files themselves are not linted. Paths in
    findings are reported relative to ``repo_root`` when given.
    """
    src_root = Path(src_root)
    root = Path(repo_root) if repo_root is not None else None
    src_modules = [SourceModule.from_file(p, root) for p in iter_python_files(src_root)]
    test_modules: "list[SourceModule]" = []
    if tests_root is not None:
        tests_root = Path(tests_root)
        if tests_root.is_dir():
            test_modules = [
                SourceModule.from_file(p, root) for p in iter_python_files(tests_root)
            ]
    return lint_modules(src_modules, test_modules, rules)
