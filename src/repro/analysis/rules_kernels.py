"""Kernel-contract lint rules: the registry cross-checked against tests.

These are project-level rules — they join declarations in the source
tree against the *test corpus* ASTs (tests are never linted themselves,
they are evidence):

* ``kernel-oracle`` — every ``@batched_kernel`` must declare
  ``oracle="<scalar reference>"`` and that reference must exist and be
  marked ``@kernel_oracle`` somewhere in the source tree. A kernel
  without an audited scalar twin has no ground truth.
* ``kernel-parity`` — for every kernel/oracle pair, some test module
  must mention *both* names. Co-occurrence is a deliberately weak
  proxy (it cannot prove the test asserts equality) but it is immune
  to test-style churn and catches the real failure mode: a kernel
  added with no parity test at all.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .linter import LintContext, LintRule, SourceModule
from .scopes import dotted_name, iter_function_defs


def _decorator_info(fn) -> "dict[str, ast.expr | None]":
    """Map of decorator base-name -> Call node (or None for bare names)."""
    out: "dict[str, ast.expr | None]" = {}
    for dec in fn.decorator_list:
        node = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(node)
        if name:
            out[name.split(".")[-1]] = dec if isinstance(dec, ast.Call) else None
    return out


def _oracle_from_decorator(dec: "ast.expr | None") -> "str | None":
    if not isinstance(dec, ast.Call):
        return None
    for kw in dec.keywords:
        if kw.arg == "oracle" and isinstance(kw.value, ast.Constant):
            value = kw.value.value
            return value if isinstance(value, str) and value else None
    if dec.args and isinstance(dec.args[0], ast.Constant):
        value = dec.args[0].value
        return value if isinstance(value, str) and value else None
    return None


def _module_identifiers(module: SourceModule) -> "set[str]":
    """Every bare identifier a module mentions: names, attrs, def names."""
    out: "set[str]" = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


class KernelContractRule(LintRule):
    rule_id = "kernel-oracle"

    def check_project(self, ctx: LintContext):
        kernels: "list[tuple[SourceModule, ast.AST, str | None]]" = []
        oracle_names: "set[str]" = set()
        for module in ctx.src_modules:
            if module.tree is None:
                continue
            for fn in iter_function_defs(module.tree):
                decs = _decorator_info(fn)
                if "kernel_oracle" in decs:
                    oracle_names.add(fn.name)
                if "batched_kernel" in decs:
                    kernels.append(
                        (module, fn, _oracle_from_decorator(decs["batched_kernel"]))
                    )

        test_ids = [_module_identifiers(m) for m in ctx.test_modules if m.tree]

        for module, fn, oracle in kernels:
            if oracle is None:
                yield Finding(
                    path=module.path,
                    line=fn.lineno,
                    rule="kernel-oracle",
                    message=(
                        f"batched kernel '{fn.name}' declares no oracle: every "
                        "kernel needs @batched_kernel(oracle=\"<scalar reference>\") "
                        "naming the audited implementation it must match"
                    ),
                )
                continue
            if oracle not in oracle_names:
                yield Finding(
                    path=module.path,
                    line=fn.lineno,
                    rule="kernel-oracle",
                    message=(
                        f"kernel '{fn.name}' declares oracle '{oracle}' but no "
                        "function of that name is marked @kernel_oracle in the "
                        "source tree"
                    ),
                )
                continue
            if not any(fn.name in ids and oracle in ids for ids in test_ids):
                yield Finding(
                    path=module.path,
                    line=fn.lineno,
                    rule="kernel-parity",
                    message=(
                        f"kernel '{fn.name}' has no parity test: no test module "
                        f"mentions both '{fn.name}' and its oracle '{oracle}' — "
                        "add a test comparing the two on shared inputs"
                    ),
                )
