"""Parallel-safety lint rules.

``repro.parallel.parallel_shard_reduce`` ships work to processes; its
worker must be picklable and side-effect-free or the failure shows up
miles from the cause (a hung pool, a silently stale registry in a
worker).

* ``parallel-callable`` — the worker handed to ``parallel_shard_reduce``
  must be a module-level function: lambdas and nested functions are not
  picklable by reference, and a closure smuggles captured state into
  the worker where mutations are lost.
* ``parallel-chunk-state`` — worker payloads (functions named
  ``_*_shard`` or ``_*_chunk`` by convention) must be module-level and
  must not touch process-global state: no ``global``/``nonlocal``, no
  operator/kernel registry mutation. A registry write inside a worker
  only happens in that worker's process and desynchronises it from the
  parent.
"""

from __future__ import annotations

import ast
import re

from .findings import Finding
from .linter import LintContext, LintRule, SourceModule
from .scopes import call_name, dotted_name

_WORKER_NAME_RE = re.compile(r"^_\w*_(shard|chunk)$")

#: The call that ships its first argument (``worker=``) to processes.
_POOL_CALL = "parallel_shard_reduce"

#: Names whose mutation inside a worker desynchronises processes.
REGISTRY_NAMES = frozenset(
    {
        "OPERATOR_REGISTRY",
        "KERNEL_REGISTRY",
        "ORACLE_REGISTRY",
        "EXEMPT_REGISTRY",
        "INPLACE_MUTATORS",
    }
)

REGISTRY_MUTATING_CALLS = frozenset({"register_operator"})


def _collect_def_levels(tree: ast.Module) -> "tuple[set[str], set[str]]":
    """Function names defined at module/class level vs nested in functions."""
    module_level: "set[str]" = set()
    nested: "set[str]" = set()

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (nested if in_function else module_level).add(child.name)
                visit(child, True)
            else:
                visit(child, in_function)

    visit(tree, False)
    return module_level, nested


class ParallelCallableRule(LintRule):
    rule_id = "parallel-callable"

    def check_module(self, module: SourceModule, ctx: LintContext):
        _, nested = _collect_def_levels(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and call_name(node) == _POOL_CALL):
                continue
            workers = node.args[:1] + [
                kw.value for kw in node.keywords if kw.arg == "worker"
            ]
            if not workers:
                continue
            fn_arg = workers[0]
            if isinstance(fn_arg, ast.Lambda):
                yield Finding(
                    path=module.path,
                    line=fn_arg.lineno,
                    rule=self.rule_id,
                    message=(
                        f"lambda passed to {_POOL_CALL}: lambdas are not picklable "
                        "by reference — hoist the payload to a module-level "
                        "function"
                    ),
                )
            elif isinstance(fn_arg, ast.Name) and fn_arg.id in nested:
                yield Finding(
                    path=module.path,
                    line=fn_arg.lineno,
                    rule=self.rule_id,
                    message=(
                        f"nested function '{fn_arg.id}' passed to {_POOL_CALL}: "
                        "closures are not picklable and captured state diverges "
                        "per worker — hoist it to module level and pass state "
                        "explicitly"
                    ),
                )


class ParallelChunkStateRule(LintRule):
    rule_id = "parallel-chunk-state"

    def check_module(self, module: SourceModule, ctx: LintContext):
        findings: "list[Finding]" = []

        def visit(node: ast.AST, in_function: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _WORKER_NAME_RE.match(child.name):
                        if in_function:
                            findings.append(
                                Finding(
                                    path=module.path,
                                    line=child.lineno,
                                    rule=self.rule_id,
                                    message=(
                                        f"worker payload '{child.name}' is nested "
                                        "inside a function: payloads must be "
                                        "module-level to pickle and to keep their "
                                        "state explicit"
                                    ),
                                )
                            )
                        findings.extend(self._check_body(child, module))
                    visit(child, True)
                else:
                    visit(child, in_function)

        visit(module.tree, False)
        return findings

    def _check_body(self, fn, module: SourceModule) -> "list[Finding]":
        out: "list[Finding]" = []
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                out.append(
                    Finding(
                        path=module.path,
                        line=node.lineno,
                        rule=self.rule_id,
                        message=(
                            f"worker payload '{fn.name}' uses "
                            f"{'global' if isinstance(node, ast.Global) else 'nonlocal'}"
                            ": mutations happen in the worker process only and are "
                            "lost — return results instead"
                        ),
                    )
                )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in REGISTRY_MUTATING_CALLS:
                    out.append(
                        Finding(
                            path=module.path,
                            line=node.lineno,
                            rule=self.rule_id,
                            message=(
                                f"worker payload '{fn.name}' calls '{name}': "
                                "registry mutation inside a worker only affects "
                                "that process and desynchronises it from the "
                                "parent — register at import time"
                            ),
                        )
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    base = target.value if isinstance(target, ast.Subscript) else target
                    name = dotted_name(base)
                    root = name.split(".")[0] if name else None
                    if root in REGISTRY_NAMES:
                        out.append(
                            Finding(
                                path=module.path,
                                line=node.lineno,
                                rule=self.rule_id,
                                message=(
                                    f"worker payload '{fn.name}' writes to "
                                    f"registry '{root}': the write happens in the "
                                    "worker process only — registries are "
                                    "import-time state"
                                ),
                            )
                        )
        return out
