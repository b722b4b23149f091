"""Artifact-durability lint rule.

The durability contract (CONTRIBUTING.md) says every durable artifact —
plans, checkpoints, manifests, reports, ``.npy`` exports — is published
atomically: write a hidden temp file, flush, then rename it into place
(``replace`` of the ``os`` module), so a crash mid-write leaves either
the previous artifact or nothing, never a torn file that parses.
:func:`repro.utils.atomic_path` and :func:`repro.utils.atomic_write`
package the idiom.

* ``non-atomic-artifact-write`` — flags writes that produce a durable
  file directly at its final path:

  - ``np.save`` / ``np.savez`` / ``np.savez_compressed`` calls;
  - ``open(path, mode)`` with a literal write mode (``w``/``a``/``x``);
  - ``Path.write_text`` / ``Path.write_bytes`` calls.

  A write is exempt when its enclosing function (or the module top
  level, for module-scope writes) also calls ``replace`` on the ``os``
  module or a helper whose name starts with ``atomic`` — the
  temp-then-rename publication is then assumed to be what the write
  feeds. Any other ``replace`` (``str.replace``, say) exempts nothing.
  Scratch memmaps (``open_memmap``) are not artifacts and are not
  flagged.
  Intentional non-atomic writes (append-only logs, best-effort debug
  dumps) must carry a ``# repro: ignore[non-atomic-artifact-write]``
  audit comment.
"""

from __future__ import annotations

import ast

from .findings import Finding
from .linter import LintContext, LintRule, SourceModule

#: numpy array writers that produce durable files.
_NP_WRITERS = frozenset({"save", "savez", "savez_compressed"})

#: Path methods that replace a file's whole contents in place.
_PATH_WRITERS = frozenset({"write_text", "write_bytes"})


def _publishes(func: ast.expr) -> bool:
    """Whether a call renames a temp file into place: ``replace`` of the
    ``os`` module, or an ``atomic*`` helper (``atomic_write``, ...)."""
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return func.attr == "replace"
        return func.attr.startswith("atomic")
    return isinstance(func, ast.Name) and func.id.startswith("atomic")


def _literal_write_mode(call: ast.Call) -> bool:
    """Whether an ``open()`` call's literal mode string writes."""
    mode: "ast.expr | None" = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return False
    return any(ch in mode.value for ch in "wax")


def _artifact_write(node: ast.AST) -> "str | None":
    """A human label for the write this call performs, or None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _NP_WRITERS
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return f"np.{func.attr}"
    if isinstance(func, ast.Name) and func.id == "open":
        if _literal_write_mode(node):
            return "open(..., write mode)"
        return None
    if isinstance(func, ast.Attribute) and func.attr in _PATH_WRITERS:
        return f".{func.attr}"
    return None


def _scope_nodes(root: ast.AST):
    """Yield ``(scope, nodes)`` per function scope (and the module top
    level), with nested function bodies assigned to their own scope."""
    scopes: "list[tuple[ast.AST, list[ast.AST]]]" = []

    def descend(node: ast.AST, bucket: "list[ast.AST]") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner: "list[ast.AST]" = []
                scopes.append((child, inner))
                descend(child, inner)
            else:
                bucket.append(child)
                descend(child, bucket)

    top: "list[ast.AST]" = []
    scopes.append((root, top))
    descend(root, top)
    return scopes


class ArtifactWriteRule(LintRule):
    rule_id = "non-atomic-artifact-write"

    def check_module(self, module: SourceModule, ctx: LintContext):
        for _scope, nodes in _scope_nodes(module.tree):
            atomic = False
            writes: "list[tuple[int, str]]" = []
            for node in nodes:
                if isinstance(node, ast.Call) and _publishes(node.func):
                    atomic = True
                label = _artifact_write(node)
                if label is not None:
                    writes.append((node.lineno, label))
            if atomic:
                continue
            for lineno, label in writes:
                yield Finding(
                    path=module.path,
                    line=lineno,
                    rule=self.rule_id,
                    message=(
                        f"{label} publishes a durable artifact without "
                        "atomic temp-file + rename publication — a "
                        "crash mid-write leaves a torn file; use "
                        "repro.utils.atomic_write/atomic_path or suppress "
                        "with an audit comment"
                    ),
                )
