"""Public-API consistency rules (family X).

``__all__`` drift is how a package's advertised surface silently decays: a
submodule grows a new public name, the package ``__init__`` keeps
re-exporting yesterday's list, and downstream code starts importing from
deep paths the next refactor breaks.  :class:`AllDriftRule` checks every
package ``__init__.py`` against the child *modules* it re-exports from
(child *packages* are exempt — partial re-export across package levels is
a legitimate API choice).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Rule, SourceModule
from repro.analysis.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = ["AllDriftRule"]


def _literal_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.value.elts
            ):
                return [e.value for e in node.value.elts]
    return None


def _bound_names(tree: ast.Module) -> set[str]:
    """Top-level names an ``__init__`` binds (imports, defs, assignments)."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound


class AllDriftRule(Rule):
    """X1 — package ``__init__`` re-exports stay in sync with child ``__all__``."""

    id = "all-drift"
    code = "X1"
    description = (
        "a package __init__ that re-exports from a child module must import only "
        "names the child declares in __all__, re-export *all* of them, list every "
        "one in its own __all__, and bind everything its __all__ names"
    )
    fix_hint = (
        "sync the __init__ import list and __all__ with the child module's "
        "__all__ (or stop importing from that child entirely)"
    )

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.is_init and mod.module.startswith("repro")

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        pkg_all = _literal_all(mod.tree)
        bound = _bound_names(mod.tree)
        child_imports: dict[str, tuple[ast.ImportFrom, list[str]]] = {}
        for node in mod.tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = mod.resolve_import_from(node)
            prefix = mod.module + "."
            if not origin.startswith(prefix):
                continue
            child = origin[len(prefix) :]
            if "." in child or not child:
                continue  # grandchild or self import: out of scope
            if not (mod.path.parent / f"{child}.py").exists():
                continue  # child package (directory), exempt by design
            names = [alias.asname or alias.name for alias in node.names]
            if child in child_imports:
                child_imports[child][1].extend(names)
            else:
                child_imports[child] = (node, names)

        if child_imports and pkg_all is None:
            first = next(iter(child_imports.values()))[0]
            yield self.finding(
                mod, first, "package __init__ re-exports child modules but has no __all__"
            )

        for child, (node, names) in sorted(child_imports.items()):
            child_mod = ctx.cache.try_module(mod.path.parent / f"{child}.py")
            child_all = _literal_all(child_mod.tree) if child_mod is not None else None
            if child_all is not None:
                for name in names:
                    if name not in child_all:
                        yield self.finding(
                            mod,
                            node,
                            f"imports `{name}` from `{child}`, which does not "
                            "declare it in __all__",
                        )
                for name in child_all:
                    if name not in names:
                        yield self.finding(
                            mod,
                            node,
                            f"`{child}.__all__` declares `{name}`, which is not "
                            "re-exported here",
                        )
            for name in names:
                if pkg_all is not None and name not in pkg_all:
                    yield self.finding(
                        mod,
                        node,
                        f"re-exports `{name}` from `{child}` but omits it from __all__",
                    )

        for name in pkg_all or []:
            if name not in bound:
                yield self.finding(
                    mod,
                    1,
                    f"__all__ names `{name}`, which is not defined or imported "
                    "in this module",
                )
