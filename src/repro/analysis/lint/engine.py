"""The plugin surface of ``repro check``: parsed modules and the rule base.

Every rule (families D/L/X/W) judges one :class:`SourceModule` at a time
and is written against the types in this module; the engine that runs
them, matches waivers, applies the baseline and reports lives in
:mod:`repro.analysis.check`, which imports the rule modules — so the base
they subclass sits here, below both.

Rules see *syntax*, not types: they are heuristics tuned so the invariants
they guard (bit-for-bit determinism; the adversary's lateness wall) cannot
be broken *silently*.  A construction a rule cannot see (e.g. iterating a
set received through a variable) is out of scope by design — the golden
fingerprint tests, the twin-process run of the scenario registry and the
protocol contract's wall clause check the executed runs instead.
"""

from __future__ import annotations

import abc
import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.waivers import scan_directives

if TYPE_CHECKING:  # pragma: no cover - cycle guard (check imports the rules)
    from repro.analysis.check import CheckContext

__all__ = ["LintError", "SourceModule", "Rule"]


class LintError(Exception):
    """Invalid invocation: unknown rule, bad path or unreadable baseline."""


def _derive_module(relpath: str) -> str:
    """Dotted module name from a repo-relative path (``repro``-anchored)."""
    parts = Path(relpath).parts
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    name = ".".join(parts)
    if name.endswith(".py"):
        name = name[: -len(".py")]
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


class SourceModule:
    """One parsed file plus everything rules need to reason about it."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.waivers, override = scan_directives(self.lines)
        self.module = override or _derive_module(relpath)
        self._import_map: dict[str, str] | None = None

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "SourceModule":
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        return cls(path, rel, path.read_text())

    @property
    def is_init(self) -> bool:
        return self.path.name == "__init__.py"

    @property
    def package(self) -> str:
        """The package containing this module (itself, for ``__init__``)."""
        if self.is_init:
            return self.module
        return self.module.rpartition(".")[0]

    # -- name resolution ------------------------------------------------

    @property
    def import_map(self) -> dict[str, str]:
        """Local name -> absolute dotted origin, from every import statement."""
        if self._import_map is None:
            mapping: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            mapping[alias.asname] = alias.name
                        else:
                            head = alias.name.split(".")[0]
                            mapping[head] = head
                elif isinstance(node, ast.ImportFrom):
                    origin = self.resolve_import_from(node)
                    for alias in node.names:
                        local = alias.asname or alias.name
                        mapping[local] = f"{origin}.{alias.name}" if origin else alias.name
            self._import_map = mapping
        return self._import_map

    def resolve_import_from(self, node: ast.ImportFrom) -> str:
        """Absolute dotted module a ``from ... import`` pulls from."""
        if not node.level:
            return node.module or ""
        base = self.package.split(".") if self.package else []
        if node.level > 1:
            base = base[: len(base) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted name of a ``Name``/``Attribute`` chain, through import aliases."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.import_map.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])

    def in_packages(self, prefixes: Iterable[str]) -> bool:
        """Whether this module lives under any of the dotted prefixes."""
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


class Rule(abc.ABC):
    """One named check over one module at a time.

    Subclasses set the class attributes and ``check_module``; ``applies_to``
    narrows the modules a rule looks at.
    """

    id: str = ""
    code: str = ""
    description: str = ""
    fix_hint: str = ""
    severity: str = "error"
    #: Post-waiver rules run after findings have been matched to waivers
    #: (needed by ``unused-waiver``).
    post_waiver: bool = False

    def applies_to(self, mod: SourceModule) -> bool:
        return True

    @abc.abstractmethod
    def check_module(self, mod: SourceModule, ctx: "CheckContext") -> Iterator[Finding]:
        """Yield findings for one module."""

    def check(self, ctx: "CheckContext") -> Iterator[Finding]:
        """Yield findings over every module of the run."""
        for mod in ctx.modules:
            if self.applies_to(mod):
                yield from self.check_module(mod, ctx)

    def finding(
        self,
        mod: SourceModule,
        where: ast.AST | int,
        message: str,
        fix_hint: str | None = None,
    ) -> Finding:
        """A finding of this rule in ``mod``."""
        line = where if isinstance(where, int) else getattr(where, "lineno", 0)
        return Finding(
            path=mod.relpath,
            line=line,
            rule=self.id,
            message=message,
            severity=self.severity,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )
