"""Shared per-file parse cache for the static-analysis tools.

Every rule of ``repro check`` reads files as
:class:`~repro.analysis.lint.engine.SourceModule` objects (source text,
AST, directives, import map).  Parsing is a large share of the runtime, so
one :class:`SourceCache` serves a whole run — and can be threaded through
several runs — with each file read and parsed exactly once, including the
sibling ``__init__`` lookups the X1 rule performs.

The cache is keyed by resolved path and also memoizes *failures*: a file
that does not parse raises the same :class:`SyntaxError` on every lookup
without re-reading it.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - cycle guard (lint.engine imports us)
    from repro.analysis.lint.engine import SourceModule

__all__ = ["SourceCache", "collect_py_files"]


def collect_py_files(paths: Iterable[Path | str]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files kept, dirs walked), deduped.

    Raises :class:`FileNotFoundError` for a path that does not exist — the
    caller (:func:`~repro.analysis.check.run_check`) translates that into its usage error.
    """
    files: list[Path] = []
    seen: set[Path] = set()
    for p in paths:
        p = Path(p)
        if not p.exists():
            raise FileNotFoundError(f"no such path: {p}")
        batch = [p] if p.is_file() else sorted(p.rglob("*.py"))
        for f in batch:
            if f.suffix == ".py":
                f = f.resolve()
                if f not in seen:
                    seen.add(f)
                    files.append(f)
    return files


class SourceCache:
    """Parse-once store of :class:`SourceModule` objects, keyed by path."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root).resolve()
        self._modules: dict[Path, "SourceModule | SyntaxError"] = {}
        #: Number of actual parses performed (for tests and profiling).
        self.parses = 0

    def module(self, path: Path | str) -> "SourceModule":
        """The parsed module for ``path``; raises the memoized SyntaxError."""
        from repro.analysis.lint.engine import SourceModule

        path = Path(path).resolve()
        cached = self._modules.get(path)
        if cached is None:
            self.parses += 1
            try:
                cached = SourceModule.from_path(path, self.root)
            except SyntaxError as exc:
                cached = exc
            self._modules[path] = cached
        if isinstance(cached, SyntaxError):
            raise cached
        return cached

    def try_module(self, path: Path | str) -> "SourceModule | None":
        """Like :meth:`module` but ``None`` for unreadable/unparsable files."""
        try:
            return self.module(path)
        except (OSError, SyntaxError):
            return None

    def invalidate(self, path: Path | str) -> None:
        """Drop one entry, e.g. after ``repro check --fix`` rewrote the file."""
        self._modules.pop(Path(path).resolve(), None)
