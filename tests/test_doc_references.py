"""The prose names only code that exists.

Every ``repro/….py`` path and every backticked dotted ``repro.…`` name in
README, DESIGN, EXPERIMENTS and ``docs/`` must resolve: the path to a file
under ``src/``, the name to a module or to an attribute reached from the
longest importable module prefix.  A helper deleted or renamed in the code
then fails here until the prose names its new home.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "DESIGN.md",
    REPO_ROOT / "EXPERIMENTS.md",
    *sorted((REPO_ROOT / "docs").rglob("*.md")),
]
PATH = re.compile(r"(?<![\w.])repro/[\w/]+\.py")
SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent is a module, not a package
        return False


def _resolves(name: str) -> bool:
    """A module (found, not imported: ``repro.__main__`` runs the CLI on
    import), or an attribute path from the longest module prefix."""
    parts = name.split(".")
    k = len(parts)
    while k and not _is_module(".".join(parts[:k])):
        k -= 1
    if k == len(parts):
        return True
    obj = importlib.import_module(".".join(parts[:k]))
    for attr in parts[k:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _references():
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for path in PATH.findall(text):
            yield doc, "path", path
        for span in SPAN.findall(text):
            for name in NAME.findall(span):
                yield doc, "name", name


REFERENCES = sorted(set(_references()))


def test_documents_reference_code():
    kinds = {kind for _, kind, _ in REFERENCES}
    assert kinds == {"path", "name"}


@pytest.mark.parametrize(
    "doc,kind,ref",
    REFERENCES,
    ids=[f"{doc.name}:{ref}" for doc, _, ref in REFERENCES],
)
def test_reference_resolves(doc, kind, ref):
    if kind == "path":
        assert (REPO_ROOT / "src" / ref).is_file(), f"{doc.name} names missing file {ref}"
    else:
        assert _resolves(ref), f"{doc.name} names unknown {ref}"
