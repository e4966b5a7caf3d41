"""Where the ``repro check`` tests find the live tree and the fixture corpus."""

from __future__ import annotations

from pathlib import Path

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "check-baseline.json"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_variant(family_dir: str, rule_id: str, kind: str) -> Path:
    """The ``ok``/``bad`` fixture of a rule (plain file or package dir)."""
    single = FIXTURES / family_dir / rule_id / f"{kind}.py"
    return single if single.exists() else FIXTURES / family_dir / rule_id / f"{kind}_pkg"
