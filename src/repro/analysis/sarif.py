"""SARIF 2.1.0 emission for ``repro check``.

Every rule family produces the same :class:`~repro.analysis.lint.findings.Finding`
value objects, so one emitter covers them: :func:`sarif_report` renders a
finding list as a single-run SARIF log that GitHub code scanning accepts
(``github/codeql-action/upload-sarif``), turning every finding into an
inline annotation on pull requests.

:func:`validate_sarif` is a structural self-check against the parts of
the SARIF 2.1.0 spec the emitter relies on — it is what the test suite
(and the CI job) validate emitted documents with, since the full OASIS
JSON schema is not vendored.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.lint.findings import Finding

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "sarif_report", "validate_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/cos02/schemas/"
    "sarif-schema-2.1.0.json"
)

#: SARIF result levels accepted by code scanning.
_LEVELS = ("error", "warning", "note", "none")


def _level(severity: str) -> str:
    return severity if severity in _LEVELS else "warning"


def sarif_report(
    findings: Iterable[Finding],
    *,
    tool_name: str,
    rule_meta: dict[str, dict] | None = None,
    root: Path | str | None = None,
    information_uri: str = "https://github.com/paper-repro/lds-swarm",
) -> dict:
    """Render findings as a SARIF 2.1.0 log (one run, one tool driver).

    ``rule_meta`` maps rule ids to ``{"description": ..., "help": ...}``;
    rules that appear only in findings get a minimal stub entry, so the
    document is always internally consistent.  ``root`` becomes the
    ``SRCROOT`` uri base, letting viewers resolve the relative paths.
    """
    findings = list(findings)
    meta = dict(rule_meta or {})
    rule_ids = list(meta)
    for f in findings:
        if f.rule not in meta:
            meta[f.rule] = {"description": f"{f.rule} finding", "help": f.fix_hint}
            rule_ids.append(f.rule)
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}

    rules = []
    for rid in rule_ids:
        entry: dict = {
            "id": rid,
            "shortDescription": {"text": meta[rid].get("description") or rid},
            "defaultConfiguration": {"level": _level(meta[rid].get("level", "error"))},
        }
        help_text = meta[rid].get("help")
        if help_text:
            entry["help"] = {"text": help_text}
        rules.append(entry)

    results = []
    for f in findings:
        results.append(
            {
                "ruleId": f.rule,
                "ruleIndex": rule_index[f.rule],
                "level": _level(f.severity),
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.path.replace("\\", "/"),
                                "uriBaseId": "SRCROOT",
                            },
                            # SARIF regions are 1-based; clamp findings that
                            # anchor to a whole file (line 0).
                            "region": {"startLine": max(1, f.line)},
                        }
                    }
                ],
            }
        )

    run: dict = {
        "tool": {
            "driver": {
                "name": tool_name,
                "informationUri": information_uri,
                "rules": rules,
            }
        },
        "columnKind": "utf16CodeUnits",
        "results": results,
    }
    if root is not None:
        run["originalUriBaseIds"] = {
            "SRCROOT": {"uri": Path(root).resolve().as_uri() + "/"}
        }
    return {"$schema": SARIF_SCHEMA_URI, "version": SARIF_VERSION, "runs": [run]}


def validate_sarif(doc: dict) -> list[str]:
    """Structural problems of a SARIF document (empty list = valid).

    Checks the SARIF 2.1.0 requirements this repo's emitter and consumers
    depend on: the version marker, the run/tool/driver skeleton, rule
    entries with ids, and results with messages and 1-based regions whose
    ``ruleId`` resolves against the driver's rule table.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("version") != SARIF_VERSION:
        problems.append(f"version must be {SARIF_VERSION!r}, got {doc.get('version')!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return problems + ["runs must be a non-empty array"]
    for ri, run in enumerate(runs):
        where = f"runs[{ri}]"
        driver = (run.get("tool") or {}).get("driver") if isinstance(run, dict) else None
        if not isinstance(driver, dict) or not driver.get("name"):
            problems.append(f"{where}: tool.driver.name is required")
            driver = {}
        rules = driver.get("rules", [])
        rule_ids = set()
        for si, rule in enumerate(rules):
            if not isinstance(rule, dict) or not rule.get("id"):
                problems.append(f"{where}: rules[{si}] lacks an id")
            else:
                rule_ids.add(rule["id"])
        for pi, result in enumerate(run.get("results", []) if isinstance(run, dict) else []):
            rwhere = f"{where}.results[{pi}]"
            if not isinstance(result, dict):
                problems.append(f"{rwhere}: not an object")
                continue
            message = result.get("message")
            if not isinstance(message, dict) or not message.get("text"):
                problems.append(f"{rwhere}: message.text is required")
            rule_id = result.get("ruleId")
            if rule_ids and rule_id not in rule_ids:
                problems.append(f"{rwhere}: ruleId {rule_id!r} not in driver rules")
            for li, loc in enumerate(result.get("locations", [])):
                phys = loc.get("physicalLocation", {}) if isinstance(loc, dict) else {}
                art = phys.get("artifactLocation", {})
                uri = art.get("uri")
                if not uri or "\\" in str(uri):
                    problems.append(
                        f"{rwhere}.locations[{li}]: artifact uri must be a "
                        "forward-slash relative path"
                    )
                region = phys.get("region", {})
                start = region.get("startLine")
                if not isinstance(start, int) or start < 1:
                    problems.append(
                        f"{rwhere}.locations[{li}]: region.startLine must be >= 1"
                    )
    return problems
