"""SARIF 2.1.0 export for ``repro-noc check`` findings.

SARIF (Static Analysis Results Interchange Format) is the OASIS schema
GitHub code scanning ingests; exporting it lets check findings annotate
pull-request diffs instead of living only in CI logs.  The exporter
emits the minimal valid document: one ``run`` whose ``tool.driver``
declares every rule that fired (id + short description) and one
``result`` per finding with ``ruleId``, ``level``, a physical location,
and the finding's stable fingerprint under ``partialFingerprints`` so
code scanning tracks an annotation across pushes.

Severity maps ``error -> error`` and ``warn -> warning`` (SARIF's level
vocabulary).  Paths are emitted repo-relative via
:func:`repro.lint.findings.normalize_path` prefixed with ``src/`` when
the finding lives in the installed package, so annotations land on the
checked-out files.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.findings import Finding, Severity, normalize_path

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: Finding severity -> SARIF result level.
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARN: "warning",
}

#: One-line rule descriptions for the tool.driver.rules table.  Rules
#: not listed still export (SARIF only requires the id).
RULE_DESCRIPTIONS: Dict[str, str] = {
    "determinism": "non-deterministic source (random/time/hash seed) in "
                   "simulation code",
    "mutable-default": "mutable default argument",
    "float-cycle": "float arithmetic on a cycle counter",
    "bare-except": "bare except swallows invariant violations",
    "parallel-seeding": "process pool without explicit per-task seeding",
    "sweep-bare-pool": "raw executor use outside the sweep helpers",
    "unordered-iteration": "iteration over an unordered container in "
                           "order-sensitive code",
    "rng-not-rooted": "random stream constructed outside the "
                      "repro.sim.rng factories",
    "split-collision": "same split_rng salt derived twice from one "
                       "parent stream",
    "process-shared-state": "mutable module state crossing the process "
                            "pool boundary",
    "config-mutated-after-handoff": "config dataclass mutated after "
                                    "handoff to a fabric or sweep",
    "unused-suppression": "inline allow[...] comment that never fired",
    "syntax": "file does not parse",
}


def _artifact_uri(path: Optional[str]) -> Optional[str]:
    if not path:
        return None
    norm = normalize_path(path)
    if norm.startswith("repro/"):
        return "src/" + norm
    return norm


def findings_to_sarif(findings: Sequence[Finding],
                      tool_name: str = "repro-noc-check",
                      tool_version: str = "1.0.0") -> dict:
    """Build the SARIF 2.1.0 document for a findings list."""
    rules_seen: List[str] = []
    for f in findings:
        if f.rule not in rules_seen:
            rules_seen.append(f.rule)
    rules = [
        {
            "id": rule,
            "shortDescription": {
                "text": RULE_DESCRIPTIONS.get(rule, rule),
            },
        }
        for rule in sorted(rules_seen)
    ]
    results = []
    for f in findings:
        result = {
            "ruleId": f.rule,
            "level": _LEVELS.get(f.severity, "error"),
            "message": {"text": f.message},
            "partialFingerprints": {
                "reproFingerprint/v1": f.fingerprint,
            },
        }
        uri = _artifact_uri(f.path)
        if uri is not None:
            location: dict = {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                },
            }
            if f.line:
                region: dict = {"startLine": f.line}
                if f.col is not None:
                    # SARIF columns are 1-based; ast columns 0-based.
                    region["startColumn"] = f.col + 1
                location["physicalLocation"]["region"] = region
            result["locations"] = [location]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "version": tool_version,
                        "informationUri":
                            "https://example.invalid/repro-noc",
                        "rules": rules,
                    },
                },
                "results": results,
            },
        ],
    }


def write_sarif(findings: Iterable[Finding], path: str, **kwargs) -> None:
    doc = findings_to_sarif(list(findings), **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
