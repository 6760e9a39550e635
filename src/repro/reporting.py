"""Shared findings-report conventions for ``check``/``verify``/``analyze``.

Three CLI layers diagnose problems statically — the lint/validator stack
(``repro-noc check``), the formal-verification stack (``repro-noc
verify``), and the fabric analyzer (``repro-noc analyze``).  They share
one contract, owned here so a third implementation never drifts:

- **exit codes**: 0 clean, 1 findings (any error-severity finding, a
  deadlock-capable cycle, a failed gate), 2 usage errors or an escaped
  invariant violation;
- **ordering**: findings render in a stable ``(path, line, rule)`` order
  so reports are diffable across runs regardless of which checker layer
  emitted what first;
- **accounting**: per-rule finding counts for machine-readable reports.

:class:`FindingsReport` is the reusable base: it owns the findings list,
the error/warning split, the exit code, and the stable rendering.
``CheckReport`` extends it with lint/validator counters and the
analyzer's per-system reports embed it for their findings sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.lint.findings import Finding, Severity

#: The shared exit-code convention (documented in the CLI epilog).
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable ``(path, line, rule)`` order for rendering and diffing."""
    return sorted(findings, key=lambda f: (f.path or "", f.line or 0, f.rule))


def rule_counts(findings: Iterable[Finding]) -> Dict[str, int]:
    """Finding count per rule id, in sorted rule order."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {rule: counts[rule] for rule in sorted(counts)}


def exit_code_for(findings: Sequence[Finding],
                  fail_on: str = Severity.ERROR) -> int:
    """EXIT_FINDINGS iff any finding is at/above ``fail_on`` severity.

    ``fail_on`` defaults to ``error`` (warnings report but pass); CI can
    tighten to ``warn`` or ``info``.
    """
    threshold = Severity.RANK.get(Severity.normalize(fail_on),
                                  Severity.RANK[Severity.ERROR])
    return (EXIT_FINDINGS
            if any(f.rank >= threshold for f in findings) else EXIT_OK)


@dataclass
class FindingsReport:
    """A findings list plus the shared split/ordering/exit conventions."""

    findings: List[Finding] = field(default_factory=list)
    #: Severity threshold for the exit code (``--fail-on``).
    fail_on: str = Severity.ERROR

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.is_error]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARN]

    @property
    def exit_code(self) -> int:
        return exit_code_for(self.findings, self.fail_on)

    def rule_counts(self) -> Dict[str, int]:
        return rule_counts(self.findings)

    def format_findings(self) -> List[str]:
        """One rendered line per finding, in the stable shared order."""
        return [f.format() for f in sort_findings(self.findings)]

    def findings_to_dict(self) -> dict:
        """The findings fragment every report's ``to_dict`` embeds."""
        return {
            "findings": [f.to_dict() for f in sort_findings(self.findings)],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "rule_counts": self.rule_counts(),
        }
