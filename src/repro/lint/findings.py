"""The unified finding record shared by every static-analysis layer.

A finding is one diagnosed problem: which rule fired, where, how bad.
The AST lint, the interprocedural dataflow analyzer, the topology/config
validator, and the fabric analyzer all emit this one dataclass, so
``repro-noc check`` can aggregate and export them uniformly.

Severity is a two-level scale (``error`` > ``warn``); the legacy
spelling ``"warning"`` is normalized to ``"warn"`` on the way in so old
JSON reports keep working.

Every finding carries a **fingerprint**: a short stable hash of the rule,
the normalized path, and the *content* of the flagged line (not its
number), so inserting blank lines or comments above a finding does not
change its identity.  Fingerprints are what the SARIF exporter
(:mod:`repro.lint.sarif`) keys on, so code scanning tracks a finding
across pushes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Optional


class Severity:
    """Finding severities (plain strings so findings serialize cleanly)."""

    ERROR = "error"
    WARN = "warn"
    #: Legacy alias — older code and serialized reports said "warning".
    WARNING = WARN

    #: Rank order for gating (``--fail-on``): higher is worse.
    RANK = {WARN: 1, ERROR: 2}

    @staticmethod
    def normalize(value: str) -> str:
        """Map legacy spellings onto the canonical two levels."""
        if value == "warning":
            return Severity.WARN
        return value


_WS = re.compile(r"\s+")


def normalize_context(text: str) -> str:
    """Canonical form of a source line for fingerprinting.

    Collapses all whitespace so reformatting (indentation shifts, tab
    vs space) does not change a finding's fingerprint.
    """
    return _WS.sub(" ", text.strip())


def normalize_path(path: Optional[str]) -> str:
    """Machine-independent form of a finding path.

    Lint paths are absolute (wherever the package is installed);
    fingerprints must match across checkouts, so the path is cut down to the
    ``repro/``-rooted suffix when one exists, else the basename.
    """
    if not path:
        return ""
    posix = path.replace("\\", "/")
    idx = posix.rfind("/repro/")
    if idx >= 0:
        return posix[idx + 1:]
    if posix.startswith("repro/"):
        return posix
    return posix.rsplit("/", 1)[-1]


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem from any checker layer."""

    rule: str
    message: str
    severity: str = Severity.ERROR
    #: Source file (lint/dataflow) or scenario file (validator); None
    #: for checks on in-memory specs.
    path: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None
    #: The source line (or other stable content) the finding anchors to;
    #: feeds the fingerprint so line renumbering cannot change a
    #: finding's identity.  Falls back to the message when the
    #: emitting layer has no source text (e.g. validator findings).
    context: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "severity",
                           Severity.normalize(self.severity))

    @property
    def is_error(self) -> bool:
        return self.severity == Severity.ERROR

    @property
    def rank(self) -> int:
        return Severity.RANK.get(self.severity, Severity.RANK[Severity.ERROR])

    @property
    def fingerprint(self) -> str:
        """Line-shift-stable identity: rule + normalized path + context."""
        context = self.context if self.context is not None else self.message
        payload = "\x00".join(
            (self.rule, normalize_path(self.path), normalize_context(context)))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def format(self) -> str:
        loc = ""
        if self.path is not None:
            loc = self.path
            if self.line is not None:
                loc += f":{self.line}"
                if self.col is not None:
                    loc += f":{self.col}"
            loc += ": "
        return f"{loc}{self.severity}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "message": self.message,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "context": self.context,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Finding":
        return cls(rule=raw["rule"], message=raw["message"],
                   severity=Severity.normalize(raw.get("severity", "error")),
                   path=raw.get("path"), line=raw.get("line"),
                   col=raw.get("col"), context=raw.get("context"))
