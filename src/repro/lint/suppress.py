"""Inline suppression comments with unused-suppression detection.

A line opts out of one or more rules with a trailing comment::

    self.busy_cycles = 0.0  # repro: allow[float-cycle]
    import random           # repro: allow[determinism, rng-not-rooted]

(the legacy ``# lint: allow[rule]`` spelling is accepted too).  Every
checker layer that anchors findings to source lines — the AST lint and
the dataflow analyzer — consults one :class:`Suppressions` instance per
file, which records which suppressions actually fired.  A suppression
whose rule never fires on its line is itself reported
(``unused-suppression``, warn severity) so stale opt-outs cannot rot in
the tree after the code they excused is gone.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.findings import Finding, Severity

_ALLOW_COMMENT = re.compile(
    r"#\s*(?:repro|lint):\s*allow\[([a-z0-9\-, ]+)\]")


def _iter_comments(source: str) -> Iterator[Tuple[int, str]]:
    """(lineno, text) for every *real* comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps suppression
    examples inside docstrings — like the ones in this module's — from
    registering as live suppressions.  Files that fail to tokenize get
    no suppressions; the lint reports them as ``syntax`` anyway.
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


class Suppressions:
    """Per-file suppression table with usage tracking."""

    def __init__(self, source: str, path: str = "<string>"):
        self.path = path
        #: line -> rules allowed on that line
        self._allowed: Dict[int, Set[str]] = {}
        #: (line, rule) pairs that suppressed at least one finding
        self._used: Set[Tuple[int, str]] = set()
        #: line -> the raw source line (context for unused findings)
        self._line_text: Dict[int, str] = {}
        lines = source.splitlines()
        for lineno, comment in _iter_comments(source):
            match = _ALLOW_COMMENT.search(comment)
            if match:
                rules = {r.strip() for r in match.group(1).split(",")
                         if r.strip()}
                if rules:
                    self._allowed[lineno] = rules
                    if 0 < lineno <= len(lines):
                        self._line_text[lineno] = lines[lineno - 1]

    def __bool__(self) -> bool:
        return bool(self._allowed)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """True (and marks the suppression used) if ``rule`` is allowed
        on ``line``."""
        if rule in self._allowed.get(line, ()):
            self._used.add((line, rule))
            return True
        return False

    def used(self) -> List[Tuple[int, str]]:
        return sorted(self._used)

    def unused(self) -> Iterator[Tuple[int, str]]:
        for line in sorted(self._allowed):
            for rule in sorted(self._allowed[line]):
                if (line, rule) not in self._used:
                    yield line, rule

    def unused_findings(self) -> List[Finding]:
        """One warn finding per suppression that never fired.

        The ``unused-suppression`` rule cannot suppress itself — a
        suppression comment is either used or reported, never silenced.
        """
        out: List[Finding] = []
        for line, rule in self.unused():
            out.append(Finding(
                rule="unused-suppression",
                message=(f"suppression 'allow[{rule}]' never fired on "
                         "this line; delete it (or fix the rule name) "
                         "so opt-outs cannot rot"),
                severity=Severity.WARN, path=self.path, line=line,
                context=self._line_text.get(line)))
        return out
