"""Diagnostics shared by the well-formedness and requirement checkers."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .model import SourceLocation


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True, slots=True)
class Finding:
    rule: str
    severity: Severity
    message: str
    elements: tuple[str, ...] = ()
    location: Optional[SourceLocation] = None


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Stable order for diff-friendly output: rule, then implicated elements."""
    return sorted(findings, key=lambda f: (f.rule, f.elements, f.message))


@dataclass
class ParseDiagnostic:
    severity: Severity
    code: str
    message: str
    file: str = "<input>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return (f"{self.file}:{self.line}:{self.column}: "
                f"{self.severity.value}: {self.message} [{self.code}]")
