from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gsnlint.scaffold import scaffold_reference_model

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent / "data"


def good_fixture_groups() -> list[tuple[str, list[Path]]]:
    """Parseable fixtures; the split scaffold pair loads as one model."""
    groups: list[tuple[str, list[Path]]] = []
    split: list[Path] = []
    for path in sorted(FIXTURES.glob("*.sac.yaml")):
        if path.name.startswith("30"):
            split.append(path)
        else:
            groups.append((path.stem, [path]))
    if split:
        groups.append(("30-scaffold-split", split))
    return groups


def bad_fixture_paths() -> list[Path]:
    return sorted((FIXTURES / "bad").glob("*.sac.yaml"))


def diagnostics_envelope(diags) -> dict:
    """What `--format json` prints, parsed, for an input that reads as no model."""
    return {"diagnostics": [
        {"severity": d.severity.value, "code": d.code, "message": d.message,
         "file": d.file, "line": d.line, "column": d.column} for d in diags]}


@pytest.fixture(scope="session")
def reference_model():
    return scaffold_reference_model()
