"""Extreme input shapes through `gsnlint check`, each in its own process.

Each case writes its documents, runs the CLI in a subprocess and requires
an ordinary exit: 0, 1 or 2, never a signal (a crash of the interpreter)
and never 3 (an internal error).  The wall-clock bound grows with the
input's size, so a reader whose cost is not linear in the input fails it:
the alias case would read k**3 = 8,000,000 ACP records if aliases were
followed.  The alias and nesting cases must also be refused with their
own diagnostic: a document nested 50,000 deep would overflow libyaml's
recursive composer if the loader did not stop it at its depth limit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsnlint
from genmodels import NEST_SHAPES, alias_document, nest

SRC = Path(gsnlint.__file__).resolve().parents[1]
#: Interpreter start-up and import, then the time allowed per megabyte of
#: input: a `wide` model of 1.2 MB checks in under 1 s on two cores.
START_S = 10.0
S_PER_MB = 20.0

HEADER = "model: {id: shape}\n"


def chain(depth: int) -> str:
    """One module holding a goal chain `depth` goals deep over a solution."""
    lines = [HEADER + "modules:\n  - id: m\n    elements:"]
    lines += [f"      - {{id: G{i}, kind: goal, supported_by: [G{i + 1}]}}"
              for i in range(depth)]
    lines.append(f"      - {{id: G{depth}, kind: solution}}\n")
    return "\n".join(lines)


def big_scalar(size: int) -> str:
    return (HEADER + "modules:\n  - id: m\n    elements:\n"
            "      - {id: G1, kind: goal, undeveloped: true, text: " + "x" * size + "}\n")


def tiny_documents(count: int) -> list[str]:
    """A header document whose root goal is supported by one goal in each of
    `count` further one-module documents."""
    goals = ", ".join(f"G{i}" for i in range(count))
    head = (HEADER + "modules: [{id: top, elements: "
            f"[{{id: G, kind: goal, supported_by: [{goals}]}}]}}]\n")
    return [head] + [f"modules: [{{id: m{i}, elements: [{{id: G{i}, kind: goal, "
                     f"undeveloped: true}}]}}]\n" for i in range(count)]


#: Case -> a function writing its documents.
SHAPES = {
    "alias-200": lambda: [alias_document(200)],
    "chain-10000": lambda: [chain(10_000)],
    "scalar-1mb": lambda: [big_scalar(1 << 20)],
    "documents-300": lambda: tiny_documents(300),
    **{f"{shape}-50000": (lambda shape=shape: [nest(shape, 50_000)]) for shape in NEST_SHAPES},
}

#: Case -> what stderr must hold, for the cases that must exit 2.
REFUSED = {"alias-200": "[alias]",
           **{f"{shape}-50000": "nests deeper than" for shape in NEST_SHAPES}}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_check_ends_normally_in_time_linear_in_the_input(shape, tmp_path):
    texts = SHAPES[shape]()
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"doc{i}.sac.yaml"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    size_mb = sum(map(len, texts)) / 1e6
    bound = START_S + S_PER_MB * size_mb
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    try:
        result = subprocess.run([sys.executable, "-m", "gsnlint.cli", "check", *paths],
                                capture_output=True, text=True, env=env, timeout=bound)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{shape}: check ran past {bound:.1f} s on {size_mb:.3f} MB")
    assert result.returncode in (0, 1, 2), (shape, result.returncode, result.stderr[-2000:])
    if shape in REFUSED:
        assert result.returncode == 2
        assert REFUSED[shape] in result.stderr
