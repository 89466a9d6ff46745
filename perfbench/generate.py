"""Set-up step: import gsnlint, generate one workload's inputs, write them.

Usage: python3 perfbench/generate.py WORKLOAD SEED OUTDIR [SCALE]

Runs in its own interpreter so that the import is cold and the memory the
generator uses never counts towards the op phase's peak RSS. Writes
``OUTDIR/manifest.json`` (files, element counts, planted answers) and prints
its own timings as one JSON line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_gsnlint():
    """Import gsnlint from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import gsnlint
    if Path(gsnlint.__file__).resolve().parent != SRC / "gsnlint":
        raise ImportError(f"gsnlint imported from {gsnlint.__file__}, not from {SRC}")
    return gsnlint


def write_inputs(workload: str, seed: int, out: Path, scale: float = 1.0) -> None:
    """Write the inputs and ``manifest.json``; file names in it are relative."""
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    if workload == "scaffold":
        for variant in workloads.scaffold_variants(seed):
            files = [f"{variant['name']}.sac.yaml"]
            if variant["split"]:
                files.append(f"{variant['name']}-registries.sac.yaml")
            manifest.append({**variant, "files": files,
                             "expected": workloads.scaffold_expected(variant["samples"])})
    else:
        generator = {"wide": workloads.wide, "deep": workloads.deep}[workload]
        for item in generator(seed, scale):
            name = f"{item.name}.sac.yaml"
            (out / name).write_text(workloads.emit_yaml(item.model), encoding="utf-8")
            manifest.append({"name": item.name, "files": [name],
                             "elements": sum(len(m.elements) for m in item.model.modules),
                             "expected": item.expected})
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def load_manifest(out: Path) -> list[dict]:
    """The manifest with file names resolved against `out`."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for entry in manifest:
        entry["files"] = [str(out / name) for name in entry["files"]]
    return manifest


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    scale = float(argv[3]) if len(argv) > 3 else 1.0
    start = time.perf_counter()
    import_gsnlint()
    imported = time.perf_counter()
    write_inputs(workload, seed, out, scale)
    done = time.perf_counter()
    print(json.dumps({"setup_s": done - start, "import_s": imported - start,
                      "generate_write_s": done - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
