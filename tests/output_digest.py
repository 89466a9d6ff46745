"""Digest of the CLI's observable output, for byte-identity checks.

Runs `check`, `trace` and `render` under fixed option variants (`check`
also with severity overrides) over every good and bad fixture and
`random_model` seeds 0-99 (and `check` also over the scaffold mutation
corpus, `mutations.MUTATIONS` each applied to `scaffold_reference_model()`,
so every rule's own finding is hashed), in process through click's
CliRunner, and prints one sha256 per command family over each run's (argv,
exit code, stdout, stderr).  Inputs are copied into a temporary directory
and named by relative paths, so the digest does not depend on where the
checkout lives.  A `views` line hashes the library's graph views (argument
types and subsets, solution backing, root goals, `reachable_from` of each
argument subset, `descendants` of each element, `argument_scopes`,
`role_members` and `item_tracers`) on every good fixture and the same
random models; all of them are acyclic, so each view has one right answer,
and ids are sorted so the digest does not depend on traversal order.  A
`serialize` line hashes the YAML writer's three outputs (`serialize_model`
with and without registries, `serialize_registries`) on every good fixture,
the same random models, `big_model(2000, 1000)`, scaffold models with and
without samples over several context-dimension counts and top claims, and
`genmodels.string_model` over every string in `FALLBACK_STRINGS` and
`EDGE_STRINGS`, so both of the writer's emitter paths are covered.  A
`structure` line hashes the structural guards' verdicts on
`genmodels.ill_formed_model` seeds 0-99 (cycles, self-loops, ids declared
twice across modules, dangling references, bad ACPs, and some clean
models): the `gsn-wf` profile's findings and `topo_order` of the hand-built
model, then `check` on the model written as YAML, whose exit code and
positioned stderr diagnostics come from the parser's guards.  A `cli` line
hashes the commands no other line covers, run in order in one empty
directory: `rules` in both formats, `scaffold` (default, `--no-samples`,
`--split`, `--top-claim`, refused overwrites, `--force` and unwritable
targets) and `render -o` (also onto an unwritable target), then click's
own output: `--help` of the group, `check` and `trace`, no arguments, an
unknown command, usage errors (`check --format xml`, a malformed and an
unknown `--severity`, an unknown `--profile`, `check` with no paths,
`trace` of an unknown registry); each run's (argv, exit code, stdout,
stderr) and every file in the directory afterwards, by name and bytes.  A
`parse` line hashes `parse_model`'s diagnostics (severity, code, message,
file, line, column) and canonical dict, strict and lenient, on its error
paths: the seeded mutation and alias corpora of `test_parser_table.py`,
`genmodels.alias_document`, `genmodels.SKIPPED_ALIASES` (one alias to a
collection per way it is skipped), `genmodels.SKIPPED_SECTION` (a skipped
section with nested anchors), each `NEST_SHAPES` nest at
`parser.MAX_DEPTH` and one level past it, and one text per composer
refusal (an undefined alias, a duplicate anchor, a second document).  It
tests whichever `gsnlint` is importable; to compare two checkouts, run it
once against each:

    PYTHONPATH=<checkout>/src python tests/output_digest.py

Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from click.testing import CliRunner

from conftest import FIXTURES, bad_fixture_paths, good_fixture_groups
from genmodels import (EDGE_STRINGS, FALLBACK_STRINGS, NEST_SHAPES, SKIPPED_ALIASES,
                       SKIPPED_SECTION, alias_document, big_model, ill_formed_model, nest,
                       random_model, string_model)
from mutations import MUTATIONS, mutate
from test_parser_table import aliased_cases, mutated_cases
from gsnlint import cli
from gsnlint.model import DEFAULT_CONTEXT_DIMENSIONS, canonical_dict
from gsnlint.parser import (MAX_DEPTH, load_model, parse_model, serialize_model,
                            serialize_registries)
from gsnlint.rules import evaluate, make_profile
from gsnlint.scaffold import ScaffoldOptions, scaffold_reference_model

SEEDS = range(100)
PROFILES = ("core", "instantiation", "gsn-wf", "all")
REGISTRIES = ("hazards", "normative_requirements", "regulatory_requirements",
              "risk_acceptance_criteria")

#: Severity overrides: a WF Warning promoted to Error (which must not gate the
#: requirement rules), one Error rule demoted and one Info rule promoted.
_OVERRIDES = ("--severity", "WF7=error", "--severity", "R2=info", "--severity", "TL1=error")

#: Command family -> option variants; each variant runs once per input.
VARIANTS: dict[str, list[list[str]]] = {
    "check": [["check", "--profile", profile, "--format", fmt]
              for profile in PROFILES for fmt in ("text", "json")]
             + [["check", "--strict-warnings"], ["check", "--lenient"]]
             + [["check", *_OVERRIDES, "--format", fmt] for fmt in ("text", "json")],
    "trace": [["trace", registry, "--format", fmt]
              for registry in REGISTRIES for fmt in ("csv", "json")],
    "render": [["render"], ["render", "--color-by-type"]],
}


def write_inputs(root: Path) -> tuple[list[list[str]], list[list[str]]]:
    """Copy the fixtures and write the random models and the scaffold
    mutations under `root`; return the shared inputs and the mutation
    inputs, each as file lists relative to `root`."""
    inputs: list[list[str]] = []
    (root / "fixtures" / "bad").mkdir(parents=True)
    groups = [paths for _, paths in good_fixture_groups()]
    groups += [[path] for path in bad_fixture_paths()]
    for paths in groups:
        names = [path.relative_to(FIXTURES.parent).as_posix() for path in paths]
        for path, name in zip(paths, names):
            shutil.copyfile(path, root / name)
        inputs.append(names)
    (root / "random").mkdir()
    for seed in SEEDS:
        name = f"random/seed-{seed:03d}.sac.yaml"
        (root / name).write_text(serialize_model(random_model(seed)), encoding="utf-8")
        inputs.append([name])
    (root / "mutations").mkdir()
    reference = scaffold_reference_model()
    mutation_inputs = []
    for i, mutation in enumerate(MUTATIONS):
        name = f"mutations/{i:02d}-{mutation.rule}.sac.yaml"
        (root / name).write_text(serialize_model(mutate(reference, mutation)),
                                 encoding="utf-8")
        mutation_inputs.append([name])
    return inputs, mutation_inputs


def digests(inputs: list[list[str]], mutation_inputs: list[list[str]]
            ) -> dict[str, tuple[str, int]]:
    """Command family -> (sha256 over every run, number of runs)."""
    runner = CliRunner()
    out = {}
    for family, variants in VARIANTS.items():
        sha = hashlib.sha256()
        runs = 0
        for files in inputs + (mutation_inputs if family == "check" else []):
            for variant in variants:
                argv = variant + files
                result = runner.invoke(cli.main, argv)
                record = [argv, result.exit_code, result.stdout, result.stderr]
                sha.update(json.dumps(record).encode("utf-8") + b"\n")
                runs += 1
        out[family] = (sha.hexdigest(), runs)
    return out


def parseable_models() -> list:
    """Every good fixture, then `random_model` over SEEDS."""
    models = [load_model([str(p) for p in paths])[0] for _, paths in good_fixture_groups()]
    return models + [random_model(seed) for seed in SEEDS]


def views_digest() -> tuple[str, int]:
    """(sha256 over the graph views of every parseable model, model count)."""
    models = parseable_models()
    sha = hashlib.sha256()
    for model in models:
        subsets = model.argument_subsets
        record = {
            "effective_types": {eid: sorted(t.value for t in types)
                                for eid, types in model.effective_types.items()},
            "argument_subsets": {t.value: sorted(ids) for t, ids in subsets.items()},
            "has_solution_descendant": model.has_solution_descendant,
            "root_goals": model.root_goals,
            "reachable_from": {t.value: sorted(model.reachable_from(ids))
                               for t, ids in subsets.items()},
            "descendants": {eid: sorted(model.descendants(eid)) for eid in model.index},
            "argument_scopes": {eid: sorted(t.value for t in types)
                                for eid, types in model.argument_scopes.items()},
            "role_members": {role.value: sorted(ids)
                             for role, ids in model.role_members.items()},
            "item_tracers": {item: sorted(ids) for item, ids in model.item_tracers.items()},
        }
        sha.update(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
    return sha.hexdigest(), len(models)


def serialize_digest() -> tuple[str, int]:
    """(sha256 over the YAML writer's outputs, model count)."""
    models = parseable_models() + [big_model(2000, 1000)]
    models += [scaffold_reference_model(ScaffoldOptions(
                   top_claim_text=top_claim, include_samples=samples,
                   context_dimensions=list(DEFAULT_CONTEXT_DIMENSIONS[:dims])))
               for top_claim in ("Top claim", "Kein unvertretbares Risiko — über die ODD")
               for samples in (True, False)
               for dims in (0, 1, 3, len(DEFAULT_CONTEXT_DIMENSIONS))]
    models += [string_model(text) for text in (*FALLBACK_STRINGS.values(),
                                               *EDGE_STRINGS.values())]
    sha = hashlib.sha256()
    for model in models:
        for text in (serialize_model(model), serialize_model(model, include_registries=False),
                     serialize_registries(model)):
            sha.update(text.encode("utf-8") + b"\n")
    return sha.hexdigest(), len(models)


def structure_digest(root: Path) -> tuple[str, int]:
    """(sha256 over the guards' verdicts on the ill-formed models, model
    count); each model is written under `root`, the working directory."""
    profile = make_profile("gsn-wf")
    runner = CliRunner()
    sha = hashlib.sha256()
    (root / "ill-formed").mkdir()
    for seed in SEEDS:
        model = ill_formed_model(seed)
        findings = [[f.rule, f.severity.value, f.message, f.elements, str(f.location)]
                    for f in evaluate(model, profile)]
        name = f"ill-formed/seed-{seed:03d}.sac.yaml"
        (root / name).write_text(serialize_model(model), encoding="utf-8")
        result = runner.invoke(cli.main, ["check", name])
        record = [findings, model.topo_order, name, result.exit_code, result.stdout,
                  result.stderr]
        sha.update(json.dumps(record).encode("utf-8") + b"\n")
    return sha.hexdigest(), len(SEEDS)


#: Runs in order in one directory, so later runs meet earlier runs' files.
CLI_RUNS = [
    ["rules"], ["rules", "--format", "text"],
    ["scaffold", "default.sac.yaml"],
    ["scaffold", "--no-samples", "empty.sac.yaml"],
    ["scaffold", "--split", "split.sac.yaml"],
    ["scaffold", "--top-claim", "Kein unvertretbares Risiko — über die ODD", "claim.sac.yaml"],
    ["scaffold", "default.sac.yaml"],
    ["scaffold", "--no-samples", "half-registries.sac.yaml"],
    ["scaffold", "--split", "half.sac.yaml"],
    ["scaffold", "--force", "--no-samples", "default.sac.yaml"],
    ["scaffold", "missing/x.sac.yaml"],
    ["scaffold", "--force", "dir"],
    ["render", "-o", "default.dot", "default.sac.yaml"],
    ["render", "--color-by-type", "-o", "split.dot",
     "split.sac.yaml", "split-registries.sac.yaml"],
    ["render", "-o", "missing/x.dot", "claim.sac.yaml"],
    ["--help"], ["check", "--help"], ["trace", "--help"],
    [], ["nosuchcmd"],
    ["check", "--format", "xml", "default.sac.yaml"],
    ["check", "--severity", "R1=bogus", "default.sac.yaml"],
    ["check", "--severity", "R99=error", "default.sac.yaml"],
    ["check", "--profile", "nope", "default.sac.yaml"],
    ["check"], ["trace", "bogus", "default.sac.yaml"],
]


#: One text per refusal of the safe loaders' composers.
COMPOSER_REFUSALS = ("model: {id: m}\nbogus: 1\na: [1, *x]\n",
                     "model: {id: m}\nbogus: 1\na: &x [1]\nb:\n  c: &x 2\n",
                     "model: {id: m}\nbogus: 1\n--- [b]\n")


def parse_digest() -> tuple[str, int]:
    """(sha256 over `parse_model`'s verdicts on its error paths, case count)."""
    cases = [documents for seed in range(4) for _, documents in mutated_cases(250, seed)]
    cases += [documents for _, documents in aliased_cases(200, 0)]
    cases += [[("alias.sac.yaml", alias_document(k))] for k in (2, 5)]
    cases += [[("skipped.sac.yaml", text)] for text in (*SKIPPED_ALIASES.values(),
                                                        SKIPPED_SECTION)]
    cases += [[("nest.sac.yaml", nest(shape, depth))]
              for shape in NEST_SHAPES for depth in (MAX_DEPTH, MAX_DEPTH + 1)]
    cases += [[("refused.sac.yaml", text)] for text in COMPOSER_REFUSALS]
    sha = hashlib.sha256()
    for documents in cases:
        for lenient in (False, True):
            model, diags = parse_model(documents, lenient=lenient)
            record = [[[d.severity.value, d.code, d.message, d.file, d.line, d.column]
                       for d in diags], model and canonical_dict(model)]
            sha.update(json.dumps(record).encode("utf-8") + b"\n")
    return sha.hexdigest(), len(cases)


def cli_digest(root: Path) -> tuple[str, int]:
    """(sha256 over CLI_RUNS, run count); `root` is the working directory."""
    runner = CliRunner()
    sha = hashlib.sha256()
    (root / "cli").mkdir()
    os.chdir(root / "cli")
    Path("dir").mkdir()  # "dir" cannot be written as a file; "missing/" does not exist
    for argv in CLI_RUNS:
        result = runner.invoke(cli.main, argv)
        files = {path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(Path().rglob("*")) if path.is_file()}
        record = [argv, result.exit_code, result.stdout, result.stderr, files]
        sha.update(json.dumps(record).encode("utf-8") + b"\n")
    return sha.hexdigest(), len(CLI_RUNS)


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            results = digests(*write_inputs(Path(tmp)))
            structure = structure_digest(Path(tmp))
            cli_runs = cli_digest(Path(tmp))
        finally:
            os.chdir(cwd)
    for family, (digest, runs) in results.items():
        print(f"{family:9} {digest}  ({runs} runs)")
    digest, count = views_digest()
    print(f"{'views':9} {digest}  ({count} models)")
    digest, count = serialize_digest()
    print(f"{'serialize':9} {digest}  ({count} models)")
    digest, count = structure
    print(f"{'structure':9} {digest}  ({count} models)")
    digest, runs = cli_runs
    print(f"{'cli':9} {digest}  ({runs} runs)")
    digest, count = parse_digest()
    print(f"{'parse':9} {digest}  ({count} cases)")


if __name__ == "__main__":
    main()
