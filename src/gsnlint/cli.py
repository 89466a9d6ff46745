"""Command-line front end: parse -> wellformed -> rules -> trace -> report.

Exit codes: 0 when no Error finding, 1 when at least one Error finding
(or, with --strict-warnings, a Warning), 2 on parse or usage failure or
when an output file cannot be written, 3 on an unexpected exception (an
internal error).  Reports go to stdout, diagnostics to stderr; under
`--format json`, an input that reads as no model also puts its diagnostics
on stdout as a JSON envelope.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from . import rules as rules_mod
from .findings import Severity
from .parser import load_model, serialize_model, serialize_registries
from .report import ReportBundle, emit_diagnostics_json, emit_findings, render_dot
from .scaffold import ScaffoldOptions, scaffold_reference_model
from .trace import (
    REGISTRY_SUBSETS,
    acp_report,
    evidence_report,
    matrix_to_csv,
    matrix_to_json,
    trace_registry,
)


def _parse_severity_overrides(pairs: tuple[str, ...]) -> dict[str, Severity]:
    overrides: dict[str, Severity] = {}
    for pair in pairs:
        rule, _, level = pair.partition("=")
        try:
            overrides[rule] = Severity(level)  # no "=" leaves level "", no Severity either
        except ValueError:
            raise click.UsageError(
                f"--severity expects RULE=error|warning|info, got '{pair}'") from None
    return overrides


def _load_or_exit(paths: tuple[str, ...], lenient: bool, as_json: bool = False):
    model, diags = load_model(list(paths), lenient=lenient)
    for diag in diags:
        click.echo(str(diag), err=True)
    if model is None:
        click.get_current_context().meta["exit_code"] = 2  # kept if stdout closes early
        if as_json:
            click.echo(emit_diagnostics_json(diags))
        sys.exit(2)
    return model


def _write_or_exit(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        click.echo(f"cannot write '{path}': {exc.strerror}", err=True)
        sys.exit(2)


class _Main(click.Group):
    """Turns an unexpected exception into one stderr line and exit code 3,
    so a crash never reads as exit 1 ("Error findings")."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort, click.ClickException):
            raise  # click's own control flow (Exit and Abort are RuntimeErrors)
        except BrokenPipeError:
            # The reader stopped early: end quietly with the code the command set.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(ctx.meta.get("exit_code", 0))
        except Exception as exc:
            click.echo(f"gsnlint: internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """Structural checks for GSN-based safety assurance argumentations."""


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--profile", default="all",
              type=click.Choice(list(rules_mod.PROFILE_RULES)))
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
@click.option("--lenient", is_flag=True, help="Demote unknown keys to warnings.")
@click.option("--strict-warnings", is_flag=True,
              help="Treat warning findings like errors for the exit code.")
@click.option("--severity", "severity_pairs", multiple=True, metavar="RULE=LEVEL",
              help="Override a rule's severity (repeatable).")
def check(paths, profile, fmt, lenient, strict_warnings, severity_pairs) -> None:
    """Run the full rule pipeline on an argumentation model."""
    try:
        rule_profile = rules_mod.make_profile(
            profile, _parse_severity_overrides(severity_pairs))
    except rules_mod.UnknownRuleError as exc:
        raise click.UsageError(str(exc))
    model = _load_or_exit(paths, lenient, fmt == "json")
    findings = rules_mod.evaluate(model, rule_profile)
    bundle = ReportBundle(
        model_id=model.id,
        model_version=model.version,
        profile=profile,
        findings=findings,
        matrices=[trace_registry(model, name) for name in sorted(REGISTRY_SUBSETS)],
        acp_report=acp_report(model),
        evidence_report=evidence_report(model),
    )
    summary = bundle.summary
    code = 1 if summary["errors"] or (strict_warnings and summary["warnings"]) else 0
    click.get_current_context().meta["exit_code"] = code  # kept if stdout closes early
    click.echo(emit_findings(bundle, fmt), nl=False)
    if code:
        sys.exit(code)


@main.command()
@click.argument("out_path", type=click.Path())
@click.option("--top-claim", default=None, help="Override the root claim text.")
@click.option("--no-samples", is_flag=True, help="Generate empty registries.")
@click.option("--split", is_flag=True,
              help="Write registries and artifacts to a separate file.")
@click.option("--force", is_flag=True, help="Overwrite existing files.")
def scaffold(out_path, top_claim, no_samples, split, force) -> None:
    """Write a rule-clean reference argumentation model."""
    opts = ScaffoldOptions(include_samples=not no_samples)
    if top_claim is not None:
        opts.top_claim_text = top_claim
    model = scaffold_reference_model(opts)
    out = Path(out_path)
    targets = [out]
    if split:
        targets.append(out.with_name(out.stem.removesuffix(".sac")
                                     + "-registries.sac.yaml"))
    for target in targets:
        if target.exists() and not force:
            click.echo(f"refusing to overwrite '{target}' (use --force)", err=True)
            sys.exit(2)
    _write_or_exit(out_path, serialize_model(model, include_registries=not split))
    if split:
        _write_or_exit(targets[1], serialize_registries(model))
    count = len(model.index)
    click.echo(f"wrote {' and '.join(str(t) for t in targets)} ({count} elements)")


@main.command()
@click.argument("registry", type=click.Choice(sorted(REGISTRY_SUBSETS)))
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--format", "fmt", default="csv", type=click.Choice(["csv", "json"]))
@click.option("--lenient", is_flag=True)
def trace(registry, paths, fmt, lenient) -> None:
    """Emit the traceability matrix for one registry."""
    model = _load_or_exit(paths, lenient, fmt == "json")
    matrix = trace_registry(model, registry)
    if fmt == "json":
        click.echo(matrix_to_json(matrix))
    else:
        click.echo(matrix_to_csv(matrix), nl=False)


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("-o", "--out", "out_path", default=None, type=click.Path())
@click.option("--color-by-type", is_flag=True,
              help="Fill nodes by argument-type membership.")
@click.option("--lenient", is_flag=True)
def render(paths, out_path, color_by_type, lenient) -> None:
    """Render the model graph as Graphviz DOT."""
    model = _load_or_exit(paths, lenient)
    dot = render_dot(model, by_argument_type_color=color_by_type)
    if out_path:
        _write_or_exit(out_path, dot)
    else:
        click.echo(dot, nl=False)


@main.command()
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "text"]))
def rules(fmt) -> None:
    """Print the rule catalog."""
    if fmt == "json":
        click.echo(rules_mod.catalog_as_json())
    else:
        for descriptor in rules_mod.CATALOG.values():
            click.echo(f"{descriptor.id:5} {descriptor.default_severity.value:8} "
                       f"{descriptor.title}")


if __name__ == "__main__":
    main()
