"""Command-line front end: parse -> wellformed -> rules -> trace -> report.

Exit codes: 0 when no Error finding, 1 when at least one Error finding (or,
with --strict-warnings, a Warning) and on an interrupt (`Aborted!`), 2 on
parse or usage failure or when an output file cannot be written, 3 on an
internal error; closing stdout or stderr early changes none, for usage errors
and `--help` too.  Reports go to stdout, diagnostics to stderr;
under `--format json` a parse failure also puts its diagnostics on stdout.
"""

from __future__ import annotations

import contextlib
import io
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


class _End(Exception):
    """Ends a command early: `_End(exit code, stderr text, stdout text)`."""


def _write(text: str, err: bool = False) -> None:
    """The one writer: non-empty text ends with a newline; a closed stream takes no more."""
    try:
        if text:  # an empty text touches no stream
            # Explicit stream: click caches its default per stream, keeping in-process output alive.
            click.echo(text, nl=not text.endswith("\n"),
                       file=click.get_text_stream("stderr" if err else "stdout"))
    except BrokenPipeError:  # the reader stopped early
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2 if err else 1)


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


def _load(paths: tuple[str, ...], lenient: bool, as_json: bool = False):
    model, diags = load_model(list(paths), lenient=lenient)
    err = "\n".join(map(str, diags))
    if model is None:
        raise _End(2, err, emit_diagnostics_json(diags) if as_json else "")
    _write(err, err=True)  # now, so an internal error comes after them
    return model


def _write_file(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _End(2, f"cannot write '{path}': {exc.strerror}", "") from None


class _Printed(io.StringIO):
    """What click prints itself: help, shell completion.  Unhashable, so click's
    per-stream cache of default streams, a WeakKeyDictionary, cannot keep it."""
    __hash__ = None


class _Main(click.Group):
    """The one exit: a command's result or `_End`, click's help, usage errors and
    interrupts become (stdout, stderr, code), written by `_write` before one
    `sys.exit`; an unexpected exception is one stderr line and exit 3, never 1."""

    def main(self, args=None, prog_name=None, **extra):
        printed = _Printed()
        try:
            out, err, code = "", "", 0
            try:
                with contextlib.redirect_stdout(printed):
                    result = super().main(args, prog_name, standalone_mode=False, **extra)
                out, code = result if isinstance(result, tuple) else ("", result)
            except _End as end:
                code, err, out = end.args
            except click.ClickException as exc:
                exc.show(shown := io.StringIO())
                err, code = shown.getvalue(), exc.exit_code
            except (click.Abort, BrokenPipeError):  # Ctrl-C; click's "\n" before Abort
                err, code = "Aborted!", 1  # raises BrokenPipeError on a closed stderr
            except SystemExit as exc:  # click ends shell completion itself
                code = exc.code
            _write(err, err=True)
            _write(printed.getvalue() or out)
        except Exception as exc:
            _write(f"gsnlint: internal error: {type(exc).__name__}: {exc}", err=True)
            code = 3
        sys.exit(code)


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
def check(paths, profile, fmt, lenient, strict_warnings, severity_pairs) -> tuple[str, int]:
    """Run the full rule pipeline on an argumentation model."""
    try:
        rule_profile = rules_mod.make_profile(
            profile, _parse_severity_overrides(severity_pairs))
    except rules_mod.UnknownRuleError as exc:
        raise click.UsageError(str(exc))
    bundle = _report(_load(paths, lenient, fmt == "json"), profile, rule_profile)
    summary = bundle.summary
    code = 1 if summary["errors"] or (strict_warnings and summary["warnings"]) else 0
    return emit_findings(bundle, fmt), code


def _report(model, profile: str, rule_profile: rules_mod.RuleProfile) -> ReportBundle:
    """What `check` reports on `model`.  The bundle holds no part of the model
    but shared strings and locations, so the model and its views are freed
    as this returns, before the report is written."""
    return ReportBundle(
        model_id=model.id,
        model_version=model.version,
        profile=profile,
        findings=rules_mod.evaluate(model, rule_profile),
        matrices=[trace_registry(model, name) for name in sorted(REGISTRY_SUBSETS)],
        acp_report=acp_report(model),
        evidence_report=evidence_report(model),
    )


@main.command()
@click.argument("out_path", type=click.Path())
@click.option("--top-claim", default=None, help="Override the root claim text.")
@click.option("--no-samples", is_flag=True, help="Generate empty registries.")
@click.option("--split", is_flag=True,
              help="Write registries and artifacts to a separate file.")
@click.option("--force", is_flag=True, help="Overwrite existing files.")
def scaffold(out_path, top_claim, no_samples, split, force) -> tuple[str, int]:
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
            raise _End(2, f"refusing to overwrite '{target}' (use --force)", "")
    _write_file(out_path, serialize_model(model, include_registries=not split))
    if split:
        _write_file(targets[1], serialize_registries(model))
    return f"wrote {' and '.join(str(t) for t in targets)} ({len(model.index)} elements)", 0


@main.command()
@click.argument("registry", type=click.Choice(sorted(REGISTRY_SUBSETS)))
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("--format", "fmt", default="csv", type=click.Choice(["csv", "json"]))
@click.option("--lenient", is_flag=True)
def trace(registry, paths, fmt, lenient) -> tuple[str, int]:
    """Emit the traceability matrix for one registry."""
    matrix = trace_registry(_load(paths, lenient, fmt == "json"), registry)
    return (matrix_to_json(matrix) if fmt == "json" else matrix_to_csv(matrix)), 0


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@click.option("-o", "--out", "out_path", default=None, type=click.Path())
@click.option("--color-by-type", is_flag=True,
              help="Fill nodes by argument-type membership.")
@click.option("--lenient", is_flag=True)
def render(paths, out_path, color_by_type, lenient) -> tuple[str, int]:
    """Render the model graph as Graphviz DOT."""
    dot = render_dot(_load(paths, lenient), by_argument_type_color=color_by_type)
    if out_path:
        _write_file(out_path, dot)
    return ("" if out_path else dot), 0


@main.command()
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "text"]))
def rules(fmt) -> tuple[str, int]:
    """Print the rule catalog."""
    if fmt == "json":
        return rules_mod.catalog_as_json(), 0
    return "\n".join(f"{d.id:5} {d.default_severity.value:8} {d.title}"
                     for d in rules_mod.CATALOG.values()), 0


if __name__ == "__main__":
    main()
