from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

import gsnlint
from gsnlint import cli
from gsnlint.cli import main
from gsnlint.parser import load_model
from gsnlint.report import emit_findings

from conftest import FIXTURES, diagnostics_envelope
from dotcheck import parse_dot


@pytest.fixture()
def runner():
    return CliRunner()


def fixture(name):
    return str(FIXTURES / name)


class TestCheck:
    def test_clean_model_exits_zero(self, runner):
        result = runner.invoke(main, ["check", fixture("28-scaffold-default.sac.yaml")])
        assert result.exit_code == 0, result.output
        assert "0 errors" in result.output

    def test_failing_model_exits_one(self, runner):
        result = runner.invoke(main, ["check", fixture("22-root-only.sac.yaml")])
        assert result.exit_code == 1
        assert "ERROR" in result.output

    def test_null_selection_rationale_fails_r4(self, runner, tmp_path):
        # `~` is a YAML null, which reads as no rationale at all.
        text = (FIXTURES / "28-scaffold-default.sac.yaml").read_text(encoding="utf-8")
        rationale = "'PLACEHOLDER: rationale for selecting this normative document'"
        assert text.count(rationale) == 1
        path = tmp_path / "null-rationale.sac.yaml"
        path.write_text(text.replace(rationale, "~"), encoding="utf-8")
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 1
        assert result.stdout == (
            "ERROR R4 G-CFM normative_requirements item 'NR-SAMPLE-1': no selection "
            "rationale recorded for the normative document\n1 errors, 0 warnings\n")

    def test_json_format_schema(self, runner):
        result = runner.invoke(main, ["check", "--format", "json",
                                      fixture("22-root-only.sac.yaml")])
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert {"model", "profile", "findings", "summary"} <= set(data)
        assert data["summary"]["errors"] >= 1

    def test_profile_selection(self, runner):
        # gsn-wf only: the root-only model is well-formed, so it passes.
        result = runner.invoke(main, ["check", "--profile", "gsn-wf",
                                      fixture("22-root-only.sac.yaml")])
        assert result.exit_code == 0, result.output

    def test_strict_warnings_flips_exit_code(self, runner):
        path = fixture("29-scaffold-nosamples.sac.yaml")
        relaxed = runner.invoke(main, ["check", path])
        strict = runner.invoke(main, ["check", "--strict-warnings", path])
        assert relaxed.exit_code == 0
        assert strict.exit_code == 1

    def test_severity_override_flag(self, runner):
        path = fixture("29-scaffold-nosamples.sac.yaml")
        result = runner.invoke(main, [
            "check", "--severity", "R3=error", path])
        assert result.exit_code == 1

    def test_bad_severity_pair_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "check", "--severity", "R3:error",
            fixture("01-minimal.sac.yaml")])
        assert result.exit_code == 2

    def test_unknown_rule_in_a_severity_override_is_usage_error(self, runner):
        result = runner.invoke(main, [
            "check", "--severity", "R99=error", fixture("01-minimal.sac.yaml")])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "Usage: main check [OPTIONS] PATHS...\n"
            "Try 'main check --help' for help.\n\n"
            "Error: unknown rule id 'R99' in severity overrides\n")

    def test_flags_are_checked_before_the_input_is_read(self, runner):
        result = runner.invoke(main, [
            "check", "--severity", "R99=error", "no-such-file.sac.yaml"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "Usage: main check [OPTIONS] PATHS...\n"
            "Try 'main check --help' for help.\n\n"
            "Error: unknown rule id 'R99' in severity overrides\n")

    def test_parse_failure_exits_two(self, runner):
        result = runner.invoke(main, ["check",
                                      str(FIXTURES / "bad" / "syntax.sac.yaml")])
        assert result.exit_code == 2

    def test_missing_file_exits_two(self, runner):
        result = runner.invoke(main, ["check", "no-such-file.sac.yaml"])
        assert result.exit_code == 2

    def test_non_utf8_input_exits_two(self, runner, tmp_path):
        path = tmp_path / "latin1.sac.yaml"
        path.write_bytes(b"model: {id: caf\xe9}\n")
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"cannot read '{path}': not UTF-8 text" in result.stderr

    def test_internal_error_exits_three(self, runner, monkeypatch):
        def crash(model, profile):
            raise ValueError("rule engine fault")

        monkeypatch.setattr(cli.rules_mod, "evaluate", crash)
        result = runner.invoke(main, ["check", fixture("01-minimal.sac.yaml")])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "gsnlint: internal error: ValueError: rule engine fault\n"

    def test_subcommand_help_passes_through_the_crash_handler(self, runner):
        # click ends --help with Exit(0), a RuntimeError.
        result = runner.invoke(main, ["check", "--help"])
        assert result.exit_code == 0
        assert "--profile" in result.stdout

    def test_interrupt_prints_aborted(self, runner, monkeypatch):
        def interrupt(paths, lenient):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_model", interrupt)
        result = runner.invoke(main, ["check", fixture("01-minimal.sac.yaml")])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")

    def test_shell_completion_prints_its_candidates(self, runner):
        result = runner.invoke(main, [], env={
            "_MAIN_COMPLETE": "bash_complete", "COMP_WORDS": "main ch", "COMP_CWORD": "1"})
        assert (result.exit_code, result.stdout, result.stderr) == (0, "plain,check\n", "")

    def test_multi_document_input(self, runner):
        result = runner.invoke(main, [
            "check",
            fixture("30a-scaffold-split-main.sac.yaml"),
            fixture("30b-scaffold-split-registries.sac.yaml")])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_the_model_is_freed_before_the_report_is_written(self, runner, monkeypatch, fmt):
        """`check` keeps no reference to the model, and so none to its cached
        views, while the report is rendered."""
        models, freed = [], []

        def load(*args, **kwargs):
            model, diags = load_model(*args, **kwargs)
            models.append(weakref.ref(model))
            return model, diags

        def emit(bundle, fmt):
            freed.append(models[0]() is None)
            return emit_findings(bundle, fmt)

        monkeypatch.setattr(cli, "load_model", load)
        monkeypatch.setattr(cli, "emit_findings", emit)
        result = runner.invoke(main, ["check", "--format", fmt,
                                      fixture("28-scaffold-default.sac.yaml")])
        assert result.exit_code == 0, result.output
        assert freed == [True]

    def test_a_piped_document_reads_like_the_file(self):
        """A pipe cannot be read twice, so it is read whole."""
        path = fixture("22-root-only.sac.yaml")
        piped = subprocess.run([sys.executable, "-m", "gsnlint.cli", "check", "/dev/stdin"],
                               input=Path(path).read_bytes(), capture_output=True, timeout=60)
        direct = subprocess.run([sys.executable, "-m", "gsnlint.cli", "check", path],
                                capture_output=True, timeout=60)
        assert (piped.returncode, piped.stdout, piped.stderr) == (1, direct.stdout, b"")
        assert direct.returncode == 1 and b"ERROR" in direct.stdout


class TestScaffold:
    def test_generated_file_passes_check(self, runner, tmp_path):
        out = tmp_path / "model.sac.yaml"
        result = runner.invoke(main, ["scaffold", str(out)])
        assert result.exit_code == 0, result.output
        assert out.exists()
        check = runner.invoke(main, ["check", str(out)])
        assert check.exit_code == 0, check.output
        assert "0 errors, 0 warnings" in check.output

    def test_top_claim_sets_the_root_goal_text(self, runner, tmp_path):
        out = tmp_path / "model.sac.yaml"
        result = runner.invoke(main, ["scaffold", "--top-claim", "The shuttle is safe",
                                      str(out)])
        assert result.exit_code == 0, result.output
        assert result.stdout == f"wrote {out} (76 elements)\n"
        model, diags = load_model([str(out)])
        assert diags == []
        assert (model.root.id, model.root.text) == ("G-TOP", "The shuttle is safe")

    def test_refuses_overwrite_without_force(self, runner, tmp_path):
        out = tmp_path / "model.sac.yaml"
        out.write_text("existing")
        result = runner.invoke(main, ["scaffold", str(out)])
        assert result.exit_code == 2
        assert out.read_text() == "existing"
        forced = runner.invoke(main, ["scaffold", "--force", str(out)])
        assert forced.exit_code == 0
        assert out.read_text() != "existing"

    def test_split_writes_registry_file(self, runner, tmp_path):
        out = tmp_path / "model.sac.yaml"
        result = runner.invoke(main, ["scaffold", "--split", str(out)])
        assert result.exit_code == 0, result.output
        registries = tmp_path / "model-registries.sac.yaml"
        assert registries.exists()
        check = runner.invoke(main, ["check", str(out), str(registries)])
        assert check.exit_code == 0, check.output

    def test_unwritable_registries_file_is_named(self, runner, tmp_path):
        out = tmp_path / "model.sac.yaml"
        registries = tmp_path / "model-registries.sac.yaml"
        registries.mkdir()
        result = runner.invoke(main, ["scaffold", "--split", "--force", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"cannot write '{registries}': ")

    def test_no_samples_variant(self, runner, tmp_path):
        out = tmp_path / "model.sac.yaml"
        runner.invoke(main, ["scaffold", "--no-samples", str(out)])
        check = runner.invoke(main, ["check", str(out)])
        assert check.exit_code == 0
        assert "WARNING" in check.output


class TestTrace:
    def test_csv_output(self, runner):
        result = runner.invoke(main, ["trace", "hazards",
                                      fixture("21-traces.sac.yaml")])
        assert result.exit_code == 0, result.output
        header = result.output.splitlines()[0]
        assert header == "item_id,covered,solution_backed,covering_elements"

    def test_json_output(self, runner):
        result = runner.invoke(main, ["trace", "hazards", "--format", "json",
                                      fixture("21-traces.sac.yaml")])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["registry"] == "hazards"

    def test_unknown_registry_rejected(self, runner):
        result = runner.invoke(main, ["trace", "unicorns",
                                      fixture("21-traces.sac.yaml")])
        assert result.exit_code == 2


class TestJsonOnParseFailure:
    """`check` and `trace` under --format json print the diagnostics of an
    input that reads as no model as a JSON envelope on stdout, and exit 2;
    stderr keeps its text lines, and the text formats print nothing."""

    COMMANDS = {"check": ["check"], "trace": ["trace", "hazards"]}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("path", [str(FIXTURES / "bad" / "syntax.sac.yaml"),
                                      "no-such-file.sac.yaml"], ids=["syntax", "missing"])
    def test_envelope_holds_the_parse_diagnostics(self, runner, command, path):
        model, diags = load_model([path])
        assert model is None and diags
        stderr = "".join(f"{d}\n" for d in diags)
        result = runner.invoke(main, self.COMMANDS[command] + ["--format", "json", path])
        assert result.exit_code == 2
        assert json.loads(result.stdout) == diagnostics_envelope(diags)
        assert result.stderr == stderr
        text = runner.invoke(main, self.COMMANDS[command] + [path])
        assert (text.exit_code, text.stdout, text.stderr) == (2, "", stderr)


class TestRender:
    def test_stdout_is_valid_dot(self, runner):
        result = runner.invoke(main, ["render", fixture("03-chain.sac.yaml")])
        assert result.exit_code == 0, result.output
        graph = parse_dot(result.output)
        assert graph.nodes

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "graph.dot"
        result = runner.invoke(main, ["render", "-o", str(out),
                                      fixture("03-chain.sac.yaml")])
        assert result.exit_code == 0
        parse_dot(out.read_text())

    def test_unwritable_output_exits_two(self, runner, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.dot"
        result = runner.invoke(main, ["render", "-o", str(out),
                                      fixture("03-chain.sac.yaml")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"cannot write '{out}': No such file or directory\n"


class TestRules:
    def test_json_catalog(self, runner):
        result = runner.invoke(main, ["rules"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        ids = {entry["id"] for entry in data["rules"]}
        assert "R1" in ids and "WF9" in ids and "EV1" in ids

    def test_text_catalog(self, runner):
        result = runner.invoke(main, ["rules", "--format", "text"])
        assert result.exit_code == 0
        assert "R1" in result.output


@pytest.mark.parametrize("args", [
    ["check", "--format", "json", fixture("28-scaffold-default.sac.yaml")],
    ["check", "--format", "json", fixture("bad/syntax.sac.yaml")],
    ["check", fixture("22-root-only.sac.yaml")],
    ["trace", "hazards", "--format", "json", fixture("28-scaffold-default.sac.yaml")],
    ["trace", "hazards", fixture("28-scaffold-default.sac.yaml")],
    ["render", fixture("28-scaffold-default.sac.yaml")],
    ["rules"], ["rules", "--format", "text"],
], ids=["check-json", "envelope", "check-text", "trace-json", "trace-csv", "render",
        "rules-json", "rules-text"])
def test_stdout_ends_with_one_newline(runner, args):
    stdout = runner.invoke(main, args).stdout
    assert stdout.endswith("\n") and not stdout.endswith("\n\n")


class TestWriter:
    def test_in_process_invokes_leave_nothing_behind(self, runner, tmp_path):
        # click caches a text wrapper per default stream, and under CliRunner
        # the cached wrapper is the captured stream itself, so it never dies.
        path = str(tmp_path / "model.sac.yaml")

        def cycle():
            for args in (["scaffold", "--force", path], ["check", "--format", "json", path],
                         ["trace", "hazards", path], ["render", path]):
                assert runner.invoke(main, args).exit_code == 0

        cycle()
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(20):
            cycle()
        gc.collect()
        assert len(gc.get_objects()) - before <= 40  # 80 invokes

    @pytest.mark.parametrize("args", [["--help"], ["check", "--help"]])
    def test_in_process_help_leaves_nothing_behind(self, runner, args):
        # click's help echoes to the default stream it caches per sys.stdout,
        # which is the capture of click's own output while it runs.
        runner.invoke(main, args)
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(50):
            assert runner.invoke(main, args).exit_code == 0
        gc.collect()
        assert len(gc.get_objects()) - before <= 25  # 50 invokes

    def test_a_non_utf8_locale_still_gets_utf8_text(self, tmp_path):
        path = tmp_path / "model.sac.yaml"
        path.write_text('model: {id: root-only, version: "1"}\nmodules:\n  - id: main\n'
                        "    elements:\n      - {id: G-Übersicht, kind: goal, text: Sicher}\n",
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(gsnlint.__file__).parents[1]),
                   PYTHONIOENCODING="ascii")
        proc = subprocess.run([sys.executable, "-m", "gsnlint.cli", "check", str(path)],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "G-Übersicht" in proc.stdout.decode("utf-8")


class TestClosedPipe:
    """A reader that stops early changes no exit code and prints nothing."""

    #: Runs the CLI with `load_model` raising KeyboardInterrupt, as Ctrl-C would.
    INTERRUPTED = ("-c", "import gsnlint.cli as cli\n"
                         "def interrupt(paths, lenient): raise KeyboardInterrupt\n"
                         "cli.load_model = interrupt\n"
                         "cli.main()\n")

    @staticmethod
    def run_into_closed_pipe(args, closed="stdout", command=("-m", "gsnlint.cli")
                             ) -> subprocess.CompletedProcess:
        """Run the CLI (`python *command *args`) with `closed` ("stdout",
        "stderr" or "both") writing into a pipe nobody reads; an open stdout
        goes to /dev/null, an open stderr is captured."""
        env = dict(os.environ, PYTHONPATH=str(Path(gsnlint.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, *command, *args],
                stdout=subprocess.DEVNULL if closed == "stderr" else write_end,
                stderr=subprocess.PIPE if closed == "stdout" else write_end,
                env=env, timeout=120)
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("args, code", [
        (["rules"], 0),
        (["check", fixture("28-scaffold-default.sac.yaml")], 0),
        (["check", fixture("22-root-only.sac.yaml")], 1),
    ])
    def test_exit_code_is_the_commands_own(self, args, code):
        proc = self.run_into_closed_pipe(args)
        assert proc.returncode == code
        assert proc.stderr == b""

    @pytest.mark.parametrize("command", [["check"], ["trace", "hazards"]],
                             ids=["check", "trace"])
    def test_json_parse_failure_still_exits_two(self, command):
        # The diagnostics still go to stderr; only the envelope meets the closed pipe.
        path = fixture("bad/syntax.sac.yaml")
        proc = self.run_into_closed_pipe(command + ["--format", "json", path])
        assert proc.returncode == 2
        _, diags = load_model([path])
        assert proc.stderr.decode() == "".join(f"{d}\n" for d in diags)

    def test_command_help_exits_zero(self):
        proc = self.run_into_closed_pipe(["check", "--help"])
        assert proc.returncode == 0
        assert proc.stderr == b""

    @pytest.mark.parametrize("closed", ["stderr", "both"])
    @pytest.mark.parametrize("case, code", [
        ("syntax", 2), ("syntax-json", 2), ("refused-scaffold", 2),
        ("lenient-errors", 1), ("root-only", 1), ("rules", 0), ("help", 0),
    ])
    def test_closed_stderr_keeps_the_exit_code(self, tmp_path, closed, case, code):
        existing = tmp_path / "existing.sac.yaml"
        existing.write_text("existing")
        lenient = tmp_path / "lenient.sac.yaml"
        lenient.write_text('model: {id: root-only, version: "1", extra_key: 1}\n'
                           "modules:\n  - id: main\n    elements:\n"
                           "      - {id: G1, kind: goal, text: The system is safe}\n")
        args = {
            "syntax": ["check", fixture("bad/syntax.sac.yaml")],
            "syntax-json": ["check", "--format", "json", fixture("bad/syntax.sac.yaml")],
            "refused-scaffold": ["scaffold", str(existing)],
            "lenient-errors": ["check", "--lenient", str(lenient)],
            "root-only": ["check", fixture("22-root-only.sac.yaml")],
            "rules": ["rules"],
            "help": ["check", "--help"],
        }[case]
        assert self.run_into_closed_pipe(args, closed).returncode == code
        assert existing.read_text() == "existing"

    @pytest.mark.parametrize("args, closed, code", [
        (["check", "--severity", "R1=bogus", fixture("01-minimal.sac.yaml")], "stderr", 2),
        (["nosuchcmd"], "stderr", 2),
        ([], "stderr", 2),
        (["check", "--profile", "nope", fixture("01-minimal.sac.yaml")], "stderr", 2),
        (["--help"], "stdout", 0),
    ], ids=["bad-severity", "unknown-command", "no-arguments", "bad-profile", "help"])
    def test_clicks_own_output_keeps_the_exit_code(self, args, closed, code):
        assert self.run_into_closed_pipe(args, closed).returncode == code

    def test_interrupt_into_closed_stderr_exits_one(self):
        # click writes the interrupt's leading newline to stderr itself.
        proc = self.run_into_closed_pipe(["check", fixture("01-minimal.sac.yaml")], "stderr",
                                         command=self.INTERRUPTED)
        assert proc.returncode == 1
