"""Self-tests for the benchmark's generators, emitter, gate and tracing.

Run with: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import generate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gsnlint.model import models_equal  # noqa: E402
from gsnlint.parser import parse_model  # noqa: E402
from gsnlint.scaffold import ScaffoldOptions, scaffold_reference_model  # noqa: E402

SMALL = 0.05
DEFAULT_RECURSION_LIMIT = 1000


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["wide", "deep", "scaffold"])
def test_seed_reproduces_identical_inputs(tmp_path, workload):
    generate.write_inputs(workload, 3, tmp_path / "a", SMALL)
    generate.write_inputs(workload, 3, tmp_path / "b", SMALL)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if workload != "deep":  # the deep ladder does not depend on the seed
        generate.write_inputs(workload, 4, tmp_path / "c", SMALL)
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("model", [
    workloads.wide(5, SMALL)[0].model,
    workloads.deep_rung(125, 400).model,
    scaffold_reference_model(),
    scaffold_reference_model(ScaffoldOptions(include_samples=False, context_dimensions=["odd"])),
], ids=["wide", "deep", "scaffold", "scaffold-nosamples"])
def test_emitter_round_trips(model):
    parsed, diags = parse_model([("emitted.sac.yaml", workloads.emit_yaml(model))])
    assert parsed is not None, diags
    assert models_equal(parsed, model)


def test_deep_ladder_spans_recursion_limit():
    ladder = workloads.DEEP_LADDER
    assert list(ladder) == [ladder[0] * 2 ** i for i in range(len(ladder))]
    assert ladder[0] <= DEFAULT_RECURSION_LIMIT // 4
    assert ladder[-1] >= DEFAULT_RECURSION_LIMIT * 2
    # Fewer than half the rungs fail at the recursion limit, so the median
    # op stays finite even while the crash is unfixed.
    assert 2 * sum(d >= DEFAULT_RECURSION_LIMIT for d in ladder) < len(ladder)


@pytest.mark.parametrize("workload", ["wide", "deep", "scaffold"])
def test_smoke_op_passes_gate(tmp_path, workload):
    generate.write_inputs(workload, 2, tmp_path, SMALL)
    manifest = generate.load_manifest(tmp_path)
    if workload == "deep":
        manifest = [e for e in manifest if e["name"] == "deep-125"]
    runner = run.Runner(workload)
    seconds, elements, results = runner.op(manifest[0])
    assert runner.verify(manifest[0], results) == ("ok", "")
    assert seconds > 0 and elements > 0


def _drop_first_error(expected):
    expected["errors"] = expected["errors"][1:]


def _plant_extra_matrix(expected):
    expected["coverage"]["extra_registry"] = {"uncovered": [], "unbacked": []}


@pytest.mark.parametrize("mutate, reason", [
    (_drop_first_error, "errors differ"),
    (_plant_extra_matrix, "matrices for"),
], ids=["errors", "matrices"])
def test_gate_rejects_a_wrong_answer(tmp_path, mutate, reason):
    generate.write_inputs("wide", 2, tmp_path, SMALL)
    entry = generate.load_manifest(tmp_path)[0]
    runner = run.Runner("wide")
    _, _, results = runner.op(entry)
    mutate(entry["expected"])
    status, why = runner.verify(entry, results)
    assert status == "wrong" and reason in why


def test_failed_ops_rank_as_infinite():
    ok = [run.Record("x", 1.0 + i / 100, 10, "ok", "", 0) for i in range(12)]
    crashed = [run.Record("y", 0.01, 10, "crash", "RecursionError", 0)] * 4
    metrics, info = run.end_to_end(ok + crashed, phase_s=99.0)
    assert metrics["op_p50_s"] == 1.07  # rank 8 of 16, the crashes sort last
    assert metrics["op_tail_s"] == 1.05  # rank 6: ten samples beyond it
    assert info["tail_percentile"] == 100 * 6 / 16
    assert metrics["ok_share"] == 0.75 and info["failed"] == 4
    all_crashed, _ = run.end_to_end(crashed, phase_s=99.0)
    assert all_crashed["op_p50_s"] == all_crashed["op_tail_s"] == 99.0


def test_tail_is_median_of_windows():
    steady = [run.Record("x", 1.0 + (i % 20) / 100, 10, "ok", "", 0) for i in range(84)]
    burst = [r._replace(seconds=r.seconds * 3) if i < 21 else r for i, r in enumerate(steady)]
    metrics, info = run.end_to_end(burst, phase_s=999.0)
    assert info["tail_windows"] == 4 and info["tail_percentile"] == 100 * 11 / 21
    assert metrics["op_tail_s"] == run.end_to_end(steady, phase_s=999.0)[0]["op_tail_s"]


def test_throughput_is_median_of_cycles():
    cycle = [run.Record("a", 1.0, 1000, "ok", "", 0),
             run.Record("b", 1.0, 1000, "crash", "RecursionError", 0)]
    steady = cycle * 5
    burst = [r._replace(seconds=4.0) if i < 2 else r for i, r in enumerate(steady)]
    for records in (steady, burst):
        metrics, info = run.end_to_end(records, phase_s=99.0, cycle_ops=2)
        assert metrics["kelem_per_s"] == 0.5  # one kelem of two ops' 2 s
        assert info["kelem_cycles"] == 5


def test_layer_self_times_account_for_the_op(tmp_path):
    generate.write_inputs("scaffold", 2, tmp_path, SMALL)
    manifest = generate.load_manifest(tmp_path)[:4]
    layers, records, spans = run.traced_layers(run.Runner("scaffold"), manifest, 1)
    assert all(r.status == "ok" for r in records)
    assert layers["parser.compose_s"] > 0 and layers["rules.evaluate_s"] > 0
    covered = sum(layers[name] for name in run.LAYERS) + layers["bench.residual_s"]
    assert covered == pytest.approx(layers["bench.op_traced_s"], rel=0.05)
    assert {s["name"] for s in spans} >= {"op", "parser.serialize_s", "report.render_dot_s"}
