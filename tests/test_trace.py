from __future__ import annotations

import csv
import io
import json

import pytest

from gsnlint.model import (
    AcpRelation,
    ArgumentType,
    AssuranceClaimPoint,
    ElementKind,
    GsnElement,
    GsnModule,
    UnknownRegistryError,
    link_model,
)
from gsnlint.parser import load_model
from gsnlint.trace import (
    REGISTRY_SUBSETS,
    acp_report,
    evidence_report,
    matrix_to_csv,
    matrix_to_json,
    trace_registry,
)

from conftest import FIXTURES
from genmodels import random_model
from mutations import MUTATIONS, mutate


@pytest.fixture(scope="module")
def traces_model():
    model, diags = load_model([FIXTURES / "21-traces.sac.yaml"])
    assert model is not None, diags
    return model


class TestTraceMatrix:
    def test_hazard_fixture_coverage(self, traces_model):
        # Oracle (hand-derived from the fixture): three hazards, two traced.
        matrix = trace_registry(traces_model, "hazards")
        by_id = {row.item_id: row for row in matrix.rows}
        assert set(by_id) == {"H1", "H2", "H3"}
        assert by_id["H1"].covered
        assert by_id["H2"].covered
        assert not by_id["H3"].covered
        assert matrix.coverage == pytest.approx(2 / 3)
        assert not matrix.vacuous

    def test_empty_registry_is_vacuously_covered(self, traces_model):
        matrix = trace_registry(traces_model, "regulatory_requirements")
        assert list(matrix.rows) == []
        assert matrix.coverage == 1.0
        assert matrix.vacuous

    def test_unknown_registry_rejected(self, traces_model):
        with pytest.raises(KeyError):
            trace_registry(traces_model, "unicorns")

    @pytest.mark.parametrize("name", ["unicorns", "context_dimensions"])
    def test_unknown_registry_raises_unknown_registry_error(self, traces_model, name):
        with pytest.raises(UnknownRegistryError):
            trace_registry(traces_model, name)

    def test_covering_elements_match_brute_force(self):
        # Oracle: scan every element's traces list directly.
        for seed in range(20):
            model = random_model(seed)
            for registry in REGISTRY_SUBSETS:
                matrix = trace_registry(model, registry)
                subset_type = REGISTRY_SUBSETS[registry]
                subset = model.argument_subset(subset_type)
                for row in matrix.rows:
                    expected = sorted(
                        e.id for e in model.iter_elements()
                        if row.item_id in e.traces and e.id in subset)
                    assert sorted(row.covering_elements) == expected, \
                        (seed, registry, row.item_id)

    def test_coverage_is_covered_fraction(self):
        for seed in range(20):
            model = random_model(seed)
            for registry in REGISTRY_SUBSETS:
                matrix = trace_registry(model, registry)
                if matrix.vacuous:
                    assert matrix.coverage == 1.0
                    continue
                covered = sum(1 for row in matrix.rows if row.covered)
                assert matrix.coverage == pytest.approx(
                    covered / len(matrix.rows))


class TestSerialization:
    def test_csv_shape(self, traces_model):
        matrix = trace_registry(traces_model, "hazards")
        text = matrix_to_csv(matrix)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        assert set(rows[0]) == {"item_id", "covered", "solution_backed",
                                "covering_elements"}

    def test_json_round_trips(self, traces_model):
        matrix = trace_registry(traces_model, "hazards")
        payload = json.loads(matrix_to_json(matrix))
        assert payload["registry"] == "hazards"
        assert payload["coverage"] == pytest.approx(matrix.coverage)
        assert len(payload["rows"]) == len(matrix.rows)


class TestAcpReport:
    def test_scaffold_density(self, reference_model):
        report = acp_report(reference_model)
        # Oracle: count ACP entries in the generated model by hand.
        manual = sum(len(e.acps) for e in reference_model.iter_elements())
        assert report["total_acps"] == manual
        assert report["unlinked_confidence_goals"] == []
        assert 0.0 < report["acp_density"] <= 1.0

    def test_model_without_acps(self, traces_model):
        report = acp_report(traces_model)
        assert report["total_acps"] == 0
        assert report["acp_density"] == 0.0

    @pytest.mark.parametrize("risk_edges, density", [(("SN1",), 1.0),
                                                     (("SN1", "SN2", "SN3"), 1 / 3)])
    def test_an_edge_with_two_acps_counts_once(self, risk_edges, density):
        model = link_model("acps", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "claim", argument_type=ArgumentType.RISK,
                       supported_by=risk_edges,
                       acps=(AssuranceClaimPoint("SN1", AcpRelation.SUPPORTED_BY, "G2"),
                             AssuranceClaimPoint("SN1", AcpRelation.SUPPORTED_BY, "G3"))),
            *(GsnElement(sn, ElementKind.SOLUTION, "ev") for sn in ("SN1", "SN2", "SN3")),
            GsnElement("G2", ElementKind.GOAL, "conf", supported_by=("SN3",)),
            GsnElement("G3", ElementKind.GOAL, "conf", supported_by=("SN3",)),
        ])])
        report = acp_report(model)
        assert report["total_acps"] == 2
        assert report["risk_edges"] == len(risk_edges)
        assert report["acp_density"] == pytest.approx(density)


class TestEvidenceReport:
    def test_scaffold_every_solution_backed(self, reference_model):
        report = evidence_report(reference_model)
        solutions = [e for e in reference_model.iter_elements()
                     if e.kind.value == "solution"]
        assert report["solutions_total"] == len(solutions)
        assert report["solutions_without_artifacts"] == []
        assert report["undeveloped_goals"] == []

    def test_detects_stripped_evidence(self, reference_model):
        mutated = mutate(reference_model,
                         next(m for m in MUTATIONS if m.rule == "EV1"))
        report = evidence_report(mutated)
        assert report["solutions_without_artifacts"] == ["SN-HAZ"]


class TestRuleAgreement:
    def test_r3_errors_equal_matrix_deficiencies(self):
        # R3's per-item error count must agree with a derivation that only
        # uses the trace matrix plus the registry contents.
        from gsnlint.findings import Severity
        from gsnlint.rules import evaluate, make_profile

        for seed in range(20):
            model = random_model(seed)
            findings = evaluate(model, make_profile("core"))
            r3_errors = sum(1 for f in findings
                            if f.rule == "R3" and f.severity is Severity.ERROR)
            matrix = trace_registry(model, "regulatory_requirements")
            deficient = sum(1 for row in matrix.rows
                            if not row.covered or not row.solution_backed)
            assert r3_errors == deficient, seed
