from __future__ import annotations

import itertools

import pytest

from gsnlint.findings import Severity
from gsnlint.model import (
    CONTEXTUAL_KINDS,
    ElementKind,
    GsnElement,
    GsnModule,
    GsnModel,
    SourceLocation,
)
from gsnlint.parser import load_model, parse_model
from gsnlint.wellformed import LEGAL_SUPPORT_TARGETS, check_wellformed

from conftest import FIXTURES
from genmodels import random_model


def _findings_for(name):
    model, diags = load_model([FIXTURES / name])
    assert model is not None, diags
    return check_wellformed(model)


def _rules(findings, severity=None):
    return {f.rule for f in findings
            if severity is None or f.severity is severity}


class TestCleanModels:
    @pytest.mark.parametrize("name", [
        "01-minimal.sac.yaml", "03-chain.sac.yaml", "04-contextual.sac.yaml",
        "05-diamond-types.sac.yaml", "06-multi-module.sac.yaml",
        "27-deep-nesting.sac.yaml", "28-scaffold-default.sac.yaml",
    ])
    def test_no_findings(self, name):
        assert _findings_for(name) == []

    def test_random_generated_models_are_clean(self):
        for seed in range(40):
            findings = check_wellformed(random_model(seed))
            assert findings == [], (seed, findings)


class TestIndividualRules:
    @pytest.mark.parametrize("name,rule", [
        ("11-wf4-goal-context.sac.yaml", "WF4"),
        ("12-wf4-strategy-strategy.sac.yaml", "WF4"),
        ("13-wf4-solution-parent.sac.yaml", "WF4"),
        ("14-wf5-solution-context.sac.yaml", "WF5"),
        ("15-wf6-goal-target.sac.yaml", "WF6"),
        ("16-wf6-context-supported.sac.yaml", "WF6"),
        ("18-wf8-undeveloped-child.sac.yaml", "WF8"),
        ("20-wf9-unknown-artifact.sac.yaml", "WF9"),
    ])
    def test_expected_error(self, name, rule):
        findings = _findings_for(name)
        assert rule in _rules(findings, Severity.ERROR), findings

    def test_multi_root_is_a_warning(self):
        findings = _findings_for("17-wf7-multi-root.sac.yaml")
        assert "WF7" in _rules(findings, Severity.WARNING)
        assert _rules(findings, Severity.ERROR) == set()

    def test_misplaced_evidence_artifact_is_a_warning(self):
        findings = _findings_for("19-wf9-evidence-on-goal.sac.yaml")
        assert "WF9" in _rules(findings, Severity.WARNING)

    def test_fragmentary_model_skips_global_root_check(self):
        findings = _findings_for("23-fragmentary.sac.yaml")
        assert "WF7" not in _rules(findings)

    def test_findings_name_offending_elements(self):
        findings = _findings_for("14-wf5-solution-context.sac.yaml")
        wf5 = [f for f in findings if f.rule == "WF5"]
        assert wf5 and all(f.elements for f in wf5)


def _pair_model(parent_kind, child_kind):
    """Two-element model exercising a single supported_by edge."""
    parent = GsnElement("E1", parent_kind, "parent", supported_by=("E2",))
    child = GsnElement("E2", child_kind, "child")
    module = GsnModule("m", [parent, child])
    return GsnModel("pair", "1", (module,), fragmentary=True)


class TestSupportPairEnumeration:
    def test_exhaustive_kind_pairs(self):
        # Oracle: the legality table itself, spelled out pair by pair.
        legal = {
            (ElementKind.GOAL, ElementKind.GOAL),
            (ElementKind.GOAL, ElementKind.STRATEGY),
            (ElementKind.GOAL, ElementKind.SOLUTION),
            (ElementKind.STRATEGY, ElementKind.GOAL),
            (ElementKind.STRATEGY, ElementKind.SOLUTION),
        }
        for parent, child in itertools.product(ElementKind, ElementKind):
            findings = check_wellformed(_pair_model(parent, child))
            wf4 = [f for f in findings if f.rule == "WF4"
                   and f.severity is Severity.ERROR]
            if (parent, child) in legal:
                assert not wf4, (parent, child)
            else:
                assert wf4, (parent, child)
            if child in CONTEXTUAL_KINDS:
                # A contextual element on a support edge also breaks WF6.
                assert "WF6" in _rules(findings, Severity.ERROR)

    def test_table_matches_legal_constant(self):
        flattened = {(p, c) for p, cs in LEGAL_SUPPORT_TARGETS.items()
                     for c in cs}
        assert flattened == {
            (ElementKind.GOAL, ElementKind.GOAL),
            (ElementKind.GOAL, ElementKind.STRATEGY),
            (ElementKind.GOAL, ElementKind.SOLUTION),
            (ElementKind.STRATEGY, ElementKind.GOAL),
            (ElementKind.STRATEGY, ElementKind.SOLUTION),
        }


class TestGuardFindings:
    """WF1-WF3 on hand-built models keep the location of their guard
    problem, as WF4-WF9 carry their element's."""

    @staticmethod
    def _at(line):
        return SourceLocation("m.sac.yaml", line, 9)

    def _wf(self, *relations):
        """WF1-WF3 findings on goals G0, G1, ... declared on lines 1, 2, ...,
        goal i supported by relations[i]."""
        model = GsnModel("guards", modules=[GsnModule("m", [
            GsnElement(f"G{i}", ElementKind.GOAL, "claim", supported_by=targets,
                       location=self._at(i + 1))
            for i, targets in enumerate(relations)])])
        return [(f.rule, f.message, f.elements, f.location)
                for f in check_wellformed(model) if f.rule in ("WF1", "WF2", "WF3")]

    def test_wf1_points_at_the_cycles_first_element(self):
        assert self._wf(("G1",), ("G2",), ("G1",)) == [
            ("WF1", "supported_by cycle: G1 -> G2 -> G1", ("G1", "G2"), self._at(2))]

    def test_wf2_points_at_the_repeated_copy(self):
        model = GsnModel("guards", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "claim", location=self._at(1)),
            GsnElement("G1", ElementKind.GOAL, "claim", location=self._at(2))])])
        assert [(f.rule, f.message, f.elements, f.location)
                for f in check_wellformed(model)] == [
            ("WF2", "duplicate element id 'G1'", ("G1",), self._at(2))]

    def test_wf3_points_at_the_owning_element(self):
        assert self._wf(("G1", "G1", "GX"), ()) == [
            ("WF3", "element 'G0' names 'G1' more than once in supported_by", ("G0", "G1"),
             self._at(1)),
            ("WF3", "element 'G0' references unknown element 'GX'", ("G0", "GX"),
             self._at(1))]


class TestContextualFindings:
    """The WF6 finding for a contextual element that references further
    context, and the WF9 finding for a context document on a non-contextual
    element, pinned in full on parsed models."""

    @staticmethod
    def _findings(rule, *lines):
        text = "\n".join(["model: {id: m}", "modules:", "  - id: main", "    elements:",
                          *lines]) + "\n"
        model, diags = parse_model([("m.sac.yaml", text)])
        assert model is not None, diags
        return [(f.rule, f.severity, f.message, f.elements, f.location)
                for f in check_wellformed(model) if f.rule == rule]

    def test_wf6_contextual_element_is_a_sink(self):
        assert self._findings(
            "WF6",
            "      - {id: G1, kind: goal, text: claim, in_context_of: [C1], supported_by: [SN1]}",
            "      - {id: C1, kind: context, text: scope, in_context_of: [A1]}",
            "      - {id: A1, kind: assumption, text: premise}",
            "      - {id: SN1, kind: solution, text: evidence}",
        ) == [("WF6", Severity.ERROR, "context 'C1' is a sink and may not reference further "
               "context", ("C1",), SourceLocation("m.sac.yaml", 6, 9))]

    def test_wf9_context_document_on_a_goal(self):
        assert self._findings(
            "WF9",
            "      - {id: G1, kind: goal, text: claim, supported_by: [SN1], artifacts: [D1]}",
            "      - {id: SN1, kind: solution, text: evidence}",
            "artifacts:",
            "  - {id: D1, role: context_doc}",
        ) == [("WF9", Severity.WARNING, "context document 'D1' referenced by goal 'G1'",
               ("G1",), SourceLocation("m.sac.yaml", 5, 9))]
