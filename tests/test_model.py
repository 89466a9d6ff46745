from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from gsnlint.findings import Finding, Severity
from gsnlint.model import (
    AcpRelation,
    ArgumentType,
    Artifact,
    ArtifactRole,
    AssuranceClaimPoint,
    ElementKind,
    GsnElement,
    GsnModel,
    GsnModule,
    Hazard,
    HazardStatus,
    ModelError,
    NormativeRequirement,
    RacLevel,
    Registries,
    RegulatoryRequirement,
    RiskAcceptanceCriterion,
    RoleTag,
    SourceLocation,
    StructuralProblem,
    UnknownIdError,
    canonical_dict,
    link_model,
)
from gsnlint.parser import load_model
from gsnlint.report import render_dot
from gsnlint.rules import evaluate, make_profile
from gsnlint.scaffold import scaffold_reference_model
from gsnlint.trace import TraceMatrix, TraceRow, trace_registry
from gsnlint.wellformed import check_wellformed
from conftest import good_fixture_groups
from genmodels import random_model


def goal(eid, **kw):
    return GsnElement(eid, ElementKind.GOAL, f"claim {eid}", **kw)


def solution(eid, **kw):
    return GsnElement(eid, ElementKind.SOLUTION, f"evidence {eid}", **kw)


def strategy(eid, **kw):
    return GsnElement(eid, ElementKind.STRATEGY, f"argue {eid}", **kw)


class TestResolve:
    def test_single_goal(self):
        model = link_model("m", modules=[GsnModule("a", [goal("G1")])])
        assert model.resolve("G1").text == "claim G1"

    def test_absent_id(self):
        model = link_model("m", modules=[GsnModule("a", [goal("G1")])])
        with pytest.raises(UnknownIdError):
            model.resolve("GX")

    def test_across_modules_matches_linear_scan(self):
        modules = [
            GsnModule("a", [goal("G1")]),
            GsnModule("b", [goal("G7"), goal("G8")]),
        ]
        model = link_model("m", modules=modules, fragmentary=True)
        # Oracle: plain linear scan over all module element lists.
        expected = next(e for mod in modules for e in mod.elements if e.id == "G7")
        assert model.resolve("G7") is expected

    def test_total_over_all_referenced_ids(self):
        for seed in range(20):
            model = random_model(seed)
            for element in model.iter_elements():
                for ref in (*element.supported_by, *element.in_context_of):
                    assert model.resolve(ref).id == ref

    def test_artifact_index_keeps_the_first_copy(self):
        first = Artifact("A1", ArtifactRole.EVIDENCE)
        model = GsnModel("m", artifacts=[first, Artifact("A1", ArtifactRole.CONTEXT_DOC)])
        assert model.artifact_index == {"A1": first}
        assert model.artifact_index["A1"] is first


class TestArgumentSubset:
    def test_inheritance_base_case(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", argument_type=ArgumentType.RISK, supported_by=("G2",)),
            goal("G2"),
        ])])
        assert model.argument_subset(ArgumentType.RISK) == {"G1", "G2"}

    def test_no_tags_anywhere(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", supported_by=("G2",)), goal("G2"),
        ])])
        for t in ArgumentType:
            assert model.argument_subset(t) == set()

    def test_diamond_join_carries_both_memberships(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", argument_type=ArgumentType.RISK, supported_by=("G2", "G3")),
            goal("G2", supported_by=("G4",)),
            goal("G3", argument_type=ArgumentType.PROCESS, supported_by=("G4",)),
            goal("G4", supported_by=("SN1",)),
            solution("SN1"),
        ])])
        # Oracle: fixpoint propagation on the explicit 5-node graph.
        expected = _fixpoint_subsets(model)
        for t in ArgumentType:
            assert model.argument_subset(t) == expected[t], t.value
        assert model.effective_types["G4"] == {ArgumentType.RISK, ArgumentType.PROCESS}

    def test_contextual_elements_inherit_from_referencer(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", argument_type=ArgumentType.CONTEXTUALIZATION,
                 in_context_of=("C1",)),
            GsnElement("C1", ElementKind.CONTEXT, "ctx"),
        ])])
        assert "C1" in model.argument_subset(ArgumentType.CONTEXTUALIZATION)

    def test_random_models_match_fixpoint_oracle(self):
        for seed in range(25):
            model = random_model(seed)
            expected = _fixpoint_subsets(model)
            for t in ArgumentType:
                assert model.argument_subset(t) == expected[t], (seed, t)

    def test_subsets_are_shared_frozensets(self):
        for seed in range(25):
            model = random_model(seed)
            expected = _fixpoint_subsets(model)
            for t in ArgumentType:
                subset = model.argument_subset(t)
                assert isinstance(subset, frozenset), (seed, t)
                assert model.argument_subset(t) is subset, (seed, t)
                assert subset == expected[t], (seed, t)


def _fixpoint_subsets(model):
    """Independent oracle: iterate membership propagation to a fixpoint."""
    member = {t: set() for t in ArgumentType}
    changed = True
    while changed:
        changed = False
        for element in model.iter_elements():
            for t in ArgumentType:
                if element.id in member[t]:
                    continue
                if element.argument_type is t:
                    member[t].add(element.id)
                    changed = True
                elif element.argument_type is None:
                    parents = model.support_parents[element.id] + \
                        model.context_referencers[element.id]
                    if any(p in member[t] for p in parents):
                        member[t].add(element.id)
                        changed = True
    return member


class TestDescendants:
    def test_leaf_solution_is_empty(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", supported_by=("SN1",)), solution("SN1"),
        ])])
        assert model.descendants("SN1") == set()

    def test_linear_chain(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", supported_by=("S1",)),
            strategy("S1", supported_by=("G2",)),
            goal("G2", supported_by=("SN1",)),
            solution("SN1"),
        ])])
        assert model.descendants("G1") == {"S1", "G2", "SN1"}

    def test_shared_solution_appears_once(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", supported_by=("S1", "S2")),
            strategy("S1", supported_by=("SN1",)),
            strategy("S2", supported_by=("SN1",)),
            solution("SN1"),
        ])])
        result = model.descendants("G1")
        # Oracle: union of per-branch reachability sets.
        assert result == {"S1", "SN1"} | {"S2", "SN1"}

    def test_includes_contextual_sinks_of_reached_elements(self):
        model = link_model("m", modules=[GsnModule("a", [
            goal("G1", supported_by=("G2",)),
            goal("G2", in_context_of=("C1",), supported_by=("SN1",)),
            GsnElement("C1", ElementKind.CONTEXT, "ctx"),
            solution("SN1"),
        ])])
        assert model.descendants("G1") == {"G2", "C1", "SN1"}

    def test_acyclicity_property(self):
        for seed in range(25):
            model = random_model(seed)
            for eid in model.index:
                assert eid not in model.descendants(eid)


class TestLinking:
    def test_cycle_rejected(self):
        with pytest.raises(ModelError) as exc:
            link_model("m", modules=[GsnModule("a", [
                goal("G1", supported_by=("G2",)),
                goal("G2", supported_by=("G1",)),
            ])])
        assert any(p.code == "cycle" for p in exc.value.problems)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ModelError) as exc:
            link_model("m", modules=[GsnModule("a", [goal("G1"), goal("G1")])])
        assert any(p.code == "duplicate-id" for p in exc.value.problems)

    @pytest.mark.parametrize("registries, artifacts, repeated, message", [
        (Registries(hazards=[Hazard("H1"), Hazard("H1", status=HazardStatus.MANAGED)]), [],
         "H1", "duplicate id 'H1' in registry 'hazards'"),
        (Registries(), [Artifact("A1", ArtifactRole.CONTEXT_DOC),
                        Artifact("A1", ArtifactRole.EVIDENCE)],
         "A1", "duplicate id 'A1' in artifacts"),
    ], ids=["hazard", "artifact"])
    def test_repeated_item_or_artifact_id_rejected(self, registries, artifacts, repeated,
                                                   message):
        with pytest.raises(ModelError) as exc:
            link_model("m", modules=[GsnModule("a", [goal("G1")])],
                       registries=registries, artifacts=artifacts)
        assert [(p.code, p.message, p.elements) for p in exc.value.problems] == [
            ("duplicate-id", message, (repeated,))]

    def test_repeated_hazard_is_one_wf2_error(self):
        """Not the two identical R6 Errors that judging both copies gives."""
        reference = scaffold_reference_model()
        registries = replace(reference.registries,
                             hazards=[*reference.registries.hazards, Hazard("HX"), Hazard("HX")])
        model = GsnModel(reference.id, modules=reference.modules, registries=registries,
                         artifacts=reference.artifacts)
        errors = [(f.rule, f.message) for f in evaluate(model, make_profile("all"))
                  if f.severity is Severity.ERROR]
        assert errors == [("WF2", "duplicate id 'HX' in registry 'hazards'")]

    def test_repeated_artifact_is_wf2_not_wf9_on_its_first_copy(self):
        reference = scaffold_reference_model()
        evidence = next(a for a in reference.artifacts if a.role is ArtifactRole.EVIDENCE)
        model = GsnModel(reference.id, modules=reference.modules,
                         registries=reference.registries,
                         artifacts=[replace(evidence, role=ArtifactRole.CONTEXT_DOC),
                                    *reference.artifacts])
        assert [(f.rule, f.message) for f in check_wellformed(model)] == [
            ("WF2", f"duplicate id '{evidence.id}' in artifacts")]

    def test_unresolved_reference_rejected(self):
        with pytest.raises(ModelError) as exc:
            link_model("m", modules=[GsnModule("a", [
                goal("G1", supported_by=("GX",))])])
        assert any(p.code == "unresolved-ref" for p in exc.value.problems)

    def test_repeated_reference_rejected(self):
        with pytest.raises(ModelError) as exc:
            link_model("m", modules=[GsnModule("a", [
                goal("G1", supported_by=("SN1", "SN1")), solution("SN1")])])
        assert [(p.code, p.message, p.elements) for p in exc.value.problems] == [
            ("duplicate-ref", "element 'G1' names 'SN1' more than once in supported_by",
             ("G1", "SN1"))]


class TestTagMonotonicity:
    def test_tagging_only_shrinks_within_overridden_subtree(self):
        # Adding an explicit tag never removes elements from subsets other
        # than via the newly overridden element's own inherited memberships.
        rng = random.Random(99)
        for seed in range(10):
            model = random_model(seed)
            untagged = [e for e in model.iter_elements()
                        if e.argument_type is None and
                        e.kind in (ElementKind.GOAL, ElementKind.STRATEGY)]
            if not untagged:
                continue
            victim = rng.choice(untagged)
            before = {t: model.argument_subset(t) for t in ArgumentType}
            victim.argument_type = ArgumentType.SOUNDNESS
            mutated = link_model("m2", modules=model.modules,
                                 registries=model.registries,
                                 artifacts=model.artifacts, fragmentary=True)
            after = {t: mutated.argument_subset(t) for t in ArgumentType}
            scope = {victim.id} | model.descendants(victim.id)
            for t in ArgumentType:
                lost = before[t] - after[t]
                assert lost <= scope, (seed, t, lost)
            victim.argument_type = None


def _models_with_fixtures():
    """random_model seeds 0-99, then every good fixture."""
    for seed in range(100):
        yield f"seed {seed}", random_model(seed)
    for name, paths in good_fixture_groups():
        model, diags = load_model(paths)
        assert model is not None, (name, diags)
        yield name, model


def _root_goal_oracle(model):
    """Goals that no element lists in supported_by, by a plain scan."""
    children = {c for e in model.iter_elements() for c in e.supported_by}
    return tuple(sorted(e.id for e in model.iter_elements()
                        if e.kind is ElementKind.GOAL and e.id not in children))


class TestRootGoals:
    def test_root_set_exactly_when_one_root_goal(self):
        for name, model in _models_with_fixtures():
            assert model.root_goals == _root_goal_oracle(model), name
            if len(model.root_goals) == 1:
                assert model.root is model.index[model.root_goals[0]], name
            else:
                assert model.root is None, name

    @pytest.mark.parametrize("elements, roots", [
        ([goal("G1", supported_by=("G2",)), goal("G2")], ("G1",)),
        ([goal("G2"), goal("G1")], ("G1", "G2")),
        ([strategy("S1", supported_by=("G1",)), goal("G1")], ()),
    ])
    def test_hand_built_roots(self, elements, roots):
        model = link_model("m", modules=[GsnModule("a", elements)])
        assert model.root_goals == roots
        assert (model.root is not None) == (len(roots) == 1)

    def test_wf7_global_finding_lists_root_goals(self):
        hand_built = [
            ("two roots", link_model("m", modules=[GsnModule("a", [goal("G2"), goal("G1")])])),
            ("no root", link_model("m", modules=[GsnModule("a", [strategy("S1")])])),
        ]
        for name, model in [*_models_with_fixtures(), *hand_built]:
            if model.fragmentary:
                continue
            global_findings = [f.elements for f in check_wellformed(model)
                               if f.rule == "WF7" and "global root goals" in f.message]
            expected = [] if len(model.root_goals) == 1 else [model.root_goals]
            assert global_findings == expected, name


def _canonical(elements=(), artifacts=(), **registries):
    """canonical_dict of a one-module model holding `elements`, the given
    registries and the given artifacts."""
    return canonical_dict(GsnModel(
        "m", modules=[GsnModule("a", list(elements))],
        registries=Registries(**registries), artifacts=list(artifacts)))


def _exact(actual, expected):
    """Equal with the same key order at every level."""
    return json.dumps(actual) == json.dumps(expected)


def _all_keys(data) -> set:
    if isinstance(data, dict):
        return set(data).union(*(_all_keys(v) for v in data.values()))
    if isinstance(data, list):
        return set().union(*(_all_keys(v) for v in data))
    return set()


class TestHandBuiltIllFormed:
    """A model built without link_model, so nothing rejects its dangling
    supported_by references before the views, trace and render see them."""

    def _model(self):
        return GsnModel("ghost", modules=[GsnModule("a", [
            goal("G1", argument_type=ArgumentType.PRODUCT, supported_by=("GHOST", "SN1"),
                 traces={"H1"}),
            goal("G2", argument_type=ArgumentType.PRODUCT, supported_by=("GHOST",),
                 traces={"H1"}),
            solution("SN1"),
        ])], registries=Registries(hazards=[Hazard("H1", status=HazardStatus.MANAGED)]))

    def test_views_trace_and_render_skip_the_missing_id(self):
        model = self._model()
        assert model.has_solution_descendant == {"G1": True, "G2": False, "SN1": False}
        row, = trace_registry(model, "hazards").rows
        assert (row.covering_elements, row.solution_backed) == (("G1", "G2"), True)
        assert '"G1" -> "GHOST";' in render_dot(model)

    def test_evaluate_reports_only_the_dangling_references(self):
        findings = evaluate(self._model(), make_profile("core"))
        assert [(f.rule, f.elements) for f in findings] == [
            ("WF3", ("G1", "GHOST")), ("WF3", ("G2", "GHOST"))]


class TestRecordWriter:
    LOCATION = SourceLocation("m.sac.yaml", 3, 5)

    def test_element_and_acps_every_field_set(self):
        element = GsnElement(
            "G1", ElementKind.GOAL, "claim", undeveloped=True,
            argument_type=ArgumentType.RISK,
            roles={RoleTag.HAZARD_MANAGEMENT, RoleTag.GLOBAL_RAC},
            supported_by=("G3", "G2"), in_context_of=("C1",),
            traces={"H2", "H1"}, artifacts={"A2", "A1"},
            acps=(AssuranceClaimPoint("G3", AcpRelation.SUPPORTED_BY, "CG1"),
                  AssuranceClaimPoint("C1", AcpRelation.IN_CONTEXT_OF, "CG2")),
            location=self.LOCATION)
        out = _canonical([element])["modules"][0]["elements"]
        assert _exact(out, [{
            "id": "G1", "kind": "goal", "text": "claim", "undeveloped": True,
            "argument_type": "risk", "roles": ["global_rac", "hazard_management"],
            "supported_by": ["G3", "G2"], "in_context_of": ["C1"],
            "traces": ["H1", "H2"], "artifacts": ["A1", "A2"],
            "acp": [
                {"target": "G3", "relation": "supported_by", "confidence_goal": "CG1"},
                {"target": "C1", "relation": "in_context_of", "confidence_goal": "CG2"},
            ],
        }]), out

    def test_element_every_field_unset(self):
        out = _canonical([GsnElement("C1", ElementKind.CONTEXT, location=self.LOCATION)])
        assert _exact(out["modules"][0]["elements"],
                      [{"id": "C1", "kind": "context", "text": ""}]), out

    def test_registry_items_and_artifact_every_field_set(self):
        out = _canonical(
            hazards=[Hazard("H1", "fall", HazardStatus.MANAGED, self.LOCATION)],
            regulatory_requirements=[
                RegulatoryRequirement("RR1", "law", "be safe", self.LOCATION)],
            normative_requirements=[
                NormativeRequirement("NR1", "ISO", "do x", "chosen", self.LOCATION)],
            risk_acceptance_criteria=[
                RiskAcceptanceCriterion("RAC1", RacLevel.SCENARIO, "rare", self.LOCATION)],
            context_dimensions=["odd"],
            artifacts=[Artifact("A1", ArtifactRole.CONTEXT_DOC, "ODD", "odd.pdf", "odd",
                                self.LOCATION)])
        assert _exact(out["registries"], {
            "hazards": [{"id": "H1", "description": "fall", "status": "managed"}],
            "regulatory_requirements": [
                {"id": "RR1", "source": "law", "text": "be safe"}],
            "normative_requirements": [
                {"id": "NR1", "source": "ISO", "text": "do x",
                 "selection_rationale": "chosen"}],
            "risk_acceptance_criteria": [
                {"id": "RAC1", "level": "scenario", "text": "rare"}],
            "context_dimensions": ["odd"],
        }), out["registries"]
        assert _exact(out["artifacts"], [
            {"id": "A1", "role": "context_doc", "title": "ODD", "uri": "odd.pdf",
             "dimension": "odd"}]), out["artifacts"]

    def test_registry_items_and_artifact_every_field_unset(self):
        out = _canonical(
            hazards=[Hazard("H1")],
            regulatory_requirements=[RegulatoryRequirement("RR1")],
            normative_requirements=[NormativeRequirement("NR1")],
            risk_acceptance_criteria=[RiskAcceptanceCriterion("RAC1")],
            context_dimensions=[],
            artifacts=[Artifact("A1", ArtifactRole.EVIDENCE)])
        assert _exact(out["registries"], {
            "hazards": [{"id": "H1", "description": "", "status": "open"}],
            "regulatory_requirements": [{"id": "RR1", "source": "", "text": ""}],
            "normative_requirements": [{"id": "NR1", "source": "", "text": ""}],
            "risk_acceptance_criteria": [{"id": "RAC1", "level": "global", "text": ""}],
            "context_dimensions": [],
        }), out["registries"]
        assert _exact(out["artifacts"],
                      [{"id": "A1", "role": "evidence", "title": "", "uri": ""}]), out

    def test_no_location_key_anywhere(self):
        located = GsnElement("G1", ElementKind.GOAL, location=self.LOCATION)
        models = [*_models_with_fixtures(),
                  ("hand-built", GsnModel("m", modules=[GsnModule("a", [located])]))]
        for name, model in models:
            assert "location" not in _all_keys(canonical_dict(model)), name


def test_records_are_slotted():
    """Every record class but `GsnModel`, whose cached views need a `__dict__`."""
    records = [
        SourceLocation("m.sac.yaml", 1), AssuranceClaimPoint("G2", AcpRelation.SUPPORTED_BY, "G3"),
        goal("G1"), Hazard("H1"), RegulatoryRequirement("RR1"), NormativeRequirement("NR1"),
        RiskAcceptanceCriterion("RAC1"), Registries(), Artifact("A1", ArtifactRole.EVIDENCE),
        GsnModule("a"), StructuralProblem("cycle", "c"), Finding("R1", Severity.ERROR, "m"),
        TraceRow("H1", (), False), TraceMatrix("hazards", (), 1.0, True)]
    for record in records:
        assert "__slots__" in vars(type(record)) and not hasattr(record, "__dict__"), record
