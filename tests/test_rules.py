from __future__ import annotations

from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gsnlint.cli import main
from gsnlint.findings import Severity, sort_findings
from gsnlint.model import (
    REGISTRY_ITEMS,
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
    NormativeRequirement,
    RacLevel,
    Registries,
    RiskAcceptanceCriterion,
    RoleTag,
    link_model,
)
from gsnlint.parser import load_model
from gsnlint.rules import (
    _RULE_FUNCTIONS,
    CATALOG,
    PROFILE_RULES,
    WF_RULES,
    RuleProfile,
    UnknownRuleError,
    evaluate,
    make_profile,
)
from gsnlint.scaffold import scaffold_reference_model
from gsnlint.wellformed import check_wellformed

from conftest import FIXTURES
from genmodels import ill_formed_model, random_model
from mutations import MUTATIONS, mutate


def _errors(findings):
    return sorted({f.rule for f in findings if f.severity is Severity.ERROR})


def _warnings(findings):
    return sorted({f.rule for f in findings if f.severity is Severity.WARNING})


class TestCatalog:
    def test_all_expected_rules_present(self):
        expected = {f"R{i}" for i in range(1, 11)}
        expected |= {"ST1", "D1", "D2", "TL1", "EV1"}
        expected |= {f"WF{i}" for i in range(1, 10)}
        assert set(CATALOG) == expected

    def test_descriptor_fields_populated(self):
        for rule_id, desc in CATALOG.items():
            assert desc.id == rule_id
            assert desc.title and desc.description
            assert desc.default_severity in Severity

    def test_profiles_partition_sensibly(self):
        core = make_profile("core")
        inst = make_profile("instantiation")
        wf = make_profile("gsn-wf")
        everything = make_profile("all")
        assert set(core.enabled_rules) == {f"R{i}" for i in range(1, 11)}
        assert set(inst.enabled_rules) == {"ST1", "D1", "D2", "TL1", "EV1"}
        assert set(wf.enabled_rules) == {f"WF{i}" for i in range(1, 10)}
        assert set(everything.enabled_rules) == set(CATALOG)

    def test_rule_tables_agree(self):
        assert set(_RULE_FUNCTIONS) | set(WF_RULES) == set(CATALOG)
        for name, rule_ids in PROFILE_RULES.items():
            assert set(rule_ids) <= set(CATALOG), name
        profile_option = next(p for p in main.commands["check"].params
                              if p.name == "profile")
        assert list(profile_option.type.choices) == list(PROFILE_RULES)

    def test_unknown_profile_and_rule(self):
        with pytest.raises(UnknownRuleError):
            make_profile("nope")
        with pytest.raises(UnknownRuleError):
            make_profile("core", severity_overrides={"R99": Severity.INFO})


class TestRuleProfile:
    """`RuleProfile` is the one place rule ids are checked, so no profile that
    `evaluate` could be handed names an unknown rule."""

    BAD = [
        (dict(enabled_rules=frozenset({"R1", "Z9", "R99"})), "unknown rule id 'R99'"),
        (dict(enabled_rules=frozenset({"R1"}), severity_overrides={"R99": Severity.INFO}),
         "unknown rule id 'R99' in severity overrides"),
        (dict(enabled_rules=frozenset({"X1"}), severity_overrides={"R99": Severity.INFO}),
         "unknown rule id 'X1'"),
    ]

    @pytest.mark.parametrize("kwargs, message", BAD)
    def test_unknown_ids_are_rejected_when_built(self, kwargs, message):
        with pytest.raises(UnknownRuleError) as raised:
            RuleProfile("custom", **kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize("kwargs, message", BAD)
    def test_no_rule_runs_with_an_unknown_id(self, monkeypatch, kwargs, message):
        def unreachable(model):
            raise AssertionError("evaluation began with an unknown rule id")
        monkeypatch.setattr("gsnlint.rules.check_wellformed", unreachable)
        with pytest.raises(UnknownRuleError) as raised:
            evaluate(scaffold_reference_model(), RuleProfile("custom", **kwargs))
        assert str(raised.value) == message

    def test_none_overrides_read_as_none(self):
        profile = RuleProfile("custom", frozenset({"TL1"}), None)
        assert profile.severity_overrides == {}
        assert evaluate(scaffold_reference_model(), profile) == []

    def test_empty_and_one_rule_profiles_build(self):
        # The profiles perfbench's per-rule timings evaluate.
        assert RuleProfile("none", frozenset()).enabled_rules == frozenset()
        for rule in _RULE_FUNCTIONS:
            assert RuleProfile(rule, frozenset({rule})).enabled_rules == {rule}


class TestEmptyModel:
    def test_single_goal_model_fails_exactly_r1_r5_r9_r10(self):
        model = link_model("empty", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "Top claim", undeveloped=True),
        ])])
        findings = evaluate(model, make_profile("core"))
        assert _errors(findings) == ["R1", "R10", "R5", "R9"]


def _only(rule: str) -> RuleProfile:
    return RuleProfile(rule, frozenset({rule}))


def _goal(eid: str, argument_type=None, **kw) -> GsnElement:
    return GsnElement(eid, ElementKind.GOAL, f"claim {eid}", argument_type=argument_type, **kw)


def _solution(eid: str, **kw) -> GsnElement:
    return GsnElement(eid, ElementKind.SOLUTION, f"evidence {eid}", **kw)


def _pinned(rule: str, elements: list[GsnElement], **kw) -> list[tuple]:
    """(severity, message, elements) of one rule's findings on a model."""
    model = link_model(rule, modules=[GsnModule("m", elements)], **kw)
    return [(f.severity, f.message, f.elements)
            for f in evaluate(model, _only(rule))]


class TestRuleBranches:
    """Findings no fixture or mutation reaches, pinned exactly."""

    def _acp_model(self):
        # An ACP whose confidence goal is a soundness goal: no confidence
        # argument exists, and no soundness element argues ACP placement.
        return link_model("acp", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "Top claim", argument_type=ArgumentType.RISK,
                       supported_by=("SN1", "G2"),
                       acps=(AssuranceClaimPoint("SN1", AcpRelation.SUPPORTED_BY, "G2"),)),
            GsnElement("SN1", ElementKind.SOLUTION, "ev"),
            GsnElement("G2", ElementKind.GOAL, "sound", argument_type=ArgumentType.SOUNDNESS,
                       roles={RoleTag.UNCERTAINTY_METHOD}, supported_by=("SN2",)),
            GsnElement("SN2", ElementKind.SOLUTION, "ev"),
        ])])

    def test_r1_risk_argument_unreachable_from_the_root(self):
        model = link_model("r1", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "Top claim", supported_by=("SN1",)),
            GsnElement("SN1", ElementKind.SOLUTION, "ev"),
            GsnElement("S1", ElementKind.STRATEGY, "risk", argument_type=ArgumentType.RISK,
                       supported_by=("G2",)),
            GsnElement("G2", ElementKind.GOAL, "sub", supported_by=("SN2",)),
            GsnElement("SN2", ElementKind.SOLUTION, "ev"),
        ])])
        assert model.root.id == "G1"
        assert [(f.severity, f.message, f.elements)
                for f in evaluate(model, _only("R1"))] == [
            (Severity.ERROR, "risk argument is not reachable from the root goal 'G1'",
             ("S1",))]

    def test_r1_one_topmost_risk_member_reached_from_the_root_suffices(self):
        # G2 and S1 are the risk argument's topmost members; the root reaches G2 only.
        assert _pinned("R1", [
            _goal("G1", supported_by=("G2",)),
            _goal("G2", ArgumentType.RISK, supported_by=("SN1",)), _solution("SN1"),
            GsnElement("S1", ElementKind.STRATEGY, "risk", argument_type=ArgumentType.RISK,
                       supported_by=("G3",)),
            _goal("G3", supported_by=("SN2",)), _solution("SN2"),
        ]) == []

    def test_r2_acps_with_an_empty_confidence_argument(self):
        findings = evaluate(self._acp_model(), _only("R2"))
        assert [(f.severity, f.message, f.elements) for f in findings] == [
            (Severity.ERROR,
             "assurance claim points are present but the confidence argument is empty", ()),
            (Severity.ERROR, "confidence goal 'G2' of the assurance claim point on 'G1' "
             "is not part of the confidence argument", ("G1", "G2"))]

    def test_r10_acps_without_a_placement_rationale(self):
        findings = evaluate(self._acp_model(), _only("R10"))
        assert [(f.severity, f.message, f.elements) for f in findings] == [
            (Severity.ERROR, "assurance claim points are used but the soundness argument "
             "gives no rationale for their placement", ())]

    def test_r5_lacks_product_and_process(self):
        assert _pinned("R5", [
            _goal("G1", ArgumentType.RISK, supported_by=("SN1",)), _solution("SN1"),
        ]) == [
            (Severity.ERROR, "the risk argument lacks a process argument", ()),
            (Severity.ERROR, "the risk argument lacks a product argument", ())]

    def test_r5_product_and_process_outside_the_risk_argument(self):
        # G6 and G7 hang below the soundness branch, so they and their
        # solutions are product and process members outside the risk scope.
        assert _pinned("R5", [
            _goal("G1", supported_by=("G2", "G5")),
            _goal("G2", ArgumentType.RISK, supported_by=("G3", "G4")),
            _goal("G3", ArgumentType.PRODUCT, supported_by=("SN1",)), _solution("SN1"),
            _goal("G4", ArgumentType.PROCESS, supported_by=("SN2",)), _solution("SN2"),
            _goal("G5", ArgumentType.SOUNDNESS, supported_by=("G6", "G7")),
            _goal("G6", ArgumentType.PRODUCT, supported_by=("SN3",)), _solution("SN3"),
            _goal("G7", ArgumentType.PROCESS, supported_by=("SN4",)), _solution("SN4"),
        ]) == [
            (Severity.ERROR, "product argument is not contained in the risk argument",
             ("G6", "SN3")),
            (Severity.ERROR, "process argument is not contained in the risk argument",
             ("G7", "SN4"))]

    def test_r5_no_containment_finding_without_a_risk_argument(self):
        assert _pinned("R5", [
            _goal("G1", supported_by=("G2", "G3")),
            _goal("G2", ArgumentType.PRODUCT, supported_by=("SN1",)), _solution("SN1"),
            _goal("G3", ArgumentType.PROCESS, supported_by=("SN2",)), _solution("SN2"),
        ]) == []

    def test_r6_hazard_management_without_solutions(self):
        # H-1 is managed and traced by the hazard-management goal G2 of the
        # product argument, but no solution hangs below G2.
        assert _pinned("R6", [
            _goal("G1", ArgumentType.PRODUCT, supported_by=("G2", "SN1")),
            _goal("G2", roles={RoleTag.HAZARD_MANAGEMENT}, traces={"H-1"}, undeveloped=True),
            _solution("SN1"),
        ], registries=Registries(hazards=[Hazard("H-1", status=HazardStatus.MANAGED)]),
        ) == [(Severity.ERROR, "hazard 'H-1': hazard-management elements lack supporting "
                "solutions", ("G2",))]

    def test_r6_one_backed_hazard_management_tracer_suffices(self):
        # Both G2 and G3 manage H-1; only G2 has a solution below it.
        manages = dict(roles={RoleTag.HAZARD_MANAGEMENT}, traces={"H-1"})
        assert _pinned("R6", [
            _goal("G1", ArgumentType.PRODUCT, supported_by=("G2", "G3")),
            _goal("G2", supported_by=("SN1",), **manages), _solution("SN1"),
            _goal("G3", undeveloped=True, **manages),
        ], registries=Registries(hazards=[Hazard("H-1", status=HazardStatus.MANAGED)]),
        ) == []

    def test_r8_no_safety_culture(self):
        assert _pinned("R8", [
            _goal("G1", ArgumentType.PROCESS, supported_by=("SN1",)), _solution("SN1"),
        ]) == [(Severity.ERROR, "the process argument does not address safety culture", ())]

    def test_r8_safety_culture_without_solutions(self):
        culture = {RoleTag.SAFETY_CULTURE}
        assert _pinned("R8", [
            _goal("G1", ArgumentType.PROCESS, supported_by=("G2", "G3", "SN1")),
            _goal("G2", roles=culture, undeveloped=True),
            _goal("G3", roles=culture, undeveloped=True),
            _solution("SN1"),
        ]) == [(Severity.ERROR, "safety-culture elements lack supporting solutions",
                ("G2", "G3"))]

    def test_r8_one_backed_safety_culture_member_suffices(self):
        culture = {RoleTag.SAFETY_CULTURE}
        assert _pinned("R8", [
            _goal("G1", ArgumentType.PROCESS, supported_by=("G2", "G3")),
            _goal("G2", roles=culture, supported_by=("SN1",)), _solution("SN1"),
            _goal("G3", roles=culture, undeveloped=True),
        ]) == []

    def test_r9_no_contextualization_argument(self):
        assert _pinned("R9", [
            _goal("G1", supported_by=("SN1",)), _solution("SN1"),
        ]) == [(Severity.ERROR, "no contextualization argument: no element belongs to "
                "the contextualization argument", ())]

    def test_r9_dimensions_without_a_referenced_context_document(self):
        # 'traffic' has a context document that the argument never
        # references; 'weather' has none and is listed twice.
        assert _pinned("R9", [
            _goal("G1", ArgumentType.CONTEXTUALIZATION, supported_by=("SN1",),
                  in_context_of=("C1",)),
            _solution("SN1", artifacts={"A-EV"}),
            GsnElement("C1", ElementKind.CONTEXT, "odd", artifacts={"A-ODD"}),
        ], registries=Registries(context_dimensions=["odd", "weather", "traffic", "weather"]),
            artifacts=[Artifact("A-EV", ArtifactRole.EVIDENCE),
                       Artifact("A-ODD", ArtifactRole.CONTEXT_DOC, dimension="odd"),
                       Artifact("A-TRF", ArtifactRole.CONTEXT_DOC, dimension="traffic")],
        ) == [
            (Severity.ERROR, f"context dimension '{dimension}' has no context document "
             "referenced from the contextualization argument", ())
            for dimension in ("traffic", "weather", "weather")]

    def test_r9_only_a_context_document_documents_its_dimension(self):
        # The argument references an evidence artifact that names the 'odd' dimension.
        assert _pinned("R9", [
            _goal("G1", ArgumentType.CONTEXTUALIZATION, supported_by=("SN1",)),
            _solution("SN1", artifacts={"A-EV"}),
        ], registries=Registries(context_dimensions=["odd"]),
            artifacts=[Artifact("A-EV", ArtifactRole.EVIDENCE, dimension="odd")],
        ) == [(Severity.ERROR, "context dimension 'odd' has no context document referenced "
               "from the contextualization argument", ())]

    def test_r10_no_soundness_argument(self):
        assert _pinned("R10", [
            _goal("G1", supported_by=("SN1",)), _solution("SN1"),
        ]) == [(Severity.ERROR, "no soundness argument: no element belongs to the "
                "soundness argument", ())]

    def test_r10_no_uncertainty_method(self):
        assert _pinned("R10", [
            _goal("G1", ArgumentType.SOUNDNESS, supported_by=("SN1",)), _solution("SN1"),
        ]) == [(Severity.ERROR, "the soundness argument does not argue over applied "
                "uncertainty methods", ())]

    def test_st1_conformance_and_compliance_outside_the_process_argument(self):
        # G5 sits below the process argument; G3 and G4 do not.
        assert _pinned("ST1", [
            _goal("G1", supported_by=("G2", "G3", "G4")),
            _goal("G2", ArgumentType.PROCESS, supported_by=("G5",)),
            _goal("G5", ArgumentType.CONFORMANCE, supported_by=("SN4",)), _solution("SN4"),
            _goal("G3", ArgumentType.CONFORMANCE, supported_by=("SN2",)), _solution("SN2"),
            _goal("G4", ArgumentType.COMPLIANCE, supported_by=("SN3",)), _solution("SN3"),
        ]) == [
            (Severity.WARNING, "conformance argument is not subordinate to the process "
             "argument", ("G3", "SN2")),
            (Severity.WARNING, "compliance argument is not subordinate to the process "
             "argument", ("G4", "SN3"))]

    def test_d1_missing_level_untraced_criterion_and_partial_roles(self):
        assert _pinned("D1", [
            _goal("G1", ArgumentType.PRODUCT, supported_by=("G2", "G3")),
            _goal("G2", roles={RoleTag.RAC_DEFINE}, traces={"RAC-1"}, supported_by=("SN1",)),
            _goal("G3", roles={RoleTag.GLOBAL_RAC}, traces={"RAC-1"}, supported_by=("SN2",)),
            _solution("SN1"), _solution("SN2"),
        ], registries=Registries(risk_acceptance_criteria=[
            RiskAcceptanceCriterion("RAC-1", RacLevel.GLOBAL),
            RiskAcceptanceCriterion("RAC-2", RacLevel.GLOBAL)]),
        ) == [
            (Severity.ERROR, "no scenario risk acceptance criterion is defined", ()),
            (Severity.ERROR, "risk acceptance criterion 'RAC-2' is not traced from the "
             "product argument", ()),
            (Severity.ERROR, "global risk acceptance criteria lack elements with roles: "
             "rac_evaluate, rac_maintain", ("G2", "G3"))]

    def test_tl1_phrase_matches_in_any_case(self):
        assert _pinned("TL1", [
            GsnElement("G1", ElementKind.GOAL, "The system shows an Absence of Unreasonable "
                       "Risk", supported_by=("SN1",)),
            _solution("SN1"),
        ]) == []

    def _r4(self, *conformance_roles, traced=True):
        """R4 on NR-1 (no rationale) and NR-2 (its own rationale), both
        traced from a solution-backed conformance goal unless `traced` is
        false; G2 carries `conformance_roles`."""
        return _pinned("R4", [
            _goal("G1", ArgumentType.CONFORMANCE, supported_by=("G2",)),
            _goal("G2", roles=set(conformance_roles),
                  traces={"NR-1", "NR-2"} if traced else set(), supported_by=("SN1",)),
            _solution("SN1"),
        ], registries=Registries(normative_requirements=[
            NormativeRequirement("NR-1"),
            NormativeRequirement("NR-2", selection_rationale="chosen for the domain")]))

    def test_r4_item_without_a_rationale(self):
        assert self._r4() == [
            (Severity.ERROR, "normative_requirements item 'NR-1': no selection rationale "
             "recorded for the normative document", ("G2",))]

    def test_r4_selection_rationale_element_gives_every_item_a_rationale(self):
        assert self._r4(RoleTag.SELECTION_RATIONALE) == []

    def test_r4_untraced_item_without_a_rationale(self):
        assert self._r4(traced=False) == [
            (Severity.ERROR, "normative_requirements item 'NR-1': not traced from the "
             "relevant argument; no selection rationale recorded for the normative "
             "document", ()),
            (Severity.ERROR, "normative_requirements item 'NR-2': not traced from the "
             "relevant argument", ())]


class TestScaffold:
    def test_reference_model_is_fully_clean(self):
        model = scaffold_reference_model()
        findings = evaluate(model, make_profile("all"))
        assert findings == []

    def test_without_samples_only_vacuity_warnings(self):
        model, diags = load_model([FIXTURES / "29-scaffold-nosamples.sac.yaml"])
        assert model is not None, diags
        findings = evaluate(model, make_profile("all"))
        assert _errors(findings) == []
        assert _warnings(findings) == ["D1", "R3", "R4", "R6"]


class TestMutations:
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.rule)
    def test_single_edit_triggers_its_rule(self, mutation, reference_model):
        mutated = mutate(reference_model, mutation)
        findings = evaluate(mutated, make_profile("all"))
        hits = [f for f in findings if f.rule == mutation.rule]
        assert hits, mutation.description
        assert any(f.severity is mutation.severity for f in hits)

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.rule)
    def test_no_collateral_errors(self, mutation, reference_model):
        mutated = mutate(reference_model, mutation)
        findings = evaluate(mutated, make_profile("all"))
        extra = [f for f in findings
                 if f.severity is Severity.ERROR and f.rule != mutation.rule]
        assert extra == [], mutation.description


def _sorted_findings(model: GsnModel) -> list[tuple]:
    return sorted((f.rule, f.severity.value, f.message, f.elements)
                  for f in evaluate(model, make_profile("all")))


class TestDeclarationOrder:
    """Findings do not depend on the order in which elements, modules, edges
    and registry items are declared."""

    @settings(max_examples=150, deadline=None)
    @given(source=st.one_of(st.integers(0, 10**6), st.sampled_from(MUTATIONS)),
           n_modules=st.integers(1, 3), rng=st.randoms(use_true_random=False))
    def test_reordered_models_give_the_same_findings(self, reference_model, source,
                                                     n_modules, rng):
        model = (random_model(source) if isinstance(source, int)
                 else mutate(reference_model, source))

        def shuffled(items):
            return rng.sample(items, len(items))

        def rebuilt(modules, registries=model.registries):
            return GsnModel(model.id, model.version, modules, registries,
                            model.artifacts, model.fragmentary)

        # Both model sources declare one module; spread its elements over a few.
        elements = list(model.iter_elements())
        size = -(-len(elements) // n_modules)
        modules = [GsnModule(f"m{i}", elements[i * size:(i + 1) * size])
                   for i in range(n_modules)]
        expected = _sorted_findings(rebuilt(modules))
        variants = {
            "elements shuffled": rebuilt([GsnModule(m.id, shuffled(m.elements))
                                          for m in modules]),
            "modules shuffled": rebuilt(shuffled(modules)),
            "edges reversed": rebuilt([GsnModule(m.id, [
                replace(e, supported_by=e.supported_by[::-1],
                        in_context_of=e.in_context_of[::-1]) for e in m.elements])
                for m in modules]),
            "registry items shuffled": rebuilt(modules, replace(model.registries, **{
                name: shuffled(getattr(model.registries, name)) for name in REGISTRY_ITEMS})),
        }
        for name, variant in variants.items():
            assert _sorted_findings(variant) == expected, name


class TestSeverityOverrides:
    def test_demote_error_to_warning(self):
        model = link_model("empty", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "Top claim", undeveloped=True),
        ])])
        profile = make_profile("core", severity_overrides={"R1": Severity.WARNING})
        findings = evaluate(model, profile)
        assert "R1" not in _errors(findings)
        assert "R1" in _warnings(findings)

    def test_promote_info_to_error(self, reference_model):
        base = mutate(reference_model,
                      next(m for m in MUTATIONS if m.rule == "TL1"))
        profile = make_profile("all", severity_overrides={"TL1": Severity.ERROR})
        findings = evaluate(base, profile)
        assert "TL1" in _errors(findings)

    def test_demoted_wf_error_still_skips_requirements(self):
        # The WF gate reads each rule's own severity, before overrides.
        result = CliRunner().invoke(main, [
            "check", "--severity", "WF5=warning",
            str(FIXTURES / "14-wf5-solution-context.sac.yaml")])
        assert result.exit_code == 0, result.output
        assert result.stdout == ("WARNING WF5 SN1 solution 'SN1' must be a leaf\n"
                                 "0 errors, 1 warnings\n")


class TestIllFormedInput:
    def _broken_model(self):
        return link_model("broken", modules=[GsnModule("m", [
            GsnElement("SN1", ElementKind.SOLUTION, "ev",
                       supported_by=("G1",)),
            GsnElement("G1", ElementKind.GOAL, "claim"),
        ])], fragmentary=True)

    def test_evaluate_reports_wf_instead(self):
        findings = evaluate(self._broken_model(), make_profile("core"))
        assert _errors(findings) == ["WF4"] or "WF5" in _errors(findings)
        assert not any(f.rule.startswith("R") for f in findings)

    @pytest.mark.parametrize("profile_name", PROFILE_RULES)
    def test_a_wf_error_is_the_one_gate(self, monkeypatch, reference_model, profile_name):
        """On every model with a WF Error, `evaluate` returns each WF Error,
        the enabled WF Warnings and Infos, and runs no requirement rule.
        The scaffold mutations plant a requirement finding; a dangling
        reference from the root goal then makes each one ill-formed."""
        def unreachable(model):
            raise AssertionError("a requirement rule ran on an ill-formed model")
        for rule in _RULE_FUNCTIONS:
            monkeypatch.setitem(_RULE_FUNCTIONS, rule, unreachable)
        models = [ill_formed_model(seed) for seed in range(100)]
        for mutation in MUTATIONS:
            model = mutate(reference_model, mutation)
            root = next(e for e in model.iter_elements() if e.id == "G-TOP")
            root.supported_by += ("X1",)
            models.append(model)
        profile = make_profile(profile_name)
        checked = 0
        for model in models:
            wf = check_wellformed(model)
            if not any(f.severity is Severity.ERROR for f in wf):
                continue
            checked += 1
            expected = [f for f in wf
                        if f.severity is Severity.ERROR or f.rule in profile.enabled_rules]
            assert evaluate(model, profile) == sort_findings(expected), model.id
        assert checked == 99 + len(MUTATIONS)


class TestFindingShape:
    def test_findings_sorted_and_located(self, reference_model):
        mutated = mutate(reference_model,
                         next(m for m in MUTATIONS if m.rule == "R3"))
        findings = evaluate(mutated, make_profile("all"))
        assert findings == sorted(
            findings, key=lambda f: (f.rule, f.elements, f.message))
        for f in findings:
            assert f.message
            assert isinstance(f.elements, tuple)
