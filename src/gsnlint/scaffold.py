"""Generator for a rule-clean reference argumentation structure.

The generated model carries the full branch layout expected by every rule:
contextualization, soundness, and risk branches under one root claim, the
risk branch split into product and process arguments, conformance and
compliance subordinated to the process argument, acceptance-criteria
strands at both abstraction levels, and an assurance claim point with a
linked confidence goal on every strategy edge inside the risk branch.

All generated claim texts except the configurable top claim are prefixed
with "PLACEHOLDER:" so they cannot be mistaken for validated content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    AcpRelation,
    ArgumentType,
    Artifact,
    ArtifactRole,
    AssuranceClaimPoint,
    DEFAULT_CONTEXT_DIMENSIONS,
    ElementKind,
    GsnElement,
    GsnModel,
    GsnModule,
    Hazard,
    HazardStatus,
    NormativeRequirement,
    RacLevel,
    Registries,
    RegulatoryRequirement,
    RiskAcceptanceCriterion,
    RoleTag,
    link_model,
)

DEFAULT_TOP_CLAIM = ("The system exhibits absence of unreasonable risk "
                     "when operating in its ODD")


@dataclass
class ScaffoldOptions:
    top_claim_text: str = DEFAULT_TOP_CLAIM
    include_samples: bool = True
    context_dimensions: list[str] = field(
        default_factory=lambda: list(DEFAULT_CONTEXT_DIMENSIONS))


class _Builder:
    def __init__(self):
        self.elements: list[GsnElement] = []
        self.artifacts: list[Artifact] = []

    def add(self, element: GsnElement) -> GsnElement:
        self.elements.append(element)
        return element

    def goal(self, eid: str, text: str, **kwargs) -> GsnElement:
        return self.add(GsnElement(eid, ElementKind.GOAL, text, **kwargs))

    def solution(self, eid: str, text: str) -> GsnElement:
        artifact_id = f"A-EV-{eid.removeprefix('SN-')}"
        self.artifacts.append(Artifact(
            artifact_id, ArtifactRole.EVIDENCE,
            title=f"PLACEHOLDER: evidence for {eid}",
            uri=f"evidence/{eid}.pdf"))
        return self.add(GsnElement(eid, ElementKind.SOLUTION, text,
                                   artifacts=frozenset({artifact_id})))

    def backed_goal(self, eid: str, text: str, **kwargs) -> GsnElement:
        """Goal supported by its own placeholder solution."""
        solution = self.solution(f"SN-{eid.removeprefix('G-')}",
                                 f"PLACEHOLDER: evidence record for {eid}")
        kwargs.setdefault("supported_by", (solution.id,))
        return self.goal(eid, text, **kwargs)

    def argument(self, goal_id: str, goal_text: str, strategy_id: str, strategy_text: str,
                 children, acp: str = "", **goal_kwargs) -> None:
        """Goal argued over `children` by one strategy; with `acp`, an
        assurance claim point on the strategy edge links the backed
        confidence goal ``G-CNF-<acp>``, which also supports the goal."""
        self.add(GsnElement(strategy_id, ElementKind.STRATEGY, strategy_text,
                            supported_by=tuple(children)))
        supported_by = (strategy_id,)
        if acp:
            confidence = self.backed_goal(
                f"G-CNF-{acp}", f"PLACEHOLDER: the assertion at {acp} can be trusted",
                argument_type=ArgumentType.CONFIDENCE)
            supported_by += (confidence.id,)
            goal_kwargs["acps"] = (AssuranceClaimPoint(
                strategy_id, AcpRelation.SUPPORTED_BY, confidence.id),)
        self.goal(goal_id, goal_text, supported_by=supported_by, **goal_kwargs)


def scaffold_reference_model(opts: ScaffoldOptions | None = None) -> GsnModel:
    opts = opts or ScaffoldOptions()
    b = _Builder()
    samples = opts.include_samples

    # Contextualization branch: one goal per declared context dimension,
    # each contextualized by a dimension-tagged context document.
    for dim in opts.context_dimensions:
        title = dim.replace("_", " ")
        doc = Artifact(f"A-CTX-{dim}", ArtifactRole.CONTEXT_DOC,
                       title=f"PLACEHOLDER: {title} document",
                       uri=f"context/{dim}.pdf", dimension=dim)
        b.artifacts.append(doc)
        b.add(GsnElement(f"C-{dim}", ElementKind.CONTEXT,
                         f"PLACEHOLDER: {title} documentation",
                         artifacts=frozenset({doc.id})))
        b.backed_goal(f"G-CTX-{dim}",
                      f"PLACEHOLDER: the {title} establishes adequate context",
                      in_context_of=(f"C-{dim}",))
    b.argument("G-CTX", "PLACEHOLDER: the argumentation is sufficiently "
               "contextualized for external stakeholders",
               "S-CTX", "PLACEHOLDER: argue over each declared context dimension",
               [f"G-CTX-{dim}" for dim in opts.context_dimensions],
               argument_type=ArgumentType.CONTEXTUALIZATION)

    # Soundness branch.
    b.backed_goal("G-SND-UNC",
                  "PLACEHOLDER: uncertainty in the argumentation is accounted "
                  "for by the applied methods",
                  roles={RoleTag.UNCERTAINTY_METHOD})
    b.backed_goal("G-SND-ACP",
                  "PLACEHOLDER: assurance claim points are placed and aggregated "
                  "purposefully",
                  roles={RoleTag.ACP_RATIONALE})
    b.argument("G-SND", "PLACEHOLDER: the argumentation is sound",
               "S-SND", "PLACEHOLDER: argue over the methods applied to keep "
               "the argumentation sound", ("G-SND-UNC", "G-SND-ACP"),
               argument_type=ArgumentType.SOUNDNESS)

    # Product branch.
    verbs = (("DEFINE", RoleTag.RAC_DEFINE), ("EVALUATE", RoleTag.RAC_EVALUATE),
             ("MAINTAIN", RoleTag.RAC_MAINTAIN))
    for level, trace_id, level_role in (
            (RacLevel.GLOBAL, "RAC-GLOBAL-1", RoleTag.GLOBAL_RAC),
            (RacLevel.SCENARIO, "RAC-SCENARIO-1", RoleTag.SCENARIO_RAC)):
        tag = level.value.upper()
        traces = frozenset({trace_id}) if samples else frozenset()
        for verb, role in verbs:
            b.backed_goal(
                f"G-RAC-{tag}-{verb}",
                f"PLACEHOLDER: {level.value} risk acceptance criteria are "
                f"{verb.lower()}d appropriately",
                roles={role}, traces=traces)
        b.argument(f"G-RAC-{tag}",
                   f"PLACEHOLDER: {level.value} risk acceptance criteria are fulfilled",
                   f"S-RAC-{tag}",
                   f"PLACEHOLDER: argue that {level.value} criteria are defined, "
                   f"evaluated, and maintained",
                   [f"G-RAC-{tag}-{verb}" for verb, _ in verbs],
                   acp=f"RAC-{tag}", roles={level_role})

    b.backed_goal("G-SCEN-KNOWN",
                  "PLACEHOLDER: residual risk in known scenarios is sufficiently "
                  "reduced", roles={RoleTag.KNOWN_SCENARIOS})
    b.backed_goal("G-SCEN-UNKNOWN",
                  "PLACEHOLDER: residual risk in unknown scenarios does not "
                  "violate acceptance criteria", roles={RoleTag.UNKNOWN_SCENARIOS})
    b.backed_goal("G-HAZ",
                  "PLACEHOLDER: all identified hazards are eliminated or "
                  "sufficiently mitigated",
                  roles={RoleTag.HAZARD_MANAGEMENT},
                  traces=frozenset({"H-SAMPLE-1"}) if samples else frozenset())
    b.argument("G-PROD", "PLACEHOLDER: the vehicle does not pose unreasonable risk "
               "when operating in its operational design domain",
               "S-PROD", "PLACEHOLDER: argue over acceptance criteria and "
               "scenario-based risk reduction",
               ("G-RAC-GLOBAL", "G-RAC-SCENARIO", "G-SCEN-KNOWN",
                "G-SCEN-UNKNOWN", "G-HAZ"),
               acp="PROD", argument_type=ArgumentType.PRODUCT)

    # Process branch, with conformance and compliance subordinated to it.
    b.backed_goal("G-CULTURE",
                  "PLACEHOLDER: a safety culture is established within the "
                  "organization", roles={RoleTag.SAFETY_CULTURE})
    b.backed_goal("G-LC-OP",
                  "PLACEHOLDER: operation processes cover post-deployment "
                  "activities", roles={RoleTag.LIFECYCLE_OPERATION})
    b.backed_goal("G-LC-MAINT",
                  "PLACEHOLDER: maintenance processes keep the system and its "
                  "assumptions valid in the field",
                  roles={RoleTag.LIFECYCLE_MAINTENANCE})
    b.backed_goal("G-CFM",
                  "PLACEHOLDER: the development adheres to the selected "
                  "normative requirements",
                  argument_type=ArgumentType.CONFORMANCE,
                  traces=frozenset({"NR-SAMPLE-1"}) if samples else frozenset())
    b.backed_goal("G-CPL",
                  "PLACEHOLDER: the development adheres to applicable "
                  "regulatory requirements",
                  argument_type=ArgumentType.COMPLIANCE,
                  traces=frozenset({"RR-SAMPLE-1"}) if samples else frozenset())
    b.argument("G-PROC", "PLACEHOLDER: the organization is capable of developing "
               "and operating the system safely",
               "S-PROC", "PLACEHOLDER: argue over organizational culture, "
               "lifecycle processes, and their conformance and compliance",
               ("G-CULTURE", "G-LC-OP", "G-LC-MAINT", "G-CFM", "G-CPL"),
               acp="PROC", argument_type=ArgumentType.PROCESS)

    # Risk branch joining product and process, then the root.
    b.argument("G-RISK", "PLACEHOLDER: residual risk is reduced to a reasonable level",
               "S-RISK", "PLACEHOLDER: argue over the product and the process "
               "behind it", ("G-PROD", "G-PROC"),
               acp="RISK", argument_type=ArgumentType.RISK)
    b.argument("G-TOP", opts.top_claim_text,
               "S-TOP", "PLACEHOLDER: argue over the argumentation context, "
               "its soundness, and residual risk", ("G-CTX", "G-SND", "G-RISK"))

    registries = Registries(context_dimensions=list(opts.context_dimensions))
    if samples:
        registries.hazards.append(Hazard(
            "H-SAMPLE-1", "PLACEHOLDER: sample hazard from the hazard log",
            HazardStatus.MANAGED))
        registries.regulatory_requirements.append(RegulatoryRequirement(
            "RR-SAMPLE-1", "PLACEHOLDER: applicable regulation",
            "PLACEHOLDER: sample regulatory requirement"))
        registries.normative_requirements.append(NormativeRequirement(
            "NR-SAMPLE-1", "PLACEHOLDER: selected standard",
            "PLACEHOLDER: sample normative requirement",
            selection_rationale="PLACEHOLDER: rationale for selecting this "
                                "normative document"))
        registries.risk_acceptance_criteria.append(RiskAcceptanceCriterion(
            "RAC-GLOBAL-1", RacLevel.GLOBAL,
            "PLACEHOLDER: scenario-independent statistical risk threshold"))
        registries.risk_acceptance_criteria.append(RiskAcceptanceCriterion(
            "RAC-SCENARIO-1", RacLevel.SCENARIO,
            "PLACEHOLDER: per-scenario risk threshold"))

    module = GsnModule("main", b.elements)
    return link_model("reference-argumentation", version="1",
                      modules=[module], registries=registries,
                      artifacts=sorted(b.artifacts, key=lambda a: a.id))
