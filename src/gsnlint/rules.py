"""Requirement rules for safety assurance argumentations.

The "core" profile holds the ten structural requirements on the argument
(R1-R10); "instantiation" holds checks on the reference structure (ST1,
D1, D2, TL1, EV1); "gsn-wf" holds notation legality (see wellformed.py).
Every rule is a pure function of the linked model and its registries and
judges declared structure and annotations only, never prose meaning.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

from .findings import Finding, Severity, sort_findings
from .model import (
    ArgumentType,
    ArtifactRole,
    ElementKind,
    GsnModel,
    RacLevel,
    RoleTag,
    HazardStatus,
)
from .trace import trace_registry
from .wellformed import check_wellformed

TOP_CLAIM_PHRASE = "absence of unreasonable risk"


@dataclass(frozen=True)
class RuleDescriptor:
    id: str
    title: str
    default_severity: Severity
    anchor: str
    description: str


CATALOG: dict[str, RuleDescriptor] = {d.id: d for d in [
    RuleDescriptor(
        "R1", "Risk argument present and rooted", Severity.ERROR,
        '§III.A, "risk argument that argues over risk reduction"',
        "A non-empty risk argument exists and its topmost element is reachable "
        "from the global root goal."),
    RuleDescriptor(
        "R2", "Confidence argument linked via assurance claim points", Severity.ERROR,
        '§III.A R2, "why elements or their assertion in the risk argument should be trusted"',
        "Every assurance claim point links a goal of the confidence argument; "
        "a risk argument without any assurance claim point is flagged."),
    RuleDescriptor(
        "R3", "Regulatory requirements covered by the compliance argument", Severity.ERROR,
        '§III.A R3, "adherence to regulatory requirements"',
        "Each regulatory requirement is traced by a compliance-argument element "
        "that is backed by at least one solution."),
    RuleDescriptor(
        "R4", "Normative requirements covered by the conformance argument", Severity.ERROR,
        '§III.A R4, "adherence to normative requirements"; '
        '§IV.C.1, "rationale for selecting normative documents"',
        "Each normative requirement is traced by a solution-backed conformance-"
        "argument element and carries a selection rationale."),
    RuleDescriptor(
        "R5", "Risk argument splits into product and process arguments", Severity.ERROR,
        '§III.A R5, "risk argument comprising a product argument and a process argument"',
        "Product and process arguments are non-empty and wholly contained in "
        "the risk argument."),
    RuleDescriptor(
        "R6", "Hazards managed by solution-backed measures", Severity.ERROR,
        '§III.A R6, "hazards are managed by adequate measures"',
        "Every hazard is managed and traced by a solution-backed hazard-"
        "management element of the product argument."),
    RuleDescriptor(
        "R7", "Process argument covers the system lifecycle", Severity.ERROR,
        '§III.A R7, "system lifecycle considerations, including operational aspects"; '
        '§IV.C, "post-deployment activities"',
        "The process argument addresses both operation and maintenance."),
    RuleDescriptor(
        "R8", "Process argument establishes a safety culture", Severity.ERROR,
        '§III.A R8, "establishment of a safety culture"',
        "The process argument contains a solution-backed safety-culture element."),
    RuleDescriptor(
        "R9", "Contextualization argument covers all context dimensions", Severity.ERROR,
        '§III.B R9, "contextualization argument addressing relevant context dimensions"',
        "For every declared context dimension a context document is referenced "
        "from the contextualization argument."),
    RuleDescriptor(
        "R10", "Soundness argument over applied methods", Severity.ERROR,
        '§III.B R10, "soundness argument that argues over applied methods"',
        "The soundness argument exists, names an uncertainty method, and, when "
        "assurance claim points are used, argues over their placement."),
    RuleDescriptor(
        "ST1", "Conformance/compliance subordinate to the process argument", Severity.WARNING,
        '§IV.C footnote, "Subordinating the conformity and compliance argument '
        'to the process argument"',
        "Conformance and compliance arguments hang below the process argument."),
    RuleDescriptor(
        "D1", "Risk acceptance criteria defined, evaluated, maintained", Severity.ERROR,
        '§IV.D, "defined in accordance with stakeholder expectations, evaluated '
        'to be met, and be maintained"',
        "Global and scenario-based acceptance criteria exist and each level is "
        "traced by elements defining, evaluating, and maintaining it."),
    RuleDescriptor(
        "D2", "Known and unknown scenarios addressed", Severity.ERROR,
        '§IV.D, "residual risk in known and unknown scenarios"',
        "The product argument argues over both known and unknown scenarios."),
    RuleDescriptor(
        "TL1", "Top-level claim phrasing", Severity.INFO,
        '§IV.A, "absence of unreasonable risk as a favorable top-level claim"',
        f"Advisory: the root claim should contain the phrase '{TOP_CLAIM_PHRASE}'."),
    RuleDescriptor(
        "EV1", "Solutions reference evidence artifacts", Severity.ERROR,
        '§II.A, "documentation associated with evidence and context elements"',
        "Every solution references at least one evidence artifact."),
    RuleDescriptor(
        "WF1", "Acyclic support relation", Severity.ERROR,
        "GSN community standard", "The supported_by relation contains no cycle."),
    RuleDescriptor(
        "WF2", "Unique element identifiers", Severity.ERROR,
        "GSN community standard", "Element, artifact and registry-item ids are unique."),
    RuleDescriptor(
        "WF3", "References resolve", Severity.ERROR,
        "GSN community standard",
        "All relation and assurance-claim-point references resolve, and no "
        "relation names one target twice."),
    RuleDescriptor(
        "WF4", "Legal support targets", Severity.ERROR,
        "GSN community standard",
        "Goals are supported by goals, strategies, or solutions; strategies by "
        "goals or solutions; no other kind supports anything."),
    RuleDescriptor(
        "WF5", "Solutions are leaves", Severity.ERROR,
        "GSN community standard", "A solution has no outgoing relations."),
    RuleDescriptor(
        "WF6", "Contextual elements attach via in_context_of", Severity.ERROR,
        "GSN community standard",
        "Contexts, assumptions, and justifications are reached only through "
        "in_context_of relations and are sinks."),
    RuleDescriptor(
        "WF7", "Single root", Severity.WARNING,
        "GSN community standard",
        "Each module, and the model as a whole unless fragmentary, has one root."),
    RuleDescriptor(
        "WF8", "Undeveloped elements are unsupported", Severity.ERROR,
        "GSN community standard",
        "An element marked undeveloped has no supporting children."),
    RuleDescriptor(
        "WF9", "Artifact roles match element kinds", Severity.WARNING,
        "GSN community standard",
        "Evidence artifacts are referenced by solutions, context documents by "
        "contextual elements."),
]}

CORE_RULES = tuple(f"R{i}" for i in range(1, 11))
INSTANTIATION_RULES = ("ST1", "D1", "D2", "TL1", "EV1")
WF_RULES = tuple(f"WF{i}" for i in range(1, 10))


class UnknownRuleError(ValueError):
    pass


@dataclass
class RuleProfile:
    """The rules to run and their severity overrides; every id must be in
    `CATALOG` (`UnknownRuleError` names the first unknown one, sorted)."""

    name: str
    enabled_rules: frozenset[str]
    severity_overrides: dict[str, Severity] = field(default_factory=dict)

    def __post_init__(self):
        if self.severity_overrides is None:
            self.severity_overrides = {}
        for ids, where in ((self.enabled_rules, ""),
                           (self.severity_overrides, " in severity overrides")):
            unknown = sorted(set(ids) - CATALOG.keys())
            if unknown:
                raise UnknownRuleError(f"unknown rule id '{unknown[0]}'{where}")


#: Profile name -> rule ids, in the order the CLI offers the profiles.
PROFILE_RULES = {
    "core": CORE_RULES,
    "instantiation": INSTANTIATION_RULES,
    "gsn-wf": WF_RULES,
    "all": CORE_RULES + INSTANTIATION_RULES + WF_RULES,
}


class PreconditionError(Exception):
    """Requirement checking refused because the model is not well-formed."""

    def __init__(self, wf_findings: list[Finding]):
        self.wf_findings = wf_findings
        errors = [f for f in wf_findings if f.severity is Severity.ERROR]
        super().__init__(
            f"model has {len(errors)} well-formedness error(s); fix those first")


def make_profile(name: str, severity_overrides: Optional[dict[str, Severity]] = None
                 ) -> RuleProfile:
    if name not in PROFILE_RULES:
        raise UnknownRuleError(f"unknown profile '{name}'")
    return RuleProfile(name, frozenset(PROFILE_RULES[name]), dict(severity_overrides or {}))


def catalog_as_json() -> str:
    """Rule catalog export for documentation tooling."""
    return json.dumps({"rules": [asdict(d) for d in CATALOG.values()]}, indent=2)


# -- rules ---------------------------------------------------------


def _role_members(model: GsnModel, subset: frozenset[str], role: RoleTag) -> list[str]:
    """Sorted ids of the elements of `subset` that carry `role`."""
    return [eid for eid in model.role_members[role] if eid in subset]


def _missing_roles(model: GsnModel, rule: str, argument_type: ArgumentType,
                   checks: tuple[tuple[RoleTag, str], ...]) -> list[Finding]:
    """One Error per (role, message) whose role no member of a non-empty
    argument carries; an empty argument is R5's or R10's finding, not this one's."""
    subset = model.argument_subset(argument_type)
    if not subset:
        return []
    return [Finding(rule, Severity.ERROR, message) for role, message in checks
            if not _role_members(model, subset, role)]


def _outside_scope(model: GsnModel, rule: str, severity: Severity, outer: ArgumentType,
                   inner: tuple[ArgumentType, ...], message: str) -> list[Finding]:
    """One finding per inner argument with members outside `outer`'s scope,
    listing those members sorted; `message` follows "<inner> argument".

    The scope is `outer`'s members, everything they support and the contexts
    of all of those: on a well-formed model, where `topo_order` puts parents
    first, `reachable_from(argument_subset(outer))` in one pass."""
    members, parents, index = model.argument_subset(outer), model.support_parents, model.index
    scope: set[str] = set()
    for eid in model.topo_order:
        if eid in members or not scope.isdisjoint(parents[eid]):
            scope.add(eid)
    scope.update([c for eid in scope for c in index[eid].in_context_of])
    findings = []
    for argument_type in inner:
        stray = sorted(model.argument_subset(argument_type) - scope)
        if stray:
            findings.append(Finding(rule, severity, f"{argument_type.value} argument {message}",
                                    tuple(stray)))
    return findings


def _vacuous(rule: str, registry_name: str) -> Finding:
    return Finding(rule, Severity.WARNING,
                   f"registry '{registry_name}' is empty; rule {rule} passes vacuously")


def _rule_r1(model: GsnModel) -> list[Finding]:
    risk = model.argument_subset(ArgumentType.RISK)
    if not risk:
        return [Finding("R1", Severity.ERROR, "no risk argument: no element belongs "
                        "to the risk argument")]
    findings = []
    root = model.root
    # A root in the risk argument is its topmost member (it has no parents)
    # and every walk reaches its start, so only another root needs the walk.
    if root is not None and root.id not in risk:
        topmost = sorted(
            m for m in risk
            if not any(p in risk for p in model.support_parents[m]))
        reachable = model.reachable_from((root.id,))
        if not any(t in reachable for t in topmost):
            findings.append(Finding(
                "R1", Severity.ERROR,
                f"risk argument is not reachable from the root goal '{root.id}'",
                tuple(topmost)))
    return findings


def _rule_r2(model: GsnModel) -> list[Finding]:
    findings = []
    risk = model.argument_subset(ArgumentType.RISK)
    all_acps = [(e.id, acp) for e in model.iter_elements() for acp in e.acps]
    if all_acps:
        confidence = model.argument_subset(ArgumentType.CONFIDENCE)
        if not confidence:
            findings.append(Finding(
                "R2", Severity.ERROR,
                "assurance claim points are present but the confidence argument is empty"))
        for owner, acp in all_acps:
            if acp.confidence_goal not in confidence:
                findings.append(Finding(
                    "R2", Severity.ERROR,
                    f"confidence goal '{acp.confidence_goal}' of the assurance claim "
                    f"point on '{owner}' is not part of the confidence argument",
                    (owner, acp.confidence_goal)))
    if not any(owner in risk for owner, _ in all_acps):
        findings.append(Finding(
            "R2", Severity.WARNING,
            "the risk argument carries no assurance claim points"))
    return findings


def _coverage_rule(model: GsnModel, rule: str, registry_name: str,
                   rationale_given: bool = True) -> list[Finding]:
    """One Error per registry item whose trace matrix row is uncovered, not
    solution-backed, or lacks a rationale when rationale_given is false;
    empty registries pass vacuously with a warning."""
    matrix = trace_registry(model, registry_name)
    if matrix.vacuous:
        return [_vacuous(rule, registry_name)]
    findings = []
    for item, row in zip(getattr(model.registries, registry_name), matrix.rows):
        reasons = []
        if not row.covered:
            reasons.append("not traced from the relevant argument")
        elif not row.solution_backed:
            reasons.append("tracing elements lack supporting solutions")
        if not (rationale_given or item.selection_rationale):
            reasons.append("no selection rationale recorded for the normative document")
        if reasons:
            findings.append(Finding(
                rule, Severity.ERROR,
                f"{registry_name} item '{item.id}': " + "; ".join(reasons),
                row.covering_elements))
    return findings


def _rule_r3(model: GsnModel) -> list[Finding]:
    return _coverage_rule(model, "R3", "regulatory_requirements")


def _rule_r4(model: GsnModel) -> list[Finding]:
    conformance = model.argument_subset(ArgumentType.CONFORMANCE)
    return _coverage_rule(model, "R4", "normative_requirements", bool(
        _role_members(model, conformance, RoleTag.SELECTION_RATIONALE)))


def _rule_r5(model: GsnModel) -> list[Finding]:
    parts = (ArgumentType.PRODUCT, ArgumentType.PROCESS)
    findings = [Finding("R5", Severity.ERROR, f"the risk argument lacks a {t.value} argument")
                for t in parts if not model.argument_subset(t)]
    if model.argument_subset(ArgumentType.RISK):
        # An explicitly re-tagged element leaves the risk subset, so containment
        # means sitting inside the risk argument's scope, not subset inclusion.
        findings += _outside_scope(model, "R5", Severity.ERROR, ArgumentType.RISK, parts,
                                   "is not contained in the risk argument")
    return findings


def _rule_r6(model: GsnModel) -> list[Finding]:
    matrix = trace_registry(model, "hazards")
    if matrix.vacuous:
        return [_vacuous("R6", "hazards")]
    index = model.index
    findings = []
    for hazard, row in zip(model.registries.hazards, matrix.rows):
        tracers = tuple(eid for eid in row.covering_elements
                        if RoleTag.HAZARD_MANAGEMENT in index[eid].roles)
        reasons = []
        if hazard.status is HazardStatus.OPEN:
            reasons.append("status is open")
        if not tracers:
            reasons.append("not traced by a hazard-management element of the "
                           "product argument")
        elif not any(model.has_solution_descendant[t] for t in tracers):
            reasons.append("hazard-management elements lack supporting solutions")
        if reasons:
            findings.append(Finding(
                "R6", Severity.ERROR,
                f"hazard '{hazard.id}': " + "; ".join(reasons), tracers))
    return findings


def _rule_r7(model: GsnModel) -> list[Finding]:
    lacks = "the process argument does not address lifecycle"
    return _missing_roles(model, "R7", ArgumentType.PROCESS, (
        (RoleTag.LIFECYCLE_OPERATION, f"{lacks} operation"),
        (RoleTag.LIFECYCLE_MAINTENANCE, f"{lacks} maintenance")))


def _rule_r8(model: GsnModel) -> list[Finding]:
    findings = _missing_roles(model, "R8", ArgumentType.PROCESS, (
        (RoleTag.SAFETY_CULTURE, "the process argument does not address safety culture"),))
    members = _role_members(model, model.argument_subset(ArgumentType.PROCESS),
                            RoleTag.SAFETY_CULTURE)
    if members and not any(model.has_solution_descendant[m] for m in members):
        findings.append(Finding("R8", Severity.ERROR,
                                "safety-culture elements lack supporting solutions",
                                tuple(members)))
    return findings


def _rule_r9(model: GsnModel) -> list[Finding]:
    subset = model.argument_subset(ArgumentType.CONTEXTUALIZATION)
    if not subset:
        return [Finding("R9", Severity.ERROR, "no contextualization argument: no "
                        "element belongs to the contextualization argument")]
    dimensions = model.registries.context_dimensions
    if not dimensions:
        return [_vacuous("R9", "context_dimensions")]
    referenced = set().union(*(model.index[eid].artifacts for eid in subset))
    documented = {a.dimension for a in model.artifacts
                  if a.role is ArtifactRole.CONTEXT_DOC and a.id in referenced}
    return [Finding("R9", Severity.ERROR,
                    f"context dimension '{dimension}' has no context document "
                    f"referenced from the contextualization argument")
            for dimension in dimensions if dimension not in documented]


def _rule_r10(model: GsnModel) -> list[Finding]:
    subset = model.argument_subset(ArgumentType.SOUNDNESS)
    if not subset:
        return [Finding("R10", Severity.ERROR, "no soundness argument: no element "
                        "belongs to the soundness argument")]
    checks = ((RoleTag.UNCERTAINTY_METHOD,
               "the soundness argument does not argue over applied uncertainty methods"),)
    if any(e.acps for e in model.iter_elements()):
        checks += ((RoleTag.ACP_RATIONALE, "assurance claim points are used but the "
                    "soundness argument gives no rationale for their placement"),)
    return _missing_roles(model, "R10", ArgumentType.SOUNDNESS, checks)


def _rule_st1(model: GsnModel) -> list[Finding]:
    return _outside_scope(model, "ST1", Severity.WARNING, ArgumentType.PROCESS,
                          (ArgumentType.CONFORMANCE, ArgumentType.COMPLIANCE),
                          "is not subordinate to the process argument")


def _rule_d1(model: GsnModel) -> list[Finding]:
    matrix = trace_registry(model, "risk_acceptance_criteria")
    if matrix.vacuous:
        return [_vacuous("D1", "risk_acceptance_criteria")]
    rows = list(zip(model.registries.risk_acceptance_criteria, matrix.rows))
    rac_roles = (RoleTag.RAC_DEFINE, RoleTag.RAC_EVALUATE, RoleTag.RAC_MAINTAIN)
    findings = []
    for level in RacLevel:
        level_rows = [row for criterion, row in rows if criterion.level == level]
        if not level_rows:
            findings.append(Finding(
                "D1", Severity.ERROR,
                f"no {level.value} risk acceptance criterion is defined"))
            continue
        findings += [Finding("D1", Severity.ERROR,
                             f"risk acceptance criterion '{row.item_id}' is not traced "
                             f"from the product argument")
                     for row in level_rows if not row.covered]
        tracers = sorted({eid for row in level_rows for eid in row.covering_elements})
        roles = set().union(*(model.index[eid].roles for eid in tracers))
        missing = [r.value for r in rac_roles if r not in roles]
        if missing:
            findings.append(Finding(
                "D1", Severity.ERROR,
                f"{level.value} risk acceptance criteria lack elements with "
                f"roles: {', '.join(missing)}", tuple(tracers)))
    return findings


def _rule_d2(model: GsnModel) -> list[Finding]:
    lacks = "the product argument does not argue over residual risk in"
    return _missing_roles(model, "D2", ArgumentType.PRODUCT, (
        (RoleTag.KNOWN_SCENARIOS, f"{lacks} known scenarios"),
        (RoleTag.UNKNOWN_SCENARIOS, f"{lacks} unknown scenarios")))


def _rule_tl1(model: GsnModel) -> list[Finding]:
    root = model.root
    if root is None:
        return []
    if TOP_CLAIM_PHRASE not in root.text.lower():
        return [Finding(
            "TL1", Severity.INFO,
            f"root claim '{root.id}' does not contain the phrase "
            f"'{TOP_CLAIM_PHRASE}'", (root.id,))]
    return []


def _rule_ev1(model: GsnModel) -> list[Finding]:
    findings = []
    for element in model.iter_elements():
        if element.kind is not ElementKind.SOLUTION:
            continue
        # Every artifact is known here: an unknown one is a WF9 Error.
        if not any(model.artifact_index[a].role is ArtifactRole.EVIDENCE
                   for a in element.artifacts):
            findings.append(Finding(
                "EV1", Severity.ERROR,
                f"solution '{element.id}' references no evidence artifact",
                (element.id,), element.location))
    return findings


_RULE_FUNCTIONS: dict[str, Callable[[GsnModel], list[Finding]]] = {
    "R1": _rule_r1, "R2": _rule_r2, "R3": _rule_r3, "R4": _rule_r4,
    "R5": _rule_r5, "R6": _rule_r6, "R7": _rule_r7, "R8": _rule_r8,
    "R9": _rule_r9, "R10": _rule_r10, "ST1": _rule_st1, "D1": _rule_d1,
    "D2": _rule_d2, "TL1": _rule_tl1, "EV1": _rule_ev1,
}


def _requirement_findings(model: GsnModel, profile: RuleProfile) -> list[Finding]:
    """The one rule loop: the findings of the profile's requirement rules."""
    return [finding for rule, fn in _RULE_FUNCTIONS.items()
            if rule in profile.enabled_rules for finding in fn(model)]


def _finish(findings: list[Finding], profile: RuleProfile) -> list[Finding]:
    """Apply the profile's severity overrides, then sort."""
    overrides = profile.severity_overrides
    return sort_findings([replace(f, severity=s) if (s := overrides.get(f.rule)) else f
                          for f in findings])


def check_requirements(model: GsnModel, profile: RuleProfile) -> list[Finding]:
    """Evaluate the profile's requirement rules on a well-formed model.

    Raises PreconditionError when the model has well-formedness errors.
    """
    wf = check_wellformed(model)
    if any(f.severity is Severity.ERROR for f in wf):
        raise PreconditionError(wf)
    return _finish(_requirement_findings(model, profile), profile)


def evaluate(model: GsnModel, profile: RuleProfile) -> list[Finding]:
    """Full check: well-formedness first, requirement rules when WF is clean.

    Unlike check_requirements this never raises on an ill-formed model; the
    well-formedness findings are the result in that case.
    """
    wf = check_wellformed(model)
    # Requirement rules are meaningless on an ill-formed model; surface
    # the blocking errors even when the profile excludes WF rules.
    findings = [f for f in wf
                if f.rule in profile.enabled_rules or f.severity is Severity.ERROR]
    if not any(f.severity is Severity.ERROR for f in wf):
        findings += _requirement_findings(model, profile)
    return _finish(findings, profile)
