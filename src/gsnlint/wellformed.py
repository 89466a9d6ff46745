"""Structural legality checks for linked GSN models (profile "gsn-wf").

These rules enforce the notation itself: which kinds may support which,
leaf-ness of solutions, how contextual elements may be reached, and the
parser's structural guards as WF1-WF3, so hand-built models get the same
scrutiny; the guards read the model's cached views (immutable once read).
"""

from __future__ import annotations

from .findings import Finding, Severity, sort_findings
from .model import (
    ArtifactRole,
    CONTEXTUAL_KINDS,
    ElementKind,
    GsnModel,
    find_structural_problems,
)

#: Legal supported_by targets per source kind; kinds absent here are sinks.
LEGAL_SUPPORT_TARGETS: dict[ElementKind, frozenset[ElementKind]] = {
    ElementKind.GOAL: frozenset(
        {ElementKind.GOAL, ElementKind.STRATEGY, ElementKind.SOLUTION}),
    ElementKind.STRATEGY: frozenset({ElementKind.GOAL, ElementKind.SOLUTION}),
}

_GUARD_RULES = {"cycle": "WF1", "duplicate-id": "WF2", "unresolved-ref": "WF3",
                "duplicate-ref": "WF3", "invalid-acp": "WF3"}


def check_wellformed(model: GsnModel) -> list[Finding]:
    findings: list[Finding] = []

    # WF1-WF3: structural guards, normally caught at parse/link time.
    for problem in find_structural_problems(model):
        findings.append(Finding(
            _GUARD_RULES[problem.code], Severity.ERROR, problem.message, problem.elements,
            problem.location))
    if any(f.rule in ("WF2", "WF3") for f in findings):
        # Index-based checks below are unreliable on a broken id space.
        return sort_findings(findings)

    for element in model.iter_elements():
        # WF4: kind legality of every supported_by edge.
        legal = LEGAL_SUPPORT_TARGETS.get(element.kind, frozenset())
        for child_id in element.supported_by:
            child = model.index[child_id]
            if child.kind not in legal:
                findings.append(Finding(
                    "WF4", Severity.ERROR,
                    f"{element.kind.value} '{element.id}' may not be supported by "
                    f"{child.kind.value} '{child_id}'",
                    (element.id, child_id), element.location))

        # WF5: solutions terminate branches.
        if element.kind is ElementKind.SOLUTION and (
                element.supported_by or element.in_context_of):
            findings.append(Finding(
                "WF5", Severity.ERROR,
                f"solution '{element.id}' must be a leaf", (element.id,), element.location))

        # WF6: contextual elements hang off in_context_of only, and
        # in_context_of points at contextual elements only.
        for target_id in element.in_context_of:
            target = model.index[target_id]
            if target.kind not in CONTEXTUAL_KINDS:
                findings.append(Finding(
                    "WF6", Severity.ERROR,
                    f"in_context_of target '{target_id}' of '{element.id}' is a "
                    f"{target.kind.value}, not a contextual element",
                    (element.id, target_id), element.location))
        if element.kind in CONTEXTUAL_KINDS and element.in_context_of:
            findings.append(Finding(
                "WF6", Severity.ERROR,
                f"{element.kind.value} '{element.id}' is a sink and may not "
                f"reference further context", (element.id,), element.location))
        if element.kind in CONTEXTUAL_KINDS and model.support_parents[element.id]:
            parent = model.support_parents[element.id][0]
            findings.append(Finding(
                "WF6", Severity.ERROR,
                f"{element.kind.value} '{element.id}' is reachable via supported_by "
                f"from '{parent}'; contextual elements attach via in_context_of",
                (element.id, parent), element.location))

        # WF8: undeveloped contradicts having support.
        if element.undeveloped and element.supported_by:
            findings.append(Finding(
                "WF8", Severity.ERROR,
                f"'{element.id}' is marked undeveloped but has supporting elements",
                (element.id,), element.location))

        # WF9: artifact roles match the referencing element kind.
        for artifact_id in element.artifacts:
            artifact = model.artifact_index.get(artifact_id)
            if artifact is None:
                findings.append(Finding(
                    "WF9", Severity.ERROR,
                    f"'{element.id}' references unknown artifact '{artifact_id}'",
                    (element.id,), element.location))
            elif artifact.role is ArtifactRole.EVIDENCE and \
                    element.kind is not ElementKind.SOLUTION:
                findings.append(Finding(
                    "WF9", Severity.WARNING,
                    f"evidence artifact '{artifact_id}' referenced by non-solution "
                    f"'{element.id}'", (element.id,), element.location))
            elif artifact.role is ArtifactRole.CONTEXT_DOC and \
                    element.kind not in CONTEXTUAL_KINDS:
                findings.append(Finding(
                    "WF9", Severity.WARNING,
                    f"context document '{artifact_id}' referenced by "
                    f"{element.kind.value} '{element.id}'",
                    (element.id,), element.location))

    # WF7: root multiplicity, per module and globally.
    for module in model.modules:
        local_roots = [e.id for e in module.elements
                       if e.kind not in CONTEXTUAL_KINDS
                       and not model.support_parents[e.id]]
        if len(local_roots) > 1:
            findings.append(Finding(
                "WF7", Severity.WARNING,
                f"module '{module.id}' has {len(local_roots)} root elements",
                tuple(sorted(local_roots))))
    if not model.fragmentary and len(model.root_goals) != 1:
        findings.append(Finding(
            "WF7", Severity.WARNING,
            f"model has {len(model.root_goals)} global root goals "
            f"(expected exactly one; declare 'fragmentary' if intentional)",
            model.root_goals))

    return sort_findings(findings)
