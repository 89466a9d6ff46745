"""Single-edit scaffold mutations, one per rule, used by the rule tests
and the acceptance suite.  Each entry documents the edit and the rule it
must trigger at that rule's default severity, without introducing any
other new Error."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from gsnlint.findings import Severity
from gsnlint.model import (
    REGISTRY_ITEMS,
    ArgumentType,
    GsnModel,
    GsnModule,
    HazardStatus,
    Registries,
)


@dataclass(frozen=True)
class Mutation:
    rule: str
    severity: Severity
    description: str
    apply: Callable[[GsnModel], None]


def _element(model: GsnModel, eid: str):
    for module in model.modules:
        for element in module.elements:
            if element.id == eid:
                return element
    raise KeyError(eid)


def copy_model(model: GsnModel) -> GsnModel:
    """Deep-enough copy for building mutated variants; caches are not shared."""
    modules = [GsnModule(m.id, [replace(e) for e in m.elements]) for m in model.modules]
    registries = Registries(
        **{name: [replace(item) for item in getattr(model.registries, name)]
           for name in REGISTRY_ITEMS},
        context_dimensions=list(model.registries.context_dimensions),
    )
    artifacts = [replace(a) for a in model.artifacts]
    return GsnModel(model.id, model.version, modules, registries, artifacts, model.fragmentary)


def mutate(model: GsnModel, mutation: Mutation) -> GsnModel:
    copy = copy_model(model)
    mutation.apply(copy)
    return copy


MUTATIONS: list[Mutation] = [
    Mutation("R1", Severity.ERROR,
             "untag the risk branch head, emptying the risk argument",
             lambda m: setattr(_element(m, "G-RISK"), "argument_type", None)),
    Mutation("R2", Severity.ERROR,
             "untag a confidence goal referenced by an assurance claim point",
             lambda m: setattr(_element(m, "G-CNF-RISK"), "argument_type", None)),
    Mutation("R3", Severity.ERROR,
             "drop the trace link from the compliance goal to the regulatory item",
             lambda m: setattr(_element(m, "G-CPL"), "traces", frozenset())),
    Mutation("R4", Severity.ERROR,
             "remove the selection rationale of the normative requirement",
             lambda m: setattr(m.registries.normative_requirements[0],
                               "selection_rationale", None)),
    Mutation("R5", Severity.ERROR,
             "tag a soundness-branch solution as product, outside the risk scope",
             lambda m: setattr(_element(m, "SN-SND-UNC"), "argument_type",
                               ArgumentType.PRODUCT)),
    Mutation("R6", Severity.ERROR,
             "flip the sample hazard back to status open",
             lambda m: setattr(m.registries.hazards[0], "status", HazardStatus.OPEN)),
    Mutation("R7", Severity.ERROR,
             "strip the lifecycle-operation role from the operation goal",
             lambda m: setattr(_element(m, "G-LC-OP"), "roles", frozenset())),
    Mutation("R8", Severity.ERROR,
             "strip the safety-culture role from the culture goal",
             lambda m: setattr(_element(m, "G-CULTURE"), "roles", frozenset())),
    Mutation("R9", Severity.ERROR,
             "remove the dimension key from the odd context document",
             lambda m: setattr(m.artifact_index["A-CTX-odd"], "dimension", None)),
    Mutation("R10", Severity.ERROR,
             "strip the uncertainty-method role from the soundness branch",
             lambda m: setattr(_element(m, "G-SND-UNC"), "roles", frozenset())),
    Mutation("ST1", Severity.WARNING,
             "tag a contextualization solution as compliance, outside the process scope",
             lambda m: setattr(_element(m, "SN-CTX-operational_concept"),
                               "argument_type", ArgumentType.COMPLIANCE)),
    Mutation("D1", Severity.ERROR,
             "strip the rac-maintain role from the global maintenance goal",
             lambda m: setattr(_element(m, "G-RAC-GLOBAL-MAINTAIN"),
                               "roles", frozenset())),
    Mutation("D2", Severity.ERROR,
             "strip the known-scenarios role from the known-scenario goal",
             lambda m: setattr(_element(m, "G-SCEN-KNOWN"), "roles", frozenset())),
    Mutation("TL1", Severity.INFO,
             "reword the top claim without the key phrase",
             lambda m: setattr(_element(m, "G-TOP"), "text",
                               "PLACEHOLDER: the system is safe")),
    Mutation("EV1", Severity.ERROR,
             "drop the evidence artifact reference from the hazard solution",
             lambda m: setattr(_element(m, "SN-HAZ"), "artifacts", frozenset())),
]
