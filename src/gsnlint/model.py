"""In-memory representation of a safety assurance argumentation model.

A model is a set of GSN modules (goals, strategies, solutions and contextual
elements connected by supported_by / in_context_of relations) plus the
registries of external items (hazards, requirements, risk acceptance
criteria) and the artifacts the argumentation references.  Models are
immutable after linking; all derived views (element index, argument-type
membership, solution reachability, trace index) are computed lazily and
cached.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from typing import Iterable, Optional


class ElementKind(str, enum.Enum):
    GOAL = "goal"
    STRATEGY = "strategy"
    SOLUTION = "solution"
    CONTEXT = "context"
    ASSUMPTION = "assumption"
    JUSTIFICATION = "justification"


#: Kinds attached via in_context_of.
CONTEXTUAL_KINDS = frozenset(
    {ElementKind.CONTEXT, ElementKind.ASSUMPTION, ElementKind.JUSTIFICATION}
)


class ArgumentType(str, enum.Enum):
    RISK = "risk"
    CONFIDENCE = "confidence"
    CONFORMANCE = "conformance"
    COMPLIANCE = "compliance"
    PRODUCT = "product"
    PROCESS = "process"
    CONTEXTUALIZATION = "contextualization"
    SOUNDNESS = "soundness"


#: The membership of an explicitly tagged element, and of an untyped one.
_TAGGED = {t: frozenset({t}) for t in ArgumentType}
_UNTYPED: frozenset[ArgumentType] = frozenset()


class RoleTag(str, enum.Enum):
    SAFETY_CULTURE = "safety_culture"
    LIFECYCLE_OPERATION = "lifecycle_operation"
    LIFECYCLE_MAINTENANCE = "lifecycle_maintenance"
    HAZARD_MANAGEMENT = "hazard_management"
    GLOBAL_RAC = "global_rac"
    SCENARIO_RAC = "scenario_rac"
    KNOWN_SCENARIOS = "known_scenarios"
    UNKNOWN_SCENARIOS = "unknown_scenarios"
    RAC_DEFINE = "rac_define"
    RAC_EVALUATE = "rac_evaluate"
    RAC_MAINTAIN = "rac_maintain"
    SELECTION_RATIONALE = "selection_rationale"
    UNCERTAINTY_METHOD = "uncertainty_method"
    ACP_RATIONALE = "acp_rationale"


class AcpRelation(str, enum.Enum):
    SUPPORTED_BY = "supported_by"
    IN_CONTEXT_OF = "in_context_of"


class HazardStatus(str, enum.Enum):
    OPEN = "open"
    MANAGED = "managed"


class RacLevel(str, enum.Enum):
    GLOBAL = "global"
    SCENARIO = "scenario"


class ArtifactRole(str, enum.Enum):
    EVIDENCE = "evidence"
    CONTEXT_DOC = "context_doc"


#: Context dimensions assumed when a model declares none.
DEFAULT_CONTEXT_DIMENSIONS = (
    "operational_concept",
    "odd",
    "behavior_spec",
    "concept_of_operations",
    "system_description",
    "concept_explanations",
)


@dataclass(frozen=True, slots=True)
class SourceLocation:
    file: str
    line: int
    column: int = 1


@dataclass(frozen=True, slots=True)
class AssuranceClaimPoint:
    target: str
    relation: AcpRelation
    confidence_goal: str


@dataclass(slots=True)
class GsnElement:
    id: str
    kind: ElementKind
    text: str = ""
    undeveloped: bool = False
    argument_type: Optional[ArgumentType] = None
    roles: tuple[RoleTag, ...] = ()
    supported_by: tuple[str, ...] = ()
    in_context_of: tuple[str, ...] = ()
    traces: tuple[str, ...] = ()
    artifacts: tuple[str, ...] = ()
    acps: tuple[AssuranceClaimPoint, ...] = ()
    location: Optional[SourceLocation] = None

    def __post_init__(self) -> None:
        # Normalize collection fields so hand-built elements behave like parsed
        # ones.  A tuple of one value or none, as most are, takes no call.
        if type(self.roles) is not tuple or len(self.roles) > 1:
            self.roles = _value_set(self.roles)
        self.supported_by = tuple(self.supported_by)
        self.in_context_of = tuple(self.in_context_of)
        if type(self.traces) is not tuple or len(self.traces) > 1:
            self.traces = _value_set(self.traces)
        if type(self.artifacts) is not tuple or len(self.artifacts) > 1:
            self.artifacts = _value_set(self.artifacts)
        self.acps = tuple(self.acps)


def _value_set(values) -> tuple:
    """`values` as a sorted tuple holding each value once.  A sorted tuple is
    kept, so parsed elements keep the tuples a parse shares."""
    if type(values) is tuple and all(map(operator.lt, values, values[1:])):
        return values
    if type(values) in (set, frozenset) and len(values) < 2:
        return tuple(values)
    return tuple(sorted(set(values)))


@dataclass(slots=True)
class Hazard:
    id: str
    description: str = ""
    status: HazardStatus = HazardStatus.OPEN
    location: Optional[SourceLocation] = None


@dataclass(slots=True)
class RegulatoryRequirement:
    id: str
    source: str = ""
    text: str = ""
    location: Optional[SourceLocation] = None


@dataclass(slots=True)
class NormativeRequirement:
    id: str
    source: str = ""
    text: str = ""
    selection_rationale: Optional[str] = None
    location: Optional[SourceLocation] = None


@dataclass(slots=True)
class RiskAcceptanceCriterion:
    id: str
    level: RacLevel = RacLevel.GLOBAL
    text: str = ""
    location: Optional[SourceLocation] = None


#: The traceable registries, in schema order: registry name -> item class.
REGISTRY_ITEMS: dict[str, type] = {
    "hazards": Hazard,
    "regulatory_requirements": RegulatoryRequirement,
    "normative_requirements": NormativeRequirement,
    "risk_acceptance_criteria": RiskAcceptanceCriterion,
}


@dataclass(slots=True)
class Registries:
    hazards: list[Hazard] = field(default_factory=list)
    regulatory_requirements: list[RegulatoryRequirement] = field(default_factory=list)
    normative_requirements: list[NormativeRequirement] = field(default_factory=list)
    risk_acceptance_criteria: list[RiskAcceptanceCriterion] = field(default_factory=list)
    context_dimensions: list[str] = field(
        default_factory=lambda: list(DEFAULT_CONTEXT_DIMENSIONS)
    )

    def item_ids(self, registry_name: str) -> list[str]:
        if registry_name not in REGISTRY_ITEMS:
            raise UnknownRegistryError(registry_name)
        return [item.id for item in getattr(self, registry_name)]


@dataclass(slots=True)
class Artifact:
    id: str
    role: ArtifactRole
    title: str = ""
    uri: str = ""
    dimension: Optional[str] = None
    location: Optional[SourceLocation] = None


@dataclass(slots=True)
class GsnModule:
    id: str
    elements: list[GsnElement] = field(default_factory=list)


class UnknownIdError(KeyError):
    """Raised when an element id does not resolve within the model."""


class UnknownRegistryError(KeyError):
    """Raised for a registry name outside the traceable registry set."""


@dataclass(frozen=True, slots=True)
class StructuralProblem:
    """One reason a set of modules cannot form a linked model.

    `location` is where the record the problem is about was declared: the
    repeated copy for a duplicate id, the owning element for an unresolved or
    repeated reference or an invalid assurance claim point, and the first
    element of a cycle.  It is ``None`` for records built without a location.
    """

    code: str  # duplicate-id | unresolved-ref | duplicate-ref | cycle | invalid-acp
    message: str
    elements: tuple[str, ...] = ()
    location: Optional[SourceLocation] = None


class ModelError(Exception):
    def __init__(self, problems: list[StructuralProblem]):
        self.problems = problems
        super().__init__("; ".join(p.message for p in problems))


def find_structural_problems(model: GsnModel) -> list[StructuralProblem]:
    """Report duplicate ids, dangling or repeated references, relation cycles,
    and bad ACPs.

    The scan runs once per model (models are immutable once read), so the
    parser's guard and WF1-WF3 share it."""
    return list(model._structural_problems)


def _scan_structure(model: GsnModel) -> tuple[StructuralProblem, ...]:
    """The structural guard, and the one check that ids are unique (elements,
    each registry's items, artifacts), from the model's cached views: `index`,
    where the first copy of an id wins, and the cycles of its support walk."""
    problems: list[StructuralProblem] = []
    index = model.index
    for message, records in (("element id '{}'", model.iter_elements()),
                             *((f"id '{{}}' in registry '{name}'", getattr(model.registries, name))
                               for name in REGISTRY_ITEMS),
                             ("id '{}' in artifacts", model.artifacts)):
        seen: set[str] = set()
        for record in records:
            if record.id in seen:
                problems.append(StructuralProblem(
                    "duplicate-id", "duplicate " + message.format(record.id), (record.id,),
                    record.location))
            seen.add(record.id)

    for element in index.values():
        for ref in (*element.supported_by, *element.in_context_of):
            if ref not in index:
                problems.append(StructuralProblem(
                    "unresolved-ref",
                    f"element '{element.id}' references unknown element '{ref}'",
                    (element.id, ref), element.location))
        for relation, refs in (("supported_by", element.supported_by),
                               ("in_context_of", element.in_context_of)):
            if len(refs) > 1 and len(set(refs)) < len(refs):
                for ref, count in Counter(refs).items():
                    if count > 1:
                        problems.append(StructuralProblem(
                            "duplicate-ref", f"element '{element.id}' names '{ref}' "
                            f"more than once in {relation}",
                            (element.id, ref), element.location))
        for acp in element.acps:
            relation_list = (element.supported_by if acp.relation is AcpRelation.SUPPORTED_BY
                             else element.in_context_of)
            if acp.target not in relation_list:
                problems.append(StructuralProblem(
                    "invalid-acp",
                    f"assurance claim point on '{element.id}' targets '{acp.target}', "
                    f"which is not in its {acp.relation.value} list",
                    (element.id, acp.target), element.location))
            goal = index.get(acp.confidence_goal)
            if goal is None:
                problems.append(StructuralProblem(
                    "unresolved-ref",
                    f"assurance claim point on '{element.id}' references unknown "
                    f"confidence goal '{acp.confidence_goal}'",
                    (element.id, acp.confidence_goal), element.location))
            elif goal.kind is not ElementKind.GOAL:
                problems.append(StructuralProblem(
                    "invalid-acp",
                    f"confidence goal '{acp.confidence_goal}' of assurance claim point "
                    f"on '{element.id}' is a {goal.kind.value}, not a goal",
                    (element.id, acp.confidence_goal), element.location))

    for cycle in model._support_walk[1]:
        problems.append(StructuralProblem(
            "cycle", "supported_by cycle: " + " -> ".join((*cycle, cycle[0])), cycle,
            index[cycle[0]].location))
    return tuple(problems)


def _walk(index: dict[str, GsnElement],
         starts: Iterable[str]) -> tuple[list[str], list[tuple[str, ...]]]:
    """The graph layer's one traversal: an iterative depth-first search along
    supported_by (chain depth is unbounded) from `starts` in order, skipping
    ids not in `index`, children in declared order.  Returns the elements
    reached, in post-order, and every cycle met, each reported once."""
    done: dict[str, None] = {}  # finished elements, in post-order
    on_path: dict[str, int] = {}  # element on the current path -> its position
    cycles: list[tuple[str, ...]] = []
    for start in starts:
        if start in done or start not in index:
            continue
        path = [start]
        on_path[start] = 0
        children = [iter(index[start].supported_by)]
        while children:
            for child in children[-1]:
                if child in on_path:
                    cycles.append(tuple(path[on_path[child]:]))
                elif child in index and child not in done:
                    on_path[child] = len(path)
                    path.append(child)
                    children.append(iter(index[child].supported_by))
                    break
            else:
                children.pop()
                node = path.pop()
                del on_path[node]
                done[node] = None
    return list(done), cycles


@dataclass
class GsnModel:
    id: str
    version: str = "0"
    modules: list[GsnModule] = field(default_factory=list)
    registries: Registries = field(default_factory=Registries)
    artifacts: list[Artifact] = field(default_factory=list)
    fragmentary: bool = False

    # -- derived views ------------------------------------------------

    @cached_property
    def index(self) -> dict[str, GsnElement]:
        out: dict[str, GsnElement] = {}
        for module in self.modules:
            for element in module.elements:
                out.setdefault(element.id, element)
        return out

    @cached_property
    def artifact_index(self) -> dict[str, Artifact]:
        out: dict[str, Artifact] = {}
        for artifact in self.artifacts:
            out.setdefault(artifact.id, artifact)
        return out

    def _referrers(self, relation: str) -> dict[str, tuple[str, ...]]:
        """Inverse of a relation: element id -> ids of the elements naming it.
        Equal lists of ids share one tuple, and every element nothing names
        the one empty tuple."""
        named: dict[str, list[str]] = {}
        for element in self.index.values():
            for target in getattr(element, relation):
                named.setdefault(target, []).append(element.id)
        shared: dict[tuple[str, ...], tuple[str, ...]] = {}
        for target, ids in named.items():
            ids = tuple(ids)
            named[target] = shared.setdefault(ids, ids)
        return {eid: named.get(eid, ()) for eid in self.index}

    @cached_property
    def support_parents(self) -> dict[str, tuple[str, ...]]:
        return self._referrers("supported_by")

    @cached_property
    def context_referencers(self) -> dict[str, tuple[str, ...]]:
        return self._referrers("in_context_of")

    @cached_property
    def _support_walk(self) -> tuple[list[str], list[tuple[str, ...]]]:
        """The walk from every element: its post-order and its cycles."""
        return _walk(self.index, self.index)

    _structural_problems = cached_property(_scan_structure)

    @cached_property
    def topo_order(self) -> list[str]:
        """Every element, parents before children along supported_by where
        the relation is acyclic: the walk's post-order, reversed."""
        return self._support_walk[0][::-1]

    @cached_property
    def root_goals(self) -> tuple[str, ...]:
        """Sorted ids of the goals with no incoming supported_by edge."""
        return tuple(sorted(eid for eid, e in self.index.items()
                            if e.kind is ElementKind.GOAL and not self.support_parents[eid]))

    @cached_property
    def root(self) -> Optional[GsnElement]:
        """The unique root goal, if there is exactly one."""
        return self.index[self.root_goals[0]] if len(self.root_goals) == 1 else None

    @cached_property
    def effective_types(self) -> dict[str, frozenset[ArgumentType]]:
        """Argument-type membership per element.

        An explicit tag overrides inheritance; untagged elements take the
        union of their supported_by parents' memberships, so a join node
        below two differently typed branches belongs to both arguments.
        Contextual elements inherit from the elements referencing them.

        Elements share their sets: an element with one parent (or one
        referencer) takes that element's set, and a join gets its own.
        """
        eff: dict[str, frozenset[ArgumentType]] = {}

        def inherit(ids: tuple[str, ...]) -> frozenset[ArgumentType]:
            if len(ids) == 1:
                return eff.get(ids[0], _UNTYPED)
            return _UNTYPED.union(*[eff.get(i, _UNTYPED) for i in ids])

        for eid in self.topo_order:
            tag = self.index[eid].argument_type
            eff[eid] = _TAGGED[tag] if tag is not None else inherit(self.support_parents[eid])
        for eid, element in self.index.items():
            if element.kind in CONTEXTUAL_KINDS and element.argument_type is None:
                eff[eid] = inherit(self.context_referencers[eid])
        return eff

    @cached_property
    def argument_subsets(self) -> dict[ArgumentType, frozenset[str]]:
        """Argument type -> ids of its member elements, in one pass."""
        members: dict[ArgumentType, list[str]] = {t: [] for t in ArgumentType}
        for eid, types in self.effective_types.items():
            for argument_type in types:
                members[argument_type].append(eid)
        return {t: frozenset(eids) for t, eids in members.items()}

    @cached_property
    def has_solution_descendant(self) -> dict[str, bool]:
        """Whether any solution is reachable below an element via supported_by."""
        backed = {eid: False for eid in self.index}
        for eid in reversed(self.topo_order):
            element = self.index[eid]
            for child in element.supported_by:
                child_el = self.index.get(child)
                if child_el is None:
                    continue
                if child_el.kind is ElementKind.SOLUTION or backed[child]:
                    backed[eid] = True
                    break
        return backed

    @cached_property
    def role_members(self) -> dict[RoleTag, tuple[str, ...]]:
        """Role -> sorted ids of the elements that carry it."""
        members: dict[RoleTag, list[str]] = {role: [] for role in RoleTag}
        for eid, element in self.index.items():
            for role in element.roles:
                members[role].append(eid)
        return {role: tuple(sorted(eids)) for role, eids in members.items()}

    @cached_property
    def item_tracers(self) -> dict[str, tuple[str, ...]]:
        """Registry item id -> sorted ids of the elements whose traces name it."""
        tracers: dict[str, list[str]] = {}
        for eid, element in self.index.items():
            for item_id in element.traces:
                tracers.setdefault(item_id, []).append(eid)
        return {item_id: tuple(sorted(eids)) for item_id, eids in tracers.items()}

    # -- operations ---------------------------------------------------

    def iter_elements(self) -> Iterable[GsnElement]:
        for module in self.modules:
            yield from module.elements

    def resolve(self, element_id: str) -> GsnElement:
        try:
            return self.index[element_id]
        except KeyError:
            raise UnknownIdError(element_id) from None

    def argument_subset(self, argument_type: ArgumentType) -> frozenset[str]:
        """The shared, immutable member set of one argument."""
        return self.argument_subsets[argument_type]

    def descendants(self, element_id: str) -> set[str]:
        """Transitive supported_by closure plus contextual sinks, start excluded."""
        self.resolve(element_id)
        return self.reachable_from((element_id,)) - {element_id}

    def reachable_from(self, element_ids: Iterable[str]) -> set[str]:
        """The given elements, their transitive supported_by closure, and the
        in_context_of targets of every element in it, in one shared pass."""
        closure = _walk(self.index, element_ids)[0]
        reached = set(closure)
        for eid in closure:
            reached.update(c for c in self.index[eid].in_context_of if c in self.index)
        return reached


def link_model(
    model_id: str,
    version: str = "0",
    modules: Optional[list[GsnModule]] = None,
    registries: Optional[Registries] = None,
    artifacts: Optional[list[Artifact]] = None,
    fragmentary: bool = False,
) -> GsnModel:
    """Build a model, rejecting structurally broken module sets."""
    model = GsnModel(
        id=model_id,
        version=version,
        modules=modules or [],
        registries=registries or Registries(),
        artifacts=artifacts or [],
        fragmentary=fragmentary,
    )
    problems = find_structural_problems(model)
    if problems:
        raise ModelError(problems)
    return model


def canonical_dict(model: GsnModel) -> dict:
    """Schema-ordered plain-data form of a model.

    Elements are sorted by id; declared relation order is preserved.  Two
    models are structurally equal iff their canonical dicts are equal.
    """
    return {**_modules_dict(model), **_registries_dict(model)}


def _modules_dict(model: GsnModel) -> dict:
    """The `model` header and `modules` part of `canonical_dict`."""
    header: dict = {"id": model.id, "version": model.version}
    if model.fragmentary:
        header["fragmentary"] = True
    return {"model": header, "modules": [
        {"id": module.id,
         "elements": [_record_dict(e) for e in sorted(module.elements, key=lambda e: e.id)]}
        for module in model.modules
    ]}


def _registries_dict(model: GsnModel) -> dict:
    """The `registries` and `artifacts` part of `canonical_dict`."""
    reg = model.registries
    registries = {name: [_record_dict(item) for item in getattr(reg, name)]
                  for name in REGISTRY_ITEMS}
    registries["context_dimensions"] = list(reg.context_dimensions)
    return {"registries": registries, "artifacts": [_record_dict(a) for a in model.artifacts]}


def _record_dict(record) -> dict:
    """Any model record in field order: enums as their values, tuples as
    lists of plain values; None, False and empty collections dropped,
    strings always kept, `location` never written and `acps` under its YAML
    key `acp`."""
    out: dict = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name != "location" and (value or isinstance(value, str)):
            out["acp" if f.name == "acps" else f.name] = _plain(value)
    return out


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return _record_dict(value)
    return value


def models_equal(a: GsnModel, b: GsnModel) -> bool:
    return canonical_dict(a) == canonical_dict(b)

