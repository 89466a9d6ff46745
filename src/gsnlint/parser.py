"""Reader and writer for the `.sac.yaml` argumentation model format.

Documents are composed into YAML node trees (not plain-loaded) so every
diagnostic can point at the line and column of the offending construct.
All diagnostics in a batch of documents are collected before giving up;
a model is only produced when no Error-level diagnostic was found.
"""

from __future__ import annotations

from typing import Optional

import yaml

from .findings import ParseDiagnostic, Severity
from .model import (
    AcpRelation,
    Artifact,
    ArtifactRole,
    AssuranceClaimPoint,
    ElementKind,
    ArgumentType,
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
    SourceLocation,
    canonical_dict,
    find_structural_problems,
)

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_ACP_KEYS = {"target", "relation", "confidence_goal"}
_ARTIFACT_KEYS = {"id", "role", "title", "uri", "dimension"}


class _DocParser:
    """Per-document node-tree walker accumulating diagnostics."""

    def __init__(self, path: str, lenient: bool, diags: list[ParseDiagnostic]):
        self.path = path
        self.lenient = lenient
        self.diags = diags

    # -- diagnostics --------------------------------------------------

    def _loc(self, node) -> tuple[int, int]:
        mark = node.start_mark
        return mark.line + 1, mark.column + 1

    def error(self, node, code: str, message: str) -> None:
        line, col = self._loc(node)
        self.diags.append(ParseDiagnostic(Severity.ERROR, code, message, self.path, line, col))

    def warning(self, node, code: str, message: str) -> None:
        line, col = self._loc(node)
        self.diags.append(ParseDiagnostic(Severity.WARNING, code, message, self.path, line, col))

    def unknown_key(self, key_node, key: str, where: str) -> None:
        message = f"unknown key '{key}' in {where}"
        if self.lenient:
            self.warning(key_node, "unknown-key", message)
        else:
            self.error(key_node, "unknown-key", message)

    def location(self, node) -> SourceLocation:
        line, col = self._loc(node)
        return SourceLocation(self.path, line, col)

    # -- node coercion ------------------------------------------------

    def mapping(self, node, where: str) -> Optional[list]:
        if not isinstance(node, yaml.MappingNode):
            self.error(node, "bad-type", f"{where} must be a mapping")
            return None
        return [(key.value, key, value) for key, value in node.value]

    def sequence(self, node, where: str) -> Optional[list]:
        if not isinstance(node, yaml.SequenceNode):
            self.error(node, "bad-type", f"{where} must be a sequence")
            return None
        return list(node.value)

    def string(self, node, where: str) -> Optional[str]:
        if not isinstance(node, yaml.ScalarNode) or node.tag.endswith((":map", ":seq")):
            self.error(node, "bad-type", f"{where} must be a scalar")
            return None
        return node.value

    def boolean(self, node, where: str) -> Optional[bool]:
        if isinstance(node, yaml.ScalarNode) and node.tag == "tag:yaml.org,2002:bool":
            return node.value.lower() in ("true", "yes", "on")
        self.error(node, "bad-type", f"{where} must be a boolean")
        return None

    def enum(self, node, enum_cls, where: str):
        raw = self.string(node, where)
        if raw is None:
            return None
        try:
            return enum_cls(raw)
        except ValueError:
            allowed = ", ".join(member.value for member in enum_cls)
            self.error(node, "unknown-enum",
                       f"unknown enumeration value '{raw}' for {where} (expected one of: {allowed})")
            return None

    def string_list(self, node, where: str) -> list[str]:
        items = self.sequence(node, where)
        out: list[str] = []
        for item in items or []:
            value = self.string(item, f"entry of {where}")
            if value is not None:
                out.append(value)
        return out

    # -- sections -----------------------------------------------------

    def element(self, node) -> Optional[GsnElement]:
        items = self.mapping(node, "element entry")
        if items is None:
            return None
        fields: dict = {"location": self.location(node)}
        for key, key_node, value in items:
            if key == "id":
                fields["id"] = self.string(value, "element id")
            elif key == "kind":
                fields["kind"] = self.enum(value, ElementKind, "element kind")
            elif key == "text":
                fields["text"] = self.string(value, "element text") or ""
            elif key == "undeveloped":
                fields["undeveloped"] = bool(self.boolean(value, "undeveloped"))
            elif key == "argument_type":
                fields["argument_type"] = self.enum(value, ArgumentType, "argument_type")
            elif key == "roles":
                roles = []
                for item in self.sequence(value, "roles") or []:
                    role = self.enum(item, RoleTag, "role")
                    if role is not None:
                        roles.append(role)
                fields["roles"] = frozenset(roles)
            elif key == "supported_by":
                fields["supported_by"] = tuple(self.string_list(value, "supported_by"))
            elif key == "in_context_of":
                fields["in_context_of"] = tuple(self.string_list(value, "in_context_of"))
            elif key == "traces":
                fields["traces"] = frozenset(self.string_list(value, "traces"))
            elif key == "artifacts":
                fields["artifacts"] = frozenset(self.string_list(value, "artifacts"))
            elif key == "acp":
                fields["acps"] = tuple(self.acp_list(value))
            else:
                self.unknown_key(key_node, key, "element entry")
        if fields.get("id") is None or fields.get("kind") is None:
            if "id" not in fields or "kind" not in fields:
                self.error(node, "missing-key", "element entry requires 'id' and 'kind'")
            return None
        return GsnElement(**fields)

    def acp_list(self, node) -> list[AssuranceClaimPoint]:
        out: list[AssuranceClaimPoint] = []
        for entry in self.sequence(node, "acp") or []:
            items = self.mapping(entry, "acp entry")
            if items is None:
                continue
            fields: dict = {}
            for key, key_node, value in items:
                if key == "target":
                    fields["target"] = self.string(value, "acp target")
                elif key == "relation":
                    fields["relation"] = self.enum(value, AcpRelation, "acp relation")
                elif key == "confidence_goal":
                    fields["confidence_goal"] = self.string(value, "acp confidence_goal")
                else:
                    self.unknown_key(key_node, key, "acp entry")
            if None in fields.values() or set(fields) != _ACP_KEYS:
                self.error(entry, "missing-key",
                           "acp entry requires 'target', 'relation', and 'confidence_goal'")
                continue
            out.append(AssuranceClaimPoint(**fields))
        return out

    def module(self, node) -> Optional[GsnModule]:
        items = self.mapping(node, "module entry")
        if items is None:
            return None
        module_id: Optional[str] = None
        elements: list[GsnElement] = []
        for key, key_node, value in items:
            if key == "id":
                module_id = self.string(value, "module id")
            elif key == "elements":
                for entry in self.sequence(value, "elements") or []:
                    element = self.element(entry)
                    if element is not None:
                        elements.append(element)
            else:
                self.unknown_key(key_node, key, "module entry")
        if module_id is None:
            self.error(node, "missing-key", "module entry requires 'id'")
            return None
        return GsnModule(module_id, elements)

    def registry_item(self, node, item_cls, spec: dict):
        items = self.mapping(node, "registry item")
        if items is None:
            return None
        fields: dict = {}
        for key, key_node, value in items:
            if key not in spec:
                self.unknown_key(key_node, key, "registry item")
                continue
            kind = spec[key]
            fields[key] = (self.enum(value, kind, key) if isinstance(kind, type) and
                           issubclass(kind, (HazardStatus, RacLevel))
                           else self.string(value, key))
        if fields.get("id") is None:
            self.error(node, "missing-key", "registry item requires 'id'")
            return None
        fields = {k: v for k, v in fields.items() if v is not None}
        return item_cls(**fields)

    def registries(self, node, registries: Registries, dims_declared: list[bool]) -> None:
        items = self.mapping(node, "registries")
        for key, key_node, value in items or []:
            if key == "hazards":
                for entry in self.sequence(value, "hazards") or []:
                    item = self.registry_item(
                        entry, Hazard, {"id": str, "description": str, "status": HazardStatus})
                    if item is not None:
                        registries.hazards.append(item)
            elif key == "regulatory_requirements":
                for entry in self.sequence(value, key) or []:
                    item = self.registry_item(
                        entry, RegulatoryRequirement, {"id": str, "source": str, "text": str})
                    if item is not None:
                        registries.regulatory_requirements.append(item)
            elif key == "normative_requirements":
                for entry in self.sequence(value, key) or []:
                    item = self.registry_item(
                        entry, NormativeRequirement,
                        {"id": str, "source": str, "text": str, "selection_rationale": str})
                    if item is not None:
                        registries.normative_requirements.append(item)
            elif key == "risk_acceptance_criteria":
                for entry in self.sequence(value, key) or []:
                    item = self.registry_item(
                        entry, RiskAcceptanceCriterion,
                        {"id": str, "level": RacLevel, "text": str})
                    if item is not None:
                        registries.risk_acceptance_criteria.append(item)
            elif key == "context_dimensions":
                if not dims_declared[0]:
                    registries.context_dimensions = []
                    dims_declared[0] = True
                registries.context_dimensions.extend(self.string_list(value, key))
            else:
                self.unknown_key(key_node, key, "registries")

    def artifact(self, node) -> Optional[Artifact]:
        items = self.mapping(node, "artifact entry")
        if items is None:
            return None
        fields: dict = {}
        for key, key_node, value in items:
            if key == "role":
                fields["role"] = self.enum(value, ArtifactRole, "artifact role")
            elif key in _ARTIFACT_KEYS:
                fields[key] = self.string(value, f"artifact {key}")
            else:
                self.unknown_key(key_node, key, "artifact entry")
        if fields.get("id") is None or fields.get("role") is None:
            if "id" not in fields or "role" not in fields:
                self.error(node, "missing-key", "artifact entry requires 'id' and 'role'")
            return None
        return Artifact(**{k: v for k, v in fields.items() if v is not None})


def parse_model(
    documents: list[tuple[str, str]],
    lenient: bool = False,
) -> tuple[Optional[GsnModel], list[ParseDiagnostic]]:
    """Parse and link one model from one or more documents.

    Returns ``(model, diagnostics)``; the model is ``None`` exactly when at
    least one Error diagnostic was produced.  In lenient mode unknown keys
    demote to warnings.
    """
    diags: list[ParseDiagnostic] = []
    if not documents:
        diags.append(ParseDiagnostic(
            Severity.ERROR, "usage", "no input documents given"))
        return None, diags

    header: Optional[dict] = None
    modules: list[GsnModule] = []
    registries = Registries(context_dimensions=[])
    dims_declared = [False]
    artifacts: list[Artifact] = []
    element_locations: dict[str, SourceLocation] = {}
    duplicate_locations: dict[str, SourceLocation] = {}

    for path, text in documents:
        parser = _DocParser(path, lenient, diags)
        try:
            root = yaml.compose(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = mark.line + 1 if mark else 1
            column = mark.column + 1 if mark else 1
            diags.append(ParseDiagnostic(
                Severity.ERROR, "syntax", f"malformed document: {exc}", path, line, column))
            continue
        if root is None:
            diags.append(ParseDiagnostic(
                Severity.ERROR, "syntax", "document is empty", path))
            continue
        items = parser.mapping(root, "document")
        if items is None:
            continue
        for key, key_node, value in items:
            if key == "model":
                model_items = parser.mapping(value, "model header")
                if model_items is None:
                    continue
                if header is not None:
                    parser.error(key_node, "model-header",
                                 "model header declared more than once")
                    continue
                header = {"id": None, "version": "0", "fragmentary": False}
                for hkey, hkey_node, hvalue in model_items:
                    if hkey == "id":
                        header["id"] = parser.string(hvalue, "model id")
                    elif hkey == "version":
                        header["version"] = parser.string(hvalue, "model version") or "0"
                    elif hkey == "fragmentary":
                        header["fragmentary"] = bool(parser.boolean(hvalue, "fragmentary"))
                    else:
                        parser.unknown_key(hkey_node, hkey, "model header")
                if header["id"] is None:
                    parser.error(value, "missing-key", "model header requires 'id'")
            elif key == "modules":
                for entry in parser.sequence(value, "modules") or []:
                    module = parser.module(entry)
                    if module is None:
                        continue
                    modules.append(module)
                    for element in module.elements:
                        if element.id in element_locations:
                            duplicate_locations[element.id] = element.location
                        else:
                            element_locations[element.id] = element.location
            elif key == "registries":
                parser.registries(value, registries, dims_declared)
            elif key == "artifacts":
                for entry in parser.sequence(value, "artifacts") or []:
                    artifact = parser.artifact(entry)
                    if artifact is not None:
                        artifacts.append(artifact)
            else:
                parser.unknown_key(key_node, key, "document")

    if header is None or header["id"] is None:
        diags.append(ParseDiagnostic(
            Severity.ERROR, "model-header", "no model header found in any document",
            documents[0][0]))

    for problem in find_structural_problems(modules):
        loc = None
        if problem.code == "duplicate-id" and problem.elements:
            loc = duplicate_locations.get(problem.elements[0])
        if loc is None:
            for eid in problem.elements:
                loc = element_locations.get(eid)
                if loc is not None:
                    break
        diags.append(ParseDiagnostic(
            Severity.ERROR, problem.code, problem.message,
            loc.file if loc else documents[0][0],
            loc.line if loc else 1,
            loc.column if loc else 1))

    if any(d.severity is Severity.ERROR for d in diags):
        return None, diags

    if not dims_declared[0]:
        registries.context_dimensions = list(Registries().context_dimensions)
    model = GsnModel(
        id=header["id"],
        version=header["version"],
        modules=modules,
        registries=registries,
        artifacts=artifacts,
        fragmentary=header["fragmentary"],
    )
    return model, diags


def load_model(
    paths: list[str], lenient: bool = False
) -> tuple[Optional[GsnModel], list[ParseDiagnostic]]:
    """Read documents from disk, then parse as one model."""
    documents: list[tuple[str, str]] = []
    diags: list[ParseDiagnostic] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                documents.append((str(path), handle.read()))
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            diags.append(ParseDiagnostic(
                Severity.ERROR, "io", f"cannot read '{path}': {reason}", str(path)))
    if diags:
        return None, diags
    return parse_model(documents, lenient=lenient)


def serialize_model(model: GsnModel, include_registries: bool = True) -> str:
    """Canonical text form: schema-ordered keys, elements sorted by id."""
    data = canonical_dict(model)
    if not include_registries:
        data.pop("registries", None)
        data.pop("artifacts", None)
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False,
                          allow_unicode=True, width=100)


def serialize_registries(model: GsnModel) -> str:
    """Registries-plus-artifacts companion document for split output."""
    data = canonical_dict(model)
    split = {"registries": data["registries"], "artifacts": data["artifacts"]}
    return yaml.safe_dump(split, sort_keys=False, default_flow_style=False,
                          allow_unicode=True, width=100)
