"""The table-driven parser against the hand-written walkers it replaced.

`ReferenceDocParser` and `reference_parse_model` below are the per-record
`if/elif` walkers that `parser._Spec` tables and `_DocParser.record`
replaced.  Both parsers read the same documents; their diagnostics (in
order), canonical dicts and the locations of every element, registry item
and artifact must be equal.  The corpus
is every fixture, strict and lenient, seeded mutations of the fixtures,
fixtures with anchors and aliases at random collection positions, and
text-level cases for repeated keys, aliases and empty versions.

A key repeated in one mapping is an Error `duplicate-key` at the repeated
key, in strict and lenient mode alike, except where the repetition
appends (module `elements`, the registry lists, `context_dimensions`);
the first value stands.  An artifact id, or an item id within one
registry, that an earlier entry of any document had is an Error
`duplicate-id` at the repeated entry, reported with the structural problems
after the repeated element ids.  Only scalars may be aliased: an alias to
a collection is an Error `alias` at the collection where a value is read,
and nothing where it is skipped.  The reference finds one with the set of
collections its walk has passed, read or skipped.  A scalar is read only
untagged, as the non-specific `!` or with a tag that `yaml.SafeLoader`
constructs as a scalar (`str`, `int`, `float`, `bool`, `null`, `timestamp`,
`binary`); any other tag is an Error `bad-type` that names it.
"""

from __future__ import annotations

import copy
import random
from typing import Optional

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gsnlint.findings import ParseDiagnostic, Severity
from gsnlint.model import (
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
from gsnlint.parser import parse_model

from conftest import bad_fixture_paths, good_fixture_groups
from genmodels import alias_document

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


# -- reference -------------------------------------------------------

_ACP_KEYS = {"target", "relation", "confidence_goal"}
_ARTIFACT_KEYS = {"id", "role", "title", "uri", "dimension"}
_ELEMENT_KEYS = {"id", "kind", "text", "undeveloped", "argument_type", "roles",
                 "supported_by", "in_context_of", "traces", "artifacts", "acp"}
_HEADER_KEYS = {"id", "version", "fragmentary"}
_REGISTRY_NAMES = ("hazards", "regulatory_requirements", "normative_requirements",
                   "risk_acceptance_criteria")
_BOOLEANS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}
#: The tags of the scalars `yaml.SafeLoader` constructs.  The composer also
#: resolves a plain or `!`-tagged `<<` and `=` to `merge` and `value`, where
#: the parser sees no tag, so those read as their text.  A node cannot show
#: an explicit `!!merge <<` or `!!value =`, which the parser refuses; here
#: they read as text too.
_SCALAR_TAGS = {f"tag:yaml.org,2002:{name}"
                for name in ("str", "int", "float", "bool", "null", "timestamp", "binary")}
_SPELLED = {"tag:yaml.org,2002:merge": "<<", "tag:yaml.org,2002:value": "="}


class ReferenceDocParser:
    """The hand-written per-record walkers the spec tables replaced."""

    def __init__(self, path: str, lenient: bool, diags: list[ParseDiagnostic],
                 seen_ids: dict[str, set], repeated_ids: dict[str, list]):
        self.path = path
        self.lenient = lenient
        self.diags = diags
        self.seen_ids = seen_ids
        self.repeated_ids = repeated_ids
        self.visited: set[int] = set()  # ids of the collections passed; the tree outlives the walk

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

    def unknown_key(self, key_node, key: str, where: str, value) -> None:
        message = f"unknown key '{key}' in {where}"
        if self.lenient:
            self.warning(key_node, "unknown-key", message)
        else:
            self.error(key_node, "unknown-key", message)
        self.skip(value)

    def repeated(self, key_node, key: str, seen: set, where: str, value) -> bool:
        """Report `key`, and skip its value, when this mapping already had it."""
        if key in seen:
            self.error(key_node, "duplicate-key", f"duplicate key '{key}' in {where}")
            self.skip(value)
            return True
        seen.add(key)
        return False

    def repeated_id(self, node, item_id: str, where: str) -> None:
        """Keep `item_id`'s diagnostic, reported after the structural guard's
        repeated element ids, when an earlier entry, in any document, had it."""
        seen = self.seen_ids.setdefault(where, set())
        if item_id in seen:
            line, col = self._loc(node)
            self.repeated_ids.setdefault(where, []).append(ParseDiagnostic(
                Severity.ERROR, "duplicate-id", f"duplicate id '{item_id}' in {where}",
                self.path, line, col))
        seen.add(item_id)

    def location(self, node) -> SourceLocation:
        line, col = self._loc(node)
        return SourceLocation(self.path, line, col)

    # -- node coercion ------------------------------------------------

    def skip(self, node) -> None:
        """Mark every collection of a value that is not read as passed."""
        stack = [node]
        while stack:
            node = stack.pop()
            if isinstance(node, yaml.ScalarNode) or id(node) in self.visited:
                continue
            self.visited.add(id(node))
            stack += (node.value if isinstance(node, yaml.SequenceNode)
                      else [part for pair in node.value for part in pair])

    def aliased(self, node, where: str) -> bool:
        """Report a collection that the walk passed before: only scalars may be aliased."""
        if id(node) in self.visited:
            self.error(node, "alias",
                       f"{where} is an alias to a collection; only scalars may be aliased")
            return True
        self.visited.add(id(node))
        return False

    def mapping(self, node, where: str) -> Optional[list]:
        if not isinstance(node, yaml.MappingNode):
            self.error(node, "bad-type", f"{where} must be a mapping")
            self.skip(node)
            return None
        if self.aliased(node, where):
            return None
        for key, _ in node.value:
            self.skip(key)  # a key is not read
        return [(key.value if isinstance(key, yaml.ScalarNode) else "<non-scalar>", key, value)
                for key, value in node.value]

    def sequence(self, node, where: str) -> Optional[list]:
        if not isinstance(node, yaml.SequenceNode):
            self.error(node, "bad-type", f"{where} must be a sequence")
            self.skip(node)
            return None
        if self.aliased(node, where):
            return None
        return list(node.value)

    def string(self, node, where: str) -> Optional[str]:
        if not isinstance(node, yaml.ScalarNode):
            self.error(node, "bad-type", f"{where} must be a scalar")
            self.skip(node)
            return None
        if node.tag not in _SCALAR_TAGS and _SPELLED.get(node.tag) != node.value:
            self.error(node, "bad-type", f"{where} must be a scalar, not tagged '{node.tag}'")
            return None
        return node.value

    def boolean(self, node, where: str) -> Optional[bool]:
        """A `bool`-tagged scalar that YAML 1.1 spells as true or false, in any case."""
        if isinstance(node, yaml.ScalarNode) and node.tag == "tag:yaml.org,2002:bool":
            value = _BOOLEANS.get(node.value.lower())
            if value is not None:
                return value
        self.error(node, "bad-type", f"{where} must be a boolean")
        self.skip(node)
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
        seen: set = set()
        for key, key_node, value in items:
            if key in _ELEMENT_KEYS and self.repeated(key_node, key, seen, "element entry", value):
                continue
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
                self.unknown_key(key_node, key, "element entry", value)
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
            seen: set = set()
            for key, key_node, value in items:
                if key in _ACP_KEYS and self.repeated(key_node, key, seen, "acp entry", value):
                    continue
                if key == "target":
                    fields["target"] = self.string(value, "acp target")
                elif key == "relation":
                    fields["relation"] = self.enum(value, AcpRelation, "acp relation")
                elif key == "confidence_goal":
                    fields["confidence_goal"] = self.string(value, "acp confidence_goal")
                else:
                    self.unknown_key(key_node, key, "acp entry", value)
            if None in fields.values() or set(fields) != _ACP_KEYS:
                if set(fields) != _ACP_KEYS:
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
        seen: set = set()
        for key, key_node, value in items:
            if key == "id":
                if self.repeated(key_node, key, seen, "module entry", value):
                    continue
                module_id = self.string(value, "module id")
            elif key == "elements":
                for entry in self.sequence(value, "elements") or []:
                    element = self.element(entry)
                    if element is not None:
                        elements.append(element)
            else:
                self.unknown_key(key_node, key, "module entry", value)
        if module_id is None:
            if not any(key == "id" for key, _, _ in items):
                self.error(node, "missing-key", "module entry requires 'id'")
            return None
        return GsnModule(module_id, elements)

    def registry_item(self, node, item_cls, spec: dict, registry: str):
        items = self.mapping(node, "registry item")
        if items is None:
            return None
        fields: dict = {}
        seen: set = set()
        for key, key_node, value in items:
            if key not in spec:
                self.unknown_key(key_node, key, "registry item", value)
                continue
            if self.repeated(key_node, key, seen, "registry item", value):
                continue
            kind = spec[key]
            fields[key] = (self.enum(value, kind, key) if isinstance(kind, type) and
                           issubclass(kind, (HazardStatus, RacLevel))
                           else self.string(value, key))
        if fields.get("id") is None:
            if "id" not in fields:
                self.error(node, "missing-key", "registry item requires 'id'")
            return None
        fields = {k: v for k, v in fields.items() if v is not None}
        self.repeated_id(node, fields["id"], f"registry '{registry}'")
        return item_cls(**fields, location=self.location(node))

    def registries(self, node, registries: Registries, dims_declared: list[bool]) -> None:
        items = self.mapping(node, "registries")
        for key, key_node, value in items or []:
            if key == "hazards":
                for entry in self.sequence(value, "hazards") or []:
                    item = self.registry_item(
                        entry, Hazard, {"id": str, "description": str, "status": HazardStatus},
                        key)
                    if item is not None:
                        registries.hazards.append(item)
            elif key == "regulatory_requirements":
                for entry in self.sequence(value, key) or []:
                    item = self.registry_item(
                        entry, RegulatoryRequirement, {"id": str, "source": str, "text": str},
                        key)
                    if item is not None:
                        registries.regulatory_requirements.append(item)
            elif key == "normative_requirements":
                for entry in self.sequence(value, key) or []:
                    item = self.registry_item(
                        entry, NormativeRequirement,
                        {"id": str, "source": str, "text": str, "selection_rationale": str},
                        key)
                    if item is not None:
                        registries.normative_requirements.append(item)
            elif key == "risk_acceptance_criteria":
                for entry in self.sequence(value, key) or []:
                    item = self.registry_item(
                        entry, RiskAcceptanceCriterion,
                        {"id": str, "level": RacLevel, "text": str}, key)
                    if item is not None:
                        registries.risk_acceptance_criteria.append(item)
            elif key == "context_dimensions":
                if not dims_declared[0]:
                    registries.context_dimensions = []
                    dims_declared[0] = True
                registries.context_dimensions.extend(self.string_list(value, key))
            else:
                self.unknown_key(key_node, key, "registries", value)

    def artifact(self, node) -> Optional[Artifact]:
        items = self.mapping(node, "artifact entry")
        if items is None:
            return None
        fields: dict = {}
        seen: set = set()
        for key, key_node, value in items:
            if key in _ARTIFACT_KEYS and self.repeated(key_node, key, seen, "artifact entry",
                                                       value):
                continue
            if key == "role":
                fields["role"] = self.enum(value, ArtifactRole, "artifact role")
            elif key in _ARTIFACT_KEYS:
                fields[key] = self.string(value, f"artifact {key}")
            else:
                self.unknown_key(key_node, key, "artifact entry", value)
        if fields.get("id") is None or fields.get("role") is None:
            if "id" not in fields or "role" not in fields:
                self.error(node, "missing-key", "artifact entry requires 'id' and 'role'")
            return None
        self.repeated_id(node, fields["id"], "artifacts")
        return Artifact(**{k: v for k, v in fields.items() if v is not None},
                        location=self.location(node))


def reference_parse_model(
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
    header_declared = False
    modules: list[GsnModule] = []
    registries = Registries(context_dimensions=[])
    dims_declared = [False]
    artifacts: list[Artifact] = []
    element_locations: dict[str, SourceLocation] = {}
    duplicate_locations: dict[str, SourceLocation] = {}
    seen_ids: dict[str, set] = {}
    repeated_ids: dict[str, list] = {}  # namespace -> its duplicate-id diagnostics

    for path, text in documents:
        parser = ReferenceDocParser(path, lenient, diags, seen_ids, repeated_ids)
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
                # A second header mapping is refused before it is read, so an
                # alias to the first is `model-header`, not `alias`.
                if isinstance(value, yaml.MappingNode):
                    if header_declared:
                        parser.error(key_node, "model-header",
                                     "model header declared more than once")
                        parser.skip(value)
                        continue
                    header_declared = True
                model_items = parser.mapping(value, "model header")
                if model_items is None:
                    continue
                header = {"id": None, "version": "0", "fragmentary": False}
                seen: set = set()
                for hkey, hkey_node, hvalue in model_items:
                    if hkey in _HEADER_KEYS and parser.repeated(hkey_node, hkey, seen,
                                                                "model header", hvalue):
                        continue
                    if hkey == "id":
                        header["id"] = parser.string(hvalue, "model id")
                    elif hkey == "version":
                        header["version"] = parser.string(hvalue, "model version") or "0"
                    elif hkey == "fragmentary":
                        header["fragmentary"] = bool(parser.boolean(hvalue, "fragmentary"))
                    else:
                        parser.unknown_key(hkey_node, hkey, "model header", hvalue)
                if not any(hkey == "id" for hkey, _, _ in model_items):
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
                parser.unknown_key(key_node, key, "document", value)

    if header is None or header["id"] is None:
        diags.append(ParseDiagnostic(
            Severity.ERROR, "model-header", "no model header found in any document",
            documents[0][0]))

    structural: list[ParseDiagnostic] = []
    for problem in find_structural_problems(GsnModel("", modules=modules)):
        loc = None
        if problem.code == "duplicate-id" and problem.elements:
            loc = duplicate_locations.get(problem.elements[0])
        if loc is None:
            for eid in problem.elements:
                loc = element_locations.get(eid)
                if loc is not None:
                    break
        structural.append(ParseDiagnostic(
            Severity.ERROR, problem.code, problem.message,
            loc.file if loc else documents[0][0],
            loc.line if loc else 1,
            loc.column if loc else 1))
    # Repeated item and artifact ids go after the repeated element ids, which come first.
    cut = sum(d.code == "duplicate-id" for d in structural)
    diags += structural[:cut]
    for where in (*(f"registry '{name}'" for name in _REGISTRY_NAMES), "artifacts"):
        diags += repeated_ids.get(where, [])
    diags += structural[cut:]

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


# -- comparison ------------------------------------------------------


def outcome(parse, documents: list[tuple[str, str]], lenient: bool):
    """Diagnostics in order, the canonical dict, and the location of every
    element, registry item and artifact."""
    model, diags = parse(documents, lenient=lenient)
    diag_tuples = [(d.severity, d.code, d.message, d.file, d.line, d.column) for d in diags]
    if model is None:
        return diag_tuples, None, None
    locations = [(m.id, e.id, e.location) for m in model.modules for e in m.elements]
    locations += [(name, item.id, item.location) for name in _REGISTRY_NAMES
                  for item in getattr(model.registries, name)]
    locations += [("artifacts", a.id, a.location) for a in model.artifacts]
    return diag_tuples, canonical_dict(model), locations


def assert_same(documents: list[tuple[str, str]], context) -> None:
    for lenient in (False, True):
        assert outcome(parse_model, documents, lenient) == \
            outcome(reference_parse_model, documents, lenient), (context, lenient, documents)


def fixture_documents() -> list[tuple[str, list[tuple[str, str]]]]:
    groups = list(good_fixture_groups())
    groups += [(path.stem, [path]) for path in bad_fixture_paths()]
    return [(name, [(str(p), p.read_text(encoding="utf-8")) for p in paths])
            for name, paths in groups]


def test_fixtures_match_reference():
    for name, documents in fixture_documents():
        assert_same(documents, name)


# -- seeded mutations ------------------------------------------------

_WRONG = (["x"], {"k": "v"}, "bogus", 7, True, None, "")
_REQUIRED = ("id", "kind", "role", "target", "relation", "confidence_goal")


def _slots(data) -> list[tuple[object, object]]:
    """Every (container, key-or-index) pair in a plain-data tree."""
    out = []
    stack = [data]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            continue
        for key, value in items:
            out.append((node, key))
            stack.append(value)
    return out


def mutate(data, rng: random.Random) -> None:
    """One to three edits: a wrong-typed value, a deleted key or entry, a
    required key made unreadable, or an unknown key."""
    for _ in range(rng.randint(1, 3)):
        slots = _slots(data)
        edit = rng.choice(("wrong-type", "delete", "unreadable", "unknown"))
        if edit == "unreadable":
            slots = [(c, k) for c, k in slots if k in _REQUIRED]
        if edit == "unknown":
            mappings = [data] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            rng.choice(mappings)[f"extra_{rng.randint(0, 9)}"] = copy.deepcopy(rng.choice(_WRONG))
            continue
        if not slots:
            continue
        container, key = rng.choice(slots)
        if edit == "delete":
            del container[key]
        elif edit == "unreadable":
            container[key] = rng.choice((["x"], {"k": "v"}))
        else:
            container[key] = copy.deepcopy(rng.choice(_WRONG))


def second_document(rng: random.Random) -> dict:
    """A companion file: maybe a second header, more elements, registries
    (context_dimensions among them) and artifacts, whose ids may repeat the
    fixtures' own."""
    doc: dict = {}
    if rng.random() < 0.5:
        doc["model"] = {"id": "second", "version": rng.choice(["2", "", None])}
    if rng.random() < 0.5:
        doc["modules"] = [{"id": "m2", "elements": [
            {"id": rng.choice(["G-extra", "G1", "SN1"]), "kind": "goal", "text": "more"}]}]
    registries: dict = {}
    if rng.random() < 0.6:
        registries["context_dimensions"] = rng.sample(["odd", "ops", "spec"], rng.randint(0, 2))
    if rng.random() < 0.4:
        registries["hazards"] = [{"id": rng.choice(["H-extra", "H1"]),
                                  "status": rng.choice(["open", "managed"])}]
    if registries:
        doc["registries"] = registries
    if rng.random() < 0.3:
        doc["artifacts"] = [{"id": rng.choice(["A-extra", "EV1"]), "role": "evidence"}]
    return doc


def loaded_fixtures() -> list[tuple[str, list]]:
    """The fixture groups whose documents all load as mappings, as plain data."""
    bases = []
    for name, documents in fixture_documents():
        try:
            loaded = [yaml.load(text, Loader=_Loader) for _, text in documents]
        except yaml.YAMLError:
            continue
        if all(isinstance(doc, dict) for doc in loaded):
            bases.append((name, loaded))
    return bases


def dumped(docs: list) -> list[tuple[str, str]]:
    """Plain-data documents as YAML; an object shared within one document
    is written once with an anchor and then as aliases."""
    return [(f"doc{i}.sac.yaml", yaml.dump(doc, Dumper=_Dumper, sort_keys=False))
            for i, doc in enumerate(docs)]


def mutated_cases(count: int, seed: int):
    rng = random.Random(seed)
    bases = loaded_fixtures()
    for case in range(count):
        name, loaded = rng.choice(bases)
        docs = copy.deepcopy(loaded)
        if rng.random() < 0.3:
            docs.append(second_document(rng))
        mutate(rng.choice(docs), rng)
        yield f"{name}#{case}", dumped(docs)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_mutations_match_reference(seed):
    for context, documents in mutated_cases(250, seed):
        assert_same(documents, context)


# -- aliases ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_aliased_collections_match_reference(data):
    """Anchors and aliases at random collection positions of a fixture, some
    of them making a collection contain itself: both parsers return the same
    diagnostics, an `alias` for each alias to a collection that is read,
    and neither raises."""
    name, loaded = data.draw(st.sampled_from(loaded_fixtures()))
    docs = copy.deepcopy(loaded)
    slots = _slots(docs)  # taken before any edit: an edit may make the data cyclic
    collections = [(c, k) for c, k in slots if isinstance(c[k], (dict, list))]
    for _ in range(data.draw(st.integers(1, 3))):
        source, key = data.draw(st.sampled_from(collections))
        target, slot = data.draw(st.sampled_from(slots))
        target[slot] = source[key]
    documents = dumped(docs)
    assert_same(documents, name)
    model, diags = parse_model(documents)
    assert (model is None) == any(d.severity is Severity.ERROR for d in diags)


def aliased_cases(count: int, seed: int):
    """Seeded fixtures with one to four collections shared: each is written
    where it first occurs with an anchor, and as an alias after that.  The
    first occurrence may be a new unknown key's value or a scalar's slot,
    which is skipped; an alias to it where a collection is read is still an
    Error `alias`."""
    rng = random.Random(seed)
    bases = loaded_fixtures()
    for case in range(count):
        name, loaded = rng.choice(bases)
        docs = copy.deepcopy(loaded)
        mutate(rng.choice(docs), rng)
        slots = _slots(docs)  # taken before any edit: an edit may make the data cyclic
        collections = [(c, k) for c, k in slots if isinstance(c[k], (dict, list))]
        scalars = [(c, k) for c, k in slots if isinstance(c[k], str)]
        for _ in range(rng.randint(1, 4)):
            source, key = rng.choice(collections)
            target, slot = rng.choice(slots)
            where = rng.random()
            if where < 0.3:
                target, slot = rng.choice(docs), f"extra_{rng.randint(0, 9)}"
            elif where < 0.5 and scalars:
                target, slot = rng.choice(scalars)
            if isinstance(target, dict) or isinstance(slot, int):
                target[slot] = source[key]
        yield f"{name}#{case}", dumped(docs)


# -- text-level cases ------------------------------------------------

HEADER = "model: {id: demo}\n"


def parse_same(text: str) -> GsnModel:
    documents = [("case.sac.yaml", text)]
    assert_same(documents, text)
    model, diags = parse_model(documents)
    assert model is not None, diags
    return model


def test_repeated_elements_key_in_a_module_appends():
    model = parse_same(HEADER + """\
modules:
  - id: m
    elements:
      - {id: G1, kind: goal, supported_by: [SN1]}
    elements:
      - {id: SN1, kind: solution}
""")
    assert [e.id for e in model.modules[0].elements] == ["G1", "SN1"]


_MODULE = "modules:\n  - id: m\n    elements:\n"

#: Record kind, as diagnostics name it -> a document whose second `<key>` (the one on the line
#: marked `# repeated`) repeats a key that does not append.
_REPEATED_KEYS = {
    "model header": "model:\n  id: d\n  id: e  # repeated\n",
    "element entry": HEADER + _MODULE + """\
      - id: G1
        kind: goal
        text: first
        text: second  # repeated
""",
    "acp entry": HEADER + _MODULE + """\
      - id: G1
        kind: goal
        supported_by: [S1]
      - id: S1
        kind: strategy
        supported_by: [G2]
        acp:
          - target: G2
            relation: supported_by
            confidence_goal: G3
            target: G1  # repeated
      - {id: G2, kind: goal, undeveloped: true}
      - {id: G3, kind: goal, undeveloped: true}
""",
    "module entry": HEADER + """\
modules:
  - id: m
    id: n  # repeated
    elements: [{id: G1, kind: goal}]
""",
    "registry item": HEADER + """\
registries:
  hazards:
    - id: H1
      description: a
      description: b  # repeated
""",
    "artifact entry": HEADER + """\
artifacts:
  - id: A1
    role: evidence
    role: context_doc  # repeated
""",
}


@pytest.mark.parametrize("where", sorted(_REPEATED_KEYS))
def test_repeated_key_is_a_duplicate_key_error(where):
    text = _REPEATED_KEYS[where]
    documents = [("case.sac.yaml", text)]
    assert_same(documents, text)
    line_no, line = next((n, line) for n, line in enumerate(text.splitlines(), 1)
                         if line.endswith("# repeated"))
    key = line.split(":")[0].strip()
    for lenient in (False, True):
        model, diags = parse_model(documents, lenient=lenient)
        assert model is None
        assert [(d.severity, d.code, d.message, d.line, d.column) for d in diags] == [
            (Severity.ERROR, "duplicate-key", f"duplicate key '{key}' in {where}",
             line_no, line.index(key) + 1)]


def test_repeated_registry_lists_and_sections_append():
    model = parse_same(HEADER + """\
registries:
  hazards:
    - {id: H1}
  hazards:
    - {id: H2}
  context_dimensions: [odd]
  context_dimensions: [ops]
registries:
  context_dimensions: [spec]
modules:
  - {id: m1, elements: [{id: G1, kind: goal}]}
modules:
  - {id: m2, elements: [{id: G2, kind: goal}]}
""")
    assert model.registries.item_ids("hazards") == ["H1", "H2"]
    assert model.registries.context_dimensions == ["odd", "ops", "spec"]
    assert [m.id for m in model.modules] == ["m1", "m2"]


@pytest.mark.parametrize("text", [
    "model: &H {id: d}\nmodel: *H\n",
    "modules: [{id: m, elements: [&H {id: G, kind: goal}]}]\nmodel: *H\nmodel: {id: d}\n",
    alias_document(5),
], ids=["second-header", "header-after-element", "amplifying"])
def test_text_level_aliases_match_reference(text):
    assert_same([("case.sac.yaml", text)], text)


@pytest.mark.parametrize("version", ["version: ''", "version:"])
def test_empty_version_reads_as_zero(version):
    model = parse_same(f"model:\n  id: demo\n  {version}\n")
    assert model.version == "0"


@pytest.mark.parametrize("where, text", [
    ("registry item", HEADER + "registries:\n  hazards:\n    - {id: H1, location: x}\n"),
    ("artifact entry", HEADER + "artifacts:\n  - {id: A1, role: evidence, location: x}\n"),
])
def test_location_is_no_key_of_a_located_record(where, text):
    documents = [("case.sac.yaml", text)]
    assert_same(documents, text)
    for lenient, severity in ((False, Severity.ERROR), (True, Severity.WARNING)):
        model, diags = parse_model(documents, lenient=lenient)
        assert [(d.severity, d.code, d.message) for d in diags] == [
            (severity, "unknown-key", f"unknown key 'location' in {where}")]
        assert (model is None) is not lenient
