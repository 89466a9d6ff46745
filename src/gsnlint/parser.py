"""Reader and writer for the `.sac.yaml` argumentation model format.

Documents are composed into lean node trees (not plain-loaded) so every
diagnostic can point at the line and column of the offending construct:
`_Lean` builds one slotted `_Node` per YAML node from the loader's events,
with no `Mark` objects, and `parse_model` still composes through
`yaml.compose`.  All diagnostics in a batch of documents are collected
before giving up; a model is only produced when no Error-level diagnostic
was found.

Parsing is table-driven.  Each record kind (element, assurance claim
point, module, the four registry items, artifact, model header, and the
registries section) has one `_Spec`: it maps every YAML key to a field
name, a reader and the label used in diagnostics, and names the required
keys.  `_DocParser.record` is the one walker that reads a mapping against
a spec; `_DocParser.records` reads a sequence of entries.  A reader is any
callable ``(parser, node, label) -> value`` that reports its own
diagnostics and returns ``None`` for a value it cannot read; scalars,
booleans, enumerations, lists of them, and specs themselves are readers.
Fields that read as ``None`` are left to the dataclass default.  A key
repeated in one mapping is an Error `duplicate-key`, even when lenient,
and its second value is not read, unless its `_Key` appends (module
elements, registry lists, context dimensions).  Elements, registry items
and artifacts keep their mapping's location: the structural guard reports
a repeated id there, after every per-document diagnostic.  Each collection's
entries are detached from its node when it is read, and each sequence
entry leaves its list before it is read, so the node tree is freed while
the model grows; a collection that a YAML alias brings back is then an
Error `alias` at the collection itself, since an alias composes to the
anchored node and keeps no position of its own.
"""

from __future__ import annotations

import enum
import gc
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, get_type_hints

import yaml

from .findings import ParseDiagnostic, Severity
from .model import (
    REGISTRY_ITEMS,
    Artifact,
    ArgumentType,
    AssuranceClaimPoint,
    ElementKind,
    GsnElement,
    GsnModel,
    GsnModule,
    Registries,
    RoleTag,
    SourceLocation,
    _modules_dict,
    _registries_dict,
    canonical_dict,
    find_structural_problems,
)


#: The deepest a document's nodes may nest (a valid model nests 8 deep).  The
#: composer keeps its own stack and does not recurse, but the limit stays the
#: documented contract: a deeper document is refused as it is composed.
MAX_DEPTH = 256

_SCALAR, _SEQUENCE, _MAPPING = yaml.ScalarNode, yaml.SequenceNode, yaml.MappingNode
_Resolver = yaml.resolver.BaseResolver
#: The kind and default tag of the node that each kind of event starts.
_KINDS = {yaml.ScalarEvent: (_SCALAR, _Resolver.DEFAULT_SCALAR_TAG),
          yaml.SequenceStartEvent: (_SEQUENCE, _Resolver.DEFAULT_SEQUENCE_TAG),
          yaml.MappingStartEvent: (_MAPPING, _Resolver.DEFAULT_MAPPING_TAG)}


class _Node:
    """One composed YAML node.  `kind` is `yaml.ScalarNode`, `yaml.SequenceNode`
    or `yaml.MappingNode`; `value` is a scalar's text, a sequence's entries, or
    a mapping's keys and values in turn in one flat list; `line` and `column`
    are 0-based, where the node starts.  The composer sets the fields one by
    one: a Python `__init__` would cost twice as much per node."""

    __slots__ = ("kind", "tag", "value", "line", "column")


class _Lean:
    """A composer for a safe loader that builds `_Node`s from the loader's own
    events: one slotted node per YAML node and no `Mark` kept, with an
    explicit stack of the open collections in place of recursion.  Tags
    resolve as the safe loaders resolve them.  It refuses what libyaml's
    composer refuses, with libyaml's messages and marks (an undefined alias,
    a duplicate anchor, a second document), and a node deeper than
    `MAX_DEPTH` at the start of the collection that holds it."""

    def get_single_node(self) -> Optional[_Node]:
        get_event = self.get_event
        get_event()  # the stream start
        event = get_event()
        root = None
        if type(event) is yaml.DocumentStartEvent:
            event = get_event()
            root_mark = event.start_mark
            root = self._compose(event)
            get_event()  # the document end
            event = get_event()
        if type(event) is not yaml.StreamEndEvent:
            raise yaml.composer.ComposerError(
                "expected a single document in the stream", root_mark,
                "but found another document", event.start_mark)
        return root

    def _compose(self, event) -> _Node:
        """The node that `event` starts, read to its last event."""
        get_event, resolvers = self.get_event, self.yaml_implicit_resolvers
        anchors: dict = {}  # anchor -> (its node, its start mark)
        stack: list = []  # per open collection: its parent's entries, its start mark
        entries: list = []  # the innermost open collection's entries
        while True:
            kind_tag = _KINDS.get(type(event))
            if kind_tag is None:
                if type(event) is yaml.AliasEvent:
                    if event.anchor not in anchors:
                        raise yaml.composer.ComposerError(
                            None, None, "found undefined alias", event.start_mark)
                    entries.append(anchors[event.anchor][0])
                else:  # the end of the innermost collection
                    entries = stack.pop()[0]
            else:
                kind, tag = kind_tag
                mark, anchor = event.start_mark, event.anchor
                if anchor in anchors:
                    raise yaml.composer.ComposerError(
                        "found duplicate anchor; first occurrence", anchors[anchor][1],
                        "second occurrence", mark)
                if len(stack) >= MAX_DEPTH:
                    raise yaml.composer.ComposerError(
                        None, None, f"document nests deeper than {MAX_DEPTH} levels",
                        stack[-1][1])
                explicit = event.tag
                if explicit is not None and explicit != "!":
                    tag = explicit
                elif kind is _SCALAR and event.implicit[0]:
                    value = event.value
                    for resolved, regexp in resolvers.get(value[:1], ()):
                        if regexp.match(value):
                            tag = resolved
                            break
                node = _Node()
                node.kind, node.tag, node.line, node.column = kind, tag, mark.line, mark.column
                entries.append(node)
                if kind is _SCALAR:
                    node.value = event.value
                else:
                    node.value = []
                    stack.append((entries, mark))
                    entries = node.value
                if anchor is not None:
                    anchors[anchor] = node, mark
            if not stack:
                return entries[0]
            event = get_event()


class _Loader(_Lean, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The lean composer on libyaml's safe loader, or PyYAML's where it is missing."""


_CDumper = getattr(yaml, "CSafeDumper", None)
_DUMP_OPTIONS = dict(sort_keys=False, default_flow_style=False, allow_unicode=True, width=100)

# An explicit `!!bool` tag skips the resolver, so its value is checked here.
_BOOL_VALUES = yaml.constructor.SafeConstructor.bool_values


class _DocParser:
    """Per-document node-tree walker accumulating diagnostics."""

    def __init__(self, path: str, lenient: bool, diags: list[ParseDiagnostic]):
        self.path = path
        self.lenient = lenient
        self.diags = diags

    # -- diagnostics --------------------------------------------------

    def error(self, node, code: str, message: str, severity=Severity.ERROR) -> None:
        loc = self.location(node)
        self.diags.append(ParseDiagnostic(severity, code, message, loc.file, loc.line, loc.column))

    def unknown_key(self, key_node, key: str, where: str) -> None:
        self.error(key_node, "unknown-key", f"unknown key '{key}' in {where}",
                   Severity.WARNING if self.lenient else Severity.ERROR)

    def location(self, node) -> SourceLocation:
        return SourceLocation(self.path, node.line + 1, node.column + 1)

    # -- node coercion ------------------------------------------------

    def take(self, node, kind, where: str) -> Optional[list]:
        """The entries of a `kind` collection node (a mapping's keys and
        values in turn), detached from it; ``None`` and `bad-type` for
        another node, or `alias` when an alias brings back a collection
        already taken."""
        if node.kind is not kind:
            self.error(node, "bad-type", f"{where} must be a {kind.id}")
            return None
        value = node.value
        if value is None:
            self.error(node, "alias", f"{where} is an alias to a collection read before")
            return None
        node.value = None
        return value

    def string(self, node, where: str) -> Optional[str]:
        if node.kind is not _SCALAR or node.tag.endswith((":map", ":seq")):
            self.error(node, "bad-type", f"{where} must be a scalar")
            return None
        return node.value

    def boolean(self, node, where: str) -> Optional[bool]:
        if node.kind is _SCALAR and node.tag == "tag:yaml.org,2002:bool":
            value = _BOOL_VALUES.get(node.value.lower())
            if value is not None:
                return value
        self.error(node, "bad-type", f"{where} must be a boolean")
        return None

    def enum(self, node, enum_cls, where: str):
        raw = self.string(node, where)
        if raw is None:
            return None
        member = enum_cls._value2member_map_.get(raw)
        if member is None:
            allowed = ", ".join(enum_cls._value2member_map_)
            self.error(node, "unknown-enum",
                       f"unknown enumeration value '{raw}' for {where} (expected one of: {allowed})")
        return member

    # -- records ------------------------------------------------------

    def records(self, node, where: str, read: _Reader,
                entry_where: Optional[str] = None) -> list:
        """Read every entry of a sequence; entries that do not read are skipped."""
        entry_where = entry_where or f"entry of {where}"
        entries = self.take(node, _SEQUENCE, where) or ()
        out = []
        for i, entry in enumerate(entries):
            entries[i] = None  # lower peak RSS: the model reuses each freed entry
            value = read(self, entry, entry_where)
            if value is not None:
                out.append(value)
        return out

    def record(self, node, spec: _Spec):
        """Read one mapping against `spec`; ``None`` when it cannot be built."""
        entries = self.take(node, _MAPPING, spec.where)
        if entries is None:
            return None
        values: dict = {"location": self.location(node)} if spec.located else {}
        keys = spec.keys
        for key_node, value_node in _pairs(entries):
            key = _key_name(key_node)
            entry = keys.get(key)
            if entry is None:
                self.unknown_key(key_node, key, spec.where)
                continue
            field, read, label, append = entry
            if field not in values:
                values[field] = read(self, value_node, label)
            elif append:
                values[field] += read(self, value_node, label)
            else:
                self.error(key_node, "duplicate-key", f"duplicate key '{key}' in {spec.where}")
        if None in map(values.get, spec.required):
            if not all(key in values for key in spec.required):
                self.error(node, "missing-key", spec.missing_message)
            return None
        if None in values.values():
            values = {k: v for k, v in values.items() if v is not None}
        return spec.build(**values)


def _key_name(node) -> str:
    """A mapping key as the spec tables and diagnostics name it."""
    return node.value if node.kind is _SCALAR else "<non-scalar>"


def _pairs(entries: list):
    """(key node, value node) of a mapping's flat entries."""
    keys_and_values = iter(entries)
    return zip(keys_and_values, keys_and_values)


_Reader = Callable[[_DocParser, _Node, str], object]


class _Key(NamedTuple):
    """How one YAML key of a record reads."""

    field: str
    read: _Reader
    label: str
    append: bool = False  # a repeated key extends the field; otherwise it is `duplicate-key`


@dataclass(frozen=True)
class _Spec:
    """One record kind: its keys, how it is built, and its required keys.

    A record whose required key is absent gets `missing-key`; one whose
    required key is present but unreadable is dropped on the strength of
    that value's own diagnostic.
    """

    where: str
    build: Callable[..., object]
    keys: dict[str, _Key]
    required: tuple[str, ...] = ()
    located: bool = False  # pass the mapping's SourceLocation as `location`

    @property
    def missing_message(self) -> str:
        quoted = [f"'{key}'" for key in self.required]
        listed = (" and ".join(quoted) if len(quoted) < 3
                  else ", ".join(quoted[:-1]) + ", and " + quoted[-1])
        return f"{self.where} requires {listed}"

    def __call__(self, parser: _DocParser, node, label: str):
        return parser.record(node, self)


def _enum(enum_cls) -> _Reader:
    return lambda parser, node, label: parser.enum(node, enum_cls, label)


def _list(read: _Reader, entry_label: Optional[str] = None) -> _Reader:
    return lambda parser, node, label: parser.records(node, label, read, entry_label)


def _dataclass_spec(cls, where: str, label: str, required: tuple[str, ...]) -> _Spec:
    """A spec whose keys are `cls`'s fields: enum-typed ones read as enums,
    the rest as scalars; `label` is formatted with the key.  A `location`
    field is no key: the record is read `located`."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        kind = hints[f.name]
        read = (_enum(kind) if isinstance(kind, type) and issubclass(kind, enum.Enum)
                else _DocParser.string)
        keys[f.name] = _Key(f.name, read, label.format(f.name))
    located = keys.pop("location", None) is not None
    return _Spec(where, cls, keys, required, located=located)


_STRINGS = _list(_DocParser.string)

_ACP = _dataclass_spec(AssuranceClaimPoint, "acp entry", "acp {}",
                       ("target", "relation", "confidence_goal"))

_ELEMENT = _Spec("element entry", GsnElement, {
    "id": _Key("id", _DocParser.string, "element id"),
    "kind": _Key("kind", _enum(ElementKind), "element kind"),
    "text": _Key("text", _DocParser.string, "element text"),
    "undeveloped": _Key("undeveloped", _DocParser.boolean, "undeveloped"),
    "argument_type": _Key("argument_type", _enum(ArgumentType), "argument_type"),
    "roles": _Key("roles", _list(_enum(RoleTag), "role"), "roles"),
    "supported_by": _Key("supported_by", _STRINGS, "supported_by"),
    "in_context_of": _Key("in_context_of", _STRINGS, "in_context_of"),
    "traces": _Key("traces", _STRINGS, "traces"),
    "artifacts": _Key("artifacts", _STRINGS, "artifacts"),
    "acp": _Key("acps", _list(_ACP), "acp"),
}, required=("id", "kind"), located=True)

_MODULE = _Spec("module entry", GsnModule, {
    "id": _Key("id", _DocParser.string, "module id"),
    "elements": _Key("elements", _list(_ELEMENT), "elements", append=True),
}, required=("id",))

_REGISTRIES = _Spec("registries", dict, {
    **{name: _Key(name, _list(_dataclass_spec(item_cls, "registry item", "{}", ("id",))),
                  name, append=True)
       for name, item_cls in REGISTRY_ITEMS.items()},
    "context_dimensions": _Key("context_dimensions", _STRINGS, "context_dimensions",
                               append=True),
})

_ARTIFACT = _dataclass_spec(Artifact, "artifact entry", "artifact {}", ("id", "role"))

_HEADER = _Spec("model header", dict, {
    "id": _Key("id", _DocParser.string, "model id"),
    # An empty version reads as None, so it falls back to the default "0".
    "version": _Key("version", lambda parser, node, label: parser.string(node, label) or None,
                    "model version"),
    "fragmentary": _Key("fragmentary", _DocParser.boolean, "fragmentary"),
}, required=("id",))


def parse_model(
    documents: list[tuple[str, str]],
    lenient: bool = False,
) -> tuple[Optional[GsnModel], list[ParseDiagnostic]]:
    """Parse and link one model from one or more documents.

    Returns ``(model, diagnostics)``; the model is ``None`` exactly when at
    least one Error diagnostic was produced.  In lenient mode unknown keys
    demote to warnings.

    The cyclic garbage collector is paused for the call and left as it was
    found: the node tree and the model are many small objects, and the
    collector would rescan them again and again as they grow.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_documents(documents, lenient)
    finally:
        if was_enabled:
            gc.enable()


def _parse_documents(
    documents: list[tuple[str, str]], lenient: bool
) -> tuple[Optional[GsnModel], list[ParseDiagnostic]]:
    diags: list[ParseDiagnostic] = []
    if not documents:
        diags.append(ParseDiagnostic(
            Severity.ERROR, "usage", "no input documents given"))
        return None, diags

    header: Optional[dict] = None
    header_declared = False
    modules: list[GsnModule] = []
    registries: dict[str, list] = {}
    artifacts: list[Artifact] = []

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
        for key_node, value in _pairs(parser.take(root, _MAPPING, "document") or ()):
            key = _key_name(key_node)
            if key == "model":
                is_mapping = value.kind is _MAPPING
                if header_declared and is_mapping:
                    parser.error(key_node, "model-header",
                                 "model header declared more than once")
                    continue
                header_declared = header_declared or is_mapping
                header = parser.record(value, _HEADER) or header
            elif key == "modules":
                modules += parser.records(value, "modules", _MODULE)
            elif key == "registries":
                for name, items in (parser.record(value, _REGISTRIES) or {}).items():
                    registries.setdefault(name, []).extend(items)
            elif key == "artifacts":
                artifacts += parser.records(value, "artifacts", _ARTIFACT)
            else:
                parser.unknown_key(key_node, key, "document")

    if header is None:
        diags.append(ParseDiagnostic(
            Severity.ERROR, "model-header", "no model header found in any document",
            documents[0][0]))

    model = GsnModel(**(header or {"id": ""}), modules=modules,
                     registries=Registries(**registries), artifacts=artifacts)
    for problem in find_structural_problems(model):
        loc = problem.location
        diags.append(ParseDiagnostic(
            Severity.ERROR, problem.code, problem.message, loc.file, loc.line, loc.column))

    if any(d.severity is Severity.ERROR for d in diags):
        return None, diags
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
    return _dump(canonical_dict(model) if include_registries else _modules_dict(model))


def serialize_registries(model: GsnModel) -> str:
    """Registries-plus-artifacts companion document for split output."""
    return _dump(_registries_dict(model))


def _dump(data: dict) -> str:
    """Write a canonical dict as YAML, through libyaml's emitter when it gives
    the pure-Python emitter's bytes.

    That holds when every string (keys too) is printable ASCII, which the
    pure-Python emitter never double-quotes.  On other strings libyaml
    writes different bytes: it escapes astral-plane characters, writes
    U+0085 as ``\\N``, and folds long double-quoted scalars (a tab, or a
    space next to a line break, asks for that style) at other points.
    The pure-Python emitter writes U+0085 unescaped in a single-quoted
    scalar, where a reader takes it for a line break and folds it into a
    space; so a tree holding one is written with all non-ASCII escaped.
    """
    odd = [s for s in _strings(data) if not (s.isascii() and s.isprintable())]
    if any("\x85" in s for s in odd):
        return yaml.dump(data, Dumper=yaml.SafeDumper, **{**_DUMP_OPTIONS, "allow_unicode": False})
    dumper = _CDumper if _CDumper and not odd else yaml.SafeDumper
    return yaml.dump(data, Dumper=dumper, **_DUMP_OPTIONS)


def _strings(data):
    """Every string in a tree of dicts, lists and scalars, keys included."""
    stack = [data]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
        elif isinstance(item, dict):
            stack += item
            stack += item.values()
        elif isinstance(item, list):
            stack += item
