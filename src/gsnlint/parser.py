"""Reader and writer for the `.sac.yaml` argumentation model format.

Each document is read straight from the YAML loader's events into records,
with no node tree, inside one `yaml.compose` call; every diagnostic points
at the line and column where its event starts.  All diagnostics in a batch
of documents are collected before giving up; a model is only produced when
no Error-level diagnostic was found.  A document that YAML refuses (a
scanner or reader error, an undefined alias, a duplicate anchor, a second
document, a node deeper than `MAX_DEPTH`) gives one `syntax` diagnostic.

Parsing is table-driven.  Each record kind (element, assurance claim
point, module, the four registry items, artifact, model header, and the
registries section) has one `_Spec`: it maps every YAML key to a field
name, a reader and the label used in diagnostics, and names the required
keys.  A reader is any callable ``(parser, event, label) -> value`` that
gets the event starting its value, reads or skips the rest of the value,
reports its own diagnostics and returns ``None`` for a value it cannot
read; fields that read as ``None`` are left to the dataclass default.  A
key repeated in one mapping is an Error `duplicate-key`, even when
lenient, and its second value is not read, unless its `_Key` appends.

Only scalars may be aliased: an alias to a scalar reads as the scalar, and
an alias to a collection, read, open or skipped, is an Error `alias` at the
anchored collection.  So a skipped value keeps none of its events.

A document is a `str` or an open text file; a file is read in chunks as
its events are pulled, so its text is never held whole.  A file that cannot
be read to its end, for example one that is not UTF-8, gives an `io`
diagnostic, and then only `io` diagnostics are returned.

The model holds each value once: equal strings read in one `parse_model`
call are one object, and so are equal tuples of roles, traces or artifacts.
Each document's loader is dropped when its read ends, and the tables of
shared values before the structural guards run.
"""

from __future__ import annotations

import contextlib
import enum
import gc
import io
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, TextIO, Union, get_type_hints

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


#: The deepest a document's nodes may nest (a valid model nests 8 deep); a
#: deeper document is refused as it is read.
MAX_DEPTH = 256

#: libyaml's safe loader, or PyYAML's pure-Python one where libyaml is missing.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_SCALAR, _SEQUENCE, _MAPPING = yaml.ScalarEvent, yaml.SequenceStartEvent, yaml.MappingStartEvent
_SEQUENCE_END, _MAPPING_END, _ALIAS = yaml.SequenceEndEvent, yaml.MappingEndEvent, yaml.AliasEvent
_NOUNS = {_SEQUENCE: "sequence", _MAPPING: "mapping"}

_CDumper = getattr(yaml, "CSafeDumper", None)
_DUMP_OPTIONS = dict(sort_keys=False, default_flow_style=False, allow_unicode=True, width=100)

# An explicit `!!bool` tag skips the resolver, so its value is checked here.
_BOOL_VALUES = yaml.constructor.SafeConstructor.bool_values
#: A scalar reads only untagged, as the non-specific `!`, or with a tag
#: `yaml.SafeLoader` constructs as a scalar; the same text reads alike on both backends.
_SCALAR_TAGS = frozenset({None, "!", *(f"tag:yaml.org,2002:{name}" for name in (
    "str", "int", "float", "bool", "null", "timestamp", "binary"))})
#: A scalar the safe loaders construct as null reads as "", as an empty one does:
#: one tagged `!!null`, or an implicit one (plain, or tagged `!`) with one of these values.
_NULL_TAG = "tag:yaml.org,2002:null"
_NULL_VALUES = frozenset({"~", "null", "Null", "NULL"})

#: How much of a file is read at a time, in characters, once the loader stops.
_CHUNK = 1 << 16


class _Text:
    """An open text document as the loader reads it: in chunks, and named as
    PyYAML names a `str`, so libyaml's messages read alike.  A read that
    fails ends the text and keeps its reason in `failure`.  A document that
    cannot seek is read whole at once, so that a reader error can be placed."""

    name = "<unicode string>"

    def __init__(self, handle: TextIO):
        self.handle, self.failure = handle, None
        if not handle.seekable():
            self.handle = io.StringIO(self.read())

    def read(self, size: int = -1) -> str:
        try:
            return self.handle.read(size)
        except UnicodeDecodeError:
            self.failure = "not UTF-8 text"
        except OSError as exc:
            self.failure = str(exc.strerror)
        return ""

    def drain(self) -> Optional[str]:
        """Read what the loader left, so a failure past a YAML error is found;
        the reason the document cannot be read, if it cannot."""
        while self.read(_CHUNK):
            pass
        return self.failure

    def whole(self) -> str:
        """The text again, from its start."""
        self.handle.seek(0)
        return self.read()


class _DocParser:
    """Reads one document's events into records and diagnostics, kept here
    until `parse_model` takes them after a clean end of stream.  It is the
    loader of `yaml.compose(text, Loader=parser.loader)`, and each reader
    reads or skips all of its value's events."""

    def __init__(self, path: str, lenient: bool, header_declared: bool,
                 strings: dict, sets: dict):
        self.path, self.lenient = path, lenient
        # The one object per distinct string, and per distinct set of each set
        # reader, read in a `parse_model` call.
        self.share, self.sets = strings.setdefault, sets
        self.diags: list[ParseDiagnostic] = []
        self.header_declared = header_declared
        self.header: Optional[dict] = None
        self.parts: list[dict] = []  # lists of modules, artifacts or registry items, by name
        self.anchors: dict = {}  # anchor -> its scalar or collection start event
        self.open: list = []  # the start marks of the loader's open collections

    def loader(self, stream: Union[str, _Text]) -> _DocParser:
        self.pull = _Loader(stream).get_event
        return self

    def dispose(self) -> None:
        """Dispose of the loader as `yaml.compose` returns, and drop it, so its
        copy of the text and libyaml's buffers are freed before the next step."""
        self.pull.__self__.dispose()
        del self.pull

    def get_single_node(self) -> None:
        """Read the document's sections into `header` and `parts`."""
        pull = self.pull
        pull()  # the stream start
        if type(pull()) is not yaml.DocumentStartEvent:
            self.diags.append(ParseDiagnostic(
                Severity.ERROR, "syntax", "document is empty", self.path))
            return
        root = self.next()
        if self.take(root, _MAPPING, "document"):
            for key_event, key, value in self.pairs():
                declares = key == "model" and type(self.start(value)) is _MAPPING
                if declares and self.header_declared:
                    self.error(key_event, "model-header", "model header declared more than once")
                    self.skip(value)
                elif key == "model":
                    self.header_declared |= declares
                    self.header = self.record(value, _HEADER) or self.header
                elif key in ("modules", "artifacts"):
                    self.parts.append({key: self.records(value, key, _SECTIONS[key])})
                elif key == "registries":
                    self.parts.append(self.record(value, _REGISTRIES) or {})
                else:
                    self.unknown_key(key_event, key, "document", value)
        pull()  # the document end
        event = pull()
        if type(event) is not yaml.StreamEndEvent:
            raise yaml.composer.ComposerError(
                "expected a single document in the stream", root.start_mark,
                "but found another document", event.start_mark)

    # -- events, diagnostics and values ---------------------------------

    def next(self):
        """The loader's next event, where an undefined alias and a duplicate
        anchor are refused with libyaml's messages and marks, and a node past
        `MAX_DEPTH` at the collection holding it."""
        event = self.pull()
        kind = type(event)
        if kind is _ALIAS:
            target = self.anchors.get(event.anchor)
            if target is None:
                raise yaml.composer.ComposerError(
                    None, None, "found undefined alias", event.start_mark)
            if type(target) is _SCALAR:
                return target
            event.start_mark = target.start_mark  # diagnostics place it at the collection
            return event
        if kind is _SEQUENCE_END or kind is _MAPPING_END:
            self.open.pop()
            return event
        if len(self.open) >= MAX_DEPTH:
            raise yaml.composer.ComposerError(
                None, None, f"document nests deeper than {MAX_DEPTH} levels", self.open[-1])
        anchor = event.anchor
        if anchor is not None:
            first = self.anchors.setdefault(anchor, event)
            if first is not event:
                raise yaml.composer.ComposerError(
                    "found duplicate anchor; first occurrence", first.start_mark,
                    "second occurrence", event.start_mark)
        if kind is not _SCALAR:
            self.open.append(event.start_mark)
        return event

    def start(self, event):
        """The event that starts the value `event` stands for."""
        return self.anchors[event.anchor] if type(event) is _ALIAS else event

    def skip(self, event) -> None:
        """Consume the events of a value that is not read, keeping none."""
        if type(event) in _NOUNS:  # no events follow a scalar or an alias
            still_open, depth, next_event = self.open, len(self.open), self.next
            while len(still_open) >= depth:
                next_event()

    def error(self, event, code: str, message: str, severity=Severity.ERROR) -> None:
        loc = self.location(event)
        self.diags.append(ParseDiagnostic(severity, code, message, loc.file, loc.line, loc.column))

    def unknown_key(self, key_event, key: str, where: str, value) -> None:
        """Report an unknown key and skip its value."""
        self.error(key_event, "unknown-key", f"unknown key '{key}' in {where}",
                   Severity.WARNING if self.lenient else Severity.ERROR)
        self.skip(value)

    def location(self, event) -> SourceLocation:
        mark = event.start_mark
        return SourceLocation(self.path, mark.line + 1, mark.column + 1)

    def take(self, event, kind, where: str) -> bool:
        """Whether `event` starts a `kind` collection to read, else `bad-type`, or
        `alias` for an alias to one."""
        if type(self.start(event)) is not kind:
            self.error(event, "bad-type", f"{where} must be a {_NOUNS[kind]}")
        elif type(event) is _ALIAS:
            self.error(event, "alias",
                       f"{where} is an alias to a collection; only scalars may be aliased")
        else:
            return True
        self.skip(event)
        return False

    def string(self, event, where: str) -> Optional[str]:
        if type(event) is _SCALAR and (tag := event.tag) in _SCALAR_TAGS:
            value = event.value
            if (value in _NULL_VALUES and tag in (None, "!") and event.implicit[0]
                    or tag is not None and tag == _NULL_TAG):
                return ""
            return self.share(value, value)
        tagged = f", not tagged '{event.tag}'" if type(event) is _SCALAR else ""
        self.error(event, "bad-type", f"{where} must be a scalar{tagged}")
        self.skip(event)
        return None

    def boolean(self, event, where: str) -> Optional[bool]:
        if type(event) is _SCALAR:
            tag, value = event.tag, event.value
            if tag in (None, "!") and event.implicit[0]:  # resolved as the safe loaders do
                resolvers = yaml.resolver.Resolver.yaml_implicit_resolvers.get(value[:1], ())
                tag = next((t for t, regexp in resolvers if regexp.match(value)), None)
            if tag == "tag:yaml.org,2002:bool" and value.lower() in _BOOL_VALUES:
                return _BOOL_VALUES[value.lower()]
        self.error(event, "bad-type", f"{where} must be a boolean")
        self.skip(event)
        return None

    def enum(self, event, enum_cls, where: str):
        raw = self.string(event, where)
        if raw is None:
            return None
        member = enum_cls._value2member_map_.get(raw)
        if member is None:
            allowed = ", ".join(enum_cls._value2member_map_)
            self.error(event, "unknown-enum",
                       f"unknown enumeration value '{raw}' for {where} (expected one of: {allowed})")
        return member

    # -- records ------------------------------------------------------

    def records(self, event, where: str, read: _Reader, entry_where: Optional[str] = None) -> list:
        """Read every entry of a sequence; entries that do not read are skipped."""
        out = []
        if self.take(event, _SEQUENCE, where):
            entry_where = entry_where or f"entry of {where}"
            next_event = self.next
            while type(entry := next_event()) is not _SEQUENCE_END:
                value = read(self, entry, entry_where)
                if value is not None:
                    out.append(value)
        return out

    def pairs(self):
        """(key event, key, value event) of the mapping just taken; the caller
        reads or skips each value.  A collection as key is named '<non-scalar>'."""
        next_event = self.next
        while type(key_event := next_event()) is not _MAPPING_END:
            if type(key_event) is _SCALAR:
                key = key_event.value
            else:
                key = "<non-scalar>"
                self.skip(key_event)
            yield key_event, key, next_event()

    def record(self, event, spec: _Spec):
        """Read one mapping against `spec`; ``None`` when it cannot be built."""
        if not self.take(event, _MAPPING, spec.where):
            return None
        values: dict = {"location": self.location(event)} if spec.located else {}
        keys = spec.keys
        for key_event, key, value_event in self.pairs():
            entry = keys.get(key)
            if entry is None:
                self.unknown_key(key_event, key, spec.where, value_event)
                continue
            field, read, label, append = entry
            if field not in values:
                values[field] = read(self, value_event, label)
            elif append:
                values[field] += read(self, value_event, label)
            else:
                self.error(key_event, "duplicate-key", f"duplicate key '{key}' in {spec.where}")
                self.skip(value_event)
        if None in map(values.get, spec.required):
            if not all(key in values for key in spec.required):
                self.error(event, "missing-key", spec.missing_message)
            return None
        if None in values.values():
            values = {k: v for k, v in values.items() if v is not None}
        return spec.build(**values)


_Reader = Callable[[_DocParser, object, str], object]


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

    def __call__(self, parser: _DocParser, event, label: str):
        return parser.record(event, self)


def _enum(enum_cls) -> _Reader:
    return lambda parser, event, label: parser.enum(event, enum_cls, label)


def _list(read: _Reader, entry_label: Optional[str] = None) -> _Reader:
    return lambda parser, event, label: parser.records(event, label, read, entry_label)


def _set(read: _Reader) -> _Reader:
    """A list reader's values as a sorted tuple holding each value once, one
    object per distinct tuple that `read` gives in a `parse_model` call."""
    def read_set(parser: _DocParser, event, label: str) -> tuple:
        values = tuple(sorted(set(read(parser, event, label))))
        shared = parser.sets.setdefault(read, {})  # ids may equal roles, a `str` enum
        return shared.setdefault(values, values)
    return read_set


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
_STRING_SET = _set(_STRINGS)

_ACP = _dataclass_spec(AssuranceClaimPoint, "acp entry", "acp {}",
                       ("target", "relation", "confidence_goal"))

_ELEMENT = _Spec("element entry", GsnElement, {
    "id": _Key("id", _DocParser.string, "element id"),
    "kind": _Key("kind", _enum(ElementKind), "element kind"),
    "text": _Key("text", _DocParser.string, "element text"),
    "undeveloped": _Key("undeveloped", _DocParser.boolean, "undeveloped"),
    "argument_type": _Key("argument_type", _enum(ArgumentType), "argument_type"),
    "roles": _Key("roles", _set(_list(_enum(RoleTag), "role")), "roles"),
    "supported_by": _Key("supported_by", _STRINGS, "supported_by"),
    "in_context_of": _Key("in_context_of", _STRINGS, "in_context_of"),
    "traces": _Key("traces", _STRING_SET, "traces"),
    "artifacts": _Key("artifacts", _STRING_SET, "artifacts"),
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

_SECTIONS = {"modules": _MODULE, "artifacts": _dataclass_spec(
    Artifact, "artifact entry", "artifact {}", ("id", "role"))}

_HEADER = _Spec("model header", dict, {
    "id": _Key("id", _DocParser.string, "model id"),
    # An empty version reads as None, so it falls back to the default "0".
    "version": _Key("version", lambda parser, event, label: parser.string(event, label) or None,
                    "model version"),
    "fragmentary": _Key("fragmentary", _DocParser.boolean, "fragmentary"),
}, required=("id",))


def parse_model(
    documents: list[tuple[str, Union[str, TextIO]]],
    lenient: bool = False,
) -> tuple[Optional[GsnModel], list[ParseDiagnostic]]:
    """Parse and link one model from one or more (path, document) pairs,
    each document a `str` or an open text file.

    Returns ``(model, diagnostics)``; the model is ``None`` exactly when at
    least one Error diagnostic was produced.  In lenient mode unknown keys
    demote to warnings.  A file that cannot be read to its end gives an
    `io` diagnostic, and then only `io` diagnostics are returned.

    The cyclic garbage collector is paused for the call and left as it was
    found: the model is many small objects, and the collector would rescan
    them again and again as they grow.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if not documents:
            return None, [ParseDiagnostic(Severity.ERROR, "usage", "no input documents given")]

        diags: list[ParseDiagnostic] = []
        header: Optional[dict] = None
        header_declared = False
        parts: dict[str, list] = {}  # modules, artifacts and each registry's items
        strings: dict[str, str] = {}
        sets: dict = {}

        for path, document in documents:
            parser = _DocParser(path, lenient, header_declared, strings, sets)
            text = document if isinstance(document, str) else _Text(document)
            try:
                yaml.compose(text, Loader=parser.loader)
                error = None
            except yaml.YAMLError as exc:
                error = exc
            failure = None if text is document else text.drain()
            if failure is not None:
                diags.append(_unreadable(path, failure))
                continue
            if error is not None:
                diags.append(ParseDiagnostic(Severity.ERROR, "syntax", f"malformed document: {error}",
                                             path, *_error_position(error, text)))
                continue
            diags += parser.diags
            header, header_declared = parser.header or header, parser.header_declared
            for found in parser.parts:
                for name, items in found.items():
                    parts.setdefault(name, []).extend(items)
        strings.clear()  # the records keep what they share; the guards run without the tables
        sets.clear()
        unread = [d for d in diags if d.code == "io"]
        if unread:
            return None, unread

        if header is None:
            diags.append(ParseDiagnostic(
                Severity.ERROR, "model-header", "no model header found in any document",
                documents[0][0]))

        model = GsnModel(**(header or {"id": ""}), modules=parts.pop("modules", []),
                         artifacts=parts.pop("artifacts", []), registries=Registries(**parts))
        for problem in find_structural_problems(model):
            loc = problem.location
            diags.append(ParseDiagnostic(
                Severity.ERROR, problem.code, problem.message, loc.file, loc.line, loc.column))

        if any(d.severity is Severity.ERROR for d in diags):
            return None, diags
        return model, diags
    finally:
        if was_enabled:
            gc.enable()


def _error_position(exc: yaml.YAMLError, text: Union[str, _Text]) -> tuple[int, int]:
    """The 1-based line and column of `exc` in `text`; a reader error has an
    offset, placed in the text read again."""
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        return mark.line + 1, mark.column + 1
    if not isinstance(text, str):
        text = text.whole()
    offset = getattr(exc, "position", 0)
    if not issubclass(_Loader, yaml.reader.Reader):  # libyaml counts UTF-8 bytes
        offset = len(text.encode("utf-8")[:offset].decode("utf-8", "ignore"))
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def load_model(
    paths: list[str], lenient: bool = False
) -> tuple[Optional[GsnModel], list[ParseDiagnostic]]:
    """Open the documents and parse them as one model, each file read in
    chunks as it is parsed.  A document that cannot be opened or read to its
    end gives an `io` diagnostic, and then only `io` diagnostics are returned."""
    with contextlib.ExitStack() as files:
        documents: list = []
        for path in map(str, paths):
            try:
                documents.append((path, files.enter_context(open(path, "r", encoding="utf-8"))))
            except OSError as exc:
                documents.append((path, exc))
        if not any(isinstance(handle, OSError) for _, handle in documents):
            return parse_model(documents, lenient=lenient)
        # A document did not open: the others are only read, for io diagnostics of their own.
        reasons = [(path, str(handle.strerror) if isinstance(handle, OSError)
                    else _Text(handle).drain()) for path, handle in documents]
    return None, [_unreadable(path, reason) for path, reason in reasons if reason is not None]


def _unreadable(path: str, reason: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.ERROR, "io", f"cannot read '{path}': {reason}", path)


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
