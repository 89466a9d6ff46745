"""`parse_model` reads alike on libyaml and on PyYAML's own loader.

The lean loader is `parse_model`'s reader, `parser._DocParser`, which builds
records straight from the events of `parser._Loader`: libyaml's
`CSafeLoader`, or PyYAML's pure-Python `SafeLoader` where libyaml is
missing.  Each backend is tested through `parse_model` itself, with
`parser._Loader` (and the reference parser's loader in
`test_parser_table.py`) set to it.  On both, every fixture, part of the
seeded mutation corpus and a seeded corpus of anchored and aliased
collections give the reference parser's diagnostics, canonical dict and
locations, and so do scalars that YAML 1.1 resolves to other tags.  A
scalar tag that `yaml.SafeLoader` does not construct is refused on both
backends, and a scalar it constructs as null reads as "".  A document
that YAML refuses gives one `syntax` diagnostic and nothing else,
whatever was read before the refusal: libyaml's messages at
the marks the base composer uses for an undefined alias, a duplicate anchor
and a second document; the start of the collection at depth
`parser.MAX_DEPTH` for a deeper node; and the offending character for a
reader error.  The last test pins how `parse_model` calls `yaml.compose`:
through the module attribute, once per document, which the benchmark's
`parser.compose_s` span relies on.
"""

from __future__ import annotations

import json

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_parser_table
from gsnlint import parser
from gsnlint.parser import parse_model
from gsnlint.rules import evaluate, make_profile

from genmodels import NEST_SHAPES, nest
from test_parser_table import (aliased_cases, fixture_documents, mutated_cases, outcome,
                               reference_parse_model)

#: Each backend by the name of its loader class: the package's own, and the
#: pure-Python one it falls back to.
BACKENDS = {"_Loader": parser._Loader, "SafeLoader": yaml.SafeLoader}
BY_BACKEND = [pytest.param(loader, id=name) for name, loader in BACKENDS.items()]


def read_with(monkeypatch, loader) -> None:
    """Read with `loader`, in `parse_model` and in the reference parser."""
    monkeypatch.setattr(parser, "_Loader", loader)
    monkeypatch.setattr(test_parser_table, "_Loader", loader)


def assert_reads_as_reference(documents, context) -> None:
    for lenient in (False, True):
        assert outcome(parse_model, documents, lenient) == \
            outcome(reference_parse_model, documents, lenient), (context, lenient, documents)


def on_each_backend(monkeypatch, cases) -> None:
    """Every (context, documents) case reads as the reference on both backends."""
    cases = list(cases)
    for loader in BACKENDS.values():
        read_with(monkeypatch, loader)
        for context, documents in cases:
            assert_reads_as_reference(documents, context)


def syntax_diagnostic(text: str) -> tuple:
    """(line, column, message) of the one diagnostic a refused document gives."""
    model, diags = parse_model([("bad.sac.yaml", text)])
    assert model is None
    assert [d.code for d in diags] == ["syntax", "model-header"], diags
    return diags[0].line, diags[0].column, diags[0].message


def test_lean_loader_builds_on_libyaml_where_present():
    assert parser._Loader is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def test_fixtures_compose_to_the_same_tags(monkeypatch):
    on_each_backend(monkeypatch, fixture_documents())


@pytest.mark.parametrize("seed", range(4))
def test_mutation_corpus_composes_to_the_same_tags(monkeypatch, seed):
    """25 cases a seed on both backends; `test_parser_table.py` checks 250 a
    seed on libyaml."""
    on_each_backend(monkeypatch, mutated_cases(25, seed))


@pytest.mark.parametrize("seed", range(2))
def test_alias_corpus_reads_as_reference(monkeypatch, seed):
    """Anchored collections skipped (under unknown keys, in a scalar's slot)
    or read, and then aliased where a collection is read, which is an Error
    `alias` whatever became of the collection: 40 cases a seed on both
    backends."""
    on_each_backend(monkeypatch, aliased_cases(40, seed))


#: A header, then anchored collections that are skipped and aliased later:
#: an alias that is read is an Error `alias`, one that is skipped is nothing.
_SKIPPED = "model: {id: m}\n"


@pytest.mark.parametrize("text", [
    _SKIPPED + "extra: &E [{id: m1, elements: [{id: G1, kind: goal}]}]\nmodules: *E\n",
    _SKIPPED + "extra: [&E {id: G1, kind: goal}]\nmodules: [{id: m1, elements: [*E, *E]}]\n",
    _SKIPPED + "? &K [{id: m1}]\n: x\nmodules: *K\n",
    _SKIPPED + "modules: [{id: &K [a], elements: *K}]\n",
    _SKIPPED + "modules: [{id: m1, elements: [{id: G1, kind: &E [x], text: *E}]}]\n",
    _SKIPPED + "extra: &A [&B [{id: m1}], *B]\nmodules: *B\nmore: *A\nartifacts: *A\n",
    _SKIPPED + "extra: &A [{id: m1}, *A]\nmodules: *A\n",
    "model: &M {id: m, id: n, extra: &E [{id: m1}]}\nmodules: *E\n",
    "&D {model: {id: m}, modules: [*D]}\n",
], ids=["under-unknown-key", "nested-twice", "as-key", "bad-type-then-read",
        "bad-type-twice", "nested-anchors", "self-alias-skipped", "repeated-key",
        "open-document"])
def test_skipped_anchored_collections_read_as_reference(monkeypatch, text):
    on_each_backend(monkeypatch, [(text, [("case.sac.yaml", text)])])


#: Plain scalars that YAML 1.1 resolves to other tags, and near misses.
_LOOK_ALIKES = st.sampled_from([
    "true", "True", "TRUE", "tRue", "false", "yes", "No", "on", "OFF", "y", "n", "Y",
    "null", "Null", "NULL", "nul", "~", "~~", "", "0", "-1", "+12", "0x1F", "0o17", "017",
    "0b101", "09", "1_000", "190:20:30", "1:20", "12:30:00", "1.5", "-.5", "1.", ".",
    "1e3", "6.8523015e+5", ".inf", "-.Inf", ".NaN", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5", "2001-1-1", "<<", "=",
    "==", "-", "+", "o", "goal", "G1",
])
_SCALARS = st.one_of(
    _LOOK_ALIKES,
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=12),
    st.lists(_LOOK_ALIKES, min_size=2, max_size=3).map(" ".join))


def _styled(value: str, style: str) -> str:
    if style in ("plain", "!"):
        return "! " + value if style == "!" else value
    if style == "single":
        return "'" + value.replace("'", "''") + "'"
    return json.dumps(value)


@settings(max_examples=200, deadline=None)
@given(value=_SCALARS, style=st.sampled_from(["plain", "single", "double", "!"]),
       tag=st.sampled_from(["", "!!str ", "!!bool ", "!!null ", "!!map ", "!!seq ", "!!set ",
                            "!foo "]))
@example(value="0,!", style="plain", tag="")
@example(value="yes", style="plain", tag="!!str ")
@example(value="goal", style="plain", tag="!!bool ")
def test_scalars_compose_to_the_same_tags(value, style, tag):
    """The boolean and scalar readers resolve tags as libyaml's composer does."""
    scalar = tag + _styled(value, style)
    text = (f"model: {{id: m, fragmentary: {scalar}}}\nmodules:\n  - id: m1\n    elements:\n"
            f"      - {{id: G1, kind: goal, undeveloped: {scalar}, text: {scalar}}}\n")
    try:
        yaml.compose(text, Loader=BACKENDS["_Loader"])
    except yaml.YAMLError:
        return  # not a document on its own: the scanner's messages are the backend's
    assert_reads_as_reference([("case.sac.yaml", text)], text)


def base_error(text: str, loader) -> yaml.YAMLError:
    with pytest.raises(yaml.YAMLError) as caught:
        yaml.compose(text, Loader=loader)
    return caught.value


#: Texts that the safe loaders' composers refuse, one per refusal, with
#: libyaml's context and problem, which the reader uses on both backends.
#: Each refusal comes after records with diagnostics of their own.
COMPOSER_ERRORS = {
    "undefined-alias": ("model: {id: m}\nbogus: 1\na: [1, *x]\n", None, "found undefined alias"),
    "duplicate-anchor": ("model: {id: m}\nbogus: 1\na: &x [1]\nb:\n  c: &x 2\n",
                         "found duplicate anchor; first occurrence", "second occurrence"),
    "second-document": ("model: {id: m}\nbogus: 1\n--- [b]\n",
                        "expected a single document in the stream", "but found another document"),
}


@pytest.mark.parametrize("loader", BY_BACKEND)
@pytest.mark.parametrize("text,context,problem", COMPOSER_ERRORS.values(), ids=COMPOSER_ERRORS)
def test_lean_loaders_refuse_what_their_bases_refuse(monkeypatch, loader, text, context, problem):
    """As one `syntax` diagnostic at the base composer's marks, with libyaml's
    message on both backends.  PyYAML's pure-Python composer quotes the
    anchor in its alias and anchor messages, so of it only the marks are taken."""
    read_with(monkeypatch, loader)
    base = base_error(text, loader)
    expected = yaml.composer.ComposerError(context, base.context_mark, problem, base.problem_mark)
    mark = base.problem_mark
    assert syntax_diagnostic(text) == (mark.line + 1, mark.column + 1,
                                       f"malformed document: {expected}")
    if loader is getattr(yaml, "CSafeLoader", None):
        assert str(expected) == str(base)


#: The reader on each backend (the lean loader on `SafeLoader` keeps its old
#: name), then each base composer that the reference parser reads with.
READERS_AND_BASES = [
    pytest.param(parser._Loader, True, id="_Loader"),
    pytest.param(yaml.SafeLoader, True, id="LeanSafeLoader"),
    *(pytest.param(loader, False, id=loader.__name__)
      for loader in dict.fromkeys((parser._Loader, yaml.SafeLoader))),
]


@pytest.mark.parametrize("loader,reader", READERS_AND_BASES)
def test_empty_stream_and_self_alias(monkeypatch, loader, reader):
    """An empty stream is an empty document; a collection that holds an
    alias to itself reads as the reference reads it.  The reference rests
    on its base composer: an empty stream composes to None, and an alias to
    a collection still open brings back the collection itself."""
    if not reader:
        assert yaml.compose("", Loader=loader) is None
        assert yaml.compose("# a comment\n", Loader=loader) is None
        root = yaml.compose("&a [*a, x]\n", Loader=loader)
        assert root.value[0] is root
        assert root.value[1].value == "x"
        return
    read_with(monkeypatch, loader)
    for text in ("", "# a comment\n"):
        assert [(d.code, d.message) for d in parse_model([("empty.sac.yaml", text)])[1]] == [
            ("syntax", "document is empty"),
            ("model-header", "no model header found in any document")]
    for text in ("&a [*a, x]\n", "model: {id: m}\nmodules: &a [*a]\n",
                 "model: {id: m}\nmodules: [&a {id: m1, elements: *a}]\n"):
        assert_reads_as_reference([("self.sac.yaml", text)], text)


@pytest.mark.parametrize("loader", BY_BACKEND)
def test_reader_error_is_placed_where_it_occurred(monkeypatch, loader):
    """libyaml counts a reader error's position in UTF-8 bytes, PyYAML in
    characters; the 'é' before the NUL tells the two apart."""
    read_with(monkeypatch, loader)
    line, column, message = syntax_diagnostic("model: {id: m}\n# é\nmodules: [\x00]\n")
    assert (line, column) == (3, 11)
    assert "#x0000" in message


#: `[G2,!, G3]` reads as three entries, the middle one an empty scalar tagged
#: `!`, on libyaml, and as two, `G3` tagged `!,`, on PyYAML's own scanner.
_ODD_TAG = ("model: {id: m}\nmodules:\n  - id: m1\n    elements:\n"
            "      - {id: G1, kind: goal, supported_by: [G2,!, G3]}\n"
            "      - {id: G2, kind: goal}\n      - {id: G3, kind: goal}\n")


@pytest.mark.parametrize("loader", BY_BACKEND)
def test_tags_safe_loader_does_not_construct_are_refused(monkeypatch, loader):
    """A scalar tagged other than `!` or a tag `yaml.SafeLoader` constructs as
    a scalar is `bad-type`, and the message names the tag.  So `[G2,!, G3]`
    is refused on both backends, each for what its scanner read."""
    read_with(monkeypatch, loader)
    libyaml = loader is getattr(yaml, "CSafeLoader", None)
    expected = {
        _ODD_TAG: [("unresolved-ref", "element 'G1' references unknown element ''")]
        if libyaml else [("bad-type", "entry of supported_by must be a scalar, not tagged '!,'")],
        "model: {id: !foo m}\n": [
            ("bad-type", "model id must be a scalar, not tagged '!foo'"),
            ("model-header", "no model header found in any document")],
    }
    for text, codes in expected.items():
        model, diags = parse_model([("case.sac.yaml", text)])
        assert model is None
        assert [(d.code, d.message) for d in diags] == codes
        assert_reads_as_reference([("case.sac.yaml", text)], text)


#: A YAML null in a string slot, and the text it reads as.
NULL_SPELLINGS = {"~": "", "null": "", "Null": "", "NULL": "", "!!null ~": "", "! ~": "",
                  "! '~'": "", "'~'": "~", "!!str null": "null", "nULL": "nULL"}


@pytest.mark.parametrize("loader", BY_BACKEND)
@pytest.mark.parametrize("spelling", NULL_SPELLINGS)
def test_a_null_reads_as_an_empty_string(monkeypatch, loader, spelling):
    """A scalar the safe loaders construct as null reads as "", as an empty
    value does; so a null selection rationale is R4's missing rationale."""
    read_with(monkeypatch, loader)
    text = ("model: {id: m}\nmodules:\n  - id: m1\n    elements:\n"
            "      - {id: G1, kind: goal, argument_type: conformance, traces: [NR-1],"
            " supported_by: [SN1]}\n"
            "      - {id: SN1, kind: solution, artifacts: [A1]}\n"
            "artifacts: [{id: A1, role: evidence}]\n"
            "registries:\n  normative_requirements:\n    - id: NR-1\n"
            f"      selection_rationale: {spelling}\n")
    model, diags = parse_model([("case.sac.yaml", text)])
    assert model is not None, diags
    rationale = NULL_SPELLINGS[spelling]
    assert model.registries.normative_requirements[0].selection_rationale == rationale
    assert_reads_as_reference([("case.sac.yaml", text)], text)
    r4 = [f.message for f in evaluate(model, make_profile("core")) if f.rule == "R4"]
    assert r4 == ([] if rationale else ["normative_requirements item 'NR-1': no selection "
                                        "rationale recorded for the normative document"])


def crossing_mark(shape: str, loader):
    """Where `loader` starts the collection at depth `MAX_DEPTH` of a nest
    one level deeper: the one that holds the node past the limit."""
    node = yaml.compose(nest(shape, parser.MAX_DEPTH + 1), Loader=loader)
    for _ in range(parser.MAX_DEPTH - 1):
        node = node.value[-1][1] if isinstance(node, yaml.MappingNode) else node.value[-1]
    return node.start_mark


@pytest.mark.parametrize("loader", BY_BACKEND)
@pytest.mark.parametrize("shape", NEST_SHAPES)
def test_lean_loaders_stop_at_the_depth_limit(monkeypatch, loader, shape):
    """A nest at the limit reads alike on both backends; one level deeper, or
    far deeper, it is refused at the collection that holds the node past the
    limit, where the base composer, which has no limit, starts that collection."""
    read_with(monkeypatch, loader)
    model, diags = parse_model([("deep.sac.yaml", nest(shape, parser.MAX_DEPTH))])
    assert [(d.code, d.message) for d in diags] == [
        ("bad-type", "document must be a mapping") if shape != "flow-mapping"
        else ("unknown-key", "unknown key 'b' in document"),
        ("model-header", "no model header found in any document")]
    mark = crossing_mark(shape, loader)
    expected = yaml.composer.ComposerError(
        None, None, f"document nests deeper than {parser.MAX_DEPTH} levels", mark)
    assert syntax_diagnostic(nest(shape, parser.MAX_DEPTH + 1)) == (
        mark.line + 1, mark.column + 1, f"malformed document: {expected}")
    # The pure-Python mark quotes the text around it, so far deeper only the place is kept.
    assert syntax_diagnostic(nest(shape, 50_000))[:2] == (mark.line + 1, mark.column + 1)


def test_parse_model_reads_alike_on_the_pure_python_backend(monkeypatch):
    """Diagnostics, canonical dict and element locations of every fixture but
    the syntax error, whose scanner messages differ between the backends."""
    cases = [documents for name, documents in fixture_documents() if name != "syntax.sac"]
    assert len(cases) == len(fixture_documents()) - 1

    def outcomes():
        return [outcome(parse_model, documents, lenient)
                for documents in cases for lenient in (False, True)]

    expected = outcomes()
    monkeypatch.setattr(parser, "_Loader", yaml.SafeLoader)
    assert outcomes() == expected


def test_parse_model_composes_each_document_once_with_the_lean_loader(monkeypatch):
    calls = []
    compose = yaml.compose

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return compose(*args, **kwargs)

    monkeypatch.setattr(yaml, "compose", spy)
    documents = [("main.sac.yaml", "model: {id: m}\nmodules: [{id: a, elements: []}]\n"),
                 ("registries.sac.yaml", "registries: {hazards: [{id: H1}]}\n")]
    model, diags = parse_model(documents)
    assert model is not None, diags
    assert [args for args, _ in calls] == [(text,) for _, text in documents]
    assert [kwargs["Loader"].__func__ for _, kwargs in calls] == [parser._DocParser.loader] * 2
