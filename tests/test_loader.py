"""`parser._Loader` composes every document exactly as the safe loaders do.

`_Loader` mixes `parser._Lean`, a composer that builds one slotted lean
node per YAML node from the loader's own events, into libyaml's
`CSafeLoader` (PyYAML's pure-Python `SafeLoader` where libyaml is missing);
`LeanSafeLoader` is the same mixin on `SafeLoader`.  Every fixture and
generated scalars compose to the same node kinds, tags, scalar values,
lines and columns under both lean loaders as under their safe bases; so
does the seeded mutation corpus of `test_parser_table.py`, under the
pure-Python pair on one seed of four.  Both lean loaders refuse an
undefined alias, a duplicate anchor and a second document at the marks
their bases use, with libyaml's messages; an empty stream composes to
``None`` and an alias to a collection still open to the collection itself.
A document nested deeper than `parser.MAX_DEPTH` is a `yaml.YAMLError` at
the start of the collection at that depth, not a recursion error or a
crash, and `parse_model` reads every fixture alike.  The last test pins
how `parse_model` calls `yaml.compose`: through the module attribute, once
per document, which the benchmark's `parser.compose_s` span relies on.
"""

from __future__ import annotations

import json

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsnlint import parser
from gsnlint.parser import parse_model

from genmodels import NEST_SHAPES, nest
from test_parser_table import fixture_documents, mutated_cases, outcome


class LeanSafeLoader(parser._Lean, yaml.SafeLoader):
    """The lean composer on the pure-Python loader: `_Loader` as the package
    builds it without libyaml."""


#: Each lean loader and the loader it must agree with on every input.
PAIRS = [(parser._Loader, parser._Loader.__bases__[-1]), (LeanSafeLoader, yaml.SafeLoader)]
ALL = tuple(dict.fromkeys(loader for pair in PAIRS for loader in pair))
#: `PAIRS` as test parameters, named by their lean loader.
BY_LEAN = [pytest.param(lean, base, id=lean.__name__) for lean, base in PAIRS]


def node_tags(text: str, loader) -> list[tuple] | None:
    """(node kind, tag, scalar value, line, column) of every node in document
    order, read from `yaml.Node`s or lean nodes alike; a collection met
    again through an alias is ("alias", its index in the list).  None when
    the text does not compose."""
    try:
        root = yaml.compose(text, Loader=loader)
    except yaml.YAMLError:
        return None
    out: list[tuple] = []
    seen: dict[int, int] = {}
    stack = [root] if root is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, yaml.Node):
            kind, value = type(node), node.value
            line, column = node.start_mark.line, node.start_mark.column
            if kind is yaml.MappingNode:
                value = [part for pair in value for part in pair]
        else:
            kind, value, line, column = node.kind, node.value, node.line, node.column
        if kind is yaml.ScalarNode:
            out.append((kind.__name__, node.tag, value, line, column))
        elif id(node) in seen:
            out.append(("alias", seen[id(node)]))
        else:
            seen[id(node)] = len(out)
            out.append((kind.__name__, node.tag, None, line, column))
            stack += reversed(value)
    return out


def assert_same_tags(text: str, loaders=ALL) -> None:
    """A lean loader composes exactly what its base composes, below its depth
    limit, to the same kinds, tags, values and positions.  Where the two
    bases agree, so do all four.
    The bases themselves may disagree: on ``[0,!, x]`` libyaml reads `!` as
    an empty scalar's tag, and the pure-Python scanner reads `!,` as `x`'s."""
    tags = {loader: node_tags(text, loader) for loader in loaders}
    for lean, base in PAIRS:
        if lean in tags and base in tags:
            assert tags[lean] == tags[base], (lean.__name__, text)


def test_lean_loader_builds_on_libyaml_where_present():
    base = parser._Loader.__bases__[-1]
    assert base is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def test_fixtures_compose_to_the_same_tags():
    for _, documents in fixture_documents():
        for _, text in documents:
            assert_same_tags(text)


@pytest.mark.parametrize("seed", range(4))
def test_mutation_corpus_composes_to_the_same_tags(seed):
    """`_Loader` against its base on every case, and the pure-Python pair,
    ten times slower, on the first seed's cases."""
    loaders = ALL if seed == 0 else PAIRS[0]
    for _, documents in mutated_cases(250, seed):
        for _, text in documents:
            assert_same_tags(text, loaders)


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
    if style == "plain":
        return value
    if style == "single":
        return "'" + value.replace("'", "''") + "'"
    return json.dumps(value)


@settings(max_examples=300, deadline=None)
@given(value=_SCALARS, style=st.sampled_from(["plain", "single", "double"]))
@example(value="0,!", style="plain")
def test_scalars_compose_to_the_same_tags(value, style):
    scalar = _styled(value, style)
    assert_same_tags(f"a: {scalar}\n{scalar}: b\nc: [{scalar}, x]\nd:\n  - {scalar}\n")


def composer_error(text: str, loader) -> yaml.YAMLError:
    with pytest.raises(yaml.YAMLError) as caught:
        yaml.compose(text, Loader=loader)
    return caught.value


def marks(exc: yaml.YAMLError) -> list:
    return [(mark.line, mark.column) if mark else None
            for mark in (exc.context_mark, exc.problem_mark)]


#: Texts that the safe loaders' composers refuse, one per refusal, with
#: libyaml's context and problem, which the lean composer uses on both backends.
COMPOSER_ERRORS = {
    "undefined-alias": ("a: [1, *x]\n", None, "found undefined alias"),
    "duplicate-anchor": ("a: &x [1]\nb:\n  c: &x 2\n",
                         "found duplicate anchor; first occurrence", "second occurrence"),
    "second-document": ("a: 1\n--- [b]\n",
                        "expected a single document in the stream", "but found another document"),
}


@pytest.mark.parametrize("lean,base", BY_LEAN)
@pytest.mark.parametrize("text,context,problem", COMPOSER_ERRORS.values(), ids=COMPOSER_ERRORS)
def test_lean_loaders_refuse_what_their_bases_refuse(lean, base, text, context, problem):
    """At the same marks, and with libyaml's message on both backends.
    PyYAML's pure-Python composer quotes the anchor in its alias and anchor
    messages, so against `SafeLoader` only the marks are compared."""
    expected, got = composer_error(text, base), composer_error(text, lean)
    assert marks(got) == marks(expected)
    assert (got.context, got.problem) == (context, problem)
    if base is getattr(yaml, "CSafeLoader", None):
        assert str(got) == str(expected)


@pytest.mark.parametrize("loader", ALL, ids=lambda l: l.__name__)
def test_empty_stream_and_self_alias(loader):
    """An empty stream composes to None; an alias to a collection still open
    brings back the collection itself."""
    assert yaml.compose("", Loader=loader) is None
    assert yaml.compose("# a comment\n", Loader=loader) is None
    root = yaml.compose("&a [*a, x]\n", Loader=loader)
    assert root.value[0] is root
    assert node_tags("&a [*a, x]\n", loader) == [
        ("SequenceNode", "tag:yaml.org,2002:seq", None, 0, 0), ("alias", 0),
        ("ScalarNode", "tag:yaml.org,2002:str", "x", 0, 8)]


def crossing_mark(shape: str, loader):
    """Where `loader` starts the collection at depth `MAX_DEPTH` of a nest
    one level deeper: the one that holds the node past the limit."""
    node = yaml.compose(nest(shape, parser.MAX_DEPTH + 1), Loader=loader)
    for _ in range(parser.MAX_DEPTH - 1):
        node = node.value[-1][1] if isinstance(node, yaml.MappingNode) else node.value[-1]
    return node.start_mark


@pytest.mark.parametrize("lean,base", BY_LEAN)
@pytest.mark.parametrize("shape", NEST_SHAPES)
def test_lean_loaders_stop_at_the_depth_limit(lean, base, shape):
    """At the collection that holds the node past the limit, where the base
    composer, which has no limit, starts that collection."""
    assert node_tags(nest(shape, parser.MAX_DEPTH), lean) == \
        node_tags(nest(shape, parser.MAX_DEPTH), base)
    mark = crossing_mark(shape, base)
    expected = yaml.composer.ComposerError(
        None, None, f"document nests deeper than {parser.MAX_DEPTH} levels", mark)
    for depth in (parser.MAX_DEPTH + 1, 50_000):
        got = composer_error(nest(shape, depth), lean)
        assert marks(got) == [None, (mark.line, mark.column)]
        if base is getattr(yaml, "CSafeLoader", None):
            assert str(got) == str(expected)


def test_parse_model_reads_alike_on_the_pure_python_backend(monkeypatch):
    """Diagnostics, canonical dict and element locations of every fixture but
    the syntax error, whose scanner messages differ between the backends."""
    cases = [documents for name, documents in fixture_documents() if name != "syntax.sac"]
    assert len(cases) == len(fixture_documents()) - 1

    def outcomes():
        return [outcome(parse_model, documents, lenient)
                for documents in cases for lenient in (False, True)]

    expected = outcomes()
    monkeypatch.setattr(parser, "_Loader", LeanSafeLoader)
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
    assert calls == [((text,), {"Loader": parser._Loader}) for _, text in documents]
