from __future__ import annotations

import gc
import time
import tracemalloc

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsnlint import parser
from gsnlint.cli import main
from gsnlint.findings import Severity
from gsnlint.model import (REGISTRY_ITEMS, ArgumentType, ElementKind, canonical_dict,
                           models_equal)
from gsnlint.parser import load_model, parse_model, serialize_model, serialize_registries

from conftest import FIXTURES, bad_fixture_paths, good_fixture_groups
from genmodels import (EDGE_STRINGS, FALLBACK_STRINGS, NEST_SHAPES, SKIPPED_ALIASES,
                       SKIPPED_SECTION, alias_document, big_model, nest, random_model,
                       string_model)


MINIMAL = """\
model:
  id: demo
  version: "1.0"
modules:
  - id: main
    elements:
      - id: G1
        kind: goal
        text: The system is safe
        supported_by: [SN1]
      - id: SN1
        kind: solution
        text: Test evidence
"""


def parse_text(text, lenient=False):
    return parse_model([("inline.sac.yaml", text)], lenient=lenient)


class TestParseGood:
    def test_minimal_document(self):
        model, diags = parse_text(MINIMAL)
        assert diags == []
        assert model.id == "demo"
        assert model.version == "1.0"
        assert model.resolve("G1").kind is ElementKind.GOAL
        assert model.resolve("SN1").kind is ElementKind.SOLUTION

    def test_all_good_fixtures_parse_without_errors(self):
        for name, paths in good_fixture_groups():
            model, diags = load_model(paths)
            errors = [d for d in diags if d.severity.value == "error"]
            assert model is not None, (name, errors)
            assert errors == [], name

    def test_argument_type_and_roles_parsed(self):
        model, _ = load_model([FIXTURES / "10-roles.sac.yaml"])
        typed = [e for e in model.iter_elements() if e.argument_type]
        assert typed, "fixture should carry argument_type tags"
        assert all(isinstance(e.argument_type, ArgumentType) for e in typed)

    def test_registries_parsed(self):
        model, _ = load_model([FIXTURES / "07-registries.sac.yaml"])
        assert model.registries.hazards
        assert model.registries.hazards[0].id

    def test_multi_document_merge(self):
        group = [FIXTURES / "30a-scaffold-split-main.sac.yaml",
                 FIXTURES / "30b-scaffold-split-registries.sac.yaml"]
        model, diags = load_model(group)
        assert model is not None
        assert model.registries.hazards


class TestParseErrors:
    def test_bad_fixtures_yield_no_model_and_an_error(self):
        for path in bad_fixture_paths():
            model, diags = load_model([path])
            assert model is None, path
            assert any(d.severity.value == "error" for d in diags), path

    @pytest.mark.parametrize("name,code", [
        ("cycle.sac.yaml", "cycle"),
        ("duplicate-id.sac.yaml", "duplicate-id"),
        ("unresolved-ref.sac.yaml", "unresolved-ref"),
        ("unknown-kind.sac.yaml", "unknown-enum"),
        ("syntax.sac.yaml", "syntax"),
        ("no-header.sac.yaml", "model-header"),
        ("bad-acp.sac.yaml", "invalid-acp"),
    ])
    def test_error_codes(self, name, code):
        _, diags = load_model([FIXTURES / "bad" / name])
        assert any(d.code == code for d in diags), (name, [d.code for d in diags])

    def test_diagnostics_carry_positions(self):
        _, diags = load_model([FIXTURES / "bad" / "duplicate-id.sac.yaml"])
        flagged = [d for d in diags if d.code == "duplicate-id"]
        assert flagged and all(d.line and d.line > 0 for d in flagged)
        assert "duplicate-id.sac.yaml" in str(flagged[0].file)

    def test_unknown_key_strict_vs_lenient(self):
        text = MINIMAL + "      - id: X1\n        kind: goal\n" \
            "        text: extra\n        surprise: true\n"
        model, diags = parse_text(text)
        assert model is None
        assert any(d.code == "unknown-key" and d.severity.value == "error"
                   for d in diags)
        model, diags = parse_text(text, lenient=True)
        assert model is not None
        assert any(d.code == "unknown-key" and d.severity.value == "warning"
                   for d in diags)

    def test_unknown_kind_message_names_offender(self):
        _, diags = load_model([FIXTURES / "bad" / "unknown-kind.sac.yaml"])
        joined = " ".join(d.message for d in diags)
        assert "goalx" in joined

    def test_no_documents(self):
        model, diags = parse_model([])
        assert model is None
        assert [str(d) for d in diags] == [
            "<input>:1:1: error: no input documents given [usage]"]

    def test_empty_document(self):
        model, diags = parse_text("")
        assert model is None
        assert [str(d) for d in diags] == [
            "inline.sac.yaml:1:1: error: document is empty [syntax]",
            "inline.sac.yaml:1:1: error: no model header found in any document "
            "[model-header]"]

    def test_two_model_headers_rejected(self):
        text = MINIMAL + "\n---\n" + MINIMAL
        model, diags = parse_model([("a.sac.yaml", text)])
        assert model is None
        assert any(d.code == "model-header" for d in diags)


    # One case per record kind.  Every kind reports missing-key only for an
    # absent required key; a present but unreadable one has its own bad-type.
    @pytest.mark.parametrize("text,expected", [
        ("model: {id: d}\nmodules:\n  - id: m\n    elements:\n"
         "      - {id: [G1], text: t}\n      - {id: G2, kind: [goal]}\n",
         ["inline.sac.yaml:5:14: error: element id must be a scalar [bad-type]",
          "inline.sac.yaml:5:9: error: element entry requires 'id' and 'kind' [missing-key]",
          "inline.sac.yaml:6:24: error: element kind must be a scalar [bad-type]"]),
        ("model: {id: d}\nmodules:\n  - id: m\n    elements:\n      - id: G1\n"
         "        kind: goal\n        acp:\n"
         "          - {target: [x], relation: supported_by, confidence_goal: G1}\n",
         ["inline.sac.yaml:8:22: error: acp target must be a scalar [bad-type]"]),
        ("model: {id: d}\nmodules:\n  - {id: [m], elements: []}\n",
         ["inline.sac.yaml:3:10: error: module id must be a scalar [bad-type]"]),
        ("model: {id: d}\nregistries:\n  hazards:\n    - {id: [H1], status: open}\n",
         ["inline.sac.yaml:4:12: error: id must be a scalar [bad-type]"]),
        ("model: {id: d}\nartifacts:\n  - {id: A1, role: [evidence]}\n"
         "  - {title: [t], role: evidence}\n",
         ["inline.sac.yaml:3:20: error: artifact role must be a scalar [bad-type]",
          "inline.sac.yaml:4:13: error: artifact title must be a scalar [bad-type]",
          "inline.sac.yaml:4:5: error: artifact entry requires 'id' and 'role' [missing-key]"]),
        ("model: {id: [d], version: '1'}\n",
         ["inline.sac.yaml:1:13: error: model id must be a scalar [bad-type]",
          "inline.sac.yaml:1:1: error: no model header found in any document [model-header]"]),
    ], ids=["element", "acp", "module", "registry-item", "artifact", "model-header"])
    def test_missing_key_and_bad_type_diagnostics(self, text, expected):
        model, diags = parse_text(text)
        assert model is None
        assert [str(d) for d in diags] == expected

    # A structural diagnostic points at the element its problem is about:
    # each repeated copy of an id, the owner of a dangling or repeated
    # reference or of an assurance claim point, and the first element of a
    # cycle.
    @pytest.mark.parametrize("elements,expected", [
        ("      - {id: G0, kind: goal, supported_by: [G1]}\n"
         "      - {id: G1, kind: goal, supported_by: [G2]}\n"
         "      - {id: G2, kind: goal, supported_by: [G1]}\n",
         ["inline.sac.yaml:6:9: error: supported_by cycle: G1 -> G2 -> G1 [cycle]"]),
        ("      - {id: G1, kind: goal}\n      - {id: G1, kind: goal}\n",
         ["inline.sac.yaml:6:9: error: duplicate element id 'G1' [duplicate-id]"]),
        ("      - {id: G1, kind: goal}\n" * 3,
         ["inline.sac.yaml:6:9: error: duplicate element id 'G1' [duplicate-id]",
          "inline.sac.yaml:7:9: error: duplicate element id 'G1' [duplicate-id]"]),
        ("      - {id: G1, kind: goal}\n"
         "      - {id: G2, kind: goal, in_context_of: [C9]}\n",
         ["inline.sac.yaml:6:9: error: element 'G2' references unknown element 'C9' "
          "[unresolved-ref]"]),
        ("      - {id: SN1, kind: solution}\n      - {id: C1, kind: context}\n"
         "      - {id: G1, kind: goal, supported_by: [SN1, SN1], in_context_of: [C1, C1, C1]}\n",
         ["inline.sac.yaml:7:9: error: element 'G1' names 'SN1' more than once in "
          "supported_by [duplicate-ref]",
          "inline.sac.yaml:7:9: error: element 'G1' names 'C1' more than once in "
          "in_context_of [duplicate-ref]"]),
        ("      - {id: Sn1, kind: solution}\n      - id: G1\n        kind: goal\n"
         "        supported_by: [Sn1]\n"
         "        acp: [{target: Sn1, relation: supported_by, confidence_goal: CG9}]\n",
         ["inline.sac.yaml:6:9: error: assurance claim point on 'G1' references unknown "
          "confidence goal 'CG9' [unresolved-ref]"]),
        ("      - {id: Sn1, kind: solution}\n      - id: G1\n        kind: goal\n"
         "        supported_by: [Sn1]\n"
         "        acp: [{target: Sn2, relation: supported_by, confidence_goal: Sn1}]\n",
         ["inline.sac.yaml:6:9: error: assurance claim point on 'G1' targets 'Sn2', "
          "which is not in its supported_by list [invalid-acp]",
          "inline.sac.yaml:6:9: error: confidence goal 'Sn1' of assurance claim point "
          "on 'G1' is a solution, not a goal [invalid-acp]"]),
    ], ids=["cycle", "duplicate-id", "duplicate-id-three-copies", "unresolved-ref",
            "duplicate-ref", "unresolved-ref-confidence-goal", "invalid-acp"])
    def test_structural_diagnostic_positions(self, elements, expected):
        text = "model: {id: d}\nmodules:\n  - id: m\n    elements:\n" + elements
        model, diags = parse_text(text)
        assert model is None
        assert [str(d) for d in diags] == expected

    # An explicit `!!bool` tag bypasses the resolver: only the YAML 1.1
    # spellings PyYAML's SafeConstructor accepts read as booleans.
    @pytest.mark.parametrize("text,expected", [
        ("model: {id: d}\nmodules:\n  - id: m\n    elements:\n"
         "      - {id: G1, kind: goal, undeveloped: !!bool maybe}\n",
         ["inline.sac.yaml:5:43: error: undeveloped must be a boolean [bad-type]"]),
        ("model: {id: d, fragmentary: !!bool 1}\n",
         ["inline.sac.yaml:1:29: error: fragmentary must be a boolean [bad-type]"]),
    ], ids=["undeveloped", "fragmentary"])
    def test_explicit_bool_tag_with_a_non_boolean_value(self, text, expected):
        model, diags = parse_text(text)
        assert model is None
        assert [str(d) for d in diags] == expected

    # A repeated artifact id, or item id within one registry, is an Error at
    # the repeated entry, lenient or not, so no rule judges two copies.
    @pytest.mark.parametrize("fixture,entry,repeat,expected", [
        ("08-artifacts.sac.yaml",
         "  - {id: EV1, role: evidence, title: Report, uri: evidence/report.pdf}\n",
         "  - {id: EV1, role: context_doc}\n",
         ":15:5: error: duplicate id 'EV1' in artifacts [duplicate-id]"),
        ("21-traces.sac.yaml",
         "    - {id: H1, description: Managed and traced, status: managed}\n",
         "    - {id: H1, description: Open copy, status: open}\n",
         ":17:7: error: duplicate id 'H1' in registry 'hazards' [duplicate-id]"),
    ], ids=["artifact", "hazard"])
    def test_repeated_ids_in_a_fixture(self, tmp_path, fixture, entry, repeat, expected):
        text = (FIXTURES / fixture).read_text(encoding="utf-8")
        assert entry in text
        path = tmp_path / fixture
        path.write_text(text.replace(entry, entry + repeat), encoding="utf-8")
        for lenient in (False, True):
            model, diags = load_model([str(path)], lenient=lenient)
            assert model is None
            assert [str(d) for d in diags] == [str(path) + expected]
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 2
        assert expected in result.output

    def test_repeated_ids_across_documents(self):
        documents = [
            ("main.sac.yaml", "model: {id: m}\nartifacts: [{id: A1, role: evidence}]\n"
                              "registries: {hazards: [{id: H1}]}\n"),
            ("more.sac.yaml", "registries:\n  hazards:\n    - {id: H2}\n    - {id: H1}\n"
                              "  regulatory_requirements:\n    - {id: H1}\n"
                              "artifacts:\n  - {id: H1, role: evidence}\n"
                              "  - {id: A1, role: context_doc}\n"),
        ]
        model, diags = parse_model(documents)
        assert model is None
        assert [str(d) for d in diags] == [
            "more.sac.yaml:4:7: error: duplicate id 'H1' in registry 'hazards' [duplicate-id]",
            "more.sac.yaml:9:5: error: duplicate id 'A1' in artifacts [duplicate-id]"]

    def test_non_scalar_key_in_a_registry_item_is_an_unknown_key(self):
        text = "model: {id: d}\nregistries:\n  hazards:\n    - {? [a] : b, id: H1}\n"
        model, diags = parse_text(text, lenient=True)
        assert model is not None
        assert [d.code for d in diags] == ["unknown-key"]
        assert model.registries.item_ids("hazards") == ["H1"]

    # A non-scalar key is named as such, never by its YAML node's repr.
    @pytest.mark.parametrize("text,expected", [
        ("model: {id: d}\n? [a, b]\n: 1\n",
         "inline.sac.yaml:2:3: error: unknown key '<non-scalar>' in document [unknown-key]"),
        ("model: {id: d, ? {a: b} : 1}\n",
         "inline.sac.yaml:1:18: error: unknown key '<non-scalar>' in model header "
         "[unknown-key]"),
    ], ids=["sequence-key", "mapping-key"])
    def test_non_scalar_key_diagnostic(self, text, expected):
        model, diags = parse_text(text)
        assert model is None
        assert [str(d) for d in diags] == [expected]


class TestAliases:
    """Only scalars may be aliased.  An alias to a collection, read, open or
    skipped, is an Error `alias`, lenient or not, at the collection itself
    (libyaml keeps no position for the alias); an alias to a scalar reads as
    the scalar."""

    HEAD = "model: {id: d}\nmodules:\n  - id: m\n    elements:\n"

    #: The collection reached twice -> a document that anchors it once and
    #: then aliases it where a value of that kind is read again.
    CASES = {
        "elements": "model: {id: d}\nmodules:\n  - id: a\n    elements: &E\n"
                    "      - {id: G1, kind: goal, undeveloped: true}\n"
                    "  - id: b\n    elements: *E\n",
        "element entry": HEAD + "      - &G {id: G1, kind: goal, undeveloped: true}\n"
                                "      - *G\n",
        "acp entry": HEAD + "      - id: G1\n        kind: goal\n        supported_by: [SN1]\n"
                            "        acp:\n"
                            "          - &A {target: SN1, relation: supported_by, "
                            "confidence_goal: G2}\n          - *A\n"
                            "      - {id: SN1, kind: solution}\n"
                            "      - {id: G2, kind: goal, undeveloped: true}\n",
        "traces": "model: {id: d}\nregistries: {hazards: [{id: H1}]}\n"
                  "modules:\n  - id: m\n    elements:\n"
                  "      - {id: G1, kind: goal, supported_by: [G2], traces: &T [H1]}\n"
                  "      - {id: G2, kind: goal, undeveloped: true, traces: *T}\n",
    }

    @pytest.mark.parametrize("where", sorted(CASES))
    @pytest.mark.parametrize("lenient", [False, True])
    def test_an_aliased_collection_is_an_alias_error(self, where, lenient):
        text = self.CASES[where]
        line_no, line = next((n, line) for n, line in enumerate(text.splitlines(), 1)
                             if "&" in line)
        model, diags = parse_text(text, lenient=lenient)
        assert model is None
        assert [str(d) for d in diags] == [
            f"inline.sac.yaml:{line_no}:{line.index('&') + 1}: error: "
            f"{where} is an alias to a collection; only scalars may be aliased [alias]"]

    @pytest.mark.parametrize("how", sorted(SKIPPED_ALIASES))
    @pytest.mark.parametrize("lenient", [False, True])
    def test_an_alias_to_a_skipped_collection_is_an_alias_error(self, how, lenient):
        """The skipped collection is not read back: its value's own
        diagnostic stands, and the alias is an Error at the anchor."""
        text = SKIPPED_ALIASES[how]
        line_no, line = next((n, line) for n, line in enumerate(text.splitlines(), 1)
                             if "&" in line)
        model, diags = parse_text(text, lenient=lenient)
        assert model is None
        assert [(d.severity, d.line, d.column) for d in diags if d.code == "alias"] == [
            (Severity.ERROR, line_no, line.index("&") + 1)]

    def test_a_skipped_section_keeps_its_anchors(self):
        """Aliases within a skipped section are skipped with it, and a scalar
        anchored there reads where an alias brings it back."""
        model, diags = parse_text(SKIPPED_SECTION, lenient=True)
        assert [(d.code, d.line) for d in diags] == [("unknown-key", 2)]
        assert [e.text for e in model.iter_elements()] == ["noted"]

    def test_an_aliased_scalar_reads_as_the_scalar(self):
        model, diags = parse_text(self.HEAD + "      - {id: G1, kind: &K goal, text: &T claim, "
                                  "supported_by: [G2]}\n"
                                  "      - {id: G2, kind: *K, text: *T, undeveloped: true}\n")
        assert diags == []
        assert [(e.kind, e.text) for e in model.iter_elements()] == \
            [(ElementKind.GOAL, "claim")] * 2

    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_aliases_are_read_once_each(self, k):
        """k aliases each to an ACP, an element and a module cost k reads each,
        not the k**3 ACP records that following them would read."""
        model, diags = parse_text(alias_document(k))
        assert model is None
        assert [d.code for d in diags].count("alias") == 3 * (k - 1)
        assert len(diags) == 3 * (k - 1) + 1  # and the one copy's own invalid-acp


class TestNesting:
    """A document whose nodes nest deeper than `parser.MAX_DEPTH` is an Error
    `syntax` at the collection that crosses the limit, and the documents
    after it are still read."""

    @pytest.mark.parametrize("shape,width", [
        ("flow-sequence", 1), ("flow-mapping", 4), ("block-sequence", 2)])
    def test_diagnostic_at_the_crossing_collection(self, shape, width):
        model, diags = parse_model([("deep.sac.yaml", nest(shape, 50_000)),
                                    ("next.sac.yaml", "model: {id: d, id: e}\n")])
        assert model is None
        # The crossing collection is the one at depth MAX_DEPTH, `width`
        # columns per level from the first.
        assert [(d.file, d.line, d.column, d.code) for d in diags] == [
            ("deep.sac.yaml", 1, width * (parser.MAX_DEPTH - 1) + 1, "syntax"),
            ("next.sac.yaml", 1, 16, "duplicate-key")]
        assert diags[0].message.startswith(
            f"malformed document: document nests deeper than {parser.MAX_DEPTH} levels")

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(NEST_SHAPES), depth=st.integers(1, 2_000))
    @example(shape="flow-sequence", depth=parser.MAX_DEPTH)
    @example(shape="block-sequence", depth=parser.MAX_DEPTH + 1)
    def test_nests_never_raise(self, shape, depth):
        model, diags = parse_model([("deep.sac.yaml", nest(shape, depth))])
        assert model is None
        assert any("nests deeper than" in d.message for d in diags) == \
            (depth > parser.MAX_DEPTH)


class TestRoundTrip:
    def test_serialize_reparse_structural_equality(self):
        for name, paths in good_fixture_groups():
            model, _ = load_model(paths)
            text = serialize_model(model)
            reparsed, diags = parse_text(text)
            assert reparsed is not None, (name, diags)
            assert models_equal(model, reparsed), name

    def test_serialization_is_idempotent(self):
        for name, paths in good_fixture_groups():
            model, _ = load_model(paths)
            once = serialize_model(model)
            again, _ = parse_text(once)
            assert serialize_model(again) == once, name

    @pytest.mark.parametrize("text", [*FALLBACK_STRINGS.values(), *EDGE_STRINGS.values()],
                             ids=[*FALLBACK_STRINGS, *EDGE_STRINGS])
    def test_every_string_reads_back(self, text):
        """Every fallback and edge string reads back unchanged, U+0085 too,
        which YAML folds into a space when it is written unescaped."""
        model = string_model(text)
        reparsed, diags = parse_text(serialize_model(model))
        assert reparsed is not None, diags
        assert models_equal(model, reparsed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), strings=st.booleans(), split=st.booleans())
    def test_generated_models_read_back_equal(self, seed, strings, split):
        """Written whole or split, a generated model reads back equal; with its
        texts taken from `FALLBACK_STRINGS` it is written by the pure-Python
        emitter, otherwise by libyaml's."""
        model = random_model(seed)
        if strings:
            texts = list(FALLBACK_STRINGS.values())
            for i, element in enumerate(model.iter_elements()):
                element.text = texts[i % len(texts)]
        documents = ([("main.sac.yaml", serialize_model(model, include_registries=False)),
                      ("registries.sac.yaml", serialize_registries(model))] if split
                     else [("model.sac.yaml", serialize_model(model))])
        reparsed, diags = parse_model(documents)
        assert reparsed is not None, diags
        assert models_equal(model, reparsed)


# -- the two emitters ----------------------------------------------

_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")

_ASCII = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
_INDICATORS = st.sampled_from([
    "-", "?", ":", ",", "[", "]", "{", "}", "#", "&", "*", "!", "|", ">", "'", '"', "%",
    "@", "`", "- a", "? b", "a: b", "a :b", "a #b", "#a", "&x", "*x", "!x", "{a}", "[a]",
    "true", "False", "NULL", "~", "yes", "Off", "y", "0", "-1", "0x1F", "0o17", "012",
    "1_000", "1.5e3", ".inf", "-.NaN", "2001-12-14", "12:30:00", "<<", "=", "---", "...",
    "'quoted'", '"quoted"', " ", "  lead", "trail  ", "a  b", "\\", "\\n",
])
_WORDS = st.lists(st.one_of(_INDICATORS, st.sampled_from(["lorem", "ipsum", "dolor", "sit"]),
                            st.text(_ASCII, min_size=1, max_size=8)),
                  min_size=15, max_size=30).map(" ".join)
_TEXT = st.one_of(_INDICATORS, _WORDS, st.text(_ASCII, max_size=30))


def _records(keys: tuple[str, ...], **optional) -> st.SearchStrategy:
    return st.fixed_dictionaries({key: _TEXT for key in keys}, optional=optional)


_CANONICAL = st.fixed_dictionaries({
    "model": _records(("id", "version"), fragmentary=st.just(True)),
    "modules": st.lists(st.fixed_dictionaries({
        "id": _TEXT,
        "elements": st.lists(_records(
            ("id", "kind", "text"), undeveloped=st.just(True),
            supported_by=st.lists(_TEXT, min_size=1, max_size=3),
            acp=st.lists(_records(("target", "relation", "confidence_goal")),
                         min_size=1, max_size=2)), max_size=3),
    }), max_size=2),
    "registries": st.fixed_dictionaries({
        "hazards": st.lists(_records(("id", "description", "status")), max_size=2),
        "context_dimensions": st.lists(_TEXT, max_size=3),
    }),
    "artifacts": st.lists(_records(("id", "role"), title=_TEXT, uri=_TEXT), max_size=2),
})


@_libyaml
@settings(max_examples=50, deadline=None)
@given(data=_CANONICAL)
@example(data=canonical_dict(string_model(EDGE_STRINGS["padded"])))
@example(data=canonical_dict(string_model(EDGE_STRINGS["empty"])))
def test_emitters_agree_on_printable_ascii(data):
    """libyaml writes the pure-Python emitter's bytes for every printable-ASCII
    canonical dict, which is what lets `serialize_model` use it there."""
    assert yaml.dump(data, Dumper=yaml.CSafeDumper, **parser._DUMP_OPTIONS) == \
        yaml.safe_dump(data, **parser._DUMP_OPTIONS)


@_libyaml
@pytest.mark.parametrize("name", sorted(FALLBACK_STRINGS))
def test_other_strings_keep_the_pure_python_emitter(name):
    """Each string here makes libyaml write other bytes, so `serialize_model`
    must fall back.  Once libyaml agrees on all of them, the fallback can go.
    U+0085 falls back to escaping all non-ASCII, which alone reads back."""
    model = string_model(FALLBACK_STRINGS[name])
    data = canonical_dict(model)
    python = yaml.safe_dump(data, **parser._DUMP_OPTIONS)
    escaped = yaml.safe_dump(data, **{**parser._DUMP_OPTIONS, "allow_unicode": False})
    assert serialize_model(model) == (escaped if "\x85" in FALLBACK_STRINGS[name] else python)
    assert yaml.dump(data, Dumper=yaml.CSafeDumper, **parser._DUMP_OPTIONS) != python


@_libyaml
def test_emitter_follows_the_strings(monkeypatch):
    seen = []
    dump_all = yaml.dump_all

    def spy(*args, **kwargs):
        seen.append(kwargs["Dumper"])
        return dump_all(*args, **kwargs)

    monkeypatch.setattr(yaml, "dump_all", spy)
    serialize_model(big_model(100, 50))
    serialize_model(string_model(FALLBACK_STRINGS["astral"]))
    assert seen == [yaml.CSafeDumper, yaml.SafeDumper]


@pytest.mark.parametrize("spelling,value", [
    ("yes", True), ("No", False), ("TRUE", True), ("fAlSe", False), ("On", True), ("off", False),
])
def test_explicit_bool_tag_accepts_yaml_1_1_spellings(spelling, value):
    model, diags = parse_text(MINIMAL.replace(
        "kind: solution\n", f"kind: solution\n        undeveloped: !!bool {spelling}\n"))
    assert diags == []
    assert model.resolve("SN1").undeveloped is value


class TestGcPause:
    """`parse_model` pauses the cyclic collector and restores the caller's setting."""

    def test_enabled_collector_is_enabled_after_the_call(self):
        assert gc.isenabled()
        parse_text(MINIMAL)
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            parse_text(MINIMAL)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_is_restored_when_compose_raises(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("compose failed")

        monkeypatch.setattr(yaml, "compose", broken)
        with pytest.raises(RuntimeError, match="compose failed"):
            parse_text(MINIMAL)
        assert gc.isenabled()

    def test_compose_and_structural_guards_run_paused(self, monkeypatch):
        seen = []
        compose, find = yaml.compose, parser.find_structural_problems

        def spy(real, name):
            def wrapper(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(yaml, "compose", spy(compose, "compose"))
        monkeypatch.setattr(parser, "find_structural_problems",
                            spy(find, "find_structural_problems"))
        model, _ = parse_text(MINIMAL)
        assert model is not None
        assert seen == [("compose", False), ("find_structural_problems", False)]
        assert gc.isenabled()


def test_parse_time_grows_linearly():
    """Parsing a model 4x larger costs at most 6x the time (quadratic would be 16x).

    Runs of the two sizes alternate, each after a full collection, and each
    size keeps its fastest of seven, so a slow spell of the machine cannot
    fall on one size alone."""
    documents = {
        n: [("big.sac.yaml", yaml.dump(canonical_dict(big_model(n, n // 2)),
                                       Dumper=yaml.CSafeDumper, sort_keys=False))]
        for n in (2500, 10000)}
    best = dict.fromkeys(documents, float("inf"))
    for _ in range(7):
        for n, docs in documents.items():
            gc.collect()
            start = time.process_time()
            model, _ = parse_model(docs)
            best[n] = min(best[n], time.process_time() - start)
            assert model is not None
            del model  # freed outside the next run's timing
    ratio = best[10000] / best[2500]
    assert ratio <= 6, f"parse_model at 10k took {ratio:.2f}x its time at 2.5k"


def traced_parse(documents, lenient=False):
    """The model `parse_model` returns, and the bytes tracemalloc saw it
    return and hold at its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model, diags = parse_model(documents, lenient=lenient)
        size, peak = (traced - before for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert model is not None, diags
    return model, size, peak


#: The most that `parse_model` holds at its peak, in models of the size it
#: returns.  For `big_model(4000, 2000)`, a model of 2.03 MiB, the peaks
#: measured were 2.64 MiB on one document (1.30 models), 2.36 MiB on split
#: documents (1.17) and 2.75 MiB on one document with a skipped section
#: (1.36).  The peak is the end of the last document's read, where the
#: records, the tables of shared values and the loader's UTF-8 copy of the
#: text meet.
PEAK_MODELS = 1.5


@pytest.mark.parametrize("shape", ["one-document", "split-documents", "skipped-section"])
def test_parse_peak_memory_is_at_most_k_models(shape):
    """The reader builds records straight from the loader's events and keeps
    none of a skipped value's, so the peak of `parse_model` is the model it
    returns and little more.  The skipped section is an unknown key holding
    5,000 small mappings, read lenient."""
    model = big_model(4000, 2000)
    documents = ([("main.sac.yaml", serialize_model(model, include_registries=False)),
                  ("registries.sac.yaml", serialize_registries(model))]
                 if shape == "split-documents" else [("model.sac.yaml", serialize_model(model))])
    if shape == "skipped-section":
        documents[0] = (documents[0][0], documents[0][1] + "x-notes:\n" + "".join(
            f"  - {{id: N{i}, note: n}}\n" for i in range(5000)))
    del model
    _, size, peak = traced_parse(documents, lenient=shape == "skipped-section")
    assert peak <= PEAK_MODELS * size, peak / size


#: The most bytes per element that the model `parse_model` returns for
#: `big_model(4000, 2000)` may hold, its cached views included: 531 were
#: measured on CPython 3.11 (843 before values were shared).
MODEL_BYTES_PER_ELEMENT = 600


def test_parsed_model_size_per_element():
    documents = [("model.sac.yaml", serialize_model(big_model(4000, 2000)))]
    model, size, _ = traced_parse(documents)
    per_element = size / len(model.index)
    assert per_element <= MODEL_BYTES_PER_ELEMENT, per_element


def test_parsed_model_holds_each_value_once():
    """On every good fixture, each reference is the id string of the record
    it names, in any document, and elements with equal roles, traces or
    artifacts share one frozenset."""
    checked = 0
    for name, paths in good_fixture_groups():
        model, diags = load_model(paths)
        assert model is not None, (name, diags)
        items = {item.id: item for registry in REGISTRY_ITEMS
                 for item in getattr(model.registries, registry)}
        for element in model.iter_elements():
            for refs, named in ((element.supported_by, model.index),
                                (element.in_context_of, model.index),
                                (element.traces, items),
                                (element.artifacts, model.artifact_index)):
                for ref in refs:
                    if ref in named:
                        assert ref is named[ref].id, (name, element.id, ref)
                        checked += 1
        for field in ("roles", "traces", "artifacts"):
            shared: dict = {}
            for element in model.iter_elements():
                value = getattr(element, field)
                assert shared.setdefault(value, value) is value, (name, element.id, field)
    assert checked
