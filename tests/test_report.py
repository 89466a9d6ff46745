from __future__ import annotations

import json

import pytest

from gsnlint.findings import Finding, Severity
from gsnlint.model import (
    AcpRelation,
    AssuranceClaimPoint,
    ElementKind,
    GsnElement,
    GsnModule,
    link_model,
)
from gsnlint.parser import load_model
from gsnlint.report import (
    ReportBundle,
    emit_findings,
    emit_findings_json,
    emit_findings_text,
    render_dot,
)
from gsnlint.rules import evaluate, make_profile

from conftest import FIXTURES, good_fixture_groups
from dotcheck import parse_dot
from genmodels import random_model
from mutations import MUTATIONS, mutate


def _bundle(findings):
    return ReportBundle("m", "1", "all", findings=list(findings))


SAMPLE = [
    Finding("R1", Severity.ERROR, "no risk argument", ()),
    Finding("R3", Severity.WARNING, "registry empty", ("G1", "G2")),
    Finding("TL1", Severity.INFO, "root wording", ("G-TOP",)),
]


class TestTextEmitter:
    def test_line_format_and_summary(self):
        text = emit_findings_text(_bundle(SAMPLE))
        lines = text.strip().splitlines()
        assert lines[0] == "ERROR R1 no risk argument"
        assert lines[1] == "WARNING R3 G1 G2 registry empty"
        assert lines[2] == "INFO TL1 G-TOP root wording"
        assert lines[3] == "1 errors, 1 warnings"

    def test_empty_findings(self):
        text = emit_findings_text(_bundle([]))
        assert text.strip() == "0 errors, 0 warnings"


class TestJsonEmitter:
    def test_schema_keys(self):
        data = json.loads(emit_findings_json(_bundle(SAMPLE)))
        assert set(data) == {"model", "profile", "findings", "summary"}
        assert data["model"] == {"id": "m", "version": "1"}
        assert data["profile"] == "all"
        assert data["summary"] == {"errors": 1, "warnings": 1, "infos": 1}
        for entry in data["findings"]:
            assert set(entry) == {"rule", "severity", "message", "elements",
                                  "file", "line"}

    def test_dispatch(self):
        bundle = _bundle(SAMPLE)
        assert emit_findings(bundle, "json") == emit_findings_json(bundle)
        assert emit_findings(bundle, "text") == emit_findings_text(bundle)
        with pytest.raises(ValueError):
            emit_findings(bundle, "xml")

    def test_real_findings_serialize(self, reference_model):
        mutated = mutate(reference_model,
                         next(m for m in MUTATIONS if m.rule == "R6"))
        findings = evaluate(mutated, make_profile("all"))
        data = json.loads(emit_findings_json(
            ReportBundle(mutated.id, mutated.version, "all", findings)))
        assert data["summary"]["errors"] >= 1
        assert any(f["rule"] == "R6" for f in data["findings"])


class TestRenderDot:
    def test_scaffold_graph_structure(self, reference_model):
        graph = parse_dot(render_dot(reference_model))
        non_acp = {n for n in graph.nodes if not n.startswith("ACP:")}
        assert non_acp == set(reference_model.index)
        # ACP nodes splice their edge, so each adds one node and one edge.
        acp_count = sum(len(e.acps) for e in reference_model.iter_elements())
        assert len(graph.nodes) == len(reference_model.index) + acp_count

    def test_edges_cover_all_relations(self, reference_model):
        graph = parse_dot(render_dot(reference_model))
        plain_edges = {(a, b) for a, b in graph.edges
                       if not a.startswith("ACP:") and not b.startswith("ACP:")}
        spliced = {e.id for e in reference_model.iter_elements() if e.acps}
        for element in reference_model.iter_elements():
            for child in element.supported_by:
                if element.id not in spliced:
                    assert (element.id, child) in plain_edges
            for ctx in element.in_context_of:
                assert (element.id, ctx) in plain_edges

    def test_solution_and_context_shapes(self):
        model, _ = load_model([FIXTURES / "04-contextual.sac.yaml"])
        dot = render_dot(model)
        graph = parse_dot(dot)
        for element in model.iter_elements():
            attrs = graph.nodes[element.id]
            if element.kind is ElementKind.SOLUTION:
                assert attrs.get("shape") == "circle"
            elif element.kind is ElementKind.CONTEXT:
                assert attrs.get("shape") == "box"
                assert attrs.get("style") == "rounded"

    def test_acp_on_a_context_edge_splices_a_dashed_edge(self):
        model = link_model("dot", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "claim", supported_by=("SN1",),
                       in_context_of=("C1",),
                       acps=(AssuranceClaimPoint("C1", AcpRelation.IN_CONTEXT_OF, "G2"),)),
            GsnElement("C1", ElementKind.CONTEXT, "ctx"),
            GsnElement("SN1", ElementKind.SOLUTION, "ev"),
            GsnElement("G2", ElementKind.GOAL, "conf", supported_by=("SN2",)),
            GsnElement("SN2", ElementKind.SOLUTION, "ev"),
        ])])
        assert render_dot(model) == (
            'digraph "dot" {\n'
            '  rankdir=TB;\n'
            '  node [fontname="Helvetica"];\n'
            '  "C1" [shape=box, label="C1", style="rounded"];\n'
            '  "G1" [shape=box, label="G1"];\n'
            '  "G2" [shape=box, label="G2"];\n'
            '  "SN1" [shape=circle, label="SN1"];\n'
            '  "SN2" [shape=circle, label="SN2"];\n'
            '  "ACP:G1:0" [shape=square, style="filled", fillcolor="black", width=0.12, '
            'label=""];\n'
            '  "G1" -> "SN1";\n'
            '  "G1" -> "ACP:G1:0" [style=dashed];\n'
            '  "ACP:G1:0" -> "C1" [style=dashed];\n'
            '  "G2" -> "SN2";\n'
            '}\n')

    def test_acps_on_one_edge_splice_it_in_declaration_order(self):
        model = link_model("dot", modules=[GsnModule("m", [
            GsnElement("G1", ElementKind.GOAL, "claim", supported_by=("SN1", "SN2"),
                       acps=(AssuranceClaimPoint("SN1", AcpRelation.SUPPORTED_BY, "G2"),
                             AssuranceClaimPoint("SN2", AcpRelation.SUPPORTED_BY, "G2"),
                             AssuranceClaimPoint("SN1", AcpRelation.SUPPORTED_BY, "G3"))),
            GsnElement("SN1", ElementKind.SOLUTION, "ev"),
            GsnElement("SN2", ElementKind.SOLUTION, "ev"),
            GsnElement("G2", ElementKind.GOAL, "conf", supported_by=("SN3",)),
            GsnElement("G3", ElementKind.GOAL, "conf", supported_by=("SN3",)),
            GsnElement("SN3", ElementKind.SOLUTION, "ev"),
        ])])
        graph = parse_dot(render_dot(model))
        acp_nodes = [n for n in graph.nodes if n.startswith("ACP:")]
        assert acp_nodes == ["ACP:G1:0", "ACP:G1:1", "ACP:G1:2"]
        for node in acp_nodes:
            assert len([a for a, b in graph.edges if b == node]) == 1, node
            assert len([b for a, b in graph.edges if a == node]) == 1, node
        assert [edge for edge in graph.edges if edge[0] in ("G1", *acp_nodes)] == [
            ("G1", "ACP:G1:0"), ("ACP:G1:0", "ACP:G1:2"), ("ACP:G1:2", "SN1"),
            ("G1", "ACP:G1:1"), ("ACP:G1:1", "SN2")]

    def test_color_mode_adds_fills(self, reference_model):
        plain = render_dot(reference_model)
        colored = render_dot(reference_model, by_argument_type_color=True)
        assert plain != colored
        assert "fillcolor" in colored
        parse_dot(colored)

    def test_all_fixtures_render_valid_dot(self):
        for name, paths in good_fixture_groups():
            model, _ = load_model(paths)
            graph = parse_dot(render_dot(model))
            assert graph.nodes, name

    def test_rendering_is_deterministic(self):
        for seed in range(10):
            a = render_dot(random_model(seed))
            b = render_dot(random_model(seed))
            assert a == b
