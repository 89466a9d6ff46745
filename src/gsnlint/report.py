"""Rendering of findings, parse diagnostics, matrices, and the model graph.

Text and JSON output are byte-deterministic for identical inputs; DOT
output follows the usual GSN shape conventions (goal=box,
strategy=parallelogram, solution=circle, contextual elements=rounded box
or ellipse) with assurance claim points spliced into their edge as small
filled squares.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field

from .findings import Finding, ParseDiagnostic, Severity
from .model import ArgumentType, ElementKind, GsnModel
from .trace import TraceMatrix, matrix_to_dict

_SHAPES = {
    ElementKind.GOAL: ("box", ""),
    ElementKind.STRATEGY: ("parallelogram", ""),
    ElementKind.SOLUTION: ("circle", ""),
    ElementKind.CONTEXT: ("box", "rounded"),
    ElementKind.ASSUMPTION: ("ellipse", ""),
    ElementKind.JUSTIFICATION: ("ellipse", ""),
}

_LABEL_SUFFIX = {ElementKind.ASSUMPTION: "A", ElementKind.JUSTIFICATION: "J"}

_TYPE_COLORS = {
    ArgumentType.RISK: "#f4cccc",
    ArgumentType.CONFIDENCE: "#d9d2e9",
    ArgumentType.CONFORMANCE: "#fce5cd",
    ArgumentType.COMPLIANCE: "#fff2cc",
    ArgumentType.PRODUCT: "#d9ead3",
    ArgumentType.PROCESS: "#cfe2f3",
    ArgumentType.CONTEXTUALIZATION: "#ead1dc",
    ArgumentType.SOUNDNESS: "#d0e0e3",
}


@dataclass
class ReportBundle:
    model_id: str
    model_version: str
    profile: str
    findings: list[Finding] = field(default_factory=list)
    matrices: list[TraceMatrix] = field(default_factory=list)
    acp_report: dict = field(default_factory=dict)
    evidence_report: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        counts = Counter(f.severity for f in self.findings)
        return {
            "errors": counts[Severity.ERROR],
            "warnings": counts[Severity.WARNING],
            "infos": counts[Severity.INFO],
        }


def emit_findings_text(bundle: ReportBundle) -> str:
    lines = []
    for finding in bundle.findings:
        elements = " ".join(finding.elements)
        parts = [finding.severity.value.upper(), finding.rule]
        if elements:
            parts.append(elements)
        parts.append(finding.message)
        lines.append(" ".join(parts))
    summary = bundle.summary
    lines.append(f"{summary['errors']} errors, {summary['warnings']} warnings")
    return "\n".join(lines) + "\n"


def emit_findings_json(bundle: ReportBundle) -> str:
    data = {
        "model": {"id": bundle.model_id, "version": bundle.model_version},
        "profile": bundle.profile,
        "findings": [
            {
                "rule": f.rule,
                "severity": f.severity.value,
                "message": f.message,
                "elements": list(f.elements),
                "file": f.location.file if f.location else None,
                "line": f.location.line if f.location else None,
            }
            for f in bundle.findings
        ],
        "summary": bundle.summary,
    }
    if bundle.matrices:
        data["matrices"] = [matrix_to_dict(m) for m in bundle.matrices]
    if bundle.acp_report:
        data["acp_report"] = bundle.acp_report
    if bundle.evidence_report:
        data["evidence_report"] = bundle.evidence_report
    return json.dumps(data, indent=2)


def emit_diagnostics_json(diagnostics: list[ParseDiagnostic]) -> str:
    """The JSON envelope of the diagnostics of an input that read as no model."""
    return json.dumps({"diagnostics": [{**asdict(d), "severity": d.severity.value}
                                       for d in diagnostics]}, indent=2)


def emit_findings(bundle: ReportBundle, format: str = "text") -> str:
    if format == "json":
        return emit_findings_json(bundle)
    if format == "text":
        return emit_findings_text(bundle)
    raise ValueError(f"unknown report format '{format}'")


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(model: GsnModel, by_argument_type_color: bool = False) -> str:
    """Graphviz digraph of the model, deterministically ordered by id."""
    lines = ["digraph " + _quote(model.id) + " {",
             "  rankdir=TB;",
             "  node [fontname=\"Helvetica\"];"]
    elements = sorted(model.index.values(), key=lambda e: e.id)
    effective = model.effective_types
    for element in elements:
        shape, style = _SHAPES[element.kind]
        label = element.id
        suffix = _LABEL_SUFFIX.get(element.kind)
        if suffix:
            label = f"{label} ({suffix})"
        attrs = [f"shape={shape}", f"label={_quote(label)}"]
        styles = [style] if style else []
        if by_argument_type_color:
            types = sorted(effective[element.id], key=lambda t: t.value)
            if types:
                styles.append("filled")
                attrs.append(f"fillcolor={_quote(_TYPE_COLORS[types[0]])}")
        if styles:
            attrs.append(f"style={_quote(','.join(styles))}")
        lines.append(f"  {_quote(element.id)} [{', '.join(attrs)}];")

    # Assurance claim points become small filled squares splicing their edge,
    # in declaration order where one edge has several.
    acp_nodes: dict[tuple[str, str, str], list[str]] = {}
    for element in elements:
        for i, acp in enumerate(element.acps):
            node_id = f"ACP:{element.id}:{i}"
            acp_nodes.setdefault((element.id, acp.relation.value, acp.target), []).append(node_id)
            lines.append(
                f"  {_quote(node_id)} [shape=square, style=\"filled\", "
                f"fillcolor=\"black\", width=0.12, label=\"\"];")

    for element in elements:
        for relation, style in (("supported_by", ""), ("in_context_of", " [style=dashed]")):
            for target in getattr(element, relation):
                hops = (element.id, *acp_nodes.get((element.id, relation, target), ()), target)
                for tail, head in zip(hops, hops[1:]):
                    lines.append(f"  {_quote(tail)} -> {_quote(head)}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
