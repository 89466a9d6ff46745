"""Traceability matrices and coverage statistics.

Links between registry items and argumentation elements are declared via
element `traces` annotations; each registry is covered from a fixed
argument subset (hazards and acceptance criteria from the product
argument, regulatory requirements from compliance, normative ones from
conformance).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .model import AcpRelation, ArgumentType, ElementKind, GsnModel

#: Which argument subset may cover which registry.
REGISTRY_SUBSETS: dict[str, ArgumentType] = {
    "hazards": ArgumentType.PRODUCT,
    "regulatory_requirements": ArgumentType.COMPLIANCE,
    "normative_requirements": ArgumentType.CONFORMANCE,
    "risk_acceptance_criteria": ArgumentType.PRODUCT,
}


@dataclass(frozen=True, slots=True)
class TraceRow:
    item_id: str
    covering_elements: tuple[str, ...]
    solution_backed: bool

    @property
    def covered(self) -> bool:
        return bool(self.covering_elements)


@dataclass(frozen=True, slots=True)
class TraceMatrix:
    registry_name: str
    rows: tuple[TraceRow, ...]
    coverage: float
    vacuous: bool


def trace_registry(model: GsnModel, registry_name: str) -> TraceMatrix:
    """Coverage of one registry by its associated argument subset.

    An empty registry reports coverage 1.0 with the vacuous flag set, so
    threshold-style consumers stay simple.
    """
    # item_ids raises UnknownRegistryError, so an unknown name never reaches the subset lookup.
    item_ids = model.registries.item_ids(registry_name)
    subset = model.argument_subset(REGISTRY_SUBSETS[registry_name])
    rows = []
    for item_id in item_ids:
        covering = tuple(eid for eid in model.item_tracers.get(item_id, ()) if eid in subset)
        backed = any(model.has_solution_descendant[eid] for eid in covering)
        rows.append(TraceRow(item_id, covering, backed))
    if not rows:
        return TraceMatrix(registry_name, (), 1.0, True)
    coverage = sum(1 for r in rows if r.covered) / len(rows)
    return TraceMatrix(registry_name, tuple(rows), coverage, False)


def matrix_to_csv(matrix: TraceMatrix) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["item_id", "covered", "solution_backed", "covering_elements"])
    for row in matrix.rows:
        writer.writerow([row.item_id, str(row.covered).lower(),
                         str(row.solution_backed).lower(),
                         " ".join(row.covering_elements)])
    return buffer.getvalue()


def matrix_to_dict(matrix: TraceMatrix) -> dict:
    """Plain-data form of a matrix, shared by every JSON output."""
    return {
        "registry": matrix.registry_name,
        "coverage": matrix.coverage,
        "vacuous": matrix.vacuous,
        "rows": [
            {"item_id": r.item_id, "covered": r.covered,
             "solution_backed": r.solution_backed,
             "covering_elements": list(r.covering_elements)}
            for r in matrix.rows
        ],
    }


def matrix_to_json(matrix: TraceMatrix) -> str:
    return json.dumps(matrix_to_dict(matrix), indent=2)


def acp_report(model: GsnModel) -> dict:
    """Assurance-claim-point placement statistics over the risk argument."""
    risk = model.argument_subset(ArgumentType.RISK)
    risk_edges = sum(len(e.supported_by) for e in model.iter_elements() if e.id in risk)
    acp_edges: set[tuple[str, str]] = set()  # an edge with several ACPs counts once
    total_acps = 0
    referenced_goals: set[str] = set()
    for element in model.iter_elements():
        for acp in element.acps:
            total_acps += 1
            referenced_goals.add(acp.confidence_goal)
            if element.id in risk and acp.relation is AcpRelation.SUPPORTED_BY:
                acp_edges.add((element.id, acp.target))
    confidence = model.argument_subset(ArgumentType.CONFIDENCE)
    unlinked = sorted(
        eid for eid in confidence
        if model.index[eid].kind is ElementKind.GOAL and eid not in referenced_goals)
    density = len(acp_edges) / risk_edges if risk_edges else 0.0
    return {
        "total_acps": total_acps,
        "risk_edges": risk_edges,
        "acp_density": density,
        "unlinked_confidence_goals": unlinked,
    }


def evidence_report(model: GsnModel) -> dict:
    """Solutions lacking artifacts and goals left undeveloped, sorted by id."""
    solutions = [e for e in model.iter_elements() if e.kind is ElementKind.SOLUTION]
    without_artifacts = sorted(e.id for e in solutions if not e.artifacts)
    undeveloped = sorted(e.id for e in model.iter_elements() if e.undeveloped)
    return {
        "solutions_total": len(solutions),
        "solutions_without_artifacts": without_artifacts,
        "undeveloped_goals": undeveloped,
    }
