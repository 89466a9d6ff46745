"""The shared trace index against a brute-force subset scan.

`GsnModel.item_tracers` feeds both the trace matrices and the coverage
rules (R3, R4, R6, D1). The reference here scans a whole argument subset
once per registry item, which is what both did before the index existed.
"""

from __future__ import annotations

import re
import time

from gsnlint.findings import Severity
from gsnlint.model import (
    ArgumentType,
    ElementKind,
    GsnElement,
    GsnModule,
    Hazard,
    HazardStatus,
    Registries,
    RoleTag,
    link_model,
)
from gsnlint.parser import load_model
from gsnlint.rules import evaluate, make_profile
from gsnlint.trace import REGISTRY_SUBSETS, trace_registry

from conftest import good_fixture_groups
from genmodels import big_model, random_model

#: Coverage rule -> the registry it checks.
RULE_REGISTRIES = {
    "R3": "regulatory_requirements",
    "R4": "normative_requirements",
    "R6": "hazards",
    "D1": "risk_acceptance_criteria",
}


def _scan(model, item_id: str, subset: set[str], role=None) -> tuple[str, ...]:
    """Subset members tracing an item, optionally role-filtered (reference)."""
    out = []
    for eid in subset:
        element = model.index[eid]
        if item_id in element.traces and (role is None or role in element.roles):
            out.append(eid)
    return tuple(sorted(out))


def _expected_tracers(model, rule: str) -> dict[str, tuple[str, ...]]:
    registry = RULE_REGISTRIES[rule]
    subset = model.argument_subset(REGISTRY_SUBSETS[registry])
    role = RoleTag.HAZARD_MANAGEMENT if rule == "R6" else None
    return {item_id: _scan(model, item_id, subset, role)
            for item_id in model.registries.item_ids(registry)}


def _models():
    for seed in range(100):
        yield f"random-{seed}", random_model(seed)
    for name, paths in good_fixture_groups():
        model, diags = load_model(paths)
        assert model is not None, (name, diags)
        yield name, model


def _check_matrices(name, model):
    for registry, argument_type in REGISTRY_SUBSETS.items():
        subset = model.argument_subset(argument_type)
        matrix = trace_registry(model, registry)
        assert [row.item_id for row in matrix.rows] == model.registries.item_ids(registry)
        for row in matrix.rows:
            assert row.covering_elements == _scan(model, row.item_id, subset), \
                (name, registry, row.item_id)


def _check_coverage_findings(name, model):
    findings = evaluate(model, make_profile("all"))
    for rule in RULE_REGISTRIES:
        expected = _expected_tracers(model, rule)
        for finding in findings:
            if finding.rule != rule or finding.severity is not Severity.ERROR:
                continue
            quoted = re.search(r"'([^']*)'", finding.message)
            if quoted and quoted.group(1) in expected:
                want = expected[quoted.group(1)]
            elif rule == "D1" and "lack elements with roles" in finding.message:
                level = finding.message.split()[0]
                want = tuple(sorted(set().union(*(
                    expected[c.id] for c in model.registries.risk_acceptance_criteria
                    if c.level.value == level))))
            else:
                want = ()
            assert finding.elements == want, (name, finding)
    if not any(f.rule.startswith("WF") and f.severity is Severity.ERROR for f in findings):
        untraced = {m.group(1) for f in findings if f.rule == "D1"
                    for m in [re.search(r"criterion '([^']*)' is not traced", f.message)]
                    if m}
        expected = _expected_tracers(model, "D1")
        assert untraced == {i for i, t in expected.items() if not t}, name


def test_index_matches_subset_scan():
    for name, model in _models():
        _check_matrices(name, model)
        _check_coverage_findings(name, model)


def test_tracer_without_hazard_management_role_covers_row_but_fails_r6():
    elements = [
        GsnElement("G1", ElementKind.GOAL, "top", argument_type=ArgumentType.RISK,
                   supported_by=("G2",)),
        GsnElement("G2", ElementKind.GOAL, "hazard H1 is handled",
                   argument_type=ArgumentType.PRODUCT, traces=frozenset({"H1"}),
                   supported_by=("SN1",)),
        GsnElement("SN1", ElementKind.SOLUTION, "evidence"),
    ]
    registries = Registries(hazards=[Hazard("H1", "managed", HazardStatus.MANAGED)])
    model = link_model("no-role", modules=[GsnModule("m", elements)], registries=registries)

    (row,) = trace_registry(model, "hazards").rows
    assert row.covering_elements == ("G2",)
    assert row.solution_backed

    r6 = [f for f in evaluate(model, make_profile("core")) if f.rule == "R6"]
    assert len(r6) == 1
    assert r6[0].severity is Severity.ERROR
    assert r6[0].elements == ()
    assert "not traced by a hazard-management element" in r6[0].message


def test_evaluate_stays_linear_at_40k_elements():
    # On CPython 3.11 a per-item subset scan took about 40 s; the shared index about 1 s.
    model = big_model(40000, 20000)
    start = time.perf_counter()
    evaluate(model, make_profile("all"))
    assert time.perf_counter() - start < 10.0
