"""Seeded input generators for the benchmark, each with its planted answer.

Every generator builds a `GsnModel` element by element and records the
answer the linter must give by construction: which registry items are
defective and why, which rules must fire. Nothing here runs a rule, so the
answer is independent of the code under test. `emit_yaml` writes a model as
a block-style `.sac.yaml` document; the benchmark never uses the linter's
own serializer to make its inputs.

Three workloads:

* ``wide``: a ~10k-element goal/strategy/solution tree shaped like
  ``tests/genmodels.py::big_model`` with ~5k trace links into all four
  traceable registries, plus compliance and conformance subtrees. A few
  percent of the registry items are planted open, untraced or solution-less.
* ``deep``: a doubling ladder of chain depths (125 .. 2000 goals) with
  chains x depth ~ 8k elements per rung. The ladder crosses Python's default
  recursion limit on purpose.
* ``scaffold``: a seeded stream of small reference models made by the
  linter's own scaffold with varied options.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from gsnlint.model import (
    DEFAULT_CONTEXT_DIMENSIONS,
    ArgumentType,
    Artifact,
    ArtifactRole,
    ElementKind,
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
)

TOP_CLAIM = "The system exhibits absence of unreasonable risk in its ODD"

#: Chain depths of the ``deep`` ladder; the default recursion limit is 1000.
DEEP_LADDER = (125, 250, 500, 1000, 2000)
#: Elements per ``deep`` rung at full size (chains x depth).
DEEP_BUDGET = 8000

#: Context-dimension counts drawn for ``scaffold`` variants.
SCAFFOLD_DIMS = (1, 2, 4, 6, 8)
#: Variants in one ``scaffold`` cycle.
SCAFFOLD_CYCLE = 16

#: Registries the linter traces, with the rule that checks each one.
COVERAGE_RULES = {
    "hazards": "R6",
    "regulatory_requirements": "R3",
    "normative_requirements": "R4",
    "risk_acceptance_criteria": "D1",
}


@dataclass
class Input:
    """One op's input: the files to check and the answer they must give."""

    name: str
    model: GsnModel
    expected: dict = field(default_factory=dict)


class _Builder:
    """Appends elements in document order; file order is the build order."""

    def __init__(self) -> None:
        self.elements: list[GsnElement] = []
        self.artifacts: list[Artifact] = []

    def add(self, eid: str, kind: ElementKind, text: str, **fields) -> str:
        self.elements.append(GsnElement(eid, kind, text, **fields))
        return eid

    def solution(self, eid: str) -> str:
        aid = f"A-{eid}"
        self.artifacts.append(Artifact(aid, ArtifactRole.EVIDENCE, "evidence", f"ev/{eid}.pdf"))
        return self.add(eid, ElementKind.SOLUTION, "evidence record", artifacts={aid})

    def group(self, tag: str, **goal_fields) -> str:
        """big_model's unit: goal -> strategy -> solution, goal written first."""
        gid, sid, snid = f"G{tag}", f"S{tag}", f"SN{tag}"
        self.add(gid, ElementKind.GOAL, "claim", supported_by=(sid,), **goal_fields)
        self.add(sid, ElementKind.STRATEGY, "argue", supported_by=(snid,))
        self.solution(snid)
        return gid

    def model(self, model_id: str, registries: Registries) -> GsnModel:
        return GsnModel(model_id, "1", [GsnModule("m", self.elements)], registries,
                        self.artifacts)


def _plant(rng: random.Random, ids: list[str], kinds: tuple[str, ...],
           share: float) -> dict[str, str]:
    """Assign each item 'ok' or one defect kind; each defect gets `share`."""
    shuffled = ids[:]
    rng.shuffle(shuffled)
    per_kind = max(1, round(len(ids) * share))
    out = {item: "ok" for item in ids}
    for k, kind in enumerate(kinds):
        for item in shuffled[k * per_kind:(k + 1) * per_kind]:
            out[item] = kind
    return out


def _round_robin(goal_count: int, items: list[str], per_goal: int) -> list[frozenset]:
    """Trace sets for goal_count goals, cycling over items so each is used."""
    return [frozenset(items[(g * per_goal + j) % len(items)] for j in range(per_goal))
            for g in range(goal_count)]


# -- wide -------------------------------------------------------------


def wide(seed: int, scale: float = 1.0) -> list[Input]:
    """One ~10k-element model (at scale 1) with planted coverage defects."""
    rng = random.Random(seed)

    def n(count: int) -> int:
        return max(4, round(count * scale))

    product, process, compliance, conformance = n(1800), n(800), n(350), n(350)
    hazard_ids = [f"H{i}" for i in range(n(500))]
    rr_ids = [f"RR{i}" for i in range(n(100))]
    nr_ids = [f"NR{i}" for i in range(n(100))]
    rac_ids = [f"RAC{i}" for i in range(n(20))]

    hazard_kind = _plant(rng, hazard_ids, ("open", "untraced", "unbacked"), 0.02)
    rr_kind = _plant(rng, rr_ids, ("untraced", "unbacked"), 0.03)
    nr_kind = _plant(rng, nr_ids, ("untraced", "unbacked", "norationale"), 0.03)
    rac_kind = _plant(rng, rac_ids, ("untraced",), 0.1)
    rac_level = {rid: (RacLevel.GLOBAL if i % 2 == 0 else RacLevel.SCENARIO)
                 for i, rid in enumerate(rac_ids)}
    # Every level keeps at least one traced criterion, so D1's per-level
    # role check has tracers to look at.
    for level in RacLevel:
        level_ids = [r for r in rac_ids if rac_level[r] is level]
        if all(rac_kind[r] != "ok" for r in level_ids):
            rac_kind[level_ids[0]] = "ok"

    def ok(kinds: dict[str, str], *also: str) -> list[str]:
        return [item for item, kind in kinds.items() if kind in ("ok", *also)]

    b = _Builder()
    b.add("G-ROOT", ElementKind.GOAL, TOP_CLAIM, argument_type=ArgumentType.RISK,
          supported_by=("S-ROOT",))
    b.add("S-ROOT", ElementKind.STRATEGY, "argue over context, soundness, product, process",
          supported_by=("G-CTX", "G-SND", "G-PRODUCT", "G-PROCESS"))
    b.add("G-CTX", ElementKind.GOAL, "context is documented",
          argument_type=ArgumentType.CONTEXTUALIZATION, in_context_of=("C-ODD",),
          supported_by=("SN-CTX",))
    b.add("C-ODD", ElementKind.CONTEXT, "operational design domain", artifacts={"A-CTX-ODD"})
    b.artifacts.append(Artifact("A-CTX-ODD", ArtifactRole.CONTEXT_DOC, "ODD", "ctx/odd.pdf",
                                dimension="odd"))
    b.solution("SN-CTX")
    b.add("G-SND", ElementKind.GOAL, "the argument is sound",
          argument_type=ArgumentType.SOUNDNESS, roles={RoleTag.UNCERTAINTY_METHOD},
          supported_by=("SN-SND",))
    b.solution("SN-SND")

    # Product: hazard-management groups, RAC tracers, scenario goals, and
    # solution-less leaf goals for the planted unbacked hazards.
    unbacked_hazards = [h for h, kind in hazard_kind.items() if kind == "unbacked"]
    rac_traced = ok(rac_kind)
    product_goals = [f"GP{i}" for i in range(product)]
    b.add("G-PRODUCT", ElementKind.GOAL, "the product is safe",
          argument_type=ArgumentType.PRODUCT,
          supported_by=(*product_goals, "G-KNOWN", "G-UNKNOWN",
                        *(f"G-HU{i}" for i in range(len(unbacked_hazards)))))
    hazard_traces = _round_robin(product, ok(hazard_kind, "open"), 2)
    rac_roles = (RoleTag.RAC_DEFINE, RoleTag.RAC_EVALUATE, RoleTag.RAC_MAINTAIN)
    for i in range(product):
        traces, roles = hazard_traces[i], {RoleTag.HAZARD_MANAGEMENT}
        # The first 3 x |traced RACs| product goals each trace one criterion
        # with one of the define/evaluate/maintain roles.
        if i < 3 * len(rac_traced):
            traces = traces | {rac_traced[i // 3]}
            roles = roles | {rac_roles[i % 3]}
        b.group(f"P{i}", traces=traces, roles=roles)
    for gid, role in (("G-KNOWN", RoleTag.KNOWN_SCENARIOS),
                      ("G-UNKNOWN", RoleTag.UNKNOWN_SCENARIOS)):
        b.add(gid, ElementKind.GOAL, "scenario risk is reduced", roles={role},
              supported_by=(f"SN{gid[1:]}",))
        b.solution(f"SN{gid[1:]}")
    for i, hid in enumerate(unbacked_hazards):
        b.add(f"G-HU{i}", ElementKind.GOAL, "hazard addressed without evidence",
              roles={RoleTag.HAZARD_MANAGEMENT}, traces={hid})

    # Process: lifecycle and culture goals, plain process groups, and the
    # compliance and conformance subtrees (subordinate, so ST1 passes).
    unbacked_rr = [r for r, kind in rr_kind.items() if kind == "unbacked"]
    unbacked_nr = [r for r, kind in nr_kind.items() if kind == "unbacked"]
    process_goals = [f"GQ{i}" for i in range(process)]
    b.add("G-PROCESS", ElementKind.GOAL, "the process is adequate",
          argument_type=ArgumentType.PROCESS,
          supported_by=("G-CULTURE", "G-LC-OP", "G-LC-MAINT", "G-CPL", "G-CFM",
                        *process_goals))
    for gid, role in (("G-CULTURE", RoleTag.SAFETY_CULTURE),
                      ("G-LC-OP", RoleTag.LIFECYCLE_OPERATION),
                      ("G-LC-MAINT", RoleTag.LIFECYCLE_MAINTENANCE)):
        b.add(gid, ElementKind.GOAL, "process aspect holds", roles={role},
              supported_by=(f"SN{gid[1:]}",))
        b.solution(f"SN{gid[1:]}")
    for i in range(process):
        b.group(f"Q{i}")
    for head, atype, count, tag, kinds, unbacked in (
            ("G-CPL", ArgumentType.COMPLIANCE, compliance, "C", rr_kind, unbacked_rr),
            ("G-CFM", ArgumentType.CONFORMANCE, conformance, "F", nr_kind, unbacked_nr)):
        b.add(head, ElementKind.GOAL, f"{atype.value} holds", argument_type=atype,
              supported_by=(*(f"G{tag}{i}" for i in range(count)),
                            *(f"G-{tag}U{i}" for i in range(len(unbacked)))))
        traces = _round_robin(count, ok(kinds, "norationale"), 2)
        for i in range(count):
            b.group(f"{tag}{i}", traces=traces[i])
        for i, item in enumerate(unbacked):
            b.add(f"G-{tag}U{i}", ElementKind.GOAL, "requirement met without evidence",
                  traces={item})

    registries = Registries(
        hazards=[Hazard(h, "hazard", HazardStatus.OPEN if hazard_kind[h] == "open"
                        else HazardStatus.MANAGED) for h in hazard_ids],
        regulatory_requirements=[RegulatoryRequirement(r, "regulation", "requirement")
                                 for r in rr_ids],
        normative_requirements=[
            NormativeRequirement(r, "standard", "requirement",
                                 selection_rationale=None if nr_kind[r] == "norationale"
                                 else "selected for the domain")
            for r in nr_ids],
        risk_acceptance_criteria=[RiskAcceptanceCriterion(r, rac_level[r], "criterion")
                                  for r in rac_ids],
        context_dimensions=["odd"],
    )
    model = b.model("wide", registries)

    kinds_by_registry = {"hazards": hazard_kind, "regulatory_requirements": rr_kind,
                         "normative_requirements": nr_kind,
                         "risk_acceptance_criteria": rac_kind}
    errors = sorted([COVERAGE_RULES[reg], item]
                    for reg, kinds in kinds_by_registry.items()
                    for item, kind in kinds.items() if kind != "ok")
    coverage = {reg: {"uncovered": sorted(i for i, k in kinds.items() if k == "untraced"),
                      "unbacked": sorted(i for i, k in kinds.items()
                                         if k in ("untraced", "unbacked"))}
                for reg, kinds in kinds_by_registry.items()}
    # D1 does not look at solution backing, and RAC tracers are all backed.
    expected = {"exit_code": 1, "errors": errors, "warnings": [["R2", 1]], "infos": 0,
                "coverage": coverage}
    return [Input("wide", model, expected)]


# -- deep -------------------------------------------------------------


def deep_rung(depth: int, budget: int = DEEP_BUDGET) -> Input:
    """Chains of `depth` goals under the process argument, written top-down.

    The frame passes R1, R3-R6, ST1, TL1 and EV1; the role- and
    argument-less parts fail R7 (x2), R8, R9, R10 and D2 (x2), and R2 and
    D1 warn (no assurance claim points; no acceptance criteria).
    """
    chains = max(1, round(budget / depth))
    b = _Builder()
    b.add("G-ROOT", ElementKind.GOAL, TOP_CLAIM, argument_type=ArgumentType.RISK,
          supported_by=("S-ROOT",))
    b.add("S-ROOT", ElementKind.STRATEGY, "argue over product and process",
          supported_by=("G-PRODUCT", "G-PROCESS"))
    b.add("G-PRODUCT", ElementKind.GOAL, "the product is safe",
          argument_type=ArgumentType.PRODUCT, supported_by=("G-HAZ",))
    b.add("G-HAZ", ElementKind.GOAL, "hazards are managed",
          roles={RoleTag.HAZARD_MANAGEMENT}, traces={"H1", "H2"}, supported_by=("SN-HAZ",))
    b.solution("SN-HAZ")
    b.add("G-PROCESS", ElementKind.GOAL, "the process is adequate",
          argument_type=ArgumentType.PROCESS,
          supported_by=("G-CPL", "G-CFM", *(f"K{c}-1" for c in range(chains))))
    b.add("G-CPL", ElementKind.GOAL, "regulation is met", argument_type=ArgumentType.COMPLIANCE,
          traces={"RR1"}, supported_by=("SN-CPL",))
    b.solution("SN-CPL")
    b.add("G-CFM", ElementKind.GOAL, "standards are met", argument_type=ArgumentType.CONFORMANCE,
          traces={"NR1"}, supported_by=("SN-CFM",))
    b.solution("SN-CFM")
    for c in range(chains):
        for d in range(1, depth + 1):
            child = f"K{c}-{d + 1}" if d < depth else f"SN-K{c}"
            b.add(f"K{c}-{d}", ElementKind.GOAL, "step holds", supported_by=(child,))
        b.solution(f"SN-K{c}")
    registries = Registries(
        hazards=[Hazard("H1", "hazard", HazardStatus.MANAGED),
                 Hazard("H2", "hazard", HazardStatus.MANAGED)],
        regulatory_requirements=[RegulatoryRequirement("RR1", "regulation", "requirement")],
        normative_requirements=[NormativeRequirement("NR1", "standard", "requirement",
                                                     selection_rationale="selected")],
        context_dimensions=["odd"],
    )
    expected = {"exit_code": 1, "error_counts": [["D2", 2], ["R10", 1], ["R7", 2],
                                                 ["R8", 1], ["R9", 1]],
                "warnings": [["D1", 1], ["R2", 1]], "infos": 0}
    return Input(f"deep-{depth}", b.model(f"deep-{depth}", registries), expected)


def deep(seed: int, scale: float = 1.0) -> list[Input]:
    """One rung per ladder depth, shallowest first.

    The ladder is the whole workload, so the seed changes nothing: a seeded
    rung order made the op phase's peak RSS depend on the seed by 7 %.
    """
    return [deep_rung(depth, round(DEEP_BUDGET * scale)) for depth in DEEP_LADDER]


# -- scaffold ---------------------------------------------------------


def scaffold_variants(seed: int) -> list[dict]:
    """A seeded cycle of scaffold options covering every combination kind."""
    rng = random.Random(seed)
    extra = [f"dimension_{i}" for i in range(len(DEFAULT_CONTEXT_DIMENSIONS), max(SCAFFOLD_DIMS))]
    names = list(DEFAULT_CONTEXT_DIMENSIONS) + extra
    variants = []
    for i in range(SCAFFOLD_CYCLE):
        samples, split = bool(i & 1), bool(i & 2)  # each pairing four times
        dims = rng.choice(SCAFFOLD_DIMS)
        variants.append({"name": f"scaffold-{i}", "samples": samples, "split": split,
                         "dimensions": names[:dims]})
    rng.shuffle(variants)
    return variants


def scaffold_expected(samples: bool) -> dict:
    """The README promise: zero Errors; empty registries warn vacuously."""
    warnings = [] if samples else [["D1", 1], ["R3", 1], ["R4", 1], ["R6", 1]]
    return {"exit_code": 0, "errors": [], "warnings": warnings, "infos": 0,
            "hazard_rows": 1 if samples else 0}


# -- block-style YAML emitter -----------------------------------------


def _scalar(value: str) -> str:
    return json.dumps(value, ensure_ascii=False)


def _block_list(lines: list[str], indent: str, key: str, values) -> None:
    if values:
        lines.append(f"{indent}{key}:")
        lines.extend(f"{indent}  - {_scalar(v)}" for v in values)


def emit_yaml(model: GsnModel) -> str:
    """Block-style document in the model's own element order."""
    lines = ["model:", f"  id: {_scalar(model.id)}", f"  version: {_scalar(model.version)}"]
    if model.fragmentary:
        lines.append("  fragmentary: true")
    lines.append("modules:")
    for module in model.modules:
        lines += [f"  - id: {_scalar(module.id)}", "    elements:"]
        for e in module.elements:
            ind = "        "
            lines += [f"      - id: {_scalar(e.id)}", f"{ind}kind: {e.kind.value}",
                      f"{ind}text: {_scalar(e.text)}"]
            if e.undeveloped:
                lines.append(f"{ind}undeveloped: true")
            if e.argument_type is not None:
                lines.append(f"{ind}argument_type: {e.argument_type.value}")
            _block_list(lines, ind, "roles", sorted(r.value for r in e.roles))
            _block_list(lines, ind, "supported_by", e.supported_by)
            _block_list(lines, ind, "in_context_of", e.in_context_of)
            _block_list(lines, ind, "traces", sorted(e.traces))
            _block_list(lines, ind, "artifacts", sorted(e.artifacts))
            if e.acps:
                lines.append(f"{ind}acp:")
                for a in e.acps:
                    lines += [f"{ind}  - target: {_scalar(a.target)}",
                              f"{ind}    relation: {a.relation.value}",
                              f"{ind}    confidence_goal: {_scalar(a.confidence_goal)}"]
    reg = model.registries
    sections = {
        "hazards": [{"id": h.id, "description": h.description, "status": h.status.value}
                    for h in reg.hazards],
        "regulatory_requirements": [{"id": r.id, "source": r.source, "text": r.text}
                                    for r in reg.regulatory_requirements],
        "normative_requirements": [{"id": r.id, "source": r.source, "text": r.text,
                                    "selection_rationale": r.selection_rationale}
                                   for r in reg.normative_requirements],
        "risk_acceptance_criteria": [{"id": r.id, "level": r.level.value, "text": r.text}
                                     for r in reg.risk_acceptance_criteria],
    }
    lines.append("registries:")
    for name, items in sections.items():
        if items:
            lines.append(f"  {name}:")
            for item in items:
                lines += _mapping_entry("    ", item)
    _block_list(lines, "  ", "context_dimensions", reg.context_dimensions)
    if model.artifacts:
        lines.append("artifacts:")
        for a in model.artifacts:
            lines += _mapping_entry("  ", {"id": a.id, "role": a.role.value, "title": a.title,
                                          "uri": a.uri, "dimension": a.dimension})
    return "\n".join(lines) + "\n"


def _mapping_entry(indent: str, fields: dict) -> list[str]:
    pairs = [(k, v) for k, v in fields.items() if v is not None]
    first, *rest = pairs
    return ([f"{indent}- {first[0]}: {_scalar(first[1])}"]
            + [f"{indent}  {k}: {_scalar(v)}" for k, v in rest])
