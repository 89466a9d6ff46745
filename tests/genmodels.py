"""Seeded generators for small random models and a large synthetic model.

random_model builds well-formed (zero WF Errors) models of up to 30
elements with randomized argument typing, roles, registries, and trace
links; big_model builds a wide goal/strategy tree for performance tests;
string_model puts one string into every kind of free text a model
writes, for the YAML writer's tests; ill_formed_model builds small models
that skip the structural guards, for the guards' own tests; alias_document
writes a model text that names one ACP, element and module k times each
through YAML aliases; SKIPPED_ALIASES and SKIPPED_SECTION are model texts
that anchor collections where they are skipped; nest writes a one-line
document nested to a given depth.
"""

from __future__ import annotations

import random

from gsnlint.model import (
    AcpRelation,
    ArgumentType,
    Artifact,
    ArtifactRole,
    AssuranceClaimPoint,
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
    link_model,
)

_TAGGABLE = list(ArgumentType)
_ROLES = list(RoleTag)


def random_model(seed: int, max_elements: int = 30):
    rng = random.Random(seed)
    n = rng.randint(5, max_elements)

    kinds: list[ElementKind] = [ElementKind.GOAL]
    parents: list[int | None] = [None]
    contextual: list[bool] = [False]
    for i in range(1, n):
        # Parent must be a goal or strategy already present.
        candidates = [j for j in range(i) if kinds[j] in
                      (ElementKind.GOAL, ElementKind.STRATEGY)]
        parent = rng.choice(candidates)
        roll = rng.random()
        if roll < 0.45:
            kind = ElementKind.GOAL
        elif roll < 0.60 and kinds[parent] is ElementKind.GOAL:
            kind = ElementKind.STRATEGY
        elif roll < 0.85:
            kind = ElementKind.SOLUTION
        else:
            kind = rng.choice([ElementKind.CONTEXT, ElementKind.ASSUMPTION,
                               ElementKind.JUSTIFICATION])
        kinds.append(kind)
        parents.append(parent)
        contextual.append(kind in (ElementKind.CONTEXT, ElementKind.ASSUMPTION,
                                   ElementKind.JUSTIFICATION))

    registries = Registries(context_dimensions=[])
    for h in range(rng.randint(0, 4)):
        registries.hazards.append(Hazard(
            f"H{h}", "hazard", rng.choice(list(HazardStatus))))
    for r in range(rng.randint(0, 3)):
        registries.regulatory_requirements.append(
            RegulatoryRequirement(f"RR{r}", "law", "req"))
    for m in range(rng.randint(0, 3)):
        registries.normative_requirements.append(NormativeRequirement(
            f"NR{m}", "standard", "req",
            selection_rationale="because" if rng.random() < 0.5 else None))
    for c in range(rng.randint(0, 3)):
        registries.risk_acceptance_criteria.append(RiskAcceptanceCriterion(
            f"RAC{c}", rng.choice(list(RacLevel)), "criterion"))
    item_ids = ([h.id for h in registries.hazards]
                + [r.id for r in registries.regulatory_requirements]
                + [m.id for m in registries.normative_requirements]
                + [c.id for c in registries.risk_acceptance_criteria])

    artifacts: list[Artifact] = []
    elements: list[GsnElement] = []
    children: dict[int, list[int]] = {}
    ctx_children: dict[int, list[int]] = {}
    for i in range(1, n):
        target = ctx_children if contextual[i] else children
        target.setdefault(parents[i], []).append(i)

    for i in range(n):
        kind = kinds[i]
        eid = f"E{i}"
        fields: dict = {}
        if kind in (ElementKind.GOAL, ElementKind.STRATEGY):
            if kind is ElementKind.GOAL and rng.random() < 0.35:
                fields["argument_type"] = rng.choice(_TAGGABLE)
            if rng.random() < 0.4:
                fields["roles"] = frozenset(
                    rng.sample(_ROLES, rng.randint(1, 3)))
            if item_ids and rng.random() < 0.5:
                fields["traces"] = frozenset(
                    rng.sample(item_ids, rng.randint(1, min(3, len(item_ids)))))
        if kind is ElementKind.SOLUTION and rng.random() < 0.7:
            artifact = Artifact(f"A{i}", ArtifactRole.EVIDENCE, "ev", "ev.pdf")
            artifacts.append(artifact)
            fields["artifacts"] = frozenset({artifact.id})
        fields["supported_by"] = tuple(f"E{c}" for c in children.get(i, []))
        fields["in_context_of"] = tuple(f"E{c}" for c in ctx_children.get(i, []))
        elements.append(GsnElement(eid, kind, f"claim {i}", **fields))

    return link_model(f"random-{seed}", modules=[GsnModule("m", elements)],
                      registries=registries, artifacts=artifacts)


def big_model(n_elements: int = 10000, n_traces: int = 5000, seed: int = 7):
    """Wide typed tree: root -> risk -> product/process strands of goal ->
    strategy -> goal chains ending in solutions, with trace links spread
    over a large hazard registry."""
    rng = random.Random(seed)
    elements: list[GsnElement] = []
    artifacts: list[Artifact] = []
    registries = Registries(context_dimensions=[])
    n_hazards = max(1, n_traces // 10)
    for h in range(n_hazards):
        registries.hazards.append(Hazard(f"H{h}", "hazard", HazardStatus.MANAGED))

    branch_ids = []
    budget = n_elements - 4  # root, top strategy, two branch heads
    per_branch = 3  # goal + solution (+ trace) under alternating branch heads
    n_groups = budget // per_branch
    goal_counter = 0
    product_children: list[str] = []
    process_children: list[str] = []
    trace_goals: list[str] = []
    for g in range(n_groups):
        gid = f"G{goal_counter}"
        goal_counter += 1
        sid = f"SN{g}"
        aid = f"A{g}"
        artifacts.append(Artifact(aid, ArtifactRole.EVIDENCE, "ev", "ev.pdf"))
        elements.append(GsnElement(sid, ElementKind.SOLUTION, "evidence",
                                   artifacts=frozenset({aid})))
        strategy_id = f"S{g}"
        elements.append(GsnElement(strategy_id, ElementKind.STRATEGY, "argue",
                                   supported_by=(sid,)))
        elements.append(GsnElement(
            gid, ElementKind.GOAL, "claim", supported_by=(strategy_id,),
            roles=frozenset({RoleTag.HAZARD_MANAGEMENT})))
        trace_goals.append(gid)
        (product_children if g % 2 == 0 else process_children).append(gid)

    # Attach trace links round-robin over hazards.
    traced = 0
    by_id = {e.id: e for e in elements}
    while traced < n_traces:
        goal = by_id[trace_goals[traced % len(trace_goals)]]
        goal.traces = frozenset(goal.traces | {f"H{traced % n_hazards}"})
        traced += 1

    elements.append(GsnElement("G-PRODUCT", ElementKind.GOAL, "product",
                               argument_type=ArgumentType.PRODUCT,
                               supported_by=tuple(product_children)))
    elements.append(GsnElement("G-PROCESS", ElementKind.GOAL, "process",
                               argument_type=ArgumentType.PROCESS,
                               supported_by=tuple(process_children)))
    elements.append(GsnElement("S-ROOT", ElementKind.STRATEGY, "split",
                               supported_by=("G-PRODUCT", "G-PROCESS")))
    elements.append(GsnElement("G-ROOT", ElementKind.GOAL,
                               "absence of unreasonable risk",
                               argument_type=ArgumentType.RISK,
                               supported_by=("S-ROOT",)))
    rng.shuffle(elements)
    return link_model("big", modules=[GsnModule("m", elements)],
                      registries=registries, artifacts=artifacts)


_CLAUSE = "the argument holds because every identified hazard is managed by a verified mitigation"

#: Strings that are not printable ASCII, each in a form where libyaml's
#: emitter writes other bytes than PyYAML's pure-Python one.
FALLBACK_STRINGS = {
    "astral": "goal \U0001F600 met",
    "next-line": "before\x85after",
    "line-separator": _CLAUSE + " \u2028" + _CLAUSE,
    "tab": _CLAUSE + "\t" + _CLAUSE,
    "newline": _CLAUSE + " \n" + _CLAUSE,
}

#: Printable-ASCII strings at the edges of YAML's plain style.
EDGE_STRINGS = {
    "padded": "  leading and trailing spaces  ",
    "empty": "",
}


def string_model(text: str):
    """A well-formed model whose element texts, hazard description and one
    context dimension are all `text`."""
    elements = [GsnElement("G1", ElementKind.GOAL, text, supported_by=("SN1",),
                           traces=frozenset({"H1"})),
                GsnElement("SN1", ElementKind.SOLUTION, text)]
    registries = Registries(hazards=[Hazard("H1", text)], context_dimensions=["odd", text])
    return link_model("strings", modules=[GsnModule("m", elements)], registries=registries)


def ill_formed_model(seed: int) -> GsnModel:
    """Up to 12 elements of random kinds over two modules, built without
    `link_model`.  Three seeds in four are wild: relations may name any id,
    the element itself or the undeclared `X1` (cycles, self-loops, dangling
    references), some ids are declared twice with their own relations, one
    element object may be listed twice, and ACPs name random targets and
    confidence goals.  The rest link only to later ids and carry no ACP.
    Any relation may name one target twice."""
    rng = random.Random(seed)
    ids = [f"E{i}" for i in range(rng.randint(1, 12))]
    wild = rng.random() < 0.75
    repeated = rng.sample(ids, rng.randint(0, min(2, len(ids)))) if wild else []
    elements = []
    for i, eid in enumerate(ids + repeated):
        targets = ids + ["X1"] if wild else ids[i + 1:]
        supported_by, in_context_of = (
            tuple(rng.choices(targets, k=rng.randint(0, most))) if targets else ()
            for most in (3, 1))
        kind = rng.choice(list(ElementKind)) if rng.random() < 0.4 else ElementKind.GOAL
        acps = ((AssuranceClaimPoint(rng.choice(targets), rng.choice(list(AcpRelation)),
                                     rng.choice(targets)),)
                if wild and rng.random() < 0.25 else ())
        elements.append(GsnElement(eid, kind, f"claim {eid}", supported_by=supported_by,
                                   in_context_of=in_context_of, acps=acps))
    if wild and rng.random() < 0.2:
        elements.append(rng.choice(elements))
    rng.shuffle(elements)
    split = rng.randint(0, len(elements))
    return GsnModel(f"ill-formed-{seed}", modules=[GsnModule("a", elements[:split]),
                                                   GsnModule("b", elements[split:])])


def alias_document(k: int) -> str:
    """A model whose one module, one element and one ACP are each anchored
    once and aliased k - 1 times more (about 12 bytes per k).  A reader that
    follows aliases reads k**3 ACP records from it."""
    def named(anchor: str, body: str) -> str:
        return ", ".join([f"&{anchor} {body}"] + [f"*{anchor}"] * (k - 1))

    acps = named("A", "{target: G, relation: supported_by, confidence_goal: G}")
    elements = named("E", f"{{id: G, kind: goal, acp: [{acps}]}}")
    modules = named("M", f"{{id: m, elements: [{elements}]}}")
    return f"model: {{id: a}}\nmodules: [{modules}]\n"


#: How a collection is skipped -> a model text that anchors one there and
#: then aliases it where a collection is read, which is an Error `alias`.
SKIPPED_ALIASES = {
    "unknown key": "model: {id: d}\n"
                   "x-templates: {goal: &G {id: G1, kind: goal, undeveloped: true}}\n"
                   "modules:\n  - id: m\n    elements: [*G]\n",
    "repeated key": "model: {id: d}\nmodules:\n  - id: m\n"
                    "    id: &E [{id: G1, kind: goal, undeveloped: true}]\n"
                    "    elements: *E\n",
    "wrong type": "model: {id: d}\nmodules:\n  - id: m\n    elements:\n"
                  "      - {id: G1, kind: goal, text: &S [G2], supported_by: *S}\n"
                  "      - {id: G2, kind: goal, undeveloped: true}\n",
    "mapping key": "model: {id: d}\n? &K [{id: m, elements: [{id: G1, kind: goal}]}]\n"
                   ": x\nmodules: *K\n",
}

#: A model text whose unknown section nests anchored collections, aliased
#: within the section, and an anchored scalar that an element reads.
SKIPPED_SECTION = """\
model: {id: d}
x-notes:
  - &A {k: [&B {v: 1}, *B], n: &N noted}
  - [*A, &C [[&D {x: y}], *D, *C]]
modules:
  - id: m
    elements: [{id: G1, kind: goal, undeveloped: true, text: *N}]
"""


#: The collection shapes `nest` writes.
NEST_SHAPES = ("flow-sequence", "flow-mapping", "block-sequence")


def nest(shape: str, depth: int) -> str:
    """A one-line document whose deepest path holds `depth` nodes: flow
    sequences (`[[]]`), flow mappings around a scalar (`{b: {b: x}}`) or
    block sequences around a scalar (`- - x`)."""
    if shape == "flow-sequence":
        return "[" * depth + "]" * depth + "\n"
    if shape == "flow-mapping":
        return "{b: " * (depth - 1) + "x" + "}" * (depth - 1) + "\n"
    return "- " * (depth - 1) + "x\n"
