"""The graph-traversal layer against reference implementations and networkx.

`model._walk` is the layer's one traversal, an iterative depth-first
search.  Its walk from every element runs once per model and is cached:
its cycles feed WF1 and the parser's `cycle` diagnostics, and its
post-order gives `GsnModel.topo_order`.  `GsnModel.reachable_from` (R1
when the root is not itself in the risk argument, and `descendants`) is a
walk's closure plus contexts.  R5 and ST1 each derive their outer
argument's scope in one pass over `topo_order`, which on well-formed
models equals `reachable_from` of its members.  The references below are
the recursive cycle finder and the per-start reachability it replaced;
networkx is an independent oracle used here only, never at run time.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import networkx as nx
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsnlint import model as model_module
from gsnlint.cli import main
from gsnlint.findings import Severity
from gsnlint.model import (
    REGISTRY_ITEMS,
    AcpRelation,
    ArgumentType,
    Artifact,
    ArtifactRole,
    AssuranceClaimPoint,
    ElementKind,
    GsnElement,
    GsnModel,
    GsnModule,
    Registries,
    RoleTag,
    _walk,
    find_structural_problems,
    link_model,
)
from gsnlint.parser import load_model, parse_model
from gsnlint.rules import _rule_r5, _rule_st1, evaluate, make_profile
from gsnlint.wellformed import _GUARD_RULES, LEGAL_SUPPORT_TARGETS, check_wellformed

from conftest import FIXTURES, diagnostics_envelope, good_fixture_groups
from genmodels import big_model, random_model


# -- references ------------------------------------------------------


def find_cycles(index: dict[str, GsnElement]) -> list[tuple[str, ...]]:
    """The walk's cycles from every element, as the structural guards run it."""
    return _walk(index, index)[1]


def reference_find_cycles(index: dict[str, GsnElement]) -> list[tuple[str, ...]]:
    """The recursive cycle finder; fails past Python's recursion limit."""
    color: dict[str, int] = {}  # 0 unvisited, 1 on stack, 2 done
    cycles: list[tuple[str, ...]] = []
    stack: list[str] = []

    def visit(node: str) -> None:
        color[node] = 1
        stack.append(node)
        for child in index[node].supported_by:
            if child not in index:
                continue
            state = color.get(child, 0)
            if state == 0:
                visit(child)
            elif state == 1:
                cycles.append(tuple(stack[stack.index(child):]))
        stack.pop()
        color[node] = 2

    for node in index:
        if color.get(node, 0) == 0:
            visit(node)
    return cycles


def reference_descendants(model: GsnModel, element_id: str) -> set[str]:
    """One traversal per call, as descendants() was before the shared pass."""
    start = model.resolve(element_id)
    seen: set[str] = set(start.in_context_of)
    frontier = list(start.supported_by)
    while frontier:
        eid = frontier.pop()
        if eid in seen or eid not in model.index:
            continue
        seen.add(eid)
        element = model.index[eid]
        seen.update(c for c in element.in_context_of if c in model.index)
        frontier.extend(element.supported_by)
    seen.discard(element_id)
    return seen


def reference_reachable_from(model: GsnModel, element_ids) -> set[str]:
    out: set[str] = set()
    for eid in element_ids:
        if eid in model.index:
            out.add(eid)
            out |= reference_descendants(model, eid)
    return out


def support_digraph(index: dict[str, GsnElement]) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(index)
    graph.add_edges_from((e.id, child) for e in index.values()
                         for child in e.supported_by if child in index)
    return graph


def random_graph(rng: random.Random) -> dict[str, GsnElement]:
    """Up to 15 elements with random supported_by lists: cycles, self-loops,
    repeated children and references to ids that do not exist."""
    ids = [f"E{i}" for i in range(rng.randint(1, 15))]
    targets = ids + ["X1", "X2"]
    return {eid: GsnElement(
        eid, ElementKind.GOAL,
        supported_by=tuple(rng.choice(targets) for _ in range(rng.randint(0, 3))))
        for eid in ids}


def random_relations(rng: random.Random) -> dict[str, GsnElement]:
    """`random_graph` plus random in_context_of lists over the same targets,
    so elements can sit in both relations of one parent."""
    index = random_graph(rng)
    targets = [*index, "X1"]
    for element in index.values():
        element.in_context_of = tuple(rng.choice(targets) for _ in range(rng.randint(0, 2)))
    return index


def as_model(index: dict[str, GsnElement]) -> GsnModel:
    return GsnModel("graph", modules=[GsnModule("m", list(index.values()))])


def random_dag(rng: random.Random) -> dict[str, GsnElement]:
    """Up to 15 elements whose supported_by lists only name later ids of a
    shuffled order, so the relation is acyclic."""
    ids = [f"E{i}" for i in range(rng.randint(1, 15))]
    rng.shuffle(ids)
    return {eid: GsnElement(
        eid, ElementKind.GOAL,
        supported_by=tuple(rng.sample(ids[i + 1:], min(len(ids) - i - 1, rng.randint(0, 3)))))
        for i, eid in enumerate(ids)}


def random_wellformed(rng: random.Random) -> GsnModel:
    """Up to 20 elements of random kinds, argument types and roles, each
    supported only by later, legal ones (so joins below differently typed
    parents are common), with contexts attached through in_context_of."""
    kinds = [ElementKind.GOAL, ElementKind.STRATEGY, ElementKind.SOLUTION, ElementKind.CONTEXT]
    elements = [GsnElement(f"E{i}", rng.choice(kinds),
                           argument_type=rng.choice([None, None, *ArgumentType]),
                           roles=frozenset(rng.sample(list(RoleTag), rng.randint(0, 2))))
                for i in range(rng.randint(1, 20))]
    for i, element in enumerate(elements):
        later = elements[i + 1:]
        legal = LEGAL_SUPPORT_TARGETS.get(element.kind, frozenset())
        children = [e.id for e in later if e.kind in legal]
        contexts = [e.id for e in later if e.kind is ElementKind.CONTEXT]
        if element.kind in (ElementKind.GOAL, ElementKind.STRATEGY):
            element.supported_by = tuple(
                rng.sample(children, min(len(children), rng.randint(0, 3))))
            element.in_context_of = tuple(
                rng.sample(contexts, min(len(contexts), rng.randint(0, 2))))
    return GsnModel("random", modules=[GsnModule("m", elements)])


def wellformed_models() -> list[tuple[str, GsnModel]]:
    models = [(f"random-{seed}", random_model(seed)) for seed in range(100)]
    for name, paths in good_fixture_groups():
        model, _ = load_model([str(p) for p in paths])
        models.append((name, model))
    return [(name, model) for name, model in models
            if not any(f.severity is Severity.ERROR for f in check_wellformed(model))]


def chain(depth: int, close: bool = False) -> dict[str, GsnElement]:
    """G0 -> G1 -> ... -> G<depth-1>, optionally closed back to G0."""
    index = {f"G{i}": GsnElement(f"G{i}", ElementKind.GOAL, supported_by=(f"G{i + 1}",))
             for i in range(depth - 1)}
    last = f"G{depth - 1}"
    index[last] = GsnElement(last, ElementKind.GOAL, supported_by=("G0",) if close else ())
    return index


# -- cycles ----------------------------------------------------------


class TestCycles:
    def test_matches_recursive_reference_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(3000):
            index = random_graph(rng)
            assert find_cycles(index) == reference_find_cycles(index), index

    def test_networkx_oracle(self):
        rng = random.Random(11)
        for _ in range(1000):
            index = random_graph(rng)
            graph = support_digraph(index)
            cycles = find_cycles(index)
            assert bool(cycles) == (not nx.is_directed_acyclic_graph(graph)), index
            for cycle in cycles:
                assert len(set(cycle)) == len(cycle)
                for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
                    assert graph.has_edge(src, dst), (cycle, index)

    def test_chain_past_the_recursion_limit(self):
        assert find_cycles(chain(5000)) == []
        cycles = find_cycles(chain(5000, close=True))
        assert cycles == [tuple(f"G{i}" for i in range(5000))]


# -- well-formedness guards ------------------------------------------


class TestStructuralGuards:
    def test_wf1_to_wf3_are_the_structural_problems(self):
        """On unparsed models, evaluate's WF1-WF3 findings are exactly
        find_structural_problems mapped through the guard-rule table."""
        rng = random.Random(17)
        profile = make_profile("gsn-wf")
        targets = ["E0", "E1", "E2", "X1"]
        for _ in range(1000):
            elements = list(random_graph(rng).values())
            # Duplicate ids (with their own children) and ACPs, some invalid.
            elements += [replace(rng.choice(elements),
                                 supported_by=tuple(rng.sample(targets, rng.randint(0, 2))))
                         for _ in range(rng.randint(0, 2))]
            for element in rng.sample(elements, rng.randint(0, min(2, len(elements)))):
                element.acps = (AssuranceClaimPoint(
                    rng.choice(targets), rng.choice(list(AcpRelation)), rng.choice(targets)),)
            rng.shuffle(elements)
            split = rng.randint(0, len(elements))
            # A registry item or an artifact repeated, sometimes.
            registries = Registries(**{name: [cls(f"{name}-{i}") for i in range(2)]
                                       for name, cls in REGISTRY_ITEMS.items()})
            artifacts = [Artifact(f"A{i}", ArtifactRole.EVIDENCE) for i in range(2)]
            records = rng.choice([*(getattr(registries, name) for name in REGISTRY_ITEMS),
                                  artifacts, [], [], [], []])
            if records:
                records.insert(rng.randint(0, 2), replace(rng.choice(records)))
            model = GsnModel("case", modules=[GsnModule("a", elements[:split]),
                                              GsnModule("b", elements[split:])],
                             registries=registries, artifacts=artifacts)
            expected = sorted((_GUARD_RULES[p.code], Severity.ERROR, p.message, p.elements)
                              for p in find_structural_problems(model))
            found = sorted((f.rule, f.severity, f.message, f.elements)
                           for f in evaluate(model, profile)
                           if f.rule in ("WF1", "WF2", "WF3"))
            assert found == expected, elements
            assert sum(m.startswith("duplicate id ") for _, _, m, _ in expected) == bool(records)

    def test_an_element_listed_twice_is_a_duplicate(self):
        element = GsnElement("G1", ElementKind.GOAL)
        for modules in ([GsnModule("a", [element, element])],
                        [GsnModule("a", [element]), GsnModule("b", [element])]):
            problems = find_structural_problems(GsnModel("m", modules=modules))
            assert [(p.code, p.elements) for p in problems] == [("duplicate-id", ("G1",))]


# -- one support walk per model --------------------------------------


class TestOneWalkPerModel:
    """The guards and `topo_order` share the model's one cached walk, and R5
    and ST1 make one pass over `topo_order`; only R1 walks again, from the
    root, and only when the root is not itself in the risk argument (so in
    this fixture, whose root goal is untyped)."""

    @staticmethod
    def count_walks(monkeypatch) -> list[None]:
        calls: list[None] = []

        def counting(index, starts):
            calls.append(None)
            return _walk(index, starts)

        monkeypatch.setattr(model_module, "_walk", counting)
        return calls

    def test_parsed_check(self, monkeypatch):
        calls = self.count_walks(monkeypatch)
        result = CliRunner().invoke(
            main, ["check", "--format", "json", str(FIXTURES / "28-scaffold-default.sac.yaml")])
        assert result.exit_code == 0, result.output
        assert len(calls) == 2

    def test_linked_evaluate(self, monkeypatch):
        parsed, _ = load_model([str(FIXTURES / "28-scaffold-default.sac.yaml")])
        calls = self.count_walks(monkeypatch)
        model = link_model(parsed.id, parsed.version, parsed.modules, parsed.registries,
                           parsed.artifacts)
        evaluate(model, make_profile("all"))
        assert len(calls) == 2
        calls.clear()
        find_structural_problems(model)
        assert calls == []


# -- reachability ----------------------------------------------------


class TestReachability:
    def test_matches_per_start_reference(self):
        for name, model in wellformed_models():
            for eid in model.index:
                assert model.descendants(eid) == reference_descendants(model, eid), \
                    (name, eid)
            for argument_type in ArgumentType:
                subset = model.argument_subset(argument_type)
                assert model.reachable_from(subset) == \
                    reference_reachable_from(model, subset), (name, argument_type)
            everything = [*model.index, "no-such-id"]
            assert model.reachable_from(everything) == \
                reference_reachable_from(model, everything), name

    def test_networkx_oracle(self):
        for name, model in wellformed_models():
            graph = support_digraph(model.index)
            for argument_type in ArgumentType:
                subset = model.argument_subset(argument_type)
                closure = set(subset)
                for eid in subset:
                    closure |= nx.descendants(graph, eid)
                expected = closure | {c for eid in closure
                                      for c in model.index[eid].in_context_of}
                assert model.reachable_from(subset) == expected, (name, argument_type)

    def test_networkx_oracle_on_ill_formed_graphs(self):
        """Cycles, self-loops, dangling ids and elements in both relations:
        the supported_by closure of the starts, plus the in_context_of
        targets of every element in it."""
        rng = random.Random(23)
        for _ in range(3000):
            index = random_relations(rng)
            model = as_model(index)
            graph = support_digraph(index)
            starts = rng.choices([*index, "X2"], k=rng.randint(0, 3))
            closure = {eid for eid in starts if eid in index}
            for eid in list(closure):
                closure |= nx.descendants(graph, eid)
            expected = closure | {c for eid in closure
                                  for c in index[eid].in_context_of if c in index}
            assert model.reachable_from(starts) == expected, (starts, index)

    def test_element_first_reached_as_a_context_is_expanded(self):
        index = {
            "E0": GsnElement("E0", ElementKind.GOAL, supported_by=("E5",),
                             in_context_of=("E5",)),
            "E5": GsnElement("E5", ElementKind.GOAL, supported_by=("E4",)),
            "E4": GsnElement("E4", ElementKind.GOAL, supported_by=("E3",)),
            "E3": GsnElement("E3", ElementKind.GOAL),
        }
        assert as_model(index).reachable_from(["E0"]) == {"E0", "E3", "E4", "E5"}


class TestArgumentScopes:
    """R5's and ST1's stray members, and `role_members`, are exact on
    well-formed models."""

    #: (rule, outer argument, inner arguments) of each containment rule.
    CONTAINMENT = ((_rule_r5, ArgumentType.RISK, (ArgumentType.PRODUCT, ArgumentType.PROCESS)),
                   (_rule_st1, ArgumentType.PROCESS,
                    (ArgumentType.CONFORMANCE, ArgumentType.COMPLIANCE)))

    @staticmethod
    def models() -> list[tuple[str, GsnModel]]:
        rng = random.Random(37)
        generated = [(f"random-wellformed-{i}", random_wellformed(rng)) for i in range(500)]
        for name, model in generated:
            assert not any(f.severity is Severity.ERROR for f in check_wellformed(model)), name
        return [*wellformed_models(), ("big_model(2000, 1000)", big_model(2000, 1000)),
                *generated]

    def test_strays_lie_outside_the_closure_of_the_outer_argument(self):
        """Each inner argument's members that `reachable_from` the outer
        argument's members misses, sorted; R5 judges none without a risk
        argument."""
        for name, model in self.models():
            for rule, outer, inner in self.CONTAINMENT:
                members = model.argument_subset(outer)
                scope = model.reachable_from(members)
                expected = [(t.value, stray) for t in inner
                            if (stray := tuple(sorted(model.argument_subset(t) - scope)))]
                if rule is _rule_r5 and not members:
                    expected = []
                found = [(f.message.split()[0], f.elements) for f in rule(model) if f.elements]
                assert found == expected, (name, rule.__name__)

    def test_role_members_filter_the_index(self):
        for name, model in self.models():
            for role in RoleTag:
                assert model.role_members[role] == tuple(sorted(
                    eid for eid, element in model.index.items() if role in element.roles)), \
                    (name, role)


# -- topological order -----------------------------------------------


class TestTopoOrder:
    def test_parents_before_children_on_acyclic_graphs(self):
        rng = random.Random(29)
        for _ in range(1000):
            index = random_dag(rng)
            order = as_model(index).topo_order
            assert sorted(order) == sorted(index), index
            position = {eid: i for i, eid in enumerate(order)}
            for element in index.values():
                for child in element.supported_by:
                    assert position[element.id] < position[child], (order, index)

    def test_every_element_once_on_any_graph(self):
        rng = random.Random(31)
        for _ in range(1000):
            index = random_graph(rng)
            assert sorted(as_model(index).topo_order) == sorted(index), index


# -- contracts: parse_model and evaluate never raise ----------------------

@st.composite
def element_lists(draw) -> list[dict]:
    """Elements E0..En-1 of random kinds, types, roles, traces and ACPs.

    A tame list links each element only to later ones, so it parses; a wild
    one may also hold cycles, self-loops, duplicate ids, dangling
    references and an unknown kind.
    """
    n = draw(st.integers(1, 10))
    ids = [f"E{i}" for i in range(n)]
    wild = draw(st.booleans())
    kinds = [k.value for k in ElementKind] + (["bogus"] if wild else [])
    elements = []
    for i, eid in enumerate(ids):
        targets = ids + ["X9"] if wild else ids[i + 1:]
        refs = st.lists(st.sampled_from(targets), max_size=3) if targets else st.just([])
        element = draw(st.fixed_dictionaries(
            {"id": st.sampled_from(ids) if wild else st.just(eid),
             "kind": st.sampled_from(kinds)},
            optional={
                "text": st.text(max_size=5),
                "supported_by": refs,
                "in_context_of": refs,
                "argument_type": st.sampled_from([t.value for t in ArgumentType]),
                "roles": st.lists(st.sampled_from([r.value for r in RoleTag]),
                                  max_size=2),
                "undeveloped": st.booleans(),
                "traces": st.lists(st.sampled_from(["H1", "R1", "N1", "RAC1"]),
                                   max_size=2),
                "artifacts": st.lists(st.sampled_from(["EV1", "CD1", "X9"]), max_size=2),
            }))
        elements.append(element)
    # A tame ACP sits on a declared relation and names a goal.
    goals = [e["id"] for e in elements if wild or e["kind"] == "goal"]
    for element in elements:
        relation = draw(st.sampled_from(["supported_by", "in_context_of"]))
        targets = ids + ["X9"] if wild else element.get(relation)
        if goals and targets and draw(st.booleans()):
            element["acp"] = [{"target": draw(st.sampled_from(targets)),
                               "relation": relation,
                               "confidence_goal": draw(st.sampled_from(goals))}]
    return elements


_REGISTRIES = {
    "hazards": [{"id": "H1", "description": "d", "status": "managed"}],
    "regulatory_requirements": [{"id": "R1", "source": "s", "text": "t"}],
    "normative_requirements": [{"id": "N1", "source": "s", "text": "t"}],
    "risk_acceptance_criteria": [{"id": "RAC1", "level": "global", "text": "t"}],
}
_ARTIFACTS = [{"id": "EV1", "role": "evidence"},
              {"id": "CD1", "role": "context_doc", "dimension": "odd"}]
_YAML_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["model", "modules", "id", "elements", "kind",
                                       "supported_by", "registries", "hazards"]),
                      inner, max_size=3),
    max_leaves=12)
_SETTINGS = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
_CLI_SETTINGS = settings(max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def _document(elements: list[dict], split: int, with_registries: bool) -> dict:
    """A model document with `elements` split over two modules."""
    document = {"model": {"id": "case"},
                "modules": [{"id": "m0", "elements": elements[:split]},
                            {"id": "m1", "elements": elements[split:]}]}
    if with_registries:
        document["registries"] = _REGISTRIES
        document["artifacts"] = _ARTIFACTS
    return document


def _parse_and_evaluate(document) -> None:
    text = yaml.safe_dump(document, sort_keys=False)
    model, diags = parse_model([("case.sac.yaml", text)])
    assert (model is None) == any(d.severity is Severity.ERROR for d in diags)
    if model is not None:
        for profile in ("all", "core"):
            evaluate(model, make_profile(profile))


class TestNeverRaises:
    @_SETTINGS
    @given(elements=element_lists(), split=st.integers(0, 10),
           with_registries=st.booleans())
    def test_random_element_graphs(self, elements, split, with_registries):
        _parse_and_evaluate(_document(elements, split, with_registries))

    @_SETTINGS
    @given(document=_YAML_DATA)
    def test_random_yaml_trees(self, document):
        _parse_and_evaluate(document)


class TestExitCodes:
    """Exit codes, end to end: never 3, 2 exactly when `parse_model` returns
    no model, and then `check`'s stdout, and `trace`'s under --format json,
    is the JSON envelope of `parse_model`'s diagnostics while the other
    formats print nothing; otherwise `check` exits 1 exactly when a reported
    finding is an Error, or a Warning under --strict-warnings, and `trace`
    and `render` on the same file exit 0."""

    #: How `trace` and `render` run on each example.
    _OTHERS = dict(registry=st.sampled_from(sorted(_REGISTRIES)),
                   trace_format=st.sampled_from(["csv", "json"]), color=st.booleans())

    @staticmethod
    def check(document, strict: bool, registry: str, trace_format: str,
              color: bool) -> None:
        text = yaml.safe_dump(document, sort_keys=False)
        model, diags = parse_model([("case.sac.yaml", text)])
        runner = CliRunner()
        with runner.isolated_filesystem():
            Path("case.sac.yaml").write_text(text, encoding="utf-8")
            argv = ["check", "--format", "json", "case.sac.yaml"]
            result = runner.invoke(main, argv + ["--strict-warnings"] * strict)
            others = [
                runner.invoke(main, ["trace", registry, "--format", trace_format,
                                     "case.sac.yaml"]),
                runner.invoke(main, ["render", "case.sac.yaml"] + ["--color-by-type"] * color),
            ]
        for other in others:
            assert other.exit_code == (2 if model is None else 0), other.output
        assert result.exit_code != 3, result.output
        if model is None:
            assert result.exit_code == 2, result.output
            envelope = diagnostics_envelope(diags)
            assert json.loads(result.stdout) == envelope
            trace_result, render_result = others
            if trace_format == "json":
                assert json.loads(trace_result.stdout) == envelope
            else:
                assert trace_result.stdout == ""
            assert render_result.stdout == ""
            return
        failing = {"error", "warning"} if strict else {"error"}
        findings = json.loads(result.stdout)["findings"]
        assert result.exit_code == int(any(f["severity"] in failing for f in findings))

    @_CLI_SETTINGS
    @given(elements=element_lists(), split=st.integers(0, 10),
           with_registries=st.booleans(), strict=st.booleans(), **_OTHERS)
    def test_random_element_graphs(self, elements, split, with_registries, strict,
                                   registry, trace_format, color):
        self.check(_document(elements, split, with_registries), strict,
                   registry, trace_format, color)

    @_CLI_SETTINGS
    @given(document=_YAML_DATA, strict=st.booleans(), **_OTHERS)
    def test_random_yaml_trees(self, document, strict, registry, trace_format, color):
        self.check(document, strict, registry, trace_format, color)


# -- deep chains -----------------------------------------------------


def chain_yaml(depth: int) -> str:
    """A supported_by chain of `depth` goals ending in one solution, written
    directly because serialize_model is slow at this size."""
    lines = ["model: {id: chain}", "modules:", "  - id: main", "    elements:",
             "      - {id: G0, kind: goal, text: root, argument_type: risk, "
             "supported_by: [G1]}"]
    lines += [f"      - {{id: G{i}, kind: goal, text: claim, supported_by: [G{i + 1}]}}"
              for i in range(1, depth - 1)]
    lines += [f"      - {{id: G{depth - 1}, kind: goal, text: claim, supported_by: [SN]}}",
              "      - {id: SN, kind: solution, text: evidence}"]
    return "\n".join(lines) + "\n"


def test_ten_thousand_goal_chain(tmp_path):
    depth = 10_000
    path = tmp_path / "chain.sac.yaml"
    path.write_text(chain_yaml(depth), encoding="utf-8")
    model, diags = load_model([str(path)])
    assert model is not None, diags
    assert len(model.descendants("G0")) == depth
    findings = evaluate(model, make_profile("all"))
    assert not any(f.rule.startswith("WF") and f.severity is Severity.ERROR
                   for f in findings)
    assert any(f.severity is Severity.ERROR for f in findings)
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.exit_code == 1, result.output
