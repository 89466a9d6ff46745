"""In-memory spans around gsnlint's public entry points.

`instrument` swaps the module attributes the CLI and library look up at
call time (and a few `GsnModel` members) for wrappers that open a span,
then restores them. Nothing inside `src/gsnlint` changes. Span names are
the per-layer metric names, so a later ``--timings`` flag can reuse them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from functools import cached_property

#: Span names whose self time is reported per op.
LAYERS = (
    "parser.compose_s", "parser.parse_model_s", "parser.serialize_s",
    "model.structural_s", "model.views_s", "model.reachable_s", "model.descendants_s",
    "wellformed.check_s", "rules.evaluate_s", "trace.matrices_s", "trace.reports_s",
    "report.emit_json_s", "report.render_dot_s", "scaffold.build_s",
)
ROOT = "op"

#: Derived views timed on first access (they are cached per model).
_VIEWS = ("index", "support_parents", "topo_order", "effective_types",
          "has_solution_descendant")


class Tracer:
    """Spans as (op_id, span_id, parent_id, name, start, end) tuples."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []
        self.op_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append(None)  # reserve the id; filled in on close
        self.stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[span_id] = (self.op_id, span_id, parent, name, start, end)

    def current(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus covered child time."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for _, span_id, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time[span_id]
        return out

    def as_records(self) -> list[dict]:
        return [{"op": op, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end}
                for op, sid, parent, name, start, end in self.spans]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route gsnlint's layer entry points through `tracer` while active."""
    import yaml
    from gsnlint import cli, parser, rules, scaffold, wellformed
    from gsnlint.model import GsnModel

    targets = [
        (yaml, "compose", "parser.compose_s"),
        (parser, "parse_model", "parser.parse_model_s"),
        (parser, "find_structural_problems", "model.structural_s"),
        (wellformed, "find_structural_problems", "model.structural_s"),
        (rules, "check_wellformed", "wellformed.check_s"),
        (rules, "evaluate", "rules.evaluate_s"),
        (cli, "trace_registry", "trace.matrices_s"),
        (cli, "acp_report", "trace.reports_s"),
        (cli, "evidence_report", "trace.reports_s"),
        (cli, "emit_findings", "report.emit_json_s"),
        (cli, "render_dot", "report.render_dot_s"),
        (cli, "serialize_model", "parser.serialize_s"),
        (cli, "serialize_registries", "parser.serialize_s"),
        (parser, "serialize_model", "parser.serialize_s"),
        (parser, "serialize_registries", "parser.serialize_s"),
        (cli, "scaffold_reference_model", "scaffold.build_s"),
        (scaffold, "scaffold_reference_model", "scaffold.build_s"),
        (GsnModel, "reachable_from", "model.reachable_s"),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in targets]
    for obj, attr, name in targets:
        setattr(obj, attr, tracer.wrap(getattr(obj, attr), name))

    # R1 calls descendants() once; reachable_from calls it once per start
    # element, which stays inside the reachable span instead.
    descendants = GsnModel.descendants

    def traced_descendants(self, element_id):
        if tracer.current() == "model.reachable_s":
            return descendants(self, element_id)
        with tracer.span("model.descendants_s"):
            return descendants(self, element_id)

    saved.append((GsnModel, "descendants", descendants))
    GsnModel.descendants = traced_descendants
    for view in _VIEWS:
        original = GsnModel.__dict__[view]
        saved.append((GsnModel, view, original))
        wrapped = cached_property(tracer.wrap(original.func, "model.views_s"))
        wrapped.__set_name__(GsnModel, view)
        setattr(GsnModel, view, wrapped)
    try:
        yield tracer
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
