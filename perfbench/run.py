"""gsnlint benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload wide|deep|scaffold --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/gsnlint``
of that checkout. Set-up runs ``generate.py`` several times in fresh
interpreters (import gsnlint, generate and write the inputs; ``SETUP_REPS``)
and reports the median. The op phase is a closed loop on one thread: each op drives the CLI
entry point in-process and the next starts when it returns. Ops run in whole
cycles over the workload's inputs; ``--seconds`` fixes how many through a
nominal per-op cost, with at least 15 ops (so the percentile with ten
samples beyond it is not the minimum; on ``wide`` and ``deep`` it still
lies below the median, see the README). A run of at least 84 ops reports
the median of that percentile over four windows of the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that runs each input untraced and traced back to back and reports per-layer self
times, counts, per-rule times and 4x scaling ratios. Human-readable lines
come first; the last stdout line is the JSON result. Details (metadata,
failure reasons, spans) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from generate import import_gsnlint, load_manifest  # noqa: E402
from spans import LAYERS, ROOT as OP_SPAN, Tracer, instrument  # noqa: E402

#: Set-ups per run. Scaffold set-up is little more than the import
#: (about 90 ms) and spreads most, so it takes the median of more.
SETUP_REPS = {"wide": 5, "deep": 5, "scaffold": 21}
#: The tail percentile is rank N-10 of N ops; 15 ops make it the
#: fifth-fastest op rather than the fastest, which is the noisiest. Rank
#: N-10 reaches the median only from 21 ops, which wide and deep cannot
#: afford in a run, so there it reads p33.
MIN_OPS = 15
#: Nominal seconds per op at the seed (2-vCPU Xeon, Python 3.11, libyaml).
#: --seconds becomes a fixed number of whole cycles through these, so a
#: faster commit runs the same ops as its parent and the percentile ranks
#: line up; a run takes about --seconds at the seed.
OP_COST_S = {"wide": 2.7, "deep": 1.9, "scaffold": 0.055}
#: Traced/untraced pairs at least, so the tracing overhead is a median of
#: enough differences even where a run affords few cycles.
MIN_PAIRS = 3
TAIL_BEYOND = 10
#: A run with room for this many windows of at least 2*TAIL_BEYOND+1 ops
#: reports the median of the windows' tails, so a burst of machine
#: interference in one part of the run does not set op_tail_s.
TAIL_WINDOWS = 4
RULE_IDS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
            "ST1", "D1", "D2", "TL1", "EV1")
#: Layers whose full/quarter-size time ratio is reported on wide and deep.
SCALED_LAYERS = ("parser.compose_s", "parser.parse_model_s", "model.structural_s",
                 "model.views_s", "model.reachable_s", "model.descendants_s",
                 "wellformed.check_s", "rules.evaluate_s", "trace.matrices_s",
                 "trace.reports_s", "report.emit_json_s")
SCALED_RULES = ("R1", "R3", "R4", "R5", "R6", "ST1", "D1", "EV1")
QUARTER = 0.25
#: Below this a per-op time is too close to timer and machine noise to
#: divide by.
RATIO_FLOOR_S = 1e-3


def log(line: str = "") -> None:
    print(line, flush=True)


# -- set-up -------------------------------------------------------------


def setup(workload: str, seed: int, out: Path, scale: float = 1.0,
          reps: int | None = None) -> tuple[list[dict], list[float]]:
    """Run the generator `reps` times in fresh interpreters; keep the last files."""
    times = []
    for _ in range(reps or SETUP_REPS[workload]):
        shutil.rmtree(out, ignore_errors=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "generate.py"), workload, str(seed), str(out),
             str(scale)], capture_output=True, text=True, timeout=170, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return load_manifest(out), times


# -- ops ----------------------------------------------------------------


class Runner:
    """Drives the CLI in-process and checks every answer against the plan."""

    def __init__(self, workload: str):
        from click.testing import CliRunner
        from gsnlint import cli, parser, scaffold
        from gsnlint.model import DEFAULT_CONTEXT_DIMENSIONS

        self.workload = workload
        self.cli, self.parser, self.scaffold = cli, parser, scaffold
        self.default_dims = list(DEFAULT_CONTEXT_DIMENSIONS)
        self.runner = CliRunner()

    def invoke(self, *args: str):
        return self.runner.invoke(self.cli.main, list(args))

    def op(self, entry: dict) -> tuple[float, int, list]:
        """One timed op; returns (seconds, elements, CLI results)."""
        files = entry["files"]
        start = time.perf_counter()
        if self.workload != "scaffold":
            results = [self.invoke("check", "--format", "json", *files)]
            elements = entry["elements"]
        else:
            results, elements = self._scaffold(entry)
            results += [self.invoke("check", "--format", "json", *files),
                        self.invoke("trace", "hazards", *files),
                        self.invoke("render", "--color-by-type", *files)]
        return time.perf_counter() - start, elements, results

    def _scaffold(self, entry: dict) -> tuple[list, int]:
        # The CLI has no flag for the context dimensions, so other counts go
        # through the same library calls its scaffold command makes.
        if entry["dimensions"] == self.default_dims:
            flags = [] if entry["samples"] else ["--no-samples"]
            flags += ["--split"] if entry["split"] else []
            result = self.invoke("scaffold", "--force", *flags, entry["files"][0])
            found = re.search(r"\((\d+) elements\)", result.stdout or "")
            return [result], int(found.group(1)) if found else 0
        opts = self.scaffold.ScaffoldOptions(include_samples=entry["samples"],
                                             context_dimensions=list(entry["dimensions"]))
        model = self.scaffold.scaffold_reference_model(opts)
        main, *registries = [Path(f) for f in entry["files"]]
        main.write_text(self.parser.serialize_model(model, include_registries=not registries),
                        encoding="utf-8")
        for path in registries:
            path.write_text(self.parser.serialize_registries(model), encoding="utf-8")
        return [], sum(len(m.elements) for m in model.modules)

    def verify(self, entry: dict, results: list) -> tuple[str, str]:
        """('ok'|'crash'|'wrong', reason) for one op's CLI results."""
        for result in results:
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                return "crash", type(result.exception).__name__
        expected = entry["expected"]
        if self.workload == "scaffold":
            if len(results) == 4 and results[0].exit_code != 0:
                return "wrong", f"scaffold exit {results[0].exit_code}"
            check, trace, render = results[-3:]
            problems = _check_report(expected, check)
            rows = (trace.stdout or "").splitlines()[1:]
            if trace.exit_code != 0 or len(rows) != expected["hazard_rows"] or \
                    any(not row.split(",")[1:3] == ["true", "true"] for row in rows):
                problems.append(f"trace hazards: exit {trace.exit_code}, rows {rows}")
            dot = render.stdout or ""
            if render.exit_code != 0 or not dot.startswith("digraph ") or \
                    not dot.endswith("}\n") or "fillcolor=" not in dot:
                problems.append(f"render: exit {render.exit_code}")
        else:
            problems = _check_report(expected, results[0])
        return ("wrong", "; ".join(problems)) if problems else ("ok", "")


def _first_quoted(message: str) -> str:
    found = re.search(r"'([^']*)'", message)
    return found.group(1) if found else message


def _check_report(expected: dict, result) -> list[str]:
    """Compare a `check --format json` result with the planted answer."""
    if result.exit_code != expected["exit_code"]:
        return [f"exit code {result.exit_code}, expected {expected['exit_code']}"]
    try:
        report = json.loads(result.stdout)
    except ValueError:
        return ["report is not JSON"]
    by_severity: dict[str, list] = {"error": [], "warning": [], "info": []}
    for finding in report["findings"]:
        by_severity[finding["severity"]].append(finding)
    problems = []
    counts = lambda fs: sorted([r, n] for r, n in Counter(f["rule"] for f in fs).items())  # noqa: E731
    if "errors" in expected:
        errors = sorted([f["rule"], _first_quoted(f["message"])] for f in by_severity["error"])
        if errors != expected["errors"]:
            problems.append(f"errors differ: {len(errors)} found, "
                            f"{len(expected['errors'])} planted")
    if "error_counts" in expected and counts(by_severity["error"]) != expected["error_counts"]:
        problems.append(f"error rules {counts(by_severity['error'])}")
    if counts(by_severity["warning"]) != expected["warnings"]:
        problems.append(f"warning rules {counts(by_severity['warning'])}")
    if len(by_severity["info"]) != expected["infos"]:
        problems.append(f"{len(by_severity['info'])} infos")
    if "coverage" not in expected:
        return problems
    matrices = report.get("matrices", [])
    if sorted(m["registry"] for m in matrices) != sorted(expected["coverage"]):
        problems.append(f"matrices for {sorted(m['registry'] for m in matrices)}, "
                        f"expected {sorted(expected['coverage'])}")
        return problems
    for matrix in matrices:
        plan = expected["coverage"][matrix["registry"]]
        uncovered = sorted(r["item_id"] for r in matrix["rows"] if not r["covered"])
        unbacked = sorted(r["item_id"] for r in matrix["rows"] if not r["solution_backed"])
        if uncovered != plan["uncovered"] or unbacked != plan["unbacked"]:
            problems.append(f"coverage of {matrix['registry']} differs")
    return problems


class Record(NamedTuple):
    name: str
    seconds: float
    elements: int
    status: str  # ok | crash | wrong
    reason: str
    output_bytes: int


def run_cycle(runner: Runner, manifest: list[dict], records: list, tracer=None) -> None:
    """One op per input; answers are checked between ops, outside the timing."""
    for item in manifest:
        gc.collect()  # each op starts from a clean heap, as a fresh CLI process does
        if tracer is None:
            seconds, elements, results = runner.op(item)
        else:
            tracer.op_id += 1
            with tracer.span(OP_SPAN):
                seconds, elements, results = runner.op(item)
        status, reason = runner.verify(item, results)
        records.append(Record(item["name"], seconds, elements, status, reason,
                              sum(len(r.stdout or "") for r in results)))


# -- end-to-end metrics ----------------------------------------------------



def cycles_for(workload: str, seconds: float, cycle_ops: int) -> int:
    """Whole cycles worth `seconds` at nominal cost, at least MIN_OPS ops."""
    nominal = round(seconds / OP_COST_S[workload] / cycle_ops)
    return max(nominal, math.ceil(MIN_OPS / cycle_ops))


def summarize(records: list[Record]) -> dict:
    failed = [r for r in records if r.status != "ok"]
    return {"ops": len(records), "failed": len(failed),
            "wrong": sum(1 for r in failed if r.status == "wrong"),
            "failed_share": len(failed) / len(records),
            "failures": dict(Counter(f"{r.status}: {r.reason}" for r in failed)),
            "failures_by_input": dict(Counter(r.name for r in failed)),
            "ops_detail": [[r.name, r.seconds, r.status] for r in records]}


def end_to_end(records: list[Record], phase_s: float,
               cycle_ops: int = 1) -> tuple[dict, dict]:
    """The timed metrics; `records` are whole cycles of `cycle_ops` ops, in run order."""
    info = summarize(records)
    n = info["ops"]
    # A failed op never finished, so it ranks as +inf. Should a percentile
    # land on one, the whole op phase stands in for it (JSON has no inf).
    times = [r.seconds if r.status == "ok" else math.inf for r in records]
    windows = TAIL_WINDOWS if n >= TAIL_WINDOWS * (2 * TAIL_BEYOND + 1) else 1
    tails = []
    for w in range(windows):
        part = sorted(times[w * n // windows:(w + 1) * n // windows])
        tails.append(min(part[max(1, len(part) - TAIL_BEYOND) - 1], phase_s))
    size = n // windows
    info["tail_windows"] = windows
    info["tail_percentile"] = 100 * max(1, size - TAIL_BEYOND) / size
    # Throughput per cycle (every input once), median over the cycles: a
    # few seconds of outside load then moves one cycle, not the figure.
    cycles = [records[c:c + cycle_ops] for c in range(0, n, cycle_ops)]
    info["kelem_cycles"] = len(cycles)
    metrics = {
        "op_p50_s": min(sorted(times)[math.ceil(n / 2) - 1], phase_s),
        "op_tail_s": statistics.median(tails),
        "kelem_per_s": statistics.median(
            sum(r.elements for r in cycle if r.status == "ok") / 1000
            / sum(r.seconds for r in cycle) for cycle in cycles),
        "ok_share": 1 - info["failed_share"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, info


# -- per-layer metrics -------------------------------------------------------


def traced_layers(runner: Runner, manifest: list[dict],
                  pairs: int) -> tuple[dict, list[Record], list]:
    """Each input once untraced and once traced, back to back, `pairs` times.

    Returns the per-op mean self time per layer. The tracing overhead is
    the median over ops of traced minus untraced time of the same input
    in the same pair: the two runs are adjacent, so a drift in machine
    speed hits both, and every other pair runs the traced one first.
    """
    tracer = Tracer()
    plain: list[Record] = []
    traced: list[Record] = []
    for pair in range(pairs):
        for item in manifest:
            for with_spans in (pair % 2 == 1, pair % 2 == 0):
                if with_spans:
                    with instrument(tracer):
                        run_cycle(runner, [item], traced, tracer)
                else:
                    run_cycle(runner, [item], plain)
    per_op = {name: total / len(traced) for name, total in tracer.self_times().items()}
    metrics = {name: per_op.get(name, 0.0) for name in LAYERS}
    metrics.update({"bench.op_traced_s": statistics.fmean(r.seconds for r in traced),
                    "bench.op_untraced_s": statistics.fmean(r.seconds for r in plain),
                    "bench.trace_overhead_s": statistics.median(
                        t.seconds - u.seconds for t, u in zip(traced, plain)),
                    "bench.residual_s": per_op.get(OP_SPAN, 0.0),
                    "report.bytes": statistics.fmean(r.output_bytes for r in traced)})
    return metrics, plain + traced, tracer.as_records()


def in_memory_models(workload: str, seed: int, scale: float, manifest: list[dict]) -> list:
    """The generator's models (or the scaffold's), in manifest order."""
    import workloads
    from gsnlint.scaffold import ScaffoldOptions, scaffold_reference_model

    if workload == "scaffold":
        return [scaffold_reference_model(ScaffoldOptions(
            include_samples=e["samples"], context_dimensions=list(e["dimensions"])))
            for e in manifest]
    generator = {"wide": workloads.wide, "deep": workloads.deep}[workload]
    return [item.model for item in generator(seed, scale)]


def rule_times(models: list, reps: int = 3) -> dict[str, float]:
    """Per-op mean of each rule's time and findings.

    A rule's time is `evaluate` with a one-rule profile minus `evaluate`
    with an empty profile, on the same model after a warming `evaluate`:
    the median of `reps` back-to-back pairs, so both halves of a pair see
    the same machine speed. Models that cannot be evaluated (the too-deep
    rungs) count as zero.
    """
    from gsnlint.rules import RuleProfile, evaluate, make_profile

    empty = RuleProfile("none", frozenset())
    totals: Counter = Counter()
    for model in models:
        try:
            warm = evaluate(model, make_profile("all"))
        except RecursionError:
            continue
        for finding in warm:
            totals[f"rules.{finding.rule}_findings"] += 1
        for rule in RULE_IDS:
            one = RuleProfile(rule, frozenset({rule}))
            totals[f"rules.{rule}_s"] += statistics.median(
                _timed(evaluate, model, one) - _timed(evaluate, model, empty)
                for _ in range(reps))
    out = {}
    for rule in RULE_IDS:
        for suffix in ("_s", "_findings"):
            out[f"rules.{rule}{suffix}"] = totals[f"rules.{rule}{suffix}"] / len(models)
    return out


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def model_counts(models: list) -> dict[str, float]:
    """Median element/edge/trace counts per input; the deepest support path."""
    rows, elements, edges, links, depth = [], [], [], [], 0
    for model in models:
        els = [e for m in model.modules for e in m.elements]
        elements.append(len(els))
        edges.append(sum(len(e.supported_by) + len(e.in_context_of) for e in els))
        links.append(sum(len(e.traces) for e in els))
        reg = model.registries
        rows.append(len(reg.hazards) + len(reg.regulatory_requirements)
                    + len(reg.normative_requirements) + len(reg.risk_acceptance_criteria))
        depth = max(depth, _max_depth(els))
    return {"model.elements": statistics.median(elements), "model.edges": statistics.median(edges),
            "model.trace_links": statistics.median(links), "model.max_depth": depth,
            "trace.rows": statistics.median(rows)}


def _max_depth(elements) -> int:
    """Longest supported_by path in edges, iteratively (chains are deep)."""
    children = {e.id: e.supported_by for e in elements}
    depth: dict[str, int] = {}
    for root in children:
        stack = [(root, False)]
        while stack:
            eid, expanded = stack.pop()
            if eid in depth or eid not in children:
                continue
            if expanded:
                depth[eid] = 1 + max((depth.get(c, -1) for c in children[eid]), default=-1)
            else:
                stack.append((eid, True))
                stack.extend((c, False) for c in children[eid] if c not in depth)
    return max(depth.values(), default=0)


def parse_profile(manifest: list[dict]) -> dict[str, float]:
    """YAML node count (median per input) and tracemalloc peak of parse_model (max)."""
    import yaml
    from gsnlint.parser import parse_model

    compose = yaml.compose
    nodes: list[int] = []

    def counting_compose(*args, **kwargs):
        root = compose(*args, **kwargs)
        stack, count = [root], 0
        while stack:
            node = stack.pop()
            if node is None:
                continue
            count += 1
            if isinstance(node, yaml.MappingNode):
                stack.extend(part for pair in node.value for part in pair)
            elif isinstance(node, yaml.SequenceNode):
                stack.extend(node.value)
        nodes[-1] += count
        return root

    peak = 0.0
    yaml.compose = counting_compose
    try:
        for entry in manifest:
            docs = [(f, Path(f).read_text(encoding="utf-8")) for f in entry["files"]]
            nodes.append(0)
            tracemalloc.start()
            try:
                parse_model(docs)
            except RecursionError:
                pass
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    finally:
        yaml.compose = compose
    return {"parser.yaml_nodes": statistics.median(nodes), "parser.peak_mb": peak}


def per_layer(runner: Runner, workload: str, seed: int, manifest: list[dict],
              seconds: float, work: Path) -> tuple[dict, list[Record], list]:
    pairs = max(MIN_PAIRS, math.ceil(cycles_for(workload, seconds, len(manifest)) / 2))
    layers, records, spans = traced_layers(runner, manifest, pairs)
    models = in_memory_models(workload, seed, 1.0, manifest)
    metrics = {**layers, **rule_times(models), **model_counts(models),
               **parse_profile(manifest)}
    scaled = {f"{layer[:-2]}.scale4x": 0.0 for layer in SCALED_LAYERS}
    scaled.update({f"rules.{rule}.scale4x": 0.0 for rule in SCALED_RULES})
    if workload != "scaffold":  # the scaffold has no size knob; its ratios stay 0
        quarter, _ = setup(workload, seed, work / "quarter", QUARTER, reps=1)
        q_layers, _, _ = traced_layers(runner, quarter, 2)
        q_rules = rule_times(in_memory_models(workload, seed, QUARTER, quarter))
        for layer in SCALED_LAYERS:
            scaled[f"{layer[:-2]}.scale4x"] = _ratio(layers[layer], q_layers[layer])
        for rule in SCALED_RULES:
            key = f"rules.{rule}_s"
            scaled[f"rules.{rule}.scale4x"] = _ratio(metrics[key], q_rules[key])
    metrics.update(scaled)
    return metrics, records, spans


def _ratio(full: float, quarter: float) -> float:
    """full / quarter; 0 when either time is below RATIO_FLOOR_S."""
    return full / quarter if min(full, quarter) >= RATIO_FLOOR_S else 0.0


# -- metadata and output -------------------------------------------------------


def metadata(seed: int) -> dict:
    """Which YAML classes gsnlint actually used, observed on a tiny round trip."""
    import platform
    import yaml
    from gsnlint.model import GsnModel
    from gsnlint.parser import parse_model, serialize_model

    seen: dict[str, str] = {}
    compose, dump_all = yaml.compose, yaml.dump_all

    def spy(kind, fn, key):
        def wrapper(*args, **kwargs):
            seen[kind] = getattr(kwargs.get(key), "__name__", "default")
            return fn(*args, **kwargs)
        return wrapper

    yaml.compose, yaml.dump_all = spy("loader", compose, "Loader"), spy("dumper", dump_all, "Dumper")
    try:
        parse_model([("probe.sac.yaml", "model: {id: probe}\n")])
        serialize_model(GsnModel("probe"))
    finally:
        yaml.compose, yaml.dump_all = compose, dump_all
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "gsnlint").glob("*.py")))
    return {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "yaml_loader": seen.get("loader", "unknown"),
            "yaml_dumper": seen.get("dumper", "unknown"),
            "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
            "src_lines": src_lines}


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("wide", "deep", "scaffold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_gsnlint()
    except ImportError as exc:
        print(f"perfbench: cannot import gsnlint from this checkout: {exc}", file=sys.stderr)
        return 2

    work = STATE / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        manifest, setup_times = setup(args.workload, args.seed, work / "full")
        meta = metadata(args.seed)
        runner = Runner(args.workload)
        runner.op(manifest[0])  # warm-up: lazy imports and first-call caches
        log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
            + " ".join(f"{k}={v}" for k, v in meta.items() if k != "seed"))
        if args.trace:
            metrics, records, spans = per_layer(runner, args.workload, args.seed, manifest,
                                                args.seconds, work)
            info = summarize(records)
        else:
            records = []
            start = time.perf_counter()
            for _ in range(cycles_for(args.workload, args.seconds, len(manifest))):
                run_cycle(runner, manifest, records)
            metrics, info = end_to_end(records, time.perf_counter() - start, len(manifest))
            metrics["setup_s"] = statistics.median(setup_times)
            info["setup_runs_s"] = setup_times
            spans = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    correct = info["wrong"] == 0
    verdict = "PASS" if correct else "FAIL"
    log(f"gate: {verdict}: {info['ops'] - info['failed']}/{info['ops']} ops correct, "
        f"{info['wrong']} wrong answers"
        + "".join(f"; {n} x {why}" for why, n in sorted(info["failures"].items())))
    if not args.trace:
        windows = info["tail_windows"]
        log(f"failed_share = {info['failed_share']:.4f} (ok_share is its complement); "
            f"op_tail_s is p{info['tail_percentile']:.1f} of {info['ops'] // windows} ops"
            + (f", median of {windows} windows" if windows > 1 else ""))
    for name, value in metrics.items():
        log(f"  {name:28s} {value:14.6f} {units[name]}")
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "metadata": meta, "metrics": metrics, "info": info,
         "spans": spans}), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": info["ops"], "failed": info["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
