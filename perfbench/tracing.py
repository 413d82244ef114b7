"""Per-layer tracing for the benchmark, installed from outside the program.

`Tracer.install` replaces edcarb's public functions at every name a caller
resolves (each `edcarb.*` module attribute bound to the function, so both
`design_explorer.estimate_latency` and `accelerator_model.estimate_latency`)
and `uninstall` puts the originals back. Layer entry points record one span
each (name, start, end, parent). Hot leaf functions record only a call count
and, where listed as timed, summed time. Spans stay in memory; the caller
writes them out when the run ends.

`layer_metrics` turns one pass's counters into the per-layer metrics listed
in `metrics.PER_LAYER`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_now = time.perf_counter_ns

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module, attribute, metric prefix, kind)
TARGETS = (
    ("edcarb.design_explorer", "run_ga", "design_explorer.ga", SPAN),
    ("edcarb.design_explorer", "exhaustive_search", "design_explorer.exhaustive", SPAN),
    ("edcarb.design_explorer", "pareto_front", "design_explorer.pareto", SPAN),
    ("edcarb.design_explorer", "evaluate", "design_explorer.evaluate", TIMED),
    ("edcarb.accelerator_model", "estimate_latency", "accelerator_model.estimate_latency", TIMED),
    ("edcarb.accelerator_model", "accelerator_embodied", "accelerator_model.accelerator_embodied", TIMED),
    ("edcarb.accelerator_model", "estimate_area", "accelerator_model.estimate_area", COUNTED),
    ("edcarb.carbon_model", "embodied_carbon", "carbon_model.embodied_carbon", COUNTED),
    ("edcarb.carbon_model", "dies_per_wafer", "carbon_model.dies_per_wafer", COUNTED),
    ("edcarb.edc_scheduler", "search_mapping", "edc_scheduler.search_mapping", SPAN),
    ("edcarb.edc_scheduler", "segment_cost", "edc_scheduler.segment_cost", TIMED),
    ("edcarb.edc_scheduler", "system_estimate", "edc_scheduler.system_estimate", COUNTED),
    ("edcarb.runtime_sim", "run_simulation", "runtime_sim.run_simulation", SPAN),
    ("edcarb.runtime_sim", "CiTrace.ci_at", "runtime_sim.ci_at", TIMED),
    ("edcarb.runtime_sim", "choose_batch", "runtime_sim.choose_batch", COUNTED),
    ("edcarb.cli_io", "load_config", "cli_io.load_config", SPAN),
    ("edcarb.cli_io", "emit_report", "cli_io.emit_report", SPAN),
    ("edcarb.cli_io", "sim_report_to_dict", "cli_io.sim_report_to_dict", SPAN),
)

# Simulation scenarios that per-layer metrics are keyed by: the CLI demo run,
# the batch rates, the day-long llm run and the mapping-mode remap run.
QUEUE_SCENARIOS = ("demo", "r3", "r10", "r20", "r40", "day")
SCENARIOS = QUEUE_SCENARIOS + ("remap",)

_SEARCH = "edc_scheduler.search_mapping"


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_ns", "ctx")

    def __init__(self, name, span_id, start, ctx):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child_ns = 0
        self.ctx = ctx


class Tracer:
    """Counters for one pass plus every span recorded since creation."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.child_spans: list[dict] = []  # span records of traced subprocesses
        self.scenario = "demo"  # labels run_simulation metrics; "demo" is the simulate verb
        self._stack: list[_Frame] = []
        self._depth = 0  # nesting of timed leaf calls
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.extra: dict[str, float] = {}

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "ns": dict(self.ns),
            "self_ns": dict(self.self_ns),
            "extra": dict(self.extra),
        }

    def merge(self, snap: dict) -> None:
        """Add another process's snapshot into this pass's counters."""
        for key in ("calls", "ns", "self_ns", "extra"):
            mine = getattr(self, key)
            for name, value in snap[key].items():
                mine[name] = mine.get(name, 0) + value

    def _add(self, table: dict, name: str, value) -> None:
        table[name] = table.get(name, 0) + value

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, kind, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, kind, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "edcarb" or mod_name.startswith("edcarb.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _wrap(self, name: str, kind: str, fn):
        if kind == SPAN:
            return self._span_wrapper(name, fn)
        if kind == TIMED:
            return self._timed_wrapper(name, fn)
        if name == "edc_scheduler.system_estimate":
            return self._estimate_wrapper(name, fn)

        def counted(*args, **kwargs):
            self._add(self.calls, name, 1)
            return fn(*args, **kwargs)

        return counted

    def _timed_wrapper(self, name: str, fn):
        # Runs on every hot leaf call, so the counter updates are inlined.
        # Only the outermost timed call counts toward the enclosing span's
        # child time, so nested leaves are not subtracted twice.
        def timed(*args, **kwargs):
            calls = self.calls
            calls[name] = calls.get(name, 0) + 1
            outer = self._depth == 0
            self._depth += 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                self._depth -= 1
                ns = self.ns
                ns[name] = ns.get(name, 0) + elapsed
                if outer and self._stack:
                    parent = self._stack[-1]
                    parent.child_ns += elapsed
                    key = f"{parent.name}>{name}"
                    calls[key] = calls.get(key, 0) + 1

        return timed

    def _estimate_wrapper(self, name: str, fn):
        def estimate(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._add(self.calls, name, 1)
            if self._stack and self._stack[-1].name == _SEARCH:
                self._add(self.extra, "search.estimates", 1)
                if result.power_w > self._stack[-1].ctx:
                    self._add(self.extra, "search.infeasible", 1)
            return result

        return estimate

    def _span_wrapper(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def span(*args, **kwargs):
            ctx = before(self, args, kwargs) if before else None
            parent = self._stack[-1] if self._stack else None
            self._next_id += 1
            frame = _Frame(name, self._next_id, _now(), ctx)
            self._stack.append(frame)
            depth, self._depth = self._depth, 0
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                self._depth = depth
                self._stack.pop()
                duration = end - frame.start
                self.spans.append(
                    (frame.span_id, parent.span_id if parent else None, name, frame.start, end)
                )
                self._add(self.calls, name, 1)
                self._add(self.ns, name, duration)
                self._add(self.self_ns, name, duration - frame.child_ns)
                if parent is not None:
                    parent.child_ns += duration
            if after:
                after(self, args, kwargs, result, duration)
            return result

        return span

    def span_records(self, pid: int) -> list[dict]:
        return [
            {"pid": pid, "id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
            for sid, parent, name, start, end in self.spans
        ]


# -- per-function hooks --------------------------------------------------------


def _ga_before(tracer, args, kwargs):
    params = args[1] if len(args) > 1 else kwargs["params"]
    tracer._add(tracer.extra, "ga.requested", params.population_size * params.generations)


def _search_before(tracer, args, kwargs):
    return args[2] if len(args) > 2 else kwargs["power_threshold_w"]


def _simulation_after(tracer, args, kwargs, report, duration_ns):
    config = args[0] if args else kwargs["config"]
    arrivals = args[2] if len(args) > 2 else kwargs.get("arrivals")
    sc = tracer.scenario
    extra = tracer.extra
    tracer._add(extra, f"sim.s.{sc}", duration_ns / 1e9)
    kinds: dict[str, int] = {}
    for event in report.decision_log:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    tracer._add(extra, f"sim.dispatches.{sc}", kinds.get("dispatch", 0))
    tracer._add(extra, f"sim.power_gated.{sc}", kinds.get("power_gated", 0))
    tracer._add(extra, f"sim.remaps.{sc}", kinds.get("remap", 0))
    tracer._add(extra, f"sim.served.{sc}", report.inferences_done)
    if arrivals is not None:
        tracer._add(extra, f"sim.arrivals.{sc}", len(arrivals.materialize(config.horizon_s)))


def _emit_after(tracer, args, kwargs, paths, duration_ns):
    tracer._add(tracer.extra, "emit.bytes", sum(Path(p).stat().st_size for p in paths))


_BEFORE = {"design_explorer.ga": _ga_before, _SEARCH: _search_before}
_AFTER = {"runtime_sim.run_simulation": _simulation_after, "cli_io.emit_report": _emit_after}


# -- metrics -------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one pass. A layer the pass never entered reads 0."""
    calls, ns, self_ns, extra = snap["calls"], snap["ns"], snap["self_ns"], snap["extra"]

    def c(name):
        return calls.get(name, 0)

    def us(name):
        return ns.get(name, 0) / 1e3

    m = {
        "accelerator_model.estimate_latency.calls": c("accelerator_model.estimate_latency"),
        "accelerator_model.estimate_latency.us": us("accelerator_model.estimate_latency"),
        "accelerator_model.accelerator_embodied.calls": c("accelerator_model.accelerator_embodied"),
        "accelerator_model.accelerator_embodied.us": us("accelerator_model.accelerator_embodied"),
        "accelerator_model.estimate_area.calls": c("accelerator_model.estimate_area"),
        "carbon_model.embodied_carbon.calls": c("carbon_model.embodied_carbon"),
        "carbon_model.dies_per_wafer.calls": c("carbon_model.dies_per_wafer"),
        "design_explorer.evaluate.calls": c("design_explorer.evaluate"),
        "design_explorer.evaluate.us": us("design_explorer.evaluate"),
        "design_explorer.ga.self_s": self_ns.get("design_explorer.ga", 0) / 1e9,
        "design_explorer.ga.unique_ratio": _ratio(
            c("design_explorer.ga>design_explorer.evaluate"), extra.get("ga.requested", 0)
        ),
        "design_explorer.pareto.s": ns.get("design_explorer.pareto", 0) / 1e9,
        "edc_scheduler.search_mapping.calls": c(_SEARCH),
        "edc_scheduler.search_mapping.ms": ns.get(_SEARCH, 0) / 1e6,
        "edc_scheduler.segment_cost.calls": c("edc_scheduler.segment_cost"),
        "edc_scheduler.system_estimate.calls": c("edc_scheduler.system_estimate"),
        "edc_scheduler.segment_cost.per_search": _ratio(c("edc_scheduler.segment_cost"), c(_SEARCH)),
        "edc_scheduler.infeasible_ratio": _ratio(
            extra.get("search.infeasible", 0), extra.get("search.estimates", 0)
        ),
        "runtime_sim.ci_at.calls": c("runtime_sim.ci_at"),
        "runtime_sim.ci_at.us": us("runtime_sim.ci_at"),
        "runtime_sim.choose_batch.calls": c("runtime_sim.choose_batch"),
    }
    for sc in SCENARIOS:
        m[f"runtime_sim.run_simulation.s.{sc}"] = extra.get(f"sim.s.{sc}", 0.0)
    for sc in QUEUE_SCENARIOS:
        served = extra.get(f"sim.served.{sc}", 0)
        arrived = extra.get(f"sim.arrivals.{sc}", 0)
        m[f"runtime_sim.dispatches.{sc}"] = extra.get(f"sim.dispatches.{sc}", 0)
        m[f"runtime_sim.power_gated.{sc}"] = extra.get(f"sim.power_gated.{sc}", 0)
        m[f"runtime_sim.served_ratio.{sc}"] = _ratio(served, arrived)
        m[f"runtime_sim.backlog.{sc}"] = arrived - served
    m["runtime_sim.remaps.remap"] = extra.get("sim.remaps.remap", 0)
    emit_s = ns.get("cli_io.emit_report", 0) / 1e9
    m["cli_io.load_config.s"] = ns.get("cli_io.load_config", 0) / 1e9
    m["cli_io.emit_report.s"] = emit_s
    m["cli_io.emit_report.mb_per_s"] = _ratio(extra.get("emit.bytes", 0) / 1e6, emit_s)
    m["cli_io.sim_report_to_dict.s"] = ns.get("cli_io.sim_report_to_dict", 0) / 1e9
    return m
