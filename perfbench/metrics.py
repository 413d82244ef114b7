"""The benchmark's metric catalogue: name, unit, direction and workloads.

End-to-end metrics are host wall time unless the name says otherwise.
Every run prints each end-to-end metric that applies to its workload as a
`metric` line. The final JSON line carries only `REPORTED`, the metrics
that apply to every workload and are never zero; those are the ones
`BENCHMARK.json` declares and bounds. Per-layer metrics come from a traced
run and are printed (and reported) on every workload; a layer the workload
never enters reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracing import QUEUE_SCENARIOS, SCENARIOS

WORKLOADS = ("demo-cli", "search", "sim-load")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...] = WORKLOADS


E2E = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("error_rate", "ratio", "lower"),
    Metric("explore_s", "s", "lower", ("demo-cli",)),
    Metric("schedule_s", "s", "lower", ("demo-cli",)),
    Metric("simulate_s", "s", "lower", ("demo-cli",)),
    Metric("report_s", "s", "lower", ("demo-cli",)),
    Metric("artifact_mb", "MB", "lower", ("demo-cli", "sim-load")),
    Metric("exhaustive_designs_per_s", "1/s", "higher", ("search",)),
    Metric("ga_s", "s", "lower", ("search",)),
    Metric("ga_gap_pct", "%", "lower", ("search",)),
    Metric("mapping_instances_per_s", "1/s", "higher", ("search",)),
    Metric("sim_us_per_req.r10", "us", "lower", ("sim-load",)),
    Metric("sim_us_per_req.r40", "us", "lower", ("sim-load",)),
    Metric("sim_day_s", "s", "lower", ("sim-load",)),
)

# Reported in the final JSON line of an untraced run.
REPORTED = ("setup_s", "wall_s", "peak_rss_mb")

# (name, unit, better). Simulated counts (dispatches, backlog, ...) are
# outputs of the model, listed so a change in behaviour shows next to a
# change in speed.
PER_LAYER = (
    ("accelerator_model.estimate_latency.calls", "count", "lower"),
    ("accelerator_model.estimate_latency.us", "us", "lower"),
    ("accelerator_model.accelerator_embodied.calls", "count", "lower"),
    ("accelerator_model.accelerator_embodied.us", "us", "lower"),
    ("accelerator_model.estimate_area.calls", "count", "lower"),
    ("carbon_model.embodied_carbon.calls", "count", "lower"),
    ("carbon_model.dies_per_wafer.calls", "count", "lower"),
    ("design_explorer.evaluate.calls", "count", "lower"),
    ("design_explorer.evaluate.us", "us", "lower"),
    ("design_explorer.ga.self_s", "s", "lower"),
    ("design_explorer.ga.unique_ratio", "ratio", "lower"),
    ("design_explorer.pareto.s", "s", "lower"),
    ("edc_scheduler.search_mapping.calls", "count", "lower"),
    ("edc_scheduler.search_mapping.ms", "ms", "lower"),
    ("edc_scheduler.segment_cost.calls", "count", "lower"),
    ("edc_scheduler.system_estimate.calls", "count", "lower"),
    ("edc_scheduler.segment_cost.per_search", "count", "lower"),
    ("edc_scheduler.infeasible_ratio", "ratio", "lower"),
    *((f"runtime_sim.run_simulation.s.{sc}", "s", "lower") for sc in SCENARIOS),
    ("runtime_sim.ci_at.calls", "count", "lower"),
    ("runtime_sim.ci_at.us", "us", "lower"),
    ("runtime_sim.choose_batch.calls", "count", "lower"),
    *((f"runtime_sim.dispatches.{sc}", "count", "higher") for sc in QUEUE_SCENARIOS),
    *((f"runtime_sim.power_gated.{sc}", "count", "lower") for sc in QUEUE_SCENARIOS),
    *((f"runtime_sim.served_ratio.{sc}", "ratio", "higher") for sc in QUEUE_SCENARIOS),
    *((f"runtime_sim.backlog.{sc}", "count", "lower") for sc in QUEUE_SCENARIOS),
    ("runtime_sim.remaps.remap", "count", "lower"),
    ("cli_io.load_config.s", "s", "lower"),
    ("cli_io.emit_report.s", "s", "lower"),
    ("cli_io.emit_report.mb_per_s", "MB/s", "higher"),
    ("cli_io.sim_report_to_dict.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)


def e2e_for(workload: str) -> tuple[Metric, ...]:
    return tuple(m for m in E2E if workload in m.workloads)
