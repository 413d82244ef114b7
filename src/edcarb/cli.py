"""Command-line surface: explore, schedule, simulate, report.

Each verb maps to one toolkit layer: `explore` searches accelerator designs,
`schedule` maps DNN variants onto a node for a given grid intensity,
`simulate` replays execution against an intensity trace, `report` aggregates
artifacts from previous runs.

Exit codes: 0 success, 2 validation, 3 infeasible, 4 I/O. Failures print one
machine-parsable line (`error[CODE]: message`) before any human-readable
detail. The EDCARB_LOG environment variable (debug|info|warning) controls
log verbosity; it never affects artifacts.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, cli_io
from .carbon_model import PackageKind, embodied_per_inference_g
from .design_explorer import EvaluatedDesign, pareto_front, run_ga
from .edc_scheduler import ci_to_threshold, select_variants
from .errors import IoFailure, ToolkitError, ValidationFailure
from .runtime_sim import PoissonArrivals, run_simulation

log = logging.getLogger("edcarb")

_ERROR_LABELS = {2: "VALIDATION", 3: "INFEASIBLE", 4: "IO"}


def _configure_logging() -> None:
    level_name = os.environ.get("EDCARB_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))


def _require(value, what: str):
    if value is None or (isinstance(value, (list, tuple)) and not value):
        raise ValidationFailure(f"config is missing the {what} needed by this command")
    return value


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def _design_fields(design: EvaluatedDesign) -> dict:
    """One evaluated design as the `pareto.csv` columns and the `best_design.json` keys."""
    c = design.chromosome
    return {
        "px": c.px,
        "py": c.py,
        "b_local": c.b_local,
        "b_global": c.b_global,
        "dataflow": c.dataflow.value,
        "multiplier": c.multiplier.name,
        "embodied_kg": design.embodied_kg,
        "latency_s": design.latency_s,
        "cdp_kg_s": design.cdp_kg_s,
    }


def _cmd_explore(args: argparse.Namespace) -> int:
    config = cli_io.load_config(args.config)
    space = _require(config.design_space, "design_space section")
    workload = _require(config.workload, "workload_file")

    if not args.appx:
        exact = [m for m in space.multipliers if m.accuracy_drop_pct == 0.0]
        if not exact:
            raise ValidationFailure("multiplier library has no exact (zero-drop) variant")
        space = replace(space, multipliers=(exact[0],))
    if args.stacking:
        kind = PackageKind.STACKED_3D if args.stacking == "3d" else PackageKind.PLANAR_2D
        space = replace(space, stacking=kind)

    log.info("exploring %d designs (fitness=%s)", space.size, args.fitness)
    result = run_ga(space, config.ga_params, workload, fitness=args.fitness)
    front = pareto_front(list(result.evaluated), space)

    meta = cli_io.RunMeta(command="explore", config_hash=config.config_hash, seed=config.seed)
    bundle = cli_io.ResultBundle(meta=meta)
    best = _design_fields(result.best)
    bundle.csv_artifacts["pareto.csv"] = (list(best), [list(_design_fields(d).values()) for d in front])
    bundle.csv_artifacts["history.csv"] = (
        ["generation", "best", "mean"],
        # a generation with no feasible member has no best or mean: empty cells
        [
            [h.generation, *(x if math.isfinite(x) else "" for x in (h.best_fitness, h.mean_fitness))]
            for h in result.history
        ],
    )
    bundle.json_artifacts["best_design.json"] = {
        "fitness": args.fitness,
        "best": best,
        "space_size": space.size,
        "pareto_size": len(front),
    }
    paths = cli_io.emit_report(bundle, args.out)
    for p in paths:
        print(p)
    return 0


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def _cmd_schedule(args: argparse.Namespace) -> int:
    if not 0 <= args.ci_now < math.inf:
        raise ValidationFailure(f"--ci-now must be a finite number >= 0, got {args.ci_now}")
    config = cli_io.load_config(args.config)
    node = _require(config.node, "node_file")
    variant_sets = _require(config.variant_sets, "variants_file")
    policy = config.policy

    threshold = ci_to_threshold(
        args.ci_now, policy.ci_min, policy.ci_max, policy.p_min_w, policy.p_max_w
    )
    log.info("ci=%.1f -> power threshold %.2f W", args.ci_now, threshold)

    chosen_variants, solution = select_variants(
        variant_sets, policy.latency_constraint_ms, policy.accuracy_floor, node, threshold, config.search
    )

    meta = cli_io.RunMeta(command="schedule", config_hash=config.config_hash, seed=config.seed)
    bundle = cli_io.ResultBundle(meta=meta)
    bundle.json_artifacts["plan.json"] = {
        "ci_now": args.ci_now,
        "power_threshold_w": threshold,
        "models": [
            {
                "model": vset.name,
                "variant": variant.name,
                "accuracy": variant.accuracy,
                # judged on the jointly mapped plan written below
                "constraint_violated": bottleneck_ms > policy.latency_constraint_ms,
                "segments": [
                    {"start": start, "end": end, "unit": node.units[u].id, "freq_idx": f}
                    for start, end, u, f in plan
                ],
            }
            for vset, variant, plan, bottleneck_ms in zip(
                variant_sets, chosen_variants, solution.plans, solution.bottleneck_ms
            )
        ],
        "system": {
            "throughput_inf_per_s": solution.estimate.throughput_inf_per_s,
            "power_w": solution.estimate.power_w,
            "ipw": solution.estimate.ipw,
        },
    }
    for p in cli_io.emit_report(bundle, args.out):
        print(p)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = cli_io.load_config(args.config)
    trace = cli_io.load_ci_trace(args.trace)
    sim = config.sim

    if args.arrivals.startswith("poisson:"):
        text = args.arrivals.split(":", 1)[1]
        try:
            rate = float(text)
        except ValueError:
            raise ValidationFailure(f"--arrivals poisson:<rate>: {text!r} is not a number") from None
        arrivals = PoissonArrivals(rate_per_s=rate, seed=config.seed)
    elif args.arrivals == "poisson":
        arrivals = PoissonArrivals(rate_per_s=sim.arrival_rate_per_s, seed=config.seed)
    else:
        arrivals = cli_io.load_arrivals(args.arrivals)

    sim_config = cli_io.build_sim_config(sim, config.policy, args.policy)
    workloads = None
    if sim.mode == "mapping":
        sets = _require(config.variant_sets, "variants_file")
        workloads = [vset.variants[0] for vset in sets]
    amortized_g = None
    if sim.embodied_total_kg is not None and sim.lifetime_inferences is not None:
        amortized_g = embodied_per_inference_g(sim.embodied_total_kg, sim.lifetime_inferences)

    # the decision log streams to its own file while the run goes
    with cli_io.decision_log(args.out) as emit:
        report = run_simulation(
            sim_config,
            trace,
            arrivals,
            table=sim.exec_table,
            node=config.node,
            workloads=workloads,
            llm_variants=sim.llm_variants,
            search_params=config.search,
            emit=emit,
        )
        meta = cli_io.RunMeta(command="simulate", config_hash=config.config_hash, seed=config.seed)
        bundle = cli_io.ResultBundle(meta=meta)
        bundle.json_artifacts["sim_report.json"] = cli_io.sim_report_to_dict(report, amortized_g)
        bundle.csv_artifacts["timeseries.csv"] = (
            cli_io.TIMESERIES_COLUMNS,
            cli_io.timeseries_rows(report),
        )
        paths = cli_io.emit_report(bundle, args.out)
    for p in [Path(args.out) / cli_io.DECISION_LOG_FILE, *paths]:
        print(p)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_SUMMARY_KEYS = {
    "best_design.json": [
        ("best_cdp_kg_s", ("best", "cdp_kg_s")),
        ("best_embodied_kg", ("best", "embodied_kg")),
        ("best_latency_s", ("best", "latency_s")),
    ],
    "plan.json": [
        ("power_threshold_w", ("power_threshold_w",)),
        ("system_power_w", ("system", "power_w")),
        ("system_ipw", ("system", "ipw")),
    ],
    "sim_report.json": [
        ("total_energy_kwh", ("total_energy_kwh",)),
        ("operational_g", ("operational_g",)),
        ("inferences_done", ("inferences_done",)),
        ("deadline_misses", ("deadline_misses",)),
        ("mean_tps", ("mean_tps",)),
        ("arrivals_total", ("arrivals_total",)),
        ("backlog_at_horizon", ("backlog_at_horizon",)),
        ("max_queue_len", ("max_queue_len",)),
    ],
}


def _dig(doc: dict, path: tuple[str, ...]):
    value = doc
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _cmd_report(args: argparse.Namespace) -> int:
    rows = []
    config_hash = "aggregate"
    seed = 0
    for in_dir in args.in_dirs:
        folder = Path(in_dir)
        if not folder.is_dir():
            raise IoFailure(f"{folder} is not a directory")
        for name, keys in _SUMMARY_KEYS.items():
            artifact = folder / name
            if not artifact.exists():
                continue
            doc = cli_io.read_artifact(artifact)
            command = doc.get("meta", {}).get("command", "?")
            if not (isinstance(command, str) and command.isprintable()):
                raise ValidationFailure(f"{artifact}: meta.command must be printable text, got {command!r}")
            for metric, path in keys:
                value = _dig(doc, path)
                if value is None:
                    continue
                # a float literal out of range, such as 1e400, parses as inf
                if isinstance(value, bool) or not isinstance(value, (int, float)) or value in (math.inf, -math.inf):
                    raise ValidationFailure(f"{artifact}: {metric} must be a finite number, got {value!r}")
                rows.append([str(folder), command, metric, value])
    if not rows:
        raise ValidationFailure("no known artifacts found in the given directories")
    for row in rows:
        print(f"{row[0]:<24} {row[1]:<10} {row[2]:<26} {row[3]}")
    if args.out:
        meta = cli_io.RunMeta(command="report", config_hash=config_hash, seed=seed)
        bundle = cli_io.ResultBundle(meta=meta)
        bundle.csv_artifacts["summary.csv"] = (["source", "command", "metric", "value"], rows)
        for p in cli_io.emit_report(bundle, args.out):
            print(p)
    return 0


# ---------------------------------------------------------------------------
# argument parsing / entry
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edcarb", description=__doc__)
    parser.add_argument("--version", action="version", version=f"edcarb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="GA design-space exploration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fitness", choices=["cdp", "delay"], default="cdp")
    p.add_argument("--appx", action="store_true", help="include approximate multipliers")
    p.add_argument("--stacking", choices=["2d", "3d"], default=None)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("schedule", help="map DNN variants onto the node")
    p.add_argument("--config", required=True)
    p.add_argument("--ci-now", type=float, required=True, dest="ci_now")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="replay execution against a CI trace")
    p.add_argument("--config", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--arrivals", required=True, help="arrivals CSV, 'poisson' or 'poisson:<rate>'")
    p.add_argument("--policy", choices=["adaptive", "static"], default="adaptive")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="aggregate artifacts from previous runs")
    p.add_argument("--in", dest="in_dirs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        label = _ERROR_LABELS.get(exc.exit_code, "ERROR")
        print(f"error[{label}]: {exc}", file=sys.stderr)
        if isinstance(exc, cli_io.ConfigError):
            for detail in exc.errors:
                print(f"  - {detail}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
