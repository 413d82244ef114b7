"""The three benchmark workloads.

Each workload has the same four parts:

- `setup(seed, smoke)` imports what it needs and builds its inputs from the
  seed;
- `run(inputs, out_dir, tracer)` is one timed pass. It returns the host
  seconds of each stage and the outputs to check. Library functions are
  called through their module (`design_explorer.run_ga`) so that an
  installed tracer sees them;
- `check(inputs, outputs)` returns, for every operation of the pass, the
  list of problems found (empty when the operation is correct);
- `output_values(outputs)` gives the end-to-end metrics that come from a
  pass's outputs rather than its clock (artifact sizes, the GA's gap);
- `values(inputs, best)` gives the timed end-to-end metrics from each
  stage's fastest time over the run's passes.

Stages are kept short (one search instance, one emitted report) so that
the fastest of a run's passes finds the host's quiet moments.

`scalars(outputs)` returns the summary numbers that `expected.json` pins
for the default seed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMO = ROOT / "configs" / "demo"
J_PER_KWH = 3.6e6
VERB_TIMEOUT_S = 120


def _timed(fn, *args, **kwargs):
    """Time one call. Objects alive before it (the inputs, earlier stages'
    outputs) are collected and frozen first, so the call's garbage
    collections do not traverse a heap that a fresh process would not hold.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start
    finally:
        gc.unfreeze()


def _attempt(problems: list, fn, *args, **kwargs):
    """Run one library call; a toolkit error is recorded as a problem."""
    from edcarb.errors import ToolkitError

    try:
        return _timed(fn, *args, **kwargs)
    except ToolkitError as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
        return None, 0.0


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else math.nan


def _dir_bytes(folder: Path) -> int:
    return sum(p.stat().st_size for p in folder.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# demo-cli
# ---------------------------------------------------------------------------


class DemoCli:
    """The four CLI verbs as subprocesses, in order, on configs/demo as shipped.

    The seed does not change the inputs: the workload is the shipped demo.
    """

    name = "demo-cli"
    seed_independent = True
    verbs = ("explore", "schedule", "simulate", "report")

    def setup(self, seed: int, smoke: bool):
        from edcarb import cli_io

        cli_io.load_config(DEMO / "demo.json")
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "EDCARB_LOG")}
        env["PYTHONPATH"] = str(ROOT / "src")
        return SimpleNamespace(env=env)

    def _argv(self, verb: str, out: Path) -> list[str]:
        config = str(DEMO / "demo.json")
        if verb == "explore":
            return ["explore", "--config", config, "--out", str(out / "explore"), "--appx"]
        if verb == "schedule":
            return ["schedule", "--config", config, "--ci-now", "250", "--out", str(out / "plan")]
        if verb == "simulate":
            return [
                "simulate", "--config", config, "--trace", str(DEMO / "ci_trace.csv"),
                "--arrivals", "poisson", "--policy", "adaptive", "--out", str(out / "sim"),
            ]
        return ["report", "--in", str(out / "explore"), str(out / "plan"), str(out / "sim")]

    def run(self, inputs, out: Path, tracer):
        timings = {}
        exits = {}
        for verb in self.verbs:
            argv = self._argv(verb, out)
            if tracer is None:
                cmd = [sys.executable, "-m", "edcarb.cli", *argv]
            else:
                dump = out / f"{verb}.trace.json"
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(dump), *argv]
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, env=inputs.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=VERB_TIMEOUT_S,
            )
            timings[f"{verb}_s"] = time.perf_counter() - start
            exits[verb] = (proc.returncode, proc.stderr.strip())
            if tracer is not None and dump.exists():
                traced = json.loads(dump.read_text())
                tracer.merge(traced["counters"])
                tracer.child_spans.extend(traced["spans"])
        return timings, SimpleNamespace(exits=exits, out=out)

    def scalars(self, outputs) -> dict:
        out = outputs.out
        found = {}
        readers = {
            "explore/best_design.json": {
                "best_cdp_kg_s": ("best", "cdp_kg_s"),
                "pareto_size": ("pareto_size",),
            },
            "plan/plan.json": {
                "plan_power_w": ("system", "power_w"),
                "plan_ipw": ("system", "ipw"),
            },
            "sim/sim_report.json": {
                "operational_g": ("operational_g",),
                "inferences_done": ("inferences_done",),
                "deadline_misses": ("deadline_misses",),
            },
        }
        for rel, keys in readers.items():
            try:
                doc = json.loads((out / rel).read_text())
            except (OSError, ValueError):
                continue
            for name, path in keys.items():
                value = doc
                for key in path:
                    value = value.get(key) if isinstance(value, dict) else None
                if value is not None:
                    found[name] = value
        return found

    def scalar_op(self, name: str) -> str:
        if name in ("best_cdp_kg_s", "pareto_size"):
            return "explore"
        if name.startswith("plan_"):
            return "schedule"
        return "simulate"

    def check(self, inputs, outputs) -> dict[str, list[str]]:
        problems = {verb: [] for verb in self.verbs}
        for verb, (code, stderr) in outputs.exits.items():
            if code != 0:
                first = stderr.splitlines()[0] if stderr else ""
                problems[verb].append(f"exit code {code}: {first}")
        return problems

    def output_values(self, outputs) -> dict:
        return {"artifact_mb": _dir_bytes(outputs.out) / 1e6}

    def values(self, inputs, best: dict) -> dict:
        return {**best, "wall_s": sum(best.values())}


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


class Search:
    """Exhaustive oracle, GA and Pareto extraction on a wide synthetic design
    space, then the layer-splitting search on c06-shaped instances."""

    name = "search"
    seed_independent = False

    def setup(self, seed: int, smoke: bool):
        import gen
        from edcarb import cli_io
        from edcarb.design_explorer import GaParams
        from edcarb.edc_scheduler import SearchParams

        rng = random.Random(seed)
        config = cli_io.load_config(DEMO / "demo.json")
        space = gen.design_space(config.design_space, rng, smoke)
        if smoke:
            ga = GaParams(population_size=12, generations=6, rng_seed=seed)
            params = SearchParams(beam_width=16, candidate_cap=128, local_search_moves=50, rng_seed=seed)
        else:
            ga = GaParams(population_size=64, generations=60, rng_seed=seed)
            params = SearchParams(beam_width=128, candidate_cap=2048, local_search_moves=400, rng_seed=seed)
        return SimpleNamespace(
            space=space,
            conv=gen.conv_workload(rng),
            ga=ga,
            instances=gen.mapping_instances(rng, smoke),
            params=params,
        )

    def run(self, inputs, out: Path, tracer):
        from edcarb import design_explorer, edc_scheduler

        errors = {"exhaustive": [], "ga": [], "pareto": []}
        exhaustive, t_exh = _attempt(
            errors["exhaustive"], design_explorer.exhaustive_search, inputs.space, inputs.conv
        )
        ga, t_ga = _attempt(errors["ga"], design_explorer.run_ga, inputs.space, inputs.ga, inputs.conv)
        front, t_pareto = None, 0.0
        if ga is not None:
            front, t_pareto = _attempt(
                errors["pareto"], design_explorer.pareto_front, list(ga.evaluated), inputs.space
            )
        timings = {"exhaustive_s": t_exh, "ga_s": t_ga, "pareto_s": t_pareto}
        solutions = []
        for i, (workloads, node, threshold) in enumerate(inputs.instances):
            errors[f"mapping.{i}"] = []
            solution, timings[f"mapping.{i}_s"] = _attempt(
                errors[f"mapping.{i}"], edc_scheduler.search_mapping,
                workloads, node, threshold, inputs.params,
            )
            solutions.append(solution)
        return timings, SimpleNamespace(
            errors=errors, exhaustive=exhaustive, ga=ga, front=front, solutions=solutions
        )

    def scalars(self, outputs) -> dict:
        found = {}
        if outputs.exhaustive is not None:
            found["exhaustive_best_cdp"] = outputs.exhaustive.cdp_kg_s
        if outputs.ga is not None:
            found["ga_best_cdp"] = outputs.ga.best.cdp_kg_s
        if outputs.front is not None:
            found["pareto_size"] = len(outputs.front)
        for i, solution in enumerate(outputs.solutions):
            if solution is not None:
                found[f"mapping.{i}.power_w"] = solution.estimate.power_w
                found[f"mapping.{i}.ipw"] = solution.estimate.ipw
        return found

    def scalar_op(self, name: str) -> str:
        if name.startswith("mapping."):
            return name.rsplit(".", 1)[0]
        return {"exhaustive_best_cdp": "exhaustive", "ga_best_cdp": "ga", "pareto_size": "pareto"}[name]

    def check(self, inputs, outputs) -> dict[str, list[str]]:
        from edcarb import edc_scheduler

        problems = {op: list(errs) for op, errs in outputs.errors.items()}
        ex, ga, front = outputs.exhaustive, outputs.ga, outputs.front
        if ex is not None and ga is not None and ga.best.cdp_kg_s < ex.cdp_kg_s:
            problems["ga"].append(
                f"GA best CDP {ga.best.cdp_kg_s!r} beats the exhaustive optimum {ex.cdp_kg_s!r}"
            )
        if front is not None:
            if not front or not all(d.feasible for d in front):
                problems["pareto"].append("front is empty or holds an infeasible design")
            for a in front:
                for b in front:
                    if (
                        b.embodied_kg <= a.embodied_kg
                        and b.latency_s <= a.latency_s
                        and (b.embodied_kg < a.embodied_kg or b.latency_s < a.latency_s)
                    ):
                        problems["pareto"].append("front holds a dominated design")
                        break
        for i, ((workloads, node, threshold), solution) in enumerate(
            zip(inputs.instances, outputs.solutions)
        ):
            if solution is None:
                continue
            exact = edc_scheduler.system_estimate(list(zip(workloads, solution.plans)), node)
            if exact.power_w > threshold:
                problems[f"mapping.{i}"].append(
                    f"plan power {exact.power_w!r} W exceeds threshold {threshold!r} W"
                )
        return problems

    def output_values(self, outputs) -> dict:
        ex, ga = outputs.exhaustive, outputs.ga
        gap = (ga.best.cdp_kg_s / ex.cdp_kg_s - 1.0) * 100.0 if ex and ga else math.nan
        return {"ga_gap_pct": gap}

    def values(self, inputs, best: dict) -> dict:
        mapping_s = sum(best[f"mapping.{i}_s"] for i in range(len(inputs.instances)))
        return {
            "wall_s": sum(best.values()),
            "exhaustive_designs_per_s": _rate(inputs.space.size, best["exhaustive_s"]),
            "ga_s": best["ga_s"],
            "mapping_instances_per_s": _rate(len(inputs.instances), mapping_s),
        }


# ---------------------------------------------------------------------------
# sim-load
# ---------------------------------------------------------------------------


class SimLoad:
    """`run_simulation` on the demo exec table and node at several loads.

    Arrivals are an open Poisson loop in simulated time. Batch mode runs at
    fixed rates below and above the adaptive cap's capacity (~12.5 req/s);
    the day-long llm run is overloaded but has no per-dispatch queue scan;
    the mapping run re-plans on every swing of a volatile trace. The batch
    and mapping reports are then written through `cli_io.emit_report`, as
    the simulate verb writes them. The day run is not written: its log
    would make serialization the bulk of the pass.
    """

    name = "sim-load"
    seed_independent = False
    rates = {"r3": 3.0, "r10": 10.0, "r20": 20.0, "r40": 40.0}
    emitted = ("r3", "r10", "r20", "r40", "remap")

    def setup(self, seed: int, smoke: bool):
        import gen
        from edcarb import cli_io
        from edcarb.runtime_sim import PoissonArrivals, SimConfig

        config = cli_io.load_config(DEMO / "demo.json")
        demo_trace = cli_io.load_ci_trace(DEMO / "ci_trace.csv")
        rng = random.Random(seed)
        day = gen.day_trace(rng, smoke)
        volatile = gen.volatile_trace(rng, smoke)
        sim, policy = config.sim, config.policy

        def sim_config(mode: str, horizon: float) -> SimConfig:
            return SimConfig(
                mode=mode,
                horizon_s=horizon,
                step_s=sim.step_s,
                policy="adaptive",
                deadline_ms=sim.deadline_ms,
                hysteresis_fraction=policy.hysteresis_fraction,
                p_min_w=policy.p_min_w,
                p_max_w=policy.p_max_w,
                idle_power_w=sim.idle_power_w,
                tokens_per_request=sim.tokens_per_request,
                tps_floor=policy.tps_floor or 0.0,
            )

        batch_horizon = 60.0 if smoke else 300.0
        scenarios = {}
        for label, rate in self.rates.items():
            scenarios[label] = (
                sim_config("batch", batch_horizon),
                demo_trace,
                PoissonArrivals(rate_per_s=rate, seed=seed),
                {"table": sim.exec_table},
            )
        scenarios["day"] = (
            sim_config("llm", day.horizon_s),
            day,
            PoissonArrivals(rate_per_s=3.0, seed=seed),
            {"llm_variants": sim.llm_variants},
        )
        scenarios["remap"] = (
            sim_config("mapping", volatile.horizon_s),
            volatile,
            None,
            {
                "node": config.node,
                "workloads": [vset.variants[0] for vset in config.variant_sets],
                "search_params": config.search,
            },
        )
        arrivals = {
            label: len(arr.materialize(cfg.horizon_s)) if arr is not None else 0
            for label, (cfg, _, arr, _) in scenarios.items()
        }
        return SimpleNamespace(
            scenarios=scenarios, arrivals=arrivals, config_hash=config.config_hash, seed=seed
        )

    def run(self, inputs, out: Path, tracer):
        from edcarb import cli_io, runtime_sim

        timings = {}
        reports = {}
        errors = {}
        for label, (cfg, trace, arrivals, kwargs) in inputs.scenarios.items():
            if tracer is not None:
                tracer.scenario = label
            errors[label] = []
            reports[label], timings[f"{label}_s"] = _attempt(
                errors[label], runtime_sim.run_simulation, cfg, trace, arrivals, **kwargs
            )
        errors["emit"] = []
        written = []
        for label in self.emitted:
            if reports[label] is None:
                continue
            paths, timings[f"emit.{label}_s"] = _attempt(
                errors["emit"], _emit, cli_io, inputs, reports[label], out / label
            )
            written.extend(paths or ())
        return timings, SimpleNamespace(errors=errors, reports=reports, written=written)

    def scalars(self, outputs) -> dict:
        found = {}
        for label, report in outputs.reports.items():
            if report is not None:
                found[f"{label}.operational_g"] = report.operational_g
                found[f"{label}.inferences_done"] = report.inferences_done
                found[f"{label}.deadline_misses"] = report.deadline_misses
        return found

    def scalar_op(self, name: str) -> str:
        return name.split(".", 1)[0]

    def check(self, inputs, outputs) -> dict[str, list[str]]:
        problems = {op: list(errs) for op, errs in outputs.errors.items()}
        for label, report in outputs.reports.items():
            if report is None:
                continue
            found = problems[label]
            cfg, _, arrivals, _ = inputs.scenarios[label]
            if arrivals is not None and report.inferences_done > inputs.arrivals[label]:
                found.append(
                    f"served {report.inferences_done} of {inputs.arrivals[label]} arrivals"
                )
            found.extend(_totals_problems(report))
            threshold = None
            for event in report.decision_log:
                if event.kind == "adapt":
                    threshold = event.detail["threshold_w"]
                elif event.kind == "remap" and event.detail["power_w"] > threshold:
                    found.append(
                        f"remap at t={event.t_s} uses {event.detail['power_w']!r} W "
                        f"over threshold {threshold!r} W"
                    )
        if not all(p.is_file() and p.stat().st_size > 0 for p in outputs.written):
            problems["emit"].append("an emitted artifact is missing or empty")
        return problems

    def output_values(self, outputs) -> dict:
        return {"artifact_mb": sum(p.stat().st_size for p in outputs.written) / 1e6}

    def values(self, inputs, best: dict) -> dict:
        return {
            "wall_s": sum(best.values()),
            "sim_us_per_req.r10": best["r10_s"] / inputs.arrivals["r10"] * 1e6,
            "sim_us_per_req.r40": best["r40_s"] / inputs.arrivals["r40"] * 1e6,
            "sim_day_s": best["day_s"],
        }


def _emit(cli_io, inputs, report, dest: Path):
    """Write one report as the simulate verb does."""
    meta = cli_io.RunMeta(command="simulate", config_hash=inputs.config_hash, seed=inputs.seed)
    bundle = cli_io.ResultBundle(meta=meta)
    bundle.json_artifacts["sim_report.json"] = cli_io.sim_report_to_dict(report)
    bundle.csv_artifacts["timeseries.csv"] = (
        cli_io.TIMESERIES_COLUMNS,
        cli_io.timeseries_rows(report),
    )
    return cli_io.emit_report(bundle, dest)


def _totals_problems(report) -> list[str]:
    """Energy and carbon totals recomputed from the decision log (rel 1e-9)."""
    energy_j = 0.0
    grams = 0.0
    for event in report.decision_log:
        if event.kind in ("dispatch", "idle", "power"):
            energy_j += event.detail["energy_j"]
            grams += event.detail["energy_j"] / J_PER_KWH * event.detail["ci"]
    problems = []
    for what, total, recomputed in (
        ("total_energy_kwh", report.total_energy_kwh, energy_j / J_PER_KWH),
        ("operational_g", report.operational_g, grams),
    ):
        if abs(total - recomputed) > 1e-9 * max(abs(total), abs(recomputed)):
            problems.append(f"{what} {total!r} differs from the log's {recomputed!r}")
    return problems


BY_NAME = {w.name: w for w in (DemoCli(), Search(), SimLoad())}
