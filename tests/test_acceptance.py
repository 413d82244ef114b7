"""Acceptance suite: one test per criterion, each with its stated tolerance
and runtime budget. Every test prints a single PASS line on success (visible
with `pytest -s`; the pytest verdict line carries the same information)."""

import json
import math
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from edcarb import cli
from edcarb.accelerator_model import Dataflow, MultiplierVariant
from edcarb.carbon_model import (
    J_PER_KWH,
    PackageKind,
    die_carbon,
    dies_per_wafer,
    embodied_carbon,
    operational_carbon,
    wasted_area,
)
from edcarb.design_explorer import DesignSpace, GaParams, exhaustive_search, run_ga
from edcarb.edc_scheduler import (
    NoFeasiblePlan,
    SearchParams,
    hysteresis_update,
    search_mapping,
    system_estimate,
)
from edcarb.runtime_sim import (
    CiTrace,
    ExecLookupTable,
    LlmVariant,
    PoissonArrivals,
    SimConfig,
    choose_batch,
    choose_frequency,
    run_simulation,
)

from support import (
    EXACT_MULT,
    brute_force_batch,
    brute_force_frequency,
    grid_placement_count,
    make_area_params,
    make_tech,
    make_workload,
    only_coefficients,
    random_exec_table,
    read_decision_log,
    random_scheduler_instance,
    strip_timestamp_lines,
    tiny_mapping_oracle_suite,
)

DEMO_DIR = Path(__file__).resolve().parent.parent / "configs" / "demo"

APX_LIBRARY = (
    MultiplierVariant("apx_40", 0.0032, 2.0),  # 40% of exact area
    MultiplierVariant("apx_50", 0.0040, 1.2),
    MultiplierVariant("apx_60", 0.0048, 0.8),
)

WORKLOAD = make_workload(3)


def _space(multipliers, **overrides) -> DesignSpace:
    values = dict(
        px_values=(2, 4, 8),
        py_values=(2, 4, 8),
        b_local_values=(64, 256),
        b_global_values=(4096, 16384, 65536),
        dataflows=(Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY),
        multipliers=multipliers,
        tech=make_tech(),
        area_params=make_area_params(),
    )
    values.update(overrides)
    return DesignSpace(**values)


@contextmanager
def criterion(label: str, budget_s: float = math.inf):
    """Hold the body, or the test it decorates, to `budget_s` on a monotonic
    clock, then print the criterion's PASS line."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {label} took {elapsed:.2f}s, over its {budget_s}s budget"
    print(f"ACCEPTANCE {label}: PASS")


# ---------------------------------------------------------------------------
# 1. carbon-equation exactness
# ---------------------------------------------------------------------------


@criterion("1 carbon-equation exactness (200 instances, 1e-9)", 1.0)
def test_c01_carbon_equations_match_spreadsheet_recomputation():
    rng = random.Random(101)
    for _ in range(200):
        cfpa = rng.uniform(0.05, 5.0)
        cfpa_si = rng.uniform(0.0, 3.0)
        wafer_d = rng.uniform(20.0, 45.0)
        packaging = rng.uniform(0.0, 1.0)
        bonding = rng.uniform(0.0, 0.5)
        tsv_c = rng.uniform(0.0, 1e-3)
        tech = make_tech(
            cfpa_kg_per_cm2=cfpa,
            cfpa_si_kg_per_cm2=cfpa_si,
            wafer_diameter_cm=wafer_d,
            packaging_kg=packaging,
            bonding_kg_per_cm2=bonding,
            tsv_kg_per_via=tsv_c,
        )
        areas = [rng.uniform(0.1, 2.0) for _ in range(rng.randint(1, 3))]

        # spreadsheet-style recomputation, written out from scratch
        expected_dies = []
        for area in areas:
            wafer_area = math.pi * (wafer_d / 2.0) ** 2
            dpw = math.floor(wafer_area / area - math.pi * wafer_d / math.sqrt(2.0 * area))
            wasted = (wafer_area - dpw * area) / dpw
            expected_dies.append(cfpa * area + cfpa_si * wasted)
            assert die_carbon(area, tech) == pytest.approx(expected_dies[-1], rel=1e-9)

        if len(areas) >= 2:
            tsv_count = rng.randint(0, 2000)
            bond_area = rng.uniform(0.0, 2.0)
            package = (PackageKind.STACKED_3D, tsv_count, bond_area)
            expected_total = (
                sum(expected_dies) + packaging + bonding * bond_area + tsv_c * tsv_count
            )
        else:
            package = (PackageKind.PLANAR_2D,)
            expected_total = sum(expected_dies) + packaging
        total = embodied_carbon(areas, tech, *package)
        assert total == pytest.approx(expected_total, rel=1e-9)

        ci = rng.uniform(0.0, 900.0)
        energy = rng.uniform(0.0, 50.0)
        # energy is drawn in kWh; the equation takes joules
        assert operational_carbon(ci, energy * J_PER_KWH) == pytest.approx(ci * energy, rel=1e-9)


# ---------------------------------------------------------------------------
# 2. wasted-area vs grid-placement oracle
# ---------------------------------------------------------------------------


@criterion("2 wasted-area grid oracle (20 pairs, 5%)", 5.0)
def test_c02_dies_per_wafer_within_5pct_of_grid_oracle():
    rng = random.Random(20260808)
    for _ in range(20):
        area = rng.uniform(0.25, 1.5)
        diameter = rng.uniform(20.0, 45.0)
        dpw = dies_per_wafer(area, diameter)
        oracle = grid_placement_count(area, diameter)
        assert abs(dpw - oracle) <= 0.05 * oracle, (area, diameter, dpw, oracle)
        assert wasted_area(area, diameter) >= 0.0


# ---------------------------------------------------------------------------
# 3. GA vs exhaustive
# ---------------------------------------------------------------------------


@criterion("3 GA within 1% of exhaustive (>=19/20 seeds, monotone 20/20)", 10.0)
def test_c03_ga_matches_exhaustive_across_seeds():
    space = _space((EXACT_MULT,) + APX_LIBRARY)
    assert 48 <= space.size <= 2000
    optimum = exhaustive_search(space, WORKLOAD)
    hits = 0
    for seed in range(20):
        params = GaParams(population_size=24, generations=15, rng_seed=seed)
        result = run_ga(space, params, WORKLOAD)
        if result.best.cdp_kg_s <= optimum.cdp_kg_s * 1.01:
            hits += 1
        bests = [h.best_fitness for h in result.history]
        assert all(b <= a for a, b in zip(bests, bests[1:])), f"seed {seed} not monotone"
    assert hits >= 19, f"only {hits}/20 seeds within 1% of optimum"

    # documented optimum of the 48-design space, frozen from the oracle's
    # first run
    space48 = _space(
        (EXACT_MULT,),
        px_values=(4, 8),
        py_values=(4, 8),
        b_global_values=(16384, 65536),
        dataflows=(
            Dataflow.WEIGHT_STATIONARY,
            Dataflow.OUTPUT_STATIONARY,
            Dataflow.ROW_STATIONARY,
        ),
    )
    assert space48.size == 48
    best48 = exhaustive_search(space48, WORKLOAD)
    assert (best48.chromosome.px, best48.chromosome.py) == (8, 8)
    assert best48.chromosome.b_local == 64
    assert best48.chromosome.b_global == 16384
    assert best48.chromosome.dataflow is Dataflow.OUTPUT_STATIONARY
    assert best48.cdp_kg_s == pytest.approx(1.7853073812350248e-05, rel=1e-12)



# ---------------------------------------------------------------------------
# 4. approximation-mode direction
# ---------------------------------------------------------------------------


@criterion("4 APPX optimum strictly lower embodied, no higher latency", 10.0)
def test_c04_appx_mode_beats_exact_only_on_both_axes():
    for mult in APX_LIBRARY:
        assert 0.4 * EXACT_MULT.area_mm2 <= mult.area_mm2 <= 0.6 * EXACT_MULT.area_mm2
        assert mult.accuracy_drop_pct <= 2.0
    exact_best = exhaustive_search(_space((EXACT_MULT,)), WORKLOAD)
    appx_best = exhaustive_search(_space((EXACT_MULT,) + APX_LIBRARY), WORKLOAD)
    assert appx_best.embodied_kg < exact_best.embodied_kg
    assert appx_best.latency_s <= exact_best.latency_s


# ---------------------------------------------------------------------------
# 5. 3D additivity
# ---------------------------------------------------------------------------


@criterion("5 3D additivity exact, zero coefficients recover planar sum", 1.0)
def test_c05_stacked_carbon_additive_and_reducible_to_planar():
    tech = make_tech(bonding_kg_per_cm2=0.25, tsv_kg_per_via=2e-4)
    dies = [0.8, 0.35]
    package = (PackageKind.STACKED_3D, 1500, 0.8)  # kind, TSV count, bond interface area
    total = embodied_carbon(dies, tech, *package)
    recomputed = (
        sum(die_carbon(a, tech) for a in dies)
        + tech.packaging_kg
        + tech.bonding_kg_per_cm2 * 0.8
        + tech.tsv_kg_per_via * 1500
    )
    assert total == recomputed  # exact

    zeroed = make_tech(bonding_kg_per_cm2=0.0, tsv_kg_per_via=0.0)
    stacked0 = embodied_carbon(dies, zeroed, *package)
    planar0 = embodied_carbon(dies, zeroed, PackageKind.PLANAR_2D)
    assert stacked0 == planar0  # exact
    # with only the (zeroed) bonding and TSV coefficients left, the stack costs nothing
    package_terms_only = only_coefficients(zeroed, "bonding_kg_per_cm2", "tsv_kg_per_via")
    assert embodied_carbon(dies, package_terms_only, *package) == 0.0


# ---------------------------------------------------------------------------
# 6. scheduler safety + oracle
# ---------------------------------------------------------------------------


@criterion("6 scheduler safety (1000 instances) + exact tiny-suite oracle", 30.0)
def test_c06_scheduler_safety_and_tiny_oracle_equality():
    rng = random.Random(606)
    light = SearchParams(beam_width=4, candidate_cap=64, local_search_moves=50, rng_seed=0)
    returned = 0
    for _ in range(1000):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(2.0, 30.0)
        try:
            solution = search_mapping(workloads, node, threshold, light)
        except NoFeasiblePlan:
            continue
        returned += 1
        exact = system_estimate(list(zip(workloads, solution.plans)), node)
        assert exact.power_w <= threshold, "plan exceeded the power threshold"
    assert returned >= 300  # the sweep must actually exercise feasible cases

    strong = SearchParams(beam_width=128, candidate_cap=2048, local_search_moves=400, rng_seed=0)
    checked = 0
    for workloads, node, threshold, oracle in tiny_mapping_oracle_suite():
        if oracle is None:
            with pytest.raises(NoFeasiblePlan):
                search_mapping(workloads, node, threshold, strong)
            continue
        solution = search_mapping(workloads, node, threshold, strong)
        assert solution.estimate.ipw == pytest.approx(oracle, rel=1e-12)
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# 7. hysteresis behavior
# ---------------------------------------------------------------------------


@criterion("7 hysteresis trigger iff delta > 10% of range; remaps bounded", 2.0)
def test_c07_hysteresis_sweep_and_remap_counts():
    forecast_range = 400.0
    last = 250.0
    for i in range(0, 201):  # 0% to 20% in 0.1% steps
        delta = (i / 1000.0) * forecast_range
        expected = i > 100  # strictly above 10%
        assert hysteresis_update(last, last + delta, forecast_range) == expected, i
        assert hysteresis_update(last, last - delta, forecast_range) == expected, i

    def remap_count(fraction: float) -> int:
        count = 0
        reference = None
        for step in range(600):
            ci = 300.0 + 200.0 * math.sin(2 * math.pi * step / 120.0)
            if reference is None or hysteresis_update(reference, ci, 400.0, fraction):
                reference = ci
                count += 1
        return count

    assert remap_count(0.10) <= remap_count(0.0)


# ---------------------------------------------------------------------------
# 8. CI-adaptation direction
# ---------------------------------------------------------------------------

ACCEPT_TABLE = ExecLookupTable(
    entries={
        (1, 0): (80.0, 0.4),
        (2, 0): (100.0, 0.74),
        (4, 0): (140.0, 1.36),
        (1, 1): (40.0, 0.6),
        (2, 1): (50.0, 1.1),
        (4, 1): (70.0, 2.0),
    },
    concurrency={1: (1.0, 1.0), 2: (1.8, 1.5)},
)


@criterion("8 adaptive operational_g strictly below static, misses bounded", 30.0)
def test_c08_adaptive_policy_strictly_cuts_operational_carbon():
    horizon = 240.0
    trace = CiTrace(
        samples=((0.0, 100.0), (60.0, 500.0), (120.0, 100.0), (180.0, 500.0)),
        horizon_s=horizon,
    )
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    miss_budget = 0.7  # configured bound: at most 70% of requests late

    def run(policy: str):
        config = SimConfig(
            mode="batch", horizon_s=horizon, step_s=1.0, policy=policy,
            deadline_ms=60.0, p_min_w=8.0, p_max_w=20.0, idle_power_w=0.5,
        )
        return run_simulation(config, trace, arrivals, table=ACCEPT_TABLE)

    adaptive = run("adaptive")
    static = run("static")
    assert adaptive.inferences_done == static.inferences_done  # same arrivals served
    assert adaptive.operational_g < static.operational_g
    assert adaptive.deadline_misses <= miss_budget * adaptive.inferences_done


# ---------------------------------------------------------------------------
# 9. runtime policy oracles
# ---------------------------------------------------------------------------


@criterion("9 batch/frequency policies equal brute force (500 tables)", 5.0)
def test_c09_batch_and_frequency_policies_match_brute_force():
    rng = random.Random(909)
    for _ in range(500):
        table = random_exec_table(rng)
        queue_len = rng.randint(1, 12)
        freq = rng.randrange(table.n_freqs)
        deadline = rng.uniform(1.0, 40.0)
        wait = rng.uniform(0.0, 10.0)
        assert choose_batch(queue_len, table, deadline, wait, freq) == brute_force_batch(
            queue_len, table, deadline, wait, freq
        )
        batch = rng.choice(table.batch_sizes)
        assert choose_frequency(batch, table, deadline, wait, range(table.n_freqs)) == brute_force_frequency(
            batch, table, deadline, wait
        )


# ---------------------------------------------------------------------------
# 10. determinism of CLI artifacts
# ---------------------------------------------------------------------------


def _artifact_fingerprint(folder: Path) -> dict:
    return {
        p.name: strip_timestamp_lines(p.read_text())
        for p in sorted(folder.iterdir())
        if p.is_file()
    }


@criterion("10 all four subcommands byte-identical across reruns", 60.0)
def test_c10_every_subcommand_is_byte_deterministic(tmp_path):
    demo = tmp_path / "demo"
    shutil.copytree(DEMO_DIR, demo)
    config = json.loads((demo / "demo.json").read_text())
    config["sim"]["horizon_s"] = 600.0
    short = demo / "short.json"
    short.write_text(json.dumps(config))

    def run_twice(args_for):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            if out.exists():
                shutil.rmtree(out)
            assert cli.main(args_for(out)) == 0
        assert _artifact_fingerprint(out_a) == _artifact_fingerprint(out_b)
        return out_a

    explore_dir = run_twice(
        lambda out: ["explore", "--config", str(short), "--out", str(out), "--appx"]
    )
    keep_explore = tmp_path / "explore_keep"
    shutil.copytree(explore_dir, keep_explore)

    run_twice(
        lambda out: ["schedule", "--config", str(short), "--ci-now", "250", "--out", str(out)]
    )
    sim_dir = run_twice(
        lambda out: [
            "simulate", "--config", str(short),
            "--trace", str(demo / "ci_trace.csv"),
            "--arrivals", "poisson", "--policy", "adaptive", "--out", str(out),
        ]
    )
    # the streamed log is one of the files compared
    assert "decision_log.jsonl" in _artifact_fingerprint(sim_dir)
    keep_sim = tmp_path / "sim_keep"
    shutil.copytree(sim_dir, keep_sim)

    run_twice(
        lambda out: [
            "report", "--in", str(keep_explore), str(keep_sim), "--out", str(out),
        ]
    )


# ---------------------------------------------------------------------------
# 11. conservation of energy/carbon accounting
# ---------------------------------------------------------------------------


def _random_llm_variants(rng: random.Random):
    variants = []
    quality = 0.95
    tps = rng.uniform(15.0, 25.0)
    power = rng.uniform(9.0, 14.0)
    for i in range(3):
        n_freq = 2
        tps_levels = tuple(tps * (1.0 + 0.5 * f) for f in range(n_freq))
        power_levels = tuple(power * (1.0 + 0.4 * f) for f in range(n_freq))
        variants.append(
            LlmVariant(f"v{i}", quality, tps_levels, power_levels)
        )
        quality -= rng.uniform(0.02, 0.05)
        tps *= rng.uniform(1.3, 1.6)
        power *= rng.uniform(0.6, 0.8)
    return tuple(variants)


@criterion("11 energy/carbon totals recomputed from the log at 1e-9", 30.0)
def test_c11_report_totals_recomputable_from_decision_log():
    rng = random.Random(1111)
    for scenario in range(50):
        horizon = rng.uniform(40.0, 90.0)
        n_samples = rng.randint(2, 5)
        times = sorted(rng.sample(range(0, int(horizon)), n_samples))
        times[0] = 0
        trace = CiTrace(
            samples=tuple((float(t), rng.uniform(50.0, 600.0)) for t in times),
            horizon_s=horizon,
        )
        mode = "llm" if scenario % 3 == 2 else "batch"
        if mode == "batch":
            table = random_exec_table(rng)
            config = SimConfig(
                mode="batch", horizon_s=horizon, step_s=1.0,
                policy=rng.choice(["adaptive", "static"]),
                deadline_ms=rng.uniform(10.0, 80.0),
                p_min_w=rng.uniform(1.0, 5.0), p_max_w=rng.uniform(50.0, 400.0),
                idle_power_w=rng.uniform(0.0, 2.0),
            )
            report = run_simulation(
                config, trace,
                PoissonArrivals(rate_per_s=rng.uniform(0.5, 5.0), seed=scenario),
                table=table,
            )
        else:
            variants = _random_llm_variants(rng)
            min_power = min(min(v.power_w) for v in variants)
            config = SimConfig(
                mode="llm", horizon_s=horizon, step_s=1.0, policy="adaptive",
                deadline_ms=rng.uniform(500.0, 5000.0),
                p_min_w=min_power + 1.0, p_max_w=min_power + rng.uniform(10.0, 30.0),
                idle_power_w=rng.uniform(0.0, 1.0),
                tokens_per_request=rng.randint(16, 128),
                tps_floor=rng.uniform(5.0, 20.0),
            )
            report = run_simulation(
                config, trace,
                PoissonArrivals(rate_per_s=rng.uniform(0.1, 0.6), seed=scenario),
                llm_variants=variants,
            )
        energy_j = sum(
            ev.detail["energy_j"]
            for ev in report.decision_log
            if ev.kind in ("dispatch", "idle", "power")
        )
        grams = sum(
            ev.detail["energy_j"] / J_PER_KWH * ev.detail["ci"]
            for ev in report.decision_log
            if ev.kind in ("dispatch", "idle", "power")
        )
        if report.total_energy_kwh == 0.0:
            assert energy_j == 0.0
        else:
            assert report.total_energy_kwh == pytest.approx(energy_j / J_PER_KWH, rel=1e-9)
            assert report.operational_g == pytest.approx(grams, rel=1e-9)


@pytest.mark.parametrize("mode", ["batch", "llm", "mapping"])
def test_c11_simulate_totals_recomputable_from_the_decision_log_file(tmp_path, mode):
    with criterion(f"11 {mode} simulate totals recomputed from decision_log.jsonl at 1e-9"):
        demo = tmp_path / "demo"
        shutil.copytree(DEMO_DIR, demo)
        config = json.loads((demo / "demo.json").read_text())
        config["sim"]["horizon_s"] = 600.0
        config["sim"]["mode"] = mode
        short = demo / "short.json"
        short.write_text(json.dumps(config))
        out = tmp_path / "sim"
        assert cli.main([
            "simulate", "--config", str(short), "--trace", str(demo / "ci_trace.csv"),
            "--arrivals", "poisson", "--policy", "adaptive", "--out", str(out),
        ]) == 0
        report = json.loads((out / "sim_report.json").read_text())
        events = read_decision_log(out / report["decision_log_file"])
        charged = [ev for ev in events if ev["kind"] in ("dispatch", "idle", "power")]
        assert charged
        energy_j = sum(ev["energy_j"] for ev in charged)
        grams = sum(ev["energy_j"] / J_PER_KWH * ev["ci"] for ev in charged)
        assert report["total_energy_kwh"] == pytest.approx(energy_j / J_PER_KWH, rel=1e-9)
        assert report["operational_g"] == pytest.approx(grams, rel=1e-9)
