"""Config loading, trace ingestion, artifact emission and CLI behavior."""

import json
import shutil
from pathlib import Path

import pytest

from edcarb import cli, cli_io
from edcarb.cli_io import (
    ConfigError,
    NegativeCi,
    NonMonotonicTimestamps,
    ParseError,
    ResultBundle,
    RunMeta,
    emit_report,
    load_arrivals,
    load_ci_trace,
    load_config,
    save_config,
)

from support import strip_timestamp_lines

DEMO_DIR = Path(__file__).resolve().parent.parent / "configs" / "demo"


@pytest.fixture
def demo_copy(tmp_path):
    target = tmp_path / "demo"
    shutil.copytree(DEMO_DIR, target)
    return target


def write_config(tmp_path, payload: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------------------
# load_config
# ---------------------------------------------------------------------------


def test_minimal_config_loads_with_defaults(tmp_path):
    config = load_config(write_config(tmp_path, {"seed": 5}))
    assert config.seed == 5
    assert config.policy.accuracy_threshold_pct == 2.0
    assert config.policy.hysteresis_fraction == 0.10
    assert config.ga_params.population_size == 64
    assert config.ga_params.rng_seed == 5
    assert config.search.rng_seed == 5
    assert config.design_space is None


def test_demo_config_loads_fully(demo_copy):
    config = load_config(demo_copy / "demo.json")
    assert config.design_space is not None
    assert config.design_space.size == 3 * 3 * 2 * 2 * 3 * 3
    assert config.workload is not None and len(config.workload.layers) == 4
    assert config.node is not None and len(config.node.units) == 3
    assert config.variant_sets and config.variant_sets[0].name == "resnet_family"
    assert config.sim.exec_table is not None
    assert config.sim.llm_variants is not None
    assert len(config.config_hash) == 12


def test_bad_hysteresis_names_the_field(tmp_path):
    path = write_config(tmp_path, {"policy": {"hysteresis_fraction": 1.5}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert any("policy.hysteresis_fraction" in e for e in exc_info.value.errors)


def test_missing_referenced_file_reports_path(tmp_path):
    path = write_config(tmp_path, {"workload_file": "missing.csv"})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert any("missing.csv" in e for e in exc_info.value.errors)


def test_all_errors_collected_not_just_first(tmp_path):
    path = write_config(
        tmp_path,
        {
            "policy": {"hysteresis_fraction": 2.0},
            "workload_file": "missing.csv",
            "node_file": "also_missing.json",
        },
    )
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert len(exc_info.value.errors) >= 3


@pytest.mark.parametrize(
    "key, value",
    [
        ("lifetime_inferences", 0),
        ("lifetime_inferences", -5),
        ("lifetime_inferences", float("nan")),
        ("embodied_total_kg", -1.0),
    ],
)
def test_bad_amortization_inputs_fail_at_load(tmp_path, key, value):
    path = write_config(tmp_path, {"sim": {key: value}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert any(e.startswith("sim") and key in e for e in exc_info.value.errors)


def test_config_round_trip_is_identity(demo_copy):
    original = load_config(demo_copy / "demo.json")
    saved = save_config(original, demo_copy / "roundtrip.json")
    reloaded = load_config(saved)
    assert reloaded.config_hash == original.config_hash
    assert reloaded.raw == original.raw
    for field in (
        "seed",
        "technology",
        "area_params",
        "design_space",
        "ga_params",
        "workload",
        "node",
        "variant_sets",
        "policy",
        "sim",
        "search",
    ):
        assert getattr(reloaded, field) == getattr(original, field), field


# ---------------------------------------------------------------------------
# trace loading
# ---------------------------------------------------------------------------


def test_load_two_row_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,100\n3600,200\n")
    trace = load_ci_trace(path)
    assert len(trace.samples) == 2
    assert trace.samples == ((0.0, 100.0), (3600.0, 200.0))
    assert trace.horizon_s == pytest.approx(7200.0)


def test_trace_timestamps_rebased_to_zero(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n1000,100\n1600,200\n")
    trace = load_ci_trace(path)
    assert trace.samples[0][0] == 0.0
    assert trace.samples[1][0] == 600.0


def test_trace_iso_timestamps(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,ci_g_per_kwh\n"
        "2026-01-01T00:00:00Z,120\n"
        "2026-01-01T01:00:00Z,240\n"
    )
    trace = load_ci_trace(path)
    assert trace.samples == ((0.0, 120.0), (3600.0, 240.0))


def test_trace_duplicate_timestamp_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,100\n0,200\n")
    with pytest.raises(NonMonotonicTimestamps):
        load_ci_trace(path)


def test_csv_row_error_names_the_physical_line(tmp_path):
    # the comment and blank lines before the bad row still count
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n# comment\n0,100\n\n30,nan\n")
    with pytest.raises(ParseError, match=r"trace\.csv:5: "):
        load_ci_trace(path)


def test_trace_non_monotonic_names_the_physical_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# forecast\ntimestamp,ci_g_per_kwh\n0,100\n# comment\n60,200\n\n60,300\n")
    with pytest.raises(NonMonotonicTimestamps, match=r"trace\.csv:7: timestamp 60\.0 not after previous"):
        load_ci_trace(path)


def test_trace_negative_ci_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,-5\n")
    with pytest.raises(NegativeCi):
        load_ci_trace(path)


def test_trace_bad_header_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,ci\n0,100\n")
    with pytest.raises(ParseError):
        load_ci_trace(path)


def test_load_arrivals(tmp_path):
    path = tmp_path / "arrivals.csv"
    path.write_text("time_s,kind\n0.5,default\n1.5,vision\n")
    arrivals = load_arrivals(path)
    assert arrivals.events == ((0.5, "default"), (1.5, "vision"))


def test_single_sample_trace_covers_everything(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,150\n")
    trace = load_ci_trace(path)
    assert trace.horizon_s == float("inf")
    assert trace.ci_at(1e9) == 150.0


@pytest.mark.parametrize(
    "text",
    ["{\"seed\": " + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
    ids=["long-integer", "deep-nesting"],
)
def test_unreadable_json_is_parse_error(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_config(path)


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_config(path)


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------


def test_empty_pareto_gives_header_only_csv(tmp_path):
    meta = RunMeta(command="explore", config_hash="cafe00000000", seed=1)
    bundle = ResultBundle(meta=meta)
    bundle.csv_artifacts["pareto.csv"] = (["a", "b"], [])
    (path,) = emit_report(bundle, tmp_path / "out")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# edcarb") and "config_hash=cafe00000000" in lines[0]
    assert lines[1].startswith("# generated_at=")
    assert lines[2] == "a,b"
    assert len(lines) == 3


def test_rerun_byte_identical_apart_from_timestamp(tmp_path):
    meta = RunMeta(command="explore", config_hash="cafe00000000", seed=1)
    bundle = ResultBundle(meta=meta)
    bundle.csv_artifacts["data.csv"] = (["x"], [[1.5], [2.25]])
    bundle.json_artifacts["doc.json"] = {"value": 0.1 + 0.2}
    first_dir, second_dir = tmp_path / "one", tmp_path / "two"
    emit_report(bundle, first_dir)
    emit_report(bundle, second_dir)
    for name in ("data.csv", "doc.json"):
        a = strip_timestamp_lines((first_dir / name).read_text())
        b = strip_timestamp_lines((second_dir / name).read_text())
        assert a == b


def test_different_seeds_differ_in_header(tmp_path):
    bundle_a = ResultBundle(meta=RunMeta(command="x", config_hash="aaaa", seed=1))
    bundle_a.csv_artifacts["d.csv"] = (["x"], [])
    bundle_b = ResultBundle(meta=RunMeta(command="x", config_hash="aaaa", seed=2))
    bundle_b.csv_artifacts["d.csv"] = (["x"], [])
    emit_report(bundle_a, tmp_path / "a")
    emit_report(bundle_b, tmp_path / "b")
    line_a = (tmp_path / "a" / "d.csv").read_text().splitlines()[0]
    line_b = (tmp_path / "b" / "d.csv").read_text().splitlines()[0]
    assert line_a != line_b and "seed=1" in line_a and "seed=2" in line_b


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_validation_failure_is_machine_parsable(tmp_path, capsys):
    bad = write_config(tmp_path, {"policy": {"hysteresis_fraction": 9.0}})
    rc = cli.main(["explore", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("error[VALIDATION]: ")


def test_cli_explore_writes_artifacts(demo_copy, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["explore", "--config", str(demo_copy / "demo.json"), "--out", str(out), "--appx"])
    assert rc == 0
    assert (out / "pareto.csv").exists()
    assert (out / "history.csv").exists()
    best = json.loads((out / "best_design.json").read_text())
    assert best["meta"]["command"] == "explore"
    assert best["best"]["cdp_kg_s"] > 0


def test_cli_explore_delay_fitness_and_3d(demo_copy, tmp_path):
    out = tmp_path / "out3d"
    rc = cli.main(
        [
            "explore", "--config", str(demo_copy / "demo.json"),
            "--out", str(out), "--fitness", "delay", "--stacking", "3d",
        ]
    )
    assert rc == 0
    doc = json.loads((out / "best_design.json").read_text())
    assert doc["fitness"] == "delay"


def test_cli_schedule_emits_plan(demo_copy, tmp_path):
    out = tmp_path / "plan"
    rc = cli.main(
        ["schedule", "--config", str(demo_copy / "demo.json"), "--ci-now", "250", "--out", str(out)]
    )
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["models"][0]["variant"] in ("resnet_heavy", "resnet_light")
    assert plan["system"]["power_w"] <= plan["power_threshold_w"]


def test_cli_schedule_two_models_jointly_mapped(demo_copy, tmp_path):
    variants = json.loads((demo_copy / "variants.json").read_text())
    second = json.loads(json.dumps(variants[0]))
    second["model"] = "second_family"
    for v in second["variants"]:
        v["name"] = "b_" + v["name"]
    (demo_copy / "variants.json").write_text(json.dumps(variants + [second]))
    out = tmp_path / "plan2"
    rc = cli.main(
        ["schedule", "--config", str(demo_copy / "demo.json"), "--ci-now", "150", "--out", str(out)]
    )
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert len(plan["models"]) == 2
    assert plan["system"]["power_w"] <= plan["power_threshold_w"]
    names = {m["model"] for m in plan["models"]}
    assert names == {"resnet_family", "second_family"}


def test_cli_schedule_infeasible_exit_code(demo_copy, tmp_path, capsys):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["policy"]["p_min_w"] = 0.01
    config["policy"]["p_max_w"] = 0.02
    path = demo_copy / "broken.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["schedule", "--config", str(path), "--ci-now", "250", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[INFEASIBLE]: ")


def test_cli_simulate_and_report(demo_copy, tmp_path, capsys):
    out = tmp_path / "sim"
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["horizon_s"] = 600.0
    path = demo_copy / "short.json"
    path.write_text(json.dumps(config))
    rc = cli.main(
        [
            "simulate", "--config", str(path),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", "poisson", "--policy", "adaptive", "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "sim_report.json").read_text())
    assert report["inferences_done"] > 0
    assert report["embodied_amortized_g_per_inference"] == pytest.approx(1.2 * 1000 / 1e6)
    series = (out / "timeseries.csv").read_text().splitlines()
    assert series[2] == "time,ci,power_threshold,power,energy,cumulative_g"
    capsys.readouterr()
    rc = cli.main(["report", "--in", str(out)])
    assert rc == 0
    assert "operational_g" in capsys.readouterr().out


def test_cli_simulate_explicit_arrivals(demo_copy, tmp_path):
    out = tmp_path / "sim2"
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["horizon_s"] = 120.0
    path = demo_copy / "short2.json"
    path.write_text(json.dumps(config))
    rc = cli.main(
        [
            "simulate", "--config", str(path),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", str(demo_copy / "arrivals.csv"),
            "--policy", "static", "--out", str(out),
        ]
    )
    assert rc == 0


def test_cli_report_missing_dir_is_io_error(tmp_path, capsys):
    rc = cli.main(["report", "--in", str(tmp_path / "nope")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error[IO]: ")


def test_cli_simulate_poisson_rate_override(demo_copy, tmp_path):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["horizon_s"] = 60.0
    path = demo_copy / "tiny.json"
    path.write_text(json.dumps(config))
    rc = cli.main(
        [
            "simulate", "--config", str(path),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", "poisson:0.5", "--policy", "adaptive",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "o" / "sim_report.json").read_text())
    # ~0.5/s for 60 s; determinism pins the exact count for this seed
    assert 10 <= report["inferences_done"] <= 60


def test_cli_simulate_bad_poisson_rate_is_validation(demo_copy, tmp_path, capsys):
    rc = cli.main(
        [
            "simulate", "--config", str(demo_copy / "demo.json"),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", "poisson:abc", "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error[VALIDATION]: ")


@pytest.mark.parametrize("lifetime", [0, -5, float("nan")])
def test_cli_simulate_bad_lifetime_inferences_is_validation(demo_copy, tmp_path, capsys, lifetime):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["horizon_s"] = 60.0
    config["sim"]["lifetime_inferences"] = lifetime
    path = demo_copy / "lifetime.json"
    path.write_text(json.dumps(config))
    rc = cli.main(
        [
            "simulate", "--config", str(path),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", "poisson", "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error[VALIDATION]: ")


def test_cli_simulate_nan_ci_sample_is_validation(demo_copy, tmp_path, capsys):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["horizon_s"] = 60.0
    path = demo_copy / "tiny.json"
    path.write_text(json.dumps(config))
    trace = tmp_path / "nan_trace.csv"
    trace.write_text("timestamp,ci_g_per_kwh\n0,100\n30,nan\n60,200\n")
    rc = cli.main(
        [
            "simulate", "--config", str(path), "--trace", str(trace),
            "--arrivals", "poisson", "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error[VALIDATION]: ") and f"{trace}:3:" in first


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("policy", None, []),
        ("technology", None, []),
        ("sim", None, "x"),
        ("ga", None, []),
        ("search", None, 3),
        ("policy", "p_min_w", "abc"),
        ("workload_file", None, 5),
        ("design_space", "max_area_cm2", "abc"),
        ("ga", "population_size", float("inf")),
        ("seed", None, True),
    ],
)
def test_cli_malformed_config_is_validation(demo_copy, tmp_path, capsys, section, key, value):
    config = json.loads((demo_copy / "demo.json").read_text())
    if key is None:
        config[section] = value
    else:
        config[section][key] = value
    path = demo_copy / "malformed.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["explore", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines()[0].startswith("error[VALIDATION]: ")
    assert "Traceback" not in err


def test_emit_to_unwritable_target_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    from edcarb.cli_io import RunMeta as Meta, ResultBundle as Bundle, emit_report as emit
    from edcarb.errors import IoFailure

    bundle = Bundle(meta=Meta(command="x", config_hash="dead", seed=0))
    bundle.csv_artifacts["d.csv"] = (["x"], [])
    with pytest.raises(IoFailure):
        emit(bundle, blocker)


def test_cli_trace_exhausted_is_validation(demo_copy, tmp_path, capsys):
    short_trace = tmp_path / "short_trace.csv"
    short_trace.write_text("timestamp,ci_g_per_kwh\n0,100\n10,200\n")
    rc = cli.main(
        [
            "simulate", "--config", str(demo_copy / "demo.json"),
            "--trace", str(short_trace),
            "--arrivals", "poisson", "--policy", "adaptive", "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[VALIDATION]: ")
