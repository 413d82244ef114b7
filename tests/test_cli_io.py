"""Config loading, trace ingestion, artifact emission and CLI behavior."""

import csv
import dataclasses
import json
import operator
import random
import shutil
import time
from pathlib import Path

import pytest

from edcarb import cli, cli_io, edc_scheduler
from edcarb.edc_scheduler import EdgeNode, system_estimate
from edcarb.errors import ValidationFailure
from edcarb.runtime_sim import LogEvent, SimConfig, SimReport, StepSample
from edcarb.cli_io import (
    ConfigError,
    NegativeCi,
    NonMonotonicTimestamps,
    ParseError,
    ResultBundle,
    RunMeta,
    ToolkitConfig,
    emit_report,
    load_arrivals,
    load_ci_trace,
    load_config,
)

from support import (
    make_tech,
    make_unit,
    make_variant,
    plan_bottleneck_ms,
    random_scheduler_instance,
    strip_timestamp_lines,
)

DEMO_DIR = Path(__file__).resolve().parent.parent / "configs" / "demo"
DEMO_CONFIG = json.loads((DEMO_DIR / "demo.json").read_text())


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


@pytest.mark.parametrize("ci_min, ci_max", [(500.0, 100.0), (300.0, 300.0)])
def test_policy_intensity_range_must_be_increasing(tmp_path, ci_min, ci_max):
    # a reversed or empty range would map every intensity to p_max_w
    path = write_config(tmp_path, {"policy": {"ci_min": ci_min, "ci_max": ci_max}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert exc_info.value.errors == [f"policy.ci_min: must be < ci_max, got {ci_min} >= {ci_max}"]


@pytest.mark.parametrize(
    "key, value",
    [("p_min_w", -5.0), ("p_min_w", 0.0), ("latency_constraint_ms", -1.0), ("latency_constraint_ms", 0.0)],
)
def test_policy_power_floor_and_latency_constraint_must_be_positive(tmp_path, key, value):
    path = write_config(tmp_path, {"policy": {key: value}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert exc_info.value.errors == [f"policy.{key}: must be > 0, got {value}"]


@pytest.mark.parametrize(
    "section, key, fraction, integral, field, error",
    [
        ("search", "beam_width", 1.5, 2.0, "search.beam_width", "search: beam_width: expected an integer, got 1.5"),
        (
            "design_space", "px", [4, 8.7], [4, 8.0], "design_space.px_values",
            "design_space: px: expected an integer, got 8.7",
        ),
        (
            "ga", "population_size", 2.9, 24.0, "ga_params.population_size",
            "ga: population_size: expected an integer, got 2.9",
        ),
    ],
    ids=["search.beam_width", "design_space.px", "ga.population_size"],
)
def test_an_integer_key_refuses_a_fraction(demo_copy, section, key, fraction, integral, field, error):
    config = json.loads((demo_copy / "demo.json").read_text())
    config[section][key] = fraction
    (demo_copy / "demo.json").write_text(json.dumps(config))
    with pytest.raises(ConfigError) as exc_info:
        load_config(demo_copy / "demo.json")
    assert exc_info.value.errors == [error]
    # an integral float still loads, as an int
    config[section][key] = integral
    (demo_copy / "demo.json").write_text(json.dumps(config))
    expected = tuple(map(int, integral)) if isinstance(integral, list) else int(integral)
    assert repr(operator.attrgetter(field)(load_config(demo_copy / "demo.json"))) == repr(expected)


@pytest.mark.parametrize(
    "file, path, value, error",
    [
        ("demo.json", ("design_space", "px"), 5, "design_space: px: expected a list, got 5"),
        (
            "demo.json", ("design_space", "dataflows"), ["bogus"],
            "design_space: dataflows: 'bogus' is not a valid Dataflow",
        ),
        ("demo.json", ("design_space", "multipliers"), 5, "design_space: multipliers: expected a list, got 5"),
        (
            "node.json", ("units", 0, "freq_levels_hz"), [1e9, "x"],
            "node_file: freq_levels_hz: could not convert string to float: 'x'",
        ),
        (
            "node.json", ("units", 0, "freq_levels_hz"), 1e9,
            "node_file: freq_levels_hz: expected a list, got 1000000000.0",
        ),
        (
            "llm_variants.json", (0, "tokens_per_s"), [20.0, "x"],
            "sim.llm_variants_file: tokens_per_s: could not convert string to float: 'x'",
        ),
        ("llm_variants.json", (0, "power_w"), 12.0, "sim.llm_variants_file: power_w: expected a list, got 12.0"),
        ("variants.json", (0, "variants", 0, "layers"), 5, "variants_file: layers: expected a list, got 5"),
        ("variants.json", (0, "variants"), 5, "variants_file: variants: expected a list, got 5"),
        ("node.json", ("units",), 5, "node_file: units: expected a list, got 5"),
        ("variants.json", (0, "model"), None, "variants_file: missing key 'model'"),
        ("variants.json", (0, "variants", 0, "layers"), None, "variants_file: missing key 'layers'"),
    ],
    ids=[
        "px.not_a_list",
        "dataflows",
        "multipliers.not_a_list",
        "freq_levels_hz",
        "freq_levels_hz.not_a_list",
        "tokens_per_s",
        "power_w.not_a_list",
        "layers.not_a_list",
        "variants.not_a_list",
        "units.not_a_list",
        "model.missing",
        "layers.missing",
    ],
)
def test_a_bad_list_names_its_key(demo_copy, file, path, value, error):
    # a fraction in an integer list is one case of test_an_integer_key_refuses_a_fraction;
    # value None deletes the key
    doc = json.loads((demo_copy / file).read_text())
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is None:
        del target[key]
    else:
        target[key] = value
    (demo_copy / file).write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc_info:
        load_config(demo_copy / "demo.json")
    assert exc_info.value.errors == [error]


@pytest.mark.parametrize(
    "file, key",
    [("variants.json", "variants_file"), ("llm_variants.json", "sim.llm_variants_file")],
    ids=["variants", "llm_variants"],
)
def test_a_variants_file_that_is_not_a_list_names_its_key(demo_copy, file, key):
    (demo_copy / file).write_text("5")
    with pytest.raises(ConfigError) as exc_info:
        load_config(demo_copy / "demo.json")
    assert exc_info.value.errors == [f"{key}: expected a list, got 5"]


def test_a_variants_file_may_hold_one_model_set_outside_a_list(demo_copy):
    doc = json.loads((demo_copy / "variants.json").read_text())
    (demo_copy / "variants.json").write_text(json.dumps(doc[0]))
    assert load_config(demo_copy / "demo.json").variant_sets == load_config(DEMO_DIR / "demo.json").variant_sets[:1]


@pytest.mark.parametrize("policy_pct", [None, 0.5], ids=["default", "set"])
def test_explorer_accuracy_threshold_comes_from_policy(demo_copy, policy_pct):
    config = json.loads((demo_copy / "demo.json").read_text())
    if policy_pct is None:
        del config["policy"]["accuracy_threshold_pct"]
    else:
        config["policy"]["accuracy_threshold_pct"] = policy_pct
    (demo_copy / "demo.json").write_text(json.dumps(config))
    loaded = load_config(demo_copy / "demo.json")
    assert loaded.design_space.accuracy_threshold_pct == loaded.policy.accuracy_threshold_pct
    assert loaded.policy.accuracy_threshold_pct == (2.0 if policy_pct is None else policy_pct)


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
    "payload, error",
    [
        ({"search": {"rng_seed": 5}}, "search: rng_seed"),
        ({"ga": {"rng_seed": 7}}, "ga: rng_seed"),
        ({"technology": {"7nm": dataclasses.asdict(make_tech(node_label="5nm"))}}, "technology.7nm: node_label"),
        # the explorer's accuracy threshold comes from policy
        (
            {
                "technology": DEMO_CONFIG["technology"],
                "area_params": DEMO_CONFIG["area_params"],
                "design_space": {**DEMO_CONFIG["design_space"], "accuracy_threshold_pct": 0.5},
            },
            "design_space: accuracy_threshold_pct",
        ),
    ],
    ids=["search.rng_seed", "ga.rng_seed", "technology.node_label", "design_space.accuracy_threshold_pct"],
)
def test_a_key_the_loader_sets_is_refused(tmp_path, payload, error):
    # the top-level seed is the one seed of a run, and artifact headers record it
    path = write_config(tmp_path, {"seed": 3, **payload})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert exc_info.value.errors == [f"{error}: set by the loader, not by the config"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("lifetime_inferences", 0),
        ("lifetime_inferences", -5),
        ("lifetime_inferences", float("nan")),
        ("embodied_total_kg", -1.0),
        # each is valid alone, but the amortization needs both
        ("lifetime_inferences", 5.0),
        ("embodied_total_kg", 5.0),
    ],
)
def test_bad_amortization_inputs_fail_at_load(tmp_path, key, value):
    path = write_config(tmp_path, {"sim": {key: value}})
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert any(e.startswith("sim") and key in e for e in exc_info.value.errors)


def test_config_round_trip_is_identity(demo_copy):
    original = load_config(demo_copy / "demo.json")
    reloaded = load_config(demo_copy / "demo.json")
    for field in dataclasses.fields(ToolkitConfig):
        assert getattr(reloaded, field.name) == getattr(original, field.name), field.name


@pytest.mark.parametrize(
    "file, where, value",
    [
        ("llm_variants.json", "name", 5),
        ("variants.json", "model", {"a": 1}),
    ],
)
def test_variant_names_must_be_text(demo_copy, file, where, value):
    doc = json.loads((demo_copy / file).read_text())
    doc[0][where] = value
    (demo_copy / file).write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="expected a string"):
        load_config(demo_copy / "demo.json")


def test_llm_variant_precision_is_ignored(demo_copy):
    as_is = load_config(demo_copy / "demo.json").sim.llm_variants
    path = demo_copy / "llm_variants.json"
    doc = json.loads(path.read_text())
    for variant in doc:
        del variant["precision"]
    path.write_text(json.dumps(doc))
    assert load_config(demo_copy / "demo.json").sim.llm_variants == as_is


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
    assert (arrivals.times, arrivals.kinds) == ((0.5, 1.5), ("default", "vision"))


def test_single_sample_trace_covers_everything(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,150\n")
    trace = load_ci_trace(path)
    assert trace.horizon_s == float("inf")
    assert trace.ci_at(1e9) == 150.0


@pytest.mark.parametrize(
    "data",
    [b"{\"seed\": " + b"9" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000, b"\xff{}"],
    ids=["long-integer", "deep-nesting", "not-utf8"],
)
def test_unreadable_json_is_parse_error(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
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


@pytest.mark.parametrize(
    "command",
    [
        ["explore"],
        ["schedule", "--ci-now", "250"],
        ["simulate", "--trace", str(DEMO_DIR / "ci_trace.csv"), "--arrivals", "poisson", "--policy", "static"],
    ],
    ids=["explore", "schedule", "simulate"],
)
def test_cli_refuses_bad_sim_run_settings_at_load(demo_copy, tmp_path, capsys, command):
    # every verb loads the sim section, and its problems are listed with the others
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["step_s"] = 0
    config["ga"]["population_size"] = 1
    (demo_copy / "demo.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    verb, *flags = command
    assert cli.main([verb, "--config", str(demo_copy / "demo.json"), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error[VALIDATION]: ")
    assert err[1:] == ["  - ga: population_size must be >= 2", "  - sim.step_s: must be finite and > 0, got 0.0"]
    assert not out.exists()


def test_config_lists_every_failed_sim_run_setting(demo_copy):
    # each failed run setting is its own error, under the key of the section that sets it
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["step_s"] = 0
    config["sim"]["deadline_ms"] = 0
    config["policy"]["p_min_w"] = 0
    (demo_copy / "demo.json").write_text(json.dumps(config))
    with pytest.raises(ConfigError) as info:
        load_config(demo_copy / "demo.json")
    assert info.value.errors == [
        "sim.step_s: must be finite and > 0, got 0.0",
        "sim.deadline_ms: must be finite and > 0, got 0.0",
        "policy.p_min_w: must be > 0, got 0.0",
    ]


@pytest.mark.parametrize(
    "sim, policy, expected",
    [
        (
            {"arrival_rate_per_s": "fast"},
            {"hysteresis_fraction": 1.5},
            [
                "sim: arrival_rate_per_s: could not convert string to float: 'fast'",
                "policy.hysteresis_fraction: must be in [0, 1], got 1.5",
            ],
        ),
        (
            {"step_s": 0},
            {"latency_constraint_ms": 0},
            ["policy.latency_constraint_ms: must be > 0, got 0.0", "sim.step_s: must be finite and > 0, got 0.0"],
        ),
    ],
)
def test_a_failed_section_does_not_hide_the_other_sections_run_settings(demo_copy, sim, policy, expected):
    # the failed section is checked at its defaults, and its own run settings are not listed
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"].update(sim)
    config["policy"].update(policy)
    (demo_copy / "demo.json").write_text(json.dumps(config))
    with pytest.raises(ConfigError) as info:
        load_config(demo_copy / "demo.json")
    assert info.value.errors == expected


def test_an_llm_config_needs_a_tps_floor_above_zero_at_load(demo_copy):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["sim"]["mode"] = "llm"
    del config["policy"]["tps_floor"]
    (demo_copy / "demo.json").write_text(json.dumps(config))
    with pytest.raises(ConfigError) as info:
        load_config(demo_copy / "demo.json")
    assert info.value.errors == ["policy.tps_floor: must be finite and > 0 in llm mode, got 0.0"]
    # null is a non-number like any other, in every mode
    config["sim"]["mode"] = "batch"
    config["policy"]["tps_floor"] = None
    (demo_copy / "demo.json").write_text(json.dumps(config))
    with pytest.raises(ConfigError) as info:
        load_config(demo_copy / "demo.json")
    assert [e.split(":")[:2] for e in info.value.errors] == [["policy", " tps_floor"]]


def test_each_sim_config_field_is_set_by_one_config_section():
    # build_sim_config copies each field from the section whose type has a field of its name
    sections = [{f.name for f in dataclasses.fields(cls)} for cls in (cli_io.SimSettings, cli_io.PolicyParams)]
    for f in dataclasses.fields(SimConfig):
        if f.name != "policy":
            assert sum(f.name in names for names in sections) == 1, f.name
    assert not any("policy" in names for names in sections)


def _set(section, key, value):
    def edit(demo):
        config = json.loads((demo / "demo.json").read_text())
        config[section][key] = value
        (demo / "demo.json").write_text(json.dumps(config))

    return edit


def _set_first(section, key, value):
    def edit(demo):
        config = json.loads((demo / "demo.json").read_text())
        config[section][key][0] = value
        (demo / "demo.json").write_text(json.dumps(config))

    return edit


def _long_run_on_one_sample_trace(demo):
    # a one-sample trace covers all time, so only the step bound stops this run
    (demo / "ci_trace.csv").write_text("timestamp,ci_g_per_kwh\n0,300\n")
    _set("sim", "horizon_s", 1e12)(demo)


def _llm_with_huge_tokens(demo):
    _set("sim", "mode", "llm")(demo)
    _set("sim", "tokens_per_request", 10**400)(demo)


def _huge_workload_layer(demo):
    (demo / "workload.csv").write_text("n,c,k,r,s,p,q,elem_bytes\n1,100000,100000,100000,100000,100,100,1\n")


def _huge_exec_table_batch(demo):
    path = demo / "exec_table.csv"
    path.write_text(path.read_text() + f"{10**400},0,1000.0,1.0\n{10**400},1,1000.0,1.0\n")


def _append(name: str, rows: str):
    def edit(demo):
        path = demo / name
        path.write_text(path.read_text() + rows)

    return edit


def _gapped_streams_and_three_kinds(demo):
    # a queue of kinds a, b and c at t=0 chooses 3 streams, and carves it into
    # two groups (batches of 2 and 1), a stream count the table lacks
    (demo / "concurrency.csv").write_text("streams,throughput_scale,power_scale\n1,1.0,1.0\n3,2.9,1.2\n")
    (demo / "arrivals.csv").write_text("time_s,kind\n0,a\n0,b\n0,c\n")


SIMULATE = ["simulate", "--trace", "ci_trace.csv", "--arrivals", "poisson", "--policy", "adaptive"]


@pytest.mark.parametrize(
    "edit, command, reason",
    [
        (_set("sim", "step_s", 1e-300), SIMULATE, "sim.step_s: must be >= horizon_s / 1000000, got 1e-300"),
        (
            _long_run_on_one_sample_trace,
            [*SIMULATE[:4], "arrivals.csv", *SIMULATE[5:]],
            "sim.step_s: must be >= horizon_s / 1000000, got 5.0",
        ),
        (_llm_with_huge_tokens, SIMULATE, "sim: tokens_per_request: expected an integer of magnitude < 2**63"),
        (
            _set("design_space", "tsv_count", 10**400),
            ["explore", "--stacking", "3d"],
            "design_space: tsv_count: expected an integer of magnitude < 2**63",
        ),
        (_set_first("design_space", "px", 10**400), ["explore", "--appx"], "design_space: px: expected an integer"),
        (
            _set_first("design_space", "b_global", 10**400),
            ["explore", "--appx"],
            "design_space: b_global: expected an integer of magnitude < 2**63",
        ),
        (_huge_workload_layer, ["explore"], "workload.csv:2: layer MAC count 1000000000000000000000000 must be < 2**63"),
        (_huge_exec_table_batch, SIMULATE, "exec_table.csv:10: expected an integer of magnitude < 2**63"),
        (_append("exec_table.csv", "1,0,75.0,0.39\n"), SIMULATE, "exec_table.csv:10: duplicate key (1, 0)"),
        (_append("concurrency.csv", "2,1.7,1.5\n"), SIMULATE, "concurrency.csv:4: duplicate key 2"),
        (
            _append("cpu0_profile.csv", "l0,0,4.0,3.0\n"),
            ["schedule", "--ci-now", "250"],
            "cpu0_profile.csv:14: duplicate key ('l0', 0)",
        ),
        (
            _gapped_streams_and_three_kinds,
            [*SIMULATE[:4], "arrivals.csv", *SIMULATE[5:]],
            "sim.exec_table_file: stream counts must run from 1 to K with no gap, got [1, 3]",
        ),
        (
            _set("design_space", "dram_bytes_per_cycle", 1e-320),
            ["explore", "--appx"],
            "workload 'workload': cycle count overflows at layer 0",
        ),
        (
            _set("area_params", "sram_mm2_per_byte", 1e308),
            ["explore", "--appx"],
            "design_space: the largest design's area must be finite under area_params, got inf cm2",
        ),
        (
            _set("area_params", "sram_mm2_per_byte", 0),
            ["explore", "--appx", "--stacking", "3d"],
            "area_params.sram_mm2_per_byte: must be > 0, got 0.0",
        ),
        (
            _set("area_params", "sram_mm2_per_byte", 0),
            ["explore"],
            "area_params.sram_mm2_per_byte: must be > 0, got 0.0",
        ),
        # bounds that leave no design feasible, refused at load and not by the search
        *(
            (edit, command, reason)
            for edit, reason in (
                (_set("design_space", "max_area_cm2", -1), "design_space: max_area_cm2 must be > 0, got -1.0"),
                (
                    _set("policy", "accuracy_threshold_pct", -0.5),
                    "policy.accuracy_threshold_pct: must be >= 0, got -0.5",
                ),
            )
            for command in (["explore", "--appx"], ["schedule", "--ci-now", "250"], SIMULATE)
        ),
    ],
    ids=[
        "sim.step_s",
        "sim.horizon_s",
        "sim.tokens_per_request",
        "design_space.tsv_count",
        "design_space.px",
        "design_space.b_global",
        "workload_file",
        "sim.exec_table_file",
        "sim.exec_table_file.duplicate",
        "sim.concurrency_file.duplicate",
        "node_file.profile_file.duplicate",
        "sim.concurrency_file.gapped",
        "design_space.dram_bytes_per_cycle",
        "area_params.sram_mm2_per_byte",
        "area_params.sram_mm2_per_byte.zero-3d",
        "area_params.sram_mm2_per_byte.zero-planar",
        *(
            f"{key}-{verb}"
            for key in ("design_space.max_area_cm2", "policy.accuracy_threshold_pct")
            for verb in ("explore", "schedule", "simulate")
        ),
    ],
)
def test_cli_refuses_out_of_range_inputs_without_a_traceback(demo_copy, tmp_path, capsys, edit, command, reason):
    edit(demo_copy)
    verb, *flags = command
    flags = [str(demo_copy / flag) if flag.endswith(".csv") else flag for flag in flags]
    out = tmp_path / "out"
    started = time.perf_counter()
    rc = cli.main([verb, "--config", str(demo_copy / "demo.json"), *flags, "--out", str(out)])
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines()[0].startswith("error[VALIDATION]: ")
    assert reason in err.splitlines()[0]
    assert "Traceback" not in err
    if reason.startswith("sim.step_s"):
        # refused when the config loads, not after a run of 10**6 steps or more
        assert elapsed < 1.0


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("px", [4, 8, 16, 0], "design_space: PE array dimensions must be >= 1"),
        ("b_global", [16384, 65536, -5], "design_space: buffer capacities must be >= 1 byte"),
        ("clock_hz", 0, "design_space: clock_hz must be finite and > 0"),
        ("dram_bytes_per_cycle", -16, "design_space: dram_bytes_per_cycle must be finite and > 0"),
        ("tsv_count", -1, "design_space: tsv_count must be >= 0"),
    ],
)
def test_a_bad_design_space_value_fails_at_load_for_every_verb_and_seed(
    demo_copy, tmp_path, capsys, key, value, error
):
    # a two-member GA of one generation draws only some genes, so a search
    # that checks only the designs it draws passes on some seeds
    config = json.loads((demo_copy / "demo.json").read_text())
    config["design_space"][key] = value
    config["ga"] = {"population_size": 2, "generations": 1, "elitism_count": 0}
    path = demo_copy / "demo.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.errors == [error]
    assert cli.main(["schedule", "--config", str(path), "--ci-now", "250", "--out", str(tmp_path / "plan")]) == 2
    for seed in range(6):
        config["seed"] = seed
        path.write_text(json.dumps(config))
        for flags in ([], ["--appx"]):
            assert cli.main(["explore", "--config", str(path), *flags, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error[VALIDATION]: {error}", f"  - {error}"] * 13
    assert not (tmp_path / "o").exists() and not (tmp_path / "plan").exists()


def test_sim_report_holds_the_amortized_figure_at_its_key_position():
    report = SimReport(0.0, 0.0, 0, 0, 0.0, 0, 0, 0, [], [])
    keys = list(cli_io.sim_report_to_dict(report))
    assert keys == [
        "total_energy_kwh", "operational_g", "inferences_done", "deadline_misses", "mean_tps",
        "embodied_amortized_g_per_inference", "arrivals_total", "backlog_at_horizon", "max_queue_len",
        "decision_log_file",
    ]
    assert cli_io.sim_report_to_dict(report)["decision_log_file"] == "decision_log.jsonl"
    # without a figure, as for a config that gives no embodied total and lifetime
    assert cli_io.sim_report_to_dict(report)["embodied_amortized_g_per_inference"] is None
    assert cli_io.sim_report_to_dict(report, 0.002)["embodied_amortized_g_per_inference"] == 0.002


def test_cli_explore_writes_artifacts(demo_copy, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["explore", "--config", str(demo_copy / "demo.json"), "--out", str(out), "--appx"])
    assert rc == 0
    assert (out / "pareto.csv").exists()
    assert (out / "history.csv").exists()
    best = json.loads((out / "best_design.json").read_text())
    assert best["meta"]["command"] == "explore"
    assert best["best"]["cdp_kg_s"] > 0


def read_csv_artifact(path: Path) -> list[list[str]]:
    """The rows of a CSV artifact under its two `#` header lines, column names first."""
    return list(csv.reader(path.read_text().splitlines()[2:]))


def test_pareto_csv_quotes_a_multiplier_name_with_a_comma(demo_copy, tmp_path):
    config = json.loads((demo_copy / "demo.json").read_text())
    for mult in config["design_space"]["multipliers"]:
        mult["name"] = mult["name"].replace("apx_", "apx,")
    (demo_copy / "demo.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["explore", "--config", str(demo_copy / "demo.json"), "--out", str(out), "--appx"]) == 0
    columns, *rows = read_csv_artifact(out / "pareto.csv")
    assert len(columns) == 9 and rows
    assert all(len(row) == 9 for row in rows)
    assert "apx,m2" in {row[columns.index("multiplier")] for row in rows}


def test_history_csv_leaves_best_and_mean_empty_without_a_feasible_member(demo_copy, tmp_path):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["seed"] = 31
    config["ga"].update(population_size=2, elitism_count=1)
    config["design_space"]["max_area_cm2"] = 0.042306001
    (demo_copy / "demo.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["explore", "--config", str(demo_copy / "demo.json"), "--out", str(out), "--appx"]) == 0
    columns, *rows = read_csv_artifact(out / "history.csv")
    assert columns == ["generation", "best", "mean"]
    assert rows[:3] == [["1", "", ""], ["2", "", ""], ["3", "", ""]]
    assert all(float(best) <= float(mean) for _, best, mean in rows[3:])


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


@pytest.mark.parametrize("ci_now, threshold_w", [(100.0, 20.0), (300.0, 14.0), (500.0, 8.0)])
def test_cli_schedule_threshold_follows_ci_now(demo_copy, tmp_path, ci_now, threshold_w):
    # the demo policy maps ci 100..500 g/kWh onto 20..8 W
    out = tmp_path / "plan"
    rc = cli.main(
        ["schedule", "--config", str(demo_copy / "demo.json"), "--ci-now", str(ci_now), "--out", str(out)]
    )
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["power_threshold_w"] == pytest.approx(threshold_w, rel=1e-12)
    assert plan["system"]["power_w"] <= threshold_w


def add_second_family(demo: Path) -> None:
    """Add a copy of the demo's model family, with b_-prefixed variant names."""
    variants = json.loads((demo / "variants.json").read_text())
    second = json.loads(json.dumps(variants[0]))
    second["model"] = "second_family"
    for v in second["variants"]:
        v["name"] = "b_" + v["name"]
    (demo / "variants.json").write_text(json.dumps(variants + [second]))


def test_cli_schedule_two_models_jointly_mapped(demo_copy, tmp_path):
    add_second_family(demo_copy)
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


def test_cli_schedule_downgrades_a_model_that_misses_the_constraint_in_the_joint_plan(demo_copy, tmp_path):
    # at 10 ms both heavy variants meet the constraint alone, but not mapped together
    add_second_family(demo_copy)
    config = json.loads((demo_copy / "demo.json").read_text())
    config["policy"]["latency_constraint_ms"] = 10.0
    (demo_copy / "demo.json").write_text(json.dumps(config))
    out = tmp_path / "plan"
    rc = cli.main(["schedule", "--config", str(demo_copy / "demo.json"), "--ci-now", "250", "--out", str(out)])
    assert rc == 0
    plan = json.loads((out / "plan.json").read_text())
    assert [(m["variant"], m["constraint_violated"]) for m in plan["models"]] == [
        ("resnet_heavy", False),
        ("b_resnet_light", False),
    ]


def test_cli_schedule_maps_the_demo_with_one_search(demo_copy, tmp_path, monkeypatch):
    calls = []
    search = edc_scheduler.search_mapping

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    # every module that holds the function under its own name
    for module in (edc_scheduler, cli):
        if hasattr(module, "search_mapping"):
            monkeypatch.setattr(module, "search_mapping", counting)
    out = tmp_path / "o"
    rc = cli.main(["schedule", "--config", str(demo_copy / "demo.json"), "--ci-now", "250", "--out", str(out)])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "output_bytes, reason",
    [
        (-(10**12), "layer 'l0': output_bytes must be in [0, 2**63)"),
        # the loader refuses any integer of magnitude 2**63 or more before VariantLayer sees it
        (10**400, "layers: output_bytes: expected an integer of magnitude < 2**63"),
    ],
    ids=["negative", "huge"],
)
def test_cli_schedule_refuses_output_bytes_out_of_range(demo_copy, tmp_path, capsys, output_bytes, reason):
    doc = json.loads((demo_copy / "variants.json").read_text())
    for variant in doc[0]["variants"]:
        for layer in variant["layers"]:
            layer["output_bytes"] = output_bytes
    (demo_copy / "variants.json").write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = cli.main(["schedule", "--config", str(demo_copy / "demo.json"), "--ci-now", "250", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error[VALIDATION]: variants_file: {reason}")
    assert "Traceback" not in err
    assert not (out / "plan.json").exists()


def test_cli_schedule_infeasible_exit_code(demo_copy, tmp_path, capsys):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["policy"]["p_min_w"] = 0.01
    config["policy"]["p_max_w"] = 0.02
    path = demo_copy / "broken.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["schedule", "--config", str(path), "--ci-now", "250", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[INFEASIBLE]: ")


@pytest.mark.parametrize("ci_now", ["inf", "-inf", "nan", "-5"])
def test_cli_schedule_rejects_a_non_finite_or_negative_ci_now(demo_copy, tmp_path, capsys, ci_now):
    out = tmp_path / "o"
    rc = cli.main(
        ["schedule", "--config", str(demo_copy / "demo.json"), f"--ci-now={ci_now}", "--out", str(out)]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error[VALIDATION]: --ci-now")
    assert not (out / "plan.json").exists()


def write_scheduler_config(folder: Path, workloads, node, **policy) -> Path:
    """Config, node and one single-variant set per workload, as the loaders read them."""
    units = []
    for unit in node.units:
        rows = ["layer,freq_index,latency_ms,power_w"] + [
            f"{lid},{f},{latency!r},{power!r}" for (lid, f), (latency, power) in unit.profile.items()
        ]
        (folder / f"{unit.id}.csv").write_text("\n".join(rows) + "\n")
        units.append(
            {
                "id": unit.id,
                "kind": unit.kind.name,
                "freq_levels_hz": list(unit.freq_levels_hz),
                "idle_power_w": unit.idle_power_w,
                "profile_file": f"{unit.id}.csv",
            }
        )
    (folder / "node.json").write_text(
        json.dumps({"transfer_bytes_per_ms": node.transfer_bytes_per_ms, "units": units})
    )
    sets = [
        {
            "model": w.name,
            "variants": [
                {
                    "name": w.name,
                    "accuracy": w.accuracy,
                    "layers": [{"id": layer.id, "output_bytes": layer.output_bytes} for layer in w.layers],
                }
            ],
        }
        for w in workloads
    ]
    (folder / "variants.json").write_text(json.dumps(sets))
    path = folder / "config.json"
    path.write_text(
        json.dumps(
            {"seed": 0, "node_file": "node.json", "variants_file": "variants.json", "policy": policy}
        )
    )
    return path


@pytest.mark.parametrize("reverse_units", [False, True], ids=["node_order", "reversed"])
def test_cli_schedule_constraint_flag_describes_the_joint_plan(tmp_path, reverse_units):
    # m0's plan on its own takes 4.891 ms per stage, under the 5.149 ms
    # constraint; mapped jointly with m1 it takes 5.407 ms. Reversed, the
    # units are listed against their id order, so a plan.json that names a
    # unit by its index, or by another unit's id, fails the checks below.
    rng = random.Random(1)
    workloads, node = random_scheduler_instance(rng, n_layers=3, n_units=3, n_freqs=2)
    if reverse_units:
        node = dataclasses.replace(node, units=node.units[::-1])
    threshold = rng.uniform(5, 25)
    constraint_ms = 5.149
    # at ci_now = ci_min the threshold is exactly p_max_w
    path = write_scheduler_config(
        tmp_path, workloads, node,
        p_min_w=1.0, p_max_w=threshold, ci_min=0.0, ci_max=1.0,
        latency_constraint_ms=constraint_ms,
    )
    out = tmp_path / "plan"
    assert cli.main(["schedule", "--config", str(path), "--ci-now", "0", "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["power_threshold_w"] == threshold
    index = {unit.id: u for u, unit in enumerate(node.units)}
    plans = [
        tuple((seg["start"], seg["end"], index[seg["unit"]], seg["freq_idx"]) for seg in entry["segments"])
        for entry in plan["models"]
    ]
    flags = {}
    for entry, variant, written in zip(plan["models"], workloads, plans):
        bottleneck = plan_bottleneck_ms(written, variant, node)
        assert entry["constraint_violated"] == (bottleneck > constraint_ms)
        flags[entry["model"]] = entry["constraint_violated"]
    assert flags == {"m0": True, "m1": False}
    assert system_estimate(list(zip(workloads, plans)), node).power_w == plan["system"]["power_w"]


def test_cli_schedule_refuses_a_search_with_too_many_cut_patterns(tmp_path, capsys):
    # 60 layers in at most 8 segments can be cut in 391,702,712 ways
    layer_ids = tuple(f"l{i}" for i in range(60))
    node = EdgeNode(units=(make_unit("cpu0", "CPU", layer_ids, n_freqs=1),), transfer_bytes_per_ms=1e5)
    path = write_scheduler_config(
        tmp_path, [make_variant("deep", layer_ids)], node,
        p_min_w=1.0, p_max_w=50.0, ci_min=0.0, ci_max=1.0, latency_constraint_ms=1e6,
    )
    config = json.loads(path.read_text())
    config["search"] = {"max_segments": 8}
    path.write_text(json.dumps(config))
    out = tmp_path / "plan"
    assert cli.main(["schedule", "--config", str(path), "--ci-now", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error[VALIDATION]: variant 'deep': 60 layers at max_segments=8")
    assert not (out / "plan.json").exists()


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


def test_step_sample_fields_follow_the_timeseries_columns():
    # timeseries_rows writes each sample by position, so field i is column i
    assert list(zip(StepSample._fields, cli_io.TIMESERIES_COLUMNS, strict=True)) == [
        ("t_s", "time"),
        ("ci", "ci"),
        ("threshold_w", "power_threshold"),
        ("power_w", "power"),
        ("energy_kwh", "energy"),
        ("cumulative_g", "cumulative_g"),
    ]
    sample = StepSample(1.5, 250.0, 9.0, 4.0, 1e-6, 0.25)
    report = SimReport(0.0, 0.0, 0, 0, 0.0, 0, 0, 0, decision_log=[], steps=[sample])
    assert cli_io.timeseries_rows(report) == [[1.5, 250.0, 9.0, 4.0, 1e-6, 0.25]]


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


PLAN = {"meta": {"command": "schedule"}, "power_threshold_w": 9.0, "system": {"power_w": 8.0, "ipw": 2.5}}


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        json.dumps({**PLAN, "meta": 5}),
        json.dumps({**PLAN, "power_threshold_w": float("nan")}),
        json.dumps({**PLAN, "power_threshold_w": "9"}),
        json.dumps({**PLAN, "power_threshold_w": True}),
        json.dumps(PLAN).replace("9.0", "1e400"),
        json.dumps({**PLAN, "meta": {"command": ["schedule"]}}),
        json.dumps({**PLAN, "meta": {"command": "\ud800"}}),
    ],
    ids=["list", "meta-number", "nan", "text-metric", "bool-metric", "overflow", "list-command", "surrogate"],
)
def test_cli_report_refuses_a_malformed_artifact(tmp_path, capsys, text):
    (tmp_path / "plan.json").write_text(text)
    rc = cli.main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error[VALIDATION]: ")
    assert not (tmp_path / "o").exists()


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


def test_cli_simulate_header_only_arrivals_is_an_empty_run(demo_copy, tmp_path):
    arrivals = demo_copy / "empty.csv"
    arrivals.write_text("time_s,kind\n")
    rc = cli.main(
        [
            "simulate", "--config", str(demo_copy / "demo.json"),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", str(arrivals), "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "o" / "sim_report.json").read_text())
    assert report["arrivals_total"] == 0
    assert report["inferences_done"] == 0


def test_cli_simulate_negative_arrival_time_is_validation(demo_copy, tmp_path, capsys):
    arrivals = demo_copy / "negative.csv"
    arrivals.write_text("time_s,kind\n-5,a\n1,a\n2,b\n")
    rc = cli.main(
        [
            "simulate", "--config", str(demo_copy / "demo.json"),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", str(arrivals), "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error[VALIDATION]: ")
    assert not (tmp_path / "o").exists()


def test_cli_simulate_over_the_poisson_cap_is_validation(demo_copy, tmp_path, capsys):
    # 10^6 req/s over the demo's 7,200 s horizon: ~7*10^9 arrivals
    rc = cli.main(
        [
            "simulate", "--config", str(demo_copy / "demo.json"),
            "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", "poisson:1e6", "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0].startswith("error[VALIDATION]: ")


@pytest.mark.parametrize(
    "field, value",
    [("beam_width", 0), ("beam_width", -1), ("max_segments", 0), ("candidate_cap", 0), ("local_search_moves", -1)],
)
def test_cli_schedule_rejects_search_params_that_break_the_search(demo_copy, tmp_path, capsys, field, value):
    config = json.loads((demo_copy / "demo.json").read_text())
    config["search"][field] = value
    path = demo_copy / "search.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["schedule", "--config", str(path), "--ci-now", "250", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error[VALIDATION]: ")
    assert any(line.startswith(f"  - search: {field} must be >= ") for line in err)


@pytest.mark.parametrize("cap", [edc_scheduler.MAX_CANDIDATE_CAP + 1, 10_000_000])
def test_cli_schedule_refuses_a_candidate_cap_above_the_bound_at_load(demo_copy, tmp_path, capsys, cap):
    # a 10^7 cap would make each search draw up to 10^8 candidate plans
    config = json.loads((demo_copy / "demo.json").read_text())
    config["search"]["candidate_cap"] = cap
    path = demo_copy / "search.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    start = time.perf_counter()
    rc = cli.main(["schedule", "--config", str(path), "--ci-now", "250", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error[VALIDATION]: ")
    assert f"  - search: candidate_cap must be <= {edc_scheduler.MAX_CANDIDATE_CAP}" in err
    assert not (out / "plan.json").exists()


def test_search_params_accept_the_largest_candidate_cap():
    assert edc_scheduler.SearchParams(candidate_cap=edc_scheduler.MAX_CANDIDATE_CAP).candidate_cap == 10_000


@pytest.mark.parametrize("beam", [edc_scheduler.MAX_BEAM_WIDTH + 1, 10_000])
def test_cli_schedule_refuses_a_beam_width_above_the_bound_at_load(demo_copy, tmp_path, capsys, beam):
    # with two variant sets at a 10^4 candidate cap, a 10^4 beam would rank 10^8 extensions
    config = json.loads((demo_copy / "demo.json").read_text())
    config["search"]["beam_width"] = beam
    path = demo_copy / "search.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    rc = cli.main(["schedule", "--config", str(path), "--ci-now", "250", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error[VALIDATION]: ")
    assert f"  - search: beam_width must be <= {edc_scheduler.MAX_BEAM_WIDTH}" in err
    assert not (out / "plan.json").exists()


def test_search_params_bound_the_beam_width():
    assert edc_scheduler.SearchParams(beam_width=edc_scheduler.MAX_BEAM_WIDTH).beam_width == 1_024
    with pytest.raises(ValidationFailure, match=r"^beam_width must be <= 1024$"):
        edc_scheduler.SearchParams(beam_width=edc_scheduler.MAX_BEAM_WIDTH + 1)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_emit_report_refuses_non_finite_json(tmp_path, bad):
    bundle = ResultBundle(meta=RunMeta(command="x", config_hash="dead", seed=0))
    bundle.json_artifacts["a.json"] = {"nested": {"values": [1.0, bad]}}
    with pytest.raises(ValidationFailure, match="a.json"):
        emit_report(bundle, tmp_path / "o")
    assert not (tmp_path / "o" / "a.json").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_emit_report_refuses_non_finite_csv(tmp_path, bad):
    bundle = ResultBundle(meta=RunMeta(command="x", config_hash="dead", seed=0))
    bundle.csv_artifacts["a.csv"] = (["x", "y"], [[1, 2.0], [3, bad]])
    with pytest.raises(ValidationFailure, match="a.csv"):
        emit_report(bundle, tmp_path / "o")
    assert not (tmp_path / "o" / "a.csv").exists()


def test_cli_trace_exhausted_is_validation(demo_copy, tmp_path, capsys):
    short_trace = tmp_path / "short_trace.csv"
    short_trace.write_text("timestamp,ci_g_per_kwh\n0,100\n10,200\n")
    # the run fails after the decision log is opened: it leaves no file and
    # no directory it made, however deep
    for out in (tmp_path / "o", tmp_path / "o" / "deeper" / "still"):
        rc = cli.main(
            [
                "simulate", "--config", str(demo_copy / "demo.json"),
                "--trace", str(short_trace),
                "--arrivals", "poisson", "--policy", "adaptive", "--out", str(out),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[VALIDATION]: ")
        assert not (tmp_path / "o").exists()


def test_cli_simulate_failing_in_an_existing_out_keeps_what_was_there(demo_copy, tmp_path, capsys):
    # mapping mode without a node fails inside the run
    config = json.loads((demo_copy / "demo.json").read_text())
    del config["node_file"]
    config["sim"]["mode"] = "mapping"
    path = demo_copy / "no_node.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    out.mkdir()
    earlier = {"notes.txt": "kept", "decision_log.jsonl": '{"t_s":0.0,"kind":"adapt"}\n'}
    for name, text in earlier.items():
        (out / name).write_text(text)
    rc = cli.main(
        [
            "simulate", "--config", str(path), "--trace", str(demo_copy / "ci_trace.csv"),
            "--arrivals", "poisson", "--out", str(out),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[VALIDATION]: mapping mode needs a node")
    assert {p.name: p.read_text() for p in out.iterdir()} == earlier


def test_cli_simulate_out_that_cannot_be_created_fails_before_the_run(demo_copy, tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    # this trace would fail the run as exhausted (exit 2): the out directory
    # is checked first
    short_trace = tmp_path / "short_trace.csv"
    short_trace.write_text("timestamp,ci_g_per_kwh\n0,100\n10,200\n")
    for out in (blocker, blocker / "o"):
        rc = cli.main(
            [
                "simulate", "--config", str(demo_copy / "demo.json"), "--trace", str(short_trace),
                "--arrivals", "poisson", "--out", str(out),
            ]
        )
        assert rc == 4
        assert capsys.readouterr().err.startswith(f"error[IO]: cannot create {out}: ")
    assert blocker.read_text() == "a file, not a directory"


def test_decision_log_writes_one_compact_line_per_event(tmp_path):
    with cli_io.decision_log(tmp_path / "o") as emit:
        emit(LogEvent(0.0, "adapt", {"threshold_w": 15.5, "ci": 250.0, "cause": "initial"}))
        emit(LogEvent(1.25, "dispatch", {"batches": [2, 1], "misses": 0, "arrivals": [0.1, 1e-07]}))
    assert {p.name: p.read_text() for p in (tmp_path / "o").iterdir()} == {
        "decision_log.jsonl": (
            '{"t_s":0.0,"kind":"adapt","threshold_w":15.5,"ci":250.0,"cause":"initial"}\n'
            '{"t_s":1.25,"kind":"dispatch","batches":[2,1],"misses":0,"arrivals":[0.1,1e-07]}\n'
        )
    }


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_decision_log_refuses_non_finite_and_removes_what_it_made(tmp_path, bad):
    with pytest.raises(ValidationFailure, match="decision_log.jsonl would hold a non-finite number"):
        with cli_io.decision_log(tmp_path / "o" / "sim") as emit:
            emit(LogEvent(0.0, "adapt", {"threshold_w": 15.5, "ci": 250.0, "cause": "initial"}))
            emit(LogEvent(1.0, "idle", {"idle_s": 1.0, "energy_j": bad, "ci": 250.0}))
    assert not (tmp_path / "o").exists()
