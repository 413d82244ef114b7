"""Config loading, trace ingestion, artifact emission and CLI behavior."""

import csv
import dataclasses
import json
import operator
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from edcarb import cli, cli_io, edc_scheduler
from edcarb.edc_scheduler import EdgeNode, system_estimate
from edcarb.errors import ValidationFailure
from edcarb.runtime_sim import Adapt, BatchDispatch, Idle, LlmSelect, SimConfig, SimReport, StepSample
from edcarb.cli_io import (
    ConfigError,
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


# ---------------------------------------------------------------------------
# load_config
# ---------------------------------------------------------------------------


def test_minimal_config_loads_with_defaults(tmp_path):
    _config({"seed": 5})(tmp_path)
    config = load_config(tmp_path / "demo.json")
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


DELETE = object()


def _set(*path, file="demo.json"):
    """An edit of a demo copy: the key at `path[:-1]` of `file` takes the value
    `path[-1]`, or is deleted if that is DELETE."""
    *parents, key, value = path

    def edit(demo):
        doc = json.loads((demo / file).read_text())
        target = doc
        for step in parents:
            target = target[step]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        (demo / file).write_text(json.dumps(doc))

    return edit


def _write(name: str, text: str):
    def edit(demo):
        (demo / name).write_text(text)

    return edit


def _append(name: str, rows: str):
    def edit(demo):
        path = demo / name
        path.write_text(path.read_text() + rows)

    return edit


def _config(payload: dict):
    """An edit that replaces the demo config with `payload`, which may omit every section."""
    return _write("demo.json", json.dumps(payload))


def _edits(*edits):
    def edit(demo):
        for each in edits:
            each(demo)

    return edit


# the loader's reason for a null number is CPython's, whose wording differs between versions
try:
    float(None)
except TypeError as exc:
    FLOAT_OF_NULL = str(exc)


def refused(id: str, edit, *errors: str):
    """A load_config table row: after `edit`, the demo config fails with
    exactly `errors`, in which `{demo}` stands for the demo copy."""
    return pytest.param(edit, list(errors), id=id)


@pytest.mark.parametrize(
    "edit, errors",
    [
        refused("policy.hysteresis_fraction", _config({"policy": {"hysteresis_fraction": 1.5}}),
                "policy.hysteresis_fraction: must be in [0, 1], got 1.5"),
        # a reversed or empty range would map every intensity to p_max_w
        *(
            refused(f"policy.ci_min.{case}", _config({"policy": {"ci_min": ci_min, "ci_max": ci_max}}),
                    f"policy.ci_min: must be < ci_max, got {ci_min} >= {ci_max}")
            for case, ci_min, ci_max in (("reversed", 500.0, 100.0), ("empty", 300.0, 300.0))
        ),
        *(
            refused(f"policy.{key}.{value}", _config({"policy": {key: value}}),
                    f"policy.{key}: must be > 0, got {value}")
            for key in ("p_min_w", "latency_constraint_ms")
            for value in (-5.0, 0.0)
        ),
        # an integral float loads as an int: test_an_integer_key_loads_an_integral_float_as_an_int
        refused("search.beam_width.fraction", _set("search", "beam_width", 1.5),
                "search: beam_width: expected an integer, got 1.5"),
        refused("design_space.px.fraction", _set("design_space", "px", [4, 8.7]),
                "design_space: px: expected an integer, got 8.7"),
        refused("ga.population_size.fraction", _set("ga", "population_size", 2.9),
                "ga: population_size: expected an integer, got 2.9"),
        refused("px.not_a_list", _set("design_space", "px", 5), "design_space: px: expected a list, got 5"),
        refused("dataflows", _set("design_space", "dataflows", ["bogus"]),
                "design_space: dataflows: 'bogus' is not a valid Dataflow"),
        refused("multipliers.not_a_list", _set("design_space", "multipliers", 5),
                "design_space: multipliers: expected a list, got 5"),
        refused("freq_levels_hz", _set("units", 0, "freq_levels_hz", [1e9, "x"], file="node.json"),
                "node_file: freq_levels_hz: could not convert string to float: 'x'"),
        refused("freq_levels_hz.not_a_list", _set("units", 0, "freq_levels_hz", 1e9, file="node.json"),
                "node_file: freq_levels_hz: expected a list, got 1000000000.0"),
        refused("units.not_a_list", _set("units", 5, file="node.json"), "node_file: units: expected a list, got 5"),
        refused("tokens_per_s", _set(0, "tokens_per_s", [20.0, "x"], file="llm_variants.json"),
                "sim.llm_variants_file: tokens_per_s: could not convert string to float: 'x'"),
        refused("power_w.not_a_list", _set(0, "power_w", 12.0, file="llm_variants.json"),
                "sim.llm_variants_file: power_w: expected a list, got 12.0"),
        refused("llm_variants.name", _set(0, "name", 5, file="llm_variants.json"),
                "sim.llm_variants_file: name: expected a string, got 5"),
        refused("llm_variants_file.not_a_list", _write("llm_variants.json", "5"),
                "sim.llm_variants_file: expected a list, got 5"),
        refused("layers.not_a_list", _set(0, "variants", 0, "layers", 5, file="variants.json"),
                "variants_file: layers: expected a list, got 5"),
        refused("variants.not_a_list", _set(0, "variants", 5, file="variants.json"),
                "variants_file: variants: expected a list, got 5"),
        refused("model.missing", _set(0, "model", DELETE, file="variants.json"), "variants_file: missing key 'model'"),
        refused("layers.missing", _set(0, "variants", 0, "layers", DELETE, file="variants.json"),
                "variants_file: missing key 'layers'"),
        refused("variants.model", _set(0, "model", {"a": 1}, file="variants.json"),
                "variants_file: model: expected a string, got {'a': 1}"),
        refused("variants_file.not_a_list", _write("variants.json", "5"), "variants_file: expected a list, got 5"),
        refused("workload_file.missing", _config({"workload_file": "missing.csv"}),
                "workload_file: {demo}/missing.csv does not exist"),
        # every problem is listed, not only the first
        refused("three_sections",
                _config({"policy": {"hysteresis_fraction": 2.0}, "workload_file": "a.csv", "node_file": "b.json"}),
                "workload_file: {demo}/a.csv does not exist",
                "node_file: {demo}/b.json does not exist",
                "policy.hysteresis_fraction: must be in [0, 1], got 2.0"),
        # the top-level seed is the one seed of a run, and artifact headers record it
        *(
            refused(id, _config({"seed": 3, **payload}), f"{key}: set by the loader, not by the config")
            for id, payload, key in (
                ("search.rng_seed", {"search": {"rng_seed": 5}}, "search: rng_seed"),
                ("ga.rng_seed", {"ga": {"rng_seed": 7}}, "ga: rng_seed"),
                ("technology.node_label", {"technology": {"7nm": dataclasses.asdict(make_tech(node_label="5nm"))}},
                 "technology.7nm: node_label"),
                # the explorer's accuracy threshold comes from policy
                ("design_space.accuracy_threshold_pct",
                 {
                     "technology": DEMO_CONFIG["technology"],
                     "area_params": DEMO_CONFIG["area_params"],
                     "design_space": {**DEMO_CONFIG["design_space"], "accuracy_threshold_pct": 0.5},
                 },
                 "design_space: accuracy_threshold_pct"),
            )
        ),
        *(
            refused(f"sim.{key}.{value}", _config({"sim": {key: value}}), error)
            for key, value, error in (
                ("lifetime_inferences", 0, "sim.lifetime_inferences: must be a finite number > 0, got 0.0"),
                ("lifetime_inferences", -5, "sim.lifetime_inferences: must be a finite number > 0, got -5.0"),
                ("lifetime_inferences", float("nan"), "sim: lifetime_inferences: expected a finite number, got nan"),
                ("embodied_total_kg", -1.0, "sim.embodied_total_kg: must be a finite number >= 0, got -1.0"),
                # each is valid alone, but the amortization needs both
                ("lifetime_inferences", 5.0, "sim.embodied_total_kg and sim.lifetime_inferences: give both or neither"),
                ("embodied_total_kg", 5.0, "sim.embodied_total_kg and sim.lifetime_inferences: give both or neither"),
            )
        ),
        # each failed run setting is its own error, under the key of the section that sets it
        refused("sim.step_s+sim.deadline_ms+policy.p_min_w",
                _edits(_set("sim", "step_s", 0), _set("sim", "deadline_ms", 0), _set("policy", "p_min_w", 0)),
                "sim.step_s: must be finite and > 0, got 0.0",
                "sim.deadline_ms: must be finite and > 0, got 0.0",
                "policy.p_min_w: must be > 0, got 0.0"),
        # a failed section is checked at its defaults, and its own run settings are not listed
        refused("sim.arrival_rate_per_s+policy.hysteresis_fraction",
                _edits(_set("sim", "arrival_rate_per_s", "fast"), _set("policy", "hysteresis_fraction", 1.5)),
                "sim: arrival_rate_per_s: could not convert string to float: 'fast'",
                "policy.hysteresis_fraction: must be in [0, 1], got 1.5"),
        refused("policy.latency_constraint_ms+sim.step_s",
                _edits(_set("sim", "step_s", 0), _set("policy", "latency_constraint_ms", 0)),
                "policy.latency_constraint_ms: must be > 0, got 0.0",
                "sim.step_s: must be finite and > 0, got 0.0"),
        refused("policy.tps_floor.llm", _edits(_set("sim", "mode", "llm"), _set("policy", "tps_floor", DELETE)),
                "policy.tps_floor: must be finite and > 0 in llm mode, got 0.0"),
        # null is a non-number like any other, in every mode
        refused("policy.tps_floor.null", _set("policy", "tps_floor", None),
                f"policy: tps_floor: {FLOAT_OF_NULL}"),
    ],
)
def test_load_config_lists_what_it_refuses(demo_copy, edit, errors):
    edit(demo_copy)
    with pytest.raises(ConfigError) as info:
        load_config(demo_copy / "demo.json")
    assert info.value.errors == [error.replace("{demo}", str(demo_copy)) for error in errors]


@pytest.mark.parametrize(
    "section, key, integral, field",
    [
        ("search", "beam_width", 2.0, "search.beam_width"),
        ("design_space", "px", [4, 8.0], "design_space.px_values"),
        ("ga", "population_size", 24.0, "ga_params.population_size"),
    ],
    ids=["search.beam_width", "design_space.px", "ga.population_size"],
)
def test_an_integer_key_loads_an_integral_float_as_an_int(demo_copy, section, key, integral, field):
    # a fraction is refused: see the .fraction rows of test_load_config_lists_what_it_refuses
    _set(section, key, integral)(demo_copy)
    expected = tuple(map(int, integral)) if isinstance(integral, list) else int(integral)
    assert repr(operator.attrgetter(field)(load_config(demo_copy / "demo.json"))) == repr(expected)


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


def test_config_round_trip_is_identity(demo_copy):
    original = load_config(demo_copy / "demo.json")
    reloaded = load_config(demo_copy / "demo.json")
    for field in dataclasses.fields(ToolkitConfig):
        assert getattr(reloaded, field.name) == getattr(original, field.name), field.name


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


@pytest.mark.parametrize("tz", ["UTC", "EST5EDT,M3.2.0,M11.1.0"])
def test_trace_iso_timestamps_without_offset_are_utc_in_any_time_zone(tmp_path, tz):
    # New York's clocks skip 02:00-03:00 on 2024-03-10, so read as local
    # time these samples would be 3600 s and 7200 s apart, not 7200 s
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp,ci_g_per_kwh\n2024-03-10T01:00:00,100\n2024-03-10T03:00:00,200\n2024-03-10T04:00:00,300\n"
    )
    script = "import sys; from edcarb.cli_io import load_ci_trace; t = load_ci_trace(sys.argv[1]); print(t)"
    src = Path(cli_io.__file__).resolve().parent.parent
    env = {**os.environ, "TZ": tz, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, check=True, capture_output=True, text=True
    ).stdout
    expected = cli_io.CiTrace(samples=((0.0, 100.0), (7200.0, 200.0), (10800.0, 300.0)), horizon_s=16200.0)
    assert out == f"{expected}\n"


def test_trace_duplicate_timestamp_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,100\n0,200\n")
    with pytest.raises(ValidationFailure, match=r"trace\.csv:3: timestamp 0\.0 not after previous"):
        load_ci_trace(path)


def test_csv_row_error_names_the_physical_line(tmp_path):
    # the comment and blank lines before the bad row still count
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n# comment\n0,100\n\n30,nan\n")
    with pytest.raises(ValidationFailure, match=r"trace\.csv:5: "):
        load_ci_trace(path)


def test_trace_non_monotonic_names_the_physical_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# forecast\ntimestamp,ci_g_per_kwh\n0,100\n# comment\n60,200\n\n60,300\n")
    with pytest.raises(ValidationFailure, match=r"trace\.csv:7: timestamp 60\.0 not after previous"):
        load_ci_trace(path)


def test_trace_negative_ci_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,-5\n")
    with pytest.raises(ValidationFailure, match=r"trace\.csv:2: negative carbon intensity -5\.0"):
        load_ci_trace(path)


def test_trace_bad_header_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,ci\n0,100\n")
    with pytest.raises(ValidationFailure, match=r"trace\.csv: expected header 'timestamp,ci_g_per_kwh', got"):
        load_ci_trace(path)


def test_load_arrivals(tmp_path):
    path = tmp_path / "arrivals.csv"
    path.write_text("time_s,kind\n0.5,default\n1.5,vision\n")
    arrivals = load_arrivals(path)
    assert (arrivals.times, arrivals.kinds) == ((0.5, 1.5), ("default", "vision"))
    path.write_text("time_s,kind\n")
    arrivals = load_arrivals(path)
    assert (arrivals.times, arrivals.kinds) == ((), ())


def test_single_sample_trace_covers_everything(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,ci_g_per_kwh\n0,150\n")
    trace = load_ci_trace(path)
    assert trace.horizon_s == float("inf")
    assert trace.ci_at(1e9) == 150.0


@pytest.mark.parametrize(
    "data, match",
    [
        (b"{\"seed\": " + b"9" * 5000 + b"}", r"config\.json: Exceeds the limit \(4300"),
        (b"[" * 100_000 + b"]" * 100_000, r"config\.json: maximum recursion depth exceeded"),
        (b"\xff{}", r"cannot decode .*config\.json: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["long-integer", "deep-nesting", "not-utf8"],
)
def test_unreadable_json_is_parse_error(tmp_path, data, match):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    with pytest.raises(ValidationFailure, match=match):
        load_config(path)


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValidationFailure, match=r"config\.json: config must be a JSON object"):
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


def test_each_sim_config_field_is_set_by_one_config_section():
    # build_sim_config copies each field from the section whose type has a field of its name
    sections = [{f.name for f in dataclasses.fields(cls)} for cls in (cli_io.SimSettings, cli_io.PolicyParams)]
    for f in dataclasses.fields(SimConfig):
        if f.name != "policy":
            assert sum(f.name in names for names in sections) == 1, f.name
    assert not any("policy" in names for names in sections)


def _output_bytes(value):
    def edit(demo):
        doc = json.loads((demo / "variants.json").read_text())
        for variant in doc[0]["variants"]:
            for layer in variant["layers"]:
                layer["output_bytes"] = value
        (demo / "variants.json").write_text(json.dumps(doc))

    return edit


def _sixty_layers_at_eight_segments(demo):
    # 60 layers in at most 8 segments can be cut in 391,702,712 ways
    layer_ids = tuple(f"l{i}" for i in range(60))
    node = EdgeNode(units=(make_unit("cpu0", "CPU", layer_ids, n_freqs=1),), transfer_bytes_per_ms=1e5)
    path = write_scheduler_config(
        demo, [make_variant("deep", layer_ids)], node,
        p_min_w=1.0, p_max_w=50.0, ci_min=0.0, ci_max=1.0, latency_constraint_ms=1e6,
    )
    (demo / "demo.json").write_text(json.dumps({**json.loads(path.read_text()), "search": {"max_segments": 8}}))


def _simulate(arrivals="poisson", trace="{demo}/ci_trace.csv"):
    return ["simulate", "--trace", trace, "--arrivals", arrivals, "--policy", "adaptive"]


SIMULATE = _simulate()
SCHEDULE = ["schedule", "--ci-now", "250"]
PLAN = {"meta": {"command": "schedule"}, "power_threshold_w": 9.0, "system": {"power_w": 8.0, "ipw": 2.5}}
LABELS = {2: "VALIDATION", 3: "INFEASIBLE", 4: "IO"}


def refusal(id: str, edit, command: list[str], reason: str, code: int = 2, quick: bool = False):
    """A CLI table row: after `edit`, `command` exits with `code` and prints
    the one line `error[LABEL]: reason`; `{demo}` stands for the demo copy.
    A `quick` refusal comes before a long run, so it takes under a second."""
    return pytest.param(edit, command, code, reason, [], quick, id=id)


def config_refusal(id: str, edit, command: list[str], *errors: str, quick: bool = False):
    """A CLI table row for a config the loader refuses: the first line names
    the first error and counts the others, and each error is listed."""
    reason = errors[0] + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else "")
    return pytest.param(edit, command, 2, reason, list(errors), quick, id=id)


UNCHANGED = _edits()


@pytest.mark.parametrize(
    "edit, command, code, reason, listed, quick",
    [
        # refused when the config loads, not after a run of 10**6 steps or more
        config_refusal("sim.step_s", _set("sim", "step_s", 1e-300), SIMULATE,
                       "sim.step_s: must be >= horizon_s / 1000000, got 1e-300", quick=True),
        # a one-sample trace covers all time, so only the step bound stops this run
        config_refusal("sim.horizon_s",
                       _edits(_write("ci_trace.csv", "timestamp,ci_g_per_kwh\n0,300\n"),
                              _set("sim", "horizon_s", 1e12)),
                       _simulate("{demo}/arrivals.csv"), "sim.step_s: must be >= horizon_s / 1000000, got 5.0",
                       quick=True),
        # every verb loads the sim section, and its problems are listed with the others
        *(
            config_refusal(f"ga.population_size+sim.step_s-{command[0]}",
                           _edits(_set("sim", "step_s", 0), _set("ga", "population_size", 1)), command,
                           "ga: population_size must be >= 2", "sim.step_s: must be finite and > 0, got 0.0")
            for command in (["explore"], SCHEDULE, SIMULATE)
        ),
        config_refusal("sim.tokens_per_request",
                       _edits(_set("sim", "mode", "llm"), _set("sim", "tokens_per_request", 10**400)), SIMULATE,
                       "sim: tokens_per_request: expected an integer of magnitude < 2**63"),
        *(
            config_refusal(f"design_space.{path[0]}", _set("design_space", *path), command,
                           f"design_space: {path[0]}: expected an integer of magnitude < 2**63")
            for path, command in (
                (("tsv_count", 10**400), ["explore", "--stacking", "3d"]),
                (("px", 0, 10**400), ["explore", "--appx"]),
                (("b_global", 0, 10**400), ["explore", "--appx"]),
            )
        ),
        config_refusal("workload_file",
                       _write("workload.csv", "n,c,k,r,s,p,q,elem_bytes\n1,100000,100000,100000,100000,100,100,1\n"),
                       ["explore"], "workload_file: {demo}/workload.csv:2: layer MAC count 1000000000000000000000000 "
                       "must be < 2**63"),
        config_refusal("sim.exec_table_file",
                       _append("exec_table.csv", f"{10**400},0,1000.0,1.0\n{10**400},1,1000.0,1.0\n"), SIMULATE,
                       "sim.exec_table_file: {demo}/exec_table.csv:10: expected an integer of magnitude < 2**63"),
        config_refusal("sim.exec_table_file.duplicate", _append("exec_table.csv", "1,0,75.0,0.39\n"), SIMULATE,
                       "sim.exec_table_file: {demo}/exec_table.csv:10: duplicate key (1, 0)"),
        config_refusal("node_file.profile_file.duplicate", _append("cpu0_profile.csv", "l0,0,4.0,3.0\n"), SCHEDULE,
                       "node_file: {demo}/cpu0_profile.csv:14: duplicate key ('l0', 0)"),
        # a fault in the concurrency file, under its config key and file
        config_refusal("sim.concurrency_file.duplicate", _append("concurrency.csv", "2,1.7,1.5\n"), SIMULATE,
                       "sim.concurrency_file: {demo}/concurrency.csv:4: duplicate key 2"),
        # a queue of kinds a, b and c at t=0 would choose 3 streams and carve
        # it into two groups (batches of 2 and 1), a stream count the table lacks
        config_refusal("sim.concurrency_file.gapped",
                       _edits(_write("concurrency.csv", "streams,throughput_scale,power_scale\n1,1.0,1.0\n3,2.9,1.2\n"),
                              _write("arrivals.csv", "time_s,kind\n0,a\n0,b\n0,c\n")),
                       _simulate("{demo}/arrivals.csv"),
                       "sim.concurrency_file: {demo}/concurrency.csv: stream counts must run from 1 to K with no gap, "
                       "got [1, 3]"),
        config_refusal("sim.concurrency_file.scale",
                       _write("concurrency.csv", "streams,throughput_scale,power_scale\n1,1.0,1.0\n2,2.5,1.5\n"),
                       SIMULATE,
                       "sim.concurrency_file: {demo}/concurrency.csv: throughput scale for k=2 must be in (0, k]"),
        refusal("design_space.dram_bytes_per_cycle", _set("design_space", "dram_bytes_per_cycle", 1e-320),
                ["explore", "--appx"],
                "workload 'workload': cycle count overflows at layer 0: cannot convert float infinity to integer"),
        config_refusal("area_params.sram_mm2_per_byte", _set("area_params", "sram_mm2_per_byte", 1e308),
                       ["explore", "--appx"],
                       "design_space: the largest design's area must be finite under area_params, got inf cm2"),
        *(
            config_refusal(f"area_params.sram_mm2_per_byte.zero-{stacking}",
                           _set("area_params", "sram_mm2_per_byte", 0), command,
                           "area_params.sram_mm2_per_byte: must be > 0, got 0.0",
                           "design_space: design_space requires area_params")
            for stacking, command in (("3d", ["explore", "--appx", "--stacking", "3d"]), ("planar", ["explore"]))
        ),
        # bounds that leave no design feasible, refused at load and not by the search
        *(
            config_refusal(f"{key}-{command[0]}", _set(section, key, value), command, error)
            for section, key, value, error in (
                ("design_space", "max_area_cm2", -1, "design_space: max_area_cm2 must be > 0, got -1.0"),
                ("policy", "accuracy_threshold_pct", -0.5, "policy.accuracy_threshold_pct: must be >= 0, got -0.5"),
            )
            for command in (["explore", "--appx"], SCHEDULE, SIMULATE)
        ),
        config_refusal("policy.hysteresis_fraction", _config({"policy": {"hysteresis_fraction": 9.0}}), ["explore"],
                       "policy.hysteresis_fraction: must be in [0, 1], got 9.0"),
        *(
            config_refusal(f"malformed.{'.'.join(path[:-1])}", _set(*path), ["explore"], *errors)
            for path, *errors in (
                (("policy", []), "policy: must be a JSON object, got list"),
                (("technology", []), "technology: must be a JSON object, got list",
                 "design_space: tech_node '7nm' not in technology table"),
                (("sim", "x"), "sim: must be a JSON object, got str"),
                (("ga", []), "ga: must be a JSON object, got list"),
                (("search", 3), "search: must be a JSON object, got int"),
                (("policy", "p_min_w", "abc"), "policy: p_min_w: could not convert string to float: 'abc'"),
                (("workload_file", 5), "workload_file: expected a string, got 5"),
                (("design_space", "max_area_cm2", "abc"),
                 "design_space: max_area_cm2: could not convert string to float: 'abc'"),
                (("ga", "population_size", float("inf")), "ga: population_size: expected an integer, got inf"),
                (("seed", True), "seed: must be an integer"),
            )
        ),
        *(
            config_refusal(f"sim.lifetime_inferences.{value}", _set("sim", "lifetime_inferences", value), SIMULATE,
                           error)
            for value, error in (
                (0, "sim.lifetime_inferences: must be a finite number > 0, got 0.0"),
                (-5, "sim.lifetime_inferences: must be a finite number > 0, got -5.0"),
                (float("nan"), "sim: lifetime_inferences: expected a finite number, got nan"),
            )
        ),
        config_refusal("variants_file.output_bytes.negative", _output_bytes(-(10**12)), SCHEDULE,
                       "variants_file: layer 'l0': output_bytes must be in [0, 2**63), got -1000000000000"),
        # the loader refuses any integer of magnitude 2**63 or more before VariantLayer sees it
        config_refusal("variants_file.output_bytes.huge", _output_bytes(10**400), SCHEDULE,
                       "variants_file: layers: output_bytes: expected an integer of magnitude < 2**63"),
        *(
            config_refusal(f"search.{key}.{value}", _set("search", key, value), SCHEDULE,
                           f"search: {key} must be {bound}")
            for key, value, bound in (
                ("beam_width", 0, ">= 1"),
                ("beam_width", -1, ">= 1"),
                ("max_segments", 0, ">= 1"),
                ("candidate_cap", 0, ">= 1"),
                ("local_search_moves", -1, ">= 0"),
                # a 10^4 beam would rank 10^8 extensions of two variant sets at a 10^4 candidate cap
                ("beam_width", edc_scheduler.MAX_BEAM_WIDTH + 1, "<= 1024"),
                ("beam_width", 10_000, "<= 1024"),
            )
        ),
        # a 10^7 cap would make each search draw up to 10^8 candidate plans
        *(
            config_refusal(f"search.candidate_cap.{cap}", _set("search", "candidate_cap", cap), SCHEDULE,
                           "search: candidate_cap must be <= 10000", quick=True)
            for cap in (edc_scheduler.MAX_CANDIDATE_CAP + 1, 10_000_000)
        ),
        refusal("search.max_segments.cut_patterns", _sixty_layers_at_eight_segments, ["schedule", "--ci-now", "0"],
                "variant 'deep': 60 layers at max_segments=8 give 391702712 cut patterns, more than 1000000",
                quick=True),
        refusal("policy.p_max_w.infeasible", _edits(_set("policy", "p_min_w", 0.01), _set("policy", "p_max_w", 0.02)),
                SCHEDULE, "no variants of ['resnet_family'] fit under 0.01625 W", code=3),
        *(
            refusal(f"--ci-now={ci_now}", UNCHANGED, ["schedule", f"--ci-now={ci_now}"],
                    f"--ci-now must be a finite number >= 0, got {float(ci_now)}")
            for ci_now in ("inf", "-inf", "nan", "-5")
        ),
        refusal("--arrivals=poisson:abc", UNCHANGED, _simulate("poisson:abc"),
                "--arrivals poisson:<rate>: 'abc' is not a number"),
        # 10^6 req/s over the demo's 7,200 s horizon: ~7*10^9 arrivals
        refusal("--arrivals=poisson:1e6", UNCHANGED, _simulate("poisson:1e6"),
                "Poisson rate 1000000.0/s over 7200.0 s expects more than 1000000 arrivals", quick=True),
        refusal("--arrivals.negative_time", _write("negative.csv", "time_s,kind\n-5,a\n1,a\n2,b\n"),
                _simulate("{demo}/negative.csv"), "arrival times must be >= 0, got -5.0"),
        refusal("--trace.nan", _write("nan.csv", "timestamp,ci_g_per_kwh\n0,100\n30,nan\n60,200\n"),
                _simulate(trace="{demo}/nan.csv"), "{demo}/nan.csv:3: expected a finite number, got 'nan'"),
        refusal("report.missing_dir", UNCHANGED, ["report", "--in", "{demo}/nope"], "{demo}/nope is not a directory",
                code=4),
        *(
            refusal(f"report.{id}", _write("plan.json", text), ["report", "--in", "{demo}"],
                    f"{{demo}}/plan.json: {reason}")
            for id, text, reason in (
                *(
                    (id, text, "an artifact must be a JSON object with an object 'meta'")
                    for id, text in (("list", "[1, 2]"), ("meta-number", json.dumps({**PLAN, "meta": 5})))
                ),
                ("nan", json.dumps({**PLAN, "power_threshold_w": float("nan")}), "expected a finite number, got 'NaN'"),
                ("text-metric", json.dumps({**PLAN, "power_threshold_w": "9"}),
                 "power_threshold_w must be a finite number, got '9'"),
                ("bool-metric", json.dumps({**PLAN, "power_threshold_w": True}),
                 "power_threshold_w must be a finite number, got True"),
                ("overflow", json.dumps(PLAN).replace("9.0", "1e400"),
                 "power_threshold_w must be a finite number, got inf"),
                ("list-command", json.dumps({**PLAN, "meta": {"command": ["schedule"]}}),
                 "meta.command must be printable text, got ['schedule']"),
                ("surrogate", json.dumps({**PLAN, "meta": {"command": "\ud800"}}),
                 "meta.command must be printable text, got '\\ud800'"),
            )
        ),
    ],
)
def test_cli_refuses_with_its_exit_code_and_reason(
    demo_copy, tmp_path, capsys, edit, command, code, reason, listed, quick
):
    edit(demo_copy)
    verb, *flags = (arg.replace("{demo}", str(demo_copy)) for arg in command)
    config = [] if verb == "report" else ["--config", str(demo_copy / "demo.json")]
    out = tmp_path / "out"
    started = time.perf_counter()
    rc = cli.main([verb, *config, *flags, "--out", str(out)])
    elapsed = time.perf_counter() - started
    # all of stderr: the labelled line, the listed errors and nothing else, so no traceback
    lines = [f"error[{LABELS[code]}]: {reason}", *(f"  - {error}" for error in listed)]
    lines = [line.replace("{demo}", str(demo_copy)) for line in lines]
    assert (rc, capsys.readouterr().err.splitlines()) == (code, lines)
    assert not out.exists()
    if quick:
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


def test_search_params_accept_the_largest_candidate_cap():
    assert edc_scheduler.SearchParams(candidate_cap=edc_scheduler.MAX_CANDIDATE_CAP).candidate_cap == 10_000


def test_search_params_bound_the_beam_width():
    assert edc_scheduler.SearchParams(beam_width=edc_scheduler.MAX_BEAM_WIDTH).beam_width == 1_024
    with pytest.raises(ValidationFailure, match=r"^beam_width must be <= 1024$"):
        edc_scheduler.SearchParams(beam_width=edc_scheduler.MAX_BEAM_WIDTH + 1)


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


def _with_bad(kind: str, field: str, bad: float) -> BatchDispatch | Idle:
    """A valid record of the shape a batch run logs most, with `bad` in one number."""
    if kind == "dispatch":
        ev = BatchDispatch(1.0, [2, 1], 2, 0, 0.1, 0.5, 5.0, 1.1, 0, [0.5, 0.75, 1.0], 250.0)
    else:
        ev = Idle(1.0, 1.0, 0.5, 250.0)
    return ev._replace(**{field: [0.5, bad] if field == "arrivals" else bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "kind, field",
    [
        *(("dispatch", field) for field in ("t_s", "duration_s", "energy_j", "power_w", "completion_s", "ci")),
        ("dispatch", "arrivals"),
        *(("idle", field) for field in ("t_s", "idle_s", "energy_j", "ci")),
    ],
)
def test_decision_log_refuses_non_finite_and_removes_what_it_made(tmp_path, kind, field, bad):
    with pytest.raises(ValidationFailure, match="decision_log.jsonl would hold a non-finite number"):
        with cli_io.decision_log(tmp_path / "o" / "sim") as emit:
            emit(Adapt(0.0, 15.5, 250.0, "initial"))
            # the same shape with finite numbers first, so their texts are kept
            emit(_with_bad(kind, "ci", 250.0))
            emit(_with_bad(kind, field, bad))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "event",
    [_with_bad("dispatch", "streams", 10**5000), LlmSelect(0.0, "q8", 10**5000, "low", False)],
    ids=["line-template", "encoder"],
)
def test_decision_log_refuses_an_int_too_long_to_write_and_says_why(tmp_path, event):
    # past sys.get_int_max_str_digits() an int has no text: that is no non-finite number
    with pytest.raises(ValidationFailure, match="integer string conversion") as failure:
        with cli_io.decision_log(tmp_path / "o") as emit:
            emit(event)
    assert "non-finite" not in str(failure.value)
    assert not (tmp_path / "o").exists()


def test_demo_simulate_sends_only_its_adapt_events_to_the_generic_encoder(tmp_path, monkeypatch):
    # a count of work, not a time: the demo's dispatch and idle events all
    # take a line template, so only its two threshold changes are encoded
    encoded = []
    encode = cli_io._encode_event
    monkeypatch.setattr(cli_io, "_encode_event", lambda doc: encoded.append(doc["kind"]) or encode(doc))
    out = tmp_path / "o"
    rc = cli.main(
        [
            "simulate", "--config", str(DEMO_DIR / "demo.json"), "--trace", str(DEMO_DIR / "ci_trace.csv"),
            "--arrivals", "poisson", "--policy", "adaptive", "--out", str(out),
        ]
    )
    assert rc == 0
    assert encoded == ["adapt", "adapt"]
    assert (out / "decision_log.jsonl").read_text().count("\n") == 22_823
