"""Configuration schema, trace/profile ingestion and artifact serialization.

One JSON config file drives every subcommand; traces, profiles and lookup
tables are CSV so they stay diff-able and trivially scriptable. Validation
collects every problem it finds before failing, so a broken config reports
all of its errors at once.

All artifacts carry a header with the config hash, seed and tool version;
the only nondeterministic output is the generated_at timestamp, which sits
on its own header line so reruns diff clean apart from it.

File formats
------------
- CI trace CSV: header ``timestamp,ci_g_per_kwh``; timestamps are integer
  seconds or ISO-8601; they are rebased to start at zero and held
  step-wise until the next sample.
- Arrival trace CSV: header ``time_s,kind``.
- Workload CSV: header ``n,c,k,r,s,p,q,elem_bytes``, one convolution layer
  per row.
- Unit profile CSV: header ``layer,freq_index,latency_ms,power_w``.
- Exec table CSV: header ``batch,freq_index,latency_ms,energy_j``;
  concurrency CSV: header ``streams,throughput_scale,power_scale``.
- Node, model-variant and LLM-variant descriptions are small JSON files.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .accelerator_model import AreaParams, ConvLayer, Dataflow, DnnWorkload, MultiplierVariant
from .carbon_model import PackageKind, TechnologyParams
from .design_explorer import DesignSpace, GaParams
from .edc_scheduler import (
    EdgeNode,
    ModelVariant,
    ModelVariantSet,
    ProcessingUnit,
    SearchParams,
    UnitKind,
    VariantLayer,
)
from .errors import IoFailure, ValidationFailure
from .runtime_sim import (
    CiTrace,
    ExecLookupTable,
    LlmVariant,
    SimReport,
    TraceArrivals,
    validate_llm_variant_order,
)


class ParseError(ValidationFailure):
    """Malformed structured-text input; message names file, line and field."""


class NonMonotonicTimestamps(ParseError):
    pass


class NegativeCi(ParseError):
    pass


class ConfigError(ValidationFailure):
    """Carries the full list of validation problems found in a config."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        summary = errors[0] if errors else "invalid config"
        if len(errors) > 1:
            summary += f" (+{len(errors) - 1} more)"
        super().__init__(summary)


@dataclass(frozen=True)
class PolicyParams:
    accuracy_threshold_pct: float = 2.0
    hysteresis_fraction: float = 0.10
    p_min_w: float = 1.0
    p_max_w: float = 10.0
    ci_min: float = 0.0
    ci_max: float = 1.0
    tps_floor: float | None = None
    accuracy_floor: float = 0.0
    latency_constraint_ms: float = 100.0


@dataclass(frozen=True)
class SimSettings:
    mode: str = "batch"
    horizon_s: float = 600.0
    step_s: float = 1.0
    deadline_ms: float = 100.0
    idle_power_w: float = 0.0
    tokens_per_request: int = 128
    arrival_rate_per_s: float = 1.0
    lifetime_inferences: float | None = None
    embodied_total_kg: float | None = None
    exec_table: ExecLookupTable | None = None
    llm_variants: tuple[LlmVariant, ...] | None = None


@dataclass
class ToolkitConfig:
    path: Path
    raw: dict
    config_hash: str
    seed: int
    technology: dict[str, TechnologyParams]
    area_params: AreaParams | None
    design_space: DesignSpace | None
    ga_params: GaParams
    workload: DnnWorkload | None
    node: EdgeNode | None
    variant_sets: list[ModelVariantSet]
    policy: PolicyParams
    sim: SimSettings
    search: SearchParams


@dataclass(frozen=True)
class RunMeta:
    command: str
    config_hash: str
    seed: int
    version: str = __version__


@dataclass
class ResultBundle:
    meta: RunMeta
    csv_artifacts: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)
    json_artifacts: dict[str, dict] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CSV / JSON primitives
# ---------------------------------------------------------------------------


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _read_csv(path: Path, required_columns: list[str]) -> list[dict[str, str]]:
    text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != required_columns:
        raise ParseError(
            f"{path}: expected header {','.join(required_columns)!r}, got {reader.fieldnames}"
        )
    return list(reader)


def _parse_timestamp(value: str, path: Path, line: int) -> float:
    value = value.strip()
    try:
        return float(value)
    except ValueError:
        pass
    try:
        return datetime.datetime.fromisoformat(value.replace("Z", "+00:00")).timestamp()
    except ValueError as exc:
        raise ParseError(f"{path}:{line}: bad timestamp {value!r}") from exc


def load_ci_trace(path: str | Path) -> CiTrace:
    """Load a carbon-intensity forecast; step-hold semantics, times rebased to 0."""
    path = Path(path)
    rows = _read_csv(path, ["timestamp", "ci_g_per_kwh"])
    if not rows:
        raise ParseError(f"{path}: trace has no samples")
    samples: list[tuple[float, float]] = []
    for i, row in enumerate(rows, start=2):
        ts = _parse_timestamp(row["timestamp"], path, i)
        try:
            ci = float(row["ci_g_per_kwh"])
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: bad ci value {row['ci_g_per_kwh']!r}") from exc
        if ci < 0:
            raise NegativeCi(f"{path}:{i}: negative carbon intensity {ci}")
        if samples and ts <= samples[-1][0]:
            raise NonMonotonicTimestamps(f"{path}:{i}: timestamp {ts} not after previous")
        samples.append((ts, ci))
    base = samples[0][0]
    rebased = tuple((ts - base, ci) for ts, ci in samples)
    if len(rebased) >= 2:
        mean_step = rebased[-1][0] / (len(rebased) - 1)
        horizon = rebased[-1][0] + mean_step
    else:
        horizon = math.inf
    return CiTrace(samples=rebased, horizon_s=horizon)


def load_arrivals(path: str | Path) -> TraceArrivals:
    path = Path(path)
    rows = _read_csv(path, ["time_s", "kind"])
    events = []
    for i, row in enumerate(rows, start=2):
        try:
            t = float(row["time_s"])
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: bad time {row['time_s']!r}") from exc
        events.append((t, row["kind"].strip() or "default"))
    return TraceArrivals(events=tuple(events))


def load_workload(path: str | Path) -> DnnWorkload:
    path = Path(path)
    rows = _read_csv(path, ["n", "c", "k", "r", "s", "p", "q", "elem_bytes"])
    layers = []
    for i, row in enumerate(rows, start=2):
        try:
            layers.append(ConvLayer(**{key: int(row[key]) for key in row}))
        except (ValueError, ValidationFailure) as exc:
            raise ParseError(f"{path}:{i}: bad layer: {exc}") from exc
    if not layers:
        raise ParseError(f"{path}: workload has no layers")
    return DnnWorkload(name=path.stem, layers=tuple(layers))


def _load_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def load_unit_profile(path: str | Path) -> dict[tuple[str, int], tuple[float, float]]:
    path = Path(path)
    rows = _read_csv(path, ["layer", "freq_index", "latency_ms", "power_w"])
    profile: dict[tuple[str, int], tuple[float, float]] = {}
    for i, row in enumerate(rows, start=2):
        try:
            key = (row["layer"].strip(), int(row["freq_index"]))
            profile[key] = (float(row["latency_ms"]), float(row["power_w"]))
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: bad profile row: {exc}") from exc
    return profile


def load_node(path: str | Path) -> EdgeNode:
    path = Path(path)
    doc = _load_json(path)
    units = []
    for spec in doc.get("units", []):
        profile = load_unit_profile(path.parent / spec["profile_file"])
        units.append(
            ProcessingUnit(
                id=spec["id"],
                kind=UnitKind(spec["kind"]),
                freq_levels_hz=tuple(float(f) for f in spec["freq_levels_hz"]),
                idle_power_w=float(spec["idle_power_w"]),
                profile=profile,
            )
        )
    return EdgeNode(
        units=tuple(units),
        transfer_bytes_per_ms=float(doc["transfer_bytes_per_ms"]),
    )


def load_variant_sets(path: str | Path) -> list[ModelVariantSet]:
    path = Path(path)
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = [doc]
    sets = []
    for entry in doc:
        variants = tuple(
            ModelVariant(
                name=v["name"],
                accuracy=float(v["accuracy"]),
                layers=tuple(
                    VariantLayer(id=layer["id"], output_bytes=int(layer["output_bytes"]))
                    for layer in v["layers"]
                ),
            )
            for v in entry["variants"]
        )
        sets.append(ModelVariantSet(name=entry["model"], variants=variants))
    return sets


def load_exec_table(entries_path: str | Path, concurrency_path: str | Path | None = None) -> ExecLookupTable:
    entries_path = Path(entries_path)
    rows = _read_csv(entries_path, ["batch", "freq_index", "latency_ms", "energy_j"])
    entries: dict[tuple[int, int], tuple[float, float]] = {}
    for i, row in enumerate(rows, start=2):
        try:
            entries[(int(row["batch"]), int(row["freq_index"]))] = (
                float(row["latency_ms"]),
                float(row["energy_j"]),
            )
        except ValueError as exc:
            raise ParseError(f"{entries_path}:{i}: bad table row: {exc}") from exc
    concurrency = None
    if concurrency_path is not None:
        concurrency_path = Path(concurrency_path)
        crows = _read_csv(concurrency_path, ["streams", "throughput_scale", "power_scale"])
        concurrency = {}
        for i, row in enumerate(crows, start=2):
            try:
                concurrency[int(row["streams"])] = (
                    float(row["throughput_scale"]),
                    float(row["power_scale"]),
                )
            except ValueError as exc:
                raise ParseError(f"{concurrency_path}:{i}: bad concurrency row: {exc}") from exc
    return ExecLookupTable(entries=entries, concurrency=concurrency)


def load_llm_variants(path: str | Path) -> tuple[LlmVariant, ...]:
    path = Path(path)
    doc = _load_json(path)
    variants = tuple(
        LlmVariant(
            name=v["name"],
            precision=v["precision"],
            quality_score=float(v["quality_score"]),
            tokens_per_s=tuple(float(x) for x in v["tokens_per_s"]),
            power_w=tuple(float(x) for x in v["power_w"]),
        )
        for v in doc
    )
    validate_llm_variant_order(variants)
    return variants


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

_DATAFLOW_BY_NAME = {d.value: d for d in Dataflow}
_STACKING_BY_NAME = {k.value: k for k in PackageKind}


def config_hash_of(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def load_config(path: str | Path) -> ToolkitConfig:
    """Parse and fully validate a toolkit config, collecting every error."""
    path = Path(path)
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    errors: list[str] = []
    base = path.parent

    def fail(msg: str) -> None:
        errors.append(msg)

    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        fail("seed: must be an integer")
        seed = 0

    technology: dict[str, TechnologyParams] = {}
    for label, spec in raw.get("technology", {}).items():
        try:
            technology[label] = TechnologyParams(
                node_label=label,
                cfpa_kg_per_cm2=float(spec["cfpa_kg_per_cm2"]),
                cfpa_si_kg_per_cm2=float(spec["cfpa_si_kg_per_cm2"]),
                wafer_diameter_cm=float(spec["wafer_diameter_cm"]),
                packaging_kg=float(spec["packaging_kg"]),
                bonding_kg_per_cm2=float(spec.get("bonding_kg_per_cm2", 0.0)),
                tsv_kg_per_via=float(spec.get("tsv_kg_per_via", 0.0)),
            )
        except (KeyError, TypeError, ValueError, ValidationFailure) as exc:
            fail(f"technology.{label}: {exc}")

    area_params = None
    if "area_params" in raw:
        try:
            spec = raw["area_params"]
            area_params = AreaParams(
                sram_mm2_per_byte=float(spec["sram_mm2_per_byte"]),
                fixed_overhead_mm2=float(spec["fixed_overhead_mm2"]),
                mac_adder_mm2=float(spec["mac_adder_mm2"]),
            )
        except (KeyError, TypeError, ValueError, ValidationFailure) as exc:
            fail(f"area_params: {exc}")

    design_space = None
    if "design_space" in raw:
        spec = raw["design_space"]
        try:
            tech_node = spec["tech_node"]
            if tech_node not in technology:
                raise KeyError(f"tech_node {tech_node!r} not in technology table")
            if area_params is None:
                raise KeyError("design_space requires area_params")
            multipliers = tuple(
                MultiplierVariant(
                    name=m["name"],
                    area_mm2=float(m["area_mm2"]),
                    accuracy_drop_pct=float(m["accuracy_drop_pct"]),
                )
                for m in spec["multipliers"]
            )
            design_space = DesignSpace(
                px_values=tuple(int(v) for v in spec["px"]),
                py_values=tuple(int(v) for v in spec["py"]),
                b_local_values=tuple(int(v) for v in spec["b_local"]),
                b_global_values=tuple(int(v) for v in spec["b_global"]),
                dataflows=tuple(_DATAFLOW_BY_NAME[d] for d in spec["dataflows"]),
                multipliers=multipliers,
                tech=technology[tech_node],
                area_params=area_params,
                stacking=_STACKING_BY_NAME[spec.get("stacking", "planar2D")],
                clock_hz=float(spec.get("clock_hz", 1e9)),
                dram_bytes_per_cycle=float(spec.get("dram_bytes_per_cycle", 16)),
                tsv_count=int(spec.get("tsv_count", 0)),
                accuracy_threshold_pct=float(
                    spec.get(
                        "accuracy_threshold_pct",
                        raw.get("policy", {}).get("accuracy_threshold_pct", 2.0),
                    )
                ),
                max_area_cm2=spec.get("max_area_cm2"),
            )
        except (KeyError, TypeError, ValueError, ValidationFailure) as exc:
            fail(f"design_space: {exc}")

    try:
        ga_spec = raw.get("ga", {})
        ga_params = GaParams(
            population_size=int(ga_spec.get("population_size", 64)),
            generations=int(ga_spec.get("generations", 50)),
            tournament_k=int(ga_spec.get("tournament_k", 3)),
            crossover_rate=float(ga_spec.get("crossover_rate", 0.9)),
            mutation_rate=float(ga_spec.get("mutation_rate", 0.1)),
            elitism_count=int(ga_spec.get("elitism_count", 2)),
            rng_seed=seed,
        )
    except (TypeError, ValueError, ValidationFailure) as exc:
        fail(f"ga: {exc}")
        ga_params = GaParams(rng_seed=seed)

    workload = None
    if "workload_file" in raw:
        wpath = base / raw["workload_file"]
        if not wpath.exists():
            fail(f"workload_file: {wpath} does not exist")
        else:
            try:
                workload = load_workload(wpath)
            except ValidationFailure as exc:
                fail(f"workload_file: {exc}")

    node = None
    if "node_file" in raw:
        npath = base / raw["node_file"]
        if not npath.exists():
            fail(f"node_file: {npath} does not exist")
        else:
            try:
                node = load_node(npath)
            except (KeyError, TypeError, ValueError, ValidationFailure) as exc:
                fail(f"node_file: {exc}")

    variant_sets: list[ModelVariantSet] = []
    if "variants_file" in raw:
        vpath = base / raw["variants_file"]
        if not vpath.exists():
            fail(f"variants_file: {vpath} does not exist")
        else:
            try:
                variant_sets = load_variant_sets(vpath)
            except (KeyError, TypeError, ValueError, ValidationFailure) as exc:
                fail(f"variants_file: {exc}")

    policy_spec = raw.get("policy", {})
    hysteresis = policy_spec.get("hysteresis_fraction", 0.10)
    if not isinstance(hysteresis, (int, float)) or not 0.0 <= hysteresis <= 1.0:
        fail(f"policy.hysteresis_fraction: must be in [0, 1], got {hysteresis}")
        hysteresis = 0.10
    policy = PolicyParams(
        accuracy_threshold_pct=float(policy_spec.get("accuracy_threshold_pct", 2.0)),
        hysteresis_fraction=float(hysteresis),
        p_min_w=float(policy_spec.get("p_min_w", 1.0)),
        p_max_w=float(policy_spec.get("p_max_w", 10.0)),
        ci_min=float(policy_spec.get("ci_min", 0.0)),
        ci_max=float(policy_spec.get("ci_max", 1.0)),
        tps_floor=(
            float(policy_spec["tps_floor"]) if policy_spec.get("tps_floor") is not None else None
        ),
        accuracy_floor=float(policy_spec.get("accuracy_floor", 0.0)),
        latency_constraint_ms=float(policy_spec.get("latency_constraint_ms", 100.0)),
    )
    if policy.p_min_w > policy.p_max_w:
        fail("policy: p_min_w must be <= p_max_w")

    sim_spec = raw.get("sim", {})
    exec_table = None
    if "exec_table_file" in sim_spec:
        tpath = base / sim_spec["exec_table_file"]
        cpath = base / sim_spec["concurrency_file"] if "concurrency_file" in sim_spec else None
        if not tpath.exists():
            fail(f"sim.exec_table_file: {tpath} does not exist")
        elif cpath is not None and not cpath.exists():
            fail(f"sim.concurrency_file: {cpath} does not exist")
        else:
            try:
                exec_table = load_exec_table(tpath, cpath)
            except ValidationFailure as exc:
                fail(f"sim.exec_table_file: {exc}")
    llm_variants = None
    if "llm_variants_file" in sim_spec:
        lpath = base / sim_spec["llm_variants_file"]
        if not lpath.exists():
            fail(f"sim.llm_variants_file: {lpath} does not exist")
        else:
            try:
                llm_variants = load_llm_variants(lpath)
            except (KeyError, TypeError, ValueError, ValidationFailure) as exc:
                fail(f"sim.llm_variants_file: {exc}")
    try:
        sim = SimSettings(
            mode=sim_spec.get("mode", "batch"),
            horizon_s=float(sim_spec.get("horizon_s", 600.0)),
            step_s=float(sim_spec.get("step_s", 1.0)),
            deadline_ms=float(sim_spec.get("deadline_ms", 100.0)),
            idle_power_w=float(sim_spec.get("idle_power_w", 0.0)),
            tokens_per_request=int(sim_spec.get("tokens_per_request", 128)),
            arrival_rate_per_s=float(sim_spec.get("arrival_rate_per_s", 1.0)),
            lifetime_inferences=(
                float(sim_spec["lifetime_inferences"])
                if sim_spec.get("lifetime_inferences") is not None
                else None
            ),
            embodied_total_kg=(
                float(sim_spec["embodied_total_kg"])
                if sim_spec.get("embodied_total_kg") is not None
                else None
            ),
            exec_table=exec_table,
            llm_variants=llm_variants,
        )
    except (TypeError, ValueError) as exc:
        fail(f"sim: {exc}")
        sim = SimSettings()
    if sim.mode not in ("batch", "llm", "mapping"):
        fail(f"sim.mode: unknown mode {sim.mode!r}")

    search_spec = raw.get("search", {})
    try:
        search = SearchParams(
            beam_width=int(search_spec.get("beam_width", 8)),
            local_search_moves=int(search_spec.get("local_search_moves", 200)),
            max_segments=int(search_spec.get("max_segments", 4)),
            candidate_cap=int(search_spec.get("candidate_cap", 256)),
            rng_seed=seed,
        )
    except (TypeError, ValueError) as exc:
        fail(f"search: {exc}")
        search = SearchParams(rng_seed=seed)

    if errors:
        raise ConfigError(errors)
    return ToolkitConfig(
        path=path,
        raw=raw,
        config_hash=config_hash_of(raw),
        seed=seed,
        technology=technology,
        area_params=area_params,
        design_space=design_space,
        ga_params=ga_params,
        workload=workload,
        node=node,
        variant_sets=variant_sets,
        policy=policy,
        sim=sim,
        search=search,
    )


def save_config(config: ToolkitConfig, path: str | Path) -> Path:
    """Write a loaded config back out; loading the result reproduces the
    config field for field (relative file references resolve against the
    target directory, so save next to the original inputs)."""
    path = Path(path)
    try:
        path.write_text(json.dumps(config.raw, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def sim_report_to_dict(report: SimReport) -> dict:
    return {
        "total_energy_kwh": report.total_energy_kwh,
        "operational_g": report.operational_g,
        "inferences_done": report.inferences_done,
        "deadline_misses": report.deadline_misses,
        "mean_tps": report.mean_tps,
        "embodied_amortized_g_per_inference": report.embodied_amortized_g_per_inference,
        "decision_log": [
            {"t_s": ev.t_s, "kind": ev.kind, **ev.detail} for ev in report.decision_log
        ],
    }


def timeseries_rows(report: SimReport) -> list[list]:
    return [
        [s.t_s, s.ci, s.threshold_w, s.power_w, s.energy_kwh, s.cumulative_g]
        for s in report.steps
    ]


TIMESERIES_COLUMNS = ["time", "ci", "power_threshold", "power", "energy", "cumulative_g"]


def emit_report(bundle: ResultBundle, out_dir: str | Path) -> list[Path]:
    """Write every artifact in the bundle; returns the paths written.

    File names are fixed per artifact. Numbers are written with Python's
    shortest round-trip float formatting so reruns are byte-stable.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc
    meta = bundle.meta
    header = (
        f"# edcarb {meta.version} command={meta.command} "
        f"config_hash={meta.config_hash} seed={meta.seed}"
    )
    stamp = f"# generated_at={_timestamp()}"
    written: list[Path] = []
    try:
        for name, (columns, rows) in bundle.csv_artifacts.items():
            target = out / name
            lines = [header, stamp, ",".join(columns)]
            for row in rows:
                lines.append(",".join(_format_cell(cell) for cell in row))
            target.write_text("\n".join(lines) + "\n")
            written.append(target)
        for name, payload in bundle.json_artifacts.items():
            target = out / name
            doc = {
                "meta": {
                    "tool": "edcarb",
                    "version": meta.version,
                    "command": meta.command,
                    "config_hash": meta.config_hash,
                    "seed": meta.seed,
                    "generated_at": _timestamp(),
                },
                **payload,
            }
            target.write_text(json.dumps(doc, indent=2) + "\n")
            written.append(target)
    except OSError as exc:
        raise IoFailure(f"cannot write artifacts under {out}: {exc}") from exc
    return written


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)
