"""Configuration schema, trace/profile ingestion and artifact serialization.

One JSON config file drives every subcommand; traces, profiles and lookup
tables are CSV so they stay diff-able and trivially scriptable. Validation
collects every problem it finds before failing, so a broken config reports
all of its errors at once.

Every config section (``technology`` entries, ``area_params``,
``design_space``, ``ga``, ``policy``, ``sim``, ``search``) must be a JSON
object. Its scalar keys are read under the names of the dataclass fields
they fill, and an absent key takes that field's default: the defaults live
on ``GaParams``, ``SearchParams``, ``PolicyParams`` and ``SimSettings``, not
here. Numbers, in the config and in every CSV and JSON input, must be
finite: ``nan`` and ``inf`` are rejected where they are read.

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
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.hysteresis_fraction <= 1.0:
            raise ValidationFailure(
                f"policy.hysteresis_fraction: must be in [0, 1], got {self.hysteresis_fraction}"
            )
        if self.p_min_w > self.p_max_w:
            raise ValidationFailure(
                f"policy.p_min_w: must be <= p_max_w, got {self.p_min_w} > {self.p_max_w}"
            )


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

    def __post_init__(self) -> None:
        if self.mode not in ("batch", "llm", "mapping"):
            raise ValidationFailure(f"sim.mode: unknown mode {self.mode!r}")
        lifetime, embodied = self.lifetime_inferences, self.embodied_total_kg
        if lifetime is not None and not (math.isfinite(lifetime) and lifetime > 0):
            raise ValidationFailure(f"sim.lifetime_inferences: must be a finite number > 0, got {lifetime}")
        if embodied is not None and not (math.isfinite(embodied) and embodied >= 0):
            raise ValidationFailure(f"sim.embodied_total_kg: must be a finite number >= 0, got {embodied}")


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

# What a malformed value raises while it is parsed: wrong JSON type, bad
# text, an int out of range (int(inf)), or a violated dataclass check.
_VALUE_ERRORS = (TypeError, ValueError, OverflowError, ValidationFailure)


def _finite(value) -> float:
    """The loaders' one float coercion: a number or numeric text, finite."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _integer(value) -> int:
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"must be a JSON object, got {type(value).__name__}")
    return value


# Coercion per declared field type, as the string a postponed annotation is.
_SCALAR_COERCIONS = {
    "float": _finite,
    "int": _integer,
    "str": _text,
    "float | None": lambda value: None if value is None else _finite(value),
    "PackageKind": PackageKind,
    "UnitKind": UnitKind,
}


@cache
def _scalar_fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, coercion, required) of each field of `cls` with a scalar type."""
    return tuple(
        (f.name, _SCALAR_COERCIONS[f.type], f.default is MISSING)
        for f in fields(cls)
        if f.type in _SCALAR_COERCIONS
    )


def _from_spec(cls, spec, **given):
    """Build a dataclass from one JSON object.

    Each scalar field not in `given` is read under its own name and coerced
    to its declared type; an absent key keeps the dataclass's own default.
    Keys that name no scalar field are ignored.
    """
    _object(spec)
    for name, coerce, required in _scalar_fields(cls):
        if name in given:
            continue
        if name in spec:
            try:
                given[name] = coerce(spec[name])
            except _VALUE_ERRORS as exc:
                raise ValueError(f"{name}: {exc}") from exc
        elif required:
            raise ValueError(f"missing key {name!r}")
    return cls(**given)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _parse_csv(path: Path, columns: list[str], parse_row) -> list:
    """Parse every row of a CSV with a fixed header; a bad row fails as
    ``file:line: reason``, keeping the type of a ParseError it raised.

    Blank and ``#`` comment lines are skipped, but ``line`` is the row's
    physical line in the file, counting them.
    """
    numbered = [
        (n, ln) for n, ln in enumerate(_read_text(path).splitlines(), start=1) if ln and not ln.startswith("#")
    ]
    reader = csv.DictReader((ln for _, ln in numbered), restval="")
    if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != columns:
        raise ParseError(f"{path}: expected header {','.join(columns)!r}, got {reader.fieldnames}")
    parsed = []
    for row in reader:
        try:
            parsed.append(parse_row(row))
        except _VALUE_ERRORS as exc:
            kind = type(exc) if isinstance(exc, ParseError) else ParseError
            line = numbered[reader.line_num - 1][0]
            raise kind(f"{path}:{line}: {exc}") from exc
    return parsed


def _parse_timestamp(value: str) -> float:
    """Seconds as a finite number, or an ISO-8601 time."""
    try:
        return _finite(value)
    except ValueError:
        return datetime.datetime.fromisoformat(value.strip().replace("Z", "+00:00")).timestamp()


def _ci_sample(row: dict[str, str]) -> tuple[float, float]:
    ts = _parse_timestamp(row["timestamp"])
    ci = _finite(row["ci_g_per_kwh"])
    if ci < 0:
        raise NegativeCi(f"negative carbon intensity {ci}")
    return ts, ci


def load_ci_trace(path: str | Path) -> CiTrace:
    """Load a carbon-intensity forecast; step-hold semantics, times rebased to 0."""
    path = Path(path)
    previous = -math.inf

    def sample(row: dict[str, str]) -> tuple[float, float]:
        nonlocal previous
        ts, ci = _ci_sample(row)
        if ts <= previous:
            raise NonMonotonicTimestamps(f"timestamp {ts} not after previous")
        previous = ts
        return ts, ci

    samples = _parse_csv(path, ["timestamp", "ci_g_per_kwh"], sample)
    if not samples:
        raise ParseError(f"{path}: trace has no samples")
    base = samples[0][0]
    rebased = tuple((ts - base, ci) for ts, ci in samples)
    if len(rebased) >= 2:
        mean_step = rebased[-1][0] / (len(rebased) - 1)
        horizon = rebased[-1][0] + mean_step
    else:
        horizon = math.inf
    return CiTrace(samples=rebased, horizon_s=horizon)


def load_arrivals(path: str | Path) -> TraceArrivals:
    events = _parse_csv(
        Path(path),
        ["time_s", "kind"],
        lambda row: (_finite(row["time_s"]), row["kind"].strip() or "default"),
    )
    return TraceArrivals(events=tuple(events))


def load_workload(path: str | Path) -> DnnWorkload:
    path = Path(path)
    layers = _parse_csv(
        path,
        ["n", "c", "k", "r", "s", "p", "q", "elem_bytes"],
        lambda row: ConvLayer(**{key: int(value) for key, value in row.items()}),
    )
    if not layers:
        raise ParseError(f"{path}: workload has no layers")
    return DnnWorkload(name=path.stem, layers=tuple(layers))


def _load_json(path: Path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
        raise ParseError(f"{path}: {exc}") from exc


def _float_table(path: str | Path, columns: list[str], key) -> dict:
    """A CSV table mapping key(row) to the floats in its last two columns."""
    a, b = columns[-2:]
    return dict(_parse_csv(Path(path), columns, lambda row: (key(row), (_finite(row[a]), _finite(row[b])))))


def load_unit_profile(path: str | Path) -> dict[tuple[str, int], tuple[float, float]]:
    return _float_table(
        path,
        ["layer", "freq_index", "latency_ms", "power_w"],
        lambda row: (row["layer"].strip(), int(row["freq_index"])),
    )


def load_node(path: str | Path) -> EdgeNode:
    path = Path(path)
    doc = _object(_load_json(path))
    units = tuple(
        _from_spec(
            ProcessingUnit,
            spec,
            freq_levels_hz=tuple(map(_finite, spec["freq_levels_hz"])),
            profile=load_unit_profile(path.parent / spec["profile_file"]),
        )
        for spec in doc.get("units", [])
    )
    return _from_spec(EdgeNode, doc, units=units)


def load_variant_sets(path: str | Path) -> list[ModelVariantSet]:
    path = Path(path)
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = [doc]
    sets = []
    for entry in doc:
        variants = tuple(
            _from_spec(ModelVariant, v, layers=tuple(_from_spec(VariantLayer, layer) for layer in v["layers"]))
            for v in entry["variants"]
        )
        sets.append(ModelVariantSet(name=entry["model"], variants=variants))
    return sets


def load_exec_table(entries_path: str | Path, concurrency_path: str | Path | None = None) -> ExecLookupTable:
    entries = _float_table(
        entries_path,
        ["batch", "freq_index", "latency_ms", "energy_j"],
        lambda row: (int(row["batch"]), int(row["freq_index"])),
    )
    concurrency = None
    if concurrency_path is not None:
        concurrency = _float_table(
            concurrency_path,
            ["streams", "throughput_scale", "power_scale"],
            lambda row: int(row["streams"]),
        )
    return ExecLookupTable(entries=entries, concurrency=concurrency)


def load_llm_variants(path: str | Path) -> tuple[LlmVariant, ...]:
    path = Path(path)
    doc = _load_json(path)
    variants = tuple(
        LlmVariant(
            name=v["name"],
            precision=v["precision"],
            quality_score=_finite(v["quality_score"]),
            tokens_per_s=tuple(_finite(x) for x in v["tokens_per_s"]),
            power_w=tuple(_finite(x) for x in v["power_w"]),
        )
        for v in doc
    )
    validate_llm_variant_order(variants)
    return variants


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

# What a config section's parse may raise besides _VALUE_ERRORS: a missing
# key, or an OSError from a file name the file system rejects (too long).
_SECTION_ERRORS = (KeyError, OSError) + _VALUE_ERRORS


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

    def parse(where: str, build, *args, **kwargs):
        """Run one guarded parse; a failure gives None and is recorded as
        ``where: reason``, or as the reason alone if it names ``where.<field>``."""
        try:
            return build(*args, **kwargs)
        except _SECTION_ERRORS as exc:
            reason = str(exc)
            errors.append(reason if reason.startswith(f"{where}.") else f"{where}: {reason}")
            return None

    def referenced(where: str, rel, loader):
        """Load a file named relative to the config; None if the key is absent or null."""

        def load():
            target = path.parent / _text(rel)
            if not target.exists():
                raise ValueError(f"{target} does not exist")
            return loader(target)

        return None if rel is None else parse(where, load)

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append("seed: must be an integer")
        seed = 0

    technology = {
        label: parse(f"technology.{label}", _from_spec, TechnologyParams, spec, node_label=label)
        for label, spec in (parse("technology", _object, raw.get("technology", {})) or {}).items()
    }

    area_params = parse("area_params", _from_spec, AreaParams, raw["area_params"]) if "area_params" in raw else None

    policy = parse("policy", _from_spec, PolicyParams, raw.get("policy", {}))

    def build_space(spec: dict) -> DesignSpace:
        tech_node = _object(spec)["tech_node"]
        if tech_node not in technology:
            raise ValueError(f"tech_node {tech_node!r} not in technology table")
        if area_params is None:
            raise ValueError("design_space requires area_params")
        if policy is not None:
            spec = {"accuracy_threshold_pct": policy.accuracy_threshold_pct, **spec}
        return _from_spec(
            DesignSpace,
            spec,
            **{f"{gene}_values": tuple(map(_integer, spec[gene])) for gene in ("px", "py", "b_local", "b_global")},
            dataflows=tuple(map(Dataflow, spec["dataflows"])),
            multipliers=tuple(_from_spec(MultiplierVariant, m) for m in spec["multipliers"]),
            tech=technology[tech_node],
            area_params=area_params,
        )

    design_space = parse("design_space", build_space, raw["design_space"]) if "design_space" in raw else None

    ga_params = parse("ga", _from_spec, GaParams, raw.get("ga", {}), rng_seed=seed)
    workload = referenced("workload_file", raw.get("workload_file"), load_workload)
    node = referenced("node_file", raw.get("node_file"), load_node)
    variant_sets = referenced("variants_file", raw.get("variants_file"), load_variant_sets) or []

    def build_sim(spec: dict) -> SimSettings:
        exec_table = None
        if "exec_table_file" in _object(spec):
            concurrency = referenced("sim.concurrency_file", spec.get("concurrency_file"), Path)
            exec_table = referenced(
                "sim.exec_table_file",
                spec["exec_table_file"],
                lambda target: load_exec_table(target, concurrency),
            )
        llm_variants = referenced("sim.llm_variants_file", spec.get("llm_variants_file"), load_llm_variants)
        return _from_spec(SimSettings, spec, exec_table=exec_table, llm_variants=llm_variants)

    sim = parse("sim", build_sim, raw.get("sim", {}))
    search = parse("search", _from_spec, SearchParams, raw.get("search", {}), rng_seed=seed)

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
