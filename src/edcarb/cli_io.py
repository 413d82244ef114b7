"""Configuration schema, trace/profile ingestion and artifact serialization.

One JSON config file drives every subcommand; traces, profiles and lookup
tables are CSV so they stay diff-able and trivially scriptable. Validation
collects every problem it finds before failing, so a broken config reports
all of its errors at once.

Every config section (``technology`` entries, ``area_params``,
``design_space``, ``ga``, ``policy``, ``sim``, ``search``) must be a JSON
object. Its keys are read under the names of the dataclass fields they
fill, coerced to each field's declared type (a list for a tuple field),
and an absent key takes that field's default: the defaults live
on ``GaParams``, ``SearchParams``, ``PolicyParams`` and ``SimSettings``, not
here. Numbers, in the config and in every CSV and JSON input, must be
finite: ``nan`` and ``inf`` are rejected where they are read.

CSV and JSON artifacts carry a header with the config hash, seed and tool
version; the only nondeterministic output is the generated_at timestamp,
which sits on its own header line so reruns diff clean apart from it. The
simulator's decision log is JSON Lines with no header: the
``sim_report.json`` that names it carries the run's.

File formats
------------
- CI trace CSV: header ``timestamp,ci_g_per_kwh``; timestamps are integer
  seconds or ISO-8601; they are rebased to start at zero and held
  step-wise until the next sample.
- Arrival trace CSV: header ``time_s,kind``; times are >= 0 and
  non-decreasing, and an empty kind is ``default``.
- Workload CSV: header ``n,c,k,r,s,p,q,elem_bytes``, one convolution layer
  per row.
- Unit profile CSV: header ``layer,freq_index,latency_ms,power_w``.
- Exec table CSV: header ``batch,freq_index,latency_ms,energy_j``;
  concurrency CSV: header ``streams,throughput_scale,power_scale``, with
  stream counts 1 to K and no gap. A key repeated in these or a unit
  profile (the columns before the last two) is refused.
- Node, model-variant and LLM-variant descriptions are small JSON files.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
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
    LogEvent,
    SimConfig,
    SimConfigError,
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
    tps_floor: float = 0.0
    accuracy_floor: float = 0.0
    latency_constraint_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.accuracy_threshold_pct < 0:
            raise ValidationFailure(
                f"policy.accuracy_threshold_pct: must be >= 0, got {self.accuracy_threshold_pct}"
            )
        if self.latency_constraint_ms <= 0:
            raise ValidationFailure(
                f"policy.latency_constraint_ms: must be > 0, got {self.latency_constraint_ms}"
            )
        if self.ci_min >= self.ci_max:
            raise ValidationFailure(
                f"policy.ci_min: must be < ci_max, got {self.ci_min} >= {self.ci_max}"
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
        lifetime, embodied = self.lifetime_inferences, self.embodied_total_kg
        if lifetime is not None and not (math.isfinite(lifetime) and lifetime > 0):
            raise ValidationFailure(f"sim.lifetime_inferences: must be a finite number > 0, got {lifetime}")
        if embodied is not None and not (math.isfinite(embodied) and embodied >= 0):
            raise ValidationFailure(f"sim.embodied_total_kg: must be a finite number >= 0, got {embodied}")
        if (lifetime is None) != (embodied is None):
            raise ValidationFailure("sim.embodied_total_kg and sim.lifetime_inferences: give both or neither")


@dataclass
class ToolkitConfig:
    config_hash: str
    seed: int
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

# What a malformed value raises while it is coerced: wrong JSON type, bad
# text, or an int out of range (int(inf)); and what a parse may also raise,
# a violated dataclass check, which names its own object.
_COERCION_ERRORS = (TypeError, ValueError, OverflowError)
_VALUE_ERRORS = _COERCION_ERRORS + (ValidationFailure,)


def _finite(value) -> float:
    """The loaders' one float coercion: a number or numeric text, finite."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _integer(value) -> int:
    """The loaders' one integer coercion: an integral number or integer
    text, of magnitude below 2**63, so that it converts to a float."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    number = int(value)
    if abs(number) >= 2**63:
        raise ValueError("expected an integer of magnitude < 2**63")
    return number


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"must be a JSON object, got {type(value).__name__}")
    return value


def _tuple_of(item):
    """The coercion of a JSON list whose elements each coerce by `item`."""

    def coerce(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(map(item, value))

    return coerce


# Coercion per declared field type, as the string a postponed annotation is.
_COERCIONS = {
    "float": _finite,
    "int": _integer,
    "str": _text,
    "float | None": lambda value: None if value is None else _finite(value),
    "PackageKind": PackageKind,
    "UnitKind": UnitKind,
    "tuple[float, ...]": _tuple_of(_finite),
    "tuple[int, ...]": _tuple_of(_integer),
    "tuple[Dataflow, ...]": _tuple_of(Dataflow),
    "tuple[MultiplierVariant, ...]": _tuple_of(lambda spec: _from_spec(MultiplierVariant, spec)),
    "tuple[VariantLayer, ...]": _tuple_of(lambda spec: _from_spec(VariantLayer, spec)),
}


@cache
def _spec_fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, coercion, required) of each field of `cls` with a type in `_COERCIONS`."""
    return tuple((f.name, _COERCIONS[f.type], f.default is MISSING) for f in fields(cls) if f.type in _COERCIONS)


def _read(spec: dict, key: str, coerce):
    """``spec[key]`` coerced; an absent key fails as ``missing key 'key'``
    and a bad value as ``key: reason``."""
    if key not in spec:
        raise ValueError(f"missing key {key!r}")
    try:
        return coerce(spec[key])
    except _COERCION_ERRORS as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _from_spec(cls, spec, **given):
    """Build a dataclass from one JSON object.

    Each field with a type in `_COERCIONS` and not in `given` is read under
    its own name and coerced to its declared type; an absent key keeps the
    dataclass's own default. Such a field in `given` is the loader's to
    set, so the spec may not name it. Keys that name no such field are
    ignored.
    """
    _object(spec)
    for name, coerce, required in _spec_fields(cls):
        if name in given:
            if name in spec:
                raise ValueError(f"{name}: set by the loader, not by the config")
        elif name in spec or required:
            given[name] = _read(spec, name, coerce)
    return cls(**given)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {path}: {exc}") from exc


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
    return TraceArrivals(tuple(t for t, _ in events), tuple(kind for _, kind in events))


def load_workload(path: str | Path) -> DnnWorkload:
    path = Path(path)
    layers = _parse_csv(
        path,
        ["n", "c", "k", "r", "s", "p", "q", "elem_bytes"],
        lambda row: ConvLayer(**{key: _integer(value) for key, value in row.items()}),
    )
    if not layers:
        raise ParseError(f"{path}: workload has no layers")
    return DnnWorkload(name=path.stem, layers=tuple(layers))


def _load_json(path: Path, **options):
    text = _read_text(path)
    try:
        return json.loads(text, **options)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
        raise ParseError(f"{path}: {exc}") from exc


def _float_table(path: str | Path, columns: list[str], key) -> dict:
    """A CSV table mapping key(row) to the floats in its last two columns;
    a key on a second row fails as ``file:line: duplicate key ...``."""
    a, b = columns[-2:]
    table: dict = {}

    def add(row: dict[str, str]) -> None:
        if (row_key := key(row)) in table:
            raise ParseError(f"duplicate key {row_key!r}")
        table[row_key] = _finite(row[a]), _finite(row[b])

    _parse_csv(Path(path), columns, add)
    return table


def load_unit_profile(path: str | Path) -> dict[tuple[str, int], tuple[float, float]]:
    return _float_table(
        path,
        ["layer", "freq_index", "latency_ms", "power_w"],
        lambda row: (row["layer"].strip(), _integer(row["freq_index"])),
    )


def load_node(path: str | Path) -> EdgeNode:
    path = Path(path)
    doc = _object(_load_json(path))
    units = tuple(
        _from_spec(ProcessingUnit, spec, profile=load_unit_profile(path.parent / _read(spec, "profile_file", _text)))
        for spec in _read(doc, "units", _tuple_of(_object))
    )
    return _from_spec(EdgeNode, doc, units=units)


def load_variant_sets(path: str | Path) -> list[ModelVariantSet]:
    path = Path(path)
    doc = _load_json(path)
    # one model set may stand alone, not in a list
    entries = _tuple_of(_object)([doc] if isinstance(doc, dict) else doc)
    return [
        ModelVariantSet(
            name=_read(entry, "model", _text),
            variants=tuple(_from_spec(ModelVariant, v) for v in _read(entry, "variants", _tuple_of(_object))),
        )
        for entry in entries
    ]


def load_exec_table(entries_path: str | Path, concurrency_path: str | Path | None = None) -> ExecLookupTable:
    entries = _float_table(
        entries_path,
        ["batch", "freq_index", "latency_ms", "energy_j"],
        lambda row: (_integer(row["batch"]), _integer(row["freq_index"])),
    )
    concurrency = None
    if concurrency_path is not None:
        concurrency = _float_table(
            concurrency_path,
            ["streams", "throughput_scale", "power_scale"],
            lambda row: _integer(row["streams"]),
        )
    return ExecLookupTable(entries=entries, concurrency=concurrency)


def load_llm_variants(path: str | Path) -> tuple[LlmVariant, ...]:
    path = Path(path)
    doc = _load_json(path)
    variants = tuple(_from_spec(LlmVariant, v) for v in _tuple_of(_object)(doc))
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

    def build_area_params(spec: dict) -> AreaParams:
        params = _from_spec(AreaParams, spec)
        # a 3D stack's memory die is the global buffer alone, so it has no area without SRAM
        if params.sram_mm2_per_byte == 0:
            raise ValidationFailure(f"area_params.sram_mm2_per_byte: must be > 0, got {params.sram_mm2_per_byte}")
        return params

    area_params = parse("area_params", build_area_params, raw["area_params"]) if "area_params" in raw else None

    policy = parse("policy", _from_spec, PolicyParams, raw.get("policy", {}))

    def build_space(spec: dict) -> DesignSpace:
        tech_node = _object(spec)["tech_node"]
        if tech_node not in technology:
            raise ValueError(f"tech_node {tech_node!r} not in technology table")
        if area_params is None:
            raise ValueError("design_space requires area_params")
        return _from_spec(
            DesignSpace,
            spec,
            # a failed section stands in at its defaults; its own errors fail the config
            accuracy_threshold_pct=(policy or PolicyParams()).accuracy_threshold_pct,
            **{
                f"{gene}_values": _read(spec, gene, _COERCIONS["tuple[int, ...]"])
                for gene in ("px", "py", "b_local", "b_global")
            },
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
    # a failed section is checked at its defaults, and only a loaded section's failures are listed
    checked_sim = sim or SimSettings()
    try:
        build_sim_config(checked_sim, policy or PolicyParams(), "adaptive")
    except SimConfigError as exc:
        for name, reason in exc.failures:
            section, loaded = ("sim", sim) if hasattr(checked_sim, name) else ("policy", policy)
            if loaded is not None:
                errors.append(f"{section}.{name}: {reason}")
    search = parse("search", _from_spec, SearchParams, raw.get("search", {}), rng_seed=seed)

    if errors:
        raise ConfigError(errors)
    return ToolkitConfig(
        config_hash=config_hash_of(raw),
        seed=seed,
        design_space=design_space,
        ga_params=ga_params,
        workload=workload,
        node=node,
        variant_sets=variant_sets,
        policy=policy,
        sim=sim,
        search=search,
    )


def build_sim_config(sim: SimSettings, policy: PolicyParams, run_policy: str) -> SimConfig:
    """The simulator's run settings under the threshold policy `run_policy`
    ("adaptive" or "static"): each other SimConfig field is copied from the
    sim or the policy section, whichever has a field of its name."""
    settings = {**vars(sim), **vars(policy), "policy": run_policy}
    return SimConfig(**{f.name: settings[f.name] for f in fields(SimConfig)})


# ---------------------------------------------------------------------------
# Artifact emission
# ---------------------------------------------------------------------------


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out}: {exc}") from exc


DECISION_LOG_FILE = "decision_log.jsonl"


@contextmanager
def decision_log(out_dir: str | Path) -> Iterator[Callable[[LogEvent], None]]:
    """Create out_dir and yield a `run_simulation` sink that streams each
    event to out_dir/decision_log.jsonl as the run makes it.

    The file is JSON Lines: one compact object per event, ``t_s`` and
    ``kind`` and then the event's detail keys in order, with Python's
    shortest round-trip floats and no timestamp. A non-finite number fails
    the event that holds it with ValidationFailure. The log is written
    under a ``.part`` name and takes its own name when the body returns.
    If the body raises, the partial file is removed, and so is every
    directory this created that is left empty, so a failed run leaves what
    it would have left without the log, an earlier run's log included.
    """
    out = Path(out_dir)
    made = [folder for folder in (out, *out.parents) if not folder.exists()]
    _make_out_dir(out)
    partial = out / f"{DECISION_LOG_FILE}.part"
    encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    try:
        with partial.open("w") as handle:
            write = handle.write

            def emit(ev: LogEvent) -> None:
                try:
                    line = encode({"t_s": ev.t_s, "kind": ev.kind, **ev.detail})
                except ValueError as exc:
                    raise ValidationFailure(f"{DECISION_LOG_FILE} would hold a non-finite number: {exc}") from exc
                write(line)
                write("\n")

            yield emit
        partial.replace(out / DECISION_LOG_FILE)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        for folder in made:
            try:
                folder.rmdir()
            except OSError:
                break
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write artifacts under {out}: {exc}") from exc
        raise


def sim_report_to_dict(report: SimReport, embodied_g_per_inference: float | None = None) -> dict:
    """sim_report.json's content; the embodied grams per inference are None unless the config gives them."""
    return {
        "total_energy_kwh": report.total_energy_kwh,
        "operational_g": report.operational_g,
        "inferences_done": report.inferences_done,
        "deadline_misses": report.deadline_misses,
        "mean_tps": report.mean_tps,
        "embodied_amortized_g_per_inference": embodied_g_per_inference,
        "arrivals_total": report.arrivals_total,
        "backlog_at_horizon": report.backlog_at_horizon,
        "max_queue_len": report.max_queue_len,
        "decision_log_file": DECISION_LOG_FILE,
    }


def timeseries_rows(report: SimReport) -> list[list]:
    """One row per step sample: its fields, in the order of TIMESERIES_COLUMNS."""
    return [list(sample) for sample in report.steps]


TIMESERIES_COLUMNS = ["time", "ci", "power_threshold", "power", "energy", "cumulative_g"]


def emit_report(bundle: ResultBundle, out_dir: str | Path) -> list[Path]:
    """Write every artifact in the bundle; returns the paths written.

    File names are fixed per artifact. Numbers are written with Python's
    shortest round-trip float formatting so reruns are byte-stable, and CSV
    cells are quoted as the `csv` module quotes them. A non-finite number
    fails the artifact that would hold it with ValidationFailure.
    """
    out = Path(out_dir)
    _make_out_dir(out)
    meta = bundle.meta
    header = (
        f"# edcarb {meta.version} command={meta.command} "
        f"config_hash={meta.config_hash} seed={meta.seed}"
    )
    stamp = f"# generated_at={_timestamp()}"
    written: list[Path] = []
    try:
        for name, (columns, rows) in bundle.csv_artifacts.items():
            if any(isinstance(cell, float) and not math.isfinite(cell) for row in rows for cell in row):
                raise ValidationFailure(f"{name} would hold a non-finite number")
            target = out / name
            with target.open("w", newline="") as handle:
                handle.write(f"{header}\n{stamp}\n")
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(rows)
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
            try:
                text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
            except ValueError as exc:
                raise ValidationFailure(f"{name} would hold a non-finite number: {exc}") from exc
            target.write_text(text)
            written.append(target)
    except OSError as exc:
        raise IoFailure(f"cannot write artifacts under {out}: {exc}") from exc
    return written


def read_artifact(path: Path) -> dict:
    """Load a JSON artifact as `emit_report` writes it: an object whose
    ``meta``, if present, is an object, with no NaN or Infinity constant."""
    doc = _load_json(path, parse_constant=_finite)
    if not isinstance(doc, dict) or not isinstance(doc.get("meta", {}), dict):
        raise ParseError(f"{path}: an artifact must be a JSON object with an object 'meta'")
    return doc
