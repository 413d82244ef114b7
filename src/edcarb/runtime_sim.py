"""Deterministic discrete-step simulator with carbon accounting.

`run_simulation` walks one clock in fixed steps (1 s by default) over a
carbon-intensity trace. At each step it (1) moves the power threshold when
the hysteresis rule fires, and the mode re-selects its execution strategy,
(2) runs the mode's step, which returns the energy the step used, and
(3) converts that energy to grams at the step's carbon intensity with
`carbon_model.operational_carbon`. The mode picks its step once:

- the queue step of "batch" and "llm" mode: requests queue in arrival
  order and the device serves the queue head one dispatch at a time,
  drawing idle power while nothing runs. "batch" plans each dispatch of its
  lookup-table engine through the batching -> concurrency -> frequency
  policy hierarchy under soft deadlines; "llm" serves token jobs at the
  cost of the quantized variant its fallback policy last selected;
- the flow step of "mapping" mode: a continuous flow served by multi-DNN
  plans re-planned at every threshold change, each a solve of the mapping
  search the run prepares once.

The queue step reads its requests as two columns, their times and their
kinds, up to the horizon. `TraceArrivals` holds explicit arrivals of any
kinds, such as an arrivals CSV; `PoissonArrivals` draws seeded arrivals,
all of kind "default".

Everything is a pure function of the inputs; the only randomness is the
Poisson arrival model, which carries its own seed. The decision log and step
series are byte-reproducible.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .carbon_model import J_PER_KWH, operational_carbon
from .edc_scheduler import (
    EdgeNode,
    ModelVariant,
    SearchParams,
    ci_to_threshold,
    hysteresis_update,
    prepare_mapping,
)
from .errors import InfeasibleError, ValidationFailure

# PoissonArrivals draws every arrival of the horizon up front, into a list of
# times and a list of kinds; it refuses a horizon whose expected arrival count
# (rate x horizon) is above this.
MAX_EXPECTED_ARRIVALS = 1_000_000
# SimConfig refuses a run of more clock steps (horizon_s / step_s) than this.
MAX_STEPS = 1_000_000


class SimConfigError(ValidationFailure):
    """Every failed check of a SimConfig, as (field, reason) pairs in field order."""

    def __init__(self, failures: list[tuple[str, str]]):
        self.failures = failures
        super().__init__("; ".join(f"{name}: {reason}" for name, reason in failures))


@dataclass(frozen=True)
class CiTrace:
    """Step-interpolated carbon-intensity forecast: each sample's value holds
    until the next timestamp; coverage ends at horizon_s.

    The sample times and the value bounds are derived once, at construction.
    """

    samples: tuple[tuple[float, float], ...]
    horizon_s: float
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)
    ci_min: float = field(init=False, repr=False, compare=False)
    ci_max: float = field(init=False, repr=False, compare=False)
    ci_range: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValidationFailure("CiTrace needs at least one sample")
        times = tuple(t for t, _ in self.samples)
        values = [ci for _, ci in self.samples]
        if not all(math.isfinite(t) for t in times):
            raise ValidationFailure("CiTrace timestamps must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationFailure("CiTrace timestamps must be strictly increasing")
        if not all(0 <= ci < math.inf for ci in values):
            raise ValidationFailure("carbon intensity must be finite and >= 0")
        # +inf is a valid horizon: a single-sample trace covers all time
        if not self.horizon_s >= times[-1]:
            raise ValidationFailure("horizon_s must be a number covering the last sample")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ci_min", min(values))
        object.__setattr__(self, "ci_max", max(values))
        object.__setattr__(self, "ci_range", self.ci_max - self.ci_min)

    def ci_at(self, t_s: float) -> float:
        """Value of the last sample at or before t_s; the first sample's
        value before it."""
        i = bisect_right(self.times, t_s)
        return self.samples[i - 1 if i else 0][1]


@dataclass(frozen=True)
class TraceArrivals:
    """Explicit request arrivals as two columns: their times, >= 0 and
    non-decreasing, and their kinds."""

    times: tuple[float, ...]
    kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        times = self.times
        if len(times) != len(self.kinds):
            raise ValidationFailure(f"{len(times)} arrival times but {len(self.kinds)} kinds")
        early = [t for t in times if not t >= 0]
        if early:
            raise ValidationFailure(f"arrival times must be >= 0, got {early[0]}")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValidationFailure("arrival times must be non-decreasing")

    def columns(self, horizon_s: float) -> tuple[list[float], list[str]]:
        """The arrivals before horizon_s, as a list of times and a list of kinds."""
        n = bisect_left(self.times, horizon_s)
        return list(self.times[:n]), list(self.kinds[:n])


@dataclass(frozen=True)
class PoissonArrivals:
    """Arrivals of kind "default" whose gaps are exponential draws at
    rate_per_s from one `random.Random(seed)`."""

    rate_per_s: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_per_s) and self.rate_per_s > 0):
            raise ValidationFailure(f"Poisson rate must be a finite number > 0, got {self.rate_per_s}")

    def materialize(self, horizon_s: float) -> list[tuple[float, str]]:
        """The arrivals before horizon_s, as (time_s, kind) in time order."""
        return list(zip(*self.columns(horizon_s)))

    def columns(self, horizon_s: float) -> tuple[list[float], list[str]]:
        """The arrivals before horizon_s, as a list of times and a list of kinds."""
        if self.rate_per_s * horizon_s > MAX_EXPECTED_ARRIVALS:
            raise ValidationFailure(
                f"Poisson rate {self.rate_per_s}/s over {horizon_s} s expects more than "
                f"{MAX_EXPECTED_ARRIVALS} arrivals"
            )
        rng = random.Random(self.seed)
        # each gap is Random.expovariate(rate) as CPython 3.10-3.13 computes
        # it, written out: the method call costs more than the arithmetic
        uniform, log, rate = rng.random, math.log, self.rate_per_s
        times: list[float] = []
        add_time = times.append
        t = -log(1.0 - uniform()) / rate
        while t < horizon_s:
            add_time(t)
            t += -log(1.0 - uniform()) / rate
        return times, ["default"] * len(times)


@dataclass(frozen=True)
class ExecLookupTable:
    """Precomputed (batch, frequency) -> (latency, energy) profile plus a
    stream count -> (throughput scale, power scale) table (1 alone when None).

    Load-time invariants: batch latency non-decreasing and energy per
    inference non-increasing in the batch size at every frequency; the table
    must be rectangular over its batch sizes and frequency levels and contain
    batch size 1. The stream counts run from 1 to some K with no gap, so a
    dispatch of fewer groups than the streams chosen finds its scales. The
    sorted batch sizes and the number of frequency levels are derived once.
    """

    entries: dict[tuple[int, int], tuple[float, float]]
    concurrency: dict[int, tuple[float, float]] | None = None
    batch_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    n_freqs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries:
            raise ValidationFailure("ExecLookupTable needs at least one entry")
        batch_sizes = sorted({b for b, _ in entries})
        freqs = sorted({f for _, f in entries})
        if batch_sizes[0] != 1:
            raise ValidationFailure("ExecLookupTable must contain batch size 1")
        if freqs != list(range(len(freqs))):
            raise ValidationFailure("frequency indices must be contiguous from 0")
        for b in batch_sizes:
            for f in freqs:
                if (b, f) not in entries:
                    raise ValidationFailure(f"table is not rectangular: missing (b={b}, f={f})")
                latency, energy = entries[(b, f)]
                if not (0 < latency < math.inf and 0 <= energy < math.inf):
                    raise ValidationFailure(
                        f"entry (b={b}, f={f}): latency must be finite and > 0, energy finite and >= 0"
                    )
        for f in freqs:
            for b_lo, b_hi in zip(batch_sizes, batch_sizes[1:]):
                if entries[(b_hi, f)][0] < entries[(b_lo, f)][0]:
                    raise ValidationFailure(
                        f"latency must be non-decreasing in batch size (freq {f})"
                    )
                if entries[(b_hi, f)][1] / b_hi > entries[(b_lo, f)][1] / b_lo:
                    raise ValidationFailure(
                        f"energy per inference must be non-increasing in batch size (freq {f})"
                    )
        concurrency = dict(self.concurrency) if self.concurrency else {1: (1.0, 1.0)}
        validate_concurrency(concurrency)
        object.__setattr__(self, "entries", dict(entries))
        object.__setattr__(self, "concurrency", concurrency)
        object.__setattr__(self, "batch_sizes", tuple(batch_sizes))
        object.__setattr__(self, "n_freqs", len(freqs))

    def latency_ms(self, b: int, f: int) -> float:
        return self.entries[(b, f)][0]


def validate_concurrency(concurrency: dict[int, tuple[float, float]]) -> None:
    """Stream counts run from 1 to some K with no gap; the throughput scale
    of k streams is in (0, k] and the power scale finite and >= 1."""
    if sorted(concurrency) != list(range(1, len(concurrency) + 1)):
        raise ValidationFailure(f"stream counts must run from 1 to K with no gap, got {sorted(concurrency)}")
    for k, (t_scale, p_scale) in concurrency.items():
        if not 0 < t_scale <= k:
            raise ValidationFailure(f"throughput scale for k={k} must be in (0, k]")
        if not 1.0 <= p_scale < math.inf:
            raise ValidationFailure(f"power scale for k={k} must be finite and >= 1")


@dataclass(frozen=True)
class LlmVariant:
    """One quantized variant: serving rate and power per frequency level."""

    name: str
    quality_score: float
    tokens_per_s: tuple[float, ...]
    power_w: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.tokens_per_s or len(self.tokens_per_s) != len(self.power_w):
            raise ValidationFailure(
                f"variant {self.name!r}: tokens_per_s and power_w need equal, non-zero length"
            )
        if not math.isfinite(self.quality_score):
            raise ValidationFailure(f"variant {self.name!r}: quality_score must be finite")
        rates_ok = all(0 < tps < math.inf for tps in self.tokens_per_s)
        if not (rates_ok and all(0 <= p < math.inf for p in self.power_w)):
            raise ValidationFailure(
                f"variant {self.name!r}: rates must be finite and > 0, power finite and >= 0"
            )


def validate_llm_variant_order(variants: tuple[LlmVariant, ...] | list[LlmVariant]) -> None:
    """Variant lists are ordered highest quality first, strictly decreasing."""
    if not variants:
        raise ValidationFailure("need at least one LLM variant")
    scores = [v.quality_score for v in variants]
    if any(b >= a for a, b in zip(scores, scores[1:])):
        raise ValidationFailure("LLM variant quality must be strictly decreasing")


@dataclass(frozen=True)
class LlmChoice:
    variant: LlmVariant
    freq_idx: int
    tps_violated: bool


def choose_batch(
    queue_len: int,
    table: ExecLookupTable,
    deadline_ms: float,
    elapsed_wait_ms: float,
    freq_idx: int,
) -> int:
    """Largest batch that still meets the deadline; 1 when nothing does.

    Energy per inference is non-increasing in batch size (a load-time
    invariant), so the largest feasible batch is also the energy-minimal one.
    Latency is non-decreasing in batch size (another), so no batch after the
    first one that misses the deadline meets it.
    """
    if queue_len < 1:
        raise ValidationFailure("queue_len must be >= 1")
    best = 1
    for b in table.batch_sizes:
        if b > queue_len or table.latency_ms(b, freq_idx) + elapsed_wait_ms > deadline_ms:
            break
        best = b
    return best


def choose_frequency(
    batch: int,
    table: ExecLookupTable,
    deadline_ms: float,
    elapsed_wait_ms: float,
    levels: Sequence[int],
) -> int:
    """Lowest of the ascending, non-empty frequency `levels` that meets the
    deadline; the highest one as best effort."""
    for f in levels:
        if table.latency_ms(batch, f) + elapsed_wait_ms <= deadline_ms:
            return f
    return levels[-1]


def choose_concurrency(active_models: int, table: ExecLookupTable) -> int:
    """Stream count maximizing throughput-per-power scaling; ties pick fewer streams."""
    counts = range(1, min(max(1, active_models), len(table.concurrency)) + 1)
    return max(counts, key=lambda k: table.concurrency[k][0] / table.concurrency[k][1])


def ci_level_of(ci_now: float, ci_min: float, ci_max: float) -> str:
    """Tercile classification of the current intensity within the forecast range."""
    if ci_max <= ci_min:
        return "low"
    x = (ci_now - ci_min) / (ci_max - ci_min)
    if x < 1.0 / 3.0:
        return "low"
    if x < 2.0 / 3.0:
        return "mid"
    return "high"


def llm_select(
    variants: tuple[LlmVariant, ...] | list[LlmVariant],
    power_threshold_w: float,
    ci_level: str,
    tps_floor: float,
) -> LlmChoice:
    """Highest-quality variant at the lowest adequate frequency.

    Adequate means power under the threshold and serving rate at or above the
    floor. At high grid intensity the top-quality variant is off the table
    (forced fallback) whenever a lighter one exists. If no combination meets
    the rate floor, the fastest one under the power budget is returned,
    flagged tps_violated.
    """
    validate_llm_variant_order(variants)
    if ci_level not in ("low", "mid", "high"):
        raise ValidationFailure(f"unknown ci_level {ci_level!r}")
    allowed = list(variants)
    if ci_level == "high" and len(allowed) > 1:
        allowed = allowed[1:]
    best: LlmChoice | None = None
    best_tps = -math.inf
    for variant in allowed:
        for f, (tps, power_w) in enumerate(zip(variant.tokens_per_s, variant.power_w)):
            if power_w > power_threshold_w:
                continue
            if tps >= tps_floor:
                return LlmChoice(variant=variant, freq_idx=f, tps_violated=False)
            if tps > best_tps:
                best = LlmChoice(variant=variant, freq_idx=f, tps_violated=True)
                best_tps = tps
    if best is None:
        raise InfeasibleError(
            f"no variant runs under {power_threshold_w} W at any frequency"
        )
    return best


@dataclass(frozen=True)
class SimConfig:
    """The simulator's run settings; a bad one raises SimConfigError, which lists every failed check."""

    mode: str  # "batch" | "llm" | "mapping"
    horizon_s: float
    step_s: float = 1.0
    policy: str = "adaptive"  # "adaptive" | "static"
    deadline_ms: float = 100.0
    hysteresis_fraction: float = 0.10
    p_min_w: float = 1.0
    p_max_w: float = 10.0
    idle_power_w: float = 0.0
    tokens_per_request: int = 128
    tps_floor: float = 0.0

    def __post_init__(self) -> None:
        failures: list[tuple[str, str]] = []

        def check(name: str, ok: bool, reason: str) -> bool:
            if not ok:
                failures.append((name, reason))
            return ok

        check("mode", self.mode in ("batch", "llm", "mapping"), f"unknown mode {self.mode!r}")
        check("horizon_s", 0 < self.horizon_s < math.inf, f"must be finite and > 0, got {self.horizon_s}")
        if check("step_s", 0 < self.step_s < math.inf, f"must be finite and > 0, got {self.step_s}"):
            steps = self.horizon_s / self.step_s
            check("step_s", not steps > MAX_STEPS, f"must be >= horizon_s / {MAX_STEPS}, got {self.step_s}")
        check("policy", self.policy in ("adaptive", "static"), f"unknown policy {self.policy!r}")
        check("deadline_ms", 0 < self.deadline_ms < math.inf, f"must be finite and > 0, got {self.deadline_ms}")
        fraction = self.hysteresis_fraction
        check("hysteresis_fraction", 0 <= fraction <= 1, f"must be in [0, 1], got {fraction}")
        p_min, p_max = self.p_min_w, self.p_max_w
        if check("p_min_w", p_min > 0, f"must be > 0, got {p_min}"):
            check("p_min_w", not p_min > p_max, f"must be <= p_max_w, got {p_min} > {p_max}")
        check("p_max_w", p_max < math.inf, f"must be finite, got {p_max}")
        check("idle_power_w", 0 <= self.idle_power_w < math.inf, f"must be finite and >= 0, got {self.idle_power_w}")
        check("tokens_per_request", self.tokens_per_request >= 1, f"must be >= 1, got {self.tokens_per_request}")
        floor_ok = self.mode != "llm" or 0 < self.tps_floor < math.inf
        check("tps_floor", floor_ok, f"must be finite and > 0 in llm mode, got {self.tps_floor}")
        if failures:
            raise SimConfigError(failures)


def _positional(cls: type) -> type:
    """Give the named tuple `cls` ``make(values)``: ``cls(*values)`` with no Python frame and no arity check."""
    cls.make = partial(tuple.__new__, cls)
    return cls


def _record(name: str, kind: str, keys: str) -> type:
    """The named tuple of one event shape: ``t_s`` and then its log `keys`
    in log order, with its log ``kind`` and its ``detail``, a dict of the keys."""
    cls = namedtuple(name, f"t_s {keys}")
    cls.kind = kind
    cls.detail = property(lambda ev: dict(zip(ev._fields[1:], ev[1:])))
    return _positional(cls)


# The events the simulator emits, one type per log shape.
Adapt = _record("Adapt", "adapt", "threshold_w ci cause")
Remap = _record("Remap", "remap", "power_w throughput segments")
Power = _record("Power", "power", "energy_j power_w ci")
LlmSelect = _record("LlmSelect", "llm_select", "variant freq_idx ci_level tps_violated")
PowerGated = _record("PowerGated", "power_gated", "threshold_w ci")
_DISPATCH_TAIL = "duration_s energy_j power_w completion_s misses arrivals ci"
BatchDispatch = _record("BatchDispatch", "dispatch", f"batches streams freq_idx {_DISPATCH_TAIL}")
LlmDispatch = _record("LlmDispatch", "dispatch", f"variant freq_idx tokens {_DISPATCH_TAIL}")
Idle = _record("Idle", "idle", "idle_s energy_j ci")
LogEvent = Adapt | Remap | Power | LlmSelect | PowerGated | BatchDispatch | LlmDispatch | Idle


@_positional
class StepSample(NamedTuple):
    """One clock step, its fields in the order of the timeseries.csv columns."""

    t_s: float
    ci: float
    threshold_w: float
    power_w: float
    energy_kwh: float
    cumulative_g: float


@dataclass
class SimReport:
    total_energy_kwh: float
    operational_g: float
    inferences_done: int
    deadline_misses: int
    mean_tps: float
    # request accounting (batch and llm; all 0 in mapping mode, which has no
    # request queue): arrivals_total = inferences_done + backlog_at_horizon
    arrivals_total: int
    backlog_at_horizon: int
    max_queue_len: int
    decision_log: list[LogEvent]
    steps: list[StepSample]


def run_simulation(
    config: SimConfig,
    ci_trace: CiTrace,
    arrivals: TraceArrivals | PoissonArrivals | None = None,
    *,
    table: ExecLookupTable | None = None,
    node: EdgeNode | None = None,
    workloads: list[ModelVariant] | None = None,
    llm_variants: tuple[LlmVariant, ...] | list[LlmVariant] | None = None,
    search_params: SearchParams | None = None,
    emit: Callable[[LogEvent], None] | None = None,
) -> SimReport:
    """Walk the clock over the horizon and report the run.

    The static policy holds p_max_w; the adaptive one moves the threshold
    whenever the hysteresis rule fires against the intensity of the last
    change, and then the mode's step adapts. Each step's run returns its energy.

    Each decision goes to `emit` as the run makes it. Without a sink the
    events are kept in order as the report's `decision_log`; with one, that
    list stays empty.
    """
    if config.horizon_s > ci_trace.horizon_s:
        raise ValidationFailure(
            f"horizon {config.horizon_s} s exceeds trace coverage {ci_trace.horizon_s} s"
        )
    if config.mode == "mapping":
        step = _FlowStep(config, node, workloads, search_params)
    else:
        step = _QueueStep(config, arrivals, table, llm_variants)

    horizon_s, step_s = config.horizon_s, config.step_s
    adaptive = config.policy == "adaptive"
    log: list[LogEvent] = []
    if emit is None:
        emit = log.append
    samples: list[StepSample] = []
    ci_at, run, add_sample, sample = ci_trace.ci_at, step.run, samples.append, StepSample.make
    operational_g = 0.0
    threshold = config.p_max_w
    ci_ref: float | None = None
    # the hysteresis rule never fires at the intensity of the step before:
    # either that step's rule did not fire against ci_ref, or it set ci_ref
    ci_last: float | None = None
    t = 0.0
    while t < horizon_s - 1e-12:
        dt = step_s if step_s <= horizon_s - t else horizon_s - t
        ci = ci_at(t)
        if ci_ref is None or adaptive and ci != ci_last and hysteresis_update(
            ci_ref, ci, ci_trace.ci_range, config.hysteresis_fraction
        ):
            cause = "initial" if ci_ref is None else "ci_change"
            ci_ref = ci
            if adaptive:
                threshold = ci_to_threshold(
                    ci, ci_trace.ci_min, ci_trace.ci_max, config.p_min_w, config.p_max_w
                )
            emit(Adapt(t, threshold, ci, cause))
            step.adapt(t, ci, threshold, ci_trace, emit)
        ci_last = ci
        step_energy_j = run(t, dt, ci, threshold, emit)
        operational_g += operational_carbon(ci, step_energy_j)
        add_sample(sample((t, ci, threshold, step_energy_j / dt, step_energy_j / J_PER_KWH, operational_g)))
        t += dt

    return SimReport(
        total_energy_kwh=step.energy_j / J_PER_KWH,
        operational_g=operational_g,
        decision_log=log,
        steps=samples,
        **step.counts(),
    )


class _FlowStep:
    """Mapping mode: the plan of the last threshold change serves a
    continuous flow at its estimated power and throughput. Request arrivals
    are ignored; there is no queue."""

    def __init__(self, config, node, workloads, search_params) -> None:
        if node is None or not workloads:
            raise ValidationFailure("mapping mode needs a node and workloads")
        # each threshold change solves the one search prepared here; the
        # search's other steps do not read the threshold
        self.prepared = prepare_mapping(workloads, node, search_params)
        self.deadline_ms = config.deadline_ms
        # the current plan's (power_w, throughput, misses its deadline)
        self.flow: tuple[float, float, bool] | None = None
        # run totals: energy J, inferences and those past the deadline
        self.energy_j = self.inferences = self.late = 0.0

    def adapt(self, t, ci, threshold, trace, emit) -> None:
        solution = self.prepared.solve(threshold)
        self.flow = (
            solution.estimate.power_w,
            solution.estimate.throughput_inf_per_s,
            max(solution.bottleneck_ms) > self.deadline_ms,
        )
        emit(Remap(t, self.flow[0], self.flow[1], sum(map(len, solution.plans))))

    def run(self, t, dt, ci, threshold, emit) -> float:
        power_w, throughput, late = self.flow
        energy_j = power_w * dt
        self.energy_j += energy_j
        done = throughput * dt
        self.inferences += done
        if late:
            self.late += done
        emit(Power.make((t, energy_j, power_w, ci)))
        return energy_j

    def counts(self) -> dict:
        inferences = int(self.inferences)
        return dict(
            inferences_done=inferences,
            deadline_misses=min(inferences, int(self.late)),
            mean_tps=0.0,
            arrivals_total=0,
            backlog_at_horizon=0,
            max_queue_len=0,
        )


class _QueueStep:
    """Batch and llm mode: requests queue in arrival order and the device
    serves the queue head one dispatch at a time.

    The arrivals are two columns, their times and their kinds. Arrivals are
    served in order, so the queue is the arrivals head:next_arrival and head
    counts the requests served. Batch mode plans every dispatch against the
    queue with the stream count that `choose_concurrency` gives for the
    number of kinds queued, read from `streams`, which holds it for each
    number up to the kinds among the arrivals. queued_kinds counts the queue
    by kind only when the arrivals hold two kinds or more; with fewer, every
    planned queue holds one kind. llm mode serves one request per dispatch
    at the fixed cost of the variant selected at the last threshold change;
    it never reads the kinds, so it keeps no count either.
    """

    def __init__(self, config, arrivals, table, llm_variants) -> None:
        if config.mode == "llm":
            if not llm_variants:
                raise ValidationFailure("llm mode needs llm_variants")
            validate_llm_variant_order(llm_variants)
        elif table is None:
            raise ValidationFailure("batch mode needs an ExecLookupTable")
        if arrivals is None:
            raise ValidationFailure(f"{config.mode} mode needs an arrival model")
        self.config, self.table = config, table
        self.variants = llm_variants if config.mode == "llm" else None
        self.arrival_times, self.arrival_kinds = arrivals.columns(config.horizon_s)
        self.streams: list[int] = []
        if self.variants is None:
            self.streams = [choose_concurrency(n, table) for n in range(len(set(self.arrival_kinds)) + 1)]
        self.queued_kinds: Counter[str] | None = Counter() if len(self.streams) > 2 else None
        self.head = self.next_arrival = self.max_queue_len = self.misses = 0
        self.device_free = self.busy_s = self.energy_j = 0.0
        # llm mode: the selected variant's dispatch, as `_plan_batch_dispatch`
        # returns one: (1, (variant, freq_idx, tokens), duration_s, energy_j, power_w)
        self.fixed: tuple[int, tuple, float, float, float] | None = None
        # batch mode: this run's `_plan_batch_dispatch` cost memo, kept per run
        # because it holds sums over this run's table
        self.dispatch_costs: _DispatchCosts = {}

    def adapt(self, t, ci, threshold, trace, emit) -> None:
        if self.variants is None:
            return
        level = ci_level_of(ci, trace.ci_min, trace.ci_max)
        choice = llm_select(self.variants, threshold, level, self.config.tps_floor)
        variant, f, tokens = choice.variant, choice.freq_idx, self.config.tokens_per_request
        duration_s = tokens / variant.tokens_per_s[f]
        self.fixed = 1, (variant.name, f, tokens), duration_s, variant.power_w[f] * duration_s, variant.power_w[f]
        emit(LlmSelect(t, variant.name, f, level, choice.tps_violated))

    def run(self, t, dt, ci, threshold, emit) -> float:
        """Serve the queue over [t, t + dt), then charge idle power for the
        rest; returns the step's energy. Per dispatch, the cursor searches the
        arrivals only when one is due by now, the longest queue moves only
        when arrivals join, a one-request dispatch tests its one arrival for a
        miss, records are built by `make`, and the run's state is read from
        locals, as attribute access slows the queue path."""
        times, kinds, queued, streams = self.arrival_times, self.arrival_kinds, self.queued_kinds, self.streams
        fixed, table, config, dispatch_costs = self.fixed, self.table, self.config, self.dispatch_costs
        dispatch_record = (BatchDispatch if fixed is None else LlmDispatch).make
        n_arrivals, deadline_s = len(times), config.deadline_ms / 1000.0
        head, next_arrival, max_queue_len, misses = self.head, self.next_arrival, self.max_queue_len, self.misses
        device_free, busy_s, run_energy_j = self.device_free, self.busy_s, self.energy_j
        step_end = t + dt
        step_energy_j = 0.0
        # min and max written as the comparisons that give the builtins' floats
        busy_in_window = (step_end if step_end < device_free else device_free) - t if device_free > t else 0.0
        now = t if t > device_free else device_free
        while True:
            if next_arrival < n_arrivals and times[next_arrival] <= now:
                arrived = bisect_right(times, now, next_arrival)
                if queued is not None:
                    queued.update(kinds[next_arrival:arrived])
                next_arrival = arrived
                if next_arrival - head > max_queue_len:
                    max_queue_len = next_arrival - head
            if head == next_arrival:
                if next_arrival < n_arrivals and times[next_arrival] < step_end:
                    now = times[next_arrival]  # later than now: the search passed every due arrival
                    continue
                break
            if now >= step_end:
                break
            dispatch = fixed or _plan_batch_dispatch(
                times, head, next_arrival, streams[len(queued) if queued else 1],
                table, config, threshold, now, dispatch_costs,
            )
            if dispatch is None:
                emit(PowerGated.make((now, threshold, ci)))
                break
            n_served, leading, duration_s, energy_j, power_w = dispatch
            completion = now + duration_s
            arrival_times = times[head : head + n_served]
            if n_served == 1:
                n_miss = 1 if completion > arrival_times[0] + deadline_s else 0
            else:
                n_miss = 0
                for arrival_s in arrival_times:
                    if completion > arrival_s + deadline_s:
                        n_miss += 1
            if queued is not None:
                for kind in kinds[head : head + n_served]:
                    queued[kind] -= 1
                    if not queued[kind]:
                        del queued[kind]
            head += n_served
            misses += n_miss
            busy_s += duration_s
            step_energy_j += energy_j
            run_energy_j += energy_j
            busy_in_window += (step_end if step_end < completion else completion) - now
            emit(dispatch_record((now, *leading, duration_s, energy_j, power_w, completion, n_miss, arrival_times, ci)))
            now = device_free = completion

        idle_s = dt - busy_in_window
        if idle_s > 0 and config.idle_power_w > 0:
            idle_energy = config.idle_power_w * idle_s
            step_energy_j += idle_energy
            run_energy_j += idle_energy
            emit(Idle.make((step_end, idle_s, idle_energy, ci)))
        self.head, self.next_arrival, self.max_queue_len, self.misses = head, next_arrival, max_queue_len, misses
        self.device_free, self.busy_s, self.energy_j = device_free, busy_s, run_energy_j
        return step_energy_j

    def counts(self) -> dict:
        # every arrival before the horizon has arrived by then: the requests
        # not yet taken in count towards the final queue
        backlog = len(self.arrival_times) - self.head
        mean_tps = 0.0
        if self.variants is not None and self.busy_s > 0:
            mean_tps = self.head * self.config.tokens_per_request / self.busy_s
        return dict(
            inferences_done=self.head,
            deadline_misses=self.misses,
            mean_tps=mean_tps,
            arrivals_total=len(self.arrival_times),
            backlog_at_horizon=backlog,
            max_queue_len=max(self.max_queue_len, backlog),
        )


# batch sizes of one dispatch's groups -> (serial ms, serial energy J, power W)
# of those groups at each frequency; a function of the sizes and the table
_DispatchCosts = dict[tuple[int, ...], list[tuple[float, float, float]]]


def _plan_batch_dispatch(
    times: list[float],
    head: int,
    tail: int,
    k: int,
    table: ExecLookupTable,
    config: SimConfig,
    threshold_w: float,
    now: float,
    cost_memo: _DispatchCosts,
) -> tuple[int, tuple, float, float, float] | None:
    """Apply the policy hierarchy to the queue head; None means the step is
    power-gated (no frequency fits under the threshold).

    The queue is the arrivals head:tail, whose arrival times in order are
    times[head:tail], and k is the stream count that `choose_concurrency`
    gives for its kinds. cost_memo holds the group costs of batch-size lists
    already planned against `table`; the batch-size lists repeat, so each is
    summed once.

    Returns (requests served, (batches, streams, freq_idx), duration_s,
    energy_j, power_w), whose inner tuple is the leading fields of the
    dispatch's `BatchDispatch`.
    """
    top_freq, deadline_ms = table.n_freqs - 1, config.deadline_ms
    wait_ms = (now - times[head]) * 1000.0
    sizes = [choose_batch(tail - head, table, deadline_ms, wait_ms, top_freq)]
    offset = head + sizes[0]
    while len(sizes) < k and offset < tail:
        b = choose_batch(tail - offset, table, deadline_ms, (now - times[offset]) * 1000.0, top_freq)
        sizes.append(b)
        offset += b
    # Retry with one stream, the carve's first group, when no frequency fits
    # the groups under the cap; one group has nothing to retry.
    whole = sizes, offset - head
    for groups, n_served in (whole, (sizes[:1], sizes[0])) if len(sizes) > 1 else (whole,):
        t_scale, p_scale = table.concurrency[len(groups)]
        costs = cost_memo.get(key := tuple(groups))
        if costs is None:
            costs = cost_memo[key] = []
            for f in range(table.n_freqs):
                # left to right, as the built-in sum adds floats only up to 3.11
                serial_ms = serial_energy = 0.0
                for b in groups:
                    latency_ms, energy_j = table.entries[(b, f)]
                    serial_ms += latency_ms
                    serial_energy += energy_j
                costs.append((serial_ms, serial_energy, serial_energy * 1000.0 / serial_ms * p_scale))
        allowed = [f for f in range(table.n_freqs) if costs[f][2] <= threshold_w]
        if not allowed:
            continue
        f = choose_frequency(groups[0], table, deadline_ms, wait_ms, allowed)
        serial_ms, serial_energy, power_w = costs[f]
        # the log keeps every dispatch's batch list: copy it to its exact size,
        # as an appended list keeps spare capacity
        duration_s = serial_ms / t_scale / 1000.0
        return n_served, (list(groups), len(groups), f), duration_s, serial_energy * p_scale / t_scale, power_w
    return None
