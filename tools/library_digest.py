"""Run the library's searches and simulator against one source tree and print a digest per case.

Usage: python3 tools/library_digest.py TREE

TREE is a checkout of this repository; the library is imported from
``TREE/src``. The inputs come from this checkout's ``perfbench/gen.py`` (via
``perfbench/workloads.py``) and ``tests/support.py``, so two trees see the
same inputs:

- ``search_mapping`` on the 16 ``search`` workload instances at seeds 0-2,
  each with the full and the smoke ``SearchParams`` of that workload;
- the same 96 searches (``.reversed``) with each node's units listed in
  reverse order and their ids unchanged. Every generated node names its
  units ``u0``, ``u1``, ... in node order, so only these cases tell a
  tie-break on a unit's position in the node from one on its id;
- ``search_mapping`` on 300 of 400 ``support.random_scheduler_instance``
  draws (seed 99) with drawn beam width, candidate cap, local-search moves,
  segment limit and threshold. Every fourth draw (``i % 4 == 3``) is made
  but not searched, so each other case keeps the inputs it has in earlier
  versions of this script;
- ``exhaustive_search``, ``run_ga`` and ``pareto_front`` (over the GA's
  evaluated designs) on the ``search`` workload's design space at seeds
  0-2, for the cdp and delay fitnesses;
- the same three searches (``.stacked3d``) on that space with
  ``stacking=STACKED_3D``, so the two-die embodied branch (bonding and TSV
  terms) is covered as well as the planar one;
- ``run_simulation`` on every ``sim-load`` scenario at seeds 0-2;
- mapping-mode ``run_simulation`` (``sim.random``) on the two-DNN draws
  among 40 ``support.random_scheduler_instance`` draws (seed 7) of 5-8
  layers, 3 units and 2 frequencies, with drawn search parameters whose
  candidate cap is below the plans of every DNN, so each search samples
  its candidates. Each runs on a trace that jumps between a low and a high
  band at every sample, so every sample forces a re-plan;
- batch and llm ``run_simulation`` (``sim.queue.random``) on 60
  ``support.random_queue_scenario`` draws (seed 11), the two modes in
  turn: ``support.random_exec_table`` tables or three LLM variants, Poisson
  rates from nearly idle to four times a service rate of the mode, both
  policies, idle power on and off, and ``p_min_w`` draws under the least
  power of one batch dispatch, so that some steps are power-gated. Before
  these cases only the ``sim-load`` scenarios ran the queue step. The
  scenario's arrivals are columns of one to three kinds, and each run
  reads them from an arrivals CSV (see below);
- ``select_variants`` (``select.random``) on 60 cases (seed 13), each with
  2-3 variant sets of 1-3 variants. The variants come from
  ``support.random_scheduler_instance`` draws of 4 layers, the j-th of a
  set cut to 4 - j layers, and all map onto the node of one more draw (3
  units, 2 frequencies). Drawn search parameters make some searches
  enumerate their candidates and others sample them, and drawn latency
  constraints are met by the first combination in some cases, only by a
  later one in others, and by none in others still.
- ``exhaustive_search``, ``run_ga`` and ``pareto_front`` on spaces made to
  tie (``explore.ties``), for the cdp and delay fitnesses, planar and
  ``STACKED_3D``: the ``search`` workload's space at seeds 0-2 with each
  multiplier followed by a renamed copy of equal area and accuracy
  (``support.twin_multiplier``), so every design ties the twin of its
  multiplier; then 40 ``support.random_design_space`` draws (seed 17),
  whose gene lists also make dataflows, global buffers and transposed
  arrays tie in latency, with the ``support.make_workload`` workload and a
  small drawn GA. Some of these draws have no feasible design.
- ``search_mapping`` (``mapping.many``) on the first 8 two-DNN draws among
  ``support.random_scheduler_instance`` draws (seed 23) of 20-50 layers, 3
  units and 2 frequencies, at drawn thresholds. The first 6 search at the
  demo config's search settings (beam 8, candidate cap 256, 200 moves, 4
  segments) and the last 2 at beam 128, candidate cap 4,096 and 2,000 moves,
  so the beam ranks up to ~5 x 10^5 extensions of many-layer plans.
- batch and llm ``run_simulation`` (``sim.arrivals``) on 20
  ``support.random_queue_scenario`` draws (seed 19), the two modes in
  turn, each stretched to about 400 of the mode's slowest service times
  and with its Poisson arrivals replaced by arrivals in four windows,
  read from an arrivals CSV. In the first three quarters of a window only
  kind ``a`` arrives, at a tenth of that service rate; in the last quarter
  kinds ``a``, ``b`` and ``c`` arrive at two to eight times it. So the
  queue overloads in each burst, and each run ends in one. In most runs
  ``b`` and ``c`` drain from the queue between bursts and come back with
  the next one.
- ``run_ga`` (``explore.ga``) with one GA setting at a bound
  (``support.ga_extremes``: elitism 0 and population - 1, tournament size 1
  and above the population, crossover and mutation rates of 0 and 1), for
  the cdp and delay fitnesses: on the ``search`` workload's space at seeds
  0-2 (planar) and on its tie space with twin multipliers (``STACKED_3D``),
  with that workload's GA at 20 generations; then on 20
  ``support.random_design_space`` draws (seed 29) with a small drawn GA.
- ``exhaustive_search``, ``run_ga`` and ``pareto_front``
  (``explore.settings``) on the ``search`` workload's space at seeds 0-2
  with every run setting off its default (``clock_hz`` 7e8,
  ``dram_bytes_per_cycle`` 4.0, ``tsv_count`` 300), planar and
  ``STACKED_3D``, for the cdp and delay fitnesses. Every earlier space
  runs at 1 GHz, so only these cases show the clock reaching latency.
- ``prepare_mapping`` and one ``PreparedMapping.solve`` at a drawn
  threshold (``mapping.beam128``, ``.pool`` and ``.solve``) on 8
  ``support.random_scheduler_instance`` draws (seed 31) at the ``search``
  workload's settings (beam 128, candidate cap 2,048, 400 moves). Every
  second draw maps 3 DNNs: the added ones copy the first DNN's layers with
  drawn output bytes. Then the same on two 3-DNN draws of 6 layers, 3
  units and 2 frequencies (``mapping.beam512``) at beam 512 and candidate
  cap 4,096, which sample their candidates. The ``select.random`` and
  ``mapping.random`` cases run beams of 16 or less, and every earlier wide
  beam maps two DNNs.

Cases are listed in the order above; a new kind of case is added at the
end, so the older ones keep their inputs. Explicit arrivals reach the
library only through ``cli_io.load_arrivals``, on a CSV whose times are
written with ``repr`` and so read back exactly: the loader's signature is
the same on every tree, while ``TraceArrivals``'s constructor need not be.

Each line is a case name and the SHA-256 of the ``repr`` of a projection of
its result. A call that raises a ``ToolkitError`` prints ``raises exit=N``
and the SHA-256 of its message instead, as the CLI keys a refusal by exit
code and message; the path of a temporary directory in a message is first
replaced by a fixed token. Any other exception prints ``raises
<ExceptionType>``. The projection reads each field by name, so a field that
a tree no longer has makes the case raise instead of moving its digest:

- an ``EvaluatedDesign`` (the exhaustive optimum, each Pareto design) is
  its six genes in ``design_explorer._GENES`` order, then ``embodied_kg``,
  ``latency_s``, ``cdp_kg_s``, ``feasible`` and ``infeasibility_reason``.
  The chromosome's type and its other fields are left out;
- a ``GaResult`` is its best design, its history (``generation``,
  ``best_fitness`` and ``mean_fitness`` of each generation) and its
  evaluated designs in order;
- a ``MappingSolution`` is its plans and the three fields of its
  ``SystemEstimate``;
- a ``SimReport`` is every field, the decision log and the time series
  included. Each decision event is projected as ``(t_s, kind, detail)``,
  which reads the same whether a tree's events are one
  ``LogEvent(t_s, kind, detail)`` type or one record type per log shape;
- a ``select_variants`` result is the chosen variants' names, its
  ``MappingSolution`` as above, and each chosen plan's slowest segment
  latency, costed with ``segment_cost``.

Two trees behave the same on these inputs when the outputs of

    python3 tools/library_digest.py PARENT_TREE > a.txt
    python3 tools/library_digest.py CHANGED_TREE > b.txt

are equal (``diff a.txt b.txt``). A run takes under a minute on a 2-core
host (Python 3.11). Only the standard library is used.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a directory `_csv_arrivals` makes, as it may appear in a message
_TEMP_DIR = re.compile(re.escape(str(Path(tempfile.gettempdir()) / "edcarb-digest-")) + r"\w+")


_SIM_REPORT_FIELDS = (
    "total_energy_kwh",
    "operational_g",
    "inferences_done",
    "deadline_misses",
    "mean_tps",
    "arrivals_total",
    "backlog_at_horizon",
    "max_queue_len",
    "decision_log",
    "steps",
)


def _case(name: str, project, fn, *args, **kwargs):
    """Print the digest of ``project(fn(*args, **kwargs))`` under `name`."""
    from edcarb.errors import ToolkitError

    try:
        value = fn(*args, **kwargs)
        digest = hashlib.sha256(repr(project(value)).encode()).hexdigest()
    except ToolkitError as exc:  # a refusal: its exit code and message are the case's result
        message = _TEMP_DIR.sub("TEMP_DIR", str(exc))
        print(f"{name} raises exit={exc.exit_code} {hashlib.sha256(message.encode()).hexdigest()}")
        return None
    except Exception as exc:  # the exception type is the case's result
        print(f"{name} raises {type(exc).__name__}")
        return None
    print(f"{name} {digest}")
    return value


def _csv_arrivals(cli_io, times, kinds):
    """The arrivals of these columns, as ``cli_io.load_arrivals`` reads them
    from a CSV written to a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="edcarb-digest-") as tmp:
        path = Path(tmp) / "arrivals.csv"
        path.write_text("time_s,kind\n" + "".join(f"{t!r},{kind}\n" for t, kind in zip(times, kinds)))
        return cli_io.load_arrivals(path)


def _mapping(solution) -> tuple:
    e = solution.estimate
    return solution.plans, (e.throughput_inf_per_s, e.power_w, e.ipw)


def _sim(report) -> tuple:
    log = [(ev.t_s, ev.kind, ev.detail) for ev in report.decision_log]
    return tuple(log if name == "decision_log" else getattr(report, name) for name in _SIM_REPORT_FIELDS)


def _projections(design_explorer) -> tuple:
    """The projections of one design, of a list of designs and of a GaResult."""

    def design(d) -> tuple:
        genes = tuple(getattr(d.chromosome, gene) for gene in design_explorer._GENES)
        return genes + (d.embodied_kg, d.latency_s, d.cdp_kg_s, d.feasible, d.infeasibility_reason)

    def designs(ds) -> tuple:
        return tuple(map(design, ds))

    def ga_result(result) -> tuple:
        history = tuple((h.generation, h.best_fitness, h.mean_fitness) for h in result.history)
        return design(result.best), history, designs(result.evaluated)

    return design, designs, ga_result


def _explore(prefix: str, design_explorer, inputs, space, fitness: str) -> None:
    design, designs, ga_result = _projections(design_explorer)
    _case(f"{prefix}.exhaustive", design, design_explorer.exhaustive_search, space, inputs.conv, fitness)
    ga = _case(f"{prefix}.ga", ga_result, design_explorer.run_ga, space, inputs.ga, inputs.conv, fitness)
    if ga is not None:
        _case(f"{prefix}.pareto", designs, design_explorer.pareto_front, list(ga.evaluated), space)


def _perfbench_searches(workloads, design_explorer, edc_scheduler, stacked_3d) -> None:
    for seed in range(3):
        full = workloads.Search().setup(seed, smoke=False)
        smoke_params = workloads.Search().setup(seed, smoke=True).params
        for i, (models, node, threshold) in enumerate(full.instances):
            reversed_node = dataclasses.replace(node, units=node.units[::-1])
            for order, units_node in (("", node), (".reversed", reversed_node)):
                for label, params in (("full", full.params), ("smoke", smoke_params)):
                    _case(
                        f"mapping.perfbench.seed{seed}.{i}.{label}{order}",
                        _mapping, edc_scheduler.search_mapping, models, units_node, threshold, params,
                    )
        stacked_space = dataclasses.replace(full.space, stacking=stacked_3d)
        for fitness in ("cdp", "delay"):
            _explore(f"explore.seed{seed}.{fitness}", design_explorer, full, full.space, fitness)
            _explore(f"explore.seed{seed}.{fitness}.stacked3d", design_explorer, full, stacked_space, fitness)


def _random_searches(support, edc_scheduler) -> None:
    rng = random.Random(99)
    for i in range(400):
        models, node = support.random_scheduler_instance(rng)
        params = edc_scheduler.SearchParams(
            beam_width=rng.choice((1, 2, 4, 8, 16)),
            local_search_moves=rng.choice((0, 5, 50, 200)),
            max_segments=rng.choice((1, 2, 3, 4)),
            candidate_cap=rng.choice((1, 4, 16, 64, 256)),
            rng_seed=rng.randrange(1000),
        )
        threshold = rng.uniform(2.0, 30.0)
        if i % 4 != 3:
            _case(f"mapping.random.{i}", _mapping, edc_scheduler.search_mapping, models, node, threshold, params)


def _simulations(workloads, runtime_sim) -> None:
    for seed in range(3):
        inputs = workloads.SimLoad().setup(seed, smoke=False)
        for label, (cfg, trace, arrivals, kwargs) in inputs.scenarios.items():
            _case(f"sim.seed{seed}.{label}", _sim, runtime_sim.run_simulation, cfg, trace, arrivals, **kwargs)


def _random_simulations(support, edc_scheduler, runtime_sim) -> None:
    rng = random.Random(7)
    for i in range(40):
        models, node = support.random_scheduler_instance(rng, n_layers=rng.randint(5, 8), n_units=3, n_freqs=2)
        params = edc_scheduler.SearchParams(
            beam_width=rng.choice((1, 4, 16)),
            local_search_moves=rng.choice((0, 20, 200)),
            max_segments=rng.choice((2, 3, 4)),
            candidate_cap=rng.choice((8, 32, 128)),
            rng_seed=rng.randrange(1000),
        )
        # 40 samples, 10 s apart, alternating between 50-150 and 450-550 g/kWh
        samples = tuple(
            (10.0 * k, rng.uniform(50.0, 150.0) if k % 2 == 0 else rng.uniform(450.0, 550.0))
            for k in range(40)
        )
        config = runtime_sim.SimConfig(
            mode="mapping",
            horizon_s=400.0,
            deadline_ms=rng.uniform(5.0, 40.0),
            p_min_w=rng.uniform(7.0, 10.0),
            p_max_w=rng.uniform(10.0, 16.0),
        )
        if len(models) > 1:
            _case(
                f"sim.random.{i}", _sim, runtime_sim.run_simulation,
                config, runtime_sim.CiTrace(samples, horizon_s=400.0), None,
                node=node, workloads=models, search_params=params,
            )


def _random_queue_simulations(support, cli_io, runtime_sim) -> None:
    rng = random.Random(11)
    for i in range(60):
        mode = ("batch", "llm")[i % 2]
        config, trace, (times, kinds), kwargs = support.random_queue_scenario(rng, mode)
        arrivals = _csv_arrivals(cli_io, times, kinds)
        _case(f"sim.queue.random.{i}.{mode}", _sim, runtime_sim.run_simulation, config, trace, arrivals, **kwargs)


def _trace_arrival_simulations(support, cli_io, runtime_sim) -> None:
    rng = random.Random(19)
    for i in range(20):
        mode = ("batch", "llm")[i % 2]
        config, trace, _, kwargs = support.random_queue_scenario(rng, mode)
        # the slowest service: one request per dispatch on one stream at the
        # lowest frequency, or the slowest variant
        if mode == "batch":
            service_rate = 1000.0 / kwargs["table"].latency_ms(1, 0)
        else:
            slowest_tps = min(min(v.tokens_per_s) for v in kwargs["llm_variants"])
            service_rate = slowest_tps / config.tokens_per_request
        # about 400 of those service times, with the trace stretched to cover them
        horizon = 400.0 / service_rate
        stretch = horizon / config.horizon_s
        config = dataclasses.replace(config, horizon_s=horizon)
        trace = runtime_sim.CiTrace(tuple((t * stretch, ci) for t, ci in trace.samples), horizon_s=horizon)
        burst = rng.choice((2.0, 4.0, 8.0))
        window = horizon / 4.0
        times, kinds = [], []
        t = 0.0
        while True:
            in_burst = t % window >= 0.75 * window
            t += rng.expovariate(service_rate * (burst if in_burst else 0.1))
            if t >= horizon:
                break
            times.append(t)
            kinds.append(rng.choice("abc") if t % window >= 0.75 * window else "a")
        arrivals = _csv_arrivals(cli_io, times, kinds)
        _case(f"sim.arrivals.{i}.{mode}", _sim, runtime_sim.run_simulation, config, trace, arrivals, **kwargs)


def _variant_selections(support, edc_scheduler) -> None:
    def projection(node):
        def project(chosen) -> tuple:
            variants, solution = chosen
            slowest = tuple(
                max(edc_scheduler.segment_cost(seg, v, node)[0] for seg in plan)
                for v, plan in zip(variants, solution.plans)
            )
            return tuple(v.name for v in variants), _mapping(solution), slowest

        return project

    rng = random.Random(13)
    for i in range(60):
        _, node = support.random_scheduler_instance(rng, n_layers=4, n_units=3, n_freqs=2)
        sets = []
        for s in range(rng.randint(2, 3)):
            # the variants of a draw share its layer ids, so the first node profiles them all
            variants = []
            while len(variants) < 3:
                variants += support.random_scheduler_instance(rng, n_layers=4, n_units=1, n_freqs=1)[0]
            lighter = (
                dataclasses.replace(v, name=f"s{s}.v{j}", accuracy=0.9 - 0.05 * j, layers=v.layers[: 4 - j])
                for j, v in enumerate(variants[: rng.randint(1, 3)])
            )
            sets.append(edc_scheduler.ModelVariantSet(f"s{s}", tuple(lighter)))
        params = edc_scheduler.SearchParams(
            beam_width=rng.choice((1, 4, 8)),
            local_search_moves=rng.choice((0, 20, 100)),
            max_segments=rng.choice((1, 2, 4)),
            candidate_cap=rng.choice((8, 32, 256)),
            rng_seed=rng.randrange(1000),
        )
        constraint_ms = rng.uniform(1.0, 16.0)
        threshold = rng.uniform(3.0, 30.0)
        _case(
            f"select.random.{i}", projection(node), edc_scheduler.select_variants,
            sets, constraint_ms, 0.0, node, threshold, params,
        )


def _tie_searches(workloads, support, design_explorer, package_kind) -> None:
    for seed in range(3):
        full = workloads.Search().setup(seed, smoke=False)
        pairs = tuple(m for original in full.space.multipliers for m in (original, support.twin_multiplier(original)))
        space = dataclasses.replace(full.space, multipliers=pairs)
        for fitness in ("cdp", "delay"):
            _explore(f"explore.ties.seed{seed}.{fitness}", design_explorer, full, space, fitness)
            stacked_space = dataclasses.replace(space, stacking=package_kind.STACKED_3D)
            _explore(f"explore.ties.seed{seed}.{fitness}.stacked3d", design_explorer, full, stacked_space, fitness)
    rng = random.Random(17)
    for i in range(40):
        stacking = rng.choice(tuple(package_kind))
        space = support.random_design_space(rng, stacking)
        inputs = types.SimpleNamespace(
            conv=support.make_workload(),
            ga=design_explorer.GaParams(population_size=8, generations=5, rng_seed=rng.randrange(1000)),
        )
        for fitness in ("cdp", "delay"):
            _explore(f"explore.ties.random.{i}.{fitness}.{stacking.value}", design_explorer, inputs, space, fitness)


def _many_layer_searches(support, edc_scheduler) -> None:
    demo = edc_scheduler.SearchParams(beam_width=8, local_search_moves=200, max_segments=4, candidate_cap=256)
    larger = dataclasses.replace(demo, beam_width=128, local_search_moves=2000, candidate_cap=4096)
    rng = random.Random(23)
    i = 0
    while i < 8:
        models, node = support.random_scheduler_instance(rng, n_layers=rng.randint(20, 50), n_units=3, n_freqs=2)
        if len(models) != 2:
            continue
        label, params = ("demo", demo) if i < 6 else ("larger", larger)
        params = dataclasses.replace(params, rng_seed=rng.randrange(1000))
        threshold = rng.uniform(8.0, 40.0)
        _case(f"mapping.many.{i}.{label}", _mapping, edc_scheduler.search_mapping, models, node, threshold, params)
        i += 1


def _ga_extremes(workloads, support, design_explorer, package_kind) -> None:
    ga_result = _projections(design_explorer)[2]

    def run(prefix: str, space, workload, params) -> None:
        for fitness in ("cdp", "delay"):
            for name, overrides in support.ga_extremes(params.population_size).items():
                ga = dataclasses.replace(params, **overrides)
                _case(f"{prefix}.{fitness}.{name}", ga_result, design_explorer.run_ga, space, ga, workload, fitness)

    for seed in range(3):
        full = workloads.Search().setup(seed, smoke=False)
        params = dataclasses.replace(full.ga, generations=20)
        run(f"explore.ga.seed{seed}", full.space, full.conv, params)
        pairs = tuple(m for original in full.space.multipliers for m in (original, support.twin_multiplier(original)))
        tied = dataclasses.replace(full.space, multipliers=pairs, stacking=package_kind.STACKED_3D)
        run(f"explore.ga.ties.seed{seed}.stacked3d", tied, full.conv, params)
    rng = random.Random(29)
    for i in range(20):
        stacking = rng.choice(tuple(package_kind))
        space = support.random_design_space(rng, stacking)
        population = rng.randint(2, 12)
        params = design_explorer.GaParams(
            population_size=population,
            generations=rng.randint(1, 8),
            elitism_count=rng.randint(0, min(2, population - 1)),
            rng_seed=rng.randrange(1000),
        )
        run(f"explore.ga.random.{i}.{stacking.value}", space, support.make_workload(), params)


def _settings_searches(workloads, design_explorer, package_kind) -> None:
    for seed in range(3):
        full = workloads.Search().setup(seed, smoke=False)
        space = dataclasses.replace(full.space, clock_hz=7e8, dram_bytes_per_cycle=4.0, tsv_count=300)
        for stacking in (package_kind.PLANAR_2D, package_kind.STACKED_3D):
            for fitness in ("cdp", "delay"):
                prefix = f"explore.settings.seed{seed}.{fitness}.{stacking.value}"
                _explore(prefix, design_explorer, full, dataclasses.replace(space, stacking=stacking), fitness)


def _large_beam_searches(support, edc_scheduler) -> None:
    def pool(prepared) -> tuple:
        return tuple((plans, (e.throughput_inf_per_s, e.power_w, e.ipw)) for plans, e in prepared.pool)

    def run(name: str, models, node, params, threshold: float) -> None:
        prepared = _case(f"{name}.pool", pool, edc_scheduler.prepare_mapping, models, node, params)
        if prepared is not None:
            _case(f"{name}.solve", _mapping, prepared.solve, threshold)

    def three_dnns(rng, models):
        # the added DNNs copy the first one's layers with drawn output bytes
        while len(models) < 3:
            layers = tuple(dataclasses.replace(layer, output_bytes=rng.randint(10_000, 200_000)) for layer in models[0].layers)
            models = [*models, dataclasses.replace(models[0], name=f"m{len(models)}", layers=layers)]
        return models

    rng = random.Random(31)
    search = edc_scheduler.SearchParams(beam_width=128, local_search_moves=400, candidate_cap=2048)
    for i in range(8):
        models, node = support.random_scheduler_instance(rng)
        if i % 2 == 1:
            models = three_dnns(rng, models)
        params = dataclasses.replace(search, rng_seed=rng.randrange(1000))
        run(f"mapping.beam128.{i}", models, node, params, rng.uniform(4.0, 40.0))
    wide = dataclasses.replace(search, beam_width=512, candidate_cap=4096)
    for i in range(2):
        models, node = support.random_scheduler_instance(rng, n_layers=6, n_units=3, n_freqs=2)
        params = dataclasses.replace(wide, rng_seed=rng.randrange(1000))
        run(f"mapping.beam512.{i}", three_dnns(rng, models), node, params, rng.uniform(8.0, 40.0))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import support
    import workloads
    from edcarb import cli_io, design_explorer, edc_scheduler, runtime_sim
    from edcarb.carbon_model import PackageKind

    if Path(design_explorer.__file__).resolve().parent != tree / "src" / "edcarb":
        print(f"edcarb was imported from {design_explorer.__file__}, not from {tree}", file=sys.stderr)
        return 2
    _perfbench_searches(workloads, design_explorer, edc_scheduler, PackageKind.STACKED_3D)
    _random_searches(support, edc_scheduler)
    _simulations(workloads, runtime_sim)
    _random_simulations(support, edc_scheduler, runtime_sim)
    _random_queue_simulations(support, cli_io, runtime_sim)
    _variant_selections(support, edc_scheduler)
    _tie_searches(workloads, support, design_explorer, PackageKind)
    _many_layer_searches(support, edc_scheduler)
    _trace_arrival_simulations(support, cli_io, runtime_sim)
    _ga_extremes(workloads, support, design_explorer, PackageKind)
    _settings_searches(workloads, design_explorer, PackageKind)
    _large_beam_searches(support, edc_scheduler)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
