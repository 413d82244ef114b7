"""edcarb benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {demo-cli,search,sim-load,all}
        [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--spans FILE]

Run from anywhere inside a source checkout; the program is imported from
`src/`. Prints one `metric NAME VALUE UNIT` line per metric that applies,
then, as the last line, a JSON object with `correct`, `attempted`, `failed`
and `metrics`. Exits 1 when any output check fails and 2 when the checkout
has no edcarb source. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import E2E, PER_LAYER, REPORTED, WORKLOADS, e2e_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 120
REQUIRED = ("src/edcarb/__init__.py", "configs/demo/demo.json", "configs/demo/ci_trace.csv")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: alternate untraced and traced passes, report per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny inputs and a single set-up")
    p.add_argument("--spans", help="with --trace 1, write every recorded span to this JSON-lines file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: not an edcarb checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    expected = json.loads((HERE / "expected.json").read_text())
    result = run_workload(args, expected)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    """One set-up in a fresh interpreter: import the CLI, build the inputs."""
    from workloads import BY_NAME

    start = time.perf_counter()
    import edcarb.cli  # noqa: F401

    import_s = time.perf_counter() - start
    BY_NAME[args.workload].setup(args.seed, args.smoke)
    print(json.dumps({"import_s": import_s}))
    return 0


class SetupProbes:
    """Fresh-process set-ups: wall time (interpreter start, imports, inputs)
    and the CLI import time each probe reports."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            self.cmd.append("--smoke")
        self.walls: list[float] = []
        self.imports: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        self.walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        self.imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------


def _pinned_problems(workload, outputs, pinned: dict) -> dict[str, list[str]]:
    """Compare summary scalars with the recorded ones (floats at rel 1e-9)."""
    found = workload.scalars(outputs)
    problems: dict[str, list[str]] = {}
    for name, want in pinned.items():
        got = found.get(name)
        if got is None:
            bad = "missing"
        elif isinstance(want, float):
            bad = None if math.isclose(got, want, rel_tol=1e-9) else f"{got!r} != recorded {want!r}"
        else:
            bad = None if got == want else f"{got!r} != recorded {want!r}"
        if bad:
            problems.setdefault(workload.scalar_op(name), []).append(f"{name}: {bad}")
    return problems


def run_workload(args, expected: dict) -> dict:
    from tracing import Tracer, layer_metrics
    from workloads import BY_NAME

    workload = BY_NAME[args.workload]
    probes = SetupProbes(args)
    import edcarb.cli  # noqa: F401  (same imports as a probe)

    inputs = workload.setup(args.seed, args.smoke)
    pinned = {}
    if workload.seed_independent or args.seed == DEFAULT_SEED:
        pinned = expected[workload.name]["smoke" if args.smoke else "full"]
    tracer = Tracer() if args.trace else None
    n_probes = 1 if args.smoke else SETUP_REPEATS

    stage_times: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    passes = {False: 0, True: 0}
    layer_passes: list[dict] = []
    output_values: dict = {}
    attempted = failed = 0
    shown: list[str] = []
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    try:
        start = time.perf_counter()
        n = 0
        while True:
            pass_start = time.perf_counter()
            use_tracer = tracer if tracer is not None and n % 2 == 1 else None
            out = tmp / f"pass{n}"
            out.mkdir()
            if use_tracer:
                use_tracer.reset()
                use_tracer.install()
            try:
                timings, outputs = workload.run(inputs, out, use_tracer)
            finally:
                if use_tracer:
                    use_tracer.uninstall()
            problems = workload.check(inputs, outputs)
            for op, more in _pinned_problems(workload, outputs, pinned).items():
                problems.setdefault(op, []).extend(more)
            attempted += len(problems)
            failed += sum(1 for found in problems.values() if found)
            shown.extend(f"{op}: {p}" for op, found in problems.items() for p in found)
            passes[use_tracer is not None] += 1
            for stage, seconds in timings.items():
                stage_times[use_tracer is not None].setdefault(stage, []).append(seconds)
            if use_tracer:
                layer_passes.append(layer_metrics(use_tracer.snapshot()))
            else:
                output_values = workload.output_values(outputs)
            del outputs
            shutil.rmtree(out)
            n += 1
            # Probes are spread evenly over the run's length.
            due = len(probes.walls) * args.seconds / n_probes
            if len(probes.walls) < n_probes and time.perf_counter() - start >= due:
                probes.probe()
            # Stop when another pass like the last one would overrun.
            now = time.perf_counter()
            if now - start + (now - pass_start) > args.seconds and n >= (2 if tracer else 1):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    # Probes run between passes so that they sample the whole run.
    while len(probes.walls) < n_probes:
        probes.probe()
    setup_s = statistics.median(probes.walls)
    import_s = statistics.median(probes.imports)
    for line in shown[:20]:
        print(f"problem {line}")
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    best = {stage: min(times) for stage, times in stage_times[False].items()}
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "error_rate": failed / attempted,
        **output_values,
        **workload.values(inputs, best),
    }
    units = {m.name: m.unit for m in E2E}
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"passes: {passes[False]} untraced, {passes[True]} traced; times are each stage's fastest pass")
    for metric in e2e_for(workload.name):
        print(f"metric {metric.name} {e2e[metric.name]:.6g} {metric.unit}")

    if tracer is None:
        reported = {name: {"value": e2e[name], "unit": units[name]} for name in REPORTED}
    else:
        layers = {
            name: statistics.median(lm[name] for lm in layer_passes) for name in layer_passes[0]
        }
        layers["cli.import_s"] = import_s
        traced_wall = sum(min(times) for times in stage_times[True].values())
        layers["trace_overhead_pct"] = (traced_wall / e2e["wall_s"] - 1.0) * 100.0
        for name, unit, _ in PER_LAYER:
            print(f"metric {name} {layers[name]:.6g} {unit}")
        reported = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        if args.spans:
            with open(args.spans, "w") as fh:
                for record in tracer.span_records(os.getpid()) + tracer.child_spans:
                    fh.write(json.dumps(record) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}


# ---------------------------------------------------------------------------
# every workload, untraced and traced
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            worst = max(worst, proc.returncode)
            try:
                child = json.loads(lines[-1])
            except (IndexError, ValueError):
                summary["correct"] = False
                continue
            summary["correct"] &= child["correct"]
            summary["attempted"] += child["attempted"]
            summary["failed"] += child["failed"]
            for metric, value in child["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
