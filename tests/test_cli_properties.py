"""Property tests: each CLI verb, run in process on any flag value or artifact
content, exits 0, 2, 3 or 4. A failure's first stderr line is an
``error[LABEL]`` line, no exception escapes ``cli.main``, and no artifact
holds a NaN, Infinity, nan or inf token."""

import io
import json
import math
import re
import shutil
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from edcarb import cli  # noqa: E402

DEMO_DIR = Path(__file__).resolve().parent.parent / "configs" / "demo"
# Short enough that a run takes milliseconds; rates are bounded so that
# rate x horizon stays at or below 10^4 arrivals.
HORIZON_S = 60.0
MAX_ARRIVALS = 1e4
NON_FINITE = re.compile(r"\b(?:NaN|Infinity|nan|inf)\b")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=20).filter(lambda text: not NON_FINITE.search(text)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A copy of the demo inputs with one config per sim mode, all on a short horizon."""
    target = tmp_path_factory.mktemp("cli") / "demo"
    shutil.copytree(DEMO_DIR, target)
    config = json.loads((target / "demo.json").read_text())
    config["sim"]["horizon_s"] = HORIZON_S
    for mode in ("batch", "llm", "mapping"):
        config["sim"]["mode"] = mode
        (target / f"{mode}.json").write_text(json.dumps(config))
    return target


@contextmanager
def scratch_dir():
    folder = Path(tempfile.mkdtemp())
    try:
        yield folder
    finally:
        shutil.rmtree(folder)


def run_cli(argv: list[str], out: Path) -> int:
    """Run one verb in process and check the error contract and its artifacts."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert stderr.getvalue().splitlines()[0].startswith("error[")
    for artifact in out.glob("*") if out.is_dir() else ():
        assert not NON_FINITE.search(artifact.read_text()), artifact.name
    return code


@settings(max_examples=40, deadline=None)
@given(ci_now=st.floats())
def test_schedule_on_any_ci_now(demo, ci_now):
    with scratch_dir() as out:
        argv = ["schedule", "--config", str(demo / "batch.json"), f"--ci-now={ci_now!r}", "--out", str(out)]
        code = run_cli(argv, out)
        # a valid intensity maps or is infeasible; an invalid one is refused
        assert code in ((0, 3) if 0 <= ci_now < math.inf else (2,))


def within_arrival_bound(text: str) -> bool:
    try:
        rate = float(text)
    except ValueError:
        return True
    return not (math.isfinite(rate) and rate * HORIZON_S > MAX_ARRIVALS)


rate_texts = (
    st.text(max_size=12)
    | st.floats(min_value=-10.0, max_value=MAX_ARRIVALS / HORIZON_S).map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "5e-324", " 3 ", "1_0"])
).filter(within_arrival_bound)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["batch", "llm", "mapping"]),
    rate=rate_texts,
    policy=st.sampled_from(["adaptive", "static"]),
)
def test_simulate_on_any_poisson_rate_and_policy(demo, mode, rate, policy):
    with scratch_dir() as out:
        argv = [
            "simulate", "--config", str(demo / f"{mode}.json"), "--trace", str(demo / "ci_trace.csv"),
            f"--arrivals=poisson:{rate}", "--policy", policy, "--out", str(out),
        ]
        run_cli(argv, out)


@settings(max_examples=40, deadline=None)
@given(
    appx=st.booleans(),
    fitness=st.sampled_from(["cdp", "delay"]),
    stacking=st.sampled_from([None, "2d", "3d"]),
    max_area_cm2=st.none() | st.floats(),
)
def test_explore_on_any_flags_and_area_cap(demo, appx, fitness, stacking, max_area_cm2):
    with scratch_dir() as out:
        config = json.loads((demo / "batch.json").read_text())
        config["design_space"]["max_area_cm2"] = max_area_cm2
        (out / "explore.json").write_text(json.dumps(config))
        argv = ["explore", "--config", str(out / "explore.json"), "--out", str(out / "o"), "--fitness", fitness]
        argv += ["--appx"] * appx + (["--stacking", stacking] if stacking else [])
        run_cli(argv, out / "o")


ARTIFACTS = {
    "best_design.json": {
        "meta": {"command": "explore"},
        "best": {"cdp_kg_s": 1e-4, "embodied_kg": 0.2, "latency_s": 5e-4},
    },
    "plan.json": {
        "meta": {"command": "schedule"},
        "power_threshold_w": 12.5,
        "system": {"power_w": 11.0, "ipw": 40.0},
    },
    "sim_report.json": {
        "meta": {"command": "simulate"},
        "total_energy_kwh": 0.01,
        "operational_g": 3.5,
        "inferences_done": 100,
        "deadline_misses": 2,
        "mean_tps": 0.0,
    },
}


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))


# every node of every artifact, the whole document included
REPORT_TARGETS = [(name, path) for name, doc in ARTIFACTS.items() for path in _paths(doc)]


def _replaced(doc, path, value):
    if not path:
        return value
    return {**doc, path[0]: _replaced(doc[path[0]], path[1:], value)}


@settings(max_examples=120, deadline=None)
@given(target=st.sampled_from(REPORT_TARGETS), value=json_values)
def test_report_on_fuzzed_artifacts(target, value):
    name, path = target
    with scratch_dir() as folder:
        (folder / "in").mkdir()
        for artifact, doc in ARTIFACTS.items():
            doc = _replaced(doc, path, value) if artifact == name else doc
            (folder / "in" / artifact).write_text(json.dumps(doc))
        run_cli(["report", "--in", str(folder / "in"), "--out", str(folder / "out")], folder / "out")
