"""Property test: any JSON value in any config section or key either loads
or fails as a ToolkitError, never as another exception."""

import json
import shutil
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from edcarb.cli_io import load_config  # noqa: E402
from edcarb.errors import ToolkitError  # noqa: E402

DEMO_DIR = Path(__file__).resolve().parent.parent / "configs" / "demo"
DEMO = json.loads((DEMO_DIR / "demo.json").read_text())

# Every section of the demo config, whole (key None) or one key of it.
TARGETS = [(section, None) for section in DEMO] + [
    (section, key) for section, spec in DEMO.items() if isinstance(spec, dict) for key in spec
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("fuzz") / "demo"
    shutil.copytree(DEMO_DIR, target)
    return target


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(TARGETS), value=json_values)
def test_any_json_value_loads_or_fails_as_toolkit_error(demo_dir, target, value):
    section, key = target
    config = json.loads(json.dumps(DEMO))
    if key is None:
        config[section] = value
    else:
        config[section][key] = value
    path = demo_dir / "fuzzed.json"
    path.write_text(json.dumps(config))
    try:
        load_config(path)
    except ToolkitError:
        pass
