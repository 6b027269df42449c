"""``sim --config`` over arbitrary JSON: a ``SimConfig`` a simulation can be built
from, or a ValueError, which the CLI reports as a usage error; never another
exception.  No simulation is built, so no example can allocate a market."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim import cli  # noqa: E402
from brc20sim.sim import MAX_NORMAL_COUNT, SETTINGS, SimConfig  # noqa: E402

# scalars of every JSON type, counts about the ceiling and far past it, nested values
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
           | st.integers(-10**40, 10**40) | st.integers(MAX_NORMAL_COUNT - 2, MAX_NORMAL_COUNT + 2))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# mostly the settings' own keys, so that many examples reach SimConfig's checks
SIM = st.dictionaries(st.sampled_from(SETTINGS) | st.text(max_size=5), VALUES, max_size=4)
CONFIGS = st.dictionaries(st.just("sim") | st.text(max_size=3), SIM | VALUES, max_size=3)
TEXTS = (CONFIGS | VALUES).map(json.dumps) | st.text(max_size=20) | st.sampled_from([
    "1" * 4301, "[" * 100_000, '{"sim": ' * 3000 + "{}" + "}" * 3000, "", "NaN",
])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(text=TEXTS)
def test_any_config_file_is_a_sim_config_or_a_value_error(path, text):
    path.write_text(text, encoding="utf-8")
    try:
        config = cli._sim_config(cli._load_sim_overrides(str(path)))
    except ValueError:
        return
    assert isinstance(config, SimConfig)
    values = [getattr(config, name) for name in SETTINGS]
    assert all(type(v) is int and v > 0 for v in values), values
    assert config.congestion_normal_count <= MAX_NORMAL_COUNT
