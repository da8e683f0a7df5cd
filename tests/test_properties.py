"""Property tests of the three input formats: run configs, scenarios and ND files.

Every generated document either parses or raises ConfigurationError, never
another exception; ND files also round-trip bit-exactly. Examples are
derandomized, so every run draws the same ones.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitlsm import ConfigurationError, NdMap, load_nd_map, parse_scenario, save_nd_map
from eitlsm.cli import parse_run_config

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
numbers = st.integers(-2, 20) | st.floats(-1.0, 2.0) | json_values
pairs = st.lists(numbers, max_size=3) | json_values


def section(**fields):
    """Objects holding any subset of ``fields``, or any other JSON value."""
    return st.fixed_dictionaries({}, optional=fields) | json_values


def symmetric(entries):
    return st.builds(lambda a, b, d: [[a, b], [b, d]], entries, entries, entries)


# valid disks and ellipses, and shapes with any subset of fields holding any value
coords = st.lists(st.floats(-0.3, 0.3), min_size=2, max_size=2)
sizes = st.floats(0.05, 0.3)
h_valid = symmetric(st.floats(-2.0, 2.0) | st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
inclusions = (
    st.fixed_dictionaries({"shape": st.just("disk"), "center": coords, "radius": sizes, "h": h_valid})
    | st.fixed_dictionaries({"shape": st.just("ellipse"), "center": coords,
                             "semi_axes": st.lists(sizes, min_size=2, max_size=2), "h": h_valid},
                            optional={"tilt": st.floats(-4.0, 4.0)})
    | st.fixed_dictionaries(
        {"shape": st.sampled_from(["disk", "ellipse"]) | json_values},
        optional={"center": pairs, "radius": numbers, "semi_axes": pairs, "tilt": numbers,
                  "h": symmetric(numbers | pairs) | json_values})
)
scenarios = section(
    inclusions=st.lists(inclusions, max_size=2) | json_values,
    absorption_region=section(components=st.lists(numbers, max_size=3) | json_values,
                              shapes=st.lists(inclusions, max_size=2) | json_values),
)
configs = section(
    scenario=st.none() | scenarios,
    h_target=numbers, N=numbers, threads=numbers,
    noise=section(level=numbers, seed=numbers),
    grid=section(spacing=numbers, r_max=numbers),
    delta_rule=section(epsilon=numbers),
    cutoff=section(rule=st.sampled_from(["multiplier", "quantile"]) | json_values, c=numbers, q=numbers),
)


def parses_or_rejects(parse, doc) -> None:
    try:
        parse(doc)
    except ConfigurationError:
        pass


@FIXED
@given(configs)
def test_run_config_parses_or_rejects(doc):
    parses_or_rejects(parse_run_config, doc)


@FIXED
@given(scenarios)
def test_scenario_parses_or_rejects(doc):
    parses_or_rejects(parse_scenario, doc)


finite = st.floats(allow_nan=False, allow_infinity=False)
nd_maps = st.integers(1, 3).flatmap(lambda N: st.builds(
    NdMap,
    matrix=st.lists(st.builds(complex, finite, finite), min_size=4 * N * N, max_size=4 * N * N)
    .map(lambda v: np.reshape(v, (2 * N, 2 * N))),
    N=st.just(N),
    provenance=st.text(string.ascii_letters + string.digits + string.punctuation, min_size=1, max_size=12),
))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("nd") / "map.nd"


@FIXED
@given(nd_maps)
def test_nd_file_round_trips_bit_exactly(path, nd):
    save_nd_map(nd, path)
    back = load_nd_map(path)
    assert (back.N, back.provenance) == (nd.N, nd.provenance)
    assert back.matrix.tobytes() == nd.matrix.tobytes()


@FIXED
@given(nd_maps, st.data())
def test_nd_file_edits_parse_or_reject(path, nd, data):
    save_nd_map(nd, path)
    text = path.read_bytes()
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, min(len(text), start + 8)))
    path.write_bytes(text[:start] + data.draw(st.binary(max_size=8)) + text[stop:])
    try:
        load_nd_map(path)
    except ConfigurationError:
        pass
