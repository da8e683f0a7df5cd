"""Property tests of the three input formats and of the commands that read them.

Every generated document either parses or raises ConfigurationError, never
another exception; ND files also round-trip bit-exactly. Cheap run configs go
through ``simulate`` and then ``reconstruct``, which either write the documented
run directory, with every cell of its tables finite, or refuse with exit 1 or 2
and one line on stderr. Examples are derandomized, so every run draws the same
ones. Damaged copies of one simulated run directory go through ``reconstruct``
the same way.
"""

import contextlib
import io
import json
import shutil
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitlsm import ConfigurationError, NdMap, load_nd_map, parse_scenario, save_nd_map
from eitlsm.cli import main, parse_run_config

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


def edit(text: bytes, data) -> bytes:
    """``text`` with up to 8 bytes replaced by up to 8 drawn bytes, at a drawn place."""
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, min(len(text), start + 8)))
    return text[:start] + data.draw(st.binary(max_size=8)) + text[stop:]


@FIXED
@given(nd_maps, st.data())
def test_nd_file_edits_parse_or_reject(path, nd, data):
    save_nd_map(nd, path)
    path.write_bytes(edit(path.read_bytes(), data))
    try:
        load_nd_map(path)
    except ConfigurationError:
        pass


# cheap run configs: valid or garbage inclusions on coarse meshes and grids, with settings
# that are sometimes out of range
scenes = st.fixed_dictionaries({"inclusions": st.lists(inclusions, min_size=1, max_size=2)})
runs = st.fixed_dictionaries(
    {"scenario": scenes,
     "h_target": st.floats(0.2, 0.5), "N": st.integers(1, 6),
     "grid": st.fixed_dictionaries({"spacing": st.floats(0.15, 0.3)})},
    optional={"noise": st.fixed_dictionaries({"level": st.floats(0.0, 0.1),
                                              "seed": st.integers(0, 5)}),
              "delta_rule": st.fixed_dictionaries(
                  {"epsilon": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)}),
              "cutoff": st.fixed_dictionaries({"rule": st.sampled_from(["multiplier", "quantile"]),
                                               "c": st.floats(0.5, 10.0),
                                               "q": st.floats(0.0, 1.0)})},
)
RUN_FILES = sorted(["measured.nd", "background.nd", "simulate_manifest.json", "indicator.csv",
                    "mask.csv", "indicator.pgm", "reconstruct_manifest.json"])


def run_command(command, config, out, err=None):
    """``main`` on one command; a refusal must print one line to stderr (kept in ``err``,
    when given), marked by its code."""
    err = io.StringIO() if err is None else err
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config), "--out", str(out)])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1
        assert lines[0].startswith("configuration error:" if code == 2 else "error:")
    return code


DISK_RUN = {"scenario": {"inclusions": [{"shape": "disk", "center": [0.3, 0.0], "radius": 0.25,
                                         "h": [[2.0, 0.0], [0.0, 2.0]]}]},
            "h_target": 0.3, "N": 4, "grid": {"spacing": 0.3}}


@FIXED
@given(runs)
@example(dict(DISK_RUN, delta_rule={"epsilon": 0.999999999}))
@example(dict(DISK_RUN, delta_rule={"epsilon": 0.9999999999999999}))
@example(dict(DISK_RUN, delta_rule={"epsilon": 1e-300}))  # no point feasible: exit 1
def test_simulate_then_reconstruct_exits_cleanly(doc):
    # a fresh directory per example: hypothesis refuses function-scoped fixtures like tmp_path
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "run.json"), Path(tmp, "out")
        config.write_text(json.dumps(doc))
        if run_command("simulate", config, out):
            assert not out.exists()
            return
        if run_command("reconstruct", config, out):
            return
        assert sorted(p.name for p in out.iterdir()) == RUN_FILES
        mask = np.loadtxt(out / "mask.csv", delimiter=",", skiprows=1, ndmin=2)
        table = np.loadtxt(out / "indicator.csv", delimiter=",", skiprows=1, ndmin=2)
        image = np.loadtxt(out / "indicator.pgm", skiprows=3, ndmin=2)
        assert all(np.isfinite(cells).all() for cells in (mask, table, image))
        assert not (mask[:, 2].astype(bool) & ~table[:, 4].astype(bool)).any()
        written = {name: (out / name).read_bytes() for name in RUN_FILES}
        assert run_command("reconstruct", config, out) == 0
        assert written == {name: (out / name).read_bytes() for name in RUN_FILES}


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """One cheap simulated run directory and its config, shared by the examples."""
    tmp = tmp_path_factory.mktemp("damaged")
    config, out = tmp / "run.json", tmp / "run"
    config.write_text(json.dumps(DISK_RUN))
    assert run_command("simulate", config, out) == 0
    return config, out


@FIXED
@given(st.sampled_from(["measured.nd", "background.nd"]), st.booleans(), st.data())
def test_reconstruct_of_damaged_nd_files_exits_cleanly(simulated, name, with_manifest, data):
    config, run = simulated
    with tempfile.TemporaryDirectory() as tmp:
        for copied in ("measured.nd", "background.nd"):
            shutil.copy(run / copied, tmp)
        if with_manifest:
            shutil.copy(run / "simulate_manifest.json", tmp)
        path = Path(tmp, name)
        text = path.read_bytes()
        edited = edit(text, data)
        path.write_bytes(edited)
        err = io.StringIO()
        code = run_command("reconstruct", config, tmp, err)
        if code == 2:
            assert "measured.nd" in err.getvalue() or "background.nd" in err.getvalue()
        if with_manifest and edited != text:
            assert code == 2  # the manifest's SHA-256 no longer matches
