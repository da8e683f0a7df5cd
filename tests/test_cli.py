import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import eitlsm
from eitlsm import (ConfigurationError, SolverError, assemble_system, build_disk_mesh, cli,
                    dipole, forward, load_nd_map, media, parse_scenario)
from eitlsm.cli import load_run_config, main, parse_run_config
from conftest import SWEEP_DOC


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_RUN = {
    "scenario": SWEEP_DOC,
    "h_target": 0.08,
    "N": 8,
    "grid": {"spacing": 0.2, "r_max": 0.6},
    "delta_rule": {"epsilon": 0.01},
}


# ---------------------------------------------------------------------------
# configuration parsing


def test_defaults_and_sections():
    cfg = parse_run_config({})
    assert cfg.h_target == 0.03
    assert cfg.N == 16
    assert cfg.noise == {"level": 0.0, "seed": 0}
    assert cfg.grid == {"spacing": 0.05, "r_max": 0.9}
    assert cfg.delta_rule == {"epsilon": 0.01}
    assert cfg.cutoff == {"rule": "multiplier", "c": cli.DEFAULT_CUTOFF_MULTIPLIER, "q": 0.1}
    assert cfg.raw == {}
    # a partial section is filled from the defaults, its numbers as JSON numbers parse
    doc = {"noise": {"seed": 3.0}, "grid": {"r_max": 0}, "cutoff": {"rule": "quantile"}}
    cfg = parse_run_config(doc)
    assert cfg.noise == {"level": 0.0, "seed": 3} and type(cfg.noise["seed"]) is int
    assert cfg.grid == {"spacing": 0.05, "r_max": 0.0} and type(cfg.grid["r_max"]) is float
    assert cfg.cutoff == {"rule": "quantile", "c": cli.DEFAULT_CUTOFF_MULTIPLIER, "q": 0.1}
    assert cfg.raw is doc


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        parse_run_config({"mesh_size": 0.1})
    with pytest.raises(ConfigurationError, match="config.noise"):
        parse_run_config({"noise": {"level": 0.1, "sigma": 2}})
    with pytest.raises(ConfigurationError, match="config.cutoff"):
        parse_run_config({"cutoff": {"rule": "multiplier", "k": 3}})


def test_numeric_validation():
    with pytest.raises(ConfigurationError, match="h_target"):
        parse_run_config({"h_target": 0.7})
    with pytest.raises(ConfigurationError, match="noise.level"):
        parse_run_config({"noise": {"level": 1.2}})
    with pytest.raises(ConfigurationError, match="epsilon"):
        parse_run_config({"delta_rule": {"epsilon": -1.0}})
    with pytest.raises(ConfigurationError, match="threads"):
        parse_run_config({"threads": 0})


def test_scenario_path_resolution(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SWEEP_DOC))
    cfg_path = write_config(tmp_path, {"scenario": "scen.json"})
    cfg = load_run_config(cfg_path)
    assert len(cfg.scenario.components) == 1


def test_missing_config_file_is_configuration_error(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x80\x81")  # not UTF-8 text
    for path in ("/nonexistent/config.json", str(binary), str(tmp_path)):
        assert main(["verify", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and path in err


def _disk(**fields):
    return {"scenario": {"inclusions": [dict(SWEEP_DOC["inclusions"][0], **fields)]}}


def _ellipse(**fields):
    inclusion = {"shape": "ellipse", "center": [0.2, 0.1], "semi_axes": [0.3, 0.2],
                 "h": [[2.0, 0.0], [0.0, 2.0]]}
    return {"scenario": {"inclusions": [dict(inclusion, **fields)]}}


@pytest.mark.parametrize("doc,extra,field", [
    ({"N": "abc"}, [], "config.N"),
    ({"N": 2.7}, [], "config.N"),
    ({"N": True}, [], "config.N"),
    ({"h_target": [1]}, [], "config.h_target"),
    ({"noise": {"seed": None}}, [], "config.noise.seed"),
    ({"noise": {"level": 0.01, "seed": -1}}, [], "config.noise.seed"),
    ({"grid": {"spacing": "x"}}, [], "config.grid.spacing"),
    ({"threads": "two"}, [], "config.threads"),
    ({"cutoff": {"c": "x"}}, [], "config.cutoff.c"),
    ({"measured_path": "measured.nd"}, [], "config.measured_path"),
    (_disk(radius="big"), [], "inclusions[0].radius"),
    (_ellipse(semi_axes=3), [], "inclusions[0].semi_axes"),
    (_ellipse(tilt="steep"), [], "inclusions[0].tilt"),
    ({"scenario": "missing.json"}, [], "missing.json"),
    ({"directions": "z"}, [], "config.directions"),
    ({"grid": {"r_max": 0.95}}, [], "config.grid.r_max"),
    ({"grid": {"spacing": 0}}, [], "config.grid.spacing"),
    ({"cutoff": {"c": 0.5}}, [], "config.cutoff.c"),
    ({"cutoff": {"rule": "quantile", "q": 1.5}}, [], "config.cutoff.q"),
    ({"grid": {"r_max": -0.5}}, [], "config.grid.r_max"),
    ({"scenario": dict(SWEEP_DOC, absorption_region={"shapes": SWEEP_DOC["inclusions"]})}, [],
     "scenario.absorption_region"),
    ({"measured_path": "x.nd", "background_path": "x.nd"}, [], "config.background_path"),
    ({"measured_path": "simulate_manifest.json"}, [], "config.measured_path"),
    ({"background_path": "./sub/../mask.csv"}, [], "config.background_path"),
    ({"grid": {"spacing": 1e-300}}, [], "config.grid.spacing"),
    ({"grid": {"spacing": 5e-324}}, [], "config.grid.spacing"),
    ({"grid": {"spacing": 5e-4}}, [], "config.grid.spacing"),
    ({"h_target": 0.1, "N": 30}, [], "config.N"),
    ({"h_target": 1e-4}, [], "config.h_target"),
    ({"h_target": 5e-324}, [], "config.h_target"),
    ({"measured_path": "/tmp/run/mask.csv"}, [], "config.measured_path"),
    ({"background_path": "sub/../../b.nd"}, [], "config.background_path"),
    ({"measured_path": "sub/.."}, [], "config.measured_path"),
    (_disk(radius=-0.25), [], "inclusions[0].radius"),
    (_ellipse(semi_axes=[0.3, -0.2]), [], "inclusions[0].semi_axes"),
    ({"measured_path": None}, [], "config.measured_path"),
    ({"background_path": 7}, [], "config.background_path"),
    ({"measured_path": ["a"]}, [], "config.measured_path"),
    ({"h_target": float("nan")}, [], "config.h_target"),
    ({"h_target": 10**400}, [], "config.h_target"),
    (_disk(shape="triangle"), [], "inclusions[0].shape"),
    (_disk(h=[[1.0, 0.0]]), [], "inclusions[0].h"),
    ({}, ["--threads", "0"], "--threads"),
    ({"directions": "x"}, [], "config.directions"),
])
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, doc, extra, field):
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and field in err
    assert not (tmp_path / "run").exists()


def test_unknown_command_exits_2_naming_the_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulat"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'simulat'" in err
    assert all(name in err for name in ("simulate", "reconstruct", "verify"))


def test_seed_flag_refused(capsys):
    # the noise seed is config.noise.seed alone
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_unwritable_output_exits_2_naming_path(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_config(tmp_path, {"h_target": 0.2, "N": 4})
    assert main(["simulate", "--config", cfg, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(taken) in err
    assert "Traceback" not in err


def test_unwritable_nd_path_refused_before_the_mesh(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a mesh before checking its output paths")

    monkeypatch.setattr(cli, "build_disk_mesh", refuse)
    for name in ("background.nd", "measured.nd"):
        run = tmp_path / name.split(".")[0]
        (run / name).mkdir(parents=True)
        assert main(["simulate", "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and str(run / name) in err


def test_reconstruct_refuses_aliasing_order_before_work(tmp_path, capsys):
    cfg = write_config(tmp_path, {"h_target": 0.1, "N": 30})
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "config.N" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_perturbation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"h_target": 0.1, "N": 6})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    measured = load_nd_map(out / "measured.nd")
    background = load_nd_map(out / "background.nd")
    assert np.abs(measured.matrix - background.matrix).max() <= 1e-10
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert manifest["mode"] == "simulate"
    assert manifest["assumptions"]["coercivity"]["holds"]
    assert manifest["N"] == 6
    defects = manifest["diagnostics"]["symmetry_defect"]
    assert max(defects["measured"], defects["background"]) < 1e-10
    # gamma = I everywhere: only the centre and ring 1 are eliminated densely
    assert manifest["diagnostics"]["fem"] == {"rings": 10, "dense_rings": 1}
    assert manifest["diagnostics"]["gamma_max"] == 1.0


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": SWEEP_DOC, "h_target": 0.1, "N": 6,
        "noise": {"level": 0.01, "seed": 42},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("measured.nd", "background.nd", "simulate_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    measured = load_nd_map(out1 / "measured.nd")
    assert measured.provenance == "noisy(0.01,42)"
    # the disk reaches radius 0.55: triangles with gamma != I touch ring 6 of 10, at radius 0.6
    manifest = json.loads((out1 / "simulate_manifest.json").read_text())
    assert manifest["diagnostics"]["fem"] == {"rings": 10, "dense_rings": 6}
    assert manifest["diagnostics"]["gamma_max"] == 3.0  # gamma = 3 I inside the disk


def test_simulate_noise_seed_from_config(tmp_path):
    maps = []
    for seed in (42, 43):
        noise = {"level": 0.01, "seed": seed}
        cfg = write_config(tmp_path, {"scenario": SWEEP_DOC, "h_target": 0.1, "N": 6,
                                      "noise": noise}, f"seed{seed}.json")
        out = tmp_path / f"seed{seed}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        maps.append(load_nd_map(out / "measured.nd").matrix)
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["config"]["noise"] == noise and manifest["noise"] == noise
    assert not np.array_equal(*maps)


def test_simulate_refuses_non_coercive(tmp_path, capsys):
    bad = {"inclusions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.2,
                           "h": [[-4.0, 0.0], [0.0, -4.0]]}]}
    cfg = write_config(tmp_path, {"scenario": bad, "h_target": 0.2, "N": 4})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "coercivity" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # refused before the output directory is made


def test_simulate_refuses_overflowing_stiffness(tmp_path, capsys):
    # gamma = (1 + 1e308) I passes the coercivity check, but its element stiffness overflows
    huge = {"inclusions": [{"shape": "disk", "center": [0.3, 0.0], "radius": 0.25,
                            "h": [[0.0, 0.0], [0.0, 0.0]]},
                           {"shape": "disk", "center": [-0.4, 0.0], "radius": 0.25,
                            "h": [[1e308, 0.0], [0.0, 1e308]]}]}
    cfg = write_config(tmp_path, {"scenario": huge, "h_target": 0.1, "N": 4})
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "inclusions[1].h" in err and len(err.strip().splitlines()) == 1
    assert not list(out.glob("*.nd"))


@pytest.mark.parametrize("contrast", [1e12, 1e20])
@pytest.mark.parametrize("command", ["simulate", "reconstruct", "verify"])
def test_contrast_above_bound_exits_2(tmp_path, capsys, command, contrast):
    # off-centre, the ring elimination loses about contrast * 1e-16 of the map
    disk = {"shape": "disk", "center": [0.5, 0.0], "radius": 0.3,
            "h": [[contrast, 0.0], [0.0, contrast]]}
    cfg = write_config(tmp_path, {"scenario": {"inclusions": [disk]}, "h_target": 0.1, "N": 8})
    out = tmp_path / "x"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "inclusions[0].h" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_simulate_nearly_insulating_inclusion(tmp_path):
    disk = {"shape": "disk", "center": [0.3, 0.0], "radius": 0.25,
            "h": [[1e-16 - 1.0, 0.0], [0.0, 1e-16 - 1.0]]}
    cfg = write_config(tmp_path, {"scenario": {"inclusions": [disk]}, "h_target": 0.1, "N": 8})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 0
    manifest = json.loads((tmp_path / "x" / "simulate_manifest.json").read_text())
    assert manifest["diagnostics"]["symmetry_defect"]["measured"] <= 1e-12
    assert manifest["diagnostics"]["gamma_max"] == 1.0


def test_simulate_refuses_inclusion_no_centroid_samples(tmp_path, capsys):
    # gamma = -I on a disk that holds no triangle centroid of the mesh
    bad = {"inclusions": [{"shape": "disk", "center": [0.5, 0.0], "radius": 0.01,
                           "h": [[-2.0, 0.0], [0.0, -2.0]]}]}
    mesh = build_disk_mesh(0.2)
    field = parse_scenario(bad)
    assert not field.components[0].contains(mesh.vertices[mesh.triangles].mean(axis=1)).any()
    with pytest.raises(SolverError, match="coercivity"):
        assemble_system(mesh, field)
    cfg = write_config(tmp_path, {"scenario": bad, "h_target": 0.2, "N": 4})
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "coercivity" in capsys.readouterr().err
    assert not list(out.glob("*.nd"))


def test_simulate_singular_system_exits_1(tmp_path, capsys, monkeypatch):
    # gamma = 0 on every triangle passes the coercivity check on the scenario's
    # values but zeroes every ring block, so the elimination meets a singular one
    monkeypatch.setattr(media.AdmittanceField, "evaluate_batch",
                        lambda self, points: np.zeros((len(points), 2, 2), dtype=complex))
    cfg = write_config(tmp_path, {"h_target": 0.2, "N": 4})
    out = tmp_path / "x"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: constrained Neumann system is singular: "
                          "Schur complement of ring 0")
    assert "Traceback" not in err
    assert not list(out.glob("*.nd"))


def test_runs_without_scipy(tmp_path):
    cfg = write_config(tmp_path, SMALL_RUN)
    out = str(tmp_path / "out")
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now fails\n"
            "from eitlsm.cli import main\n"
            f"print([main([command, '--config', {cfg!r}, '--out', {out!r}])\n"
            "       for command in ('simulate', 'reconstruct', 'verify')])\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(eitlsm.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.stdout.splitlines()[-1:] == ["[0, 0, 0]"], proc.stderr


# ---------------------------------------------------------------------------
# reconstruct


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smallrun")
    cfg = write_config(tmp, SMALL_RUN)
    out = tmp / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    return tmp, cfg, out


def test_reconstruct_outputs(small_run):
    _, _, out = small_run
    for name in ("indicator.csv", "mask.csv", "indicator.pgm", "reconstruct_manifest.json"):
        assert (out / name).exists()
    header = (out / "indicator.csv").read_text().splitlines()[0]
    assert header == "x,y,indicator,alpha,feasible"
    assert (out / "mask.csv").read_text().splitlines()[0] == "x,y,inside"
    manifest = json.loads((out / "reconstruct_manifest.json").read_text())
    assert manifest["mode"] == "reconstruct"
    assert manifest["feasible_points"] > 0
    diagnostics = manifest["diagnostics"]
    flags = diagnostics["flags"]
    assert set(flags) == {"ok", "infeasible-low", "infeasible-high", "not-converged"}
    assert sum(flags.values()) == manifest["total_points"]
    assert flags["ok"] == manifest["feasible_points"]
    assert 0 < diagnostics["morozov_steps"]["median"] <= diagnostics["morozov_steps"]["max"]
    assert diagnostics["alpha"]["min"] <= diagnostics["alpha"]["max"]
    cut = diagnostics["cutoff"]
    assert cut["value"] == pytest.approx(70.0 * diagnostics["indicator"]["min"])
    assert cut["gap_below"] >= 0.0 and cut["gap_above"] > 0.0
    spectrum = diagnostics["singular_values"]  # weighted, of the measured - background difference
    assert len(spectrum) == 2 * manifest["N"] and (np.diff(spectrum) <= 0).all()
    assert diagnostics["reciprocity_defect"] < 1e-10


def test_quick_start_newton_steps(tmp_path):
    # README's quick start: scenario file, run configuration, simulate, reconstruct
    write_config(tmp_path, SWEEP_DOC, "scenario.json")
    cfg = write_config(tmp_path, {"scenario": "scenario.json", "h_target": 0.03, "N": 16,
                                  "grid": {"spacing": 0.05, "r_max": 0.9},
                                  "delta_rule": {"epsilon": 0.01}}, "run.json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    diagnostics = json.loads((out / "reconstruct_manifest.json").read_text())["diagnostics"]
    assert diagnostics["flags"]["ok"] == 1009
    assert diagnostics["morozov_steps"]["median"] <= 5
    assert diagnostics["morozov_steps"]["max"] <= 12


def test_reconstruct_rerun_identical(small_run):
    tmp, cfg, out = small_run
    before = {n: (out / n).read_bytes() for n in ("indicator.csv", "mask.csv", "indicator.pgm")}
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    for name, data in before.items():
        assert (out / name).read_bytes() == data


def test_reconstruct_threads_match(small_run, tmp_path):
    tmp, cfg, out = small_run
    out2 = tmp_path / "threaded"
    out2.mkdir()
    for n in ("measured.nd", "background.nd"):
        (out2 / n).write_bytes((out / n).read_bytes())
    assert main(["reconstruct", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    assert (out2 / "indicator.csv").read_bytes() == (out / "indicator.csv").read_bytes()


def test_reconstruct_refuses_mixed_runs(small_run, tmp_path, capsys):
    tmp, _, out = small_run
    run = tmp_path / "mixed"
    run.mkdir()
    for n in ("measured.nd", "background.nd", "simulate_manifest.json"):
        (run / n).write_bytes((out / n).read_bytes())
    for change, field in (({"h_target": 0.1}, "mesh.h_target"), ({"N": 6}, "N")):
        cfg = write_config(tmp_path, dict(SMALL_RUN, **change))
        assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{field} is" in err
    assert not (run / "indicator.csv").exists()


def test_reconstruct_refuses_nd_file_of_another_run(tmp_path, capsys):
    # README's disk at h 0.1, its background.nd replaced by that of an h 0.2 run at N 8
    for h_target in (0.2, 0.1):  # cfg is then the h 0.1 run's
        cfg = write_config(tmp_path, {"scenario": SWEEP_DOC, "h_target": h_target, "N": 8},
                           f"h{h_target}.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / f"h{h_target}")]) == 0
    run = tmp_path / "h0.1"
    manifest = json.loads((run / "simulate_manifest.json").read_text())
    assert manifest["sha256"] == {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
                                  for name in ("measured.nd", "background.nd")}
    (run / "background.nd").write_bytes((tmp_path / "h0.2" / "background.nd").read_bytes())
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error")
    assert str(run / "background.nd") in err[0] and "measured.nd" not in err[0]
    assert not (run / "indicator.csv").exists()
    # a manifest without digests is unreadable: the mix is refused, naming the manifest
    del manifest["sha256"]
    (run / "simulate_manifest.json").write_text(json.dumps(manifest))
    assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error")
    assert str(run / "simulate_manifest.json") in err[0] and "sha256" in err[0]
    assert not (run / "indicator.csv").exists()


@pytest.mark.parametrize("order", [6, 10])
def test_reconstruct_refuses_nd_order_other_than_config(small_run, tmp_path, capsys, order):
    # no simulate manifest: the ND headers alone record the order
    _, _, out = small_run
    run = tmp_path / "order"
    copy_nd_files(out, run)
    cfg = write_config(tmp_path, dict(SMALL_RUN, N=order))
    assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert str(run / "measured.nd") in err and f"config.N is {order}" in err
    assert not list(run.glob("indicator*"))


def test_reconstruct_refuses_undecodable_manifest(small_run, tmp_path, capsys):
    _, cfg, out = small_run
    run = tmp_path / "binary"
    copy_nd_files(out, run)
    (run / "simulate_manifest.json").write_bytes(b"\xff\xfe{")
    assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(run / "simulate_manifest.json") in err
    assert not (run / "indicator.csv").exists()


def test_reconstruct_refuses_manifest_without_mesh(small_run, tmp_path, capsys):
    _, cfg, out = small_run
    run = tmp_path / "empty"
    copy_nd_files(out, run)
    (run / "simulate_manifest.json").write_text("{}")
    assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and str(run / "simulate_manifest.json") in err
    assert not (run / "indicator.csv").exists()


def copy_nd_files(src, dst):
    dst.mkdir()
    for n in ("measured.nd", "background.nd"):
        (dst / n).write_bytes((src / n).read_bytes())


def test_reconstruct_needs_no_mesh(small_run, tmp_path, monkeypatch):
    _, cfg, out = small_run
    run = tmp_path / "nomesh"
    copy_nd_files(out, run)

    def refuse(*args, **kwargs):
        raise AssertionError("reconstruct built a mesh or an FEM system")

    for module, name in ((cli, "build_disk_mesh"), (cli, "assemble_system"),
                         (dipole, "assemble_system")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(forward.FemSystem, "__init__", refuse)
    assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 0
    assert (run / "mask.csv").read_bytes() == (out / "mask.csv").read_bytes()


def test_reconstruct_refuses_overflowing_nd_entry(small_run, tmp_path, capsys):
    # finite in the file, but the |n|^(1/2) weighting overflows it; LAPACK's
    # SVD used to spin forever on the result
    _, cfg, out = small_run
    run = tmp_path / "huge"
    copy_nd_files(out, run)
    lines = (run / "measured.nd").read_text().splitlines()
    lines[1] = " ".join(["1e308"] + lines[1].split()[1:])
    (run / "measured.nd").write_text("\n".join(lines) + "\n")
    assert main(["reconstruct", "--config", cfg, "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert str(run / "measured.nd") in err and str(run / "background.nd") in err
    assert not list(run.glob("indicator*.csv"))


def test_console_entry_freezes_and_main_does_not(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"h_target": 0.2, "N": 4})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert gc.get_freeze_count() == 0  # in-process callers keep a collector that sees everything
    monkeypatch.setattr(cli, "main", gc.get_freeze_count)
    try:
        assert cli.console_main() > 0
    finally:
        gc.unfreeze()


def test_blas_threads_default_to_one():
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, eitlsm; print(*(os.environ[v] for v in {blas!r}))"
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(eitlsm.__file__))
    for preset, expected in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == expected


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL; only the ND digests of simulate and reconstruct need it
    code = "import sys, eitlsm.cli; print('hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(eitlsm.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_reconstruct_all_infeasible_exits_nonzero(small_run, tmp_path, capsys):
    # measured differs from background in the mode n = -N alone: the weighted
    # difference has rank one, so every dipole trace keeps more than epsilon of its
    # norm on the null directions, and every point is infeasible-low
    _, cfg, out = small_run
    out2 = tmp_path / "inf"
    out2.mkdir()
    background = load_nd_map(out / "background.nd")
    forward.save_nd_map(background, out2 / "background.nd")
    matrix = background.matrix.copy()
    matrix[0, 0] += 0.1
    forward.save_nd_map(forward.NdMap(matrix, background.N, "fem"), out2 / "measured.nd")
    assert main(["reconstruct", "--config", cfg, "--out", str(out2)]) == 1
    assert "infeasible" in capsys.readouterr().err
    rows = (out2 / "indicator_infeasible.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",0") for row in rows)
    # the real measured map back: a success removes the failed run's evidence
    (out2 / "measured.nd").write_bytes((out / "measured.nd").read_bytes())
    assert main(["reconstruct", "--config", cfg, "--out", str(out2)]) == 0
    assert not (out2 / "indicator_infeasible.csv").exists()
    assert (out2 / "mask.csv").exists()


def test_simulate_removes_an_earlier_reconstruction(tmp_path, capsys):
    outputs = ("indicator.csv", "mask.csv", "indicator.pgm", "reconstruct_manifest.json",
               "indicator_infeasible.csv")
    out = tmp_path / "run"
    configs = []
    for k, center in enumerate(([0.3, 0.0], [-0.4, 0.2])):
        disk = {**SWEEP_DOC["inclusions"][0], "center": center}
        configs.append(write_config(tmp_path, dict(SMALL_RUN, h_target=0.1, N=8,
                                                   scenario={"inclusions": [disk]}), f"{k}.json"))
    assert main(["simulate", "--config", configs[0], "--out", str(out)]) == 0
    assert main(["reconstruct", "--config", configs[0], "--out", str(out)]) == 0
    (out / "indicator_infeasible.csv").write_text("x,y,indicator,alpha,feasible\n")
    assert main(["simulate", "--config", configs[1], "--out", str(out)]) == 0
    assert not [name for name in outputs if (out / name).exists()]
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert manifest["config"]["scenario"]["inclusions"][0]["center"] == [-0.4, 0.2]

    # a refused simulate, exit 1 or 2, leaves the directory as it was
    assert main(["reconstruct", "--config", configs[1], "--out", str(out)]) == 0
    (out / "indicator_infeasible.csv").write_text("x,y,indicator,alpha,feasible\n")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(outputs) <= set(before)
    non_coercive = {"shape": "disk", "center": [0.0, 0.0], "radius": 0.3,
                    "h": [[-3.0, 0.0], [0.0, -3.0]]}
    bad_radius = {**SWEEP_DOC["inclusions"][0], "radius": -0.25}
    for code, disk in ((1, non_coercive), (2, bad_radius)):
        cfg = write_config(tmp_path, dict(SMALL_RUN, h_target=0.1, N=8,
                                          scenario={"inclusions": [disk]}), "bad.json")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error" if code == 1 else "configuration error")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def snapshot(run):
    return {path.name: path.read_bytes() if path.is_file() else "dir" for path in run.iterdir()}


@pytest.mark.parametrize("command,names", [
    ("simulate", ("simulate_manifest.json", "indicator.csv", "mask.csv", "indicator.pgm",
                  "reconstruct_manifest.json", "indicator_infeasible.csv")),
    ("reconstruct", ("indicator.csv", "mask.csv", "indicator.pgm", "reconstruct_manifest.json",
                     "indicator_infeasible.csv")),
])
def test_directory_at_a_name_the_command_writes_leaves_out_as_it_was(small_run, tmp_path, capsys,
                                                                      command, names):
    # another scenario for simulate, another epsilon for reconstruct; a directory at any
    # name the command writes or removes is refused before any work, byte for byte
    _, _, out = small_run
    disk = {**SWEEP_DOC["inclusions"][0], "center": [-0.4, 0.2]}
    cfg = write_config(tmp_path, dict(SMALL_RUN, delta_rule={"epsilon": 0.05},
                                      scenario={"inclusions": [disk]}))
    for name in names:
        run = tmp_path / name
        shutil.copytree(out, run)
        (run / name).unlink(missing_ok=True)
        (run / name).mkdir()
        before = snapshot(run)
        assert main([command, "--config", cfg, "--out", str(run)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")
        assert str(run / name) in err[0]
        assert snapshot(run) == before


@pytest.mark.parametrize("epsilon", [1.0, 2.0])
def test_epsilon_at_least_one_exits_2(tmp_path, capsys, epsilon):
    # delta = epsilon ||phi_y|| >= ||phi_y|| makes every point infeasible-high: refused
    # before any ND file is read
    doc = dict(SMALL_RUN, delta_rule={"epsilon": epsilon})
    cfg = write_config(tmp_path, doc)
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "config.delta_rule.epsilon" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_default_run_refuses_identical_maps(tmp_path, capsys, monkeypatch):
    # no --config: the default scenario has no inclusion, so the two maps are equal
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "run"]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--out", "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert os.path.join("run", "measured.nd") in err and os.path.join("run", "background.nd") in err
    assert not list((tmp_path / "run").glob("indicator*"))


def test_reconstruct_missing_data_files(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    code = main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "empty")])
    assert code == 2  # missing ND files surface as configuration errors
    assert "error" in capsys.readouterr().err


def test_reconstruct_into_a_missing_directory_creates_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_RUN)
    missing = tmp_path / "missing"
    assert main(["reconstruct", "--config", cfg, "--out", str(missing)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(missing / "measured.nd") in err[0]
    assert not missing.exists()
    # reconstruct reads from --out: a regular file there is refused on its first read
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["reconstruct", "--config", cfg, "--out", str(afile)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"configuration error: {afile / 'measured.nd'}: Not a directory"]


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, {"h_target": 0.02, "N": 16})
    assert main(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [ln.split()[1] for ln in lines if ln.startswith(("PASS", "FAIL"))]
    expected = ["background-spectrum:", "two-phase-spectrum:", "centered-dipole-trace:",
                "layer-operator-modes:", "scalar-tikhonov:", "scalar-morozov:"]
    assert checks == expected  # every check exactly once
    assert lines[-1] == "verification passed"  # N=16 resolved: no lowering to report
    assert all(ln.startswith("PASS") for ln in lines if ":" in ln and "verification" not in ln)


def test_verify_fails_on_coarse_mesh(tmp_path, capsys):
    cfg = write_config(tmp_path, {"h_target": 0.3})
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL background-spectrum" in out
    # 24 boundary vertices resolve N=11, not the default 16
    assert out.splitlines()[-1] == ("verification FAILED at N=11 "
                                    "(config N=16; 2N+1 <= 24 boundary vertices)")


def _sweep_heavy_mask(tmp_path, ellipse, name):
    cfg = write_config(tmp_path, {"scenario": {"inclusions": [ellipse]}, "h_target": 0.05,
                                  "N": 16, "grid": {"spacing": 0.025, "r_max": 0.9},
                                  "delta_rule": {"epsilon": 0.01}}, f"{name}.json")
    out = tmp_path / name
    for command in ("simulate", "reconstruct"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "mask.csv", delimiter=",", skiprows=1, ndmin=2)
    return {(round(x / 0.025), round(y / 0.025)): inside for x, y, inside in rows}


def test_reflection_reflects_the_sweep_heavy_mask(tmp_path):
    # the anisotropic complex ellipse of the sweep-heavy workload, and its mirror image in
    # the x-axis, a symmetry of mesh and grid: centre (x, -y), tilt -> -tilt, h12 -> -h12
    ellipse = {"shape": "ellipse", "center": [0.2, 0.1], "semi_axes": [0.3, 0.2], "tilt": 0.4,
               "h": [[[1.0, -0.5], [0.3, -0.1]], [[0.3, -0.1], [2.0, -0.3]]]}
    mirrored = dict(ellipse, center=[0.2, -0.1], tilt=-0.4,
                    h=[[[1.0, -0.5], [-0.3, 0.1]], [[-0.3, 0.1], [2.0, -0.3]]])
    mask = _sweep_heavy_mask(tmp_path, ellipse, "sweep-heavy")
    reflected = {(i, -j): inside for (i, j), inside in mask.items()}
    assert 0 < sum(mask.values()) < len(mask) == 4053 and reflected != mask
    assert _sweep_heavy_mask(tmp_path, mirrored, "mirrored") == reflected
