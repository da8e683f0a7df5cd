import json
import os
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
    assert cfg.noise_level == 0.0
    assert cfg.grid == {"spacing": 0.05, "r_max": 0.9}
    assert cfg.cutoff["rule"] == "multiplier"


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
    assert len(cfg.scenario.geometry.components) == 1


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
    ({}, ["--seed", "-1"], "--seed"),
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
])
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, doc, extra, field):
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run"), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and field in err
    assert not (tmp_path / "run").exists()


def test_unwritable_output_exits_2_naming_path(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_config(tmp_path, {"h_target": 0.2, "N": 4, "measured_path": "sub/m.nd"})
    for out, path in ((taken, taken), (tmp_path / "run", tmp_path / "run" / "sub" / "m.nd")):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and str(path) in err
        assert "Traceback" not in err


def test_unwritable_nd_path_refused_before_the_mesh(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a mesh before checking its output paths")

    monkeypatch.setattr(cli, "build_disk_mesh", refuse)
    (tmp_path / "run" / "taken").mkdir(parents=True)
    for name in ("sub/b.nd", "taken"):
        cfg = write_config(tmp_path, {"background_path": name})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and str(tmp_path / "run" / name) in err


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


def test_simulate_seed_override(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": SWEEP_DOC, "h_target": 0.1, "N": 6,
        "noise": {"level": 0.01, "seed": 42},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out1)])
    main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "43"])
    a = load_nd_map(out1 / "measured.nd")
    b = load_nd_map(out2 / "measured.nd")
    assert not np.array_equal(a.matrix, b.matrix)


def test_simulate_refuses_non_coercive(tmp_path, capsys):
    bad = {"inclusions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.2,
                           "h": [[-4.0, 0.0], [0.0, -4.0]]}]}
    cfg = write_config(tmp_path, {"scenario": bad, "h_target": 0.2, "N": 4})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "coercivity" in capsys.readouterr().err


def test_simulate_refuses_inclusion_no_centroid_samples(tmp_path, capsys):
    # gamma = -I on a disk that holds no triangle centroid of the mesh
    bad = {"inclusions": [{"shape": "disk", "center": [0.5, 0.0], "radius": 0.01,
                           "h": [[-2.0, 0.0], [0.0, -2.0]]}]}
    mesh = build_disk_mesh(0.2)
    field = parse_scenario(bad)
    assert not field.geometry.contains(mesh.vertices[mesh.triangles].mean(axis=1)).any()
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


def test_reconstruct_refuses_undecodable_manifest(small_run, tmp_path, capsys):
    _, cfg, out = small_run
    run = tmp_path / "binary"
    copy_nd_files(out, run)
    (run / "simulate_manifest.json").write_bytes(b"\xff\xfe{")
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


def test_blas_threads_default_to_one():
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = f"import os, eitlsm; print(*(os.environ[v] for v in {blas!r}))"
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(eitlsm.__file__))
    for preset, expected in (({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
        proc = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == expected


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
