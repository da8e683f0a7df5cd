"""Command-line front end: simulate, reconstruct, verify.

A run is described by a JSON configuration document alone (unknown keys are
rejected so typos fail loudly) and writes files of fixed names in ``--out``,
``measured.nd`` and ``background.nd`` among them, with a manifest echoing the
configuration and the assumption-check verdicts, which is sufficient to
reproduce the outputs bit for bit.

Exit codes: 0 success, 1 verification or feasibility failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .dipole import (AuxCircle, DipoleSpec, disk_dipole_traces, layer_current_matrix,
                     layer_current_multipliers, singular_trace)
from .errors import ConfigurationError, EstimationError, ToolkitError
from .forward import (
    add_noise,
    assemble_system,
    compute_background_nd_map,
    compute_nd_map,
    load_nd_map,
    nd_map_from_system,
    reciprocity_defect,
    save_nd_map,
)
from .geometry import BoundaryField, DiskMesh, build_disk_mesh, check_mesh_settings, fourier_modes
from .media import (AdmittanceField, Disk, json_number, json_object, load_scenario, parse_scenario,
                    read_json, scenario_document)
from .sampling import (
    DEFAULT_CUTOFF_MULTIPLIER,
    RelativeData,
    check_cutoff,
    check_sweep_settings,
    estimate_support,
    indicator_map,
    make_relative_data,
    morozov_alpha,
    support_cutoff,
    sweep_diagnostics,
    tikhonov_solve,
    write_indicator_csv,
    write_indicator_pgm,
    write_mask_csv,
)

FORMAT_VERSIONS = {"ndmap": 1, "indicator_csv": 1, "mask_csv": 1, "manifest": 1}

_DEFAULTS = {
    "scenario": None,
    "h_target": 0.03,
    "N": 16,
    "noise": {"level": 0.0, "seed": 0},
    "grid": {"spacing": 0.05, "r_max": 0.9},
    "delta_rule": {"epsilon": 0.01},
    "cutoff": {"rule": "multiplier", "c": DEFAULT_CUTOFF_MULTIPLIER, "q": 0.1},
}

# the ND maps in the output directory, reconstruct's outputs, and every name it writes
_ND_FILES = ("measured.nd", "background.nd")
_RECONSTRUCT_FILES = ("indicator.csv", "mask.csv", "indicator.pgm")
_RECONSTRUCT_WRITES = _RECONSTRUCT_FILES + ("reconstruct_manifest.json", "indicator_infeasible.csv")


class RunConfig(namedtuple("RunConfig", "scenario h_target N noise grid delta_rule cutoff raw")):
    """A validated run: ``scenario`` an AdmittanceField, ``noise``, ``grid``, ``delta_rule``
    and ``cutoff`` the sections with their defaults filled, ``raw`` the document as given."""

    __slots__ = ()


def parse_run_config(doc: dict, base_dir: str = ".") -> RunConfig:
    """Validate a configuration document; unknown keys are rejected."""
    json_object(doc, "config", _DEFAULTS)
    noise, grid, delta, cutoff = (
        {**_DEFAULTS[name], **json_object(doc.get(name, {}), f"config.{name}", _DEFAULTS[name])}
        for name in ("noise", "grid", "delta_rule", "cutoff"))

    scenario = doc.get("scenario")
    if isinstance(scenario, str):
        scenario_field = load_scenario(os.path.join(base_dir, scenario))
    elif isinstance(scenario, dict):
        scenario_field = parse_scenario(scenario)
    elif scenario is None:
        scenario_field = parse_scenario({"inclusions": []})
    else:
        raise ConfigurationError("config.scenario: expected a path or an inline object")

    top = {**_DEFAULTS, **doc}
    h_target = json_number(top["h_target"], "config.h_target")
    check_mesh_settings(h_target, where="config.")
    n_order = json_number(top["N"], "config.N", integer=True)
    if n_order < 1:
        raise ConfigurationError(f"config.N: must be >= 1, got {n_order}")
    level = json_number(noise["level"], "config.noise.level")
    if not (0.0 <= level < 1.0):
        raise ConfigurationError(f"config.noise.level: must lie in [0, 1), got {level}")
    noise = {"level": level, "seed": json_number(noise["seed"], "config.noise.seed", integer=True)}
    if noise["seed"] < 0:
        raise ConfigurationError(f"config.noise.seed: must be >= 0, got {noise['seed']}")
    delta = {"epsilon": json_number(delta["epsilon"], "config.delta_rule.epsilon")}
    grid = {key: json_number(grid[key], f"config.grid.{key}") for key in ("spacing", "r_max")}
    if grid["r_max"] < 0.0:  # the library accepts an empty grid; a run on it finds no point
        raise ConfigurationError(f"config.grid.r_max: must be >= 0, got {grid['r_max']}")
    check_sweep_settings(grid["spacing"], grid["r_max"], delta["epsilon"], where="config.")
    cutoff = {"rule": cutoff["rule"], "c": json_number(cutoff["c"], "config.cutoff.c"),
              "q": json_number(cutoff["q"], "config.cutoff.q")}
    check_cutoff(**cutoff, where="config.")

    return RunConfig(scenario_field, h_target, n_order, noise, grid, delta, cutoff, raw=doc)


def load_run_config(path: str) -> RunConfig:
    return parse_run_config(read_json(path, "config"),
                            base_dir=os.path.dirname(os.path.abspath(path)))


def _write_manifest(out_dir: str, mode: str, cfg: RunConfig, extra: dict) -> str:
    manifest = {
        "tool": "eitlsm",
        "version": __version__,
        "mode": mode,
        "config": cfg.raw,
        "format_versions": FORMAT_VERSIONS,
    }
    manifest.update(extra)
    path = os.path.join(out_dir, f"{mode}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_simulate(cfg: RunConfig, out_dir: str) -> dict:
    """Simulate ND data: measured (optionally noisy) + background + manifest."""
    check_mesh_settings(cfg.h_target, cfg.N, where="config.")
    # its own files, and an earlier reconstruction's, which it removes below
    _refuse_directories(out_dir, "simulate", _ND_FILES + ("simulate_manifest.json",)
                        + _RECONSTRUCT_WRITES)
    measured_path, background_path = (os.path.join(out_dir, name) for name in _ND_FILES)
    mesh = build_disk_mesh(cfg.h_target)
    system = assemble_system(mesh, cfg.scenario)
    os.makedirs(out_dir, exist_ok=True)  # after the refusals: a refused run leaves no directory
    measured = nd_map_from_system(system, cfg.N)
    if cfg.noise["level"] > 0.0:
        measured = add_noise(measured, **cfg.noise)
    background = compute_background_nd_map(mesh, cfg.N)

    # an earlier run's reconstruction would otherwise sit beside the new maps
    _remove(out_dir, _RECONSTRUCT_WRITES)
    save_nd_map(measured, measured_path)
    save_nd_map(background, background_path)
    z = cfg.scenario.coercivity["z"]  # complex: [re, im] in JSON
    manifest_path = _write_manifest(out_dir, "simulate", cfg, {
        "mesh": {
            "h_target": cfg.h_target,
            "vertices": mesh.n_vertices,
            "triangles": len(mesh.triangles),
            "boundary": mesh.n_boundary,
        },
        "N": cfg.N,
        "noise": cfg.noise,
        "scenario": scenario_document(cfg.scenario),  # config.scenario may be a path
        "assumptions": {
            "coercivity": {**cfg.scenario.coercivity, "z": [z.real, z.imag]},
            "absorption": cfg.scenario.absorption,
        },
        "diagnostics": {"symmetry_defect": {"measured": measured.symmetry_defect(),
                                            "background": background.symmetry_defect()},
                        "fem": {"rings": len(mesh.ring_starts) - 2, "dense_rings": system.dense_rings},
                        "gamma_max": cfg.scenario.gamma_max},
        "files": list(_ND_FILES),
        "sha256": {name: _sha256(os.path.join(out_dir, name)) for name in _ND_FILES},
    })
    return {"measured": measured_path, "background": background_path, "manifest": manifest_path}


def _refuse_directories(out_dir: str, command: str, names) -> None:
    """Refuse a directory at any of ``names`` in ``out_dir``, before ``command`` does any work."""
    for path in (os.path.join(out_dir, name) for name in names):
        if os.path.isdir(path):
            raise ConfigurationError(f"{path}: a directory where {command} writes or removes a file")


def _remove(out_dir: str, names) -> None:
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def _sha256(path: str) -> str:
    import hashlib  # here, not at import: it loads OpenSSL, which only the digests need
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_simulated_with(cfg: RunConfig, out_dir: str) -> dict:
    """Refuse ND files whose ``simulate_manifest.json`` in ``out_dir`` records
    another mesh size, order, scenario or noise, or other SHA-256 digests, and a
    manifest that lacks any of these; ND files without a manifest are taken as is.
    Returns the digests it checked, by file name."""
    path = os.path.join(out_dir, "simulate_manifest.json")
    if not os.path.exists(path):
        return {}
    manifest = read_json(path, "simulate manifest")
    try:
        simulated = {"mesh.h_target": manifest["mesh"]["h_target"], "N": manifest["N"],
                     "config.scenario": manifest["scenario"], "config.noise": manifest["noise"]}
        digests = {name: manifest["sha256"][name] for name in _ND_FILES}
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"{path}: unreadable simulate manifest ({exc!r})") from None
    for name, value in (("mesh.h_target", cfg.h_target), ("N", cfg.N),
                        ("config.scenario", scenario_document(cfg.scenario)),
                        ("config.noise", cfg.noise)):
        if simulated[name] != value:
            raise ConfigurationError(
                f"{path}: {name} is {simulated[name]} in the simulate run but {value} "
                "in this config; refusing to mix runs"
            )
    for name, digest in digests.items():
        nd_path = os.path.join(out_dir, name)
        if os.path.isfile(nd_path) and _sha256(nd_path) != digest:
            raise ConfigurationError(f"{nd_path}: its SHA-256 is not the one {path} records; "
                                     "refusing to mix runs")
    return digests  # equal to the files' own, or load_nd_map refuses a missing file


def run_reconstruct(cfg: RunConfig, out_dir: str) -> dict:
    """Full sweep from the two ND-map files to indicator, mask and image outputs."""
    # no mesh is built here, but the config is refused as simulate refuses it
    check_mesh_settings(cfg.h_target, cfg.N, where="config.")
    _refuse_directories(out_dir, "reconstruct", _RECONSTRUCT_WRITES)
    digests = _check_simulated_with(cfg, out_dir)  # with no simulate manifest, hashed below
    measured_path, background_path = (os.path.join(out_dir, name) for name in _ND_FILES)
    measured, background = load_nd_map(measured_path), load_nd_map(background_path)
    digests = {n: digests.get(n) or _sha256(os.path.join(out_dir, n)) for n in _ND_FILES}
    for path, nd in ((measured_path, measured), (background_path, background)):
        if nd.N != cfg.N:
            raise ConfigurationError(f"{path}: ND map has N={nd.N} but config.N is {cfg.N}; "
                                     "refusing to mix runs")
    if np.array_equal(measured.matrix, background.matrix):
        raise ConfigurationError(f"{measured_path} and {background_path} hold the same ND map: "
                                 "with no inclusion and no noise there is nothing to locate")
    try:
        data = make_relative_data(measured, background)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{measured_path} and {background_path}: {exc}") from None
    # no mesh: the sweep takes the closed-form disk dipole traces
    imap = indicator_map(data, None, cfg.grid, cfg.delta_rule)
    if not imap.feasible.any():
        # keep the evidence without clobbering any earlier successful output
        write_indicator_csv(imap, os.path.join(out_dir, "indicator_infeasible.csv"))
        raise EstimationError("every sweep point is infeasible at this discrepancy level")
    mask = estimate_support(imap, **cfg.cutoff)
    indicator_path, mask_path, image_path = (os.path.join(out_dir, name)
                                             for name in _RECONSTRUCT_FILES)
    write_indicator_csv(imap, indicator_path)
    write_mask_csv(imap, mask, mask_path)
    write_indicator_pgm(imap, image_path)
    _remove(out_dir, ("indicator_infeasible.csv",))  # an earlier failed run's evidence
    manifest_path = _write_manifest(out_dir, "reconstruct", cfg, {
        "N": data.N,
        "grid": cfg.grid,
        "delta_rule": cfg.delta_rule,
        "cutoff": cfg.cutoff,
        "feasible_points": int(imap.feasible.sum()),
        "total_points": len(imap),
        "diagnostics": {**sweep_diagnostics(imap, support_cutoff(imap, **cfg.cutoff)),
                        "singular_values": data.singular_values.tolist(),
                        "reciprocity_defect": reciprocity_defect(data.matrix)},
        "files": list(_RECONSTRUCT_FILES),
        "sha256": digests,  # of the ND files read
    })
    return {"indicator": indicator_path, "mask": mask_path, "image": image_path,
            "manifest": manifest_path}


# ---------------------------------------------------------------------------
# Verification suite


def _verify_checks(mesh: DiskMesh, n_order: int):
    """Yield (name, achieved, required) triples for the analytic-oracle suite."""
    modes = fourier_modes(n_order)
    band = np.abs(modes) <= 8

    background = compute_background_nd_map(mesh, n_order)
    diag = np.diag(background.matrix)
    oracle = 1.0 / np.abs(modes).astype(float)
    err = float((np.abs(diag - oracle) / oracle)[band].max())
    yield "background-spectrum", err, 0.02

    measured = compute_nd_map(mesh, AdmittanceField([Disk((0.0, 0.0), 0.5)], [np.eye(2)]), n_order)
    mu = (1.0 - 2.0) / (1.0 + 2.0)
    k = np.abs(modes).astype(float)
    oracle2 = (1.0 / k) * (1.0 + mu * 0.5 ** (2 * k)) / (1.0 - mu * 0.5 ** (2 * k))
    err2 = float((np.abs(np.diag(measured.matrix) - oracle2) / np.abs(oracle2))[band].max())
    yield "two-phase-spectrum", err2, 0.02

    phi = singular_trace(mesh, DipoleSpec(y=(0.0, 0.0), direction=(1.0, 0.0)), n_order)
    target = disk_dipole_traces((0.0, 0.0), (1.0, 0.0), n_order)[0]  # -1/(2pi) at n = +-1
    err3 = float(np.abs(phi.coeffs - target).max() * 2.0 * np.pi)
    yield "centered-dipole-trace", err3, 0.01

    aux = AuxCircle(radius=2.0, count=128)
    n_layer = 8
    quad = layer_current_matrix(aux, n_layer)
    closed = layer_current_multipliers(aux, n_layer)
    err4 = float(np.abs(quad - closed).max())
    yield "layer-operator-modes", err4, 1e-8

    # scalar closed forms on a 2-mode diagonal surrogate
    a, b = 0.37 - 0.21j, 0.93 + 0.44j
    surrogate = RelativeData(np.diag([a, a]).astype(complex), 1)
    rhs = BoundaryField(np.array([b, 0.0]), 1, smoothness=0.5)
    alpha = 0.123
    psi = tikhonov_solve(surrogate, rhs, alpha)
    expected = np.conj(a) * b / (abs(a) ** 2 + alpha)
    err5 = float(abs(psi.coeffs[0] - expected) / abs(expected))
    yield "scalar-tikhonov", err5, 1e-12

    delta = 0.4 * abs(b)
    res = morozov_alpha(surrogate, rhs, delta)
    alpha_expected = delta * abs(a) ** 2 / (abs(b) - delta)
    err6 = float(abs(res.alpha - alpha_expected) / alpha_expected)
    yield "scalar-morozov", err6, 1e-6


def run_verify(cfg: RunConfig) -> bool:
    """Run the oracle suite; prints one line per check, returns overall pass."""
    mesh = build_disk_mesh(cfg.h_target)
    n_order = min(cfg.N, (mesh.n_boundary - 1) // 2)  # the order the mesh resolves
    all_ok = True
    for name, achieved, required in _verify_checks(mesh, n_order):
        ok = achieved <= required
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: achieved {achieved:.3e} (required <= {required:.0e})")
    lowered = (f" at N={n_order} (config N={cfg.N}; 2N+1 <= {mesh.n_boundary} boundary vertices)"
               if n_order < cfg.N else "")
    print("verification " + ("passed" if all_ok else "FAILED") + lowered)
    return all_ok


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitlsm",
        description="Linear sampling reconstruction of admittance inclusions "
                    "in the unit disk from Neumann-to-Dirichlet data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=("simulate", "reconstruct", "verify"),
                        help="simulate ND-map files for a scenario, reconstruct the support "
                             "from them, or verify the analytic oracles")
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config) if args.config else parse_run_config({})
        if args.threads is not None and args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")

        if args.command == "verify":
            return 0 if run_verify(cfg) else 1
        run = run_simulate if args.command == "simulate" else run_reconstruct
        print("wrote " + ", ".join(run(cfg, args.out).values()))
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an output path that cannot be written
        print(f"configuration error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> int:
    """``main`` with start-up's objects frozen, so the collection at exit skips them."""
    gc.freeze()
    return main()
