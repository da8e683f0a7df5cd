"""Command-line front end: simulate, reconstruct, verify.

A run is described by a JSON configuration document (unknown keys are
rejected so typos fail loudly) plus a handful of flag overrides. Every
simulate/reconstruct run writes a manifest echoing the configuration,
the seeds and the assumption-check verdicts, which is sufficient to
reproduce the outputs bit for bit.

Exit codes: 0 success, 1 verification or feasibility failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dipole import (AuxCircle, DipoleSpec, disk_dipole_traces, layer_current_matrix,
                     layer_current_multipliers, singular_trace)
from .errors import ConfigurationError, EstimationError, ToolkitError
from .forward import (
    add_noise,
    assemble_system,
    compute_background_nd_map,
    load_nd_map,
    nd_map_from_system,
    reciprocity_defect,
    save_nd_map,
)
from .geometry import BoundaryField, DiskMesh, build_disk_mesh, check_mesh_settings, fourier_modes
from .media import check_absorption, json_number, load_scenario, parse_scenario
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
    "directions": "max-xy",
    "measured_path": "measured.nd",
    "background_path": "background.nd",
}

# the files simulate and reconstruct write beside the two ND files
_RUN_FILES = ("simulate_manifest.json", "reconstruct_manifest.json", "indicator.csv",
              "mask.csv", "indicator.pgm", "indicator_infeasible.csv")


@dataclass
class RunConfig:
    scenario: object
    h_target: float
    N: int
    noise_level: float
    noise_seed: int
    grid: dict
    epsilon: float
    cutoff: dict
    directions: str
    measured_path: str
    background_path: str
    raw: dict = field(default_factory=dict)


def _merge_section(name: str, given: dict, defaults: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigurationError(f"config.{name}: expected an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigurationError(f"config.{name}: unknown keys {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(given)
    return merged


def parse_run_config(doc: dict, base_dir: str = ".") -> RunConfig:
    """Validate a configuration document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config: top level must be an object")
    unknown = sorted(set(doc) - set(_DEFAULTS))
    if unknown:
        raise ConfigurationError(f"config.{unknown[0]}: unknown keys {unknown}")
    noise = _merge_section("noise", doc.get("noise", {}), _DEFAULTS["noise"])
    grid = _merge_section("grid", doc.get("grid", {}), _DEFAULTS["grid"])
    delta = _merge_section("delta_rule", doc.get("delta_rule", {}), _DEFAULTS["delta_rule"])
    cutoff = _merge_section("cutoff", doc.get("cutoff", {}), _DEFAULTS["cutoff"])

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
    seed = json_number(noise["seed"], "config.noise.seed", integer=True)
    if seed < 0:
        raise ConfigurationError(f"config.noise.seed: must be >= 0, got {seed}")
    epsilon = json_number(delta["epsilon"], "config.delta_rule.epsilon")
    if not 0.0 < epsilon < 1.0:  # at or above 1 every sweep point is infeasible-high
        raise ConfigurationError(f"config.delta_rule.epsilon: must lie in (0, 1), got {epsilon}")
    grid = {key: json_number(grid[key], f"config.grid.{key}") for key in ("spacing", "r_max")}
    if grid["r_max"] < 0.0:  # the library accepts an empty grid; a run on it finds no point
        raise ConfigurationError(f"config.grid.r_max: must be >= 0, got {grid['r_max']}")
    directions = str(top["directions"])
    check_sweep_settings(grid["spacing"], grid["r_max"], directions, where="config.")
    cutoff = {"rule": cutoff["rule"], "c": json_number(cutoff["c"], "config.cutoff.c"),
              "q": json_number(cutoff["q"], "config.cutoff.q")}
    check_cutoff(**cutoff, where="config.")
    taken = set(_RUN_FILES)
    for key in ("measured_path", "background_path"):
        path = os.path.normpath(str(top[key]))
        if os.path.isabs(path) or path.split(os.sep)[0] in (os.curdir, os.pardir):
            raise ConfigurationError(
                f"config.{key}: {top[key]!r} is not a path inside the output directory")
        if path in taken:
            raise ConfigurationError(
                f"config.{key}: {top[key]!r} collides with another file the runs write")
        taken.add(path)

    return RunConfig(
        scenario=scenario_field,
        h_target=h_target,
        N=n_order,
        noise_level=level,
        noise_seed=seed,
        grid=grid,
        epsilon=epsilon,
        cutoff=cutoff,
        directions=directions,
        measured_path=str(top["measured_path"]),
        background_path=str(top["background_path"]),
        raw=doc,
    )


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable, not text or not JSON
        raise ConfigurationError(f"config {path}: cannot read a JSON document ({exc})") from None
    return parse_run_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))


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
    os.makedirs(out_dir, exist_ok=True)
    measured_path = os.path.join(out_dir, cfg.measured_path)
    background_path = os.path.join(out_dir, cfg.background_path)
    for path in (measured_path, background_path):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path)):
            raise ConfigurationError(f"{path}: not a file name in an existing directory")
    mesh = build_disk_mesh(cfg.h_target)
    absorption = check_absorption(cfg.scenario)
    system = assemble_system(mesh, cfg.scenario)  # refuses if coercivity fails
    coercivity = system.coercivity
    measured = nd_map_from_system(system, cfg.N)
    if cfg.noise_level > 0.0:
        measured = add_noise(measured, cfg.noise_level, cfg.noise_seed)
    background = compute_background_nd_map(mesh, cfg.N)

    save_nd_map(measured, measured_path)
    save_nd_map(background, background_path)
    manifest_path = _write_manifest(out_dir, "simulate", cfg, {
        "mesh": {
            "h_target": cfg.h_target,
            "vertices": mesh.n_vertices,
            "triangles": len(mesh.triangles),
            "boundary": mesh.n_boundary,
        },
        "N": cfg.N,
        "noise": {"level": cfg.noise_level, "seed": cfg.noise_seed},
        "assumptions": {
            "coercivity": {"holds": coercivity["holds"], "alpha": coercivity["alpha"],
                           "z": [coercivity["z"].real, coercivity["z"].imag]},
            "absorption": absorption,
        },
        "diagnostics": {"symmetry_defect": {"measured": measured.symmetry_defect(),
                                            "background": background.symmetry_defect()},
                        "fem": {"rings": len(mesh.ring_starts) - 2, "dense_rings": system.dense_rings}},
        "files": [os.path.basename(measured_path), os.path.basename(background_path)],
    })
    return {"measured": measured_path, "background": background_path, "manifest": manifest_path}


def _check_simulated_with(cfg: RunConfig, out_dir: str) -> None:
    """Refuse ND files whose ``simulate_manifest.json`` in ``out_dir`` records
    another mesh size or order; ND files without a manifest are taken as is."""
    path = os.path.join(out_dir, "simulate_manifest.json")
    if not os.path.exists(path):
        return
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        simulated = {"mesh.h_target": manifest["mesh"]["h_target"], "N": manifest["N"]}
    except (ValueError, KeyError, TypeError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigurationError(f"{path}: unreadable simulate manifest ({exc!r})") from None
    for name, value in (("mesh.h_target", cfg.h_target), ("N", cfg.N)):
        if simulated[name] != value:
            raise ConfigurationError(
                f"{path}: {name} is {simulated[name]} in the simulate run but {value} "
                "in this config; refusing to mix runs"
            )


def run_reconstruct(cfg: RunConfig, out_dir: str) -> dict:
    """Full sweep from the two ND-map files to indicator, mask and image outputs."""
    # no mesh is built here, but the config is refused as simulate refuses it
    check_mesh_settings(cfg.h_target, cfg.N, where="config.")
    os.makedirs(out_dir, exist_ok=True)
    _check_simulated_with(cfg, out_dir)
    measured_path = os.path.join(out_dir, cfg.measured_path)
    background_path = os.path.join(out_dir, cfg.background_path)
    measured, background = load_nd_map(measured_path), load_nd_map(background_path)
    if np.array_equal(measured.matrix, background.matrix):
        raise ConfigurationError(f"{measured_path} and {background_path} hold the same ND map: "
                                 "with no inclusion and no noise there is nothing to locate")
    try:
        data = make_relative_data(measured, background)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{measured_path} and {background_path}: {exc}") from None
    # no mesh: the sweep takes the closed-form disk dipole traces
    imap = indicator_map(data, None, cfg.grid, {"epsilon": cfg.epsilon},
                         directions=cfg.directions)
    if not imap.feasible.any():
        # keep the evidence without clobbering any earlier successful output
        write_indicator_csv(imap, os.path.join(out_dir, "indicator_infeasible.csv"))
        raise EstimationError("every sweep point is infeasible at this discrepancy level")
    mask = estimate_support(imap, **cfg.cutoff)
    indicator_path = os.path.join(out_dir, "indicator.csv")
    mask_path = os.path.join(out_dir, "mask.csv")
    image_path = os.path.join(out_dir, "indicator.pgm")
    write_indicator_csv(imap, indicator_path)
    write_mask_csv(imap, mask, mask_path)
    write_indicator_pgm(imap, image_path)
    manifest_path = _write_manifest(out_dir, "reconstruct", cfg, {
        "N": data.N,
        "grid": cfg.grid,
        "delta_rule": {"epsilon": cfg.epsilon},
        "cutoff": cfg.cutoff,
        "feasible_points": int(imap.feasible.sum()),
        "total_points": len(imap),
        "diagnostics": {**sweep_diagnostics(imap, support_cutoff(imap, **cfg.cutoff)),
                        "singular_values": data.singular_values.tolist(),
                        "reciprocity_defect": reciprocity_defect(data.matrix)},
        "files": ["indicator.csv", "mask.csv", "indicator.pgm"],
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

    two_phase = parse_scenario({"inclusions": [{
        "shape": "disk", "center": [0.0, 0.0], "radius": 0.5,
        "h": [[1.0, 0.0], [0.0, 1.0]],
    }]})
    system = assemble_system(mesh, two_phase)
    measured = nd_map_from_system(system, n_order)
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


def run_verify(cfg: RunConfig, out_stream=None) -> bool:
    """Run the oracle suite; prints one line per check, returns overall pass."""
    stream = out_stream or sys.stdout
    mesh = build_disk_mesh(cfg.h_target)
    n_order = min(cfg.N, (mesh.n_boundary - 1) // 2)  # the order the mesh resolves
    all_ok = True
    for name, achieved, required in _verify_checks(mesh, n_order):
        ok = achieved <= required
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        stream.write(f"{status} {name}: achieved {achieved:.3e} (required <= {required:.0e})\n")
    lowered = (f" at N={n_order} (config N={cfg.N}; 2N+1 <= {mesh.n_boundary} boundary vertices)"
               if n_order < cfg.N else "")
    stream.write("verification " + ("passed" if all_ok else "FAILED") + lowered + "\n")
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "compute ND-map files for a scenario"),
        ("reconstruct", "run the sampling sweep on ND-map files"),
        ("verify", "run the analytic-oracle checks"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--threads", type=int,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--seed", type=int, help="override the noise seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_run_config(args.config)
        else:
            cfg = parse_run_config({})
        if args.threads is not None and args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
            cfg.noise_seed = args.seed

        if args.command == "simulate":
            paths = run_simulate(cfg, args.out)
            print(f"wrote {paths['measured']}, {paths['background']}, {paths['manifest']}")
            return 0
        if args.command == "reconstruct":
            paths = run_reconstruct(cfg, args.out)
            print(f"wrote {paths['indicator']}, {paths['mask']}, {paths['image']}")
            return 0
        return 0 if run_verify(cfg) else 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an output path that cannot be written
        print(f"configuration error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
