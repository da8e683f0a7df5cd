"""Exact symmetry oracles for the FEM ND map and for the whole pipeline.

The ring mesh maps onto itself under a sixth turn and under reflection in
the x-axis. Transforming a scenario by one of these symmetries therefore
transforms its ND map M exactly, up to roundoff, for any inclusion: off
centre, anisotropic and complex alike. Conjugating h conjugates the map.
A quarter turn is no mesh symmetry, and its miss shows that the check tells
right from wrong. Examples are derandomized, so every run draws the same ones.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitlsm import AdmittanceField, Disk, Ellipse, build_disk_mesh, compute_nd_map, fourier_modes
from eitlsm.cli import main
from conftest import SWEEP_DOC

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=20)
N = 8
MODES = fourier_modes(N)
EXACT = 1e-13  # largest entry error over the largest entry of M


@pytest.fixture(scope="module")
def mesh():
    return build_disk_mesh(0.1)


def _perturbation(a, b, d, im):
    # Re(I + h) = [[1 + a, b], [b, 1 + d]] is positive definite: the field is coercive
    return np.array([[a, b], [b, d]]) + 1j * np.array([[im[0], im[1]], [im[1], im[2]]])


perturbations = st.builds(_perturbation, st.floats(-0.5, 2.0), st.floats(-0.3, 0.3),
                          st.floats(-0.5, 2.0), st.lists(st.floats(-0.5, 0.5), min_size=3,
                                                         max_size=3))
sizes = st.floats(0.05, 0.25)


def _component(kind, rho, theta, size, other, tilt, h):
    center = (rho * np.cos(theta), rho * np.sin(theta))
    shape = Disk(center, size) if kind == "disk" else Ellipse(center, (size, other), tilt)
    return shape, h


def components(theta):
    # centres at radius >= 0.3 and at least pi - 1 apart in angle: the bounding
    # circles (radius <= 0.25) of two components are disjoint and inside the disk
    return st.builds(_component, st.sampled_from(["disk", "ellipse"]), st.floats(0.3, 0.55),
                     theta, sizes, sizes, st.floats(-np.pi, np.pi), perturbations)


@st.composite
def scenarios(draw):
    """(shape, h) pairs of one or two valid components."""
    theta = draw(st.floats(-np.pi, np.pi))
    parts = [draw(components(st.just(theta)))]
    if draw(st.booleans()):
        parts.append(draw(components(st.floats(theta + np.pi - 1.0, theta + np.pi + 1.0))))
    return parts


def nd_matrix(mesh, parts):
    field = AdmittanceField([shape for shape, _ in parts], [h for _, h in parts])
    return compute_nd_map(mesh, field, N).matrix


def turned(parts, phi):
    """The scenario turned by phi about the origin: centre R c, tilt + phi, h -> R h R^T."""
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    out = []
    for shape, h in parts:
        center = tuple(rot @ shape.center)
        h = rot @ h @ rot.T
        h[1, 0] = h[0, 1]  # AdmittanceField requires exact symmetry; R h R^T may miss by an ulp
        out.append((Disk(center, shape.radius) if isinstance(shape, Disk)
                    else Ellipse(center, shape.semi_axes, shape.tilt + phi), h))
    return out


def phase(phi):
    """e^{-i(m - n) phi}: how a turn by phi acts on the ND map's entries."""
    return np.exp(-1j * np.subtract.outer(MODES, MODES) * phi)


def miss(actual, expected, reference):
    return np.abs(actual - expected).max() / np.abs(reference).max()


@FIXED
@given(scenarios())
def test_sixth_turns_rotate_the_map(mesh, parts):
    M = nd_matrix(mesh, parts)
    for k in (1, 2, 3):
        phi = k * np.pi / 3
        assert miss(nd_matrix(mesh, turned(parts, phi)), phase(phi) * M, M) <= EXACT, k


@FIXED
@given(scenarios())
def test_reflection_in_the_x_axis_reverses_the_modes(mesh, parts):
    reflected = []
    for shape, h in parts:
        center = (shape.center[0], -shape.center[1])
        h = h * np.array([[1.0, -1.0], [-1.0, 1.0]])
        reflected.append((Disk(center, shape.radius) if isinstance(shape, Disk)
                          else Ellipse(center, shape.semi_axes, -shape.tilt), h))
    M = nd_matrix(mesh, parts)
    assert miss(nd_matrix(mesh, reflected), M[::-1, ::-1], M) <= EXACT  # M[-m, -n]


@FIXED
@given(scenarios())
def test_conjugate_h_conjugates_the_map(mesh, parts):
    M = nd_matrix(mesh, parts)
    conjugated = [(shape, h.conj()) for shape, h in parts]
    assert miss(nd_matrix(mesh, conjugated), M[::-1, ::-1].conj(), M) <= EXACT


@FIXED
@given(scenarios())
def test_quarter_turn_is_no_mesh_symmetry(mesh, parts):
    M = nd_matrix(mesh, parts)
    assert miss(nd_matrix(mesh, turned(parts, np.pi / 2)), phase(np.pi / 2) * M, M) > 1e-6


def _mask(tmp_path, center, name):
    disk = dict(SWEEP_DOC["inclusions"][0], center=center)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"scenario": {"inclusions": [disk]}, "h_target": 0.03, "N": 16,
                               "grid": {"spacing": 0.05, "r_max": 0.9},
                               "delta_rule": {"epsilon": 0.01}}))
    out = tmp_path / name
    for command in ("simulate", "reconstruct"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "mask.csv", delimiter=",", skiprows=1, ndmin=2)
    return {(round(x / 0.05), round(y / 0.05)): inside for x, y, inside in rows}


def test_half_turn_turns_the_mask(tmp_path):
    # ref's disk, and the same disk turned by 180 degrees: (x, y) -> (-x, -y)
    ref = _mask(tmp_path, [0.3, 0.0], "ref")
    half_turned = _mask(tmp_path, [-0.3, 0.0], "turned")
    assert 0 < sum(ref.values()) < len(ref) == 1009
    assert half_turned == {(-i, -j): inside for (i, j), inside in ref.items()}
