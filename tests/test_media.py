import re

import numpy as np
import pytest

from eitlsm import (
    AdmittanceField,
    ConfigurationError,
    Disk,
    Ellipse,
    GAMMA_MAX,
    check_absorption,
    check_coercivity,
    parse_scenario,
)
from conftest import ANISO_DOC

I2 = np.eye(2)
Z_GRID = np.exp(2j * np.pi * np.arange(64) / 64)  # the z values check_coercivity scans


def disk_field(h_matrix, center=(0.0, 0.0), radius=0.3):
    return AdmittanceField([Disk(center=center, radius=radius)], [h_matrix])


def test_identity_outside_inclusion():
    fld = disk_field(np.diag([1.0, 1.0]), center=(0.0, 0.0), radius=0.3)
    gam = fld.evaluate_batch([(0.5, 0.5), (0.0, 0.31)])
    assert gam.shape == (2, 2, 2)
    assert np.array_equal(gam, [I2, I2])


def test_zero_perturbation_identity_everywhere():
    fld = disk_field(np.zeros((2, 2)))
    gam = fld.evaluate_batch([(0.0, 0.0), (0.1, 0.2), (0.9, 0.0)])
    assert np.array_equal(gam, [I2] * 3)


def test_constant_isotropic_contrast():
    fld = disk_field(np.diag([1.0, 1.0]))
    assert np.allclose(fld.evaluate_batch([(0.1, 0.0)])[0], np.diag([2.0, 2.0]))


def test_asymmetric_h_rejected():
    with pytest.raises(ConfigurationError):
        disk_field(np.array([[1.0, 0.2], [0.3, 1.0]]))


def test_symmetry_is_exact():
    # one ulp off symmetric: refused by the library and by the scenario parser alike
    h = [[1.0, 1.0], [1.0 + 2**-52, 1.0]]
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\]\.h"):
        disk_field(np.array(h))
    doc = {"inclusions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.3, "h": h}]}
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\]\.h"):
        parse_scenario(doc)


@pytest.mark.parametrize("index", [3, -1])
def test_absorption_index_outside_components_refused(index):
    with pytest.raises(ConfigurationError,
                       match=r"scenario\.absorption_region\.components\[0\]"):
        AdmittanceField([Disk(center=(0.0, 0.0), radius=0.3)], [I2], absorption_region=[index])


@pytest.mark.parametrize("kind,size,field", [
    (Disk, {"radius": -0.25}, "inclusions[1].radius"),
    (Ellipse, {"semi_axes": (0.3, 0.0)}, "inclusions[1].semi_axes"),
])
def test_non_positive_size_refused(kind, size, field):
    with pytest.raises(ConfigurationError, match=re.escape(field)):
        AdmittanceField([Disk(center=(-0.5, 0.0), radius=0.2), kind(center=(0.3, 0.0), **size)],
                        [I2, I2])


NAN = float("nan")


@pytest.mark.parametrize("shape,field", [
    (Disk(center=(NAN, 0.0), radius=0.2), "inclusions[1].center"),
    (Ellipse(center=(0.3, NAN), semi_axes=(0.2, 0.1)), "inclusions[1].center"),
    (Ellipse(center=(0.3, 0.0), semi_axes=(0.2, 0.1), tilt=NAN), "inclusions[1].tilt"),
    (Ellipse(center=(0.3, 0.0), semi_axes=(0.2, 0.1), tilt=float("inf")), "inclusions[1].tilt"),
], ids=["disk-center-nan", "ellipse-center-nan", "tilt-nan", "tilt-inf"])
def test_non_finite_placement_refused(shape, field):
    # a NaN centre or tilt fails every comparison, so the inclusion would vanish from gamma
    with pytest.raises(ConfigurationError, match=re.escape(field) + ": must be finite"):
        AdmittanceField([Disk(center=(-0.5, 0.0), radius=0.2), shape], [I2, I2])


def test_clearance_enforced():
    # the outer radius is the centre's distance plus the larger size of the shape
    touches = r"inclusions\[0\]: touches or crosses the unit circle \(outer radius 1\.05\)"
    with pytest.raises(ConfigurationError, match=touches):
        disk_field(I2, center=(0.8, 0.0), radius=0.25)
    with pytest.raises(ConfigurationError, match=touches):
        AdmittanceField([Ellipse(center=(0.75, 0.0), semi_axes=(0.3, 0.1))], [I2])
    AdmittanceField([Ellipse(center=(0.5, 0.0), semi_axes=(0.3, 0.1))], [I2])
    disk_field(I2, center=(0.4, 0.0), radius=0.25)


def test_disjoint_components_enforced():
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\] and inclusions\[1\]"):
        AdmittanceField([Disk(center=(-0.2, 0.0), radius=0.2),
                         Disk(center=(0.15, 0.0), radius=0.2)], [I2, I2])
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\] and inclusions\[1\]"):
        AdmittanceField([Ellipse(center=(-0.1, 0.0), semi_axes=(0.3, 0.2)),
                         Ellipse(center=(0.2, 0.1), semi_axes=(0.25, 0.15))], [I2, I2])
    # an ellipse and a disk apart along its short axis: refused while the gap is at most
    # the larger semi-axis 0.3 plus r 0.2
    ellipse = Ellipse(center=(-0.4, 0.0), semi_axes=(0.1, 0.3))
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\] and inclusions\[1\]: overlap"):
        AdmittanceField([ellipse, Disk(center=(0.09, 0.0), radius=0.2)], [I2, I2])
    AdmittanceField([ellipse, Disk(center=(0.11, 0.0), radius=0.2)], [I2, I2])


def test_perturbation_count_enforced():
    with pytest.raises(ConfigurationError, match="1 perturbation entries for 0"):
        AdmittanceField([], [I2])


@pytest.mark.parametrize("h", [
    1e10 * I2,  # gamma = (1 + 1e10) I, just past the bound
    1e308 * I2,  # coercive, but its Hermitian parts and element stiffnesses overflow
    np.full((2, 2), 1.7e308 + 1.7e308j),  # its singular values come out NaN
    np.diag([np.inf, 1.0]),
    np.diag([np.nan, 1.0]),
], ids=["past-bound", "1e308", "nan-singular-values", "inf", "nan"])
def test_admittance_above_bound_refused(h):
    with pytest.raises(ConfigurationError, match=r"inclusions\[1\]\.h"):
        AdmittanceField([Disk(center=(0.4, 0.0), radius=0.2),
                         Disk(center=(-0.4, 0.0), radius=0.2)], [I2, h])


@pytest.mark.parametrize("h,gamma_max", [
    ((GAMMA_MAX - 1.0) * I2, GAMMA_MAX),  # at the bound
    ((1e-16 - 1.0) * I2, 1.0),  # nearly insulating: the background is the largest
    (np.diag([2.0, 0.0]), 3.0),
])
def test_admittance_gamma_max(h, gamma_max):
    fld = disk_field(h)
    assert fld.gamma_max == gamma_max
    assert check_coercivity(fld)["holds"]


def test_ellipse_membership_with_tilt():
    e = Ellipse(center=(0.1, 0.0), semi_axes=(0.4, 0.1), tilt=np.pi / 2)
    # tilted by 90 degrees: long axis now along y
    assert e.contains(np.array([0.1, 0.35]))
    assert not e.contains(np.array([0.45, 0.0]))


def test_coercivity_identity_exact():
    fld = AdmittanceField([], [])
    verdict = check_coercivity(fld)
    assert verdict["holds"]
    assert verdict["alpha"] == 1.0
    assert verdict["z"] == 1.0


def test_coercivity_real_contraction():
    fld = disk_field(-0.5 * I2)
    verdict = check_coercivity(fld)
    assert verdict["holds"]
    # direct eigenvalue oracle: Hermitian part of gamma inside is 0.5 I
    assert verdict["alpha"] == pytest.approx(0.5, abs=1e-12)
    assert verdict["z"] == 1.0


@pytest.mark.parametrize("sigma", [0.25, 0.5, 2.0, 5.0])
def test_coercivity_isotropic_alpha(sigma):
    fld = disk_field((sigma - 1.0) * I2)
    verdict = check_coercivity(fld)
    assert verdict["holds"]
    assert verdict["alpha"] == pytest.approx(min(1.0, sigma), abs=1e-12)


def test_coercivity_absorbing_inclusion():
    # gamma = (1 - i) I inside: both the background and the inclusion value
    # lie in the right half-plane
    fld = disk_field(-1j * I2)
    verdict = check_coercivity(fld)
    assert verdict["holds"]
    # oracle: alpha(z) = min(Re z, Re(z(1-i))) maximized on the 64-point grid
    alphas = np.minimum(Z_GRID.real, (Z_GRID * (1 - 1j)).real)
    assert verdict["alpha"] == pytest.approx(alphas.max(), abs=1e-12)
    assert verdict["z"] == Z_GRID[alphas.argmax()]


def test_coercivity_needs_rotated_z():
    # gamma = (-1 + i) I inside fails at z = 1 but holds on the z grid
    fld = disk_field(np.array([[-2.0 + 1.0j, 0.0], [0.0, -2.0 + 1.0j]]))
    verdict = check_coercivity(fld)
    assert verdict["holds"]
    assert verdict["z"] != 1.0
    # oracle: alpha(z) = min(Re z, Re(z(-1+i))) maximized on the 64-point grid
    alphas = np.minimum(Z_GRID.real, (Z_GRID * (-1 + 1j)).real)
    assert verdict["alpha"] == pytest.approx(alphas.max(), abs=1e-12)
    assert verdict["z"] == Z_GRID[alphas.argmax()]


def test_absorption_uniform():
    fld = disk_field(-1j * I2)
    verdict = check_absorption(fld)
    assert verdict["holds"]
    assert verdict["beta"] == pytest.approx(1.0, abs=1e-12)


def test_absorption_fails_for_real_h():
    fld = disk_field(0.5 * I2)
    verdict = check_absorption(fld)
    assert not verdict["holds"]
    assert verdict["beta"] <= 0.0


def test_absorption_anisotropic_beta():
    fld = disk_field(np.diag([-2.0j, -0.5j]))
    verdict = check_absorption(fld)
    assert verdict["holds"]
    assert verdict["beta"] == pytest.approx(0.5, abs=1e-12)


def test_absorption_empty_region_flagged():
    fld = AdmittanceField([], [])
    verdict = check_absorption(fld)
    assert not verdict["holds"]
    assert "reason" in verdict


def test_evaluation_is_pure():
    fld = disk_field(np.array([[0.5, 0.1], [0.1, 0.3]]))
    a = fld.evaluate_batch([(0.05, 0.05)])
    b = fld.evaluate_batch([(0.05, 0.05)])
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# scenario documents


def test_parse_scenario_aniso():
    fld = parse_scenario(ANISO_DOC)
    assert len(fld.components) == 1
    g = fld.evaluate_batch([(0.2, 0.1)])[0]
    assert g[0, 1] == g[1, 0] == 0.3 - 0.1j
    assert check_coercivity(fld)["holds"]
    assert check_absorption(fld)["holds"]


def test_parse_scenario_rejects_asymmetric_h():
    doc = {"inclusions": [{"shape": "disk", "center": [0.0, 0.0], "radius": 0.2,
                           "h": [[1.0, 0.2], [0.3, 1.0]]}]}
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\]\.h"):
        parse_scenario(doc)


def test_parse_scenario_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        parse_scenario({"inclusions": [], "extra": 1})
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\]"):
        parse_scenario({"inclusions": [{"shape": "disk", "center": [0, 0],
                                        "radius": 0.2, "h": [[1, 0], [0, 1]],
                                        "bogus": True}]})


def test_parse_scenario_missing_field_cited():
    with pytest.raises(ConfigurationError, match=r"inclusions\[0\]\.radius"):
        parse_scenario({"inclusions": [{"shape": "disk", "center": [0, 0],
                                        "h": [[1, 0], [0, 1]]}]})


def test_parse_scenario_absorption_components():
    doc = {
        "inclusions": [
            {"shape": "disk", "center": [-0.4, 0.0], "radius": 0.15,
             "h": [[[0.0, -1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]},
            {"shape": "disk", "center": [0.4, 0.0], "radius": 0.15,
             "h": [[1.0, 0.0], [0.0, 1.0]]},
        ],
        "absorption_region": {"components": [0]},
    }
    fld = parse_scenario(doc)
    verdict = check_absorption(fld)
    assert verdict["holds"] and verdict["beta"] == pytest.approx(1.0, abs=1e-12)
    # the default region takes every component: the real h of component 1
    # sets beta = -max eigenvalue of Im h_1 = 0, and the verdict fails
    del doc["absorption_region"]
    verdict = check_absorption(parse_scenario(doc))
    assert not verdict["holds"] and verdict["beta"] == 0.0
