"""Admittance distributions gamma = I + h on inclusion supports.

An inclusion is a union of disks/ellipses strictly inside the unit disk,
each carrying a constant 2x2 complex symmetric perturbation h, with the
contrast of gamma bounded by GAMMA_MAX. The two model assumptions are
verified numerically:

* coercivity  -- Re(z conj(zeta) . gamma(x) zeta) >= alpha |zeta|^2 for some
  unimodular z, checked by scanning z on a grid of the unit circle and
  taking the smallest eigenvalue of the Hermitian part of z * gamma over
  the values gamma takes;
* absorption  -- Im(conj(zeta) . h(x) zeta) <= -beta |zeta|^2 on an open
  subset of the inclusion, checked through the largest eigenvalue of Im h_k
  over the components that make up that subset.

``AdmittanceField`` holds every scenario rule. Scenario documents are JSON:
``parse_scenario`` only converts their types and shapes, and every error,
from either, names the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Disk",
    "Ellipse",
    "AdmittanceField",
    "GAMMA_MAX",
    "check_coercivity",
    "check_absorption",
    "load_scenario",
    "parse_scenario",
]

_IDENTITY = np.eye(2, dtype=complex)

# bound on the largest singular value of gamma: past it the ring elimination
# loses the ND map of an off-centre inclusion (error about GAMMA_MAX * 1e-16)
GAMMA_MAX = 1e10


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    size_field = "radius"  # the positive size AdmittanceField checks

    def contains(self, points: np.ndarray) -> np.ndarray:
        d = np.asarray(points, dtype=float) - np.asarray(self.center)
        return np.einsum("...i,...i->...", d, d) < self.radius**2


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_axes: tuple[float, float]
    tilt: float = 0.0

    size_field = "semi_axes"

    def _local(self, points: np.ndarray) -> np.ndarray:
        d = np.asarray(points, dtype=float) - np.asarray(self.center)
        c, s = np.cos(self.tilt), np.sin(self.tilt)
        return np.stack([c * d[..., 0] + s * d[..., 1], -s * d[..., 0] + c * d[..., 1]], axis=-1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        q = self._local(points)
        a, b = self.semi_axes
        return (q[..., 0] / a) ** 2 + (q[..., 1] / b) ** 2 < 1.0


Shape = Disk | Ellipse


class AdmittanceField:
    """Admittance gamma(x) = I + h(x) chi_D(x) with anisotropic complex h.

    The one validated value of a scenario and the only home of its rules,
    for library callers and scenario documents alike: a consumer may take
    gamma as finite, with every value's largest singular value at most
    ``GAMMA_MAX``. Errors name a field by its scenario path, such as
    ``inclusions[k].radius``.

    Parameters
    ----------
    components : list of Disk or Ellipse
        Every radius or semi-axis is positive. A component's bounding circle
        is centred on it, its radius the larger size of ``size_field`` (the
        radius, or the larger semi-axis); every bounding circle's closure lies
        strictly inside the unit disk, and the bounding circles are pairwise
        disjoint (a conservative separation test).
    perturbations : list, one entry per component
        Each entry is a constant finite 2x2 complex matrix h_k, symmetric
        exactly: h[0][1] == h[1][0].
    absorption_region : list of component indices or None
        Components on which the absorption assumption is claimed, each an
        integer in [0, len(components)); None means all of them.
    """

    def __init__(self, components, perturbations, absorption_region=None):
        self.components = list(components)
        if len(perturbations) != len(self.components):
            raise ConfigurationError(f"{len(perturbations)} perturbation entries for "
                                     f"{len(self.components)} inclusion components")
        radii = []  # of the bounding circles
        for k, shape in enumerate(self.components):
            for name, value in [("center", shape.center), ("tilt", getattr(shape, "tilt", 0.0))]:
                if not np.isfinite(value).all():  # NaN slips through the comparisons below
                    raise ConfigurationError(f"inclusions[{k}].{name}: must be finite, got {value}")
            extent = getattr(shape, shape.size_field)
            if not np.all(np.asarray(extent) > 0):  # NaN too
                raise ConfigurationError(f"inclusions[{k}].{shape.size_field}: must be positive, "
                                         f"got {extent}")
            radii.append(float(np.max(extent)))
            outer = float(np.hypot(*shape.center)) + radii[k]
            if outer >= 1.0:
                raise ConfigurationError(f"inclusions[{k}]: touches or crosses the unit circle "
                                         f"(outer radius {outer:.6g})")
            for j, other in enumerate(self.components[:k]):
                gap = np.hypot(*(np.asarray(shape.center) - np.asarray(other.center)))
                if gap <= radii[k] + radii[j]:
                    raise ConfigurationError(f"inclusions[{j}] and inclusions[{k}]: "
                                             "overlapping bounding circles")
        self.perturbations = []
        self.gamma_max = 1.0  # largest singular value of gamma, I off the inclusions
        for k, h in enumerate(perturbations):
            where = f"inclusions[{k}].h"
            m = np.asarray(h, dtype=complex)
            if m.shape != (2, 2):
                raise ConfigurationError(f"{where}: must be a 2x2 matrix, got shape {m.shape}")
            if not np.isfinite(m).all():
                raise ConfigurationError(f"{where}: entries must be finite")
            size = np.linalg.svd(_IDENTITY + m, compute_uv=False)[0]  # free of overflow
            if not size <= GAMMA_MAX:  # NaN too
                raise ConfigurationError(f"{where}: gamma = I + h has largest singular value "
                                         f"{size:.3g}, above the bound {GAMMA_MAX:g}")
            if m[0, 1] != m[1, 0]:
                raise ConfigurationError(f"{where}: not symmetric (h[0][1] != h[1][0])")
            self.perturbations.append(m)
            self.gamma_max = max(self.gamma_max, float(size))
        self.absorption_region = None if absorption_region is None else list(absorption_region)
        for j, i in enumerate(self.absorption_region or ()):
            index = isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            if not (index and 0 <= i < len(perturbations)):
                raise ConfigurationError(f"scenario.absorption_region.components[{j}]: "
                                         f"no inclusion component {i}")

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """gamma at many points, shape (npts, 2, 2); no domain check."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.broadcast_to(_IDENTITY, (len(points), 2, 2)).copy()
        for shape, h in zip(self.components, self.perturbations):
            out[shape.contains(points)] += h
        return out


def _hermitian_eig(mats: np.ndarray, sign: float) -> np.ndarray:
    """Largest (sign +1) or smallest (sign -1) eigenvalue of 2x2 Hermitian matrices."""
    a = mats[..., 0, 0].real
    d = mats[..., 1, 1].real
    disc = np.sqrt(((a - d) / 2) ** 2 + np.abs(mats[..., 0, 1]) ** 2)
    return (a + d) / 2 + sign * disc


def check_coercivity(fld: AdmittanceField) -> dict:
    """Scan unimodular z for Re(z conj(zeta) . gamma zeta) >= alpha |zeta|^2.

    gamma takes only the values I + h_k of the components and the background
    I, whatever mesh samples it. For each of the 64 uniformly spaced
    z = exp(i phi_k), alpha(z) is the smallest eigenvalue of the Hermitian
    part of z * gamma over those values; for I that is Re z. Returns the
    first z with the largest alpha(z).

    Returns
    -------
    dict with keys ``holds`` (alpha > 0), ``alpha`` and ``z``.
    """
    gam = _IDENTITY + np.reshape(fld.perturbations, (-1, 2, 2))
    zs = np.exp(2j * np.pi * np.arange(64) / 64)
    zg = zs[:, None, None, None] * gam
    herm = 0.5 * (zg + np.conj(np.swapaxes(zg, -1, -2)))
    alphas = np.minimum(_hermitian_eig(herm, -1.0).min(axis=1, initial=np.inf), zs.real)
    best = int(alphas.argmax())
    return {"holds": bool(alphas[best] > 0.0), "alpha": float(alphas[best]),
            "z": complex(zs[best])}


def check_absorption(fld: AdmittanceField) -> dict:
    """Verify Im(conj(zeta) . h zeta) <= -beta |zeta|^2 on the absorption region.

    h is constant on each component, so beta is minus the largest eigenvalue
    of Im h_k (a real symmetric matrix for symmetric h_k) over the region's
    components. An empty region gives a negative verdict with a ``reason``.
    """
    region = fld.absorption_region
    if region is None:
        region = range(len(fld.perturbations))
    if not region:
        return {"holds": False, "beta": 0.0, "reason": "absorption region is empty"}
    h_im = np.imag([fld.perturbations[k] for k in region])
    beta = -float(_hermitian_eig(h_im, 1.0).max())
    return {"holds": beta > 0.0, "beta": beta}


# ---------------------------------------------------------------------------
# Scenario documents


def json_number(value, where: str, integer: bool = False):
    """A finite JSON number as float, or as int when ``integer``.

    Bools, strings, other types, non-finite values and (with ``integer``)
    non-integral values raise ConfigurationError naming ``where``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise ConfigurationError(f"{where}: must be finite, got {value!r}")
    if not integer:
        return number
    if not number.is_integer():
        raise ConfigurationError(f"{where}: must be an integer, got {value!r}")
    return int(value)


def json_object(value, where: str, keys) -> dict:
    """``value`` as a JSON object whose keys all lie in ``keys``; errors name ``where``."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where}: expected an object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigurationError(f"{where}.{unknown[0]}: unknown keys {unknown}")
    return value


def read_json(path, what: str):
    """The JSON document in file ``path``; errors name ``what`` and the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable, not text or not JSON
        raise ConfigurationError(f"{what} {path}: cannot read a JSON document ({exc})") from None


def _pair(v, where: str) -> tuple[float, float]:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigurationError(f"{where}: expected a pair of numbers, got {v!r}")
    return json_number(v[0], f"{where}[0]"), json_number(v[1], f"{where}[1]")


def _complex_from_json(v, where: str) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(*_pair(v, where))
    return complex(json_number(v, where))


def _shape_from_json(spec, where: str) -> Shape:
    known = {"disk": {"shape", "center", "radius", "h"},
             "ellipse": {"shape", "center", "semi_axes", "tilt", "h"}}
    kind = json_object(spec, where, known["disk"] | known["ellipse"]).get("shape")
    if not (isinstance(kind, str) and kind in known):
        raise ConfigurationError(f"{where}.shape: expected 'disk' or 'ellipse', got {kind!r}")
    json_object(spec, where, known[kind])
    for key in sorted(known[kind] - {"tilt"}):
        if key not in spec:
            raise ConfigurationError(f"{where}.{key}: missing")
    center = _pair(spec["center"], f"{where}.center")
    if kind == "disk":
        return Disk(center=center, radius=json_number(spec["radius"], f"{where}.radius"))
    return Ellipse(center=center, semi_axes=_pair(spec["semi_axes"], f"{where}.semi_axes"),
                   tilt=json_number(spec.get("tilt", 0.0), f"{where}.tilt"))


def parse_scenario(doc: dict) -> AdmittanceField:
    """Build an AdmittanceField from a scenario document (parsed JSON).

    Schema::

        {"inclusions": [{"shape": "disk", "center": [x, y], "radius": r,
                         "h": [[h11, h12], [h21, h22]]}, ...],
         "absorption_region": {"components": [indices]}}         # optional

    Every h entry holds four complex numbers written as [re, im] pairs
    (plain numbers are taken as real). This converts JSON types and shapes
    only; ``AdmittanceField`` applies the scenario rules (h21 == h12, the
    GAMMA_MAX bound, placement and the absorption indices).
    """
    json_object(doc, "scenario", ("inclusions", "absorption_region"))
    inclusions = doc.get("inclusions", [])
    if not isinstance(inclusions, list):
        raise ConfigurationError("scenario.inclusions: expected a list")
    shapes, perts = [], []
    for k, entry in enumerate(inclusions):
        where = f"inclusions[{k}]"
        shapes.append(_shape_from_json(entry, where))
        hm = entry["h"]
        if not (isinstance(hm, list) and len(hm) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in hm)):
            raise ConfigurationError(f"{where}.h: expected a 2x2 matrix")
        perts.append([[_complex_from_json(hm[i][j], f"{where}.h[{i}][{j}]") for j in range(2)]
                      for i in range(2)])

    region = None
    spec = doc.get("absorption_region")
    if spec is not None:
        json_object(spec, "scenario.absorption_region", ("components",))
        if not isinstance(spec.get("components"), list):
            raise ConfigurationError("scenario.absorption_region.components: expected a list")
        region = [json_number(item, f"scenario.absorption_region.components[{j}]", integer=True)
                  for j, item in enumerate(spec["components"])]
    return AdmittanceField(shapes, perts, absorption_region=region)


def load_scenario(path) -> AdmittanceField:
    """Parse a scenario JSON file; errors cite the file or the offending field."""
    return parse_scenario(read_json(path, "scenario"))
