"""Refractive index, group index and dispersion of 5% MgO-doped congruent
lithium niobate (extraordinary axis), from the temperature-dependent
Sellmeier model of Gayer et al., Appl. Phys. B 91, 343 (2008).

Coefficients live in a versioned data file shipped with the package (see
``data/mgo_cln_5pct_e.txt`` and ``docs/materials.md``); they are parsed
once and frozen into an immutable :class:`SellmeierModel`.

All functions are pure and accept scalars or numpy arrays for the
wavelength argument.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

import numpy as np

from .constants import C0, TWO_PI, NM, omega_to_wavelength_nm
from .errors import DomainError, TableParseError

_COEFF_KEYS = ("a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3", "b4")

# Reference temperature of the Gayer model, degC.
_T_REF = 24.5


@dataclass(frozen=True)
class SellmeierModel:
    """Coefficient set of the Gayer-form Sellmeier equation plus its
    validity window.  Evaluation outside the window raises, it is never
    extrapolated silently."""

    material: str
    polarization: str
    coefficients: dict = field(repr=False)
    wavelength_um_min: float
    wavelength_um_max: float
    temperature_C_min: float
    temperature_C_max: float

    def __post_init__(self):
        missing = [k for k in _COEFF_KEYS if k not in self.coefficients]
        if missing:
            raise TableParseError(f"material file missing coefficients: {missing}")

    def check_wavelength(self, lambda_nm) -> None:
        lam_um = np.asarray(lambda_nm, dtype=float) * NM / 1e-6
        if np.any(lam_um < self.wavelength_um_min) or np.any(lam_um > self.wavelength_um_max):
            raise DomainError(
                f"wavelength {np.min(lam_um):.4g}-{np.max(lam_um):.4g} um outside validity "
                f"window [{self.wavelength_um_min}, {self.wavelength_um_max}] um"
            )

    def check_temperature(self, theta_C: float) -> None:
        if not (self.temperature_C_min <= theta_C <= self.temperature_C_max):
            raise DomainError(
                f"temperature {theta_C:.4g} C outside validity window "
                f"[{self.temperature_C_min}, {self.temperature_C_max}] C"
            )


def _parse_material_text(text: str) -> SellmeierModel:
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise TableParseError(f"expected 'key: value' on line {lineno}: {raw!r}",
                                  line_number=lineno)
        key, value = (part.strip() for part in line.split(":", 1))
        fields[key] = value
    try:
        wl_lo, wl_hi = (float(v) for v in fields["validity_wavelength_um"].split())
        t_lo, t_hi = (float(v) for v in fields["validity_temperature_C"].split())
        coeffs = {k: float(fields[k]) for k in _COEFF_KEYS}
        return SellmeierModel(
            material=fields["material"],
            polarization=fields["polarization"],
            coefficients=coeffs,
            wavelength_um_min=wl_lo,
            wavelength_um_max=wl_hi,
            temperature_C_min=t_lo,
            temperature_C_max=t_hi,
        )
    except KeyError as exc:
        raise TableParseError(f"material file missing key {exc}") from exc
    except ValueError as exc:
        raise TableParseError(f"material file has malformed value: {exc}") from exc


def load_material(path=None) -> SellmeierModel:
    """Load a Sellmeier coefficient file; defaults to the packaged
    5%-MgO:CLN extraordinary-axis set."""
    if path is None:
        text = (importlib.resources.files("spdclab") / "data" / "mgo_cln_5pct_e.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return _parse_material_text(text)


def _n_squared_terms(model: SellmeierModel, lam_um, theta_C: float):
    """n^2 and its first/second derivative with respect to lambda (in um)."""
    c = model.coefficients
    f = (theta_C - _T_REF) * (theta_C + _T_REF + 2 * 273.16)
    P = c["a2"] + c["b2"] * f
    Q = c["a3"] + c["b3"] * f
    R = c["a4"] + c["b4"] * f
    u = lam_um ** 2
    d1 = u - Q ** 2
    d2 = u - c["a5"] ** 2
    n2 = c["a1"] + c["b1"] * f + P / d1 + R / d2 - c["a6"] * u
    # derivatives with respect to u = lam^2, then chain rule to lam
    dn2_du = -P / d1 ** 2 - R / d2 ** 2 - c["a6"]
    d2n2_du2 = 2 * P / d1 ** 3 + 2 * R / d2 ** 3
    dn2_dlam = 2 * lam_um * dn2_du
    d2n2_dlam2 = 2 * dn2_du + 4 * u * d2n2_du2
    return n2, dn2_dlam, d2n2_dlam2


def _index_and_derivatives(model: SellmeierModel, lambda_nm, theta_C: float):
    model.check_wavelength(lambda_nm)
    model.check_temperature(theta_C)
    lam_um = np.asarray(lambda_nm, dtype=float) * 1e-3
    n2, dn2, d2n2 = _n_squared_terms(model, lam_um, theta_C)
    n = np.sqrt(n2)
    dn = dn2 / (2 * n)              # dn/dlam, 1/um
    d2n = (d2n2 - 2 * dn ** 2) / (2 * n)  # d2n/dlam2, 1/um^2
    return lam_um, n, dn, d2n


def refractive_index(model: SellmeierModel, lambda_nm, theta_C: float):
    """Extraordinary refractive index n_e(lambda, theta).

    lambda_nm in nm (scalar or array), theta_C in degC.
    """
    _, n, _, _ = _index_and_derivatives(model, lambda_nm, theta_C)
    return n if np.ndim(lambda_nm) else float(n)


def group_index(model: SellmeierModel, lambda_nm, theta_C: float):
    """Group index n_g = n - lambda * dn/dlambda."""
    lam_um, n, dn, _ = _index_and_derivatives(model, lambda_nm, theta_C)
    ng = n - lam_um * dn
    return ng if np.ndim(lambda_nm) else float(ng)


def gvd(model: SellmeierModel, lambda_nm, theta_C: float):
    """Group velocity dispersion d2k/domega2 in s^2/m.

    Uses the standard identity d2k/domega2 = lambda^3 / (2 pi c^2) * d2n/dlambda2.
    """
    lam_um, _, _, d2n = _index_and_derivatives(model, lambda_nm, theta_C)
    lam_m = lam_um * 1e-6
    d2n_m = d2n / (1e-6) ** 2  # 1/m^2
    out = lam_m ** 3 / (TWO_PI * C0 ** 2) * d2n_m
    return out if np.ndim(lambda_nm) else float(out)


def wavevector(model: SellmeierModel, omega, theta_C: float):
    """Propagation constant k = n(omega) * omega / c0 in 1/m.

    ``omega`` in rad/s, scalar or array.
    """
    lambda_nm = omega_to_wavelength_nm(np.asarray(omega, dtype=float))
    _, n, _, _ = _index_and_derivatives(model, lambda_nm, theta_C)
    out = n * np.asarray(omega, dtype=float) / C0
    return out if np.ndim(omega) else float(out)
