"""Propagation constant and group velocity dispersion of 5% MgO-doped
congruent lithium niobate (extraordinary axis), from the
temperature-dependent Sellmeier model of Gayer et al., Appl. Phys. B 91,
343 (2008).  ``wavevector`` evaluates the index n alone (the private
``_index``); ``gvd`` also needs its wavelength derivatives, which
``_index_and_derivatives`` adds to the same n.  The refractive and group
index are test oracles (``tests/conftest.py``).

Coefficients live in a versioned data file shipped with the package (see
``data/mgo_cln_5pct_e.txt`` and ``docs/materials.md``); they are parsed
once and frozen into an immutable :class:`SellmeierModel`.

All functions are pure and accept scalars or numpy arrays for the
wavelength or frequency argument and for the temperature, which broadcast
against each other; scalar arguments give an ``np.float64``.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

import numpy as np

from .constants import C0, TWO_PI, NM, omega_to_wavelength_nm
from .errors import DomainError, TableParseError
from .schema import reading

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

    def check_wavelength(self, lambda_nm) -> None:
        lam_um = np.asarray(lambda_nm, dtype=float) * NM / 1e-6
        if np.any(lam_um < self.wavelength_um_min) or np.any(lam_um > self.wavelength_um_max):
            lo, hi = f"{np.min(lam_um):.4g}", f"{np.max(lam_um):.4g}"
            span = lo if lo == hi else f"{lo}-{hi}"
            raise DomainError(
                f"wavelength {span} um outside validity "
                f"window [{self.wavelength_um_min}, {self.wavelength_um_max}] um"
            )

    def check_temperature(self, theta_C) -> None:
        """Refuses a temperature, or the first of an array, outside the window."""
        theta = np.asarray(theta_C)
        outside = ~((self.temperature_C_min <= theta) & (theta <= self.temperature_C_max))
        if np.any(outside):
            raise DomainError(
                f"temperature {theta.flat[np.argmax(outside)]:.4g} C outside validity window "
                f"[{self.temperature_C_min}, {self.temperature_C_max}] C"
            )


def _parse_material_text(text: str, path) -> SellmeierModel:
    """The Sellmeier model in ``text``, the contents of ``path``, which a
    parse error names: ``PATH line N: reason`` or ``PATH: reason``."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise TableParseError(f"{path} line {lineno}: expected 'key: value': {raw!r}")
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
        raise TableParseError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise TableParseError(f"{path}: malformed value: {exc}") from exc


def load_material(path=None) -> SellmeierModel:
    """Load a Sellmeier coefficient file; defaults to the packaged
    5%-MgO:CLN extraordinary-axis set."""
    if path is None:
        path = importlib.resources.files("spdclab") / "data" / "mgo_cln_5pct_e.txt"
        text = path.read_text()
    else:
        with reading(path), open(path, encoding="utf-8") as fh:
            text = fh.read()
    return _parse_material_text(text, path)


def _n_squared(model: SellmeierModel, lam_um, theta_C):
    """n^2, and the terms P, R, u = lambda^2, d1 and d2 that its wavelength
    derivatives reuse (lambda in um); the wavelength and the temperature
    broadcast against each other."""
    c = model.coefficients
    f = (theta_C - _T_REF) * (theta_C + _T_REF + 2 * 273.16)
    P = c["a2"] + c["b2"] * f
    Q = c["a3"] + c["b3"] * f
    R = c["a4"] + c["b4"] * f
    # powers as products (lam * lam, not lam ** 2; Q * Q, not Q ** 2): a
    # scalar raises through libm pow, which can round differently from an
    # array's power loop; products give a scalar and an array call the same
    # bits, over wavelength and over temperature alike
    u = lam_um * lam_um
    d1 = u - Q * Q
    d2 = u - c["a5"] ** 2
    n2 = c["a1"] + c["b1"] * f + P / d1 + R / d2 - c["a6"] * u
    return n2, (P, R, u, d1, d2)


def _index(model: SellmeierModel, lambda_nm, theta_C):
    """lambda in um, n, and the terms of n^2 (:func:`_n_squared`), after
    both window checks."""
    model.check_wavelength(lambda_nm)
    model.check_temperature(theta_C)
    lam_um = np.asarray(lambda_nm, dtype=float) * 1e-3
    n2, terms = _n_squared(model, lam_um, theta_C)
    return lam_um, np.sqrt(n2), terms


def _index_and_derivatives(model: SellmeierModel, lambda_nm, theta_C):
    """lambda in um, n, dn/dlambda (1/um) and d2n/dlambda2 (1/um^2)."""
    lam_um, n, (P, R, u, d1, d2) = _index(model, lambda_nm, theta_C)
    a6 = model.coefficients["a6"]
    # derivatives of n^2 with respect to u = lam^2, then chain rule to lam
    dn2_du = -P / (d1 * d1) - R / (d2 * d2) - a6
    d2n2_du2 = 2 * P / (d1 * d1 * d1) + 2 * R / (d2 * d2 * d2)
    dn2 = 2 * lam_um * dn2_du
    d2n2 = 2 * dn2_du + 4 * u * d2n2_du2
    dn = dn2 / (2 * n)
    d2n = (d2n2 - 2 * (dn * dn)) / (2 * n)
    return lam_um, n, dn, d2n


def gvd(model: SellmeierModel, lambda_nm, theta_C):
    """Group velocity dispersion d2k/domega2 in s^2/m.

    Uses the standard identity d2k/domega2 = lambda^3 / (2 pi c^2) * d2n/dlambda2.
    """
    lam_um, _, _, d2n = _index_and_derivatives(model, lambda_nm, theta_C)
    lam_m = lam_um * 1e-6
    d2n_m = d2n / (1e-6) ** 2  # 1/m^2
    return lam_m * lam_m * lam_m / (TWO_PI * C0 ** 2) * d2n_m


def wavevector(model: SellmeierModel, omega, theta_C):
    """Propagation constant k = n(omega) * omega / c0 in 1/m.

    ``omega`` in rad/s and ``theta_C`` in degC, each a scalar or an array.
    """
    lambda_nm = omega_to_wavelength_nm(np.asarray(omega, dtype=float))
    _, n, _ = _index(model, lambda_nm, theta_C)
    return n * np.asarray(omega, dtype=float) / C0
