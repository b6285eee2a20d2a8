"""Quasi-phase-matching solver for collinear type-0 SPDC in a periodically
poled crystal: wave-vector mismatch, degeneracy-temperature search and
signal/idler tuning curves versus temperature.

The waveguide's modal dispersion is unknown, so the bulk Sellmeier model
plus an additive ``calibration_offset_C`` stands in for it: every index is
evaluated at ``temperature_C + calibration_offset_C``.  The offset is meant
to be fitted once so that the solved degeneracy temperature maps onto the
measured one, keeping the bulk/waveguide discrepancy visible instead of
hidden.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .constants import TWO_PI, UM, wavelength_nm_to_omega
from .dispersion import SellmeierModel, wavevector
from .errors import DomainError, SolverError

# Coarse sign-change scan before bisection: temperatures in
# find_degeneracy_temperature, signal wavelengths in tuning_curve.
SCAN_POINTS = 500

# Bisection halvings before bisect_root returns the bracket midpoint.
BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class CrystalConfig:
    """Periodically poled crystal and its operating point."""

    model: SellmeierModel
    length_mm: float
    poling_period_um: float
    temperature_C: float
    calibration_offset_C: float = 0.0

    def __post_init__(self):
        if not self.length_mm > 0:
            raise DomainError(f"crystal length must be positive, got {self.length_mm} mm")
        if not self.poling_period_um > 0:
            raise DomainError(f"poling period must be positive, got {self.poling_period_um} um")
        self.model.check_temperature(self.effective_temperature_C)

    @property
    def effective_temperature_C(self) -> float:
        return self.temperature_C + self.calibration_offset_C

    @property
    def poling_wavenumber(self) -> float:
        """2 pi / Lambda in 1/m."""
        return TWO_PI / (self.poling_period_um * UM)


def idler_wavelength_nm(lambda_p_nm, lambda_s_nm):
    """Energy conservation 1/lp = 1/ls + 1/li solved for the idler.

    Either wavelength may be an array; the first pair that leaves no
    positive idler energy is named in the DomainError.
    """
    inv = 1.0 / lambda_p_nm - 1.0 / np.asarray(lambda_s_nm, dtype=float)
    bad = inv <= 0
    if np.any(bad):
        k = int(np.argmax(bad))
        lam_p, lam_s = (float(np.broadcast_to(lam, np.shape(inv)).flat[k])
                        for lam in (lambda_p_nm, lambda_s_nm))
        raise DomainError(
            f"signal {lam_s:.6g} nm does not leave positive idler energy for pump {lam_p:.6g} nm")
    out = 1.0 / inv
    return out if np.ndim(out) else float(out)


def delta_k(cfg: CrystalConfig, lambda_p_nm, lambda_s_nm):
    """Wave-vector mismatch dk = k_p - k_s - k_i - 2 pi / Lambda in 1/m.

    Either wavelength may be an array; the idler wavelength is derived from
    energy conservation and must lie inside the material validity window.
    """
    theta = cfg.effective_temperature_C
    w_p = wavelength_nm_to_omega(lambda_p_nm)
    k_p = wavevector(cfg.model, w_p, theta)  # checks the pump before the idler is derived
    lam_s = np.asarray(lambda_s_nm, dtype=float)
    lam_i = idler_wavelength_nm(lambda_p_nm, lam_s)
    cfg.model.check_wavelength(lam_i)  # the signal is checked inside wavevector
    w_s = wavelength_nm_to_omega(lam_s)
    w_i = w_p - w_s
    out = (k_p
           - wavevector(cfg.model, w_s, theta)
           - wavevector(cfg.model, w_i, theta)
           - cfg.poling_wavenumber)
    return out if np.ndim(lambda_s_nm) else float(out)


def bisect_root(fn, lo: float, hi: float, *, xtol: float) -> float:
    """Bracketed bisection; deterministic for identical inputs."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise SolverError(f"no sign change on [{lo:.6g}, {hi:.6g}]")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or (hi - lo) < xtol:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def find_degeneracy_temperature(cfg: CrystalConfig, lambda_p_nm: float) -> float:
    """Reported temperature at which dk = 0 for the degenerate pair
    lambda_s = lambda_i = 2 * lambda_p; dk is evaluated through ``delta_k``
    at the effective (offset-applied) temperature.
    """
    model = cfg.model
    t_lo = model.temperature_C_min - cfg.calibration_offset_C
    t_hi = model.temperature_C_max - cfg.calibration_offset_C

    def delta_k_fn(theta):
        return delta_k(replace(cfg, temperature_C=theta), lambda_p_nm, 2 * lambda_p_nm)

    thetas = np.linspace(t_lo, t_hi, SCAN_POINTS)
    values = np.array([delta_k_fn(t) for t in thetas])
    signs = np.sign(values)
    crossings = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
    if len(crossings) == 0:
        raise SolverError(
            f"no phase matching in range: dk(theta) has no sign change on "
            f"[{t_lo:.2f}, {t_hi:.2f}] C ({SCAN_POINTS} scan points)"
        )
    i = crossings[0]
    # refine until |dk| is far below the poling wavenumber
    theta = bisect_root(delta_k_fn, thetas[i], thetas[i + 1], xtol=1e-9)
    if abs(delta_k_fn(theta)) > 1e-6 * cfg.poling_wavenumber:
        raise SolverError(f"bisection did not converge at theta={theta:.4f} C")
    return float(theta)


def fit_calibration_offset(cfg: CrystalConfig, lambda_p_nm: float,
                           measured_degeneracy_C: float) -> float:
    """One-time offset so that the solved degeneracy temperature equals the
    measured one: offset = theta_deg(model, zero offset) - theta_measured."""
    base = replace(cfg, calibration_offset_C=0.0)
    theta_deg = find_degeneracy_temperature(base, lambda_p_nm)
    return theta_deg - measured_degeneracy_C


@dataclass(frozen=True)
class TuningPoint:
    theta_C: float
    lambda_s_nm: float
    lambda_i_nm: float


def _signal_scan_range(cfg: CrystalConfig, lambda_p_nm: float):
    """Signal wavelengths for which signal, idler and pump all stay inside
    the material validity window."""
    wl_lo_nm = cfg.model.wavelength_um_min * 1e3
    wl_hi_nm = cfg.model.wavelength_um_max * 1e3
    # idler <= wl_hi  =>  lambda_s >= 1/(1/lp - 1/wl_hi)
    lo = max(wl_lo_nm, 1.0 / (1.0 / lambda_p_nm - 1.0 / wl_hi_nm))
    hi = 2 * lambda_p_nm
    return lo * (1 + 1e-9), hi


def tuning_curve(cfg: CrystalConfig, lambda_p_nm: float, theta_range, grid: int):
    """Phase-matched (theta, lambda_s, lambda_i) branches over a temperature
    range.  For each temperature all roots of dk(lambda_s) = 0 with
    lambda_s <= 2*lambda_p are found by a coarse scan plus bisection
    refinement to 1e-4 nm; temperatures without roots yield no entries.
    """
    lo, hi = _signal_scan_range(cfg, lambda_p_nm)
    lam_grid = np.linspace(lo, hi, SCAN_POINTS)
    points: list[TuningPoint] = []
    for theta in np.linspace(theta_range[0], theta_range[1], grid):
        c = replace(cfg, temperature_C=float(theta))
        vals = delta_k(c, lambda_p_nm, lam_grid)
        signs = np.sign(vals)
        idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        roots = [
            bisect_root(lambda ls: delta_k(c, lambda_p_nm, ls),
                        lam_grid[i], lam_grid[i + 1], xtol=1e-4)
            for i in idx
        ]
        if signs[-1] == 0:  # exact degeneracy lands on the last grid point
            roots.append(lam_grid[-1])
        for lam_s in sorted(roots):
            lam_i = idler_wavelength_nm(lambda_p_nm, lam_s)
            points.append(TuningPoint(float(theta), float(lam_s), float(lam_i)))
    return points


def export_tuning_curve_csv(points, path) -> None:
    """CSV with header ``theta_C,lambda_s_nm,lambda_i_nm,branch``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_C", "lambda_s_nm", "lambda_i_nm", "branch"])
        for p in points:
            writer.writerow([f"{p.theta_C:.6f}", f"{p.lambda_s_nm:.6f}",
                             f"{p.lambda_i_nm:.6f}", "signal"])
