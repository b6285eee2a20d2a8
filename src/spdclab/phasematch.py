"""Quasi-phase-matching solver for collinear type-0 SPDC in a periodically
poled crystal: wave-vector mismatch, degeneracy-temperature search and
signal/idler tuning curves versus temperature.

The waveguide's modal dispersion is unknown, so the bulk Sellmeier model
plus an additive ``calibration_offset_C`` stands in for it: every index is
evaluated at an effective temperature, a crystal's ``temperature_C +
calibration_offset_C`` or a tuning-curve temperature plus the offset.  The
degeneracy search solves for the effective temperature, and the offset,
fitted once, maps it onto the measured one, keeping the bulk/waveguide
discrepancy visible instead of hidden.  The one ``delta_k`` takes the
effective temperature as an argument and checks it against the material
window; a crystal does not check its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI, UM, omega_to_wavelength_nm, wavelength_nm_to_omega
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
    return 1.0 / inv


def delta_k(cfg: CrystalConfig, theta_C, lambda_p_nm, lambda_s_nm):
    """Wave-vector mismatch dk = k_p - k_s - k_i - 2 pi / Lambda in 1/m at
    the effective temperature ``theta_C`` in degC (a crystal's own is
    ``cfg.effective_temperature_C``).

    The temperature and either wavelength may be a scalar or an array, all
    broadcasting together; the idler wavelength is derived from energy
    conservation.  Refuses the first temperature, then every wavelength
    outside the material window (the pump as given, before any conversion
    divides by it, then the idler it implies, then the signal and idler
    frequencies as the wavevectors see them), then the other temperatures:
    the order of one call per temperature.
    """
    model = cfg.model
    model.check_temperature(np.asarray(theta_C).flat[:1])
    model.check_wavelength(lambda_p_nm)
    w_p = wavelength_nm_to_omega(lambda_p_nm)
    lam_s = np.asarray(lambda_s_nm, dtype=float)
    model.check_wavelength(idler_wavelength_nm(lambda_p_nm, lam_s))
    w_s = wavelength_nm_to_omega(lam_s)
    w_i = w_p - w_s
    for w in (w_s, w_i):
        model.check_wavelength(omega_to_wavelength_nm(w))
    return (wavevector(model, w_p, theta_C)
            - wavevector(model, w_s, theta_C)
            - wavevector(model, w_i, theta_C)
            - cfg.poling_wavenumber)


def bisect_root(fn, lo, hi, *, xtol: float):
    """Bracketed bisection of the brackets [lo[j], hi[j]], all at once;
    deterministic for identical inputs.

    ``fn(x, k)`` returns the function of brackets ``k`` (an index array) at
    ``x``, so each halving step is one call on the brackets still open.  Per
    bracket: an endpoint where the function is exactly 0 is the root; the
    first bracket without a sign change raises SolverError; a bracket stops
    at the midpoint where the function is 0 or the bracket is narrower than
    ``xtol``, and after BISECT_MAX_ITER halvings at its midpoint.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    k = np.arange(lo.size)
    f_lo = fn(lo, k)
    f_hi = fn(hi, k)
    root = np.where(f_lo == 0.0, lo, hi)
    unsolved = (f_lo != 0.0) & (f_hi != 0.0)
    same = unsolved & (np.sign(f_lo) == np.sign(f_hi))
    if np.any(same):
        j = int(np.argmax(same))
        raise SolverError(f"no sign change on [{lo[j]:.6g}, {hi[j]:.6g}]")
    k = k[unsolved]
    for _ in range(BISECT_MAX_ITER):
        if not k.size:
            break
        mid = 0.5 * (lo[k] + hi[k])
        f_mid = fn(mid, k)
        done = (f_mid == 0.0) | (hi[k] - lo[k] < xtol)
        root[k[done]] = mid[done]
        # f keeps the sign of f_lo at lo, so f_lo itself needs no update
        up = ~done & (np.sign(f_mid) == np.sign(f_lo[k]))
        down = ~done & ~up
        lo[k[up]] = mid[up]
        hi[k[down]] = mid[down]
        k = k[~done]
    root[k] = 0.5 * (lo[k] + hi[k])
    return root


def find_degeneracy_temperature(cfg: CrystalConfig, lambda_p_nm: float) -> float:
    """Effective temperature at which dk = 0 for the degenerate pair
    lambda_s = lambda_i = 2 * lambda_p; a crystal reports it minus its
    ``calibration_offset_C``.  The scan over the model's window is one array
    call of ``delta_k``, and so is each bisection step.
    """
    t_lo, t_hi = cfg.model.temperature_C_min, cfg.model.temperature_C_max

    def dk(theta, k=None):  # k: the open brackets, all of this one config
        return delta_k(cfg, theta, lambda_p_nm, 2 * lambda_p_nm)

    thetas = np.linspace(t_lo, t_hi, SCAN_POINTS)
    signs = np.sign(dk(thetas))
    crossings = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
    if len(crossings) == 0:
        raise SolverError(
            f"no phase matching in range: dk(theta) has no sign change on "
            f"[{t_lo:.2f}, {t_hi:.2f}] C ({SCAN_POINTS} scan points)"
        )
    i = crossings[0]
    # refine until |dk| is far below the poling wavenumber
    theta = bisect_root(dk, thetas[i:i + 1], thetas[i + 1:i + 2], xtol=1e-9)[0]
    if abs(dk(theta)) > 1e-6 * cfg.poling_wavenumber:
        raise SolverError(f"bisection did not converge at theta={theta:.4f} C")
    return float(theta)


def fit_calibration_offset(cfg: CrystalConfig, lambda_p_nm: float,
                           measured_degeneracy_C: float) -> float:
    """One-time offset so that the solved degeneracy temperature equals the
    measured one: offset = theta_deg(effective) - theta_measured."""
    return find_degeneracy_temperature(cfg, lambda_p_nm) - measured_degeneracy_C


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
    """Phase-matched branches over a temperature range, as an
    ``(n_points, 3)`` float array of ``(theta_C, lambda_s_nm, lambda_i_nm)``
    rows.  For each temperature all roots of dk(lambda_s) = 0 with
    lambda_s <= 2*lambda_p are found by a coarse scan plus bisection
    refinement to 1e-4 nm; temperatures without roots yield no rows.  A
    root lies in each sign change of the scan, or at each exact zero after a
    nonzero point.  The scan of all temperatures is one array call, and the
    bisections of all brackets advance together; the rows come per
    temperature, in ascending signal wavelength.  A ``grid`` whose scan numpy
    cannot index is a MemoryError, raised before any array is made.
    """
    if int(grid) * SCAN_POINTS > np.iinfo(np.intp).max:
        raise MemoryError(f"grid {grid} makes a {grid} x {SCAN_POINTS} dk scan, "
                          "larger than numpy can index")
    thetas = np.linspace(theta_range[0], theta_range[1], grid)
    theta_eff = thetas + cfg.calibration_offset_C
    # the scan's first refusals, before the scan range divides by the pump
    cfg.model.check_temperature(theta_eff[:1])
    cfg.model.check_wavelength(lambda_p_nm)
    lam_grid = np.linspace(*_signal_scan_range(cfg, lambda_p_nm), SCAN_POINTS)
    s = np.sign(delta_k(cfg, theta_eff[:, None], lambda_p_nm, lam_grid))
    at, col = np.nonzero((s[:, :-1] * s[:, 1:] < 0) | ((s[:, 1:] == 0) & (s[:, :-1] != 0)))
    lam_s = bisect_root(lambda ls, k: delta_k(cfg, theta_eff[at[k]], lambda_p_nm, ls),
                        lam_grid[col], lam_grid[col + 1], xtol=1e-4)
    return np.column_stack([thetas[at], lam_s, idler_wavelength_nm(lambda_p_nm, lam_s)])


def export_tuning_curve_csv(points, path) -> None:
    """CSV with header ``theta_C,lambda_s_nm,lambda_i_nm,branch`` and one
    ``signal`` row per row of ``points``, in the CRLF-terminated form of
    ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        fh.write("theta_C,lambda_s_nm,lambda_i_nm,branch\r\n")
        fh.writelines("%.6f,%.6f,%.6f,signal\r\n" % tuple(p) for p in points)
