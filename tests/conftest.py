import csv
import json
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from spdclab import biphoton, cli, counting, dispersion, phasematch, schema
from spdclab.constants import FS, MM, TWO_PI, omega_to_wavelength_nm, wavelength_nm_to_omega
from spdclab.errors import SolverError

# Bulk-model degeneracy temperature for the 405 nm -> 810 nm degenerate
# pair, frozen from an independent root solve on the published Sellmeier
# equation.
THETA_DEG_MODEL_C = 108.49753270245685

# Reported (measured) degeneracy temperature the calibration offset maps to.
THETA_DEG_MEASURED_C = 59.4

LAMBDA_P_NM = 405.0

# Fiber group delay dispersion per photon quoted with the paper's 408.6 fs.
BETA_FIBER_FS2 = 3.3e4


@pytest.fixture(scope="session")
def material():
    return dispersion.load_material()


@pytest.fixture(scope="session")
def calibration_offset(material):
    base = phasematch.CrystalConfig(material, 20.0, 2.72, THETA_DEG_MEASURED_C, 0.0)
    return phasematch.fit_calibration_offset(base, LAMBDA_P_NM, THETA_DEG_MEASURED_C)


@pytest.fixture(scope="session")
def crystal(material, calibration_offset):
    """The 20 mm / 2.72 um crystal at its measured degeneracy temperature,
    with the bulk-vs-waveguide calibration offset applied."""
    return phasematch.CrystalConfig(material, 20.0, 2.72,
                                    THETA_DEG_MEASURED_C, calibration_offset)


@pytest.fixture(scope="session")
def pump():
    return biphoton.PumpEnvelope.from_wavelength(LAMBDA_P_NM, 0.01)


@pytest.fixture(scope="session")
def jsa_1024(crystal, pump):
    grid = biphoton.GridSpec(n=1024, center_lambda_nm=810.0, half_span_nm=60.0)
    return biphoton.build_jsa(crystal, pump, grid)


@pytest.fixture(scope="session")
def jta_free_1024(jsa_1024):
    return biphoton.to_temporal(jsa_1024)


@pytest.fixture(scope="session")
def jta_fiber_1024(jsa_1024, pump):
    return biphoton.to_temporal(
        biphoton.apply_fiber_phase(jsa_1024, BETA_FIBER_FS2, pump.omega_p / 2.0))


def refractive_index(model, lambda_nm, theta_C):
    """Extraordinary refractive index n_e(lambda, theta); lambda_nm in nm
    (scalar or array), theta_C in degC.  The golden index values check the
    Sellmeier evaluation that ``dispersion.wavevector`` uses."""
    _, n, _, _ = dispersion._index_and_derivatives(model, lambda_nm, theta_C)
    return n if np.ndim(lambda_nm) else float(n)


def group_index(model, lambda_nm, theta_C):
    """Group index n_g = n - lambda * dn/dlambda from the analytic dn/dlambda
    of ``dispersion._index_and_derivatives``."""
    lam_um, n, dn, _ = dispersion._index_and_derivatives(model, lambda_nm, theta_C)
    ng = n - lam_um * dn
    return ng if np.ndim(lambda_nm) else float(ng)


def bisect_root_reference(fn, lo: float, hi: float, *, xtol: float) -> float:
    """One bracket of ``phasematch.bisect_root``, one scalar ``fn(x)`` call
    per endpoint and per halving."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise SolverError(f"no sign change on [{lo:.6g}, {hi:.6g}]")
    for _ in range(phasematch.BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0 or (hi - lo) < xtol:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def tuning_curve_reference(cfg, lambda_p_nm, theta_range, grid):
    """``phasematch.tuning_curve`` one temperature at a time: a config per
    temperature, a scan of ``delta_k`` over the signal grid, then one scalar
    bisection per sign change; the same ``(n_points, 3)`` array."""
    lo, hi = phasematch._signal_scan_range(cfg, lambda_p_nm)
    lam_grid = np.linspace(lo, hi, phasematch.SCAN_POINTS)
    points = []
    for theta in np.linspace(theta_range[0], theta_range[1], grid):
        c = replace(cfg, temperature_C=float(theta))
        signs = np.sign(phasematch.delta_k(c, lambda_p_nm, lam_grid))
        idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        roots = [
            bisect_root_reference(lambda ls: phasematch.delta_k(c, lambda_p_nm, ls),
                                  lam_grid[i], lam_grid[i + 1], xtol=1e-4)
            for i in idx
        ]
        if signs[-1] == 0:
            roots.append(lam_grid[-1])
        for lam_s in sorted(roots):
            lam_i = phasematch.idler_wavelength_nm(lambda_p_nm, lam_s)
            points.append((float(theta), float(lam_s), float(lam_i)))
    return np.array(points, dtype=float).reshape(-1, 3)


def export_tuning_curve_csv_reference(points, path) -> None:
    """``phasematch.export_tuning_curve_csv`` through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_C", "lambda_s_nm", "lambda_i_nm", "branch"])
        for theta_C, lambda_s_nm, lambda_i_nm in points:
            writer.writerow([f"{theta_C:.6f}", f"{lambda_s_nm:.6f}",
                             f"{lambda_i_nm:.6f}", "signal"])


def chain_efficiencies(chain):
    """(eta_singles, eta_coin) of a ``counting.DetectionChain``: the
    efficiency bookkeeping that the simulated rates must close on."""
    eta_singles = chain.eta_coupling * chain.eta_insertion * chain.eta_detector
    eta_coin = chain.eta_coupling * chain.eta_insertion ** 2 * chain.eta_detector ** 2
    return eta_singles, eta_coin


def to_spectral(js, centers):
    """Inverse of ``biphoton.to_temporal``.  ``centers`` are the spectral
    axis origins, ``(axis_s[n_s // 2], axis_i[n_i // 2])`` of the JSA: the
    samples that ``ifftshift`` moves to index 0, the phase origin of the
    forward transform."""
    n_s, n_i = js.amplitude.shape
    dt_s, dt_i = js.step("s"), js.step("i")
    dw_s = TWO_PI / (n_s * dt_s)
    dw_i = TWO_PI / (n_i * dt_i)
    scale = dw_s * dw_i / TWO_PI
    amp = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(js.amplitude / scale)))
    c_s, c_i = centers
    axis_s = c_s + np.fft.fftshift(np.fft.fftfreq(n_s, d=dt_s / TWO_PI))
    axis_i = c_i + np.fft.fftshift(np.fft.fftfreq(n_i, d=dt_i / TWO_PI))
    return biphoton.JointSpectrum(amplitude=amp, axis_s=axis_s, axis_i=axis_i, domain="spectral")


def _fwhm_linear(x, y):
    """FWHM of the lobe around the maximum of a sampled curve, crossing
    points found by linear interpolation between the samples either side of
    half maximum."""
    k = int(np.argmax(y))
    half = y[k] / 2.0
    below_right = np.nonzero(y[k:] < half)[0]
    below_left = np.nonzero(y[:k] < half)[0]
    if len(below_right) == 0 or len(below_left) == 0:
        raise ValueError("curve does not drop below half maximum inside the axis")
    lo, hi = below_left[-1] + 1, k + below_right[0] - 1
    x_lo = x[lo - 1] + (half - y[lo - 1]) * (x[lo] - x[lo - 1]) / (y[lo] - y[lo - 1])
    x_hi = x[hi] + (half - y[hi]) * (x[hi + 1] - x[hi]) / (y[hi + 1] - y[hi])
    return float(x_hi - x_lo)


def entanglement_time_cw_oracle(cfg, lambda_p_nm, beta_fs2, n=2 ** 16,
                                omega_max=1e15):
    """Entanglement time (fs) of a CW-pumped pair, computed in 1D.

    With a monochromatic pump the pair frequencies are w_p/2 +- W, and the
    joint temporal amplitude along tau = t_s - t_i is

        JTA(tau) = int phi(W) exp(i beta W^2) exp(-i W tau) dW,

    phi = sinc(dk L / 2) from the scalar-pump ``phasematch.delta_k`` and
    beta W^2 the sum of the two per-arm phases beta/2 W^2.  The integral is
    a unitary 1D FFT over W in [-omega_max, omega_max) with the tau axis
    from ``fftfreq(n, d=dW / 2 pi)``; T_e is the FWHM of |JTA|^2.  Nothing
    here goes through ``build_jsa``, ``apply_fiber_phase`` or
    ``to_temporal``, so it checks the 2D pipeline from outside.
    """
    d_omega = 2.0 * omega_max / n
    big_omega = -omega_max + d_omega * np.arange(n)
    omega_p = wavelength_nm_to_omega(lambda_p_nm)
    lambda_s_nm = omega_to_wavelength_nm(omega_p / 2.0 + big_omega)
    dk = phasematch.delta_k(cfg, lambda_p_nm, lambda_s_nm)
    phi = np.sinc(dk * (cfg.length_mm * MM) / 2.0 / np.pi)
    amp = phi * np.exp(1j * (beta_fs2 * FS ** 2) * big_omega ** 2)
    jta = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(amp))) * d_omega / np.sqrt(2.0 * np.pi)
    tau = np.fft.fftshift(np.fft.fftfreq(n, d=d_omega / (2.0 * np.pi)))
    return _fwhm_linear(tau, np.abs(jta) ** 2) / FS


def match_coincidences_bruteforce(a, b, window_ns: float) -> int:
    """All-pairs greedy earliest-match oracle for
    ``counting.match_coincidences`` (quadratic)."""
    used_b = set()
    matches = 0
    for t in a:
        for j, u in enumerate(b):
            if j in used_b:
                continue
            if u > t + window_ns:
                break
            if abs(t - u) <= window_ns:
                used_b.add(j)
                matches += 1
                break
    return matches


def match_triples_bruteforce(h, a, b, window_ns: float) -> int:
    """Quadratic oracle for ``counting.match_triples``: for each herald t
    in order, the earliest unused a >= t - w and the earliest unused
    b >= t - w are both taken if both are <= t + w."""
    used_a, used_b = set(), set()
    matches = 0
    for t in h:
        ia = next((k for k, u in enumerate(a) if k not in used_a and u >= t - window_ns), None)
        ib = next((k for k, v in enumerate(b) if k not in used_b and v >= t - window_ns), None)
        if ia is not None and ib is not None and a[ia] <= t + window_ns and b[ib] <= t + window_ns:
            used_a.add(ia)
            used_b.add(ib)
            matches += 1
    return matches


def simulate_tags_reference(src, chain, seed: int) -> dict:
    """The channels of ``counting.simulate_tags``, drawn in the same order
    and selected with full-length masks over all pairs: per photon and
    channel, ``coupled & routed_there & (keep < s)``, and per channel a
    window filter and ``np.unique``."""
    window_ns = chain.integration_time_ms * 1e6
    window_s = chain.integration_time_ms * 1e-3
    rng = np.random.default_rng(seed)
    n_pairs = rng.poisson(src.pair_rate_hz * window_s)
    pair_times = rng.uniform(0.0, window_ns, n_pairs)
    coupled = rng.random(n_pairs) < chain.eta_coupling
    clicks = {label: [] for label in chain.channels}
    if chain.topology == "pair":
        survive = chain.eta_insertion * chain.eta_detector
        for label in counting.PAIR_CHANNELS:
            detected = coupled & (rng.random(n_pairs) < survive)
            clicks[label].append(pair_times[detected])
    else:
        for _ in range(2):
            u = rng.random(n_pairs)
            to_herald = u < 0.5
            to_ch1 = (u >= 0.5) & (u < 0.75)
            to_ch2 = u >= 0.75
            s1 = chain.eta_insertion * chain.eta_detector
            s2 = chain.eta_insertion ** 2 * chain.eta_detector
            keep = rng.random(n_pairs)
            clicks["h"].append(pair_times[coupled & to_herald & (keep < s1)])
            clicks["1"].append(pair_times[coupled & to_ch1 & (keep < s2)])
            clicks["2"].append(pair_times[coupled & to_ch2 & (keep < s2)])
    channels = {}
    for label in chain.channels:
        photon = np.concatenate(clicks[label])
        if chain.jitter_fwhm_ns != 0:
            sigma = chain.jitter_fwhm_ns / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            photon = photon + rng.normal(0.0, sigma, size=photon.shape)
        dark = rng.uniform(0.0, window_ns, rng.poisson(chain.dark_rate_hz * window_s))
        merged = np.concatenate([photon, dark])
        merged = merged[(merged >= 0.0) & (merged < window_ns)]
        channels[label] = np.unique(merged)
    return channels


def dump_csv_reference(tags, path) -> None:
    """Row-by-row ``csv.writer`` tag dump, the reference for
    ``counting.TagStream.dump_csv``."""
    rows = []
    for label, times in tags.channels.items():
        rows.extend((float(t), label) for t in times)
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "timestamp_ns"])
        for t, label in rows:
            writer.writerow([label, f"{t:.6f}"])


def intensity(js):
    """|amplitude|**2 of the whole matrix, which ``biphoton.export_matrix_csv``
    computes one chunk at a time."""
    return np.abs(js.amplitude) ** 2


def export_matrix_csv_reference(js, csv_path, sidecar_path, measured) -> None:
    """``np.savetxt`` matrix export from the full intensity, the reference
    for ``biphoton.export_matrix_csv``."""
    units = "rad/s" if js.domain == "spectral" else "s"
    with open(csv_path, "w") as fh:
        fh.write("# axis_s: " + " ".join(f"{v:.12e}" for v in js.axis_s) + "\n")
        fh.write("# axis_i: " + " ".join(f"{v:.12e}" for v in js.axis_i) + "\n")
        np.savetxt(fh, intensity(js), delimiter=",", fmt="%.12e")
    sidecar = {
        "domain": js.domain,
        "axis_units": units,
        "normalized": not measured,
        "measured": measured,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_jsa_reference(cfg, env, grid):
    """``biphoton.build_jsa`` on a grid that covers the spectrum, from full
    ``meshgrid`` coordinate matrices and out-of-place normalisation."""
    axis = grid.omega_axis()
    w_s, w_i = np.meshgrid(axis, axis, indexing="ij")
    alpha = biphoton.pump_envelope(env, w_s, w_i)
    mask = alpha > 1e-16
    amp = np.zeros_like(alpha)
    amp[mask] = alpha[mask] * biphoton.phase_matching_function(cfg, w_s[mask], w_i[mask])
    total = float(np.sum(amp ** 2))
    dw = axis[1] - axis[0]
    return biphoton.JointSpectrum(amplitude=amp / np.sqrt(total * dw * dw),
                                  axis_s=axis.copy(), axis_i=axis.copy(), domain="spectral")


def apply_fiber_phase_reference(js, beta_fs2, reference_omega):
    """``biphoton.apply_fiber_phase`` as one chained product."""
    if beta_fs2 == 0.0:
        return js
    beta = beta_fs2 * FS ** 2
    phase_s = np.exp(1j * beta / 2.0 * (js.axis_s - reference_omega) ** 2)
    phase_i = np.exp(1j * beta / 2.0 * (js.axis_i - reference_omega) ** 2)
    return replace(js, amplitude=js.amplitude * phase_s[:, None] * phase_i[None, :])


def to_temporal_reference(js):
    """``biphoton.to_temporal`` with the amplitude computed out of place as
    ``fftshift(fft2(ifftshift(a))) * scale``; axes and tags from
    ``to_temporal``."""
    scale = js.step("s") * js.step("i") / TWO_PI
    jta = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(js.amplitude))) * scale
    return replace(biphoton.to_temporal(js), amplitude=jta)


def jsa_outputs_reference(config_path, out) -> None:
    """The five files of ``spdclab jsa`` from the reference expressions:
    both JTAs held at once, the matrices exported from the full intensity
    (``export_matrix_csv_reference``)."""
    given = schema.load_config(config_path)
    cfg = schema.check(cli.JSA, given)
    if cfg["measured_jsi_csv"]:
        jsa = biphoton.import_jsi_csv(cfg["measured_jsi_csv"], cfg["measured_axis_units"])
        reference_omega = float(jsa.axis_s[len(jsa.axis_s) // 2])
    else:
        env = biphoton.PumpEnvelope.from_wavelength(cfg["lambda_p_nm"], cfg["pump_fwhm_nm"])
        grid = biphoton.GridSpec(center_lambda_nm=2 * cfg["lambda_p_nm"], **cfg["grid"])
        jsa = build_jsa_reference(cli._crystal(cfg["crystal"]), env, grid)
        reference_omega = env.omega_p / 2.0
    jta_free = to_temporal_reference(jsa)
    jta_fiber = to_temporal_reference(
        apply_fiber_phase_reference(jsa, cfg["fiber_beta_fs2"], reference_omega))
    measured = bool(cfg["measured_jsi_csv"])
    os.makedirs(out, exist_ok=True)
    export_matrix_csv_reference(jsa, os.path.join(out, "jsi.csv"), os.path.join(out, "jsi.json"),
                                measured)
    export_matrix_csv_reference(jta_fiber, os.path.join(out, "jti.csv"),
                                os.path.join(out, "jti.json"), measured)
    schema.write_json({
        "config": given,
        "fiber_beta_fs2": cfg["fiber_beta_fs2"],
        "entanglement_time_free_fs": biphoton.entanglement_time_from_jti(jta_free),
        "entanglement_time_fiber_fs": biphoton.entanglement_time_from_jti(jta_fiber),
        "measured_input": measured,
    }, os.path.join(out, "te_report.json"))


def resample_jsi_reference(axis_s, axis_i, intensity):
    """scipy ``RegularGridInterpolator`` resample onto uniform axes, the
    reference for ``biphoton._resample_uniform``: axes made increasing,
    uniform axes with the same end points and lengths, linear
    interpolation with fill value 0, clipped at 0."""
    from scipy.interpolate import RegularGridInterpolator

    if axis_s[0] > axis_s[-1]:
        axis_s = axis_s[::-1]
        intensity = intensity[::-1, :]
    if axis_i[0] > axis_i[-1]:
        axis_i = axis_i[::-1]
        intensity = intensity[:, ::-1]
    uni_s = np.linspace(axis_s[0], axis_s[-1], len(axis_s))
    uni_i = np.linspace(axis_i[0], axis_i[-1], len(axis_i))
    interp = RegularGridInterpolator((axis_s, axis_i), intensity,
                                     bounds_error=False, fill_value=0.0)
    w_s, w_i = np.meshgrid(uni_s, uni_i, indexing="ij")
    resampled = np.clip(interp(np.stack([w_s, w_i], axis=-1)), 0.0, None)
    return uni_s, uni_i, resampled


def _det(matrix):
    """Determinant by cofactor expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum((-1) ** k * matrix[0][k] * _det([row[:k] + row[k + 1:] for row in matrix[1:]])
               for k in range(len(matrix)))


def fit_rate_curve_oracle(table, model: str) -> dict:
    """Reference for ``analysis.fit_rate_curve`` on a table it accepts: the
    weights numpy computes, ``1.0 / err ** 2`` on an array (all 1 when every
    error is 0), the normal equations summed row by row in ``Fraction``, the
    inverse from cofactors over the determinant, and chi-squared as the
    weighted sum of the exact residuals; each number rounded once."""
    n_par = 2 if model == "linear" else 3
    errors = np.array([r.r_coin_err for r in table])
    weights = (1.0 / errors ** 2).tolist() if errors.any() else [1.0] * len(table)
    rows = [(Fraction(w), Fraction(r.p_spdc_pW), Fraction(r.r_coin))
            for w, r in zip(weights, table)]
    normal = [[sum(w * p ** (j + k) for w, p, _ in rows) for k in range(n_par)]
              for j in range(n_par)]
    rhs = [sum(w * p ** j * y for w, p, y in rows) for j in range(n_par)]
    det = _det(normal)
    inverse = [[(-1) ** (j + k) * _det([row[:j] + row[j + 1:]
                                         for i, row in enumerate(normal) if i != k]) / det
                for k in range(n_par)] for j in range(n_par)]
    coef = [sum(a * b for a, b in zip(inverse[j], rhs)) for j in range(n_par)]
    chi2 = sum(w * (y - sum(c * p ** k for k, c in enumerate(coef))) ** 2 for w, p, y in rows)
    return {
        "model": model,
        "coefficients": [float(c) for c in coef],
        "standard_errors": [math.sqrt(float(inverse[j][j])) for j in range(n_par)],
        "reduced_chi2": float(chi2 / (len(table) - n_par)),
        "n_points": len(table),
    }


def total_mass(js) -> float:
    """Integral of |amplitude|^2 over both axes: 1 for a normalized JSA,
    and by Parseval the same in the temporal domain (criterion 7)."""
    return float(np.sum(intensity(js)) * js.step("s") * js.step("i"))


def assert_close(value, expected, rel, label=""):
    __tracebackhide__ = True
    err = abs(value - expected) / abs(expected)
    assert err <= rel, f"{label}: {value} vs {expected} (rel err {err:.3e} > {rel})"
