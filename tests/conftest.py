import csv
import json

import numpy as np
import pytest

from spdclab import biphoton, dispersion, phasematch
from spdclab.constants import FS, MM, omega_to_wavelength_nm, wavelength_nm_to_omega

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
    return biphoton.PumpEnvelope.from_wavelength(LAMBDA_P_NM)


@pytest.fixture(scope="session")
def jsa_1024(crystal, pump):
    grid = biphoton.GridSpec(n=1024, center_lambda_nm=810.0, half_span_nm=60.0)
    return biphoton.build_jsa(crystal, pump, grid)


@pytest.fixture(scope="session")
def jta_free_1024(jsa_1024):
    return biphoton.to_temporal(jsa_1024)


@pytest.fixture(scope="session")
def jta_fiber_1024(jsa_1024, pump):
    fd = biphoton.FiberDispersion(beta_fs2=BETA_FIBER_FS2, reference_omega=pump.omega_p / 2.0)
    return biphoton.to_temporal(biphoton.apply_fiber_phase(jsa_1024, fd))


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


def export_matrix_csv_reference(js, csv_path, sidecar_path) -> None:
    """``np.savetxt`` matrix export, the reference for
    ``biphoton.export_matrix_csv``."""
    units = "rad/s" if js.domain == "spectral" else "s"
    with open(csv_path, "w") as fh:
        fh.write("# axis_s: " + " ".join(f"{v:.12e}" for v in js.axis_s) + "\n")
        fh.write("# axis_i: " + " ".join(f"{v:.12e}" for v in js.axis_i) + "\n")
        np.savetxt(fh, js.intensity(), delimiter=",", fmt="%.12e")
    sidecar = {
        "domain": js.domain,
        "axis_units": units,
        "normalized": js.normalized,
        "measured": js.measured,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def total_mass(js) -> float:
    """Integral of |amplitude|^2 over both axes: 1 for a normalized JSA,
    and by Parseval the same in the temporal domain (criterion 7)."""
    return float(np.sum(js.intensity()) * js.step("s") * js.step("i"))


def assert_close(value, expected, rel, label=""):
    __tracebackhide__ = True
    err = abs(value - expected) / abs(expected)
    assert err <= rel, f"{label}: {value} vs {expected} (rel err {err:.3e} > {rel})"
