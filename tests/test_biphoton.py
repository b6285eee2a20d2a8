import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdclab import biphoton, dispersion, phasematch
from spdclab.biphoton import (
    GridSpec,
    JointSpectrum,
    PumpEnvelope,
    apply_fiber_phase,
    build_jsa,
    entanglement_time_from_jti,
    export_matrix_csv,
    import_jsi_csv,
    jti_difference_profile,
    phase_matching_function,
    pump_envelope,
    to_temporal,
)
from spdclab.constants import C0, FS, MM, wavelength_nm_to_omega
from spdclab.errors import CoverageError, DomainError

from conftest import (
    BETA_FIBER_FS2,
    LAMBDA_P_NM,
    apply_fiber_phase_reference,
    assert_close,
    build_jsa_reference,
    export_matrix_csv_reference,
    group_index,
    intensity,
    resample_jsi_reference,
    to_spectral,
    to_temporal_reference,
    total_mass,
)

# Entanglement times for the 20 mm / 2.72 um crystal at the fitted
# degeneracy point, N = 1024, 60 nm half-span.  Frozen from an independent
# FFT pipeline written before this package existed.
GOLDEN_TE_FREE_FS = 133.3
GOLDEN_TE_FIBER_FS = 2572.6
# GVM entanglement time for a 790 nm signal (finite-difference oracle).
GOLDEN_TE_GVM_790_FS = 427.0076


# ---------------------------------------------------------------------------
# pump envelope and phase matching

def test_pump_envelope_trivials(pump):
    w = pump.omega_p / 2.0
    assert pump_envelope(pump, w, pump.omega_p - w) == pytest.approx(1.0)
    off = pump.omega_p / 2 + 3 * pump.sigma_p
    assert pump_envelope(pump, off, pump.omega_p / 2) == pytest.approx(np.exp(-4.5))
    # symmetric under signal/idler exchange
    a, b = pump.omega_p / 2 + 1e11, pump.omega_p / 2 - 3e11
    assert pump_envelope(pump, a, b) == pump_envelope(pump, b, a)


def test_scalar_inputs_give_numpy_float64(material, crystal, pump):
    # the chain returns what numpy computes: a 0-d result is an np.float64
    # (a float), never a 0-d array
    w_s, w_i = wavelength_nm_to_omega(800.0), wavelength_nm_to_omega(820.0)
    values = [dispersion.wavevector(material, w_s, 59.4),
              dispersion.gvd(material, 810.0, 59.4),
              phasematch.idler_wavelength_nm(LAMBDA_P_NM, 800.0),
              phasematch.delta_k(crystal, LAMBDA_P_NM, 800.0),
              pump_envelope(pump, w_s, w_i),
              phase_matching_function(crystal, w_s, w_i)]
    assert [type(v) for v in values] == [np.float64] * len(values)


def test_pump_from_wavelength():
    env = PumpEnvelope.from_wavelength(405.0, fwhm_nm=0.01)
    assert env.omega_p == pytest.approx(wavelength_nm_to_omega(405.0), rel=1e-14)
    assert env.sigma_p > 0
    with pytest.raises(DomainError):
        PumpEnvelope(env.omega_p, 0.0)


def test_phase_matching_peak_at_degeneracy(crystal):
    w = wavelength_nm_to_omega(2 * LAMBDA_P_NM)
    assert phase_matching_function(crystal, w, w) == pytest.approx(1.0, abs=1e-4)


def test_phase_matching_names_the_pump_outside_the_window(crystal):
    # pump 392 nm and idler 6.3 um both leave the Sellmeier window; the
    # error names the pump, as the per-point pump path always has
    with pytest.raises(DomainError, match=r"wavelength 0\.3924 um"):
        phase_matching_function(crystal, np.array([4.5e15]), np.array([0.3e15]))


def test_phase_matching_sinc_shape(crystal):
    """Scanning the signal frequency at fixed pump traces sinc(dk L / 2):
    the deepest negative value must match the first sinc sidelobe, -0.2172
    (brute-scan oracle of sin(x)/x)."""
    w_p = wavelength_nm_to_omega(LAMBDA_P_NM)
    w_s = np.linspace(wavelength_nm_to_omega(830.0), wavelength_nm_to_omega(790.0), 4001)
    phi = phase_matching_function(crystal, w_s, w_p - w_s)
    assert phi.max() == pytest.approx(1.0, abs=1e-3)
    assert phi.min() == pytest.approx(-0.21723, abs=2e-3)


# ---------------------------------------------------------------------------
# JSA construction

def test_build_jsa_normalized_and_symmetric(jsa_1024):
    assert total_mass(jsa_1024) == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(jsa_1024.amplitude, jsa_1024.amplitude.T, atol=1e-12)


def test_amplitude_is_real_until_a_phase_or_the_transform(tmp_path, crystal, pump):
    # the model and the measured JSA are float64; the fiber phase and the
    # FFT make them complex
    assert [f.name for f in fields(JointSpectrum)] == ["amplitude", "axis_s", "axis_i", "domain"]
    jsa = build_jsa(crystal, pump, GridSpec(n=128, center_lambda_nm=810.0, half_span_nm=60.0))
    export_matrix_csv(jsa, tmp_path / "jsi.csv", tmp_path / "jsi.json", False)
    back = import_jsi_csv(tmp_path / "jsi.csv", axis_units="rad/s")
    for js in (jsa, back):
        assert js.amplitude.dtype == np.float64
        assert to_temporal(js).amplitude.dtype == np.complex128
        phased = apply_fiber_phase(js, BETA_FIBER_FS2, pump.omega_p / 2.0)
        assert phased.amplitude.dtype == np.complex128


def test_build_jsa_coverage_error(crystal, pump):
    with pytest.raises(CoverageError) as exc:
        build_jsa(crystal, pump, GridSpec(n=64, center_lambda_nm=810.0, half_span_nm=0.05))
    fraction = re.search(r"boundary ring holds (\S+) of the squared mass", str(exc.value))
    assert float(fraction.group(1)) > biphoton.COVERAGE_TOLERANCE


def test_build_jsa_ring_counts_each_boundary_cell_once(crystal, pump):
    # at n = 2 every cell is a boundary cell, so the ring holds all the mass
    with pytest.raises(CoverageError) as exc:
        build_jsa(crystal, pump, GridSpec(n=2, center_lambda_nm=810.0, half_span_nm=60.0))
    fraction = re.search(r"boundary ring holds (\S+) of the squared mass", str(exc.value))
    assert biphoton.COVERAGE_TOLERANCE < float(fraction.group(1)) <= 1.0


def test_joint_spectrum_invariants():
    with pytest.raises(DomainError):
        JointSpectrum(np.zeros((2, 2)), np.array([1.0, 0.5]), np.array([0.0, 1.0]),
                      domain="spectral")
    with pytest.raises(DomainError):
        JointSpectrum(np.zeros((2, 2)), np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                      domain="nonsense")


# ---------------------------------------------------------------------------
# FFT pipeline

def test_parseval(jsa_1024, jta_free_1024):
    assert abs(total_mass(jta_free_1024) - total_mass(jsa_1024)) < 1e-9


def test_roundtrip(jsa_1024, jta_free_1024):
    back = to_spectral(jta_free_1024, (jsa_1024.axis_s[512], jsa_1024.axis_i[512]))
    assert np.max(np.abs(back.amplitude - jsa_1024.amplitude)) < 1e-10
    assert np.max(np.abs(back.axis_s - jsa_1024.axis_s)) < 1e-10 * np.max(np.abs(jsa_1024.axis_s))


def test_fiber_phase_preserves_modulus(jsa_1024, pump):
    out = apply_fiber_phase(jsa_1024, 3.3e4, pump.omega_p / 2)
    assert np.allclose(np.abs(out.amplitude), np.abs(jsa_1024.amplitude), atol=1e-14)
    # beta = 0 is the identity
    assert apply_fiber_phase(jsa_1024, 0.0, pump.omega_p / 2) is jsa_1024


def test_fiber_phase_requires_spectral_domain(jta_free_1024, pump):
    with pytest.raises(DomainError):
        apply_fiber_phase(jta_free_1024, 1.0, pump.omega_p / 2)


@pytest.mark.parametrize("beta_fs2", [float("nan"), float("inf"), float("-inf")])
def test_fiber_phase_refuses_non_finite_beta(jsa_1024, jta_free_1024, pump, beta_fs2):
    with pytest.raises(DomainError, match="fiber dispersion must be finite"):
        apply_fiber_phase(jsa_1024, beta_fs2, pump.omega_p / 2)
    # the domain is checked first
    with pytest.raises(DomainError, match="spectral domain only"):
        apply_fiber_phase(jta_free_1024, beta_fs2, pump.omega_p / 2)


# ---------------------------------------------------------------------------
# in-place pipeline against the out-of-place expressions, bit for bit

@pytest.mark.parametrize("grid", [GridSpec(n=1024, center_lambda_nm=810.0, half_span_nm=60.0),
                                  GridSpec(n=301, center_lambda_nm=812.0, half_span_nm=45.0)])
def test_build_jsa_bytes_equal_meshgrid_reference(crystal, pump, grid):
    js, ref = build_jsa(crystal, pump, grid), build_jsa_reference(crystal, pump, grid)
    assert js.amplitude.tobytes() == ref.amplitude.tobytes()
    assert js.axis_s.tobytes() == ref.axis_s.tobytes() == js.axis_i.tobytes()


def _random_spectrum(shape, seed):
    rng = np.random.default_rng(seed)
    amplitude = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axis_s = 2.3e15 + 3.1e11 * np.arange(shape[0])
    axis_i = 2.2e15 + 2.7e11 * np.arange(shape[1])
    return JointSpectrum(amplitude, axis_s, axis_i, domain="spectral")


# every parity pairing of the two axes, down to the smallest even and odd
@pytest.mark.parametrize("shape, seed", [((1024, 1024), 0), ((17, 33), 1), ((256, 255), 2),
                                         ((255, 256), 3), ((2, 2), 4), ((3, 2), 5)])
def test_pipeline_bytes_equal_reference_random(shape, seed):
    js = _random_spectrum(shape, seed)
    before = js.amplitude.copy()
    fiber = (BETA_FIBER_FS2, float(js.axis_s[shape[0] // 3]))
    phased = apply_fiber_phase(js, *fiber)
    phased_ref = apply_fiber_phase_reference(js, *fiber).amplitude
    assert phased.amplitude.tobytes() == phased_ref.tobytes()
    jta = to_temporal(phased)
    assert jta.amplitude.tobytes() == to_temporal_reference(phased).amplitude.tobytes()
    # neither call writes into its input
    assert js.amplitude.tobytes() == before.tobytes()
    assert phased.amplitude.tobytes() == phased_ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex64])
def test_to_temporal_non_complex128_input_equals_reference(dtype):
    # a real Gaussian JSA transforms to a complex JTA, as the out-of-place
    # fft2 gives it; single precision stays single precision
    js = _random_spectrum((64, 48), 3)
    g = np.exp(-np.linspace(-3, 3, 64)[:, None] ** 2 - np.linspace(-2, 2, 48)[None, :] ** 2)
    amplitude = (g if dtype in (np.float64, np.float32) else g + 0.5j * g).astype(dtype)
    js = replace(js, amplitude=amplitude)
    before = amplitude.copy()
    jta = to_temporal(js).amplitude
    ref = to_temporal_reference(js).amplitude
    assert jta.dtype == ref.dtype == np.result_type(dtype, 1j)
    assert jta.tobytes() == ref.tobytes()
    assert amplitude.tobytes() == before.tobytes()


def test_pipeline_bytes_equal_reference_model(jsa_1024, jta_free_1024, jta_fiber_1024, pump):
    fiber = (BETA_FIBER_FS2, pump.omega_p / 2.0)
    phased = apply_fiber_phase(jsa_1024, *fiber)
    assert phased.amplitude.tobytes() == apply_fiber_phase_reference(jsa_1024, *fiber).amplitude.tobytes()
    assert (jta_free_1024.amplitude.tobytes()
            == to_temporal_reference(jsa_1024).amplitude.tobytes())
    assert (jta_fiber_1024.amplitude.tobytes()
            == to_temporal_reference(phased).amplitude.tobytes())


def test_gaussian_pair_analytic_fwhm():
    """Separable Gaussian JSA: the JTI difference profile is Gaussian with
    FWHM 2 sqrt(ln 2) / sigma_omega, an analytic oracle."""
    n = 2048
    sigma = 2.0e12  # rad/s
    center = wavelength_nm_to_omega(810.0)
    # wide span: the temporal step must resolve the Gaussian FWHM well for
    # the linear-interpolated crossing to be accurate
    axis = center + np.linspace(-32 * sigma, 32 * sigma, n)
    d = axis - center
    amp = np.exp(-d[:, None] ** 2 / (4 * sigma ** 2)) * np.exp(-d[None, :] ** 2 / (4 * sigma ** 2))
    js = JointSpectrum(amp.astype(complex), axis, axis, domain="spectral")
    te = entanglement_time_from_jti(to_temporal(js))
    expected = 2.0 * np.sqrt(np.log(2.0)) / sigma / FS
    assert_close(te, expected, 5e-3, "Gaussian FWHM")


# ---------------------------------------------------------------------------
# entanglement time

def _gaussian_pair(n_s, half_s, n_i, half_i):
    """exp(-S^2 / 4 sigma_p^2) exp(-D^2 / 4 sigma_d^2) with
    S = w_s + w_i - 2 w0 and D = (w_s - w_i) / 2, on axes w0 +- half."""
    w0, sigma_p, sigma_d = 2.3e15, 1e13, 2e13
    w_s = w0 + np.linspace(-half_s, half_s, n_s)
    w_i = w0 + np.linspace(-half_i, half_i, n_i)
    big_s = w_s[:, None] + w_i[None, :] - 2 * w0
    big_d = (w_s[:, None] - w_i[None, :]) / 2
    amp = np.exp(-big_s ** 2 / (4 * sigma_p ** 2)) * np.exp(-big_d ** 2 / (4 * sigma_d ** 2))
    return JointSpectrum(amp.astype(complex), w_s, w_i, domain="spectral")


@pytest.mark.parametrize("n_i, half_i", [(1024, 1.2e15), (700, 5e14)])
def test_entanglement_time_independent_of_idler_sampling(n_i, half_i):
    # along the sampled anti-diagonal t_s - t_i advances by dt_s + dt_i,
    # so the idler's step must not move T_e
    reference = entanglement_time_from_jti(to_temporal(_gaussian_pair(1024, 8e14, 1024, 8e14)))
    te = entanglement_time_from_jti(to_temporal(_gaussian_pair(1024, 8e14, n_i, half_i)))
    assert_close(te, reference, 5e-3, f"T_e with the idler on {n_i} points over +-{half_i:g} rad/s")


def test_entanglement_time_free_golden(jta_free_1024):
    assert_close(entanglement_time_from_jti(jta_free_1024), GOLDEN_TE_FREE_FS,
                 0.02, "T_e (beta = 0)")


def test_entanglement_time_fiber_golden(jta_fiber_1024):
    assert_close(entanglement_time_from_jti(jta_fiber_1024), GOLDEN_TE_FIBER_FS,
                 0.02, "T_e (beta = 3.3e4 fs^2)")


def test_fiber_dispersion_broadens(jta_free_1024, jta_fiber_1024):
    assert (entanglement_time_from_jti(jta_fiber_1024)
            > 5 * entanglement_time_from_jti(jta_free_1024))


def test_grid_refinement_stable(crystal, pump, jta_free_1024):
    te_1024 = entanglement_time_from_jti(jta_free_1024)
    jsa = build_jsa(crystal, pump, GridSpec(n=512, center_lambda_nm=810.0, half_span_nm=60.0))
    te_512 = entanglement_time_from_jti(to_temporal(jsa))
    assert abs(te_512 - te_1024) / te_1024 < 0.02


def test_difference_profile_even_sampling(jta_free_1024):
    tau, prof = jti_difference_profile(jta_free_1024)
    assert len(tau) == len(prof)
    assert np.all(np.diff(tau) > 0)
    assert prof.max() > 0


def test_entanglement_time_needs_halfmax_drop():
    n = 64
    axis_t = np.linspace(-1e-12, 1e-12, n)
    flat = JointSpectrum(np.ones((n, n), dtype=complex), axis_t, axis_t,
                         domain="temporal")
    with pytest.raises(CoverageError):
        entanglement_time_from_jti(flat)


def test_gvm_entanglement_time(crystal):
    # group-velocity-mismatch entanglement time L/2 * |1/v_s - 1/v_i|
    theta = crystal.effective_temperature_C
    lam_i = 1.0 / (1.0 / LAMBDA_P_NM - 1.0 / 790.0)
    mismatch = abs(group_index(crystal.model, 790.0, theta)
                   - group_index(crystal.model, lam_i, theta))
    assert_close(crystal.length_mm * MM / 2.0 * mismatch / C0 / FS,
                 GOLDEN_TE_GVM_790_FS, 1e-4, "GVM T_e at 790 nm")


# ---------------------------------------------------------------------------
# export / import

def test_export_import_roundtrip(tmp_path, crystal, pump):
    jsa = build_jsa(crystal, pump, GridSpec(n=128, center_lambda_nm=810.0, half_span_nm=60.0))
    csv_path = tmp_path / "jsi.csv"
    export_matrix_csv(jsa, csv_path, tmp_path / "jsi.json", False)
    with open(tmp_path / "jsi.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["domain"] == "spectral"
    assert sidecar["axis_units"] == "rad/s"

    back = import_jsi_csv(csv_path, axis_units="rad/s")
    assert np.allclose(intensity(back), intensity(jsa), rtol=1e-6, atol=1e-12)
    assert np.allclose(back.axis_s, jsa.axis_s, rtol=1e-9)


def test_import_refuses_axis_units_before_reading(tmp_path):
    # the argument is checked before the file is opened, so a missing file
    # does not hide it
    with pytest.raises(DomainError, match="unsupported axis units 'um'"):
        import_jsi_csv(tmp_path / "missing.csv", axis_units="um")


def test_import_jsi_nm_axes(tmp_path):
    lam = np.linspace(800.0, 820.0, 32)
    jsi = np.exp(-((lam[:, None] - 810.0) ** 2 + (lam[None, :] - 810.0) ** 2) / 8.0)
    path = tmp_path / "measured.csv"
    with open(path, "w") as fh:
        fh.write("# axis_s: " + " ".join(f"{v:.8e}" for v in lam) + "\n")
        fh.write("# axis_i: " + " ".join(f"{v:.8e}" for v in lam) + "\n")
        np.savetxt(fh, jsi, delimiter=",")
    js = import_jsi_csv(path, axis_units="nm")
    assert js.domain == "spectral"
    assert js.axes_uniform()
    assert np.all(np.diff(js.axis_s) > 0)
    # wavelength-descending axes become frequency-ascending; peak survives
    peak = np.unravel_index(np.argmax(intensity(js)), js.amplitude.shape)
    mid = len(js.axis_s) // 2
    assert abs(peak[0] - mid) <= 2 and abs(peak[1] - mid) <= 2


def test_import_rejects_negative_intensity(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("# axis_s: 1.0 2.0\n# axis_i: 1.0 2.0\n")
        fh.write("1.0,-1.0\n0.5,0.5\n")
    with pytest.raises(DomainError):
        import_jsi_csv(path, axis_units="rad/s")


def test_import_rejects_non_finite_intensity(tmp_path):
    for text in ("nan", "inf"):
        path = tmp_path / f"{text}.csv"
        with open(path, "w") as fh:
            fh.write("# axis_s: 1.0 2.0\n# axis_i: 1.0 2.0 3.0\n")
            fh.write(f"1.0,0.5,0.5\n0.5,0.5,{text}\n")
        with pytest.raises(DomainError, match="row 1, column 2"):
            import_jsi_csv(path, axis_units="rad/s")


@pytest.mark.parametrize("axis_s, axis_i, row, match", [
    ("800 nan 820", "800 810 820", "1,2,1", r"axis_s must be finite .* value 1 \(0-based\) is nan"),
    ("800 810 805", "800 810 820", "1,2,1", r"axis_s must be finite .* value 2 \(0-based\)"),
    ("820 810 810", "800 810 820", "1,2,1", r"axis_s must be finite .* value 2 \(0-based\)"),
    ("800 810 820", "800 800 820", "1,2,1", r"axis_i must be finite .* value 1 \(0-based\)"),
    ("800 abc 820", "800 810 820", "1,2,1", r"axis_s value 1 \(0-based\) is not a number: 'abc'"),
    ("800 810 820", "800 810 820", "1,x,1", r"not a number at matrix row 1, column 1 \(0-based\)"),
    ("800 810 820", "800 810 820", "1,2", r"matrix row 1 has 2 columns, row 0 has 3"),
    ("800", "800 810 820", "1,2,1", r"axis_s has 1 value\(s\); resampling needs at least 2"),
])
def test_import_rejects_malformed_axes_and_cells(tmp_path, axis_s, axis_i, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"# axis_s: {axis_s}\n# axis_i: {axis_i}\n0,1,0\n{row}\n0,1,0\n")
    with pytest.raises(DomainError, match=match):
        import_jsi_csv(path, axis_units="nm")


def _assert_resample_identical(axis_s, axis_i, intensity):
    got = biphoton._resample_uniform(axis_s, axis_i, intensity)
    want = resample_jsi_reference(axis_s, axis_i, intensity)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@st.composite
def _axes(draw, n):
    kind = draw(st.sampled_from(["uniform", "steps", "nm"]))
    if kind == "nm":
        # a spectrometer axis uniform in wavelength: descending, non-uniform in rad/s
        lo = draw(st.floats(700.0, 800.0))
        axis = wavelength_nm_to_omega(np.linspace(lo, lo + draw(st.floats(1.0, 120.0)), n))
    else:
        offset, unit = draw(st.sampled_from([(0.0, 1.0), (800.0, 0.01), (-5.0, 1e-3),
                                             (2.3e15, 1e10)]))
        steps = (np.ones(n - 1) if kind == "uniform"
                 else np.array(draw(st.lists(st.floats(0.01, 100.0), min_size=n - 1,
                                             max_size=n - 1))))
        axis = offset + unit * np.concatenate([[0.0], np.cumsum(steps)])
    assume(np.all(np.diff(axis) > 0) or np.all(np.diff(axis) < 0))
    return axis[::-1] if draw(st.booleans()) else axis


_INTENSITY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-10, 1e10),
                       st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                                 st.integers(-10, 9)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_s=st.integers(2, 40), n_i=st.integers(2, 40))
def test_resample_bitwise_equals_reference(data, n_s, n_i):
    axis_s, axis_i = data.draw(_axes(n_s)), data.draw(_axes(n_i))
    pool = np.array(data.draw(st.lists(_INTENSITY, min_size=1, max_size=20)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    _assert_resample_identical(axis_s, axis_i, rng.choice(pool, (n_s, n_i)))


def test_resample_bitwise_equals_reference_measured_like():
    # Poisson counts of a narrow anti-diagonal JSI on a wavelength grid,
    # as a spectrometer records it
    lam = np.linspace(750.0, 870.0, 257)
    omega = wavelength_nm_to_omega(lam)
    w_s, w_i = np.meshgrid(omega, omega, indexing="ij")
    model = np.exp(-((w_s + w_i - 2 * omega[128]) / 2e12) ** 2) * np.exp(-((w_s - w_i) / 2e14) ** 2)
    counts = np.random.default_rng(101).poisson(2000.0 * model).astype(float)
    _assert_resample_identical(omega, omega, counts)


def _assert_export_identical(js, tmp_path):
    export_matrix_csv(js, tmp_path / "m.csv", tmp_path / "m.json", False)
    export_matrix_csv_reference(js, tmp_path / "ref.csv", tmp_path / "ref.json", False)
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_export_bytes_equal_reference_jsa_256(tmp_path, crystal, pump):
    jsa = build_jsa(crystal, pump, GridSpec(n=256, center_lambda_nm=810.0, half_span_nm=60.0))
    jti = to_temporal(apply_fiber_phase(jsa, BETA_FIBER_FS2, pump.omega_p / 2.0))
    assert jti.axis_s[0] < 0
    for js in (jsa, jti):
        _assert_export_identical(js, tmp_path)


def _half_tie(k, m):
    """An exactly representable float of 14 significant digits, the last
    a 5: D 10**-m with D = 10 k' + 5 in [1e13, 1e14) for m = -2, -1, 0, or
    j / 2**m = (5**m j) 10**-m with j odd and 5**m j in [1e13, 1e14)
    for m >= 1."""
    if m <= 0:
        return float((10 * (10 ** 12 + k % (9 * 10 ** 12)) + 5) * 10 ** -m)
    lo = -(-10 ** 13 // 5 ** m) | 1
    return (lo + 2 * (k % ((10 ** 14 // 5 ** m - lo) // 2))) / 2.0 ** m


_EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-290, 1e-100, 1e22, 1e23,
                9.9999999999995, 999999999999.95, 1234567890123.5, 9999999999999.5,
                99999999999995.0, np.nan, np.inf, -np.inf,
                # the scaled value is off by more than 5e-4 from the exact one
                8.1904554186685e175, 4.3886127302895e251]

_MATRIX_VALUES = st.one_of(
    st.floats(width=64),
    st.sampled_from(_EDGE_VALUES),
    # any exponent, including three-digit ones
    st.builds(lambda d, e: float(f"{d}e{e}"), st.integers(1, 10 ** 15), st.integers(-330, 294)),
    # 14 significant digits ending in 5: the float is just off the decimal half
    st.builds(lambda d, e: float(f"{10 * d + 5}e{e}"),
              st.integers(10 ** 12, 10 ** 13 - 1), st.integers(-330, 294)),
    # exact 13-digit half ties
    st.builds(_half_tie, st.integers(0, 2 ** 62), st.integers(-2, 10)),
    # 9.99..95 carries and their neighbours
    st.builds(lambda e, step: np.nextafter(float(f"9.9999999999995e{e}"), step * np.inf),
              st.integers(-320, 294), st.sampled_from([-1, 0, 1])),
).map(float)


# positive values whose '%.12e' text has a two-digit exponent: a chunk of
# these and +0.0 takes the fixed-width slots
_TWO_DIGIT_VALUES = st.one_of(
    st.floats(1e-99, 9.999999999999e99),
    st.builds(lambda d, e: float(f"{10 * d + 5}e{e}"),
              st.integers(10 ** 12, 10 ** 13 - 1), st.integers(-111, 85)),
    st.builds(_half_tie, st.integers(0, 2 ** 62), st.integers(-2, 10)),
)

# 9.9999999999995e99 and its neighbours round to 9.999999999999e+99 or carry
# into 1.000000000000e+100; the values just below 1e-99 round to
# 9.999999999999e-100 or carry up to 1.000000000000e-99
_EXPONENT_EDGES = [float(np.nextafter(x, step * np.inf)) if step else x
                   for x in (9.9999999999995e99, 9.9999999999995e-100, 1e-99)
                   for step in (-1, 0, 1)] + [9.99999999999995e-100, 9.999999999999499e-100]

# one of these in a chunk of two-digit values makes its fields differ in width
_WIDE_VALUES = [-0.0, -1.0, 1e100, 1e-100, 5e-324, np.nan, np.inf]


@st.composite
def _matrices(draw):
    signed = draw(st.booleans())
    if signed:
        pool = draw(st.lists(st.tuples(_MATRIX_VALUES, st.booleans()), min_size=1, max_size=40)
                    .map(lambda vs: [-v if neg else v for v, neg in vs]))
    else:
        pool = draw(st.lists(_TWO_DIGIT_VALUES, min_size=1, max_size=40))
        pool += draw(st.lists(st.sampled_from(_EXPONENT_EDGES), max_size=1))
    pool = np.array(pool)
    n_cols = draw(st.integers(1, 700))
    chunk = biphoton._EXPORT_CHUNK_VALUES
    if draw(st.integers(0, 3)) == 3:
        # more values than one write, with a chunk boundary inside a row
        n_rows = draw(st.integers(1, 3)) * chunk // n_cols + draw(st.integers(1, 2))
    else:
        n_rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrix = rng.choice(pool, (n_rows, n_cols))
    if not signed:
        # zero-heavy, as a JSI is
        matrix[rng.random(matrix.shape) < draw(st.sampled_from([0.0, 0.5, 0.99, 1.0]))] = 0.0
        if draw(st.booleans()):
            # every other chunk holds one field of another width
            flat = matrix.reshape(-1)
            for lo in range(0, flat.size, 2 * chunk):
                flat[lo + rng.integers(min(chunk, flat.size - lo))] = draw(st.sampled_from(_WIDE_VALUES))
    return matrix


def _assert_matrix_identical(matrix, tmp_path):
    # export_matrix_csv writes |amplitude|**2 through _write_matrix, which
    # takes any real matrix: negative, NaN and infinite cells included
    with open(tmp_path / "m.csv", "wb") as fh:
        biphoton._write_matrix(fh, matrix, lambda chunk: chunk)
    with open(tmp_path / "ref.csv", "w") as fh:
        np.savetxt(fh, matrix, delimiter=",", fmt="%.12e")
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_export_bytes_equal_reference_edge_values(tmp_path):
    values = np.array(_EDGE_VALUES)
    _assert_matrix_identical(np.stack([values, -values, values[::-1]]), tmp_path)


# half the examples draw from the signed pool, half from the two-digit one
@settings(max_examples=120, deadline=None)
@given(case=_matrices())
def test_export_bytes_equal_reference(case, tmp_path_factory):
    _assert_matrix_identical(case, tmp_path_factory.mktemp("export"))
