import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdclab import dispersion, phasematch
from spdclab.errors import DomainError, SolverError
from spdclab.phasematch import (
    CrystalConfig,
    bisect_root,
    delta_k,
    export_tuning_curve_csv,
    find_degeneracy_temperature,
    fit_calibration_offset,
    idler_wavelength_nm,
    tuning_curve,
)

from conftest import (THETA_DEG_MODEL_C, THETA_DEG_MEASURED_C, LAMBDA_P_NM, assert_close,
                      bisect_root_reference, export_tuning_curve_csv_reference,
                      tuning_curve_reference)


def bulk_crystal(material, temperature_C=100.0):
    return CrystalConfig(material, 20.0, 2.72, temperature_C, 0.0)


# ---------------------------------------------------------------------------
# construction and energy conservation

def test_crystal_invariants(material):
    with pytest.raises(DomainError):
        CrystalConfig(material, -1.0, 2.72, 100.0)
    with pytest.raises(DomainError):
        CrystalConfig(material, 20.0, 0.0, 100.0)
    with pytest.raises(DomainError):
        CrystalConfig(material, 20.0, 2.72, 100.0, 150.0)  # effective T out of window


def test_poling_wavenumber(material):
    cfg = bulk_crystal(material)
    assert cfg.poling_wavenumber == pytest.approx(2 * np.pi / 2.72e-6, rel=1e-14)


def test_idler_energy_conservation():
    li = idler_wavelength_nm(405.0, 790.0)
    assert 1.0 / 405.0 == pytest.approx(1.0 / 790.0 + 1.0 / li, rel=1e-15)
    with pytest.raises(DomainError):
        idler_wavelength_nm(405.0, 400.0)


def test_delta_k_vectorized_matches_scalar(material):
    cfg = bulk_crystal(material)
    lams = np.array([780.0, 810.0, 840.0])
    vec = delta_k(cfg, LAMBDA_P_NM, lams)
    for lam, v in zip(lams, vec):
        assert v == delta_k(cfg, LAMBDA_P_NM, float(lam))


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(st.floats(401.0, 440.0), st.floats(700.0, 1000.0)),
                       min_size=1, max_size=20),
       theta=st.floats(20.0, 200.0))
def test_delta_k_array_pump_matches_scalar_bitwise(material, points, theta):
    # the per-point pump path of build_jsa against one scalar call per point
    cfg = bulk_crystal(material, theta)
    pump, signal = np.array(points).T
    vec = delta_k(cfg, pump, signal)
    scalar = np.array([delta_k(cfg, float(p), float(s)) for p, s in points])
    assert vec.tobytes() == scalar.tobytes()


def _pow_rounds_apart(model, theta):
    """True where libm pow(Q, 2) and Q * Q differ for the Sellmeier term
    Q(theta) = a3 + b3 f(theta) of ``dispersion._n_squared_terms``."""
    c = model.coefficients
    t_ref = dispersion._T_REF
    q = c["a3"] + c["b3"] * ((theta - t_ref) * (theta + t_ref + 2 * 273.16))
    return math.pow(q, 2) != q * q


def test_delta_k_array_temperature_matches_scalar_bitwise(material):
    # the temperature scans against one scalar delta_k call per temperature,
    # at every temperature of a 200 001-point grid over the window where a
    # scalar Q ** 2 (libm pow) rounds apart from the Q * Q of an array; a
    # difference of Q^2 survives into dk only at some of them
    window = np.linspace(material.temperature_C_min, material.temperature_C_max, 200001)
    thetas = np.array([t for t in window.tolist() if _pow_rounds_apart(material, t)])
    assert thetas.size >= 100
    cfg = bulk_crystal(material)
    signal = np.linspace(700.0, 900.0, 41)
    vec = phasematch._delta_k(cfg, thetas[:, None], LAMBDA_P_NM, signal)
    scalar = np.array([[delta_k(replace(cfg, temperature_C=t), LAMBDA_P_NM, s)
                        for s in signal.tolist()] for t in thetas.tolist()])
    assert vec.tobytes() == scalar.tobytes()
    degenerate = phasematch._delta_k(cfg, thetas, LAMBDA_P_NM, 2 * LAMBDA_P_NM)
    assert signal[22] == 2 * LAMBDA_P_NM
    assert degenerate.tobytes() == scalar[:, 22].tobytes()


# ---------------------------------------------------------------------------
# solver

def test_bisect_root_synthetic():
    (root,) = bisect_root(lambda x, k: x - 50.0, [0.0], [100.0], xtol=1e-10)
    assert root == pytest.approx(50.0, abs=1e-9)
    with pytest.raises(SolverError):
        bisect_root(lambda x, k: x + 1.0, [0.0], [100.0], xtol=1e-10)


def _cubic(c, s):
    """s[k] (x^3 - c[k]) as ``bisect_root`` calls it, and per bracket as a
    scalar function for the oracle (products, so both round alike); the
    sign s[k] makes the function rise or fall through the root."""
    return (lambda x, k: s[k] * (x * x * x - c[k]),
            [lambda x, cj=cj, sj=sj: sj * (x * x * x - cj) for cj, sj in zip(c, s)])


@pytest.mark.parametrize("xtol", [1e-4, 1e-9, 2.0 ** -10, 0.0])
def test_bisect_root_matches_scalar_oracle(xtol):
    # xtol = 0 stops only at an exact zero or after BISECT_MAX_ITER halvings;
    # on the first four (dyadic) brackets a width reaches 2 ** -10 exactly,
    # which does not stop the bisection
    rng = np.random.default_rng(7)
    c = np.concatenate([[0.3, -0.2, 1.1, 3.0], rng.uniform(-8.0, 8.0, 36)])
    lo = np.concatenate([[0.0, -1.0, 0.5, -2.0], np.cbrt(c[4:]) - rng.uniform(0.01, 2.0, 36)])
    hi = np.concatenate([[1.0, 1.0, 1.5, 2.0], np.cbrt(c[4:]) + rng.uniform(0.01, 2.0, 36)])
    fn, scalar = _cubic(c, rng.choice([-1.0, 1.0], 40))
    roots = bisect_root(fn, lo, hi, xtol=xtol)
    expected = [bisect_root_reference(f, a, b, xtol=xtol) for f, a, b in zip(scalar, lo, hi)]
    assert roots.tobytes() == np.array(expected).tobytes()


def test_bisect_root_max_iter_midpoint(monkeypatch):
    monkeypatch.setattr(phasematch, "BISECT_MAX_ITER", 5)
    c = np.array([2.0, 1.0, -3.0])
    fn, scalar = _cubic(c, np.array([1.0, -1.0, 1.0]))
    lo, hi = np.array([0.3, 0.0, -2.0]), np.array([1.7, 3.0, 0.0])
    roots = bisect_root(fn, lo, hi, xtol=1e-12)
    expected = [bisect_root_reference(f, a, b, xtol=1e-12) for f, a, b in zip(scalar, lo, hi)]
    assert roots.tobytes() == np.array(expected).tobytes()
    # five halvings leave [1.21875, 1.2625] around 2 ** (1 / 3)
    assert roots[0] == pytest.approx(0.5 * (1.21875 + 1.2625), abs=1e-12)


def test_bisect_root_exact_zero_endpoint():
    # an endpoint at a root is returned as it is, before the sign check, and
    # the lower one when both are roots
    fn = lambda x, k: (x - 1.0) * (x - 2.0)  # noqa: E731
    lo, hi = np.array([1.0, 0.5, 2.0, 1.0, 0.5]), np.array([2.0, 1.0, 3.0, 1.0, 1.5])
    roots = bisect_root(fn, lo, hi, xtol=1e-9)
    expected = [bisect_root_reference(lambda x: (x - 1.0) * (x - 2.0), a, b, xtol=1e-9)
                for a, b in zip(lo, hi)]
    assert roots.tobytes() == np.array(expected).tobytes()
    assert roots[:4].tolist() == [1.0, 1.0, 2.0, 1.0]


def test_bisect_root_names_first_bracket_without_sign_change():
    fn = lambda x, k: x - 50.0  # noqa: E731
    lo, hi = np.array([0.0, 60.0, 10.0, 80.0]), np.array([100.0, 70.5, 20.0, 90.0])
    with pytest.raises(SolverError) as batch:
        bisect_root(fn, lo, hi, xtol=1e-9)
    with pytest.raises(SolverError) as one:
        bisect_root_reference(lambda x: x - 50.0, lo[1], hi[1], xtol=1e-9)
    assert str(batch.value) == str(one.value) == "no sign change on [60, 70.5]"


def test_delta_k_refuses_in_the_order_of_one_call_per_temperature(material):
    # the first temperature, then every wavelength, then the other temperatures
    cfg = bulk_crystal(material)
    too_hot = np.array([100.0, 300.0])
    with pytest.raises(DomainError, match="^temperature 300 C"):
        phasematch._delta_k(cfg, too_hot, LAMBDA_P_NM, 810.0)
    # a 5 um signal leaves a 440.7 nm idler inside the window
    with pytest.raises(DomainError, match="^wavelength 5 um"):
        phasematch._delta_k(cfg, too_hot, LAMBDA_P_NM, 5000.0)
    with pytest.raises(DomainError, match="^wavelength 0.39 um"):
        phasematch._delta_k(cfg, too_hot, 390.0, 810.0)
    with pytest.raises(DomainError, match="^temperature 300 C"):
        phasematch._delta_k(cfg, too_hot[::-1, None], 390.0, np.array([810.0, 5000.0]))


@pytest.mark.parametrize("solve", [
    lambda cfg: delta_k(cfg, 0.0, 810.0),
    lambda cfg: find_degeneracy_temperature(cfg, 0.0),
    lambda cfg: tuning_curve(cfg, 0.0, (90.0, 110.0), grid=3),
], ids=["delta_k", "find_degeneracy_temperature", "tuning_curve"])
def test_zero_nm_pump_is_refused_before_it_is_converted(material, solve):
    # 0 nm has no frequency: the window names it before any division
    with pytest.raises(DomainError, match=r"^wavelength 0 um outside validity window"):
        solve(bulk_crystal(material))


def test_find_degeneracy_synthetic_injection(material, monkeypatch):
    # the scan and the bisection both call the dk body at the effective
    # temperature (the offset is 0 here)
    cfg = bulk_crystal(material)
    monkeypatch.setattr(phasematch, "_delta_k", lambda c, theta, lp, ls: 50.0 - theta)
    theta = find_degeneracy_temperature(cfg, LAMBDA_P_NM)
    assert theta == pytest.approx(50.0, abs=1e-6)


def test_degeneracy_temperature_golden(material):
    cfg = bulk_crystal(material)
    theta = find_degeneracy_temperature(cfg, LAMBDA_P_NM)
    assert_close(theta, THETA_DEG_MODEL_C, 1e-8, "bulk degeneracy temperature")
    # residual mismatch far below the poling wavenumber
    at_deg = CrystalConfig(material, 20.0, 2.72, theta, 0.0)
    assert abs(delta_k(at_deg, LAMBDA_P_NM, 2 * LAMBDA_P_NM)) < 1e-6 * cfg.poling_wavenumber


def test_no_phase_matching_raises(material):
    # a poling period that can never be matched in the window
    cfg = CrystalConfig(material, 20.0, 1.0, 100.0, 0.0)
    with pytest.raises(SolverError, match="no phase matching"):
        find_degeneracy_temperature(cfg, LAMBDA_P_NM)


def test_calibration_offset_fixed_point(material, calibration_offset):
    assert calibration_offset == pytest.approx(
        THETA_DEG_MODEL_C - THETA_DEG_MEASURED_C, abs=1e-6)
    cfg = CrystalConfig(material, 20.0, 2.72, THETA_DEG_MEASURED_C, calibration_offset)
    theta = find_degeneracy_temperature(cfg, LAMBDA_P_NM)
    assert theta == pytest.approx(THETA_DEG_MEASURED_C, abs=1e-6)
    # fitting again with the offset in place returns the same offset
    assert fit_calibration_offset(cfg, LAMBDA_P_NM, THETA_DEG_MEASURED_C) == pytest.approx(
        calibration_offset, abs=1e-6)


# ---------------------------------------------------------------------------
# tuning curves

@pytest.fixture(scope="module")
def curve(crystal):
    return tuning_curve(crystal, LAMBDA_P_NM,
                        (THETA_DEG_MEASURED_C + 0.5, THETA_DEG_MEASURED_C + 15.0),
                        grid=16)


def test_tuning_curve_energy_conservation(curve):
    assert len(curve) > 0
    for _, lambda_s_nm, lambda_i_nm in curve:
        assert 1.0 / LAMBDA_P_NM == pytest.approx(
            1.0 / lambda_s_nm + 1.0 / lambda_i_nm, rel=1e-12)
        assert lambda_s_nm <= 2 * LAMBDA_P_NM + 1e-9


def test_tuning_curve_branches_monotone(curve):
    """Above the degeneracy temperature the signal branch walks to shorter
    and the idler branch to longer wavelengths (parabola-like split)."""
    thetas, signal, idler = (list(column) for column in curve.T)
    assert thetas == sorted(thetas)
    assert all(a > b for a, b in zip(signal, signal[1:]))
    assert all(a < b for a, b in zip(idler, idler[1:]))
    assert all(s < 2 * LAMBDA_P_NM < i for s, i in zip(signal, idler))


def test_tuning_curve_residuals(crystal, curve):
    for theta_C, lambda_s_nm, _ in curve[:3]:
        c = replace(crystal, temperature_C=float(theta_C))
        assert abs(delta_k(c, LAMBDA_P_NM, lambda_s_nm)) < 1e-3 * crystal.poling_wavenumber


@pytest.mark.parametrize("lambda_p_nm, theta_range, grid, offset", [
    (405.0, (45.0, 75.0), 31, None),
    (405.0, (0.0, 180.0), 201, 20.0),
    (405.0, (20.0, 200.0), 101, 0.0),
    (405.0, (45.0, 75.0), 3, None),
    (405.0, (45.0, 75.0), 7, None),
    (405.0, (45.0, 75.0), 101, None),
    (405.0, (30.0, 200.0), 61, -10.0),
    (400.0, (20.0, 150.0), 53, None),
    (404.0, (45.0, 75.0), 31, None),
    (406.5, (20.0, 200.0), 91, 0.0),
    (405.0, (60.0, 60.0), 1, None),
    (405.0, (45.0, 58.0), 9, None),
], ids=["paper", "range-0-180", "range-20-200", "grid3", "grid7", "grid101", "offset-10",
        "pump400", "pump404", "pump406.5", "grid1", "no-roots"])
def test_tuning_curve_matches_per_temperature_oracle(crystal, lambda_p_nm, theta_range, grid,
                                                     offset):
    cfg = crystal if offset is None else replace(crystal, calibration_offset_C=offset)
    points = tuning_curve(cfg, lambda_p_nm, theta_range, grid)
    assert points.dtype == np.float64
    assert np.array_equal(points, tuning_curve_reference(cfg, lambda_p_nm, theta_range, grid))
    if grid == 9:
        assert points.shape == (0, 3)


def test_below_degeneracy_no_roots(crystal):
    pts = tuning_curve(crystal, LAMBDA_P_NM,
                       (THETA_DEG_MEASURED_C - 12.0, THETA_DEG_MEASURED_C - 2.0),
                       grid=5)
    assert pts.shape == (0, 3)


def test_export_csv(tmp_path, curve):
    # the paper curve, an empty one, and values that round across a digit,
    # carry a sign or reach the exponent range
    edges = np.array([[-0.0000004, 999.9999995, 1e20], [-12.5, 0.0, 5e-7]])
    for name, points in (("curve", curve), ("empty", curve[:0]), ("edges", edges)):
        path, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        export_tuning_curve_csv(points, path)
        export_tuning_curve_csv_reference(points, ref)
        assert path.read_bytes() == ref.read_bytes(), name
    with open(tmp_path / "curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta_C", "lambda_s_nm", "lambda_i_nm", "branch"]
    assert len(rows) == len(curve) + 1
    assert float(rows[1][1]) == pytest.approx(curve[0, 1], abs=1e-5)
