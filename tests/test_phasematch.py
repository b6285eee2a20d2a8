import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdclab import phasematch
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

from conftest import THETA_DEG_MODEL_C, THETA_DEG_MEASURED_C, LAMBDA_P_NM, assert_close


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


# ---------------------------------------------------------------------------
# solver

def test_bisect_root_synthetic():
    root = bisect_root(lambda x: x - 50.0, 0.0, 100.0, xtol=1e-10)
    assert root == pytest.approx(50.0, abs=1e-9)
    with pytest.raises(SolverError):
        bisect_root(lambda x: x + 1.0, 0.0, 100.0, xtol=1e-10)


def test_find_degeneracy_synthetic_injection(material):
    cfg = bulk_crystal(material)
    theta = find_degeneracy_temperature(cfg, LAMBDA_P_NM,
                                        delta_k_fn=lambda t: 50.0 - t)
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
    for p in curve:
        assert 1.0 / LAMBDA_P_NM == pytest.approx(
            1.0 / p.lambda_s_nm + 1.0 / p.lambda_i_nm, rel=1e-12)
        assert p.lambda_s_nm <= 2 * LAMBDA_P_NM + 1e-9


def test_tuning_curve_branches_monotone(curve):
    """Above the degeneracy temperature the signal branch walks to shorter
    and the idler branch to longer wavelengths (parabola-like split)."""
    thetas = [p.theta_C for p in curve]
    assert thetas == sorted(thetas)
    signal = [p.lambda_s_nm for p in curve]
    idler = [p.lambda_i_nm for p in curve]
    assert all(a > b for a, b in zip(signal, signal[1:]))
    assert all(a < b for a, b in zip(idler, idler[1:]))
    assert all(s < 2 * LAMBDA_P_NM < i for s, i in zip(signal, idler))


def test_tuning_curve_residuals(crystal, curve):
    from dataclasses import replace
    for p in curve[:3]:
        c = replace(crystal, temperature_C=p.theta_C)
        assert abs(delta_k(c, LAMBDA_P_NM, p.lambda_s_nm)) < 1e-3 * crystal.poling_wavenumber


def test_below_degeneracy_no_roots(crystal):
    pts = tuning_curve(crystal, LAMBDA_P_NM,
                       (THETA_DEG_MEASURED_C - 12.0, THETA_DEG_MEASURED_C - 2.0),
                       grid=5)
    assert pts == []


def test_export_csv(tmp_path, curve):
    path = tmp_path / "tc.csv"
    export_tuning_curve_csv(curve, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta_C", "lambda_s_nm", "lambda_i_nm", "branch"]
    assert len(rows) == len(curve) + 1
    assert float(rows[1][1]) == pytest.approx(curve[0].lambda_s_nm, abs=1e-5)
