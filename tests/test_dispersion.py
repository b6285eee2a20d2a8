import hashlib
import importlib.resources

import numpy as np
import pytest

from spdclab import dispersion
from spdclab.constants import MM, wavelength_nm_to_omega, omega_to_wavelength_nm
from spdclab.dispersion import (
    group_index,
    gvd,
    load_material,
    refractive_index,
    wavevector,
    _parse_material_text,
)
from spdclab.errors import DomainError, TableParseError

from conftest import assert_close

# Frozen from an independent transcription of the published Sellmeier
# formula (direct evaluation, no shared code with the package).
GOLDEN_INDEX = [
    (810.0, 59.4, 2.176605150977188),
    (405.0, 59.4, 2.3229560049349547),
    (1550.0, 100.0, 2.1530131340116703),
]
GOLDEN_GROUP_INDEX_810 = 2.2621972840303353       # finite-difference oracle
GOLDEN_GDD_20MM_810_FS2 = 7150.121129601796        # finite-difference oracle

DATA_SHA256 = "65de36a982cc289ded8bf86c425fffd155ca81d56204b19012481fa1104d236c"


# ---------------------------------------------------------------------------
# coefficient file

def test_data_file_pinned():
    text = (importlib.resources.files("spdclab") / "data" / "mgo_cln_5pct_e.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == DATA_SHA256


def test_load_material_fields(material):
    assert material.polarization == "e"
    assert "MgO" in material.material
    assert material.wavelength_um_min < 0.405 < material.wavelength_um_max
    assert material.temperature_C_min <= 25 <= material.temperature_C_max


def test_parse_missing_coefficient():
    text = "material: x\npolarization: e\nvalidity_wavelength_um: 0.4 4.0\nvalidity_temperature_C: 20 200\na1: 5.0\n"
    with pytest.raises(TableParseError):
        _parse_material_text(text)


def test_parse_malformed_line_reports_number():
    good = (importlib.resources.files("spdclab") / "data" / "mgo_cln_5pct_e.txt").read_text()
    bad = good + "\nthis line has no separator\n"
    with pytest.raises(TableParseError) as exc:
        _parse_material_text(bad)
    assert exc.value.line_number is not None


# ---------------------------------------------------------------------------
# golden values

@pytest.mark.parametrize("lambda_nm,theta,expected", GOLDEN_INDEX)
def test_refractive_index_golden(material, lambda_nm, theta, expected):
    assert refractive_index(material, lambda_nm, theta) == pytest.approx(expected, rel=1e-12)


def test_group_index_golden(material):
    assert_close(group_index(material, 810.0, 59.4), GOLDEN_GROUP_INDEX_810,
                 1e-8, "group index")


def test_gdd_golden(material):
    # group delay dispersion of 20 mm: d2k/domega2 (s^2/m) * length, in fs^2
    assert_close(gvd(material, 810.0, 59.4) * (20.0 * MM) * 1e30,
                 GOLDEN_GDD_20MM_810_FS2, 1e-4, "GDD 20 mm")


# ---------------------------------------------------------------------------
# derivatives: finite difference vs analytic

def _fd_first(material, lam_nm, theta, h_nm):
    return (refractive_index(material, lam_nm + h_nm, theta)
            - refractive_index(material, lam_nm - h_nm, theta)) / (2 * h_nm * 1e-3)


def _fd_second(material, lam_nm, theta, h_nm):
    return (refractive_index(material, lam_nm + h_nm, theta)
            - 2 * refractive_index(material, lam_nm, theta)
            + refractive_index(material, lam_nm - h_nm, theta)) / (h_nm * 1e-3) ** 2


@pytest.mark.parametrize("lambda_nm", [500.0, 810.0, 1200.0, 2000.0])
def test_first_derivative_vs_fd(material, lambda_nm):
    theta = 59.4
    lam_um = lambda_nm * 1e-3
    n = refractive_index(material, lambda_nm, theta)
    ng = group_index(material, lambda_nm, theta)
    dn_analytic = (n - ng) / lam_um
    dn_fd = _fd_first(material, lambda_nm, theta, 0.01)
    assert_close(dn_fd, dn_analytic, 1e-6, f"dn/dlam at {lambda_nm} nm")


# 2000 nm is excluded: d2n/dlam2 is so small there that float64 cancellation
# noise in the second difference exceeds 1e-6 relative for any step size.
@pytest.mark.parametrize("lambda_nm", [500.0, 810.0, 1200.0])
def test_second_derivative_vs_fd(material, lambda_nm):
    from spdclab.constants import C0, TWO_PI

    theta = 59.4
    lam_m = lambda_nm * 1e-9
    d2n_analytic = gvd(material, lambda_nm, theta) * TWO_PI * C0 ** 2 / lam_m ** 3 * 1e-12  # 1/um^2
    # Richardson-extrapolated central difference: O(h^4) truncation
    h = 0.2
    d2n_fd = (4 * _fd_second(material, lambda_nm, theta, h / 2)
              - _fd_second(material, lambda_nm, theta, h)) / 3.0
    assert_close(d2n_fd, d2n_analytic, 1e-6, f"d2n/dlam2 at {lambda_nm} nm")


def test_fd_error_shrinks_at_second_order(material):
    """Central-difference error vs the analytic derivative must fall ~4x per
    halving of the step, confirming the analytic value is the FD limit."""
    theta, lam = 59.4, 810.0
    n = refractive_index(material, lam, theta)
    ng = group_index(material, lam, theta)
    dn_analytic = (n - ng) / (lam * 1e-3)
    errs = [abs(_fd_first(material, lam, theta, h) - dn_analytic)
            for h in (0.4, 0.2, 0.1)]
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_temperature_continuity(material):
    thetas = np.linspace(25.0, 150.0, 200)
    n = np.array([refractive_index(material, 810.0, t) for t in thetas])
    assert np.all(np.abs(np.diff(n)) < 5e-4)
    assert np.all(np.diff(n) > 0)  # dn/dT > 0 for the e axis


# ---------------------------------------------------------------------------
# domain checks and helpers

def test_validity_window_raises(material):
    with pytest.raises(DomainError):
        refractive_index(material, 300.0, 59.4)
    with pytest.raises(DomainError):
        refractive_index(material, 5000.0, 59.4)
    with pytest.raises(DomainError):
        refractive_index(material, 810.0, 500.0)


def test_vectorized_matches_scalar(material):
    lams = np.array([600.0, 810.0, 1600.0])
    vec = refractive_index(material, lams, 59.4)
    for lam, v in zip(lams, vec):
        assert v == refractive_index(material, float(lam), 59.4)


def test_wavevector_definition(material):
    omega = wavelength_nm_to_omega(810.0)
    n = refractive_index(material, 810.0, 59.4)
    from spdclab.constants import C0
    assert wavevector(material, omega, 59.4) == pytest.approx(n * omega / C0, rel=1e-14)


def test_optical_frequency_roundtrip():
    for lam in (405.0, 810.0, 1550.0):
        assert omega_to_wavelength_nm(wavelength_nm_to_omega(lam)) == pytest.approx(lam, rel=1e-12)
