import json
import math

import pytest

from spdclab.errors import DomainError, TableParseError
from spdclab.etpa import (
    entangled_cross_section,
    entanglement_area,
    feasibility_report,
    format_report,
    load_scenario,
    molecule_density,
    pair_flux,
    scenario_from_inputs,
)

from conftest import assert_close

SCENARIO = {
    "delta_c_GM": 27000.0,
    "T_e_fs": 408.6,
    "focus_wavelength_nm": 810.0,
    "focus_na": 0.6,
    "pair_rate_per_s": 1.62e7,
    "mass_concentration_mg_per_mL": 1.0,
    "molar_mass_g_per_mol": 2.21e5,
    "spot_diameter_um": 1.7,
}


# ---------------------------------------------------------------------------
# scenario checks

def test_scenario_rejects_non_finite():
    # each field is checked by its own name; the flux is derived from the pair rate
    for key, value, field in [("delta_c_GM", math.nan, "delta_c_GM"),
                              ("T_e_fs", math.inf, "T_e_fs"),
                              ("spot_diameter_um", -math.inf, "spot_diameter_um"),
                              ("pair_rate_per_s", math.nan, "pair_flux_per_cm2_s")]:
        with pytest.raises(DomainError, match=f"^{field} must be finite, got"):
            scenario_from_inputs({**SCENARIO, key: value})


def test_scenario_rejects_nonpositive():
    with pytest.raises(DomainError):
        scenario_from_inputs({**SCENARIO, "delta_c_GM": -1.0})
    with pytest.raises(DomainError):
        scenario_from_inputs({**SCENARIO, "spot_diameter_um": 0.0})
    with pytest.raises(DomainError):
        entanglement_area(810.0, 1.8)


def test_report_names_an_overflowing_rate():
    # a finite pair rate whose classical term phi^2 overflows a float
    with pytest.raises(DomainError, match="^R_cTPA_per_molecule_per_s must be finite"):
        feasibility_report(scenario_from_inputs({**SCENARIO, "pair_rate_per_s": 1e300}))


# ---------------------------------------------------------------------------
# estimate chain (values cross-checked by hand with a calculator)

def test_entanglement_area():
    assert_close(entanglement_area(810.0, 0.6), 2.1305, 1e-3, "A_e")


def test_entangled_cross_section():
    a_e = entanglement_area(810.0, 0.6)
    assert_close(entangled_cross_section(27000.0, 408.6, a_e), 3.1016e-26, 1e-3, "sigma_e")


def test_pair_flux():
    a_e = entanglement_area(810.0, 0.6)
    assert_close(pair_flux(1.62e7, a_e), 7.604e14, 1e-3, "phi")
    assert pair_flux(0.0, a_e) == 0.0
    with pytest.raises(DomainError):
        pair_flux(-1.0, a_e)


def test_molecule_density():
    assert_close(molecule_density(1.0, 2.21e5), 2.725e15, 1e-3, "molecule density")


def test_tpa_rates():
    report = feasibility_report(scenario_from_inputs(SCENARIO))
    r_e = report["R_eTPA_per_molecule_per_s"]
    r_c = report["R_cTPA_per_molecule_per_s"]
    assert_close(r_e, 2.3584e-11, 1e-3, "R_eTPA per molecule")
    assert_close(r_c, 1.5611e-16, 1e-3, "R_cTPA per molecule")
    assert report["R_total_per_molecule_per_s"] == pytest.approx(r_e + r_c)
    # entangled term dominates at this flux by ~5 orders of magnitude
    assert r_e / r_c > 1e4


def test_volume_rates():
    report = feasibility_report(scenario_from_inputs(SCENARIO))
    assert_close(report["illuminated_volume_mL"], 2.5724e-12, 1e-3, "illuminated volume")
    assert_close(report["R_eTPA_volume_per_s"], 1.653e-7, 1e-3, "volume R_eTPA")
    assert_close(report["R_cTPA_volume_per_s"], 1.094e-12, 1e-3, "volume R_cTPA")


def test_zero_flux_scenario_gives_zero_rates():
    report = feasibility_report(scenario_from_inputs({**SCENARIO, "pair_rate_per_s": 0.0}))
    assert (report["R_eTPA_per_molecule_per_s"] == report["R_cTPA_per_molecule_per_s"]
            == report["R_total_per_molecule_per_s"] == 0.0)


# ---------------------------------------------------------------------------
# scenario file I/O and report

def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    assert load_scenario(path) == SCENARIO


def test_load_scenario_missing_suffix_names_key(tmp_path):
    bad = dict(SCENARIO)
    bad["T_e"] = bad.pop("T_e_fs")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(TableParseError, match="T_e"):
        load_scenario(path)


def test_load_scenario_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCENARIO, "bogus_key": 1.0}))
    with pytest.raises(TableParseError, match="bogus_key"):
        load_scenario(path)
    incomplete = dict(SCENARIO)
    del incomplete["focus_na"]
    path.write_text(json.dumps(incomplete))
    with pytest.raises(TableParseError, match="focus_na"):
        load_scenario(path)
    path.write_text(json.dumps({**SCENARIO, "delta_c_GM": "big"}))
    with pytest.raises(TableParseError, match="delta_c_GM"):
        load_scenario(path)
    # bool is an int subclass; true must not pass as 1 fs
    path.write_text(json.dumps({**SCENARIO, "T_e_fs": True}))
    with pytest.raises(TableParseError, match="T_e_fs"):
        load_scenario(path)


def test_feasibility_report_and_format():
    report = feasibility_report(scenario_from_inputs(SCENARIO))
    text = format_report(report)
    assert "sigma_e" in text and "R_eTPA" in text
    assert report["R_eTPA_volume_per_s"] > report["R_cTPA_volume_per_s"]
    for key in ("entanglement_area_um2", "pair_flux_per_cm2_s",
                "molecule_density_per_mL", "illuminated_volume_mL"):
        assert key in report
