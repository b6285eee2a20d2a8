import json

import pytest

from spdclab import etpa
from spdclab.errors import DomainError, TableParseError, UnitError
from spdclab.etpa import (
    EtpaScenario,
    FocusConfig,
    Quantity,
    entangled_cross_section,
    entanglement_area,
    feasibility_report,
    format_report,
    illuminated_volume_mL,
    load_scenario,
    molecule_density,
    pair_flux,
    scenario_from_inputs,
    tpa_rate,
    volume_rate,
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
# unit layer

def test_quantity_expect():
    q = Quantity(3.0, "fs")
    assert q.expect("fs") == 3.0
    with pytest.raises(UnitError):
        q.expect("um^2")


def test_quantity_rejects_nan():
    with pytest.raises(DomainError):
        Quantity(float("nan"), "fs")


def test_scenario_rejects_wrong_units():
    good = scenario_from_inputs(SCENARIO)
    with pytest.raises(UnitError):
        EtpaScenario(
            delta_c=Quantity(27000.0, "fs"),  # wrong unit at construction
            entanglement_time=good.entanglement_time,
            entanglement_area=good.entanglement_area,
            pair_flux=good.pair_flux,
            molecule_density=good.molecule_density,
            spot_diameter=good.spot_diameter,
        )
    with pytest.raises(UnitError):
        entangled_cross_section(Quantity(27000.0, "GM"),
                                Quantity(408.6, "s"),  # must be fs
                                good.entanglement_area)


def test_scenario_rejects_nonpositive():
    with pytest.raises(DomainError):
        scenario_from_inputs({**SCENARIO, "delta_c_GM": -1.0})
    with pytest.raises(DomainError):
        scenario_from_inputs({**SCENARIO, "spot_diameter_um": 0.0})
    with pytest.raises(DomainError):
        FocusConfig(810.0, 1.8)


# ---------------------------------------------------------------------------
# estimate chain (values cross-checked by hand with a calculator)

def test_entanglement_area():
    a_e = entanglement_area(FocusConfig(810.0, 0.6))
    assert a_e.unit == "um^2"
    assert_close(a_e.value, 2.1305, 1e-3, "A_e")


def test_entangled_cross_section():
    a_e = entanglement_area(FocusConfig(810.0, 0.6))
    sigma = entangled_cross_section(Quantity(27000.0, "GM"),
                                    Quantity(408.6, "fs"), a_e)
    assert sigma.unit == "cm^2"
    assert_close(sigma.value, 3.1016e-26, 1e-3, "sigma_e")


def test_pair_flux():
    a_e = entanglement_area(FocusConfig(810.0, 0.6))
    phi = pair_flux(1.62e7, a_e)
    assert_close(phi.value, 7.604e14, 1e-3, "phi")
    assert pair_flux(0.0, a_e).value == 0.0
    with pytest.raises(DomainError):
        pair_flux(-1.0, a_e)


def test_molecule_density():
    rho = molecule_density(1.0, 2.21e5)
    assert rho.unit == "1/mL"
    assert_close(rho.value, 2.725e15, 1e-3, "molecule density")


def test_tpa_rates():
    scn = scenario_from_inputs(SCENARIO)
    r_e, r_c, r_tot = tpa_rate(scn)
    assert_close(r_e.value, 2.3584e-11, 1e-3, "R_eTPA per molecule")
    assert_close(r_c.value, 1.5611e-16, 1e-3, "R_cTPA per molecule")
    assert r_tot.value == pytest.approx(r_e.value + r_c.value)
    # entangled term dominates at this flux by ~5 orders of magnitude
    assert r_e.value / r_c.value > 1e4


def test_volume_rates():
    scn = scenario_from_inputs(SCENARIO)
    r_e, r_c, _ = tpa_rate(scn)
    assert_close(illuminated_volume_mL(scn.spot_diameter), 2.5724e-12, 1e-3,
                 "illuminated volume")
    assert_close(volume_rate(r_e, scn.molecule_density, scn.spot_diameter).value,
                 1.653e-7, 1e-3, "volume R_eTPA")
    assert_close(volume_rate(r_c, scn.molecule_density, scn.spot_diameter).value,
                 1.094e-12, 1e-3, "volume R_cTPA")


def test_zero_flux_scenario_gives_zero_rates():
    scn = scenario_from_inputs({**SCENARIO, "pair_rate_per_s": 0.0})
    r_e, r_c, r_tot = tpa_rate(scn)
    assert r_e.value == r_c.value == r_tot.value == 0.0


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
