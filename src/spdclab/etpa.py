"""Entangled two-photon-absorption feasibility calculus: entanglement area,
entangled cross section, absorption rates, pair flux, molecule density and
illuminated-volume scaling.

A small unit-tagged value layer keeps the zoo of bench units (GM, fs, um^2,
cm^-2 s^-1, mL) honest: quantities carry a unit string, and reading one in
the wrong unit raises UnitError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .constants import GM_IN_CM4_S, N_AVOGADRO
from .errors import DomainError, TableParseError, UnitError


@dataclass(frozen=True)
class Quantity:
    """A finite value tagged with its unit; use :meth:`expect` to unwrap
    the value where a specific unit is required."""

    value: float
    unit: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"non-finite quantity {self.value} {self.unit}")

    def expect(self, unit: str) -> float:
        if self.unit != unit:
            raise UnitError(f"expected a quantity in {unit!r}, got {self.unit!r}")
        return self.value


def _positive(q: Quantity, name: str) -> Quantity:
    if not q.value > 0:
        raise DomainError(f"{name} must be strictly positive, got {q.value} {q.unit}")
    return q


@dataclass(frozen=True)
class FocusConfig:
    """Focusing objective: wavelength (nm) and numerical aperture."""

    wavelength_nm: float
    numerical_aperture: float

    def __post_init__(self):
        if not self.wavelength_nm > 0:
            raise DomainError("wavelength must be positive")
        if not 0.0 < self.numerical_aperture < 1.5:
            raise DomainError(
                f"numerical aperture must be in (0, 1.5), got {self.numerical_aperture}"
            )


@dataclass(frozen=True)
class EtpaScenario:
    """All inputs of the absorption-rate estimate chain."""

    delta_c: Quantity            # GM
    entanglement_time: Quantity  # fs
    entanglement_area: Quantity  # um^2
    pair_flux: Quantity          # 1/cm^2/s
    molecule_density: Quantity   # 1/mL
    spot_diameter: Quantity      # um

    def __post_init__(self):
        _positive(Quantity(self.delta_c.expect("GM"), "GM"), "delta_c")
        _positive(Quantity(self.entanglement_time.expect("fs"), "fs"), "entanglement_time")
        _positive(Quantity(self.entanglement_area.expect("um^2"), "um^2"), "entanglement_area")
        if self.pair_flux.expect("1/cm^2/s") < 0:
            raise DomainError("pair flux must be nonnegative")
        _positive(Quantity(self.molecule_density.expect("1/mL"), "1/mL"), "molecule_density")
        _positive(Quantity(self.spot_diameter.expect("um"), "um"), "spot_diameter")


def entanglement_area(fc: FocusConfig) -> Quantity:
    """Airy-disc approximation pi/4 * (1.22 lambda / NA)^2, in um^2."""
    diameter_um = 1.22 * (fc.wavelength_nm * 1e-3) / fc.numerical_aperture
    return Quantity(math.pi / 4.0 * diameter_um ** 2, "um^2")


def entangled_cross_section(delta_c: Quantity, t_e: Quantity, a_e: Quantity) -> Quantity:
    """sigma_e = delta_c / (T_e * A_e) with proportionality constant 1,
    in cm^2 per molecule.

    1 GM = 1e-50 cm^4 s, so GM / (s * cm^2) lands directly in cm^2.
    """
    delta_cm4s = delta_c.expect("GM") * GM_IN_CM4_S
    t_s = t_e.expect("fs") * 1e-15
    a_cm2 = a_e.expect("um^2") * 1e-8
    return Quantity(delta_cm4s / (t_s * a_cm2), "cm^2")


def pair_flux(pair_rate_per_s: float, spot_area: Quantity) -> Quantity:
    """Photon-pair flux through the focal spot, 1/cm^2/s."""
    if pair_rate_per_s < 0:
        raise DomainError("pair rate must be nonnegative")
    area_cm2 = _positive(spot_area, "spot_area").expect("um^2") * 1e-8
    return Quantity(pair_rate_per_s / area_cm2, "1/cm^2/s")


def molecule_density(mass_concentration_mg_per_mL: float, molar_mass_g_per_mol: float) -> Quantity:
    """Number density from mass concentration and molar mass, molecules/mL."""
    if not mass_concentration_mg_per_mL > 0 or not molar_mass_g_per_mol > 0:
        raise DomainError("mass concentration and molar mass must be positive")
    moles_per_mL = mass_concentration_mg_per_mL * 1e-3 / molar_mass_g_per_mol
    return Quantity(moles_per_mL * N_AVOGADRO, "1/mL")


def tpa_rate(scn: EtpaScenario):
    """(R_eTPA, R_cTPA, R_total) in 1/s per molecule.

    The entangled term is linear in the pair flux, the classical term
    quadratic.
    """
    sigma_e = entangled_cross_section(scn.delta_c, scn.entanglement_time,
                                      scn.entanglement_area)
    phi = scn.pair_flux.expect("1/cm^2/s")
    r_e = sigma_e.expect("cm^2") * phi
    r_c = scn.delta_c.expect("GM") * GM_IN_CM4_S * phi ** 2
    return (Quantity(r_e, "1/s"), Quantity(r_c, "1/s"), Quantity(r_e + r_c, "1/s"))


def illuminated_volume_mL(spot_diameter: Quantity) -> float:
    """Spherical illuminated volume (pi/6) d^3 in mL (1 um^3 = 1e-12 mL)."""
    d_um = _positive(spot_diameter, "spot_diameter").expect("um")
    return math.pi / 6.0 * d_um ** 3 * 1e-12


def volume_rate(per_molecule_rate: Quantity, density: Quantity,
                spot_diameter: Quantity) -> Quantity:
    """Total absorption rate inside the illuminated spherical volume, 1/s."""
    rate = per_molecule_rate.expect("1/s")
    n_per_mL = density.expect("1/mL")
    return Quantity(rate * n_per_mL * illuminated_volume_mL(spot_diameter), "1/s")


# ---------------------------------------------------------------------------
# scenario file and report

_SCENARIO_KEYS = {
    "delta_c_GM": "classical TPA cross section",
    "T_e_fs": "entanglement time",
    "focus_wavelength_nm": "focused wavelength",
    "focus_na": "numerical aperture (dimensionless)",
    "pair_rate_per_s": "generated photon pair rate",
    "mass_concentration_mg_per_mL": "fluorophore mass concentration",
    "molar_mass_g_per_mol": "average molar mass",
    "spot_diameter_um": "measured focal spot diameter",
}


def load_scenario(path) -> dict:
    """Parse and validate a scenario JSON file.

    Keys carry explicit unit suffixes; a key whose stem is recognized but
    whose suffix is missing or wrong is rejected by name.
    """
    with open(path) as fh:
        data = json.load(fh)
    for key in data:
        if key in _SCENARIO_KEYS:
            continue
        known_stem = next((k for k in _SCENARIO_KEYS if k.startswith(key + "_")), None)
        if known_stem:
            raise TableParseError(
                f"key {key!r} is missing its unit suffix (expected {known_stem!r})"
            )
        raise TableParseError(f"unexpected scenario key {key!r}")
    missing = [k for k in _SCENARIO_KEYS if k not in data]
    if missing:
        raise TableParseError(f"scenario file missing keys: {missing}")
    for key, value in data.items():
        # bool is an int subclass, but true is not a number of any unit
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TableParseError(f"scenario key {key!r} must be a number")
    return data


def scenario_from_inputs(data: dict) -> EtpaScenario:
    """Build the full estimate-chain inputs from bench-level numbers."""
    a_e = entanglement_area(FocusConfig(data["focus_wavelength_nm"], data["focus_na"]))
    flux = pair_flux(data["pair_rate_per_s"], a_e)
    density = molecule_density(data["mass_concentration_mg_per_mL"],
                               data["molar_mass_g_per_mol"])
    return EtpaScenario(
        delta_c=Quantity(data["delta_c_GM"], "GM"),
        entanglement_time=Quantity(data["T_e_fs"], "fs"),
        entanglement_area=a_e,
        pair_flux=flux,
        molecule_density=density,
        spot_diameter=Quantity(data["spot_diameter_um"], "um"),
    )


def feasibility_report(scn: EtpaScenario) -> dict:
    """The full absorption-rate estimate chain as a flat dict."""
    sigma_e = entangled_cross_section(scn.delta_c, scn.entanglement_time,
                                      scn.entanglement_area)
    r_e, r_c, r_tot = tpa_rate(scn)
    volume = illuminated_volume_mL(scn.spot_diameter)
    return {
        "entanglement_area_um2": scn.entanglement_area.value,
        "entanglement_time_fs": scn.entanglement_time.value,
        "sigma_e_cm2": sigma_e.value,
        "pair_flux_per_cm2_s": scn.pair_flux.value,
        "molecule_density_per_mL": scn.molecule_density.value,
        "R_eTPA_per_molecule_per_s": r_e.value,
        "R_cTPA_per_molecule_per_s": r_c.value,
        "R_total_per_molecule_per_s": r_tot.value,
        "illuminated_volume_mL": volume,
        "R_eTPA_volume_per_s": volume_rate(r_e, scn.molecule_density, scn.spot_diameter).value,
        "R_cTPA_volume_per_s": volume_rate(r_c, scn.molecule_density, scn.spot_diameter).value,
    }


def format_report(report: dict) -> str:
    """Human-readable table mirroring the estimate chain."""
    rows = [
        ("entanglement area A_e", report["entanglement_area_um2"], "um^2"),
        ("entanglement time T_e", report["entanglement_time_fs"], "fs"),
        ("entangled cross section sigma_e", report["sigma_e_cm2"], "cm^2/molecule"),
        ("photon pair flux phi", report["pair_flux_per_cm2_s"], "cm^-2 s^-1"),
        ("molecule density", report["molecule_density_per_mL"], "molecules/mL"),
        ("R_eTPA per molecule", report["R_eTPA_per_molecule_per_s"], "s^-1/molecule"),
        ("R_cTPA per molecule", report["R_cTPA_per_molecule_per_s"], "s^-1/molecule"),
        ("illuminated volume", report["illuminated_volume_mL"], "mL"),
        ("R_eTPA in volume", report["R_eTPA_volume_per_s"], "s^-1"),
        ("R_cTPA in volume", report["R_cTPA_volume_per_s"], "s^-1"),
    ]
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(f"{name:<{width}}  {value: .6e}  {unit}" for name, value, unit in rows)
