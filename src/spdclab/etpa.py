"""Entangled two-photon-absorption feasibility calculus: entanglement area,
entangled cross section, absorption rates, pair flux, molecule density and
illuminated-volume scaling.

Every number is a plain float whose name ends in its unit (``T_e_fs``,
``A_e_um2``), the convention of the scenario keys and the report keys.
``scenario_from_inputs`` checks the six inputs of the estimate chain once
and returns them as a dict keyed that way, which ``feasibility_report``
reads.
"""

from __future__ import annotations

import math

from .constants import GM_IN_CM4_S, N_AVOGADRO
from .errors import DomainError
from .schema import NUMBER, REQUIRED, check, load_config


def _finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def _positive(value: float, name: str, unit: str) -> float:
    if not value > 0:
        raise DomainError(f"{name} must be strictly positive, got {value} {unit}")
    return value


def _power(x: float, n: int) -> float:
    """``x ** n``, or inf where the float overflows (Python raises there);
    the finite checks of the scenario and the report then name it."""
    try:
        return x ** n
    except OverflowError:
        return math.inf


def entanglement_area(wavelength_nm: float, numerical_aperture: float) -> float:
    """Airy-disc approximation pi/4 * (1.22 lambda / NA)^2, in um^2."""
    if not wavelength_nm > 0:
        raise DomainError("wavelength must be positive")
    if not 0.0 < numerical_aperture < 1.5:
        raise DomainError(f"numerical aperture must be in (0, 1.5), got {numerical_aperture}")
    diameter_um = 1.22 * (wavelength_nm * 1e-3) / numerical_aperture
    return math.pi / 4.0 * _power(diameter_um, 2)


def entangled_cross_section(delta_c_GM: float, T_e_fs: float, A_e_um2: float) -> float:
    """sigma_e = delta_c / (T_e * A_e) with proportionality constant 1,
    in cm^2 per molecule.

    1 GM = 1e-50 cm^4 s, so GM / (s * cm^2) lands directly in cm^2.
    """
    delta_cm4s = delta_c_GM * GM_IN_CM4_S
    t_a_s_cm2 = (T_e_fs * 1e-15) * (A_e_um2 * 1e-8)
    # inf where T_e * A_e underflows to 0, as _power gives for an overflow;
    # the finite check of feasibility_report then names it
    return delta_cm4s / t_a_s_cm2 if t_a_s_cm2 else math.inf


def pair_flux(pair_rate_per_s: float, A_e_um2: float) -> float:
    """Photon-pair flux through the focal spot, 1/cm^2/s."""
    if pair_rate_per_s < 0:
        raise DomainError("pair rate must be nonnegative")
    area_cm2 = _positive(A_e_um2, "entanglement_area", "um^2") * 1e-8
    return pair_rate_per_s / area_cm2


def molecule_density(mass_concentration_mg_per_mL: float, molar_mass_g_per_mol: float) -> float:
    """Number density from mass concentration and molar mass, molecules/mL."""
    if not mass_concentration_mg_per_mL > 0 or not molar_mass_g_per_mol > 0:
        raise DomainError("mass concentration and molar mass must be positive")
    moles_per_mL = mass_concentration_mg_per_mL * 1e-3 / molar_mass_g_per_mol
    return moles_per_mL * N_AVOGADRO


# ---------------------------------------------------------------------------
# scenario file and report

SCENARIO = {key: (NUMBER, REQUIRED) for key in (
    "delta_c_GM",                    # classical TPA cross section
    "T_e_fs",                        # entanglement time
    "focus_wavelength_nm",           # focused wavelength
    "focus_na",                      # numerical aperture (dimensionless)
    "pair_rate_per_s",               # generated photon pair rate
    "mass_concentration_mg_per_mL",  # fluorophore mass concentration
    "molar_mass_g_per_mol",          # average molar mass
    "spot_diameter_um",              # measured focal spot diameter
)}


def load_scenario(path) -> dict:
    """Parse a scenario JSON file and check it against ``SCENARIO``."""
    return check(SCENARIO, load_config(path))


def scenario_from_inputs(data: dict) -> dict:
    """The six inputs of the absorption-rate estimate chain, from
    bench-level numbers, each finite and checked once: the area and the
    flux by ``pair_flux``, the others here."""
    a_e = entanglement_area(data["focus_wavelength_nm"], data["focus_na"])
    scn = {
        "delta_c_GM": data["delta_c_GM"],
        "T_e_fs": data["T_e_fs"],
        "A_e_um2": a_e,
        "pair_flux_per_cm2_s": pair_flux(data["pair_rate_per_s"], a_e),
        "molecule_density_per_mL": molecule_density(data["mass_concentration_mg_per_mL"],
                                                    data["molar_mass_g_per_mol"]),
        "spot_diameter_um": data["spot_diameter_um"],
    }
    for name, value in scn.items():
        _finite(name, value)
    _positive(scn["delta_c_GM"], "delta_c", "GM")
    _positive(scn["T_e_fs"], "entanglement_time", "fs")
    _positive(scn["molecule_density_per_mL"], "molecule_density", "1/mL")
    _positive(scn["spot_diameter_um"], "spot_diameter", "um")
    return scn


def feasibility_report(scn: dict) -> dict:
    """The full absorption-rate estimate chain as a flat dict; a value that
    overflows raises DomainError naming its key.

    Per molecule, the entangled rate sigma_e * phi is linear in the pair
    flux phi and the classical rate delta_c * phi^2 quadratic; the volume
    rates scale them by the molecules in the sphere (pi/6) d^3 of the spot
    (1 um^3 = 1e-12 mL).
    """
    sigma_e_cm2 = entangled_cross_section(scn["delta_c_GM"], scn["T_e_fs"], scn["A_e_um2"])
    phi = scn["pair_flux_per_cm2_s"]
    r_e = sigma_e_cm2 * phi
    r_c = scn["delta_c_GM"] * GM_IN_CM4_S * _power(phi, 2)
    volume_mL = math.pi / 6.0 * _power(scn["spot_diameter_um"], 3) * 1e-12
    molecules = scn["molecule_density_per_mL"]
    report = {
        "entanglement_area_um2": scn["A_e_um2"],
        "entanglement_time_fs": scn["T_e_fs"],
        "sigma_e_cm2": sigma_e_cm2,
        "pair_flux_per_cm2_s": phi,
        "molecule_density_per_mL": molecules,
        "R_eTPA_per_molecule_per_s": r_e,
        "R_cTPA_per_molecule_per_s": r_c,
        "R_total_per_molecule_per_s": r_e + r_c,
        "illuminated_volume_mL": volume_mL,
        "R_eTPA_volume_per_s": r_e * molecules * volume_mL,
        "R_cTPA_volume_per_s": r_c * molecules * volume_mL,
    }
    for key, value in report.items():
        _finite(key, value)
    return report


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
