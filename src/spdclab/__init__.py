"""spdclab: simulator and analysis toolkit for a PPLN-waveguide
entangled-photon-pair source.

Modules
-------
dispersion   temperature-dependent Sellmeier model of 5% MgO:CLN
phasematch   quasi-phase-matching, degeneracy temperature, tuning curves
biphoton     joint spectral/temporal amplitudes and entanglement time
counting     detection-chain Monte Carlo and coincidence estimators
etpa         entangled two-photon-absorption feasibility arithmetic
analysis     measured rate-table regressions, R_abs and Gamma
schema       config tables and the one check every config passes
cli          the ``spdclab`` command-line front end
"""

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "biphoton",
    "cli",
    "constants",
    "counting",
    "dispersion",
    "errors",
    "etpa",
    "phasematch",
    "schema",
]
