"""Physical constants and unit conversion helpers.

Internal unit system is SI (rad/s, meters, seconds).  Boundary APIs accept
nm, degC, mm, fs and friends because those are the units used at the bench.
"""

# exact by the SI definitions
C0 = 299792458.0  # vacuum speed of light, m/s
N_AVOGADRO = 6.02214076e23  # 1/mol

TWO_PI = 6.283185307179586

# 1 Goeppert-Mayer = 1e-50 cm^4 s / photon
# (standard unit for classical two-photon absorption cross sections).
GM_IN_CM4_S = 1e-50

NM = 1e-9
UM = 1e-6
MM = 1e-3
FS = 1e-15


def wavelength_nm_to_omega(lambda_nm):
    """Vacuum wavelength in nm -> angular frequency in rad/s."""
    return TWO_PI * C0 / (lambda_nm * NM)


def omega_to_wavelength_nm(omega):
    """Angular frequency in rad/s -> vacuum wavelength in nm."""
    return TWO_PI * C0 / omega / NM
