"""Joint spectral amplitude of the photon pair, quadratic fiber-dispersion
phase, centered 2D Fourier transform to the joint temporal domain, and
entanglement-time extraction.

Conventions
-----------
* Frequency axes are angular (rad/s), strictly increasing and uniform.
* The spectral -> temporal transform uses the unitary kernel
  exp(-i omega t) / sqrt(2 pi) per axis, so Parseval holds:
  sum |JSA|^2 dw dw = sum |JTA|^2 dt dt.
* "Entanglement time" is the FWHM of the joint temporal intensity along
  the arrival-time-difference coordinate t_s - t_i through the JTI peak,
  with linear interpolation between grid samples and no smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import json
import warnings
import numpy as np

from ._ascii import digits
from .constants import C0, TWO_PI, NM, MM, FS, wavelength_nm_to_omega, omega_to_wavelength_nm
from .errors import CoverageError, DomainError
from .phasematch import CrystalConfig, delta_k

# Boundary-ring intensity mass above this fraction of the total means the
# grid truncates the JSA.
COVERAGE_TOLERANCE = 1e-3

# Largest relative deviation of an axis step from the first step that
# still counts as uniform sampling for the FFT.
UNIFORM_RTOL = 1e-9


@dataclass(frozen=True)
class PumpEnvelope:
    """Gaussian spectral envelope of the pump: center angular frequency and
    spectral standard deviation, both rad/s."""

    omega_p: float
    sigma_p: float

    def __post_init__(self):
        if not self.sigma_p > 0:
            raise DomainError(f"pump spectral width must be positive, got {self.sigma_p}")

    @classmethod
    def from_wavelength(cls, lambda_p_nm: float, fwhm_nm: float = 0.01) -> "PumpEnvelope":
        """CW pump at lambda_p_nm with a Gaussian linewidth given as FWHM in
        nm (default 0.01 nm, narrow enough that the joint spectrum is
        pump-limited along the sum coordinate)."""
        omega_p = wavelength_nm_to_omega(lambda_p_nm)
        sigma_lambda = fwhm_nm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
        sigma_p = TWO_PI * C0 / (lambda_p_nm * NM) ** 2 * (sigma_lambda * NM)
        return cls(omega_p=omega_p, sigma_p=sigma_p)


@dataclass(frozen=True)
class FiberDispersion:
    """Quadratic spectral phase accumulated outside the crystal.

    beta_fs2 is the group delay dispersion in fs^2 applied to each photon;
    the phase is exp(i beta/2 (omega - reference_omega)^2) per arm.
    beta = 0 models the free-space case.
    """

    beta_fs2: float
    reference_omega: float

    def __post_init__(self):
        if not np.isfinite(self.beta_fs2):
            raise DomainError("fiber dispersion must be finite")


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid for the joint spectrum, specified in wavelength
    around the degenerate point.  Defaults resolve the 20 mm sinc structure
    while keeping the FFT cheap."""

    n: int = 1024
    center_lambda_nm: float = 810.0
    half_span_nm: float = 60.0

    def omega_axis(self) -> np.ndarray:
        center = wavelength_nm_to_omega(self.center_lambda_nm)
        half = center - wavelength_nm_to_omega(self.center_lambda_nm + self.half_span_nm)
        return np.linspace(center - half, center + half, self.n)


@dataclass(frozen=True)
class JointSpectrum:
    """Complex amplitude sampled on a 2D (signal, idler) grid.

    In the spectral domain the axes are angular frequencies in rad/s; in
    the temporal domain they are times in seconds.  ``spectral_centers``
    keeps the absolute frequency origin across the FFT so the transform is
    invertible.
    """

    amplitude: np.ndarray
    axis_s: np.ndarray
    axis_i: np.ndarray
    domain: str  # "spectral" | "temporal"
    normalized: bool = False
    measured: bool = False
    spectral_centers: tuple | None = None

    def __post_init__(self):
        if self.domain not in ("spectral", "temporal"):
            raise DomainError(f"unknown domain tag {self.domain!r}")
        for ax in (self.axis_s, self.axis_i):
            if np.any(np.diff(ax) <= 0):
                raise DomainError("axes must be strictly increasing")

    def step(self, which: str) -> float:
        ax = self.axis_s if which == "s" else self.axis_i
        return float(ax[1] - ax[0])

    def axes_uniform(self) -> bool:
        for ax in (self.axis_s, self.axis_i):
            d = np.diff(ax)
            if np.max(np.abs(d - d[0])) > UNIFORM_RTOL * abs(d[0]):
                return False
        return True

    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def pump_envelope(env: PumpEnvelope, omega_s, omega_i):
    """Gaussian pump amplitude exp(-(w_s + w_i - w_p)^2 / (2 sigma_p^2)).

    Real valued, peak 1 on the anti-diagonal w_s + w_i = w_p, symmetric
    under signal/idler exchange.
    """
    detuning = np.asarray(omega_s, dtype=float) + np.asarray(omega_i, dtype=float) - env.omega_p
    out = np.exp(-detuning ** 2 / (2.0 * env.sigma_p ** 2))
    return out if np.ndim(out) else float(out)


def phase_matching_function(cfg: CrystalConfig, omega_s, omega_i):
    """sinc(dk L / 2) per grid point, pumped at w_s + w_i; sinc(0) = 1."""
    w_s = np.asarray(omega_s, dtype=float)
    w_i = np.asarray(omega_i, dtype=float)
    lambda_p_nm = omega_to_wavelength_nm(w_s + w_i)
    cfg.model.check_wavelength(lambda_p_nm)  # name the pump first when it leaves the window
    dk = delta_k(cfg, lambda_p_nm, omega_to_wavelength_nm(w_s))
    x = dk * (cfg.length_mm * MM) / 2.0
    out = np.sinc(x / np.pi)
    return out if np.ndim(out) else float(out)


def build_jsa(cfg: CrystalConfig, env: PumpEnvelope, grid: GridSpec | None = None) -> JointSpectrum:
    """Normalized joint spectral amplitude alpha * phi on a square grid.

    Raises CoverageError when a non-negligible fraction of the squared mass
    sits in the outermost grid ring, i.e. the grid truncates the spectrum.
    """
    grid = grid if grid is not None else GridSpec()
    axis = grid.omega_axis()
    w_s, w_i = np.meshgrid(axis, axis, indexing="ij")
    alpha = pump_envelope(env, w_s, w_i)
    # Only evaluate the dispersion model where the pump envelope is
    # non-negligible: far off the energy-conservation diagonal the
    # amplitude is zero anyway and the implied pump wavelength can leave
    # the Sellmeier validity window.
    mask = alpha > 1e-16
    if not np.any(mask):
        raise CoverageError("grid does not overlap the pump envelope",
                            truncated_fraction=1.0)
    amp = np.zeros_like(alpha)
    amp[mask] = alpha[mask] * phase_matching_function(cfg, w_s[mask], w_i[mask])

    intensity = amp ** 2
    total = float(np.sum(intensity))
    if total == 0.0:
        raise CoverageError("grid does not overlap the joint spectrum", truncated_fraction=1.0)
    ring = (np.sum(intensity[0, :]) + np.sum(intensity[-1, :])
            + np.sum(intensity[:, 0]) + np.sum(intensity[:, -1]))
    fraction = float(ring / total)
    if fraction > COVERAGE_TOLERANCE:
        raise CoverageError(
            f"grid too narrow: boundary ring holds {fraction:.3e} of the squared mass",
            truncated_fraction=fraction,
        )

    dw = axis[1] - axis[0]
    norm = np.sqrt(total * dw * dw)
    return JointSpectrum(
        amplitude=(amp / norm).astype(complex),
        axis_s=axis.copy(),
        axis_i=axis.copy(),
        domain="spectral",
        normalized=True,
    )


def apply_fiber_phase(js: JointSpectrum, fd: FiberDispersion) -> JointSpectrum:
    """Multiply by the quadratic per-arm dispersion phase.

    Pure phase: |output| == |input| pointwise, marginals unchanged.
    """
    if js.domain != "spectral":
        raise DomainError("fiber phase applies in the spectral domain only")
    if fd.beta_fs2 == 0.0:
        return js
    beta = fd.beta_fs2 * FS ** 2
    phase_s = np.exp(1j * beta / 2.0 * (js.axis_s - fd.reference_omega) ** 2)
    phase_i = np.exp(1j * beta / 2.0 * (js.axis_i - fd.reference_omega) ** 2)
    amp = js.amplitude * phase_s[:, None] * phase_i[None, :]
    return replace(js, amplitude=amp)


def _centered_fft2(a: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(a)))


def _centered_ifft2(a: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(a)))


def to_temporal(js: JointSpectrum) -> JointSpectrum:
    """Centered 2D DFT of the JSA; returns the joint temporal amplitude.

    Time axes are derived from the frequency spacing; the absolute
    frequency origin is kept in ``spectral_centers`` for invertibility.
    """
    if js.domain != "spectral":
        raise DomainError("to_temporal expects a spectral-domain spectrum")
    if not js.axes_uniform():
        raise DomainError("FFT requires uniformly spaced axes")
    n_s, n_i = js.amplitude.shape
    dw_s, dw_i = js.step("s"), js.step("i")
    scale = dw_s * dw_i / TWO_PI  # unitary continuum normalization
    jta = _centered_fft2(js.amplitude) * scale
    t_s = np.fft.fftshift(np.fft.fftfreq(n_s, d=dw_s / TWO_PI))
    t_i = np.fft.fftshift(np.fft.fftfreq(n_i, d=dw_i / TWO_PI))
    # the centered DFT's phase origin is the sample that ifftshift moves to
    # index 0, i.e. index n//2 on each axis
    centers = (float(js.axis_s[n_s // 2]), float(js.axis_i[n_i // 2]))
    return JointSpectrum(
        amplitude=jta,
        axis_s=t_s,
        axis_i=t_i,
        domain="temporal",
        normalized=js.normalized,
        measured=js.measured,
        spectral_centers=centers,
    )


def to_spectral(js: JointSpectrum) -> JointSpectrum:
    """Inverse of :func:`to_temporal`."""
    if js.domain != "temporal":
        raise DomainError("to_spectral expects a temporal-domain spectrum")
    if js.spectral_centers is None:
        raise DomainError("temporal spectrum lost its spectral axis origin")
    n_s, n_i = js.amplitude.shape
    dt_s, dt_i = js.step("s"), js.step("i")
    dw_s = TWO_PI / (n_s * dt_s)
    dw_i = TWO_PI / (n_i * dt_i)
    scale = dw_s * dw_i / TWO_PI
    amp = _centered_ifft2(js.amplitude / scale)
    c_s, c_i = js.spectral_centers
    axis_s = c_s + np.fft.fftshift(np.fft.fftfreq(n_s, d=dt_s / TWO_PI))
    axis_i = c_i + np.fft.fftshift(np.fft.fftfreq(n_i, d=dt_i / TWO_PI))
    return JointSpectrum(
        amplitude=amp,
        axis_s=axis_s,
        axis_i=axis_i,
        domain="spectral",
        normalized=js.normalized,
        measured=js.measured,
    )


def jti_difference_profile(js: JointSpectrum):
    """Profile of the joint temporal intensity along the t_s - t_i
    difference direction through the JTI maximum.

    Returns (tau, profile) with tau the difference-time offset from the
    peak.  The walk is contiguous from the peak so periodic DFT images do
    not contaminate the profile.  The peak is located on the anti-diagonal
    through the grid center: for a near-CW pump the JTI is degenerate along
    the sum coordinate and DFT periodization ripple would otherwise put the
    global argmax on a grid corner, truncating the profile.
    """
    if js.domain != "temporal":
        raise DomainError("entanglement time is extracted in the temporal domain")
    jti = js.intensity()
    n_s, n_i = jti.shape
    s0 = n_s // 2 + n_i // 2
    ii = np.arange(max(0, s0 - (n_i - 1)), min(n_s - 1, s0) + 1)
    jj = s0 - ii
    k = int(np.argmax(jti[ii, jj]))
    i0, j0 = int(ii[k]), int(jj[k])
    dt = js.step("s")

    offsets = np.arange(-min(i0, n_i - 1 - j0), min(n_s - 1 - i0, j0) + 1)
    prof = jti[i0 + offsets, j0 - offsets]
    tau = 2.0 * dt * offsets
    return tau, prof


def _interp_crossing(x0, y0, x1, y1, level):
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def entanglement_time_from_jti(js: JointSpectrum) -> float:
    """FWHM (fs) of the JTI along the difference coordinate through its
    peak, with linear interpolation between samples."""
    tau, prof = jti_difference_profile(js)
    peak_idx = int(np.argmax(prof))
    half = prof[peak_idx] / 2.0

    right = peak_idx
    while right + 1 < len(prof) and prof[right + 1] >= half:
        right += 1
    left = peak_idx
    while left - 1 >= 0 and prof[left - 1] >= half:
        left -= 1
    if right + 1 >= len(prof) or left - 1 < 0:
        raise CoverageError("JTI profile does not drop below half maximum inside the grid")
    hi = _interp_crossing(tau[right], prof[right], tau[right + 1], prof[right + 1], half)
    lo = _interp_crossing(tau[left], prof[left], tau[left - 1], prof[left - 1], half)
    return float((hi - lo) / FS)


# ---------------------------------------------------------------------------
# matrix export / measured-JSI import


def export_matrix_csv(js: JointSpectrum, csv_path, sidecar_path) -> None:
    """Write the intensity matrix as CSV with axis header rows plus a JSON
    sidecar carrying units and the domain tag.

    The CSV holds exactly the bytes of the writer it replaces::

        "# axis_s: " + " ".join(f"{v:.12e}" for v in js.axis_s) + "\\n"
        "# axis_i: " + " ".join(f"{v:.12e}" for v in js.axis_i) + "\\n"
        np.savetxt(fh, js.intensity(), delimiter=",", fmt="%.12e")

    i.e. every value as ``'%.12e' % v``, ``,``-joined rows ending in
    ``\\n``.  The values are rendered from integer digits in chunks of at
    most ``_EXPORT_CHUNK_VALUES`` (see :func:`_render_e12`).

    Rounding error: for a finite v with decimal exponent E = floor(log10|v|)
    the text is the 13-digit mantissa M = round-half-even(Q) of the exact
    Q = |v| 10**(12 - E) in [1e12, 1e13), or 1.000000000000e(E+1) when M
    rounds up to 1e13.  The renderer computes q = fl(|v| fl(10**(12 - E)))
    from the correctly rounded power of ten in ``_POW10``.  For
    -290 <= E <= 308 that power and q are normal floats, so
    q = Q (1 + d1)(1 + d2) with |d1|, |d2| <= 2**-53, and
    |q - Q| <= 2**-52 (1 + 2**-54) Q < 2.3e-3 for Q below 1e13 + 1.
    Unless q - floor(q) lies within ``_HALF_WINDOW`` = 2.5e-3 of 1/2, no .5
    boundary lies between q and Q, so rint(q) = M (q < 2**53, so floor and
    rint are exact).  The other values take their text from ``'%.12e' % v``:
    non-finite values, nonzero values below 1e-290 (E outside the range
    above) and those inside the window, which includes the exact half-even
    ties such as 1234567890123.5.  An E misjudged by one at a power of ten
    gives the same text: q then lies within 2.3e-3 of 1e12 or 1e13 and
    rounds to 1.000000000000eE either way.
    """
    units = "rad/s" if js.domain == "spectral" else "s"
    with open(csv_path, "wb") as fh:
        fh.write(b"# axis_s: ")
        _write_e12(fh, js.axis_s[None, :], b" ")
        fh.write(b"# axis_i: ")
        _write_e12(fh, js.axis_i[None, :], b" ")
        _write_e12(fh, js.intensity(), b",")
    sidecar = {
        "domain": js.domain,
        "axis_units": units,
        "normalized": js.normalized,
        "measured": js.measured,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


# values rendered per write in export_matrix_csv
_EXPORT_CHUNK_VALUES = 1 << 16

# fl(10**k) for k = -_POW10_ZERO .. 308, correctly rounded by float()
_POW10_ZERO = 307
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_ZERO, 309)])

# smallest |v| whose 10**(12 - E) is a normal float even when E is misjudged
_MIN_SCALED = 1e-290

# half-width of the window around .5 whose values fall back to '%.12e'
_HALF_WINDOW = 2.5e-3


def _write_e12(fh, matrix, delimiter: bytes) -> None:
    """Write the rows of ``matrix`` to the binary file ``fh`` as ``'%.12e'``
    fields joined by ``delimiter``, each row ending in ``\\n``."""
    n_cols = matrix.shape[1]
    flat = matrix.ravel()
    for lo in range(0, flat.size, _EXPORT_CHUNK_VALUES):
        fh.write(_render_e12(flat[lo:lo + _EXPORT_CHUNK_VALUES], lo, n_cols, delimiter))


def _render_e12(values, first: int, n_cols: int, delimiter: bytes) -> bytes:
    """``'%.12e' % v`` plus its separator for each value of a flat run of a
    row-major matrix that starts at flat index ``first``: ``\\n`` after the
    last column, ``delimiter`` after the others.

    Each field is a 21-byte slot, ``-d.dddddddddddde+ddd`` plus the
    separator; the sign and the exponent's hundreds digit are dropped when
    unused.  The error bound that decides which values take the fallback is
    in :func:`export_matrix_csv`.
    """
    magnitude = np.abs(values)
    scaled = (magnitude >= _MIN_SCALED) & (magnitude <= np.finfo(float).max)
    magnitude = np.where(scaled, magnitude, 1.0)
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    q = magnitude * _POW10[_POW10_ZERO + 12 - exponent]
    exponent += (q >= 1e13).astype(np.int64) - (q < 1e12)
    q = magnitude * _POW10[_POW10_ZERO + 12 - exponent]
    mantissa = np.rint(q)
    fallback = scaled & (np.abs(q - np.floor(q) - 0.5) < _HALF_WINDOW)
    fallback |= ~scaled & (values != 0)
    carry = mantissa == 1e13  # 9.999999999999|5.. rounds up to 1.000000000000e(E+1)
    mantissa[carry] = 1e12
    exponent += carry
    mantissa = mantissa.astype(np.int64)
    zero = values == 0
    mantissa[zero] = 0
    exponent[zero] = 0

    out = np.empty((len(values), 21), dtype=np.uint8)
    used = np.ones(out.shape, dtype=bool)
    out[:, 0] = ord("-")
    used[:, 0] = np.signbit(values)
    mantissa_digits = digits(mantissa, 13)
    out[:, 1] = mantissa_digits[:, 0]
    out[:, 2] = ord(".")
    out[:, 3:15] = mantissa_digits[:, 1:]
    out[:, 15] = ord("e")
    out[:, 16] = np.where(exponent < 0, ord("-"), ord("+"))
    out[:, 17:20] = digits(np.abs(exponent), 3)
    used[:, 17] = np.abs(exponent) >= 100
    row_end = np.arange(first + 1, first + len(values) + 1) % n_cols == 0
    out[:, 20] = np.where(row_end, ord("\n"), ord(delimiter))
    rows = np.flatnonzero(fallback)
    if len(rows):
        texts = ["%.12e" % v for v in values[rows].tolist()]
        out[rows, :20] = np.array(texts, dtype="S20").view(np.uint8).reshape(len(rows), 20)
        used[rows, :20] = np.arange(20) < np.array([len(t) for t in texts])[:, None]
    return out[used].tobytes()


def import_jsi_csv(csv_path, axis_units: str = "nm") -> JointSpectrum:
    """Read a measured joint spectral intensity matrix.

    Wavelength axes (nm) are accepted and converted; the intensity is
    resampled onto a uniform angular-frequency grid and the square root is
    taken so the result is amplitude-valued (phases can then be restored
    with :func:`apply_fiber_phase`).  A malformed axis value or matrix cell
    raises DomainError naming the axis or matrix row and the 0-based index.
    """
    with open(csv_path) as fh:
        header = [fh.readline() for _ in range(2)]
        if not all(line.startswith("#") for line in header):
            raise DomainError("matrix CSV must start with two axis header rows")
        raw = [_parse_axis(name, line) for name, line in zip(("axis_s", "axis_i"), header)]
        try:
            with warnings.catch_warnings():
                # headers without data rows: the shape check below names them
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                intensity = np.loadtxt(fh, delimiter=",")
        except ValueError as exc:
            raise _matrix_error(csv_path, exc) from None
    if intensity.shape != (len(raw[0]), len(raw[1])):
        raise DomainError("matrix shape does not match axis headers")
    bad = np.argwhere(~np.isfinite(intensity))
    if len(bad):
        row, col = bad[0]
        raise DomainError(f"measured intensity is not finite at matrix row {row}, "
                          f"column {col} (0-based): {intensity[row, col]}")
    if np.any(intensity < 0):
        raise DomainError("measured intensity must be nonnegative")
    if axis_units not in ("nm", "rad/s"):
        raise DomainError(f"unsupported axis units {axis_units!r}")

    axis_s, axis_i = (_check_axis(name, values, axis_units)
                      for name, values in zip(("axis_s", "axis_i"), raw))
    uni_s, uni_i, resampled = _resample_uniform(axis_s, axis_i, intensity)
    return JointSpectrum(
        amplitude=np.sqrt(resampled).astype(complex),
        axis_s=uni_s,
        axis_i=uni_i,
        domain="spectral",
        normalized=False,
        measured=True,
    )


def _parse_axis(name: str, line: str) -> np.ndarray:
    """The values of a ``# axis_x: v0 v1 ...`` header row, at least two."""
    values = []
    for k, token in enumerate(line.partition(":")[2].split()):
        try:
            values.append(float(token))
        except ValueError:
            raise DomainError(f"{name} value {k} (0-based) is not a number: {token!r}") from None
    if len(values) < 2:
        raise DomainError(f"{name} has {len(values)} value(s); resampling needs at least 2")
    return np.array(values)


def _check_axis(name: str, values: np.ndarray, units: str) -> np.ndarray:
    """``values`` in rad/s, which must be finite and strictly monotonic."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 nm is inf rad/s, rejected below
        axis = wavelength_nm_to_omega(values) if units == "nm" else values
        step = np.diff(axis)
    bad = ~(np.isfinite(values) & np.isfinite(axis))
    bad[1:] |= ~(np.sign(step) * np.sign(step[0]) > 0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DomainError(f"{name} must be finite and strictly monotonic in rad/s; "
                          f"value {k} (0-based) is {values[k]}")
    return axis


def _matrix_error(csv_path, exc: ValueError) -> DomainError:
    """Name the first cell that is not a number, or the first row whose
    length differs from row 0's, in a matrix ``np.loadtxt`` rejected."""
    with open(csv_path) as fh:
        lines = [line.partition("#")[0] for line in fh.read().splitlines()[2:]]
    rows = [line.split(",") for line in lines if line.strip()]
    for r, cells in enumerate(rows):
        for c, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                return DomainError(f"measured intensity is not a number at matrix row {r}, "
                                   f"column {c} (0-based): {cell.strip()!r}")
        if len(cells) != len(rows[0]):
            return DomainError(f"matrix row {r} has {len(cells)} columns, row 0 has {len(rows[0])}")
    return DomainError(f"measured intensity matrix is unreadable: {exc}")


def _resample_uniform(axis_s, axis_i, intensity):
    """Bilinear resample of ``intensity`` from strictly monotonic axes onto
    increasing uniform axes with the same end points and lengths.

    Value for value, this is the linear grid interpolator it replaces
    (``tests/conftest.py::resample_jsi_reference``): cell
    i = clip(searchsorted(g, x, "right") - 1, 0, n - 2), weight
    y = (x - g[i]) / (g[i + 1] - g[i]), the four corner terms summed from
    0.0 in the order below.  Every uniform point lies inside the data axes,
    so none takes a fill value.
    """
    if axis_s[0] > axis_s[-1]:
        axis_s, intensity = axis_s[::-1], intensity[::-1, :]
    if axis_i[0] > axis_i[-1]:
        axis_i, intensity = axis_i[::-1], intensity[:, ::-1]
    uni_s = np.linspace(axis_s[0], axis_s[-1], len(axis_s))
    uni_i = np.linspace(axis_i[0], axis_i[-1], len(axis_i))
    (i, y0), (j, y1) = _cells(axis_s, uni_s), _cells(axis_i, uni_i)
    y0, y1 = y0[:, None], y1[None, :]
    lo, hi = intensity[i], intensity[i + 1]
    resampled = (0.0 + lo[:, j] * (1 - y0) * (1 - y1) + lo[:, j + 1] * (1 - y0) * y1
                 + hi[:, j] * y0 * (1 - y1) + hi[:, j + 1] * y0 * y1)
    return uni_s, uni_i, resampled


def _cells(grid, x):
    """Index of the grid cell holding each x, and x's weight in that cell."""
    i = np.clip(np.searchsorted(grid, x, "right") - 1, 0, len(grid) - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])
