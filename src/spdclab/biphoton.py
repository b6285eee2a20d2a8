"""Joint spectral amplitude of the photon pair, quadratic fiber-dispersion
phase, centered 2D Fourier transform to the joint temporal domain, and
entanglement-time extraction.  The transform runs forward only; its
inverse is a test oracle in ``tests/conftest.py``.

Conventions
-----------
* Frequency axes are angular (rad/s), strictly increasing and uniform.
* The spectral -> temporal transform uses the unitary kernel
  exp(-i omega t) / sqrt(2 pi) per axis, so Parseval holds:
  sum |JSA|^2 dw dw = sum |JTA|^2 dt dt.
* "Entanglement time" is the FWHM of the joint temporal intensity along
  the arrival-time-difference coordinate t_s - t_i through the JTI peak,
  with linear interpolation between grid samples and no smoothing.  It is
  sampled on the grid anti-diagonal, where one step moves t_s - t_i by
  dt_s + dt_i, so the two axes may have different steps.
* The fiber phase is given by two numbers, the group delay dispersion per
  photon (fs^2) and the frequency it is referred to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import math
import warnings
import numpy as np

from ._ascii import digits
from .constants import C0, TWO_PI, NM, MM, FS, wavelength_nm_to_omega, omega_to_wavelength_nm
from .errors import CoverageError, DomainError
from .phasematch import CrystalConfig, delta_k
from .schema import reading, write_json

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
    def from_wavelength(cls, lambda_p_nm: float, fwhm_nm: float) -> "PumpEnvelope":
        """CW pump at lambda_p_nm with a Gaussian linewidth given as FWHM in
        nm."""
        if not fwhm_nm > 0:
            raise DomainError(f"pump fwhm_nm must be positive, got {fwhm_nm}")
        omega_p = wavelength_nm_to_omega(lambda_p_nm)
        # in Python floats, whose products overflow to inf without a warning
        sigma_lambda = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        sigma_p = TWO_PI * C0 / (lambda_p_nm * NM) ** 2 * (sigma_lambda * NM)
        variance = sigma_p * sigma_p  # pump_envelope divides by it
        if not variance > 0:
            raise DomainError(
                f"pump fwhm_nm too narrow: its variance underflows to 0, got {fwhm_nm}")
        if variance == math.inf:
            raise DomainError(f"pump fwhm_nm too wide: its variance overflows, got {fwhm_nm}")
        return cls(omega_p=omega_p, sigma_p=sigma_p)


@dataclass(frozen=True)
class GridSpec:
    """Square sampling grid for the joint spectrum, specified in wavelength
    around ``center_lambda_nm``; ``spdclab jsa`` centres it on the
    degenerate point 2 * lambda_p, where the model JSA is centred."""

    n: int
    center_lambda_nm: float
    half_span_nm: float

    def __post_init__(self):
        if not self.half_span_nm > 0:
            raise DomainError(f"grid half_span_nm must be positive, got {self.half_span_nm}")

    def omega_axis(self) -> np.ndarray:
        center = wavelength_nm_to_omega(self.center_lambda_nm)
        half = center - wavelength_nm_to_omega(self.center_lambda_nm + self.half_span_nm)
        return np.linspace(center - half, center + half, self.n)


@dataclass(frozen=True)
class JointSpectrum:
    """Amplitude sampled on a 2D (signal, idler) grid: real until a phase
    (:func:`apply_fiber_phase`) or the transform (:func:`to_temporal`)
    makes it complex.

    In the spectral domain the axes are angular frequencies in rad/s; in
    the temporal domain they are times in seconds.
    """

    amplitude: np.ndarray
    axis_s: np.ndarray
    axis_i: np.ndarray
    domain: str  # "spectral" | "temporal"

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


def pump_envelope(env: PumpEnvelope, omega_s, omega_i):
    """Gaussian pump amplitude exp(-(w_s + w_i - w_p)^2 / (2 sigma_p^2)).

    Real valued, peak 1 on the anti-diagonal w_s + w_i = w_p, symmetric
    under signal/idler exchange.
    """
    detuning = np.asarray(omega_s, dtype=float) + np.asarray(omega_i, dtype=float) - env.omega_p
    return np.exp(-detuning ** 2 / (2.0 * env.sigma_p ** 2))


def phase_matching_function(cfg: CrystalConfig, omega_s, omega_i):
    """sinc(dk L / 2) per grid point, pumped at w_s + w_i; sinc(0) = 1."""
    w_s = np.asarray(omega_s, dtype=float)
    w_i = np.asarray(omega_i, dtype=float)
    dk = delta_k(cfg, omega_to_wavelength_nm(w_s + w_i), omega_to_wavelength_nm(w_s))
    x = dk * (cfg.length_mm * MM) / 2.0
    return np.sinc(x / np.pi)


def build_jsa(cfg: CrystalConfig, env: PumpEnvelope, grid: GridSpec) -> JointSpectrum:
    """Normalized joint spectral amplitude alpha * phi on a square grid, a
    real float64 matrix.

    Raises CoverageError when a non-negligible fraction of the squared mass
    sits in the outermost grid ring, i.e. the grid truncates the spectrum.
    """
    axis = grid.omega_axis()
    # allocated before the n x n temporaries, while glibc's malloc still
    # maps a block this size on its own: freeing a temporary moves such
    # blocks onto its heap, where the JSA would stay resident after
    # `spdclab jsa` drops it
    amp = np.zeros((len(axis), len(axis)))
    alpha = pump_envelope(env, axis[:, None], axis[None, :])
    # Only evaluate the dispersion model where the pump envelope is
    # non-negligible: far off the energy-conservation diagonal the
    # amplitude is zero anyway and the implied pump wavelength can leave
    # the Sellmeier validity window.
    mask = alpha > 1e-16
    if not np.any(mask):
        raise CoverageError("grid does not overlap the pump envelope")
    rows, cols = np.nonzero(mask)
    amp[mask] = alpha[mask] * phase_matching_function(cfg, axis[rows], axis[cols])
    del alpha, mask, rows, cols

    intensity = amp ** 2
    total = float(np.sum(intensity))
    if total == 0.0:
        raise CoverageError("grid does not overlap the joint spectrum")
    # each boundary cell once: the first and last rows, then the first and
    # last columns between them (one index when n = 1)
    edges = sorted({0, len(axis) - 1})
    ring = np.sum(intensity[edges]) + np.sum(intensity[1:-1, edges])
    del intensity
    fraction = float(ring / total)
    if fraction > COVERAGE_TOLERANCE:
        raise CoverageError(
            f"grid too narrow: boundary ring holds {fraction:.3e} of the squared mass")

    dw = axis[1] - axis[0]
    amp /= np.sqrt(total * dw * dw)
    return JointSpectrum(amplitude=amp, axis_s=axis.copy(), axis_i=axis.copy(), domain="spectral")


def apply_fiber_phase(js: JointSpectrum, beta_fs2: float, reference_omega: float) -> JointSpectrum:
    """Multiply by the quadratic dispersion phase
    exp(i beta/2 (omega - reference_omega)^2) of each arm, beta_fs2 being
    the group delay dispersion in fs^2 that each photon sees outside the
    crystal; beta = 0 is free space and returns ``js`` itself.

    Pure phase: |output| == |input| pointwise, marginals unchanged.
    """
    if js.domain != "spectral":
        raise DomainError("fiber phase applies in the spectral domain only")
    if not np.isfinite(beta_fs2):
        raise DomainError("fiber dispersion must be finite")
    if beta_fs2 == 0.0:
        return js
    beta = beta_fs2 * FS ** 2
    phase_s = np.exp(1j * beta / 2.0 * (js.axis_s - reference_omega) ** 2)
    phase_i = np.exp(1j * beta / 2.0 * (js.axis_i - reference_omega) ** 2)
    amp = js.amplitude * phase_s[:, None]
    amp *= phase_i[None, :]
    return replace(js, amplitude=amp)


def to_temporal(js: JointSpectrum) -> JointSpectrum:
    """Centered 2D DFT of the JSA; returns the joint temporal amplitude,
    ``fftshift(fft2(ifftshift(a))) * scale`` value for value.

    Time axes are derived from the frequency spacing; the phase origin of
    the transform is the sample at index n // 2 of each frequency axis.
    The input is left unchanged: the transform, the scaling and the
    ``fftshift`` (:func:`_fftshift_in_place`) work in place on the
    ``ifftshift`` copy (``fft2``'s ``out`` needs numpy >= 2.0), so the call
    holds one n x n buffer and two rows besides its input. A real
    amplitude is promoted to the matching complex type, as ``fft2`` would;
    its real ``ifftshift`` copy is held until the complex buffer exists.
    """
    if js.domain != "spectral":
        raise DomainError("to_temporal expects a spectral-domain spectrum")
    if not js.axes_uniform():
        raise DomainError("FFT requires uniformly spaced axes")
    n_s, n_i = js.amplitude.shape
    dw_s, dw_i = js.step("s"), js.step("i")
    scale = dw_s * dw_i / TWO_PI  # unitary continuum normalization
    jta = np.fft.ifftshift(js.amplitude).astype(np.result_type(js.amplitude, 1j), copy=False)
    np.fft.fft2(jta, out=jta)
    jta *= scale
    _fftshift_in_place(jta)
    t_s = np.fft.fftshift(np.fft.fftfreq(n_s, d=dw_s / TWO_PI))
    t_i = np.fft.fftshift(np.fft.fftfreq(n_i, d=dw_i / TWO_PI))
    return JointSpectrum(amplitude=jta, axis_s=t_s, axis_i=t_i, domain="temporal")


def _fftshift_in_place(a: np.ndarray) -> None:
    """Overwrite the 2D ``a`` with ``np.fft.fftshift(a)``, holding two rows
    besides it.

    Row r moves to row (r + n_s // 2) % n_s, rolled by n_i // 2 on its way.
    The rows are moved along the cycles of that map, each cycle carrying
    one row in a buffer while the row it replaces is saved in the other.
    """
    n_s, n_i = a.shape
    h_s, h_i = n_s // 2, n_i // 2
    carry, spare = np.empty(n_i, a.dtype), np.empty(n_i, a.dtype)
    cycles = math.gcd(n_s, h_s)
    for start in range(cycles):
        carry[:] = a[start]
        r = start
        for _ in range(n_s // cycles):
            r = (r + h_s) % n_s
            spare[:] = a[r]
            a[r, h_i:] = carry[:n_i - h_i]
            a[r, :h_i] = carry[n_i - h_i:]
            carry, spare = spare, carry


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
    n_s, n_i = js.amplitude.shape
    s0 = n_s // 2 + n_i // 2
    ii = np.arange(max(0, s0 - (n_i - 1)), min(n_s - 1, s0) + 1)
    prof = np.abs(js.amplitude[ii, s0 - ii]) ** 2
    i0 = int(ii[np.argmax(prof)])
    # one sample along the anti-diagonal advances t_s by dt_s and t_i by -dt_i
    tau = (js.step("s") + js.step("i")) * (ii - i0)
    return tau, prof


def _interp_crossing(x0, y0, x1, y1, level):
    return x0 + (level - y0) * (x1 - x0) / (y1 - y0)


def entanglement_time_from_jti(js: JointSpectrum) -> float:
    """FWHM (fs) of the JTI along the difference coordinate through its
    peak, with linear interpolation between samples."""
    return half_max_width_fs(*jti_difference_profile(js))


def half_max_width_fs(tau, prof) -> float:
    """FWHM (fs) of the lobe of ``prof`` around its maximum, walking out
    from the peak to the first samples below half maximum and interpolating
    linearly between those and their neighbours; ``tau`` in seconds."""
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


def export_matrix_csv(js: JointSpectrum, csv_path, sidecar_path, measured: bool) -> None:
    """Write the intensity matrix as CSV with axis header rows plus a JSON
    sidecar carrying units, the domain tag and the provenance: ``measured``
    for a matrix that comes from an imported intensity, ``normalized``
    (its negation) for one that comes from the unit-norm model JSA.

    The CSV holds exactly the bytes of the writer it replaces::

        "# axis_s: " + " ".join(f"{v:.12e}" for v in js.axis_s) + "\\n"
        "# axis_i: " + " ".join(f"{v:.12e}" for v in js.axis_i) + "\\n"
        np.savetxt(fh, np.abs(js.amplitude) ** 2, delimiter=",", fmt="%.12e")

    i.e. every value as ``'%.12e' % v``, ``,``-joined rows ending in
    ``\\n``.  The header rows are written by that expression.  The matrix
    is written in chunks of at most ``_EXPORT_CHUNK_VALUES`` values
    (:func:`_write_matrix`), and the intensity ``|a|**2`` is computed one
    chunk at a time, so the export holds no n x n array besides ``js``,
    which it leaves unchanged.  A chunk of +0.0 and positive values of at least
    1e-290 whose text has a two-digit exponent, as the JSI and JTI of
    ``spdclab jsa`` are, is rendered from integer digits in 19-byte slots,
    ``d.dddddddddddde±dd`` plus the separator; a zero cell is a copy of
    ``0.000000000000e+00``.  Any other chunk (a sign bit, a three-digit
    exponent, a non-finite or a subnormal value) is written value by value
    as ``'%.12e' % v`` plus its separator.

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
    rint are exact).  The values inside the window, which include the exact
    half-even ties such as 1234567890123.5, take their slot from
    ``'%.12e' % v``.  An E misjudged by one at a power of ten gives the same
    text: q then lies within 2.3e-3 of 1e12 or 1e13 and rounds to
    1.000000000000eE either way.  A window value whose text is not 18 bytes,
    such as 9.9999999999995e99, which prints as 1.000000000000e+100, sends
    its chunk to the value-by-value writer.
    """
    units = "rad/s" if js.domain == "spectral" else "s"
    with open(csv_path, "wb") as fh:
        fh.write(("# axis_s: " + " ".join(f"{v:.12e}" for v in js.axis_s) + "\n").encode())
        fh.write(("# axis_i: " + " ".join(f"{v:.12e}" for v in js.axis_i) + "\n").encode())
        _write_matrix(fh, js.amplitude, lambda chunk: np.abs(chunk) ** 2)
    sidecar = {
        "domain": js.domain,
        "axis_units": units,
        "normalized": not measured,
        "measured": measured,
    }
    write_json(sidecar, sidecar_path)


# values per chunk of export_matrix_csv and per row block of _resample_uniform
_EXPORT_CHUNK_VALUES = 1 << 16

# fl(10**k) for k = -_POW10_ZERO .. 308, correctly rounded by float()
_POW10_ZERO = 307
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_ZERO, 309)])

# smallest |v| whose 10**(12 - E) is a normal float even when E is misjudged
_MIN_SCALED = 1e-290

# half-width of the window around .5 whose values fall back to '%.12e'
_HALF_WINDOW = 2.5e-3

# '%.12e' % 0.0, copied into every zero cell
_ZERO_E12 = np.frombuffer(b"0.000000000000e+00", dtype=np.uint8)


def _write_matrix(fh, matrix, values) -> None:
    """Write ``np.savetxt(fh, values(matrix), delimiter=",", fmt="%.12e")``
    to the binary ``fh``.  ``values`` acts elementwise; it is applied to one
    flat run of at most ``_EXPORT_CHUNK_VALUES`` cells at a time, so no
    full-size result is held."""
    flat = matrix.reshape(-1)
    for lo in range(0, flat.size, _EXPORT_CHUNK_VALUES):
        fh.write(_render_e12(values(flat[lo:lo + _EXPORT_CHUNK_VALUES]), lo, matrix.shape[1]))


def _render_e12(values, first: int, n_cols: int) -> bytes:
    """``'%.12e' % v`` plus its separator for each value of a flat run of a
    row-major matrix that starts at flat index ``first``: ``\\n`` after the
    last column, ``,`` after the others.

    The slot layout, and the proof of the error bound that decides which
    values take their slot from ``'%.12e'``, are in
    :func:`export_matrix_csv`.
    """
    separators = np.full(len(values), ord(","), dtype=np.uint8)
    separators[(n_cols - 1 - first) % n_cols::n_cols] = ord("\n")
    nonzero = np.flatnonzero(values)
    magnitude = values[nonzero]
    fits = not np.signbit(values).any() and np.all(
        (magnitude >= _MIN_SCALED) & (magnitude <= np.finfo(float).max))
    if fits:
        exponent = np.floor(np.log10(magnitude)).astype(np.int64)
        q = magnitude * _POW10[_POW10_ZERO + 12 - exponent]
        exponent += (q >= 1e13).astype(np.int64) - (q < 1e12)
        q = magnitude * _POW10[_POW10_ZERO + 12 - exponent]
        mantissa = np.rint(q)
        fallback = np.flatnonzero(np.abs(q - np.floor(q) - 0.5) < _HALF_WINDOW)
        carry = mantissa == 1e13  # 9.999999999999|5.. rounds up to 1.000000000000e(E+1)
        mantissa[carry] = 1e12
        exponent += carry
        exponent[fallback] = 0  # a fallback takes its exponent from its text
        texts = [b"%.12e" % v for v in magnitude[fallback].tolist()]
        fits = np.all(np.abs(exponent) < 100) and all(len(t) == 18 for t in texts)
    if not fits:
        return b"".join(b"%.12e%c" % pair for pair in zip(values.tolist(), separators.tolist()))

    # byte j of every nonzero field in row j: d.dddddddddddde±dd
    field = np.empty((18, len(nonzero)), dtype=np.uint8)
    digits(mantissa.astype(np.int64), field[1:14])
    field[0] = field[1]
    field[1] = ord(".")
    field[14] = ord("e")
    field[15] = np.where(exponent < 0, ord("-"), ord("+"))
    digits(np.abs(exponent), field[16:])
    if texts:
        field[:, fallback] = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, 18).T

    slots = np.empty((len(values), 19), dtype=np.uint8)
    if len(nonzero) == len(values):
        slots[:, :18] = field.T
    else:
        slots[:, :18] = _ZERO_E12
        slots[nonzero, :18] = field.T
    slots[:, 18] = separators
    return slots.tobytes()


def import_jsi_csv(csv_path, axis_units: str) -> JointSpectrum:
    """Read a measured joint spectral intensity matrix.

    Wavelength axes (nm) are accepted and converted; the intensity is
    resampled onto a uniform angular-frequency grid and the square root is
    taken in place, so the result is a real float64 amplitude (phases can
    then be restored with :func:`apply_fiber_phase`).  A malformed axis
    value or matrix cell raises DomainError naming the axis or matrix row
    and the 0-based index.

    Memory: the loaded and the resampled intensity (n x n floats each) are
    held together, so the import peaks near one n x n complex matrix.
    """
    if axis_units not in ("nm", "rad/s"):
        raise DomainError(f"unsupported axis units {axis_units!r}")
    with reading(csv_path), open(csv_path, encoding="utf-8") as fh:
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

    axis_s, axis_i = (_check_axis(name, values, axis_units)
                      for name, values in zip(("axis_s", "axis_i"), raw))
    uni_s, uni_i, resampled = _resample_uniform(axis_s, axis_i, intensity)
    del intensity
    np.sqrt(resampled, out=resampled)
    return JointSpectrum(amplitude=resampled, axis_s=uni_s, axis_i=uni_i, domain="spectral")


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
    with open(csv_path, encoding="utf-8") as fh:
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

    The result is written into one preallocated array, a block of about
    ``_EXPORT_CHUNK_VALUES`` cells (whole rows) at a time, so the
    temporaries of the expression are block-sized and the call holds no
    n x n array besides ``intensity`` and the result.
    """
    if axis_s[0] > axis_s[-1]:
        axis_s, intensity = axis_s[::-1], intensity[::-1, :]
    if axis_i[0] > axis_i[-1]:
        axis_i, intensity = axis_i[::-1], intensity[:, ::-1]
    uni_s = np.linspace(axis_s[0], axis_s[-1], len(axis_s))
    uni_i = np.linspace(axis_i[0], axis_i[-1], len(axis_i))
    (i, y0), (j, y1) = _cells(axis_s, uni_s), _cells(axis_i, uni_i)
    y1 = y1[None, :]
    resampled = np.empty((len(uni_s), len(uni_i)))
    rows = max(1, _EXPORT_CHUNK_VALUES // len(uni_i))
    for r in range(0, len(uni_s), rows):
        block = slice(r, r + rows)
        w = y0[block, None]
        lo, hi = intensity[i[block]], intensity[i[block] + 1]
        resampled[block] = (0.0 + lo[:, j] * (1 - w) * (1 - y1) + lo[:, j + 1] * (1 - w) * y1
                            + hi[:, j] * w * (1 - y1) + hi[:, j + 1] * w * y1)
    return uni_s, uni_i, resampled


def _cells(grid, x):
    """Index of the grid cell holding each x, and x's weight in that cell."""
    i = np.clip(np.searchsorted(grid, x, "right") - 1, 0, len(grid) - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])
