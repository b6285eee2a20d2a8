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

from dataclasses import dataclass

import math
import warnings
import numpy as np

from ._ascii import digit_work, digits
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
    makes it complex.  It holds the n x n matrix, except that the model JSA
    of :func:`build_jsa` is a :class:`BandSpectrum`, which holds its band's
    cells and makes the matrix when ``amplitude`` is read.

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


class BandSpectrum(JointSpectrum):
    """A real spectral-domain :class:`JointSpectrum` held as the cells of a
    band: ``values`` at the cells (``rows``, ``cols``), in row-major order;
    every other cell is 0.  ``amplitude`` makes the dense n x n matrix anew
    on each read, so :func:`to_temporal` and :func:`export_matrix_csv` read
    the cells themselves, and ``dataclasses.replace`` does not apply."""

    def __init__(self, rows, cols, values, axis_s, axis_i):
        for name, value in (("rows", rows), ("cols", cols), ("values", values),
                            ("axis_s", axis_s), ("axis_i", axis_i), ("domain", "spectral")):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @property
    def amplitude(self) -> np.ndarray:
        amp = np.zeros((len(self.axis_s), len(self.axis_i)), self.values.dtype)
        amp[self.rows, self.cols] = self.values
        return amp


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
    dk = delta_k(cfg, cfg.effective_temperature_C, omega_to_wavelength_nm(w_s + w_i),
                 omega_to_wavelength_nm(w_s))
    x = dk * (cfg.length_mm * MM) / 2.0
    return np.sinc(x / np.pi)


def build_jsa(cfg: CrystalConfig, env: PumpEnvelope, grid: GridSpec) -> BandSpectrum:
    """Normalized joint spectral amplitude alpha * phi on a square grid,
    real float64 values on the cells of a band.

    Only the band of anti-diagonals i + j that the pump envelope reaches is
    evaluated (:func:`_pump_band`), and only its cells whose envelope
    exceeds 1e-16 are kept; every other cell is 0.  Raises CoverageError
    when no cell of the band holds such an envelope, then when a
    non-negligible fraction of the squared mass sits in the outermost grid
    ring, i.e. the grid truncates the spectrum.  Before any array is made,
    raises MemoryError when numpy cannot index it, then DomainError when
    the crystal's effective temperature is outside the material window.
    The squared JSA is summed as an n x n float64 matrix, so the total and
    every value keep the bits of the dense build; that square is freed
    before the call returns, which leaves arrays of the band's size.
    """
    if int(grid.n) ** 2 > np.iinfo(np.intp).max:
        raise MemoryError(f"grid.n {grid.n} makes a {grid.n} x {grid.n} matrix, "
                          "larger than numpy can index")
    cfg.model.check_temperature(cfg.effective_temperature_C)  # before any n x n array
    axis = grid.omega_axis()
    rows, cols = _pump_band(env, axis)
    alpha = pump_envelope(env, axis[rows], axis[cols])
    # Only evaluate the dispersion model where the pump envelope is
    # non-negligible: far off the energy-conservation diagonal the
    # amplitude is zero anyway and the implied pump wavelength can leave
    # the Sellmeier validity window.
    mask = alpha > 1e-16
    if not np.any(mask):
        raise CoverageError("grid does not overlap the pump envelope")
    rows, cols = rows[mask], cols[mask]
    values = alpha[mask] * phase_matching_function(cfg, axis[rows], axis[cols])
    del alpha, mask

    intensity = np.zeros((len(axis), len(axis)))
    intensity[rows, cols] = values ** 2
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
    values /= np.sqrt(total * dw * dw)
    return BandSpectrum(rows, cols, values, axis.copy(), axis.copy())


def _pump_band(env: PumpEnvelope, axis: np.ndarray):
    """Row and column indices, in row-major order, of the cells of the
    square grid on ``axis`` that lie on the band of anti-diagonals
    k = i + j whose first cell (least i) has a pump envelope above 1e-24,
    widened by two anti-diagonals on each side; empty when there is none.

    Along one anti-diagonal w_s + w_i changes only by rounding, so a cell
    whose envelope exceeds 1e-16 lies in the band: the build keeps the
    cells of the full grid, in the same order.
    """
    n = len(axis)
    k = np.arange(2 * n - 1)
    first = np.maximum(k - (n - 1), 0)
    inside = np.flatnonzero(pump_envelope(env, axis[first], axis[k - first]) > 1e-24)
    lo, hi = (inside[0] - 2, inside[-1] + 2) if len(inside) else (0, -1)
    i = np.arange(n)
    start = np.maximum(lo - i, 0)
    counts = np.maximum(np.minimum(hi - i, n - 1) + 1 - start, 0)
    rows = np.repeat(i, counts)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - start, counts)
    return rows, cols


def _fiber_phases(js: JointSpectrum, beta_fs2: float, reference_omega: float):
    """The phase factors exp(i beta/2 (omega - reference_omega)^2) of the
    signal and the idler axis, beta_fs2 in fs^2."""
    beta = beta_fs2 * FS ** 2
    phase_s = np.exp(1j * beta / 2.0 * (js.axis_s - reference_omega) ** 2)
    phase_i = np.exp(1j * beta / 2.0 * (js.axis_i - reference_omega) ** 2)
    return phase_s, phase_i


def apply_fiber_phase(js: JointSpectrum, beta_fs2: float, reference_omega: float) -> JointSpectrum:
    """Multiply by the quadratic dispersion phase
    exp(i beta/2 (omega - reference_omega)^2) of each arm, beta_fs2 being
    the group delay dispersion in fs^2 that each photon sees outside the
    crystal; beta = 0 is free space and returns ``js`` itself.
    :func:`to_temporal` applies the same phase, value for value, while it
    copies its input.

    Pure phase: |output| == |input| pointwise, marginals unchanged.
    """
    if js.domain != "spectral":
        raise DomainError("fiber phase applies in the spectral domain only")
    if not np.isfinite(beta_fs2):
        raise DomainError("fiber dispersion must be finite")
    if beta_fs2 == 0.0:
        return js
    phase_s, phase_i = _fiber_phases(js, beta_fs2, reference_omega)
    amp = js.amplitude * phase_s[:, None]
    amp *= phase_i[None, :]
    return JointSpectrum(amp, js.axis_s, js.axis_i, js.domain)


def to_temporal(js: JointSpectrum, beta_fs2: float = 0.0,
                reference_omega: float = 0.0) -> JointSpectrum:
    """Centered 2D DFT of the JSA behind a fiber of group delay dispersion
    ``beta_fs2`` (fs^2 per photon, referred to ``reference_omega``; 0 is
    free space); returns the joint temporal amplitude,
    ``fftshift(fft2(ifftshift(a))) * scale`` value for value, where ``a``
    is ``apply_fiber_phase(js, beta_fs2, reference_omega).amplitude``.

    Time axes are derived from the frequency spacing; the phase origin of
    the transform is the sample at index n // 2 of each frequency axis.
    The input is left unchanged: the ``ifftshift`` of the input, times
    phase_s of each source row, is written into the one complex n x n
    buffer, and the buffer is then multiplied in place by the shifted
    phase_i, so each value is (input * phase_s) * phase_i as
    :func:`apply_fiber_phase` forms it.  A dense input is written as four
    block copies; a :class:`BandSpectrum` is scattered into the zeroed
    buffer, its cells' ``values * phase_s[rows]`` formed as one array.
    The transform, the scaling and the ``fftshift``
    (:func:`_fftshift_in_place`) also work in place (``fft2``'s ``out``
    needs numpy >= 2.0).  So the call holds that buffer, two rows, the
    phase vectors and arrays of a band's size besides its input.  A real
    amplitude is promoted to the matching complex type, as ``fft2`` would,
    or to complex128 by a phase.  Every refusal comes before the buffer
    exists.
    """
    if js.domain != "spectral":
        raise DomainError("to_temporal expects a spectral-domain spectrum")
    if not np.isfinite(beta_fs2):
        raise DomainError("fiber dispersion must be finite")
    if not js.axes_uniform():
        raise DomainError("FFT requires uniformly spaced axes")
    n_s, n_i = len(js.axis_s), len(js.axis_i)
    band = isinstance(js, BandSpectrum)
    source = js.values if band else js.amplitude
    dw_s, dw_i = js.step("s"), js.step("i")
    scale = dw_s * dw_i / TWO_PI  # unitary continuum normalization
    if beta_fs2 == 0.0:
        phase_s = phase_i = None
        dtype = np.result_type(source, 1j)
    else:
        phase_s, phase_i = _fiber_phases(js, beta_fs2, reference_omega)
        dtype = np.result_type(source, phase_s)
    if band:
        # the flat ifftshifted cells; a phase times a real value rounds once
        # per part, so the product over one long array has the bits of the
        # dense path's blocks
        cells = js.rows - n_s // 2
        cells %= n_s
        cells *= n_i
        cells += (js.cols - n_i // 2) % n_i
        if phase_s is not None:
            source = phase_s[js.rows]
            source *= js.values
        jta = np.zeros((n_s, n_i), dtype)
        jta.reshape(-1)[cells] = source
    else:
        jta = np.empty((n_s, n_i), dtype)
        for src_s, dst_s in _ifftshift_blocks(n_s):
            for src_i, dst_i in _ifftshift_blocks(n_i):
                if phase_s is None:
                    jta[dst_s, dst_i] = source[src_s, src_i]
                else:
                    np.multiply(source[src_s, src_i], phase_s[src_s, None], out=jta[dst_s, dst_i])
    if phase_i is not None:
        # whole rows: numpy rounds an in-place complex product over a run of
        # one value (a one-column block) differently from a longer run
        jta *= np.fft.ifftshift(phase_i)[None, :]
    np.fft.fft2(jta, out=jta)
    jta *= scale
    _fftshift_in_place(jta)
    t_s = np.fft.fftshift(np.fft.fftfreq(n_s, d=dw_s / TWO_PI))
    t_i = np.fft.fftshift(np.fft.fftfreq(n_i, d=dw_i / TWO_PI))
    return JointSpectrum(amplitude=jta, axis_s=t_s, axis_i=t_i, domain="temporal")


def _ifftshift_blocks(n: int):
    """(source, destination) slices of the two blocks that
    ``np.fft.ifftshift`` moves along an axis of length ``n``."""
    h = n // 2
    return (slice(h, n), slice(0, n - h)), (slice(0, h), slice(n - h, n))


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
    chunk at a time into one reused buffer; a :class:`BandSpectrum`'s
    chunk is zeroed and takes the squares of the band cells that lie in
    it.  So the export holds no n x n array besides ``js``, which it leaves
    unchanged.  A chunk of +0.0 and positive values of at least
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
    shape = (len(js.axis_s), len(js.axis_i))
    if isinstance(js, BandSpectrum):
        cells = js.rows * shape[1] + js.cols  # row-major, so increasing
        squares = np.square(js.values)  # the bits of np.abs(v) ** 2

        def intensity(lo, hi, out):
            first, last = np.searchsorted(cells, (lo, hi))
            out[:] = 0.0
            out[cells[first:last] - lo] = squares[first:last]
            return out
    else:
        flat = js.amplitude.reshape(-1)

        def intensity(lo, hi, out):  # np.abs(a) ** 2 into the reused buffer
            return np.square(np.abs(flat[lo:hi], out=out), out=out)

    with open(csv_path, "wb") as fh:
        fh.write(("# axis_s: " + " ".join(f"{v:.12e}" for v in js.axis_s) + "\n").encode())
        fh.write(("# axis_i: " + " ".join(f"{v:.12e}" for v in js.axis_i) + "\n").encode())
        _write_matrix(fh, shape, intensity)
    sidecar = {
        "domain": js.domain,
        "axis_units": units,
        "normalized": not measured,
        "measured": measured,
    }
    write_json(sidecar, sidecar_path)


# values per chunk of export_matrix_csv
_EXPORT_CHUNK_VALUES = 1 << 14

# cells per row block of _resample_uniform
_RESAMPLE_BLOCK_VALUES = 1 << 16

# fl(10**k) for k = -_POW10_ZERO .. 308, correctly rounded by float()
_POW10_ZERO = 307
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_ZERO, 309)])

# smallest |v| whose 10**(12 - E) is a normal float even when E is misjudged
_MIN_SCALED = 1e-290

# half-width of the window around .5 whose values fall back to '%.12e'
_HALF_WINDOW = 2.5e-3

# '%.12e' % 0.0, copied into every zero cell
_ZERO_E12 = np.frombuffer(b"0.000000000000e+00", dtype=np.uint8)


def _write_matrix(fh, shape, values) -> None:
    """Write ``np.savetxt(fh, m, delimiter=",", fmt="%.12e")`` of the real
    matrix ``m`` of ``shape`` to the binary ``fh``, one flat run of at most
    ``_EXPORT_CHUNK_VALUES`` cells at a time: ``values(lo, hi, out)``
    returns the cells lo:hi of ``m`` (``out`` is a buffer of that length),
    so no full-size matrix need exist.  The buffers are allocated once
    (:class:`_E12Scratch`) and reused for every run."""
    size = shape[0] * shape[1]
    scratch = _E12Scratch(min(size, _EXPORT_CHUNK_VALUES))
    for lo in range(0, size, _EXPORT_CHUNK_VALUES):
        hi = min(lo + _EXPORT_CHUNK_VALUES, size)
        fh.write(_render_e12(values(lo, hi, scratch.cells[:hi - lo]), lo, shape[1], scratch))


class _E12Scratch:
    """The arrays that :func:`_write_matrix` fills for a run of up to
    ``size`` values: ``cells`` for the run itself, the others by
    :func:`_render_e12`; the slot of value k is row k of ``slots``."""

    def __init__(self, size: int):
        self.cells = np.empty(size)
        self.nonzero = np.empty(size, dtype=bool)
        self.flag = np.empty(size, dtype=bool)
        self.magnitude = np.empty(size)
        self.q = np.empty(size)
        self.work = np.empty(size)
        self.exponent = np.empty(size, dtype=np.int64)
        self.index = np.empty(size, dtype=np.int64)
        self.digits = digit_work(size)
        self.field = np.empty((18, size), dtype=np.uint8)
        self.slots = np.empty((size, 19), dtype=np.uint8)


def _render_e12(values, first: int, n_cols: int, scratch: _E12Scratch):
    """``'%.12e' % v`` plus its separator for each value of a flat run of a
    row-major matrix that starts at flat index ``first``: ``\\n`` after the
    last column, ``,`` after the others.  Returns the text as bytes or as
    the rows of ``scratch.slots`` that hold it.

    The slot layout, and the proof of the error bound that decides which
    values take their slot from ``'%.12e'``, are in
    :func:`export_matrix_csv`.
    """
    slots = scratch.slots[:len(values)]
    separators = slots[:, 18]
    separators[...] = ord(",")
    separators[(n_cols - 1 - first) % n_cols::n_cols] = ord("\n")
    nonzero = np.not_equal(values, 0.0, out=scratch.nonzero[:len(values)])
    count = int(np.count_nonzero(nonzero))
    magnitude = (values if count == len(values)
                 else np.compress(nonzero, values, out=scratch.magnitude[:count]))
    fits = not np.signbit(values, out=scratch.flag[:len(values)]).any() and (
        count == 0 or (magnitude.min() >= _MIN_SCALED and magnitude.max() <= np.finfo(float).max))
    if fits and count:
        q, work, flag = scratch.q[:count], scratch.work[:count], scratch.flag[:count]
        exponent, index = scratch.exponent[:count], scratch.index[:count]
        np.copyto(exponent, np.floor(np.log10(magnitude, out=q), out=q), casting="unsafe")
        _scale(magnitude, exponent, index, work, q)
        exponent += np.greater_equal(q, 1e13, out=flag)
        exponent -= np.less(q, 1e12, out=flag)
        _scale(magnitude, exponent, index, work, q)
        np.subtract(q, np.floor(q, out=work), out=work)
        np.abs(np.subtract(work, 0.5, out=work), out=work)
        fallback = np.flatnonzero(np.less(work, _HALF_WINDOW, out=flag))
        mantissa = np.rint(q, out=q)
        carry = np.equal(mantissa, 1e13, out=flag)  # 9.999999999999|5.. rounds up to 1.000000000000e(E+1)
        np.copyto(mantissa, 1e12, where=carry)
        exponent += carry
        exponent[fallback] = 0  # a fallback takes its exponent from its text
        texts = [b"%.12e" % v for v in magnitude[fallback].tolist()]
        fits = -100 < exponent.min() and exponent.max() < 100 and all(len(t) == 18 for t in texts)
    if not fits:
        return b"".join(b"%.12e%c" % pair for pair in zip(values.tolist(), separators.tolist()))
    if count == 0:
        slots[:, :18] = _ZERO_E12
        return slots

    # byte j of every nonzero field in row j: d.dddddddddddde±dd
    field = scratch.field[:, :count]
    np.copyto(index, mantissa, casting="unsafe")
    digits(index, field[1:14], scratch.digits)
    field[0] = field[1]
    field[1] = ord(".")
    field[14] = ord("e")
    field[15] = ord("+")
    np.copyto(field[15], ord("-"), where=np.less(exponent, 0, out=flag))
    digits(np.abs(exponent, out=exponent), field[16:], scratch.digits)
    if texts:
        field[:, fallback] = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, 18).T

    if count == len(values):
        slots[:, :18] = field.T
    else:
        slots[:, :18] = _ZERO_E12
        slots[nonzero, :18] = field.T
    return slots


def _scale(magnitude, exponent, index, work, out) -> None:
    """``out = magnitude * _POW10[_POW10_ZERO + 12 - exponent]``, through
    the int64 ``index`` and the float ``work``; every exponent of a
    rendered value keeps the index inside ``_POW10``, so clipping it
    changes nothing and spares ``take`` its copy of ``work``."""
    np.subtract(_POW10_ZERO + 12, exponent, out=index)
    np.multiply(magnitude, np.take(_POW10, index, out=work, mode="clip"), out=out)


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
    ``_RESAMPLE_BLOCK_VALUES`` cells (whole rows) at a time, so the
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
    rows = max(1, _RESAMPLE_BLOCK_VALUES // len(uni_i))
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
