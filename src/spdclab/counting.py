"""Detection-chain model, Monte Carlo click-stream simulation and counting
estimators (singles, coincidences, accidental correction, heralded g2).

Model notes
-----------
* The fused fiber coupler's quoted insertion loss (3.7 dB -> 43% per output
  port) already contains the 50:50 split, so in the two-channel pair
  topology the photons of a surviving pair are routed to opposite channels
  deterministically and ``eta_insertion`` is applied per photon.  This
  makes the simulated coincidence efficiency equal the bookkeeping
  eta_coin = eta_coupling * eta_insertion^2 * eta_detector^2 by
  construction, which the closure tests rely on.
* Fiber coupling acts on the pair as a whole (the photons share one spatial
  mode), so ``eta_coupling`` is drawn once per pair.
* A coincidence means |t_a - t_b| <= window; the accidental rate of two
  independent streams is therefore 2 * R_a * R_b * window.
* Detector jitter is Gaussian, specified as FWHM.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from ._ascii import digits
from .errors import DomainError, EstimateUndefinedError

_GUARD_MAX_EXPECTED_CLICKS = 1e8

# rows rendered per write in TagStream.dump_csv
_DUMP_CHUNK_ROWS = 1 << 16

PAIR_CHANNELS = ("1", "2")
HERALDED_CHANNELS = ("h", "1", "2")


@dataclass(frozen=True)
class DetectionChain:
    """Efficiencies and timing of the detection apparatus."""

    eta_coupling: float = 0.9
    eta_insertion: float = 0.43
    eta_detector: float = 0.6
    dark_rate_hz: float = 0.0
    coincidence_window_ns: float = 1.0
    integration_time_ms: float = 100.0
    topology: str = "pair"  # "pair" (2 channels) | "heralded" (3 channels)
    jitter_fwhm_ns: float = 0.35

    def __post_init__(self):
        for name in ("eta_coupling", "eta_insertion", "eta_detector"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {value}")
        if not self.coincidence_window_ns > 0:
            raise DomainError("coincidence window must be positive")
        if not self.integration_time_ms > 0:
            raise DomainError("integration time must be positive")
        if self.topology not in ("pair", "heralded"):
            raise DomainError(f"unknown topology {self.topology!r}")
        if self.dark_rate_hz < 0 or self.jitter_fwhm_ns < 0:
            raise DomainError("dark rate and jitter must be nonnegative")

    @property
    def channels(self) -> tuple:
        return PAIR_CHANNELS if self.topology == "pair" else HERALDED_CHANNELS


@dataclass(frozen=True)
class SourceRates:
    """Pair generation rate of the source, linear in pump power."""

    pairs_per_s_per_uW: float
    pump_power_uW: float

    def __post_init__(self):
        if self.pairs_per_s_per_uW < 0 or self.pump_power_uW < 0:
            raise DomainError("source rates must be nonnegative")

    @property
    def pair_rate_hz(self) -> float:
        return self.pairs_per_s_per_uW * self.pump_power_uW


def chain_efficiencies(chain: DetectionChain):
    """(eta_singles, eta_coin) of the detection chain."""
    eta_singles = chain.eta_coupling * chain.eta_insertion * chain.eta_detector
    eta_coin = chain.eta_coupling * chain.eta_insertion ** 2 * chain.eta_detector ** 2
    return eta_singles, eta_coin


@dataclass(frozen=True)
class TagStream:
    """Per-channel sorted click timestamps (ns) within one integration
    window, plus the RNG seed that produced them."""

    channels: dict  # label -> np.ndarray of ns timestamps, strictly increasing
    integration_time_ms: float
    seed: int | None = None

    def __post_init__(self):
        limit = self.integration_time_ms * 1e6  # ns
        # the tests are negated so that NaN fails them
        for label, times in self.channels.items():
            if len(times) and not np.all(np.diff(times) > 0):
                raise DomainError(f"channel {label}: timestamps not strictly increasing")
            if len(times) and not (times[0] >= 0 and times[-1] < limit):
                raise DomainError(f"channel {label}: timestamps outside [0, window)")

    def dump_csv(self, path) -> None:
        """``channel,timestamp_ns`` rows, sorted by timestamp and then by
        label, written as ``csv.writer`` writes them (CRLF line ends, the
        csv module's quoting of the label) with the timestamp as ``%.6f``.

        The rows are rendered in chunks from integer digits: ``floor(t)``
        and ``t - floor(t)`` are exact, so ``rint((t - floor(t)) * 1e6)``
        is the correctly rounded fraction unless the product lies within
        1e-9 of a .5 boundary (its rounding error is below 6e-11).  Those
        rows take their digits from ``f"{t:.6f}"``: values such as
        0.4731885, whose product rounds across the boundary, and the exact
        half-even ties, which odd multiples of 1/128 ns are at t >= 2**31 ns.
        """
        labels = sorted(self.channels)
        times = np.concatenate(
            [np.asarray(self.channels[label], dtype=float) for label in labels] + [np.empty(0)])
        codes = np.repeat(np.arange(len(labels)), [len(self.channels[label]) for label in labels])
        # the stable sort keeps equal timestamps in label order
        order = np.argsort(times, kind="stable")
        times = times[order]
        # a prefix per (label, sign): "-0.0" passes validation and prints "-0.000000"
        codes = 2 * codes[order] + np.signbit(times)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["channel", "timestamp_ns"])
            prefixes = []
            for label in labels:
                line = io.StringIO()
                csv.writer(line).writerow([label, ""])
                prefix = line.getvalue()[:-len(writer.dialect.lineterminator)]
                prefixes += [prefix.encode(fh.encoding), (prefix + "-").encode(fh.encoding)]
            line_end = writer.dialect.lineterminator.encode(fh.encoding)
            width = max((len(p) for p in prefixes), default=0)
            prefix_bytes = np.zeros((len(prefixes), width), dtype=np.uint8)
            prefix_used = np.zeros((len(prefixes), width), dtype=bool)
            for k, p in enumerate(prefixes):
                prefix_bytes[k, :len(p)] = np.frombuffer(p, dtype=np.uint8)
                prefix_used[k, :len(p)] = True
            for lo in range(0, len(times), _DUMP_CHUNK_ROWS):
                rows = slice(lo, lo + _DUMP_CHUNK_ROWS)
                fh.write(_render_rows(times[rows], prefix_bytes[codes[rows]],
                                      prefix_used[codes[rows]], line_end).decode(fh.encoding))


def _render_rows(times, prefix_bytes, prefix_used, line_end: bytes) -> bytes:
    """One row per timestamp: its prefix (the used bytes of a row of
    ``prefix_bytes``), ``f"{abs(t):.6f}"`` and ``line_end``."""
    whole = np.floor(times)
    scaled = (times - whole) * 1e6
    frac = np.rint(scaled).astype(np.int64)
    whole = whole.astype(np.int64) + frac // 1_000_000  # a rounded-up 1.000000 carries
    for k in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-9):
        whole_text, frac_text = f"{abs(times[k]):.6f}".split(".")
        whole[k], frac[k] = int(whole_text), int(frac_text)

    n_whole = len(str(int(whole.max())))
    start = prefix_bytes.shape[1]
    point = start + n_whole
    out = np.empty((len(times), point + 7 + len(line_end)), dtype=np.uint8)
    used = np.ones(out.shape, dtype=bool)
    out[:, :start] = prefix_bytes
    used[:, :start] = prefix_used
    out[:, start:point] = digits(whole, n_whole)
    # no leading zeros before the units digit
    used[:, start:point - 1] = whole[:, None] >= 10 ** np.arange(n_whole - 1, 0, -1)
    out[:, point] = ord(".")
    out[:, point + 1:point + 7] = digits(frac, 6)
    out[:, point + 7:] = np.frombuffer(line_end, dtype=np.uint8)
    return out[used].tobytes()


def _jitter(rng, times_ns, chain: DetectionChain):
    if chain.jitter_fwhm_ns == 0:
        return times_ns
    sigma = chain.jitter_fwhm_ns / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    return times_ns + rng.normal(0.0, sigma, size=times_ns.shape)


def simulate_tags(src: SourceRates, chain: DetectionChain, seed: int) -> TagStream:
    """Forward-simulate one integration window of detector clicks.

    Pairs are a Poisson process; a pair couples into the fiber jointly with
    probability eta_coupling; routing and per-photon losses follow the
    chain topology; per-channel dark counts are added as independent
    Poisson processes.
    """
    window_ns = chain.integration_time_ms * 1e6
    window_s = chain.integration_time_ms * 1e-3
    rate = src.pair_rate_hz

    expected = 2 * rate * window_s + chain.dark_rate_hz * window_s * len(chain.channels)
    if expected >= _GUARD_MAX_EXPECTED_CLICKS:
        raise DomainError(
            f"expected {expected:.3g} clicks per window exceeds the "
            f"{_GUARD_MAX_EXPECTED_CLICKS:.0e} memory guard"
        )

    rng = np.random.default_rng(seed)
    n_pairs = rng.poisson(rate * window_s)
    pair_times = rng.uniform(0.0, window_ns, n_pairs)
    coupled = rng.random(n_pairs) < chain.eta_coupling

    clicks = {label: [] for label in chain.channels}

    if chain.topology == "pair":
        # anti-correlated routing; eta_insertion is the per-port coupler
        # transmission (split already included)
        survive = chain.eta_insertion * chain.eta_detector
        for label in PAIR_CHANNELS:
            detected = coupled & (rng.random(n_pairs) < survive)
            clicks[label].append(pair_times[detected])
    else:
        # two cascaded 50:50 couplers; per-passage excess transmission
        # eta_insertion, herald arm passes one coupler, arms 1/2 pass two
        for _ in range(2):  # the two photons of each pair, independently
            u = rng.random(n_pairs)
            to_herald = u < 0.5
            to_ch1 = (u >= 0.5) & (u < 0.75)
            to_ch2 = u >= 0.75
            s1 = chain.eta_insertion * chain.eta_detector
            s2 = chain.eta_insertion ** 2 * chain.eta_detector
            keep = rng.random(n_pairs)
            clicks["h"].append(pair_times[coupled & to_herald & (keep < s1)])
            clicks["1"].append(pair_times[coupled & to_ch1 & (keep < s2)])
            clicks["2"].append(pair_times[coupled & to_ch2 & (keep < s2)])

    channels = {}
    for label in chain.channels:
        photon = np.concatenate(clicks[label]) if clicks[label] else np.array([])
        photon = _jitter(rng, photon, chain)
        n_dark = rng.poisson(chain.dark_rate_hz * window_s)
        dark = rng.uniform(0.0, window_ns, n_dark)
        merged = np.concatenate([photon, dark])
        merged = merged[(merged >= 0.0) & (merged < window_ns)]
        channels[label] = np.unique(merged)
    return TagStream(channels=channels, integration_time_ms=chain.integration_time_ms, seed=seed)


def _clusters(streams, split):
    """Cut the merged timeline of the sorted, nonempty ``streams`` between
    adjacent clicks x <= y wherever ``split(x, y)`` holds.  Returns, per
    stream, the index of its first click in each cluster and its number of
    clicks in each cluster."""
    times = np.concatenate(streams)
    order = np.argsort(times, kind="stable")
    merged = times[order]
    last = np.flatnonzero(split(merged[:-1], merged[1:]))  # last click before each cut
    side = np.repeat(np.arange(len(streams), dtype=np.int8), [len(s) for s in streams])[order]
    firsts, counts = [], []
    for k, s in enumerate(streams):
        first = np.concatenate(([0], np.cumsum(side == k)[last]))
        firsts.append(first)
        counts.append(np.diff(first, append=len(s)))
    return firsts, counts


def _match_pairs_loop(a, b, window_ns: float) -> int:
    i = j = matches = 0
    while i < len(a) and j < len(b):
        dt = a[i] - b[j]
        if abs(dt) <= window_ns:
            matches += 1
            i += 1
            j += 1
        elif dt > window_ns:
            j += 1
        else:
            i += 1
    return matches


def match_coincidences(a: np.ndarray, b: np.ndarray, window_ns: float) -> int:
    """Greedy earliest-match two-pointer pairing; each click pairs with at
    most one partner.  A match requires |t_a - t_b| <= window.

    The count is computed per cluster of the merged timeline, cut wherever
    two adjacent merged clicks x < y have fl(y - x) > window (fl: the
    float64 result).  Rounding is monotone, so every a <= x and b >= y (or
    b <= x and a >= y) have fl(|a - b|) >= fl(y - x) > window: while the
    two pointers sit in different clusters the two-pointer walk matches
    nothing and advances the one in the earlier cluster.  Both pointers
    therefore enter each cluster at its first click on their side, and the
    walk inside it is the walk over that cluster's clicks alone; the count
    is the sum of the per-cluster counts.  A cluster with clicks from one
    stream only matches nothing.  A cluster of one a and one b is two
    adjacent clicks with fl(|a - b|) <= window, which always match.  Only
    the rest, clusters with two or more clicks on one side and at least one
    on the other, run the loop.
    """
    if np.any(np.diff(a) < 0) or np.any(np.diff(b) < 0):
        raise DomainError("coincidence matching requires sorted streams")
    if len(a) == 0 or len(b) == 0:
        return 0
    # written as "not <=" so that a NaN (sorted last) is cut off alone
    (fa, fb), (na, nb) = _clusters((a, b), lambda x, y: ~(y - x <= window_ns))
    matches = int(np.count_nonzero((na == 1) & (nb == 1)))
    for k in np.flatnonzero((na > 0) & (nb > 0) & (na + nb > 2)):
        matches += _match_pairs_loop(a[fa[k]:fa[k] + na[k]].tolist(),
                                     b[fb[k]:fb[k] + nb[k]].tolist(), window_ns)
    return matches


def _match_triples_loop(h, a, b, window_ns: float) -> int:
    i = j = matches = 0
    for t in h:
        while i < len(a) and a[i] < t - window_ns:
            i += 1
        while j < len(b) and b[j] < t - window_ns:
            j += 1
        if i < len(a) and j < len(b) and a[i] <= t + window_ns and b[j] <= t + window_ns:
            matches += 1
            i += 1
            j += 1
    return matches


def match_triples(h, a, b, window_ns: float) -> int:
    """Greedy triple coincidences: a herald click plus one click on each of
    the two transmission channels within the window.  For each herald t in
    order, the earliest unused a and b clicks not below fl(t - window) are
    taken if both are <= fl(t + window).

    The count is computed per cluster of the merged timeline of h, a and
    b, cut between adjacent merged clicks x < y wherever fl(y - window) > x
    and y > fl(x + window), the loop's own expressions.  Rounding is
    monotone, so a herald t >= y has fl(t - window) >= fl(y - window) > x:
    every a or b click <= x lies below it and is skipped.  A herald t <= x
    has fl(t + window) <= fl(x + window) < y, so no click >= y can match
    it, and fl(t - window) <= t < y, so none is skipped.  Hence the a and b
    pointers enter each cluster at its first click on their side, leave it
    only by the heralds of that cluster or later ones, and the loop inside
    it is the loop over that cluster's clicks alone; the count is the sum
    of the per-cluster counts.  A cluster without clicks on each of the
    three channels counts 0.  A cluster of exactly one h, one a and one b
    counts 1 iff a >= fl(h - window), a <= fl(h + window), and the same for
    b.  Only the rest run the loop.
    """
    if np.any(np.diff(h) < 0) or np.any(np.diff(a) < 0) or np.any(np.diff(b) < 0):
        raise DomainError("coincidence matching requires sorted streams")
    if len(h) == 0 or len(a) == 0 or len(b) == 0:
        return 0
    # written as "not <=" so that a NaN (sorted last) is cut off alone
    (fh, fa, fb), (nh, na, nb) = _clusters(
        (h, a, b), lambda x, y: ~((y - window_ns <= x) | (y <= x + window_ns)))
    single = (nh == 1) & (na == 1) & (nb == 1)
    t, u, v = h[fh[single]], a[fa[single]], b[fb[single]]
    lo, hi = t - window_ns, t + window_ns
    matches = int(np.count_nonzero((u >= lo) & (u <= hi) & (v >= lo) & (v <= hi)))
    for k in np.flatnonzero((nh > 0) & (na > 0) & (nb > 0) & ~single):
        matches += _match_triples_loop(h[fh[k]:fh[k] + nh[k]].tolist(),
                                       a[fa[k]:fa[k] + na[k]].tolist(),
                                       b[fb[k]:fb[k] + nb[k]].tolist(), window_ns)
    return matches


@dataclass(frozen=True)
class CountSummary:
    """Rates in counts/s with Poisson uncertainties sqrt(N)/T."""

    integration_time_ms: float
    coincidence_window_ns: float
    singles: dict            # label -> rate
    singles_err: dict
    coincidences: dict       # (label_a, label_b) -> rate
    coincidences_err: dict
    accidentals: dict        # (label_a, label_b) -> estimated rate
    triples: float | None = None
    triples_err: float | None = None
    triple_accidentals: float | None = None
    warnings: tuple = ()
    corrected: bool = False

    def __post_init__(self):
        if self.corrected:
            # dark/accidental subtraction can clamp singles independently of
            # coincidences, so the raw-count invariant no longer applies
            return
        for (la, lb), rate in self.coincidences.items():
            if rate > min(self.singles[la], self.singles[lb]) + 1e-9:
                raise DomainError(
                    f"coincidence rate {rate} exceeds contributing singles for ({la},{lb})"
                )

    def payload(self) -> dict:
        return {
            "integration_time_ms": self.integration_time_ms,
            "coincidence_window_ns": self.coincidence_window_ns,
            "singles_per_s": self.singles,
            "singles_err_per_s": self.singles_err,
            "coincidences_per_s": {f"{a}-{b}": v for (a, b), v in self.coincidences.items()},
            "coincidences_err_per_s": {f"{a}-{b}": v for (a, b), v in self.coincidences_err.items()},
            "accidentals_per_s": {f"{a}-{b}": v for (a, b), v in self.accidentals.items()},
            "triples_per_s": self.triples,
            "triples_err_per_s": self.triples_err,
            "triple_accidentals_per_s": self.triple_accidentals,
            "warnings": list(self.warnings),
            "corrected": self.corrected,
        }


def accidental_rate(rate_a: float, rate_b: float, window_ns: float) -> float:
    """Chance-coincidence rate of two independent streams for a matcher
    that accepts |dt| <= window."""
    return 2.0 * rate_a * rate_b * (window_ns * 1e-9)


def count_coincidences(tags: TagStream, window_ns: float) -> CountSummary:
    """Singles, pairwise coincidences (greedy earliest-match), accidental
    estimates, and triple coincidences for the 3-channel topology."""
    t_s = tags.integration_time_ms * 1e-3
    labels = sorted(tags.channels)
    singles = {}
    singles_err = {}
    for label in labels:
        n = len(tags.channels[label])
        singles[label] = n / t_s
        singles_err[label] = np.sqrt(n) / t_s

    coincidences = {}
    coincidences_err = {}
    accidentals = {}
    for x in range(len(labels)):
        for y in range(x + 1, len(labels)):
            la, lb = labels[x], labels[y]
            n = match_coincidences(tags.channels[la], tags.channels[lb], window_ns)
            coincidences[(la, lb)] = n / t_s
            coincidences_err[(la, lb)] = np.sqrt(n) / t_s
            accidentals[(la, lb)] = accidental_rate(singles[la], singles[lb], window_ns)

    triples = triples_err = triple_acc = None
    if set(labels) == set(HERALDED_CHANNELS):
        n3 = match_triples(tags.channels["h"], tags.channels["1"], tags.channels["2"], window_ns)
        triples = n3 / t_s
        triples_err = np.sqrt(n3) / t_s
        triple_acc = singles["h"] * singles["1"] * singles["2"] * (2.0 * window_ns * 1e-9) ** 2

    return CountSummary(
        integration_time_ms=tags.integration_time_ms,
        coincidence_window_ns=window_ns,
        singles=singles,
        singles_err=singles_err,
        coincidences=coincidences,
        coincidences_err=coincidences_err,
        accidentals=accidentals,
        triples=triples,
        triples_err=triples_err,
        triple_accidentals=triple_acc,
    )


def correct_rates(counts: CountSummary, dark_rates: dict | float) -> CountSummary:
    """Subtract dark counts from singles and accidental estimates from
    coincidences; uncertainties propagate in quadrature.  Negative
    corrected values clamp to zero and set a warning flag."""
    t_s = counts.integration_time_ms * 1e-3
    if not isinstance(dark_rates, dict):
        dark_rates = {label: float(dark_rates) for label in counts.singles}
    warnings = list(counts.warnings)

    singles = {}
    singles_err = {}
    for label, rate in counts.singles.items():
        dark = dark_rates.get(label, 0.0)
        if dark > rate:
            warnings.append(f"singles[{label}]: dark rate exceeds measured rate, clamped to 0")
        singles[label] = max(rate - dark, 0.0)
        singles_err[label] = np.sqrt(rate * t_s + dark * t_s) / t_s

    coincidences = {}
    coincidences_err = {}
    for key, rate in counts.coincidences.items():
        acc = counts.accidentals[key]
        value = rate - acc
        if value < 0:
            warnings.append(f"coincidences[{key}]: accidental estimate exceeds rate, clamped to 0")
            value = 0.0
        coincidences[key] = value
        coincidences_err[key] = np.sqrt(rate * t_s + acc * t_s) / t_s

    triples = counts.triples
    triples_err = counts.triples_err
    if triples is not None:
        value = triples - counts.triple_accidentals
        if value < 0:
            warnings.append("triples: accidental estimate exceeds rate, clamped to 0")
            value = 0.0
        triples = value
        triples_err = np.sqrt(counts.triples * t_s + counts.triple_accidentals * t_s) / t_s

    return replace(
        counts,
        singles=singles,
        singles_err=singles_err,
        coincidences=coincidences,
        coincidences_err=coincidences_err,
        triples=triples,
        triples_err=triples_err,
        warnings=tuple(warnings),
        corrected=True,
    )


def heralded_g2(counts: CountSummary):
    """Heralded second-order correlation
    g2(0) = R_h * R_h12 / (R_h1 * R_h2), with first-order Poisson error
    propagation.  Returns (g2, uncertainty)."""
    if counts.triples is None:
        raise EstimateUndefinedError("heralded g2 needs the 3-channel topology", counts)
    r_h = counts.singles["h"]
    r_h1 = counts.coincidences[("1", "h")]
    r_h2 = counts.coincidences[("2", "h")]
    r_h12 = counts.triples
    if r_h1 <= 0 or r_h2 <= 0 or r_h <= 0:
        raise EstimateUndefinedError(
            f"zero denominator in g2: R_h={r_h}, R_h1={r_h1}, R_h2={r_h2}", counts
        )
    g2 = r_h * r_h12 / (r_h1 * r_h2)
    rel_sq = 0.0
    for value, err in (
        (r_h, counts.singles_err["h"]),
        (r_h12, counts.triples_err),
        (r_h1, counts.coincidences_err[("1", "h")]),
        (r_h2, counts.coincidences_err[("2", "h")]),
    ):
        if value > 0:
            rel_sq += (err / value) ** 2
    return g2, g2 * float(np.sqrt(rel_sq))
