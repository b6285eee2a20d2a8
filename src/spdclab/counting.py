"""Detection-chain model, Monte Carlo click-stream simulation and counting
estimators (singles, coincidences, accidental correction, heralded g2).
The counters return the ``raw`` and ``corrected`` objects of
``count_summary.json`` as plain dicts, the pair of channels a < b keyed
``"a-b"`` as the file writes it.

Model notes
-----------
* ``ROUTES`` gives each photon of a pair its channels, with their shares
  and the coupler passages (transmission ``eta_insertion`` each) on the
  way.  The fused coupler of ``pair`` quotes an insertion loss (3.7 dB ->
  43% per output port) that already contains its 50:50 split, so the
  photons of a pair go to opposite channels.  This makes the simulated
  coincidence efficiency equal the bookkeeping eta_coin = eta_coupling *
  eta_insertion^2 * eta_detector^2 by construction, which the closure
  tests rely on (the efficiency oracle in ``tests/conftest.py``).
  ``heralded`` cascades two 50:50 couplers: the herald arm passes one.
* Fiber coupling acts on the pair as a whole (the photons share one spatial
  mode), so ``eta_coupling`` is drawn once per pair.
* A coincidence means |t_a - t_b| <= window; the accidental rate of two
  independent streams is therefore 2 * R_a * R_b * window.
* Detector jitter is Gaussian, specified as FWHM.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._ascii import digits
from .errors import CoverageError, DomainError, EstimateUndefinedError

# bound on the expected clicks of one window (_expected_clicks);
# simulate_tags holds its clicks, not its pairs: 8 B per click in the
# channel arrays, which it allocates before routing with about 12 sqrt(m)
# + 64 spare slots per region of m mean clicks, plus a block of draws per
# thread, and 1 B per click of one channel for its dedup mask; the tag dump
# and the matchers add one piece of the timeline each
_GUARD_MAX_EXPECTED_CLICKS = 1e8
# bound on the expected pairs of one window: simulate_tags draws and routes
# every pair (about 21 ns each on two threads of a 2-core Xeon, heralded),
# so this caps its run time
_GUARD_MAX_EXPECTED_PAIRS = 1e10

# clicks per stream between the cut times of the merged timeline's pieces
# (_timeline), which the tag dump and the matchers hold one at a time, and
# neighbours per slice of the matchers' sortedness check
_PIECE_CLICKS = 1 << 14

# pairs drawn and routed per block in simulate_tags
_PAIR_BLOCK = 1 << 16
# most jitter values that simulate_tags draws at a time (2 MB of doubles),
# which caps its memory above the channel arrays
_JITTER_CHUNK = 1 << 18

PAIR_CHANNELS = ("1", "2")
HERALDED_CHANNELS = ("h", "1", "2")

# per topology and photon of a pair: its routes (channel, share, coupler passages)
ROUTES = {
    "pair": ((("1", 1.0, 1),), (("2", 1.0, 1),)),
    "heralded": ((("h", 0.5, 1), ("1", 0.25, 2), ("2", 0.25, 2)),) * 2,
}
# per-pair random arrays: times, coupling, per photon a routing (if several routes) and a loss draw
_DRAWS = {topology: 2 + sum(1 + (len(routes) > 1) for routes in photons)
          for topology, photons in ROUTES.items()}


@dataclass(frozen=True)
class DetectionChain:
    """Efficiencies and timing of the detection apparatus."""

    eta_coupling: float = 0.9
    eta_insertion: float = 0.43
    eta_detector: float = 0.6
    dark_rate_hz: float = 0.0
    coincidence_window_ns: float = 1.0
    integration_time_ms: float = 100.0
    topology: str = "pair"  # a key of ROUTES
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
        if not self.coincidence_window_ns < self.integration_time_ms * 1e6:
            raise DomainError(f"coincidence window {self.coincidence_window_ns} ns is not shorter "
                              f"than the integration time {self.integration_time_ms} ms")
        if self.topology not in ROUTES:
            raise DomainError(f"unknown topology {self.topology!r}")
        if not (self.dark_rate_hz >= 0 and self.jitter_fwhm_ns >= 0):  # NaN fails
            raise DomainError("dark rate and jitter must be nonnegative")
        if not (self.jitter_fwhm_ns < np.inf and self.integration_time_ms < np.inf):
            raise DomainError("jitter and integration time must be finite")

    @property
    def channels(self) -> tuple:
        return tuple(dict.fromkeys(r[0] for routes in ROUTES[self.topology] for r in routes))


@dataclass(frozen=True)
class SourceRates:
    """Pair generation rate of the source, linear in pump power."""

    pairs_per_s_per_uW: float
    pump_power_uW: float

    def __post_init__(self):
        if not (self.pairs_per_s_per_uW >= 0 and self.pump_power_uW >= 0):  # NaN fails
            raise DomainError("source rates must be nonnegative")
        if max(self.pairs_per_s_per_uW, self.pump_power_uW) == np.inf:
            raise DomainError("source rates must be finite")

    @property
    def pair_rate_hz(self) -> float:
        return self.pairs_per_s_per_uW * self.pump_power_uW


@dataclass(frozen=True)
class TagStream:
    """Per-channel sorted click timestamps (ns) within one integration
    window, on the chain's channels (``HERALDED_CHANNELS``), none ``-0.0``."""

    channels: dict  # label -> np.ndarray of ns timestamps, strictly increasing
    integration_time_ms: float

    def __post_init__(self):
        limit = self.integration_time_ms * 1e6  # ns
        # the tests are negated so that NaN fails them
        for label, times in self.channels.items():
            if label not in HERALDED_CHANNELS:
                raise DomainError(f"channel {label!r}: not one of {HERALDED_CHANNELS}")
            if len(times) and not np.all(times[1:] > times[:-1]):
                raise DomainError(f"channel {label}: timestamps not strictly increasing")
            if len(times) and not (times[0] >= 0 and times[-1] < limit):
                raise DomainError(f"channel {label}: timestamps outside [0, window)")
            if len(times) and np.signbit(times[0]):
                raise DomainError(f"channel {label}: first timestamp is -0.0")

    def dump_csv(self, path) -> None:
        """``channel,timestamp_ns`` rows, sorted by timestamp and then by
        label (:func:`_merge`), as ``csv.writer`` writes them (CRLF line
        ends) with the timestamp as ``%.6f``, in ASCII.

        The rows are written one piece of the merged timeline at a time
        (:func:`_timeline`), each rendered from integers (:func:`_render_rows`).
        ``floor(t)`` and ``t - floor(t)`` are exact, so
        ``rint((t - floor(t)) * 1e6)`` is the correctly rounded fraction
        unless the product lies within 1e-9 of a .5 boundary (its rounding
        error is below 6e-11).  Those rows take their digits from
        ``f"{t:.6f}"``: values such as 0.4731885, whose product rounds
        across the boundary, and the exact half-even ties, which odd
        multiples of 1/128 ns are at t >= 2**31 ns.  Correct rounding keeps
        the sorted order, so the whole nanoseconds never decrease: a piece
        splits into runs of equal digit count, each rendered in fixed-width
        slots.
        """
        labels = sorted(self.channels)
        label_bytes = np.array([ord(label) for label in labels], dtype=np.uint8)
        with open(path, "wb") as fh:
            fh.write(b"channel,timestamp_ns\r\n")
            for times, codes in _timeline([np.asarray(self.channels[label], dtype=float)
                                           for label in labels]):
                fh.write(_render_rows(times, label_bytes[codes]))


# 10**k for k = 1 .. 18: the least whole number of k + 1 digits
_DIGIT_BOUNDS = 10 ** np.arange(1, 19, dtype=np.int64)


def _render_rows(times, labels) -> bytes:
    """One row per timestamp of the sorted ``times``, none of them
    ``-0.0``: its label byte (``labels[k]``), ``,``, ``f"{t:.6f}"`` and
    CRLF.  The rounding error window is proved in
    :meth:`TagStream.dump_csv`."""
    whole = np.floor(times)
    scaled = (times - whole) * 1e6
    frac = np.rint(scaled).astype(np.int64)
    whole = whole.astype(np.int64) + frac // 1_000_000  # a rounded-up 1.000000 carries
    for k in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-9):
        whole_text, frac_text = f"{times[k]:.6f}".split(".")
        whole[k], frac[k] = int(whole_text), int(frac_text)

    n_max = len(str(int(whole.max())))
    point = 2 + n_max
    # byte j of every row in row j, laid out for the widest whole part: the
    # rows of n digits start at row n_max - n, their label and "," just
    # before their digits, in place of the leading zeros they do not print
    slots = np.empty((point + 9, len(times)), dtype=np.uint8)
    digits(whole, slots[2:point])
    slots[point] = ord(".")
    digits(frac, slots[point + 1:point + 7])
    slots[point + 7:] = np.frombuffer(b"\r\n", dtype=np.uint8)[:, None]
    # whole never decreases: rows bounds[n - 1]:bounds[n] have n digits
    bounds = [0, *np.searchsorted(whole, _DIGIT_BOUNDS[:n_max - 1]), len(times)]
    parts = []
    for n_whole, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), start=1):
        run = slots[n_max - n_whole:, lo:hi]
        run[0] = labels[lo:hi]
        run[1] = ord(",")
        parts.append(run.T.tobytes())
    return b"".join(parts)


def _streams(state: dict, draws: int, n_pairs: int, first: int):
    """Yields ``draws`` generators from the PCG64 ``state``, the k-th at
    pair ``first`` of the k-th of ``draws`` consecutive ``n_pairs``-double
    arrays drawn from that state.  ``uniform`` and ``random`` take one
    64-bit PCG64 output per value, so that pair is ``k * n_pairs + first``
    outputs on."""
    for k in range(draws):
        bit_generator = np.random.PCG64()
        bit_generator.state = state
        yield np.random.Generator(bit_generator.advance(k * n_pairs + first))


def _pair_runs(n_pairs: int) -> list:
    """The runs ``(first, stop)`` of pairs that :func:`simulate_tags` routes:
    its ``_PAIR_BLOCK`` blocks halved into two contiguous runs, the first
    (the larger if the count is odd) for the caller's thread and the second
    for one worker.  A stream of one block is one run."""
    n_blocks = -(-n_pairs // _PAIR_BLOCK)
    if n_blocks < 2:
        return [(0, n_pairs)]
    split = (n_blocks + 1) // 2 * _PAIR_BLOCK
    return [(0, split), (split, n_pairs)]


def _route_pairs(chain: DetectionChain, state: dict, n_pairs: int, first: int, stop: int,
                 regions: dict) -> dict:
    """Route pairs ``first`` to ``stop`` of the ``n_pairs`` drawn from the
    PCG64 ``state`` into ``regions``: per (channel, photon) a view of its
    region in the channel's array, filled from its start in pair order,
    one block of ``_PAIR_BLOCK`` pairs at a time.  Returns per (channel,
    photon) the filled part of its region; a block that would run past its
    region is refused."""
    window_ns = chain.integration_time_ms * 1e6
    streams = _streams(state, _DRAWS[chain.topology], n_pairs, first)
    times, coupling = next(streams), next(streams)
    # per photon: channels, routing (or None) and loss generators, route starts in u, survivals
    photons = [(labels, next(streams) if len(labels) > 1 else None, next(streams),
                np.cumsum(shares)[:-1], survival)
               for labels, shares, survival in _photon_routes(chain)]
    filled = dict.fromkeys(regions, 0)
    # one block's draws of one per-pair array at a time: the pair times are
    # drawn last, once the pairs that click are known (each array has a
    # generator of its own, so the order of the arrays does not matter)
    buffer = np.empty(min(_PAIR_BLOCK, stop - first))

    for start in range(first, stop, _PAIR_BLOCK):
        draws = buffer[:min(_PAIR_BLOCK, stop - start)]
        coupled = coupling.random(out=draws) < chain.eta_coupling
        clicks = {}  # per (channel, photon): the block's pairs that click there
        for photon, (labels, router, loss, starts, survival) in enumerate(photons):
            keep = loss.random(out=draws)
            # the photons that survive on some route, in increasing pair index
            alive = np.flatnonzero(coupled & (keep < max(survival)))
            if router is None:  # a photon of one route clicks wherever it survives
                clicks[labels[0], photon] = alive
                continue
            keep = keep[alive]  # a copy, before the routing draws overwrite draws
            u = router.random(out=draws)[alive]
            route = np.zeros(len(alive), dtype=np.uint8)  # route k: the u at or above k starts
            for start in starts:
                route += u >= start
            for k, (label, s) in enumerate(zip(labels, survival)):
                clicks[label, photon] = alive[(route == k) & (keep < s)]
        pair_times = times.random(out=draws)
        pair_times *= window_ns  # as uniform(0.0, window_ns) computes it: 0.0 + window_ns * u
        for key, index in clicks.items():
            start, region = filled[key], regions[key]
            if start + len(index) > len(region):
                raise CoverageError(f"channel {key[0]}: more clicks than the "
                                    f"{len(region)} slots sized for them")
            np.take(pair_times, index, out=region[start:start + len(index)], mode="clip")
            filled[key] += len(index)
    return {key: region[:filled[key]] for key, region in regions.items()}


class Worker(threading.Thread):
    """``fn(*args)`` on a thread of its own, started at once: ``result()``
    joins the thread and returns what ``fn`` returned or raises what it
    raised."""

    def __init__(self, fn, *args):
        super().__init__()
        self._call = fn, args
        self._outcome = None, None
        self.start()

    def run(self):
        fn, args = self._call
        try:
            self._outcome = fn(*args), None
        except BaseException as exc:  # re-raised by result() on the caller's thread
            self._outcome = None, exc

    def result(self):
        self.join()
        value, error = self._outcome
        if error is not None:
            raise error
        return value


def _photon_routes(chain: DetectionChain):
    """Per photon of a pair, its ``ROUTES`` as its channels, their shares
    and the probability that the photon, routed to each, clicks."""
    for routes in ROUTES[chain.topology]:
        labels, shares, passages = zip(*routes)
        yield labels, shares, [chain.eta_insertion ** n * chain.eta_detector for n in passages]


def _click_probabilities(chain: DetectionChain) -> dict:
    """Per (channel, photon) that can click there, the probability that
    this photon of a pair does: the pair couples (``eta_coupling``), the
    photon takes that route and survives it (:func:`_photon_routes`)."""
    return {(label, photon): chain.eta_coupling * (share * survival)
            for photon, routes in enumerate(_photon_routes(chain))
            for label, share, survival in zip(*routes)}


def _expected_clicks(src: SourceRates, chain: DetectionChain) -> float:
    """Mean photon plus dark clicks of one window, before jitter moves a
    click out of it and before equal timestamps merge: the pairs times the
    click probabilities of their photons (:func:`_click_probabilities`),
    plus every channel's dark counts."""
    window_s = chain.integration_time_ms * 1e-3
    return (src.pair_rate_hz * window_s * sum(_click_probabilities(chain).values())
            + chain.dark_rate_hz * window_s * len(chain.channels))


def _capacity(mean: float) -> int:
    """Slots for a binomial or Poisson count of this ``mean``: by a
    Chernoff bound it exceeds mean + 12 sqrt(mean) + 64 with a chance
    below 1e-30."""
    return int(mean + 12.0 * np.sqrt(mean) + 64)


def simulate_tags(src: SourceRates, chain: DetectionChain, seed: int) -> TagStream:
    """Forward-simulate one integration window of detector clicks.

    Pairs are a Poisson process; a pair couples into the fiber jointly with
    probability eta_coupling; routing and per-photon losses follow the
    chain topology; per-channel dark counts are added as independent
    Poisson processes.

    The seed fixes the output through one draw order from
    ``default_rng(seed)``: the pair count n (Poisson), n pair times, n
    coupling draws, then for the first photon and for the second n routing
    draws ``u`` (only for a photon of several ``ROUTES``) and n loss draws
    ``keep``; then, channel by channel, the jitter of its photon clicks in
    pair order (first photon, then second), its dark count and its dark
    times.  The pairs are drawn and routed in blocks of ``_PAIR_BLOCK``,
    each block reading its slice of every per-pair array from a generator
    advanced to that array's start, so memory follows the clicks plus a
    block per thread, not the pairs.  The blocks are halved into two
    contiguous runs (:func:`_pair_runs`): the caller's thread routes the
    first and one worker thread the second, each from its own generators
    advanced to its first pair.

    Each click is held once.  Before routing, every channel gets one array
    of +inf with a region per (photon, run), sized by :func:`_capacity` for
    that region's mean clicks, and a region for its darks; each run writes
    its clicks straight into its regions and hands back their filled
    starts.  Read region by region, the photon clicks come in the order of
    the full-length arrays (per photon, the runs in turn), so the arrays do
    not depend on the split.  The jitter is added in place, region by
    region, drawn in chunks of at most ``_JITTER_CHUNK`` values (``normal``
    draws its values in sequence, so the chunks change no value).  The
    slots left unfilled keep their +inf, which the window cut after the
    sort drops.  Equal timestamps (zero jitter) are merged by one copy;
    without them the sorted array is kept as it is.  A region too small
    for its clicks is refused (``CoverageError``).
    """
    window_ns = chain.integration_time_ms * 1e6
    window_s = chain.integration_time_ms * 1e-3
    mean_pairs = src.pair_rate_hz * window_s

    expected = _expected_clicks(src, chain)
    if expected >= _GUARD_MAX_EXPECTED_CLICKS:
        raise DomainError(f"expected {expected:.3g} clicks per window exceeds the "
                          f"{_GUARD_MAX_EXPECTED_CLICKS:.0e} memory guard")
    if mean_pairs >= _GUARD_MAX_EXPECTED_PAIRS:
        raise DomainError(f"expected {mean_pairs:.3g} pairs per window exceeds the "
                          f"{_GUARD_MAX_EXPECTED_PAIRS:.0e} run-time guard")

    rng = np.random.default_rng(seed)
    n_pairs = int(rng.poisson(mean_pairs))
    state = rng.bit_generator.state
    rng.bit_generator.advance(_DRAWS[chain.topology] * n_pairs)  # past the per-pair arrays
    runs = _pair_runs(n_pairs)

    # per channel one array: the regions of its (photon, run) in that order,
    # then dark_slots for its darks
    probability = _click_probabilities(chain)
    dark_slots = _capacity(chain.dark_rate_hz * window_s)
    regions = [{} for _ in runs]  # per run: (channel, photon) -> its region
    slots = {}
    for label in chain.channels:
        sizes = {(key, run): _capacity((stop - first) * p)
                 for key, p in probability.items() if key[0] == label
                 for run, (first, stop) in enumerate(runs)}
        slots[label] = np.full(sum(sizes.values()) + dark_slots, np.inf)
        end = 0
        for (key, run), size in sizes.items():
            regions[run][key] = slots[label][end:end + size]
            end += size

    workers = [Worker(_route_pairs, chain, state, n_pairs, *run, owned)
               for run, owned in zip(runs[1:], regions[1:])]
    try:
        routed = [_route_pairs(chain, state, n_pairs, *runs[0], regions[0])]
    finally:  # the worker is joined also when this thread's run fails
        later = [worker.result() for worker in workers]
    routed += later
    # only the routed views, popped channel by channel below, now hold the
    # channel arrays, so an array that the merge copies is freed
    del regions, workers

    sigma = chain.jitter_fwhm_ns / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    channels = {}
    for label in chain.channels:
        merged = slots.pop(label)
        # the channel's photon clicks in the order of the full-length
        # arrays: per photon, each run's filled region
        parts = [filled.pop(key) for key in probability if key[0] == label for filled in routed]
        if chain.jitter_fwhm_ns != 0:
            for part in parts:
                for lo in range(0, len(part), _JITTER_CHUNK):
                    chunk = part[lo:lo + _JITTER_CHUNK]
                    chunk += rng.normal(0.0, sigma, size=len(chunk))
        n_dark = int(rng.poisson(chain.dark_rate_hz * window_s))
        if n_dark > dark_slots:
            raise CoverageError(f"channel {label}: more dark counts than the "
                                f"{dark_slots} slots sized for them")
        dark = rng.random(out=merged[len(merged) - dark_slots:][:n_dark])
        dark *= window_ns  # as uniform(0.0, window_ns) computes it
        merged.sort()
        merged = merged[np.searchsorted(merged, 0.0):np.searchsorted(merged, window_ns)]
        keep = np.empty(len(merged), dtype=bool)  # the first of each run of equal times
        keep[:1] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        channels[label] = merged if keep.all() else merged[keep]
    return TagStream(channels=channels, integration_time_ms=chain.integration_time_ms)


def _merge(streams):
    """The sorted ``streams`` as one timeline ``(times, codes)``: sorted by
    timestamp, then by stream (a NaN last); codes index the streams."""
    times = np.concatenate(streams) if len(streams) else np.empty(0)
    order = np.argsort(times, kind="stable")
    codes = np.repeat(np.arange(len(streams), dtype=np.min_scalar_type(len(streams))),
                      [len(s) for s in streams])
    return times[order], codes[order]


def _timeline(streams, joined=None):
    """The timeline of the sorted ``streams`` (:func:`_merge`) as pieces
    ``(times, codes)``, in order.

    The pieces start at the distinct stream values at stride
    ``_PIECE_CLICKS`` (sorted and deduplicated by hand: ``np.unique``
    imports ``numpy.ma``), each stream sliced there with ``searchsorted``
    (side left): equal timestamps share a piece, so the pieces, each merged
    on its own, run in the timeline's (time, stream) order and hold at most
    ``_PIECE_CLICKS`` clicks per stream bar runs of equal timestamps and a
    NaN tail.  With ``joined`` a piece starts only where a cluster starts:
    a start value c stays only if ``joined(x, c)`` is false for the latest
    click x below c in any stream, so each cluster lies whole in one piece
    and a piece runs on past each start that falls inside a cluster.
    """
    cuts = np.sort(np.concatenate([np.empty(0), *(s[::_PIECE_CLICKS] for s in streams)]))
    cuts = np.concatenate((cuts[:1], cuts[1:][cuts[1:] > cuts[:-1]]))  # NaNs join the last piece
    if joined is not None:
        x = np.full(cuts[1:].shape, -np.inf)  # the latest click below each later start
        for s in streams:
            if len(s):
                b = np.searchsorted(s, cuts[1:])
                np.maximum(x, s[b - 1], out=x, where=b > 0)
        cuts = np.concatenate((cuts[:1], cuts[1:][~joined(x, cuts[1:])]))
    bounds = [np.concatenate(([0], np.searchsorted(s, cuts[1:]), [len(s)])) for s in streams]
    for k in range(len(cuts)):
        yield _merge([s[b[k]:b[k + 1]] for s, b in zip(streams, bounds)])


def _in_sort_order(s) -> bool:
    """Whether no value of ``s`` lies above the next one and no NaN comes
    before a number, checked ``_PIECE_CLICKS`` neighbours at a time."""
    for lo in range(0, len(s) - 1, _PIECE_CLICKS):
        hi = min(lo + _PIECE_CLICKS, len(s) - 1)
        if not (np.isnan(s[lo + 1:hi + 1]) | (s[lo:hi] <= s[lo + 1:hi + 1])).all():
            return False
    return True


def _clusters(streams, joined):
    """The clusters of the merged timeline of ``streams``, cut between
    adjacent clicks x <= y unless ``joined(x, y)``: per piece of the
    timeline (:func:`_timeline`), its stream codes, a mask true at the
    first click of each cluster of exactly two, and per larger cluster its
    clicks as one list per stream.  A piece starts only where a cluster
    starts, so a sum over the clusters of the pieces is the sum over the
    clusters of the timeline.  A stream out of ``np.sort``'s order (a value
    above the next one, or a NaN followed by a number) is refused first.
    """
    streams = [np.asarray(s) for s in streams]
    if not all(_in_sort_order(s) for s in streams):
        raise DomainError("coincidence matching requires sorted streams")
    for times, codes in _timeline(streams, joined):
        # linked[k]: clicks k - 1 and k share a cluster
        linked = np.concatenate(([False], joined(times[:-1], times[1:]), [False]))
        pair, opens, closes = linked[1:-1], ~linked[:-2], ~linked[2:]
        larger = zip(np.flatnonzero(pair & opens & ~closes).tolist(),
                     (np.flatnonzero(pair & ~opens & closes) + 2).tolist())
        yield codes, pair & opens & closes, [
            [times[lo:hi][codes[lo:hi] == k].tolist() for k in range(len(streams))]
            for lo, hi in larger]


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

    The count is the sum over the clusters of the merged timeline of a and
    b (:func:`_clusters`), cut between adjacent clicks x <= y unless
    fl(y - x) <= window (fl: the float64 result; a NaN, sorted last, is cut
    off alone).  Rounding is monotone, so every a <= x and b >= y (or
    b <= x and a >= y) have fl(|a - b|) >= fl(y - x) > window: while the
    two pointers sit in different clusters the walk matches nothing and
    advances the one in the earlier cluster, so inside each cluster it is
    the walk over that cluster's clicks alone.  One click matches nothing
    and two count 1 iff they come from different streams; only clusters of
    three or more run the loop.  A stream out of ``np.sort``'s order is
    refused.
    """
    def joined(x, y):
        return y - x <= window_ns

    matches = 0
    for codes, two, larger in _clusters([a, b], joined):
        matches += int(np.count_nonzero(two & (codes[:-1] != codes[1:])))
        matches += sum(_match_pairs_loop(*clicks, window_ns) for clicks in larger)
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

    The count is the sum over the clusters of the merged timeline of h, a
    and b (:func:`_clusters`), cut between adjacent clicks x <= y unless
    fl(y - window) <= x or y <= fl(x + window), the loop's own expressions
    (a NaN is cut off alone).  Rounding is monotone, so a herald t >= y has
    fl(t - window) >= fl(y - window) > x and skips every a or b click
    <= x; a herald t <= x has fl(t + window) <= fl(x + window) < y and
    fl(t - window) <= t < y, so it neither matches nor skips a click >= y.
    The a and b pointers thus enter each cluster at its first click on
    their side and leave it only by its own or later heralds.  Fewer than
    three clicks lack a channel, so only clusters of three or more run the
    loop.  A stream out of ``np.sort``'s order is refused.
    """
    def joined(x, y):
        return (y - window_ns <= x) | (y <= x + window_ns)

    return sum(_match_triples_loop(*clicks, window_ns)
               for _, _, larger in _clusters([h, a, b], joined) for clicks in larger)


def accidental_rate(rate_a: float, rate_b: float, window_ns: float) -> float:
    """Chance-coincidence rate of two independent streams for a matcher
    that accepts |dt| <= window."""
    return 2.0 * rate_a * rate_b * (window_ns * 1e-9)


def count_coincidences(tags: TagStream, window_ns: float) -> dict:
    """Singles, pairwise coincidences (greedy earliest-match), accidental
    estimates, and triple coincidences for the 3-channel topology, in
    counts/s with Poisson uncertainties sqrt(N)/T: the ``raw`` object of
    ``count_summary.json``.  The pair of channels a < b is keyed ``"a-b"``;
    the triple rates are None outside the heralded topology."""
    t_s = tags.integration_time_ms * 1e-3
    channels = tags.channels
    labels = sorted(channels)
    pairs = list(combinations(labels, 2))
    clicks = {label: len(channels[label]) for label in labels}
    matched = {f"{a}-{b}": match_coincidences(channels[a], channels[b], window_ns)
               for a, b in pairs}
    singles = {label: n / t_s for label, n in clicks.items()}
    counts = {
        "integration_time_ms": tags.integration_time_ms,
        "coincidence_window_ns": window_ns,
        "singles_per_s": singles,
        "singles_err_per_s": {label: np.sqrt(n) / t_s for label, n in clicks.items()},
        "coincidences_per_s": {key: n / t_s for key, n in matched.items()},
        "coincidences_err_per_s": {key: np.sqrt(n) / t_s for key, n in matched.items()},
        "accidentals_per_s": {f"{a}-{b}": accidental_rate(singles[a], singles[b], window_ns)
                              for a, b in pairs},
        "triples_per_s": None,
        "triples_err_per_s": None,
        "triple_accidentals_per_s": None,
        "warnings": [],
        "corrected": False,
    }
    if set(channels) == set(HERALDED_CHANNELS):
        n3 = match_triples(channels["h"], channels["1"], channels["2"], window_ns)
        counts["triples_per_s"] = n3 / t_s
        counts["triples_err_per_s"] = np.sqrt(n3) / t_s
        span_s = 2.0 * window_ns * 1e-9
        counts["triple_accidentals_per_s"] = (singles["h"] * singles["1"] * singles["2"]
                                              * (span_s * span_s))
    return counts


def correct_rates(counts: dict, dark_rate_hz: float) -> dict:
    """Subtract the dark rate from every singles rate and accidental
    estimates from coincidences; uncertainties propagate in quadrature.
    Negative corrected values clamp to zero and set a warning flag.
    Returns a new dict of the shape of ``count_coincidences``; ``counts``
    is left as it was."""
    t_s = counts["integration_time_ms"] * 1e-3
    out = {**counts, "warnings": list(counts["warnings"]), "corrected": True}

    def subtract(name, rate, background, excess):
        value = rate - background
        if value < 0:
            out["warnings"].append(f"{name}: {excess}, clamped to 0")
            value = 0.0
        return value, np.sqrt(rate * t_s + background * t_s) / t_s

    darks = dict.fromkeys(counts["singles_per_s"], dark_rate_hz)
    for kind, backgrounds, excess in (
            ("singles", darks, "dark rate exceeds measured rate"),
            ("coincidences", counts["accidentals_per_s"], "accidental estimate exceeds rate")):
        rates, errs = {}, {}
        for key, rate in counts[f"{kind}_per_s"].items():
            rates[key], errs[key] = subtract(f"{kind}[{key}]", rate, backgrounds[key], excess)
        out[f"{kind}_per_s"], out[f"{kind}_err_per_s"] = rates, errs

    if counts["triples_per_s"] is not None:
        out["triples_per_s"], out["triples_err_per_s"] = subtract(
            "triples", counts["triples_per_s"], counts["triple_accidentals_per_s"],
            "accidental estimate exceeds rate")
    return out


def heralded_g2(counts: dict):
    """Heralded second-order correlation
    g2(0) = R_h * R_h12 / (R_h1 * R_h2), with first-order Poisson error
    propagation.  Returns (g2, uncertainty)."""
    if counts["triples_per_s"] is None:
        raise EstimateUndefinedError("heralded g2 needs the 3-channel topology")
    pairs, pairs_err = counts["coincidences_per_s"], counts["coincidences_err_per_s"]
    r_h = counts["singles_per_s"]["h"]
    r_h1 = pairs["1-h"]
    r_h2 = pairs["2-h"]
    r_h12 = counts["triples_per_s"]
    if r_h1 <= 0 or r_h2 <= 0 or r_h <= 0:
        raise EstimateUndefinedError(
            f"zero denominator in g2: R_h={r_h}, R_h1={r_h1}, R_h2={r_h2}")
    g2 = r_h * r_h12 / (r_h1 * r_h2)
    rel_sq = 0.0
    for value, err in (
        (r_h, counts["singles_err_per_s"]["h"]),
        (r_h12, counts["triples_err_per_s"]),
        (r_h1, pairs_err["1-h"]),
        (r_h2, pairs_err["2-h"]),
    ):
        if value > 0:
            rel_sq += (err / value) ** 2
    return g2, g2 * float(np.sqrt(rel_sq))
