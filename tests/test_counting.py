import copy
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdclab import counting as ct
from spdclab.errors import CoverageError, DomainError, EstimateUndefinedError

from conftest import (chain_efficiencies, dump_csv_reference, match_coincidences_bruteforce,
                      match_triples_bruteforce, simulate_tags_reference)


# ---------------------------------------------------------------------------
# efficiency arithmetic

def test_chain_efficiencies_paper_values():
    chain = ct.DetectionChain(eta_coupling=0.9, eta_insertion=0.43, eta_detector=0.6)
    eta_s, eta_c = chain_efficiencies(chain)
    assert eta_s == pytest.approx(0.2322, abs=1e-12)
    assert eta_c == pytest.approx(0.0599076, abs=1e-12)


def test_chain_validation():
    with pytest.raises(DomainError):
        ct.DetectionChain(eta_coupling=1.2)
    with pytest.raises(DomainError):
        ct.DetectionChain(coincidence_window_ns=0.0)
    with pytest.raises(DomainError):
        ct.DetectionChain(topology="ring")
    with pytest.raises(DomainError):
        ct.SourceRates(-1.0, 1.0)
    # the channels of ROUTES, in order of first mention
    assert ct.DetectionChain().channels == ct.PAIR_CHANNELS
    assert ct.DetectionChain(topology="heralded").channels == ct.HERALDED_CHANNELS


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, message", [
    (lambda: ct.DetectionChain(dark_rate_hz=-1.0), "dark rate and jitter must be nonnegative"),
    (lambda: ct.DetectionChain(dark_rate_hz=_NAN), "dark rate and jitter must be nonnegative"),
    (lambda: ct.DetectionChain(jitter_fwhm_ns=_NAN), "dark rate and jitter must be nonnegative"),
    (lambda: ct.DetectionChain(jitter_fwhm_ns=_INF), "jitter and integration time must be finite"),
    (lambda: ct.DetectionChain(integration_time_ms=_INF),
     "jitter and integration time must be finite"),
    (lambda: ct.SourceRates(1450.0, _NAN), "source rates must be nonnegative"),
    (lambda: ct.SourceRates(_NAN, 7.0), "source rates must be nonnegative"),
    (lambda: ct.SourceRates(_INF, 0.0), "source rates must be finite"),
    (lambda: ct.SourceRates(1450.0, _INF), "source rates must be finite"),
], ids=["negative-dark", "nan-dark", "nan-jitter", "inf-jitter", "inf-time", "nan-power",
        "nan-rate", "inf-rate-no-power", "inf-power"])
def test_non_finite_chain_and_source_values_are_refused(make, message):
    """Each refused as a DomainError: a NaN or infinite jitter left every
    photon click out of the window, and a NaN dark rate or pair rate (0 x
    inf included) reached numpy's draws as a bare ValueError."""
    with pytest.raises(DomainError, match=f"^{message}$"):
        make()


# ---------------------------------------------------------------------------
# matcher

def test_matcher_trivials():
    w = 1.0
    assert ct.match_coincidences(np.array([0.0]), np.array([0.0]), w) == 1
    assert ct.match_coincidences(np.array([0.0]), np.array([w + 1e-9]), w) == 0
    assert ct.match_coincidences(np.array([0.0]), np.array([w]), w) == 1
    assert ct.match_coincidences(np.array([]), np.array([0.0]), w) == 0


def test_matcher_each_click_used_once():
    a = np.array([0.0, 0.1])
    b = np.array([0.05])
    assert ct.match_coincidences(a, b, 1.0) == 1


def test_matcher_requires_sorted():
    with pytest.raises(DomainError):
        ct.match_coincidences(np.array([1.0, 0.0]), np.array([0.0]), 1.0)


@st.composite
def _streams(draw, n_streams, max_size):
    """Sorted click streams and a window: either arbitrary floats, or an
    integer grid with a window of a whole or half number of grid steps,
    where equal timestamps across streams and gaps of exactly w and 2w
    occur.  A stream may end in one or two NaNs, which np.sort puts
    last."""
    if draw(st.booleans()):
        clicks = st.integers(0, 1000).map(float)
        w = draw(st.integers(1, 8)) / 2.0
    else:
        clicks = st.floats(0, 1e4, allow_nan=False)
        w = draw(st.floats(0.01, 50.0))
    streams = [np.sort(np.array(draw(st.lists(clicks, max_size=max_size))
                                + [np.nan] * draw(st.integers(0, 2))))
               for _ in range(n_streams)]
    return (*streams, w)


# 400 examples: each of the two input kinds gets about 200
@settings(max_examples=400, deadline=None)
@given(case=_streams(2, 400))
def test_two_pointer_equals_bruteforce(case):
    a, b, w = case
    n = ct.match_coincidences(a, b, w)
    assert n == match_coincidences_bruteforce(a, b, w)
    assert n <= min(len(a), len(b))


# pieces small enough that short streams cross many piece boundaries
_SMALL_PIECES = [1, 2, 7]


@pytest.mark.parametrize("piece", _SMALL_PIECES)
@settings(max_examples=100, deadline=None)
@given(case=_streams(2, 100))
def test_two_pointer_equals_bruteforce_small_pieces(piece, case):
    a, b, w = case
    with mock.patch.object(ct, "_PIECE_CLICKS", piece):
        assert ct.match_coincidences(a, b, w) == match_coincidences_bruteforce(a, b, w)


@pytest.mark.parametrize("piece", _SMALL_PIECES)
@settings(max_examples=100, deadline=None)
@given(case=_streams(3, 50))
def test_timeline_pieces_join_to_merge(piece, case):
    """The pieces join to the whole merged timeline, hold at most
    ``piece`` clicks of a stream of distinct values bar its NaN tail, and
    with ``joined`` end at a cut."""
    *streams, w = case

    def joined(x, y):
        return y - x <= w

    times, codes = ct._merge(streams)
    with mock.patch.object(ct, "_PIECE_CLICKS", piece):
        for link in (None, joined):
            pieces = list(ct._timeline(streams, link))
            assert np.concatenate([t for t, _ in pieces] or [[]]).tobytes() == times.tobytes()
            assert np.concatenate([c for _, c in pieces] or [[]]).tolist() == codes.tolist()
            assert all(len(t) for t, _ in pieces)
            for (t, _), (u, _) in zip(pieces[:-1], pieces[1:]):
                assert link is None or not joined(t[-1], u[0])
            for k, s in enumerate(streams):
                finite = s[~np.isnan(s)]  # a NaN tail joins the last piece
                if link is None and len(np.unique(finite)) == len(finite):
                    assert all(np.count_nonzero((c == k) & ~np.isnan(t)) <= piece
                               for t, c in pieces)


def test_cluster_across_pieces_stays_whole():
    """Gaps of 0.25 under a window of 1: one cluster of 38 clicks over 19
    of the 20 stride values, then a cut and a second cluster that no stride
    value falls on, so one piece holds both."""
    a = np.arange(20) * 0.5
    b = np.concatenate((a[:-1] + 0.25, [100.0]))
    a[-1] = 100.5
    with mock.patch.object(ct, "_PIECE_CLICKS", 2):
        pieces = list(ct._timeline([a, b], lambda x, y: y - x <= 1.0))
        assert [len(t) for t, _ in pieces] == [40]
        assert ct.match_coincidences(a, b, 1.0) == match_coincidences_bruteforce(a, b, 1.0) == 20
        h = np.arange(12) * 0.5
        assert ct.match_triples(h, a, b, 1.0) == match_triples_bruteforce(h, a, b, 1.0)


def test_timeline_pieces_of_lone_clicks_stay_apart():
    """Every stride value that starts a cluster starts a piece: clicks 10
    apart under a window of 1 come one per piece."""
    with mock.patch.object(ct, "_PIECE_CLICKS", 1):
        pieces = list(ct._timeline([np.arange(6) * 10.0], lambda x, y: y - x <= 1.0))
    assert [t.tolist() for t, _ in pieces] == [[0.0], [10.0], [20.0], [30.0], [40.0], [50.0]]


def test_matchers_equal_times_and_signed_zeros_at_cuts():
    """Equal timestamps on every stream at a cut time, and -0.0 against
    0.0 at the first cut."""
    h = np.array([-0.0, 0.5, 2.0, 3.0, 4.0])
    a = np.array([0.0, 2.0, 2.0, 4.0])
    b = np.array([0.0, 1.0, 2.0, 4.0])
    for piece in (1, 2, 7):
        with mock.patch.object(ct, "_PIECE_CLICKS", piece):
            for w in (0.0, 0.5, 1.0):
                for x, y in ((h, a), (a, b), (b, h)):
                    assert ct.match_coincidences(x, y, w) == match_coincidences_bruteforce(x, y, w)
                assert ct.match_triples(h, a, b, w) == match_triples_bruteforce(h, a, b, w)


def test_matchers_refuse_nan_before_a_number():
    """np.sort puts NaN last, so a NaN followed by a number is unsorted."""
    nan = np.nan
    with pytest.raises(DomainError, match="requires sorted streams"):
        ct.match_coincidences(np.array([1.0, nan, 2.0]), np.array([1.0]), 1.0)
    with pytest.raises(DomainError, match="requires sorted streams"):
        ct.match_coincidences(np.array([1.0]), np.array([nan, 1.0]), 1.0)


_TRIPLE_POSITIONS = ["h", "a", "b"]


@pytest.mark.parametrize("position", range(3), ids=_TRIPLE_POSITIONS)
def test_triples_refuse_nan_before_a_number(position):
    streams = [np.array([1.0])] * 3
    streams[position] = np.array([np.nan, np.nan, 1.0])
    with pytest.raises(DomainError, match="requires sorted streams"):
        ct.match_triples(*streams, 1.0)


def test_matchers_ignore_trailing_nan():
    """A NaN timestamp, which np.sort puts last, matches nothing."""
    nan = np.nan
    assert ct.match_coincidences(np.array([nan]), np.array([1.0]), 1.0) == 0
    assert ct.match_coincidences(np.array([1.0, nan]), np.array([1.5, nan]), 1.0) == 1
    h, a, b = np.array([1.0, nan]), np.array([1.2, nan]), np.array([nan])
    assert ct.match_triples(h, a, b, 1.0) == 0
    assert ct.match_triples(h, a, np.array([0.8]), 1.0) == 1


def test_triples_trivial():
    h = np.array([10.0])
    assert ct.match_triples(h, np.array([10.3]), np.array([9.8]), 1.0) == 1
    assert ct.match_triples(h, np.array([12.0]), np.array([9.8]), 1.0) == 0


@pytest.mark.parametrize("position", range(3), ids=_TRIPLE_POSITIONS)
def test_triples_require_sorted(position):
    streams = [np.array([0.0])] * 3
    streams[position] = np.array([1.0, 0.0])
    with pytest.raises(DomainError, match="requires sorted streams"):
        ct.match_triples(*streams, 1.0)


@settings(max_examples=200, deadline=None)
@given(case=_streams(3, 150))
def test_triples_equal_bruteforce(case):
    h, a, b, w = case
    n = ct.match_triples(h, a, b, w)
    assert n == match_triples_bruteforce(h, a, b, w)
    assert n <= min(len(h), len(a), len(b))


@pytest.mark.parametrize("piece", _SMALL_PIECES)
@settings(max_examples=100, deadline=None)
@given(case=_streams(3, 60))
def test_triples_equal_bruteforce_small_pieces(piece, case):
    h, a, b, w = case
    with mock.patch.object(ct, "_PIECE_CLICKS", piece):
        assert ct.match_triples(h, a, b, w) == match_triples_bruteforce(h, a, b, w)


# ---------------------------------------------------------------------------
# simulation

def test_simulation_deterministic():
    src = ct.SourceRates(1450.0, 7.0)
    chain = ct.DetectionChain()
    t1 = ct.simulate_tags(src, chain, seed=42)
    t2 = ct.simulate_tags(src, chain, seed=42)
    for label in chain.channels:
        assert np.array_equal(t1.channels[label], t2.channels[label])
    t3 = ct.simulate_tags(src, chain, seed=43)
    assert not np.array_equal(t1.channels["1"], t3.channels["1"])


_PAIRS = ct.SourceRates(1450.0, 200.0)
_DARK_ONLY = ct.SourceRates(0.0, 0.0)
_REFERENCE_CASES = {
    "pair": (_PAIRS, ct.DetectionChain(dark_rate_hz=500.0)),
    "heralded": (_PAIRS, ct.DetectionChain(topology="heralded", dark_rate_hz=500.0)),
    # s1 == s2: the survivor threshold is both arms' threshold
    "heralded-lossless-insertion": (_PAIRS, ct.DetectionChain(topology="heralded",
                                                              eta_insertion=1.0)),
    "heralded-dead-detector": (_PAIRS, ct.DetectionChain(topology="heralded", eta_detector=0.0,
                                                         dark_rate_hz=500.0)),
    "heralded-no-jitter": (_PAIRS, ct.DetectionChain(topology="heralded", jitter_fwhm_ns=0.0)),
    "pair-no-jitter": (_PAIRS, ct.DetectionChain(jitter_fwhm_ns=0.0)),
    "pair-dark-only": (_DARK_ONLY, ct.DetectionChain(dark_rate_hz=20000.0)),
    "heralded-dark-only": (_DARK_ONLY, ct.DetectionChain(topology="heralded",
                                                         dark_rate_hz=20000.0)),
    # about 232 k pairs: three full blocks of simulate_tags and a partial one
    "pair-multi-block": (_PAIRS, ct.DetectionChain(dark_rate_hz=500.0,
                                                   integration_time_ms=800.0)),
    "heralded-multi-block": (_PAIRS, ct.DetectionChain(topology="heralded", dark_rate_hz=500.0,
                                                       integration_time_ms=800.0)),
}


@pytest.mark.parametrize("seed", [0, 7, 401])
@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
def test_simulate_tags_equals_reference(name, seed):
    src, chain = _REFERENCE_CASES[name]
    tags = ct.simulate_tags(src, chain, seed)
    reference = simulate_tags_reference(src, chain, seed)
    assert list(tags.channels) == list(reference)
    assert sum(len(times) for times in reference.values()) > 0
    for label, times in reference.items():
        assert np.array_equal(tags.channels[label], times), label


def test_multi_block_cases_cross_block_boundaries():
    for name in ("pair-multi-block", "heralded-multi-block"):
        src, chain = _REFERENCE_CASES[name]
        mean_pairs = src.pair_rate_hz * chain.integration_time_ms * 1e-3
        assert 3.2 * ct._PAIR_BLOCK < mean_pairs < 3.8 * ct._PAIR_BLOCK


@pytest.mark.parametrize("jitter_fwhm_ns", [0.35, 0.0])
@pytest.mark.parametrize("topology", ["pair", "heralded"])
@pytest.mark.parametrize("mean_blocks, n_blocks", [(0.0, 0), (0.5, 1), (1.5, 2), (2.5, 3)],
                         ids=["no-pairs", "one-block", "two-blocks", "three-blocks"])
def test_simulate_tags_split_matches_reference_and_one_thread(monkeypatch, mean_blocks, n_blocks,
                                                              topology, jitter_fwhm_ns):
    """The caller's thread routes the first run of blocks and one worker
    the second; one block (or none) stays on the caller's thread.  The
    arrays equal the full-length reference and the one-run routing."""
    src = ct.SourceRates(mean_blocks * ct._PAIR_BLOCK / 100.0, 100.0)  # mean pairs per 1 s
    chain = ct.DetectionChain(topology=topology, dark_rate_hz=500.0, jitter_fwhm_ns=jitter_fwhm_ns,
                              integration_time_ms=1000.0)
    runs, workers = [], []
    pair_runs = ct._pair_runs

    class CountedWorker(ct.Worker):
        def __init__(self, *args):
            workers.append(args)
            super().__init__(*args)

    def recorded_runs(n_pairs):
        runs.append(pair_runs(n_pairs))
        return runs[-1]

    monkeypatch.setattr(ct, "_pair_runs", recorded_runs)
    monkeypatch.setattr(ct, "Worker", CountedWorker)
    split = ct.simulate_tags(src, chain, seed=11)
    (stream_runs,) = runs
    assert -(-stream_runs[-1][1] // ct._PAIR_BLOCK) == n_blocks
    assert len(stream_runs) == len(workers) + 1 == (2 if n_blocks > 1 else 1)

    monkeypatch.setattr(ct, "_pair_runs", lambda n_pairs: [(0, n_pairs)])
    one_thread = ct.simulate_tags(src, chain, seed=11)
    assert len(workers) == (1 if n_blocks > 1 else 0)

    reference = simulate_tags_reference(src, chain, 11)
    for label, times in reference.items():
        assert np.array_equal(split.channels[label], times), label
        assert np.array_equal(one_thread.channels[label], times), label


@pytest.mark.parametrize("chunk", [1, 5, "between"])
@pytest.mark.parametrize("topology", ["pair", "heralded"])
def test_simulate_tags_jitter_chunks_change_no_value(monkeypatch, topology, chunk):
    """The jitter drawn region by region in chunks of 1, 5 or a size
    between the smallest and the largest filled region, on two routing
    runs: regions end in short chunks, and some fit in one, and the arrays
    still equal the full-length reference."""
    src = ct.SourceRates(1.5 * ct._PAIR_BLOCK / 100.0, 100.0)  # mean pairs per 1 s
    chain = ct.DetectionChain(topology=topology, dark_rate_hz=500.0, integration_time_ms=1000.0)
    between = {"pair": 10_000, "heralded": 4_000}[topology]
    chunk = between if chunk == "between" else chunk
    filled = []
    route_pairs = ct._route_pairs

    def recorded_route_pairs(*args):
        routed = route_pairs(*args)
        filled.append([len(part) for part in routed.values()])
        return routed

    monkeypatch.setattr(ct, "_route_pairs", recorded_route_pairs)
    monkeypatch.setattr(ct, "_JITTER_CHUNK", chunk)
    tags = ct.simulate_tags(src, chain, seed=11)
    assert len(filled) == 2
    sizes = sum(filled, [])
    assert min(sizes) < between < max(sizes)
    assert chunk == 1 or any(size % chunk for size in sizes)  # a region ends in a short chunk
    reference = simulate_tags_reference(src, chain, 11)
    for label, times in reference.items():
        assert np.array_equal(tags.channels[label], times), label


@pytest.mark.parametrize("topology", ["pair", "heralded"])
def test_simulate_tags_memory_follows_clicks_not_pairs(topology):
    """1.16 M pairs but under 10 k clicks: the traced peak stays near one
    block of pairs, below the 9.3 MB of a single per-pair array of doubles."""
    src = ct.SourceRates(1450.0, 800.0)
    chain = ct.DetectionChain(topology=topology, eta_detector=0.01, integration_time_ms=1000.0)
    tracemalloc.start()
    try:
        tags = ct.simulate_tags(src, chain, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < sum(len(times) for times in tags.channels.values()) < 10_000
    assert peak < 8e6


@pytest.mark.parametrize("region, n_runs", [("photon", 1), ("photon", 2), ("dark", 2)])
@pytest.mark.parametrize("topology", ["pair", "heralded"])
def test_simulate_tags_refuses_a_region_too_small_for_its_clicks(monkeypatch, topology, region,
                                                                 n_runs):
    """Regions sized at no slots: the photon regions, routed in one run or
    in two (both threads refuse), or the dark region alone (mean 500).  The
    first channel to get a click is named."""
    src = ct.SourceRates(2.5 * ct._PAIR_BLOCK / 100.0, 100.0)  # mean pairs per 1 s
    chain = ct.DetectionChain(topology=topology, dark_rate_hz=500.0, integration_time_ms=1000.0)
    capacity = ct._capacity
    monkeypatch.setattr(ct, "_capacity", lambda mean: 0 if region == "photon" or mean == 500.0
                        else capacity(mean))
    if n_runs == 1:
        monkeypatch.setattr(ct, "_pair_runs", lambda n_pairs: [(0, n_pairs)])
    what = "clicks" if region == "photon" else "dark counts"
    with pytest.raises(CoverageError, match=f"^channel {chain.channels[0]}: more {what} than "
                                            "the 0 slots sized for them$"):
        ct.simulate_tags(src, chain, seed=2)


def test_simulate_tags_routing_threads_share_the_channel_arrays(monkeypatch):
    """One routing run per block: five worker threads and the caller's,
    more than the cores, each writing its own regions of the channel
    arrays, under a short switch interval.  A lost or misplaced write
    would break the equality with the reference."""
    src = ct.SourceRates(5.5 * ct._PAIR_BLOCK / 100.0, 100.0)  # mean pairs per 1 s
    chain = ct.DetectionChain(topology="heralded", dark_rate_hz=500.0, integration_time_ms=1000.0)
    runs = []

    def one_run_per_block(n_pairs):
        runs.extend((first, min(first + ct._PAIR_BLOCK, n_pairs))
                    for first in range(0, n_pairs, ct._PAIR_BLOCK))
        return runs

    monkeypatch.setattr(ct, "_pair_runs", one_run_per_block)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tags = ct.simulate_tags(src, chain, seed=3)
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 6
    reference = simulate_tags_reference(src, chain, 3)
    for label, times in reference.items():
        assert np.array_equal(tags.channels[label], times), label


def test_simulate_tags_holds_each_click_once():
    """About 300 k heralded clicks at the default constants: above its
    finished channels, simulate_tags holds the per-block draws of its two
    threads and the spare slots of its regions (2.55 MB measured, seeds
    9-14).  Holding the routed blocks apart from the channel arrays, it
    read 3.5 to 3.9 MB."""
    chain = ct.DetectionChain(topology="heralded", integration_time_ms=800.0)
    src = ct.SourceRates(1450.0, 800.0)
    ct.simulate_tags(ct.SourceRates(1450.0, 1.0), chain, 1)  # first calls may import and cache
    tracemalloc.start()
    try:
        tags = ct.simulate_tags(src, chain, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2e5 < sum(len(t) for t in tags.channels.values()) < 5e5
    assert peak - sum(t.nbytes for t in tags.channels.values()) < 3.0e6


def test_zero_rate_source_gives_empty_streams():
    tags = ct.simulate_tags(ct.SourceRates(0.0, 0.0), ct.DetectionChain(), seed=1)
    assert all(len(v) == 0 for v in tags.channels.values())


def test_memory_guard():
    with pytest.raises(DomainError, match="guard"):
        ct.simulate_tags(ct.SourceRates(1e9, 1e3), ct.DetectionChain(), seed=1)


def test_memory_guard_bounds_clicks_not_pairs():
    # 58 M pairs at eta_detector = 0.01 end in a few 100 k clicks: 1.16e8
    # emitted photons, but far fewer expected clicks than the guard's 1e8
    src = ct.SourceRates(1450.0, 800.0)
    chain = ct.DetectionChain(eta_detector=0.01, integration_time_ms=50_000.0,
                              topology="heralded", dark_rate_hz=100.0)
    s1, s2 = 0.43 * 0.01, 0.43 ** 2 * 0.01
    expected = 1450.0 * 800.0 * 50.0 * 0.9 * 2 * (s1 + s2) / 2 + 100.0 * 50.0 * 3
    assert ct._expected_clicks(src, chain) == pytest.approx(expected, rel=1e-12)
    assert 2e5 < expected < 1e6
    pair = replace(chain, topology="pair")
    assert ct._expected_clicks(src, pair) == pytest.approx(
        1450.0 * 800.0 * 50.0 * 0.9 * 2 * s1 + 100.0 * 50.0 * 2, rel=1e-12)


@pytest.mark.parametrize("pairs_per_s", [1e11, 1e21])
def test_pair_guard_bounds_run_time(pairs_per_s):
    # no click is expected, so the click guard passes, but every pair is
    # drawn and routed: 1e10 pairs per 100 ms window (the bound itself) would
    # take minutes, and 1e20 is past what numpy's Poisson draw accepts
    with pytest.raises(DomainError, match=r"pairs per window exceeds the 1e\+10 run-time guard"):
        ct.simulate_tags(ct.SourceRates(pairs_per_s, 1.0), ct.DetectionChain(eta_detector=0.0),
                         seed=1)


@pytest.mark.parametrize("topology", ["pair", "heralded"])
def test_expected_clicks_matches_simulation(topology):
    # jitter keeps two photons of one pair in one channel apart; it moves
    # about 1e-9 of the clicks out of the window
    chain = ct.DetectionChain(dark_rate_hz=2000.0, topology=topology)
    src = ct.SourceRates(1e3, 100.0)  # 1e4 pairs per 100 ms window
    for routes in ct.ROUTES[topology]:  # each photon takes one of its routes
        assert sum(share for _, share, _ in routes) == 1.0
    window_s = chain.integration_time_ms * 1e-3
    per_channel = dict.fromkeys(chain.channels, chain.dark_rate_hz * window_s)
    for (label, _), p in ct._click_probabilities(chain).items():
        per_channel[label] += src.pair_rate_hz * window_s * p
    expected = ct._expected_clicks(src, chain)
    assert sum(per_channel.values()) == pytest.approx(expected, rel=1e-12)
    runs = [ct.simulate_tags(src, chain, seed).channels for seed in range(20)]
    # a pair gives 0, 1 or 2 clicks, in all and on one channel, so the
    # variance of a window's count is at most twice its mean: 5 standard
    # errors of the mean of 20 windows
    for label, mean in [*per_channel.items(), ("all", expected)]:
        clicks = [sum(len(t) for channel, t in channels.items() if label in (channel, "all"))
                  for channels in runs]
        assert abs(np.mean(clicks) - mean) < 5 * np.sqrt(2 * mean / len(clicks)), label


def test_dark_counts_poisson_statistics():
    """Dark-only simulation: counts over many seeds must follow Poisson
    statistics (mean and variance agree with the configured rate)."""
    chain = ct.DetectionChain(dark_rate_hz=1000.0, integration_time_ms=100.0)
    src = ct.SourceRates(0.0, 0.0)
    counts = np.array([len(ct.simulate_tags(src, chain, seed=s).channels["1"])
                       for s in range(300)])
    mu = 1000.0 * 0.1
    assert abs(counts.mean() - mu) < 4 * np.sqrt(mu / len(counts))
    assert 0.75 < counts.var(ddof=1) / mu < 1.3


def test_accidental_rate_matches_simulation():
    """Uncorrelated (dark-only) streams: measured coincidences agree with
    the 2 R1 R2 tau accidental estimate."""
    chain = ct.DetectionChain(dark_rate_hz=20000.0, integration_time_ms=1000.0,
                              coincidence_window_ns=100.0, jitter_fwhm_ns=0.0)
    src = ct.SourceRates(0.0, 0.0)
    measured = []
    expected = []
    for seed in range(10):
        tags = ct.simulate_tags(src, chain, seed=seed)
        cs = ct.count_coincidences(tags, chain.coincidence_window_ns)
        measured.append(cs["coincidences_per_s"]["1-2"])
        expected.append(cs["accidentals_per_s"]["1-2"])
    measured = np.mean(measured)
    expected = np.mean(expected)
    assert measured == pytest.approx(expected, rel=0.10)


def test_tagstream_validation():
    with pytest.raises(DomainError):
        ct.TagStream({"1": np.array([1.0, 1.0])}, 100.0)
    with pytest.raises(DomainError):
        ct.TagStream({"1": np.array([-1.0])}, 100.0)
    for times in ([np.nan], [1.0, np.nan], [np.nan, 1.0]):
        with pytest.raises(DomainError):
            ct.TagStream({"1": np.array(times)}, 100.0)
    # the channels of a detection chain only, and no -0.0
    for label in ("a", "bb", "x,y", ""):
        with pytest.raises(DomainError, match=f"channel {label!r}: not one of"):
            ct.TagStream({label: np.array([1.0])}, 100.0)
    with pytest.raises(DomainError, match="channel 2: first timestamp is -0.0"):
        ct.TagStream({"1": np.array([0.0]), "2": np.array([-0.0, 1.0])}, 100.0)


# 5 s streams, so that timestamps may pass 2**31 ns
_DUMP_CASES = {
    # enough equal timestamps that an unstable sort would reorder them
    "label-tie-break": {"2": list(np.arange(300) * 0.25) + [80.0],
                        "h": list(np.arange(300) * 0.25),
                        "1": list(np.arange(1, 300) * 0.25) + [75.5]},
    "half-even-ties": {"1": [0.0078125, 0.0234375, 2.0 ** 31 + 0.0078125,
                             2.0 ** 31 + 0.0234375]},
    # the float product (t - floor(t)) * 1e6 rounds across the .5 boundary
    "near-half-boundary": {"1": [0.4731885, 1.7551675, 123.7247895, 4096.6234015]},
    "round-up-carry": {"1": [2.9999996, 9.9999999, 999.9999996],
                       "2": [0.0000005, 0.1234565, 1.0000005]},
    "empty-channel": {"1": [], "2": [3.5]},
    "empty-stream": {},
    "quoted-label-negative-zero": {"x,y": [-0.0, 1.0], "": [0.0]},
    # labels of one width, and a -0.0
    "negative-zero": {"1": [-0.0, 2.5], "2": [0.0, 1.25]},
    # rounding carries into one more whole digit than floor(t) has
    "digit-count-carry": {"1": [9.9999996, 99.9999995, 999999999.9999996, 1e9],
                          "2": [10.0, 99.9999996, 999999999.9999995, 1e9 + 1e-6]},
    # labels of unequal width, in more than one piece
    "label-widths-first-chunk": {"a": list(np.arange(70000) * 1.5), "bb": [3.25]},
    # with pieces of two clicks, 2.0 is a cut time on every channel
    "equal-times-at-cut": {"h": [0.5, 1.0, 2.0, 3.0], "1": [1.0, 2.0, 2.5], "2": [2.0, 3.0]},
    # -0.0 after 0.0 in the timeline, at its first cut
    "signed-zero-at-cut": {"1": [0.0, 0.5, 1.0], "2": [-0.0, 1.0]},
}

# cases that no detection chain makes: TagStream refuses them, so no
# tags.csv is written (case -> the refusal's message)
_REFUSED_DUMP_CASES = {
    "label-widths-first-chunk": "channel 'a': not one of",
    "negative-zero": "channel 1: first timestamp is -0.0",
    "quoted-label-negative-zero": "channel 'x,y': not one of",
    "signed-zero-at-cut": "channel 2: first timestamp is -0.0",
}


def _assert_dump_identical(tags, tmp_path):
    tags.dump_csv(tmp_path / "tags.csv")
    dump_csv_reference(tags, tmp_path / "reference.csv")
    assert (tmp_path / "tags.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _assert_case_dumps_as_reference(case, tmp_path):
    channels = {label: np.array(times, dtype=float) for label, times in _DUMP_CASES[case].items()}
    if case in _REFUSED_DUMP_CASES:
        with pytest.raises(DomainError, match=_REFUSED_DUMP_CASES[case]):
            ct.TagStream(channels, 5000.0)
        return
    _assert_dump_identical(ct.TagStream(channels, 5000.0), tmp_path)


@pytest.mark.parametrize("case", sorted(_DUMP_CASES))
def test_dump_csv_bytes_equal_reference(case, tmp_path):
    _assert_case_dumps_as_reference(case, tmp_path)


@pytest.mark.parametrize("piece", _SMALL_PIECES)
@pytest.mark.parametrize("case", sorted(set(_DUMP_CASES) - {"label-widths-first-chunk"}))
def test_dump_csv_small_pieces_bytes_equal_reference(case, piece, tmp_path, monkeypatch):
    monkeypatch.setattr(ct, "_PIECE_CLICKS", piece)
    _assert_case_dumps_as_reference(case, tmp_path)


def test_dump_csv_bytes_equal_reference_simulated(tmp_path):
    chain = ct.DetectionChain(topology="heralded", integration_time_ms=3000.0, dark_rate_hz=100.0)
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 100.0), chain, seed=8)
    assert sum(len(t) for t in tags.channels.values()) > 2 * ct._PIECE_CLICKS
    _assert_dump_identical(tags, tmp_path)


def test_dump_and_counting_memory_follows_pieces_not_clicks(tmp_path, monkeypatch):
    """About 300 k clicks, read in timeline pieces of 4096 clicks per
    stream: above the held channels, the dump and the counting hold a few
    pieces and the 1-byte masks of the sortedness checks, far below one
    merged timeline's 8-byte arrays over all clicks."""
    monkeypatch.setattr(ct, "_PIECE_CLICKS", 1 << 12)
    chain = ct.DetectionChain(topology="heralded", integration_time_ms=800.0)
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 800.0), chain, seed=9)
    assert 2e5 < sum(len(t) for t in tags.channels.values()) < 5e5
    small = ct.TagStream({label: t[:10] for label, t in tags.channels.items()}, 800.0)
    small.dump_csv(tmp_path / "warm.csv")  # first calls may import and cache
    ct.count_coincidences(small, 1.0)
    tracemalloc.start()
    try:
        tags.dump_csv(tmp_path / "tags.csv")
        ct.count_coincidences(tags, chain.coincidence_window_ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_dump_beside_counting_memory_at_default_pieces(tmp_path):
    """The same 300 k clicks at the default ``_PIECE_CLICKS``, the dump on
    a worker beside the counting as ``simulate`` runs them: 2.9 to 3.6 MB
    measured above the held channels (seeds 9-14), where pieces of 65 536
    clicks per stream read 11.3 to 12.6 MB."""
    chain = ct.DetectionChain(topology="heralded", integration_time_ms=800.0)
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 800.0), chain, seed=9)
    assert 2e5 < sum(len(t) for t in tags.channels.values()) < 5e5
    small = ct.TagStream({label: t[:10] for label, t in tags.channels.items()}, 800.0)
    small.dump_csv(tmp_path / "warm.csv")  # first calls may import and cache
    ct.count_coincidences(small, 1.0)
    tracemalloc.start()
    try:
        dump = ct.Worker(tags.dump_csv, tmp_path / "tags.csv")
        try:
            ct.count_coincidences(tags, chain.coincidence_window_ns)
        finally:
            dump.result()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


# ---------------------------------------------------------------------------
# counting and correction

@pytest.mark.parametrize("topology", ["pair", "heralded"])
def test_count_coincidences_equals_bruteforce_dense(topology):
    """A 1 ms stream with a 300 ns window: every channel pair has clusters
    of two clicks and of more, and the triples clusters of three and of
    more."""
    chain = ct.DetectionChain(topology=topology, integration_time_ms=1.0, dark_rate_hz=1e5)
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 800.0), chain, seed=5)
    cs = ct.count_coincidences(tags, 300.0)
    t_s = tags.integration_time_ms * 1e-3
    ch = tags.channels
    for key, rate in cs["coincidences_per_s"].items():
        la, lb = key.split("-")
        assert rate == match_coincidences_bruteforce(ch[la], ch[lb], 300.0) / t_s, key
    if topology == "heralded":
        assert (cs["triples_per_s"]
                == match_triples_bruteforce(ch["h"], ch["1"], ch["2"], 300.0) / t_s)


def test_correct_rates_examples():
    cs = {
        "integration_time_ms": 1000.0, "coincidence_window_ns": 1.0,
        "singles_per_s": {"1": 1000.0, "2": 800.0}, "singles_err_per_s": {"1": 31.6, "2": 28.3},
        "coincidences_per_s": {"1-2": 100.0}, "coincidences_err_per_s": {"1-2": 10.0},
        "accidentals_per_s": {"1-2": 20.0},
        "triples_per_s": None, "triples_err_per_s": None, "triple_accidentals_per_s": None,
        "warnings": [], "corrected": False,
    }
    out = ct.correct_rates(cs, 850.0)
    assert out["singles_per_s"]["1"] == pytest.approx(150.0)
    assert out["singles_per_s"]["2"] == 0.0  # clamped
    assert any("dark rate exceeds" in w for w in out["warnings"])
    assert out["coincidences_per_s"]["1-2"] == pytest.approx(80.0)
    assert out["coincidences_err_per_s"]["1-2"] == pytest.approx(
        np.sqrt(100.0 + 20.0), rel=1e-9)


def test_correct_rates_clamps_every_rate_in_order():
    """Singles, coincidences and triples each clamp at zero with their own
    warning, appended in that order after the warnings already held."""
    cs = {
        "integration_time_ms": 2000.0, "coincidence_window_ns": 5.0,
        "singles_per_s": {"1": 40.0, "2": 900.0, "h": 30.0},
        "singles_err_per_s": {"1": 4.0, "2": 21.0, "h": 3.0},
        "coincidences_per_s": {"1-2": 5.0, "1-h": 50.0, "2-h": 2.0},
        "coincidences_err_per_s": {"1-2": 1.5, "1-h": 5.0, "2-h": 1.0},
        "accidentals_per_s": {"1-2": 8.0, "1-h": 10.0, "2-h": 3.0},
        "triples_per_s": 1.0, "triples_err_per_s": 0.7, "triple_accidentals_per_s": 4.0,
        "warnings": ["earlier"], "corrected": False,
    }
    before = copy.deepcopy(cs)
    out = ct.correct_rates(cs, 50.0)
    assert cs == before  # the raw counts are written next to the corrected ones
    assert out["warnings"] == [
        "earlier",
        "singles[1]: dark rate exceeds measured rate, clamped to 0",
        "singles[h]: dark rate exceeds measured rate, clamped to 0",
        "coincidences[1-2]: accidental estimate exceeds rate, clamped to 0",
        "coincidences[2-h]: accidental estimate exceeds rate, clamped to 0",
        "triples: accidental estimate exceeds rate, clamped to 0",
    ]
    assert out["singles_per_s"] == {"1": 0.0, "2": 850.0, "h": 0.0}
    assert out["singles_err_per_s"]["1"] == np.sqrt(40.0 * 2.0 + 50.0 * 2.0) / 2.0
    assert out["coincidences_per_s"] == {"1-2": 0.0, "1-h": 40.0, "2-h": 0.0}
    assert out["coincidences_err_per_s"]["2-h"] == np.sqrt(2.0 * 2.0 + 3.0 * 2.0) / 2.0
    assert out["triples_per_s"] == 0.0
    assert out["triples_err_per_s"] == np.sqrt(1.0 * 2.0 + 4.0 * 2.0) / 2.0
    assert out["corrected"]

    unclamped = ct.correct_rates({**cs, "triples_per_s": 7.5}, 0.0)
    assert unclamped["warnings"] == [
        "earlier",
        "coincidences[1-2]: accidental estimate exceeds rate, clamped to 0",
        "coincidences[2-h]: accidental estimate exceeds rate, clamped to 0",
    ]
    assert unclamped["triples_per_s"] == 7.5 - 4.0
    assert unclamped["triples_err_per_s"] == np.sqrt(7.5 * 2.0 + 4.0 * 2.0) / 2.0


def test_closure_pair_rate_recovery():
    """simulate -> count -> correct recovers pair rate x eta_coin within
    3 sigma over 30 seeds."""
    src = ct.SourceRates(1450.0, 7.0)
    chain = ct.DetectionChain(dark_rate_hz=0.0)
    _, eta_coin = chain_efficiencies(chain)
    expected = src.pair_rate_hz * eta_coin

    rates = []
    for seed in range(30):
        tags = ct.simulate_tags(src, chain, seed=seed)
        cs = ct.count_coincidences(tags, chain.coincidence_window_ns)
        corrected = ct.correct_rates(cs, chain.dark_rate_hz)
        rates.append(corrected["coincidences_per_s"]["1-2"])
    mean = np.mean(rates)
    sigma = np.std(rates, ddof=1) / np.sqrt(len(rates))
    assert abs(mean - expected) < 3 * sigma + 1e-9, (mean, expected, sigma)


def test_closure_singles_rate():
    src = ct.SourceRates(1450.0, 7.0)
    chain = ct.DetectionChain(dark_rate_hz=0.0)
    eta_s, _ = chain_efficiencies(chain)
    expected = src.pair_rate_hz * eta_s
    rates = [ct.count_coincidences(
        ct.simulate_tags(src, chain, seed=s), 1.0)["singles_per_s"]["1"] for s in range(30)]
    mean = np.mean(rates)
    sigma = np.std(rates, ddof=1) / np.sqrt(len(rates))
    assert abs(mean - expected) < 3 * sigma + 1e-9


# ---------------------------------------------------------------------------
# heralded topology and g2

def test_heralded_topology_three_channels():
    chain = ct.DetectionChain(topology="heralded")
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 50.0), chain, seed=3)
    assert set(tags.channels) == {"h", "1", "2"}
    cs = ct.count_coincidences(tags, 1.0)
    assert cs["triples_per_s"] is not None
    assert cs["triple_accidentals_per_s"] is not None


def test_g2_requires_heralded():
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 7.0), ct.DetectionChain(), seed=3)
    cs = ct.count_coincidences(tags, 1.0)
    with pytest.raises(EstimateUndefinedError):
        ct.heralded_g2(cs)


def test_g2_low_pump_nonclassical():
    """An ideal low-flux pair source is strongly anti-bunched: g2 < 0.1."""
    chain = ct.DetectionChain(topology="heralded", integration_time_ms=5000.0,
                              dark_rate_hz=0.0)
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 5.0), chain, seed=11)
    cs = ct.count_coincidences(tags, chain.coincidence_window_ns)
    g2, g2_err = ct.heralded_g2(cs)
    assert g2 < 0.1


def _g2_at_power(power_uW, seeds, integration_ms=4000.0, window_ns=5.0):
    chain = ct.DetectionChain(topology="heralded", dark_rate_hz=0.0,
                              integration_time_ms=integration_ms,
                              coincidence_window_ns=window_ns)
    rh = rh1 = rh2 = r12 = 0.0
    for seed in seeds:
        cs = ct.count_coincidences(
            ct.simulate_tags(ct.SourceRates(1450.0, power_uW), chain, seed=seed),
            window_ns)
        rh += cs["singles_per_s"]["h"]
        rh1 += cs["coincidences_per_s"]["1-h"]
        rh2 += cs["coincidences_per_s"]["2-h"]
        r12 += cs["triples_per_s"]
    return rh * r12 / (rh1 * rh2)


def test_g2_monotone_with_pump_power():
    seeds = range(1000, 1003)
    values = [_g2_at_power(p, seeds) for p in (200.0, 400.0, 800.0)]
    assert values[0] < values[1] < values[2], values
