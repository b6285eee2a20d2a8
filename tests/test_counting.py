import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdclab import counting as ct
from spdclab.errors import DomainError, EstimateUndefinedError

from conftest import dump_csv_reference, match_coincidences_bruteforce, match_triples_bruteforce


# ---------------------------------------------------------------------------
# efficiency arithmetic

def test_chain_efficiencies_paper_values():
    chain = ct.DetectionChain(eta_coupling=0.9, eta_insertion=0.43, eta_detector=0.6)
    eta_s, eta_c = ct.chain_efficiencies(chain)
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
    occur."""
    if draw(st.booleans()):
        clicks = st.integers(0, 1000).map(float)
        w = draw(st.integers(1, 8)) / 2.0
    else:
        clicks = st.floats(0, 1e4, allow_nan=False)
        w = draw(st.floats(0.01, 50.0))
    streams = [np.sort(np.array(draw(st.lists(clicks, max_size=max_size))))
               for _ in range(n_streams)]
    return (*streams, w)


# 400 examples: each of the two input kinds gets about 200
@settings(max_examples=400, deadline=None)
@given(case=_streams(2, 400))
def test_two_pointer_equals_bruteforce(case):
    a, b, w = case
    assert ct.match_coincidences(a, b, w) == match_coincidences_bruteforce(a, b, w)


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


def test_triples_require_sorted():
    with pytest.raises(DomainError):
        ct.match_triples(np.array([0.0]), np.array([1.0, 0.0]), np.array([0.0]), 1.0)


@settings(max_examples=200, deadline=None)
@given(case=_streams(3, 150))
def test_triples_equal_bruteforce(case):
    h, a, b, w = case
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


def test_zero_rate_source_gives_empty_streams():
    tags = ct.simulate_tags(ct.SourceRates(0.0, 0.0), ct.DetectionChain(), seed=1)
    assert all(len(v) == 0 for v in tags.channels.values())


def test_memory_guard():
    with pytest.raises(DomainError, match="guard"):
        ct.simulate_tags(ct.SourceRates(1e9, 1e3), ct.DetectionChain(), seed=1)


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
        measured.append(cs.coincidences[("1", "2")])
        expected.append(cs.accidentals[("1", "2")])
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
}


def _assert_dump_identical(tags, tmp_path):
    tags.dump_csv(tmp_path / "tags.csv")
    dump_csv_reference(tags, tmp_path / "reference.csv")
    assert (tmp_path / "tags.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("case", sorted(_DUMP_CASES))
def test_dump_csv_bytes_equal_reference(case, tmp_path):
    channels = {label: np.array(times, dtype=float) for label, times in _DUMP_CASES[case].items()}
    _assert_dump_identical(ct.TagStream(channels, 5000.0), tmp_path)


def test_dump_csv_bytes_equal_reference_simulated(tmp_path):
    chain = ct.DetectionChain(topology="heralded", integration_time_ms=3000.0, dark_rate_hz=100.0)
    tags = ct.simulate_tags(ct.SourceRates(1450.0, 100.0), chain, seed=8)
    assert sum(len(t) for t in tags.channels.values()) > 2 * ct._DUMP_CHUNK_ROWS
    _assert_dump_identical(tags, tmp_path)


# ---------------------------------------------------------------------------
# counting and correction

def test_count_summary_invariant():
    with pytest.raises(DomainError):
        ct.CountSummary(
            integration_time_ms=100.0, coincidence_window_ns=1.0,
            singles={"1": 10.0, "2": 10.0}, singles_err={"1": 1.0, "2": 1.0},
            coincidences={("1", "2"): 50.0}, coincidences_err={("1", "2"): 1.0},
            accidentals={("1", "2"): 0.0},
        )


def test_correct_rates_examples():
    cs = ct.CountSummary(
        integration_time_ms=1000.0, coincidence_window_ns=1.0,
        singles={"1": 1000.0, "2": 800.0}, singles_err={"1": 31.6, "2": 28.3},
        coincidences={("1", "2"): 100.0}, coincidences_err={("1", "2"): 10.0},
        accidentals={("1", "2"): 20.0},
    )
    out = ct.correct_rates(cs, {"1": 100.0, "2": 900.0})
    assert out.singles["1"] == pytest.approx(900.0)
    assert out.singles["2"] == 0.0  # clamped
    assert any("dark rate exceeds" in w for w in out.warnings)
    assert out.coincidences[("1", "2")] == pytest.approx(80.0)
    assert out.coincidences_err[("1", "2")] == pytest.approx(
        np.sqrt(100.0 + 20.0), rel=1e-9)


def test_closure_pair_rate_recovery():
    """simulate -> count -> correct recovers pair rate x eta_coin within
    3 sigma over 30 seeds."""
    src = ct.SourceRates(1450.0, 7.0)
    chain = ct.DetectionChain(dark_rate_hz=0.0)
    _, eta_coin = ct.chain_efficiencies(chain)
    expected = src.pair_rate_hz * eta_coin

    rates = []
    for seed in range(30):
        tags = ct.simulate_tags(src, chain, seed=seed)
        cs = ct.count_coincidences(tags, chain.coincidence_window_ns)
        corrected = ct.correct_rates(cs, chain.dark_rate_hz)
        rates.append(corrected.coincidences[("1", "2")])
    mean = np.mean(rates)
    sigma = np.std(rates, ddof=1) / np.sqrt(len(rates))
    assert abs(mean - expected) < 3 * sigma + 1e-9, (mean, expected, sigma)


def test_closure_singles_rate():
    src = ct.SourceRates(1450.0, 7.0)
    chain = ct.DetectionChain(dark_rate_hz=0.0)
    eta_s, _ = ct.chain_efficiencies(chain)
    expected = src.pair_rate_hz * eta_s
    rates = [ct.count_coincidences(
        ct.simulate_tags(src, chain, seed=s), 1.0).singles["1"] for s in range(30)]
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
    assert cs.triples is not None
    assert cs.triple_accidentals is not None


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
        rh += cs.singles["h"]
        rh1 += cs.coincidences[("1", "h")]
        rh2 += cs.coincidences[("2", "h")]
        r12 += cs.triples
    return rh * r12 / (rh1 * rh2)


def test_g2_monotone_with_pump_power():
    seeds = range(1000, 1003)
    values = [_g2_at_power(p, seeds) for p in (200.0, 400.0, 800.0)]
    assert values[0] < values[1] < values[2], values
