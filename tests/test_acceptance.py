"""Acceptance gate: one test per criterion, each emitting a single
pass/fail line.  Criterion 3 checks the entanglement times of the 2D
pipeline at the paper parameters (20 mm, 2.72 um, 405 nm pump, free space
and beta = 3.3e4 fs^2) against a 1D continuous-wave oracle computed in the
test; the published 102 / 408.6 fs are printed for reference only, since
no spectrum can meet both at the stated beta (docs/entanglement_time.md).
"""

import numpy as np
import pytest

from spdclab import analysis, biphoton, counting as ct, etpa, phasematch

from conftest import (BETA_FIBER_FS2, LAMBDA_P_NM, THETA_DEG_MEASURED_C, chain_efficiencies,
                      entanglement_time_cw_oracle, group_index, match_coincidences_bruteforce,
                      refractive_index, to_spectral, total_mass)


def _verdict(number, description, ok, detail=""):
    __tracebackhide__ = True
    print(f"\nACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {description}: {detail}")
    assert ok, f"criterion {number} ({description}): {detail}"


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


# ---------------------------------------------------------------------------

def test_criterion_1_detection_efficiency_arithmetic():
    chain = ct.DetectionChain(eta_coupling=0.9, eta_insertion=0.43, eta_detector=0.6)
    eta_s, eta_c = chain_efficiencies(chain)
    ok = abs(eta_s - 0.23) <= 0.005 and abs(eta_c - 0.06) <= 0.005
    _verdict(1, "detection-efficiency arithmetic", ok,
             f"eta_singles={eta_s:.4f} (target 0.23+-0.005), "
             f"eta_coin={eta_c:.4f} (target 0.06+-0.005)")


def test_criterion_2_etpa_estimate_chain():
    scn = etpa.scenario_from_inputs({
        "delta_c_GM": 27000.0, "T_e_fs": 408.6, "focus_wavelength_nm": 810.0,
        "focus_na": 0.6, "pair_rate_per_s": 1.62e7,
        "mass_concentration_mg_per_mL": 1.0, "molar_mass_g_per_mol": 2.21e5,
        "spot_diameter_um": 1.7,
    })
    report = etpa.feasibility_report(scn)
    checks = [
        ("A_e", report["entanglement_area_um2"], 2.13, 0.02),
        ("sigma_e", report["sigma_e_cm2"], 3.1e-26, 0.10),
        ("phi", report["pair_flux_per_cm2_s"], 7.6e14, 0.05),
        ("R_eTPA/molecule", report["R_eTPA_per_molecule_per_s"], 2.4e-11, 0.10),
        ("volume R_eTPA", report["R_eTPA_volume_per_s"], 1.7e-7, 0.15),
        ("volume R_cTPA", report["R_cTPA_volume_per_s"], 1.1e-12, 0.15),
    ]
    failures = [f"{name}={value:.4g} (target {target:.3g}+-{rel:.0%})"
                for name, value, target, rel in checks
                if not _within(value, target, rel)]
    _verdict(2, "eTPA estimate chain", not failures,
             "; ".join(failures) if failures else
             "all six chain values inside tolerance")


def test_criterion_3_entanglement_time(crystal, jta_free_1024, jta_fiber_1024):
    te_fiber = biphoton.entanglement_time_from_jti(jta_fiber_1024)
    te_free = biphoton.entanglement_time_from_jti(jta_free_1024)
    oracle_free = entanglement_time_cw_oracle(crystal, LAMBDA_P_NM, 0.0)
    oracle_fiber = entanglement_time_cw_oracle(crystal, LAMBDA_P_NM, BETA_FIBER_FS2)
    # the oracle itself must be converged: 4x the samples moves it < 0.01 fs
    drift = max(abs(entanglement_time_cw_oracle(crystal, LAMBDA_P_NM, b, n=2 ** 18) - ref)
                for b, ref in ((0.0, oracle_free), (BETA_FIBER_FS2, oracle_fiber)))
    ok = (drift < 0.01 and _within(te_free, oracle_free, 0.01)
          and _within(te_fiber, oracle_fiber, 0.01))
    _verdict(3, "2D entanglement time vs 1D CW oracle", ok,
             f"T_e(beta=0)={te_free:.1f} fs vs oracle {oracle_free:.2f} fs "
             f"({te_free / oracle_free - 1:+.2%}), "
             f"T_e(beta=3.3e4 fs^2)={te_fiber:.1f} fs vs oracle {oracle_fiber:.2f} fs "
             f"({te_fiber / oracle_fiber - 1:+.2%}), tolerance 1%; "
             f"oracle drift 2^16->2^18 samples {drift:.1e} fs (<0.01); "
             "published reference 102 / 408.6 fs, not asserted: no spectrum "
             "meets both at this beta -- see docs/entanglement_time.md")


def test_criterion_4_degeneracy_and_tuning_geometry(material, crystal):
    bulk = phasematch.CrystalConfig(material, 20.0, 2.72, 100.0, 0.0)
    theta_model = phasematch.find_degeneracy_temperature(bulk, LAMBDA_P_NM)
    theta_reported = (phasematch.find_degeneracy_temperature(crystal, LAMBDA_P_NM)
                      - crystal.calibration_offset_C)
    points = phasematch.tuning_curve(
        crystal, LAMBDA_P_NM,
        (THETA_DEG_MEASURED_C + 0.5, THETA_DEG_MEASURED_C + 12.0), grid=13)

    energy_ok = all(
        abs(1.0 / LAMBDA_P_NM - 1.0 / lambda_s_nm - 1.0 / lambda_i_nm)
        <= 1e-12 * (1.0 / LAMBDA_P_NM) for _, lambda_s_nm, lambda_i_nm in points)
    signal, idler = list(points[:, 1]), list(points[:, 2])
    monotone_ok = (all(a > b for a, b in zip(signal, signal[1:]))
                   and all(a < b for a, b in zip(idler, idler[1:])))
    ok = (np.isfinite(theta_model) and len(points) >= 10
          and abs(theta_reported - THETA_DEG_MEASURED_C) < 1e-4
          and energy_ok and monotone_ok)
    _verdict(4, "degeneracy solve + tuning-curve geometry", ok,
             f"theta_deg(bulk)={theta_model:.2f} C, offset-calibrated "
             f"theta_deg={theta_reported:.2f} C, {len(points)} branch points, "
             f"energy conservation {'ok' if energy_ok else 'VIOLATED'}, "
             f"branches {'monotone' if monotone_ok else 'NOT monotone'}")


def test_criterion_5_monte_carlo_closure():
    # (a) pair-rate closure over 30 seeds
    src = ct.SourceRates(1450.0, 7.0)
    chain = ct.DetectionChain(dark_rate_hz=0.0)
    _, eta_coin = chain_efficiencies(chain)
    expected = src.pair_rate_hz * eta_coin
    rates = []
    for seed in range(30):
        cs = ct.count_coincidences(ct.simulate_tags(src, chain, seed=seed),
                                   chain.coincidence_window_ns)
        rates.append(ct.correct_rates(cs, 0.0)["coincidences_per_s"]["1-2"])
    mean = float(np.mean(rates))
    sem = float(np.std(rates, ddof=1) / np.sqrt(len(rates)))
    closure_ok = abs(mean - expected) <= 3 * sem

    # (b) heralded g2 of a low-flux source
    low_chain = ct.DetectionChain(topology="heralded", integration_time_ms=5000.0,
                                  dark_rate_hz=0.0)
    low = ct.count_coincidences(
        ct.simulate_tags(ct.SourceRates(1450.0, 5.0), low_chain, seed=11),
        low_chain.coincidence_window_ns)
    g2_low, _ = ct.heralded_g2(low)
    low_ok = g2_low < 0.1

    # (c) g2 grows with pump power
    def g2_at(power):
        hchain = ct.DetectionChain(topology="heralded", dark_rate_hz=0.0,
                                   integration_time_ms=4000.0,
                                   coincidence_window_ns=5.0)
        rh = rh1 = rh2 = r12 = 0.0
        for seed in (1000, 1001, 1002):
            cs = ct.count_coincidences(
                ct.simulate_tags(ct.SourceRates(1450.0, power), hchain, seed=seed), 5.0)
            rh += cs["singles_per_s"]["h"]
            rh1 += cs["coincidences_per_s"]["1-h"]
            rh2 += cs["coincidences_per_s"]["2-h"]
            r12 += cs["triples_per_s"]
        return rh * r12 / (rh1 * rh2)

    g2s = [g2_at(p) for p in (200.0, 400.0, 800.0)]
    monotone_ok = g2s[0] < g2s[1] < g2s[2]

    ok = closure_ok and low_ok and monotone_ok
    _verdict(5, "Monte Carlo closure + heralded g2", ok,
             f"coin rate {mean:.1f}/s vs expected {expected:.1f}/s "
             f"({abs(mean-expected)/sem:.1f} sigma), g2(low flux)={g2_low:.3f}, "
             f"g2 at 200/400/800 uW = {g2s[0]:.4f}/{g2s[1]:.4f}/{g2s[2]:.4f}")


def _rate_table_from_mc(chain, powers, label, rate_scale=1.0, seed0=0):
    rows = []
    for k, power in enumerate(powers):
        src = ct.SourceRates(1450.0 * rate_scale, power)
        cs = ct.count_coincidences(
            ct.simulate_tags(src, chain, seed=seed0 + k),
            chain.coincidence_window_ns)
        corrected = ct.correct_rates(cs, 0.0)
        singles, singles_err = corrected["singles_per_s"], corrected["singles_err_per_s"]
        rows.append(analysis.RateRow(
            power, singles["1"], singles_err["1"], singles["2"], singles_err["2"],
            corrected["coincidences_per_s"]["1-2"],
            corrected["coincidences_err_per_s"]["1-2"], "pump", label))
    return tuple(rows)


def test_criterion_6_gamma_statistic():
    powers = [5.0, 7.0, 10.0]
    base = dict(dark_rate_hz=0.0, integration_time_ms=5000.0)
    solv_chain = ct.DetectionChain(**base)
    solv = _rate_table_from_mc(solv_chain, powers, "solvent", seed0=100)

    # pure loss: extra transmission 0.8 on each detector
    loss_chain = ct.DetectionChain(eta_detector=0.6 * 0.8, **base)
    loss = _rate_table_from_mc(loss_chain, powers, "loss-sample", seed0=200)
    _, pts_loss, _ = analysis.compare_tables(solv, loss)
    loss_ok = all(abs(p["gamma"]) <= 3 * p["gamma_err"] for p in pts_loss)

    # pair-selective removal: 20% of pairs absorbed
    etpa_sample = _rate_table_from_mc(solv_chain, powers, "etpa-sample",
                                      rate_scale=0.8, seed0=300)
    _, pts_etpa, _ = analysis.compare_tables(solv, etpa_sample)
    etpa_ok = all(p["gamma"] > 3 * p["gamma_err"] for p in pts_etpa)

    ok = loss_ok and etpa_ok
    _verdict(6, "Gamma statistic discriminates eTPA from loss", ok,
             "pure loss Gamma/sigma = "
             + "/".join(f"{p['gamma'] / p['gamma_err']:.1f}" for p in pts_loss)
             + "; pair removal Gamma/sigma = "
             + "/".join(f"{p['gamma'] / p['gamma_err']:.1f}" for p in pts_etpa))


def test_criterion_7_numerical_properties(jsa_1024, jta_free_1024, material):
    parseval = abs(total_mass(jta_free_1024) - total_mass(jsa_1024))
    back = to_spectral(jta_free_1024, (jsa_1024.axis_s[512], jsa_1024.axis_i[512]))
    roundtrip = float(np.max(np.abs(back.amplitude - jsa_1024.amplitude)))

    lam, theta = 810.0, 59.4
    lam_um = lam * 1e-3
    n = refractive_index(material, lam, theta)
    ng = group_index(material, lam, theta)
    dn_analytic = (n - ng) / lam_um
    h = 0.01
    dn_fd = (refractive_index(material, lam + h, theta)
             - refractive_index(material, lam - h, theta)) / (2 * h * 1e-3)
    fd_rel = abs(dn_fd - dn_analytic) / abs(dn_analytic)

    rng = np.random.default_rng(2024)
    matcher_ok = True
    for _ in range(20):
        a = np.sort(rng.uniform(0, 1e5, rng.integers(0, 900)))
        b = np.sort(rng.uniform(0, 1e5, rng.integers(0, 900)))
        w = float(rng.uniform(0.1, 200.0))
        if ct.match_coincidences(a, b, w) != match_coincidences_bruteforce(a, b, w):
            matcher_ok = False
            break

    ok = parseval < 1e-9 and roundtrip < 1e-10 and fd_rel < 1e-6 and matcher_ok
    _verdict(7, "numerical property suite", ok,
             f"Parseval={parseval:.2e} (<1e-9), roundtrip={roundtrip:.2e} "
             f"(<1e-10), FD-vs-analytic={fd_rel:.2e} (<1e-6), "
             f"matcher equality {'ok' if matcher_ok else 'FAILED'}")
