import csv
import math
import re

import numpy as np
import pytest
from conftest import fit_rate_curve_oracle

from spdclab import analysis
from spdclab.analysis import (
    RateRow,
    analysis_report,
    compare_tables,
    fit_rate_curve,
    ingest_rate_table,
)
from spdclab.errors import AlignmentError, DomainError, SolverError, TableParseError

FIXTURE_SOLVENT = "configs/rate_table_solvent.csv"
FIXTURE_SAMPLE = "configs/rate_table_sample.csv"


def make_row(p, s1, s2, coin, mode="pump", label="x", rel_err=0.01):
    return RateRow(p, s1, s1 * rel_err, s2, s2 * rel_err, coin, coin * rel_err,
                   mode, label)


def make_table(rows):
    return tuple(rows)


# ---------------------------------------------------------------------------
# ingestion

def test_ingest_golden_fixture():
    table = ingest_rate_table(FIXTURE_SOLVENT)
    assert len(table) == 16
    assert sorted({r.mode for r in table}) == ["pump", "spdc"]
    assert table[0].label == "toluene"


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(TableParseError, match="empty"):
        ingest_rate_table(path)


def test_ingest_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TableParseError, match=r" line 1: bad header"):
        ingest_rate_table(path)


def test_ingest_negative_rate_reports_line(tmp_path):
    path = tmp_path / "neg.csv"
    with open(FIXTURE_SOLVENT) as fh:
        lines = fh.read().splitlines()
    lines.insert(3, "10.0,-5.0,1.0,100.0,1.0,10.0,1.0,pump,x")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableParseError, match=r" line 4: negative rate"):
        ingest_rate_table(path)


@pytest.mark.parametrize("row", [
    "10.0,3000.0,17.3,2800.0,16.7,nan,1.1,pump,x",
    "inf,3000.0,17.3,2800.0,16.7,12.0,1.1,pump,x",
    "10.0,3000.0,17.3,2800.0,-Infinity,12.0,1.1,pump,x",
], ids=["R_coin-nan", "P_SPDC-inf", "R_s2_err--Infinity"])
def test_ingest_non_finite_number_reports_line(tmp_path, row):
    path = tmp_path / "nonfinite.csv"
    with open(FIXTURE_SOLVENT) as fh:
        lines = fh.read().splitlines()
    lines.insert(3, row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableParseError, match=" line 4: malformed number: nan or infinity"):
        ingest_rate_table(path)


def test_ingest_reports_the_file_line_past_a_quoted_newline(tmp_path):
    path = tmp_path / "quoted.csv"
    with open(FIXTURE_SOLVENT) as fh:
        lines = fh.read().splitlines()
    lines.insert(2, '10.0,3000.0,17.3,2800.0,16.7,12.0,1.1,pump,"two\nline label"')
    lines.insert(4, "10.0,3000.0,17.3")  # file line 6, the fifth record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableParseError, match=r" line 6: expected 9 fields, got 3"):
        ingest_rate_table(path)


def test_ingest_bad_mode_reports_line(tmp_path):
    path = tmp_path / "mode.csv"
    header = "P_SPDC_pW,R_s1,R_s1_err,R_s2,R_s2_err,R_coin,R_coin_err,mode,label"
    path.write_text(header + "\n1.0,1.0,0.1,1.0,0.1,1.0,0.1,sideways,x\n")
    with pytest.raises(TableParseError, match=r" line 2: mode must be one of"):
        ingest_rate_table(path)


def test_flagging_rule():
    ok = make_row(10.0, 1000.0, 1000.0, 10.0, rel_err=0.01)
    bad = make_row(20.0, 1000.0, 1000.0, 10.0, rel_err=0.06)
    assert not ok.flagged()
    assert bad.flagged()
    table = make_table([ok, bad])
    report = analysis_report(table, make_table([ok, make_row(20.0, 1000.0, 1000.0, 10.0)]),
                             False)
    assert report["flagged_rows"] == [
        {"table": "solvent", "p_spdc_pW": 20.0, "mode": "pump", "label": "x"}]


def test_zero_rate_flagged_only_without_error():
    # a dark baseline 0 +- 0.316 is a measurement; 0 +- 0 has no error at all
    dark = RateRow(0.0, 0.0, 0.316, 0.0, 0.316, 0.0, 0.316, "pump", "x")
    assert not dark.flagged()
    assert make_row(0.0, 0.0, 0.0, 0.0).flagged()
    assert make_row(0.0, 1000.0, 0.0, 0.0).flagged()


# ---------------------------------------------------------------------------
# fits

def test_fit_linear_exact():
    rows = [make_row(p, 1.0, 1.0, 2.0 * p + 1e-9, rel_err=0.0) for p in (1.0, 2.0, 3.0, 4.0)]
    # zero uncertainties -> unweighted fit
    rows = [RateRow(r.p_spdc_pW, r.r_s1, 0.0, r.r_s2, 0.0, 2.0 * r.p_spdc_pW, 0.0,
                    "pump", "x") for r in rows]
    fit = fit_rate_curve(make_table(rows), "linear")
    assert fit["coefficients"][0] == pytest.approx(0.0, abs=1e-9)
    assert fit["coefficients"][1] == pytest.approx(2.0, abs=1e-12)
    assert fit["reduced_chi2"] == pytest.approx(0.0, abs=1e-18)


def test_fit_quadratic_exact():
    rows = [RateRow(p, 1.0, 0.1, 1.0, 0.1, p ** 2, 1.0, "pump", "x")
            for p in (1.0, 2.0, 3.0, 5.0, 8.0)]
    fit = fit_rate_curve(make_table(rows), "quadratic")
    assert fit["coefficients"][2] == pytest.approx(1.0, abs=1e-9)
    assert abs(fit["coefficients"][1]) < 1e-9
    assert fit["model"] == "quadratic"
    assert len(fit["standard_errors"]) == 3


def test_fit_guards():
    rows = [make_row(p, 1.0, 1.0, p) for p in (1.0, 2.0)]
    with pytest.raises(SolverError, match="at least"):
        fit_rate_curve(make_table(rows), "linear")
    same = [make_row(5.0, 1.0, 1.0, 3.0) for _ in range(5)]
    with pytest.raises(SolverError, match="rank"):
        fit_rate_curve(make_table(same), "linear")
    with pytest.raises(SolverError, match="unknown"):
        fit_rate_curve(make_table([make_row(p, 1, 1, p) for p in range(1, 5)]), "cubic")


def test_fit_unbiased_monte_carlo():
    """1000 noisy linear datasets: mean standardized coefficient deviation
    must be ~N(0, 1/sqrt(1000))."""
    rng = np.random.default_rng(77)
    p = np.array([10.0, 20.0, 40.0, 70.0, 100.0, 150.0])
    true_a, true_b = 5.0, 1.2
    sigma = 3.0
    z_a, z_b = [], []
    for _ in range(1000):
        y = true_a + true_b * p + rng.normal(0, sigma, p.size)
        rows = [RateRow(pi, 1.0, 0.1, 1.0, 0.1, max(yi, 0.0), sigma, "pump", "x")
                for pi, yi in zip(p, y)]
        fit = fit_rate_curve(make_table(rows), "linear")
        z_a.append((fit["coefficients"][0] - true_a) / fit["standard_errors"][0])
        z_b.append((fit["coefficients"][1] - true_b) / fit["standard_errors"][1])
    assert abs(np.mean(z_a)) < 4.0 / np.sqrt(1000)
    assert abs(np.mean(z_b)) < 4.0 / np.sqrt(1000)


def test_fit_chi2_distribution():
    """Reduced chi-squared over 500 trials of model-generated data must
    average inside [0.8, 1.2]."""
    rng = np.random.default_rng(123)
    p = np.array([10.0, 20.0, 40.0, 70.0, 100.0, 150.0, 200.0])
    chis = []
    for _ in range(500):
        y = 2.0 + 0.7 * p + rng.normal(0, 2.0, p.size)
        rows = [RateRow(pi, 1.0, 0.1, 1.0, 0.1, max(yi, 0.0), 2.0, "pump", "x")
                for pi, yi in zip(p, y)]
        chis.append(fit_rate_curve(make_table(rows), "linear")["reduced_chi2"])
    assert 0.8 < np.mean(chis) < 1.2


@pytest.mark.parametrize("path", [FIXTURE_SOLVENT, FIXTURE_SAMPLE])
def test_fit_fixture_equals_fraction_oracle(path):
    table = ingest_rate_table(path)
    for mode in ("pump", "spdc"):
        sub = tuple(r for r in table if r.mode == mode)
        for model in ("linear", "quadratic"):
            assert fit_rate_curve(sub, model) == fit_rate_curve_oracle(sub, model)


@pytest.mark.parametrize("model", ["linear", "quadratic"])
def test_fit_random_table_equals_fraction_oracle(model):
    rng = np.random.default_rng(2024)
    p = rng.uniform(0.0, 200.0, 200)
    rows = make_table(RateRow(pi, 1.0, 0.1, 1.0, 0.1, yi, ei, "pump", "x") for pi, yi, ei in
                      zip(p, 3.0 + 1.1 * p + 0.002 * p ** 2 + rng.normal(0, 2.0, p.size),
                          rng.uniform(0.5, 5.0, p.size)))
    assert fit_rate_curve(rows, model) == fit_rate_curve_oracle(rows, model)


def test_fit_exactly_linear_rows_give_zero_intercept_and_chi2():
    """The solvent pump rows lie on R_coin = 1.2 P_SPDC in their floats, so
    the exact least-squares solution is intercept 0, slope 1.2 and chi2 0."""
    pump = tuple(r for r in ingest_rate_table(FIXTURE_SOLVENT) if r.mode == "pump")
    linear = fit_rate_curve(pump, "linear")
    assert linear["coefficients"] == [0.0, 1.2]
    assert linear["reduced_chi2"] == 0.0
    quadratic = fit_rate_curve(pump, "quadratic")
    assert quadratic["coefficients"] == [0.0, 1.2, 0.0]
    assert quadratic["reduced_chi2"] == 0.0


def test_fit_near_duplicate_powers_are_distinct():
    """1.0 and its float neighbour 1.0 + 2**-52 are two power values: the
    linear fit is made, with standard errors of 2**52."""
    rows = make_table(RateRow(p, 1.0, 0.1, 1.0, 0.1, 3.0, 0.0, "pump", "x")
                      for p in (1.0, 1.0, 1.0 + 2 ** -52, 1.0 + 2 ** -52))
    fit = fit_rate_curve(rows, "linear")
    assert fit == fit_rate_curve_oracle(rows, "linear")
    assert fit["coefficients"] == [3.0, 0.0]
    assert fit["standard_errors"] == [2.0 ** 52, 2.0 ** 52]
    with pytest.raises(SolverError, match="fewer than 3 independent power values"):
        fit_rate_curve(rows, "quadratic")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("err", [1e-200, 1e200], ids=["weight-overflows", "weight-underflows"])
def test_fit_refuses_a_weight_outside_the_floats(err):
    rows = make_table(RateRow(p, 1.0, 0.1, 1.0, 0.1, 1.2 * p, err, "pump", "x")
                      for p in (10.0, 20.0, 40.0, 70.0))
    message = ("linear fit: the weight 1/R_coin_err**2 of the row at P_SPDC 10.0 pW "
               f"does not fit in a finite float (R_coin_err {err})")
    with pytest.raises(SolverError, match=re.escape(message)):
        fit_rate_curve(rows, "linear")


@pytest.mark.filterwarnings("error")
def test_analysis_report_records_a_refused_weight():
    rows = make_table(RateRow(p, 1.0, 0.1, 1.0, 0.1, 1.2 * p, 1e-200, "pump", "x")
                      for p in (10.0, 20.0, 40.0, 70.0))
    report = analysis_report(rows, rows, False)
    assert set(report["fits"]["solvent.pump.quadratic"]) == {"error"}
    assert report["fits"]["solvent.pump.quadratic"]["error"].startswith(
        "quadratic fit: the weight 1/R_coin_err**2")


@pytest.mark.filterwarnings("error")
def test_fit_powers_near_1e200():
    """Powers whose squares overflow a float still fit: scaling every power
    by 2**664 (about 1.2e200) scales the slope and its standard error by
    2**-664 exactly and leaves the rest of the linear fit as it is."""
    ps = (10.0, 20.0, 40.0, 70.0, 100.0, 150.0)
    ys = (11.0, 25.0, 47.0, 86.0, 119.0, 181.0)

    def table(scale):
        return make_table(RateRow(p * scale, 1.0, 0.1, 1.0, 0.1, y, 1.5, "pump", "x")
                          for p, y in zip(ps, ys))

    base, huge = fit_rate_curve(table(1.0), "linear"), fit_rate_curve(table(2.0 ** 664), "linear")
    for key in ("coefficients", "standard_errors"):
        assert huge[key] == [base[key][0], math.ldexp(base[key][1], -664)]
    assert huge["reduced_chi2"] == base["reduced_chi2"]
    quadratic = fit_rate_curve(table(2.0 ** 664), "quadratic")
    oracle = fit_rate_curve_oracle(table(2.0 ** 664), "quadratic")
    assert quadratic["coefficients"] == oracle["coefficients"]
    assert quadratic["reduced_chi2"] == oracle["reduced_chi2"]


@pytest.mark.filterwarnings("error")
def test_fit_refuses_a_coefficient_outside_the_floats():
    rows = make_table(RateRow(p * 1e-200, 1.0, 0.1, 1.0, 0.1, 1.2 * p, 1.0, "pump", "x")
                      for p in (10.0, 20.0, 40.0, 70.0, 100.0))
    assert fit_rate_curve(rows, "linear")["coefficients"][1] == pytest.approx(1.2e200)
    with pytest.raises(SolverError,
                       match=r"^quadratic fit: coefficients\[2\] does not fit in a finite float$"):
        fit_rate_curve(rows, "quadratic")


# ---------------------------------------------------------------------------
# absorption rate

def test_absorption_rate_trivials():
    solv = make_table([make_row(10.0, 1.0, 1.0, 100.0, rel_err=0.03)])
    samp = make_table([make_row(10.0, 1.0, 1.0, 80.0, rel_err=0.05)])
    [point], _, _ = compare_tables(solv, samp)
    assert point["r_abs"] == pytest.approx(20.0)
    assert point["r_abs_err"] == pytest.approx(math.hypot(3.0, 4.0))  # 5.0
    # identical tables -> zeros with nonzero uncertainty
    [zero], _, _ = compare_tables(solv, solv)
    assert zero["r_abs"] == 0.0
    assert zero["r_abs_err"] > 0


def test_absorption_rate_antisymmetric():
    solv = make_table([make_row(p, 10.0, 10.0, 5.0 * p) for p in (1.0, 2.0)])
    samp = make_table([make_row(p, 10.0, 10.0, 4.0 * p) for p in (1.0, 2.0)])
    fwd, _, _ = compare_tables(solv, samp)
    rev, _, _ = compare_tables(samp, solv)
    for f, r in zip(fwd, rev):
        assert f["r_abs"] == -r["r_abs"]


def test_alignment_error_lists_unmatched():
    solv = make_table([make_row(1.0, 1, 1, 1), make_row(2.0, 1, 1, 1)])
    samp = make_table([make_row(1.0, 1, 1, 1), make_row(3.0, 1, 1, 1)])
    with pytest.raises(AlignmentError) as exc:
        compare_tables(solv, samp)
    assert "('solvent', 2.0, 'pump')" in str(exc.value)
    assert "('sample', 3.0, 'pump')" in str(exc.value)


# ---------------------------------------------------------------------------
# Gamma

def test_gamma_identical_tables_is_zero():
    table = make_table([make_row(p, 100.0, 90.0, 10.0) for p in (1.0, 2.0)])
    _, points, skipped = compare_tables(table, table)
    assert skipped == []
    for pt in points:
        assert pt["gamma"] == pytest.approx(0.0, abs=1e-15)
        assert pt["gamma_err"] > 0


def test_gamma_pure_loss_is_zero():
    """Uncorrelated loss t per channel: singles x t, coincidences x t^2;
    the double ratio cancels exactly."""
    t = 0.8
    solv_rows = [make_row(p, 100.0 * p, 90.0 * p, 10.0 * p) for p in (1.0, 2.0, 3.0)]
    samp_rows = [make_row(r.p_spdc_pW, r.r_s1 * t, r.r_s2 * t, r.r_coin * t * t)
                 for r in solv_rows]
    _, points, _ = compare_tables(make_table(solv_rows), make_table(samp_rows))
    for pt in points:
        assert pt["gamma"] == pytest.approx(0.0, abs=1e-12)


def test_gamma_pair_removal_is_positive():
    """Removing a fraction eps of pairs (photons leave both arms together)
    gives Gamma = eps exactly."""
    eps = 0.2
    keep = 1.0 - eps
    solv_rows = [make_row(p, 100.0 * p, 90.0 * p, 10.0 * p) for p in (1.0, 2.0)]
    samp_rows = [make_row(r.p_spdc_pW, r.r_s1 * keep, r.r_s2 * keep, r.r_coin * keep)
                 for r in solv_rows]
    _, points, _ = compare_tables(make_table(solv_rows), make_table(samp_rows))
    for pt in points:
        assert pt["gamma"] == pytest.approx(eps, abs=1e-12)


def test_gamma_invariant_under_global_rescale():
    solv = make_table([make_row(p, 100.0 * p, 90.0 * p, 10.0 * p) for p in (1.0, 2.0)])
    samp = make_table([make_row(p, 95.0 * p, 85.0 * p, 9.0 * p) for p in (1.0, 2.0)])
    _, base, _ = compare_tables(solv, samp)

    def rescale(table, f1, f2):
        return make_table([
            RateRow(r.p_spdc_pW, r.r_s1 * f1, r.r_s1_err * f1, r.r_s2 * f2,
                    r.r_s2_err * f2, r.r_coin * f1 * f2, r.r_coin_err * f1 * f2,
                    r.mode, r.label) for r in table])

    _, again, _ = compare_tables(rescale(solv, 0.7, 0.5), rescale(samp, 0.7, 0.5))
    for b, a in zip(base, again):
        assert abs(b["gamma"] - a["gamma"]) < 1e-12


def test_gamma_skips_nonpositive_rows():
    solv = make_table([make_row(0.0, 0.0, 0.0, 0.0), make_row(1.0, 10.0, 10.0, 1.0)])
    samp = make_table([make_row(0.0, 0.0, 0.0, 0.0), make_row(1.0, 10.0, 10.0, 1.0)])
    r_abs, points, skipped = compare_tables(solv, samp)
    assert len(points) == 1
    assert len(skipped) == 1
    assert skipped[0]["p_spdc_pW"] == 0.0
    # a skipped pair still has its R_abs
    assert [p["p_spdc_pW"] for p in r_abs] == [0.0, 1.0]


def test_gamma_outside_the_floats_is_refused():
    # singles of 1e200 in the sample row: their product, and so Gamma, overflows
    solv = make_table([make_row(1.0, 10.0, 10.0, 1.0)])
    samp = make_table([make_row(1.0, 1e200, 1e200, 1.0)])
    with pytest.raises(DomainError,
                       match=r"^rows at P_SPDC 1.0 pW, mode pump: gamma is -inf, not a finite"):
        compare_tables(solv, samp)


# ---------------------------------------------------------------------------
# report plumbing

def test_analysis_report_fixture(tmp_path):
    solv = ingest_rate_table(FIXTURE_SOLVENT)
    samp = ingest_rate_table(FIXTURE_SAMPLE)
    report = analysis_report(solv, samp, False)
    assert set(report) == {"fits", "r_abs", "gamma", "skipped", "flagged_rows"}
    # fixture construction: Gamma = 0.05 on all usable rows
    for pt in report["gamma"]:
        assert pt["gamma"] == pytest.approx(0.05, abs=1e-9)
    # the anomalous 70 pW row is flagged in both tables, both modes
    flagged_powers = {f["p_spdc_pW"] for f in report["flagged_rows"]}
    assert 70.0 in flagged_powers
    # the quadratic spdc-attenuation fixture prefers the quadratic model
    lin = report["fits"]["solvent.spdc.linear"]["reduced_chi2"]
    quad = report["fits"]["solvent.spdc.quadratic"]["reduced_chi2"]
    assert quad < lin

    analysis.write_report_json(report, tmp_path / "report.json")
    analysis.write_plot_data_csv(report, tmp_path / "plot.csv")
    with open(tmp_path / "plot.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["quantity", "mode", "P_SPDC_pW", "value", "error"]
    assert any(r[0] == "Gamma" for r in rows[1:])
    assert any(r[0] == "R_abs" for r in rows[1:])
