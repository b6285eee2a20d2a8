import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spdclab import cli

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def config_path(name):
    return os.path.abspath(os.path.join(CONFIGS, name))


def run(*argv):
    return cli.main(list(argv))


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


SMALL_JSA = {
    "crystal": {"length_mm": 20.0, "poling_period_um": 2.72,
                "temperature_C": 59.4, "calibration_offset_C": 49.0975327},
    "lambda_p_nm": 405.0,
    "pump_fwhm_nm": 0.01,
    "grid": {"n": 256, "center_lambda_nm": 810.0, "half_span_nm": 60.0},
    "fiber_beta_fs2": 33000.0,
}


# ---------------------------------------------------------------------------
# exit codes

def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    rc = run("tuning-curve", "--config", "/no/such/file.json", "--out", str(tmp_path))
    assert rc == 2
    assert "/no/such/file.json" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path)) == 2


def test_etpa_report_invalid_json_exits_2_and_names_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("etpa-report", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert f"--config {bad} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("tuning-curve", "--seed", "1"),
    ("jsa", "--seed", "1"),
    ("etpa-report", "--seed", "1"),
    ("analyze", "--seed", "1"),
    ("analyze", "--drop-flagged"),
], ids=" ".join)
def test_unread_flags_are_usage_errors(tmp_path, argv):
    # --seed is read by simulate only; analyze's switch is the drop_flagged key
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--config", config_path("paper_analyze.json"), "--out", str(tmp_path))
    assert exc.value.code == 2


def test_computation_error_exits_1(tmp_path, capsys):
    # a poling period that can never be phase matched -> solver error
    cfg = write_json(tmp_path / "c.json", {
        "crystal": {"length_mm": 20.0, "poling_period_um": 1.0, "temperature_C": 100.0},
        "lambda_p_nm": 405.0,
        "theta_range_C": [90.0, 110.0],
    })
    rc = run("tuning-curve", "--config", cfg, "--out", str(tmp_path))
    assert rc == 1
    assert "no phase matching" in capsys.readouterr().err


def test_missing_unit_suffix_exits_2(tmp_path, capsys):
    scenario = json.load(open(config_path("paper_scenario.json")))
    scenario["T_e"] = scenario.pop("T_e_fs")
    bad = write_json(tmp_path / "scenario.json", scenario)
    rc = run("etpa-report", "--config", bad, "--out", str(tmp_path))
    assert rc == 2
    assert "T_e" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tuning-curve

def test_tuning_curve_paper_config(tmp_path, calibration_offset):
    out = tmp_path / "tc"
    rc = run("tuning-curve", "--config", config_path("paper_tuning.json"),
             "--out", str(out))
    assert rc == 0
    summary = json.load(open(out / "tuning_summary.json"))
    assert summary["theta_deg_C"] == pytest.approx(59.4, abs=1e-4)
    assert summary["theta_deg_model_C"] == pytest.approx(108.4975, abs=1e-3)
    assert summary["fitted_calibration_offset_C"] == calibration_offset
    assert "config" in summary
    with open(out / "tuning_curve.csv") as fh:
        header = fh.readline().strip()
    assert header == "theta_C,lambda_s_nm,lambda_i_nm,branch"


def test_tuning_curve_deterministic(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run("tuning-curve", "--config", config_path("paper_tuning.json"),
                   "--out", str(out)) == 0
        outs.append((open(out / "tuning_curve.csv", "rb").read(),
                     open(out / "tuning_summary.json", "rb").read()))
    assert outs[0] == outs[1]


def test_cli_import_does_not_load_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, spdclab.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    # nor does resampling a measured JSI: exit 3 if scipy got loaded
    lam = np.linspace(790.0, 830.0, 48)
    intensity = np.exp(-((lam[:, None] + lam[None, :] - 1620.0) ** 2) / 2.0
                       - (lam[:, None] - lam[None, :]) ** 2 / 200.0)
    measured = tmp_path / "measured.csv"
    with open(measured, "w") as fh:
        fh.write("# axis_s: " + " ".join(map(str, lam)) + "\n")
        fh.write("# axis_i: " + " ".join(map(str, lam)) + "\n")
        np.savetxt(fh, intensity, delimiter=",")
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "measured_jsi_csv": str(measured)})
    code = ("import sys, spdclab.cli; rc = spdclab.cli.main(sys.argv[1:]); "
            "sys.exit(3 if 'scipy' in sys.modules else rc)")
    done = subprocess.run([sys.executable, "-c", code, "jsa", "--config", cfg,
                           "--out", str(tmp_path / "out")], env=env, timeout=60)
    assert done.returncode == 0
    assert json.load(open(tmp_path / "out" / "te_report.json"))["measured_input"] is True


# ---------------------------------------------------------------------------
# jsa

def test_jsa_small_grid(tmp_path):
    cfg = write_json(tmp_path / "jsa.json", SMALL_JSA)
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 0
    report = json.load(open(out / "te_report.json"))
    assert report["entanglement_time_fiber_fs"] > report["entanglement_time_free_fs"]
    assert (out / "jsi.csv").exists() and (out / "jti.csv").exists()
    sidecar = json.load(open(out / "jsi.json"))
    assert sidecar["domain"] == "spectral"


def test_jsa_beta_zero_reports_equal_times(tmp_path):
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "fiber_beta_fs2": 0.0})
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 0
    report = json.load(open(out / "te_report.json"))
    assert report["entanglement_time_free_fs"] == report["entanglement_time_fiber_fs"]


def test_jsa_measured_input_route(tmp_path):
    # first produce a model JSI, then feed it back as a "measured" matrix
    cfg = write_json(tmp_path / "jsa.json", SMALL_JSA)
    out1 = tmp_path / "model"
    assert run("jsa", "--config", cfg, "--out", str(out1)) == 0
    cfg2 = write_json(tmp_path / "jsa2.json", {
        **SMALL_JSA,
        "measured_jsi_csv": str(out1 / "jsi.csv"),
        "measured_axis_units": "rad/s",
    })
    out2 = tmp_path / "measured"
    assert run("jsa", "--config", cfg2, "--out", str(out2)) == 0
    report = json.load(open(out2 / "te_report.json"))
    assert report["measured_input"] is True
    # sqrt(JSI) discards the sinc sidelobe signs, so the reconstructed T_e
    # differs from the model's; it must still be finite and fiber-broadened
    assert report["entanglement_time_free_fs"] > 0
    assert report["entanglement_time_fiber_fs"] > report["entanglement_time_free_fs"]


def test_jsa_non_finite_measured_input_exits_1(tmp_path, capsys):
    measured = tmp_path / "measured.csv"
    measured.write_text("# axis_s: 800 810 820\n# axis_i: 800 810 820\n"
                        "0,1,0\n1,nan,1\n0,1,0\n")
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "measured_jsi_csv": str(measured)})
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert "not finite at matrix row 1, column 1" in capsys.readouterr().err
    assert not (out / "jsi.csv").exists()


# row None: the headers are followed by no matrix rows at all
@pytest.mark.parametrize("axis_s, row, where", [
    ("800 nan 820", "1,2,1", "axis_s must be finite and strictly monotonic in rad/s; value 1"),
    ("800 810 805", "1,2,1", "axis_s must be finite and strictly monotonic in rad/s; value 2"),
    ("800 abc 820", "1,2,1", "axis_s value 1 (0-based) is not a number"),
    ("800 810 820", "1,x,1", "not a number at matrix row 1, column 1"),
    ("800", "1,2,1", "axis_s has 1 value(s)"),
    ("0 810 820", "1,2,1", "axis_s must be finite and strictly monotonic in rad/s; value 0"),
    ("800 810 820", None, "matrix shape does not match axis headers"),
])
# a warning raised on the way would be an exception here, not a line on stderr
@pytest.mark.filterwarnings("error")
def test_jsa_malformed_measured_input_exits_1(tmp_path, capsys, axis_s, row, where):
    measured = tmp_path / "measured.csv"
    matrix = "" if row is None else f"0,1,0\n{row}\n0,1,0\n"
    measured.write_text(f"# axis_s: {axis_s}\n# axis_i: 800 810 820\n{matrix}")
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "measured_jsi_csv": str(measured)})
    assert run("jsa", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("spdclab: ") and where in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out" / "jsi.csv").exists()


def test_jsa_coverage_error_exits_1(tmp_path):
    cfg = write_json(tmp_path / "jsa.json",
                     {**SMALL_JSA, "grid": {"n": 64, "center_lambda_nm": 810.0,
                                            "half_span_nm": 0.05}})
    assert run("jsa", "--config", cfg, "--out", str(tmp_path / "o")) == 1


# ---------------------------------------------------------------------------
# simulate

def test_simulate_deterministic_and_seeded(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run("simulate", "--config", config_path("paper_chain.json"),
                   "--out", str(out), "--seed", "42") == 0
        blobs.append((open(out / "tags.csv", "rb").read(),
                      open(out / "count_summary.json", "rb").read()))
    assert blobs[0] == blobs[1]
    summary = json.load(open(tmp_path / "a" / "count_summary.json"))
    assert summary["seed"] == 42
    assert "config" in summary
    assert summary["raw"]["singles_per_s"]["1"] > 0
    out3 = tmp_path / "c"
    assert run("simulate", "--config", config_path("paper_chain.json"),
               "--out", str(out3), "--seed", "43") == 0
    assert open(out3 / "tags.csv", "rb").read() != blobs[0][0]


def test_simulate_zero_rate(tmp_path):
    cfg = write_json(tmp_path / "chain.json", {
        "chain": {"topology": "pair"},
        "source": {"pairs_per_s_per_uW": 0.0, "pump_power_uW": 0.0},
    })
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", str(out)) == 0
    summary = json.load(open(out / "count_summary.json"))
    assert summary["raw"]["singles_per_s"] == {"1": 0.0, "2": 0.0}


def test_simulate_heralded_populates_triples(tmp_path):
    cfg = write_json(tmp_path / "chain.json", {
        "chain": {"topology": "heralded", "integration_time_ms": 200.0},
        "source": {"pairs_per_s_per_uW": 1450.0, "pump_power_uW": 20.0},
    })
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", str(out)) == 0
    summary = json.load(open(out / "count_summary.json"))
    assert summary["raw"]["triples_per_s"] is not None
    assert "heralded_g2" in summary


def test_simulate_bad_chain_key_exits_2(tmp_path):
    cfg = write_json(tmp_path / "chain.json", {
        "chain": {"no_such_knob": 1.0},
        "source": {"pairs_per_s_per_uW": 1.0, "pump_power_uW": 1.0},
    })
    assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 2


# ---------------------------------------------------------------------------
# etpa-report

def test_etpa_report_paper_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run("etpa-report", "--config", config_path("paper_scenario.json"),
             "--out", str(out))
    assert rc == 0
    payload = json.load(open(out / "etpa_report.json"))
    report = payload["report"]
    assert report["entanglement_area_um2"] == pytest.approx(2.13, rel=0.02)
    assert report["R_eTPA_volume_per_s"] == pytest.approx(1.7e-7, rel=0.10)
    text = open(out / "etpa_report.txt").read()
    assert "sigma_e" in text
    assert "sigma_e" in capsys.readouterr().out


def test_etpa_zero_flux(tmp_path):
    scenario = json.load(open(config_path("paper_scenario.json")))
    scenario["pair_rate_per_s"] = 0.0
    cfg = write_json(tmp_path / "s.json", scenario)
    out = tmp_path / "out"
    assert run("etpa-report", "--config", cfg, "--out", str(out)) == 0
    report = json.load(open(out / "etpa_report.json"))["report"]
    assert report["R_eTPA_volume_per_s"] == 0.0
    assert report["R_cTPA_volume_per_s"] == 0.0


# ---------------------------------------------------------------------------
# analyze

def test_analyze_fixture_pair(tmp_path):
    out = tmp_path / "out"
    rc = run("analyze", "--config", config_path("paper_analyze.json"),
             "--out", str(out))
    assert rc == 0
    report = json.load(open(out / "analysis_report.json"))
    for pt in report["gamma"]:
        assert pt["gamma"] == pytest.approx(0.05, abs=1e-9)
    assert any(f["p_spdc_pW"] == 70.0 for f in report["flagged_rows"])
    lin = report["fits"]["solvent.spdc.linear"]["reduced_chi2"]
    quad = report["fits"]["solvent.spdc.quadratic"]["reduced_chi2"]
    assert quad < lin
    assert (out / "plot_data.csv").exists()


def test_analyze_identical_tables_gamma_zero(tmp_path):
    cfg = write_json(tmp_path / "an.json", {
        "solvent_csv": config_path("rate_table_solvent.csv"),
        "sample_csv": config_path("rate_table_solvent.csv"),
    })
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--out", str(out)) == 0
    report = json.load(open(out / "analysis_report.json"))
    for pt in report["gamma"]:
        assert pt["gamma"] == pytest.approx(0.0, abs=1e-12)
    for pt in report["r_abs"]:
        assert pt["r_abs"] == 0.0


def test_analyze_drop_flagged(tmp_path, capsys):
    tables = {"solvent_csv": config_path("rate_table_solvent.csv"),
              "sample_csv": config_path("rate_table_sample.csv")}
    cfg = write_json(tmp_path / "an.json", {**tables, "drop_flagged": True})
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--out", str(out)) == 0
    report = json.load(open(out / "analysis_report.json"))
    assert report["dropped_flagged_rows"] is True
    assert report["flagged_rows"] == []
    assert all(pt["p_spdc_pW"] != 70.0 for pt in report["gamma"])

    # only a JSON boolean switches it: the string "no" is truthy
    cfg = write_json(tmp_path / "an.json", {**tables, "drop_flagged": "no"})
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "'drop_flagged' must be true or false" in capsys.readouterr().err


def test_analyze_missing_table_exits_2(tmp_path):
    cfg = write_json(tmp_path / "an.json", {
        "solvent_csv": "/no/such.csv",
        "sample_csv": config_path("rate_table_sample.csv"),
    })
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "o")) == 2


def test_simulate_matches_golden_fixture(tmp_path):
    """Frozen first run (seed 42, reference chain, 7 uW): the summary must
    stay byte-identical across releases."""
    golden = os.path.join(os.path.dirname(__file__), "data",
                          "golden_count_summary_seed42.json")
    out = tmp_path / "out"
    assert run("simulate", "--config", config_path("paper_chain.json"),
               "--out", str(out), "--seed", "42") == 0
    assert open(out / "count_summary.json", "rb").read() == open(golden, "rb").read()
