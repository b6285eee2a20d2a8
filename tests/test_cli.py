import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spdclab import cli, counting

from conftest import jsa_outputs_reference, src_env

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
DATA = os.path.join(os.path.dirname(__file__), "data")


def config_path(name):
    return os.path.abspath(os.path.join(CONFIGS, name))


def run(*argv):
    return cli.main(list(argv))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


SMALL_JSA = {
    "crystal": {"length_mm": 20.0, "poling_period_um": 2.72,
                "temperature_C": 59.4, "calibration_offset_C": 49.0975327},
    "lambda_p_nm": 405.0,
    "pump_fwhm_nm": 0.01,
    "grid": {"n": 256, "half_span_nm": 60.0},
    "fiber_beta_fs2": 33000.0,
}


# ---------------------------------------------------------------------------
# exit codes

def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    out = tmp_path / "o3"
    rc = run("tuning-curve", "--config", "/no/such/file.json", "--out", str(out))
    assert rc == 2
    assert "/no/such/file.json" in capsys.readouterr().err
    assert not out.exists()  # --out is created only once the config passed


def test_unreadable_input_exits_2_and_names_path(tmp_path, capsys):
    adir = tmp_path / "adir"
    adir.mkdir()
    assert run("tuning-curve", "--config", str(adir), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"spdclab: cannot read {adir}: ")
    cfg = write_json(tmp_path / "an.json", {
        "solvent_csv": str(adir), "sample_csv": config_path("rate_table_sample.csv")})
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spdclab: cannot read {adir}: ") and err.count("\n") == 1


PAPER_TUNING = load_json(config_path("paper_tuning.json"))
PAPER_JSA = load_json(config_path("paper_jsa.json"))
PAPER_SCENARIO = load_json(config_path("paper_scenario.json"))
PAPER_CHAIN = load_json(config_path("paper_chain.json"))


def crystal_with(**changes):
    return {**SMALL_JSA, "crystal": {**SMALL_JSA["crystal"], **changes}}


def chain_with(part, **changes):
    return {**PAPER_CHAIN, part: {**PAPER_CHAIN[part], **changes}}


@pytest.mark.parametrize("command, config, message", [
    pytest.param("jsa", crystal_with(length_mm="20"), "'crystal.length_mm' must be a number",
                 id="jsa-length_mm-string"),
    pytest.param("jsa", crystal_with(length_mm=True), "'crystal.length_mm' must be a number",
                 id="jsa-length_mm-true"),
    pytest.param("jsa", {**SMALL_JSA, "grid": {"n": 1024.5}}, "'grid.n' must be a whole number",
                 id="jsa-grid.n-fraction"),
    pytest.param("jsa", {**SMALL_JSA, "lambda_p_nm": None}, "'lambda_p_nm' must be a number",
                 id="jsa-lambda_p_nm-null"),
    pytest.param("jsa", {**SMALL_JSA, "crystal": [1]}, "'crystal' must be a JSON object",
                 id="jsa-crystal-list"),
    pytest.param("jsa", {**SMALL_JSA, "grid": 5}, "'grid' must be a JSON object",
                 id="jsa-grid-number"),
    # the grid is centred on 2 * lambda_p_nm; its centre is not a key
    pytest.param("jsa", {**SMALL_JSA, "grid": {"n": 256, "center_lambda_nm": 810.0}},
                 "unexpected key 'grid.center_lambda_nm'", id="jsa-grid.center_lambda_nm"),
    pytest.param("jsa", {**SMALL_JSA, "pump_fwhm": 0.05},
                 "'pump_fwhm' is missing its unit suffix (expected 'pump_fwhm_nm')",
                 id="jsa-pump_fwhm-typo"),
    pytest.param("tuning-curve", {**PAPER_TUNING, "grid": "31"}, "'grid' must be a whole number",
                 id="tuning-grid-string"),
    pytest.param("tuning-curve", {**PAPER_TUNING, "grid": 0}, "'grid' must be a whole number >= 1",
                 id="tuning-grid-zero"),
    pytest.param("tuning-curve", {**PAPER_TUNING, "theta_range_C": 50},
                 "'theta_range_C' must be a list of two numbers",
                 id="tuning-theta_range_C-number"),
    pytest.param("tuning-curve", {**PAPER_TUNING, "theta_range_C": [45.0, 60.0, 75.0]},
                 "'theta_range_C' must be a list of two numbers", id="tuning-theta_range_C-three"),
    pytest.param("tuning-curve", {**PAPER_TUNING, "measured_degeneracy_C": None},
                 "'measured_degeneracy_C' must be a number",
                 id="tuning-measured_degeneracy_C-null"),
    pytest.param("analyze", {"solvent_csv": 3, "sample_csv": "s.csv"},
                 "'solvent_csv' must be a string", id="analyze-solvent_csv-number"),
    pytest.param("etpa-report", [PAPER_SCENARIO], "the config must be a JSON object",
                 id="etpa-report-list"),
    # json reads NaN and +-Infinity; a number must be finite
    pytest.param("simulate", chain_with("chain", jitter_fwhm_ns=float("nan")),
                 "'chain.jitter_fwhm_ns' must be a number, got nan", id="simulate-jitter-nan"),
    pytest.param("simulate", chain_with("chain", coincidence_window_ns=float("inf")),
                 "'chain.coincidence_window_ns' must be a number, got inf",
                 id="simulate-window-inf"),
    pytest.param("simulate", chain_with("chain", dark_rate_hz=float("nan")),
                 "'chain.dark_rate_hz' must be a number, got nan", id="simulate-dark-nan"),
    pytest.param("simulate", chain_with("source", pump_power_uW=float("nan")),
                 "'source.pump_power_uW' must be a number, got nan", id="simulate-power-nan"),
    pytest.param("tuning-curve", {**PAPER_TUNING, "measured_degeneracy_C": float("nan")},
                 "'measured_degeneracy_C' must be a number, got nan",
                 id="tuning-measured_degeneracy_C-nan"),
    pytest.param("tuning-curve", {**PAPER_TUNING, "theta_range_C": [45.0, float("-inf")]},
                 "'theta_range_C' must be a list of two numbers", id="tuning-theta_range_C-inf"),
    pytest.param("simulate", chain_with("chain", topology="triple"),
                 "'chain.topology' must be 'pair' or 'heralded', got 'triple'",
                 id="simulate-topology-triple"),
    pytest.param("jsa", {**SMALL_JSA, "measured_axis_units": "um"},
                 "'measured_axis_units' must be 'nm' or 'rad/s', got 'um'",
                 id="jsa-measured_axis_units-um"),
])
def test_mistyped_config_exits_2_naming_the_key(tmp_path, capsys, command, config, message):
    cfg = write_json(tmp_path / "c.json", config)
    out = tmp_path / "out"
    assert run(command, "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spdclab: --config {cfg}: ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_invalid_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path)) == 2


def test_etpa_report_invalid_json_exits_2_and_names_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("etpa-report", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert f"--config {bad} is not valid JSON" in capsys.readouterr().err


def test_integer_past_the_digit_limit_is_invalid_json(tmp_path, capsys):
    # json raises a plain ValueError past Python's limit on int string conversion
    bad = tmp_path / "big.json"
    bad.write_text('{"pair_rate_per_s": ' + "1" * 5001 + "}")
    assert run("etpa-report", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spdclab: --config {bad} is not valid JSON: ") and err.count("\n") == 1


def test_out_that_cannot_be_created_exits_2_saying_write(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run("tuning-curve", "--config", config_path("paper_tuning.json"),
               "--out", str(afile)) == 2
    assert capsys.readouterr().err == f"spdclab: cannot write {afile}: File exists\n"


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize("reader", ["config", "rate_table", "measured_jsi", "material_file"])
def test_non_utf8_input_exits_2_naming_the_path(tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    command, config = {
        "config": ("tuning-curve", None),
        "rate_table": ("analyze", {"solvent_csv": str(bad),
                                   "sample_csv": config_path("rate_table_sample.csv")}),
        "measured_jsi": ("jsa", {**SMALL_JSA, "measured_jsi_csv": str(bad)}),
        "material_file": ("tuning-curve", {**PAPER_TUNING, "crystal": {
            **PAPER_TUNING["crystal"], "material_file": str(bad)}}),
    }[reader]
    cfg = str(bad) if config is None else write_json(tmp_path / "c.json", config)
    assert run(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        f"spdclab: cannot read {bad}: not UTF-8 (invalid start byte)\n")


def test_bad_material_file_names_its_path_and_line(tmp_path, capsys):
    bad = tmp_path / "material.txt"
    bad.write_text("material: x\nthis has no sep\n")
    cfg = write_json(tmp_path / "c.json", {**PAPER_TUNING, "crystal": {
        **PAPER_TUNING["crystal"], "material_file": str(bad)}})
    assert run("tuning-curve", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"spdclab: {bad} line 2: expected 'key: value': 'this has no sep'\n")


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


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # numpy's generators take seeds >= 0 only; argparse refuses the rest
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--config", config_path("paper_chain.json"),
            "--out", str(tmp_path / "o"), "--seed", "-1")
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_refused_allocation_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    from spdclab import biphoton

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000, 1000000) and data type float64")

    monkeypatch.setattr(biphoton, "build_jsa", refuse)
    cfg = write_json(tmp_path / "jsa.json", SMALL_JSA)
    assert run("jsa", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err == ("spdclab: out of memory: Unable to allocate 7.28 TiB for an array with "
                   "shape (1000000, 1000000) and data type float64\n")


@pytest.mark.parametrize("command, config, message", [
    ("tuning-curve", {**PAPER_TUNING, "grid": 10 ** 20},
     "grid 100000000000000000000 makes a 100000000000000000000 x 500 dk scan"),
    ("jsa", {**PAPER_JSA, "grid": {"n": 10 ** 20}},
     "grid.n 100000000000000000000 makes a 100000000000000000000 x 100000000000000000000 "
     "matrix"),
], ids=["tuning-curve", "jsa"])
def test_grid_numpy_cannot_index_exits_1_with_one_line(tmp_path, capsys, command, config,
                                                        message):
    # numpy would refuse arrays this large before allocating anything; the
    # run refuses them before numpy is asked, naming the key and its value
    cfg = write_json(tmp_path / "c.json", config)
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"spdclab: out of memory: {message}, "
                                       "larger than numpy can index\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("lambda_p_nm, shown_um", [(-405.0, "-0.405"), (6000.0, "6")],
                         ids=["negative", "6000nm"])
def test_pump_without_idler_energy_exits_1_naming_it(tmp_path, capsys, lambda_p_nm, shown_um):
    # a pump outside the material window is named before the idler it implies
    cfg = write_json(tmp_path / "c.json", {**PAPER_TUNING, "lambda_p_nm": lambda_p_nm})
    assert run("tuning-curve", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (f"spdclab: wavelength {shown_um} um outside validity "
                                       "window [0.4, 4.0] um\n")


@pytest.mark.parametrize("command, config", [("jsa", SMALL_JSA), ("tuning-curve", PAPER_TUNING)],
                         ids=["jsa", "tuning-curve"])
@pytest.mark.parametrize("lambda_p_nm, shown_um",
                         [(0, "0"), (1e-320, "0"), (1e300, "1e+297"), (-30.0, "-0.03"),
                          (1e150, "1e+147")],
                         ids=["zero", "underflow", "overflow", "zero-grid-edge", "flat-grid"])
@pytest.mark.filterwarnings("error")
def test_pump_float_arithmetic_cannot_convert_exits_1_naming_it(tmp_path, capsys, command, config,
                                                                lambda_p_nm, shown_um):
    # 0 nm has no frequency, 1e-320 nm is 0 m, the square of 1e300 nm
    # overflows, the jsa grid around -30 nm has an edge at 2 * -30 + 60
    # = 0 nm, and around 2e150 nm its half span rounds to 0 rad/s: each
    # pump is refused by the window before it is converted, in one line,
    # with no warning and no output
    cfg = write_json(tmp_path / "c.json", {**config, "lambda_p_nm": lambda_p_nm})
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"spdclab: wavelength {shown_um} um outside validity "
                                       "window [0.4, 4.0] um\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("lambda_p_nm, theta_range, message", [
    (405.0, [100.0, 200.0], "temperature 202.4 C outside validity window [20.0, 200.0] C"),
    (6000.0, [160.0, 200.0], "temperature 209.1 C outside validity window [20.0, 200.0] C"),
    (6000.0, [100.0, 200.0], "wavelength 6 um outside validity window [0.4, 4.0] um"),
    (3000.0, [100.0, 200.0], "wavelength 4-6 um outside validity window [0.4, 4.0] um"),
    (0, [160.0, 200.0], "temperature 209.1 C outside validity window [20.0, 200.0] C"),
], ids=["later-temperature", "first-temperature", "pump", "idler", "first-temperature-zero-pump"])
def test_tuning_curve_refuses_in_scan_order(tmp_path, capsys, lambda_p_nm, theta_range,
                                            message):
    # the scan refuses its first temperature (+ the offset) before any
    # wavelength, and the other temperatures after every wavelength
    cfg = write_json(tmp_path / "c.json", {**PAPER_TUNING, "lambda_p_nm": lambda_p_nm,
                                           "theta_range_C": theta_range})
    assert run("tuning-curve", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"spdclab: {message}\n"


@pytest.mark.parametrize("lambda_p_nm, message", [
    (4000.5, "wavelength 4.001 um outside validity window [0.4, 4.0] um"),
    (3000.0, "wavelength 5.941-6.06 um outside validity window [0.4, 4.0] um"),
], ids=["pump", "grid-band"])
def test_jsa_names_the_pump_as_configured_then_the_grid_band(tmp_path, capsys, lambda_p_nm,
                                                              message):
    # a pump outside the window is named as configured; an in-window pump
    # whose grid needs pump wavelengths outside it names their span
    cfg = write_json(tmp_path / "c.json", {**PAPER_JSA, "lambda_p_nm": lambda_p_nm})
    out = tmp_path / "o"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"spdclab: {message}\n"
    assert os.listdir(out) == []


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
    scenario = load_json(config_path("paper_scenario.json"))
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
    summary = load_json(out / "tuning_summary.json")
    assert summary["theta_deg_C"] == pytest.approx(59.4, abs=1e-4)
    assert summary["theta_deg_model_C"] == pytest.approx(108.4975, abs=1e-3)
    assert summary["fitted_calibration_offset_C"] == calibration_offset
    # the config as written, without the defaults the check filled in
    assert summary["config"] == load_json(config_path("paper_tuning.json"))
    with open(out / "tuning_curve.csv") as fh:
        header = fh.readline().strip()
    assert header == "theta_C,lambda_s_nm,lambda_i_nm,branch"


def test_cli_import_does_not_load_scipy(tmp_path):
    env = src_env()
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
    assert load_json(tmp_path / "out" / "te_report.json")["measured_input"] is True


def test_etpa_report_does_not_load_numpy(tmp_path):
    env = src_env()
    code = ("import sys, spdclab.cli; rc = spdclab.cli.main(sys.argv[1:]); "
            "sys.exit(3 if 'numpy' in sys.modules else rc)")
    done = subprocess.run([sys.executable, "-c", code, "etpa-report",
                           "--config", config_path("paper_scenario.json"),
                           "--out", str(tmp_path / "out")],
                          env=env, stdout=subprocess.DEVNULL, timeout=60)
    assert done.returncode == 0


def test_analyze_does_not_load_numpy(tmp_path):
    """Without numpy, the report cannot depend on the BLAS kernel that
    OpenBLAS picks for the CPU: a forced one gives the golden bytes."""
    env = src_env(OPENBLAS_CORETYPE="Zen")
    code = ("import sys, spdclab.cli; rc = spdclab.cli.main(sys.argv[1:]); "
            "sys.exit(3 if 'numpy' in sys.modules else rc)")
    done = subprocess.run([sys.executable, "-c", code, "analyze",
                           "--config", config_path("paper_analyze.json"),
                           "--out", str(tmp_path / "out")], env=env, timeout=60)
    assert done.returncode == 0
    assert ((tmp_path / "out" / "analysis_report.json").read_bytes()
            == Path(os.path.join(DATA, "golden_analysis_report.json")).read_bytes())


def _threads_after(argv, env) -> list:
    """The exit code, the thread count and OPENBLAS_NUM_THREADS of a child
    that runs ``cli.main(argv)``, or only imports ``spdclab.cli`` when
    ``argv`` is None."""
    code = ("import os, sys, spdclab.cli\n"
            "rc = spdclab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(rc, len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    done = subprocess.run([sys.executable, "-c", code, *(argv or ())], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.split()


def _env_without_blas_threads(**variables) -> dict:
    # in-process cli.main calls of earlier tests set it in this process
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return {**env, **variables}


@pytest.fixture(scope="module")
def openblas_pool():
    """Skips unless numpy links OpenBLAS and, imported bare, starts a worker
    thread beside the main one."""
    if not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2:
        pytest.skip("needs /proc/self/task and two CPUs")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip(f"numpy links {blas.get('name')}, not OpenBLAS")
    code = "import os, numpy; print(len(os.listdir('/proc/self/task')))"
    done = subprocess.run([sys.executable, "-c", code], env=_env_without_blas_threads(),
                          capture_output=True, text=True, timeout=60, check=True)
    if int(done.stdout) <= 1:
        pytest.skip("a bare import numpy starts no BLAS worker here")


def test_cli_starts_numpy_with_one_blas_thread(tmp_path, openblas_pool):
    argv = ["tuning-curve", "--config", config_path("paper_tuning.json"), "--out", str(tmp_path)]
    assert _threads_after(argv, _env_without_blas_threads()) == ["0", "1", "1"]
    # a value the user set wins, and stays set
    env = _env_without_blas_threads(OPENBLAS_NUM_THREADS="2")
    assert _threads_after(argv, env) == ["0", "2", "2"]


def test_cli_import_leaves_the_blas_thread_count_alone():
    # a library caller keeps its BLAS pool: only cli.main sets the variable
    assert _threads_after(None, _env_without_blas_threads())[2] == "None"


# ---------------------------------------------------------------------------
# jsa

def test_jsa_small_grid(tmp_path):
    cfg = write_json(tmp_path / "jsa.json", SMALL_JSA)
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 0
    report = load_json(out / "te_report.json")
    assert report["entanglement_time_fiber_fs"] > report["entanglement_time_free_fs"]
    assert (out / "jsi.csv").exists() and (out / "jti.csv").exists()
    sidecar = load_json(out / "jsi.json")
    assert sidecar["domain"] == "spectral"


def test_jsa_beta_zero_reports_equal_times(tmp_path):
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "fiber_beta_fs2": 0.0})
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 0
    report = load_json(out / "te_report.json")
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
    report = load_json(out2 / "te_report.json")
    assert report["measured_input"] is True
    # the sidecars name the provenance: the model JSA is normalized, a
    # measured one is not
    for out, measured in ((out1, False), (out2, True)):
        for name, domain, units in (("jsi.json", "spectral", "rad/s"), ("jti.json", "temporal", "s")):
            assert load_json(out / name) == {"axis_units": units, "domain": domain,
                                                   "measured": measured, "normalized": not measured}
    # sqrt(JSI) discards the sinc sidelobe signs, so the reconstructed T_e
    # differs from the model's; it must still be finite and fiber-broadened
    assert report["entanglement_time_free_fs"] > 0
    assert report["entanglement_time_fiber_fs"] > report["entanglement_time_free_fs"]


JSA_OUTPUTS = ["jsi.csv", "jsi.json", "jti.csv", "jti.json", "te_report.json"]


def assert_jsa_outputs_equal_reference(cfg, out, ref):
    assert run("jsa", "--config", cfg, "--out", str(out)) == 0
    jsa_outputs_reference(cfg, ref)
    assert sorted(os.listdir(out)) == sorted(os.listdir(ref)) == JSA_OUTPUTS
    for name in JSA_OUTPUTS:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


@pytest.mark.parametrize("beta_fs2", [33000.0, 0.0])
def test_jsa_outputs_equal_reference(tmp_path, beta_fs2):
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "fiber_beta_fs2": beta_fs2})
    assert_jsa_outputs_equal_reference(cfg, tmp_path / "out", tmp_path / "ref")


def test_jsa_measured_outputs_equal_reference(tmp_path):
    cfg = write_json(tmp_path / "jsa.json", SMALL_JSA)
    assert run("jsa", "--config", cfg, "--out", str(tmp_path / "model")) == 0
    cfg2 = write_json(tmp_path / "jsa2.json", {**SMALL_JSA,
                                               "measured_jsi_csv": str(tmp_path / "model" / "jsi.csv"),
                                               "measured_axis_units": "rad/s"})
    assert_jsa_outputs_equal_reference(cfg2, tmp_path / "out", tmp_path / "ref")


@pytest.mark.parametrize("beta_fs2, measured", [(33000.0, False), (0.0, False), (33000.0, True)],
                         ids=["33000.0", "0.0", "measured"])
def test_jsa_peak_memory_is_two_matrices(tmp_path, monkeypatch, beta_fs2, measured):
    # n = 1024: at 512 one 65 536-value export chunk adds 0.68 of a matrix
    n = 1024
    given = {**SMALL_JSA, "fiber_beta_fs2": beta_fs2, "grid": {"n": n, "half_span_nm": 60.0}}
    cfg = write_json(tmp_path / "jsa.json", given)
    assert run("jsa", "--config", cfg, "--out", str(tmp_path / "warm")) == 0
    if measured:  # the model's own JSI read back on its angular-frequency axes
        cfg = write_json(tmp_path / "measured.json", {
            **given, "measured_jsi_csv": str(tmp_path / "warm" / "jsi.csv"),
            "measured_axis_units": "rad/s"})
        from spdclab import biphoton
        import_jsi_csv, import_peak = biphoton.import_jsi_csv, []

        def traced_import(*args, **kwargs):  # nothing large is allocated before it
            js = import_jsi_csv(*args, **kwargs)
            import_peak.append(tracemalloc.get_traced_memory()[1])
            return js

        monkeypatch.setattr(biphoton, "import_jsi_csv", traced_import)
    tracemalloc.start()
    try:
        assert run("jsa", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the real JSA (8 n^2 bytes) and the one complex buffer of to_temporal
    # (16 n^2), which it fills straight from the JSA: 1.53 x 16 n^2 measured
    # (numpy 2.4); one more shifted or phased n x n copy reads 2.0
    assert peak < 1.6 * 16 * n * n
    if measured:  # the loaded and the resampled float64 intensity
        assert import_peak[0] < 1.3 * 16 * n * n


def test_jsa_grid_that_misses_the_pump_exits_1(tmp_path, capsys):
    # the one cell of n = 1 lies at 870 nm on both axes, far off w_p / 2
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "grid": {"n": 1, "half_span_nm": 60.0}})
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == "spdclab: grid does not overlap the pump envelope\n"
    assert list(out.iterdir()) == []


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
                     {**SMALL_JSA, "grid": {"n": 64, "half_span_nm": 0.05}})
    assert run("jsa", "--config", cfg, "--out", str(tmp_path / "o")) == 1


@pytest.mark.parametrize("config, message", [
    pytest.param({**SMALL_JSA, "grid": {"n": 64, "half_span_nm": -60.0}},
                 "grid half_span_nm must be positive, got -60.0", id="half_span-negative"),
    pytest.param({**SMALL_JSA, "grid": {"n": 64, "half_span_nm": 0}},
                 "grid half_span_nm must be positive, got 0", id="half_span-zero"),
    pytest.param({**SMALL_JSA, "pump_fwhm_nm": -0.01},
                 "pump fwhm_nm must be positive, got -0.01", id="pump_fwhm-negative"),
    pytest.param({**SMALL_JSA, "pump_fwhm_nm": 0.0},
                 "pump fwhm_nm must be positive, got 0.0", id="pump_fwhm-zero"),
])
def test_jsa_nonpositive_width_exits_1_naming_it(tmp_path, capsys, config, message):
    cfg = write_json(tmp_path / "jsa.json", config)
    assert run("jsa", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"spdclab: {message}\n"
    assert not (tmp_path / "o" / "jsi.csv").exists()


@pytest.mark.filterwarnings("error")
def test_jsa_width_too_narrow_for_floats_exits_1_naming_it(tmp_path, capsys):
    # sigma_p is about 5e-288 rad/s at 1e-300 nm: its square, which the
    # pump envelope divides by, is 0 in floats
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "pump_fwhm_nm": 1e-300})
    out = tmp_path / "o"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "spdclab: pump fwhm_nm too narrow: its variance underflows to 0, got 1e-300\n")
    assert os.listdir(out) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fwhm_nm, shown", [(1e200, "1e+200"), (1e300, "1e+300")])
def test_jsa_width_too_wide_for_floats_exits_1_naming_it(tmp_path, capsys, fwhm_nm, shown):
    # sigma_p is about 5e212 rad/s at 1e200 nm, so its square is inf; at
    # 1e300 nm sigma_p itself is inf
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "pump_fwhm_nm": fwhm_nm})
    out = tmp_path / "o"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"spdclab: pump fwhm_nm too wide: its variance overflows, got {shown}\n")
    assert os.listdir(out) == []


def write_measured(path, axis_s, axis_i, intensity):
    with open(path, "w") as fh:
        fh.write("# axis_s: " + " ".join(repr(float(v)) for v in axis_s) + "\n")
        fh.write("# axis_i: " + " ".join(repr(float(v)) for v in axis_i) + "\n")
        np.savetxt(fh, intensity, delimiter=",")
    return str(path)


def test_jsa_flat_jti_exits_1_before_any_output(tmp_path, capsys):
    # one nonzero cell: the free JTI is flat, so its T_e walk fails, and
    # it runs before the first matrix is written
    axis = 2.3e15 + 1e12 * np.arange(16)
    intensity = np.zeros((16, 16))
    intensity[8, 8] = 1.0
    measured = write_measured(tmp_path / "measured.csv", axis, axis, intensity)
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "measured_jsi_csv": measured,
                                             "measured_axis_units": "rad/s"})
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "spdclab: JTI profile does not drop below half maximum inside the grid\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("half_span_nm, listing", [(60.0, []), (200.0, ["jsi.csv", "jsi.json"])],
                         ids=["free", "fiber"])
def test_jsa_te_refusal_leaves_no_matrix_it_follows_from(tmp_path, capsys, half_span_nm,
                                                         listing):
    # the paper crystal on 16 points: at 60 nm the free JTI never drops to
    # half maximum and nothing is written; at 200 nm the free T_e is found,
    # jsi.* is written, and the fiber walk fails before jti.*
    cfg = write_json(tmp_path / "jsa.json", {**PAPER_JSA,
                                             "grid": {"n": 16, "half_span_nm": half_span_nm}})
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "spdclab: JTI profile does not drop below half maximum inside the grid\n")
    assert sorted(os.listdir(out)) == listing


def test_jsa_non_uniform_axes_exit_1_before_any_output(tmp_path, capsys):
    # steps of 0.75 rad/s at 2.3e15 rad/s, where doubles are 0.5 rad/s apart:
    # the resampled axes are not uniform to UNIFORM_RTOL, and the FFT of the
    # free JTA refuses them before a matrix is written
    axis = 2.3e15 + 0.75 * np.arange(16)
    measured = write_measured(tmp_path / "measured.csv", axis, axis, np.ones((16, 16)))
    cfg = write_json(tmp_path / "jsa.json", {**SMALL_JSA, "measured_jsi_csv": measured,
                                             "measured_axis_units": "rad/s"})
    out = tmp_path / "out"
    assert run("jsa", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == "spdclab: FFT requires uniformly spaced axes\n"
    assert os.listdir(out) == []


# ---------------------------------------------------------------------------
# simulate

def test_simulate_deterministic_and_seeded(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run("simulate", "--config", config_path("paper_chain.json"),
                   "--out", str(out), "--seed", "42") == 0
        blobs.append(((out / "tags.csv").read_bytes(),
                      (out / "count_summary.json").read_bytes()))
    assert blobs[0] == blobs[1]
    summary = load_json(tmp_path / "a" / "count_summary.json")
    assert summary["seed"] == 42
    assert "config" in summary
    assert summary["raw"]["singles_per_s"]["1"] > 0
    out3 = tmp_path / "c"
    assert run("simulate", "--config", config_path("paper_chain.json"),
               "--out", str(out3), "--seed", "43") == 0
    assert (out3 / "tags.csv").read_bytes() != blobs[0][0]


def test_simulate_zero_rate(tmp_path):
    cfg = write_json(tmp_path / "chain.json", {
        "chain": {"topology": "pair"},
        "source": {"pairs_per_s_per_uW": 0.0, "pump_power_uW": 0.0},
    })
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", str(out)) == 0
    summary = load_json(out / "count_summary.json")
    assert summary["raw"]["singles_per_s"] == {"1": 0.0, "2": 0.0}


def test_simulate_heralded_populates_triples(tmp_path):
    cfg = write_json(tmp_path / "chain.json", {
        "chain": {"topology": "heralded", "integration_time_ms": 200.0},
        "source": {"pairs_per_s_per_uW": 1450.0, "pump_power_uW": 20.0},
    })
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", str(out)) == 0
    summary = load_json(out / "count_summary.json")
    assert summary["raw"]["triples_per_s"] is not None
    assert "heralded_g2" in summary


def test_simulate_over_pair_guard_exits_1(tmp_path, capsys):
    # a dead detector expects no clicks; 1e11 pairs are refused at once
    cfg = write_json(tmp_path / "chain.json", {
        "chain": {"eta_detector": 0.0, "integration_time_ms": 1000.0},
        "source": {"pairs_per_s_per_uW": 1e9, "pump_power_uW": 100.0},
    })
    assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert "expected 1e+11 pairs per window exceeds the 1e+10 run-time guard" in capsys.readouterr().err


def test_simulate_region_too_small_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # regions sized at no slots: the first block refuses, before any output
    monkeypatch.setattr(counting, "_capacity", lambda mean: 0)
    out = tmp_path / "out"
    assert run("simulate", "--config", config_path("paper_chain.json"),
               "--out", str(out), "--seed", "42") == 1
    assert capsys.readouterr().err == ("spdclab: channel 1: more clicks than the 0 slots "
                                       "sized for them\n")
    assert os.listdir(out) == []


def test_simulate_window_not_shorter_than_integration_exits_1(tmp_path, capsys):
    # (2 * 1e200 ns)**2 overflows a float; the chain refuses the window first
    cfg = write_json(tmp_path / "chain.json", {
        "chain": {**load_json(os.path.join(DATA, "heralded_chain.json"))["chain"],
                  "coincidence_window_ns": 1e200},
        "source": {"pairs_per_s_per_uW": 1450.0, "pump_power_uW": 0.01},
    })
    assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == ("spdclab: coincidence window 1e+200 ns is not shorter "
                                       "than the integration time 100.0 ms\n")


def test_simulate_unwritable_tags_exits_2_without_summary(tmp_path, capsys):
    # the dump fails on its worker; the counting beside it still ends first
    out = tmp_path / "out"
    (out / "tags.csv").mkdir(parents=True)
    assert run("simulate", "--config", config_path("paper_chain.json"),
               "--out", str(out), "--seed", "42") == 2
    assert capsys.readouterr().err == f"spdclab: cannot write {out / 'tags.csv'}: Is a directory\n"
    assert not (out / "count_summary.json").exists()


def refuse_recording_thread(threads):
    """A stand-in that records its thread and refuses an allocation."""
    def refuse(*args, **kwargs):
        threads.append(threading.current_thread())
        raise MemoryError("Unable to allocate 96.0 MiB for an array with shape (12582912,) "
                          "and data type uint8")
    return refuse


def test_simulate_refused_allocation_in_dump_exits_1_with_one_line(tmp_path, capsys,
                                                                   monkeypatch):
    from spdclab import counting

    threads = []
    monkeypatch.setattr(counting, "_render_rows", refuse_recording_thread(threads))
    out = tmp_path / "out"
    assert run("simulate", "--config", config_path("paper_chain.json"),
               "--out", str(out), "--seed", "42") == 1
    assert capsys.readouterr().err == (
        "spdclab: out of memory: Unable to allocate 96.0 MiB for an array with shape "
        "(12582912,) and data type uint8\n")
    assert threads and threading.main_thread() not in threads
    assert not (out / "count_summary.json").exists()


def test_simulate_dump_error_goes_before_counting_error(tmp_path, capsys, monkeypatch):
    # both threads fail: the dump's error is reported, as when it ran first
    from spdclab import counting

    threads = []
    monkeypatch.setattr(counting, "count_coincidences", refuse_recording_thread(threads))
    out = tmp_path / "out"
    (out / "tags.csv").mkdir(parents=True)
    assert run("simulate", "--config", config_path("paper_chain.json"),
               "--out", str(out), "--seed", "42") == 2
    assert capsys.readouterr().err == f"spdclab: cannot write {out / 'tags.csv'}: Is a directory\n"
    assert threads == [threading.main_thread()]


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
    payload = load_json(out / "etpa_report.json")
    report = payload["report"]
    assert report["entanglement_area_um2"] == pytest.approx(2.13, rel=0.02)
    assert report["R_eTPA_volume_per_s"] == pytest.approx(1.7e-7, rel=0.10)
    text = (out / "etpa_report.txt").read_text()
    assert "sigma_e" in text
    assert "sigma_e" in capsys.readouterr().out


def test_etpa_overflowing_rate_exits_1_naming_it(tmp_path, capsys):
    # 1e300 pairs/s is a finite number, but phi^2 of the classical term overflows
    cfg = write_json(tmp_path / "s.json", {**PAPER_SCENARIO, "pair_rate_per_s": 1e300})
    assert run("etpa-report", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "spdclab: R_cTPA_per_molecule_per_s must be finite, got inf\n"


def test_etpa_underflowing_area_time_exits_1_naming_it(tmp_path, capsys):
    # T_e * A_e in s cm^2 underflows to 0 for a tiny positive T_e
    cfg = write_json(tmp_path / "s.json", {**PAPER_SCENARIO, "T_e_fs": 1e-320})
    assert run("etpa-report", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "spdclab: sigma_e_cm2 must be finite, got inf\n"


def test_etpa_underflowing_entanglement_area_exits_1_naming_it(tmp_path, capsys):
    # (1.22 lambda / NA)^2 underflows to 0 um^2 for a tiny positive wavelength
    cfg = write_json(tmp_path / "s.json", {**PAPER_SCENARIO, "focus_wavelength_nm": 1e-200})
    assert run("etpa-report", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "spdclab: entanglement_area must be strictly positive, got 0.0 um^2\n")


def test_etpa_zero_flux(tmp_path):
    scenario = load_json(config_path("paper_scenario.json"))
    scenario["pair_rate_per_s"] = 0.0
    cfg = write_json(tmp_path / "s.json", scenario)
    out = tmp_path / "out"
    assert run("etpa-report", "--config", cfg, "--out", str(out)) == 0
    report = load_json(out / "etpa_report.json")["report"]
    assert report["R_eTPA_volume_per_s"] == 0.0
    assert report["R_cTPA_volume_per_s"] == 0.0


# ---------------------------------------------------------------------------
# analyze

def test_analyze_fixture_pair(tmp_path):
    out = tmp_path / "out"
    rc = run("analyze", "--config", config_path("paper_analyze.json"),
             "--out", str(out))
    assert rc == 0
    report = load_json(out / "analysis_report.json")
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
    report = load_json(out / "analysis_report.json")
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
    report = load_json(out / "analysis_report.json")
    assert report["dropped_flagged_rows"] is True
    # the flagged rows are listed as read, with or without the switch
    kept = tmp_path / "kept"
    assert run("analyze", "--config", write_json(tmp_path / "k.json", tables),
               "--out", str(kept)) == 0
    assert report["flagged_rows"] == load_json(kept / "analysis_report.json")["flagged_rows"]
    assert {f["p_spdc_pW"] for f in report["flagged_rows"]} == {70.0}
    assert all(pt["p_spdc_pW"] != 70.0 for pt in report["gamma"])

    # a table left with no rows is named, with the switch that emptied it
    table = tmp_path / "flagged.csv"
    with open(tables["solvent_csv"]) as fh:
        table.write_text(fh.readline() + "10.0,3000.0,1500.0,2800.0,16.7,12.0,1.1,pump,x\n")
    cfg = write_json(tmp_path / "an.json", {**tables, "solvent_csv": str(table),
                                            "drop_flagged": True})
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == ("spdclab: solvent table: every (P_SPDC, mode) point is "
                                       "flagged in one table or both, so drop_flagged leaves "
                                       "none\n")

    # only a JSON boolean switches it: the string "no" is truthy
    cfg = write_json(tmp_path / "an.json", {**tables, "drop_flagged": "no"})
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "'drop_flagged' must be true or false" in capsys.readouterr().err


def test_analyze_drop_flagged_removes_a_point_flagged_in_one_table(tmp_path):
    # the solvent's 10 pW pump row gets a 50 % singles error; the sample's is clean
    lines = Path(config_path("rate_table_solvent.csv")).read_text().splitlines()
    [i] = [k for k, line in enumerate(lines) if line.startswith("10.0,") and "pump" in line]
    fields = lines[i].split(",")
    fields[2] = str(0.5 * float(fields[1]))
    lines[i] = ",".join(fields)
    table = tmp_path / "solvent.csv"
    table.write_text("\n".join(lines) + "\n")
    cfg = write_json(tmp_path / "an.json", {"solvent_csv": str(table),
                                            "sample_csv": config_path("rate_table_sample.csv"),
                                            "drop_flagged": True})
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--out", str(out)) == 0
    report = load_json(out / "analysis_report.json")
    assert [f for f in report["flagged_rows"] if f["p_spdc_pW"] == 10.0] == [
        {"table": "solvent", "p_spdc_pW": 10.0, "mode": "pump", "label": "toluene"}]
    for key in ("r_abs", "gamma", "skipped"):
        assert not any(p["p_spdc_pW"] == 10.0 and p["mode"] == "pump" for p in report[key])
    # 8 rows per table and mode, less the 70 pW point and the 10 pW pump point
    n_points = {key: fit["n_points"] for key, fit in report["fits"].items()}
    assert n_points == {f"{t}.{m}.{model}": 6 if m == "pump" else 7
                        for t in ("solvent", "sample") for m in ("pump", "spdc")
                        for model in ("linear", "quadratic")}


def edit_pump_10pW_row(path, table, **cells):
    """Write the packaged rate ``table`` to ``path`` with the given cells of
    its 10 pW pump row replaced."""
    lines = Path(config_path(f"rate_table_{table}.csv")).read_text().splitlines()
    header = lines[0].split(",")
    [i] = [k for k, line in enumerate(lines) if line.startswith("10.0,") and "pump" in line]
    fields = lines[i].split(",")
    for name, value in cells.items():
        fields[header.index(name)] = value
    lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("solvent, sample, quantity", [
    ({"R_coin_err": "1e200"}, {}, "gamma_err"),
    ({"R_coin": "1e-300", "R_coin_err": "1e10"}, {}, "gamma_err"),
    ({"R_coin_err": "1.7e308"}, {"R_coin_err": "1.7e308"}, "r_abs_err"),
], ids=["square-overflows", "ratio-overflows", "hypot-overflows"])
def test_analyze_non_finite_error_exits_1_naming_the_row(tmp_path, capsys, solvent, sample,
                                                         quantity):
    # finite cells whose propagated error leaves the floats: refused in one
    # line, with no traceback and no Infinity written
    cfg = write_json(tmp_path / "an.json", {
        "solvent_csv": edit_pump_10pW_row(tmp_path / "solvent.csv", "solvent", **solvent),
        "sample_csv": edit_pump_10pW_row(tmp_path / "sample.csv", "sample", **sample)})
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"spdclab: rows at P_SPDC 10.0 pW, mode pump: {quantity} is inf, not a finite float\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("row", ["10.0,3000.0,17.3,2800.0,16.7,nan,1.1,pump,x",
                                 "inf,3000.0,17.3,2800.0,16.7,12.0,1.1,pump,x"],
                         ids=["R_coin-nan", "P_SPDC-inf"])
def test_analyze_non_finite_cell_exits_1_before_any_fit(tmp_path, capfd, row):
    with open(config_path("rate_table_solvent.csv")) as fh:
        header = fh.readline()
    table = tmp_path / "t.csv"
    table.write_text(header + row + "\n")
    cfg = write_json(tmp_path / "an.json", {
        "solvent_csv": str(table), "sample_csv": config_path("rate_table_sample.csv")})
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    captured = capfd.readouterr()  # file descriptors: LAPACK writes past sys.stderr
    assert captured.err == f"spdclab: {table} line 2: malformed number: nan or infinity\n"
    assert not captured.out
    assert not (tmp_path / "out" / "analysis_report.json").exists()


def test_analyze_bad_solvent_table_names_its_path_and_line(tmp_path, capsys):
    lines = Path(config_path("rate_table_solvent.csv")).read_text().splitlines()
    lines.insert(4, "10.0,3000.0,17.3")
    (tmp_path / "solvent.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "sample.csv").write_text(Path(config_path("rate_table_sample.csv")).read_text())
    cfg = write_json(tmp_path / "an.json", {"solvent_csv": "solvent.csv",
                                            "sample_csv": "sample.csv"})
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"spdclab: {tmp_path / 'solvent.csv'} line 5: expected 9 fields, got 3\n")


def test_analyze_field_past_csv_limit_names_its_path_and_line(tmp_path, capsys):
    lines = Path(config_path("rate_table_solvent.csv")).read_text().splitlines()
    lines[1] = "1" * 200_000 + lines[1][lines[1].index(","):]
    (tmp_path / "solvent.csv").write_text("\n".join(lines) + "\n")
    cfg = write_json(tmp_path / "an.json", {
        "solvent_csv": "solvent.csv", "sample_csv": config_path("rate_table_sample.csv")})
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (f"spdclab: {tmp_path / 'solvent.csv'} line 2: "
                                       "field larger than field limit (131072)\n")


def test_analyze_missing_table_exits_2(tmp_path):
    cfg = write_json(tmp_path / "an.json", {
        "solvent_csv": "/no/such.csv",
        "sample_csv": config_path("rate_table_sample.csv"),
    })
    assert run("analyze", "--config", cfg, "--out", str(tmp_path / "o")) == 2
