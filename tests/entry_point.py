"""spdclab's entry-point cases: one child process per case, checked for its
exit code, its stderr and its outputs.  Every case runs, each failing one is
named, and the exit code is 1 if any failed.  Stdlib only, and not a pytest
module, so that it runs where only the runtime dependencies are installed:

    python tests/entry_point.py spdclab                 # the installed script
    python tests/entry_point.py python -m spdclab.cli   # src on PYTHONPATH
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "tests", "data")
TAGS = "golden_tags_seed42.sha256"

# A case runs ``<command> <args> --config <config> --out <work>/<name>`` in
# the repo, stdout discarded.  "config" (in the repo) takes "edits" (dotted
# key -> value; a string may name "{work}" or "{repo}") and "files" (name in
# work -> (source, old text, new text)).  "env" adds variables; the others
# run at spdclab's own BLAS default.  "one_cpu" pins one CPU.  "exit" (0)
# and "stderr" ("") are exact.  An output may equal a "golden" of tests/data,
# a "golden_json" (golden, edits), its "sha256" line in TAGS or a "json"
# object (... for any value); "same_as" names an earlier case whose --out
# must match file for file, and "empty" asks that --out stay empty (or
# not be made).


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def jsa_json(measured, te_free_fs, te_fiber_fs):
    """The sidecars and te_report.json of a jsa run."""
    def sidecar(domain, units):
        return {"axis_units": units, "domain": domain, "measured": measured,
                "normalized": not measured}
    return {"jsi.json": sidecar("spectral", "rad/s"), "jti.json": sidecar("temporal", "s"),
            "te_report.json": {"config": ..., "entanglement_time_fiber_fs": te_fiber_fs,
                               "entanglement_time_free_fs": te_free_fs, "fiber_beta_fs2": 33000.0,
                               "measured_input": measured}}


def refusal(name, base, edits, message):
    """A run of ``base`` edited that exits 1 with one line and writes nothing."""
    return {"name": name, "config": base["config"], "args": base["args"], "edits": edits,
            "exit": 1, "stderr": f"spdclab: {message}\n", "empty": True}


# each paper config, which runs without a line on stderr
TUNING, JSA, CHAIN, SCENARIO, ANALYZE = PAPER = [
    {"name": "paper_tuning", "config": "configs/paper_tuning.json", "args": ["tuning-curve"],
     "golden": {"tuning_summary.json": "golden_tuning_summary.json",
                "tuning_curve.csv": "golden_tuning_curve.csv"}},
    {"name": "paper_jsa", "config": "configs/paper_jsa.json", "args": ["jsa"],
     "json": jsa_json(False, 133.25411103674415, 2572.5833179620568),
     "sha256": {"jsi.csv": "paper_jsa/jsi.csv", "jti.csv": "paper_jsa/jti.csv"}},
    {"name": "paper_chain", "config": "configs/paper_chain.json",
     "args": ["simulate", "--seed", "42"],
     "golden": {"count_summary.json": "golden_count_summary_seed42.json"},
     "sha256": {"tags.csv": "paper_chain/tags.csv"}},
    {"name": "paper_scenario", "config": "configs/paper_scenario.json", "args": ["etpa-report"]},
    {"name": "paper_analyze", "config": "configs/paper_analyze.json", "args": ["analyze"],
     "golden": {"analysis_report.json": "golden_analysis_report.json"}},
]
HERALDED = {**CHAIN, "name": "heralded_chain", "config": "tests/data/heralded_chain.json",
            "golden": {"count_summary.json": "golden_count_summary_heralded_seed42.json"},
            "sha256": {"tags.csv": "heralded_chain/tags.csv"}}
OUT_OF_WINDOW = "wavelength {} um outside validity window [0.4, 4.0] um"
UNINDEXABLE = "out of memory: {} makes a {}, larger than numpy can index"
BIG = 10 ** 20

CASES = [
    *PAPER,
    # spdclab starts numpy on one BLAS thread unless the variable is set;
    # set to 4, every output keeps its bytes
    *({**case, "name": case["name"] + "_blas_threads_4", "env": {"OPENBLAS_NUM_THREADS": "4"},
       "same_as": case["name"]} for case in PAPER),
    HERALDED,
    # on one CPU the heralded chain's two blocks, routed on two threads,
    # give the same bytes
    {**HERALDED, "name": "one_cpu_heralded_chain", "one_cpu": True},
    # the pair chain at 800 uW: about 116 k pairs, routed in two runs
    {"name": "paper_chain_800uW", "config": CHAIN["config"], "args": CHAIN["args"],
     "edits": {"source.pump_power_uW": 800}, "sha256": {"tags.csv": "paper_chain_800uW/tags.csv"}},
    # analyze imports no numpy, so the BLAS kernel chosen for the CPU
    # cannot change its bytes
    {**ANALYZE, "name": "paper_analyze_zen", "env": {"OPENBLAS_CORETYPE": "Zen"}},
    # the measured-JSI path, whose resampler needs no scipy: the model's own
    # jsi.csv read back on its angular-frequency axes
    {**JSA, "name": "measured_jsa", "json": jsa_json(True, 70.69120459469868, 2589.4441928452325),
     "sha256": {"jsi.csv": "measured_jsa/jsi.csv", "jti.csv": "measured_jsa/jti.csv"},
     "edits": {"measured_jsi_csv": "{work}/paper_jsa/jsi.csv", "measured_axis_units": "rad/s"}},
    # a crystal held at 10 C or 200 C is at that + 49.1 C inside, where
    # tuning-curve never evaluates: its curve and summary are the paper
    # config's but for the echoed config
    *({**TUNING, "name": name, "edits": {"crystal.temperature_C": temperature_C},
       "golden": {"tuning_curve.csv": "golden_tuning_curve.csv"},
       "golden_json": {"tuning_summary.json": ("golden_tuning_summary.json",
                                               {"config.crystal.temperature_C": temperature_C})}}
      for name, temperature_C in (("cold_tuning", 10), ("hot_tuning", 200))),
    # jsa does evaluate there, and refuses before any array
    refusal("hot_jsa", JSA, {"crystal.temperature_C": 200},
            "temperature 249.1 C outside validity window [20.0, 200.0] C"),
    # a 400 nm pump: the curve has rows, but the degenerate pair never
    # phase-matches; both solves run before either file is written
    refusal("no_phase_matching", TUNING,
            {"lambda_p_nm": 400.0, "theta_range_C": [20.0, 150.0], "grid": 53},
            "no phase matching in range: dk(theta) has no sign change on "
            "[20.00, 200.00] C (500 scan points)"),
    # a grid whose largest array numpy cannot index, refused before numpy
    # is asked
    refusal("big_tuning", TUNING, {"grid": BIG},
            UNINDEXABLE.format(f"grid {BIG}", f"{BIG} x 500 dk scan")),
    refusal("big_jsa", JSA, {"grid": {"n": BIG}},
            UNINDEXABLE.format(f"grid.n {BIG}", f"{BIG} x {BIG} matrix")),
    # an R_coin_err of 1e200, whose relative square overflows
    {**refusal("overflow_analyze", ANALYZE, {"solvent_csv": "{work}/overflow_solvent.csv",
                                             "sample_csv": "{repo}/configs/rate_table_sample.csv"},
               "rows at P_SPDC 10.0 pW, mode pump: gamma_err is inf, not a finite float"),
     "files": {"overflow_solvent.csv": ("configs/rate_table_solvent.csv",
                                        "12.0,1.095445,pump", "12.0,1e200,pump")}},
    # a 0 nm pump has no frequency
    refusal("zero_pump_paper_jsa", JSA, {"lambda_p_nm": 0}, OUT_OF_WINDOW.format("0")),
    refusal("zero_pump_paper_tuning", TUNING, {"lambda_p_nm": 0}, OUT_OF_WINDOW.format("0")),
    # a 1e150 nm pump, whose jsa grid would have no width, and a pump width
    # whose variance underflows to 0 or overflows
    refusal("flat_grid_jsa", JSA, {"lambda_p_nm": 1e150}, OUT_OF_WINDOW.format("1e+147")),
    refusal("narrow_pump_jsa", JSA, {"pump_fwhm_nm": 1e-300},
            "pump fwhm_nm too narrow: its variance underflows to 0, got 1e-300"),
    refusal("wide_pump_jsa", JSA, {"pump_fwhm_nm": 1e300},
            "pump fwhm_nm too wide: its variance overflows, got 1e+300"),
    # a measured JSI without its two "# axis" header rows
    refusal("headerless_measured_jsa", JSA,
            {"measured_jsi_csv": "{repo}/configs/rate_table_solvent.csv"},
            "matrix CSV must start with two axis header rows"),
    # a chain without pairs: no herald has a partner, so g2 is undefined
    # and noted, not refused
    {"name": "no_pump_heralded_chain", "config": HERALDED["config"], "args": CHAIN["args"],
     "edits": {"source.pump_power_uW": 0},
     "json": {"count_summary.json": {
         "config": ..., "seed": 42, "raw": ..., "corrected": ..., "heralded_g2": None,
         "heralded_g2_note": "zero denominator in g2: R_h=130.0, R_h1=0.0, R_h2=0.0"}}},
    # a seed that is not a whole number, refused before --out is made
    {"name": "word_seed", "config": CHAIN["config"], "args": ["simulate", "--seed", "abc"],
     "exit": 2,
     "stderr": "usage: spdclab simulate [-h] --config CONFIG [--out OUT] [--seed SEED]\n"
               "spdclab simulate: error: argument --seed: invalid int value: 'abc'\n",
     "empty": True},
    refusal("no_time_chain", HERALDED, {"chain.integration_time_ms": 0},
            "integration time must be positive"),
    refusal("negative_dark_chain", HERALDED, {"chain.dark_rate_hz": -1.0},
            "dark rate and jitter must be nonnegative"),
    refusal("no_focus_scenario", SCENARIO, {"focus_wavelength_nm": 0},
            "wavelength must be positive"),
    refusal("no_sample_scenario", SCENARIO, {"mass_concentration_mg_per_mL": 0},
            "mass concentration and molar mass must be positive"),
    # an R_coin_err of 0 among nonzero ones: the solvent pump fits cannot
    # weigh their rows and report why in place of their numbers
    {"name": "mixed_errors_analyze", "config": ANALYZE["config"], "args": ANALYZE["args"],
     "edits": {"solvent_csv": "{work}/mixed_solvent.csv",
               "sample_csv": "{repo}/configs/rate_table_sample.csv"},
     "files": {"mixed_solvent.csv": ("configs/rate_table_solvent.csv",
                                     "12.0,1.095445,pump", "12.0,0,pump")},
     "json": {"analysis_report.json": {
         "config": ..., "dropped_flagged_rows": False, "flagged_rows": ..., "gamma": ...,
         "r_abs": ..., "skipped": ...,
         "fits": {**{f"{table}.{mode}.{model}": ... for table in ("solvent", "sample")
                     for mode in ("pump", "spdc") for model in ("linear", "quadratic")},
                  **dict.fromkeys(("solvent.pump.linear", "solvent.pump.quadratic"), {
                      "error": "mixed zero and nonzero uncertainties; "
                               "cannot form consistent weights"})}}}},
]


def matches(value, expected):
    if isinstance(expected, dict):
        return (isinstance(value, dict) and value.keys() == expected.keys()
                and all(matches(value[key], e) for key, e in expected.items()))
    return expected is ... or (type(value) is type(expected) and value == expected)


def outputs(out):
    return {name: read(os.path.join(out, name)) for name in os.listdir(out)}


def edited(path, edits, work=None):
    """The JSON object of ``path`` with ``edits`` made."""
    config = json.loads(read(path))
    for key, value in edits.items():
        *parents, last = key.split(".")
        table = config
        for parent in parents:
            table = table[parent]
        table[last] = value.format(work=work, repo=REPO) if isinstance(value, str) else value
    return config


def config_of(case, work):
    """The config path of ``case``, written to ``work`` when edited."""
    if "edits" not in case:
        return os.path.join(REPO, case["config"])
    for name, (source, old, new) in case.get("files", {}).items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(read(os.path.join(REPO, source)).decode().replace(old, new))
    path = os.path.join(work, case["name"] + ".json")
    with open(path, "w") as fh:
        json.dump(edited(os.path.join(REPO, case["config"]), case["edits"], work), fh)
    return path


def problems(command, case, work):
    """What ``case`` got wrong, one string per failed check."""
    out = os.path.join(work, case["name"])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    cpu = min(os.sched_getaffinity(0)) if case.get("one_cpu") else None
    done = subprocess.run(
        [*command, *case["args"], "--config", config_of(case, work), "--out", out],
        cwd=REPO, env={**env, **case.get("env", {})}, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, errors="replace", timeout=300,
        preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}))
    if done.returncode != case.get("exit", 0):
        yield f"exit {done.returncode}, expected {case.get('exit', 0)}"
    if done.stderr != case.get("stderr", ""):
        yield f"stderr {done.stderr!r}, expected {case.get('stderr', '')!r}"
    files = outputs(out) if os.path.isdir(out) else {}  # a usage error makes no --out
    if case.get("empty") and files:
        yield f"--out holds {sorted(files)}"
    for name, golden in case.get("golden", {}).items():
        if files.get(name) != read(os.path.join(DATA, golden)):
            yield f"{name} is not {golden}"
    tags = read(os.path.join(DATA, TAGS)).decode().split()  # digest, name, digest, ...
    digests = dict(zip(tags[1::2], tags[::2]))
    for name, key in case.get("sha256", {}).items():
        if hashlib.sha256(files[name]).hexdigest() != digests[key]:
            yield f"{name} is not {key} of {TAGS}"
    for name, (golden, edits) in case.get("golden_json", {}).items():
        if not matches(json.loads(files[name]), edited(os.path.join(DATA, golden), edits)):
            yield f"{name} is not {golden} with {edits}"
    for name, expected in case.get("json", {}).items():
        if not matches(json.loads(files[name]), expected):
            yield f"{name} is not {expected}"
    if "same_as" in case and files != outputs(os.path.join(work, case["same_as"])):
        yield f"--out is not {case['same_as']}'s"


def run(command, cases, work) -> int:
    """Run each case in ``work`` and print one line for it; 1 if any failed."""
    failed = 0
    for case in cases:
        found = []
        try:
            found.extend(problems(command, case, work))  # keeps what came before a raise
        except (OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
            # a missing or unreadable output, a timeout: the case fails, the run goes on
            found.append(f"{type(exc).__name__}: {exc}")
        failed += bool(found)
        print(f"FAIL {case['name']}: " + "; ".join(found) if found else f"ok   {case['name']}")
    print(f"{failed} of {len(cases)} cases failed")
    return int(failed > 0)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        sys.exit(run(sys.argv[1:], CASES, work))
