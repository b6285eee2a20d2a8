"""The four benchmark workloads: input generation, CLI invocations and
output checks.

Every invocation runs with the workload's work directory as its current
directory and names its inputs and outputs by relative path, so the bytes
it writes (configs are echoed into the JSON outputs) do not depend on where
the checkout lives.  That keeps the output digests comparable between two
commits.
"""

from __future__ import annotations

import json
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OUT = "out"          # per-invocation output directory, relative to the work dir
INPUTS = "inputs"    # generated inputs, relative to the work dir

# Converged 1D continuous-wave entanglement times at the paper parameters
# (20 mm, 2.72 um, 405 nm, 0.01 nm pump), free and after beta = 3.3e4 fs^2.
TE_FREE_CW_FS = 134.07
TE_FIBER_CW_FS = 2572.85
TE_REL_TOL = 0.01

# Heralded Monte Carlo workload (full size).
HERALDED_POWER_UW = 800.0
HERALDED_TIME_MS = 4000.0
HERALDED_WINDOW_NS = 5.0

CLOSURE_SIGMAS = 5.0
GOLDEN_SEED = 42
THETA_TOL_C = 1e-6


class CheckFailed(Exception):
    """An output violates the workload's expectation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Context:
    """What a check may consult besides the outputs."""

    root: Path
    seed: int


@dataclass(frozen=True)
class Invocation:
    """One ``spdclab`` call and the check of what it wrote to ``out/``."""

    label: str
    argv: tuple
    check: Callable[[Path, Context], None]


@dataclass(frozen=True)
class Workload:
    """A workload; why each exists is in BENCHMARK.json and bench/README.md."""

    name: str
    generate: Callable[[Path, Path, int, bool], None]   # (inputs, root, seed, tiny)
    invocations: Callable[[int, bool], list]              # (seed, tiny) -> [Invocation]
    seed_used: bool = True


def _load_json(path: Path) -> dict:
    require(path.is_file(), f"missing output {path.name}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name} is not valid JSON: {exc}") from None


def _finite(value, name: str) -> float:
    require(isinstance(value, (int, float)) and math.isfinite(value),
            f"{name} is not a finite number: {value!r}")
    return float(value)


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _copy_config(root: Path, inputs: Path, name: str) -> None:
    src = root / "configs" / name
    if not src.is_file():
        raise FileNotFoundError(f"paper config {src} not found")
    shutil.copyfile(src, inputs / name)


# ---------------------------------------------------------------------------
# jsa workloads

def _check_matrix_pair(out: Path, stem: str, domain: str) -> None:
    csv_path = out / f"{stem}.csv"
    require(csv_path.is_file() and csv_path.stat().st_size > 0, f"missing output {stem}.csv")
    with open(csv_path) as fh:
        head = [fh.readline() for _ in range(3)]
    require(head[0].startswith("# axis_s:") and head[1].startswith("# axis_i:"),
            f"{stem}.csv lacks its axis header rows")
    n_axis = len(head[0].split(":", 1)[1].split())
    require(len(head[2].split(",")) == n_axis,
            f"{stem}.csv: first matrix row has {len(head[2].split(','))} columns, "
            f"axis header {n_axis}")
    sidecar = _load_json(out / f"{stem}.json")
    require(sidecar.get("domain") == domain, f"{stem}.json domain is {sidecar.get('domain')!r}")


def _te_report(out: Path) -> tuple:
    report = _load_json(out / "te_report.json")
    free = _finite(report.get("entanglement_time_free_fs"), "entanglement_time_free_fs")
    fiber = _finite(report.get("entanglement_time_fiber_fs"), "entanglement_time_fiber_fs")
    _check_matrix_pair(out, "jsi", "spectral")
    _check_matrix_pair(out, "jti", "temporal")
    return report, free, fiber


def check_jsa_paper(out: Path, ctx: Context) -> None:
    report, free, fiber = _te_report(out)
    require(report.get("measured_input") is False, "te_report says measured_input")
    for value, ref, name in ((free, TE_FREE_CW_FS, "free"), (fiber, TE_FIBER_CW_FS, "fiber")):
        require(abs(value - ref) <= TE_REL_TOL * ref,
                f"{name} T_e {value:.3f} fs is not within {TE_REL_TOL:.0%} of the "
                f"converged 1D-CW value {ref} fs")


def check_jsa_measured(out: Path, ctx: Context) -> None:
    report, free, fiber = _te_report(out)
    require(report.get("measured_input") is True, "te_report does not say measured_input")
    require(free > 0, f"free T_e {free} fs is not positive")
    require(fiber > free, f"fiber T_e {fiber:.3f} fs is not above free T_e {free:.3f} fs")


def gen_jsa_paper(inputs: Path, root: Path, seed: int, tiny: bool) -> None:
    # No smaller grid resolves the fiber-broadened JTI, so tiny is full size.
    _copy_config(root, inputs, "paper_jsa.json")


def inv_jsa(config: str, check) -> list:
    return [Invocation("jsa", ("jsa", "--config", f"{INPUTS}/{config}", "--out", OUT), check)]


# A spectrometer records the JSI on axes uniform in wavelength, blurred by its
# resolution; the model below is the type-0 degenerate JSI with that blur
# along the energy-conservation axis and a quadratic phase mismatch along the
# difference axis.  The constants are harness-local so that the generated
# counts do not change when the program under test changes.
MEASURED_CENTER_NM = 810.0
MEASURED_HALF_SPAN_NM = 60.0
MEASURED_RESOLUTION_NM = 0.5     # spectrometer FWHM, per arm
MEASURED_GVD_S2_PER_M = 3.5e-25  # LN group-velocity dispersion near 810 nm
MEASURED_LENGTH_M = 20e-3
MEASURED_PEAK_COUNTS = 2000.0
TWO_PI_C = 2.0 * math.pi * 299792458.0  # rad m / s


def measured_jsi_counts(n: int, seed: int):
    """(wavelength axis in nm, Poisson counts[n, n]) of the modelled JSI."""
    lam = np.linspace(MEASURED_CENTER_NM - MEASURED_HALF_SPAN_NM,
                      MEASURED_CENTER_NM + MEASURED_HALF_SPAN_NM, n)
    omega = TWO_PI_C / (lam * 1e-9)
    w_s, w_i = np.meshgrid(omega, omega, indexing="ij")
    omega_p = 2.0 * TWO_PI_C / (MEASURED_CENTER_NM * 1e-9)
    res_omega = TWO_PI_C * MEASURED_RESOLUTION_NM * 1e-9 / (MEASURED_CENTER_NM * 1e-9) ** 2
    sigma_sum = res_omega / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    pump = np.exp(-((w_s + w_i - omega_p) ** 2) / (2.0 * sigma_sum ** 2))
    detune = 0.5 * (w_s - w_i)
    phase = 0.5 * MEASURED_GVD_S2_PER_M * MEASURED_LENGTH_M * detune ** 2
    model = pump * np.sinc(phase / math.pi) ** 2
    counts = np.random.default_rng(seed).poisson(MEASURED_PEAK_COUNTS * model)
    return lam, counts


def gen_jsa_measured(inputs: Path, root: Path, seed: int, tiny: bool) -> None:
    lam, counts = measured_jsi_counts(256 if tiny else 1024, seed)
    axis = " ".join(f"{v:.12e}" for v in lam)
    with open(inputs / "measured_jsi.csv", "w") as fh:
        fh.write(f"# axis_s: {axis}\n# axis_i: {axis}\n")
        np.savetxt(fh, counts, fmt="%d", delimiter=",")
    cfg = json.loads((root / "configs" / "paper_jsa.json").read_text())
    cfg["measured_jsi_csv"] = f"{INPUTS}/measured_jsi.csv"
    cfg["measured_axis_units"] = "nm"
    _write_json(cfg, inputs / "measured_jsa.json")


# ---------------------------------------------------------------------------
# Monte Carlo workloads

def expected_raw_coincidences(cfg: dict, a: str, b: str) -> float:
    """Expected raw a-b coincidence rate in 1/s: the chain's efficiency
    bookkeeping plus accidentals 2 R_a R_b tau."""
    chain, source = cfg["chain"], cfg["source"]
    pairs = source["pairs_per_s_per_uW"] * source["pump_power_uW"] * chain["eta_coupling"]
    port = chain["eta_insertion"] * chain["eta_detector"]
    if chain["topology"] == "pair":
        per_photon = {"1": port, "2": port}
        true = pairs * port * port
    else:
        # each photon independently: 1/2 to the herald behind one coupler,
        # 1/4 to each of arms 1 and 2 behind two
        two = chain["eta_insertion"] ** 2 * chain["eta_detector"]
        per_photon = {"h": 0.5 * port, "1": 0.25 * two, "2": 0.25 * two}
        true = pairs * 2.0 * per_photon[a] * per_photon[b]
    singles = {k: pairs * (1.0 if chain["topology"] == "pair" else 2.0) * p + chain["dark_rate_hz"]
               for k, p in per_photon.items()}
    tau = chain["coincidence_window_ns"] * 1e-9
    return true + 2.0 * singles[a] * singles[b] * tau


def _check_closure(summary: dict, cfg: dict, a: str, b: str) -> None:
    t_s = cfg["chain"]["integration_time_ms"] * 1e-3
    key = f"{min(a, b)}-{max(a, b)}"
    measured = _finite(summary["raw"]["coincidences_per_s"].get(key), f"raw {key} rate")
    expected = expected_raw_coincidences(cfg, a, b)
    sigma = math.sqrt(expected * t_s) / t_s
    require(abs(measured - expected) <= CLOSURE_SIGMAS * sigma,
            f"raw {key} coincidences {measured:.1f}/s vs expected {expected:.1f}/s: "
            f"{abs(measured - expected) / sigma:.1f} sigma > {CLOSURE_SIGMAS:g}")


def _check_tags(out: Path, summary: dict, t_s: float) -> None:
    path = out / "tags.csv"
    require(path.is_file(), "missing output tags.csv")
    clicks = sum(round(r * t_s) for r in summary["raw"]["singles_per_s"].values())
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    require(lines == clicks + 1, f"tags.csv has {lines - 1} rows, summary counts {clicks} clicks")


def _summary(out: Path, ctx: Context, config: str) -> tuple:
    """The count summary and the config it was made from, after checking
    that the summary echoes that config and the seed."""
    summary = _load_json(out / "count_summary.json")
    require(summary.get("seed") == ctx.seed, f"count_summary seed {summary.get('seed')} != {ctx.seed}")
    cfg = json.loads((out.parent / INPUTS / config).read_text())
    require(summary.get("config") == cfg, f"count_summary does not echo {config}")
    _check_tags(out, summary, cfg["chain"]["integration_time_ms"] * 1e-3)
    return summary, cfg


def check_heralded(out: Path, ctx: Context) -> None:
    summary, cfg = _summary(out, ctx, "heralded.json")
    _check_closure(summary, cfg, "h", "1")
    _check_closure(summary, cfg, "h", "2")
    g2 = _finite(summary.get("heralded_g2"), "heralded_g2")
    require(0.0 <= g2 < 1.0, f"heralded g2 {g2} outside [0, 1)")


def heralded_config(tiny: bool) -> dict:
    return {
        "chain": {
            "eta_coupling": 0.9, "eta_insertion": 0.43, "eta_detector": 0.6,
            "dark_rate_hz": 100.0,
            "coincidence_window_ns": HERALDED_WINDOW_NS,
            "integration_time_ms": 100.0 if tiny else HERALDED_TIME_MS,
            "topology": "heralded",
            "jitter_fwhm_ns": 0.35,
        },
        "source": {"pairs_per_s_per_uW": 1450.0, "pump_power_uW": HERALDED_POWER_UW},
    }


def gen_heralded(inputs: Path, root: Path, seed: int, tiny: bool) -> None:
    _write_json(heralded_config(tiny), inputs / "heralded.json")


def inv_heralded(seed: int, tiny: bool) -> list:
    return [Invocation("simulate", ("simulate", "--config", f"{INPUTS}/heralded.json",
                                    "--out", OUT, "--seed", str(seed)), check_heralded)]


# ---------------------------------------------------------------------------
# cli-small

def _theta_deg_model(root: Path) -> float:
    text = (root / "tests" / "conftest.py").read_text()
    match = re.search(r"^THETA_DEG_MODEL_C\s*=\s*([0-9.eE+-]+)", text, re.MULTILINE)
    if match is None:
        raise CheckFailed("THETA_DEG_MODEL_C not found in tests/conftest.py")
    return float(match.group(1))


def check_tuning(out: Path, ctx: Context) -> None:
    summary = _load_json(out / "tuning_summary.json")
    theta = _finite(summary.get("theta_deg_model_C"), "theta_deg_model_C")
    ref = _theta_deg_model(ctx.root)
    require(abs(theta - ref) <= THETA_TOL_C,
            f"theta_deg_model_C {theta!r} differs from {ref!r} by more than {THETA_TOL_C} C")
    _finite(summary.get("fitted_calibration_offset_C"), "fitted_calibration_offset_C")
    rows = (out / "tuning_curve.csv").read_text().splitlines()
    require(len(rows) == summary.get("n_points", -1) + 1,
            f"tuning_curve.csv has {len(rows) - 1} rows, summary says {summary.get('n_points')}")


def check_pair_simulate(out: Path, ctx: Context) -> None:
    if ctx.seed == GOLDEN_SEED:
        golden = ctx.root / "tests" / "data" / "golden_count_summary_seed42.json"
        require((out / "count_summary.json").read_bytes() == golden.read_bytes(),
                "count_summary.json differs from the seed-42 golden")
    summary, cfg = _summary(out, ctx, "paper_chain.json")
    _check_closure(summary, cfg, "1", "2")


def check_etpa(out: Path, ctx: Context) -> None:
    report = _load_json(out / "etpa_report.json")["report"]
    for key, value in report.items():
        require(_finite(value, key) > 0, f"etpa {key} = {value} is not positive")
    require((out / "etpa_report.txt").is_file(), "missing output etpa_report.txt")


def check_analyze(out: Path, ctx: Context) -> None:
    report = _load_json(out / "analysis_report.json")
    for key in ("fits", "r_abs", "gamma"):
        require(bool(report.get(key)), f"analysis_report.json has no {key}")
    rows = (out / "plot_data.csv").read_text().splitlines()
    require(len(rows) == 1 + len(report["r_abs"]) + len(report["gamma"]),
            "plot_data.csv row count does not match the report")


CLI_SMALL_FILES = ("paper_tuning.json", "paper_chain.json", "paper_scenario.json",
                   "paper_analyze.json", "rate_table_solvent.csv", "rate_table_sample.csv")


def gen_cli_small(inputs: Path, root: Path, seed: int, tiny: bool) -> None:
    for name in CLI_SMALL_FILES:
        _copy_config(root, inputs, name)


def inv_cli_small(seed: int, tiny: bool) -> list:
    def call(sub, config, check, *extra):
        return Invocation(sub, (sub, "--config", f"{INPUTS}/{config}", "--out", OUT) + extra, check)
    return [
        call("tuning-curve", "paper_tuning.json", check_tuning),
        call("simulate", "paper_chain.json", check_pair_simulate, "--seed", str(seed)),
        call("etpa-report", "paper_scenario.json", check_etpa),
        call("analyze", "paper_analyze.json", check_analyze),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("jsa-paper", gen_jsa_paper,
                 lambda seed, tiny: inv_jsa("paper_jsa.json", check_jsa_paper),
                 seed_used=False),
        Workload("jsa-measured", gen_jsa_measured,
                 lambda seed, tiny: inv_jsa("measured_jsa.json", check_jsa_measured)),
        Workload("heralded-mc", gen_heralded, inv_heralded),
        Workload("cli-small", gen_cli_small, inv_cli_small),
    )
}
