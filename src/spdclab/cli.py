"""``spdclab`` command-line front end.

Subcommands
-----------
tuning-curve  phase-matched wavelengths vs temperature + degeneracy summary
jsa           joint spectral/temporal intensity matrices + entanglement times
simulate      Monte Carlo detector click streams + count-rate summary
etpa-report   entangled two-photon-absorption feasibility numbers
analyze       rate-table regressions, R_abs and Gamma series

All physical parameters and switches (``analyze``'s boolean
``drop_flagged``) live in a JSON config file (``--config``).  Flags only
carry run plumbing: ``--out`` everywhere and ``--seed`` on ``simulate``, the
one subcommand that draws random numbers.  Every JSON output embeds the
resolved config, and repeated runs with identical inputs and seed produce
byte-identical files.

Exit codes: 0 success, 1 computation error, 2 usage/config error, a missing
input file or a config that is not valid JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import analysis, biphoton, counting, dispersion, etpa, phasematch
from .errors import SpdclabError, TableParseError

# Fixed default seed so runs are reproducible without any flags.
DEFAULT_SEED = 20080343


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


def _load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"config file {path} is missing required key {key!r}")
    return cfg[key]


def _write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _crystal_from_config(cfg: dict, path: str) -> phasematch.CrystalConfig:
    crystal = _require(cfg, "crystal", path)
    material_file = crystal.get("material_file")
    model = dispersion.load_material(material_file)
    return phasematch.CrystalConfig(
        model=model,
        length_mm=_require(crystal, "length_mm", path),
        poling_period_um=_require(crystal, "poling_period_um", path),
        temperature_C=_require(crystal, "temperature_C", path),
        calibration_offset_C=crystal.get("calibration_offset_C", 0.0),
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_tuning_curve(args) -> int:
    cfg = _load_config(args.config)
    crystal = _crystal_from_config(cfg, args.config)
    lambda_p = _require(cfg, "lambda_p_nm", args.config)
    theta_range = _require(cfg, "theta_range_C", args.config)
    grid = cfg.get("grid", 41)

    points = phasematch.tuning_curve(crystal, lambda_p, theta_range, grid=grid)
    phasematch.export_tuning_curve_csv(
        points, os.path.join(args.out, "tuning_curve.csv"))

    theta_deg_model = phasematch.find_degeneracy_temperature(
        replace(crystal, calibration_offset_C=0.0), lambda_p)
    summary = {
        "config": cfg,
        "lambda_p_nm": lambda_p,
        "theta_deg_model_C": theta_deg_model,
        "calibration_offset_C": crystal.calibration_offset_C,
        "theta_deg_C": theta_deg_model - crystal.calibration_offset_C,
        "n_points": len(points),
    }
    if "measured_degeneracy_C" in cfg:  # = fit_calibration_offset, one solve
        summary["fitted_calibration_offset_C"] = theta_deg_model - cfg["measured_degeneracy_C"]
    _write_json(summary, os.path.join(args.out, "tuning_summary.json"))
    return 0


def cmd_jsa(args) -> int:
    cfg = _load_config(args.config)
    lambda_p = _require(cfg, "lambda_p_nm", args.config)
    beta_fs2 = cfg.get("fiber_beta_fs2", 0.0)
    grid_cfg = cfg.get("grid", {})
    grid = biphoton.GridSpec(
        n=grid_cfg.get("n", 1024),
        center_lambda_nm=grid_cfg.get("center_lambda_nm", 2 * lambda_p),
        half_span_nm=grid_cfg.get("half_span_nm", 60.0),
    )

    measured = cfg.get("measured_jsi_csv")
    if measured:
        jsa = biphoton.import_jsi_csv(measured,
                                      axis_units=cfg.get("measured_axis_units", "nm"))
        reference_omega = float(jsa.axis_s[len(jsa.axis_s) // 2])
    else:
        crystal = _crystal_from_config(cfg, args.config)
        env = biphoton.PumpEnvelope.from_wavelength(
            lambda_p, fwhm_nm=cfg.get("pump_fwhm_nm", 0.01))
        jsa = biphoton.build_jsa(crystal, env, grid)
        reference_omega = env.omega_p / 2.0

    fiber = biphoton.FiberDispersion(beta_fs2=beta_fs2,
                                     reference_omega=reference_omega)
    jsa_fiber = biphoton.apply_fiber_phase(jsa, fiber)
    jta_free = biphoton.to_temporal(jsa)
    jta_fiber = biphoton.to_temporal(jsa_fiber)

    biphoton.export_matrix_csv(jsa, os.path.join(args.out, "jsi.csv"),
                               os.path.join(args.out, "jsi.json"))
    biphoton.export_matrix_csv(jta_fiber, os.path.join(args.out, "jti.csv"),
                               os.path.join(args.out, "jti.json"))

    report = {
        "config": cfg,
        "fiber_beta_fs2": beta_fs2,
        "entanglement_time_free_fs": biphoton.entanglement_time_from_jti(jta_free),
        "entanglement_time_fiber_fs": biphoton.entanglement_time_from_jti(jta_fiber),
        "measured_input": bool(measured),
    }
    _write_json(report, os.path.join(args.out, "te_report.json"))
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    chain_cfg = _require(cfg, "chain", args.config)
    source_cfg = _require(cfg, "source", args.config)
    try:
        chain = counting.DetectionChain(**chain_cfg)
        source = counting.SourceRates(**source_cfg)
    except TypeError as exc:
        raise ConfigError(f"bad chain/source config in {args.config}: {exc}") from exc

    tags = counting.simulate_tags(source, chain, seed=args.seed)
    tags.dump_csv(os.path.join(args.out, "tags.csv"))
    counts = counting.count_coincidences(tags, chain.coincidence_window_ns)
    corrected = counting.correct_rates(counts, chain.dark_rate_hz)

    payload = {
        "config": cfg,
        "seed": args.seed,
        "raw": counts.payload(),
        "corrected": corrected.payload(),
    }
    if chain.topology == "heralded":
        try:
            g2, g2_err = counting.heralded_g2(counts)
            payload["heralded_g2"] = g2
            payload["heralded_g2_err"] = g2_err
        except SpdclabError as exc:
            payload["heralded_g2"] = None
            payload["heralded_g2_note"] = str(exc)
    _write_json(payload, os.path.join(args.out, "count_summary.json"))
    return 0


def cmd_etpa_report(args) -> int:
    try:
        data = etpa.load_scenario(args.config)
    except TableParseError as exc:
        raise ConfigError(str(exc)) from exc
    scenario = etpa.scenario_from_inputs(data)
    report = etpa.feasibility_report(scenario)
    _write_json({"config": data, "report": report},
                os.path.join(args.out, "etpa_report.json"))
    text = etpa.format_report(report)
    with open(os.path.join(args.out, "etpa_report.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    base = os.path.dirname(os.path.abspath(args.config))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    solv_path = resolve(_require(cfg, "solvent_csv", args.config))
    samp_path = resolve(_require(cfg, "sample_csv", args.config))
    drop = cfg.get("drop_flagged", False)
    if not isinstance(drop, bool):
        raise ConfigError(f"config file {args.config}: 'drop_flagged' must be true or false, "
                          f"got {drop!r}")
    solv = analysis.ingest_rate_table(solv_path)
    samp = analysis.ingest_rate_table(samp_path)
    if drop:
        solv, samp = (analysis.RateTable(tuple(r for r in t.rows if not r.flagged()))
                      for t in (solv, samp))

    report = analysis.analysis_report(solv, samp)
    report["config"] = cfg
    report["dropped_flagged_rows"] = drop
    analysis.write_report_json(report, os.path.join(args.out, "analysis_report.json"))
    analysis.write_plot_data_csv(report, os.path.join(args.out, "plot_data.csv"))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdclab",
        description="PPLN-waveguide photon-pair source simulator and "
                    "count-rate analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "tuning-curve": cmd_tuning_curve,
        "jsa": cmd_jsa,
        "simulate": cmd_simulate,
        "etpa-report": cmd_etpa_report,
        "analyze": cmd_analyze,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help=f"RNG seed (default {DEFAULT_SEED})")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"spdclab: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"spdclab: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"spdclab: --config {args.config} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except SpdclabError as exc:
        print(f"spdclab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
