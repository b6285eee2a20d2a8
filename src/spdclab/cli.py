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
one subcommand that draws random numbers.  ``main`` checks the config
against its subcommand's table (``schema.check``) before anything runs or
``--out`` is created, and each subcommand imports only its own layer
modules.  Every JSON output embeds the config as written, and repeated runs
with identical inputs and seed produce byte-identical files.

Exit codes: 0 success, 1 computation error (a refused allocation
included), 2 usage/config error (a key that is unknown, missing or of the
wrong kind, an input file that is missing, unreadable or not UTF-8, a
config that is not valid JSON, a negative ``--seed``, or an output that
cannot be written).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import schema
from .errors import ConfigError, InputError, SpdclabError
from .schema import BOOLEAN, NUMBER, PAIR, REQUIRED, STRING, WHOLE, one_of, write_json

# Fixed default seed so runs are reproducible without any flags.
DEFAULT_SEED = 20080343

CRYSTAL = {
    "length_mm": (NUMBER, REQUIRED),
    "poling_period_um": (NUMBER, REQUIRED),
    "temperature_C": (NUMBER, REQUIRED),
    "calibration_offset_C": (NUMBER, 0.0),
    "material_file": (STRING, None),  # None: the packaged 5%-MgO:CLN set
}

TUNING = {
    "crystal": (CRYSTAL, REQUIRED),
    "lambda_p_nm": (NUMBER, REQUIRED),
    "theta_range_C": (PAIR, REQUIRED),
    "grid": (WHOLE, 41),
    "measured_degeneracy_C": (NUMBER, None),
}

JSA = {
    "crystal": (CRYSTAL, REQUIRED),
    "lambda_p_nm": (NUMBER, REQUIRED),
    "pump_fwhm_nm": (NUMBER, 0.01),
    # the grid is centred on the degenerate wavelength 2 * lambda_p_nm
    "grid": ({"n": (WHOLE, 1024), "half_span_nm": (NUMBER, 60.0)}, {}),
    "fiber_beta_fs2": (NUMBER, 0.0),
    "measured_jsi_csv": (STRING, None),
    "measured_axis_units": (one_of("nm", "rad/s"), "nm"),
}

ANALYZE = {
    "solvent_csv": (STRING, REQUIRED),
    "sample_csv": (STRING, REQUIRED),
    "drop_flagged": (BOOLEAN, False),
}


def _simulate_table() -> dict:
    from . import counting
    chain = schema.dataclass_table(counting.DetectionChain)
    chain["topology"] = (one_of("pair", "heralded"), "pair")
    return {"chain": (chain, REQUIRED),
            "source": (schema.dataclass_table(counting.SourceRates), REQUIRED)}


def _scenario_table() -> dict:
    from . import etpa
    return etpa.SCENARIO


def _crystal(c: dict):
    from . import dispersion, phasematch
    # the keys of CRYSTAL other than material_file are CrystalConfig's fields
    numbers = {key: value for key, value in c.items() if key != "material_file"}
    return phasematch.CrystalConfig(model=dispersion.load_material(c["material_file"]), **numbers)


# ---------------------------------------------------------------------------
# subcommands: each gets the checked config with its defaults filled in, and
# the config as written, which its outputs echo

def cmd_tuning_curve(args, cfg: dict, given: dict) -> int:
    from . import phasematch
    crystal = _crystal(cfg["crystal"])
    lambda_p = cfg["lambda_p_nm"]

    # both solves before either output, so a refusal leaves no file
    points = phasematch.tuning_curve(crystal, lambda_p, cfg["theta_range_C"], grid=cfg["grid"])
    theta_deg_model = phasematch.find_degeneracy_temperature(
        replace(crystal, calibration_offset_C=0.0), lambda_p)

    phasematch.export_tuning_curve_csv(points, os.path.join(args.out, "tuning_curve.csv"))
    summary = {
        "config": given,
        "lambda_p_nm": lambda_p,
        "theta_deg_model_C": theta_deg_model,
        "calibration_offset_C": crystal.calibration_offset_C,
        "theta_deg_C": theta_deg_model - crystal.calibration_offset_C,
        "n_points": len(points),
    }
    if cfg["measured_degeneracy_C"] is not None:  # = fit_calibration_offset, one solve
        summary["fitted_calibration_offset_C"] = theta_deg_model - cfg["measured_degeneracy_C"]
    write_json(summary, os.path.join(args.out, "tuning_summary.json"))
    return 0


def cmd_jsa(args, cfg: dict, given: dict) -> int:
    from . import biphoton
    lambda_p = cfg["lambda_p_nm"]
    beta_fs2 = cfg["fiber_beta_fs2"]

    measured = bool(cfg["measured_jsi_csv"])
    if measured:
        jsa = biphoton.import_jsi_csv(cfg["measured_jsi_csv"], axis_units=cfg["measured_axis_units"])
        reference_omega = float(jsa.axis_s[len(jsa.axis_s) // 2])
    else:
        crystal = _crystal(cfg["crystal"])
        crystal.model.check_wavelength(lambda_p)  # as configured, before it is converted
        env = biphoton.PumpEnvelope.from_wavelength(lambda_p, fwhm_nm=cfg["pump_fwhm_nm"])
        grid = biphoton.GridSpec(center_lambda_nm=2 * lambda_p, **cfg["grid"])
        jsa = biphoton.build_jsa(crystal, env, grid)
        reference_omega = env.omega_p / 2.0

    # the JSA is real until the fiber phase; at most two n x n complex
    # matrices are alive at a time, an input and the one buffer of
    # to_temporal or apply_fiber_phase: the free JTA is reduced to its T_e
    # at once, and the JSA is dropped once its fiber-phased copy exists.
    # The free FFT and T_e come before jsi.*, the fiber T_e before jti.*: a
    # refused T_e leaves no matrix it comes from.
    te_free = biphoton.entanglement_time_from_jti(biphoton.to_temporal(jsa))
    biphoton.export_matrix_csv(jsa, os.path.join(args.out, "jsi.csv"),
                               os.path.join(args.out, "jsi.json"), measured)
    jsa_fiber = biphoton.apply_fiber_phase(jsa, beta_fs2, reference_omega)
    del jsa
    jta_fiber = biphoton.to_temporal(jsa_fiber)
    del jsa_fiber
    te_fiber = biphoton.entanglement_time_from_jti(jta_fiber)
    biphoton.export_matrix_csv(jta_fiber, os.path.join(args.out, "jti.csv"),
                               os.path.join(args.out, "jti.json"), measured)

    report = {
        "config": given,
        "fiber_beta_fs2": beta_fs2,
        "entanglement_time_free_fs": te_free,
        "entanglement_time_fiber_fs": te_fiber,
        "measured_input": measured,
    }
    write_json(report, os.path.join(args.out, "te_report.json"))
    return 0


def cmd_simulate(args, cfg: dict, given: dict) -> int:
    from . import counting
    chain = counting.DetectionChain(**cfg["chain"])
    source = counting.SourceRates(**cfg["source"])

    tags = counting.simulate_tags(source, chain, seed=args.seed)
    # the tag dump on a worker beside the counting, which only read the
    # tags; its error goes first, as when the dump ran first
    dump = counting.Worker(tags.dump_csv, os.path.join(args.out, "tags.csv"))
    try:
        counts = counting.count_coincidences(tags, chain.coincidence_window_ns)
    finally:
        dump.result()
    corrected = counting.correct_rates(counts, chain.dark_rate_hz)

    payload = {
        "config": given,
        "seed": args.seed,
        "raw": counts,
        "corrected": corrected,
    }
    if chain.topology == "heralded":
        try:
            g2, g2_err = counting.heralded_g2(counts)
            payload["heralded_g2"] = g2
            payload["heralded_g2_err"] = g2_err
        except SpdclabError as exc:
            payload["heralded_g2"] = None
            payload["heralded_g2_note"] = str(exc)
    write_json(payload, os.path.join(args.out, "count_summary.json"))
    return 0


def cmd_etpa_report(args, cfg: dict, given: dict) -> int:
    from . import etpa
    scenario = etpa.scenario_from_inputs(cfg)
    report = etpa.feasibility_report(scenario)
    write_json({"config": given, "report": report},
               os.path.join(args.out, "etpa_report.json"))
    text = etpa.format_report(report)
    with open(os.path.join(args.out, "etpa_report.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_analyze(args, cfg: dict, given: dict) -> int:
    from . import analysis
    base = os.path.dirname(os.path.abspath(args.config))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    tables = [analysis.ingest_rate_table(resolve(cfg[key]))
              for key in ("solvent_csv", "sample_csv")]
    report = analysis.analysis_report(*tables, cfg["drop_flagged"])
    report["config"] = given
    report["dropped_flagged_rows"] = cfg["drop_flagged"]
    analysis.write_report_json(report, os.path.join(args.out, "analysis_report.json"))
    analysis.write_plot_data_csv(report, os.path.join(args.out, "plot_data.csv"))
    return 0


# ---------------------------------------------------------------------------

# name: (handler, function returning the config table; building the table
# of simulate or etpa-report imports that subcommand's layer module)
COMMANDS = {
    "tuning-curve": (cmd_tuning_curve, lambda: TUNING),
    "jsa": (cmd_jsa, lambda: JSA),
    "simulate": (cmd_simulate, _simulate_table),
    "etpa-report": (cmd_etpa_report, _scenario_table),
    "analyze": (cmd_analyze, lambda: ANALYZE),
}


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take integers >= 0 only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdclab",
        description="PPLN-waveguide photon-pair source simulator and "
                    "count-rate analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        if name == "simulate":
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                           help=f"RNG seed (default {DEFAULT_SEED})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, table = COMMANDS[args.command]
    try:
        given = schema.load_config(args.config)
        cfg = schema.check(table(), given)
        os.makedirs(args.out, exist_ok=True)
        return handler(args, cfg, given)
    except ConfigError as exc:
        print(f"spdclab: --config {args.config}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every input is read through schema.reading
        print(f"spdclab: cannot write {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    except SpdclabError as exc:
        print(f"spdclab: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    except MemoryError as exc:
        print(f"spdclab: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
