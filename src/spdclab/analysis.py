"""Analysis of measured count-rate tables: weighted regressions of the
transmitted pair rate versus source power, per-row pair absorption rate
R_abs = R_coin(solvent) - R_coin(sample), and the biphoton absorption ratio

    Gamma = 1 - (R_s1*R_s2/R_coin)_sample / (R_s1*R_s2/R_coin)_solvent,

all with first-order (delta-method) uncertainty propagation.  The double
ratio makes Gamma insensitive to any loss applied identically to both
channels of both measurements, so a nonzero Gamma isolates pair-selective
(two-photon) absorption from plain attenuation.

The fit, R_abs and Gamma functions return the plain dicts that
:func:`analysis_report` writes, one per fit or table row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, SolverError, TableParseError
from .schema import reading, write_json as write_report_json

_MODES = ("pump", "spdc")
_CSV_HEADER = ["P_SPDC_pW", "R_s1", "R_s1_err", "R_s2", "R_s2_err",
               "R_coin", "R_coin_err", "mode", "label"]

# Rows whose singles carry more than this relative error are flagged in
# reports; ``drop_flagged`` removes their points from the comparison.
SINGLES_RELATIVE_ERROR_FLAG = 0.05


@dataclass(frozen=True)
class RateRow:
    """One power setting of a transmission measurement."""

    p_spdc_pW: float
    r_s1: float
    r_s1_err: float
    r_s2: float
    r_s2_err: float
    r_coin: float
    r_coin_err: float
    mode: str
    label: str

    def __post_init__(self):
        if self.mode not in _MODES:
            raise TableParseError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.label:
            raise TableParseError("label must be nonempty")

    def flagged(self) -> bool:
        """True if either singles rate has relative error above the flag
        threshold; a zero rate is flagged only if its error is zero too."""
        for rate, err in ((self.r_s1, self.r_s1_err), (self.r_s2, self.r_s2_err)):
            if err / rate > SINGLES_RELATIVE_ERROR_FLAG if rate > 0 else err == 0:
                return True
        return False


def _records(reader, path):
    """The records of the ``csv.reader`` ``reader`` of ``path``; one it
    cannot parse, such as a field past ``csv.field_size_limit()``, raises
    TableParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise TableParseError(f"{path} line {reader.line_num}: {exc}") from None


def ingest_rate_table(path) -> tuple:
    """Read a rate-table CSV as the tuple of its ``RateRow``s; a schema
    violation is reported as ``PATH line N: reason`` for the first
    offending record, N being the file line it ends on (the header is
    line 1)."""
    rows = []
    with reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)  # a quoted field may span lines
        for index, record in enumerate(_records(reader, path)):
            try:
                if index == 0:
                    if [h.strip() for h in record] != _CSV_HEADER:
                        raise TableParseError(f"bad header, expected {','.join(_CSV_HEADER)}")
                    continue
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                if len(record) != len(_CSV_HEADER):
                    raise TableParseError(f"expected {len(_CSV_HEADER)} fields, got {len(record)}")
                values = [float(v) for v in record[:7]]
                if not all(map(math.isfinite, values)):
                    raise TableParseError("malformed number: nan or infinity")
                if any(v < 0 for v in values):
                    raise TableParseError("negative rate or uncertainty")
                rows.append(RateRow(*values, record[7].strip(), record[8].strip()))
            except TableParseError as exc:
                raise TableParseError(f"{path} line {reader.line_num}: {exc}") from None
            except ValueError as exc:  # from float()
                raise TableParseError(
                    f"{path} line {reader.line_num}: malformed number: {exc}") from None
    if reader.line_num == 0:
        raise TableParseError(f"empty rate table file: {path}")
    if not rows:
        raise TableParseError(f"rate table has a header but no rows: {path}")
    return tuple(rows)


# ---------------------------------------------------------------------------
# regression

def fit_rate_curve(table: tuple, model: str) -> dict:
    """Weighted least squares of R_coin against P_SPDC with a free
    intercept.  Zero-uncertainty rows make the fit unweighted; mixed zero
    and nonzero uncertainties are rejected as inconsistent weighting.

    Returns the report entry: ``model``, ``coefficients`` and
    ``standard_errors`` (ascending order, intercept first),
    ``reduced_chi2`` and ``n_points``.
    """
    if model not in ("linear", "quadratic"):
        raise SolverError(f"unknown fit model {model!r}")
    degree = 1 if model == "linear" else 2
    n_par = degree + 1
    if len(table) < n_par + 1:
        raise SolverError(
            f"{model} fit needs at least {n_par + 1} rows, got {len(table)}"
        )
    p = np.array([r.p_spdc_pW for r in table])
    y = np.array([r.r_coin for r in table])
    err = np.array([r.r_coin_err for r in table])
    if np.all(err == 0):
        weights = np.ones_like(err)
    elif np.any(err == 0):
        raise SolverError("mixed zero and nonzero uncertainties; "
                          "cannot form consistent weights")
    else:
        weights = 1.0 / err ** 2

    design = np.vander(p, n_par, increasing=True)
    wx = design * weights[:, None]
    normal = design.T @ wx
    if np.linalg.matrix_rank(normal) < n_par:
        raise SolverError(
            f"rank-deficient design for {model} fit: the {len(table)} rows "
            f"span fewer than {n_par} independent power values"
        )
    cov = np.linalg.inv(normal)
    coef = cov @ (design.T @ (weights * y))
    residuals = y - design @ coef
    chi2 = float(np.sum(weights * residuals ** 2))
    dof = len(table) - n_par
    return {
        "model": model,
        "coefficients": coef.tolist(),
        "standard_errors": np.sqrt(np.diag(cov)).tolist(),
        "reduced_chi2": chi2 / dof,
        "n_points": len(table),
    }


# ---------------------------------------------------------------------------
# row-aligned comparisons

def _align(solv: tuple, samp: tuple):
    """Pair rows by (P_SPDC, attenuation_mode), preserving solvent order."""
    key = lambda r: (r.p_spdc_pW, r.mode)
    samp_index = {}
    for r in samp:
        samp_index.setdefault(key(r), []).append(r)
    pairs = []
    unmatched = []
    for r in solv:
        bucket = samp_index.get(key(r))
        if bucket:
            pairs.append((r, bucket.pop(0)))
        else:
            unmatched.append(("solvent", r.p_spdc_pW, r.mode))
    for bucket in samp_index.values():
        unmatched.extend(("sample", r.p_spdc_pW, r.mode) for r in bucket)
    if unmatched:
        raise AlignmentError(
            f"tables are not row-aligned by (P_SPDC, mode); unmatched rows: {unmatched}")
    return pairs


def absorption_rate(solv: tuple, samp: tuple):
    """Per-row transmitted-pair absorption rate, solvent minus sample, with
    quadrature-combined uncertainty: dicts with ``p_spdc_pW``, ``mode``,
    ``r_abs`` and ``r_abs_err``."""
    return [
        {"p_spdc_pW": a.p_spdc_pW, "mode": a.mode, "r_abs": a.r_coin - b.r_coin,
         "r_abs_err": math.hypot(a.r_coin_err, b.r_coin_err)}
        for a, b in _align(solv, samp)
    ]


def biphoton_ratio(solv: tuple, samp: tuple):
    """Per-row biphoton absorption ratio Gamma with first-order error
    propagation.  Rows where any rate in either table is nonpositive are
    skipped (not errored) and reported with a reason.

    Returns (points, skipped): points are dicts with ``p_spdc_pW``,
    ``mode``, ``gamma`` and ``gamma_err``; skipped is a list of
    (P_SPDC, mode, reason) tuples.
    """
    points = []
    skipped = []
    for a, b in _align(solv, samp):
        rates = (a.r_s1, a.r_s2, a.r_coin, b.r_s1, b.r_s2, b.r_coin)
        if any(v <= 0 for v in rates):
            skipped.append((a.p_spdc_pW, a.mode,
                            "nonpositive rate in solvent or sample row"))
            continue
        ratio = (b.r_s1 * b.r_s2 / b.r_coin) / (a.r_s1 * a.r_s2 / a.r_coin)
        rel_sq = sum(
            (err / rate) ** 2
            for rate, err in (
                (a.r_s1, a.r_s1_err), (a.r_s2, a.r_s2_err), (a.r_coin, a.r_coin_err),
                (b.r_s1, b.r_s1_err), (b.r_s2, b.r_s2_err), (b.r_coin, b.r_coin_err),
            )
        )
        points.append({"p_spdc_pW": a.p_spdc_pW, "mode": a.mode, "gamma": 1.0 - ratio,
                       "gamma_err": ratio * math.sqrt(rel_sq)})
    return points, skipped


# ---------------------------------------------------------------------------
# reports

def analysis_report(solv: tuple, samp: tuple, drop_flagged: bool) -> dict:
    """Full comparison of a solvent-reference and a sample table: per-mode
    linear and quadratic fits of both tables, R_abs and Gamma series, skip
    reasons and the flagged rows of both tables as read.  With
    ``drop_flagged`` a (P_SPDC, mode) point flagged in either table leaves
    both before the rows are paired, so no fit, R_abs or Gamma uses it."""
    tables = {"solvent": solv, "sample": samp}
    flagged = [{"table": name, "p_spdc_pW": r.p_spdc_pW, "mode": r.mode, "label": r.label}
               for name, table in tables.items() for r in table if r.flagged()]
    if drop_flagged:
        points = {(f["p_spdc_pW"], f["mode"]) for f in flagged}
        for name, table in tables.items():
            tables[name] = tuple(r for r in table if (r.p_spdc_pW, r.mode) not in points)
            if not tables[name]:
                raise TableParseError(f"{name} table: every (P_SPDC, mode) point is flagged "
                                      "in one table or both, so drop_flagged leaves none")
    fits = {}
    for name, table in tables.items():
        for mode in sorted({r.mode for r in table}):
            sub = tuple(r for r in table if r.mode == mode)
            for model in ("linear", "quadratic"):
                try:
                    fits[f"{name}.{mode}.{model}"] = fit_rate_curve(sub, model)
                except SolverError as exc:
                    fits[f"{name}.{mode}.{model}"] = {"error": str(exc)}
    solv, samp = tables.values()
    gammas, skipped = biphoton_ratio(solv, samp)
    return {
        "fits": fits,
        "r_abs": absorption_rate(solv, samp),
        "gamma": gammas,
        "skipped": [{"p_spdc_pW": p, "mode": m, "reason": why}
                    for p, m, why in skipped],
        "flagged_rows": flagged,
    }


def write_plot_data_csv(report: dict, path) -> None:
    """Flat plot-ready series: one row per (quantity, mode, power)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "mode", "P_SPDC_pW", "value", "error"])
        for p in report["r_abs"]:
            writer.writerow(["R_abs", p["mode"], p["p_spdc_pW"],
                             p["r_abs"], p["r_abs_err"]])
        for p in report["gamma"]:
            writer.writerow(["Gamma", p["mode"], p["p_spdc_pW"],
                             p["gamma"], p["gamma_err"]])
