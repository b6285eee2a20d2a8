"""Analysis of measured count-rate tables: weighted regressions of the
transmitted pair rate versus source power, per-row pair absorption rate
R_abs = R_coin(solvent) - R_coin(sample), and the biphoton absorption ratio

    Gamma = 1 - (R_s1*R_s2/R_coin)_sample / (R_s1*R_s2/R_coin)_solvent,

all with first-order (delta-method) uncertainty propagation.  The double
ratio makes Gamma insensitive to any loss applied identically to both
channels of both measurements, so a nonzero Gamma isolates pair-selective
(two-photon) absorption from plain attenuation.

:func:`fit_rate_curve` and :func:`compare_tables`, which pairs the two
tables once for R_abs, Gamma and the skipped rows, return the plain dicts
that :func:`analysis_report` writes, one per fit or table row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlignmentError, DomainError, SolverError, TableParseError
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


def ingest_rate_table(path) -> tuple:
    """Read a rate-table CSV as the tuple of its ``RateRow``s; a schema
    violation, or a record the reader cannot parse such as a field past
    ``csv.field_size_limit()``, is reported as ``PATH line N: reason`` for
    the first offending record, N being the file line it ends on (the
    header is line 1)."""
    rows = []
    with reading(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)  # a quoted field may span lines
        try:
            for index, record in enumerate(reader):
                if index == 0:
                    if [h.strip() for h in record] != _CSV_HEADER:
                        raise TableParseError(f"bad header, expected {','.join(_CSV_HEADER)}")
                    continue
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                if len(record) != len(_CSV_HEADER):
                    raise TableParseError(f"expected {len(_CSV_HEADER)} fields, got {len(record)}")
                try:
                    values = [float(v) for v in record[:7]]
                except ValueError as exc:
                    raise TableParseError(f"malformed number: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise TableParseError("malformed number: nan or infinity")
                if any(v < 0 for v in values):
                    raise TableParseError("negative rate or uncertainty")
                rows.append(RateRow(*values, record[7].strip(), record[8].strip()))
        except (TableParseError, csv.Error) as exc:
            raise TableParseError(f"{path} line {reader.line_num}: {exc}") from None
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

    Each weight is the float ``1.0 / err**2``.  The normal equations of
    the table's floats and these weights are summed and solved exactly, so
    each reported number is the exact least-squares value rounded once; a
    standard error is the square root of its rounded variance (rounded at
    a power-of-two scale where the variance is a normal float).  The design
    has rank min(degree + 1, distinct powers), and the fit needs full rank.
    Powers that differ only in their last bit, such as 1.0 and
    1.0 + 2**-52, are distinct: the fit is made, with the huge standard
    errors that so small a spread gives (2**52 for the slope of two rows
    at each).  A weight or a reported number that does not fit in a finite
    float raises ``SolverError`` naming it.

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
    p = [r.p_spdc_pW for r in table]
    errors = [r.r_coin_err for r in table]
    if not any(errors):
        weights = [1.0] * len(table)
    elif not all(errors):
        raise SolverError("mixed zero and nonzero uncertainties; "
                          "cannot form consistent weights")
    else:
        # err * err, not err ** 2: libm's pow may differ in the last bit
        weights = [1.0 / (e * e) if e * e else math.inf for e in errors]
        for r, w in zip(table, weights):
            if not 0.0 < w < math.inf:
                raise SolverError(
                    f"{model} fit: the weight 1/R_coin_err**2 of the row at "
                    f"P_SPDC {r.p_spdc_pW} pW does not fit in a finite float "
                    f"(R_coin_err {r.r_coin_err})")
    if len(set(p)) < n_par:
        raise SolverError(
            f"rank-deficient design for {model} fit: the {len(table)} rows "
            f"span fewer than {n_par} independent power values"
        )

    # Each column as integers over one power of two: every sum is exact.
    (xs, x_scale), (ys, y_scale), (ws, w_scale) = (
        _integers(column) for column in (p, [r.r_coin for r in table], weights))
    moments = [0] * (2 * n_par - 1)  # sum w x^k
    rhs = [0] * n_par                # sum w x^j y
    wyy = 0                          # sum w y^2
    for x, y, w in zip(xs, ys, ws):
        term = w
        for k in range(len(moments)):
            moments[k] += term
            term *= x
        term = w * y
        wyy += term * y
        for j in range(n_par):
            rhs[j] += term
            term *= x

    # Gauss-Jordan on [N | b | I]: N is positive definite, so no pivoting
    rows = [[Fraction(moments[j + k], w_scale * x_scale ** (j + k)) for k in range(n_par)]
            + [Fraction(rhs[j], w_scale * x_scale ** j * y_scale)]
            + [int(j == k) for k in range(n_par)]
            for j in range(n_par)]
    b = [row[n_par] for row in rows]
    for j, pivot_row in enumerate(rows):
        pivot = pivot_row[j]
        pivot_row[:] = [v / pivot for v in pivot_row]
        for other in rows:
            if other is not pivot_row and other[j]:
                factor = other[j]
                other[:] = [v - factor * u for v, u in zip(other, pivot_row)]
    coef = [row[n_par] for row in rows]
    chi2 = Fraction(wyy, w_scale * y_scale ** 2) - sum(c * bj for c, bj in zip(coef, b))

    def rounded(name, value, sqrt=False):
        try:
            if not sqrt:
                return float(value)
            # sqrt of the rounded value, taken where that value is a normal
            # float: a variance outside the float range keeps its root
            k = (value.numerator.bit_length() - value.denominator.bit_length()) // 2
            return math.ldexp(math.sqrt(value / Fraction(4) ** k), k)
        except OverflowError:
            raise SolverError(
                f"{model} fit: {name} does not fit in a finite float") from None

    return {
        "model": model,
        "coefficients": [rounded(f"coefficients[{j}]", c) for j, c in enumerate(coef)],
        "standard_errors": [rounded(f"standard_errors[{j}]", row[n_par + 1 + j], sqrt=True)
                            for j, row in enumerate(rows)],
        "reduced_chi2": rounded("reduced_chi2", chi2 / (len(table) - n_par)),
        "n_points": len(table),
    }


def _integers(values: list) -> tuple:
    """The floats ``values`` as integers over one power of two: (ints, scale)
    with ``values[i] == ints[i] / scale`` exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios], scale


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


def compare_tables(solv: tuple, samp: tuple):
    """Pair the rows of a solvent and a sample table and compare each pair.

    Returns (r_abs, gamma, skipped), lists of dicts that each start with
    the pair's ``p_spdc_pW`` and ``mode``.  Every pair has an ``r_abs``
    entry: the transmitted-pair absorption rate, solvent minus sample, as
    ``r_abs`` with the quadrature-combined ``r_abs_err``.  A pair with a
    nonpositive rate in either row is in ``skipped`` with its ``reason``;
    every other pair has a ``gamma`` entry: Gamma as ``gamma`` with its
    first-order ``gamma_err``.  A pair with a number that is not a finite
    float is refused.
    """
    r_abs, gamma, skipped = [], [], []
    for a, b in _align(solv, samp):
        point = {"p_spdc_pW": a.p_spdc_pW, "mode": a.mode}
        r_abs.append(_finite(point, r_abs=a.r_coin - b.r_coin,
                             r_abs_err=math.hypot(a.r_coin_err, b.r_coin_err)))
        rates = (a.r_s1, a.r_s2, a.r_coin, b.r_s1, b.r_s2, b.r_coin)
        if any(v <= 0 for v in rates):
            skipped.append({**point, "reason": "nonpositive rate in solvent or sample row"})
            continue
        ratio = (b.r_s1 * b.r_s2 / b.r_coin) / (a.r_s1 * a.r_s2 / a.r_coin)
        try:  # Python's ** raises OverflowError where the square is inf
            rel_sq = sum(
                (err / rate) ** 2
                for rate, err in (
                    (a.r_s1, a.r_s1_err), (a.r_s2, a.r_s2_err), (a.r_coin, a.r_coin_err),
                    (b.r_s1, b.r_s1_err), (b.r_s2, b.r_s2_err), (b.r_coin, b.r_coin_err),
                )
            )
        except OverflowError:
            rel_sq = math.inf
        gamma.append(_finite(point, gamma=1.0 - ratio, gamma_err=ratio * math.sqrt(rel_sq)))
    return r_abs, gamma, skipped


def _finite(point: dict, **values) -> dict:
    """``point`` extended by ``values``, each a finite float (JSON has no inf)."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"rows at P_SPDC {point['p_spdc_pW']} pW, mode {point['mode']}: "
                              f"{name} is {value}, not a finite float")
    return {**point, **values}


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
    r_abs, gamma, skipped = compare_tables(*tables.values())
    return {"fits": fits, "r_abs": r_abs, "gamma": gamma, "skipped": skipped,
            "flagged_rows": flagged}


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
