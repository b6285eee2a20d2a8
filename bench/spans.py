"""Span recorder and the traced, in-process replay of one ``spdclab`` call.

Run as a script, this imports ``spdclab.cli``, wraps the public layer
functions the CLI calls (``dispersion``, ``phasematch``, ``biphoton``,
``counting``, ``etpa``, ``analysis``) so that each call records a span, runs
``spdclab.cli.main`` on the given arguments and writes the spans as JSON
when it ends::

    python3 bench/spans.py --workload W --seed S --spans FILE -- <spdclab args>

The program under test is not modified: the wrappers replace module
attributes in this process only.  Calls between layer functions that go
through a module global (``count_coincidences`` calling
``match_coincidences``) therefore become child spans.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans kept in memory as dicts with name, start, end, parent index,
    workload, seed and per-span counts."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "seed": self.seed, "counts": {}}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a traced version.  ``counts(arguments,
        result)`` gets the bound arguments by parameter name and returns
        the counts to attach; it runs after the span has closed."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                record.update(counts(signature.bind(*args, **kwargs).arguments, result))
            return result

        setattr(owner, attr, traced)


def fft_gflop(points: int) -> float:
    """Computed, not measured: 5 N log2 N flop for one complex FFT of N points."""
    return 5.0 * points * math.log2(points) / 1e9 if points > 1 else 0.0


def instrument(tracer: Tracer) -> None:
    from spdclab import analysis, biphoton, counting, dispersion, etpa, phasematch

    size = os.path.getsize
    targets = [
        (dispersion, "load_material", None),
        (phasematch, "tuning_curve", lambda a, r: {"points": len(r)}),
        (phasematch, "find_degeneracy_temperature", None),
        (phasematch, "fit_calibration_offset", None),
        (phasematch, "export_tuning_curve_csv", None),
        (biphoton, "build_jsa", lambda a, r: {"grid_points": int(r.amplitude.size)}),
        (biphoton, "apply_fiber_phase", None),
        (biphoton, "to_temporal",
         lambda a, r: {"calls": 1, "gflop_computed": fft_gflop(int(r.amplitude.size))}),
        (biphoton, "entanglement_time_from_jti", None),
        (biphoton, "export_matrix_csv",
         lambda a, r: {"bytes": size(a["csv_path"]) + size(a["sidecar_path"])}),
        (biphoton, "import_jsi_csv", lambda a, r: {"bytes": size(a["csv_path"])}),
        (counting, "simulate_tags",
         lambda a, r: {"clicks": sum(len(t) for t in r.channels.values())}),
        (counting.TagStream, "dump_csv", lambda a, r: {"bytes": size(a["path"])}),
        (counting, "count_coincidences", None),
        (counting, "match_coincidences",
         lambda a, r: {"matched": int(r), "clicks_scanned": len(a["a"]) + len(a["b"])}),
        (counting, "match_triples",
         lambda a, r: {"matched": int(r),
                       "clicks_scanned": len(a["h"]) + len(a["a"]) + len(a["b"])}),
        (counting, "correct_rates", None),
        (counting, "heralded_g2", None),
        (etpa, "load_scenario", None),
        (etpa, "scenario_from_inputs", None),
        (etpa, "feasibility_report", None),
        (etpa, "format_report", None),
        (analysis, "ingest_rate_table", None),
        (analysis, "analysis_report", None),
        (analysis, "write_report_json", None),
        (analysis, "write_plot_data_csv", None),
    ]
    for owner, attr, counts in targets:
        if inspect.isclass(owner):
            prefix = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
        else:
            prefix = owner.__name__.rsplit(".", 1)[-1]
        tracer.wrap(owner, attr, f"{prefix}.{attr}", counts)


def summarize(spans: list) -> dict:
    """Totals of one replayed process: ``<name>.s`` (inclusive),
    ``<name>.self_s`` (minus the time child spans cover), summed counts as
    ``<name>.<count>``, ``layer.<module>.s`` and ``trace.spans_s`` over the
    top-level spans (the direct children of the ``cli.main`` span)."""
    totals: dict = defaultdict(float)
    child_time: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    root = next((i for i, s in enumerate(spans) if s["name"] == ROOT_SPAN), None)
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        totals[f"{s['name']}.s"] += duration
        totals[f"{s['name']}.self_s"] += duration - child_time[i]
        for key, value in s["counts"].items():
            totals[f"{s['name']}.{key}"] += value
        if root is not None and s["parent"] == root:
            totals[f"layer.{s['name'].split('.', 1)[0]}.s"] += duration
            totals["trace.spans_s"] += duration
    return dict(totals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True, help="JSON file the spans are written to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.workload, args.seed)
    with tracer.span("cli.import"):
        from spdclab import cli
    instrument(tracer)
    try:
        with tracer.span(ROOT_SPAN):
            rc = cli.main(cli_args)
    finally:
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
