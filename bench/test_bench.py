"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    def make(name, seed=42):
        r = run.Runner(WORKLOADS[name], seed, tiny=True, work=tmp_path)
        r.generate()
        return r
    return make


def tampered(inv, corrupt):
    """The invocation with ``corrupt(out_dir)`` applied before its check."""
    def check(out, ctx):
        corrupt(out)
        inv.check(out, ctx)
    return dataclasses.replace(inv, check=check)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_checks_at_tiny_size(name):
    result = run.run_workload(name, seed=42, seconds=0.01, trace=False, tiny=True)
    assert result["failures"] == []
    assert result["attempted"] == 1 + len(WORKLOADS[name].invocations(42, True))
    assert [k for k in result["metrics"]] == [k for k, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["heralded-mc", "cli-small"])
def test_traced_replay_reports_every_layer_metric(name):
    result = run.run_workload(name, seed=7, seconds=0.01, trace=True, tiny=True)
    assert result["failures"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [k for k, _ in run.PER_LAYER]
    assert metrics["counting.simulate_tags.clicks"] > 0
    assert 0 < metrics["counting.match.matched_per_click"] <= 1
    assert metrics["counting.count_coincidences.s"] >= metrics["counting.match_coincidences.s"]
    assert metrics["trace.spans_s"] > 0
    spans = result["samples"]["spans"]
    assert {s["workload"] for s in spans} == {name} and {s["seed"] for s in spans} == {7}


def test_corrupted_outputs_count_as_failed(runner):
    r = runner("cli-small")
    tuning, simulate = r.invocations[0], r.invocations[1]

    def shift_theta(out):
        path = out / "tuning_summary.json"
        summary = json.loads(path.read_text())
        summary["theta_deg_model_C"] += 1e-3
        path.write_text(json.dumps(summary))

    def drop_tag_rows(out):
        path = out / "tags.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:-3]) + "\n")

    assert not r.run(tampered(tuning, shift_theta)).ok
    assert not r.run(tampered(simulate, drop_tag_rows)).ok
    assert r.run(simulate).ok
    assert (r.attempted, r.failed) == (3, 2)
    assert "theta_deg_model_C" in r.failures[0] and "tags.csv" in r.failures[1]


def test_golden_mismatch_counts_as_failed(runner):
    r = runner("cli-small", seed=42)
    simulate = r.invocations[1]

    def reformat(out):
        path = out / "count_summary.json"
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1))

    assert not r.run(tampered(simulate, reformat)).ok
    assert "golden" in r.failures[0]


def test_repetitions_that_disagree_count_as_failed(runner):
    r = runner("cli-small")
    etpa = r.invocations[2]
    assert r.run(etpa).ok

    def append(out):
        with open(out / "etpa_report.txt", "a") as fh:
            fh.write(" ")

    assert not r.run(tampered(etpa, append)).ok
    assert "differ from the first repetition" in r.failures[0]


def test_nonzero_exit_counts_as_failed(runner):
    r = runner("cli-small")
    inv = dataclasses.replace(r.invocations[0],
                              argv=("tuning-curve", "--config", "missing.json", "--out", OUT))
    sample = r.run(inv)
    assert not sample.ok and r.failed == 1
    assert "exit 2" in r.failures[0]


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_end_to_end_times_are_scaled_by_the_reference_around_them():
    result = run.run_workload("cli-small", seed=3, seconds=0.01, trace=False, tiny=True)
    samples = result["samples"]
    assert len(samples["reference_gap_means_s"]) == 1 + len(samples["setups"]) + len(
        samples["iterations"])
    assert all(w > 0 and c > 0 for w, c in samples["reference_wall_cpu_s"])
    first = samples["iterations"][0]
    (w1, c1), (w2, c2) = samples["reference_gap_means_s"][1:3]
    assert first["scale"] == pytest.approx(run.REF_S / (0.5 * (w1 + w2)))
    assert first["cpu_scale"] == pytest.approx(run.REF_S / (0.5 * (c1 + c2)))
    walls = [it["wall_s"] * it["scale"] for it in samples["iterations"]]
    assert result["metrics"]["wall_norm_s"]["value"] == pytest.approx(run.median(walls))
