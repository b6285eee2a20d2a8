"""spdclab benchmark harness.

Runs one workload of the real ``spdclab`` CLI, as subprocesses of the
checkout's own ``src/`` (via ``PYTHONPATH``), one invocation at a time,
checks every output and reports metrics::

    python3 bench/run.py --workload heralded-mc --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` reports the end-to-end metrics (wall, CPU, peak RSS, set-up;
the times scaled to a fixed host speed by ``bench/reference.py``);
``--trace 1`` replays the workload with ``bench/spans.py`` and reports the
per-layer metrics.  ``--workload all`` runs every workload both ways.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record (machine, samples,
output digests, spans) goes to ``bench/results/``.  The exit code is 0 when
every output check passed, 1 when one failed and 2 on a usage error or when
the checkout holds no ``spdclab`` sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
from workloads import OUT, WORKLOADS, CheckFailed, Context, INPUTS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 90.0        # per invocation; a timeout counts as a failure
SETUPS = 2              # set-ups per run; setup_s is their median
PROBES = 5              # interpreter, import and reference probes per traced run
# Nominal wall time of bench/reference.py.  End-to-end times are scaled by
# REF_S / (the reference's wall time around them), i.e. reported in seconds
# on a host where the reference takes REF_S: a round figure between its
# fast and slow times (0.27 and 0.45 s) on the host of bench/README.md.
REF_S = 0.35
REF_EVERY_S = 3.0       # after a set-up or iteration, one reference per this much of it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (("wall_norm_s", "s"), ("cpu_norm_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

PER_LAYER = (
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("dispersion.load_material.s", "s"),
    ("phasematch.tuning_curve.s", "s"), ("phasematch.tuning_curve.points", "count"),
    ("phasematch.find_degeneracy_temperature.s", "s"),
    ("phasematch.fit_calibration_offset.s", "s"),
    ("biphoton.build_jsa.s", "s"), ("biphoton.build_jsa.grid_points", "count"),
    ("biphoton.apply_fiber_phase.s", "s"),
    ("biphoton.to_temporal.s", "s"), ("biphoton.to_temporal.calls", "count"),
    ("biphoton.to_temporal.gflop_computed", "GFLOP"),
    ("biphoton.entanglement_time_from_jti.s", "s"),
    ("biphoton.export_matrix_csv.s", "s"), ("biphoton.export_matrix_csv.bytes", "bytes"),
    ("biphoton.export_matrix_csv.mb_per_s", "MB/s"),
    ("biphoton.import_jsi_csv.s", "s"), ("biphoton.import_jsi_csv.bytes", "bytes"),
    ("counting.simulate_tags.s", "s"), ("counting.simulate_tags.clicks", "count"),
    ("counting.TagStream.dump_csv.s", "s"), ("counting.TagStream.dump_csv.bytes", "bytes"),
    ("counting.count_coincidences.s", "s"), ("counting.count_coincidences.self_s", "s"),
    ("counting.match_coincidences.s", "s"), ("counting.match_triples.s", "s"),
    ("counting.match.clicks_scanned", "count"), ("counting.match.matched_per_click", "1"),
    ("etpa.feasibility_report.s", "s"),
    ("analysis.ingest_rate_table.s", "s"), ("analysis.analysis_report.s", "s"),
    ("layer.dispersion.s", "s"), ("layer.phasematch.s", "s"), ("layer.biphoton.s", "s"),
    ("layer.counting.s", "s"), ("layer.etpa.s", "s"), ("layer.analysis.s", "s"),
    ("trace.cli_wall_s", "s"), ("trace.spans_s", "s"), ("trace.unaccounted_s", "s"),
    ("trace.unaccounted_frac", "1"), ("trace.overhead_s", "s"), ("trace.replays", "count"),
    ("host.reference_s", "s"),
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g} {float(np.percentile(values, p)):.4f}"
    return "no percentile has >= 10 samples beyond it"


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
            **git_state()}


class Runner:
    """Runs invocations of one workload, one at a time, in a private work
    directory; tallies attempts and failures and checks that repeated runs
    of an invocation write identical bytes."""

    def __init__(self, workload, seed: int, tiny: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.ctx = Context(ROOT, seed)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.invocations = workload.invocations(seed, tiny)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.digests: dict = {}      # invocation label -> {file: sha256}
        self.digest_mismatches = 0
        self.last_spans: list = []

    def generate(self) -> float:
        inputs = self.work / INPUTS
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        t0 = time.perf_counter()
        self.workload.generate(inputs, ROOT, self.seed, self.tiny)
        return time.perf_counter() - t0

    def spawn(self, cmd: list) -> tuple:
        """(returncode or None on timeout, wall, cpu, maxrss MB) of one child."""
        with open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM or ^C): end the child before leaving.
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = wall >= TIMEOUT_S and proc.returncode < 0
        return (None if timed_out else proc.returncode, wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def run(self, inv, replay: bool = False) -> Sample:
        out = self.work / OUT
        shutil.rmtree(out, ignore_errors=True)
        if replay:
            spans_path = self.work / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "spans.py"), "--workload",
                   self.workload.name, "--seed", str(self.seed), "--spans",
                   str(spans_path), "--", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "spdclab.cli", *inv.argv]
        label = f"{'replay ' if replay else ''}{inv.label}"
        rc, wall, cpu, rss = self.spawn(cmd)
        self.attempted += 1
        ok = False
        if rc != 0:
            stderr = (self.work / "stderr.txt").read_text(errors="replace").strip()
            self.fail(label, ("timed out" if rc is None else f"exit {rc}")
                      + (f": {stderr.splitlines()[-1]}" if stderr else ""))
        else:
            try:
                inv.check(out, self.ctx)
                ok = self.compare_digests(inv.label, out)
            except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
                self.fail(label, f"output check: {type(exc).__name__}: {exc}")
        if replay:
            if spans_path.exists():
                self.last_spans = json.loads(spans_path.read_text())
                spans_path.unlink()
            else:
                self.last_spans = []
        shutil.rmtree(out, ignore_errors=True)
        return Sample(wall, cpu, rss, ok)

    def compare_digests(self, label: str, out: Path) -> bool:
        found = {p.relative_to(out).as_posix(): sha256(p)
                 for p in sorted(out.rglob("*")) if p.is_file()}
        reference = self.digests.setdefault(label, found)
        if found != reference:
            changed = sorted(k for k in found.keys() | reference.keys()
                             if found.get(k) != reference.get(k))
            self.fail(label, f"outputs differ from the first repetition: {changed}")
            self.digest_mismatches += 1
            return False
        return True

    def probe(self, code: str) -> float:
        rc, wall, _, _ = self.spawn([sys.executable, "-c", code])
        self.attempted += 1
        if rc != 0:
            self.fail(f"probe {code!r}", f"exit {rc}")
        return wall

    def reference(self) -> tuple:
        """(wall, cpu) of one run of the fixed reference task.  It runs no
        spdclab code, so it is not counted as an attempted invocation, and
        its failure is an error of the harness."""
        scratch = self.work / "reference.csv"
        rc, wall, cpu, _ = self.spawn([sys.executable, str(BENCH_DIR / "reference.py"),
                                       scratch.name])
        scratch.unlink(missing_ok=True)
        if rc != 0:
            raise RuntimeError(f"bench/reference.py exited with {rc}: "
                               + (self.work / "stderr.txt").read_text(errors="replace"))
        return wall, cpu

    def setup(self) -> float:
        """Generate the inputs and make one warm-up invocation; returns the
        time the two took (checks excluded)."""
        gen = self.generate()
        return gen + self.run(self.invocations[0]).wall_s

    def iteration(self) -> list:
        return [self.run(inv) for inv in self.invocations]


def iteration_totals(samples: list) -> tuple:
    return (sum(s.wall_s for s in samples), sum(s.cpu_s for s in samples),
            max(s.rss_mb for s in samples))


def measure_end_to_end(runner: Runner, seconds: float) -> tuple:
    # The host's CPU speed drifts by up to 1.8x within seconds (bench/README.md),
    # so the reference task runs before the first set-up and after every
    # set-up and iteration, once per REF_EVERY_S of it.  Each set-up and
    # iteration wall time is scaled by REF_S over the mean reference wall time
    # just before and just after it, and each CPU time by REF_S over the mean
    # reference CPU time: when the host makes processes wait, wall time grows
    # and CPU time does not.  Each set-up is followed by its share of the
    # measurement time, at least one iteration, so that the samples of a run
    # spread over all of it.
    n_setups = 1 if runner.tiny else SETUPS
    ref_runs = []                      # every reference (wall, cpu), in order
    refs = []                          # mean reference (wall, cpu) of each gap

    def reference(after_s: float) -> None:
        times = [runner.reference() for _ in range(max(1, round(after_s / REF_EVERY_S)))]
        ref_runs.extend(times)
        refs.append(tuple(statistics.fmean(col) for col in zip(*times)))

    reference(0.0)
    setups, iterations = [], []        # (raw values, index of the reference before)
    for _ in range(n_setups):
        setups.append((runner.setup(), len(refs) - 1))
        reference(setups[-1][0])
        deadline = time.perf_counter() + seconds / n_setups
        while True:
            iterations.append((iteration_totals(runner.iteration()), len(refs) - 1))
            reference(iterations[-1][0][0])
            if time.perf_counter() >= deadline:
                break

    def scale(i: int, k: int = 0) -> float:
        """REF_S over the mean reference wall (k=0) or CPU (k=1) time around
        the set-up or iteration that follows gap i."""
        return REF_S / (0.5 * (refs[i][k] + refs[i + 1][k]))

    walls = [w * scale(i) for (w, _, _), i in iterations]
    cpus = [c * scale(i, 1) for (_, c, _), i in iterations]
    rss = [r for (_, _, r), _ in iterations]
    setup_norm = [s * scale(i) for s, i in setups]
    raw_walls = [w for (w, _, _), _ in iterations]
    ref_walls = [w for w, _ in ref_runs]
    metrics = {"wall_norm_s": median(walls), "cpu_norm_s": median(cpus),
               "peak_rss_mb": median(rss), "setup_s": median(setup_norm)}
    detail = {"wall_norm_s": f"median of {len(walls)}; {tail(walls)}; "
                             f"unscaled median {median(raw_walls):.4f} s",
              "cpu_norm_s": f"median of {len(cpus)}; {tail(cpus)}",
              "peak_rss_mb": f"median of {len(rss)}; max {max(rss):.1f}",
              "setup_s": f"median of {len(setups)}; unscaled "
                         + ", ".join(f"{s:.3f}" for s, _ in setups),
              "reference": f"median wall of {len(ref_walls)}: {median(ref_walls):.4f} s "
                           f"(range {min(ref_walls):.3f} to {max(ref_walls):.3f}; "
                           f"nominal {REF_S} s)"}
    record = {"reference_wall_cpu_s": ref_runs, "reference_gap_means_s": refs,
              "ref_nominal_s": REF_S,
              "setups": [{"setup_s": s, "scale": scale(i)} for s, i in setups],
              "iterations": [{"wall_s": w, "cpu_s": c, "peak_rss_mb": r,
                              "scale": scale(i), "cpu_scale": scale(i, 1)}
                             for (w, c, r), i in iterations]}
    return metrics, detail, record


def derive(totals: dict) -> dict:
    """Add the ratio metrics of one replay to its span totals."""
    get = totals.get
    scanned = get("counting.match_coincidences.clicks_scanned", 0.0) + get(
        "counting.match_triples.clicks_scanned", 0.0)
    matched = get("counting.match_coincidences.matched", 0.0) + get(
        "counting.match_triples.matched", 0.0)
    export_s = get("biphoton.export_matrix_csv.s", 0.0)
    return {**totals,
            "counting.match.clicks_scanned": scanned,
            "counting.match.matched_per_click": matched / scanned if scanned else 0.0,
            "biphoton.export_matrix_csv.mb_per_s":
                get("biphoton.export_matrix_csv.bytes", 0.0) / 1e6 / export_s if export_s else 0.0}


def measure_layers(runner: Runner, seconds: float) -> tuple:
    runner.setup()
    interpreter = [runner.probe("pass") for _ in range(PROBES)]
    imports = [runner.probe("import spdclab.cli") for _ in range(PROBES)]
    references = [runner.reference()[0] for _ in range(PROBES)]
    cli_walls, replays, replay_walls, all_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not replays or time.perf_counter() < deadline:
        cli_walls.append(iteration_totals(runner.iteration())[0])
        totals, wall = {}, 0.0
        for inv in runner.invocations:
            wall += runner.run(inv, replay=True).wall_s
            all_spans.extend(runner.last_spans)
            for key, value in spans.summarize(runner.last_spans).items():
                totals[key] = totals.get(key, 0.0) + value
        replays.append(derive(totals))
        replay_walls.append(wall)

    metrics = {name: median([r.get(name, 0.0) for r in replays]) for name, _ in PER_LAYER}
    interp_s = median(interpreter)
    import_s = median(imports) - interp_s
    wall_s = median(cli_walls)
    calls = len(runner.invocations)
    # Wall and spans of the same replay processes, so that a change of machine
    # speed between an untraced iteration and a replay does not show up here.
    unaccounted = [w - calls * (interp_s + import_s) - r.get("trace.spans_s", 0.0)
                   for w, r in zip(replay_walls, replays)]
    metrics.update({
        "cli.interpreter_s": interp_s,
        "cli.import_s": import_s,
        "trace.cli_wall_s": wall_s,
        "trace.unaccounted_s": median(unaccounted),
        "trace.unaccounted_frac": median([u / w for u, w in zip(unaccounted, replay_walls)]),
        "trace.overhead_s": median(replay_walls) - wall_s,
        "trace.replays": float(len(replays)),
        "host.reference_s": median(references),
    })
    detail = {"trace.cli_wall_s": f"median of {len(cli_walls)} untraced iterations",
              "trace.replays": f"{calls} traced process(es) per replay",
              "cli.interpreter_s": f"median of {PROBES} 'python -c pass'",
              "cli.import_s": f"median of {PROBES} 'import spdclab.cli' minus interpreter",
              "host.reference_s": f"median of {PROBES} bench/reference.py runs; "
                                  f"host speed, not a layer",
              "biphoton.to_temporal.gflop_computed": "computed as 5 N log2 N per FFT, not measured"}
    record = {"interpreter_s": interpreter, "import_s": imports, "reference_s": references,
              "cli_wall_s": cli_walls,
              "replay_wall_s": replay_walls, "replays": replays, "spans": all_spans}
    return metrics, detail, record


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = WORKLOADS[name]
    work = BENCH_DIR / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, tiny, work)
    before = loadavg()
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, detail, record = measure(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "workload": name, "seed": seed, "seed_used": workload.seed_used,
        "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "machine": machine(), "loadavg_before": before, "loadavg_after": loadavg(),
        "attempted": runner.attempted, "failed": runner.failed, "failures": runner.failures,
        "ops_failed_frac": runner.failed / runner.attempted if runner.attempted else 1.0,
        "digests": runner.digests, "digest_mismatches": runner.digest_mismatches,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail, "samples": record,
    }


def print_report(result: dict) -> None:
    m = result["machine"]
    mode = "traced replay" if result["trace"] else "tracing off"
    seed_note = "" if result["seed_used"] else " (unused by this workload)"
    print(f"== {result['workload']}  seed {result['seed']}{seed_note}  "
          f"{result['seconds']:g} s  {mode}{'  tiny' if result['tiny'] else ''} ==")
    commit = (f"{m['commit'][:12]}{' dirty' if m['dirty'] else ''}"
              if m.get("commit") else m.get("note", "unknown"))
    print(f"commit {commit}; nproc {m['nproc']}; {m['cpu_model']}; python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}; thread env {m['thread_env'] or 'unset'}")
    print(f"loadavg before {result['loadavg_before']!r}, after {result['loadavg_after']!r}")
    for name, metric in result["metrics"].items():
        note = result["detail"].get(name, "")
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    print(f"  {'ops_failed_frac':<42} {result['ops_failed_frac']:>14.6g} 1      "
          f"{result['failed']} of {result['attempted']} invocations failed")
    if "reference" in result["detail"]:
        print(f"  {'reference task':<42} {result['detail']['reference']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    files = sum(len(v) for v in result["digests"].values())
    agree = "agree" if not result["digest_mismatches"] else \
        f"DISAGREE in {result['digest_mismatches']} repetition(s)"
    print(f"  output digests: {files} file(s) over {len(result['digests'])} invocation(s); "
          f"repetitions {agree}")


def save(result: dict) -> None:
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    (results / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    # SIGTERM unwinds like ^C, so the running child is ended and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time of one run (set-up not included)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs and one set-up, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spdclab" / "cli.py").is_file():
        print(f"bench: no spdclab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]

    results = []
    for name, trace in runs:
        result = run_workload(name, args.seed, args.seconds, trace, tiny)
        save(result)
        print_report(result)
        results.append(result)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
