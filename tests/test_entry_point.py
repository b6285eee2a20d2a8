"""The entry-point cases of ``tests/entry_point.py``, run against
``python -m spdclab.cli``, and a check that its runner reports each fault."""

import glob
import os
import subprocess
import sys

import entry_point
from conftest import src_env

COMMAND = [sys.executable, "-m", "spdclab.cli"]


def test_entry_point_cases_pass():
    done = subprocess.run([sys.executable, entry_point.__file__, *COMMAND], env=src_env(),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    # and each paper config has its case
    paper = glob.glob("paper_*.json", root_dir=os.path.join(entry_point.REPO, "configs"))
    assert sorted(paper) == sorted(os.path.basename(case["config"]) for case in entry_point.PAPER)


def test_runner_names_every_failing_case(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", src_env()["PYTHONPATH"])
    cases = {case["name"]: case for case in entry_point.CASES}
    golden = bytearray(entry_point.read(f"{entry_point.DATA}/golden_analysis_report.json"))
    golden[-2] ^= 1  # one flipped byte in a copy of the golden
    (tmp_path / "golden.json").write_bytes(golden)
    os.makedirs(tmp_path / "work" / "hot_jsa")
    (tmp_path / "work" / "hot_jsa" / "stray.csv").touch()
    faults = [{**cases["paper_scenario"], "exit": 1},
              {**cases["zero_pump_paper_tuning"], "stderr": "spdclab: wavelength 0 um\n"},
              cases["hot_jsa"],  # its --out already holds a file
              {**cases["paper_analyze"],
               "golden": {"analysis_report.json": str(tmp_path / "golden.json")}},
              cases["paper_tuning"]]
    assert entry_point.run(COMMAND, faults, str(tmp_path / "work")) == 1
    expected = [("FAIL paper_scenario:", "exit 0, expected 1"),
                ("FAIL zero_pump_paper_tuning:", "stderr 'spdclab: wavelength 0 um outside"),
                ("FAIL hot_jsa:", "--out holds ['stray.csv']"),
                ("FAIL paper_analyze:", "analysis_report.json is not"),
                ("ok   paper_tuning", ""), ("4 of 5 cases failed", "")]
    for line, (head, why) in zip(capsys.readouterr().out.splitlines(), expected, strict=True):
        assert line.startswith(head) and why in line, line
