"""Byte-for-byte CLI output against checked-in golden files.

Each case in golden/cases.json runs in a copy of golden/inputs, exits 0,
and must print golden/<case>/stdout and write the other files there (the
`--out` table, the `--write-scenario` file) byte for byte. The goldens are
not regenerated by any tool: a difference is a behaviour change. FAILURES
adds one failing run per exit code. Every case runs in-process; the PROCESS
cases run again through `python -m wellbeing_dynamics`.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from wellbeing_dynamics.cli import build_parser
from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
INPUTS = {p.name for p in (GOLDEN / "inputs").iterdir()}

# (arguments, exit code, stderr) of runs that print nothing on stdout and write no file.
FAILURES = {
    # q = 1.5 * 5064 * exp(0.03 * (t - 2000)) is past the float range at grid time 25361.8.
    "exit_1_income_overflow": (
        ["simulate", "--scenario", "exponential_rate.json", "--t-end", "25400", "--out", "out.csv"],
        1, "error: income overflows at t = 25361.8\n"),
    "exit_2_missing_scenario": (
        ["classify", "--scenario", "missing.json"], 2, "error: cannot read scenario file "
        "missing.json: [Errno 2] No such file or directory: 'missing.json'\n"),
    "exit_2_usage": ([], 2, build_parser().format_usage()
                     + "wbdyn: error: the following arguments are required: command\n"),
}
# One case per subcommand and per exit code.
PROCESS = ["classify_high", "simulate_exponential_both", "sweep_n", "calibrate_write_scenario",
           *FAILURES]


@pytest.mark.parametrize("name,process", [(name, False) for name in [*sorted(CASES), *FAILURES]]
                         + [(name, True) for name in PROCESS])
def test_cli_output_matches_golden(name, process, tmp_path, monkeypatch):
    work = tmp_path / "work"
    shutil.copytree(GOLDEN / "inputs", work)
    monkeypatch.chdir(work)
    if name in FAILURES:
        (args, code, stderr), stdout, files = FAILURES[name], "", {}
    else:
        files = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
        args, code, stdout, stderr = CASES[name], 0, files.pop("stdout").decode(), None
    r = run_cli(*args, process=process)
    assert (r.returncode, r.stdout) == (code, stdout)
    assert stderr is None or r.stderr == stderr  # unchecked for goldens: sweeps warn there
    for filename in sorted(files):
        assert (work / filename).read_bytes() == files[filename], filename
    assert {p.name for p in work.iterdir()} == INPUTS | set(files)
