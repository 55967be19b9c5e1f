"""Byte-for-byte CLI output against checked-in golden files.

Each case in golden/cases.json runs `cli.main` in-process inside a copy
of golden/inputs. Its stdout must equal golden/<case>/stdout, and every
other file in golden/<case>/ must equal the file of that name the run
wrote (the `--out` table, the `--write-scenario` file). The goldens were
written by the code before the validation and regime refactor and are
not regenerated by any tool: a difference is a behaviour change.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from wellbeing_dynamics.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    shutil.copytree(GOLDEN / "inputs", work)
    monkeypatch.chdir(work)
    assert main(CASES[name]) == 0
    expected = GOLDEN / name
    assert capsys.readouterr().out.encode() == (expected / "stdout").read_bytes()
    for filename in sorted(p.name for p in expected.iterdir() if p.name != "stdout"):
        assert (work / filename).read_bytes() == (expected / filename).read_bytes(), filename
