"""The cost tool behind the README's projected hours still runs against the
SQA internals it times."""

import importlib.util
import json
import math
import sys
from pathlib import Path

SQA_COST = Path(__file__).resolve().parents[1] / "tools" / "sqa_cost.py"


def _sqa_cost(monkeypatch):
    # the tool puts src/ and bench/ on sys.path; the patch restores it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("sqa_cost", SQA_COST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sqa_cost_times_a_stack_and_projects_the_readme_config(monkeypatch, capsys):
    tool = _sqa_cost(monkeypatch)
    assert 0 < tool._ns_per_update(1, 8, 1, 1) < math.inf
    # the README projection at one sweep and one repetition per level
    monkeypatch.setitem(tool.README_TIMING, "sweeps", 1)
    monkeypatch.setitem(tool.README_TIMING, "reps", 1)
    tool.readme(None)
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["C"] for line in lines[:-1]] == list(tool.README["Cs"])
    assert 0 < lines[-1]["readme_single_core_hours"] < math.inf
