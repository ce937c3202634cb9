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


def test_sqa_cost_stack_table_times_embedded_stacks(monkeypatch, capsys):
    # the stack table at one sweep, one repetition and one shape per part:
    # its embedded row anneals the choi embedding's 8 chain qubits at C = 1
    tool = _sqa_cost(monkeypatch)
    monkeypatch.setattr(tool, "STACKS", {"K": (8,), "Cs": (1,), "units": (1,), "sweeps": 1,
                                         "reps": 1})
    monkeypatch.setitem(tool.EMBEDDED, "sweeps", 1)
    tool.stacks(None)
    nested, embedded = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert (nested["n"], embedded["embedding"], embedded["n"]) == (4, "choi", 8)
    assert 0 < embedded["ns_per_update"] < math.inf
