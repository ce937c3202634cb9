import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from nqac.errors import DomainError
from nqac.sampleset import CycleRecord, SampleSet, load_sampleset, save_sampleset


def two_cycle_set():
    rng = np.random.default_rng(4)
    cycles = tuple(
        CycleRecord(cycle=c, gauge=rng.choice([-1, 1], 5), permutation=rng.permutation(5),
                    seed=100 + c)
        for c in range(2)
    )
    return SampleSet(configs=rng.choice(np.array([-1, 1], dtype=np.int8), size=(6, 5)),
                     cycle_ids=[0, 0, 0, 1, 1, 1], cycles=cycles, problem_digest="d")


def test_round_trip(tmp_path):
    ss = two_cycle_set()
    path = tmp_path / "s.ndjson"
    save_sampleset(ss, path)
    back = load_sampleset(path)
    assert np.array_equal(back.configs, ss.configs)
    assert np.array_equal(back.cycle_ids, ss.cycle_ids)
    assert back.problem_digest == "d"
    for a, b in zip(back.cycles, ss.cycles):
        assert (a.cycle, a.seed) == (b.cycle, b.seed)
        assert np.array_equal(a.gauge, b.gauge) and np.array_equal(a.permutation, b.permutation)


@pytest.mark.parametrize(
    "line, why",
    [
        ('{"config": [1, -1, 1, 1', "bad record"),  # a record cut short
        ('{"config": [1, -1, 1, 1], "cycle": 0}', "5 spins"),  # ragged
        ('{"config": [1, -1, 1, 1, 1, 1], "cycle": 0}', "5 spins"),
        ('{"config": [1, -1, 0, 1, 1], "cycle": 0}', "-1 or 1"),
        ('{"config": [1, -1, 1, 1, 1.0], "cycle": 0}', "-1 or 1"),
        ('{"config": [1, -1, 1, 1, 1], "cycle": 7}', "a cycle in the header"),
        ('{"config": [1, -1, 1, 1, 1]}', "a record is"),
        ("[1, -1, 1, 1, 1]", "a record is"),
    ],
)
def test_bad_record_names_file_and_line(tmp_path, line, why):
    path = tmp_path / "s.ndjson"
    save_sampleset(two_cycle_set(), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = line + "\n"  # the fourth record
    path.write_text("".join(lines))
    with pytest.raises(DomainError, match=why) as err:
        load_sampleset(path)
    assert f"{path}: line 5: " in str(err.value)


@pytest.mark.parametrize("text", ["", "not json\n", '{"type": "records"}\n', "[1]\n"])
def test_bad_header_is_domain_error(tmp_path, text):
    path = tmp_path / "s.ndjson"
    path.write_text(text)
    with pytest.raises(DomainError, match="line 1"):
        load_sampleset(path)


def _equal_sets(a, b):
    return (np.array_equal(a.configs, b.configs) and np.array_equal(a.cycle_ids, b.cycle_ids)
            and a.problem_digest == b.problem_digest
            and [(c.cycle, c.seed, c.gauge.tolist(), c.permutation.tolist()) for c in a.cycles]
            == [(c.cycle, c.seed, c.gauge.tolist(), c.permutation.tolist()) for c in b.cycles])


def test_file_has_no_optional_whitespace_and_spaced_files_still_load(tmp_path):
    # the spaced form is how sample sets were written before: every line
    # json.dumps(obj, sort_keys=True); it differs only by padding spaces
    ss = two_cycle_set()
    path = tmp_path / "s.ndjson"
    save_sampleset(ss, path)
    compact = path.read_text()
    spaced = "".join(json.dumps(json.loads(line), sort_keys=True) + "\n"
                     for line in compact.splitlines())
    assert " " not in compact and spaced.replace(" ", "") == compact != spaced
    path.write_text(spaced)
    assert _equal_sets(load_sampleset(path), ss)


def test_benchmark_reader_parses_written_files(tmp_path, monkeypatch):
    # bench/checks.py reads the sample files of every benchmark run; a format
    # it cannot parse should fail here, not as wrong outputs in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    checks = importlib.import_module("checks")
    ss = two_cycle_set()
    path = tmp_path / "s.ndjson"
    save_sampleset(ss, path)
    header, configs, ids = checks.read_samples(path)
    assert header["problem_digest"] == ss.problem_digest
    assert header["cycles"] == [
        {"cycle": c.cycle, "gauge": c.gauge.tolist(), "permutation": c.permutation.tolist(),
         "seed": c.seed} for c in ss.cycles]
    assert np.array_equal(configs, ss.configs) and np.array_equal(ids, ss.cycle_ids)
