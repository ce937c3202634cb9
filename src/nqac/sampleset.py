"""Sample sets: measured spin configurations plus programming-cycle metadata.

Serialized as newline-delimited JSON. The first line is a header object with
the problem digest and the per-cycle metadata (gauge vector, nested-vertex
permutation, anneal seed); each following line is one measurement record,
``{"config":[...],"cycle":id}`` with its keys sorted, referencing its cycle
by id. Blank lines are skipped.

Every JSON file under a run's ``samples/`` is written in the form
``sample_json`` gives: keys sorted and no optional whitespace, which saves
about a fifth of the bytes of a sample set. Readers accept any JSON whitespace, so files written with
spaces after ``,`` and ``:`` still load.

The writer formats each distinct configuration once and the reader parses all
records with one ``json.loads``; a record that is not a valid JSON object, or
whose config is not a row of +-1 spins as wide as the cycles' gauges, is
rejected with a ``DomainError`` naming its line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, DomainError


@dataclass(frozen=True)
class CycleRecord:
    """One programming cycle: gauge, permutation and the anneal seed used."""

    cycle: int
    gauge: np.ndarray
    permutation: np.ndarray
    seed: int

    def __post_init__(self):
        g = np.asarray(self.gauge, dtype=np.int8)
        p = np.asarray(self.permutation, dtype=np.int64)
        g.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "gauge", g)
        object.__setattr__(self, "permutation", p)


@dataclass(frozen=True)
class SampleSet:
    """Configurations (gauge already undone) with cycle bookkeeping."""

    configs: np.ndarray
    cycle_ids: np.ndarray
    cycles: tuple
    problem_digest: str

    def __post_init__(self):
        configs = np.asarray(self.configs, dtype=np.int8)
        ids = np.asarray(self.cycle_ids, dtype=np.int64)
        if configs.ndim != 2:
            raise DimensionMismatch("configs must be (records, n)")
        if ids.shape != (configs.shape[0],):
            raise DimensionMismatch("cycle_ids length mismatch")
        configs.setflags(write=False)
        ids.setflags(write=False)
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "cycle_ids", ids)
        object.__setattr__(self, "cycles", tuple(self.cycles))

    @classmethod
    def unprogrammed(cls, configs: np.ndarray, seed: int, problem_digest: str) -> "SampleSet":
        """Samples of a problem as given, in one cycle 0 with gauge all +1, the
        identity permutation and the sampler's ``seed``."""
        n = configs.shape[1]
        cycle = CycleRecord(cycle=0, gauge=np.ones(n, dtype=np.int8),
                            permutation=np.arange(n, dtype=np.int64), seed=seed)
        return cls(configs=configs, cycle_ids=np.zeros(configs.shape[0], dtype=np.int64),
                   cycles=(cycle,), problem_digest=problem_digest)

    @property
    def n_records(self) -> int:
        return self.configs.shape[0]

    @property
    def n_spins(self) -> int:
        return self.configs.shape[1]

    def cycle_slices(self) -> dict[int, np.ndarray]:
        """Record indices per cycle id."""
        return {
            int(c): np.flatnonzero(self.cycle_ids == c)
            for c in np.unique(self.cycle_ids)
        }


def sample_json(obj) -> str:
    """The JSON text of ``obj`` as every file under ``samples/`` holds it:
    keys sorted, no whitespace between tokens."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_sampleset(ss: SampleSet, path) -> None:
    header = {
        "type": "header",
        "problem_digest": ss.problem_digest,
        "cycles": [
            {
                "cycle": c.cycle,
                "gauge": c.gauge.tolist(),
                "permutation": c.permutation.tolist(),
                "seed": int(c.seed),
            }
            for c in ss.cycles
        ],
    }
    # each distinct row is formatted once; a line is the bytes of
    # sample_json({"cycle": c, "config": row})
    rows = np.ascontiguousarray(ss.configs)
    _, first, which = np.unique(
        rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
        return_index=True, return_inverse=True,
    )
    heads = ['{"config":[' + ",".join(map(str, row)) + '],"cycle":'
             for row in rows[first].tolist()]
    with open(path, "w") as fh:
        fh.write(sample_json(header) + "\n")
        fh.writelines(f"{heads[k]}{c}}}\n" for k, c in zip(which.tolist(), ss.cycle_ids.tolist()))


def _records(recs: list, cycles: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Cycle ids and configs of parsed records: each config is as wide as the
    cycles' gauges, and each id is one of theirs. ValueError says what is not."""
    n = cycles[0].gauge.size if cycles else 0
    if not recs:
        return np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=np.int8)
    try:
        ids = np.array([r["cycle"] for r in recs])
        configs = np.array([r["config"] for r in recs])
    except (TypeError, KeyError, ValueError):
        raise ValueError('a record is {"config": [spins], "cycle": id}') from None
    if ids.shape != (len(recs),) or ids.dtype.kind != "i" or not np.isin(
            ids, [c.cycle for c in cycles]).all():
        raise ValueError("a record's cycle is the id of a cycle in the header")
    if configs.shape != (len(recs), n) or configs.dtype.kind != "i" or np.any(
            np.abs(configs) != 1):
        raise ValueError(f"a record's config is a list of {n} spins, each -1 or 1")
    return ids.astype(np.int64), configs.astype(np.int8)


def load_sampleset(path) -> SampleSet:
    try:
        lines = Path(path).read_text().split("\n")
    except UnicodeDecodeError:
        raise DomainError(f"{path}: it is not text") from None
    try:
        header = json.loads(lines[0])
        if header.get("type") != "header":
            raise ValueError
        cycles = tuple(
            CycleRecord(
                cycle=int(c["cycle"]),
                gauge=np.asarray(c["gauge"], dtype=np.int8),
                permutation=np.asarray(c["permutation"], dtype=np.int64),
                seed=int(c["seed"]),
            )
            for c in header["cycles"]
        )
        digest = header["problem_digest"]
    except (ValueError, TypeError, KeyError, AttributeError):
        raise DomainError(f"{path}: line 1 is not a sample set header") from None
    body = [(no, line) for no, line in enumerate(lines[1:], 2) if line.strip()]
    try:
        recs = json.loads("[" + ",".join(line for _, line in body) + "]")
        if len(recs) != len(body):
            raise ValueError("a record spans more than one line")
        ids, configs = _records(recs, cycles)
    except ValueError as exc:
        # find the first bad line; the whole-body parse above only says there is one
        for no, line in body:
            try:
                _records([json.loads(line)], cycles)
            except ValueError as bad:
                if isinstance(bad, json.JSONDecodeError):
                    bad = f"{bad.msg} at column {bad.colno}"
                raise DomainError(f"{path}: line {no}: bad record: {bad}") from None
        raise DomainError(f"{path}: {exc}") from None
    return SampleSet(configs=configs, cycle_ids=ids, cycles=cycles, problem_digest=digest)
