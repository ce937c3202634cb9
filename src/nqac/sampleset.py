"""Sample sets: measured spin configurations plus programming-cycle metadata.

Serialized as newline-delimited JSON. The first line is a header object with
the problem digest and the per-cycle metadata (gauge vector, nested-vertex
permutation, anneal seed); each following line is one measurement record
referencing its cycle by id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def save_sampleset(ss: SampleSet, path) -> None:
    with open(path, "w") as fh:
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
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for cfg, cid in zip(ss.configs, ss.cycle_ids):
            rec = {"cycle": int(cid), "config": cfg.tolist()}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_sampleset(path) -> SampleSet:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("type") != "header":
            raise DomainError(f"{path}: missing sample set header line")
        cycles = tuple(
            CycleRecord(
                cycle=int(c["cycle"]),
                gauge=np.asarray(c["gauge"], dtype=np.int8),
                permutation=np.asarray(c["permutation"], dtype=np.int64),
                seed=int(c["seed"]),
            )
            for c in header["cycles"]
        )
        configs = []
        ids = []
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            configs.append(rec["config"])
            ids.append(rec["cycle"])
    return SampleSet(
        configs=np.asarray(configs, dtype=np.int8),
        cycle_ids=np.asarray(ids, dtype=np.int64),
        cycles=cycles,
        problem_digest=header["problem_digest"],
    )
