"""Checks of one `nqac run`'s outputs against the benchmark's own references.

Each check returns a list of problems found; an empty list means the outputs
are correct. Tolerances are derived from sample counts, not from outputs
observed on any one seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from workloads import ORDERING_ALPHA

#: standard errors that must separate P_1 < P_2 < P_3 on sqa_nested
SEPARATION = 3.0
#: PT tolerance in units of the largest binomial standard error 0.5/sqrt(n).
#: Records 5 sweeps apart are correlated near infinite temperature (small
#: alpha), where the scatter is ~1.5x binomial, and P is the best of several
#: gamma estimates, which biases it up; 24 seeds x 32 points gave at most 3.7.
PT_TOLERANCE = 6.0
EPS = 1e-9


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_curves(out: Path) -> dict[tuple[int, float], tuple[float, float, float]]:
    """(C, alpha) -> (gamma_star, P, stderr) from curves.csv."""
    return {
        (int(r["C"]), float(r["alpha"])): (float(r["gamma_star"]), float(r["P"]), float(r["stderr"]))
        for r in _rows(out / "curves.csv")
    }


def read_boost(out: Path) -> dict[int, tuple[float, float, float] | None]:
    return {
        int(r["C"]): None if r["mu_mid"] == "" else (float(r["mu_mid"]), float(r["mu_low"]), float(r["mu_high"]))
        for r in _rows(out / "boost.csv")
    }


def check_common(out: Path, cfg: dict, report: dict) -> list[str]:
    """Checks every workload shares: curves, boost and ground states."""
    bad = []
    n, h, J = ref.k4_problem()
    e0, ground = ref.ground_states(n, h, J)
    manifest = json.loads((out / "manifest.json").read_text())
    if abs(manifest["ground_energy"] - e0) > EPS or abs(report["ground_energy"] - e0) > EPS:
        bad.append(f"ground energy {manifest['ground_energy']} / {report['ground_energy']}, reference {e0}")
    if sorted(map(tuple, report["ground_states"])) != sorted(map(tuple, ground.tolist())):
        bad.append("ground states differ from the reference enumerator")

    curves = read_curves(out)
    grid = {(C, float(a)) for C in cfg["C"] for a in cfg["alphas"]}
    if set(curves) != grid:
        bad.append(f"curves.csv covers {sorted(curves)}, expected {sorted(grid)}")
    for key, (g, P, se) in curves.items():
        if not (0.0 <= P <= 1.0 and se >= 0.0):
            bad.append(f"curves.csv {key}: P={P}, stderr={se}")
        if g not in cfg["gammas"]:
            bad.append(f"curves.csv {key}: gamma_star {g} not in the grid")

    boost = read_boost(out)
    if boost.get(1) is None or boost[1][0] != 1.0:
        bad.append(f"boost.csv: mu_1 is {boost.get(1)}, expected exactly 1")
    for C, mu in boost.items():
        if mu is not None and not (mu[1] <= mu[0] <= mu[2]):
            bad.append(f"boost.csv C={C}: mu_low <= mu_mid <= mu_high fails: {mu}")
    return bad


def _all_mu_defined(out: Path, increasing: bool) -> list[str]:
    boost = read_boost(out)
    bad = [f"boost.csv: mu_{C} undefined" for C, mu in boost.items() if mu is None]
    if not (out / "eta.txt").exists():
        bad.append("eta.txt missing")
    mids = [boost[C][0] for C in sorted(boost) if boost[C] is not None]
    if increasing and any(b <= a for a, b in zip(mids, mids[1:])):
        bad.append(f"mu_C does not grow with C: {mids}")
    return bad


def read_samples(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """(header, configs, cycle ids) of one NDJSON sample file."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        recs = [json.loads(line) for line in fh if line.strip()]
    configs = np.asarray([r["config"] for r in recs], dtype=np.int64)
    return header, configs, np.asarray([r["cycle"] for r in recs], dtype=np.int64)


def check_sqa(out: Path, cfg: dict, nested: bool) -> list[str]:
    """Sample files of an SQA run; on unembedded runs, P against vote counts."""
    bad = []
    n, h, J = ref.k4_problem()
    _, ground = ref.ground_states(n, h, J)
    cycles, runs = int(cfg["cycles"]), int(cfg["runs_per_cycle"])
    curves = read_curves(out)
    for ci, C in enumerate(cfg["C"]):
        for ai, alpha in enumerate(cfg["alphas"]):
            bounds = {}
            for gi, gamma in enumerate(cfg["gammas"]):
                path = out / "samples" / f"C{C}_a{ai}_g{gi}.ndjson"
                header, configs, ids = read_samples(path)
                if configs.shape[0] != cycles * runs or np.any(np.abs(configs) != 1):
                    bad.append(f"{path.name}: expected {cycles}x{runs} records of +-1 spins")
                    continue
                if configs.shape[1] < C * n or sorted(np.bincount(ids).tolist()) != [runs] * cycles:
                    bad.append(f"{path.name}: record width {configs.shape[1]} or cycle ids wrong")
                    continue
                if not nested:
                    continue
                lo = hi = 0.0
                for rec in header["cycles"]:
                    perm = np.asarray(rec["permutation"])
                    copies = perm[np.arange(n * C).reshape(n, C)]
                    hits, tied = ref.majority_counts(configs[ids == rec["cycle"]], copies, ground)
                    lo += hits / runs / cycles
                    hi += (hits + tied) / runs / cycles
                bounds[gamma] = (lo, hi)
            if not nested or len(bounds) != len(cfg["gammas"]):
                continue
            g, P, _ = curves[(C, float(alpha))]
            lo, hi = bounds[g]
            if not (lo - EPS <= P <= hi + EPS):
                bad.append(f"C={C} alpha={alpha}: P={P} outside vote-count bounds [{lo}, {hi}]")
            if P < max(b[0] for b in bounds.values()) - EPS:
                bad.append(f"C={C} alpha={alpha}: gamma_star {g} is not the best gamma")
    if nested and not bad:
        bad += _check_nesting_helps(curves, cfg, len(ground) / 2 ** n, cycles * runs)
        bad += _all_mu_defined(out, increasing=False)
    return bad


def _check_nesting_helps(curves, cfg, floor: float, records: int) -> list[str]:
    bad = []
    ps = [curves[(C, ORDERING_ALPHA)][1] for C in cfg["C"]]
    ses = [math.sqrt(p * (1 - p) / records) for p in ps]
    for i in range(len(ps) - 1):
        if not ps[i] + SEPARATION * ses[i] < ps[i + 1] - SEPARATION * ses[i + 1]:
            bad.append(f"alpha={ORDERING_ALPHA}: P_C not separated by {SEPARATION} stderr: {ps}")
    top = max(cfg["alphas"])
    for C in cfg["C"]:
        if not curves[(C, float(top))][1] > floor:
            bad.append(f"C={C} alpha={top}: P does not beat the random floor {floor}")
    return bad


def check_pt(out: Path, cfg: dict) -> list[str]:
    """P against the exact top-rung decoded success, best over the gamma grid."""
    bad = []
    n, h, J = ref.k4_problem()
    _, ground = ref.ground_states(n, h, J)
    ep = cfg["engine_params"]
    n_samples = int(ep["n_samples"])
    tol = PT_TOLERANCE * 0.5 / math.sqrt(n_samples)
    curves = read_curves(out)
    for C in cfg["C"]:
        for alpha in cfg["alphas"]:
            exact = max(
                ref.thermal_decoded_success(n, h, J, C, g, alpha, float(ep["beta_max"]), ground)
                for g in cfg["gammas"]
            )
            P = curves[(C, float(alpha))][1]
            if abs(P - exact) > tol:
                bad.append(f"C={C} alpha={alpha}: P={P}, exact {exact:.4f}, tolerance {tol:.4f}")
    return bad + _all_mu_defined(out, increasing=True)


def check_run(workload: str, out: Path, cfg: dict, report: dict) -> list[str]:
    bad = check_common(out, cfg, report)
    if cfg["engine"] == "pt":
        return bad + check_pt(out, cfg)
    return bad + check_sqa(out, cfg, nested=cfg.get("embedding", "none") == "none")
