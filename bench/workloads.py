"""The benchmark's workloads: `nqac run` configs generated from a seed.

Every workload runs the K4 antiferromagnet (written here, equal to the
bundled ``k4_af.json``). The seed only sets the config's master seed, so
the amount of work, and with it the run time, is the same for every seed.
Sizes are chosen so that one `nqac run` takes seconds on one core.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from reference import k4_problem

WORKLOADS = {
    # the headline measurement: dense unembedded SQA, large batches
    "sqa_nested": {
        "C": [1, 2, 3],
        "alphas": [0.003, 0.01, 0.03, 0.1, 1.0],
        "gammas": [0.2, 0.5],
        "engine": "sqa",
        "engine_params": {"sweeps": 25, "trotter_slices": 8, "beta": 0.1, "noise_sigma": 0.05},
        "embedding": "none",
        "cycles": 2,
        "runs_per_cycle": 1000,
        "schedule": "device",
    },
    # compilation onto an 8x8 Chimera graph, the sparse SQA path, 512-spin records
    "sqa_embedded": {
        "C": [1, 2, 3],
        "alphas": [0.1, 1.0],
        "gammas": [0.5],
        "engine": "sqa",
        "engine_params": {"sweeps": 10, "trotter_slices": 8, "beta": 0.1, "noise_sigma": 0.05},
        "embedding": "choi",
        "cycles": 2,
        "runs_per_cycle": 32,
        "schedule": "device",
    },
    # the PT kernel only; C <= 4 keeps the exact reference at 2^16 states
    "pt_scan": {
        "C": [1, 2, 3, 4],
        "alphas": [0.003, 0.0068, 0.0155, 0.0352, 0.0801, 0.182, 0.414, 1.0],
        "gammas": [0.5, 1.0],
        "engine": "pt",
        "engine_params": {
            "beta_max": 2.0, "n_betas": 12, "beta_min": 0.1,
            "sweeps": 2000, "swap_interval": 5, "n_samples": 200,
        },
    },
}

#: the alpha at which sqa_nested must resolve P_1 < P_2 < P_3
ORDERING_ALPHA = 0.1


def config_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").getrandbits(31)


def write_inputs(workload: str, seed: int, run_dir: Path) -> Path:
    """Write the problem, graph and config files for one run; return the config path."""
    run_dir.mkdir(parents=True, exist_ok=True)
    n, h, J = k4_problem()
    problem = run_dir / "k4.json"
    problem.write_text(json.dumps({
        "n": n,
        "h": {str(i): v for i, v in enumerate(h) if v},
        "J": {f"{i},{j}": v for (i, j), v in J.items()},
        "alpha": 1.0,
    }))
    cfg = dict(WORKLOADS[workload], problem=str(problem), seed=config_seed(workload, seed))
    if cfg.get("embedding", "none") != "none":
        graph = run_dir / "chimera_8x8.json"
        graph.write_text(json.dumps({"rows": 8, "cols": 8, "dead": []}))
        cfg["graph"] = str(graph)
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path
