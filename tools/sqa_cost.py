"""Cost of the SQA sampler: page faults of whole runs, and ns per update.

Usage (from the repository root):

    python3 tools/sqa_cost.py faults [--workload sqa_nested|sqa_embedded]
    python3 tools/sqa_cost.py stacks
    python3 tools/sqa_cost.py readme

``faults`` runs `nqac run --jobs 1` once on a benchmark workload's config
(``bench/workloads.write_inputs``, seed 1) in a fresh interpreter with BLAS
pinned to one thread, and prints the minor page faults, user and system CPU
seconds (``resource.getrusage`` around the ``main`` call) and the wall time
of that call.

``stacks`` times ``sqa._anneal_stack`` on nested K4 (n = 4 C) with
1000-anneal units at alpha 0.1 and gamma 0.5, device schedule, coupler
noise 0.05 and beta 0.1, per Trotter number in ``STACKS["K"]``, level in
``STACKS["Cs"]`` and units per stack in ``STACKS["units"]``, the stack sizes
taking turns in alternating order. Its last rows time the same units
choi-embedded on an 8x8 Chimera graph, at the shape the ``sqa_embedded``
benchmark anneals them (``EMBEDDED``: four 32-anneal units per stack, K = 8,
n the chain qubits); ``readme`` times stacks of the README
config's shape (K = 64, ``stack_size(1000)`` units of 1000 anneals per C
level) and projects its single-core hours. Both print ns per spin-slice
update (programming included), the median over the repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

#: the README config: C levels, alphas x gammas, cycles, anneals and sweeps
README = {"Cs": (1, 2, 3), "points": 6 * 11, "cycles": 20, "runs": 1000, "sweeps": 10_000,
          "K": 64}
#: the stack table: Trotter numbers, C levels, units per stack, sweeps, repetitions
STACKS = {"K": (8, 64), "Cs": (1, 2, 3), "units": (1, 2, 4), "sweeps": 25, "reps": 10}
#: the embedded rows of the stack table: Trotter number, units, anneals and sweeps
EMBEDDED = {"K": 8, "units": 4, "runs": 32, "sweeps": 10}
#: sweeps and repetitions of each timed stack of the README projection
README_TIMING = {"sweeps": 100, "reps": 3}
#: the workload seed of a ``faults`` run
SEED = 1


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def one_run(workload: str) -> dict:
    """One `nqac run` of a workload at ``SEED`` in this process, with its rusage deltas."""
    from workloads import write_inputs

    from nqac.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_inputs(workload, SEED, Path(tmp))
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out"), "--jobs", "1"])
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
    return {"rc": rc, "wall_s": round(wall, 4), "minflt": after.ru_minflt - before.ru_minflt,
            "utime_s": round(after.ru_utime - before.ru_utime, 4),
            "stime_s": round(after.ru_stime - before.ru_stime, 4)}


def faults(args) -> None:
    proc = subprocess.run([sys.executable, __file__, "_one", args.workload],
                          env=_env(), cwd=ROOT, capture_output=True, text=True, check=True)
    print(proc.stdout.strip().splitlines()[-1], flush=True)


def _embedding(C: int):
    """The choi embedding of nested K4 at level C on an 8x8 Chimera graph."""
    from nqac.chimera import build_chimera, choi_embed

    return choi_embed(4 * C, build_chimera(8, 8))


def _ns_per_update(C: int, K: int, units: int, sweeps: int, runs: int = 1000,
                   emb=None) -> float:
    """One timed ``_anneal_stack`` of nested K4 at level C, compiled through
    ``emb`` if one is given, ns per update of a spin (a chain qubit when
    embedded) in one slice."""
    from nqac.instances import k4_antiferromagnet
    from nqac.nesting import encode_for_scale
    from nqac.sqa import SqaParams, _anneal_stack, device_like_schedule

    stack = [(encode_for_scale(k4_antiferromagnet(), C, 0.5, 0.1), 100 + u, u)
             for u in range(units)]
    params = SqaParams(sweeps=sweeps, trotter_slices=K, beta=0.1)
    n = 4 * C if emb is None else sum(map(len, emb.chains.values()))
    t0 = time.perf_counter()
    _anneal_stack(stack, emb, device_like_schedule(), params, 0.05, runs)
    return (time.perf_counter() - t0) * 1e9 / (units * runs * n * K * sweeps)


def stacks(_args) -> None:
    """Per (K, n), the stack sizes timed in turn, in alternating order."""
    for K in STACKS["K"]:
        for C in STACKS["Cs"]:
            ns = {units: [] for units in STACKS["units"]}
            for r in range(STACKS["reps"]):
                for units in STACKS["units"][::1 if r % 2 == 0 else -1]:
                    ns[units].append(_ns_per_update(C, K, units, STACKS["sweeps"]))
            print(json.dumps({"K": K, "n": 4 * C, "ns_per_update": {
                units: round(statistics.median(v), 3) for units, v in ns.items()}}), flush=True)
    for C in STACKS["Cs"]:
        emb = _embedding(C)
        ns = statistics.median(
            _ns_per_update(C, EMBEDDED["K"], EMBEDDED["units"], EMBEDDED["sweeps"],
                           EMBEDDED["runs"], emb) for _ in range(STACKS["reps"]))
        print(json.dumps({"embedding": "choi", "C": C, "K": EMBEDDED["K"],
                          "n": sum(map(len, emb.chains.values())), "units": EMBEDDED["units"],
                          "runs": EMBEDDED["runs"], "ns_per_update": round(ns, 3)}), flush=True)


def readme(_args) -> None:
    from nqac.sqa import stack_size

    units = stack_size(README["runs"])
    hours = 0.0
    for C in README["Cs"]:
        ns = statistics.median(_ns_per_update(C, README["K"], units, README_TIMING["sweeps"])
                               for _ in range(README_TIMING["reps"]))
        updates = (README["points"] * README["cycles"] * README["runs"] * README["sweeps"]
                   * README["K"] * 4 * C)
        hours += ns * 1e-9 * updates / 3600
        print(json.dumps({"C": C, "n": 4 * C, "K": README["K"], "units": units,
                          "ns_per_update": round(ns, 3)}), flush=True)
    print(json.dumps({"readme_single_core_hours": round(hours, 2)}))


def main(argv=None) -> None:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["_one"]:
        print(json.dumps(one_run(argv[1])))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    f = sub.add_parser("faults")
    f.add_argument("--workload", default="sqa_nested", choices=("sqa_nested", "sqa_embedded"))
    sub.add_parser("stacks")
    sub.add_parser("readme")
    args = parser.parse_args(argv)
    {"faults": faults, "stacks": stacks, "readme": readme}[args.cmd](args)


if __name__ == "__main__":
    main()
