"""One `nqac run` in a fresh interpreter, timed, with an optional trace.

Usage: worker.py SPAWN_TIME CONFIG OUT_DIR REPORT TRACE

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so set-up covers interpreter start, importing ``nqac.cli`` and
loading the config. The report is a JSON file; the program's own stdout and
stderr pass through untouched.
"""

import json
import resource
import sys
import time


def main(argv):
    t_spawn, cfg_path, out_dir, report_path, trace = argv
    from nqac.cli import load_config, main as nqac_main

    load_config(cfg_path)
    setup_s = time.monotonic() - float(t_spawn)

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = nqac_main(["run", "--config", cfg_path, "--out", out_dir, "--jobs", "1"])
    run_s = time.perf_counter() - t0
    report = {
        "rc": rc,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["not_seen"] = tracer.not_seen

    # the program's ground states, compared with the reference by the parent
    from nqac.ising import brute_force_ground, load_problem

    with open(cfg_path) as fh:
        problem = json.load(fh)["problem"]
    energy, states = brute_force_ground(load_problem(problem))
    report["ground_energy"] = energy
    report["ground_states"] = states.tolist()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
