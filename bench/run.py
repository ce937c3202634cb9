"""Benchmark of the `nqac run` user path, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload sqa_nested --seed 1 --seconds 25 --trace 0

Each round starts a fresh interpreter (``worker.py``) that imports
``nqac.cli``, loads the generated config and calls
``main(["run", ..., "--jobs", "1"])`` with BLAS pinned to one thread. Rounds
repeat until ``--seconds`` have passed; every metric is the median over the
rounds. With ``--trace 1`` each round is an untraced run followed by a traced
one, and the per-layer metrics come from the traced runs. The last line of
stdout is one JSON object: correct, attempted, failed and the metrics.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_run
from workloads import WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "sample_bytes": "bytes"}
PER_LAYER_UNITS = {
    "sqa.self_s": "s", "sqa.calls": "count", "sqa.updates": "count",
    "sqa.ns_per_update": "ns", "sqa.readme_cpu_h": "h",
    "pt.self_s": "s", "pt.calls": "count", "pt.spin_updates": "count",
    "pt.ns_per_spin_update": "ns",
    "chimera.compiled_qubits": "qubits", "chimera.chain_qubits": "qubits",
    "chimera.used_fraction": "ratio", "chimera.compile_calls": "count",
    "chimera.compile_ms": "ms", "chimera.embed_s": "s",
    "nesting.encode_calls": "count", "nesting.encode_s": "s",
    "nesting.decode_us_per_record": "us",
    "sampleset.write_s": "s", "sampleset.read_s": "s",
    "sampleset.write_mb_per_s": "MB/s", "sampleset.read_mb_per_s": "MB/s",
    "sampleset.bytes_per_record": "bytes",
    "analysis.self_s": "s", "ising.ground_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def warm_up() -> None:
    """Import the package once untimed, so bytecode and file caches are filled."""
    subprocess.run([sys.executable, "-c", "import nqac.cli"], env=_env(), cwd=ROOT,
                   check=True, timeout=WORKER_TIMEOUT_S)


def run_worker(cfg_path: Path, out: Path, trace: bool) -> dict | None:
    """One `nqac run` in a fresh process; its report, or None if it failed."""
    report_path = out.with_name(out.name + ".report.json")
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), repr(t_spawn), str(cfg_path),
         str(out), str(report_path), "1" if trace else "0"],
        env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not report_path.exists():
        print(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    report = json.loads(report_path.read_text())
    if report["rc"] != 0:
        print(f"nqac run exited {report['rc']}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    report["sample_bytes"] = sum(p.stat().st_size for p in (out / "samples").rglob("*") if p.is_file())
    return report


def _outputs(out: Path, report: dict) -> tuple:
    """What every run of one config must reproduce byte for byte."""
    files = tuple((out / name).read_bytes() if (out / name).exists() else None
                  for name in ("curves.csv", "boost.csv"))
    return files + (report["sample_bytes"],)


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> int:
    cfg_path = write_inputs(workload, seed, run_dir)
    cfg = json.loads(cfg_path.read_text())
    warm_up()
    plain, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    first = None
    t0 = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - t0 < seconds:
        for with_trace in (False, True) if trace else (False,):
            out = run_dir / f"round{rounds}{'-traced' if with_trace else ''}"
            attempted += 1
            report = run_worker(cfg_path, out, with_trace)
            if report is None:
                failed += 1
                continue
            (traced if with_trace else plain).append(report)
            print(f"round {rounds}{' traced' if with_trace else ''}: "
                  f"setup {report['setup_s']:.3f} s, run {report['run_s']:.3f} s", file=sys.stderr)
            if first is None:
                first = (out, report, _outputs(out, report))
            else:
                if _outputs(out, report) != first[2]:
                    problems.append(f"{out.name}: curves.csv, boost.csv or sample bytes differ from {first[0].name}")
                shutil.rmtree(out)
        rounds += 1
    if not plain or (trace and not traced):
        print("no run of the workload succeeded", file=sys.stderr)
        return 1
    problems += check_run(workload, first[0], cfg, first[1])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    def median(reports, key):
        return statistics.median(r[key] for r in reports)

    if trace:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = median(traced, "run_s") - median(plain, "run_s")
        units = PER_LAYER_UNITS
        for name in sorted({n for r in traced for n in r["not_seen"]}):
            print(f"layer not seen: {name}")
    else:
        values = {k: median(plain, k) for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nqac" / "cli.py").is_file():
        print(f"program source not found at {SRC / 'nqac'}", file=sys.stderr)
        return 2
    run_dir = RUNS / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
