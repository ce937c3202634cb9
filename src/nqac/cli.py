"""Experiment driver tying the pipeline together from one JSON config.

One experiment = one output directory with curves.csv, boost.csv, eta.txt,
raw sample sets and a manifest. Everything is seeded from the config; results
are byte-identical across reruns and across worker counts, because each
(C, alpha, gamma) grid point derives its own seed from the master seed and
indices. One ``sqa.run_protocol`` call samples the whole SQA grid, with
``--jobs`` worker processes; its docstring says why no sample depends on
the worker count.
A whole run analyses the samples it holds after writing them (the SQA sample
sets, the PT scan rows); only ``--stage analyze`` reads them back from their
files, and checks each first.

Exit codes: 0 ok, 2 config error, 3 embedding failure, 4 compute failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import locale  # noqa: F401  (argparse's gettext loads it when main builds its parser)
import platform
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import analysis
from .chimera import (
    build_chimera,
    choi_embed,
    heuristic_embed,
    load_graph,
    save_embedding,
    validate_embedding,
)
from .errors import ConfigError, DomainError, EmbeddingNotFound, InvalidEmbedding, NqacError
from .ising import brute_force_ground, load_problem
from .meanfield import free_energy_grid
from .nesting import encode_for_scale, encode_nested, load_nested, save_nested
from .pt import PtParams, geometric_ladder, run_pt, thermal_boost_scan
from .sampleset import load_sampleset, save_sampleset
from .sqa import (
    SqaParams,
    Schedule,
    default_schedule,
    device_like_schedule,
    load_schedule,
    programmed_digest,
    run_protocol,
    run_sqa,
    unit_seed,
)

#: the standard penalty optimization grid
DEFAULT_GAMMA_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMBEDDING = 3
EXIT_COMPUTE = 4


def _schedule_from_name(name: str) -> Schedule:
    if name == "linear":
        return default_schedule()
    if name == "device":
        return device_like_schedule()
    return load_schedule(name)


def code_digest() -> str:
    """SHA-256 over the package's source files (stable code version tag)."""
    root = Path(__file__).parent
    blobs = []
    for path in sorted(root.rglob("*.py")) + sorted((root / "data").glob("*")):
        blobs.append(path.name.encode() + b"\0" + path.read_bytes())
    return hashlib.sha256(b"\0".join(blobs)).hexdigest()


# ---------------------------------------------------------------------------
# experiment config


_REQUIRED = ("problem", "C", "alphas", "seed")
_COMMON = {"gammas": list(DEFAULT_GAMMA_GRID), "engine_params": {}, "embedding": "none",
           "fit_count": 4, "p0": None}

#: the optional top-level keys each engine reads, with their defaults; only
#: embedded runs set ``graph``, and PT takes no embedding but "none"
CONFIG_KEYS = {
    "sqa": {**_COMMON, "engine": "sqa", "graph": None, "cycles": 20, "runs_per_cycle": 1000,
            "schedule": "linear"},
    "pt": {**_COMMON, "engine": "pt"},
}


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


#: the engine_params each engine reads, with their defaults; under PT an
#: explicit ``betas`` ladder replaces the geometric one (the _LADDER keys)
ENGINE_PARAMS = {
    "sqa": {**_field_defaults(SqaParams), "noise_sigma": 0.05},
    "pt": {**_field_defaults(PtParams), "n_samples": 1000, "beta_max": 2.0, "n_betas": 16,
           "beta_min": 0.1},
}
_LADDER = ("beta_max", "n_betas", "beta_min")


def _filled(given: dict, table: dict, unread_msg: str) -> dict:
    """``given`` over the defaults in ``table``; a key outside the table, or a
    value of another JSON type than its default (or an integer below 1), is a
    config error."""
    unread = sorted(set(given) - set(table))
    if unread:
        raise ConfigError(f"{unread_msg}: {unread}")
    out = {**table, **given}
    for key, default in table.items():
        v, want = out[key], type(default)
        if default is not None and not (type(v) is want or want is float and type(v) is int):
            raise ConfigError(f"{key} must be of JSON type {want.__name__}, got {v!r}")
        if want is int and v < 1:
            raise ConfigError(f"{key} must be at least 1, got {v}")
    return out


def _check_grid(key: str, values, ok, what: str) -> None:
    good = isinstance(values, list) and all(type(v) in (int, float) and ok(v) for v in values)
    if not good or not values or len(set(values)) < len(values):
        raise ConfigError(f"{key} must be a non-empty list of distinct {what}, got {values!r}")


def _check_boost(p0, fit_count: int) -> None:
    """A ``p0`` or ``fit_count`` that boost and eta cannot use is a config error."""
    if not (p0 is None or type(p0) in (int, float) and 0 < p0 <= 1):
        raise ConfigError(f"p0 must be null or a number in (0, 1], got {p0!r}")
    if fit_count < 2:
        raise ConfigError(f"fit_count must be at least 2 (eta is a slope), got {fit_count}")


def _sampler(cfg: dict):
    """``(params, schedule)`` for SQA, ``(params, None)`` for PT; a value the
    sampler rejects, or a negative ``noise_sigma``, is a config error."""
    ep = cfg["engine_params"]
    try:
        if cfg["engine"] == "sqa":
            params = SqaParams(**{f.name: ep[f.name] for f in fields(SqaParams)})
            if ep.get("noise_sigma", 0.0) < 0:
                raise DomainError("noise_sigma must be >= 0")
            return params, _schedule_from_name(cfg["schedule"])
        betas = ep["betas"] if "betas" in ep else geometric_ladder(*(ep[k] for k in _LADDER))
        return PtParams(betas=betas, sweeps=ep["sweeps"], swap_interval=ep["swap_interval"]), None
    except (NqacError, OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _finite(text: str) -> float:
    """JSON number hook: a number that is not finite is a config error."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def _read(load, path, what: str):
    """``load(path)``; a file that does not hold a ``what`` is a config error."""
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{what} file {path} does not hold a {what}: {exc}") from exc


def load_config(path) -> dict:
    """Read and check an experiment config.

    Returns it with every default filled in: the keys its engine reads and no
    other, which is what the manifest records. A key the engine does not
    read, a value it cannot use, or a missing problem or graph file raises
    ConfigError; ``run_experiment`` reads those files, once each.
    """
    try:
        raw = json.loads(Path(path).read_text(), parse_float=_finite, parse_constant=_finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if isinstance(raw.get("config"), dict):
        raw = raw["config"]  # manifests embed the config; rerun from them
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"config missing required key {key!r}")
    engine = raw.get("engine", "sqa")
    if engine not in ("sqa", "pt"):
        raise ConfigError(f"unknown engine {engine!r}")
    optional = {k: v for k, v in raw.items() if k not in _REQUIRED}
    cfg = _filled(optional, CONFIG_KEYS[engine], f"keys the {engine} engine does not read")
    cfg.update((k, raw[k]) for k in _REQUIRED)
    ep, ep_keys = cfg["engine_params"], ENGINE_PARAMS[engine]
    msg = f"engine_params the {engine} engine does not read"
    if engine == "pt" and "betas" in ep:
        _check_grid("betas", ep["betas"], lambda b: b > 0, "positive numbers")
        ep_keys = {k: v for k, v in ep_keys.items() if k not in _LADDER} | {"betas": None}
        msg += " beside betas"
    cfg["engine_params"] = _filled(ep, ep_keys, msg)

    _check_grid("C", cfg["C"], lambda c: type(c) is int and c >= 1, "positive integers")
    _check_grid("alphas", cfg["alphas"], lambda a: 0 < a <= 1, "numbers in (0, 1]")
    _check_grid("gammas", cfg["gammas"], lambda g: g > 0, "positive numbers")
    if type(cfg["seed"]) is not int or cfg["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer (no wall-clock seeding)")
    _check_boost(cfg["p0"], cfg["fit_count"])
    if engine == "pt" and cfg["embedding"] != "none":
        raise ConfigError("the pt engine samples the nested problem unembedded")
    if cfg["embedding"] not in ("none", "choi", "heuristic"):
        raise ConfigError(f"unknown embedding mode {cfg['embedding']!r}")
    if engine == "sqa" and (cfg["embedding"] == "none") != (cfg["graph"] is None):
        raise ConfigError("embedded runs, and only they, read a hardware graph file")
    for key in ["problem"] + (["graph"] if cfg.get("graph") is not None else []):
        if not (isinstance(cfg[key], str) and Path(cfg[key]).is_file()):
            raise ConfigError(f"{key} file not found: {cfg[key]}")
    _sampler(cfg)
    return cfg


def _build_embedding(cfg: dict, C: int, base, graph):
    """An embedding of the complete graph K_{C*n}, or None if the run is not
    embedded: each programming cycle assigns nested vertices to chains by a
    random permutation, so every pair of chains must be adjacent."""
    if cfg["embedding"] == "none":
        return None
    n = C * base.n
    if cfg["embedding"] == "choi":
        return choi_embed(n, graph)
    rng = np.random.default_rng(unit_seed(cfg["seed"], 0xE0BED, C))
    return heuristic_embed([(i, j) for i in range(n) for j in range(i + 1, n)], graph, rng)


def _read_samples(path: Path, digest: str, cfg: dict):
    """The sample set in ``path``, checked to hold the config's cycles and
    records of the problem with ``digest``; otherwise a config error."""
    try:
        ss = load_sampleset(path)
    except DomainError as exc:
        raise ConfigError(f"{exc}; run the sample stage again") from None
    if ss.problem_digest != digest:
        raise ConfigError(
            f"{path} holds samples of another problem than this "
            "config programs at its grid point; run the sample stage again"
        )
    ids, counts = np.unique(ss.cycle_ids, return_counts=True)
    want = list(range(cfg["cycles"]))
    if ([c.cycle for c in ss.cycles] != want or ids.tolist() != want
            or np.any(counts != cfg["runs_per_cycle"])):
        raise ConfigError(
            f"{path} holds cycles {ids.tolist()} with {counts.tolist()} records, "
            f"where this config runs {cfg['runs_per_cycle']} anneals in each of "
            f"cycles {want}; run the sample stage again"
        )
    return ss


def _estimate(ss, np_prob, emb, ground_states, seed: int, key: tuple) -> tuple[float, float]:
    """(P, se) of the sample set of grid point ``key``, decoded on its own seed."""
    return analysis.estimate_success(ss, np_prob, emb, ground_states,
                                     decode_seed=unit_seed(seed, 0xDEC, *key))


def run_experiment(cfg: dict, out_dir, jobs: int = 1, stage: str = "all") -> Path:
    """Execute the full pipeline for a checked config (see ``load_config``);
    returns the artifact directory. A problem or graph file that does not hold
    a problem or a Chimera graph raises ConfigError before anything is written."""
    base = _read(load_problem, cfg["problem"], "problem")
    graph = _read(load_graph, cfg["graph"], "graph") if cfg.get("graph") else None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples_dir = out / "samples"
    samples_dir.mkdir(exist_ok=True)

    ground_energy, ground_states = brute_force_ground(base)
    params, sch = _sampler(cfg)

    manifest = {
        "config": cfg,
        "code_digest": code_digest(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "problem_digest": base.digest(),
        "ground_energy": ground_energy,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    def sample_path(ci, ai, gi):
        return samples_dir / f"C{cfg['C'][ci]}_a{ai}_g{gi}.ndjson"

    if cfg["engine"] == "sqa":
        embeddings = [_build_embedding(cfg, C, base, graph) for C in cfg["C"]]
        # the nested problem of every (ci, ai, gi) grid point, encoded once
        nested = {
            (ci, ai, gi): encode_for_scale(base, C, gamma, alpha)
            for ci, C in enumerate(cfg["C"])
            for ai, alpha in enumerate(cfg["alphas"])
            for gi, gamma in enumerate(cfg["gammas"])
        }

    if stage in ("all", "sample"):
        if cfg["engine"] == "sqa":
            samples = run_protocol(
                [(np_prob, embeddings[key[0]], unit_seed(cfg["seed"], *key))
                 for key, np_prob in nested.items()],
                sch, params, cfg["engine_params"]["noise_sigma"], cfg["cycles"],
                cfg["runs_per_cycle"], jobs,
            )
            # stage all analyses the sample sets it holds; only the analyze
            # stage reads sample files
            table = {}
            for (key, np_prob), ss in zip(nested.items(), samples):
                save_sampleset(ss, sample_path(*key))
                if stage == "all":
                    table[key] = _estimate(ss, np_prob, embeddings[key[0]], ground_states,
                                           cfg["seed"], key)
        else:  # pt engine
            scans = thermal_boost_scan(
                base, cfg["C"], cfg["gammas"], cfg["alphas"], params, ground_states,
                n_samples=cfg["engine_params"]["n_samples"],
                seeds=[[unit_seed(cfg["seed"], ci, gi) for gi in range(len(cfg["gammas"]))]
                       for ci in range(len(cfg["C"]))],
            )
            rows = [(ci, ai, gi, *pt) for ci, per_gamma in enumerate(scans)
                    for gi, pts in enumerate(per_gamma) for ai, pt in enumerate(pts)]
            (samples_dir / "pt_scan.json").write_text(json.dumps(rows, sort_keys=True))
            table = {(ci, ai, gi): (P, se) for ci, ai, gi, _, P, se in rows}

    if stage not in ("all", "analyze"):
        return out

    # analysis: a (ci, ai, gi) -> (P, se) table, then per (C, alpha) the best
    # gamma, then boost + exponent
    if cfg["engine"] == "sqa" and stage == "analyze":
        table = {}
        for key, np_prob in nested.items():
            emb = embeddings[key[0]]
            ss = _read_samples(sample_path(*key), programmed_digest(np_prob, emb), cfg)
            table[key] = _estimate(ss, np_prob, emb, ground_states, cfg["seed"], key)
    elif cfg["engine"] == "pt" and stage == "analyze":
        path = samples_dir / "pt_scan.json"
        try:
            rows = json.loads(path.read_text())
        except ValueError:  # not JSON, or not text
            rows = None
        if not (isinstance(rows, list) and all(
                isinstance(r, list) and len(r) == 6 and all(type(x) in (int, float) for x in r)
                for r in rows)):
            raise ConfigError(f"{path} is not a list of [ci, ai, gi, alpha, P, se] rows of "
                              "numbers; run the sample stage again")
        table = {(ci, ai, gi): (P, se) for ci, ai, gi, _, P, se in rows}
        grid = {(ci, ai, gi) for ci in range(len(cfg["C"])) for ai in range(len(cfg["alphas"]))
                for gi in range(len(cfg["gammas"]))}
        if (len(rows) != len(table) or set(table) != grid
                or any(alpha != cfg["alphas"][ai] for _, ai, _, alpha, _, _ in rows)):
            raise ConfigError(
                f"{path} holds another (C, alpha, gamma) grid than this config scans; "
                "run the sample stage again"
            )
    curves = []
    for ci, C in enumerate(cfg["C"]):
        Ps = []
        ses = []
        gamma_used = {}
        for ai, alpha in enumerate(cfg["alphas"]):
            per_gamma = {gamma: table[(ci, ai, gi)] for gi, gamma in enumerate(cfg["gammas"])}
            gstar, pstar = analysis.optimize_gamma(per_gamma)
            Ps.append(pstar)
            ses.append(per_gamma[gstar][1])
            gamma_used[float(alpha)] = gstar
        curves.append(
            analysis.SuccessCurve(
                C=C, alphas=cfg["alphas"], P=Ps, stderr=ses, gamma_used=gamma_used
            )
        )

    (out / "curves.csv").write_text(analysis.curves_csv(curves))
    if 1 in cfg["C"] and len(cfg["alphas"]) >= 2:
        analysis.write_boost(curves, out, cfg["p0"], cfg["fit_count"])
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args) -> int:
    jobs = _count("--jobs", args.jobs)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = _seed(args.seed)
    out = run_experiment(cfg, args.out, jobs=jobs, stage=args.stage)
    print(f"experiment artifacts in {out}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    C, gamma = _count("--C", args.C), _positive("--gamma", args.gamma)
    if args.alpha is not None and not 0 < args.alpha <= 1:
        raise ConfigError(f"--alpha must lie in (0, 1], got {args.alpha}")
    base = _read(load_problem, args.problem, "problem")
    if args.alpha is not None:
        np_prob = encode_for_scale(base, C, gamma, args.alpha)
    else:
        np_prob = encode_nested(base, C, gamma)
    save_nested(np_prob, args.out)
    print(f"nested problem ({np_prob.n_nested} vertices) -> {args.out}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    seed = _seed(args.seed)
    max_tries = _count("--max-tries", args.max_tries)
    graph = (_read(load_graph, args.graph, "graph") if args.graph
             else build_chimera(_count("--rows", args.rows), _count("--cols", args.cols)))
    np_prob = _read(load_nested, args.source, "nested problem")
    try:
        if args.mode == "choi":
            emb = choi_embed(np_prob.n_nested, graph)
        else:
            rng = np.random.default_rng(seed)
            emb = heuristic_embed(np_prob, graph, rng, max_tries=max_tries)
    except (EmbeddingNotFound, NqacError) as exc:
        print(f"[embed] {exc}", file=sys.stderr)
        return EXIT_EMBEDDING
    report = validate_embedding(emb, np_prob)
    if not report.ok:
        print(f"[embed] produced invalid embedding: {report.violations}", file=sys.stderr)
        return EXIT_EMBEDDING
    save_embedding(emb, args.out)
    from .chimera import embedding_stats

    nq, mx, mean = embedding_stats(emb)
    print(f"embedding: {nq} qubits, max chain {mx}, mean chain {mean:.2f} -> {args.out}")
    return EXIT_OK


def _seed(value: int) -> int:
    if value < 0:
        raise ConfigError("seed must be a non-negative integer")
    return value


def _count(flag: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")
    return value


def _positive(flag: str, value: float) -> float:
    if not 0 < value < np.inf:
        raise ConfigError(f"{flag} must be positive and finite, got {value}")
    return value


def _cmd_sqa(args) -> int:
    p = _read(load_problem, args.problem, "problem")
    params, sch = _sampler({"engine": "sqa", "schedule": args.schedule, "engine_params": {
        "sweeps": args.sweeps, "trotter_slices": args.slices, "beta": args.beta}})
    ss = run_sqa(p, sch, params, _count("--anneals", args.anneals), _seed(args.seed))
    save_sampleset(ss, args.out)
    print(f"{ss.n_records} anneal records -> {args.out}")
    return EXIT_OK


def _cmd_pt(args) -> int:
    p = _read(load_problem, args.problem, "problem")
    ladder = ({"betas": args.betas.split(",")} if args.betas else
              {"beta_max": args.beta_max, "n_betas": args.n_betas, "beta_min": args.beta_min})
    params, _ = _sampler({"engine": "pt", "engine_params": {
        **ladder, "sweeps": args.sweeps, "swap_interval": args.swap_interval}})
    n_samples, seed = _count("--samples", args.samples), _seed(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    samplesets = run_pt(p, params, n_samples, seed)
    for i, (beta, ss) in enumerate(sorted(samplesets.items())):
        save_sampleset(ss, out_dir / f"beta_{i:02d}_{beta:.6g}.ndjson")
    print(f"{len(samplesets)} thermal sample sets -> {out_dir}")
    return EXIT_OK


def _cmd_meanfield(args) -> int:
    C, n_m, n_s = _count("--C", args.C), _count("--n-m", args.n_m), _count("--n-s", args.n_s)
    beta, gamma = _positive("--beta", args.beta), _positive("--gamma", args.gamma)
    sch = _schedule_from_name(args.schedule)
    rows = free_energy_grid(sch.a_of, sch.b_of, gamma, beta, C, n_m=n_m, n_s=n_s)
    lines = ["m,s,A,B,betaF"]
    lines += [",".join(format(v, ".12g") for v in row) for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"free-energy grid ({len(rows)} rows) -> {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    _check_boost(args.p0, args.fit_count)
    curves = analysis.read_curves(Path(args.curves).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if analysis.write_boost(curves, out, args.p0, args.fit_count) is None:
        raise DomainError("eta fit needs at least 2 nesting levels with a boost")
    print(f"boost + eta -> {out}")
    return EXIT_OK


def _cmd_bruteforce(args) -> int:
    p = _read(load_problem, args.problem, "problem")
    energy, states = brute_force_ground(p)
    print(f"ground energy {energy:.12g}, {states.shape[0]} ground states")
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"ground_energy": energy, "ground_states": states.tolist()},
                sort_keys=True,
            )
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nqac",
        description="nested quantum annealing correction experiment harness",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a full experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=int, default=None, help="override config seed")
    run_p.add_argument("--jobs", type=int, default=1)
    run_p.add_argument("--stage", choices=("all", "sample", "analyze"), default="all")
    run_p.set_defaults(func=_cmd_run)

    enc = sub.add_parser("encode", help="nest a problem at level C")
    enc.add_argument("--problem", required=True)
    enc.add_argument("--C", type=int, required=True)
    enc.add_argument("--gamma", type=float, required=True)
    enc.add_argument("--alpha", type=float, default=None,
                     help="problem scale; keeps the penalty fixed in device units")
    enc.add_argument("--out", required=True)
    enc.set_defaults(func=_cmd_encode)

    embp = sub.add_parser("embed", help="embed a nested problem on hardware")
    embp.add_argument("--source", required=True, help="nested problem file")
    embp.add_argument("--graph", default=None, help="hardware graph JSON")
    embp.add_argument("--rows", type=int, default=8)
    embp.add_argument("--cols", type=int, default=8)
    embp.add_argument("--mode", choices=("choi", "heuristic"), default="choi")
    embp.add_argument("--seed", type=int, default=0)
    embp.add_argument("--max-tries", type=int, default=64)
    embp.add_argument("--out", required=True)
    embp.set_defaults(func=_cmd_embed)

    sqa_p = sub.add_parser("sqa", help="anneal a problem file directly")
    sqa_p.add_argument("--problem", required=True)
    sqa_p.add_argument("--schedule", default="linear",
                       help="'linear', 'device', or a CSV path")
    sqa_p.add_argument("--sweeps", type=int, default=ENGINE_PARAMS["sqa"]["sweeps"])
    sqa_p.add_argument("--slices", type=int, default=ENGINE_PARAMS["sqa"]["trotter_slices"])
    sqa_p.add_argument("--beta", type=float, default=ENGINE_PARAMS["sqa"]["beta"])
    sqa_p.add_argument("--anneals", type=int, default=100)
    sqa_p.add_argument("--seed", type=int, default=0)
    sqa_p.add_argument("--out", required=True)
    sqa_p.set_defaults(func=_cmd_sqa)

    pt_p = sub.add_parser("pt", help="sample thermal states by parallel tempering")
    pt_p.add_argument("--problem", required=True)
    pt_p.add_argument("--betas", default=None, help="comma list; overrides the ladder")
    pt_p.add_argument("--beta-max", type=float, default=ENGINE_PARAMS["pt"]["beta_max"])
    pt_p.add_argument("--beta-min", type=float, default=ENGINE_PARAMS["pt"]["beta_min"])
    pt_p.add_argument("--n-betas", type=int, default=ENGINE_PARAMS["pt"]["n_betas"])
    pt_p.add_argument("--sweeps", type=int, default=ENGINE_PARAMS["pt"]["sweeps"])
    pt_p.add_argument("--swap-interval", type=int, default=ENGINE_PARAMS["pt"]["swap_interval"])
    pt_p.add_argument("--samples", type=int, default=ENGINE_PARAMS["pt"]["n_samples"])
    pt_p.add_argument("--seed", type=int, default=0)
    pt_p.add_argument("--out", required=True)
    pt_p.set_defaults(func=_cmd_pt)

    mf = sub.add_parser("meanfield", help="tabulate the mean-field free energy")
    mf.add_argument("--C", type=int, required=True)
    mf.add_argument("--gamma", type=float, required=True)
    mf.add_argument("--beta", type=float, required=True)
    mf.add_argument("--schedule", default="linear")
    mf.add_argument("--n-m", type=int, default=101)
    mf.add_argument("--n-s", type=int, default=51)
    mf.add_argument("--out", required=True)
    mf.set_defaults(func=_cmd_meanfield)

    an = sub.add_parser("analyze", help="boost and exponent from a curves.csv")
    an.add_argument("--curves", required=True)
    an.add_argument("--p0", type=float, default=None)
    an.add_argument("--fit-count", type=int, default=CONFIG_KEYS["sqa"]["fit_count"])
    an.add_argument("--out", required=True)
    an.set_defaults(func=_cmd_analyze)

    bf = sub.add_parser("bruteforce", help="exhaustive ground-state search")
    bf.add_argument("--problem", required=True)
    bf.add_argument("--out", default=None)
    bf.set_defaults(func=_cmd_bruteforce)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EmbeddingNotFound, InvalidEmbedding) as exc:
        print(f"[embed] {exc}", file=sys.stderr)
        return EXIT_EMBEDDING
    except NqacError as exc:
        print(f"[compute] {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
