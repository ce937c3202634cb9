"""Experiment driver tying the pipeline together from one JSON config.

One experiment = one output directory with curves.csv, boost.csv, eta.txt,
raw sample sets and a manifest. Everything is seeded from the config; results
are byte-identical across reruns and across worker counts, because each
(C, alpha, gamma) grid point derives its own seed from the master seed and
indices. One ``sqa.run_protocol`` call samples the whole SQA grid, with
``--jobs`` worker processes; its docstring says why no sample depends on
the worker count.
Both engines decode into one hit table, ``samples/hits.json``, whose rows
carry their own (C, alpha, gamma) values. A run builds its curves from the
rows it writes and reads no file back; ``nqac analyze`` rebuilds the curves,
boost and eta from the table alone, with no config.

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
    embedding_stats,
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
from .sampleset import sample_json, save_sampleset
from .sqa import (
    SqaParams,
    default_schedule,
    device_like_schedule,
    load_schedule,
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
#: the schedules a config or flag names; any other name is a CSV file
_SCHEDULES = {"linear": default_schedule, "device": device_like_schedule}


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


_POSITIVE = (lambda x: 0 < x < np.inf, "finite positive numbers")
#: the values each grid may list, and a flag that takes one of them: a
#: predicate and its wording
_GRID_VALUES = {
    "C": (lambda c: type(c) is int and c >= 1, "positive integers"),
    "alphas": (lambda a: 0 < a <= 1, "numbers in (0, 1]"),
    "gammas": _POSITIVE,
    "betas": _POSITIVE,
}


def _check_grid(key: str, values) -> None:
    ok, what = _GRID_VALUES[key]
    good = isinstance(values, list) and all(type(v) in (int, float) and ok(v) for v in values)
    if not good or not values or len(set(values)) < len(values):
        raise ConfigError(f"{key} must be a non-empty list of distinct {what}, got {values!r}")


def _check_seed(seed) -> None:
    if type(seed) is not int or seed < 0:
        raise ConfigError("seed must be a non-negative integer")


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
            if ep["noise_sigma"] < 0:
                raise DomainError("noise_sigma must be >= 0")
            named = _SCHEDULES.get(cfg["schedule"])
            return params, named() if named else _read(load_schedule, cfg["schedule"], "schedule")
        betas = ep["betas"] if "betas" in ep else geometric_ladder(*(ep[k] for k in _LADDER))
        return PtParams(betas=betas, sweeps=ep["sweeps"], swap_interval=ep["swap_interval"]), None
    except (NqacError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _finite(text: str) -> float:
    """JSON number hook: a number that is not finite is a config error."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def _read(load, path, what: str, hint: str = ""):
    """``load(path)``; a file that cannot be read (none, a directory, not
    text) or does not hold a ``what`` is a config error, whose message names
    the file once and ends in ``hint``."""
    try:
        return load(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
        reason = (getattr(exc, "strerror", None) or str(exc)).removeprefix(f"{path}: ")
        raise ConfigError(f"{what} file {path} does not hold a {what}: {reason}{hint}") from exc


def _engine_params(engine: str, ep) -> dict:
    """``ep`` over the engine's defaults, checked by ``_filled``; under PT an
    explicit ``betas`` ladder replaces the geometric one."""
    table, msg = ENGINE_PARAMS[engine], f"engine_params the {engine} engine does not read"
    if engine == "pt" and "betas" in ep:
        _check_grid("betas", ep["betas"])
        table = {k: v for k, v in table.items() if k not in _LADDER} | {"betas": None}
        msg += " beside betas"
    return _filled(ep, table, msg)


def load_config(path) -> dict:
    """Read and check an experiment config.

    Returns it with every default filled in: the keys its engine reads and no
    other, which is what the manifest records. A key the engine does not
    read, a value it cannot use, or a missing problem or graph file raises
    ConfigError; ``run_experiment`` reads those files, once each.
    """
    raw = _read(lambda p: json.loads(Path(p).read_text(), parse_float=_finite,
                                     parse_constant=_finite), path, "config")
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
    cfg["engine_params"] = _engine_params(engine, cfg["engine_params"])
    for key in ("C", "alphas", "gammas"):
        _check_grid(key, cfg[key])
    _check_seed(cfg["seed"])
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
        return _choi_embed(n, graph)
    rng = np.random.default_rng(unit_seed(cfg["seed"], 0xE0BED, C))
    return heuristic_embed([(i, j) for i in range(n) for j in range(i + 1, n)], graph, rng)


def _choi_embed(n: int, graph):
    """``choi_embed``; a graph that cannot hold the layout, too small or not
    perfect, is an embedding failure (exit 3), as it is to the heuristic."""
    try:
        return choi_embed(n, graph)
    except NqacError as exc:
        raise EmbeddingNotFound(str(exc)) from exc


def _hit_table(text: str) -> list:
    """The ``units`` rows [C, alpha, gamma, unit, runs, hits, ties] of a hit
    table's text. C, alpha and gamma obey the config's grid rules; unit,
    runs, hits and ties are integers with runs >= 1, 0 <= hits <= runs and
    ties >= 0; no (C, alpha, gamma, unit) repeats; the points are a whole
    C x alpha x gamma grid, each with the same (unit, runs); and
    ``grid_digest``, the provenance of the programmed problems, is a string."""
    table = json.loads(text)
    if not (isinstance(table, dict) and set(table) == {"grid_digest", "units"}
            and isinstance(table["grid_digest"], str) and isinstance(table["units"], list)
            and table["units"] and all(isinstance(r, list) and len(r) == 7
                                       for r in table["units"])):
        raise ValueError("not an object of a grid_digest string and a non-empty list of "
                         "[C, alpha, gamma, unit, runs, hits, ties] units")
    points: dict = {}  # (C, alpha, gamma) -> {unit: runs}
    for row in table["units"]:
        *values, unit, runs, hits, ties = row
        for name, key, v in zip(("C", "alpha", "gamma"), ("C", "alphas", "gammas"), values):
            ok, what = _GRID_VALUES[key]
            if not (type(v) in (int, float) and ok(v)):
                raise ValueError(f"{name} takes {what}, got the row {row}")
        if not (all(type(n) is int for n in (unit, runs, hits, ties))
                and 0 <= hits <= runs and runs >= 1 and ties >= 0):
            raise ValueError("unit, runs, hits and ties are integers with runs >= 1, "
                             f"0 <= hits <= runs and ties >= 0, got the row {row}")
        units = points.setdefault(tuple(values), {})
        if unit in units:
            raise ValueError(f"(C, alpha, gamma, unit) repeats in the row {row}")
        units[unit] = runs
    Cs, alphas, gammas = ({key[i] for key in points} for i in range(3))
    if (len(points) != len(Cs) * len(alphas) * len(gammas)
            or len({tuple(units.items()) for units in points.values()}) > 1):
        raise ValueError("the rows are not a whole C x alpha x gamma grid with the same "
                         "(unit, runs) at each point")
    return table["units"]


def run_experiment(cfg: dict, out_dir, jobs: int = 1) -> Path:
    """Execute the full pipeline for a checked config (see ``load_config``);
    returns the artifact directory. Sampling writes the hit table
    ``samples/hits.json``, each grid point's decoded ``(unit, runs, hits,
    ties)`` (a unit is an SQA cycle or a PT row) with its (C, alpha, gamma)
    values, and ``analysis.curves_from_units`` builds the curves from those
    rows alone, as ``nqac analyze`` does from the file. A problem or graph
    file that does not hold what it should raises ConfigError before
    anything is written."""
    base = _read(load_problem, cfg["problem"], "problem")
    graph = _read(load_graph, cfg["graph"], "graph") if cfg.get("graph") else None
    out = Path(out_dir)
    samples_dir = out / "samples"

    ground_energy, ground_states = brute_force_ground(base)
    params, sch = _sampler(cfg)
    manifest = {
        "config": cfg,
        "code_digest": code_digest(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "problem_digest": base.digest(),
        "ground_energy": ground_energy,
    }

    # the (C, alpha, gamma) values of every (ci, ai, gi) grid point and its
    # nested problem, encoded once
    values = {(ci, ai, gi): (C, alpha, gamma) for ci, C in enumerate(cfg["C"])
              for ai, alpha in enumerate(cfg["alphas"]) for gi, gamma in enumerate(cfg["gammas"])}
    nested = {key: encode_for_scale(base, C, gamma, alpha)
              for key, (C, alpha, gamma) in values.items()}
    embeddings = [_build_embedding(cfg, C, base, graph) for C in cfg["C"]]  # None under PT

    samples_dir.mkdir(parents=True, exist_ok=True)
    if cfg["engine"] == "sqa":
        samples = run_protocol(
            [(np_prob, embeddings[key[0]], unit_seed(cfg["seed"], *key))
             for key, np_prob in nested.items()],
            sch, params, cfg["engine_params"]["noise_sigma"], cfg["cycles"],
            cfg["runs_per_cycle"], jobs,
        )
        units = {}
        for (key, np_prob), ss in zip(nested.items(), samples):
            ci, ai, gi = key
            save_sampleset(ss, samples_dir / f"C{cfg['C'][ci]}_a{ai}_g{gi}.ndjson")
            units[key] = analysis.hit_counts(ss, np_prob, embeddings[ci], ground_states,
                                             decode_seed=unit_seed(cfg["seed"], 0xDEC, *key))
        digests = [ss.problem_digest for ss in samples]
    else:  # pt engine: one block per (C, gamma), its points in alpha order
        blocks = {(ci, gi): [(ci, ai, gi) for ai in range(len(cfg["alphas"]))]
                  for ci in range(len(cfg["C"])) for gi in range(len(cfg["gammas"]))}
        scans = thermal_boost_scan(
            [([nested[key] for key in keys], unit_seed(cfg["seed"], *block))
             for block, keys in blocks.items()],
            params, ground_states, cfg["engine_params"]["n_samples"],
        )
        units = {key: u for keys, per_row in zip(blocks.values(), scans)
                 for key, u in zip(keys, per_row)}
        digests = [np_prob.nested.digest() for np_prob in nested.values()]
    # the table's grid_digest is provenance: the sha256 of the points'
    # programmed problems, in (ci, ai, gi) order
    rows = [[*values[key], *unit] for key in nested for unit in units[key]]
    (samples_dir / "hits.json").write_text(sample_json({
        "grid_digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "units": rows,
    }))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    curves = analysis.curves_from_units(rows)
    (out / "curves.csv").write_text(analysis.curves_csv(curves))
    if 1 in cfg["C"] and len(cfg["alphas"]) >= 2:
        analysis.write_boost(curves, out, cfg["p0"], cfg["fit_count"])
    return out


# ---------------------------------------------------------------------------
# subcommands


#: the counts the standalone flags set, by flag, with their defaults; each
#: is an integer >= 1, as every count of a config is
_COUNTS = {"--jobs": 1, "--anneals": 100, "--rows": 8, "--cols": 8, "--max-tries": 64,
           "--n-m": 101, "--n-s": 51}
#: the flags of the engine_params whose flag is not --key
_FLAGS = {"trotter_slices": "--slices", "n_samples": "--samples"}
#: the grid whose values each single-value flag takes (sqa --beta is a beta too)
_GRID_FLAGS = {"--C": "C", "--alpha": "alphas", "--gamma": "gammas", "--beta": "betas"}


def _given(args, keys) -> dict:
    """The values of the flags of ``keys`` that the command line sets."""
    return {k: v for k, v in vars(args).items() if k in keys}


def _check_flags(args) -> None:
    """Check the flags that several subcommands take by the rules of the
    config values they set: the counts, filled in where not given; the seed;
    and each flag that takes one value of a grid."""
    vars(args).update(_filled(_given(args, _COUNTS), _COUNTS, "counts"))
    if "seed" in vars(args):
        _check_seed(args.seed)
    for flag, key in _GRID_FLAGS.items():
        value, (ok, what) = getattr(args, flag[2:], None), _GRID_VALUES[key]
        if value is not None and not ok(value):
            raise ConfigError(f"{flag} takes {what}, got {value}")


def _cmd_run(args) -> int:
    cfg = {**load_config(args.config), **_given(args, ["seed"])}
    out = run_experiment(cfg, args.out, jobs=vars(args)["--jobs"])
    print(f"experiment artifacts in {out}")
    return EXIT_OK


def _cmd_encode(args) -> int:
    base = _read(load_problem, args.problem, "problem")
    if args.alpha is not None:
        np_prob = encode_for_scale(base, args.C, args.gamma, args.alpha)
    else:
        np_prob = encode_nested(base, args.C, args.gamma)
    save_nested(np_prob, args.out)
    print(f"nested problem ({np_prob.n_nested} vertices) -> {args.out}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    graph = (_read(load_graph, args.graph, "graph") if args.graph
             else build_chimera(vars(args)["--rows"], vars(args)["--cols"]))
    np_prob = _read(load_nested, args.source, "nested problem")
    if args.mode == "choi":
        emb = _choi_embed(np_prob.n_nested, graph)
    else:
        rng = np.random.default_rng(args.seed)
        emb = heuristic_embed(np_prob, graph, rng, max_tries=vars(args)["--max-tries"])
    report = validate_embedding(emb, np_prob)
    if not report.ok:
        raise InvalidEmbedding(report)
    save_embedding(emb, args.out)
    nq, mx, mean = embedding_stats(emb)
    print(f"embedding: {nq} qubits, max chain {mx}, mean chain {mean:.2f} -> {args.out}")
    return EXIT_OK


def _cmd_sqa(args) -> int:
    params, sch = _sampler({"engine": "sqa", "schedule": args.schedule, "engine_params":
                            _engine_params("sqa", _given(args, ENGINE_PARAMS["sqa"]))})
    p = _read(load_problem, args.problem, "problem")
    ss = run_sqa(p, sch, params, vars(args)["--anneals"], args.seed)
    save_sampleset(ss, args.out)
    print(f"{ss.n_records} anneal records -> {args.out}")
    return EXIT_OK


def _cmd_pt(args) -> int:
    ep = _engine_params("pt", _given(args, [*ENGINE_PARAMS["pt"], "betas"]))
    params, _ = _sampler({"engine": "pt", "engine_params": ep})
    p = _read(load_problem, args.problem, "problem")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    samplesets = run_pt(p, params, ep["n_samples"], args.seed)
    for i, (beta, ss) in enumerate(sorted(samplesets.items())):
        save_sampleset(ss, out_dir / f"beta_{i:02d}_{beta:.6g}.ndjson")
    print(f"{len(samplesets)} thermal sample sets -> {out_dir}")
    return EXIT_OK


def _cmd_meanfield(args) -> int:
    _, sch = _sampler({"engine": "sqa", "schedule": args.schedule,
                       "engine_params": ENGINE_PARAMS["sqa"]})
    rows = free_energy_grid(sch.a_of, sch.b_of, args.gamma, args.beta, args.C,
                            n_m=vars(args)["--n-m"], n_s=vars(args)["--n-s"])
    lines = ["m,s,A,B,betaF"]
    lines += [",".join(format(v, ".12g") for v in row) for row in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"free-energy grid ({len(rows)} rows) -> {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    """Boost and eta from a curves.csv, or from a hit table (a JSON object),
    whose curves.csv it writes first."""
    _check_boost(args.p0, args.fit_count)
    text = _read(lambda p: Path(p).read_text(), args.curves, "curves.csv or hit table")
    table = text.lstrip().startswith("{")
    if table:
        curves = analysis.curves_from_units(_read(lambda _: _hit_table(text), args.curves,
                                                  "hit table"))
    else:
        curves = analysis.success_curves(_read(lambda _: analysis.curve_rows(text), args.curves,
                                               "curves.csv", "; a hit table is a JSON object"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if table:
        (out / "curves.csv").write_text(analysis.curves_csv(curves))
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


def _add_flags(p, table: dict, keys) -> None:
    """Add the flag of each of ``keys`` of ``table`` (a count's key is its
    flag), typed as the key's default. A flag not given is absent from the
    parsed arguments, so ``_filled`` gives it that default."""
    for key in keys:
        flag = key if key.startswith("--") else _FLAGS.get(key, "--" + key.replace("_", "-"))
        p.add_argument(flag, dest=key, type=type(table[key]), default=argparse.SUPPRESS,
                       metavar=flag[2:].upper())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nqac",
        description="nested quantum annealing correction experiment harness",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a full experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override config seed")
    _add_flags(run_p, _COUNTS, ["--jobs"])
    run_p.set_defaults(func=_cmd_run)

    enc = sub.add_parser("encode", help="nest a problem at level C")
    enc.add_argument("--alpha", type=float, default=None,
                     help="problem scale; keeps the penalty fixed in device units")
    enc.set_defaults(func=_cmd_encode)

    embp = sub.add_parser("embed", help="embed a nested problem on hardware")
    embp.add_argument("--source", required=True, help="nested problem file")
    embp.add_argument("--graph", default=None, help="hardware graph JSON")
    _add_flags(embp, _COUNTS, ["--rows", "--cols", "--max-tries"])
    embp.add_argument("--mode", choices=("choi", "heuristic"), default="choi")
    embp.set_defaults(func=_cmd_embed)

    # sqa anneals the problem as given: the SqaParams knobs, no coupler noise
    sqa_p = sub.add_parser("sqa", help="anneal a problem file directly")
    _add_flags(sqa_p, ENGINE_PARAMS["sqa"], _field_defaults(SqaParams))
    _add_flags(sqa_p, _COUNTS, ["--anneals"])
    sqa_p.set_defaults(func=_cmd_sqa)

    pt_p = sub.add_parser("pt", help="sample thermal states by parallel tempering")
    pt_p.add_argument("--betas", type=lambda text: [float(b) for b in text.split(",")],
                      default=argparse.SUPPRESS, help="comma list; replaces the ladder")
    _add_flags(pt_p, ENGINE_PARAMS["pt"], ENGINE_PARAMS["pt"])
    pt_p.set_defaults(func=_cmd_pt)

    mf = sub.add_parser("meanfield", help="tabulate the mean-field free energy")
    mf.add_argument("--beta", type=float, required=True)
    _add_flags(mf, _COUNTS, ["--n-m", "--n-s"])
    mf.set_defaults(func=_cmd_meanfield)

    an = sub.add_parser("analyze", help="boost and exponent from a curves.csv or hit table")
    an.add_argument("--curves", required=True)
    an.add_argument("--p0", type=float, default=None)
    an.add_argument("--fit-count", type=int, default=CONFIG_KEYS["sqa"]["fit_count"])
    an.set_defaults(func=_cmd_analyze)

    bf = sub.add_parser("bruteforce", help="exhaustive ground-state search")
    bf.add_argument("--out", default=None)
    bf.set_defaults(func=_cmd_bruteforce)

    for p in (enc, sqa_p, pt_p, bf):
        p.add_argument("--problem", required=True)
    for p in (enc, mf):
        p.add_argument("--C", type=int, required=True)
        p.add_argument("--gamma", type=float, required=True)
    for p in (sqa_p, mf):
        p.add_argument("--schedule", default=CONFIG_KEYS["sqa"]["schedule"],
                       help="'linear', 'device', or a CSV path")
    for p in (embp, sqa_p, pt_p):
        p.add_argument("--seed", type=int, default=0)
    for p in (run_p, enc, embp, sqa_p, pt_p, mf, an):
        p.add_argument("--out", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
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
