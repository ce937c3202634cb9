import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nqac import cli, sqa
from nqac.chimera import build_chimera, choi_embed
from nqac.cli import _build_embedding, main
from nqac.instances import dead8_mask, k4_antiferromagnet
from nqac.ising import IsingProblem, save_problem
from nqac.nesting import load_nested
from nqac.sampleset import load_sampleset


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    save_problem(k4_antiferromagnet(), path)
    return path


def tiny_config(tmp_path, k4_file, engine="sqa", **overrides):
    """A small config holding only keys its engine reads, plus ``overrides``."""
    cfg = {"problem": str(k4_file), "C": [1, 2], "alphas": [0.3, 1.0], "gammas": [0.3],
           "engine": engine, "seed": 1234}
    if engine == "sqa":
        cfg.update(
            engine_params={"sweeps": 120, "trotter_slices": 8, "beta": 0.5, "noise_sigma": 0.05},
            embedding="none", cycles=2, runs_per_cycle=10, schedule="device",
        )
    else:
        cfg["engine_params"] = {"n_betas": 4, "sweeps": 100, "swap_interval": 2, "n_samples": 20}
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def boost_config(tmp_path, k4_file, engine):
    """A tiny config whose boost is defined at both levels, so a run writes
    eta.txt. Under SQA the smallest alpha switches the problem off (beta B
    alpha = 0.015 and no noise), so each C samples the 6/16 floor there, and
    at alpha = 1 each C finds the ground states: both curves rise through the
    C=1 midpoint. 60 records per point keep the floor about 5 standard errors
    below it; eta.txt was written at seeds 1-20 and 1234."""
    if engine == "pt":
        return tiny_config(tmp_path, k4_file, engine="pt", alphas=[0.01, 0.1, 1.0])
    return tiny_config(
        tmp_path, k4_file, alphas=[0.001, 0.1, 1.0], runs_per_cycle=30,
        engine_params={"sweeps": 120, "trotter_slices": 8, "beta": 0.5, "noise_sigma": 0.0},
    )


def test_bruteforce_subcommand(k4_file, tmp_path, capsys):
    out = tmp_path / "gs.json"
    rc = main(["bruteforce", "--problem", str(k4_file), "--out", str(out)])
    assert rc == 0
    assert "ground energy -2" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert len(data["ground_states"]) == 6


def test_encode_subcommand(k4_file, tmp_path):
    out = tmp_path / "nested.json"
    rc = main(["encode", "--problem", str(k4_file), "--C", "2", "--gamma", "0.4",
               "--out", str(out)])
    assert rc == 0
    npr = load_nested(out)
    assert npr.C == 2 and npr.n_nested == 8
    # alpha-scan form keeps the device-unit penalty fixed
    out2 = tmp_path / "nested2.json"
    rc = main(["encode", "--problem", str(k4_file), "--C", "2", "--gamma", "0.4",
               "--alpha", "0.1", "--out", str(out2)])
    assert rc == 0
    npr2 = load_nested(out2)
    assert npr2.nested.alpha * npr2.gamma == pytest.approx(0.4)


def test_embed_subcommand_choi(k4_file, tmp_path, capsys):
    nested = tmp_path / "nested.json"
    main(["encode", "--problem", str(k4_file), "--C", "2", "--gamma", "0.4",
          "--out", str(nested)])
    emb_path = tmp_path / "emb.json"
    rc = main(["embed", "--source", str(nested), "--mode", "choi", "--out", str(emb_path)])
    assert rc == 0
    assert "24 qubits, max chain 3" in capsys.readouterr().out


def test_embed_subcommand_failure_exit_code(k4_file, tmp_path):
    nested = tmp_path / "nested.json"
    main(["encode", "--problem", str(k4_file), "--C", "4", "--gamma", "0.4",
          "--out", str(nested)])
    rc = main(["embed", "--source", str(nested), "--rows", "1", "--cols", "1",
               "--mode", "heuristic", "--max-tries", "3", "--out", str(tmp_path / "e.json")])
    assert rc == 3


def test_sqa_subcommand(k4_file, tmp_path):
    out = tmp_path / "samples.ndjson"
    rc = main(["sqa", "--problem", str(k4_file), "--sweeps", "100", "--slices", "8",
               "--beta", "0.5", "--anneals", "12", "--seed", "3", "--out", str(out)])
    assert rc == 0
    ss = load_sampleset(out)
    assert ss.n_records == 12 and ss.n_spins == 4


@pytest.mark.parametrize("argv", [
    ["sqa", "--slices", "1"],
    ["sqa", "--sweeps", "0"],
    ["sqa", "--anneals", "0"],
    ["sqa", "--schedule", "no_such_schedule.csv"],
    ["pt", "--beta-max", "0.05"],
    ["pt", "--n-betas", "0"],
    ["pt", "--betas", "2.0,0.5"],
    ["pt", "--swap-interval", "0"],
    ["pt", "--samples", "0"],
], ids=" ".join)
def test_sampler_subcommand_bad_parameter_is_config_error(k4_file, tmp_path, capsys, argv):
    command, *flags = argv
    rc = main([command, "--problem", str(k4_file), "--out", str(tmp_path / "out"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("[config]")


@pytest.mark.parametrize("argv", [
    ["run", "--jobs", "0"],
    ["run", "--jobs", "-3"],
    ["meanfield", "--C", "0"],
    ["meanfield", "--beta", "-1"],
    ["meanfield", "--n-m", "0"],
    ["meanfield", "--n-s", "0"],
    ["embed", "--mode", "heuristic", "--max-tries", "0"],
    ["embed", "--rows", "0"],
    ["embed", "--cols", "-1"],
    ["encode", "--C", "0"],
    ["meanfield", "--gamma", "-1"],
    ["meanfield", "--gamma", "0"],
    ["meanfield", "--gamma", "inf"],
    ["encode", "--gamma", "-0.5"],
    ["encode", "--C", "1", "--gamma", "-0.5"],
    ["encode", "--alpha", "0"],
    ["encode", "--alpha", "1.5"],
], ids=" ".join)
def test_standalone_bad_count_is_config_error(k4_file, tmp_path, capsys, argv):
    command, *flags = argv
    nested = tmp_path / "nested.json"
    assert main(["encode", "--problem", str(k4_file), "--C", "2", "--gamma", "0.4",
                 "--out", str(nested)]) == 0
    given = {
        "run": ["--config", str(tiny_config(tmp_path, k4_file))],
        "meanfield": ["--C", "2", "--gamma", "0.5", "--beta", "2.0"],
        "embed": ["--source", str(nested)],
        "encode": ["--problem", str(k4_file), "--C", "2", "--gamma", "0.4"],
    }[command]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, *given, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and flags[-2] in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sqa", "pt", "embed"])
def test_negative_seed_is_config_error(k4_file, tmp_path, capsys, command):
    source = "--source" if command == "embed" else "--problem"
    rc = main([command, source, str(k4_file), "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "[config] seed must be a non-negative integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sqa", "--problem"],
    ["pt", "--problem"],
    ["bruteforce", "--problem"],
    ["encode", "--C", "2", "--gamma", "0.4", "--problem"],
    ["embed", "--source"],
], ids=lambda argv: argv[0])
def test_subcommand_truncated_problem_file_is_config_error(k4_file, tmp_path, capsys, argv):
    bad = tmp_path / "truncated.json"
    bad.write_text(k4_file.read_text()[:40])
    out = tmp_path / "out"
    flags = [] if argv[0] == "bruteforce" else ["--out", str(out)]
    assert main([*argv, str(bad), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and str(bad) in err
    assert not out.exists()


def test_pt_subcommand(k4_file, tmp_path):
    out = tmp_path / "thermal"
    rc = main(["pt", "--problem", str(k4_file), "--betas", "0.5,2.0", "--sweeps", "400",
               "--samples", "30", "--seed", "5", "--out", str(out)])
    assert rc == 0
    files = sorted(Path(out).glob("beta_*.ndjson"))
    assert len(files) == 2
    assert load_sampleset(files[0]).n_records == 30


def test_meanfield_subcommand(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["meanfield", "--C", "2", "--gamma", "0.5", "--beta", "2.0",
               "--n-m", "11", "--n-s", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,s,A,B,betaF"
    assert len(lines) == 1 + 11 * 5


def test_analyze_subcommand(tmp_path):
    alphas = np.geomspace(0.01, 1.0, 12)

    def f(x):
        return 0.36 + 0.60 / (1.0 + (0.18 / x) ** 1.6)

    lines = ["C,alpha,gamma_star,P,stderr"]
    for C, k in ((1, 1.0), (2, 2.0)):
        for a in alphas:
            lines.append(f"{C},{a:.8g},0.3,{f(k * a):.8g},0.002")
    curves = tmp_path / "curves.csv"
    curves.write_text("\n".join(lines) + "\n")
    out = tmp_path / "analysis"
    rc = main(["analyze", "--curves", str(curves), "--p0", "0.6", "--fit-count", "2",
               "--out", str(out)])
    assert rc == 0
    boost = (out / "boost.csv").read_text()
    assert boost.splitlines()[0] == "C,mu_mid,mu_low,mu_high"
    eta = (out / "eta.txt").read_text()
    assert eta.startswith("eta = ")


def test_run_experiment_end_to_end(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file)
    out = tmp_path / "exp"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    curves = (out / "curves.csv").read_text().strip().splitlines()
    assert curves[0] == "C,alpha,gamma_star,P,stderr"
    assert len(curves) == 1 + 2 * 2
    assert (out / "manifest.json").exists()
    assert len(list((out / "samples").glob("*.ndjson"))) == 4


def test_run_missing_problem_is_config_error(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file, problem=str(tmp_path / "nope.json"))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")])
    assert rc == 2


def test_run_bad_engine_is_config_error(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file, engine="dwave")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2


@pytest.mark.parametrize("engine, old, new", [
    ("sqa", '"gammas": [0.3]', '"gammas": [Infinity]'),
    ("sqa", '"gammas": [0.3]', '"gammas": [1e999]'),
    ("sqa", '"beta": 0.5', '"beta": Infinity'),
    ("sqa", '"beta": 0.5', '"beta": NaN'),
    ("pt", '"n_betas": 4', '"n_betas": 4, "beta_max": Infinity'),
])
def test_run_non_finite_number_is_config_error(tmp_path, k4_file, capsys, engine, old, new):
    cfg = tiny_config(tmp_path, k4_file, engine=engine)
    text = cfg.read_text()
    assert text.count(old) == 1
    cfg.write_text(text.replace(old, new))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and "finite" in err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("text", [
    '{"n": 4, "J": {"0,1": 1.0, "0,2"',
    '{"n": 4, "J": {"0,9": 1.0}}',
    '{"n": 4, "J": {"0,1": Infinity}}',
    '{"n": 4, "h": {"2": "-inf"}}',
    '[4]',
], ids=["truncated", "endpoint-out-of-range", "infinite-coupling", "infinite-field",
        "not-an-object"])
def test_run_bad_problem_file_is_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    cfg = tiny_config(tmp_path, bad)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and str(bad) in err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("text", [
    '{"rows": 8, "co',
    '[8, 8]',
    '{"cols": 8}',
    '{"rows": 8, "cols": 8, "dead": [9999]}',
], ids=["truncated", "list", "no-rows", "dead-out-of-range"])
def test_run_bad_graph_file_is_config_error(tmp_path, k4_file, capsys, text):
    graph = tmp_path / "graph.json"
    graph.write_text(text)
    cfg = tiny_config(tmp_path, k4_file, embedding="choi", graph=str(graph))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and str(graph) in err
    assert not (tmp_path / "exp").exists()


def test_embedded_run_reads_its_input_files_once(tmp_path, k4_file, monkeypatch):
    # the config check only finds the files; the run parses each one once
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"rows": 8, "cols": 8, "dead": []}))
    cfg = tiny_config(tmp_path, k4_file, embedding="choi", graph=str(graph), runs_per_cycle=4)
    parsed = []
    for name in ("load_problem", "load_graph"):
        load = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda path, load=load: parsed.append(path) or load(path))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 0
    assert sorted(parsed) == sorted([str(k4_file), str(graph)])


def test_run_pt_with_embedding_is_config_error(tmp_path, k4_file, capsys):
    cfg = tiny_config(tmp_path, k4_file, engine="pt", embedding="choi")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    assert "unembedded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "engine, engine_params",
    [("sqa", {"sweeps": 10, "n_samples": 5}), ("pt", {"sweeps": 10, "trotter_slices": 8})],
)
def test_run_unread_engine_param_is_config_error(
    tmp_path, k4_file, capsys, engine, engine_params
):
    cfg = tiny_config(tmp_path, k4_file, engine=engine, engine_params=engine_params)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    assert f"engine_params the {engine} engine does not read" in capsys.readouterr().err


# a key the engine does not read, or a value it cannot use
@pytest.mark.parametrize(
    "engine, overrides",
    [
        ("sqa", {"runs_per_cyle": 5}),
        ("pt", {"cycles": 7}),
        ("pt", {"runs_per_cycle": 3}),
        ("pt", {"schedule": "no_such.csv"}),
        ("pt", {"graph": "g.json"}),
        ("pt", {"engine_params": {"betas": [0.5, 2.0], "beta_max": 50.0}}),
        ("sqa", {"graph": "g.json", "embedding": "none"}),
        ("sqa", {"seed": True}),
        ("sqa", {"C": [1, 1, 2]}),
        ("sqa", {"cycles": 0}),
        ("sqa", {"gammas": [0]}),
        ("sqa", {"C": [0, 1]}),
        ("sqa", {"fit_count": 1}),
        ("pt", {"fit_count": 1}),
        ("sqa", {"p0": 7}),
        ("pt", {"p0": 0}),
    ],
)
def test_run_config_is_config_error(tmp_path, k4_file, capsys, engine, overrides):
    (tmp_path / "g.json").write_text(json.dumps({"rows": 8, "cols": 8, "dead": []}))
    if "graph" in overrides:
        overrides["graph"] = str(tmp_path / overrides["graph"])
    cfg = tiny_config(tmp_path, k4_file, engine=engine, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    assert capsys.readouterr().err.startswith("[config] ")


def test_run_negative_noise_sigma_is_config_error(tmp_path, k4_file, capsys):
    cfg = tiny_config(tmp_path, k4_file, engine_params={"noise_sigma": -0.1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    assert capsys.readouterr().err == "[config] noise_sigma must be >= 0\n"
    assert not (tmp_path / "exp").exists()


def test_pt_run_reruns_from_manifest(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file, engine="pt")
    out1 = tmp_path / "exp1"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    out2 = tmp_path / "exp2"
    assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()


def test_analyze_without_reference_curve_is_compute_error(tmp_path):
    curves = tmp_path / "curves.csv"
    curves.write_text("C,alpha,gamma_star,P,stderr\n2,0.1,0.3,0.4,0.01\n2,1,0.3,0.9,0.01\n")
    rc = main(["analyze", "--curves", str(curves), "--out", str(tmp_path / "a")])
    assert rc == 4


@pytest.mark.parametrize(
    "flags", [["--fit-count", "0"], ["--fit-count", "-3"], ["--fit-count", "1"], ["--p0", "7"],
              ["--p0", "0"], ["--p0", "nan"]],
)
def test_analyze_bad_flag_is_config_error(tmp_path, capsys, flags):
    curves = tmp_path / "curves.csv"
    curves.write_text("C,alpha,gamma_star,P,stderr\n1,0.1,0.3,0.4,0.01\n1,1,0.3,0.9,0.01\n")
    out = tmp_path / "a"
    assert main(["analyze", "--curves", str(curves), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("[config] ")
    assert not out.exists()


@pytest.mark.parametrize("engine", ["sqa", "pt"])
def test_analyze_reproduces_the_run(tmp_path, k4_file, engine):
    cfg = boost_config(tmp_path, k4_file, engine)
    run = tmp_path / "exp"
    assert main(["run", "--config", str(cfg), "--out", str(run)]) == 0
    out = tmp_path / "a"
    assert main(["analyze", "--curves", str(run / "curves.csv"), "--out", str(out)]) == 0
    for name in ("boost.csv", "eta.txt"):
        assert (out / name).read_bytes() == (run / name).read_bytes()


def test_run_with_choi_embedding(tmp_path, k4_file):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"rows": 8, "cols": 8, "dead": []}))
    cfg = tiny_config(
        tmp_path, k4_file, C=[1], alphas=[1.0], embedding="choi", graph=str(graph),
        engine_params={"sweeps": 60, "trotter_slices": 8, "beta": 0.5, "noise_sigma": 0.02},
        cycles=2, runs_per_cycle=6,
    )
    out = tmp_path / "exp-emb"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "curves.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    C, alpha, gamma, P, se = lines[1].split(",")
    assert (C, alpha) == ("1", "1")
    assert 0.0 <= float(P) <= 1.0
    # records hold the chain qubits only, not all 512 qubits of the graph
    chains = choi_embed(4, build_chimera(8, 8)).chains.values()
    assert load_sampleset(out / "samples" / "C1_a0_g0.ndjson").n_spins == sum(map(len, chains))


def test_run_embedding_failure_exit_code(tmp_path, k4_file):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"rows": 1, "cols": 1, "dead": []}))
    cfg = tiny_config(
        tmp_path, k4_file, C=[4], embedding="heuristic", graph=str(graph)
    )
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")])
    assert rc == 3


def _dead8_config(tmp_path, problem, **overrides):
    """A tiny heuristic-embedded config on the bundled 8-dead-qubit graph."""
    graph = tmp_path / "dead8.json"
    graph.write_text(json.dumps(dead8_mask()))
    problem_file = tmp_path / "problem.json"
    save_problem(problem, problem_file)
    return tiny_config(
        tmp_path, problem_file, embedding="heuristic", graph=str(graph),
        engine_params={"sweeps": 20, "trotter_slices": 4, "beta": 0.5, "noise_sigma": 0.05},
        runs_per_cycle=5, **overrides,
    )


def test_ring_on_dead_graph_runs_at_any_jobs(tmp_path):
    # every cycle permutes the nested vertices, so the embedding must be of
    # K_{C*n}; an embedding of the ring's own graph failed on most seeds
    ring = IsingProblem.from_couplings(8, couplings={(i, (i + 1) % 8): 1.0 for i in range(8)})
    cfg = _dead8_config(tmp_path, ring, seed=1)
    outs = [tmp_path / "j1", tmp_path / "j2"]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for f in files:
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_embedded_stacks_give_the_same_files_at_any_jobs(tmp_path, k4_file, monkeypatch):
    # a cap of 500 ring words fills a stack of 100-anneal units at 5, so each
    # C level's 2 alphas x 2 gammas x 3 cycles = 12 units run as stacks of 5,
    # 5 and 2; with --jobs 2 the pool maps those stacks. The default cap
    # stacks all 12, and every unit alone gives the same files too.
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"rows": 8, "cols": 8, "dead": []}))
    cfg = tiny_config(
        tmp_path, k4_file, gammas=[0.3, 0.6], embedding="choi", graph=str(graph),
        engine_params={"sweeps": 5, "trotter_slices": 8, "beta": 0.5, "noise_sigma": 0.05},
        cycles=3, runs_per_cycle=100,
    )
    assert sqa.stack_size(8, 100) >= 12
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "all")]) == 0
    monkeypatch.setattr(sqa, "STACK_RING_WORDS", 500)
    assert sqa.stack_size(8, 100) == 5
    for jobs in ("1", "2"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    monkeypatch.setattr(sqa, "STACK_RING_WORDS", 0)
    assert sqa.stack_size(8, 100) == 1
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "alone")]) == 0
    files = _files(tmp_path / "1")
    assert len([f for f in files if f.endswith(".ndjson")]) == 2 * 2 * 2
    assert files == _files(tmp_path / "2") == _files(tmp_path / "alone") == _files(tmp_path / "all")


def test_uncoupled_vertex_gets_a_chain(tmp_path):
    free = IsingProblem.from_couplings(3, couplings={(0, 1): 1.0}, h=[0.0, 0.0, 0.5])
    cfg = _dead8_config(tmp_path, free)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 0


#: sha256 of the chains for K4 at C = 1, 2, 3 and seeds 1, 2, 3: choi on the
#: perfect 8x8 graph, heuristic on the bundled 8-dead-qubit graph
_EMBEDDING_DIGESTS = {
    "choi": "0dd213ceb4781ad590760bce25516d0436a1ab5344a5ffff55ee13c2554c747a",
    "heuristic": "59b7d7c487c55ed2f5265b748da809f22cf4aba40580a531092b09fc70f4195b",
}


@pytest.mark.parametrize("mode", sorted(_EMBEDDING_DIGESTS))
def test_run_embeddings_are_pinned(mode):
    mask = dead8_mask()
    graph = (build_chimera(8, 8) if mode == "choi"
             else build_chimera(mask["rows"], mask["cols"], mask["dead"]))
    chains = [_build_embedding({"embedding": mode, "seed": seed}, C, k4_antiferromagnet(),
                               graph).to_dict()
              for seed in (1, 2, 3) for C in (1, 2, 3)]
    digest = hashlib.sha256(json.dumps(chains, sort_keys=True).encode()).hexdigest()
    assert digest == _EMBEDDING_DIGESTS[mode]


def test_manifest_rerun_reproduces_outputs(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file)
    out1 = tmp_path / "exp1"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    out2 = tmp_path / "exp2"
    assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()


@pytest.mark.parametrize("engine", ["sqa", "pt"])
def test_manifest_records_versions_and_reruns(tmp_path, k4_file, engine):
    cfg = boost_config(tmp_path, k4_file, engine)
    out1, out2 = tmp_path / "exp1", tmp_path / "exp2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__}
    assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    assert {"boost.csv", "curves.csv", "eta.txt", "manifest.json"} <= {str(f) for f in files}
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    for f in files:
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


_IMPORT_GUARD = """
import json, sys
import nqac.cli
loaded = set(sys.modules)
rcs = [nqac.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"rcs": rcs, "scipy": sorted(m for m in loaded if m.split(".")[0] == "scipy"),
                  "new": sorted(set(sys.modules) - loaded)}))
"""


def test_runs_import_nothing_beyond_the_cli(tmp_path, k4_file):
    """Importing the CLI loads no scipy, and a run or an analysis loads no
    module the import had not, so no import cost lands inside a run."""
    runs = []
    for engine in ("sqa", "pt"):
        (tmp_path / engine).mkdir()
        cfg = boost_config(tmp_path / engine, k4_file, engine)
        runs.append(["run", "--config", str(cfg), "--out", str(tmp_path / engine / "out"),
                     "--jobs", "1"])
    runs.append(["analyze", "--curves", str(tmp_path / "sqa" / "out" / "curves.csv"),
                 "--out", str(tmp_path / "analyzed")])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, json.dumps(runs)], capture_output=True, text=True,
        timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"rcs": [0, 0, 0], "scipy": [], "new": []}


def test_analyze_stage_rejects_samples_of_another_config(tmp_path, k4_file, capsys):
    out = tmp_path / "exp"
    cfg = tiny_config(tmp_path, k4_file, gammas=[0.2, 0.5])
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "sample"]) == 0
    cfg = tiny_config(tmp_path, k4_file, gammas=[0.3, 0.9])
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "analyze"]) == 2
    assert "run the sample stage again" in capsys.readouterr().err
    assert not (out / "curves.csv").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"C": [1, 2, 3]}, {"C": [1]}, {"gammas": [0.3, 0.5]}, {"alphas": [0.2, 1]},
     {"alphas": [0.1, 0.5, 1]}],
)
def test_pt_analyze_stage_rejects_samples_of_another_grid(tmp_path, k4_file, capsys,
                                                          overrides):
    # pt_scan.json was sampled at C [1, 2], alphas [0.1, 1], gammas [0.3]
    out = tmp_path / "exp"
    cfg = tiny_config(tmp_path, k4_file, engine="pt", alphas=[0.1, 1])
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "sample"]) == 0
    cfg = tiny_config(tmp_path, k4_file, engine="pt", **{"alphas": [0.1, 1], **overrides})
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "analyze"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and "run the sample stage again" in err
    assert not (out / "curves.csv").exists()


@pytest.mark.parametrize("damage", [
    lambda text: text[:-7],  # truncated
    lambda text: text.replace("[0, 1, 0, ", "[0, 1, ", 1),  # a row of 5 fields
    lambda text: json.dumps({"rows": json.loads(text)}),  # not a list
], ids=["truncated", "short-row", "not-a-list"])
def test_pt_analyze_stage_rejects_damaged_scan(tmp_path, k4_file, capsys, damage):
    out = tmp_path / "exp"
    cfg = tiny_config(tmp_path, k4_file, engine="pt")
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "sample"]) == 0
    path = out / "samples" / "pt_scan.json"
    damaged = damage(path.read_text())
    assert damaged != path.read_text()
    path.write_text(damaged)
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "analyze"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and str(path) in err
    assert "run the sample stage again" in err
    assert not (out / "curves.csv").exists()


def _cut_mid_record(text):
    return text[:-7]


def _drop_last_records(text):
    return "".join(text.splitlines(keepends=True)[:-3])


def _renumber_cycle_1(text):
    return text.replace(', "cycle": 1}', ', "cycle": 0}')


@pytest.mark.parametrize("damage", [_cut_mid_record, _drop_last_records, _renumber_cycle_1])
def test_analyze_stage_rejects_damaged_samples(tmp_path, k4_file, capsys, damage):
    # 2 cycles x 10 records: a cut record, 7 records in cycle 1, or no cycle 1
    out = tmp_path / "exp"
    cfg = tiny_config(tmp_path, k4_file)
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "sample"]) == 0
    path = out / "samples" / "C2_a1_g0.ndjson"
    path.write_text(damage(path.read_text()))
    assert main(["run", "--config", str(cfg), "--out", str(out), "--stage", "analyze"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[config] ") and str(path) in err
    assert "run the sample stage again" in err
    assert not (out / "curves.csv").exists()


def test_analyze_nan_curve_is_compute_error(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text("C,alpha,gamma_star,P,stderr\n1,0.1,0.3,nan,0.01\n1,1,0.3,0.9,0.01\n"
                      "2,0.1,0.3,0.5,0.01\n2,1,0.3,0.95,0.01\n")
    assert main(["analyze", "--curves", str(curves), "--out", str(tmp_path / "a")]) == 4
    assert capsys.readouterr().err.startswith("[compute] ")


def test_staged_run_matches_single_run(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file)
    whole = tmp_path / "whole"
    main(["run", "--config", str(cfg), "--out", str(whole)])
    staged = tmp_path / "staged"
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "sample"]) == 0
    assert not (staged / "curves.csv").exists()
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "analyze"]) == 0
    assert (whole / "curves.csv").read_bytes() == (staged / "curves.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_staged_run_matches_single_run_at_any_jobs(tmp_path, k4_file, jobs):
    # a whole run analyses the sample sets it holds, the analyze stage reads
    # them back from their files; over 2 gammas x 2 cycles both give the same
    # files, at either worker count
    cfg = tiny_config(tmp_path, k4_file, gammas=[0.3, 0.6], cycles=2)
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert main(["run", "--config", str(cfg), "--out", str(whole), "--jobs", jobs]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "sample",
                 "--jobs", jobs]) == 0
    assert not (staged / "curves.csv").exists()
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "analyze"]) == 0
    files = _files(whole)
    assert len([f for f in files if f.endswith(".ndjson")]) == 2 * 2 * 2
    assert "curves.csv" in files and files == _files(staged)


def test_pt_whole_run_analyses_the_rows_it_holds(tmp_path, k4_file, monkeypatch):
    # a whole PT run builds its table from the scan rows it holds; only the
    # analyze stage reads pt_scan.json back, and both give the same files
    reads = []
    read_text = Path.read_text

    def spy(path, *args, **kwargs):
        reads.append(path.name)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", spy)
    cfg = boost_config(tmp_path, k4_file, "pt")
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert main(["run", "--config", str(cfg), "--out", str(whole)]) == 0
    assert "pt_scan.json" not in reads
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "sample"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "analyze"]) == 0
    assert "pt_scan.json" in reads
    files = _files(whole)
    assert {"curves.csv", "boost.csv", "eta.txt", "samples/pt_scan.json"} <= set(files)
    assert files == _files(staged)
