import json
from pathlib import Path

import numpy as np
import pytest

from nqac.cli import main
from nqac.instances import k4_antiferromagnet
from nqac.ising import save_problem
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
    ],
)
def test_run_config_is_config_error(tmp_path, k4_file, capsys, engine, overrides):
    (tmp_path / "g.json").write_text(json.dumps({"rows": 8, "cols": 8, "dead": []}))
    if "graph" in overrides:
        overrides["graph"] = str(tmp_path / overrides["graph"])
    cfg = tiny_config(tmp_path, k4_file, engine=engine, **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")]) == 2
    assert capsys.readouterr().err.startswith("[config] ")


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


def test_run_embedding_failure_exit_code(tmp_path, k4_file):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"rows": 1, "cols": 1, "dead": []}))
    cfg = tiny_config(
        tmp_path, k4_file, C=[4], embedding="heuristic", graph=str(graph)
    )
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "exp")])
    assert rc == 3


def test_manifest_rerun_reproduces_outputs(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file)
    out1 = tmp_path / "exp1"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    out2 = tmp_path / "exp2"
    assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()


def test_staged_run_matches_single_run(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file)
    whole = tmp_path / "whole"
    main(["run", "--config", str(cfg), "--out", str(whole)])
    staged = tmp_path / "staged"
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "sample"]) == 0
    assert not (staged / "curves.csv").exists()
    assert main(["run", "--config", str(cfg), "--out", str(staged), "--stage", "analyze"]) == 0
    assert (whole / "curves.csv").read_bytes() == (staged / "curves.csv").read_bytes()
