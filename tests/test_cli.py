import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nqac.chimera import build_chimera, choi_embed
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


@pytest.mark.parametrize("command", ["sqa", "pt", "embed"])
def test_negative_seed_is_config_error(k4_file, tmp_path, capsys, command):
    source = "--source" if command == "embed" else "--problem"
    rc = main([command, source, str(k4_file), "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "[config] seed must be a non-negative integer\n"
    assert not (tmp_path / "out").exists()


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
    cfg = tiny_config(tmp_path, k4_file, engine=engine, alphas=[0.01, 0.1, 1.0])
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


def test_manifest_rerun_reproduces_outputs(tmp_path, k4_file):
    cfg = tiny_config(tmp_path, k4_file)
    out1 = tmp_path / "exp1"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    out2 = tmp_path / "exp2"
    assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()


@pytest.mark.parametrize("engine", ["sqa", "pt"])
def test_manifest_records_versions_and_reruns(tmp_path, k4_file, engine):
    cfg = tiny_config(tmp_path, k4_file, engine=engine, alphas=[0.01, 0.1, 1.0])
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
        cfg = tiny_config(tmp_path / engine, k4_file, engine=engine, alphas=[0.01, 0.1, 1.0])
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
