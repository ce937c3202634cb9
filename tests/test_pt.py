import numpy as np
import pytest

from nqac.errors import DomainError
from nqac.instances import k4_antiferromagnet
from nqac.ising import IsingProblem
from nqac.pt import (
    PtParams,
    geometric_ladder,
    run_pt,
    swap_probability,
    thermal_boost_scan,
)


def test_params_validation():
    with pytest.raises(DomainError):
        PtParams(betas=())
    with pytest.raises(DomainError):
        PtParams(betas=(1.0, 0.5))
    with pytest.raises(DomainError):
        PtParams(betas=(0.5, 0.5))
    with pytest.raises(DomainError):
        PtParams(betas=(-1.0, 1.0))
    with pytest.raises(DomainError):
        PtParams(betas=(0.5, 1.0), swap_interval=0)


def test_geometric_ladder():
    ladder = geometric_ladder(2.0, 8, 0.1)
    assert len(ladder) == 8
    assert ladder[0] == pytest.approx(0.1)
    assert ladder[-1] == pytest.approx(2.0)
    assert all(b2 > b1 for b1, b2 in zip(ladder, ladder[1:]))


def test_swap_probability_equal_betas_is_one():
    assert swap_probability(2.0, -5.0, 2.0, 13.0) == 1.0
    assert swap_probability(1.0, 0.0, 2.0, 1.0) <= 1.0
    # elementwise over the batch rows, as the sampler calls it
    p = swap_probability(1.0, np.array([0.0, 3.0, 1.0]), 2.0, np.array([1.0, 1.0, 1.0]))
    assert p == pytest.approx([1.0, np.exp(-2.0), 1.0])


def test_single_spin_magnetization():
    p = IsingProblem.from_couplings(1, h={0: -1.0})
    params = PtParams(betas=(0.5, 1.0, 2.0), sweeps=2000, swap_interval=5, seed=11)
    out = run_pt(p, params, 4000)
    m = out[2.0].configs.mean()
    exact = np.tanh(2.0)
    sigma = np.sqrt((1 - exact**2) / 4000)
    assert abs(m - exact) < 5 * sigma


def test_two_spin_gibbs_tv():
    p = IsingProblem.from_couplings(2, couplings={(0, 1): -1.0})
    params = PtParams(betas=(0.3, 0.6, 1.0), sweeps=4000, swap_interval=5, seed=12)
    out = run_pt(p, params, 5000)
    ss = out[1.0]
    states = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    energies = {s: -s[0] * s[1] for s in states}
    z = sum(np.exp(-e) for e in energies.values())
    emp = {}
    for s in map(tuple, ss.configs):
        emp[s] = emp.get(s, 0) + 1
    tv = 0.5 * sum(
        abs(emp.get(s, 0) / ss.n_records - np.exp(-energies[s]) / z) for s in states
    )
    assert tv < 0.02


def test_tiny_beta_is_uniform():
    p = IsingProblem.from_couplings(2, couplings={(0, 1): 1.0})
    params = PtParams(betas=(1e-9, 0.5, 1.0), sweeps=4000, swap_interval=5, seed=13)
    out = run_pt(p, params, 5000)
    ss = out[1e-9]
    counts = {}
    for s in map(tuple, ss.configs):
        counts[s] = counts.get(s, 0) + 1
    tv = 0.5 * sum(abs(c / ss.n_records - 0.25) for c in counts.values())
    assert tv < 0.02


def test_determinism():
    p = k4_antiferromagnet()
    params = PtParams(betas=(0.5, 1.0), sweeps=500, swap_interval=5, seed=3)
    a = run_pt(p, params, 40)
    b = run_pt(p, params, 40)
    for beta in params.betas:
        assert np.array_equal(a[beta].configs, b[beta].configs)


def test_thermal_boost_scan_limits(k4, k4_ground):
    # the scan reports the top rung: a cold ladder solves the nested K4, a
    # hot one decodes to the 6/16 random baseline
    _, gs = k4_ground

    def top_rung(betas):
        params = PtParams(betas=betas, sweeps=6000, swap_interval=5, seed=21)
        [(_, P, se)] = thermal_boost_scan(k4, 2, 1.0, [1.0], params, gs, n_samples=2000)
        return P, se

    p_cold, _ = top_rung((0.001, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0))
    assert p_cold >= 0.99
    p_hot, se_hot = top_rung((0.001,))
    assert abs(p_hot - 6 / 16) < 5 * max(se_hot, 1e-3)
    assert p_cold > p_hot


def test_thermal_boost_scan_shapes(k4, k4_ground):
    _, gs = k4_ground
    params = PtParams(betas=geometric_ladder(2.0, 6, 0.1), sweeps=1500, swap_interval=5, seed=4)
    pts = thermal_boost_scan(k4, 2, 1.0, [0.1, 0.4, 1.0], params, gs, n_samples=300)
    assert [a for a, _, _ in pts] == [0.1, 0.4, 1.0]
    assert all(0 <= p <= 1 for _, p, _ in pts)
    # monotone trend in alpha at fixed C
    assert pts[-1][1] > pts[0][1]
