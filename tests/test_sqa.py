import numpy as np
import pytest

from nqac.errors import DomainError, ScheduleError
from nqac.instances import k4_antiferromagnet
from nqac.ising import IsingProblem, rescale
from nqac.nesting import encode_nested
from nqac.sqa import (
    Schedule,
    SqaParams,
    default_schedule,
    device_like_schedule,
    run_protocol,
    run_sqa,
    run_sqa_chain,
    sample_noise,
)


def flat_schedule(A, B):
    return Schedule(s=[0.0, 1.0], A=[A, A], B=[B, B])


def success_fraction(configs, keys):
    return sum(c.tobytes() in keys for c in configs) / configs.shape[0]


# ---------------------------------------------------------------------------
# schedules


def test_default_schedule_values():
    sch = default_schedule()
    assert (sch.a_of(0.0), sch.b_of(0.0)) == (1.0, 0.0)
    assert (sch.a_of(0.5), sch.b_of(0.5)) == (0.5, 0.5)
    assert (sch.a_of(1.0), sch.b_of(1.0)) == (0.0, 1.0)


def test_device_schedule_monotone():
    sch = device_like_schedule()
    assert sch.a_of(0.0) == pytest.approx(8.0)
    assert sch.b_of(1.0) == pytest.approx(30.0)


def test_schedule_csv_round_trip():
    sch = device_like_schedule()
    again = Schedule.from_csv(sch.to_csv())
    assert np.allclose(again.A, sch.A) and np.allclose(again.B, sch.B)


def test_schedule_rejects_non_monotone():
    with pytest.raises(ScheduleError):
        Schedule.from_csv("s,A,B\n0,1,0\n0.5,0.6,0.8\n1,0,0.5\n")  # B decreasing
    with pytest.raises(ScheduleError):
        Schedule(s=[0, 0.5, 1], A=[1, 1.2, 0], B=[0, 0.5, 1])  # A increasing
    with pytest.raises(ScheduleError):
        Schedule(s=[0.1, 1], A=[1, 0], B=[0, 1])  # does not cover s=0


def test_params_validation():
    with pytest.raises(DomainError):
        SqaParams(trotter_slices=1)
    with pytest.raises(DomainError):
        SqaParams(sweeps=0)
    with pytest.raises(DomainError):
        SqaParams(beta=0.0)
    with pytest.raises(DomainError):
        SqaParams(noise_sigma=-0.1)


# ---------------------------------------------------------------------------
# coupler noise


def test_noise_sigma_zero_identity(k4):
    assert sample_noise(k4, 0.0, np.random.default_rng(0)) is k4


def test_noise_moments():
    n = 60
    coup = {(i, j): 1.0 for i in range(n) for j in range(i + 1, n)}
    p = IsingProblem.from_couplings(n, couplings=coup)
    rng = np.random.default_rng(8)
    deltas = []
    while len(deltas) * len(coup) < 100_000:
        noisy = sample_noise(p, 0.05, rng)
        deltas.append(noisy.values - p.values)
    d = np.concatenate(deltas)[:100_000]
    assert abs(d.mean()) < 5 * 0.05 / np.sqrt(d.size)
    assert abs(d.std() - 0.05) < 0.02 * 0.05


def test_noise_is_absolute_scale():
    # at alpha=0.1 the stored shift is sigma/alpha, so the programmed
    # (alpha-scaled) perturbation stays sigma in device units
    p = rescale(k4_antiferromagnet(), 0.1)
    rng = np.random.default_rng(3)
    shifts = []
    for _ in range(2000):
        noisy = sample_noise(p, 0.05, rng)
        shifts.append((noisy.values - p.values) * p.alpha)
    s = np.concatenate(shifts)
    assert abs(s.std() - 0.05) < 0.003


# ---------------------------------------------------------------------------
# annealing


def test_single_spin_follows_field():
    p = IsingProblem.from_couplings(1, h={0: -1.0})
    params = SqaParams(sweeps=1000, trotter_slices=16, beta=5.0, noise_sigma=0.0, seed=1)
    ss = run_sqa(p, default_schedule(), params, 100)
    assert (ss.configs[:, 0] == 1).mean() >= 0.99


def test_classical_limit_two_spin_correlation():
    # A == 0 throughout: rings lock and the sampler is classical Metropolis
    p = IsingProblem.from_couplings(2, couplings={(0, 1): -1.0})
    params = SqaParams(sweeps=400, trotter_slices=8, beta=2.0, noise_sigma=0.0, seed=2)
    ss = run_sqa(p, flat_schedule(0.0, 1.0), params, 400)
    corr = (ss.configs[:, 0] * ss.configs[:, 1]).mean()
    exact = np.tanh(2.0)
    sigma = np.sqrt((1 - exact**2) / 400)
    assert abs(corr - exact) < 5 * sigma


def test_gibbs_distribution_at_frozen_endpoint():
    p = IsingProblem.from_couplings(2, couplings={(0, 1): -1.0})
    params = SqaParams(sweeps=1, trotter_slices=8, beta=1.0, noise_sigma=0.0, seed=3)
    samples = run_sqa_chain(
        p, default_schedule(), params, n_chains=100, n_records=1000, thin=3, burn_in=500
    )
    states = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    energies = {s: -s[0] * s[1] for s in states}
    z = sum(np.exp(-e) for e in energies.values())
    emp = {}
    for s in map(tuple, samples):
        emp[s] = emp.get(s, 0) + 1
    tv = 0.5 * sum(
        abs(emp.get(s, 0) / samples.shape[0] - np.exp(-energies[s]) / z) for s in states
    )
    assert tv < 0.02


def test_determinism_byte_identical(k4):
    params = SqaParams(sweeps=150, trotter_slices=16, beta=0.5, noise_sigma=0.0, seed=42)
    a = run_sqa(k4, default_schedule(), params, 32)
    b = run_sqa(k4, default_schedule(), params, 32)
    assert np.array_equal(a.configs, b.configs)
    assert a.problem_digest == b.problem_digest


def test_monotone_hardness_trend(k4, k4_ground_keys):
    sch = device_like_schedule()
    ps = []
    for alpha in (1.0, 0.3, 0.05):
        params = SqaParams(sweeps=800, trotter_slices=64, beta=0.1, noise_sigma=0.0, seed=9)
        ss = run_sqa(rescale(k4, alpha), sch, params, 300)
        ps.append(success_fraction(ss.configs, k4_ground_keys))
    assert ps[0] > ps[1] > ps[2]


# ---------------------------------------------------------------------------
# the programming-cycle protocol


def test_protocol_record_counts(k4):
    npr = encode_nested(k4, 2, 0.5)
    params = SqaParams(sweeps=50, trotter_slices=8, beta=0.5, noise_sigma=0.05, seed=5)
    ss = run_protocol(npr, None, default_schedule(), params, cycles=3, runs_per_cycle=7)
    assert ss.n_records == 21
    assert len(ss.cycles) == 3
    assert set(ss.cycle_ids.tolist()) == {0, 1, 2}
    # each cycle drew its own gauge and permutation
    gauges = {c.gauge.tobytes() for c in ss.cycles}
    assert len(gauges) > 1


def test_protocol_determinism(k4):
    npr = encode_nested(k4, 2, 0.5)
    params = SqaParams(sweeps=50, trotter_slices=8, beta=0.5, noise_sigma=0.05, seed=6)
    a = run_protocol(npr, None, default_schedule(), params, 2, 5)
    b = run_protocol(npr, None, default_schedule(), params, 2, 5)
    assert np.array_equal(a.configs, b.configs)
    assert all(
        np.array_equal(x.gauge, y.gauge) and np.array_equal(x.permutation, y.permutation)
        for x, y in zip(a.cycles, b.cycles)
    )


def test_protocol_with_embedding_smoke(k4):
    from nqac.chimera import build_chimera, choi_embed

    g = build_chimera(2, 2)
    npr = encode_nested(k4, 2, 0.5)
    emb = choi_embed(8, g)
    params = SqaParams(sweeps=40, trotter_slices=8, beta=0.5, noise_sigma=0.02, seed=8)
    ss = run_protocol(npr, emb, default_schedule(), params, 2, 4, graph=g)
    assert ss.n_records == 8
    assert ss.n_spins == g.total_qubits


def test_zero_problem_samples_uniformly(k4, k4_ground_keys):
    # zero couplings: the final distribution is uniform, so the decoded
    # logical ground-state frequency is 6/16
    zero = IsingProblem.from_couplings(4, couplings={(i, j): 0.0 for i in range(4) for j in range(i + 1, 4)})
    params = SqaParams(sweeps=200, trotter_slices=8, beta=0.5, noise_sigma=0.0, seed=14)
    ss = run_sqa(zero, default_schedule(), params, 4000)
    p_hat = success_fraction(ss.configs, k4_ground_keys)
    sigma = np.sqrt((6 / 16) * (10 / 16) / 4000)
    assert abs(p_hat - 6 / 16) < 5 * sigma


def test_embedded_solver_and_estimate(k4, k4_ground):
    # anneal the embedded K4 at full scale and decode through the chains
    from nqac.analysis import estimate_success
    from nqac.chimera import build_chimera, choi_embed

    _, gs = k4_ground
    g = build_chimera(8, 8)
    # at full problem scale the chains need a penalty above the coupling
    # scale to stay bound (optimal penalties grow with alpha); at C=1 the
    # nesting penalty binds only the chains
    npr = encode_nested(k4, 1, 2.0)
    emb = choi_embed(4, g)
    params = SqaParams(sweeps=3000, trotter_slices=64, beta=0.1, noise_sigma=0.0, seed=15)
    ss = run_protocol(npr, emb, device_like_schedule(), params, 2, 50, graph=g)
    P, se = estimate_success(ss, npr, emb, gs)
    assert P >= 0.9, (P, se)
