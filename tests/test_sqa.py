import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from nqac import sqa
from nqac.chimera import build_chimera, choi_embed
from nqac.errors import DomainError, InvalidEmbedding, ScheduleError
from nqac.instances import k4_antiferromagnet, load_instance
from nqac.ising import IsingProblem, rescale
from nqac.nesting import encode_for_scale, encode_nested
from nqac.sampleset import save_sampleset
from nqac.sqa import (
    Schedule,
    SqaParams,
    STACK_RING_WORDS,
    _anneal_batch,
    _anneal_stack,
    _breaks,
    _Stack,
    _sweep,
    default_schedule,
    device_like_schedule,
    run_protocol,
    run_sqa,
    run_sqa_chain,
    sample_noise,
    stack_size,
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
    rows = [f"{s:.17g},{a:.17g},{b:.17g}" for s, a, b in zip(sch.s, sch.A, sch.B)]
    again = Schedule.from_csv("s,A,B\n" + "\n".join(rows) + "\n")
    for got, want in ((again.s, sch.s), (again.A, sch.A), (again.B, sch.B)):
        assert np.array_equal(got, want)


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
        SqaParams(trotter_slices=65)
    with pytest.raises(DomainError):
        SqaParams(sweeps=0)
    with pytest.raises(DomainError):
        SqaParams(beta=0.0)


# ---------------------------------------------------------------------------
# coupler noise


def test_negative_noise_sigma_rejected(k4):
    with pytest.raises(DomainError):
        sample_noise(k4, -0.1, np.random.default_rng(0))


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
    params = SqaParams(sweeps=1000, trotter_slices=16, beta=5.0)
    ss = run_sqa(p, default_schedule(), params, 100, seed=1)
    assert (ss.configs[:, 0] == 1).mean() >= 0.99


def test_classical_limit_two_spin_correlation():
    # A == 0 throughout: rings lock and the sampler is classical Metropolis
    p = IsingProblem.from_couplings(2, couplings={(0, 1): -1.0})
    params = SqaParams(sweeps=400, trotter_slices=8, beta=2.0)
    ss = run_sqa(p, flat_schedule(0.0, 1.0), params, 400, seed=2)
    corr = (ss.configs[:, 0] * ss.configs[:, 1]).mean()
    exact = np.tanh(2.0)
    sigma = np.sqrt((1 - exact**2) / 400)
    assert abs(corr - exact) < 5 * sigma


def test_gibbs_distribution_at_frozen_endpoint():
    p = IsingProblem.from_couplings(2, couplings={(0, 1): -1.0})
    params = SqaParams(sweeps=500, trotter_slices=8, beta=1.0)
    samples = run_sqa_chain(
        p, default_schedule(), params, n_chains=100, n_records=1000, seed=3, thin=3
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


def test_trotter_marginal_with_breaking_bonds():
    # at s = 0.5 of the linear schedule the bonds break with probability
    # q = tanh(beta A / K) = tanh(0.25) = 0.245; slice 0 of the chain must
    # follow the marginal of the 2^8 Trotter configurations, weighted by
    # exp(-(beta / K) B sum_k E(s_k) + Kperp sum_k s_k . s_{k+1}), with
    # Kperp = -ln tanh(beta A / K) / 2 per spin and bond
    p = IsingProblem.from_couplings(2, couplings={(0, 1): -1.0}, h={0: 0.3})
    K, beta = 4, 2.0
    sch = default_schedule()
    A, B = sch.a_of(0.5), sch.b_of(0.5)
    kperp = -0.5 * np.log(np.tanh(beta * A / K))
    marginal = {}
    for bits in range(2 ** (2 * K)):
        s = np.array([1 - 2 * ((bits >> b) & 1) for b in range(2 * K)]).reshape(2, K)
        energy = sum(-s[0, k] * s[1, k] + 0.3 * s[0, k] for k in range(K))
        ring = (s * np.roll(s, -1, axis=1)).sum()
        w = np.exp(-beta / K * B * energy + kperp * ring)
        marginal[tuple(s[:, 0])] = marginal.get(tuple(s[:, 0]), 0.0) + w
    z = sum(marginal.values())
    params = SqaParams(sweeps=500, trotter_slices=K, beta=beta)
    samples = run_sqa_chain(p, sch, params, n_chains=100, n_records=1000, seed=3, thin=3,
                            s_freeze=0.5)
    emp = {}
    for st in map(tuple, samples):
        emp[st] = emp.get(st, 0) + 1
    tv = 0.5 * sum(abs(emp.get(st, 0) / samples.shape[0] - w / z) for st, w in marginal.items())
    assert tv < 0.01, tv


def test_determinism_byte_identical(k4):
    params = SqaParams(sweeps=150, trotter_slices=16, beta=0.5)
    a = run_sqa(k4, default_schedule(), params, 32, seed=42)
    b = run_sqa(k4, default_schedule(), params, 32, seed=42)
    assert np.array_equal(a.configs, b.configs)
    assert a.problem_digest == b.problem_digest


def test_units_of_mixed_degree_sweep_as_they_do_alone():
    # units whose sites differ in degree form one group per degree in a
    # level; every unit's rings end as they do when it is swept alone, fields
    # and an isolated site (5 in unit 0) included
    rng = np.random.default_rng(3)
    probs = []
    for u, density in enumerate((0.3, 0.6, 0.9)):
        couplings = {(i, j): rng.normal() for i in range(10) for j in range(i + 1, 10)
                     if (u or 5 not in (i, j)) and rng.random() < density}
        probs.append(IsingProblem.from_couplings(10, couplings=couplings,
                                                 h=rng.normal(size=10) * (u != 1)))
    rngs = [np.random.default_rng(7 + u) for u in range(3)]
    S = _Stack(probs, 8, 16, rngs)
    assert any(len(groups) > 1 for groups, *_ in S.levels)
    for _ in range(20):
        _sweep(S, 0.4, np.array([0.3, 0.2, 0.5]), rngs)
    for u, p in enumerate(probs):
        rngs = [np.random.default_rng(7 + u)]
        alone = _Stack([p], 8, 16, rngs)
        for _ in range(20):
            _sweep(alone, 0.4, np.array([(0.3, 0.2, 0.5)[u]]), rngs)
        assert np.array_equal(S.bits[:, u], alone.bits[:, 0])


def _steady_state_peak(K, emb):
    """The most a second sweep of four 1000-anneal units of noisy nested K4
    at C = 3, compiled through ``emb`` if given, holds in new allocations at
    once, and the stack."""
    U, batch = 4, 1000
    k4 = k4_antiferromagnet()
    probs = [sqa._program_cycle(encode_for_scale(k4, 3, 0.5, 0.1), emb, 0.05, 7, c)[0]
             for c in range(U)]
    rngs = [np.random.default_rng(u) for u in range(U)]
    S = _Stack(probs, K, batch, rngs)
    q = math.tanh(0.1 * device_like_schedule().a_of(0.0) / K)
    coup_scale = np.full(U, 0.01)
    _sweep(S, q, coup_scale, rngs)
    tracemalloc.start()
    try:
        _sweep(S, q, coup_scale, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, S


@pytest.mark.parametrize("K", [8, 64])
def test_steady_state_sweep_allocates_no_stack_array(K):
    # after one warm-up sweep, a stack of four 1000-anneal units of noisy
    # nested K4 at C = 3 (n = 12, a field on every site) sweeps in its own
    # work arrays: the most it holds in new allocations at once stays below
    # one (n, U, batch) float64 array. NumPy reports its data buffers to
    # tracemalloc. q is the largest the device schedule reaches at beta 0.1;
    # what is left are the break chunks, which scale with the breaks drawn.
    peak, S = _steady_state_peak(K, None)
    n, U, batch = S.bits.shape
    assert n == 12 and S.h is not None
    assert peak < n * U * batch * 8, peak


@pytest.mark.parametrize("K", [8, 64])
def test_steady_state_embedded_sweep_allocates_no_stack_array(K):
    # the same for the choi embedding of those units (48 chain qubits),
    # whose levels gather their rows and write their rings back
    peak, S = _steady_state_peak(K, choi_embed(12, build_chimera(8, 8)))
    n, U, batch = S.bits.shape
    assert n == 48 and S.h is not None
    assert all(accept_at is not None for _, _, accept_at, *_ in S.levels)
    assert peak < n * U * batch * 8, peak


def _level_sites(S):
    """The sites of each of ``S``'s levels, in sweep order."""
    U = S.bits.shape[1]
    return [np.unique(rows // U).tolist() for _, rows, *_ in S.levels]


def _coupled(problems):
    """Every (j, i), j < i, coupled in some unit."""
    return {(int(j), int(i)) for p in problems for j, i in p.pairs}


def _embedded_k4(C, K, batch, units=3):
    k4 = k4_antiferromagnet()
    emb = choi_embed(4 * C, build_chimera(8, 8))
    probs = [sqa._program_cycle(encode_for_scale(k4, C, 0.5, a), emb, 0.05, 17, c)[0]
             for c, a in enumerate((0.1, 0.4, 1.0)[:units])]
    rngs = [np.random.default_rng(50 + u) for u in range(units)]
    return _Stack(probs, K, batch, rngs), probs, rngs


def _level_cases():
    rng = np.random.default_rng(4)
    mixed = [IsingProblem.from_couplings(
        9, couplings={(i, j): 1.0 for i in range(9) for j in range(i + 1, 9)
                      if rng.random() < density}) for density in (0.2, 0.5)]
    return {
        "choi_k4_c3": _embedded_k4(3, 8, 4)[1],
        "choi_k4_c1": _embedded_k4(1, 8, 4)[1],
        "mixed": mixed,
        "uncoupled": [IsingProblem.from_couplings(5, couplings={})],
        "empty": [IsingProblem.from_couplings(0)],
    }


@pytest.mark.parametrize("case", ["choi_k4_c3", "choi_k4_c1", "mixed", "uncoupled", "empty"])
def test_levels_are_uncoupled_and_topologically_ordered(case):
    # every site is in one level, with the rows of all units; no two sites
    # of a level are coupled in any unit, and a site's lower coupled
    # neighbours are in earlier levels
    probs = _level_cases()[case]
    U = len(probs)
    rngs = [np.random.default_rng(u) for u in range(U)]
    S = _Stack(probs, 8, 4, rngs)
    sites = _level_sites(S)
    where = {i: k for k, level in enumerate(sites) for i in level}
    assert sorted(where) == list(range(probs[0].n))
    assert all(where[j] < where[i] for j, i in _coupled(probs))
    assert all(rows.size == U * len(level) for (_, rows, *_), level in zip(S.levels, sites))
    _sweep(S, 0.1, np.full(U, 0.2), rngs)


def test_levels_of_embedded_k4_are_few():
    # chain-qubit index order: the choi K4 stacks sweep in 2, 4 and 6 levels
    assert [len(_level_sites(_embedded_k4(C, 8, 4)[0])) for C in (1, 2, 3)] == [2, 4, 6]


def test_complete_graph_sweeps_a_site_per_level_in_index_order():
    # nested K4 at C = 3 couples every pair: twelve one-site levels, each a
    # view of its site's rows
    k4 = k4_antiferromagnet()
    probs = [encode_for_scale(k4, 3, 0.5, a).nested for a in (0.1, 1.0)]
    S = _Stack(probs, 8, 4, [np.random.default_rng(u) for u in range(2)])
    assert _level_sites(S) == [[i] for i in range(12)]
    assert all(accept_at is None and np.shares_memory(rings, S.bits)
               for _, _, accept_at, rings, *_ in S.levels)


# final rings of a choi-embedded noisy K4 C = 3 stack (three units, sixteen
# anneals each, ten sweeps of the device schedule); as the index-order sweep
# left them
PINNED_EMBEDDED = {
    8: "f308e7da4bfd081cc406fa11586948094b402b309bc4988a1b1d3b839070817a",
    64: "41ca28dae7b3cf4ca0f68ce1a9c9daf8eeb70cb7178b1d443d8591e45da15b70",
}


@pytest.mark.parametrize("K", [8, 64])
def test_embedded_stack_rings_are_pinned(K):
    S, _, rngs = _embedded_k4(3, K, 16)
    # sites of several degrees share a level, so a level holds several groups
    assert any(len(groups) > 1 for groups, *_ in S.levels)
    dev = device_like_schedule()
    for t in range(1, 11):
        q = math.tanh(0.1 * dev.a_of(t / 10) / K)
        _sweep(S, q, 0.1 * dev.b_of(t / 10) * S.alpha / K, rngs)
    assert _sha(S.bits) == PINNED_EMBEDDED[K]


def _buffer_runs():
    # stacks of two sizes and a Gibbs chain, each small
    k4 = k4_antiferromagnet()
    sch = device_like_schedule()
    params = SqaParams(sweeps=3, trotter_slices=8)

    def stack(C):
        units = [(encode_for_scale(k4, C, 0.5, a), 40 + C, c)
                 for c, a in enumerate((0.1, 1.0))]
        return b"".join(c.tobytes() for c, _ in _anneal_stack(units, None, sch, params, 0.05, 50))

    return {
        "n12": lambda: stack(3),
        "n4": lambda: stack(1),
        "chain": lambda: run_sqa_chain(encode_for_scale(k4, 2, 0.5, 0.3).nested, sch, params,
                                       n_chains=16, n_records=3, seed=5, thin=2).tobytes(),
    }


def test_work_arrays_carry_nothing_between_stacks():
    # stacks of different n and a Gibbs chain, run one after another in this
    # process, and then the first again: the rerun equals its first run
    runs = _buffer_runs()
    first = {name: hashlib.sha256(run()).hexdigest() for name, run in runs.items()}
    assert hashlib.sha256(runs["n12"]()).hexdigest() == first["n12"]


def test_results_do_not_alias_work_arrays():
    # what a sweep's caller keeps is its own: slice 0 and an anneal's configs
    # share no memory with the stack's state or work arrays, and a second
    # anneal leaves the first one's configs as they were
    k4 = k4_antiferromagnet()
    p = encode_for_scale(k4, 2, 0.5, 0.3).nested
    rngs = [np.random.default_rng(9)]
    S = _Stack([p], 8, 20, rngs)
    _sweep(S, 0.05, np.array([0.2]), rngs)
    kept = S.slice0()
    owned = [S.bits, S.breaks, S.seeds, S.accept, S.base, S.words, S.flags, S.field]
    assert not any(np.shares_memory(kept, a) for a in owned if a is not None)
    params = SqaParams(sweeps=3, trotter_slices=8)
    first = _anneal_batch([p], device_like_schedule(), params, 20, [np.random.default_rng(1)])
    want = first.copy()
    _anneal_batch([p], device_like_schedule(), params, 20, [np.random.default_rng(2)])
    assert np.array_equal(first, want)


def _loop_breaks(N, q, rng):
    """The broken bonds of one unit's sweep, drawn one gap at a time: chunks
    of min(int(N q + 4 sqrt(N q) + 16), 2^14) exponentials E, each giving the gap
    1 + floor(min(E / lambda, N)) to the next break, lambda = -log1p(-q),
    until the gaps reach N; no draw at q = 0."""
    broken = set()
    if q == 0.0:
        return broken
    lam = math.inf if q == 1.0 else -math.log1p(-q)
    M = min(int(N * q + 4.0 * math.sqrt(N * q) + 16), 2**14)
    end = 0
    while end < N:
        for e in rng.standard_exponential(M):
            end += 1 + math.floor(min(e / lam, N))
            if end <= N:
                broken.add(end - 1)
    return broken


def _loop_sweep(S, J, h, q, coup_scale, rng):
    """Reference sweep, one ring at a time: the same draws, the cluster grown
    from the seed slice along active bonds, the same Metropolis test."""
    n, K, Bn = S.shape
    broken = _loop_breaks(n * Bn * K, q, rng)
    seeds = rng.integers(0, K, size=(n, Bn))
    accept_u = rng.random((n, Bn))
    for i in range(n):
        X = np.tensordot(J[i], S, axes=(0, 0)) + h[i]
        for b in range(Bn):
            s = S[i, :, b]
            active = [s[k] == s[(k + 1) % K] and (i * Bn + b) * K + k not in broken
                      for k in range(K)]
            cluster = {int(seeds[i, b])}
            for step in (1, -1):
                k = int(seeds[i, b])
                while active[k if step == 1 else (k - 1) % K] and (k + step) % K not in cluster:
                    k = (k + step) % K
                    cluster.add(k)
            dE = -2.0 * coup_scale * sum(s[k] * X[k, b] for k in sorted(cluster))
            if accept_u[i, b] < np.exp(-np.clip(dE, -700.0, 700.0)):
                S[i, sorted(cluster), b] *= -1


def _slices(S):
    """Unit 0's rings as +-1 slices (n, K, batch), from the bit state."""
    k = np.arange(S.K, dtype=np.uint64)[:, None]
    return 1.0 - 2.0 * ((S.bits[:, None, 0].astype(np.uint64) >> k) & 1)


@pytest.mark.parametrize("K, p_bond", [
    (2, 0.7), (3, 0.5), (7, 0.6), (8, 0.9), (8, 1.0), (9, 0.8), (16, 0.85), (17, 0.5),
    (32, 0.9), (33, 0.7), (63, 0.8), (64, 0.8)])
def test_sweep_matches_loop_reference(K, p_bond):
    # a bond breaks with probability q = 1 - p_bond; couplings and fields are
    # multiples of 1/8, so every local field and cluster energy is exact and
    # the two sweeps take the same decisions; K runs across every word size
    # and in-word boundary of the ring layout
    q = 1.0 - p_bond
    rng = np.random.default_rng(K)
    J = rng.integers(-8, 9, size=(6, 6)) / 8
    J = np.triu(J, 1) + np.triu(J, 1).T
    h = rng.integers(-8, 9, 6) / 8
    p = IsingProblem.from_couplings(
        6, couplings={(i, j): J[i, j] for i in range(6) for j in range(i + 1, 6)}, h=h)
    S = _Stack([p], K, 5, [np.random.default_rng(1)])
    want = _slices(S)
    fast, slow = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(4):
        _sweep(S, q, np.array([0.3]), [fast])
        _loop_sweep(want, J, h, q, 0.3, slow)
    assert np.array_equal(_slices(S), want)
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("N, q", [(1, 0.5), (40, 1.0), (1000, 1e-300), (100_000, 0.3),
                                  (60_000, 0.9), (50_000, 0.0), (2**14 + 5, 1.0)])
def test_breaks_match_the_scalar_gap_draws(N, q):
    # the chunked draws, several chunks from N q > 2^14 on, give the scalar
    # reference's breaks and leave the generator where it leaves it
    fast, slow = np.random.default_rng(9), np.random.default_rng(9)
    chunks = list(_breaks(N, q, fast))
    got = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    assert got.tolist() == sorted(_loop_breaks(N, q, slow))
    assert fast.bit_generator.state == slow.bit_generator.state


def _break_bits(K, q, rings, seed):
    """The break words of ``rings`` rings of K slices drawn at q, as bits
    (rings, 64), with the words' dtype."""
    S = _Stack([IsingProblem.from_couplings(1, couplings={})], K, rings,
               [np.random.default_rng(0)])
    words = np.zeros(rings, S.bits.dtype)
    for pos in _breaks(rings * K, q, np.random.default_rng(seed)):
        S.add_breaks(words, pos)
    k = np.arange(64, dtype=np.uint64)
    return (words.astype(np.uint64)[:, None] >> k) & 1, S.bits.dtype


@pytest.mark.parametrize("K", [3, 8, 9, 16, 33, 64])
def test_bond_words_pack_the_bond_draws(K):
    # every bond breaks with probability q, independently: each slice's break
    # frequency is within 5 sigma of q and the breaks per ring follow
    # Binomial(K, q); the words are as narrow as the ring layout and no bit
    # past slice K - 1 is set
    from scipy.stats import binom, chi2

    rings = 20_000
    for i, q in enumerate((0.003, 0.023, 0.3, 0.9)):
        bits, dtype = _break_bits(K, q, rings, seed=10 * K + i)
        assert dtype.itemsize * 8 >= K
        assert not bits[:, K:].any()
        freq = bits[:, :K].mean(axis=0)
        assert np.all(np.abs(freq - q) < 5 * np.sqrt(q * (1 - q) / rings)), (q, freq)
        # chi-square over counts of breaks per ring, tails pooled to >= 5 expected
        observed = np.bincount(bits.sum(axis=1), minlength=K + 1).astype(float)
        expected = rings * binom.pmf(np.arange(K + 1), K, q)
        keep = np.flatnonzero(expected >= 5)
        lo, hi = keep[0], keep[-1]
        obs = np.r_[observed[:lo + 1].sum(), observed[lo + 1:hi], observed[hi:].sum()]
        exp = np.r_[expected[:lo + 1].sum(), expected[lo + 1:hi], expected[hi:].sum()]
        stat = ((obs - exp) ** 2 / exp).sum()
        assert chi2.sf(stat, obs.size - 1) > 1e-3, (q, stat, obs.size)


def test_break_draw_edge_cases():
    # q = 0 draws nothing; q = 1 breaks every bond; q = 1e-300 clips the gap
    # before the integer cast instead of overflowing (warnings are errors)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert not list(_breaks(12_000, 0.0, rng))
    assert rng.bit_generator.state == state
    for K in (8, 64):
        bits, _ = _break_bits(K, 1.0, 50, seed=K)
        assert bits[:, :K].all() and not bits[:, K:].any()
        bits, _ = _break_bits(K, 1e-300, 50, seed=K)
        assert not bits.any()
    assert [pos.size for pos in _breaks(10, 1e-300, rng)] == [0]
    # a sweep at q = 0 draws only its seed slices and acceptance uniforms
    p = IsingProblem.from_couplings(3, couplings={(0, 1): -1.0, (1, 2): 0.5})
    S = _Stack([p], 8, 4, [np.random.default_rng(1)])
    rng, want = np.random.default_rng(2), np.random.default_rng(2)
    _sweep(S, 0.0, np.array([0.3]), [rng])
    want.integers(0, 8, size=(3, 4))
    want.random((3, 4))
    assert rng.bit_generator.state == want.bit_generator.state


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# digests of the outputs of the geometric-gap stream; the scalar loop
# reference (``_loop_sweep``) annealing on the same draws gives the same
# digests for every anneal (not chain) entry and for the stacked pin
PINNED_SQA = {
    "c3_k8": "35adaf0b5a8fb112fd408f7be764a488260b9507971973b6d10c01a1d3f0d851",
    "c3_k8_chain": "63672c5b687cd851da66695788995bf16f2f21e50290294809668965ff94ac76",
    "c2_k64": "49c70b1d796eb0b86806e5503de4c8681d7fd8c530f1db87ef02ce581080c0a6",
    "c2_k64_chain": "d05bf3bbe868c37030cc4011ce0dc54075f12090f9c2e4d06a51c9976f7495f3",
    "sparse_k8": "4760c8cc1171100b4ccd3314fc598d11ca7c8859caaa478478e8292c6b657924",
    "sparse_k8_chain": "3c8df7b8cad146f619a3ef8058bfb3e1174f6f6ab018daa05d8e08b21a97154a",
}


def test_sqa_stream_is_pinned(k4):
    # final states hashed on shapes that reach both field paths, at K = 8 and
    # 64; a change to the draws, their order or the cluster rule changes a
    # digest
    dev = device_like_schedule()
    noisy = sample_noise(encode_for_scale(k4, 3, 0.5, 0.1).nested, 0.05, np.random.default_rng(11))
    k4c2 = encode_for_scale(k4, 2, 0.5, 0.3).nested
    rng = np.random.default_rng(12)
    ring = {(i, (i + 1) % 140): rng.normal() for i in range(140)}
    ring.update({(i, (i + 37) % 140): rng.normal() for i in range(0, 140, 3)})
    sparse = IsingProblem.from_couplings(140, couplings=ring, h=rng.normal(size=140) / 2)

    def anneal(p, sch, sweeps, K, batch, seed):
        params = SqaParams(sweeps=sweeps, trotter_slices=K)
        return _anneal_batch([p], sch, params, batch, [np.random.default_rng(seed)])[0]

    def chain(p, sch, K, seed):
        params = SqaParams(sweeps=3, trotter_slices=K)
        return run_sqa_chain(p, sch, params, n_chains=8, n_records=5, seed=seed, thin=2,
                             s_freeze=0.5)

    got = {
        "c3_k8": _sha(anneal(noisy, dev, 25, 8, 64, 1)),
        "c3_k8_chain": _sha(chain(noisy, dev, 8, 2)),
        "c2_k64": _sha(anneal(k4c2, dev, 20, 64, 16, 3)),
        "c2_k64_chain": _sha(chain(k4c2, dev, 64, 4)),
        "sparse_k8": _sha(anneal(sparse, dev, 5, 8, 8, 5)),
        "sparse_k8_chain": _sha(chain(sparse, dev, 8, 6)),
    }
    assert got == PINNED_SQA


def test_stacked_anneal_is_pinned():
    # one stacked call over three units with their own alphas and streams;
    # unit 1 carries noise, so a field on every site, beside two units without
    # fields. The digest is that of the three units annealed one at a time,
    # concatenated; the scalar loop reference gives it too.
    k8 = load_instance("k8_harder")
    probs = [encode_for_scale(k8, 2, 0.4, a).nested for a in (0.1, 0.5, 1.0)]
    probs[1] = sample_noise(probs[1], 0.05, np.random.default_rng(21))
    params = SqaParams(sweeps=15, trotter_slices=16)
    got = _anneal_batch(probs, device_like_schedule(), params, 12,
                        [np.random.default_rng(31 + u) for u in range(3)])
    assert got.shape == (3, 12, 16)
    assert _sha(got) == "48e583aa32fc0fc8550fb04c696f836d0697301f8be26d8343c8f3723b4005c3"


def _stack_cases():
    k8 = load_instance("k8_harder")
    dev = device_like_schedule()
    # noise puts a field on every site of k8_harder's programmed problems
    fields = [(encode_for_scale(k8, 2, g, a), 100 + i, c)
              for i, (a, g, c) in enumerate([(0.2, 0.3, 0), (1.0, 0.3, 1), (0.2, 0.6, 3),
                                             (0.5, 0.6, 0)])]
    sparse = [(encode_for_scale(k8, 3, g, a), 200 + i, c)
              for i, (a, g, c) in enumerate([(0.3, 0.5, 0), (1.0, 0.8, 2)])]
    return {
        "fields": (fields, None, dev, SqaParams(sweeps=6, trotter_slices=8), 7),
        # choi-embedded K8 at C = 3 compiles to 168 chain qubits: the sparse path
        "sparse": (sparse, choi_embed(24, build_chimera(8, 8)), dev,
                   SqaParams(sweeps=2, trotter_slices=8), 4),
        "one": (fields[:1], None, dev, SqaParams(sweeps=6, trotter_slices=8), 5),
    }


@pytest.mark.parametrize("case", ["fields", "sparse", "one"])
def test_stacked_cycles_equal_per_unit_cycles(case):
    # a stack mixing alphas, gammas and cycles gives every unit the configs
    # and record it gets annealed alone
    units, emb, sch, params, runs = _stack_cases()[case]
    if case == "sparse":
        assert emb.graph is not None and sum(map(len, emb.chains.values())) == 168
    stacked = _anneal_stack(units, emb, sch, params, 0.05, runs)
    alone = [_anneal_stack([u], emb, sch, params, 0.05, runs)[0] for u in units]
    assert len(stacked) == len(units)
    for (configs, rec), (want, want_rec) in zip(stacked, alone):
        assert configs.dtype == np.int8 and configs.tobytes() == want.tobytes()
        assert (rec.cycle, rec.seed) == (want_rec.cycle, want_rec.seed)
        assert np.array_equal(rec.gauge, want_rec.gauge)
        assert np.array_equal(rec.permutation, want_rec.permutation)


@pytest.mark.parametrize("K", [8, 64])
def test_stacked_large_batches_equal_units_alone(K):
    # the rule stacks batches of 1000 anneals, one ring word each; each unit
    # of such a stack gives what it gives alone
    assert stack_size(1000) >= 3
    k4 = k4_antiferromagnet()
    units = [(encode_for_scale(k4, 3, g, a), 400 + i, i)
             for i, (a, g) in enumerate([(0.01, 0.2), (0.1, 0.5), (1.0, 0.5)])]
    params = SqaParams(sweeps=2, trotter_slices=K)
    stacked = _anneal_stack(units, None, device_like_schedule(), params, 0.05, 1000)
    for u, (configs, rec) in zip(units, stacked):
        [(want, want_rec)] = _anneal_stack([u], None, device_like_schedule(), params, 0.05, 1000)
        assert configs.tobytes() == want.tobytes() and rec.seed == want_rec.seed


def test_stack_size_caps_ring_words():
    assert STACK_RING_WORDS == 2**12
    assert stack_size(1000) == 4  # 4 x 1000 ring words
    assert stack_size(32) == 128
    assert stack_size(10_000) == 1


def test_monotone_hardness_trend(k4, k4_ground_keys):
    sch = device_like_schedule()
    ps = []
    for alpha in (1.0, 0.3, 0.05):
        params = SqaParams(sweeps=800, trotter_slices=64, beta=0.1)
        ss = run_sqa(rescale(k4, alpha), sch, params, 300, seed=9)
        ps.append(success_fraction(ss.configs, k4_ground_keys))
    assert ps[0] > ps[1] > ps[2]


# ---------------------------------------------------------------------------
# the programming-cycle protocol


def test_protocol_record_counts(k4):
    npr = encode_nested(k4, 2, 0.5)
    params = SqaParams(sweeps=50, trotter_slices=8, beta=0.5)
    [ss] = run_protocol([(npr, None, 5)], default_schedule(), params, 0.05, cycles=3,
                        runs_per_cycle=7)
    assert ss.n_records == 21
    assert len(ss.cycles) == 3
    assert set(ss.cycle_ids.tolist()) == {0, 1, 2}
    # each cycle drew its own gauge and permutation
    gauges = {c.gauge.tobytes() for c in ss.cycles}
    assert len(gauges) > 1


def test_protocol_determinism(k4):
    npr = encode_nested(k4, 2, 0.5)
    params = SqaParams(sweeps=50, trotter_slices=8, beta=0.5)
    [a] = run_protocol([(npr, None, 6)], default_schedule(), params, 0.05, 2, 5)
    [b] = run_protocol([(npr, None, 6)], default_schedule(), params, 0.05, 2, 5)
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
    params = SqaParams(sweeps=40, trotter_slices=8, beta=0.5)
    [ss] = run_protocol([(npr, emb, 8)], default_schedule(), params, 0.02, 2, 4)
    assert ss.n_records == 8
    assert ss.n_spins == len(emb.qubits)


@pytest.mark.parametrize("chains", [
    {v: [v] for v in range(4)},  # no chain for nested vertices 4..7
    {0: [0], 1: [4], 2: [1], 3: [5], 4: [2], 5: [6], 6: [3], 7: [7]},  # K_{4,4}, not K8
], ids=["missing-chains", "sparse"])
def test_protocol_with_uncovering_embedding_raises(k4, chains):
    from nqac.chimera import Embedding, build_chimera

    emb = Embedding(chains=chains, graph=build_chimera(1, 1))
    npr = encode_nested(k4, 2, 0.5)
    params = SqaParams(sweeps=5, trotter_slices=4, beta=0.5)
    with pytest.raises(InvalidEmbedding):
        run_protocol([(npr, emb, 9)], default_schedule(), params, 0.0, 1, 2)


def _mixed_points():
    # C = 1 and 2, unembedded and choi-embedded, ordered so that neighbours
    # differ in size, in embedding, or in neither
    k4 = k4_antiferromagnet()
    graph = build_chimera(4, 4)
    embs = {C: choi_embed(4 * C, graph) for C in (1, 2)}
    grid = [(1, 0.2, False), (1, 1.0, False), (2, 0.2, False), (2, 0.5, True), (2, 1.0, True),
            (1, 0.5, True), (1, 0.3, False)]
    return [(encode_for_scale(k4, C, 0.4, alpha), embs[C] if embedded else None, 700 + i)
            for i, (C, alpha, embedded) in enumerate(grid)]


@pytest.mark.parametrize("jobs, ring_words, n_stacks", [
    (1, STACK_RING_WORDS, 5),  # one stack per run of equal size and embedding
    (2, STACK_RING_WORDS, None),
    (1, 12, 12),  # stacks of two units
    (2, 12, None),
])
def test_one_protocol_call_equals_a_call_per_point(tmp_path, monkeypatch, jobs, ring_words,
                                                   n_stacks):
    points = _mixed_points()
    params = SqaParams(sweeps=4, trotter_slices=8)
    sch = device_like_schedule()
    alone = [run_protocol([pt], sch, params, 0.05, 3, 5)[0] for pt in points]
    monkeypatch.setattr(sqa, "STACK_RING_WORDS", ring_words)
    stacks = []
    if jobs == 1:  # a spy does not reach worker processes
        anneal = sqa._anneal_stack

        def spy(units, emb, **kwargs):
            stacks.append({np_prob.n_nested for np_prob, _, _ in units})
            return anneal(units, emb, **kwargs)

        monkeypatch.setattr(sqa, "_anneal_stack", spy)
    together = run_protocol(points, sch, params, 0.05, 3, 5, jobs=jobs)
    if jobs == 1:
        assert len(stacks) == n_stacks and all(len(sizes) == 1 for sizes in stacks)
    assert len(together) == len(alone)
    for i, (got, want) in enumerate(zip(together, alone)):
        assert got.configs.tobytes() == want.configs.tobytes()
        assert got.cycle_ids.tolist() == want.cycle_ids.tolist()
        assert [(c.cycle, c.seed, c.gauge.tolist(), c.permutation.tolist()) for c in got.cycles] \
            == [(c.cycle, c.seed, c.gauge.tolist(), c.permutation.tolist()) for c in want.cycles]
        save_sampleset(got, tmp_path / f"got{i}.ndjson")
        save_sampleset(want, tmp_path / f"want{i}.ndjson")
        assert (tmp_path / f"got{i}.ndjson").read_bytes() == \
            (tmp_path / f"want{i}.ndjson").read_bytes()


def test_zero_problem_samples_uniformly(k4, k4_ground_keys):
    # zero couplings: the final distribution is uniform, so the decoded
    # logical ground-state frequency is 6/16
    zero = IsingProblem.from_couplings(4, couplings={(i, j): 0.0 for i in range(4) for j in range(i + 1, 4)})
    params = SqaParams(sweeps=200, trotter_slices=8, beta=0.5)
    ss = run_sqa(zero, default_schedule(), params, 4000, seed=14)
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
    params = SqaParams(sweeps=3000, trotter_slices=64, beta=0.1)
    [ss] = run_protocol([(npr, emb, 15)], device_like_schedule(), params, 0.0, 2, 50)
    P, se = estimate_success(ss, npr, emb, gs)
    assert P >= 0.9, (P, se)
