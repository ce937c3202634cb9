import hashlib

import numpy as np
import pytest

from nqac.analysis import success
from nqac.errors import DomainError
from nqac.instances import k4_antiferromagnet
from nqac.ising import IsingProblem
from nqac.nesting import encode_for_scale
from nqac.pt import (
    PtParams,
    _dense_rows,
    _pt_sample,
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
    params = PtParams(betas=(0.5, 1.0, 2.0), sweeps=2000, swap_interval=5)
    out = run_pt(p, params, 4000, seed=11)
    m = out[2.0].configs.mean()
    exact = np.tanh(2.0)
    sigma = np.sqrt((1 - exact**2) / 4000)
    assert abs(m - exact) < 5 * sigma


def test_free_spin_is_sampled():
    # spin 1 has no coupler and no field: its thermal mean is 0 at every beta
    p = IsingProblem.from_couplings(2, h={0: -1.0})
    params = PtParams(betas=(0.5, 1.0, 2.0), sweeps=2000, swap_interval=5)
    configs = run_pt(p, params, 2000, seed=1)[2.0].configs
    assert abs(configs[:, 1].mean()) < 5 / np.sqrt(2000)
    exact = np.tanh(2.0)
    assert abs(configs[:, 0].mean() - exact) < 5 * np.sqrt((1 - exact**2) / 2000)


def test_two_spin_gibbs_tv():
    p = IsingProblem.from_couplings(2, couplings={(0, 1): -1.0})
    params = PtParams(betas=(0.3, 0.6, 1.0), sweeps=4000, swap_interval=5)
    out = run_pt(p, params, 5000, seed=12)
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
    params = PtParams(betas=(1e-9, 0.5, 1.0), sweeps=4000, swap_interval=5)
    out = run_pt(p, params, 5000, seed=13)
    ss = out[1e-9]
    counts = {}
    for s in map(tuple, ss.configs):
        counts[s] = counts.get(s, 0) + 1
    tv = 0.5 * sum(abs(c / ss.n_records - 0.25) for c in counts.values())
    assert tv < 0.02


def test_determinism():
    p = k4_antiferromagnet()
    params = PtParams(betas=(0.5, 1.0), sweeps=500, swap_interval=5)
    a = run_pt(p, params, 40, seed=3)
    b = run_pt(p, params, 40, seed=3)
    for beta in params.betas:
        assert np.array_equal(a[beta].configs, b[beta].configs)


def test_pt_sample_stream_is_pinned(k4):
    # the records of a two-gamma-block K4 batch, hashed; a change to the
    # random stream or the acceptance rule changes the digest
    nested = [[encode_for_scale(k4, 2, g, a).nested for a in (0.1, 0.4, 1.0)] for g in (0.5, 1.0)]
    params = PtParams(betas=(0.2, 0.5, 1.0, 2.0), sweeps=300, swap_interval=5)
    recs = np.concatenate(_pt_sample(
        [(_dense_rows(nested[0]), np.random.default_rng(7)),
         (_dense_rows(nested[1]), np.random.default_rng(8))],
        params, 30, rungs=slice(None),
    ))
    assert recs.shape == (6, 4, 30, 8) and recs.dtype == np.int8
    assert hashlib.sha256(recs.tobytes()).hexdigest() == (
        "5f7a740e4a3014e97244f9dd29e22359dae7efda693cb4669bbd019a6ff8d30e"
    )


def test_pt_sample_stream_is_pinned_for_blocks_of_unequal_size(k4):
    # K4 at C = 1 (4 spins) before C = 3 (12 spins): the batch runs the larger
    # block first and pads the smaller one, yet each block's records equal
    # those of that block sampled alone (the digest of the one-block runs)
    params = PtParams(betas=(0.5, 2.0), sweeps=200, swap_interval=5)
    recs = _pt_sample(
        [(_dense_rows([encode_for_scale(k4, C, 1.0, a).nested for a in (0.2, 1.0)]),
          np.random.default_rng(seed)) for C, seed in ((1, 3), (3, 4))],
        params, 20, rungs=slice(None),
    )
    assert [r.shape for r in recs] == [(2, 2, 20, 4), (2, 2, 20, 12)]
    assert hashlib.sha256(b"".join(r.tobytes() for r in recs)).hexdigest() == (
        "7af7255665358a1a612ec4dd497338f26677f53810296dee8926b8dd653ce7d0"
    )


def test_pt_sample_keeps_the_requested_rungs(k4):
    # the top rung alone is the top rung of the all-rung run
    params = PtParams(betas=(0.5, 1.0, 2.0), sweeps=200, swap_interval=5)

    def sample(rungs):
        W = _dense_rows([encode_for_scale(k4, 2, 1.0, a).nested for a in (0.2, 1.0)])
        [recs] = _pt_sample([(W, np.random.default_rng(5))], params, 20, rungs=rungs)
        return recs

    assert np.array_equal(sample(slice(-1, None)), sample(slice(None))[:, -1:])


def _blocks(k4, Cs, gammas, alphas, seeds):
    """One ``(problems, seed)`` block per (C, gamma), as the driver makes
    them: the nested problems in alpha order, with ``seeds[c][g]``."""
    return [([encode_for_scale(k4, C, g, a) for a in alphas], seed)
            for C, row in zip(Cs, seeds) for g, seed in zip(gammas, row)]


def test_thermal_boost_scan_batches_gammas(k4, k4_ground):
    # a two-gamma call gives each gamma what a one-gamma call with its seed gives
    _, gs = k4_ground
    params = PtParams(betas=geometric_ladder(2.0, 4, 0.1), sweeps=400, swap_interval=5)
    alphas = [0.05, 0.2, 1.0]
    both = thermal_boost_scan(_blocks(k4, [2], [0.5, 1.0], alphas, [[7, 8]]), params, gs, 100)
    one = [thermal_boost_scan(_blocks(k4, [2], [g], alphas, [[s]]), params, gs, 100)[0]
           for g, s in ((0.5, 7), (1.0, 8))]
    assert both == one


def test_thermal_boost_scan_batches_levels(k4, k4_ground):
    # a multi-level call gives each (C, gamma) block what a one-level call
    # with its seeds gives, row for row, whatever the order of the levels
    _, gs = k4_ground
    params = PtParams(betas=geometric_ladder(2.0, 4, 0.1), sweeps=400, swap_interval=5)
    alphas = [0.05, 0.2, 1.0]
    Cs, seeds = [2, 1, 3], [[7, 8], [9, 10], [11, 12]]
    levels = thermal_boost_scan(_blocks(k4, Cs, [0.5, 1.0], alphas, seeds), params, gs, 100)
    one = [thermal_boost_scan(_blocks(k4, [C], [0.5, 1.0], alphas, [row]), params, gs, 100)
           for C, row in zip(Cs, seeds)]
    assert levels == [block for level in one for block in level]
    assert len(levels) == 6 and all(len(rows) == 3 for rows in levels)


def test_thermal_boost_scan_rejects_no_samples(k4, k4_ground):
    params = PtParams(betas=(1.0,), sweeps=40, swap_interval=5)
    with pytest.raises(DomainError):
        thermal_boost_scan(_blocks(k4, [2], [0.5], [1.0], [[0]]), params, k4_ground[1],
                           n_samples=0)


@pytest.mark.parametrize("blocks", [[], [([], 0)]], ids=["no-block", "empty-block"])
def test_thermal_boost_scan_rejects_no_problems(k4_ground, blocks):
    params = PtParams(betas=(1.0,), sweeps=40, swap_interval=5)
    with pytest.raises(DomainError, match="no nested problems"):
        thermal_boost_scan(blocks, params, k4_ground[1], n_samples=4)


def test_thermal_boost_scan_limits(k4, k4_ground):
    # the scan reports the top rung: a cold ladder solves the nested K4, a
    # hot one decodes to the 6/16 random baseline
    _, gs = k4_ground

    def top_rung(betas):
        params = PtParams(betas=betas, sweeps=6000, swap_interval=5)
        [[units]] = thermal_boost_scan(_blocks(k4, [2], [1.0], [1.0], [[21]]), params, gs,
                                       n_samples=2000)
        return success(units)

    p_cold, _ = top_rung((0.001, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0))
    assert p_cold >= 0.99
    p_hot, se_hot = top_rung((0.001,))
    assert abs(p_hot - 6 / 16) < 5 * max(se_hot, 1e-3)
    assert p_cold > p_hot


def test_thermal_boost_scan_shapes(k4, k4_ground):
    _, gs = k4_ground
    params = PtParams(betas=geometric_ladder(2.0, 6, 0.1), sweeps=1500, swap_interval=5)
    [pts] = thermal_boost_scan(_blocks(k4, [2], [1.0], [0.1, 0.4, 1.0], [[4]]), params, gs,
                               n_samples=300)
    assert len(pts) == 3
    # one unit per row: every record, its hits and the ties of its votes
    assert all(len(units) == 1 and units[0][:2] == (0, 300) for units in pts)
    assert all(0 <= hits <= 300 and ties >= 0 for [(_, _, hits, ties)] in pts)
    # monotone trend in alpha at fixed C
    assert success(pts[-1])[0] > success(pts[0])[0]


def _stream(k4, params, n_samples, blocks):
    """A ``_pt_sample`` call's records at every rung and its blocks'
    generators after it. ``blocks`` lists (C, gamma, seed)."""
    rngs = [np.random.default_rng(seed) for _, _, seed in blocks]
    recs = _pt_sample(
        [(_dense_rows([encode_for_scale(k4, C, g, a).nested for a in (0.2, 1.0)]), rng)
         for (C, g, _), rng in zip(blocks, rngs)],
        params, n_samples, rungs=slice(None),
    )
    assert all(r.shape == (2, len(params.betas), n_samples, 4 * C)
               for r, (C, _, _) in zip(recs, blocks))
    return recs, rngs


def _sha(arrays):
    return hashlib.sha256(b"".join(x.tobytes() for x in arrays)).hexdigest()


def _stream_digest(k4, params, n_samples, blocks):
    """sha256 of a ``_pt_sample`` call's records at every rung followed by the
    next four uniforms of each block's generator, which pins how many numbers
    the call drew."""
    recs, rngs = _stream(k4, params, n_samples, blocks)
    return _sha(recs + [rng.random(4) for rng in rngs])


def test_pt_sample_stream_is_pinned_for_one_rung(k4):
    # R = 1: no swap uniforms are drawn, every interval is sweeps alone
    params = PtParams(betas=(1.0,), sweeps=200, swap_interval=5)
    assert _stream_digest(k4, params, 20, [(2, 0.5, 3), (1, 1.0, 4)]) == (
        "f13047d8a2d1b70ec24f8d145e374ac9a9e1efb394e70c2a72700e5cc500ff4b"
    )


def test_pt_sample_stream_is_pinned_for_a_tail_interval(k4):
    # 203 sweeps at swap_interval 5 round down to 200: the three sweeps past
    # the last interval would record nothing, so they are not run and draw
    # nothing from the generators
    blocks = [(2, 0.5, 5), (1, 1.0, 6)]
    recs, rngs = _stream(k4, PtParams(betas=(0.3, 1.0, 2.5), sweeps=203, swap_interval=5),
                         20, blocks)
    assert _sha(recs) == "ac84571fb3cb9c9e40de4e279cc56fc0cadf799daa61d17c00420cb31cb430ff"
    whole, whole_rngs = _stream(k4, PtParams(betas=(0.3, 1.0, 2.5), sweeps=200,
                                             swap_interval=5), 20, blocks)
    assert _sha(recs) == _sha(whole)
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in whole_rngs]


def test_pt_sample_stream_is_pinned_for_swap_interval_one(k4):
    # a swap, and a record, after every sweep
    params = PtParams(betas=(0.3, 1.0, 2.5), sweeps=60, swap_interval=1)
    assert _stream_digest(k4, params, 20, [(2, 0.5, 9), (1, 1.0, 10)]) == (
        "ec3c63836f210c51d1e51cc913dfa94bb74eedbe468c7ea2f2b150c99699dd5f"
    )
