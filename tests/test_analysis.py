import numpy as np
import pytest

from nqac.analysis import (
    BoostResult,
    SuccessCurve,
    adjust_repetition,
    boost_csv,
    compute_boost,
    curves_csv,
    curves_from_units,
    estimate_success,
    fit_eta,
    hit_counts,
    optimize_gamma,
    read_curves,
    repetition_count,
    success,
)
from nqac.errors import DomainError
from nqac.instances import k4_antiferromagnet
from nqac.nesting import decode_batch, encode_nested, lift_logical, permute_nested
from nqac.sampleset import CycleRecord, SampleSet


def make_sampleset(configs_by_cycle, n):
    configs = np.vstack(configs_by_cycle).astype(np.int8)
    ids = np.concatenate(
        [np.full(len(c), i, dtype=np.int64) for i, c in enumerate(configs_by_cycle)]
    )
    cycles = tuple(
        CycleRecord(
            cycle=i,
            gauge=np.ones(n, dtype=np.int8),
            permutation=np.arange(n, dtype=np.int64),
            seed=i,
        )
        for i in range(len(configs_by_cycle))
    )
    return SampleSet(configs=configs, cycle_ids=ids, cycles=cycles, problem_digest="x")


@pytest.fixture(scope="module")
def k4_setup():
    k4 = k4_antiferromagnet()
    npr = encode_nested(k4, 1, 1.0)
    from nqac.ising import brute_force_ground

    _, gs = brute_force_ground(k4)
    return npr, gs


def test_estimate_success_all_ground(k4_setup):
    npr, gs = k4_setup
    ss = make_sampleset([np.tile(gs[0], (10, 1))], 4)
    P, se = estimate_success(ss, npr, None, gs)
    assert (P, se) == (1.0, 0.0)


def test_estimate_success_cycle_arithmetic(k4_setup):
    npr, gs = k4_setup
    ground = gs[0]
    excited = np.array([1, 1, 1, 1], dtype=np.int8)  # not a ground state
    # per-cycle fractions 0.4 and 0.6
    c0 = [ground] * 4 + [excited] * 6
    c1 = [ground] * 6 + [excited] * 4
    ss = make_sampleset([np.array(c0), np.array(c1)], 4)
    P, se = estimate_success(ss, npr, None, gs)
    assert P == pytest.approx(0.5)
    assert se == pytest.approx(0.1)


def test_estimate_success_single_cycle_binomial_stderr(k4_setup):
    npr, gs = k4_setup
    excited = np.array([1, 1, 1, 1], dtype=np.int8)  # not a ground state
    ss = make_sampleset([np.array([gs[0]] * 3 + [excited] * 7)], 4)
    P, se = estimate_success(ss, npr, None, gs)
    assert P == pytest.approx(0.3)
    assert se == pytest.approx(np.sqrt(0.3 * 0.7 / 10))


def test_estimate_success_uniform_random(k4_setup):
    npr, gs = k4_setup
    rng = np.random.default_rng(0)
    configs = rng.choice([-1, 1], size=(20_000, 4)).astype(np.int8)
    ss = make_sampleset([configs], 4)
    P, _ = estimate_success(ss, npr, None, gs)
    sigma = np.sqrt((6 / 16) * (10 / 16) / 20_000)
    assert abs(P - 6 / 16) < 5 * sigma


def test_estimate_success_empty_raises(k4_setup):
    npr, gs = k4_setup
    ss = make_sampleset([np.zeros((0, 4))], 4)
    with pytest.raises(DomainError):
        estimate_success(ss, npr, None, gs)


def _estimate_by_fractions(ss, npr, gs, seed):
    """Success as it was estimated before the hit counts were kept: each
    cycle's hit fraction as a NumPy count over its record count, then their
    mean and stderr, or the binomial stderr of a single cycle."""
    rng = np.random.default_rng(seed)
    targets = {tuple(g) for g in gs.tolist()}
    perms = {c.cycle: c.permutation for c in ss.cycles}
    fracs = []
    for cid, idxs in sorted(ss.cycle_slices().items()):
        logical, _ = decode_batch(permute_nested(npr, perms[cid]), None, ss.configs[idxs], rng)
        hits = np.asarray([tuple(row) in targets for row in logical.tolist()]).sum()
        fracs.append(hits / idxs.size)
    fr = np.asarray(fracs)
    if fr.size == 1:
        return float(fr[0]), float(np.sqrt(fr[0] * (1 - fr[0]) / idxs.size))
    return float(fr.mean()), float(fr.std(ddof=1) / np.sqrt(fr.size))


def _permuted_sampleset(configs_by_cycle, n, rng):
    ss = make_sampleset(configs_by_cycle, n)
    cycles = tuple(CycleRecord(cycle=c.cycle, gauge=c.gauge, permutation=rng.permutation(n),
                               seed=c.seed) for c in ss.cycles)
    return SampleSet(configs=ss.configs, cycle_ids=ss.cycle_ids, cycles=cycles,
                     problem_digest="x")


@pytest.mark.parametrize("case", ["cycles", "one-cycle", "all-ground"])
def test_success_of_hit_counts_is_the_fraction_estimate_bit_for_bit(k4_setup, case):
    # nested K4 at C = 2 ties a vote of 2 against 2; random records over 7
    # permuted cycles, one cycle, and one cycle of ground states only (se 0)
    _, gs = k4_setup
    npr = encode_nested(k4_antiferromagnet(), 2, 0.5)
    rng = np.random.default_rng(17)
    if case == "all-ground":
        cycles = [np.tile(lift_logical(npr, gs[2]), (9, 1))]
        ss = make_sampleset(cycles, 8)
    else:
        cycles = [rng.choice([-1, 1], size=(37, 8)) for _ in range(7 if case == "cycles" else 1)]
        ss = _permuted_sampleset(cycles, 8, rng)
    units = hit_counts(ss, npr, None, gs, decode_seed=5)
    got = estimate_success(ss, npr, None, gs, decode_seed=5)
    assert got == success(units) == _estimate_by_fractions(ss, npr, gs, seed=5)
    assert [u[:2] for u in units] == [(c, len(x)) for c, x in enumerate(cycles)]
    if case == "all-ground":
        assert got == (1.0, 0.0) and units[0][3] == 0
    # the recorded ties are decode_batch's count, on the same coins
    coins = np.random.default_rng(5)
    for (cid, _, _, ties), c in zip(units, ss.cycles):
        cut = ss.configs[ss.cycle_ids == cid]
        assert ties == decode_batch(permute_nested(npr, c.permutation), None, cut, coins)[1]
    assert case == "all-ground" or sum(u[3] for u in units) > 0


def test_success_needs_a_unit():
    with pytest.raises(DomainError):
        success([])


def test_curves_from_units_takes_each_alphas_best_gamma():
    # rows [C, alpha, gamma, unit, runs, hits, ties], grouped by their own
    # values whatever their order; at alpha 1 both gammas tie at P = 1
    rows = [[1, 0.5, 0.3, 0, 10, 4, 0], [1, 1, 0.6, 0, 10, 10, 0], [1, 0.5, 0.6, 0, 10, 9, 1],
            [2, 0.5, 0.3, 0, 10, 8, 0], [1, 1, 0.3, 0, 10, 10, 0], [1, 0.5, 0.3, 1, 10, 6, 0],
            [1, 1, 0.6, 1, 10, 10, 0], [1, 0.5, 0.6, 1, 10, 7, 0], [1, 1, 0.3, 1, 10, 10, 0]]
    c1, c2 = curves_from_units(rows)
    assert (c1.C, c1.alphas.tolist(), c1.gamma_used) == (1, [0.5, 1.0], {0.5: 0.6, 1.0: 0.3})
    assert (c1.P[0], c1.stderr[0]) == success([(0, 10, 9, 1), (1, 10, 7, 0)])
    assert (c1.P[1], c1.stderr[1]) == (1.0, 0.0)
    assert (c2.C, c2.P.tolist(), c2.gamma_used) == (2, [0.8], {0.5: 0.3})
    assert c2.stderr[0] == success([(0, 10, 8, 0)])[1]


def test_optimize_gamma_examples():
    assert optimize_gamma({0.1: (0.4, 0), 0.5: (0.7, 0), 1.0: (0.6, 0)}) == (0.5, 0.7)
    assert optimize_gamma({0.3: (0.9, 0)}) == (0.3, 0.9)
    assert optimize_gamma({0.3: (0.6, 0), 0.7: (0.6, 0)}) == (0.3, 0.6)
    with pytest.raises(DomainError):
        optimize_gamma({})


def collapse_curves(ks, alphas, f, stderr=0.0):
    out = []
    for C, k in ks.items():
        P = f(k * alphas)
        out.append(
            SuccessCurve(C=C, alphas=alphas, P=P, stderr=np.full_like(P, stderr))
        )
    return out


def f_sigmoid(x):
    return 0.36 + 0.60 / (1.0 + (0.18 / x) ** 1.6)


def test_boost_self_reference_is_one():
    alphas = np.geomspace(0.01, 1, 12)
    curves = collapse_curves({1: 1.0}, alphas, f_sigmoid)
    boost = compute_boost(curves, p0=0.6)
    assert boost.mu[1][0] == pytest.approx(1.0)


def test_boost_recovers_scale_factors():
    alphas = np.geomspace(0.01, 1.0, 14)
    curves = collapse_curves({1: 1.0, 2: 2.5, 3: 4.0}, alphas, f_sigmoid)
    boost = compute_boost(curves, p0=0.66)
    assert boost.mu[2][0] == pytest.approx(2.5, rel=0.01)
    assert boost.mu[3][0] == pytest.approx(4.0, rel=0.01)


def test_boost_band_contains_mid_and_orders():
    rng = np.random.default_rng(5)
    alphas = np.geomspace(0.01, 1.0, 14)
    curves = []
    for C, k in ((1, 1.0), (2, 2.5)):
        p = f_sigmoid(k * alphas)
        fr = rng.binomial(1000, p[None, :].repeat(20, axis=0)) / 1000
        curves.append(
            SuccessCurve(
                C=C, alphas=alphas, P=fr.mean(axis=0),
                stderr=fr.std(axis=0, ddof=1) / np.sqrt(20),
            )
        )
    boost = compute_boost(curves)
    mid, lo, hi = boost.mu[2]
    assert lo <= mid <= hi


def test_boost_p0_insensitive_on_collapse_family():
    alphas = np.geomspace(0.005, 1.0, 20)
    curves = collapse_curves({1: 1.0, 2: 2.5, 3: 4.0}, alphas, f_sigmoid)
    lo_p, hi_p = f_sigmoid(alphas[0] * 4.0), f_sigmoid(alphas[-1])
    mus = []
    for q in (0.4, 0.5, 0.6):
        p0 = lo_p + q * (hi_p - lo_p)
        boost = compute_boost(curves, p0=p0)
        mus.append(boost.mu[3][0])
    assert (max(mus) - min(mus)) / np.mean(mus) <= 0.02


def test_boost_point_order_invariance():
    alphas = np.geomspace(0.01, 1.0, 10)
    f = f_sigmoid
    shuffled = np.array([3, 0, 7, 1, 9, 5, 2, 8, 4, 6])
    a = compute_boost(collapse_curves({1: 1.0, 2: 2.0}, alphas, f), p0=0.6)
    curves_shuffled = [
        SuccessCurve(C=1, alphas=alphas[shuffled], P=f(alphas)[shuffled], stderr=np.zeros(10)),
        SuccessCurve(C=2, alphas=alphas[shuffled], P=f(2 * alphas)[shuffled], stderr=np.zeros(10)),
    ]
    b = compute_boost(curves_shuffled, p0=0.6)
    assert a.mu[2][0] == pytest.approx(b.mu[2][0])


def test_boost_unbracketed_reports_none():
    alphas = np.geomspace(0.01, 1.0, 10)
    curves = collapse_curves({1: 1.0}, alphas, f_sigmoid)
    # a curve that never comes down to p0
    curves.append(
        SuccessCurve(C=2, alphas=alphas, P=np.full(10, 0.99), stderr=np.zeros(10))
    )
    boost = compute_boost(curves, p0=0.6)
    assert boost.mu[2] is None
    assert boost.mu[1] is not None


def test_boost_requires_reference():
    alphas = np.geomspace(0.01, 1.0, 10)
    with pytest.raises(DomainError):
        compute_boost(collapse_curves({2: 2.0}, alphas, f_sigmoid), p0=0.6)


def test_boost_requires_two_alphas_per_curve():
    curves = collapse_curves({1: 1.0}, np.geomspace(0.01, 1.0, 10), f_sigmoid)
    curves += collapse_curves({2: 2.0}, np.array([0.5]), f_sigmoid)
    with pytest.raises(DomainError):
        compute_boost(curves, p0=0.6)


@pytest.mark.parametrize("field", ["alphas", "P", "stderr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_success_curve_rejects_non_finite(field, bad):
    values = {"alphas": [0.1, 0.5, 1.0], "P": [0.3, 0.6, 0.9], "stderr": [0.01, 0.01, 0.01]}
    values[field][1] = bad
    with pytest.raises(DomainError, match="finite"):
        SuccessCurve(C=1, **values)


def test_fit_eta_exact_power_laws():
    def boost_from(mu):
        return BoostResult(mu={C: (m, m, m) for C, m in mu.items()}, p0=0.5)

    quad = boost_from({C: C**2 for C in (1, 2, 3, 4)})
    assert fit_eta(quad) == pytest.approx(2.0, abs=1e-12)
    lin = boost_from({C: float(C) for C in (1, 2, 3, 4)})
    assert fit_eta(lin) == pytest.approx(1.0, abs=1e-12)
    frac = boost_from({C: C**1.37 for C in (1, 2, 3, 4)})
    assert fit_eta(frac) == pytest.approx(1.37, rel=0.01)
    with pytest.raises(DomainError):
        fit_eta(boost_from({1: 1.0}))


def test_fit_eta_uses_first_points_only():
    mu = {C: C**2.0 for C in (1, 2, 3, 4)}
    mu[5] = 5.0  # saturated tail point must be ignored with fit_count=4
    boost = BoostResult(mu={C: (m, m, m) for C, m in mu.items()}, p0=0.5)
    assert fit_eta(boost, fit_count=4) == pytest.approx(2.0, abs=1e-12)


def test_repetition_counts_reference_values():
    assert repetition_count(1, 4, 8) == 12
    assert repetition_count(2, 4, 8) == 3
    assert repetition_count(4, 4, 8) == 1


def test_adjust_repetition_values():
    assert adjust_repetition(0.5, 4, 4, 8) == pytest.approx(0.5)
    assert adjust_repetition(0.5, 2, 4, 8) == pytest.approx(1 - 0.5**3)
    # M = 2 worked example
    assert 1 - (1 - 0.5) ** 2 == pytest.approx(0.75)


def test_adjust_repetition_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = float(rng.uniform(0, 1))
        c = int(rng.integers(1, 5))
        out = adjust_repetition(p, c, 4, 8)
        assert out >= p - 1e-15
    with pytest.raises(DomainError):
        adjust_repetition(1.2, 1, 4, 8)
    with pytest.raises(DomainError):
        adjust_repetition(0.5, 5, 4, 8)


def test_csv_emission():
    curves = [
        SuccessCurve(C=1, alphas=[0.1, 1.0], P=[0.4, 0.9], stderr=[0.01, 0.0],
                     gamma_used={0.1: 0.3, 1.0: 1.0})
    ]
    text = curves_csv(curves)
    assert text.splitlines()[0] == "C,alpha,gamma_star,P,stderr"
    assert "1,0.1,0.3,0.4,0.01" in text
    boost = BoostResult(mu={1: (1.0, 0.9, 1.1), 2: None}, p0=0.5)
    btext = boost_csv(boost)
    assert "1,1,0.9,1.1" in btext
    assert "2,,," in btext


@pytest.mark.parametrize(
    "text",
    ["", "C,alpha,P,stderr\n1,0.1,0.4,0.01\n", "C,alpha,gamma_star,P,stderr\n1,0.1,0.4,0.01\n",
     "C,alpha,gamma_star,P,stderr\n1,0.1,,high,0.01\n"],
)
def test_read_curves_rejects_malformed_text(text):
    with pytest.raises(DomainError):
        read_curves(text)
