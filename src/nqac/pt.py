"""Parallel tempering: classical thermal states of the final Hamiltonian.

One replica runs at every rung of an ascending inverse-temperature ladder;
each sweep is a full sequential Metropolis pass over the sites of every
replica, and every ``swap_interval`` sweeps adjacent replicas attempt a
configuration exchange with probability

    min(1, exp((beta_k - beta_{k+1}) * (E_k - E_{k+1}))).

The first half of the sweeps is burn-in; afterwards configurations are
recorded at every rung each ``swap_interval`` sweeps. A thermal state is the
infinite-sweep limit of the annealer, so these samples bound what annealing
can achieve at a given temperature.

The engine is vectorized over a batch of rows, each one problem with its own
effective (already scaled) couplings and fields held as a dense ``[J | h]``
row; the state carries a spin fixed at +1 after the row's own spins, so a
site update is one matrix product and a few whole-batch passes. A scan puts
every (C, gamma, alpha) point in a single batch. Each (C, gamma) block of
rows draws from its own generator, so a batch reproduces the per-block runs.
Seeds are arguments; ``PtParams`` holds the knobs every entry point reads.
Blocks may differ in size: the batch orders them by descending n and pads
each row to the largest n with +1 spins of zero coupling, so the rows still
updating at site i are a prefix of the batch and no padded site is swept.

A block of k rows, each of n sites, on a ladder of R rungs draws from its
generator in this order:

- the initial spins, one integer in {0, 1} per (row, rung, site);
- per swap interval of T = ``swap_interval`` sweeps, one call: the T sweeps'
  site uniforms in (sweep, site, row, rung) order, then, when the interval
  ends in a swap (R > 1), the (R - 1) * k swap uniforms in (rung, row)
  order. A run is whole intervals: ``sweeps`` is rounded down to a multiple
  of T (see ``PtParams``), so no sweep runs after the last record.

These are the numbers, in the order, of one call per sweep and one per swap,
so the stream depends only on the block. Site i of a replica flips when
u < exp(2 beta s_i X_i), X_i its local field, taken as the strict
log(u) / (2 beta) < s_i X_i: the spin is multiplied by
copysign(1, log(u) / (2 beta) - s_i X_i). A tie gives +0 and keeps the
spin; u = 0 gives -inf and flips; u < 1, so the threshold is never +-0.

A site update is one batched matrix product and four in-place ufunc passes
over views built once, which swaps keep valid by permuting the state in
place. On the ``pt_scan`` benchmark shape (K4 nested at C = 1..4, two
gammas, eight alphas, 12 rungs, 2000 sweeps: 15.36 M spin updates) the
sampler takes a median 42-57 ns per spin update on one core of a shared
2-core Xeon, against 62-75 ns with one draw per sweep and a masked flip
(three sets of 16 alternating runs; the host's speed moved between them). The
batched matrix product, one BLAS call per row and site, is about 40 % of
what is left; it keeps its operand layout, so the fields round as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import estimate_success
from .errors import DomainError
from .ising import IsingProblem
from .nesting import encode_for_scale
from .sampleset import SampleSet


@dataclass(frozen=True)
class PtParams:
    """Replica-exchange knobs, read by every PT entry point (the CLI reads the
    defaults). ``betas`` must ascend; half the sweeps are burn-in, recording
    is thinned by ``swap_interval``. A run rounds ``sweeps`` down to whole
    swap intervals, and lengthens it to record at least the samples asked
    for. Seeds are arguments of the calls that use them."""

    betas: tuple
    sweeps: int = 4000
    swap_interval: int = 5

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if not betas:
            raise DomainError("the beta ladder must not be empty")
        if any(b <= 0 for b in betas):
            raise DomainError("all betas must be positive")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise DomainError("betas must increase strictly")
        if self.swap_interval < 1:
            raise DomainError("swap_interval must be >= 1")
        if self.sweeps < 1:
            raise DomainError("sweeps must be >= 1")
        object.__setattr__(self, "betas", betas)


def geometric_ladder(beta_max: float, n_betas: int, beta_min: float) -> tuple:
    """Geometrically spaced ladder from ``beta_min`` up to ``beta_max``."""
    if beta_max <= beta_min:
        raise DomainError("beta_max must exceed beta_min")
    return tuple(np.geomspace(beta_min, beta_max, n_betas))


def _run_sweeps(params: PtParams, n_samples: int) -> int:
    """``params.sweeps`` rounded down to whole swap intervals, but at least the
    sweeps that record ``n_samples`` configurations per rung after burn-in
    (half the run)."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    L = params.swap_interval
    return L * max(params.sweeps // L, 2 * n_samples)


def swap_probability(beta_a, e_a, beta_b, e_b):
    """Replica-exchange acceptance, elementwise; exactly 1 for equal betas."""
    return np.exp(np.minimum(np.maximum((beta_a - beta_b) * (e_a - e_b), -700.0), 0.0))


def _dense_rows(problems) -> np.ndarray:
    """Each problem's effective ``[J | h]`` (its couplings and fields times its
    ``alpha``), stacked as (rows, n, n+1)."""
    return np.stack([p.alpha * np.column_stack([p.dense_couplings(), p.h]) for p in problems])


def _pt_sample(
    blocks: list[tuple[np.ndarray, np.random.Generator]],
    params: PtParams,
    n_samples: int,
    rungs: slice,
) -> list[np.ndarray]:
    """Core sampler over blocks of rows, each block a (rows, n, n+1) stack of
    ``[J | h]`` rows with its own generator. Each block draws its initial
    spins, site uniforms and swap uniforms from its generator, exactly as a
    batch of that block alone would, so the blocks may differ in n.

    The blocks run as one batch, sorted by descending n (stably) and padded
    to the largest: a row's spins past its own n hold +1 with zero couplings,
    and the first of them reads the row's fields. The rows still updating at
    site i are then the prefix with n > i, so no padded site is swept. Returns,
    per block in the given order, the last ``n_samples`` records at ``rungs``
    as int8 (rows, kept rungs, n_samples, n).
    """
    betas = np.asarray(params.betas)
    R, L = betas.size, params.swap_interval
    intervals = _run_sweeps(params, n_samples) // L
    order = sorted(range(len(blocks)), key=lambda b: -blocks[b][0].shape[1])
    sizes = [blocks[b][0].shape[1] for b in order]
    bounds = np.cumsum([0] + [blocks[b][0].shape[0] for b in order])
    spans = list(zip(bounds[:-1], bounds[1:], sizes))  # (first row, end row, n) per block
    rngs = [blocks[b][1] for b in order]
    B, n = bounds[-1], sizes[0]
    active = [bounds[sum(m > i for m in sizes)] for i in range(n)]  # rows updating at site i
    W = np.zeros((B, n, n + 1))
    for b, (a, z, m) in zip(order, spans):
        W[a:z, :m, :m + 1] = blocks[b][0]
    half = W.copy()  # E = s . ([J/2 | h] [s | 1])
    for a, z, m in spans:
        half[a:z, :, :m] /= 2
    cols = np.ascontiguousarray(W.transpose(1, 0, 2))[..., None]  # site i: (rows, n+1, 1)
    half_t = np.ascontiguousarray(half.transpose(0, 2, 1))
    S = np.ones((B, R, n + 1))
    for (a, z, m), rng in zip(spans, rngs):
        S[a:z, :, :m] = rng.integers(0, 2, size=(z - a, R, m)) * 2 - 1
    # one swap interval's thresholds log(u) / (2 beta), (sweep, site, row,
    # rung); a padded site stays 0 and is never read
    thr = np.zeros((L, n, B, R))
    two_betas = np.tile(2.0 * betas, B)  # per (row, rung)
    draws = np.empty(max((L * m * R + R - 1) * (z - a) for a, z, m in spans))
    u = np.empty((R - 1, B))  # the swap uniforms, (rung, row)
    X = np.empty((B, R, 1))
    flip = np.empty((B, R))
    # the views of each site update; swaps permute S in place, so they stay valid
    steps = [[(S[:a], cols[i, :a], X[:a], X[:a, :, 0], S[:a, :, i], flip[:a], thr[t, i, :a])
              for i, a in enumerate(active)] for t in range(L)]
    rows = np.arange(B)[:, None]
    src = np.empty((R, B), dtype=np.intp)
    recs = np.empty((B, len(range(R)[rungs]), n_samples, n), dtype=np.int8)
    # the last n_samples intervals record, all after the half-run burn-in
    # (see _run_sweeps)
    first = intervals - n_samples
    swaps = R > 1
    for interval in range(intervals):
        with np.errstate(divide="ignore"):  # log(0) = -inf, which flips
            for (a, z, m), rng in zip(spans, rngs):
                nr, sites = z - a, L * m * (z - a) * R
                d = draws[:sites + swaps * (R - 1) * nr]
                rng.random(out=d)
                np.log(d[:sites], out=d[:sites])
                # a block's (row, rung) pairs are contiguous in thr, so the
                # reshape is a view
                np.divide(d[:sites].reshape(L, m, nr * R), two_betas[:nr * R],
                          out=thr[:, :m, a:z].reshape(L, m, nr * R))
                if swaps:
                    u[:, a:z] = d[sites:].reshape(R - 1, nr)
        for sweep in steps:
            for Sa, c, x, x0, s, w, th in sweep:
                np.matmul(Sa, c, out=x)
                np.multiply(s, x0, out=w)
                np.subtract(th, w, out=w)
                np.copysign(1.0, w, out=w)  # -1 where th < s x: flip
                s *= w
        if swaps:
            E = np.einsum("brj,brj->rb", S[:, :, :n], np.matmul(S, half_t))
            # walk the replica on rung k up the ladder: src[k] is the rung whose
            # configuration lands on rung k, e the energy of the walking one
            walk, e = np.zeros(B, dtype=np.intp), E[0]
            for k in range(R - 1):
                acc = u[k] < swap_probability(betas[k], e, betas[k + 1], E[k + 1])
                src[k] = np.where(acc, k + 1, walk)
                walk = np.where(acc, walk, k + 1)
                e = np.where(acc, e, E[k + 1])
            src[-1] = walk
            S[...] = S[rows, src.T]
        slot = interval - first
        if slot >= 0:
            recs[:, :, slot] = S[:, rungs, :n]
    out = [None] * len(blocks)
    for b, (a, z, m) in zip(order, spans):
        out[b] = recs[a:z, :, :, :m]
    return out


def run_pt(p: IsingProblem, params: PtParams, n_samples: int, seed: int) -> dict[float, SampleSet]:
    """Sample thermal states of ``p`` at every ladder rung, on one stream of
    ``seed``.

    Runs enough sweeps that at least ``n_samples`` configurations are
    recorded per rung after burn-in (the last ``n_samples`` are kept), and
    returns one sample set per beta.
    """
    [recs] = _pt_sample([(_dense_rows([p]), np.random.default_rng(seed))], params,
                        n_samples, rungs=slice(None))
    digest = p.digest()
    return {beta: SampleSet.unprogrammed(recs[0, r], seed, digest)
            for r, beta in enumerate(params.betas)}


def thermal_boost_scan(
    base: IsingProblem,
    Cs,
    gammas,
    alphas,
    params: PtParams,
    ground_states: np.ndarray,
    n_samples: int,
    seeds,
) -> list[list[list[tuple[float, float, float]]]]:
    """Success of the top-rung thermal state over a (C, gamma, alpha) grid.

    Each penalty is held at its gamma in device units for every scan point
    (the stored penalty is ``gamma / alpha``), matching the protocol in which
    the penalty is never rescaled with the problem. All grid points are rows
    of one batch. The rows of ``Cs[c]`` at ``gammas[g]`` sample and decode
    with generators seeded by ``seeds[c][g]``, so each (C, gamma) block gets
    the result a one-block call with its seed gives; a row is decoded by
    ``estimate_success``, one cycle, on its block's decode generator in alpha
    order. Returns ``out[c][g] = [(alpha, P, stderr), ...]`` for the largest
    ladder beta.
    """
    alphas = [float(a) for a in alphas]
    if not alphas or len(gammas) == 0 or len(Cs) == 0:
        raise DomainError("empty C, alpha or gamma grid")
    if len(seeds) != len(Cs) or any(len(row) != len(gammas) for row in seeds):
        raise DomainError(
            f"need one seed per gamma for each C, got {[len(row) for row in seeds]} "
            f"for {len(Cs)} C x {len(gammas)} gammas"
        )
    grid = [(C, gamma, seed) for C, row in zip(Cs, seeds) for gamma, seed in zip(gammas, row)]
    nested = [[encode_for_scale(base, C, gamma, a) for a in alphas] for C, gamma, _ in grid]
    recs = _pt_sample(
        [(_dense_rows([npx.nested for npx in block]), np.random.default_rng(seed))
         for block, (_, _, seed) in zip(nested, grid)],
        params, n_samples, rungs=slice(-1, None),
    )
    pts = []
    for block, block_recs, (_, _, seed) in zip(nested, recs, grid):
        decode_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xDEC0DE, 1)))
        # the sets are never written, so they carry no problem digest
        pts.append([(alpha, *estimate_success(SampleSet.unprogrammed(configs, seed, ""),
                                              block[0], None, ground_states, decode_rng))
                    for alpha, configs in zip(alphas, block_recs[:, 0])])
    G = len(gammas)
    return [pts[ci * G:(ci + 1) * G] for ci in range(len(Cs))]
