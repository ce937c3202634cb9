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
row; the state carries a last spin fixed at +1, so a site update is one
matrix product and a few whole-batch passes. A scan puts every (gamma, alpha)
point of one nesting level in a single batch. Each gamma's block of rows
draws from its own generator, so a batch reproduces the per-gamma runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import binomial_success, count_ground_hits
from .errors import DomainError
from .ising import IsingProblem
from .nesting import encode_for_scale
from .sampleset import CycleRecord, SampleSet


@dataclass(frozen=True)
class PtParams:
    """Replica-exchange knobs (the CLI reads the defaults). ``betas`` must
    ascend; half the sweeps are burn-in, recording is thinned by ``swap_interval``."""

    betas: tuple
    sweeps: int = 4000
    swap_interval: int = 5
    seed: int = 0

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
    """Sweeps that record at least ``n_samples`` configurations per rung
    after burn-in (half the run)."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    return max(params.sweeps, 2 * n_samples * params.swap_interval)


def swap_probability(beta_a, e_a, beta_b, e_b):
    """Replica-exchange acceptance, elementwise; exactly 1 for equal betas."""
    return np.exp(np.clip((beta_a - beta_b) * (e_a - e_b), -700.0, 0.0))


def _dense_rows(problems) -> np.ndarray:
    """Each problem's effective ``[J | h]`` (its couplings and fields times its
    ``alpha``), stacked as (rows, n, n+1)."""
    return np.stack([p.alpha * np.column_stack([p.dense_couplings(), p.h]) for p in problems])


def _pt_sample(
    W: np.ndarray,
    betas: np.ndarray,
    sweeps: int,
    swap_interval: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Core sampler over a batch of rows, each row its own ``[J | h]`` in ``W``
    (rows, n, n+1). The state is (rows, rungs, n+1) with a last spin fixed at
    +1, so a site's local field is one matrix product. ``rngs`` split the rows
    into equal consecutive blocks; each block draws its initial spins, site
    uniforms and swap uniforms from its own generator, exactly as a batch of
    that block alone would. Returns recorded configs (rows, rungs, records, n).
    """
    B, n = W.shape[:2]
    R = betas.size
    A = B // len(rngs)
    cols = np.ascontiguousarray(W.transpose(1, 0, 2))[..., None]  # site i: (rows, n+1, 1)
    half = W.copy()
    half[:, :, :n] /= 2  # E = s . ([J/2 | h] [s | 1])
    S = np.ones((B, R, n + 1))
    S[:, :, :n] = np.concatenate([rng.integers(0, 2, size=(A, R, n)) * 2 - 1 for rng in rngs])
    X = np.empty((B, R, 1))
    burn = sweeps // 2
    records = []
    for t in range(1, sweeps + 1):
        # Metropolis flips s_i when u < exp(2 beta s_i X_i), i.e. when
        # log(u) / (2 beta) < s_i X_i; log(0) = -inf flips
        with np.errstate(divide="ignore"):
            thr = np.log(np.concatenate([rng.random((n, A, R)) for rng in rngs], axis=1))
        thr /= 2.0 * betas
        for i in range(n):
            np.matmul(S, cols[i], out=X)
            s = S[:, :, i]
            np.negative(s, out=s, where=thr[i] < s * X[:, :, 0])
        if t % swap_interval:
            continue
        if R > 1:
            E = np.einsum("bri,bij,brj->br", S[:, :, :n], half, S)
            u_swap = np.concatenate([rng.random((R - 1, A)) for rng in rngs], axis=1)
            perm = np.tile(np.arange(R), (B, 1))
            for k in range(R - 1):
                acc = u_swap[k] < swap_probability(betas[k], E[:, k], betas[k + 1], E[:, k + 1])
                E[acc, k], E[acc, k + 1] = E[acc, k + 1], E[acc, k]
                perm[acc, k], perm[acc, k + 1] = perm[acc, k + 1], perm[acc, k]
            S = np.take_along_axis(S, perm[:, :, None], axis=1)
        if t > burn:
            records.append(S[:, :, :n].astype(np.int8))
    if not records:
        raise DomainError(
            "no samples recorded; increase sweeps (need > 2*swap_interval)"
        )
    return np.stack(records, axis=2)  # (rows, rungs, records, n)


def run_pt(p: IsingProblem, params: PtParams, n_samples: int) -> dict[float, SampleSet]:
    """Sample thermal states of ``p`` at every ladder rung.

    Runs enough sweeps that at least ``n_samples`` configurations are
    recorded per rung after burn-in (the last ``n_samples`` are kept), and
    returns one sample set per beta.
    """
    sweeps = _run_sweeps(params, n_samples)
    recs = _pt_sample(
        _dense_rows([p]), np.asarray(params.betas), sweeps, params.swap_interval,
        [np.random.default_rng(params.seed)],
    )
    out = {}
    cyc = CycleRecord(
        cycle=0,
        gauge=np.ones(p.n, dtype=np.int8),
        permutation=np.arange(p.n, dtype=np.int64),
        seed=params.seed,
    )
    digest = p.digest()
    for r, beta in enumerate(params.betas):
        configs = recs[0, r, -n_samples:, :]
        out[beta] = SampleSet(
            configs=configs,
            cycle_ids=np.zeros(configs.shape[0], dtype=np.int64),
            cycles=(cyc,),
            problem_digest=digest,
        )
    return out


def thermal_boost_scan(
    base: IsingProblem,
    C: int,
    gammas,
    alphas,
    params: PtParams,
    ground_states: np.ndarray,
    n_samples: int,
    seeds,
) -> list[list[tuple[float, float, float]]]:
    """Success of the top-rung thermal state over a (gamma, alpha) grid at level ``C``.

    Each penalty is held at its gamma in device units for every scan point
    (the stored penalty is ``gamma / alpha``), matching the protocol in which
    the penalty is never rescaled with the problem. All grid points are rows
    of one batch. The rows of ``gammas[g]`` sample and decode with generators
    seeded by ``seeds[g]`` (``params.seed`` is not read), so each gamma gets
    the result a one-gamma call with its seed gives. Returns one
    ``[(alpha, P, stderr), ...]`` list per gamma, for the largest ladder beta.
    """
    alphas = [float(a) for a in alphas]
    if not alphas or len(gammas) == 0:
        raise DomainError("empty alpha or gamma grid")
    if len(seeds) != len(gammas):
        raise DomainError(f"need one seed per gamma, got {len(seeds)} for {len(gammas)}")
    sweeps = _run_sweeps(params, n_samples)
    nested = [encode_for_scale(base, C, gamma, a) for gamma in gammas for a in alphas]
    recs = _pt_sample(
        _dense_rows([npx.nested for npx in nested]), np.asarray(params.betas), sweeps,
        params.swap_interval, [np.random.default_rng(s) for s in seeds],
    )
    out = []
    for gi, seed in enumerate(seeds):
        decode_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0xDEC0DE, 1))
        )
        pts = []
        for ai, alpha in enumerate(alphas):
            configs = recs[gi * len(alphas) + ai, -1, -n_samples:, :]
            hits = count_ground_hits(nested[0], None, configs, ground_states, decode_rng)
            pts.append((alpha, *binomial_success(hits, configs.shape[0])))
        out.append(pts)
    return out
