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

The engine is vectorized over an outer batch of problems sharing one coupling
structure (used for problem-scale scans); effective, already-scaled fields
and coupling values are supplied per batch row.
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


def swap_probability(beta_a, e_a, beta_b, e_b):
    """Replica-exchange acceptance, elementwise; exactly 1 for equal betas."""
    return np.exp(np.clip((beta_a - beta_b) * (e_a - e_b), -700.0, 0.0))


def _pt_sample(
    h_eff: np.ndarray,
    pairs: np.ndarray,
    vals_eff: np.ndarray,
    betas: np.ndarray,
    sweeps: int,
    swap_interval: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Core sampler. Returns recorded configs (batch, rungs, records, n)."""
    A, n = h_eff.shape
    R = betas.size
    m = pairs.shape[0]
    nbr_eids = [[] for _ in range(n)]
    nbr_other = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        nbr_eids[u].append(e)
        nbr_other[u].append(v)
        nbr_eids[v].append(e)
        nbr_other[v].append(u)
    nbr_eids = [np.asarray(a, dtype=np.int64) for a in nbr_eids]
    nbr_other = [np.asarray(a, dtype=np.int64) for a in nbr_other]
    sites = [i for i in range(n) if nbr_eids[i].size or np.any(h_eff[:, i])]

    S = (rng.integers(0, 2, size=(A, R, n)) * 2 - 1).astype(np.float64)
    burn = sweeps // 2
    records = []

    def full_energy():
        e = np.einsum("an,arn->ar", h_eff, S)
        if m:
            e += np.einsum("ae,are->ar", vals_eff, S[:, :, pairs[:, 0]] * S[:, :, pairs[:, 1]])
        return e

    for t in range(1, sweeps + 1):
        u_site = rng.random((len(sites), A, R))
        for a, i in enumerate(sites):
            if nbr_eids[i].size:
                X = h_eff[:, i][:, None] + np.einsum(
                    "ae,are->ar", vals_eff[:, nbr_eids[i]], S[:, :, nbr_other[i]]
                )
            else:
                X = np.broadcast_to(h_eff[:, i][:, None], (A, R))
            dE = -2.0 * S[:, :, i] * X
            acc = u_site[a] < np.exp(-np.clip(betas[None, :] * dE, -700.0, 700.0))
            S[:, :, i] = np.where(acc, -S[:, :, i], S[:, :, i])
        if t % swap_interval == 0:
            E = full_energy()
            u_swap = rng.random((R - 1, A)) if R > 1 else np.zeros((0, A))
            for k in range(R - 1):
                acc = u_swap[k] < swap_probability(
                    betas[k], E[:, k], betas[k + 1], E[:, k + 1]
                )
                if np.any(acc):
                    tmp = S[acc, k].copy()
                    S[acc, k] = S[acc, k + 1]
                    S[acc, k + 1] = tmp
                    te = E[acc, k].copy()
                    E[acc, k] = E[acc, k + 1]
                    E[acc, k + 1] = te
            if t > burn:
                records.append(S.astype(np.int8).copy())
    if not records:
        raise DomainError(
            "no samples recorded; increase sweeps (need > 2*swap_interval)"
        )
    return np.stack(records, axis=2)  # (A, R, records, n)


def run_pt(p: IsingProblem, params: PtParams, n_samples: int) -> dict[float, SampleSet]:
    """Sample thermal states of ``p`` at every ladder rung.

    Runs enough sweeps that at least ``n_samples`` configurations are
    recorded per rung after burn-in (the last ``n_samples`` are kept), and
    returns one sample set per beta.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    sweeps = max(params.sweeps, 2 * n_samples * params.swap_interval)
    rng = np.random.default_rng(params.seed)
    h_eff = (p.alpha * p.h)[None, :]
    vals_eff = (p.alpha * p.values)[None, :]
    recs = _pt_sample(
        h_eff, p.pairs, vals_eff, np.asarray(params.betas), sweeps,
        params.swap_interval, rng,
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
    gamma_device: float,
    alphas,
    params: PtParams,
    ground_states: np.ndarray,
    n_samples: int,
) -> list[tuple[float, float, float]]:
    """Success of the top-rung thermal state across a problem-scale scan.

    The penalty is held at ``gamma_device`` in device units for every scan
    point (the stored penalty is ``gamma_device / alpha``), matching the
    protocol in which the penalty is never rescaled with the problem.
    Returns ``[(alpha, P, stderr), ...]`` for the largest ladder beta,
    sampling all scan points in one vectorized batch.
    """
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise DomainError("empty alpha grid")
    nested = [encode_for_scale(base, C, gamma_device, a) for a in alphas]
    ref = nested[0]
    h_eff = np.stack([npx.nested.alpha * npx.nested.h for npx in nested])
    vals_eff = np.stack([npx.nested.alpha * npx.nested.values for npx in nested])
    sweeps = max(params.sweeps, 2 * n_samples * params.swap_interval)
    rng = np.random.default_rng(params.seed)
    recs = _pt_sample(
        h_eff, ref.nested.pairs, vals_eff, np.asarray(params.betas), sweeps,
        params.swap_interval, rng,
    )
    decode_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(0xDEC0DE, 1))
    )
    out = []
    for ia, alpha in enumerate(alphas):
        configs = recs[ia, -1, -n_samples:, :]
        hits = count_ground_hits(ref, None, configs, ground_states, decode_rng)
        out.append((alpha, *binomial_success(hits, configs.shape[0])))
    return out
