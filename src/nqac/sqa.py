"""Discrete-time path-integral simulated quantum annealing.

The quantum transverse-field model at schedule point s,

    H(s) = A(s) * (-sum_i sigma^x_i) + B(s) * alpha * H_stored,

is mapped onto K coupled replicas ("Trotter slices") of the classical spin
vector. Per sweep the schedule advances uniformly (s = t/sweeps) and every
spatial site is updated once: a Wolff cluster is grown along the site's
periodic Trotter ring, activating bonds between aligned neighbor slices with
probability

    p(s) = 1 - exp(-2 * beta * Jperp(s) / K) = 1 - tanh(beta * A(s) / K),

where Jperp(s) = -(K / (2 beta)) * ln tanh(beta * A(s) / K) is the standard
ferromagnetic time-direction coupling (A is never rescaled by alpha; only the
problem term is). The cluster flip is accepted by Metropolis on the spatial
action change, with per-slice spatial couplings beta * B(s) * alpha * J / K.
At A(s) = 0 the bond probability is 1, the ring locks into a single cluster
and the dynamics reduces to classical Metropolis sampling.

Anneals run as one vectorized batch per seed stream; results are ordered by
run index, so identical parameters and seed give identical sample sets.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chimera import ChimeraGraph, Embedding, apply_embedding
from .errors import DomainError, EmbeddingNotFound, InvalidEmbedding, ScheduleError
from .ising import IsingProblem, apply_gauge
from .instances import device_like_schedule_text
from .nesting import NestedProblem, permute_nested, random_permutation
from .sampleset import CycleRecord, SampleSet


# ---------------------------------------------------------------------------
# annealing schedules


@dataclass(frozen=True)
class Schedule:
    """Piecewise-linear schedule (s, A(s), B(s)) with s covering [0, 1]."""

    s: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.float64)
        A = np.asarray(self.A, dtype=np.float64)
        B = np.asarray(self.B, dtype=np.float64)
        if not (s.shape == A.shape == B.shape) or s.ndim != 1 or s.size < 2:
            raise ScheduleError("schedule needs matching 1-d s, A, B with >= 2 points")
        if s[0] != 0.0 or s[-1] != 1.0 or np.any(np.diff(s) <= 0):
            raise ScheduleError("s must increase strictly and cover 0 and 1")
        if np.any(A < 0) or np.any(B < 0):
            raise ScheduleError("A and B must be non-negative")
        if np.any(np.diff(A) > 0):
            raise ScheduleError("A must be non-increasing")
        if np.any(np.diff(B) < 0):
            raise ScheduleError("B must be non-decreasing")
        for arr in (s, A, B):
            arr.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def a_of(self, x: float) -> float:
        return float(np.interp(x, self.s, self.A))

    def b_of(self, x: float) -> float:
        return float(np.interp(x, self.s, self.B))

    def to_csv(self) -> str:
        lines = ["s,A,B"]
        lines += [f"{si:.10g},{ai:.10g},{bi:.10g}" for si, ai, bi in zip(self.s, self.A, self.B)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Schedule":
        rows = []
        for line in io.StringIO(text):
            line = line.strip()
            if not line or line.lower().startswith("s,"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ScheduleError(f"bad schedule row: {line!r}")
            rows.append([float(p) for p in parts])
        arr = np.asarray(rows, dtype=np.float64)
        return cls(s=arr[:, 0], A=arr[:, 1], B=arr[:, 2])


def default_schedule() -> Schedule:
    """Linear schedule A(s) = 1 - s, B(s) = s in units of max |J|."""
    return Schedule(s=[0.0, 1.0], A=[1.0, 0.0], B=[0.0, 1.0])


def device_like_schedule() -> Schedule:
    """Bundled schedule with device-scale energies (A: 8 -> 0, B: 0 -> 30).

    With the package default beta = 0.1 the product beta * B(1) reaches 3 per
    unit coupling, so an equilibrated final state concentrates on the ground
    state the way hardware anneals do; the unit-scale linear schedule keeps
    the final state far hotter.
    """
    return Schedule.from_csv(device_like_schedule_text())


def load_schedule(path) -> Schedule:
    return Schedule.from_csv(Path(path).read_text())


# ---------------------------------------------------------------------------
# parameters and coupler noise


@dataclass(frozen=True)
class SqaParams:
    """Engine knobs; the defaults, which the CLI reads too, follow the protocol
    this package reproduces (10^4 sweeps, 64 slices, beta = 0.1, sigma = 0.05)."""

    sweeps: int = 10_000
    trotter_slices: int = 64
    beta: float = 0.1
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.trotter_slices < 2:
            raise DomainError("need at least 2 Trotter slices")
        if self.sweeps < 1:
            raise DomainError("sweeps must be >= 1")
        if not self.beta > 0:
            raise DomainError("beta must be positive")
        if self.noise_sigma < 0:
            raise DomainError("noise_sigma must be >= 0")


def sample_noise(p: IsingProblem, sigma: float, rng: np.random.Generator) -> IsingProblem:
    """One realization of Gaussian coupler/field control noise.

    Noise models device misspecification of the programmed (post-alpha)
    values, in units where the maximum coupling magnitude is 1: programmed
    couplings become alpha*J + N(0, sigma), so the stored values are shifted
    by N(0, sigma)/alpha. Every stored coupling is perturbed, penalties and
    explicit zeros included, then every field. sigma = 0 returns the problem
    unchanged without consuming draws.
    """
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    if sigma == 0:
        return p
    dv = rng.normal(0.0, sigma, size=p.values.shape) / p.alpha
    dh = rng.normal(0.0, sigma, size=p.h.shape) / p.alpha
    return IsingProblem(
        n=p.n, h=p.h + dh, pairs=p.pairs, values=p.values + dv, alpha=p.alpha
    )


# ---------------------------------------------------------------------------
# the sweep kernel


def _ring_members(active: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Cluster membership of the seed slice on each periodic bond ring.

    ``active[b, k]`` marks an activated bond between slices k and k+1 mod K.
    Segments are labeled by counting inactive bonds left of each slice; the
    seed's segment is selected, and the wrap bond K-1 -> 0 merges the first
    and last segments when active.
    """
    Bn, K = active.shape
    comp = np.zeros((Bn, K), dtype=np.int32)
    np.cumsum(~active[:, :-1], axis=1, out=comp[:, 1:])
    seed_comp = comp[np.arange(Bn), seed]
    member = comp == seed_comp[:, None]
    if K > 1:
        wrap = active[:, -1]
        last_comp = comp[:, -1]
        member |= ((wrap & (seed_comp == 0))[:, None]) & (comp == last_comp[:, None])
        member |= ((wrap & (seed_comp == last_comp))[:, None]) & (comp == 0)
    return member


class _Lattice:
    """Preprocessed problem arrays for the sweep kernel.

    Small problems use dense coupling rows (one BLAS gemv per site update);
    large sparse ones gather neighbor slices instead.
    """

    def __init__(self, p: IsingProblem):
        self.n = p.n
        self.h = p.h
        self.alpha = p.alpha
        idx, val = p.neighbor_lists()
        self.nbr_idx = idx
        self.nbr_val = val
        self.active_sites = [
            i for i in range(p.n) if idx[i].size or p.h[i] != 0.0
        ]
        self.dense_rows = p.dense_couplings() if p.n <= 128 else None


def _sweep(S, lat: _Lattice, p_bond: float, coup_scale: float, rng: np.random.Generator):
    """One full sweep: per active site in index order, one ring-cluster update.

    The state S has layout (n, batch, K) so per-site slices are contiguous.
    All randomness for the sweep is drawn up front in site-major order.
    """
    _, Bn, K = S.shape
    ns = len(lat.active_sites)
    bond_u = rng.random((ns, Bn, K))
    seeds = rng.integers(0, K, size=(ns, Bn))
    accept_u = rng.random((ns, Bn))
    S2 = S.reshape(S.shape[0], Bn * K)
    for a, i in enumerate(lat.active_sites):
        spins = S[i]
        idx = lat.nbr_idx[i]
        if not idx.size:
            X = np.full((Bn, K), lat.h[i])
        elif lat.dense_rows is not None:
            X = (lat.dense_rows[i] @ S2).reshape(Bn, K)
            if lat.h[i] != 0.0:
                X += lat.h[i]
        else:
            X = np.tensordot(lat.nbr_val[i], S[idx], axes=(0, 0))
            if lat.h[i] != 0.0:
                X += lat.h[i]
        aligned = np.empty((Bn, K), dtype=bool)
        np.equal(spins[:, 1:], spins[:, :-1], out=aligned[:, :-1])
        np.equal(spins[:, 0], spins[:, -1], out=aligned[:, -1])
        active = aligned & (bond_u[a] < p_bond)
        member = _ring_members(active, seeds[a])
        dE = -2.0 * coup_scale * np.einsum("bk,bk,bk->b", spins, X, member)
        accept = accept_u[a] < np.exp(-np.clip(dE, -700.0, 700.0))
        flip = member & accept[:, None]
        np.multiply(spins, np.where(flip, -1.0, 1.0), out=spins)


def _init_state(n: int, K: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """K Trotter replicas of a uniformly random spin vector, per anneal."""
    base = (rng.integers(0, 2, size=(batch, n)) * 2 - 1).astype(np.float64)
    return np.repeat(base.T[:, :, None], K, axis=2)


def _anneal_batch(
    p: IsingProblem,
    sch: Schedule,
    params: SqaParams,
    n_anneals: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run a batch of anneals; returns final slice-0 configurations (B, n)."""
    lat = _Lattice(p)
    K = params.trotter_slices
    S = _init_state(p.n, K, n_anneals, rng)
    for t in range(1, params.sweeps + 1):
        s = t / params.sweeps
        p_bond = 1.0 - np.tanh(params.beta * sch.a_of(s) / K)
        coup_scale = params.beta * sch.b_of(s) * lat.alpha / K
        _sweep(S, lat, p_bond, coup_scale, rng)
    return S[:, :, 0].T.astype(np.int8)


def run_sqa(
    p: IsingProblem,
    sch: Schedule,
    params: SqaParams,
    n_anneals: int,
) -> SampleSet:
    """Anneal ``n_anneals`` independent runs and record final states.

    Deterministic: identical (problem, schedule, params, n_anneals) give a
    byte-identical sample set.
    """
    if n_anneals < 1:
        raise DomainError("n_anneals must be >= 1")
    rng = np.random.default_rng(params.seed)
    configs = _anneal_batch(p, sch, params, n_anneals, rng)
    cyc = CycleRecord(
        cycle=0,
        gauge=np.ones(p.n, dtype=np.int8),
        permutation=np.arange(p.n, dtype=np.int64),
        seed=params.seed,
    )
    return SampleSet(
        configs=configs,
        cycle_ids=np.zeros(n_anneals, dtype=np.int64),
        cycles=(cyc,),
        problem_digest=p.digest(),
    )


def run_sqa_chain(
    p: IsingProblem,
    sch: Schedule,
    params: SqaParams,
    n_chains: int,
    n_records: int,
    thin: int = 1,
    burn_in: int = 0,
    s_freeze: float = 1.0,
) -> np.ndarray:
    """Sample the fixed-schedule-point Gibbs chain (for equilibrium checks).

    Freezes the schedule at ``s_freeze`` and records slice 0 of every chain
    every ``thin`` sweeps after ``burn_in``. Returns (n_chains * n_records, n).
    """
    lat = _Lattice(p)
    K = params.trotter_slices
    rng = np.random.default_rng(params.seed)
    S = _init_state(p.n, K, n_chains, rng)
    p_bond = 1.0 - np.tanh(params.beta * sch.a_of(s_freeze) / K)
    coup_scale = params.beta * sch.b_of(s_freeze) * lat.alpha / K
    out = np.empty((n_records, n_chains, p.n), dtype=np.int8)
    for t in range(burn_in):
        _sweep(S, lat, p_bond, coup_scale, rng)
    for r in range(n_records):
        for t in range(thin):
            _sweep(S, lat, p_bond, coup_scale, rng)
        out[r] = S[:, :, 0].T.astype(np.int8)
    return out.reshape(n_records * n_chains, p.n)


# ---------------------------------------------------------------------------
# the programming-cycle protocol


def cycle_anneal_seed(master_seed: int, cycle: int) -> int:
    """Anneal-stream seed for one programming cycle of a protocol run."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(cycle, 1))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _cycle_setup_rng(master_seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(cycle, 0))
    )


#: fresh permutations tried per cycle before an embedding counts as unusable
_EMBED_RETRIES = 10


def run_protocol_cycle(
    np_prob: NestedProblem,
    emb: Embedding | None,
    sch: Schedule,
    params: SqaParams,
    runs: int,
    cycle: int,
    graph: ChimeraGraph | None = None,
) -> tuple[np.ndarray, CycleRecord]:
    """One programming cycle: permute, embed, add noise, gauge, anneal.

    Draw order within the cycle's setup stream is fixed: permutation, then
    coupler noise, then gauge. Recorded configurations have the gauge undone.
    """
    if emb is not None and graph is None:
        raise DomainError("embedded protocol runs need the hardware graph")
    setup = _cycle_setup_rng(params.seed, cycle)
    for _ in range(_EMBED_RETRIES):
        perm = random_permutation(np_prob.n_nested, setup)
        permuted = permute_nested(np_prob, perm)
        if emb is None:
            phys_problem = permuted.nested
            break
        try:
            phys_problem = apply_embedding(permuted, emb, graph).problem
            break
        except InvalidEmbedding:
            pass
    else:
        raise EmbeddingNotFound(
            f"embedding invalid after {_EMBED_RETRIES} permutation retries in cycle {cycle}"
        )

    noisy = sample_noise(phys_problem, params.noise_sigma, setup)
    gauge = (setup.integers(0, 2, size=noisy.n) * 2 - 1).astype(np.int8)
    programmed = apply_gauge(noisy, gauge)

    aseed = cycle_anneal_seed(params.seed, cycle)
    configs = _anneal_batch(
        programmed, sch, replace(params, seed=aseed), runs, np.random.default_rng(aseed)
    )
    configs = (configs * gauge).astype(np.int8)
    rec = CycleRecord(cycle=cycle, gauge=gauge, permutation=perm, seed=aseed)
    return configs, rec


def assemble_sampleset(
    np_prob: NestedProblem,
    emb: Embedding | None,
    parts: list[tuple[np.ndarray, CycleRecord]],
    graph: ChimeraGraph | None = None,
) -> SampleSet:
    """Stack per-cycle ``(configs, CycleRecord)`` pairs into one sample set.

    The digest is that of the unpermuted, noise-free programmed problem:
    the nested problem itself, or its compilation onto ``graph``.
    """
    if emb is None:
        reference = np_prob.nested
    else:
        if graph is None:
            raise DomainError("embedded protocol runs need the hardware graph")
        reference = apply_embedding(np_prob, emb, graph).problem
    return SampleSet(
        configs=np.vstack([configs for configs, _ in parts]),
        cycle_ids=np.concatenate(
            [np.full(configs.shape[0], rec.cycle, dtype=np.int64) for configs, rec in parts]
        ),
        cycles=tuple(rec for _, rec in parts),
        problem_digest=reference.digest(),
    )


def run_protocol(
    np_prob: NestedProblem,
    emb: Embedding | None,
    sch: Schedule,
    params: SqaParams,
    cycles: int,
    runs_per_cycle: int,
    graph: ChimeraGraph | None = None,
) -> SampleSet:
    """Run ``cycles`` programming cycles of ``runs_per_cycle`` anneals each.

    Per cycle a fresh noise realization, gauge and nested-vertex permutation
    are drawn (the permutation re-enters the embedding step, so physically
    distinguishable chains are reassigned). Statistics over cycles are the
    basis for success-probability error bars.
    """
    if cycles < 1:
        raise DomainError("cycles must be >= 1")
    parts = [
        run_protocol_cycle(np_prob, emb, sch, params, runs_per_cycle, c, graph=graph)
        for c in range(cycles)
    ]
    return assemble_sampleset(np_prob, emb, parts, graph=graph)
