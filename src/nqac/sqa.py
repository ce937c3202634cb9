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
run index, so identical parameters and seed give identical sample sets. The
batch state is held slice-major, (n, K, batch), so a site update works on
contiguous (K, batch) rows. Each sweep draws, in this order, bond uniforms of
shape (n, batch, K), seed slices (n, batch) and acceptance uniforms
(n, batch); these shapes fix the random stream, so they do not follow the
state's layout.

A programming cycle permutes the nested vertices before it compiles them, so
an embedded run needs an embedding in which every pair of chains is adjacent:
an embedding of the complete graph on all nested vertices. The embedding
carries its hardware graph, so nothing here takes one.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chimera import Embedding, apply_embedding
from .errors import DomainError, ScheduleError
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
    explicit zeros included, then every field. For an embedded problem these
    are its programmed couplers (parallel zero couplers included) and the
    fields of its chain qubits; idle hardware qubits are not in the problem.
    sigma = 0 returns the problem unchanged without consuming draws.
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
        self.dense_rows = p.dense_couplings() if p.n <= 128 else None


def _sweep(S, lat: _Lattice, p_bond: float, coup_scale: float, rng: np.random.Generator):
    """One full sweep: per site in index order, one ring-cluster update.

    The state S has layout (n, K, batch), so each site update works on
    contiguous (K, batch) rows. All randomness for the sweep is drawn up
    front, site-major, in this order and these shapes: bond uniforms
    (n, batch, K), seed slices (n, batch), acceptance uniforms (n, batch).
    Every site is updated, so a problem should hold only the spins it samples
    (an embedded one holds its chain qubits; see ``apply_embedding``).

    Bond k joins slices k and k+1 mod K. A ring's segments are labeled by
    counting the broken bonds below each slice; the cluster is the seed
    slice's segment, joined across the wrap bond K-1 -> 0 with the segment on
    its other side when that bond is active.
    """
    n, K, Bn = S.shape
    no_bond = (rng.random((n, Bn, K)) >= p_bond).transpose(0, 2, 1).copy()
    seeds = rng.integers(0, K, size=(n, Bn))
    accept_u = rng.random((n, Bn))
    # Labels run up to K - 1. Each row is padded to whole 64-bit words, and
    # the running count along K adds a word of labels at a time; no label
    # overflows its lane, so no carry crosses lanes.
    label = np.min_scalar_type(K - 1)
    row = -(-Bn * label.itemsize // 8) * 8 // label.itemsize
    cut_w = np.zeros((K - 1, row), dtype=label).view(np.uint64)
    comp_w = np.zeros((K, row), dtype=label).view(np.uint64)
    cut = cut_w.view(label)[:, :Bn]
    comp = comp_w.view(label)[:, :Bn]
    seed_at = seeds * row + np.arange(Bn)
    S2 = S.reshape(n, K * Bn)
    scale = 2.0 * coup_scale
    for i in range(lat.n):
        spins = S[i]
        if lat.dense_rows is not None:
            X = (lat.dense_rows[i] @ S2).reshape(K, Bn)
        else:
            X = np.tensordot(lat.nbr_val[i], S[lat.nbr_idx[i]], axes=(0, 0))
        if lat.h[i] != 0.0:
            X += lat.h[i]
        np.not_equal(spins[1:], spins[:-1], out=cut)
        cut |= no_bond[i, :-1]
        np.add.accumulate(cut_w, axis=0, out=comp_w[1:])
        a = comp_w.view(label).take(seed_at[i])
        last = comp[-1]
        # an active wrap bond joins segment 0 and the last segment, so a seed
        # segment at either end takes in the other: label last - a
        end = (a == 0) | (a == last)
        end &= spins[0] == spins[-1]
        end &= ~no_bond[i, -1]
        member = comp == a
        member |= comp == a + end * (last - a - a)
        # Metropolis on the spatial action change of the cluster flip, with
        # x = -dE = 2 coup_scale * sum over the cluster of spins * X
        x = np.einsum("kb,kb,kb->b", spins, X, member)
        x *= scale
        np.minimum(x, 700.0, out=x)
        np.maximum(x, -700.0, out=x)
        member &= accept_u[i] < np.exp(x, out=x)
        spins *= 1 - 2 * member.view(np.int8)


def _init_state(n: int, K: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """K Trotter replicas of a uniformly random spin vector, per anneal;
    layout (n, K, batch)."""
    base = (rng.integers(0, 2, size=(batch, n)) * 2 - 1).astype(np.float64)
    return np.repeat(base.T[:, None, :], K, axis=1)


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
    return S[:, 0, :].T.astype(np.int8)


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
        out[r] = S[:, 0, :].T.astype(np.int8)
    return out.reshape(n_records * n_chains, p.n)


# ---------------------------------------------------------------------------
# the programming-cycle protocol


def unit_seed(master: int, *idx: int) -> int:
    """A 64-bit seed derived from a master seed and a tuple of indices."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _cycle_setup_rng(master_seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(cycle, 0))
    )


def run_protocol_cycle(
    np_prob: NestedProblem,
    emb: Embedding | None,
    sch: Schedule,
    params: SqaParams,
    runs: int,
    cycle: int,
) -> tuple[np.ndarray, CycleRecord]:
    """One programming cycle: permute, embed, add noise, gauge, anneal.

    Draw order within the cycle's setup stream is fixed: permutation, then
    coupler noise, then gauge. Recorded configurations have the gauge undone.
    An embedding that does not cover the permuted problem raises
    ``InvalidEmbedding``.
    """
    setup = _cycle_setup_rng(params.seed, cycle)
    perm = random_permutation(np_prob.n_nested, setup)
    permuted = permute_nested(np_prob, perm)
    phys_problem = permuted.nested if emb is None else apply_embedding(permuted, emb).problem

    noisy = sample_noise(phys_problem, params.noise_sigma, setup)
    gauge = (setup.integers(0, 2, size=noisy.n) * 2 - 1).astype(np.int8)
    programmed = apply_gauge(noisy, gauge)

    aseed = unit_seed(params.seed, cycle, 1)  # the cycle's anneal stream
    configs = _anneal_batch(
        programmed, sch, replace(params, seed=aseed), runs, np.random.default_rng(aseed)
    )
    configs = (configs * gauge).astype(np.int8)
    rec = CycleRecord(cycle=cycle, gauge=gauge, permutation=perm, seed=aseed)
    return configs, rec


def programmed_digest(np_prob: NestedProblem, emb: Embedding | None) -> str:
    """Digest of the unpermuted, noise-free programmed problem: the nested
    problem itself, or its compilation through ``emb``. Sample sets carry it."""
    if emb is None:
        return np_prob.nested.digest()
    return apply_embedding(np_prob, emb).problem.digest()


def assemble_sampleset(parts: list[tuple[np.ndarray, CycleRecord]], digest: str) -> SampleSet:
    """Stack per-cycle ``(configs, CycleRecord)`` pairs into one sample set
    that carries ``digest``, the ``programmed_digest`` of its grid point."""
    return SampleSet(
        configs=np.vstack([configs for configs, _ in parts]),
        cycle_ids=np.concatenate(
            [np.full(configs.shape[0], rec.cycle, dtype=np.int64) for configs, rec in parts]
        ),
        cycles=tuple(rec for _, rec in parts),
        problem_digest=digest,
    )


def run_protocol(
    np_prob: NestedProblem,
    emb: Embedding | None,
    sch: Schedule,
    params: SqaParams,
    cycles: int,
    runs_per_cycle: int,
) -> SampleSet:
    """Run ``cycles`` programming cycles of ``runs_per_cycle`` anneals each.

    Per cycle a fresh noise realization, gauge and nested-vertex permutation
    are drawn (the permutation re-enters the embedding step, so physically
    distinguishable chains are reassigned). Statistics over cycles are the
    basis for success-probability error bars.
    """
    if cycles < 1:
        raise DomainError("cycles must be >= 1")
    parts = [run_protocol_cycle(np_prob, emb, sch, params, runs_per_cycle, c)
             for c in range(cycles)]
    return assemble_sampleset(parts, programmed_digest(np_prob, emb))
