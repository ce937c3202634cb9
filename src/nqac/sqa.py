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

Anneals run as one vectorized stack of U units that share n, K, sweeps, beta
and schedule; each unit is a batch of anneals of its own problem, with its
own fields and alpha (a per-unit coupling scale), on its own generator. A lone
batch is a stack of one. The state is held slice-major, (n, U, K, batch), so
a site update works on contiguous (U, K, batch) rows: the local fields are one
stacked gemv, np.matmul((U, 1, n), (U, n, K * batch)), and ring labelling,
cluster and Metropolis run elementwise over the leading U axis. Each sweep,
unit by unit, draws from the unit's generator, in this order, bond uniforms
of shape (n, batch, K), seed slices (n, batch) and acceptance uniforms
(n, batch); these shapes fix each unit's stream, so they follow neither the
state's layout nor the stack, and a unit's samples are the same in any stack.

A site update costs tens of microseconds of fixed NumPy overhead whatever
its size, so units join a stack while U * K * batch stays at or below
STACK_SPIN_SLICES = 2^12 spin-slices per site row (``stack_size``). Per
spin-slice update on one core (n = 8, 24, 48, K = 8, batch 32) that measured
208-283 ns at 256 spin-slices, 67-92 ns at 1024 and 36-65 ns at 4096; past
4096 only n = 8 gains, and n = 48 slows again (58-75 ns at 8192 and 16384).
Batches of 1000 anneals stay stacks of one.

A programming cycle permutes the nested vertices before it compiles them, so
an embedded run needs an embedding in which every pair of chains is adjacent:
an embedding of the complete graph on all nested vertices. The embedding
carries its hardware graph, so nothing here takes one.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
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

#: the most spin-slices (units x Trotter slices x anneals) in one site row of
#: a stacked anneal; see the module docstring for the measurement behind it
STACK_SPIN_SLICES = 2**12


class _Lattice:
    """Preprocessed arrays of a stack of U problems that share n.

    Each unit keeps its own alpha (U,) and fields; ``fields[i]`` holds site
    i's fields as (U, 1, 1), or None where no unit has one. Small problems use
    dense coupling rows (U, n, n), one stacked BLAS gemv per site update;
    large sparse ones gather neighbor slices from per-unit lists instead.
    """

    def __init__(self, problems: list[IsingProblem]):
        self.n = problems[0].n
        self.fields = [h[:, None, None] if h.any() else None
                       for h in np.array([p.h for p in problems]).T]
        self.alpha = np.array([p.alpha for p in problems])
        self.nbrs = [p.neighbor_lists() for p in problems]
        self.dense_rows = (np.array([p.dense_couplings() for p in problems])
                           if self.n <= 128 else None)


def _sweep(S, lat: _Lattice, p_bond: float, coup_scale: np.ndarray,
           rngs: list[np.random.Generator]):
    """One full sweep of a stack: per site in index order, one ring-cluster
    update of every ring of every unit.

    The state S has layout (n, U, K, batch); ``coup_scale`` holds one scale
    per unit. Unit u draws the sweep's randomness from ``rngs[u]`` up front,
    in the order and shapes the module docstring fixes. Every site is updated,
    so a problem should hold only the spins it samples (an embedded one holds
    its chain qubits; see ``apply_embedding``).

    Bond k joins slices k and k+1 mod K. A ring's segments are labeled by
    counting the broken bonds below each slice; the cluster is the seed
    slice's segment, joined across the wrap bond K-1 -> 0 with the segment on
    its other side when that bond is active.
    """
    n, U, K, Bn = S.shape
    # Labels run up to K - 1. Each row is padded to whole 64-bit words, and
    # the running count along K adds a word of labels at a time; no label
    # overflows its lane, so no carry crosses lanes.
    label = np.min_scalar_type(K - 1)
    row = -(-Bn * label.itemsize // 8) * 8 // label.itemsize
    no_bond = np.empty((n, U, K, Bn), dtype=bool)
    seed_at = np.empty((U, n, Bn), dtype=np.int64)  # seed slices, as flat indices of labels
    accept_u = np.empty((U, n, Bn))
    for u, rng in enumerate(rngs):
        no_bond[:, u] = (rng.random((n, Bn, K)) >= p_bond).transpose(0, 2, 1)
        np.multiply(rng.integers(0, K, size=(n, Bn)), row, out=seed_at[u])
        rng.random((n, Bn), out=accept_u[u])
    seed_at += np.arange(U)[:, None, None] * (K * row) + np.arange(Bn)
    cut_w = np.zeros((U, K - 1, row), dtype=label).view(np.uint64)
    comp_w = np.zeros((U, K, row), dtype=label).view(np.uint64)
    cut = cut_w.view(label)[..., :Bn]
    comp = comp_w.view(label)[..., :Bn]
    units = S.transpose(1, 0, 2, 3).reshape(U, n, K * Bn)  # a view: unit u's (n, K*batch)
    scale = 2.0 * coup_scale[:, None]
    for i in range(lat.n):
        spins = S[i]
        if lat.dense_rows is not None:
            X = np.matmul(lat.dense_rows[:, i, None], units).reshape(U, K, Bn)
        else:
            X = np.array([np.tensordot(val[i], S[idx[i], u], axes=(0, 0))
                          for u, (idx, val) in enumerate(lat.nbrs)])
        if lat.fields[i] is not None:
            X += lat.fields[i]
        np.not_equal(spins[:, 1:], spins[:, :-1], out=cut)
        cut |= no_bond[i, :, :-1]
        np.add.accumulate(cut_w, axis=1, out=comp_w[:, 1:])
        a = comp_w.view(label).take(seed_at[:, i])
        last = comp[:, -1]
        # an active wrap bond joins segment 0 and the last segment, so a seed
        # segment at either end takes in the other: label last - a
        end = (a == 0) | (a == last)
        end &= spins[:, 0] == spins[:, -1]
        end &= ~no_bond[i, :, -1]
        member = comp == a[:, None]
        member |= comp == (a + end * (last - a - a))[:, None]
        # Metropolis on the spatial action change of the cluster flip, with
        # x = -dE = 2 coup_scale * sum over the cluster of spins * X
        x = np.einsum("ukb,ukb,ukb->ub", spins, X, member)
        x *= scale
        np.minimum(x, 700.0, out=x)
        np.maximum(x, -700.0, out=x)
        member &= (accept_u[:, i] < np.exp(x, out=x))[:, None]
        spins *= 1 - 2 * member.view(np.int8)


def _init_state(n: int, K: int, batch: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """K Trotter replicas of a uniformly random spin vector, per anneal of
    each unit; unit u draws from ``rngs[u]``. Layout (n, U, K, batch)."""
    base = np.array([(rng.integers(0, 2, size=(batch, n)) * 2 - 1).T for rng in rngs],
                    dtype=np.float64)
    return np.repeat(base.transpose(1, 0, 2)[:, :, None, :], K, axis=2)


def _anneal_batch(
    problems: list[IsingProblem],
    sch: Schedule,
    params: SqaParams,
    n_anneals: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Anneal a stack of problems that share n, ``n_anneals`` runs each, unit u
    on ``rngs[u]``; returns final slice-0 configurations (U, B, n)."""
    lat = _Lattice(problems)
    K = params.trotter_slices
    S = _init_state(lat.n, K, n_anneals, rngs)
    for t in range(1, params.sweeps + 1):
        s = t / params.sweeps
        p_bond = 1.0 - np.tanh(params.beta * sch.a_of(s) / K)
        coup_scale = params.beta * sch.b_of(s) * lat.alpha / K
        _sweep(S, lat, p_bond, coup_scale, rngs)
    return S[:, :, 0, :].transpose(1, 2, 0).astype(np.int8)


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
    configs = _anneal_batch([p], sch, params, n_anneals, [rng])[0]
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
    lat = _Lattice([p])
    K = params.trotter_slices
    rngs = [np.random.default_rng(params.seed)]
    S = _init_state(p.n, K, n_chains, rngs)
    p_bond = 1.0 - np.tanh(params.beta * sch.a_of(s_freeze) / K)
    coup_scale = params.beta * sch.b_of(s_freeze) * lat.alpha / K
    out = np.empty((n_records, n_chains, p.n), dtype=np.int8)
    for t in range(burn_in):
        _sweep(S, lat, p_bond, coup_scale, rngs)
    for r in range(n_records):
        for t in range(thin):
            _sweep(S, lat, p_bond, coup_scale, rngs)
        out[r] = S[:, 0, 0, :].T.astype(np.int8)
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


def _program_cycle(
    np_prob: NestedProblem, emb: Embedding | None, noise_sigma: float, seed: int, cycle: int
) -> tuple[IsingProblem, CycleRecord]:
    """One cycle's programmed problem and record: permute, embed, add noise,
    gauge, drawn in that order from the cycle's setup stream. An embedding that
    does not cover the permuted problem raises ``InvalidEmbedding``."""
    setup = _cycle_setup_rng(seed, cycle)
    perm = random_permutation(np_prob.n_nested, setup)
    permuted = permute_nested(np_prob, perm)
    phys_problem = permuted.nested if emb is None else apply_embedding(permuted, emb).problem

    noisy = sample_noise(phys_problem, noise_sigma, setup)
    gauge = (setup.integers(0, 2, size=noisy.n) * 2 - 1).astype(np.int8)
    aseed = unit_seed(seed, cycle, 1)  # the cycle's anneal stream
    return apply_gauge(noisy, gauge), CycleRecord(cycle=cycle, gauge=gauge, permutation=perm,
                                                  seed=aseed)


def stack_size(K: int, runs: int) -> int:
    """Units per stacked anneal: as many as keep units x K x runs at or below
    ``STACK_SPIN_SLICES``, and at least one."""
    return max(1, STACK_SPIN_SLICES // (K * runs))


def run_protocol_cycles(
    units: list[tuple[NestedProblem, int, int]],
    emb: Embedding | None,
    sch: Schedule,
    params: SqaParams,
    runs: int,
) -> list[tuple[np.ndarray, CycleRecord]]:
    """Programming cycles annealed as one stack, ``runs`` anneals each.

    ``units`` holds (nested problem, seed, cycle) triples whose problems share
    a size; each unit's seed replaces ``params.seed``. A unit is programmed by
    ``_program_cycle`` and anneals on its own stream, so its
    ``(configs, CycleRecord)`` pair does not depend on the stack it is in.
    Recorded configurations have the gauge undone.
    """
    programmed = [_program_cycle(np_prob, emb, params.noise_sigma, seed, cycle)
                  for np_prob, seed, cycle in units]
    configs = _anneal_batch([p for p, _ in programmed], sch, params, runs,
                            [np.random.default_rng(rec.seed) for _, rec in programmed])
    return [((c * rec.gauge).astype(np.int8), rec) for c, (_, rec) in zip(configs, programmed)]


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
    units = [(np_prob, params.seed, c) for c in range(cycles)]
    size = stack_size(params.trotter_slices, runs_per_cycle)
    parts = [part for i in range(0, cycles, size)
             for part in run_protocol_cycles(units[i:i + size], emb, sch, params, runs_per_cycle)]
    return assemble_sampleset(parts, programmed_digest(np_prob, emb))
