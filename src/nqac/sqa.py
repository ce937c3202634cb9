"""Discrete-time path-integral simulated quantum annealing.

The quantum transverse-field model at schedule point s,

    H(s) = A(s) * (-sum_i sigma^x_i) + B(s) * alpha * H_stored,

is mapped onto K coupled replicas ("Trotter slices") of the classical spin
vector. Per sweep the schedule advances uniformly (s = t/sweeps) and every
spatial site is updated once: a Wolff cluster is grown along the site's
periodic Trotter ring, where the bond between two aligned neighbor slices
stays active unless it breaks, which it does with probability

    q(s) = exp(-2 * beta * Jperp(s) / K) = tanh(beta * A(s) / K),

where Jperp(s) = -(K / (2 beta)) * ln tanh(beta * A(s) / K) is the standard
ferromagnetic time-direction coupling (A is never rescaled by alpha; only the
problem term is). The cluster flip is accepted by Metropolis on the spatial
action change, with per-slice spatial couplings beta * B(s) * alpha * J / K.
At A(s) = 0 no bond breaks, the ring locks into a single cluster and the
dynamics reduces to classical Metropolis sampling. q is computed as a tanh,
not as one minus the active probability, which would round small q to 0.

Anneals run as one vectorized stack of U units that share n, K, sweeps, beta
and schedule; each unit is a batch of anneals of its own problem, with its
own fields and alpha (a per-unit coupling scale), on its own generator. A lone
batch is a stack of one. Each sweep, unit by unit, draws from the unit's
generator, in this order:

- the broken bonds among its N = n * batch * K bonds, in row-major order
  over (site, anneal, bond): the gap from one break to the next (the first
  counts from position -1) is G = 1 + floor(E / lambda), with E a standard
  exponential and lambda = -log1p(-q), a geometric variate by inversion
  (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X). The
  exponentials come in chunks of M = min(int(N q + 4 sqrt(N q) + 16), 2^14)
  until the gaps sum to N or more, and the last chunk's surplus is discarded.
  E / lambda is clipped at N before the integer cast, so a q as small as
  1e-300 cannot overflow; q = 0 draws nothing, and q = 1 (tanh saturated,
  lambda = inf) breaks every bond;
- seed slices (n, batch);
- acceptance uniforms (n, batch).

M and these shapes depend only on (N, q) and the unit, so a unit's stream
follows neither the state's layout nor the stack, and its samples are the
same in any stack. At the q of an anneal (0.0125 and below at beta = 0.1, A
up to 8 and K = 64) a ring draws about one exponential where it drew K
uniforms; at q near 0.3 and above the gaps cost more than one uniform per
bond did.

The rings are bit-packed (multi-spin coding; Jacobs & Rebbi, J. Comput.
Phys. 41, 203 (1981)). A ring is W words: one word of the smallest unsigned
type holding K bits for K <= 64, ceil(K / 64) uint64 words above. The state
has layout (n, W, U, batch); slice k is bit k % 64 of word k // 64, and a set
bit is spin -1. Bond k joins slices k and k+1 mod K and is broken where they
differ or it broke; each drawn break sets its bit of the unit's break words
by ``np.add.at``. The cluster grown from the seed slice is the circular
interval (l, r], where r is the first broken bond at or after the seed and l
the last one before it, both wrapping; with at most one broken bond it is the
whole ring. With m the cluster mask, the Metropolis exponent is

    2 * coup_scale * [sum_j J_ij (|m| - 2 popcount((s_i xor s_j) & m))
                      + h_i (|m| - 2 popcount(s_i & m))],

and the flip is one xor of m. A site update thus handles W words per ring
where one float per slice takes K numbers; the cluster rule is that of one
float per slice. Cluster sizes and popcount sums are int32, so K is not
limited by the counts.

A site update carries tens of microseconds of fixed NumPy overhead whatever
its size, so units join a stack while U * batch * W stays at or below
STACK_RING_WORDS = 2^12 ring words per site row (``stack_size``). Per
spin-slice update on one core (nested K4 with coupler noise at n = 8, 24 and
48, K = 8, batch 32, four sweeps with their setup, median of five) that
measured 83-115 ns at 256 words, 54-94 ns at 1024, 45-89 ns at 4096 and
43-91 ns at 8192 and 16384. Batches of 1000 anneals (n = 8, 12 and 48) measured
29-48 ns alone and 18-42 ns at 4000 words with K = 8, and 8-11 ns alone and
7-12 ns at 4000 words with K = 64; at 8000 words n = 48 slowed again (13 ns
at K = 64). Batches of 1000 anneals therefore stack by four.

``SqaParams`` holds the knobs every entry point reads; seeds and coupler
noise are arguments. ``run_protocol`` samples a whole grid of points, each a
nested problem with its embedding and seed, in programming cycles with
noise. Its (point, cycle) units, in order, anneal in stacks of consecutive
units whose points share a problem size and an embedding, at most
``stack_size`` units each, and ``jobs > 1`` maps the stacks over worker
processes. A unit programs and anneals on streams of its point's seed and
its cycle, so its samples depend neither on its stack nor on the worker
count.

A programming cycle permutes the nested vertices before it compiles them, so
an embedded run needs an embedding in which every pair of chains is adjacent:
an embedding of the complete graph on all nested vertices. The embedding
carries its hardware graph, so nothing here takes one.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby
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
    """Annealer knobs, read by every SQA entry point (seeds and coupler noise
    are arguments); the defaults, which the CLI reads too, follow the protocol
    this package reproduces (10^4 sweeps, 64 slices, beta = 0.1)."""

    sweeps: int = 10_000
    trotter_slices: int = 64
    beta: float = 0.1

    def __post_init__(self):
        if self.trotter_slices < 2:
            raise DomainError("need at least 2 Trotter slices")
        if self.sweeps < 1:
            raise DomainError("sweeps must be >= 1")
        if not self.beta > 0:
            raise DomainError("beta must be positive")


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

#: the most ring words (units x anneals x words per ring) in one site row of a
#: stacked anneal; see the module docstring for the measurement behind it
STACK_RING_WORDS = 2**12


def _ring_layout(K: int) -> tuple[np.dtype, int]:
    """Word type and words per ring for K Trotter slices: one word of the
    smallest unsigned type holding K bits up to K = 64, ceil(K / 64) uint64
    words above."""
    if K <= 64:
        return np.min_scalar_type((1 << K) - 1), 1
    return np.dtype(np.uint64), -(-K // 64)


class _Rings:
    """The bit-packed Trotter rings of a stack, ``bits`` in layout
    (n, W, U, batch). Slice k of a ring is bit k % 64 of word k // 64, a set
    bit is spin -1, and the bits past slice K - 1 stay clear.

    ``down`` (n, U, batch) marks the spins that start at -1 on every slice.
    """

    def __init__(self, K: int, down: np.ndarray):
        self.K = K
        dtype, W = _ring_layout(K)
        self.width = 8 * dtype.itemsize
        self.full = np.array([(1 << min(self.width, K - w * self.width)) - 1 for w in range(W)],
                             dtype=dtype)[:, None, None]
        self.bits = np.where(down[:, None], self.full, dtype.type(0))

    def slice0(self) -> np.ndarray:
        """Slice 0 of every ring as spins, (n, U, batch) int8."""
        return 1 - 2 * (self.bits[:, 0] & 1).astype(np.int8)

    def add_breaks(self, words: np.ndarray, pos: np.ndarray) -> None:
        """Set the bits of the broken bonds at positions ``pos`` of one unit's
        (n, batch, K) bonds, in row-major order, in its break words ``words``
        (n * batch * W,), laid out (n, batch, W). The positions are distinct,
        so adding a bit sets it; the bit values are built in the word type,
        so bit 63 is exact."""
        row = pos // self.K
        k = pos - row * self.K
        W = self.full.shape[0]
        if W > 1:
            row *= W
            row += k >> 6
            k &= 63
        np.add.at(words, row, self.bits.dtype.type(1) << k.astype(self.bits.dtype))

    def clusters(self, breaks: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Cluster masks (n, W, U, batch) of every ring, from the drawn break
        words and the seed slices (n, U, batch).

        Bond k joins slices k and k+1 mod K; it is broken where those slices
        differ or bit k of ``breaks`` is set. The cluster is the circular
        interval (p, q]: q is the first broken bond at or after the seed, p
        the last one before it, both wrapping; with at most one broken bond
        it is the whole ring.
        """
        b, width, W = self.bits, self.width, self.bits.shape[1]
        rot = b >> 1  # bit k of rot is slice k + 1 mod K
        rot[:, :-1] |= b[:, 1:] << (width - 1)
        rot[:, -1:] |= (b[:, :1] & 1) << ((self.K - 1) % width)
        broken = (b ^ rot) | breaks
        # the broken bonds at or after the seed; word w holds slices from
        # width * w, and one word needs no clip (slow on int64)
        if W == 1:
            shift = seeds[:, None]
        else:
            shift = np.clip(seeds[:, None] - width * np.arange(W)[:, None, None], 0, width)
        hi = broken & (self.full << shift.astype(b.dtype))
        lo = broken ^ hi
        hi_any = hi.any(axis=1, keepdims=True)
        lo_any = lo.any(axis=1, keepdims=True)
        # slices 0..q, where x's lowest set bit is q (all slices when x = 0)
        x = hi | broken * ~hi_any
        through_q = x ^ (x - 1)
        for w in range(1, W):
            through_q[:, w] *= ~x[:, :w].any(axis=1)
        # slices 0..p, where y's highest set bit is p (none when y = 0)
        through_p = lo | hi * ~lo_any
        sh = 1
        while sh < width:
            through_p |= through_p >> sh
            sh *= 2
        for w in range(W - 1):
            through_p[:, w] |= through_p[:, w + 1:].any(axis=1) * ~b.dtype.type(0)
        # p < q: the slices p+1..q; otherwise the interval wraps and takes
        # the complement of q+1..p
        m = through_q ^ through_p
        m ^= self.full * (hi_any != lo_any)
        m &= self.full
        return m


def _count(words: np.ndarray) -> np.ndarray:
    """Set bits per ring: (n, W, U, batch) words to (n, U, batch) int32."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int32)


def _breaks(N: int, q: float, rng: np.random.Generator):
    """Yield, chunk by chunk, the sorted positions in [0, N) of independent
    breaks of probability q.

    The gap to the next break is G = 1 + floor(E / lambda), with E standard
    exponential and lambda = -log1p(-q), so P(G = g) = (1 - q)^(g - 1) q.
    Chunks of M exponentials are drawn until the sum of gaps reaches N, and
    the last chunk's surplus is discarded. M is the mean number of breaks,
    about four standard deviations of it and 16 more, so one chunk almost always
    covers the N bonds, but at most 2^14, which keeps a chunk's arrays in
    cache and its memory bounded. E / lambda is clipped at N before the
    integer cast; q = 0 draws nothing and q = 1 (lambda = inf) breaks every
    bond.
    """
    if q == 0.0:
        return
    lam = math.inf if q == 1.0 else -math.log1p(-q)
    M = min(int(N * q + 4.0 * math.sqrt(N * q) + 16), 2**14)
    end = 0
    while end < N:
        e = rng.standard_exponential(M)
        np.divide(e, lam, out=e)
        np.minimum(e, N, out=e)
        pos = e.astype(np.int64)
        pos += 1
        np.cumsum(pos, out=pos)
        pos += end - 1
        end = int(pos[-1]) + 1
        yield pos[:np.searchsorted(pos, N)] if end > N else pos


class _Lattice:
    """Preprocessed arrays of a stack of U problems that share n.

    Each unit keeps its own alpha (U,), fields ``h`` (n, U, 1), None where no
    unit has one, and coupling sums ``coupling_sum`` (n, U, 1) per site.
    ``sites[i]`` groups the units by their degree D at site i, one (units,
    neighbors (U_g, D), coupling values (U_g, 1, D)) triple per degree;
    ``units`` is a slice over the whole stack when all units share D.
    """

    def __init__(self, problems: list[IsingProblem]):
        self.n = problems[0].n
        h = np.array([p.h for p in problems])
        self.h = h.T[:, :, None] if h.any() else None
        self.alpha = np.array([p.alpha for p in problems])
        lists = [p.neighbor_lists() for p in problems]
        self.sites = []
        self.coupling_sum = np.zeros((self.n, len(problems), 1))
        for i in range(self.n):
            degree = np.array([len(idx[i]) for idx, _ in lists])
            groups = []
            for D in np.unique(degree):
                idx = np.flatnonzero(degree == D)
                nbr = np.array([lists[u][0][i] for u in idx]).reshape(idx.size, D)
                val = np.array([lists[u][1][i] for u in idx]).reshape(idx.size, 1, D)
                groups.append((slice(None) if idx.size == len(problems) else idx, nbr, val))
                self.coupling_sum[i, idx] = val.sum(axis=2)
            self.sites.append(groups)


def _sweep(S: _Rings, lat: _Lattice, q: float, coup_scale: np.ndarray,
           rngs: list[np.random.Generator]):
    """One full sweep of a stack: per site in index order, one ring-cluster
    update of every ring of every unit.

    A bond breaks with probability ``q`` = tanh(beta A(s) / K), and
    ``coup_scale`` holds one scale per unit. Unit u draws the sweep's
    randomness from ``rngs[u]`` up front, in the order and shapes the module
    docstring fixes. Every site is updated, so a problem should hold only the
    spins it samples (an embedded one holds its chain qubits; see
    ``apply_embedding``).

    A site's ring changes only at its own update, so every cluster, its size
    |m| and the exponent's terms that need no neighbor, |m| sum_j J_ij and
    the field's, are found for all sites before the site loop. There, one
    matrix product per group of units with the same degree weighs the
    neighbors' disagreements, popcount((s_i xor s_j) & m), with -2 J_ij. No
    neighbor list is padded, so a unit's sums are the ones it gets alone.
    """
    n, W, U, Bn = S.bits.shape
    K = S.K
    breaks = np.zeros((U, n * Bn * W), S.bits.dtype)
    seeds = np.empty((n, U, Bn), dtype=np.int64)
    accept_u = np.empty((U, n, Bn))
    for u, rng in enumerate(rngs):
        for pos in _breaks(n * Bn * K, q, rng):
            S.add_breaks(breaks[u], pos)
        seeds[:, u] = rng.integers(0, K, size=(n, Bn))
        rng.random((n, Bn), out=accept_u[u])
    m = S.clusters(breaks.reshape(U, n, Bn, W).transpose(1, 3, 0, 2), seeds)
    # Metropolis on the spatial action change of the cluster flip, with
    # x = -dE = 2 coup_scale * [sum_j J_ij (|m| - 2 popcount((s_i xor s_j) & m))
    #                           + h_i (|m| - 2 popcount(s_i & m))]
    scale = 2.0 * coup_scale[:, None]
    size = _count(m)
    base = size * lat.coupling_sum
    if lat.h is not None:
        base += lat.h * (size - 2 * _count(S.bits & m))
    base *= scale
    weight = -2.0 * scale[:, :, None]
    bits = S.bits.transpose(0, 2, 1, 3)  # a view, (n, U, W, batch)
    masks = m.transpose(0, 2, 1, 3)
    units = np.arange(U)[:, None]
    x = np.empty((U, Bn))
    for i, groups in enumerate(lat.sites):
        for us, nbr, val in groups:
            # (U_g, D, W, batch): the neighbors' rings, unit by unit
            disagree = bits[nbr, units[us]]
            disagree ^= bits[i, us, None]
            disagree &= masks[i, us, None]
            count = np.bitwise_count(disagree)
            count = count[:, :, 0] if W == 1 else count.sum(axis=2, dtype=np.int32)
            x[us] = base[i, us] + np.matmul(val * weight[us], count.astype(np.float64))[:, 0]
        np.minimum(x, 700.0, out=x)
        np.maximum(x, -700.0, out=x)
        bits[i] ^= masks[i] * (accept_u[:, i] < np.exp(x, out=x))[:, None]


def _init_state(n: int, K: int, batch: int, rngs: list[np.random.Generator]) -> _Rings:
    """K Trotter replicas of a uniformly random spin vector, per anneal of
    each unit; unit u draws from ``rngs[u]``."""
    down = np.array([rng.integers(0, 2, size=(batch, n)).T == 0 for rng in rngs])
    return _Rings(K, down.transpose(1, 0, 2))


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
        q = math.tanh(params.beta * sch.a_of(s) / K)
        coup_scale = params.beta * sch.b_of(s) * lat.alpha / K
        _sweep(S, lat, q, coup_scale, rngs)
    return S.slice0().transpose(1, 2, 0)


def run_sqa(
    p: IsingProblem,
    sch: Schedule,
    params: SqaParams,
    n_anneals: int,
    seed: int,
) -> SampleSet:
    """Anneal ``n_anneals`` independent runs of ``p`` as given, on one stream
    of ``seed``, and record final states.

    Deterministic: identical arguments give a byte-identical sample set.
    """
    if n_anneals < 1:
        raise DomainError("n_anneals must be >= 1")
    configs = _anneal_batch([p], sch, params, n_anneals, [np.random.default_rng(seed)])[0]
    return SampleSet.unprogrammed(configs, seed, p.digest())


def run_sqa_chain(
    p: IsingProblem,
    sch: Schedule,
    params: SqaParams,
    n_chains: int,
    n_records: int,
    seed: int,
    thin: int = 1,
    s_freeze: float = 1.0,
) -> np.ndarray:
    """Sample the fixed-schedule-point Gibbs chain (for equilibrium checks).

    Freezes the schedule at ``s_freeze``, burns in ``params.sweeps`` sweeps
    and then records slice 0 of every chain every ``thin`` sweeps, all on one
    stream of ``seed``. Returns (n_chains * n_records, n).
    """
    lat = _Lattice([p])
    K = params.trotter_slices
    rngs = [np.random.default_rng(seed)]
    S = _init_state(p.n, K, n_chains, rngs)
    q = math.tanh(params.beta * sch.a_of(s_freeze) / K)
    coup_scale = params.beta * sch.b_of(s_freeze) * lat.alpha / K
    out = np.empty((n_records, n_chains, p.n), dtype=np.int8)
    for t in range(params.sweeps):
        _sweep(S, lat, q, coup_scale, rngs)
    for r in range(n_records):
        for t in range(thin):
            _sweep(S, lat, q, coup_scale, rngs)
        out[r] = S.slice0()[:, 0].T
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
    """Units per stacked anneal: as many as keep units x runs x words per ring
    at or below ``STACK_RING_WORDS``, and at least one."""
    return max(1, STACK_RING_WORDS // (runs * _ring_layout(K)[1]))


def _anneal_stack(
    units: list[tuple[NestedProblem, int, int]],
    emb: Embedding | None,
    sch: Schedule,
    params: SqaParams,
    noise_sigma: float,
    runs: int,
) -> list[tuple[np.ndarray, CycleRecord]]:
    """Programming cycles annealed as one stack, ``runs`` anneals each.

    ``units`` holds (nested problem, seed, cycle) triples whose problems share
    a size. A unit is programmed by ``_program_cycle`` and anneals on its own
    stream, so its ``(configs, CycleRecord)`` pair does not depend on the
    stack it is in. Recorded configurations have the gauge undone.
    """
    programmed = [_program_cycle(np_prob, emb, noise_sigma, seed, cycle)
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


def run_protocol(
    points: list[tuple[NestedProblem, Embedding | None, int]],
    sch: Schedule,
    params: SqaParams,
    noise_sigma: float,
    cycles: int,
    runs_per_cycle: int,
    jobs: int = 1,
) -> list[SampleSet]:
    """Run ``cycles`` programming cycles of ``runs_per_cycle`` anneals at each
    of ``points``, (nested problem, embedding or None, seed) triples; returns
    one sample set per point, in order, carrying its ``programmed_digest``.

    Per cycle a fresh coupler-noise realization of ``noise_sigma`` (see
    ``sample_noise``), gauge and nested-vertex permutation are drawn (the
    permutation re-enters the embedding step, so physically distinguishable
    chains are reassigned). Statistics over cycles are the basis for
    success-probability error bars.

    The (point, cycle) units stack as the module docstring says, and
    ``jobs > 1`` maps the stacks over that many processes.
    """
    if cycles < 1 or runs_per_cycle < 1:
        raise DomainError("cycles and runs_per_cycle must be >= 1")
    digests = [programmed_digest(np_prob, emb) for np_prob, emb, _ in points]
    size = stack_size(params.trotter_slices, runs_per_cycle)
    stacks = []  # (units, embedding) per stack
    for _, group in groupby(points, key=lambda pt: (pt[0].n_nested, id(pt[1]))):
        group = list(group)
        units = [(np_prob, seed, c) for np_prob, _, seed in group for c in range(cycles)]
        stacks += [(units[i:i + size], group[0][1]) for i in range(0, len(units), size)]
    anneal = partial(_anneal_stack, sch=sch, params=params, noise_sigma=noise_sigma,
                     runs=runs_per_cycle)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(anneal, *zip(*stacks)))
    else:
        done = [anneal(*stack) for stack in stacks]
    parts = [part for stack in done for part in stack]  # (configs, record) per unit
    per_point = [parts[i:i + cycles] for i in range(0, len(parts), cycles)]
    cycle_ids = np.repeat(np.arange(cycles, dtype=np.int64), runs_per_cycle)
    return [SampleSet(configs=np.vstack([configs for configs, _ in mine]), cycle_ids=cycle_ids,
                      cycles=tuple(rec for _, rec in mine), problem_digest=digest)
            for mine, digest in zip(per_point, digests)]
