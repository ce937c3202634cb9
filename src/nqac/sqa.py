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
Phys. 41, 203 (1981)). A ring is one word of the smallest unsigned type
holding its K <= 64 bits. The state has layout (n, U, batch); slice k is bit
k, and a set bit is spin -1. Bond k joins slices k and k+1 mod K and is
broken where they differ or it broke; each drawn break sets its bit of the
unit's break words by ``np.add.at``. The cluster grown from the seed slice
is the circular interval (l, r], where r is the first broken bond at or
after the seed and l the last one before it, both wrapping; with at most one
broken bond it is the whole ring. With m the cluster mask, the Metropolis
exponent is

    2 * coup_scale * [sum_j J_ij (|m| - 2 popcount((s_i xor s_j) & m))
                      + h_i (|m| - 2 popcount(s_i & m))],

and the flip is one xor of m. A site update thus handles one word per ring
where one float per slice takes K numbers; the cluster rule is that of one
float per slice. Cluster sizes and popcount sums are counted exactly in
float64.

A sweep allocates no array shaped like the stack. ``_Stack`` holds the
stack's rings, break words, seed slices, acceptance uniforms, exponent terms
and cluster work words, and when the stack is built it lays out, per level
of sites that share no coupling (see ``_Stack``), the rows its sites' and
their neighbors' words are gathered from and the per-group arrays, as views
of one buffer per kind; every NumPy call then writes with ``out=``.
The counts are cast once into float64 and multiplied in place, the same
IEEE operations in the same order as the int32 x float64 products they
replace. What a sweep still allocates are each unit's break chunks (at most
2^14 positions each) and its seed-slice draw. When every sweep allocated and
freed (n, U, batch) arrays, of up to 384 KB at n = 12 with four 1000-anneal
units, the allocator returned their pages and the next sweep faulted them in
again: a run of the benchmark's ``sqa_nested`` config took about 78,600
minor page faults and 0.10-0.28 s of system time, where it takes about 3,250
and 0.004-0.04 s now (``tools/sqa_cost.py faults``).

The sites are updated level by level (``_Stack``), all sites of a level at
once, so the NumPy calls of a sweep scale with its levels rather than with
n. A complete graph, every unembedded nested problem, has n one-site levels.
Chain qubits, of degree 4-6 on Chimera, share few: the choi K4 embeddings at
C = 1, 2 and 3 take 2, 4 and 6 levels for 8, 24 and 48 qubits, and bundled
``k8_harder`` at C = 3 takes 12 for 168. On those K4 stacks as the
``sqa_embedded`` benchmark anneals them (four 32-anneal units, K = 8, ten
sweeps, programming included), ``tools/sqa_cost.py stacks`` measured 47.1,
21.1 and 15.3 ns per qubit-slice update at C = 1, 2 and 3, where the sweep
of one site at a time measured 59.4, 33.5 and 25.7 ns (medians of four
alternating runs on one core of a shared 2-core host).

A level update is still some twenty NumPy calls whatever its size, so units
join a stack while U * batch stays at or below STACK_RING_WORDS = 2^12
ring words per site row (``stack_size``). Per spin-slice update on one core
(nested K4 at alpha 0.1 and gamma 0.5 with coupler noise 0.05, device
schedule, 25 sweeps, beta 0.1, programming included; the median of three
runs of ``tools/sqa_cost.py stacks``, each the median of ten interleaved
repetitions), one, two and four units of 1000 anneals measured 6.6, 5.8 and
5.2 ns at K = 8 and n = 12 (7.3, 6.1 and 5.4 at n = 8), and at K = 64 1.34,
1.12 and 1.01 ns at n = 4, 1.27, 1.14 and 1.09 at n = 8 and 1.37, 1.28 and
1.28 at n = 12. The kernel that allocated per sweep lost with every larger
stack at K = 64 (1.92, 2.02 and 2.25 ns at n = 12, one run).
Whole runs of 1000-anneal units at K = 8 (5 alphas x 2 gammas x 2 cycles at
n = 4, 8 and 12) gave byte-identical outputs at 1000, 4096, 8192 and 40000
words. Batches of 1000 anneals therefore stack by four.

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
from .nesting import NestedProblem, permute_nested
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
    this package reproduces (10^4 sweeps, 64 slices, beta = 0.1). A ring of 2
    to 64 slices is one word."""

    sweeps: int = 10_000
    trotter_slices: int = 64
    beta: float = 0.1

    def __post_init__(self):
        if not 2 <= self.trotter_slices <= 64:
            raise DomainError(f"trotter_slices must be in [2, 64], got {self.trotter_slices}")
        if self.sweeps < 1:
            raise DomainError("sweeps must be >= 1")
        if not 0 < self.beta < math.inf:
            raise DomainError(f"beta must be positive and finite, got {self.beta}")


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

#: the most ring words (units x anneals) in one site row of a stacked anneal;
#: see the module docstring for the measurement behind it
STACK_RING_WORDS = 2**12


class _Stack:
    """A stack of U problems that share n, ``batch`` anneals each: the
    bit-packed Trotter rings, what every sweep reads of the problems, and the
    work arrays the sweeps write in place, all built once.

    The rings ``bits`` (n, U, batch) start as K replicas of a uniformly random
    spin vector per anneal, unit u drawing from ``rngs[u]``. Slice k of a
    ring is bit k of its word, a set bit is spin -1, and the bits past slice
    K - 1 stay clear. Each unit keeps its alpha (U,), fields ``h``
    (n, U, 1), None where no unit has one, and coupling sums
    ``coupling_sum`` (n, U, 1). The work arrays are the unit-major break
    words ``breaks`` (U, n batch), the seed slices ``seeds`` (n, U, batch) in
    the word type, the acceptance uniforms ``accept`` (U, n, batch), the
    float64 exponent terms ``base`` and ``field`` (n, U, batch; ``field`` is
    None without fields), six arrays of words and three of flags shaped like
    ``bits``.

    The sweep visits the sites by level. Site i's level is 1 + the largest
    level of its neighbors j < i in any unit, 0 without one, so no two sites
    of a level are coupled, and updating a level at once gives the rings the
    index-order sweep gives. A complete graph has n one-site levels in index
    order. ``levels`` holds, per level in sweep order, (groups, rows, accept
    rows, rings, masks, exponents, acceptance uniforms, accepted bool,
    flips), the last six (R, batch) over the level's R (site, unit) rows.
    ``rows`` indexes those among the rows of ``bits`` seen as (n U, batch),
    sorted by degree. When they are one site's rows in unit order, ``accept
    rows`` is None and the six arrays are views of that site's state; for
    any other level, ``accept rows`` indexes ``accept`` seen as (U n, batch)
    and the sweep gathers the level's rings, masks, exponents and uniforms
    into the six arrays and writes its rings back. The rows of one degree D
    form a group, one slice of the level: (units, neighbor rows (R_g, D),
    couplings (R_g, 1, D), neighbors (R_g, D, batch), own rings and masks
    (R_g, 1, batch), counts (R_g, D, batch) float64, weighted couplings
    (R_g, 1, D), sums (R_g, 1, batch), exponents (R_g, batch)). ``units``
    picks the rows' units, as a slice for a site's rows in unit order and
    as indices otherwise. Rows without a neighbor form no group. Levels and
    groups are swept one at a time, so the arrays of every level and of
    every group are views of one buffer per kind.
    """

    def __init__(self, problems: list[IsingProblem], K: int, batch: int,
                 rngs: list[np.random.Generator]):
        n, U = problems[0].n, len(problems)
        self.K = K
        dtype = np.min_scalar_type((1 << K) - 1)
        self.full = dtype.type((1 << K) - 1)
        down = np.array([rng.integers(0, 2, size=(batch, n)).T == 0 for rng in rngs])
        # C-contiguous, so the row gathers of ``_sweep`` read it through a reshape
        self.bits = np.ascontiguousarray(
            np.where(down.transpose(1, 0, 2), self.full, dtype.type(0)))
        self.alpha = np.array([p.alpha for p in problems])
        h = np.array([p.h for p in problems])
        self.h = h.T[:, :, None] if h.any() else None
        self.breaks = np.empty((U, n * batch), dtype)
        self.seeds = np.empty((n, U, batch), dtype)
        self.accept = np.empty((U, n, batch))
        self.base = np.empty((n, U, batch))
        self.field = None if self.h is None else np.empty_like(self.base)
        self.words = np.empty((6, n, U, batch), dtype)
        self.flags = np.empty((3, n, U, batch), dtype=bool)

        # every coupling entry of every unit, by (site, unit) row of the state
        # seen as (n U, batch), a row's entries in its problem's pair order
        tables = [p.adjacency() for p in problems]
        unit = np.repeat(np.arange(U), [site.size for site, _, _ in tables])
        site, nbr, val = (np.concatenate(parts) for parts in zip(*tables))
        row = site * U + unit
        by_row = np.argsort(row, kind="stable")
        nbr_rows, val = (nbr * U + unit)[by_row], val[by_row]
        degree = np.bincount(row, minlength=n * U)
        start = np.cumsum(degree) - degree
        # site i's level: 1 + the largest level of its neighbors j < i in any
        # unit, 0 without one; a pass of the loop settles one more level
        later, earlier = site[nbr < site], nbr[nbr < site]
        level = np.zeros(n, np.intp)
        while True:
            rise = np.zeros(n, np.intp)
            np.maximum.at(rise, later, level[earlier] + 1)
            if np.array_equal(rise, level):
                break
            level = rise
        # the rows by level, and by degree within a level
        row_level = level.repeat(U)
        plan = np.lexsort((degree, row_level))
        plan_level, plan_degree = row_level[plan], degree[plan]

        def spans(keys):  # the runs of equal keys, as (first, end)
            cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
            return list(zip([0] + cuts, cuts + [keys.size])) if keys.size else []

        self.coupling_sum = np.zeros((n, U, 1))
        sums_of = self.coupling_sum.reshape(n * U)
        layout = []  # per level: its rows, and (first, end, D, neighbors, couplings) per group
        for a, z in spans(plan_level):
            rows, groups = plan[a:z], []
            for ga, gz in spans(plan_degree[a:z]):
                D = plan_degree[a + ga]
                if D:
                    entries = start[rows[ga:gz]][:, None] + np.arange(D)
                    couplings = val[entries][:, None]
                    sums_of[rows[ga:gz]] = couplings.sum(axis=2)[:, 0]
                    groups.append((ga, gz, D, nbr_rows[entries], couplings))
            layout.append((rows, groups))

        def views(dtype, shapes):
            flat = np.empty(max((math.prod(s) for s in shapes), default=0), dtype)
            return iter([flat[:math.prod(s)].reshape(s) for s in shapes])

        dims = [(gz - ga, D) for _, groups in layout for ga, gz, D, _, _ in groups]
        gathered = views(dtype, [(Rg, D, batch) for Rg, D in dims])
        counts = views(np.float64, [(Rg, D, batch) for Rg, D in dims])
        weighted = views(np.float64, [(Rg, 1, D) for Rg, D in dims])
        sums = views(np.float64, [(Rg, 1, batch) for Rg, _ in dims])
        # one site's rows in unit order are views of the state; any other
        # level's rows are gathered into these
        gathers = [rows.size != U or not np.array_equal(rows, np.arange(rows[0], rows[0] + U))
                   for rows, _ in layout]
        spread = [(rows.size, batch) for (rows, _), gather in zip(layout, gathers) if gather]
        level_words = [views(dtype, spread) for _ in range(3)]
        level_floats = [views(np.float64, spread) for _ in range(2)]
        level_flags = views(bool, spread)
        self.levels = []
        for (rows, groups), gather in zip(layout, gathers):
            if gather:
                units = rows % U
                accept_rows = units * n + rows // U
                rings, masks, flips = (next(w) for w in level_words)
                x, accept = (next(f) for f in level_floats)
                accepted = next(level_flags)
            else:
                i, units, accept_rows = rows[0] // U, None, None
                rings, masks, flips = self.bits[i], self.words[5, i], self.words[0, 0]
                x, accept, accepted = self.base[i], self.accept[:, i], self.flags[0, i]
            self.levels.append((
                [(slice(ga, gz) if units is None else units[ga:gz], idx, couplings,
                  next(gathered), rings[ga:gz, None], masks[ga:gz, None], next(counts),
                  next(weighted), next(sums), x[ga:gz]) for ga, gz, _, idx, couplings in groups],
                rows, accept_rows, rings, masks, x, accept, accepted, flips))

    def slice0(self) -> np.ndarray:
        """Slice 0 of every ring as spins, (n, U, batch) int8."""
        return 1 - 2 * (self.bits & 1).astype(np.int8)

    def add_breaks(self, words: np.ndarray, pos: np.ndarray) -> None:
        """Set the bits of the broken bonds at positions ``pos`` of one unit's
        (n, batch, K) bonds, in row-major order, in its break words ``words``
        (n * batch,): bond k of ring r is bit k of word r. The positions are
        distinct, so adding a bit sets it; the bit values are built in the
        word type, so bit 63 is exact. ``pos`` is overwritten."""
        dtype = self.bits.dtype
        ring = pos // self.K
        np.remainder(pos, self.K, out=pos)  # the bond's bit in its ring's word
        # int64 and uint64 hold a bit number alike
        bit = pos.view(dtype) if dtype.itemsize == pos.itemsize else pos.astype(dtype)
        np.add.at(words, ring, np.left_shift(dtype.type(1), bit, out=bit))

    def clusters(self, breaks: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Cluster masks (n, U, batch) of every ring, from the drawn break
        words and the seed slices, both (n, U, batch).

        Bond k joins slices k and k+1 mod K; it is broken where those slices
        differ or bit k of ``breaks`` is set. The cluster is the circular
        interval (p, q]: q is the first broken bond at or after the seed, p
        the last one before it, both wrapping; with at most one broken bond
        it is the whole ring. The masks are written to work array 5, which
        the next sweep overwrites.
        """
        b = self.bits
        tmp, broken, hi, lo, x, m = self.words
        hi_any, lo_any, flag = self.flags
        np.right_shift(b, 1, out=tmp)  # bit k of tmp is slice k + 1 mod K
        np.bitwise_and(b, 1, out=broken)
        broken <<= self.K - 1
        tmp |= broken
        np.bitwise_xor(b, tmp, out=broken)
        broken |= breaks
        # the broken bonds at or after the seed
        np.left_shift(self.full, seeds, out=hi)
        hi &= broken
        np.bitwise_xor(broken, hi, out=lo)
        np.not_equal(hi, 0, out=hi_any)
        np.not_equal(lo, 0, out=lo_any)
        # slices 0..q, where x's lowest set bit is q (all slices when x = 0)
        np.invert(hi_any, out=flag)
        np.multiply(broken, flag, out=x)
        x |= hi
        np.subtract(x, 1, out=m)
        m ^= x  # slices 0..q
        # slices 0..p, where y's highest set bit is p (none when y = 0)
        np.invert(lo_any, out=flag)
        np.multiply(hi, flag, out=x)
        x |= lo
        sh = 1
        while sh < 8 * b.itemsize:
            np.right_shift(x, sh, out=tmp)
            x |= tmp
            sh *= 2
        # p < q: the slices p+1..q; otherwise the interval wraps and takes
        # the complement of q+1..p
        m ^= x
        np.not_equal(hi_any, lo_any, out=flag)
        np.multiply(self.full, flag, out=tmp)
        m ^= tmp
        m &= self.full
        return m


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
        del e  # a chunk holds one array while its breaks are set
        pos += 1
        np.cumsum(pos, out=pos)
        pos += end - 1
        end = int(pos[-1]) + 1
        yield pos[:np.searchsorted(pos, N)] if end > N else pos


def _sweep(S: _Stack, q: float, coup_scale: np.ndarray, rngs: list[np.random.Generator]):
    """One full sweep of a stack: level by level (see ``_Stack``), one
    ring-cluster update of every ring of every unit, which leaves the rings
    as a sweep over the sites in index order does.

    A bond breaks with probability ``q`` = tanh(beta A(s) / K), and
    ``coup_scale`` holds one scale per unit. Unit u draws the sweep's
    randomness from ``rngs[u]`` up front, in the order and shapes the module
    docstring fixes. Every site is updated, so a problem should hold only the
    spins it samples (an embedded one holds its chain qubits; see
    ``apply_embedding``).

    A site's ring changes only at its own update, so every cluster, its size
    |m| and the exponent's terms that need no neighbor, |m| sum_j J_ij and
    the field's, are found for all sites before the level loop. There, for
    each (site, unit) row of a group of rows of one degree, one (1, D) @
    (D, batch) matrix product weighs the neighbors' disagreements,
    popcount((s_i xor s_j) & m), with -2 J_ij. No neighbor list is padded
    or reordered, so a unit's sums are the ones it gets alone. Every array
    written is one of ``S``'s work arrays (``S.levels``); ``x``, a level's
    exponents, is its rows of ``base``, a view for one site's rows in unit
    order and a gathered copy otherwise.
    """
    n, U, Bn = S.bits.shape
    K = S.K
    S.breaks.fill(0)
    for u, rng in enumerate(rngs):
        for pos in _breaks(n * Bn * K, q, rng):
            S.add_breaks(S.breaks[u], pos)
        # uint32 draws the int64 stream's numbers, in half the bytes
        S.seeds[:, u] = rng.integers(0, K, size=(n, Bn), dtype=np.uint32)
        rng.random((n, Bn), out=S.accept[u])
    m = S.clusters(S.breaks.reshape(U, n, Bn).transpose(1, 0, 2), S.seeds)
    # Metropolis on the spatial action change of the cluster flip, with
    # x = -dE = 2 coup_scale * [sum_j J_ij (|m| - 2 popcount((s_i xor s_j) & m))
    #                           + h_i (|m| - 2 popcount(s_i & m))];
    # the counts are exact in float64, so base holds the terms the int32
    # counts gave, and x the same sums
    scale = 2.0 * coup_scale[:, None]
    base = S.base
    np.bitwise_count(m, out=base)  # |m|
    if S.h is not None:
        field = S.field
        np.bitwise_count(np.bitwise_and(S.bits, m, out=S.words[0]), out=field)
        field *= -2.0
        field += base  # |m| - 2 popcount(s_i & m)
        field *= S.h
    base *= S.coupling_sum
    if S.h is not None:
        base += field
    base *= scale
    weight = -2.0 * scale[:, :, None]
    rows = S.bits.reshape(n * U, Bn)
    mask_rows, base_rows = m.reshape(n * U, Bn), base.reshape(n * U, Bn)
    accept_rows = S.accept.reshape(U * n, Bn)
    for groups, at, accept_at, rings, masks, x, accept, accepted, flips in S.levels:
        if accept_at is not None:
            rows.take(at, axis=0, out=rings, mode="clip")
            mask_rows.take(at, axis=0, out=masks, mode="clip")
            base_rows.take(at, axis=0, out=x, mode="clip")
            accept_rows.take(accept_at, axis=0, out=accept, mode="clip")
        for units, idx, val, disagree, own, mask, count, vw, total, xg in groups:
            # (R_g, D, batch): the neighbors' rings, row by row
            rows.take(idx, axis=0, out=disagree, mode="clip")
            disagree ^= own
            disagree &= mask
            np.bitwise_count(disagree, out=count)
            np.matmul(np.multiply(val, weight[units], out=vw), count, out=total)
            xg += total[:, 0]
        np.minimum(x, 700.0, out=x)
        np.maximum(x, -700.0, out=x)
        np.less(accept, np.exp(x, out=x), out=accepted)
        rings ^= np.multiply(masks, accepted, out=flips)
        if accept_at is not None:
            rows[at] = rings


def _anneal_batch(
    problems: list[IsingProblem],
    sch: Schedule,
    params: SqaParams,
    n_anneals: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Anneal a stack of problems that share n, ``n_anneals`` runs each, unit u
    on ``rngs[u]``; returns final slice-0 configurations (U, B, n)."""
    K = params.trotter_slices
    S = _Stack(problems, K, n_anneals, rngs)
    for t in range(1, params.sweeps + 1):
        s = t / params.sweeps
        q = math.tanh(params.beta * sch.a_of(s) / K)
        coup_scale = params.beta * sch.b_of(s) * S.alpha / K
        _sweep(S, q, coup_scale, rngs)
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
    K = params.trotter_slices
    rngs = [np.random.default_rng(seed)]
    S = _Stack([p], K, n_chains, rngs)
    q = math.tanh(params.beta * sch.a_of(s_freeze) / K)
    coup_scale = params.beta * sch.b_of(s_freeze) * S.alpha / K
    out = np.empty((n_records, n_chains, p.n), dtype=np.int8)
    for t in range(params.sweeps):
        _sweep(S, q, coup_scale, rngs)
    for r in range(n_records):
        for t in range(thin):
            _sweep(S, q, coup_scale, rngs)
        out[r] = S.slice0()[:, 0].T
    return out.reshape(n_records * n_chains, p.n)


# ---------------------------------------------------------------------------
# the programming-cycle protocol


def unit_seed(master: int, *idx: int) -> int:
    """A 64-bit seed derived from a master seed and a tuple of indices."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _program_cycle(
    np_prob: NestedProblem, emb: Embedding | None, noise_sigma: float, seed: int, cycle: int
) -> tuple[IsingProblem, CycleRecord]:
    """One cycle's programmed problem and record: permute, embed, add noise,
    gauge, drawn in that order from the cycle's setup stream. An embedding that
    does not cover the permuted problem raises ``InvalidEmbedding``."""
    setup = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(cycle, 0)))
    perm = setup.permutation(np_prob.n_nested).astype(np.int64)
    permuted = permute_nested(np_prob, perm)
    phys_problem = permuted.nested if emb is None else apply_embedding(permuted, emb).problem

    noisy = sample_noise(phys_problem, noise_sigma, setup)
    gauge = (setup.integers(0, 2, size=noisy.n) * 2 - 1).astype(np.int8)
    aseed = unit_seed(seed, cycle, 1)  # the cycle's anneal stream
    return apply_gauge(noisy, gauge), CycleRecord(cycle=cycle, gauge=gauge, permutation=perm,
                                                  seed=aseed)


def stack_size(runs: int) -> int:
    """Units per stacked anneal: as many as keep units x runs ring words at
    or below ``STACK_RING_WORDS``, and at least one."""
    return max(1, STACK_RING_WORDS // runs)


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
    size = stack_size(runs_per_cycle)
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
