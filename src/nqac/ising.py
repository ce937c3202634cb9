"""Ising problems on weighted graphs: energies, exact ground states, gauge and
scale transforms, and the JSON problem file format.

Conventions used throughout the package:

* spins are +-1 integers, vertices are dense indices ``0..n-1``;
* the stored fields ``h`` and couplings ``J`` are never premultiplied by the
  overall scale ``alpha``; ``alpha`` is applied when energies are evaluated or
  a Hamiltonian is programmed into a sampler, so penalty couplings added later
  keep a fixed stored magnitude while ``alpha`` is scanned.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import CapacityExceeded, DimensionMismatch, DomainError

#: exhaustive enumeration refuses anything above this size
BRUTE_FORCE_MAX_N = 24

#: two energies within this absolute tolerance count as degenerate; fixture
#: couplings are multiples of 0.1 so true gaps are far above this
GROUND_ATOL = 1e-9

_ENUM_CHUNK = 1 << 18


def as_spins(s, n: int | None = None) -> np.ndarray:
    """Validate a spin configuration and return it as an int8 +-1 vector."""
    arr = np.asarray(s)
    if arr.ndim != 1:
        raise DimensionMismatch(f"spin configuration must be 1-d, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatch(f"expected {n} spins, got {arr.shape[0]}")
    arr = arr.astype(np.int8)
    if arr.size and not np.all(np.abs(arr) == 1):
        raise DomainError("spin entries must be exactly +1 or -1")
    return arr


@dataclass(frozen=True)
class IsingProblem:
    """A weighted-graph Ising problem with an overall energy scale.

    Parameters
    ----------
    n : int
        Number of vertices.
    h : ndarray, shape (n,)
        Local fields.
    pairs : ndarray, shape (m, 2)
        Coupled vertex pairs, normalized to ``i < j``, unique, sorted.
    values : ndarray, shape (m,)
        Coupling values aligned with ``pairs``.
    alpha : float
        Overall energy scale, ``alpha > 0``; applied at evaluation time.
    """

    n: int
    h: np.ndarray
    pairs: np.ndarray
    values: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("vertex count must be non-negative")
        if not 0 < self.alpha < np.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        h = np.asarray(self.h, dtype=np.float64).reshape(-1)
        if h.shape != (self.n,):
            raise DimensionMismatch(f"h has shape {h.shape}, expected ({self.n},)")
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if pairs.shape[0] != values.shape[0]:
            raise DimensionMismatch("pairs and values length mismatch")
        if not (np.isfinite(h).all() and np.isfinite(values).all()):
            raise DomainError("fields and couplings must be finite")
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= self.n:
                raise DomainError("coupling endpoint out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise DomainError("self-couplings (i,i) are not allowed")
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            order = np.lexsort((hi, lo))
            pairs = np.column_stack([lo[order], hi[order]])
            values = values[order]
            if np.any((np.diff(pairs[:, 0]) == 0) & (np.diff(pairs[:, 1]) == 0)):
                raise DomainError("each unordered pair may be stored at most once")
        for arr in (h, pairs, values):
            arr.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "alpha", float(self.alpha))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_couplings(
        cls,
        n: int,
        couplings: Mapping[tuple[int, int], float] | None = None,
        h: Mapping[int, float] | Iterable[float] | None = None,
        alpha: float = 1.0,
    ) -> "IsingProblem":
        """Build a problem from a ``{(i, j): J}`` mapping and optional fields."""
        hvec = np.zeros(n, dtype=np.float64)
        if h is not None:
            if isinstance(h, Mapping):
                for i, v in h.items():
                    hvec[int(i)] = float(v)
            else:
                hvec = np.asarray(list(h), dtype=np.float64)
        couplings = couplings or {}
        pairs = np.array([[i, j] for (i, j) in couplings], dtype=np.int64).reshape(-1, 2)
        values = np.array([couplings[k] for k in couplings], dtype=np.float64)
        return cls(n=n, h=hvec, pairs=pairs, values=values, alpha=alpha)

    # -- views -------------------------------------------------------------

    def coupling_dict(self) -> dict[tuple[int, int], float]:
        return {(int(i), int(j)): float(v) for (i, j), v in zip(self.pairs, self.values)}

    def dense_couplings(self) -> np.ndarray:
        """Symmetric (n, n) coupling matrix with zero diagonal."""
        J = np.zeros((self.n, self.n), dtype=np.float64)
        if self.pairs.size:
            J[self.pairs[:, 0], self.pairs[:, 1]] = self.values
            J[self.pairs[:, 1], self.pairs[:, 0]] = self.values
        return J

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (vertex, neighbor, value) entry of the couplings, two per
        pair, sorted by vertex and, at one vertex, in pair order: one stable
        argsort of the (pair, endpoint) entries."""
        ends = self.pairs.reshape(-1)
        order = np.argsort(ends, kind="stable")
        return ends[order], self.pairs[:, ::-1].reshape(-1)[order], self.values.repeat(2)[order]

    def neighbor_lists(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-vertex neighbor indices and coupling values (for sweep kernels),
        each vertex's in pair order."""
        vertex, neighbor, value = self.adjacency()
        ends = np.cumsum(np.bincount(vertex, minlength=self.n)).tolist()
        spans = list(zip([0] + ends[:-1], ends))
        return [neighbor[a:b] for a, b in spans], [value[a:b] for a, b in spans]

    def digest(self) -> str:
        """SHA-256 hex digest of the canonical JSON form."""
        blob = json.dumps(problem_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# operations


def energy(p: IsingProblem, s) -> float:
    """Energy ``alpha * (sum_i h_i s_i + sum_(i,j) J_ij s_i s_j)``."""
    sv = as_spins(s, p.n).astype(np.float64)
    e = float(p.h @ sv)
    if p.values.size:
        e += float(np.sum(p.values * sv[p.pairs[:, 0]] * sv[p.pairs[:, 1]]))
    return p.alpha * e


def energies(p: IsingProblem, S: np.ndarray) -> np.ndarray:
    """Vectorized energies for a (batch, n) array of +-1 spins."""
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[1] != p.n:
        raise DimensionMismatch(f"expected (batch, {p.n}) spins, got {S.shape}")
    e = S @ p.h
    if p.values.size:
        e += (S[:, p.pairs[:, 0]] * S[:, p.pairs[:, 1]]) @ p.values
    return p.alpha * e


def apply_gauge(p: IsingProblem, g) -> IsingProblem:
    """Conjugate the problem by a sign vector: ``h_i -> g_i h_i``,
    ``J_ij -> g_i g_j J_ij``.

    The spectrum is preserved under the companion map ``s -> g * s``.
    """
    gv = as_spins(g, p.n).astype(np.float64)
    new_h = p.h * gv
    new_values = p.values * gv[p.pairs[:, 0]] * gv[p.pairs[:, 1]] if p.values.size else p.values
    return IsingProblem(n=p.n, h=new_h, pairs=p.pairs, values=new_values, alpha=p.alpha)


def rescale(p: IsingProblem, alpha: float) -> IsingProblem:
    """Return a copy with the overall scale replaced; stored h, J untouched."""
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return replace(p, alpha=float(alpha))


def _configs_from_codes(codes: np.ndarray, n: int) -> np.ndarray:
    bits = (codes[:, None] >> np.arange(n)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def brute_force_ground(p: IsingProblem) -> tuple[float, np.ndarray]:
    """Exhaustively enumerate all 2^n configurations.

    Returns the minimal energy and an array of shape (g, n) holding every
    configuration within ``GROUND_ATOL`` of it, in enumeration order
    (integer code ascending, bit i = spin i).
    """
    if p.n > BRUTE_FORCE_MAX_N:
        raise CapacityExceeded(f"n={p.n} exceeds exhaustive limit {BRUTE_FORCE_MAX_N}")
    if p.n == 0:
        return 0.0, np.zeros((1, 0), dtype=np.int8)
    total = 1 << p.n
    Ju = np.zeros((p.n, p.n), dtype=np.float64)
    if p.pairs.size:
        Ju[p.pairs[:, 0], p.pairs[:, 1]] = p.values
    best = np.inf
    found: list[np.ndarray] = []
    for start in range(0, total, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        S = _configs_from_codes(codes, p.n)
        Sf = S.astype(np.float64)
        e = p.alpha * (Sf @ p.h + np.einsum("bi,ij,bj->b", Sf, Ju, Sf))
        lo = float(e.min())
        if lo < best - GROUND_ATOL:
            best = lo
            found = [S[e <= best + GROUND_ATOL]]
        elif lo <= best + GROUND_ATOL:
            found.append(S[e <= best + GROUND_ATOL])
    states = np.vstack(found)
    # the running minimum may have dropped after earlier chunks were kept
    keep = energies(p, states) <= best + GROUND_ATOL
    return best, states[keep]


# ---------------------------------------------------------------------------
# JSON problem file format:
#   { "n": int, "h": {"i": float}, "J": {"i,j": float}, "alpha": float }


def problem_to_dict(p: IsingProblem) -> dict:
    return {
        "n": p.n,
        "h": {str(i): float(v) for i, v in enumerate(p.h) if v != 0.0},
        "J": {f"{int(i)},{int(j)}": float(v) for (i, j), v in zip(p.pairs, p.values)},
        "alpha": p.alpha,
    }


def problem_from_dict(d: Mapping) -> IsingProblem:
    unknown = sorted(set(d) - {"n", "h", "J", "alpha"})
    if unknown:
        raise DomainError(f"unknown problem keys {unknown}; a problem has n, h, J and alpha")
    n = d["n"]
    if type(n) is not int:
        raise DomainError(f"n must be an integer, got {n!r}")
    h_items = {int(k): float(v) for k, v in d.get("h", {}).items()}
    j_items = {}
    for k, v in d.get("J", {}).items():
        i, j = (int(t) for t in str(k).split(","))
        j_items[(i, j)] = float(v)
    labels = set(h_items) | {i for ij in j_items for i in ij}
    # fixture files may carry 1-based labels; a label equal to n is definitive
    if labels and max(labels) == n:
        h_items = {i - 1: v for i, v in h_items.items()}
        j_items = {(i - 1, j - 1): v for (i, j), v in j_items.items()}
    return IsingProblem.from_couplings(
        n, couplings=j_items, h=h_items, alpha=float(d.get("alpha", 1.0))
    )


def save_problem(p: IsingProblem, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(p), indent=2, sort_keys=True))


def load_problem(path) -> IsingProblem:
    return problem_from_dict(json.loads(Path(path).read_text()))
