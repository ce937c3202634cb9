"""Level-C nesting of an Ising problem onto a complete graph of encoded
copies, plus majority-vote decoding back to logical configurations.

Encoding a problem with N logical vertices at nesting level C produces an
Ising problem over C*N vertices in which

* every stored logical coupling J_ij appears in C^2 copies between the
  encoded tuples of i and j,
* every logical field h_i is boosted to C*h_i on each of the C copies,
* the C copies of each logical vertex are bound by C(C-1)/2 ferromagnetic
  penalty couplings of strength -gamma.

Penalties are stored unscaled; the overall problem scale ``alpha`` multiplies
the whole stored Hamiltonian at evaluation/programming time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, DomainError
from .ising import IsingProblem, as_spins, energy, problem_from_dict, problem_to_dict


@dataclass(frozen=True)
class NestedProblem:
    """A nested Ising problem together with its copy bookkeeping.

    ``copies[i, c]`` is the nested vertex index holding copy ``c`` of logical
    vertex ``i``; the map is a bijection onto ``0..C*N-1``.
    """

    base: IsingProblem
    C: int
    gamma: float
    nested: IsingProblem
    copies: np.ndarray

    def __post_init__(self):
        copies = np.asarray(self.copies, dtype=np.int64)
        if copies.shape != (self.base.n, self.C):
            raise DimensionMismatch(
                f"copies has shape {copies.shape}, expected {(self.base.n, self.C)}"
            )
        if self.nested.n != self.base.n * self.C:
            raise DimensionMismatch("nested problem has wrong vertex count")
        if np.unique(copies).size != self.nested.n:
            raise DomainError("copy map must be a bijection onto the nested vertices")
        copies.setflags(write=False)
        object.__setattr__(self, "copies", copies)

    @property
    def n_logical(self) -> int:
        return self.base.n

    @property
    def n_nested(self) -> int:
        return self.nested.n


def encode_nested(base: IsingProblem, C: int, gamma: float) -> NestedProblem:
    """Nest ``base`` at level ``C`` with penalty strength ``gamma``.

    ``gamma`` must be positive for C >= 2 and is ignored at C = 1 (a single
    copy has no penalty pairs). ``alpha`` is carried over unchanged and the
    stored penalties are not premultiplied by it.
    """
    if int(C) < 1:
        raise DomainError(f"nesting level must be >= 1, got {C}")
    C = int(C)
    if C > 1 and not gamma > 0:
        raise DomainError(f"penalty gamma must be positive for C >= 2, got {gamma}")
    N = base.n
    copies = np.arange(N * C, dtype=np.int64).reshape(N, C)

    h = np.zeros(N * C, dtype=np.float64)
    for i in range(N):
        h[copies[i]] = C * base.h[i]

    pairs = []
    values = []
    for (i, j), v in zip(base.pairs, base.values):
        for c in range(C):
            for cp in range(C):
                pairs.append((copies[i, c], copies[j, cp]))
                values.append(v)
    for i in range(N):
        for c in range(C):
            for cp in range(c + 1, C):
                pairs.append((copies[i, c], copies[i, cp]))
                values.append(-gamma)

    nested = IsingProblem(
        n=N * C,
        h=h,
        pairs=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        values=np.asarray(values, dtype=np.float64),
        alpha=base.alpha,
    )
    return NestedProblem(base=base, C=C, gamma=float(gamma), nested=nested, copies=copies)


def encode_for_scale(
    base: IsingProblem, C: int, gamma_device: float, alpha: float
) -> NestedProblem:
    """Encode at problem scale ``alpha`` with a fixed device-unit penalty.

    Scanning the problem scale leaves the programmed penalty untouched on
    hardware, but energy evaluation multiplies the whole stored Hamiltonian
    by ``alpha``; storing ``gamma_device / alpha`` therefore keeps the
    effective penalty at ``gamma_device`` for every scan point.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    from .ising import rescale

    scaled = rescale(base, alpha)
    if C == 1:
        return encode_nested(scaled, 1, 1.0)
    return encode_nested(scaled, C, gamma_device / alpha)


def lift_logical(np_prob: NestedProblem, s_logical) -> np.ndarray:
    """Lift a logical configuration to the aligned nested configuration."""
    s = as_spins(s_logical, np_prob.base.n)
    lifted = np.empty(np_prob.n_nested, dtype=np.int8)
    for i in range(np_prob.base.n):
        lifted[np_prob.copies[i]] = s[i]
    return lifted


def nested_energy_identity_check(
    np_prob: NestedProblem, s_logical
) -> tuple[float, float]:
    """Evaluate the aligned nested energy and its closed form.

    For the aligned lift of a logical configuration the nested energy equals
    ``C^2 * E_logical(s) - alpha * gamma * N * C(C-1)/2`` (the penalty term
    carries ``alpha`` because energy evaluation scales the whole stored
    Hamiltonian; the stored penalty itself is ``-gamma``).
    """
    C, N = np_prob.C, np_prob.base.n
    nested_e = energy(np_prob.nested, lift_logical(np_prob, s_logical))
    penalty = np_prob.base.alpha * np_prob.gamma * N * C * (C - 1) / 2.0 if C > 1 else 0.0
    predicted = C * C * energy(np_prob.base, s_logical) - penalty
    return nested_e, predicted


def permute_nested(np_prob: NestedProblem, perm) -> NestedProblem:
    """Relabel nested vertices by ``perm`` (old index -> new index).

    The energy spectrum is invariant; the copy map is composed with ``perm``
    so decoding keeps working.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = np_prob.n_nested
    if perm.shape != (n,) or np.unique(perm).size != n or perm.min() != 0 or perm.max() != n - 1:
        raise DomainError("perm must be a bijection on the nested vertices")
    nested = np_prob.nested
    new_h = np.empty_like(nested.h)
    new_h[perm] = nested.h
    new_pairs = perm[nested.pairs] if nested.pairs.size else nested.pairs
    new_nested = IsingProblem(
        n=n, h=new_h, pairs=new_pairs, values=nested.values, alpha=nested.alpha
    )
    return NestedProblem(
        base=np_prob.base,
        C=np_prob.C,
        gamma=np_prob.gamma,
        nested=new_nested,
        copies=perm[np_prob.copies],
    )


def logical_members(np_prob: NestedProblem, emb=None) -> list[np.ndarray]:
    """Record positions voting for each logical vertex.

    Without an embedding these are the C copy vertices; with one, the
    positions in ``emb.qubits`` of the chains of all C copies (C*L spins for
    uniform chains).
    """
    members = []
    for i in range(np_prob.base.n):
        if emb is None:
            members.append(np.asarray(np_prob.copies[i], dtype=np.int64))
        else:
            qubits = [q for v in np_prob.copies[i] for q in emb.chains[int(v)]]
            members.append(np.searchsorted(emb.qubits, qubits))
    return members


def decode_batch(
    np_prob: NestedProblem,
    emb,
    configs: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Joint majority-vote decode of a (batch, n_spins) array of records.

    Tie coins are drawn in (record, vertex) order. Returns the (batch, N)
    logical configurations and the total tie count.
    """
    configs = np.asarray(configs, dtype=np.int8)
    members = logical_members(np_prob, emb)
    needed = max(int(m.max()) for m in members) + 1
    if configs.ndim != 2 or configs.shape[1] < needed:
        raise DimensionMismatch(
            f"configs of shape {configs.shape} do not cover the {needed} voting spins"
        )
    totals = np.column_stack([configs[:, m].sum(axis=1) for m in members])
    logical = np.sign(totals).astype(np.int8)
    tie_rows, tie_cols = np.nonzero(logical == 0)
    if tie_rows.size:
        coins = (rng.random(tie_rows.size) < 0.5).astype(np.int8) * 2 - 1
        logical[tie_rows, tie_cols] = coins
    return logical, int(tie_rows.size)


# ---------------------------------------------------------------------------
# serialization: nested problems reuse the problem file format plus a sidecar
# { "C": int, "gamma": float, "vertex_map": [[...copies of logical 0...], ...] }


def save_nested(np_prob: NestedProblem, path) -> None:
    """Write ``path`` (nested problem) and ``path`` + '.meta.json' (sidecar)."""
    sidecar = {
        "C": np_prob.C,
        "gamma": np_prob.gamma,
        "vertex_map": np_prob.copies.tolist(),
        "base": problem_to_dict(np_prob.base),
    }
    p = Path(path)
    p.write_text(json.dumps(problem_to_dict(np_prob.nested), indent=2, sort_keys=True))
    Path(str(p) + ".meta.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def load_nested(path) -> NestedProblem:
    """The nested problem of ``save_nested``; a sidecar with another key set,
    a ``C`` that is not an integer >= 1 or a ``gamma`` that is not a number
    raises DomainError."""
    p = Path(path)
    problem_d = json.loads(p.read_text())
    sidecar = json.loads(Path(str(p) + ".meta.json").read_text())
    keys, C, gamma = sorted(sidecar), sidecar.get("C"), sidecar.get("gamma")
    if keys != ["C", "base", "gamma", "vertex_map"] or not (
            type(C) is int and C >= 1 and type(gamma) in (int, float)):
        raise DomainError(f"a sidecar holds C (an integer >= 1), base, gamma (a number) and "
                          f"vertex_map, got the keys {keys}, C {C!r} and gamma {gamma!r}")
    return NestedProblem(
        base=problem_from_dict(sidecar["base"]),
        C=C,
        gamma=float(gamma),
        nested=problem_from_dict(problem_d),
        copies=np.asarray(sidecar["vertex_map"], dtype=np.int64),
    )
