"""Reference calculations the benchmark checks the program's outputs against.

Nothing here imports ``nqac``: the ground states, the exact thermal decoded
success and the majority-vote counts are worked out from the problem
definition alone, so a fault in the program cannot hide in its own checks.

Conventions shared with the problem file format: a problem is ``n`` spins,
fields ``h[i]`` and couplings ``J[(i, j)]``, energy
``alpha * (sum_i h_i s_i + sum_(i,j) J_ij s_i s_j)``. A level-C nested
problem copies logical spin ``i`` into nested spins ``i*C .. i*C + C-1``
(the copy layout of the encoder before any vertex permutation).
"""

from __future__ import annotations

import itertools

import numpy as np

ATOL = 1e-9


def all_configs(n: int) -> np.ndarray:
    """Every +-1 configuration of n spins, (2^n, n), spin i = bit i of the row index."""
    codes = np.arange(1 << n, dtype=np.int64)
    return (((codes[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(np.int8)


def energies(S: np.ndarray, h, J: dict, alpha: float = 1.0) -> np.ndarray:
    """Energies of a (batch, n) array of spins."""
    S = np.asarray(S, dtype=np.float64)
    e = S @ np.asarray(h, dtype=np.float64)
    for (i, j), v in J.items():
        e += v * S[:, i] * S[:, j]
    return alpha * e


def ground_states(n: int, h, J: dict) -> tuple[float, np.ndarray]:
    """Exhaustive ground energy and ground states, in row-index order."""
    S = all_configs(n)
    e = energies(S, h, J)
    e0 = float(e.min())
    return e0, S[e <= e0 + ATOL]


def thermal_decoded_success(
    n: int, h, J: dict, C: int, gamma_device: float, alpha: float, beta: float,
    ground: np.ndarray,
) -> float:
    """Exact probability that a Boltzmann sample of the nested problem decodes
    by majority vote to a ground state, with each tied vote a fair coin.

    The nested energy, in the units the sampler sees, is
    ``alpha * (sum_ij J_ij m_i m_j + C sum_i h_i m_i) - gamma_device *
    sum_i sum_(c<c') s_ic s_ic'`` with ``m_i`` the sum of the copies of
    logical spin i; the penalty is held at ``gamma_device`` for every alpha.
    Every one of the 2^(C*n) nested states is enumerated.
    """
    S = all_configs(C * n).astype(np.int64)
    m = S.reshape(-1, n, C).sum(axis=2)
    e = alpha * (m @ (C * np.asarray(h, dtype=np.float64)))
    for (i, j), v in J.items():
        e += alpha * v * m[:, i] * m[:, j]
    if C > 1:
        e -= gamma_device * ((m * m - C) / 2).sum(axis=1)
    w = np.exp(-beta * (e - e.min()))
    w /= w.sum()
    sign = np.sign(m)
    ties = (sign == 0).sum(axis=1)
    p_state = np.zeros(len(S))
    for g in np.asarray(ground, dtype=np.int64):
        consistent = np.all((sign == g) | (sign == 0), axis=1)
        p_state += consistent * 0.5 ** ties
    return float(w @ p_state)


def majority_counts(configs: np.ndarray, copies: np.ndarray, ground: np.ndarray) -> tuple[int, int]:
    """(records decoding to a ground state with no tied vote, records with a tie).

    ``copies[i]`` lists the C spin indices that vote for logical spin i.
    """
    votes = np.asarray(configs, dtype=np.int64)[:, np.asarray(copies)].sum(axis=2)
    tied = np.any(votes == 0, axis=1)
    decoded = np.sign(votes)
    in_ground = np.any(
        np.all(decoded[:, None, :] == np.asarray(ground)[None, :, :], axis=2), axis=1
    )
    return int(np.sum(in_ground & ~tied)), int(np.sum(tied))


def k4_problem() -> tuple[int, list, dict]:
    """The K4 antiferromagnet: n = 4, no fields, every coupling +1."""
    return 4, [0.0] * 4, {(i, j): 1.0 for i, j in itertools.combinations(range(4), 2)}
