"""Hand-checkable cases for the benchmark's reference calculations.

Run from the repository root: ``python3 -m pytest bench``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref

SRC = Path(__file__).resolve().parent.parent / "src"


def test_k4_has_six_ground_states_at_minus_two():
    n, h, J = ref.k4_problem()
    e0, states = ref.ground_states(n, h, J)
    assert e0 == -2.0
    assert len(states) == 6
    assert np.all(states.sum(axis=1) == 0)


def test_enumerator_agrees_with_brute_force_ground():
    sys.path.insert(0, str(SRC))
    try:
        from nqac.instances import k4_antiferromagnet, load_instance
        from nqac.ising import brute_force_ground
    finally:
        sys.path.remove(str(SRC))
    for p in (k4_antiferromagnet(), load_instance("k8_harder")):
        J = {(int(i), int(j)): float(v) for (i, j), v in zip(p.pairs, p.values)}
        e0, states = ref.ground_states(p.n, p.h, J)
        e_prog, states_prog = brute_force_ground(p)
        assert e0 == pytest.approx(e_prog, abs=1e-12)
        assert sorted(map(tuple, states.tolist())) == sorted(map(tuple, states_prog.tolist()))


@pytest.mark.parametrize("C", [1, 2, 3])
def test_decoded_success_falls_to_random_floor_at_infinite_temperature(C):
    n, h, J = ref.k4_problem()
    _, ground = ref.ground_states(n, h, J)
    p = ref.thermal_decoded_success(n, h, J, C, 0.5, 1.0, 1e-12, ground)
    assert p == pytest.approx(6 / 16, abs=1e-9)


def test_unnested_k4_matches_the_closed_form():
    # K4 energy is (M^2 - 4)/2 for magnetisation M: 6 states at -2, 8 at 0, 2 at 6
    n, h, J = ref.k4_problem()
    _, ground = ref.ground_states(n, h, J)
    for beta, alpha in [(2.0, 0.1), (0.5, 1.0), (2.0, 1.0)]:
        b = beta * alpha
        exact = 6 * math.exp(2 * b) / (6 * math.exp(2 * b) + 8 + 2 * math.exp(-6 * b))
        got = ref.thermal_decoded_success(n, h, J, 1, 0.5, alpha, beta, ground)
        assert got == pytest.approx(exact, rel=1e-12)


def test_nesting_raises_decoded_success_at_low_alpha():
    n, h, J = ref.k4_problem()
    _, ground = ref.ground_states(n, h, J)
    ps = [ref.thermal_decoded_success(n, h, J, C, 1.0, 0.05, 2.0, ground) for C in (1, 2, 3)]
    assert ps[0] < ps[1] < ps[2]


def test_majority_counts_on_hand_cases():
    copies = np.arange(8).reshape(4, 2)  # C = 2
    ground = np.array([[1, 1, -1, -1], [1, -1, 1, -1]])
    records = np.array([
        [1, 1, 1, 1, -1, -1, -1, -1],      # clean ground state
        [1, 1, 1, -1, -1, -1, -1, -1],     # logical 1 tied
        [1, 1, 1, 1, 1, 1, -1, -1],        # clean, not a ground state
        [1, -1, -1, -1, 1, 1, -1, -1],     # logical 0 tied
        [1, 1, -1, -1, 1, 1, -1, -1],      # clean ground state
    ])
    assert ref.majority_counts(records, copies, ground) == (2, 2)
