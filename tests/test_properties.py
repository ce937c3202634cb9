"""Property tests of the decode -> count path on random batches."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nqac.analysis import count_ground_hits
from nqac.ising import IsingProblem
from nqac.nesting import decode_batch, encode_nested, permute_nested


@st.composite
def nested_batches(draw):
    """A level-C nesting of an N-vertex problem, a random batch of nested
    spins, a random set of target logical states and a decode seed."""
    N = draw(st.integers(1, 6))
    C = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    configs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, N * C))
    targets = rng.choice(np.array([-1, 1], dtype=np.int8), size=(draw(st.integers(1, 8)), N))
    base = IsingProblem.from_couplings(N, h=rng.normal(size=N))
    return encode_nested(base, C, 0.5), configs, targets, seed


@settings(max_examples=80, deadline=None)
@given(nested_batches())
def test_hit_count_equals_set_membership_count(case):
    npr, configs, targets, seed = case
    hits = count_ground_hits(npr, None, configs, targets, np.random.default_rng(seed))
    logical, _ = decode_batch(npr, None, configs, np.random.default_rng(seed))
    keys = {s.tobytes() for s in targets}
    assert hits == sum(row.tobytes() in keys for row in logical)


@settings(max_examples=80, deadline=None)
@given(nested_batches(), st.integers(0, 2**32 - 1))
def test_decode_equivariant_under_permute_nested(case, perm_seed):
    npr, configs, _, seed = case
    perm = np.random.default_rng(perm_seed).permutation(npr.n_nested)
    moved_configs = np.empty_like(configs)
    moved_configs[:, perm] = configs
    a, ties_a = decode_batch(npr, None, configs, np.random.default_rng(seed))
    b, ties_b = decode_batch(
        permute_nested(npr, perm), None, moved_configs, np.random.default_rng(seed)
    )
    assert np.array_equal(a, b)
    assert ties_a == ties_b
