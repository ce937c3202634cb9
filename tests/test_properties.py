"""Property tests on random inputs: the decode -> count path, gauge
invariance of the energy, and embedding validity on damaged hardware."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nqac.analysis import count_ground_hits
from nqac.chimera import build_chimera, heuristic_embed, validate_embedding
from nqac.errors import EmbeddingNotFound
from nqac.ising import IsingProblem, apply_gauge, energies
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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_energy_invariant_under_gauge(n, alpha, seed):
    rng = np.random.default_rng(seed)
    couplings = {
        (i, j): rng.normal() for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6
    }
    p = IsingProblem.from_couplings(n, couplings=couplings, h=rng.normal(size=n), alpha=alpha)
    g = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    S = rng.choice(np.array([-1, 1], dtype=np.int8), size=(16, n))
    np.testing.assert_allclose(
        energies(apply_gauge(p, g), S * g), energies(p, S), rtol=0, atol=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(2, 8), st.floats(0.0, 0.3),
    st.integers(0, 2**32 - 1),
)
def test_heuristic_embed_is_valid_or_raises_on_dead_graphs(rows, cols, n, dead_share, seed):
    rng = np.random.default_rng(seed)
    total = rows * cols * 8
    dead = rng.choice(total, size=int(dead_share * total), replace=False)
    g = build_chimera(rows, cols, dead)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    try:
        emb = heuristic_embed(pairs, g, rng, max_tries=4)
    except EmbeddingNotFound:
        return
    assert validate_embedding(emb, pairs, g).ok
