import numpy as np
import pytest

from nqac.errors import CapacityExceeded, DomainError, EmbeddingNotFound, InvalidEmbedding
from nqac.chimera import (
    Embedding,
    apply_embedding,
    build_chimera,
    choi_embed,
    embedding_stats,
    heuristic_embed,
    load_embedding,
    load_graph,
    save_embedding,
    save_graph,
    validate_embedding,
)
from nqac.instances import dead8_mask, complete_antiferromagnet
from nqac.ising import energy
from nqac.nesting import encode_nested, lift_logical


def complete_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_chimera_counts_8x8():
    g = build_chimera(8, 8)
    assert g.total_qubits == 512
    # construction-independent count: 64 cells * 16 intra + 7*8*4 vertical
    # + 8*7*4 horizontal inter-cell couplers
    assert 64 * 16 + (8 - 1) * 8 * 4 + 8 * (8 - 1) * 4 == 1472
    assert g.edge_count == 1472


def test_chimera_dead_qubits():
    mask = dead8_mask()
    g = build_chimera(mask["rows"], mask["cols"], mask["dead"])
    assert g.usable_qubits == 504
    for q in mask["dead"]:
        assert g.neighbors(q) == ()


def test_chimera_single_cell():
    g = build_chimera(1, 1)
    assert g.total_qubits == 8
    assert g.edge_count == 16


def test_chimera_validation():
    with pytest.raises(DomainError):
        build_chimera(0, 3)
    with pytest.raises(DomainError):
        build_chimera(2, 2, dead=[64])


def test_graph_round_trip(tmp_path):
    g = build_chimera(2, 3, dead=[5])
    path = tmp_path / "g.json"
    save_graph(g, path)
    back = load_graph(path)
    assert back == g


@pytest.mark.parametrize("n", [4, 8, 12, 16, 24, 32])
def test_choi_embedding_suite(n):
    g = build_chimera(8, 8)
    emb = choi_embed(n, g)
    L = -(-n // 4) + 1
    assert all(len(qs) == L for qs in emb.chains.values())
    nq, mx, mean = embedding_stats(emb)
    assert nq == n * L
    assert mx == L
    report = validate_embedding(emb, complete_pairs(n), g)
    assert report.ok, report.violations


def test_choi_k32_uses_288_qubits():
    g = build_chimera(8, 8)
    emb = choi_embed(32, g)
    nq, mx, _ = embedding_stats(emb)
    assert (nq, mx) == (288, 9)


def test_choi_k8_stats():
    emb = choi_embed(8, build_chimera(8, 8))
    nq, mx, _ = embedding_stats(emb)
    assert (nq, mx) == (24, 3)


def test_choi_requires_perfect_graph():
    g = build_chimera(8, 8, dead=[0])
    with pytest.raises(DomainError):
        choi_embed(4, g)


def test_choi_capacity():
    with pytest.raises(CapacityExceeded):
        choi_embed(33, build_chimera(8, 8))


def test_embedding_stats_empty():
    assert embedding_stats(Embedding(chains={})) == (0, 0, 0.0)


def test_validate_flags_shared_qubit():
    g = build_chimera(1, 1)
    emb = Embedding(chains={0: [0], 1: [0]})
    report = validate_embedding(emb, [(0, 1)], g)
    assert any("disjointness" in v for v in report.violations)


def test_validate_flags_disconnected_chain():
    g = build_chimera(1, 2)
    # two side-0 qubits of different cells are not coupled
    emb = Embedding(chains={0: [0, 8], 1: [4]})
    report = validate_embedding(emb, [(0, 1)], g)
    assert any("connectivity" in v for v in report.violations)


def test_validate_flags_dead_and_coverage():
    g = build_chimera(1, 1, dead=[7])
    emb = Embedding(chains={0: [0], 1: [7]})
    report = validate_embedding(emb, [(0, 1)], g)
    assert any("dead" in v for v in report.violations)
    emb2 = Embedding(chains={0: [0], 1: [1]})  # same side: no edge
    report2 = validate_embedding(emb2, [(0, 1)], g)
    assert any("coverage" in v for v in report2.violations)


def test_heuristic_k4_perfect_graph():
    g = build_chimera(8, 8)
    emb = heuristic_embed(complete_pairs(4), g, np.random.default_rng(0))
    assert validate_embedding(emb, complete_pairs(4), g).ok


def test_heuristic_k2_single_cell():
    g = build_chimera(1, 1)
    emb = heuristic_embed([(0, 1)], g, np.random.default_rng(1))
    assert validate_embedding(emb, [(0, 1)], g).ok
    assert len(emb.chains[0]) == 1 and len(emb.chains[1]) == 1


def test_heuristic_never_returns_invalid_on_dead_graph():
    mask = dead8_mask()
    g = build_chimera(mask["rows"], mask["cols"], mask["dead"])
    pairs = complete_pairs(16)
    try:
        emb = heuristic_embed(pairs, g, np.random.default_rng(7), max_tries=32)
    except EmbeddingNotFound:
        return
    assert validate_embedding(emb, pairs, g).ok


def test_heuristic_impossible_raises():
    g = build_chimera(1, 1)
    with pytest.raises(EmbeddingNotFound):
        heuristic_embed(complete_pairs(12), g, np.random.default_rng(0), max_tries=4)


def test_embedding_round_trip(tmp_path):
    emb = choi_embed(8, build_chimera(8, 8))
    path = tmp_path / "emb.json"
    save_embedding(emb, path)
    assert load_embedding(path).chains == emb.chains


def test_apply_embedding_k4_structure(k4):
    g = build_chimera(8, 8)
    npr = encode_nested(k4, 1, 0.5)
    phys = apply_embedding(npr, choi_embed(4, g), g)
    vals = list(phys.problem.coupling_dict().values())
    assert sum(1 for v in vals if v == -0.5) == 4      # one tree edge per chain
    assert sum(1 for v in vals if v == 1.0) == 6       # each J on one canonical edge
    assert all(v in (-0.5, 0.0, 1.0) for v in vals)


def test_apply_embedding_default_gamma(k4):
    g = build_chimera(8, 8)
    npr = encode_nested(k4, 2, 0.7)
    phys = apply_embedding(npr, choi_embed(8, g), g)
    assert phys.chain_gamma == pytest.approx(0.7)


def test_apply_embedding_rejects_invalid(k4):
    g = build_chimera(8, 8)
    npr = encode_nested(k4, 1, 0.5)
    bad = Embedding(chains={0: [0], 1: [0], 2: [1], 3: [2]})
    with pytest.raises(InvalidEmbedding):
        apply_embedding(npr, bad, g)


def test_aligned_energy_identity_through_embedding(k4):
    g = build_chimera(8, 8)
    for C, gamma in ((1, 0.5), (2, 0.3)):
        npr = encode_nested(k4, C, gamma)
        emb = choi_embed(4 * C, g)
        phys = apply_embedding(npr, emb, g)
        overhead = sum(len(qs) - 1 for qs in emb.chains.values())
        rng = np.random.default_rng(4)
        for _ in range(8):
            s = rng.choice([-1, 1], size=4).astype(np.int8)
            nested_cfg = lift_logical(npr, s)
            full = np.ones(g.total_qubits, dtype=np.int8)
            for v, qs in emb.chains.items():
                full[list(qs)] = nested_cfg[v]
            expected = energy(npr.nested, nested_cfg) - npr.nested.alpha * gamma * overhead
            assert energy(phys.problem, full) == pytest.approx(expected, abs=1e-9)


def test_apply_embedding_zero_couplings_leave_only_chains():
    from nqac.ising import IsingProblem

    base = IsingProblem.from_couplings(3, couplings={(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0})
    g = build_chimera(8, 8)
    npr = encode_nested(base, 1, 0.5)
    phys = apply_embedding(npr, choi_embed(3, g), g)
    nonzero = {k: v for k, v in phys.problem.coupling_dict().items() if v != 0.0}
    assert set(nonzero.values()) == {-0.5}
    assert len(nonzero) == sum(len(qs) - 1 for qs in phys.embedding.chains.values())


def test_apply_embedding_fields_on_first_qubit():
    base = complete_antiferromagnet(3)
    from nqac.ising import IsingProblem

    base = IsingProblem(n=3, h=[0.5, 0.0, -0.2], pairs=base.pairs, values=base.values)
    g = build_chimera(8, 8)
    npr = encode_nested(base, 2, 0.4)
    emb = choi_embed(6, g)
    phys = apply_embedding(npr, emb, g)
    for v in range(6):
        first = emb.chains[v][0]
        assert phys.problem.h[first] == pytest.approx(npr.nested.h[v])
