import hashlib
import json

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
    validate_embedding,
)
from nqac.instances import dead8_mask, load_instance
from nqac.ising import IsingProblem, energy
from nqac.nesting import encode_for_scale, encode_nested, lift_logical, permute_nested


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
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"rows": 2, "cols": 3, "dead": [5]}))
    assert load_graph(path) == build_chimera(2, 3, dead=[5])


@pytest.mark.parametrize("n", [4, 8, 12, 16, 24, 32])
def test_choi_embedding_suite(n):
    g = build_chimera(8, 8)
    emb = choi_embed(n, g)
    L = -(-n // 4) + 1
    assert all(len(qs) == L for qs in emb.chains.values())
    nq, mx, mean = embedding_stats(emb)
    assert nq == n * L
    assert mx == L
    report = validate_embedding(emb, complete_pairs(n))
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
    assert embedding_stats(Embedding(chains={}, graph=build_chimera(1, 1))) == (0, 0, 0.0)


def test_validate_flags_shared_qubit():
    g = build_chimera(1, 1)
    emb = Embedding(chains={0: [0], 1: [0]}, graph=g)
    report = validate_embedding(emb, [(0, 1)])
    assert any("disjointness" in v for v in report.violations)


def test_validate_flags_repeated_qubit():
    # a chain listing one qubit twice would compile a spurious position that
    # no coupler or field reaches
    g = build_chimera(1, 1)
    emb = Embedding(chains={0: [0, 0, 4], 1: [5]}, graph=g)
    assert validate_embedding(emb, [(0, 1)]).violations == ("repeated qubit 0 in chain 0",)
    two = IsingProblem.from_couplings(2, couplings={(0, 1): 1.0})
    with pytest.raises(InvalidEmbedding):
        apply_embedding(encode_nested(two, 1, 0.5), emb)


def test_validate_flags_disconnected_chain():
    g = build_chimera(1, 2)
    # two side-0 qubits of different cells are not coupled
    emb = Embedding(chains={0: [0, 8], 1: [4]}, graph=g)
    report = validate_embedding(emb, [(0, 1)])
    assert any("connectivity" in v for v in report.violations)


def test_validate_flags_dead_and_coverage():
    g = build_chimera(1, 1, dead=[7])
    emb = Embedding(chains={0: [0], 1: [7]}, graph=g)
    report = validate_embedding(emb, [(0, 1)])
    assert any("dead" in v for v in report.violations)
    emb2 = Embedding(chains={0: [0], 1: [1]}, graph=g)  # same side: no edge
    report2 = validate_embedding(emb2, [(0, 1)])
    assert any("coverage" in v for v in report2.violations)


def test_heuristic_k4_perfect_graph():
    g = build_chimera(8, 8)
    emb = heuristic_embed(complete_pairs(4), g, np.random.default_rng(0))
    assert validate_embedding(emb, complete_pairs(4)).ok


def test_heuristic_k2_single_cell():
    # the triangular layout on one cell: each chain is the horizontal and the
    # vertical qubit of one offset k, qubits k and k + cell_size
    g = build_chimera(1, 1)
    emb = heuristic_embed([(0, 1)], g, np.random.default_rng(1))
    assert validate_embedding(emb, [(0, 1)]).ok
    chains = [sorted(emb.chains[v]) for v in (0, 1)]
    assert [len(qs) for qs in chains] == [2, 2]
    assert all(hi == lo + g.cell_size for lo, hi in chains)


def test_nested_source_gives_every_vertex_a_chain():
    # nested vertex 2 has a field and no coupling
    base = IsingProblem.from_couplings(3, couplings={(0, 1): 1.0}, h=[0.0, 0.0, 0.5])
    npr = encode_nested(base, 1, 0.5)
    g = build_chimera(2, 2)
    emb = heuristic_embed(npr, g, np.random.default_rng(3))
    assert sorted(emb.chains) == [0, 1, 2]
    assert validate_embedding(emb, npr).ok
    missing = Embedding(chains={0: emb.chains[0], 1: emb.chains[1]}, graph=g)
    assert validate_embedding(missing, npr).violations == ("missing chain for vertex 2",)


def test_heuristic_never_returns_invalid_on_dead_graph():
    mask = dead8_mask()
    g = build_chimera(mask["rows"], mask["cols"], mask["dead"])
    pairs = complete_pairs(16)
    try:
        emb = heuristic_embed(pairs, g, np.random.default_rng(7), max_tries=32)
    except EmbeddingNotFound:
        return
    assert validate_embedding(emb, pairs).ok


def test_heuristic_finds_a_placement_whenever_one_exists():
    # K20 on the dead8 graph has 16 block positions x 4 reflections; 64 tries
    # walk them all, so every seed finds one of the clean ones
    mask = dead8_mask()
    g = build_chimera(mask["rows"], mask["cols"], mask["dead"])
    for seed in range(20):
        emb = heuristic_embed(complete_pairs(20), g, np.random.default_rng(seed), max_tries=64)
        assert validate_embedding(emb, complete_pairs(20)).ok


def test_heuristic_places_any_source_as_a_complete_graph():
    # vertices are ranked, so a pair of high labels is K2 on one cell
    emb = heuristic_embed([(100, 101)], build_chimera(1, 1), np.random.default_rng(0))
    assert sorted(emb.chains) == [100, 101] and embedding_stats(emb)[:2] == (4, 2)
    # a 40-vertex ring is placed as K40, which needs a 10x10 block
    ring = [(i, (i + 1) % 40) for i in range(40)]
    with pytest.raises(EmbeddingNotFound):
        heuristic_embed(ring, build_chimera(8, 8), np.random.default_rng(0))
    # K4 needs a whole live unit cell: with a dead qubit in every cell there
    # is none, while K3 takes the three live offsets of one cell
    g = build_chimera(2, 2, [cell * 8 for cell in range(4)])
    with pytest.raises(EmbeddingNotFound):
        heuristic_embed(complete_pairs(4), g, np.random.default_rng(0))
    assert validate_embedding(
        heuristic_embed(complete_pairs(3), g, np.random.default_rng(0)), complete_pairs(3)).ok


def test_heuristic_impossible_raises():
    g = build_chimera(1, 1)
    with pytest.raises(EmbeddingNotFound):
        heuristic_embed(complete_pairs(12), g, np.random.default_rng(0), max_tries=4)


def test_embedding_round_trip(tmp_path):
    emb = choi_embed(8, build_chimera(8, 8))
    path = tmp_path / "emb.json"
    save_embedding(emb, path)
    assert load_embedding(path, emb.graph).chains == emb.chains


def test_apply_embedding_k4_structure(k4):
    g = build_chimera(8, 8)
    npr = encode_nested(k4, 1, 0.5)
    phys = apply_embedding(npr, choi_embed(4, g))
    vals = list(phys.problem.coupling_dict().values())
    assert sum(1 for v in vals if v == -0.5) == 4      # one tree edge per chain
    assert sum(1 for v in vals if v == 1.0) == 6       # each J on one canonical edge
    assert all(v in (-0.5, 0.0, 1.0) for v in vals)


def test_apply_embedding_default_gamma(k4):
    g = build_chimera(8, 8)
    npr = encode_nested(k4, 2, 0.7)
    phys = apply_embedding(npr, choi_embed(8, g))
    assert phys.chain_gamma == pytest.approx(0.7)


def test_apply_embedding_rejects_invalid(k4):
    g = build_chimera(8, 8)
    npr = encode_nested(k4, 1, 0.5)
    bad = Embedding(chains={0: [0], 1: [0], 2: [1], 3: [2]}, graph=g)
    with pytest.raises(InvalidEmbedding):
        apply_embedding(npr, bad)


def test_aligned_energy_identity_through_embedding(k4):
    g = build_chimera(8, 8)
    for C, gamma in ((1, 0.5), (2, 0.3)):
        npr = encode_nested(k4, C, gamma)
        emb = choi_embed(4 * C, g)
        phys = apply_embedding(npr, emb)
        overhead = sum(len(qs) - 1 for qs in emb.chains.values())
        rng = np.random.default_rng(4)
        for _ in range(8):
            s = rng.choice([-1, 1], size=4).astype(np.int8)
            nested_cfg = lift_logical(npr, s)
            full = np.ones(len(emb.qubits), dtype=np.int8)
            for v, qs in emb.chains.items():
                full[[emb.qubits.index(q) for q in qs]] = nested_cfg[v]
            expected = energy(npr.nested, nested_cfg) - npr.nested.alpha * gamma * overhead
            assert energy(phys.problem, full) == pytest.approx(expected, abs=1e-9)


def test_apply_embedding_zero_couplings_leave_only_chains():
    base = IsingProblem.from_couplings(3, couplings={(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0})
    g = build_chimera(8, 8)
    npr = encode_nested(base, 1, 0.5)
    phys = apply_embedding(npr, choi_embed(3, g))
    nonzero = {k: v for k, v in phys.problem.coupling_dict().items() if v != 0.0}
    assert set(nonzero.values()) == {-0.5}
    assert len(nonzero) == sum(len(qs) - 1 for qs in phys.embedding.chains.values())


def test_apply_embedding_fields_on_first_qubit():
    base = IsingProblem.from_couplings(
        3, couplings={(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, h=[0.5, 0.0, -0.2]
    )
    g = build_chimera(8, 8)
    npr = encode_nested(base, 2, 0.4)
    emb = choi_embed(6, g)
    phys = apply_embedding(npr, emb)
    for v in range(6):
        first = emb.qubits.index(emb.chains[v][0])
        assert phys.problem.h[first] == pytest.approx(npr.nested.h[v])


#: (instance, C) compiled by each embedder: choi on the perfect 8x8 graph and
#: heuristic on the bundled 8-dead-qubit graph, where K_24 does not fit
_COMPILED_CASES = {
    "choi": [("k4_af", 1), ("k4_af", 2), ("k4_af", 3),
             ("k8_harder", 1), ("k8_harder", 2), ("k8_harder", 3)],
    "heuristic": [("k4_af", 1), ("k4_af", 2), ("k4_af", 3), ("k8_harder", 1), ("k8_harder", 2)],
}
#: sha256 over the digests of the compiled problems, three permutations a case
_COMPILED_DIGESTS = {
    "choi": "e0a0df2bc52aa3e8bdeeca33651087a191f06cbe2bf99537b6fa3963f72381ce",
    "heuristic": "4ef1111de2a595a7c6181c8f2b749f05d9b79dfbfc8a56b7d7a1d6c6c6aa20a5",
}


@pytest.mark.parametrize("mode", sorted(_COMPILED_DIGESTS))
def test_compiled_problems_are_pinned(mode):
    mask = dead8_mask()
    graph = (build_chimera(8, 8) if mode == "choi"
             else build_chimera(mask["rows"], mask["cols"], mask["dead"]))
    digests = []
    for name, C in _COMPILED_CASES[mode]:
        base = load_instance(name)
        n = C * base.n
        if mode == "choi":
            emb = choi_embed(n, graph)
        else:
            emb = heuristic_embed(complete_pairs(n), graph, np.random.default_rng(C))
        npr = encode_for_scale(base, C, 0.5, 0.3)
        rng = np.random.default_rng(n)
        for _ in range(3):
            perm = rng.permutation(n)
            digests.append(apply_embedding(permute_nested(npr, perm), emb).problem.digest())
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == _COMPILED_DIGESTS[mode]
