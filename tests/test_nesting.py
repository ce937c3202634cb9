import json
from pathlib import Path

import numpy as np
import pytest

from nqac.errors import DimensionMismatch, DomainError
from nqac.ising import IsingProblem, energy, rescale
from nqac.nesting import (
    decode_batch,
    encode_for_scale,
    encode_nested,
    lift_logical,
    load_nested,
    nested_energy_identity_check,
    permute_nested,
    save_nested,
)


def all_logical_configs(n):
    codes = np.arange(1 << n)
    return (((codes[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int8)


def test_encode_two_vertex_example():
    base = IsingProblem.from_couplings(2, couplings={(0, 1): 1.0})
    npr = encode_nested(base, 2, 0.3)
    cd = npr.nested.coupling_dict()
    # copies: logical 0 -> {0, 1}, logical 1 -> {2, 3}
    assert cd[(0, 2)] == cd[(0, 3)] == cd[(1, 2)] == cd[(1, 3)] == pytest.approx(1.0)
    assert cd[(0, 1)] == pytest.approx(-0.3)
    assert cd[(2, 3)] == pytest.approx(-0.3)
    assert len(cd) == 6


def test_encode_field_boost():
    base = IsingProblem.from_couplings(1, h={0: 0.5})
    npr = encode_nested(base, 3, 0.2)
    assert np.allclose(npr.nested.h, 1.5)


def test_encode_c1_equals_base(k4):
    npr = encode_nested(k4, 1, 0.7)
    assert npr.nested.coupling_dict() == k4.coupling_dict()
    assert npr.nested.n == 4


def test_encode_validation(k4):
    with pytest.raises(DomainError):
        encode_nested(k4, 0, 0.5)
    with pytest.raises(DomainError):
        encode_nested(k4, 2, 0.0)


def test_coupling_multiplicity(k4):
    for C in (2, 3, 4):
        npr = encode_nested(k4, C, 0.4)
        n_problem = 6 * C * C
        n_penalty = 4 * C * (C - 1) // 2
        assert npr.nested.pairs.shape[0] == n_problem + n_penalty
        vals = npr.nested.values
        assert int((vals == -0.4).sum()) == n_penalty


def test_energy_identity_exhaustive_small(k4):
    for C in (1, 2, 3):
        for gamma in (0.3, 1.0):
            npr = encode_nested(rescale(k4, 0.5), C, gamma)
            for s in all_logical_configs(4):
                got, predicted = nested_energy_identity_check(npr, s)
                assert got == pytest.approx(predicted, abs=1e-9)


def test_energy_identity_worked_values(k4):
    npr = encode_nested(k4, 2, 1.0)
    gs = np.array([1, 1, -1, -1], dtype=np.int8)
    got, predicted = nested_energy_identity_check(npr, gs)
    assert got == pytest.approx(-12.0)
    assert predicted == pytest.approx(-12.0)
    # C=3, gamma=0.5: predicted = 9 E(s) - 6
    npr3 = encode_nested(k4, 3, 0.5)
    for s in all_logical_configs(4)[:6]:
        got, predicted = nested_energy_identity_check(npr3, s)
        assert predicted == pytest.approx(9 * energy(k4, s) - 6.0)
        assert got == pytest.approx(predicted, abs=1e-9)


def test_encode_for_scale_fixes_device_penalty(k4):
    npr = encode_for_scale(k4, 3, 0.6, 0.05)
    # stored penalty is gamma/alpha, so alpha * stored = 0.6 in device units
    stored = npr.gamma
    assert npr.nested.alpha * stored == pytest.approx(0.6)
    # problem couplings keep their stored value 1, scaled by alpha at eval
    assert npr.nested.coupling_dict()[(0, 3)] == pytest.approx(1.0)


def test_permutation_identity(k4):
    npr = encode_nested(k4, 2, 0.5)
    same = permute_nested(npr, np.arange(8))
    assert same.nested.coupling_dict() == npr.nested.coupling_dict()


def test_permutation_preserves_coupling_multiset_and_energy(k4):
    rng = np.random.default_rng(5)
    npr = encode_nested(k4, 2, 0.5)
    for _ in range(10):
        perm = rng.permutation(8)
        moved = permute_nested(npr, perm)
        assert sorted(moved.nested.values) == sorted(npr.nested.values)
        s = rng.choice([-1, 1], size=8).astype(np.int8)
        sp = np.empty(8, dtype=np.int8)
        sp[perm] = s
        assert energy(moved.nested, sp) == pytest.approx(energy(npr.nested, s))


def test_permutation_rejects_non_bijection(k4):
    npr = encode_nested(k4, 2, 0.5)
    with pytest.raises(DomainError):
        permute_nested(npr, np.zeros(8, dtype=int))


def decode_one(npr, emb, phys, rng):
    logical, ties = decode_batch(npr, emb, np.asarray(phys)[None, :], rng)
    return logical[0], ties


def test_decode_simple_majority(k4):
    npr = encode_nested(k4, 3, 0.5)
    rng = np.random.default_rng(0)
    phys = lift_logical(npr, [1, -1, 1, -1])
    phys[npr.copies[0, 2]] = -1  # copies of vertex 0 now (+, +, -)
    logical, ties = decode_one(npr, None, phys, rng)
    assert logical[0] == 1
    assert ties == 0


def test_decode_unanimous(k4):
    npr = encode_nested(k4, 4, 0.5)
    rng = np.random.default_rng(0)
    s = np.array([1, -1, -1, 1], dtype=np.int8)
    logical, ties = decode_one(npr, None, lift_logical(npr, s), rng)
    assert np.array_equal(logical, s)
    assert ties == 0


def test_decode_tie_statistics():
    base = IsingProblem.from_couplings(1, h={0: 0.0})
    npr = encode_nested(base, 2, 0.5)
    phys = np.array([1, -1], dtype=np.int8)
    n = 10_000
    rng = np.random.default_rng(123)
    ups = 0
    for _ in range(n):
        logical, ties = decode_one(npr, None, phys, rng)
        assert ties == 1
        ups += logical[0] == 1
    # fair coin: 5 sigma around 0.5
    sigma = 0.5 / np.sqrt(n)
    assert abs(ups / n - 0.5) < 5 * sigma


def test_decode_rejects_narrow_configs(k4):
    npr = encode_nested(k4, 3, 0.5)
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        decode_batch(npr, None, np.ones((5, 11), dtype=np.int8), rng)
    with pytest.raises(DimensionMismatch):
        decode_batch(npr, None, np.ones(12, dtype=np.int8), rng)


def test_decode_permutation_equivariance(k4):
    npr = encode_nested(k4, 3, 0.5)
    rng = np.random.default_rng(11)
    for _ in range(10):
        perm = rng.permutation(12)
        moved = permute_nested(npr, perm)
        phys = rng.choice([-1, 1], size=12).astype(np.int8)
        moved_phys = np.empty(12, dtype=np.int8)
        moved_phys[perm] = phys
        a, _ = decode_one(npr, None, phys, np.random.default_rng(0))
        b, _ = decode_one(moved, None, moved_phys, np.random.default_rng(0))
        assert np.array_equal(a, b)


def test_embedded_decode_of_unanimous_chains_equals_nested_decode(k4):
    # choi chains have equal length, so with every chain unanimous the vote
    # over all chain qubits of a logical vertex is the vote over its copies
    from nqac.chimera import build_chimera, choi_embed

    npr = encode_nested(k4, 3, 0.5)
    g = build_chimera(3, 3)
    emb = choi_embed(12, g)
    rng = np.random.default_rng(2)
    nested_cfgs = rng.choice([-1, 1], size=(20, 12)).astype(np.int8)
    phys = np.ones((20, len(emb.qubits)), dtype=np.int8)
    for v, qs in emb.chains.items():
        phys[:, [emb.qubits.index(q) for q in qs]] = nested_cfgs[:, [v]]
    a, ties_a = decode_batch(npr, emb, phys, np.random.default_rng(0))
    b, ties_b = decode_batch(npr, None, nested_cfgs, np.random.default_rng(0))
    assert np.array_equal(a, b)
    assert ties_a == ties_b == 0


def test_nested_serialization_round_trip(tmp_path, k4):
    npr = encode_nested(k4, 2, 0.3)
    path = tmp_path / "nested.json"
    save_nested(npr, path)
    back = load_nested(path)
    assert back.C == 2
    assert back.gamma == pytest.approx(0.3)
    assert back.nested.coupling_dict() == npr.nested.coupling_dict()
    assert np.array_equal(back.copies, npr.copies)


@pytest.mark.parametrize("change", [
    {"gama": 5},
    {"C": 2.7},
    {"C": True},
    {"C": 0},
    {"gamma": "0.3"},
    {"gamma": None},
], ids=["unknown-key", "fractional-C", "boolean-C", "zero-C", "string-gamma", "null-gamma"])
def test_load_nested_checks_its_sidecar(tmp_path, k4, change):
    path = tmp_path / "nested.json"
    save_nested(encode_nested(k4, 2, 0.3), path)
    meta = Path(str(path) + ".meta.json")
    meta.write_text(json.dumps({**json.loads(meta.read_text()), **change}))
    with pytest.raises(DomainError):
        load_nested(path)
