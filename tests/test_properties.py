"""Property tests on random inputs: the decode -> success path, gauge
invariance of the energy, neighbor lists against a per-pair loop, embedding
validity on damaged hardware, embedding validation against a chain-walking
reference, the curves.csv round trip and the sample-set file format."""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nqac.analysis import SuccessCurve, curves_csv, estimate_success, read_curves
from nqac.chimera import (
    Embedding,
    _source,
    apply_embedding,
    build_chimera,
    heuristic_embed,
    validate_embedding,
)
from nqac.errors import EmbeddingNotFound
from nqac.ising import IsingProblem, apply_gauge, energies
from nqac.nesting import decode_batch, encode_nested, permute_nested
from nqac.sampleset import CycleRecord, SampleSet, load_sampleset, save_sampleset


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
    samples = SampleSet.unprogrammed(configs, seed, "")
    P, _ = estimate_success(samples, npr, None, targets, np.random.default_rng(seed))
    logical, _ = decode_batch(npr, None, configs, np.random.default_rng(seed))
    keys = {s.tobytes() for s in targets}
    assert P == sum(row.tobytes() in keys for row in logical) / len(configs)


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


def _looped_neighbor_lists(p):
    """Neighbor lists built one pair at a time, in pair order."""
    idx = [[] for _ in range(p.n)]
    val = [[] for _ in range(p.n)]
    for (i, j), v in zip(p.pairs, p.values):
        idx[i].append(j)
        val[i].append(v)
        idx[j].append(i)
        val[j].append(v)
    return ([np.asarray(a, dtype=np.int64) for a in idx],
            [np.asarray(a, dtype=np.float64) for a in val])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_neighbor_lists_match_the_per_pair_loop(n, density, seed):
    # the same arrays in the same order: a sweep sums its neighbors in list order
    rng = np.random.default_rng(seed)
    couplings = {(i, j): rng.normal() for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density}
    p = IsingProblem.from_couplings(n, couplings=couplings)
    got, want = p.neighbor_lists(), _looped_neighbor_lists(p)
    for got_arrays, want_arrays in zip(got, want):
        assert len(got_arrays) == len(want_arrays) == n
        for a, b in zip(got_arrays, want_arrays):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    assert validate_embedding(emb, pairs).ok
    npr = encode_nested(IsingProblem.from_couplings(n, couplings=dict.fromkeys(pairs, 1.0)), 1, 0.5)
    assert apply_embedding(npr, emb).problem.n == len(emb.qubits)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(2, 8), st.floats(0.0, 0.3),
    st.integers(0, 2**32 - 1),
)
def test_heuristic_embed_success_does_not_depend_on_the_seed(rows, cols, n, dead_share, seed):
    # with a try for every placement, the search finds one whenever one exists
    rng = np.random.default_rng(seed)
    total = rows * cols * 8
    g = build_chimera(rows, cols, rng.choice(total, size=int(dead_share * total), replace=False))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for s in (seed, seed + 1):
        try:
            heuristic_embed(pairs, g, np.random.default_rng(s), max_tries=4 * rows * cols)
            found.append(True)
        except EmbeddingNotFound:
            found.append(False)
    assert found[0] == found[1]


def _walked_validation(e, source):
    """Reference validation that walks every chain and scans the qubit pairs
    of every source pair on each call, as ``validate_embedding`` did before
    embeddings kept their layout. A qubit pair is a hardware edge when one
    end is an in-range qubit listing the other as its neighbor."""
    violations = []
    g = e.graph
    vertices, pairs = _source(source)
    vertices = sorted(set(vertices) | set(e.chains))

    seen = {}
    for v in vertices:
        if v not in e.chains or not e.chains[v]:
            violations.append(f"missing chain for vertex {v}")
            continue
        for q in e.chains[v]:
            if q in seen and seen[q] != v:
                violations.append(f"disjointness: qubit {q} shared by {seen[q]} and {v}")
            seen[q] = v
            if q in g.dead:
                violations.append(f"dead qubit {q} used by chain {v}")
            if not (0 <= q < g.total_qubits):
                violations.append(f"qubit {q} of chain {v} out of range")

    for v in vertices:
        qs = set(e.chains.get(v, ()))
        if len(qs) <= 1 or any(q in g.dead or q >= g.total_qubits for q in qs):
            continue
        start = next(iter(qs))
        stack, reached = [start], {start}
        while stack:
            q = stack.pop()
            for nb in g.neighbors(q):
                if nb in qs and nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if reached != qs:
            violations.append(f"connectivity: chain {v} is not connected")

    def edge(a, b):
        return 0 <= a < g.total_qubits and b in g.neighbors(a)

    for u, v in pairs:
        cu, cv = e.chains.get(u, ()), e.chains.get(v, ())
        if not cu or not cv:
            continue
        if not any(edge(a, b) for a in cu for b in cv):
            violations.append(f"coverage: no hardware edge between chains {u} and {v}")
    return tuple(violations)


@st.composite
def chain_maps(draw):
    """A 1-3 x 1-3 graph with a random dead mask, chains of up to 4 qubits on
    vertices 0..5 (empty ones, and qubits below and above the index range,
    included) and source pairs on vertices 0..6, self-pairs included."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    total = rows * cols * 8
    dead = draw(st.sets(st.integers(0, total - 1), max_size=total // 4))
    g = build_chimera(rows, cols, dead)
    # half the chains are grown along hardware edges, so connected ones are common
    chains = {}
    for v in draw(st.sets(st.integers(0, 5), max_size=6)):
        qs = draw(st.lists(st.integers(-1, total + 1), max_size=4))
        if qs and draw(st.booleans()):
            for _ in range(draw(st.integers(0, 3))):
                nbrs = g.neighbors(qs[-1]) if 0 <= qs[-1] < total else ()
                if nbrs:
                    qs.append(draw(st.sampled_from(nbrs)))
        chains[v] = qs
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8))
    return Embedding(chains=chains, graph=g), pairs


@settings(max_examples=300, deadline=None)
@given(chain_maps())
def test_validation_matches_the_chain_walking_reference(case):
    emb, pairs = case
    try:
        want = _walked_validation(emb, pairs)
    except KeyError:
        # the reference walks from an arbitrary qubit of a chain and fails
        # when that is a negative label
        assume(False)
    # the reference has no repeated-qubit fault; every other violation
    # keeps its place
    repeated = [f"repeated qubit {q} in chain {v}" for v, qs in sorted(emb.chains.items())
                for k, q in enumerate(qs) if q in qs[:k]]
    got = validate_embedding(emb, pairs).violations
    assert tuple(x for x in got if not x.startswith("repeated qubit")) == want
    assert [x for x in got if x.startswith("repeated qubit")] == repeated


@st.composite
def success_curves(draw):
    """Curves at distinct levels holding arbitrary floats, each with no
    gamma map or one covering some or all of its alphas."""
    curves = []
    for C in sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4))):
        alphas = draw(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=8, unique=True))
        k = len(alphas)
        P = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        se = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
        gammas = draw(st.lists(st.none() | st.floats(1e-6, 10.0), min_size=k, max_size=k))
        gamma_used = {a: g for a, g in zip(alphas, gammas) if g is not None} or None
        curves.append(SuccessCurve(C=C, alphas=alphas, P=P, stderr=se, gamma_used=gamma_used))
    return curves


@settings(max_examples=200, deadline=None)
@given(success_curves())
def test_curves_csv_reads_back_exactly(curves):
    back = read_curves(curves_csv(curves))
    assert [c.C for c in back] == [c.C for c in curves]
    for got, want in zip(back, curves):
        for field in ("alphas", "P", "stderr"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.gamma_used == want.gamma_used


@st.composite
def samplesets(draw):
    """A sample set 1-64 spins wide with 0-40 records drawn from a small pool
    of rows (so rows repeat), over 1-4 arbitrary cycle ids."""
    n = draw(st.integers(1, 64))
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4, unique=True))
    records = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(np.array([-1, 1], dtype=np.int8), size=(draw(st.integers(1, 8)), n))
    cycles = tuple(CycleRecord(cycle=c, gauge=rng.choice([-1, 1], n),
                               permutation=rng.permutation(n), seed=int(rng.integers(2**63)))
                   for c in ids)
    return SampleSet(configs=pool[rng.integers(0, len(pool), records)],
                     cycle_ids=rng.choice(ids, records), cycles=cycles, problem_digest="p")


@settings(max_examples=150, deadline=None)
@given(samplesets(), st.lists(st.sampled_from(["\n", " \n", "\t\n"]), max_size=3), st.data())
def test_sampleset_file_format(tmp_path_factory, ss, blanks, data):
    path = tmp_path_factory.mktemp("ss") / "s.ndjson"
    save_sampleset(ss, path)
    header, body = path.read_text().split("\n", 1)
    assert json.loads(header)["problem_digest"] == "p"
    assert header == json.dumps(json.loads(header), sort_keys=True, separators=(",", ":"))
    assert body == "".join(
        json.dumps({"cycle": int(c), "config": row.tolist()}, sort_keys=True,
                   separators=(",", ":")) + "\n"
        for row, c in zip(ss.configs, ss.cycle_ids)
    )
    lines = body.splitlines(keepends=True)
    for blank in blanks:
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
    path.write_text(header + "\n" + "".join(lines))
    back = load_sampleset(path)
    assert back.configs.shape == ss.configs.shape
    assert np.array_equal(back.configs, ss.configs)
    assert np.array_equal(back.cycle_ids, ss.cycle_ids)
    assert back.problem_digest == ss.problem_digest
    assert [(c.cycle, c.seed, c.gauge.tolist(), c.permutation.tolist()) for c in back.cycles] == [
        (c.cycle, c.seed, c.gauge.tolist(), c.permutation.tolist()) for c in ss.cycles]
