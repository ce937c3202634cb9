"""Chimera hardware graphs and minor embeddings of dense coupling graphs.

A Chimera graph is a ``rows x cols`` grid of complete-bipartite unit cells
(two half-cells of ``cell_size`` qubits each). Qubits are indexed linearly:

    index(row, col, side, k) = ((row*cols + col)*2 + side)*cell_size + k

Side 0 qubits couple vertically (same column, adjacent rows, same k); side 1
qubits couple horizontally. Dead qubits stay in the index space but lose all
incident couplers.

An ``Embedding`` maps source vertices to chains of qubits and carries the
graph it was made for, so compiling and validating need nothing else. It
walks its chains once, when it is made, and keeps the layout both read:
validation and compilation are lookups into it. The graph keeps one edge
representation, the sorted neighbor lists. Two
embedders are provided. ``choi_embed`` places the triangular complete-graph
layout on a perfect graph: each vertex becomes an L-shaped path of exactly
``ceil(n/cell_size) + 1`` qubits. ``heuristic_embed`` handles graphs with dead
qubits by restarts: a randomly displaced, reflected and relabelled placement
of the same layout, then randomized chain growth. Protocol runs embed the
complete graph K_{C*N}, so every pair of chains is adjacent and the nested
vertices can be reassigned to chains by any permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityExceeded,
    DomainError,
    EmbeddingNotFound,
    InvalidEmbedding,
)
from .ising import IsingProblem
from .nesting import NestedProblem


@dataclass(frozen=True)
class ChimeraGraph:
    rows: int
    cols: int
    cell_size: int = 4
    dead: frozenset = frozenset()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.cell_size < 1:
            raise DomainError("rows, cols and cell_size must be >= 1")
        dead = frozenset(int(q) for q in self.dead)
        for q in dead:
            if not (0 <= q < self.total_qubits):
                raise DomainError(f"dead qubit index {q} out of range")
        object.__setattr__(self, "dead", dead)
        adj: dict[int, list[int]] = {q: [] for q in range(self.total_qubits)}
        for u, v in self._structural_edges():
            if u in dead or v in dead:
                continue
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(
            self, "_adj", {q: tuple(sorted(nbrs)) for q, nbrs in adj.items()}
        )

    @property
    def total_qubits(self) -> int:
        return self.rows * self.cols * 2 * self.cell_size

    @property
    def usable_qubits(self) -> int:
        return self.total_qubits - len(self.dead)

    def index(self, row: int, col: int, side: int, k: int) -> int:
        return ((row * self.cols + col) * 2 + side) * self.cell_size + k

    def _structural_edges(self):
        m = self.cell_size
        for r in range(self.rows):
            for c in range(self.cols):
                for k0 in range(m):
                    u = self.index(r, c, 0, k0)
                    for k1 in range(m):
                        yield u, self.index(r, c, 1, k1)
                for k in range(m):
                    if r + 1 < self.rows:
                        yield self.index(r, c, 0, k), self.index(r + 1, c, 0, k)
                    if c + 1 < self.cols:
                        yield self.index(r, c, 1, k), self.index(r, c + 1, 1, k)

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._adj[q]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    @classmethod
    def from_dict(cls, d: dict) -> "ChimeraGraph":
        return cls(
            rows=int(d["rows"]),
            cols=int(d["cols"]),
            cell_size=int(d.get("cell_size", 4)),
            dead=frozenset(int(q) for q in d.get("dead", [])),
        )


def build_chimera(rows: int, cols: int, dead: Iterable[int] = ()) -> ChimeraGraph:
    """Construct a Chimera graph with K_{4,4} unit cells."""
    return ChimeraGraph(rows=rows, cols=cols, cell_size=4, dead=frozenset(dead))


def load_graph(path) -> ChimeraGraph:
    return ChimeraGraph.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# embeddings


@dataclass(frozen=True)
class Embedding:
    """Map from source vertices to disjoint connected chains of qubits of
    ``graph``.

    Construction walks the chains once, in ascending vertex order, and keeps
    the layout that validation and compilation read: ``qubits``, the chain
    qubits in ascending hardware-label order (position i of a compiled
    problem, and of its sample records, is hardware qubit ``qubits[i]``);
    each chain's shared, repeated, dead and out-of-range qubits; the chains
    that are not connected; a depth-first spanning tree of each chain, rooted
    at its first qubit; and, for each pair of chains (a chain with itself
    included), the sorted hardware edges between them. Trees and edges are
    position pairs ``(i, j)`` with i < j.
    """

    chains: dict
    graph: ChimeraGraph

    def __post_init__(self):
        g = self.graph
        chains = {int(v): tuple(int(q) for q in qs) for v, qs in self.chains.items()}
        qubits = tuple(sorted(q for qs in chains.values() for q in qs))
        pos = {q: i for i, q in enumerate(qubits)}
        seen: dict[int, int] = {}
        owners: dict[int, list[int]] = {}
        faults, disconnected, trees, couplers = {}, [], {}, {}
        for v in sorted(chains):
            qs = chains[v]
            if not qs:
                continue
            faults[v] = []
            for q in qs:
                if q in seen and seen[q] != v:
                    faults[v].append(f"disjointness: qubit {q} shared by {seen[q]} and {v}")
                elif q in seen:
                    faults[v].append(f"repeated qubit {q} in chain {v}")
                seen[q] = v
                if q in g.dead:
                    faults[v].append(f"dead qubit {q} used by chain {v}")
                if not (0 <= q < g.total_qubits):
                    faults[v].append(f"qubit {q} of chain {v} out of range")
            qset = set(qs)
            # the edges to the chains walked so far, this one included: an
            # edge is met from whichever of its two ends is walked later
            for a in qset:
                owners.setdefault(a, []).append(v)
                for b in g._adj.get(a, ()):
                    for u in owners.get(b, ()):
                        couplers.setdefault((min(u, v), max(u, v)), set()).add(
                            (pos[min(a, b)], pos[max(a, b)]))
            reached, stack, tree = {qs[0]}, [qs[0]], []
            while stack:
                q = stack.pop()
                for nb in g._adj.get(q, ()):
                    if nb in qset and nb not in reached:
                        reached.add(nb)
                        tree.append((pos[min(q, nb)], pos[max(q, nb)]))
                        stack.append(nb)
            trees[v] = (pos[qs[0]], tree)
            # a chain holding a dead or out-of-range qubit is reported for
            # those qubits, not for its connectivity
            if reached != qset and not any(q in g.dead or q >= g.total_qubits for q in qs):
                disconnected.append(v)
        for name, value in (
            ("chains", chains), ("qubits", qubits), ("_faults", faults),
            ("_disconnected", disconnected), ("_trees", trees),
            ("_couplers", {uv: sorted(edges) for uv, edges in couplers.items()}),
        ):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """The chains only; the graph is saved, and loaded, on its own."""
        return {"chains": {str(v): list(qs) for v, qs in sorted(self.chains.items())}}

    @classmethod
    def from_dict(cls, d: dict, graph: ChimeraGraph) -> "Embedding":
        return cls(chains={int(v): list(qs) for v, qs in d["chains"].items()}, graph=graph)


def save_embedding(e: Embedding, path) -> None:
    Path(path).write_text(json.dumps(e.to_dict(), indent=2, sort_keys=True))


def load_embedding(path, graph: ChimeraGraph) -> Embedding:
    return Embedding.from_dict(json.loads(Path(path).read_text()), graph)


def embedding_stats(e: Embedding) -> tuple[int, int, float]:
    """(total qubits used, longest chain, mean chain length)."""
    if not e.chains:
        return 0, 0, 0.0
    lengths = [len(qs) for qs in e.chains.values()]
    return int(sum(lengths)), int(max(lengths)), float(np.mean(lengths))


@dataclass(frozen=True)
class EmbeddingReport:
    """Validation outcome; violations are data, not exceptions."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _source(source) -> tuple[list[int], list[tuple[int, int]]]:
    """(vertices, pairs) of a NestedProblem, whose every nested vertex needs a
    chain, or of an iterable of vertex pairs."""
    if isinstance(source, NestedProblem):
        return list(range(source.n_nested)), [(i, j) for i, j in source.nested.pairs.tolist()]
    pairs = [(int(u), int(v)) for u, v in source]
    return sorted({u for uv in pairs for u in uv}), pairs


def validate_embedding(e: Embedding, source) -> EmbeddingReport:
    """Check disjointness, repeated qubits, connectivity, dead-qubit
    avoidance and coverage on the embedding's graph, by lookups into the
    layout ``e`` keeps."""
    vertices, pairs = _source(source)
    violations: list[str] = []
    for v in sorted(set(vertices) | set(e.chains)):
        violations += e._faults[v] if e.chains.get(v) else [f"missing chain for vertex {v}"]
    violations += [f"connectivity: chain {v} is not connected" for v in e._disconnected]
    violations += [
        f"coverage: no hardware edge between chains {u} and {v}"
        for u, v in pairs
        if e.chains.get(u) and e.chains.get(v) and (min(u, v), max(u, v)) not in e._couplers
    ]
    return EmbeddingReport(violations=tuple(violations))


def _triangular_layout(
    n: int, g: ChimeraGraph, rng: np.random.Generator | None = None
) -> dict | None:
    """Chains of the triangular complete-graph layout of K_n, or None if it
    does not fit or would claim a dead qubit.

    Vertex v (group b = v // cell_size, offset j = v % cell_size) becomes an
    L-shaped path on qubit offset k: horizontal qubits of block row b across
    block columns 0..b, then vertical qubits of block column b down block rows
    b..t-1, in a t x t block with t = ceil(n/cell_size). Every chain has
    exactly t + 1 qubits. Without ``rng`` the block sits at the origin and
    k = j. With it the block is displaced to a random position, each axis is
    randomly reflected and each group's offsets are permuted, drawn in that
    order.
    """
    m = g.cell_size
    t = -(-n // m)
    if t > min(g.rows, g.cols):
        return None
    dr = dc = 0
    flip_r = flip_c = False
    offsets = [range(m)] * t
    if rng is not None:
        dr = int(rng.integers(0, g.rows - t + 1))
        dc = int(rng.integers(0, g.cols - t + 1))
        flip_r = bool(rng.integers(0, 2))
        flip_c = bool(rng.integers(0, 2))
        offsets = [rng.permutation(m) for _ in range(t)]

    rows = [dr + (t - 1 - b if flip_r else b) for b in range(t)]
    cols = [dc + (t - 1 - b if flip_c else b) for b in range(t)]
    chains = {}
    for v in range(n):
        b, j = divmod(v, m)
        k = int(offsets[b][j])
        # along block row b to the elbow cell (b, b), then down block column b
        path = [g.index(rows[b], c, 1, k) for c in cols[: b + 1]]
        path += [g.index(r, cols[b], 0, k) for r in rows[b:]]
        if any(q in g.dead for q in path):
            return None
        chains[v] = path
    return chains


def choi_embed(n: int, g: ChimeraGraph) -> Embedding:
    """Triangular complete-graph embedding on a perfect Chimera graph: the
    layout of ``_triangular_layout`` at the origin, unreflected."""
    if g.dead:
        raise DomainError("triangular layout requires a perfect graph; use heuristic_embed")
    chains = _triangular_layout(n, g)
    if chains is None:
        t = -(-n // g.cell_size)
        raise CapacityExceeded(f"K_{n} needs a {t}x{t} block; graph is {g.rows}x{g.cols}")
    return Embedding(chains=chains, graph=g)


def _bfs_path(
    g: ChimeraGraph,
    sources: Sequence[int],
    goal_adjacent: set,
    free: set,
    rng: np.random.Generator,
    blocked: set = frozenset(),
) -> list[int] | None:
    """Shortest randomized path from ``sources`` through free qubits to any
    qubit in ``goal_adjacent``; returns the newly claimed qubits in order.

    ``blocked`` qubits (the last remaining surface of endangered chains) are
    never used as transit, only as goals.
    """
    parents = {q: None for q in sources}
    frontier = list(sources)
    hit = None
    while frontier and hit is None:
        nxt = []
        for q in frontier:
            nbrs = list(g.neighbors(q))
            rng.shuffle(nbrs)
            for nb in nbrs:
                if nb in parents or nb not in free:
                    continue
                if nb in goal_adjacent:
                    parents[nb] = q
                    hit = nb
                    break
                if nb in blocked:
                    continue
                parents[nb] = q
                nxt.append(nb)
            if hit is not None:
                break
        frontier = nxt
    if hit is None:
        return None
    path = []
    q = hit
    while q is not None and q not in sources:
        path.append(q)
        q = parents[q]
    path.reverse()
    return path


def _critical_surface(
    g: ChimeraGraph, chains: dict, unfinished, free: set, threshold: int = 3
) -> set:
    """Free qubits forming the scarce surface of chains that still need
    couplings; consuming them as transit would strand those chains."""
    crit = set()
    for u in unfinished:
        cq = chains.get(u)
        if not cq:
            continue
        surface = {q for c in cq for q in g.neighbors(c) if q in free}
        if len(surface) <= threshold:
            crit |= surface
    return crit


def _grow_chain(
    g: ChimeraGraph,
    free: set,
    chains: dict,
    placed: list,
    rng: np.random.Generator,
    unfinished=(),
    future_degree: int = 0,
) -> list[int] | None:
    """Grow a chain through free qubits until adjacent to every placed
    neighbor chain.

    When the new chain cannot reach a target through free space, the repair
    step routes the other way: the target chain is extended through free
    qubits until it touches the new chain. The scarce surface of endangered
    chains is refused as routing transit (recomputed before each connection)
    so that earlier chains are not entombed; if avoidance makes a target
    unreachable, an unblocked last-resort pass runs before giving up.
    """
    target_adj = {}
    for u in placed:
        adj = set()
        for q in chains[u]:
            adj.update(g.neighbors(q))
        target_adj[u] = adj

    chain: list[int] = []
    chain_set: set = set()
    # seed next to the scarcest target (fewest free adjacent qubits), which
    # is the easiest to strand; ties break randomly
    scarcity = {u: sum(1 for q in target_adj[u] if q in free) for u in placed}
    first = sorted(placed, key=lambda u: (scarcity[u], rng.random()))[0]
    seeds = sorted(q for q in target_adj[first] if q in free)
    if not seeds:
        return None
    critical = _critical_surface(g, chains, unfinished, free)
    preferred = [q for q in seeds if q not in critical] or seeds
    chain.append(int(preferred[rng.integers(0, len(preferred))]))
    chain_set.add(chain[0])
    free.discard(chain[0])

    remaining = {u for u in placed if not (chain_set & target_adj[u])}
    while remaining:
        critical = _critical_surface(g, chains, unfinished, free)
        # nearest remaining target first: one BFS toward the union of their
        # adjacency sets, claiming the path to whichever is discovered first
        goal = set()
        for u in remaining:
            goal |= target_adj[u]
        path = _bfs_path(g, chain, goal, free, rng, blocked=critical)
        if path is None:
            path = _bfs_path(g, chain, goal, free, rng)
        if path is not None:
            for q in path:
                chain.append(q)
                chain_set.add(q)
                free.discard(q)
            remaining = {u for u in remaining if not (chain_set & target_adj[u])}
            continue
        # repair: extend the scarcest unreachable target toward the new chain
        u = sorted(remaining, key=lambda w: (scarcity[w], rng.random()))[0]
        chain_adj = set()
        for q in chain:
            chain_adj.update(g.neighbors(q))
        chain_adj -= chain_set
        extension = _bfs_path(g, chains[u], chain_adj, free, rng, blocked=critical)
        if extension is None:
            extension = _bfs_path(g, chains[u], chain_adj, free, rng)
        if extension is None:
            return None
        for q in extension:
            chains[u].append(q)
            free.discard(q)
        target_adj[u] = set()
        for q in chains[u]:
            target_adj[u].update(g.neighbors(q))
        remaining.discard(u)
    # singleton chains are easily entombed by later placements; when more
    # couplings are still to come, give the newborn chain a second qubit of
    # adjacency surface
    if len(chain) == 1 and future_degree >= 2:
        critical = _critical_surface(g, chains, unfinished, free)
        spare = sorted(q for q in g.neighbors(chain[0]) if q in free)
        preferred = [q for q in spare if q not in critical] or spare
        if preferred:
            q = int(preferred[rng.integers(0, len(preferred))])
            chain.append(q)
            free.discard(q)
    return chain


def heuristic_embed(
    source,
    g: ChimeraGraph,
    rng: np.random.Generator,
    max_tries: int = 64,
) -> Embedding:
    """Randomized embedding with restarts: wire layouts, then chain growth.

    Each restart first tries a randomized displaced/reflected triangular
    wire placement (the only layout family that scales to dense sources on
    this topology), rejecting variants that would touch dead qubits. If no
    variant fits, vertices are placed one by one, growing each chain by BFS
    through free qubits until it is adjacent to every previously placed
    neighbor; when a target chain is unreachable, that chain is extended
    toward the new one instead (BFS repair). The result is verifier-checked
    before it is returned; after ``max_tries`` failed restarts an
    ``EmbeddingNotFound`` is raised.
    """
    vertices, pairs = _source(source)
    nbrs: dict[int, set] = {v: set() for v in vertices}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)

    usable = [q for q in range(g.total_qubits) if q not in g.dead and g.neighbors(q)]
    n_vertices = (max(vertices) + 1) if vertices else 0
    for _ in range(max_tries):
        if n_vertices > g.cell_size:
            tri = _triangular_layout(n_vertices, g, rng)
            if tri is not None:
                emb = Embedding(chains={v: tri[v] for v in vertices}, graph=g)
                if validate_embedding(emb, pairs).ok:
                    return emb
        order = list(vertices)
        rng.shuffle(order)
        free = set(usable)
        chains: dict[int, list[int]] = {}
        ok = True
        for v in order:
            placed = [u for u in nbrs[v] if u in chains]
            future = len(nbrs[v]) - len(placed)
            if not placed:
                if not free:
                    ok = False
                    break
                pool = sorted(free)
                seed = pool[int(rng.integers(0, len(pool)))]
                chains[v] = [seed]
                free.discard(seed)
                if future >= 2:
                    spare = sorted(q for q in g.neighbors(seed) if q in free)
                    if spare:
                        q = int(spare[rng.integers(0, len(spare))])
                        chains[v].append(q)
                        free.discard(q)
                continue
            unfinished = [u for u in chains if nbrs[u] - set(chains)]
            chain = _grow_chain(
                g, free, chains, placed, rng,
                unfinished=unfinished, future_degree=future,
            )
            if chain is None:
                ok = False
                break
            chains[v] = chain
        if not ok:
            continue
        emb = Embedding(chains=chains, graph=g)
        if validate_embedding(emb, pairs).ok:
            return emb
    raise EmbeddingNotFound(
        f"no embedding found after {max_tries} restarts; retry with another seed"
    )


# ---------------------------------------------------------------------------
# compilation of a nested problem onto hardware


@dataclass(frozen=True)
class PhysicalProblem:
    """A nested problem compiled onto the chain qubits of an embedding.

    ``problem`` has one spin per chain qubit, at its position in
    ``embedding.qubits``; idle hardware qubits are not part of it.
    Intra-chain couplers sit on a spanning tree of each chain (len-1 of them)
    at ``-chain_gamma``; each nested coupling is concentrated on one canonical
    hardware edge, with any parallel edges between the two chains present at
    value 0.
    """

    problem: IsingProblem
    embedding: Embedding
    chain_gamma: float


def apply_embedding(np_prob: NestedProblem, e: Embedding) -> PhysicalProblem:
    """Compile a nested problem onto the embedding's graph.

    Chains are bound at the nesting penalty ``np_prob.gamma`` (the
    shared-penalty protocol); each nested field goes on the first qubit of
    its chain. Spins are indexed by position in ``e.qubits``. An embedding
    that does not give every nested vertex a chain, or every nested coupling
    a hardware edge, raises ``InvalidEmbedding``.
    """
    report = validate_embedding(e, np_prob)
    if not report.ok:
        raise InvalidEmbedding(report)
    chain_gamma = np_prob.gamma
    if not chain_gamma > 0:
        raise DomainError(f"chain penalty must be positive, got {chain_gamma}")

    nested = np_prob.nested
    h = np.zeros(len(e.qubits), dtype=np.float64)
    coup: dict[tuple[int, int], float] = {}
    for v in range(nested.n):
        root, tree = e._trees[v]
        h[root] += nested.h[v]
        coup.update(dict.fromkeys(tree, -float(chain_gamma)))

    for (u, v), val in zip(nested.pairs.tolist(), nested.values.tolist()):
        first, *parallel = e._couplers[min(u, v), max(u, v)]
        coup[first] = coup.get(first, 0.0) + val
        for extra in parallel:
            coup.setdefault(extra, 0.0)

    problem = IsingProblem.from_couplings(len(e.qubits), couplings=coup, h=h, alpha=nested.alpha)
    return PhysicalProblem(problem=problem, embedding=e, chain_gamma=float(chain_gamma))
