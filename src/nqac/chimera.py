"""Chimera hardware graphs and minor embeddings of dense coupling graphs.

A Chimera graph is a ``rows x cols`` grid of complete-bipartite unit cells
(two half-cells of ``cell_size`` qubits each). Qubits are indexed linearly:

    index(row, col, side, k) = ((row*cols + col)*2 + side)*cell_size + k

Side 0 qubits couple vertically (same column, adjacent rows, same k); side 1
qubits couple horizontally. Dead qubits stay in the index space but lose all
incident couplers.

Two embedders are provided: the deterministic triangular complete-graph
layout for perfect graphs (each vertex becomes an L-shaped path of exactly
``ceil(n/cell_size) + 1`` qubits), and a randomized chain-growth heuristic
with restarts for graphs with dead qubits.
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
        object.__setattr__(
            self,
            "_edge_set",
            frozenset(
                (min(u, v), max(u, v)) for u, nbrs in self._adj.items() for v in nbrs
            ),
        )

    @property
    def total_qubits(self) -> int:
        return self.rows * self.cols * 2 * self.cell_size

    @property
    def usable_qubits(self) -> int:
        return self.total_qubits - len(self.dead)

    def index(self, row: int, col: int, side: int, k: int) -> int:
        return ((row * self.cols + col) * 2 + side) * self.cell_size + k

    def coordinates(self, q: int) -> tuple[int, int, int, int]:
        k = q % self.cell_size
        q //= self.cell_size
        side = q % 2
        q //= 2
        return q // self.cols, q % self.cols, side, k

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

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._edge_set)

    @property
    def edge_count(self) -> int:
        return len(self._edge_set)

    def to_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "dead": sorted(self.dead)}

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


def save_graph(g: ChimeraGraph, path) -> None:
    Path(path).write_text(json.dumps(g.to_dict(), indent=2))


def load_graph(path) -> ChimeraGraph:
    return ChimeraGraph.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# embeddings


@dataclass(frozen=True)
class Embedding:
    """Map from source vertices to disjoint connected chains of qubits."""

    chains: dict

    def __post_init__(self):
        object.__setattr__(
            self,
            "chains",
            {int(v): tuple(int(q) for q in qs) for v, qs in self.chains.items()},
        )

    def to_dict(self) -> dict:
        return {"chains": {str(v): list(qs) for v, qs in sorted(self.chains.items())}}

    @classmethod
    def from_dict(cls, d: dict) -> "Embedding":
        return cls(chains={int(v): list(qs) for v, qs in d["chains"].items()})


def save_embedding(e: Embedding, path) -> None:
    Path(path).write_text(json.dumps(e.to_dict(), indent=2, sort_keys=True))


def load_embedding(path) -> Embedding:
    return Embedding.from_dict(json.loads(Path(path).read_text()))


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


def _source_pairs(source) -> list[tuple[int, int]]:
    """Accept an IsingProblem, NestedProblem or iterable of vertex pairs."""
    if isinstance(source, NestedProblem):
        source = source.nested
    if isinstance(source, IsingProblem):
        return [(int(i), int(j)) for i, j in source.pairs]
    return [(int(u), int(v)) for u, v in source]


def validate_embedding(e: Embedding, source, g: ChimeraGraph) -> EmbeddingReport:
    """Check disjointness, connectivity, dead-qubit avoidance and coverage."""
    violations: list[str] = []
    pairs = _source_pairs(source)
    vertices = sorted({u for uv in pairs for u in uv} | set(e.chains))

    seen: dict[int, int] = {}
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

    for u, v in pairs:
        cu, cv = e.chains.get(u, ()), e.chains.get(v, ())
        if not cu or not cv:
            continue
        if not any(g.has_edge(a, b) for a in cu for b in cv):
            violations.append(f"coverage: no hardware edge between chains {u} and {v}")

    return EmbeddingReport(violations=tuple(violations))


def choi_embed(n: int, g: ChimeraGraph) -> Embedding:
    """Triangular complete-graph embedding on a perfect Chimera graph.

    Vertex v (group b = v // cell_size, offset k = v % cell_size) becomes an
    L-shaped path: horizontal qubits of row b across columns 0..b, then
    vertical qubits of column b down rows b..t-1, with t = ceil(n/cell_size).
    Every chain has exactly t + 1 qubits.
    """
    if g.dead:
        raise DomainError("triangular layout requires a perfect graph; use heuristic_embed")
    m = g.cell_size
    t = -(-n // m)
    if t > min(g.rows, g.cols):
        raise CapacityExceeded(
            f"K_{n} needs a {t}x{t} block; graph is {g.rows}x{g.cols}"
        )
    chains = {}
    for v in range(n):
        b, k = divmod(v, m)
        path = [g.index(b, c, 1, k) for c in range(b + 1)]
        path += [g.index(r, b, 0, k) for r in range(b, t)]
        chains[v] = path
    return Embedding(chains=chains)


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


def _triangular_variant(
    n: int, g: ChimeraGraph, rng: np.random.Generator
) -> dict | None:
    """One randomized dead-avoiding placement of the triangular wire layout.

    The standard complete-graph layout is displaced to a random position,
    randomly reflected, and the per-group qubit offsets are permuted; any
    variant that would claim a dead qubit is rejected (None).
    """
    m = g.cell_size
    t = -(-n // m)
    if t > min(g.rows, g.cols):
        return None
    dr = int(rng.integers(0, g.rows - t + 1))
    dc = int(rng.integers(0, g.cols - t + 1))
    flip_r = bool(rng.integers(0, 2))
    flip_c = bool(rng.integers(0, 2))

    def row_of(b):
        return dr + (t - 1 - b if flip_r else b)

    def col_of(b):
        return dc + (t - 1 - b if flip_c else b)

    offsets = {b: rng.permutation(m) for b in range(t)}
    chains = {}
    for v in range(n):
        b, j = divmod(v, m)
        k = int(offsets[b][j])
        cols = sorted(col_of(i) for i in range(b + 1))
        rows = sorted(row_of(i) for i in range(b, t))
        path = [g.index(row_of(b), c, 1, k) for c in cols]
        vert = [g.index(r, col_of(b), 0, k) for r in rows]
        if flip_c:
            path.reverse()  # keep the elbow cell adjacent to the wire ends
        if flip_r:
            vert.reverse()
        path += vert
        if any(q in g.dead for q in path):
            return None
        chains[v] = path
    return chains


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
    pairs = _source_pairs(source)
    vertices = sorted({u for uv in pairs for u in uv})
    nbrs: dict[int, set] = {v: set() for v in vertices}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)

    usable = [q for q in range(g.total_qubits) if q not in g.dead and g.neighbors(q)]
    n_vertices = (max(vertices) + 1) if vertices else 0
    for _ in range(max_tries):
        if n_vertices > g.cell_size:
            tri = _triangular_variant(n_vertices, g, rng)
            if tri is not None:
                emb = Embedding(chains={v: tri[v] for v in vertices})
                if validate_embedding(emb, pairs, g).ok:
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
        emb = Embedding(chains=chains)
        if validate_embedding(emb, pairs, g).ok:
            return emb
    raise EmbeddingNotFound(
        f"no embedding found after {max_tries} restarts; retry with another seed"
    )


# ---------------------------------------------------------------------------
# compilation of a nested problem onto hardware


@dataclass(frozen=True)
class PhysicalProblem:
    """A nested problem compiled onto hardware qubits.

    ``problem`` spans the full qubit index space of the graph; qubits outside
    any chain carry no couplings or fields. Intra-chain couplers sit on a
    spanning tree of each chain (len-1 of them) at ``-chain_gamma``; each
    nested coupling is concentrated on one canonical hardware edge, with any
    parallel edges between the two chains present at value 0.
    """

    problem: IsingProblem
    embedding: Embedding
    chain_gamma: float
    graph: ChimeraGraph


def _chain_tree_edges(qs: Sequence[int], g: ChimeraGraph) -> list[tuple[int, int]]:
    qset = set(qs)
    root = qs[0]
    seen = {root}
    stack = [root]
    edges = []
    while stack:
        q = stack.pop()
        for nb in g.neighbors(q):
            if nb in qset and nb not in seen:
                seen.add(nb)
                edges.append((min(q, nb), max(q, nb)))
                stack.append(nb)
    return edges


def apply_embedding(np_prob: NestedProblem, e: Embedding, g: ChimeraGraph) -> PhysicalProblem:
    """Compile a nested problem into a physical Ising problem.

    Chains are bound at the nesting penalty ``np_prob.gamma`` (the
    shared-penalty protocol); each nested field goes on the first qubit of
    its chain.
    """
    report = validate_embedding(e, np_prob, g)
    if not report.ok:
        raise InvalidEmbedding(report)
    chain_gamma = np_prob.gamma
    if not chain_gamma > 0:
        raise DomainError(f"chain penalty must be positive, got {chain_gamma}")

    nested = np_prob.nested
    n_phys = g.total_qubits
    h = np.zeros(n_phys, dtype=np.float64)
    coup: dict[tuple[int, int], float] = {}

    for v in range(nested.n):
        qs = e.chains[v]
        h[qs[0]] += nested.h[v]
        for a, b in _chain_tree_edges(qs, g):
            coup[(a, b)] = -float(chain_gamma)

    for (u, v), val in zip(nested.pairs, nested.values):
        hw = sorted(
            (min(a, b), max(a, b))
            for a in e.chains[int(u)]
            for b in e.chains[int(v)]
            if g.has_edge(a, b)
        )
        coup[hw[0]] = coup.get(hw[0], 0.0) + float(val)
        for extra in hw[1:]:
            coup.setdefault(extra, 0.0)

    problem = IsingProblem.from_couplings(n_phys, couplings=coup, h=h, alpha=nested.alpha)
    return PhysicalProblem(
        problem=problem, embedding=e, chain_gamma=float(chain_gamma), graph=g
    )
