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
representation, the sorted neighbor lists.

There is one layout, the triangular complete-graph layout (Choi, Quantum
Inf. Process. 10, 343 (2011)): each vertex of K_n becomes an L-shaped path of
exactly ``ceil(n/cell_size) + 1`` qubits. It has two placements.
``choi_embed`` puts it at the origin of a perfect graph; ``heuristic_embed``
walks its placements (displaced, reflected, offsets relabelled) in a random
order until one avoids the dead qubits. Protocol runs embed the complete
graph K_{C*N}, so every pair of chains is adjacent and the nested vertices
can be reassigned to chains by any permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

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
        unknown = sorted(set(d) - {"rows", "cols", "cell_size", "dead"})
        if unknown:
            raise DomainError(f"unknown graph keys {unknown}; a graph has rows, cols, "
                              "cell_size and dead")
        sizes = (d["rows"], d["cols"], d.get("cell_size", 4))
        dead = list(d.get("dead", []))
        if any(type(x) is not int for x in (*sizes, *dead)):
            raise DomainError("rows, cols, cell_size and the dead qubits must be integers")
        return cls(*sizes, dead=frozenset(dead))


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
    n: int, g: ChimeraGraph, placement=(0, 0, False, False), rng=None
) -> dict | None:
    """Chains of the triangular complete-graph layout of K_n, or None if it
    does not fit or a group of vertices has too few paths free of dead qubits.

    Vertex v (group b = v // cell_size) becomes an L-shaped path on a qubit
    offset k: horizontal qubits of block row b across block columns 0..b,
    then vertical qubits of block column b down block rows b..t-1, in a t x t
    block with t = ceil(n/cell_size). Every chain has exactly t + 1 qubits.
    ``placement`` = (dr, dc, flip_r, flip_c) displaces the block to rows
    dr.. and columns dc.. and reflects either axis. Each group takes the
    first offsets whose paths claim no dead qubit: k = 0, 1, ... in order
    without ``rng``, in an order permuted by ``rng`` with it.
    """
    m = g.cell_size
    t = -(-n // m)
    dr, dc, flip_r, flip_c = placement
    if dr + t > g.rows or dc + t > g.cols:
        return None
    rows = [dr + (t - 1 - b if flip_r else b) for b in range(t)]
    cols = [dc + (t - 1 - b if flip_c else b) for b in range(t)]
    chains = {}
    for b in range(t):
        # along block row b to the elbow cell (b, b), then down block column b
        paths = [[g.index(rows[b], c, 1, k) for c in cols[: b + 1]]
                 + [g.index(r, cols[b], 0, k) for r in rows[b:]]
                 for k in (range(m) if rng is None else rng.permutation(m))]
        live = [path for path in paths if g.dead.isdisjoint(path)]
        group = range(b * m, min(n, (b + 1) * m))
        if len(live) < len(group):
            return None
        chains.update(zip(group, live))
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


def heuristic_embed(
    source,
    g: ChimeraGraph,
    rng: np.random.Generator,
    max_tries: int = 64,
) -> Embedding:
    """The triangular layout at a placement that avoids the dead qubits.

    The layout is that of K_n, n the number of source vertices; the i-th
    smallest vertex gets chain i. Every source is placed as a complete graph,
    so every chain has ``ceil(n/cell_size) + 1`` qubits, as under
    ``choi_embed``, and a source of more than ``cell_size * min(rows, cols)``
    vertices has no placement, however sparse its pairs. The distinct
    placements (block position and axis reflections; see
    ``_triangular_layout``) are walked in an order shuffled by ``rng``, up to
    ``max_tries`` of them, each with freshly permuted offsets. The first that
    passes ``validate_embedding`` is returned. When ``max_tries`` covers every
    placement, one is found whenever one exists and ``rng`` only picks which;
    otherwise ``EmbeddingNotFound`` is raised.
    """
    vertices, pairs = _source(source)
    n = len(vertices)
    t = -(-n // g.cell_size)
    flips = (False, True) if t > 1 else (False,)
    placements = [(dr, dc, fr, fc) for dr in range(g.rows - t + 1)
                  for dc in range(g.cols - t + 1) for fr in flips for fc in flips]
    for i in rng.permutation(len(placements))[:max_tries]:
        chains = _triangular_layout(n, g, placements[i], rng)
        if chains is not None:
            emb = Embedding(chains=dict(zip(vertices, chains.values())), graph=g)
            if validate_embedding(emb, pairs).ok:
                return emb
    raise EmbeddingNotFound(
        f"no placement of the K_{n} layout ({t}x{t} cells) avoids the dead qubits of the "
        f"{g.rows}x{g.cols} graph: {min(max_tries, len(placements))} of "
        f"{len(placements)} tried"
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
