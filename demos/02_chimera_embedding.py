"""Minor embedding on Chimera hardware graphs.

One layout, two placements. The triangular layout maps a complete graph K_n
onto a Chimera grid with chains of exactly ceil(n/4)+1 qubits. choi_embed
places it at the origin of a perfect grid; heuristic_embed walks its
placements (displaced, reflected, offsets relabelled) in a random order until
one avoids the dead qubits of the graph, and reports failure rather than ever
returning an invalid embedding. An embedding carries its graph, so validating
and compiling take no graph argument.
"""

import numpy as np

from nqac import (
    apply_embedding,
    build_chimera,
    choi_embed,
    embedding_stats,
    encode_nested,
    heuristic_embed,
    validate_embedding,
)
from nqac.errors import EmbeddingNotFound
from nqac.instances import dead8_mask, k4_antiferromagnet

perfect = build_chimera(8, 8)
print(f"perfect 8x8 graph: {perfect.total_qubits} qubits, {perfect.edge_count} couplers\n")

print("triangular complete-graph embeddings")
print(f"{'n':>4} {'chain len':>10} {'qubits used':>12}")
for n in (4, 8, 16, 32):
    emb = choi_embed(n, perfect)
    nq, mx, _ = embedding_stats(emb)
    print(f"{n:>4} {mx:>10} {nq:>12}")

mask = dead8_mask()
dead_graph = build_chimera(mask["rows"], mask["cols"], mask["dead"])
print(f"\ngraph with {len(mask['dead'])} dead qubits "
      f"({dead_graph.usable_qubits} usable): heuristic placement of K16")
pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
try:
    emb = heuristic_embed(pairs, dead_graph, np.random.default_rng(1))
    report = validate_embedding(emb, pairs)
    nq, mx, mean = embedding_stats(emb)
    print(f"  found: {nq} qubits, chains up to {mx} (mean {mean:.1f}); "
          f"verifier clean: {report.ok}")
except EmbeddingNotFound as exc:
    print(f"  {exc}")

print("\ncompiling a nested problem onto hardware")
npr = encode_nested(k4_antiferromagnet(), 2, gamma=0.4)
phys = apply_embedding(npr, choi_embed(8, perfect))
vals = list(phys.problem.coupling_dict().values())
n_penalty = sum(1 for v in vals if v == -phys.chain_gamma)
n_logical = sum(1 for v in vals if v > 0)
print(f"  {npr.n_nested} nested vertices -> {n_logical} problem couplers and "
      f"{n_penalty} penalty couplers at -{phys.chain_gamma} "
      "(chains share the copy-penalty value)")
