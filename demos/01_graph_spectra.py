"""
Directed graphs, Laplacian spectra, and grounded follower blocks
================================================================

A quick tour of the graph layer: how spanning trees show up in the
Laplacian spectrum, and how grounding a graph at a virtual leader turns
connectivity into a sign condition on eigenvalues.
"""

import numpy as np

from masobs.graphs import (DirectedGraph, augment, grounded_partition,
                           has_spanning_tree, is_strongly_connected, laplacian)

# A directed ring can route information from any node to any other.
ring = DirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
print("ring strongly connected:", is_strongly_connected(ring))

# A chain only pushes information forward; it still has a spanning tree
# rooted at node 1, which is exactly one zero Laplacian eigenvalue.
chain = DirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
for name, g in [("ring", ring), ("chain", chain)]:
    eigs = np.linalg.eigvals(laplacian(g))
    zeros = int(np.sum(np.abs(eigs) < 1e-8))
    print(f"{name}: spanning tree={has_spanning_tree(g)}, "
          f"zero eigenvalues={zeros}, spectrum={np.round(np.sort_complex(eigs), 3)}")

# Ground the ring at agent 2: attach a virtual leader node 0 with one edge.
# The follower block of the augmented Laplacian has eigenvalues strictly in
# the right half plane exactly because the ring is strongly connected.
aug = augment(ring, 2, 1.0)
blocks = grounded_partition(aug.weights)
print("\nfollower block S:")
print(blocks.s_matrix)
print("leader column O:", blocks.o_vector)
print("S @ 1 == O:", np.allclose(blocks.s_matrix @ np.ones(4), blocks.o_vector))
print("eigenvalues of S:", np.round(np.linalg.eigvals(blocks.s_matrix), 4))

# Break strong connectivity and the grounded block goes singular for some
# target: the leader's influence can no longer reach everyone.
broken = DirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
worst = min(np.min(np.abs(np.linalg.eigvals(
    grounded_partition(augment(broken, j, 1.0).weights).s_matrix))) for j in range(1, 5))
print("\nbroken graph: smallest grounded eigenvalue modulus over targets:",
      f"{worst:.2e}")
