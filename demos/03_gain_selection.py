"""
Choosing the coupling gain without global information
=====================================================

The consensus coupling gain must beat the ratio of the worst block growth
rate to the smallest grounded-Laplacian eigenvalue.  Evaluating that ratio
needs the whole communication graph, so agents that only know the largest
allowable network size fall back to closed-form lower bounds on the
grounded spectrum: one for undirected graphs with unit weights, one for
strongly connected digraphs with in-degree-normalized weights.  The price
of being topology-free is a much larger gain.
"""

import numpy as np

from masobs.graphs import augment, grounded_partition
from masobs.observer import (consensus_weight_set, coupling_gain_directed,
                             coupling_gain_undirected, design_gains,
                             grounded_spectrum_bound_directed,
                             grounded_spectrum_bound_undirected)
from masobs.scenarios import plugin_base_model
from masobs.synth import random_connected_undirected, random_strongly_connected

model = plugin_base_model()
rho = max(np.max(np.abs(np.linalg.eigvals(model.a_blocks[(i, i)])))
          for i in model.agents)
print(f"largest block spectral radius: {rho:.3f}")

# Topology-aware selection: evaluate the actual grounded spectra.
gains, _ = design_gains(model, weights="normalized-in", mu="global")
print(f"topology-aware gain (actual spectra): {int(gains.mu)}")

# Fully distributed selection: only the agent cap m_bar = 4 is known.
print(f"undirected fallback gain: {coupling_gain_undirected(rho, 4)}")
print(f"directed fallback gain:   {coupling_gain_directed(rho, 4)}")

# How tight are the closed-form spectrum bounds?  Sample random graphs and
# compare the guaranteed floor with what actually happens.
rng = np.random.default_rng(0)
print("\nundirected graphs, binary weights (m = 6):")
for _ in range(3):
    g = random_connected_undirected(rng, 6)
    lap = np.diag(g.weights.sum(axis=1)) - g.weights
    lam2 = float(np.sort(np.linalg.eigvalsh(lap))[1])
    actual = min(np.min(np.linalg.eigvalsh(
        grounded_partition((augment(g, j, 1.0).weights > 0) * 1.0).s_matrix))
        for j in range(1, 7))
    print(f"  bound {grounded_spectrum_bound_undirected(lam2, 6):.4f}"
          f"  vs actual minimum {actual:.4f}")

print("strongly connected digraphs, normalized weights (m = 5):")
for _ in range(3):
    g = random_strongly_connected(rng, 5)
    ws = consensus_weight_set(g, "normalized-in")
    actual = min(np.min(np.abs(np.linalg.eigvals(grounded_partition(ws[j]).s_matrix)))
                 for j in range(1, 6))
    print(f"  bound {grounded_spectrum_bound_directed(5):.6f}"
          f"  vs actual minimum {actual:.4f}")
