"""Tour the ingestion and graph pipeline on a synthetic scan.

Synthesizes a sinusoidal ground surface as a 64-beam scan, applies the
canonical every-4th-beam dropout, builds the planar kNN graph, and prints
its shape and a few rows.  Run:

    python3 demos/02_knn_graph_tour.py
"""

import numpy as np

from beamgat import graph as graph_mod
from beamgat import ingest, synth


def main():
    spec = synth.SceneSpec(kind="sinusoid", point_count=1200)
    cloud = synth.synthesize_scene(spec, seed=0)
    print(f"scene: {cloud.xyz.shape[0]} points across "
          f"{np.unique(cloud.beam).size} populated beams")

    frame = ingest.apply_beam_dropout(cloud, nth=4)
    n_drop = int(frame.dropped_mask.sum())
    print(f"dropout: {n_drop} points ({frame.dropped_mask.mean():.1%}) lose their z")
    assert np.all(frame.z_masked[frame.dropped_mask] == 0.0)

    g = graph_mod.build_knn_graph(frame, k=8)
    print(f"graph: {g.num_nodes} nodes, {g.num_edges} directed edges, "
          f"a {g.neighbors.shape[0]} x {g.neighbors.shape[1]} neighbour table (k + self-loop)")

    print("\nnode features [x, y, z̃, beam/(B-1)] for three dropped nodes:")
    for i in np.flatnonzero(frame.dropped_mask)[:3]:
        x, y, z, b = g.features[i]
        neigh = g.neighbors[i]
        obs = frame.observed_mask[neigh[neigh != i]]
        print(f"  node {i:4d}: [{x:7.2f} {y:7.2f} {z:4.1f} {b:.3f}]  "
              f"{obs.sum()}/{obs.size} neighbors still observed")


if __name__ == "__main__":
    main()
