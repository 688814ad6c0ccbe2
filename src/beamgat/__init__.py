"""Reconstruction of missing LiDAR elevation under structured beam dropout
using a single-layer gated graph-attention model, with classical and
graph-network baselines and the matching evaluation metrics."""
